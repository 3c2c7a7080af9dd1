"""Curvature extremes and the pinching constant delta = min K / max K.

Both extremes come from one run of the shared multistart damped Riemannian
Newton optimizer over tangent 2-planes (homogeneous.optimize_pairs): its
k_max and k_min starts advance together, one call of the normal-mode bracket
kernel (value, exact gradient and projected Hessian) per step, and each start
stops on its own Newton decrement.  A large random audit then guards the
reported bracket [k_min, k_max]: the kernel's value on planes spanned by raw
Gaussian pairs, uniform on the Grassmannian, with no orthonormalization, as
the value is GL(2)-invariant.  The report also carries the optimizer's step
count and the Riemannian gradient norm at both extreme planes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .homogeneous import BracketKernel, PlaneSpec, ReductiveSpace, optimize_pairs

DEFAULT_MULTISTARTS = 256
CONVERGENCE_RTOL = 1e-6
AUDIT_SAMPLES = 10_000


@dataclass(frozen=True)
class PinchingReport:
    space: str
    params: dict
    k_min: float
    k_max: float
    delta: float
    argmin_plane: PlaneSpec
    argmax_plane: PlaneSpec
    samples: int
    converged: bool
    multistarts: int
    seed: int
    optimizer_steps: int
    grad_norm_argmax: float
    grad_norm_argmin: float

    def to_dict(self) -> dict:
        return {
            "check": "pinching",
            "space": self.space,
            "params": dict(self.params),
            "k_min": self.k_min,
            "k_max": self.k_max,
            "delta": self.delta,
            "samples": self.samples,
            "converged": self.converged,
            "multistarts": self.multistarts,
            "seed": self.seed,
            "optimizer_steps": self.optimizer_steps,
            "grad_norm_argmax": self.grad_norm_argmax,
            "grad_norm_argmin": self.grad_norm_argmin,
        }


def estimate_pinching(
    space: ReductiveSpace,
    multistarts: int = DEFAULT_MULTISTARTS,
    seed: int = 0,
    max_iter: int = 400,
    audit_samples: int = AUDIT_SAMPLES,
) -> PinchingReport:
    """Locate k_min, k_max and delta = k_min/k_max over tangent 2-planes.

    The optimizer draws its starts from default_rng(seed).  The audit draws
    audit_samples Gaussian pairs from default_rng(seed + 1), xs then ys, and
    evaluates the curvature of the planes they span as drawn.  An audit value
    outside the optimizer's bracket widens it, and one outside it by more than
    CONVERGENCE_RTOL relative clears `converged`.
    """
    if audit_samples < 1:
        raise ValueError("audit_samples must be >= 1")
    kernel = BracketKernel(space, 1.0, 0.25)
    rng = np.random.default_rng(seed)
    vals, xs, ys, grad_norm, steps = optimize_pairs(
        kernel, (+1.0, -1.0), rng, multistarts, max_iter
    )
    runs = np.split(vals, 2)  # the k_max starts, then the k_min starts
    best = (int(np.argmax(runs[0])), multistarts + int(np.argmin(runs[1])))
    k_max, k_min = vals[best[0]], vals[best[1]]
    argmax, argmin = (PlaneSpec(space.from_frame(xs[b]), space.from_frame(ys[b])) for b in best)
    tols = CONVERGENCE_RTOL * np.maximum(np.abs([k_max, k_min]), 1e-30)
    converged = all(np.sum(np.abs(r - k) <= t) >= 3 for r, k, t in zip(runs, (k_max, k_min), tols))

    audit_rng = np.random.default_rng(seed + 1)
    vals = kernel.value(*kernel.gaussian_pairs(audit_rng, audit_samples))
    lo, hi = float(np.min(vals)), float(np.max(vals))
    tol = CONVERGENCE_RTOL * max(abs(k_max), abs(hi))
    if lo < k_min - tol or hi > k_max + tol:
        converged = False
    k_min, k_max = min(k_min, lo), max(k_max, hi)
    return PinchingReport(
        space=space.name,
        params=dict(space.params),
        k_min=float(k_min),
        k_max=float(k_max),
        delta=float(k_min / k_max),
        argmin_plane=argmin,
        argmax_plane=argmax,
        samples=audit_samples,
        converged=bool(converged),
        multistarts=multistarts,
        seed=seed,
        optimizer_steps=steps,
        grad_norm_argmax=float(grad_norm[best[0]]),
        grad_norm_argmin=float(grad_norm[best[1]]),
    )


def expected_delta(family: str, m: int | None = None, s: float | None = None) -> float | None:
    """Pinching constants of the sphere and projective families; None if untracked."""
    if family == "round":
        return 1.0
    if family == "cpodd":
        return 1.0 / 16.0
    if family == "berger":
        return s * (m + 1) / (8 * m - 3 * s * (m + 1))
    if family == "spsphere":
        return s / (8 - 3 * s) if s >= 2.0 / 3.0 else s * s / 4.0
    return None


def pinching_curve(
    family: str,
    m: int,
    s_grid,
    multistarts: int = DEFAULT_MULTISTARTS,
    seed: int = 0,
) -> list[dict]:
    """estimate_pinching along an s-grid with the closed-form delta(s) column.

    delta is scale-invariant (g_kappa = g / kappa scales every curvature by
    kappa), so the curve is taken at kappa = 1."""
    from .catalog import build_space, parse_descriptor

    if family not in ("berger", "spsphere"):
        raise ValueError("pinching curves are defined for berger and spsphere")
    rows = []
    for s in s_grid:
        desc = parse_descriptor(f"{family}:m={m},s={s:.12g}")
        report = estimate_pinching(build_space(desc), multistarts=multistarts, seed=seed)
        formula = expected_delta(family, m=m, s=float(s))
        rows.append(
            {
                "s": float(s),
                "delta_measured": report.delta,
                "delta_formula": formula,
                "rel_error": abs(report.delta - formula) / formula,
                "converged": report.converged,
            }
        )
    return rows
