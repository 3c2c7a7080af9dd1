"""Curvature extremes and the pinching constant delta = min K / max K.

Both extremes come from one run of the shared multistart damped Riemannian
Newton optimizer over tangent 2-planes (homogeneous.optimize_pairs).  Each
extreme screens START_SCREEN = 8 random planes per start with one curvature
evaluation of them all, and starts from the best.  Its k_max and k_min starts
advance together, one call of the normal-mode bracket kernel per step: the
value, and the gradient and Hessian in an orthonormal frame of the tangent
space of the Grassmannian, so that each Newton system has size 2(n - 2) for
an n-dimensional m.  Each start stops on its own Newton decrement.  A start
whose damped Newton system is indefinite (its step predicts no gain: it sits
near a saddle) steps along the top eigenvector of its signed Hessian instead;
an eigh costs two to eleven solves, so only those starts take one.  A large
random audit then guards the reported bracket [k_min, k_max]: the kernel's
value on planes spanned by raw Gaussian pairs, uniform on the Grassmannian,
with no orthonormalization, as the value is GL(2)-invariant.  The audit draws
from its own stream, default_rng(seed + 1), and the screen from
default_rng(seed), so the audit stays independent of the screen.  Its draws
depend on (seed, audit_samples, n) alone, so consecutive estimates with the
same three share one draw (_audit_pairs).  The report also carries the
optimizer's step count and the Riemannian gradient norm at both extreme planes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .homogeneous import PlaneSpec, ReductiveSpace, fields_dict, gaussian_pairs, optimize_pairs

DEFAULT_MULTISTARTS = 256
# The most starts estimate_pinching takes, so that `pinching` keeps the descriptor
# budget of catalog._FAMILIES (4 s, 256 MB peak RSS, one process, one BLAS thread,
# 2-CPU x86-64 machine) on spsphere:m=5, the admitted space of largest m (23-dim):
# 1024 starts ran in 2.9-3.9 s at 206 MB, 1280 in 4.3 s at 268 MB, 2048 in 6.9 s at
# 362 MB.  Memory grows linearly in the count: per start and sign, 8 screened pairs
# and the 2(n - 2)-square Newton Hessians with their temporaries.
MAX_MULTISTARTS = 1024
CONVERGENCE_RTOL = 1e-6
AUDIT_SAMPLES = 10_000
CURVE_FAMILIES = ("berger", "spsphere")  # the families with a closed-form delta(s)
DELTA_COLUMNS = ("delta_measured", "delta_formula", "rel_error", "converged")


class Table(list):
    """Rows as dicts over the same columns, in order; an empty table keeps its columns."""

    def __init__(self, columns, values=()):
        self.columns = tuple(columns)
        super().__init__(dict(zip(self.columns, row, strict=True)) for row in values)


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
        # the planes are arrays for the caller, not part of the document
        return {"check": "pinching"} | fields_dict(self, "argmin_plane", "argmax_plane")


@lru_cache(maxsize=1)
def _audit_pairs(seed: int, count: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """gaussian_pairs(default_rng(seed), count, n), read-only, kept for the next
    call with the same (seed, count, n).  The one entry holds 16 * count * n bytes:
    2.1 MB at n = 13 (b13) and 3.7 MB at n = 23 (the largest m) at AUDIT_SAMPLES."""
    xs, ys = gaussian_pairs(np.random.default_rng(seed), count, n)
    xs.flags.writeable = ys.flags.writeable = False
    return xs, ys


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
    CONVERGENCE_RTOL relative clears `converged`.  `converged` also needs 3
    starts within CONVERGENCE_RTOL of each extreme, so fewer than 3 multistarts
    are rejected; more than MAX_MULTISTARTS are too, before any draw.
    """
    if multistarts < 3:
        raise ValueError("multistarts must be >= 3")
    if multistarts > MAX_MULTISTARTS:
        raise ValueError(f"multistarts must be <= {MAX_MULTISTARTS}")
    if audit_samples < 1:
        raise ValueError("audit_samples must be >= 1")
    kernel = space.curvature_kernel
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

    vals = kernel.value(*_audit_pairs(seed + 1, audit_samples, kernel.n))
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


def delta_row(space: ReductiveSpace, family: str, m, s, multistarts: int, seed: int) -> dict:
    """The measured and the closed-form delta of one space, with their relative error.

    rel_error compares the two deltas as the output prints them, rounded to 12
    significant digits, so that a drift of delta below the printed precision
    cannot change it.  A tolerance test should use the unrounded values."""
    report = estimate_pinching(space, multistarts=multistarts, seed=seed)
    formula = expected_delta(family, m=m, s=s)
    measured, expected = (float(f"{x:.12g}") for x in (report.delta, formula))
    rel_error = abs(measured - expected) / expected
    return dict(zip(DELTA_COLUMNS, (report.delta, formula, rel_error, report.converged)))


def pinching_curve(
    family: str,
    m: int,
    s_grid,
    multistarts: int = DEFAULT_MULTISTARTS,
    seed: int = 0,
) -> Table:
    """estimate_pinching along an s-grid with the closed-form delta(s) column.

    delta is scale-invariant (g_kappa = g / kappa scales every curvature by
    kappa), so the curve is taken at kappa = 1."""
    from .catalog import build_space

    if family not in CURVE_FAMILIES:
        raise ValueError(f"pinching curves are defined for {' and '.join(CURVE_FAMILIES)}")
    rows = []
    for s in map(float, s_grid):
        space = build_space(f"{family}:m={m},s={s:.12g}")
        rows.append((s, *delta_row(space, family, m, s, multistarts, seed).values()))
    return Table(("s", *DELTA_COLUMNS), rows)
