"""Closed-form conjugate-time families from the (lambda, rho) bracket data.

For orthonormal u, v with [[u,v],u]_m = lambda v the conjugate times along
gamma_u come in three branches: p*pi/sqrt(lambda) when [u,v] sits in k
(isotropic); 2p*pi/sqrt(lambda) when [u,v] spans an m-plane with rho = 0 (not
strictly isotropic); and, for rho > 0, the tan-family s/sqrt(lambda+rho) with
tan(s/2) = -rho s/(2 lambda) (not strictly isotropic) together with the
isotropic family 2p*pi/sqrt(lambda+rho).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import bracket
from .homogeneous import ReductiveSpace, project
from .jacobi import MAX_GRID_POINTS, ConjugateEvent, conjugate_events
from .jacobi import scan_conjugate_times  # noqa: F401  (re-exported for existing callers)

HYPOTHESIS_TOL = 1e-9
MATCH_TOL = 1e-7

BRANCH_COMMUTING = "commuting-m-part"
BRANCH_RHO_ZERO = "rho-zero"
BRANCH_RHO_POSITIVE = "rho-positive"

CLASS_ISOTROPIC = "isotropic"
CLASS_NOT_STRICT = "not-strictly-isotropic"

FAMILY_PI = "pi-family"
FAMILY_TWO_PI = "two-pi-family"
FAMILY_TAN = "tan-family"


class HypothesisViolated(RuntimeError):
    """The (u, v) pair does not satisfy the closed-form hypotheses."""


class Mismatch(RuntimeError):
    """A closed-form prediction is absent from (or misclassified by) the scan."""


class ClosedFormError(RuntimeError):
    """The closed-form times cannot be computed to their stated accuracy."""


@dataclass(frozen=True)
class CpData:
    space: ReductiveSpace
    u: np.ndarray
    v: np.ndarray
    lam: float
    rho: float
    branch: str
    w: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "rho": self.rho, "branch": self.branch}


@dataclass(frozen=True)
class ClosedFormTime:
    t: float
    isotropy_class: str
    family: str

    def to_dict(self) -> dict:
        return {"t": self.t, "class": self.isotropy_class, "family": self.family}


def extract_cp_data(space: ReductiveSpace, u, v, tol: float = HYPOTHESIS_TOL) -> CpData:
    """Extract (lambda, rho) from brackets, verifying every hypothesis residual."""
    alg = space.algebra
    uc = np.asarray(u, dtype=float)
    vc = np.asarray(v, dtype=float)
    ortho = np.abs([alg.inner(uc, uc) - 1.0, alg.inner(vc, vc) - 1.0, alg.inner(uc, vc)]).max()
    if not ortho <= tol:  # NaN-safe: a non-finite u or v fails here
        raise HypothesisViolated(f"u, v not orthonormal (residual {ortho:.2e})")

    b = bracket(alg.element(uc), alg.element(vc)).coeffs
    a = bracket(alg.element(b), alg.element(uc)).coeffs
    a_m = project(space, a, "M")
    lam = alg.inner(a_m, vc)
    resid = alg.norm(a_m - lam * vc)
    if resid > tol * max(1.0, abs(lam)):
        raise HypothesisViolated(
            f"[[u,v],u]_m is not proportional to v (residual {resid:.2e})"
        )
    if lam <= tol:
        raise HypothesisViolated(f"lambda = {lam:.2e} is not positive")
    norm_b2 = alg.inner(b, b)
    if abs(norm_b2 - lam) > tol * max(1.0, lam):
        raise HypothesisViolated(
            f"lambda = {lam:.6g} disagrees with |[u,v]|^2 = {norm_b2:.6g}"
        )

    b_k = project(space, b, "K")
    b_m = project(space, b, "M")
    nk, nm = alg.norm(b_k), alg.norm(b_m)
    scale = max(1.0, math.sqrt(norm_b2))
    if nm <= tol * scale:
        return CpData(space, uc, vc, float(lam), 0.0, BRANCH_COMMUTING)
    if nk > tol * scale:
        raise HypothesisViolated(
            f"[u,v] has both k and m components (|k| = {nk:.2e}, |m| = {nm:.2e})"
        )

    w = b / math.sqrt(lam)
    uw = bracket(alg.element(uc), alg.element(w)).coeffs
    uw_k = project(space, uw, "K")
    rho = alg.inner(uw_k, uw_k)
    a_k = project(space, a, "K")
    identity = abs(rho * lam - alg.inner(a_k, a_k))
    if identity > tol * max(1.0, rho * lam):
        raise HypothesisViolated(
            f"rho*lambda != |[[u,v],u]_k|^2 (residual {identity:.2e})"
        )
    if rho <= 1e-10:
        return CpData(space, uc, vc, float(lam), 0.0, BRANCH_RHO_ZERO, w=w)
    rw = bracket(alg.element(uw_k), alg.element(uc)).coeffs  # [[u,w]_k, u]
    resid_rho = alg.norm(rw - rho * w)
    if resid_rho > tol * max(1.0, rho):
        raise HypothesisViolated(
            f"[[u,[u,v]]_k, u] is not collinear to [u,v] (residual {resid_rho:.2e})"
        )
    return CpData(space, uc, vc, float(lam), float(rho), BRANCH_RHO_POSITIVE, w=w)


def solve_tan_family(mu: float, n_roots: int) -> list[float]:
    """First ``n_roots`` positive solutions of tan(s/2) = mu*s for mu < 0.

    f(s) = tan(s/2) - mu s increases on ](2k-1)pi, (2k+1)pi[ from -inf, and
    f(2k pi) > 0, so the k-th root is bracketed in ](2k-1)pi, 2k pi[.  Newton,
    with bisection whenever a step leaves the bracket, narrows the bracket on
    the sign of f; each Newton point is nudged by a quarter of the target width
    so that both ends close in.  A root is certified by f(lo) < 0 < f(hi) with
    hi - lo <= 1e-12 hi, and the last Newton point inside is returned.
    """
    if mu >= 0:
        raise ValueError("mu must be negative")
    if n_roots < 1:
        raise ValueError("n_roots must be >= 1")

    roots = []
    for k in range(1, n_roots + 1):
        lo, hi = (2 * k - 1) * math.pi, 2 * k * math.pi
        root = s = hi
        for _ in range(200):
            f = math.tan(s / 2.0) - mu * s
            lo, hi = (s, hi) if f < 0 else (lo, s) if f > 0 else (s, s)
            if hi - lo <= 1e-12 * hi:
                break
            newton = s - f / (0.5 / math.cos(s / 2.0) ** 2 - mu)
            s = newton + math.copysign(0.25e-12 * newton, -f)
            if lo < s < hi:
                root = newton
            else:
                root = s = 0.5 * (lo + hi)
        else:
            raise ClosedFormError(f"tan-family root {k} not bracketed to 1e-12 (mu = {mu:g})")
        roots.append(root if lo <= root <= hi else s)
    return roots


def _periodic_times(period: float, t_max: float) -> list[float]:
    """p * period for p = 1, 2, ... up to t_max; refuses a non-finite t_max or
    one that would give over MAX_GRID_POINTS times."""
    if not t_max / period <= MAX_GRID_POINTS:
        raise ValueError(f"t_max = {t_max:g} gives over {MAX_GRID_POINTS:g} periodic times")
    out, p = [], 1
    while p * period <= t_max + 1e-15:
        out.append(p * period)
        p += 1
    return out


def closed_form_times(data: CpData, t_max: float) -> list[ClosedFormTime]:
    """All closed-form conjugate times up to t_max, annotated with their class."""
    if not 0 < t_max < math.inf:
        raise ValueError("t_max must be finite and positive")
    omega = math.sqrt(data.lam + data.rho)  # rho = 0 off the rho-positive branch
    period = (math.pi if data.branch == BRANCH_COMMUTING else 2 * math.pi) / omega
    isotropy_class, family = {
        BRANCH_COMMUTING: (CLASS_ISOTROPIC, FAMILY_PI),
        BRANCH_RHO_ZERO: (CLASS_NOT_STRICT, FAMILY_TWO_PI),
        BRANCH_RHO_POSITIVE: (CLASS_ISOTROPIC, FAMILY_TWO_PI),
    }[data.branch]
    out = [ClosedFormTime(t, isotropy_class, family) for t in _periodic_times(period, t_max)]
    tan = data.branch == BRANCH_RHO_POSITIVE
    if tan:
        mu = -data.rho / (2.0 * data.lam)
        n_roots = max(1, int(math.ceil((omega * t_max / math.pi + 1.0) / 2.0)))
        for s in solve_tan_family(mu, n_roots):
            t = s / omega
            if t <= t_max + 1e-15:
                out.append(ClosedFormTime(t, CLASS_NOT_STRICT, FAMILY_TAN))
    out.sort(key=lambda item: item.t)
    if tan and any(second.t - first.t < 1e-6 for first, second in zip(out, out[1:])):
        raise ClosedFormError("tan-family and 2p*pi-family times collide")
    return out


@dataclass(frozen=True)
class CrossValidation:
    space: str
    lam: float
    rho: float
    branch: str
    closed_form: tuple[ClosedFormTime, ...]
    events: tuple[ConjugateEvent, ...]
    matched: tuple[tuple[ClosedFormTime, ConjugateEvent], ...]
    extras: tuple[ConjugateEvent, ...]

    @property
    def all_matched(self) -> bool:
        return len(self.matched) == len(self.closed_form)

    def to_dict(self) -> dict:
        return {
            "space": self.space,
            "lambda": self.lam,
            "rho": self.rho,
            "branch": self.branch,
            "closed_form": [c.to_dict() for c in self.closed_form],
            "scanned": [e.to_dict() for e in self.events],
            "matched": self.all_matched,
            "extras": [e.to_dict() for e in self.extras],
        }


def _class_compatible(predicted: str, event: ConjugateEvent) -> bool:
    if predicted == CLASS_ISOTROPIC:
        return bool(event.isotropic_exists)
    return not event.strictly_isotropic


def cross_validate(
    space: ReductiveSpace,
    u,
    v,
    t_max: float,
) -> CrossValidation:
    """Check every closed-form time against the ODE scan (hard Mismatch on absence)."""
    data = extract_cp_data(space, u, v)
    predicted = closed_form_times(data, t_max)
    events = conjugate_events(space, u, t_max)

    matched = []
    used = set()
    for pred in predicted:
        idx = next((i for i, ev in enumerate(events) if abs(ev.t - pred.t) < MATCH_TOL), None)
        if idx is None:
            raise Mismatch(
                f"{space.name}: closed-form time {pred.t:.12g} ({pred.family}) "
                f"not found by the scan"
            )
        ev = events[idx]
        if not _class_compatible(pred.isotropy_class, ev):
            raise Mismatch(
                f"{space.name}: event at t = {ev.t:.12g} has flags "
                f"(isotropic_exists={ev.isotropic_exists}, "
                f"strictly_isotropic={ev.strictly_isotropic}) incompatible with "
                f"predicted class {pred.isotropy_class!r}"
            )
        used.add(idx)
        matched.append((pred, ev))
    extras = tuple(ev for idx, ev in enumerate(events) if idx not in used)
    return CrossValidation(
        space=space.name,
        lam=data.lam,
        rho=data.rho,
        branch=data.branch,
        closed_form=tuple(predicted),
        events=tuple(events),
        matched=tuple(matched),
        extras=extras,
    )
