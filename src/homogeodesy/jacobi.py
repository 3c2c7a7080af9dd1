"""The canonical Jacobi equation as a constant-coefficient linear system.

Along gamma_u the Jacobi fields vanishing at the origin are encoded by the
n x n block J(t) mapping X'(0) to X(t); J(t) is read off E(t) = exp(tA), the
exponential of the 2n x 2n companion matrix A of X'' - T X' + R X = 0.
Conjugate times are the zeros of det J(t): a bisection certified by the
energy bound ||J'|| <= 1 discards zero-free intervals, and Newton's method on
sigma_min refines each remaining dip (see scan_conjugate_times).

All operators here act in a gram-orthonormal frame of m, so kernels, ranks
and orthogonal complements use plain Euclidean geometry.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .homogeneous import ReductiveSpace, jacobi_op, torsion_op

T_TOL = 1e-10  # promised accuracy of event times; Newton lands far inside it
MULTIPLICITY_RTOL = 1e-7
RANK_TOL = 1e-8
MAX_GRID_POINTS = 10**7
_LEAF = 1e-5  # width below which a suspicious interval stops being bisected
_NEWTON_RTOL = 1e-14
_MAX_NEWTON = 100
_BLOCK = 1024  # grid cells per block of batched products and SVDs


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scipy.linalg.expm, imported here so that only a scan loads scipy.

    The attribute is looked up at every call, so a binding patched onto
    scipy.linalg (a tracer or a counting test) sees every exponential.
    """
    import scipy.linalg

    return scipy.linalg.expm(a)


class JacobiError(RuntimeError):
    pass


class ZeroVector(JacobiError):
    pass


class GridTooLarge(ValueError):
    """The scan grid would exceed MAX_GRID_POINTS points (or never reach t_max)."""


class BadAngle(JacobiError):
    pass


class BadAux(JacobiError):
    pass


@dataclass(frozen=True)
class JacobiSystem:
    """T, R and the companion matrix for a unit direction u, in an ON frame of m.

    build_system owns the spectral data: r_evals and r_evecs come from its one
    eigh of R (ascending), norm_t is its one ||T||_2.  The R >= 0 check,
    complement_projector, default_scan_step and the certificate of _samples
    all read these fields; the arrays are read-only.
    """

    space: ReductiveSpace
    u: np.ndarray
    T: np.ndarray
    R: np.ndarray
    companion: np.ndarray
    r_evals: np.ndarray
    r_evecs: np.ndarray
    norm_t: float

    @property
    def n(self) -> int:
        return self.T.shape[0]

    @property
    def norm_r(self) -> float:
        return float(max(-self.r_evals[0], self.r_evals[-1]))

    @cached_property
    def complement_projector(self) -> np.ndarray:
        """Read-only projector onto (Ker R_u)-perp, from the eigenvectors of R."""
        cutoff = RANK_TOL * max(self.r_evals[-1], 1e-300)
        w = self.r_evecs[:, self.r_evals > cutoff]
        proj = w @ w.T
        proj.setflags(write=False)
        return proj


@dataclass(frozen=True)
class ConjugateEvent:
    """A conjugate time with its kernel of initial derivatives X'(0)."""

    t: float
    multiplicity: int
    kernel: np.ndarray  # (multiplicity, algebra dim) coefficient vectors
    isotropic_exists: bool | None = None
    strictly_isotropic: bool | None = None

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("conjugate events have multiplicity >= 1")
        if self.strictly_isotropic and self.isotropic_exists is False:
            raise ValueError("strictly isotropic events are in particular isotropic")

    def to_dict(self) -> dict:
        keys = ("t", "multiplicity", "isotropic_exists", "strictly_isotropic")
        return {key: getattr(self, key) for key in keys}


def build_system(space: ReductiveSpace, u) -> JacobiSystem:
    """Assemble T, R and the companion [[0, I], [-R, T]] for the direction u,
    with the one eigendecomposition of R and the one ||T||_2 of the system."""
    uc = np.asarray(u, dtype=float).copy()
    norm = space.algebra.norm(uc)
    if not math.isfinite(norm):
        raise ValueError(f"geodesic direction must be finite, got norm {norm}")
    if norm < 1e-14:
        raise ZeroVector("geodesic direction must be nonzero")
    uc /= norm
    k = space.part_indices("K")
    if len(k) and np.max(np.abs(uc[k])) > 1e-10:
        raise ValueError("geodesic direction must be supported on m")

    # A_on = L^T A L^-T: the same operator in the gram-orthonormal frame.
    t_on = space.chol_m.T @ torsion_op(space, uc) @ space.frame_m
    r_on = space.chol_m.T @ jacobi_op(space, uc) @ space.frame_m
    skew, sym = np.max(np.abs(t_on + t_on.T)), np.max(np.abs(r_on - r_on.T))
    if max(skew, sym) > 1e-9:
        raise JacobiError(
            f"operators violate (skew-)adjointness on {space.name}: {skew:.1e}/{sym:.1e}"
        )
    r_on = 0.5 * (r_on + r_on.T)
    t_on = 0.5 * (t_on - t_on.T)
    evals, evecs = np.linalg.eigh(r_on)
    companion = np.block([[np.zeros_like(r_on), np.eye(len(r_on))], [-r_on, t_on]])
    for arr in (t_on, r_on, companion, uc, evals, evecs):
        arr.setflags(write=False)
    sys = JacobiSystem(space, uc, t_on, r_on, companion, evals, evecs, np.linalg.norm(t_on, 2))
    if evals[0] < -1e-9 * sys.norm_r:  # the energy bound needs R >= 0
        raise JacobiError(f"R_u is indefinite on {space.name}: lambda_min = {evals[0]:.1e}")
    return sys


def fundamental_block(sys: JacobiSystem, t: float) -> np.ndarray:
    """J(t): upper-right n x n block of exp(t * companion), maps X'(0) to X(t)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    n = sys.n
    return _expm(t * sys.companion)[:n, n:]


def default_scan_step(sys: JacobiSystem) -> float:
    """h = 0.25 / sqrt(||R|| + ||T||^2 + 1), from the system's spectral fields."""
    return 0.25 / math.sqrt(sys.norm_r + sys.norm_t**2 + 1.0)


def _newton(sys: JacobiSystem, lo, f_lo, hi, f_hi, t, lip):
    """Newton on sigma_min from t, bisecting [lo, hi] on the sign of sigma_min'
    when a step leaves the bracket or fails to halve the step before last.
    J and J' = E_11 + J T come from one E = exp(tA); sigma_i' = u_i^T J' v_i.
    Returns the last probe (t, sv, vt, slopes) and whether it landed on a zero,
    giving up once the bracket collapses or lip keeps sigma_min above the
    multiplicity cutoff on it."""
    n = sys.n
    dx = dx_old = hi - lo
    for _ in range(_MAX_NEWTON):
        e = _expm(t * sys.companion)
        u, sv, vt = np.linalg.svd(e[:n, n:])
        slopes = np.einsum("ij,ji->i", u.T @ (e[:n, :n] + e[:n, n:] @ sys.T), vt.T)
        probe = (t, sv, vt, slopes)
        if slopes[-1] < 0:
            lo, f_lo = t, sv[-1]
        else:
            hi, f_hi = t, sv[-1]
        step = sv[-1] / slopes[-1] if slopes[-1] else math.inf
        if abs(step) <= _NEWTON_RTOL * t:
            return probe, True
        cutoff = MULTIPLICITY_RTOL * sv[0]
        if hi - lo <= _NEWTON_RTOL * t or f_lo + f_hi - lip * (hi - lo) > 2.0 * cutoff:
            break
        if lo < t - step < hi and 2.0 * abs(step) <= abs(dx_old):
            dx_old, dx = dx, step
            t -= step
        else:
            dx_old, dx = dx, 0.5 * (hi - lo)
            t = lo + dx
    return probe, False


def _refine(sys: JacobiSystem, ts, fs, lip: float) -> list[ConjugateEvent]:
    """The zeros in one dip, fs <= sigma_min(ts); Newton starts at the lowest sample.

    At a zero t*, another singular value sigma_i(t*) <= lip * (distance to the
    far end of the dip) might vanish in the dip too: one Newton step along
    sigma_i' predicts where, and Newton on sigma_min refines the prediction.
    """
    k = int(np.argmin(fs))
    lo, hi = max(k - 1, 0), min(k + 1, len(ts) - 1)
    found = [_newton(sys, ts[lo], fs[lo], ts[hi], fs[hi], ts[k], lip)[0]]
    events: list[ConjugateEvent] = []
    while found and len(events) < sys.n:
        t, sv, vt, slopes = found.pop()
        mult = int(np.sum(sv < MULTIPLICITY_RTOL * sv[0]))
        if mult == 0:
            continue
        kernel = sys.space.from_frame(vt[sys.n - mult :])
        events.append(ConjugateEvent(t=float(t), multiplicity=mult, kernel=kernel))
        reach = lip * max(t - ts[0], ts[-1] - t)
        for value, slope in zip(sv[: sys.n - mult], slopes):
            if value >= reach or not slope:
                continue
            guess = t - value / slope
            radius = 0.25 * abs(guess - t)
            known = [ev.t for ev in events] + [other[0] for other in found]
            if ts[0] < guess < ts[-1] and all(abs(guess - tk) > radius for tk in known):
                probe, landed = _newton(sys, guess - radius, 0.0, guess + radius, 0.0, guess, lip)
                if landed:
                    found.append(probe)
    return sorted(events, key=lambda ev: ev.t)


def _samples(sys: JacobiSystem, t_max: float, step: float):
    """sigma_min(J) on the grid of scan_conjugate_times and its bisection.

    Returns the sample times and values, whether sigma_min may vanish between
    consecutive samples, L and delta.  Rows Z = [E_11 | J] are right-multiplied
    by exp(hA) along the grid and by exp(wA/2) to the midpoints of width-w
    intervals (one expm per level), in blocks of _BLOCK cells.  A level holds
    only its live intervals (both ends, their sigma_min and the left end's
    row, in time order); an interval that is not split is final, and the
    samples and final intervals are put in time order once at the end.
    eta, ||R|| and ||T|| come from the system's fields (build_system's eigh
    of R and ||T||_2); L, r and zeta below are built from them.

    delta >= |sigma_hat - sigma| (Weyl: <= ||J_hat - J||) to first order in u:
    a sample is fl(..fl(Z_0 S_1)..S_K), Z_0 = [I 0], S_k = exp(s_k A), sum s_k
    <= t (the last grid time), K <= grid points + levels.  For s <= t the flow
    has ||J|| <= L s, ||J'|| <= L, ||E_21|| <= L r with r = sqrt(||R|| + eta) +
    sqrt(eta) (X(0) = x, X'(0) = 0 has energy <Rx, x>) and ||E_11|| <= L zeta,
    zeta = 1 + t min(||T||, r) (also E_11 = J' - J T); an error [l_1 | l_2] in
    Z at t_k reaches J(t) as l_1 J(t - t_k) + l_2 J'(t - t_k).  A product errs
    by gamma_2n |Z||S| (Higham, Accuracy and Stability, eq. 3.13), and
    || |X||Y| || <= n ||X|| ||Y|| on n x n blocks; expm gives exp(s_k A + D),
    ||D|| <= u s_k ||A|| (Al-Mohy and Higham, SIMAX 31, 2009), off by
    int_0^1 exp((1 - v) s_k A) D exp(v s_k A) dv.  So S_k adds at most
    gamma_2n n L^3 (t (zeta (1 + s_k min(||T||, r)) + t r) + zeta s_k + t) and
    L^2 (zeta + t)(1 + t) u s_k ||A||, as ||Z|| <= L (zeta + t).  Summed,
        delta = gamma_2n n L^3 t ((K + 1)(2 + zeta + t r) + zeta^2)
                + L^2 u ||A|| t (1 + t)(zeta + t),
    the extra product and 1 covering the SVD (backward error <= 2 n^2 u ||J||)
    and the roundings of sample times and of the test.
    """
    n, a = sys.n, sys.companion
    ts = np.arange(step / 2.0, t_max + 1.5 * step, step)
    t_end = ts[-1]
    eta, norm_r, norm_t = max(0.0, -sys.r_evals[0]), sys.norm_r, sys.norm_t
    lip, r = math.cosh(math.sqrt(eta) * t_end), math.sqrt(norm_r + eta) + math.sqrt(eta)
    zeta, u = 1.0 + t_end * min(norm_t, r), np.finfo(float).eps / 2.0
    chain = len(ts) + max(0, math.ceil(math.log2(step / _LEAF))) + 1  # K + 1
    delta = 2 * n * u / (1 - 2 * n * u) * n * lip**3 * t_end
    delta *= chain * (2 + zeta + t_end * r) + zeta**2
    delta += lip**2 * u * (1 + norm_r + norm_t) * t_end * (1 + t_end) * (zeta + t_end)
    stepper = _expm(step * a)
    row = _expm(ts[0] * a)[:n]
    shifts = []  # shifts[k] = exp(w A) with w = step / 2^(k+1), the level-k half width
    samples, leaves = [], []  # (times, sigma_min); (left ends, suspicious) of unsplit intervals
    for start in range(0, len(ts) - 1, _BLOCK):
        grid = np.empty((min(_BLOCK, len(ts) - 1 - start) + 1, n, 2 * n))
        grid[0] = row
        for j in range(1, len(grid)):
            np.matmul(grid[j - 1], stepper, out=grid[j])
        row = grid[-1]
        t = ts[start : start + len(grid)]
        f = np.linalg.svd(grid[:, :, n:], compute_uv=False)[:, -1]
        samples.append((t[:-1], f[:-1]))
        lo, hi, f_lo, f_hi, heads = t[:-1], t[1:], f[:-1], f[1:], grid[:-1]
        for level in itertools.count():
            width = hi - lo
            suspicious = f_lo + f_hi <= lip * width + 2.0 * delta
            split = suspicious & (width >= _LEAF)
            leaves.append((lo[~split], suspicious[~split]))
            if not split.any():
                break
            lo, hi, f_lo, f_hi, heads = (c[split] for c in (lo, hi, f_lo, f_hi, heads))
            half = step / 2.0 ** (level + 1)
            if level == len(shifts):
                shifts.append(_expm(half * a))
            mid_heads = (heads.reshape(-1, 2 * n) @ shifts[level]).reshape(heads.shape)
            smin = np.linalg.svd(mid_heads[:, :, n:], compute_uv=False)[:, -1]
            mid = lo + half
            samples.append((mid, smin))
            # each interval's children stay adjacent and in time order: GEMM
            # rounding depends on a head's row position
            pairs = ((lo, mid), (mid, hi), (f_lo, smin), (smin, f_hi), (heads, mid_heads))
            lo, hi, f_lo, f_hi, heads = (
                np.stack(pair, axis=1).reshape(-1, *pair[0].shape[1:]) for pair in pairs
            )
    ts, fs = (np.concatenate(column) for column in zip(*samples, (t[-1:], f[-1:])))
    lefts, suspicious = (np.concatenate(column) for column in zip(*leaves))
    order = np.argsort(ts, kind="stable")
    return ts[order], fs[order], suspicious[np.argsort(lefts, kind="stable")], lip, delta


def scan_conjugate_times(sys: JacobiSystem, t_max: float) -> list[ConjugateEvent]:
    """Locate the zeros of det J(t) on ]0, t_max] and their kernels.

    Samples sigma_min(J) on a grid of step h = default_scan_step(sys), read
    from the system's ||R|| and ||T||, from h/2, bisecting below 1e-5 (see
    _samples); |sigma_min'| <= ||J'|| (Weyl).  In the ON frame T is skew and
    R symmetric, so |X'|^2 + <RX, X> is constant along X'' = T X' - R X
    (energy of a gyroscopic system: Lancaster, LAA 439, 2013).  For X(0) = 0
    it is |X'(0)|^2, and <RX, X> >= -eta |X|^2, with eta = max(0,
    -lambda_min(R)) read from sys.r_evals, zero up to rounding (build_system
    refuses an indefinite R).  So ||J(t)|| <= sinh(sqrt(eta) t) / sqrt(eta)
    and, up to the last grid time t_end,
        ||J'(t)|| <= L = sqrt(1 + eta max ||J||^2) = cosh(sqrt(eta) t_end).
    L is attained at each simple zero (the Wronskian J^T J' - J'^T J - J^T T J
    vanishes, so sigma_min' = +-1 there), so with delta the error bound of a
    sample, [a, b] holds no zero if sigma(a) + sigma(b) > L (b - a) + 2 delta.
    Runs of failing intervals split at sampled local maxima of sigma_min into
    dips, each refined once by safeguarded Newton to a relative step of 1e-14
    (see _refine).  Multiplicity and kernel come from the singular values
    below 1e-7 * sigma_max at the refined time.
    """
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    step = default_scan_step(sys)
    if not t_max / step <= MAX_GRID_POINTS:
        raise GridTooLarge(f"t_max / step needs more than {MAX_GRID_POINTS:g} grid points")

    ts, fs, suspicious, lip, delta = _samples(sys, t_max, step)
    events: list[ConjugateEvent] = []
    runs = np.flatnonzero(np.diff(np.concatenate(([0], suspicious.astype(int), [0]))))
    for first, last in zip(runs[::2], runs[1::2]):
        peaks = [j for j in range(first + 1, last) if fs[j - 1] < fs[j] >= fs[j + 1]]
        for lo, hi in zip([first] + peaks, peaks + [last]):
            dip = _refine(sys, ts[lo : hi + 1], fs[lo : hi + 1] - delta, lip)
            events += [ev for ev in dip if ev.t <= t_max + 1e-12]
    return events


def isotropic_complement_projector(sys: JacobiSystem) -> np.ndarray:
    """Projector onto (Ker R_u)-perp in the ON frame of m."""
    return sys.complement_projector


def isotropic_derivative_basis(space: ReductiveSpace, u) -> np.ndarray:
    """Orthonormal ON-frame basis of [k, u], the isotropic initial derivatives."""
    uc = np.asarray(u, dtype=float)
    k = space.part_indices("K")
    if len(k) == 0:
        return np.zeros((space.dim_m, 0))
    cols = -space.algebra.ad(uc)[:, k]  # [z_j, u] = -ad_u z_j
    q, sv, _ = np.linalg.svd(space.to_frame(cols.T).T, full_matrices=False)
    rank = int(np.sum(sv > RANK_TOL * max(sv[0] if len(sv) else 1.0, 1e-300)))
    return q[:, :rank]


def classify_isotropy(sys: JacobiSystem, event: ConjugateEvent) -> ConjugateEvent:
    """Fill the isotropy flags of an event via the (Ker R_u)-perp criterion.

    With K the orthonormal kernel of J(t) and W = (Ker R_u)-perp, an isotropic
    Jacobi field vanishing at the event exists iff some kernel direction lies
    entirely inside W, i.e. iff (I - P_W) K is rank-deficient; the event is
    strictly isotropic iff (I - P_W) K vanishes altogether.
    """
    proj = isotropic_complement_projector(sys)
    kernel_on, _ = np.linalg.qr(sys.space.to_frame(event.kernel).T)
    outside = kernel_on - proj @ kernel_on
    sv = np.linalg.svd(outside, compute_uv=False)
    s_max, s_min = (sv[0], sv[-1]) if len(sv) else (0.0, 0.0)
    return replace(
        event,
        isotropic_exists=bool(s_min < RANK_TOL),
        strictly_isotropic=bool(s_max < RANK_TOL),
    )


def conjugate_events(space: ReductiveSpace, u, t_max: float) -> list[ConjugateEvent]:
    """Build the system along u, scan for conjugate times, classify each event."""
    sys = build_system(space, u)
    return [classify_isotropy(sys, ev) for ev in scan_conjugate_times(sys, t_max)]


# -- canonical directions ----------------------------------------------------

# family -> aux keys, largest and default alpha (None: the space's m), prefix of u1
_CANONICAL = {
    "berger": ({"alpha"}, None, None, "e_"),
    "spsphere": ({"phi1", "phi2", "alpha"}, None, 1, "Y_"),
    "cpodd": ({"phi", "alpha"}, None, 1, "Y_"),
    "b13": ({"phi1", "phi2", "x0", "alpha"}, 4, 1, "e_"),
    "w7": ({"phi", "x0", "alpha"}, 2, 1, "e_"),
}


def _canonical_u0_u1(space: ReductiveSpace, aux: dict) -> tuple[np.ndarray, np.ndarray]:
    family = space.params.get("family")
    if family not in _CANONICAL:
        raise BadAux(f"no canonical vertical/horizontal directions for {space.name}")
    keys, top, default, prefix = _CANONICAL[family]
    extra = set(aux) - keys
    if extra:
        raise BadAux(f"unknown aux parameters {sorted(extra)} for {family}")
    for key, value in aux.items():
        if not math.isfinite(float(value)):
            raise BadAux(f"{key} must be finite, got {value}")

    def unit(x):
        try:
            return space.unit(x)
        except ValueError as exc:
            raise BadAux(f"aux parameters {aux} give no direction: {exc}") from None

    bv = space.basis_vector
    top, default = (space.params.get("m") if x is None else x for x in (top, default))
    alpha = float(aux.get("alpha", default))
    if not (alpha.is_integer() and 1 <= alpha <= top):
        raise BadAux(f"alpha must be an integer in 1..{top}, got {aux['alpha']}")
    u1 = bv(f"{prefix}{int(alpha)}")
    if family == "berger":
        return bv("d_s"), u1
    if family == "spsphere":
        phi1, phi2 = float(aux.get("phi1", math.pi / 2)), float(aux.get("phi2", 0.0))
        s1 = math.sin(phi1)
        u0 = s1 * math.cos(phi2) * bv("d_1s") + s1 * math.sin(phi2) * bv("d_2s")
        return u0 + math.cos(phi1) * bv("d_3s"), u1
    if family == "cpodd":
        phi = float(aux.get("phi", 0.0))
        return unit(math.cos(phi) * bv("X_2") + math.sin(phi) * bv("X_3")), u1
    x0 = float(aux.get("x0", 0.0))
    if family == "b13":
        phi1, phi2 = float(aux.get("phi1", 0.0)), float(aux.get("phi2", 0.0))
        s1 = math.sin(phi1)
        x = x0 * bv("u_0") + math.cos(phi1) * bv("u_1") + s1 * math.cos(phi2) * bv("u_2")
        return unit(x + s1 * math.sin(phi2) * bv("v_1")), u1
    # w7
    phi = float(aux.get("phi", 0.0))
    x = x0 * bv("u_0s") + math.cos(phi) * bv("u_1s") + math.sin(phi) * bv("v_1s")
    return unit(x), u1


def geodesic_pair(
    space: ReductiveSpace, theta: float, aux: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The slope-angle direction u = cos(theta) u0 + sin(theta) u1 and its companion v."""
    if not 0.0 <= theta <= math.pi / 2 + 1e-12:
        raise BadAngle("theta must lie in [0, pi/2]")
    u0, u1 = _canonical_u0_u1(space, dict(aux or {}))
    u0, u1 = space.unit(u0), space.unit(u1)
    u = math.cos(theta) * u0 + math.sin(theta) * u1
    v = math.cos(theta) * u1 - math.sin(theta) * u0
    return space.unit(u), space.unit(v)


def geodesic_direction(space: ReductiveSpace, theta: float, aux: dict | None = None) -> np.ndarray:
    return geodesic_pair(space, theta, aux)[0]
