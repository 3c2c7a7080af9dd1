"""The canonical Jacobi equation as a constant-coefficient linear system.

Along gamma_u the Jacobi fields vanishing at the origin are encoded by the
n x n block J(t) mapping X'(0) to X(t), for X'' - T X' + R X = 0.  Conjugate
times are the zeros of det J(t).  Samples of sigma_min(J) come from the modes
of the system in its energy frame (JacobiSystem.modes), and a search
certified by the energy bound ||J'|| <= 1 discards zero-free intervals, each
new sample placed where the zero-free zone certified from an end of a
suspicious interval stops, else at its midpoint (see _samples);
Newton's method on sigma_min, on E(t) = exp(tA) of the 2n x 2n companion
matrix A, refines each remaining run of suspicious intervals, bracketed by
the run, in rounds of stacked starts (see scan_conjugate_times), each run's
first start chosen by _refine.  Each refined event is classified where it is
found, from its kernel rows (classify_isotropy), so scans return finished
events.  scan_with_stats also returns the ScanStats of the scan, counted in
_samples (grid, samples, batches, L, delta) and _newton (rounds, propagations).

All operators here act in a gram-orthonormal frame of m, so kernels, ranks
and orthogonal complements use plain Euclidean geometry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .homogeneous import ReductiveSpace, connection_ops

T_TOL = 1e-10  # promised accuracy of event times; Newton lands far inside it
MULTIPLICITY_RTOL = 1e-7
RANK_TOL = 1e-8
MAX_GRID_POINTS = 10**7
_LEAF = 1e-5  # width below which a suspicious interval stops being bisected
_NEWTON_RTOL = 1e-14
_MAX_NEWTON = 100
_BLOCK = 1024  # times per batch of sigma_min evaluations: bounds the (times, n, n) temporaries
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scipy.linalg.expm, imported and looked up at each call: only Newton and
    fundamental_block load scipy, and a tracer patched onto scipy.linalg sees every call."""
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
    complement_projector, modes, default_scan_step and the certificate of
    _samples all read these fields; the arrays are read-only.
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

    @cached_property
    def modes(self) -> tuple:
        """(w, basis, ||HQ - QW||, ||Q^H Q - I||, ||S^2 - R||) from one eigh of
        H = iK = Q diag(w) Q^H, K = [[0, S], [-S, T]] the real skew system in the
        energy frame Y = (S X, X'), S = R^{1/2} from r_evecs and r_evals clamped
        at 0.  basis stacks Re, then Im, of q_k q_k^H on the X' rows, (4n, n^2);
        w and basis are read-only.  Each Frobenius residual is raised by the
        rounding of its own products, to first order in u (see _samples)."""
        n = self.n
        root = (self.r_evecs * np.sqrt(np.maximum(self.r_evals, 0.0))) @ self.r_evecs.T
        root = 0.5 * (root + root.T)
        herm = np.zeros((2 * n, 2 * n), dtype=complex)
        herm[:n, n:], herm[n:, :n], herm[n:, n:] = 1j * root, -1j * root, 1j * self.T
        w, q = np.linalg.eigh(herm)
        gram = q.conj().T @ q
        grow, norm_q = (2 * n + 3) * _UNIT_ROUNDOFF, math.sqrt(gram.trace().real)  # gamma_{2n+3}
        eigen = np.linalg.norm(herm @ q - q * w)
        eigen += grow * (np.linalg.norm(herm) + np.abs(w).max()) * norm_q
        orth = np.linalg.norm(gram - np.eye(2 * n)) + grow * (norm_q**2 + 2 * n)
        root_error = np.linalg.norm(root @ root - self.R)
        root_error += grow * (np.linalg.norm(root) ** 2 + np.linalg.norm(self.R))
        outer = np.einsum("ik,jk->kij", q[n:], q[n:].conj()).reshape(2 * n, n * n)
        basis = np.concatenate((outer.real, outer.imag))
        for arr in (w, basis):
            arr.setflags(write=False)
        return w, basis, float(eigen), float(orth), float(root_error)


@dataclass(frozen=True)
class ConjugateEvent:
    """A conjugate time, its kernel of initial derivatives X'(0) and its isotropy flags."""

    t: float
    multiplicity: int
    kernel: np.ndarray  # (multiplicity, algebra dim) coefficient vectors
    isotropic_exists: bool
    strictly_isotropic: bool

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("conjugate events have multiplicity >= 1")
        if self.strictly_isotropic and not self.isotropic_exists:
            raise ValueError("strictly isotropic events are in particular isotropic")

    def to_dict(self) -> dict:
        keys = ("t", "multiplicity", "isotropic_exists", "strictly_isotropic")
        return {key: getattr(self, key) for key in keys}


@dataclass(frozen=True)
class ScanStats:
    """The work of one scan (scan_with_stats): grid points, samples of sigma_min and their
    batches (the grid, then one per level), runs of suspicious cells, Newton starts, stacked
    Newton rounds and their propagations, in matrices; and the certificate's L and delta."""

    grid_points: int
    samples: int
    batches: int
    lipschitz: float
    delta: float
    runs: int = 0
    newton_starts: int = 0
    newton_rounds: int = 0
    propagations: int = 0


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
    if len(k) and abs(uc[k]).max() > 1e-10:
        raise ValueError("geodesic direction must be supported on m")

    # A_on = L^T A L^-T: the same operator in the gram-orthonormal frame.
    t_on, r_on = (space.chol_m.T @ op @ space.frame_m for op in connection_ops(space, uc))
    skew, sym = abs(t_on + t_on.T).max(), abs(r_on - r_on.T).max()
    r_on = 0.5 * (r_on + r_on.T)
    t_on = 0.5 * (t_on - t_on.T)
    evals, evecs = np.linalg.eigh(r_on)
    n = len(r_on)
    companion = np.zeros((2 * n, 2 * n))
    companion[:n, n:], companion[n:, :n], companion[n:, n:] = np.eye(n), -r_on, t_on
    for arr in (t_on, r_on, companion, uc, evals, evecs):
        arr.setflags(write=False)
    norm_t = np.linalg.svd(t_on, compute_uv=False)[0]  # ||T||_2, as np.linalg.norm(t_on, 2)
    sys = JacobiSystem(space, uc, t_on, r_on, companion, evals, evecs, norm_t)
    # rounding in T and R grows with their size, so (skew-)adjointness is tested relative to it
    if skew > 1e-9 * max(1.0, sys.norm_t) or sym > 1e-9 * max(1.0, sys.norm_r):
        raise JacobiError(
            f"operators violate (skew-)adjointness on {space.name}: {skew:.1e}/{sym:.1e}"
            f" against ||T|| = {sys.norm_t:.1e}, ||R|| = {sys.norm_r:.1e}"
        )
    if evals[0] < -1e-9 * sys.norm_r:  # the energy bound needs R >= 0
        raise JacobiError(f"R_u is indefinite on {space.name}: lambda_min = {evals[0]:.1e}")
    return sys


def fundamental_block(sys: JacobiSystem, t: float) -> np.ndarray:
    """J(t): upper-right n x n block of exp(t * companion), maps X'(0) to X(t)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return _expm(t * sys.companion)[: sys.n, sys.n :]


def default_scan_step(sys: JacobiSystem) -> float:
    """h = 0.25 / sqrt(||R|| + ||T||^2 + 1), from the system's spectral fields."""
    return 0.25 / math.sqrt(sys.norm_r + sys.norm_t**2 + 1.0)


def _newton(sys: JacobiSystem, lo, hi, t):
    """Newton on sigma_min from t, in lockstep on rows of brackets [lo, hi]: a row
    bisects its bracket on the sign of sigma_min' when a step leaves it or fails
    to halve the step before last.  A round takes one stacked E = exp(tA) at the
    live times and one batched SVD; J = E_12, J' = E_22 (E' = AE) and sigma_i' =
    u_i^T J' v_i.  Returns each row's last probe, stacked (t, sv, vt, slopes), whether it
    landed on a zero (a row stops once its bracket collapses), rounds and propagations."""
    n = sys.n
    dx = dx_old = hi - lo
    probes = tuple(np.empty((len(t), *shape)) for shape in ((), (n,), (n, n), (n,)))
    landed, rows, rounds, propagations = np.zeros(len(t), dtype=bool), np.arange(len(t)), 0, 0
    for _ in range(_MAX_NEWTON):
        rounds, propagations = rounds + 1, propagations + len(t)
        e = _expm(t[:, None, None] * sys.companion)
        u, sv, vt = np.linalg.svd(e[:, :n, n:])
        j_prime = np.swapaxes(u, 1, 2) @ e[:, n:, n:]
        slopes = np.einsum("rij,rji->ri", j_prime, np.swapaxes(vt, 1, 2))
        probes[0][rows], probes[1][rows], probes[2][rows], probes[3][rows] = t, sv, vt, slopes
        f, d, left = sv[:, -1], slopes[:, -1], slopes[:, -1] < 0
        lo, hi = np.where(left, t, lo), np.where(left, hi, t)
        step = np.divide(f, d, out=np.full_like(f, np.inf), where=d != 0)
        landed[rows] = hit = np.abs(step) <= _NEWTON_RTOL * t
        done = hit | (hi - lo <= _NEWTON_RTOL * t)
        newton = (lo < t - step) & (t - step < hi) & (2.0 * np.abs(step) <= np.abs(dx_old))
        dx_old, dx = dx, np.where(newton, step, 0.5 * (hi - lo))
        t = np.where(newton, t - step, lo + dx)
        rows, t, lo, hi, dx, dx_old = (x[~done] for x in (rows, t, lo, hi, dx, dx_old))
        if not len(rows):
            break
    return probes, landed, rounds, propagations


def _refine(sys: JacobiSystem, ts, fs):
    """Generator of the classified events in one run of suspicious cells, sampled
    as sigma_min(ts) = fs: it yields Newton starts (lo, hi, t), the first with
    the whole run as bracket, is sent each one's (probe, landed) and returns
    its events.  The first start is where the samples put the zero.  At a zero
    z every singular value that vanishes has slope +-1 (by the energy and the
    Wronskian of scan_conjugate_times, J' maps Ker J isometrically onto the
    cokernel), so sigma_min' = +-1 and sigma_min'' = 0 there (_samples), and in
    a cell [lo, hi] around one zero the predictions lo + f_lo and hi - f_hi are
    z up to O((hi - lo)^3) plus the sample error.  Of the two cells next to the
    lowest sample, the one whose predictions agree better gives their mean
    (lo + hi)/2 + (f_lo - f_hi)/2 when they agree to Newton's landing tolerance
    _NEWTON_RTOL * lo and the mean lies in the cell; Newton then lands in one
    exponential.  Otherwise (a close pair, a wide cell, a zero-free run) the
    start is the lowest sample.  At a zero t*, another singular value might
    vanish in the run too: one Newton step along sigma_i' predicts where, and a
    prediction inside the run is the next start.  A first probe that stops on
    an end of the run with sigma_min' pointing out of it, without landing, has
    found no zero: it is no event, and the run starts once more from its other
    end."""
    k = int(np.argmin(fs))

    def stuck(probe, landed) -> bool:
        # the probe stopped on an end of the run, sigma_min' pointing out of it
        t, slope = probe[0], probe[3][-1]
        end = ts[0] if slope > 0 else ts[-1]
        return not landed and slope != 0 and abs(end - t) <= _NEWTON_RTOL * t

    start = ts[k]
    cells = [(ts[i], ts[i + 1], fs[i], fs[i + 1]) for i in (k - 1, k) if 0 <= i < len(ts) - 1]
    lo, hi, f_lo, f_hi = min(cells, key=lambda cell: abs(cell[1] - cell[0] - cell[2] - cell[3]))
    vertex = 0.5 * (lo + hi) + 0.5 * (f_lo - f_hi)
    if abs(hi - lo - f_lo - f_hi) <= _NEWTON_RTOL * lo and lo <= vertex <= hi:
        start = vertex  # lo + f_lo and hi - f_hi agree to Newton's landing tolerance
    probe, landed = yield ts[0], ts[-1], start
    if stuck(probe, landed):  # restart once from the other end, in the same bracket
        probe, landed = yield ts[0], ts[-1], ts[-1] if probe[3][-1] > 0 else ts[0]
    found = [] if stuck(probe, landed) else [probe]
    events: list[ConjugateEvent] = []
    while found and len(events) < sys.n:
        t, sv, vt, slopes = found.pop()
        mult = int(np.sum(sv < MULTIPLICITY_RTOL * sv[0]))
        if mult == 0:
            continue
        kernel_on = vt[sys.n - mult :]
        flags = classify_isotropy(sys, kernel_on)
        events.append(ConjugateEvent(float(t), mult, sys.space.from_frame(kernel_on), *flags))
        for value, slope in zip(sv[: sys.n - mult], slopes):
            guess = t - value / slope if slope else ts[-1]  # a flat sigma_i predicts nothing
            if not ts[0] < guess < ts[-1]:
                continue
            radius = 0.25 * abs(guess - t)  # scan_conjugate_times relies on this reach
            known = [ev.t for ev in events] + [other[0] for other in found]
            if all(abs(guess - tk) > radius for tk in known):
                probe, landed = yield guess - radius, guess + radius, guess
                if landed:
                    found.append(probe)
    return sorted(events, key=lambda ev: ev.t)


def _sigma_min(sys: JacobiSystem, ts: np.ndarray) -> np.ndarray:
    """sigma_min(J(t)) at the times ts, _BLOCK per batch, as one real GEMM: J(t) =
    Re(Q_2 diag(phi) Q_2^H), phi_k = int_0^t e^{-i w_k s} ds = t e^{-ix} sin(x)/x
    with x = w_k t/2, so a flat mode (w_k = 0) needs no division by w_k."""
    n, (w, basis) = sys.n, sys.modes[:2]
    out = np.empty(len(ts))
    for start in range(0, len(ts), _BLOCK):
        t = ts[start : start + _BLOCK, None]
        x = t * (0.5 * w)
        sin = np.sin(x)
        scale = t * np.divide(sin, x, out=np.ones_like(x), where=x != 0.0)
        j = np.concatenate((scale * np.cos(x), scale * sin), axis=1) @ basis
        out[start : start + _BLOCK] = np.linalg.svd(j.reshape(-1, n, n), compute_uv=False)[:, -1]
    return out


def _samples(sys: JacobiSystem, t_max: float, step: float):
    """sigma_min(J) on the grid of scan_conjugate_times and inside its suspicious cells.

    Returns the sample times and values, whether sigma_min may vanish between
    consecutive samples, and the ScanStats of the sampling, with L and delta.
    Samples come from _sigma_min: the whole grid in one batch, then one batch
    per level, of every jump point and midpoint of the level.  A live interval
    carries only (lo, hi, f_lo, f_hi); one that is not split is final, and
    samples and final intervals are put in time order once at the end.

    A suspicious interval [lo, hi] (f_lo + f_hi <= L (hi - lo) + 2 delta) is
    split where the zero-free zones certified from its ends stop, in the
    manner of Piyavskii (1972) and Shubert (SIAM J. Numer. Anal. 9, 1972): the
    energy bound keeps sigma_min > 0 on [lo, a) and (b, hi], a = lo + (f_lo -
    delta) / L and b = hi - (f_hi - delta) / L.
    - Jump: if lo < a < b < hi and b - a <= (hi - lo) / 2, sample a and b; the
      children are [lo, a], [a, b] and [b, hi], at any width.
    - Bisect: otherwise, sample the midpoint while hi - lo >= _LEAF.
    The rule only places samples.  Every final interval is cleared, or kept
    suspicious, by the same test on its own two samples, so the certificate is
    unchanged.  At a simple zero sigma_min' = +-1 (scan_conjugate_times) while
    |sigma_min'| <= L = 1 up to rounding everywhere, so sigma_min'' vanishes
    there too, and a jump from distance d lands within O(d^3) of the zero: a
    middle child closes onto its zero or clears.  Termination: an outer child
    recomputes its a (or b) as its own far end, so it never jumps; it clears,
    halves or stops.  So a row either halves, or jumps and its outer children
    clear or halve; below _LEAF only middle children, at most half as wide as
    their parents, go on, until no double lies strictly between lo and hi.

    ]0, h/2] needs no sample: J(0) = 0, J'(0) = I, J'' = T J' - R J and
    ||J'|| <= L give ||J(t) - tI|| <= L (t^2 ||T|| / 2 + t^3 ||R|| / 6), so
    sigma_min(J(t)) >= t (1 - L (t ||T|| / 2 + t^2 ||R|| / 6)) > 0 while that
    sum is < 1; at t = h/2, h = default_scan_step(sys), it is <= 0.066.

    delta >= |sigma_hat - sigma_min(J(t))| (Weyl: <= ||J_hat - J||) to first
    order in u, from the measured residuals of sys.modes, at the last grid
    time t (every term grows with t).  The modes are those of R_hat = S_hat^2
    >= 0, S_hat the computed symmetric root; J_hat is taken at its stored t.
    (1) D = J_hat - J solves D'' = T D' - R D - (R_hat - R) J_hat, D(0) = D'(0)
        = 0, so D(t) = -int_0^t J(t - s) (R_hat - R) J_hat(s) ds and ||D|| <=
        ||S_hat^2 - R|| L^2 t^3 / 6.
    (2) With H = i K_hat, e^{-isH} Q - Q e^{-isW} = -i int_0^s e^{-i(s-r)H} (HQ -
        QW) e^{-irW} dr, so f(x) = int_0^t e^{-isx} ds has ||f(H) Q - Q f(W)|| <=
        t^2 ||HQ - QW|| / 2; as ||f(H)|| <= t, f(H) - Q f(W) Q^H = f(H)(I - QQ^H)
        + (f(H) Q - Q f(W)) Q^H is at most t nu + t^2 ||HQ - QW|| sqrt(1 + nu) / 2,
        nu = ||Q^H Q - I||.  J_hat is the real part of its X' block.
    (3) x = fl(w_k t/2) errs by u |x|, sin x, cos x and sin(x)/x by 2u each,
        two products by u each, so Re phi_k and Im phi_k err by 2ut(|x| + 9)
        together; q_k q_k^H errs by 2u |q_ik| |q_jk| and the GEMM of 4n terms,
        each coefficient <= t, by 4nu (Higham, Accuracy and Stability, eq.
        3.13).  With || sum_k |q_ik| |q_jk| || <= ||Q_2||_F^2 <= n (1 + nu), that
        is at most n (1 + nu) t u (t max |w_k| + 8n + 22).
    (4) The SVD (backward error <= 2 n^2 u ||J||, ||J|| <= L t) and the roundings
        of the clearing test add (2 n^2 + 5) u L t.
    """
    ts = np.arange(step / 2.0, t_max + 1.5 * step, step)
    t, n, (w, _, eigen, nu, root_error) = ts[-1], sys.n, sys.modes
    lip = math.cosh(math.sqrt(max(0.0, -sys.r_evals[0])) * t)
    delta = root_error * lip**2 * t**3 / 6.0 + t * nu + t**2 * eigen * math.sqrt(1.0 + nu) / 2.0
    delta += _UNIT_ROUNDOFF * t * n * (1.0 + nu) * (t * np.abs(w).max() + 8 * n + 22)
    delta += _UNIT_ROUNDOFF * t * (2 * n**2 + 5) * lip
    fs = _sigma_min(sys, ts)
    # (times, sigma_min); (left ends, suspicious) of the intervals that are not split
    samples, leaves = [(ts, fs)], []
    lo, hi, f_lo, f_hi = ts[:-1], ts[1:], fs[:-1], fs[1:]  # the live intervals, in time order
    while True:
        width = hi - lo
        suspicious = f_lo + f_hi <= lip * width + 2.0 * delta
        a, b = lo + (f_lo - delta) / lip, hi - (f_hi - delta) / lip
        jump = suspicious & (lo < a) & (a < b) & (b < hi) & (b - a <= 0.5 * width)
        split = jump | suspicious & (width >= _LEAF)
        leaves.append((lo[~split], suspicious[~split]))
        if not split.any():
            break
        # live intervals are disjoint and hold their new times strictly inside, so time
        # order is row by row, a (or the midpoint) then b; the children run from the split
        # rows' lo and the new times, each sorted, to the new times and the rows' hi
        new = np.sort(np.concatenate((np.where(jump, a, 0.5 * (lo + hi))[split], b[jump])))
        smin = _sigma_min(sys, new)
        samples.append((new, smin))
        ends = np.concatenate((lo[split], new)), np.concatenate((new, hi[split]))
        values = np.concatenate((f_lo[split], smin)), np.concatenate((smin, f_hi[split]))
        order = [np.argsort(t, kind="stable") for t in ends]
        lo, hi = (t[o] for t, o in zip(ends, order))
        f_lo, f_hi = (f[o] for f, o in zip(values, order))
    ts, fs = (np.concatenate(column) for column in zip(*samples))
    lefts, suspicious = (np.concatenate(column) for column in zip(*leaves))
    order = np.argsort(ts, kind="stable")
    stats = ScanStats(len(samples[0][0]), len(ts), len(samples), lip, float(delta))
    return ts[order], fs[order], suspicious[np.argsort(lefts, kind="stable")], stats


def scan_with_stats(sys: JacobiSystem, t_max: float) -> tuple[list[ConjugateEvent], ScanStats]:
    """The events of scan_conjugate_times(sys, t_max), and the ScanStats of its work."""
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    step = default_scan_step(sys)
    if not t_max / step <= MAX_GRID_POINTS:
        raise GridTooLarge(f"t_max / step needs more than {MAX_GRID_POINTS:g} grid points")

    ts, fs, suspicious, stats = _samples(sys, t_max, step)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], suspicious.astype(int), [0]))))
    runs = [  # one _refine per run that starts by t_max
        _refine(sys, ts[a : b + 1], fs[a : b + 1])
        for a, b in zip(edges[::2], edges[1::2])
        if ts[a] <= t_max + 1e-12
    ]
    refined, waiting, starts, work = {}, runs, [next(run) for run in runs], []
    while waiting:
        probes, landed, *counts = _newton(sys, *np.array(starts).T)
        work.append((len(starts), *counts))  # Newton starts, rounds, propagations
        rows = zip(waiting, zip(*probes), landed)
        waiting, starts = [], []
        for run, probe, hit in rows:
            try:
                starts.append(run.send((probe, hit)))
                waiting.append(run)
            except StopIteration as done:
                refined[run] = done.value
    events = [ev for run in runs for ev in refined[run] if ev.t <= t_max + 1e-12]
    newton = dict(zip(("newton_starts", "newton_rounds", "propagations"), map(sum, zip(*work))))
    return events, replace(stats, runs=len(runs), **newton)  # no run: the Newton fields stay 0


def scan_conjugate_times(sys: JacobiSystem, t_max: float) -> list[ConjugateEvent]:
    """Locate the zeros of det J(t) on ]0, t_max] and their kernels.

    _samples places the samples of sigma_min(J) and keeps the cells that the
    test below does not clear; |sigma_min'| <= ||J'|| (Weyl).  In the ON
    frame T is skew and R symmetric, so |X'|^2 + <RX, X> is constant along
    X'' = T X' - R X (energy of a gyroscopic system: Lancaster, LAA 439,
    2013).  For X(0) = 0 it is |X'(0)|^2, and <RX, X> >= -eta |X|^2, with
    eta = max(0, -lambda_min(R)) read from sys.r_evals, zero up to rounding
    (build_system refuses an indefinite R).  So ||J(t)|| <= sinh(sqrt(eta) t) / sqrt(eta)
    and, up to the last grid time t_end,
        ||J'(t)|| <= L = sqrt(1 + eta max ||J||^2) = cosh(sqrt(eta) t_end).
    L is attained at each simple zero (the Wronskian J^T J' - J'^T J - J^T T J
    vanishes, so sigma_min' = +-1 there), so with delta the error bound of a
    sample, [a, b] holds no zero if sigma(a) + sigma(b) > L (b - a) + 2 delta.
    Each run of consecutive failing cells is a _refine generator and the
    bracket of its first Newton start.  A run past t_max is skipped: its
    close-zero brackets (radius |guess - t|/4) keep its events above its start
    minus a third of its width, where the range is certified zero-free or in
    earlier runs.  Each round stacks the next Newton start (lo, hi, t) of every
    run still searching, as _refine chooses it, into one safeguarded Newton on
    exp(tA) (_newton) to a relative step of 1e-14, and sends each row's probe
    back to its run.
    Multiplicity and kernel come from the singular values below 1e-7 *
    sigma_max at the refined time, and each event comes back classified
    (classify_isotropy on its kernel).
    """
    return scan_with_stats(sys, t_max)[0]


def isotropic_complement_projector(sys: JacobiSystem) -> np.ndarray:
    """Projector onto (Ker R_u)-perp in the ON frame of m.

    Classification reads sys.complement_projector itself; this function stays
    because acceptance criterion 3, [k, u] = (Ker R_u)-perp, is stated through it."""
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


def classify_isotropy(sys: JacobiSystem, kernel_on: np.ndarray) -> tuple[bool, bool]:
    """(isotropic_exists, strictly_isotropic) of an event from its kernel rows.

    The rows K of kernel_on are an orthonormal basis, in the ON frame, of the
    kernel of J(t).  With W = (Ker R_u)-perp, an isotropic Jacobi field
    vanishing at the event exists iff some kernel direction lies entirely
    inside W, i.e. iff K (I - P_W) is rank-deficient; the event is strictly
    isotropic iff K (I - P_W) vanishes altogether.
    """
    sv = np.linalg.svd(kernel_on - kernel_on @ sys.complement_projector, compute_uv=False)
    return bool(sv[-1] < RANK_TOL), bool(sv[0] < RANK_TOL)


def conjugate_events(space: ReductiveSpace, u, t_max: float) -> list[ConjugateEvent]:
    """The classified conjugate events along u up to t_max."""
    return scan_conjugate_times(build_system(space, u), t_max)


# -- canonical directions ----------------------------------------------------

# every aux parameter of a canonical direction, with its type
AUX_PARAMETERS = {"phi": float, "phi1": float, "phi2": float, "x0": float, "alpha": int}
# family -> aux keys, largest and default alpha (None: the space's m), prefix of u1
_CANONICAL = {
    "berger": ({"alpha"}, None, None, "e_"),
    "spsphere": ({"phi1", "phi2", "alpha"}, None, 1, "Y_"),
    "cpodd": ({"phi", "alpha"}, None, 1, "Y_"),
    "b13": ({"phi1", "phi2", "x0", "alpha"}, 4, 1, "e_"),
    "w7": ({"phi", "x0", "alpha"}, 2, 1, "e_"),
}


def check_geodesic_request(family: str, name: str, theta: float) -> None:
    """The refusals of geodesic_pair that need no built space, in its order:
    theta outside [0, pi/2], then a family without canonical directions."""
    if not 0.0 <= theta <= math.pi / 2 + 1e-12:
        raise BadAngle("theta must lie in [0, pi/2]")
    if family not in _CANONICAL:
        raise BadAux(f"no canonical vertical/horizontal directions for {name}")


def _canonical_u0_u1(space: ReductiveSpace, aux: dict) -> tuple[np.ndarray, np.ndarray]:
    family = space.params["family"]
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
    check_geodesic_request(space.params.get("family"), space.name, theta)
    u0, u1 = _canonical_u0_u1(space, dict(aux or {}))
    u0, u1 = space.unit(u0), space.unit(u1)
    u = math.cos(theta) * u0 + math.sin(theta) * u1
    v = math.cos(theta) * u1 - math.sin(theta) * u0
    return space.unit(u), space.unit(v)


def geodesic_direction(space: ReductiveSpace, theta: float, aux: dict | None = None) -> np.ndarray:
    return geodesic_pair(space, theta, aux)[0]
