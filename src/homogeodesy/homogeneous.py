"""Reductive decompositions and origin geometry.

Everything is computed at the origin in the m-basis: projections are index
masks (the Gram is block-diagonal across k + m), the canonical-connection
operators come straight from the structure tensor, and sectional curvature is
evaluated from bracket norms.  One bracket kernel with an exact gradient and
projected Hessian, and one damped Riemannian Newton optimizer on the
Grassmannian of planes, serve both the rank-one check and the pinching
estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .algebra import AlgebraElement, StructuredAlgebra

VALIDATION_TOL = 1e-10
PLANE_TOL = 1e-14
RANK_ONE_THRESHOLD = 1e-6


class GeometryError(RuntimeError):
    pass


class MissingSplit(GeometryError):
    """An m0/m1 part was requested on a space without the fibration split."""


class DegeneratePlane(GeometryError):
    """The two vectors do not span a plane."""


class NoWitness(GeometryError):
    """No registered transitivity witness and random search found none."""


@dataclass(frozen=True)
class ReductiveSpace:
    """A structured algebra with the index partition g = k + m (+ m0/m1)."""

    algebra: StructuredAlgebra
    k_indices: tuple[int, ...]
    m_indices: tuple[int, ...]
    m0_indices: tuple[int, ...] | None = None
    m1_indices: tuple[int, ...] | None = None
    name: str = "space"
    params: MappingProxyType = field(default_factory=lambda: MappingProxyType({}))
    witnesses: MappingProxyType = field(default_factory=lambda: MappingProxyType({}))
    base_reference: object = None

    def __post_init__(self):
        if isinstance(self.params, dict):
            object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        if isinstance(self.witnesses, dict):
            object.__setattr__(self, "witnesses", MappingProxyType(dict(self.witnesses)))
        covered = sorted(self.k_indices + self.m_indices)
        if covered != list(range(self.algebra.dim)):
            raise ValueError("k and m indices must partition the basis")
        if (self.m0_indices is None) != (self.m1_indices is None):
            raise ValueError("m0 and m1 must be given together")
        if self.m0_indices is not None:
            if sorted(self.m0_indices + self.m1_indices) != sorted(self.m_indices):
                raise ValueError("m0 and m1 must partition m")

    # -- index helpers ----------------------------------------------------

    def part_indices(self, part: str) -> np.ndarray:
        part = part.upper()
        if part == "K":
            return np.asarray(self.k_indices, dtype=int)
        if part == "M":
            return np.asarray(self.m_indices, dtype=int)
        if part in ("M0", "M1"):
            idx = self.m0_indices if part == "M0" else self.m1_indices
            if idx is None:
                raise MissingSplit(f"{self.name} has no m0/m1 split")
            return np.asarray(idx, dtype=int)
        raise ValueError(f"unknown part {part!r}")

    @property
    def dim_m(self) -> int:
        return len(self.m_indices)

    @cached_property
    def gram_m(self) -> np.ndarray:
        idx = self.part_indices("M")
        return self.algebra.gram[np.ix_(idx, idx)]

    @cached_property
    def chol_m(self) -> np.ndarray:
        """Lower Cholesky factor L of the m-Gram; x_on = L^T x_basis."""
        return np.linalg.cholesky(self.gram_m)

    @cached_property
    def frame_m(self) -> np.ndarray:
        """L^-T: its columns are the m-basis coordinates of the ON frame of m."""
        return np.linalg.inv(self.chol_m.T)

    def to_frame(self, xs) -> np.ndarray:
        """ON-frame coordinates of the m-parts of full coefficient vectors (rows)."""
        return np.asarray(xs, dtype=float)[..., self.part_indices("M")] @ self.chol_m

    def from_frame(self, xs_on) -> np.ndarray:
        """Full coefficient vectors (rows) of ON-frame m-vectors."""
        xs_on = np.asarray(xs_on, dtype=float)
        out = np.zeros(xs_on.shape[:-1] + (self.algebra.dim,))
        out[..., self.part_indices("M")] = xs_on @ self.frame_m.T
        return out

    @cached_property
    def gram_k(self) -> np.ndarray:
        idx = self.part_indices("K")
        return self.algebra.gram[np.ix_(idx, idx)]

    @cached_property
    def chol_k(self) -> np.ndarray:
        if len(self.k_indices) == 0:
            return np.zeros((0, 0))
        return np.linalg.cholesky(self.gram_k)

    # -- elements ---------------------------------------------------------

    def element(self, coeffs) -> AlgebraElement:
        return self.algebra.element(coeffs)

    def basis_vector(self, label: str) -> np.ndarray:
        coeffs = np.zeros(self.algebra.dim)
        coeffs[self.algebra.index(label)] = 1.0
        return coeffs

    def unit(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        n = self.algebra.norm(coeffs)
        if not math.isfinite(n):
            raise ValueError(f"cannot normalize a vector of norm {n}")
        if n < 1e-14:
            raise ValueError("cannot normalize the zero vector")
        return coeffs / n

    def random_unit_m(self, rng, size: int | None = None) -> np.ndarray:
        """Random g-unit vectors supported on m (ON-frame Gaussians)."""
        xi = rng.standard_normal((1 if size is None else size, self.dim_m))
        out = self.from_frame(xi / np.linalg.norm(xi, axis=1, keepdims=True))
        return out if size is not None else out[0]

    # -- validation ------------------------------------------------------

    def validate(self, tol: float = VALIDATION_TOL) -> "SpaceValidation":
        c = self.algebra.structure
        g = self.algebra.gram
        k = self.part_indices("K")
        m = self.part_indices("M")
        sub = float(np.max(np.abs(c[np.ix_(k, k, m)]))) if len(k) else 0.0
        red = float(np.max(np.abs(c[np.ix_(k, m, k)]))) if len(k) else 0.0
        blockdiag = float(np.max(np.abs(g[np.ix_(k, m)]))) if len(k) else 0.0
        split = 0.0
        if self.m0_indices is not None and len(k):
            m0 = self.part_indices("M0")
            m1 = self.part_indices("M1")
            split = max(
                float(np.max(np.abs(c[np.ix_(k, m0, m1)]))) if len(m0) else 0.0,
                float(np.max(np.abs(c[np.ix_(k, m1, m0)]))) if len(m1) else 0.0,
            )
        return SpaceValidation(
            space=self.name,
            k_subalgebra=sub,
            reductivity=red,
            split_invariance=split,
            gram_block_diagonal=blockdiag,
            tol=tol,
        )


@dataclass(frozen=True)
class SpaceValidation:
    space: str
    k_subalgebra: float
    reductivity: float
    split_invariance: float
    gram_block_diagonal: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            max(
                self.k_subalgebra,
                self.reductivity,
                self.split_invariance,
                self.gram_block_diagonal,
            )
            <= self.tol
        )

    def to_dict(self) -> dict:
        return {
            "check": "reductive-structure",
            "space": self.space,
            "pass": self.passed,
            "residuals": {
                "k_subalgebra": self.k_subalgebra,
                "reductivity": self.reductivity,
                "split_invariance": self.split_invariance,
                "gram_block_diagonal": self.gram_block_diagonal,
            },
        }


@dataclass(frozen=True)
class PlaneSpec:
    """An (x, y) pair of m-vectors spanning a tangent 2-plane."""

    x: np.ndarray
    y: np.ndarray


# -- operations ------------------------------------------------------------


def _coeffs(x) -> np.ndarray:
    return x.coeffs if isinstance(x, AlgebraElement) else np.asarray(x, dtype=float)


def project(space: ReductiveSpace, x, part: str) -> np.ndarray:
    """Orthogonal projection onto an indexed subspace (coordinate masking)."""
    coeffs = _coeffs(x)
    idx = space.part_indices(part)
    out = np.zeros_like(coeffs)
    out[idx] = coeffs[idx]
    return out


def torsion_op(space: ReductiveSpace, u) -> np.ndarray:
    """Matrix of x -> -[u, x]_m on the m-basis coordinates."""
    ad = space.algebra.ad(_coeffs(u))
    m = space.part_indices("M")
    return -ad[np.ix_(m, m)]


def jacobi_op(space: ReductiveSpace, u) -> np.ndarray:
    """Matrix of x -> [[u, x]_k, u] on the m-basis coordinates."""
    ad = space.algebra.ad(_coeffs(u))
    k = space.part_indices("K")
    m = space.part_indices("M")
    if len(k) == 0:
        return np.zeros((len(m), len(m)))
    return -ad[np.ix_(m, k)] @ ad[np.ix_(k, m)]


KERNEL_BLOCK = 512  # rows per evaluation block; bounds the (rows, n*p) products
HESSIAN_BLOCK = 1 << 16  # Hessian entries per block: keeps a block's temporaries in cache
GRAD_RTOL = 1e-14  # a gradient below this times |f| + max|H| is zero to rounding
STOP_RTOL = 1e-13  # a predicted gain and a trial change below this times |f| are rounding


class BracketKernel:
    """The weighted bracket form f(x, y) = N / area^2 on ON-frame pairs of m.

    N = w_k |[x,y]_k|^2 + w_m |[x,y]_m|^2 and area^2 = |x|^2 |y|^2 - <x,y>^2.
    Weights (1, 1/4) give the normal-mode sectional curvature; weights (1, 1)
    give |[x,y]|^2, since the Gram is block-diagonal across k + m.

    The bracket tensor B[a, b, :] = [e_a, e_b] of an orthonormal frame e of m,
    written in orthonormal frames of k and m and scaled by sqrt(w_k), sqrt(w_m),
    is built by two one-index contractions of the structure constants.

    f alone (order 0, `value`) is read in Pluecker form: with sigma = x ^ y,
    sigma_ij = x_i y_j - x_j y_i (i < j), and M the rows B(e_i, e_j) (i < j),
    B(x, y) = sigma M and area^2 = |sigma|^2, summed as squares: on 40,000
    raw Gaussian pairs in a 3-dim m, the difference above lost up to 2e-12
    relative to orthonormalized pairs, the sum of squares 1e-15.  So
    f = |sigma M|^2 / |sigma|^2 is GL(2)-invariant as computed, and any two
    vectors spanning the plane may be passed in.

    The derivatives (orders 1 and 2) store B as an (n, n*p) matrix: B(x, .)
    is one GEMM and, B being antisymmetric, B(., y) = -B(y, .) is another.
    With z = (x, y) and J = [-B(y, .); B(x, .)], the gradient is exact:
    dN/dz = 2 J B(x, y) and df/dz = (dN/dz - f d(area^2)/dz) / area^2.

    At an orthonormal pair, f is invariant under GL(2) acting on (x, y), so
    its gradient is horizontal (orthogonal to span(x, y) in both blocks), and
    its Riemannian Hessian on the Grassmannian of planes is P H P, where P
    applies Q = I - xx^T - yy^T to both blocks and, for horizontal z = (xi, eta),
      z^T H z = 2 |B(xi, y) + B(x, eta)|^2 + 4 <B(x, y), B(xi, eta)> - 2 f |z|^2.
    The first term gives 2 (PJ)(PJ)^T.  The second gives the off-diagonal
    blocks +-2 QCQ, with C = B(., ., B(x, y)) antisymmetric: one GEMM against
    the tensor laid out as (p, n*n).  The third gives -2 f Q on the diagonal.
    """

    def __init__(self, space: ReductiveSpace, w_k: float, w_m: float):
        alg = space.algebra
        m = space.part_indices("M")
        k = space.part_indices("K")
        self.n = n = len(m)
        ft = space.frame_m.T  # row a: the m-basis coordinates of e_a
        # b[a, b] = sum_ij ft[a, i] ft[b, j] [m_i, m_j], contracted one index at a time
        b = np.matmul(ft, (ft @ alg.structure[np.ix_(m, m)].reshape(n, -1)).reshape(n, n, -1))
        parts = [np.sqrt(w_k) * (b[:, :, k] @ space.chol_k)] if len(k) else []
        parts.append(np.sqrt(w_m) * space.to_frame(b))
        tensor = np.concatenate(parts, axis=2)
        tensor = 0.5 * (tensor - tensor.transpose(1, 0, 2))
        self._tensor = tensor.reshape(n, -1)
        self._contract = tensor.reshape(n * n, -1).T.copy()  # b -> B(., ., b)
        self._pairs = np.triu_indices(n, 1)
        self._wedge = tensor[self._pairs].T.copy()  # column ij (i < j) is B(e_i, e_j)

    def gaussian_pairs(self, rng, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Two (count, n) standard Gaussian draws, xs first: the planes they span
        are uniform on the Grassmannian (the stream of random_unit_m)."""
        xs = rng.standard_normal((count, self.n))
        return xs, rng.standard_normal((count, self.n))

    def random_pairs(self, rng, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal pairs: Gram-Schmidt on gaussian_pairs."""
        return _orthonormalize(*self.gaussian_pairs(rng, count))

    def value(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """f at each row pair."""
        return self._evaluate(xs, ys, 0)[0]

    def value_and_gradient(self, xs: np.ndarray, ys: np.ndarray):
        """f, df/dx and df/dy at each row pair."""
        f, g, _ = self._evaluate(xs, ys, 1)
        return f, g[:, : self.n], g[:, self.n :]

    def second_order(self, xs: np.ndarray, ys: np.ndarray):
        """f, df/d(x, y) and the projected Hessian P H P at orthonormal row pairs."""
        return self._evaluate(xs, ys, 2)

    def _evaluate(self, xs, ys, order):
        count, n = len(xs), self.n
        f = np.empty(count)
        if not order:
            i, j = self._pairs
            for lo in range(0, count, KERNEL_BLOCK):
                # by column: the Pluecker coordinates of x ^ y, and B(x, y) from them
                x, y = xs[lo : lo + KERNEL_BLOCK].T.copy(), ys[lo : lo + KERNEL_BLOCK].T.copy()
                sigma = x[i] * y[j] - x[j] * y[i]
                bxy = self._wedge @ sigma
                num = np.einsum("cn,cn->n", bxy, bxy)
                f[lo : lo + KERNEL_BLOCK] = num / np.einsum("kn,kn->n", sigma, sigma)
            return f, None, None
        g = np.empty((count, 2 * n))
        h = np.empty((count, 2 * n, 2 * n)) if order == 2 else None
        block = KERNEL_BLOCK if order < 2 else max(1, HESSIAN_BLOCK // (2 * n) ** 2)
        for lo in range(0, count, block):
            rows = slice(lo, lo + block)
            x, y = xs[rows], ys[rows]
            bx = (x @ self._tensor).reshape(len(x), n, -1)  # B(x, .)
            bxy = np.einsum("nb,nbc->nc", y, bx)
            xx = np.einsum("na,na->n", x, x)[:, None]
            yy = np.einsum("na,na->n", y, y)[:, None]
            xy = np.einsum("na,na->n", x, y)[:, None]
            area2 = xx * yy - xy**2
            fb = np.einsum("nc,nc->n", bxy, bxy)[:, None] / area2
            f[rows] = fb[:, 0]
            by = (y @ self._tensor).reshape(len(y), n, -1)  # B(y, .) = -B(., y)
            jac = np.concatenate([-by, bx], axis=1)
            darea2 = 2.0 * np.concatenate([yy * x - xy * y, xx * y - xy * x], axis=1)
            g[rows] = (2.0 * np.einsum("nac,nc->na", jac, bxy) - fb * darea2) / area2
            if order == 2:
                # B(x, x) = B(y, y) = 0, so P J = J - (x; y) B(x, y)^T
                jac -= np.concatenate([x, y], axis=1)[:, :, None] * bxy[:, None]
                hb = np.matmul(jac, jac.transpose(0, 2, 1), out=h[rows])
                q = np.eye(n) - x[:, :, None] * x[:, None] - y[:, :, None] * y[:, None]
                qcq = q @ (bxy @ self._contract).reshape(len(x), n, n) @ q
                hb[:, :n, n:] += qcq
                hb[:, n:, :n] -= qcq
                fq = fb[:, :, None] * q
                hb[:, :n, :n] -= fq
                hb[:, n:, n:] -= fq
                hb *= 2.0
        return f, g, h


def _orthonormalize(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xs = xs / np.linalg.norm(xs, axis=1, keepdims=True)
    ys = ys - np.einsum("na,na->n", ys, xs)[:, None] * xs
    ys = ys / np.linalg.norm(ys, axis=1, keepdims=True)
    return xs, ys


def optimize_pairs(
    kernel: BracketKernel, signs: tuple[float, ...], rng, multistarts: int, max_iter: int = 400
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Multistart Riemannian Newton ascent (sign +1) and descent (sign -1) of f.

    Each sign gets `multistarts` starts from `rng`, in order, and all rows
    advance in one loop of at most `max_iter` steps.  A row takes the damped
    (Levenberg-Marquardt) Newton step d = s (mu I - s PHP)^-1 g on the
    Grassmannian of planes and is retracted onto orthonormal pairs by
    Gram-Schmidt.  mu starts at |f| + max|PHP|; it also regularizes the flat
    directions along isotropy orbits and the vertical ones.  A step that
    improves f along an ascent direction (s g.d > 0) is kept and divides mu by
    5; any other step multiplies it by 8.  A row stops once its gradient is
    zero to rounding, or once its predicted gain g.(mu I - s PHP)^-1 g (the
    damped Newton decrement) and its trial's change of f both fall to rounding
    relative to |f|.  Each step makes
    one kernel call, on the trial pairs, and an accepted row keeps that
    gradient and Hessian.  Returns f, the ON-frame pairs (x, y) and the
    Riemannian gradient norm |g| by row, and the number of steps taken.
    """
    if multistarts < 1:
        raise ValueError("multistarts must be >= 1")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    n = kernel.n
    starts = [kernel.random_pairs(rng, multistarts) for _ in signs]
    z = np.concatenate([np.hstack(pair) for pair in starts])
    sign = np.repeat(np.asarray(signs, dtype=float), multistarts)
    f, g, h = kernel.second_order(z[:, :n], z[:, n:])
    mu = np.abs(f) + np.max(np.abs(h), axis=(1, 2))
    flat = GRAD_RTOL * mu  # a gradient norm at or below this is zero to rounding
    active = np.linalg.norm(g, axis=1) > flat
    diag = np.arange(2 * n)
    steps = 0
    while steps < max_iter and active.any():
        steps += 1
        idx = np.flatnonzero(active)
        s, fi = sign[idx], f[idx]
        lhs = -s[:, None, None] * h[idx]
        lhs[:, diag, diag] += mu[idx, None]
        d = s[:, None] * np.linalg.solve(lhs, g[idx][:, :, None])[:, :, 0]
        gain = s * np.einsum("na,na->n", g[idx], d)
        trial = np.hstack(_orthonormalize(z[idx, :n] + d[:, :n], z[idx, n:] + d[:, n:]))
        nf, ng, nh = kernel.second_order(trial[:, :n], trial[:, n:])
        better = (gain > 0) & (s * nf > s * fi)
        good = idx[better]
        z[good], f[good], g[good], h[good] = trial[better], nf[better], ng[better], nh[better]
        mu[idx] *= np.where(better, 0.2, 8.0)
        rounding = STOP_RTOL * np.abs(fi)
        done = (gain <= rounding) & (np.abs(nf - fi) <= rounding)
        done |= better & (np.linalg.norm(ng, axis=1) <= flat[idx])
        active[idx[done]] = False
    return f, z[:, :n], z[:, n:], np.linalg.norm(g, axis=1), steps


def sectional_curvature(space: ReductiveSpace, x, y, mode: str = "normal") -> float:
    """Sectional curvature of the tangent plane spanned by x, y.

    A vector of g stands for the tangent vector of its m-part, so both modes
    drop k-parts first.
    normal mode:              (|[x,y]_k|^2 + |[x,y]_m|^2 / 4) / area^2
    naturally_reductive mode: (<[[x,y]_k, x]_m, y> + |[x,y]_m|^2 / 4) / area^2
    """
    xc, yc = project(space, x, "M"), project(space, y, "M")
    alg = space.algebra
    area2 = alg.inner(xc, xc) * alg.inner(yc, yc) - alg.inner(xc, yc) ** 2
    if not PLANE_TOL <= area2 < math.inf:  # NaN-safe: non-finite vectors span no plane
        raise DegeneratePlane(f"plane area^2 = {area2:.2e}")
    if mode == "normal":
        kernel = BracketKernel(space, 1.0, 0.25)
        return float(kernel.value(space.to_frame(xc[None]), space.to_frame(yc[None]))[0])
    if mode != "naturally_reductive":
        raise ValueError(f"unknown mode {mode!r}")
    b = np.einsum("i,j,ijk->k", xc, yc, alg.structure)
    bk = project(space, b, "K")
    bm = project(space, b, "M")
    adbk_x = np.einsum("i,j,ijk->k", bk, xc, alg.structure)
    num = alg.inner(project(space, adbk_x, "M"), yc) + 0.25 * alg.inner(bm, bm)
    return float(num / area2)


@dataclass(frozen=True)
class LtsReport:
    space: str
    dim: int
    m_closure: float
    k_action: float
    subalgebra_closure: float
    tol: float

    @property
    def is_lts(self) -> bool:
        return max(self.m_closure, self.k_action) <= self.tol

    @property
    def closes_subalgebra(self) -> bool:
        return self.subalgebra_closure <= self.tol

    def to_dict(self) -> dict:
        return {
            "check": "lie-triple-system",
            "space": self.space,
            "dim": self.dim,
            "pass": self.is_lts and self.closes_subalgebra,
            "residuals": {
                "m_closure": self.m_closure,
                "k_action": self.k_action,
                "subalgebra_closure": self.subalgebra_closure,
            },
        }


def _span_residual(vectors: np.ndarray, gram: np.ndarray, tested: np.ndarray) -> float:
    """Max gram-norm of the components of ``tested`` orthogonal to the span."""
    if tested.size == 0:
        return 0.0
    l = np.linalg.cholesky(gram)
    on_tested = tested @ l
    if vectors.size == 0:
        return float(np.max(np.linalg.norm(on_tested, axis=1)))
    # SVD rank truncation: the tested sets are typically rank-deficient
    u, sv, _ = np.linalg.svd((vectors @ l).T, full_matrices=False)
    rank = int(np.sum(sv > 1e-10 * max(sv[0], 1e-300)))
    q = u[:, :rank]
    resid = on_tested.T - q @ (q.T @ on_tested.T)
    return float(np.max(np.linalg.norm(resid, axis=0)))


def lts_check(space: ReductiveSpace, vectors, tol: float = VALIDATION_TOL) -> LtsReport:
    """Verify nu is a Lie triple system and that nu + [nu,nu]_k closes."""
    vs = np.array([_coeffs(v) for v in vectors], dtype=float)
    alg = space.algebra
    c = alg.structure
    pairs = np.einsum("ai,bj,ijk->abk", vs, vs, c).reshape(-1, alg.dim)
    pairs_m = np.array([project(space, p, "M") for p in pairs])
    pairs_k = np.array([project(space, p, "K") for p in pairs])
    m_closure = _span_residual(vs, alg.gram, pairs_m)
    triple = np.einsum("pi,aj,ijk->pak", pairs_k, vs, c).reshape(-1, alg.dim)
    k_action = _span_residual(vs, alg.gram, triple)

    span = np.vstack([vs, pairs_k])
    sub = np.einsum("ai,bj,ijk->abk", span, span, c).reshape(-1, alg.dim)
    subalgebra_closure = _span_residual(span, alg.gram, sub)
    return LtsReport(
        space=space.name,
        dim=int(np.linalg.matrix_rank(vs, tol=1e-10)),
        m_closure=m_closure,
        k_action=k_action,
        subalgebra_closure=subalgebra_closure,
        tol=tol,
    )


@dataclass(frozen=True)
class RankOneReport:
    space: str
    min_bracket_sq: float
    passed: bool
    argmin: PlaneSpec
    multistarts: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "check": "rank-one",
            "space": self.space,
            "pass": self.passed,
            "min_bracket_sq": self.min_bracket_sq,
            "multistarts": self.multistarts,
            "seed": self.seed,
        }


def rank_one_check(
    space: ReductiveSpace,
    multistarts: int = 64,
    seed: int = 0,
    threshold: float = RANK_ONE_THRESHOLD,
) -> RankOneReport:
    """Minimize |[x,y]|^2 over g-orthonormal pairs in m by Riemannian Newton."""
    kernel = BracketKernel(space, 1.0, 1.0)
    vals, xs, ys, _, _ = optimize_pairs(kernel, (-1.0,), np.random.default_rng(seed), multistarts)
    best = int(np.argmin(vals))
    return RankOneReport(
        space=space.name,
        min_bracket_sq=float(vals[best]),
        passed=bool(vals[best] > threshold),
        argmin=PlaneSpec(space.from_frame(xs[best]), space.from_frame(ys[best])),
        multistarts=multistarts,
        seed=seed,
    )


@dataclass(frozen=True)
class TransitivityReport:
    space: str
    part: str
    witness: str | None
    kernel_dim: int
    transitive: bool

    def to_dict(self) -> dict:
        return {
            "check": "isotropy-transitivity",
            "space": self.space,
            "part": self.part,
            "witness": self.witness,
            "kernel_dim": self.kernel_dim,
            "transitive": self.transitive,
        }


def _kernel_dim_of_witness(space: ReductiveSpace, u: np.ndarray, part_idx: np.ndarray) -> int:
    """Kernel dimension of v -> [u, v]_k restricted to the given part of m."""
    ad = space.algebra.ad(u)
    k = space.part_indices("K")
    mat = ad[np.ix_(k, part_idx)] if len(k) else np.zeros((0, len(part_idx)))
    if mat.shape[0] == 0:
        return len(part_idx)
    sv = np.linalg.svd(mat, compute_uv=False)
    cutoff = 1e-10 * max(1.0, sv[0] if len(sv) else 1.0)
    rank = int(np.sum(sv > cutoff))
    return len(part_idx) - rank


def isotropy_transitivity_check(space: ReductiveSpace, part: str) -> TransitivityReport:
    """Transitivity of the linear isotropy action on the unit sphere of a part.

    Uses the registered witness direction when available (the kernel of
    v -> [u,v]_k must be exactly span(u)); otherwise searches random witnesses
    and raises NoWitness when none certifies transitivity.
    """
    part = part.upper()
    part_idx = space.part_indices(part)
    label = space.witnesses.get(part)
    if label is not None:
        u = space.basis_vector(label)
        kdim = _kernel_dim_of_witness(space, u, part_idx)
        return TransitivityReport(
            space=space.name,
            part=part,
            witness=label,
            kernel_dim=kdim,
            transitive=bool(kdim == 1),
        )
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = np.zeros(space.algebra.dim)
        u[part_idx] = rng.standard_normal(len(part_idx))
        u = space.unit(u)
        kdim = _kernel_dim_of_witness(space, u, part_idx)
        if kdim == 1:
            return TransitivityReport(
                space=space.name,
                part=part,
                witness=None,
                kernel_dim=1,
                transitive=True,
            )
    raise NoWitness(f"no transitivity witness registered or found for {space.name}/{part}")

