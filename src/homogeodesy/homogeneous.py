"""Reductive decompositions and origin geometry.

Everything is computed at the origin in the m-basis: projections are index
masks (the Gram is block-diagonal across k + m), the canonical-connection
operators come straight from the structure tensor, and sectional curvature is
evaluated from bracket norms.  One bracket kernel, with the gradient and
Hessian written in an orthonormal frame of the tangent space of the
Grassmannian of planes, and one damped Riemannian Newton optimizer on that
Grassmannian serve both the rank-one check and the pinching estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .algebra import StructuredAlgebra

VALIDATION_TOL = 1e-10
PLANE_TOL = 1e-14
RANK_ONE_THRESHOLD = 1e-6
RANK_ONE_MULTISTARTS = 64


class GeometryError(RuntimeError):
    pass


class MissingSplit(GeometryError):
    """An m0/m1 part was requested on a space without the fibration split."""


class DegeneratePlane(GeometryError):
    """The two vectors do not span a plane."""


class NoWitness(GeometryError):
    """No transitivity witness is registered for the part."""


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
        """The read-only index array of k, m, m0 or m1, made at its first request."""
        part = part.upper()
        if part not in self._part_arrays:
            if part not in ("K", "M", "M0", "M1"):
                raise ValueError(f"unknown part {part!r}")
            idx = getattr(self, f"{part.lower()}_indices")
            if idx is None:
                raise MissingSplit(f"{self.name} has no m0/m1 split")
            self._part_arrays[part] = arr = np.asarray(idx, dtype=int)
            arr.setflags(write=False)
        return self._part_arrays[part]

    @cached_property
    def _part_arrays(self) -> dict[str, np.ndarray]:
        return {}

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
    def curvature_kernel(self) -> BracketKernel:
        """The sectional-curvature kernel, weights (1, 1/4), built at its first request."""
        return BracketKernel(self, 1.0, 0.25)

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

    def validate(self) -> "SpaceValidation":
        c = self.algebra.structure
        g = self.algebra.gram
        k = self.part_indices("K")
        m = self.part_indices("M")

        def peak(block) -> float:  # 0.0 on an empty block
            return float(np.abs(block).max(initial=0.0))

        sub, red = peak(c[np.ix_(k, k, m)]), peak(c[np.ix_(k, m, k)])
        blockdiag = peak(g[np.ix_(k, m)])
        split = 0.0
        if self.m0_indices is not None:
            m0 = self.part_indices("M0")
            m1 = self.part_indices("M1")
            split = max(peak(c[np.ix_(k, m0, m1)]), peak(c[np.ix_(k, m1, m0)]))
        return SpaceValidation(
            space=self.name,
            k_subalgebra=sub,
            reductivity=red,
            split_invariance=split,
            gram_block_diagonal=blockdiag,
        )


def fields_dict(report, *dropped: str) -> dict:
    """A result's dataclass fields by name, in order, less the `dropped` ones.

    Reads fields(), not vars(), so a cached_property never reaches a document."""
    return {f.name: getattr(report, f.name) for f in fields(report) if f.name not in dropped}


@dataclass(frozen=True)
class SpaceValidation:
    space: str
    k_subalgebra: float
    reductivity: float
    split_invariance: float
    gram_block_diagonal: float

    @property
    def passed(self) -> bool:
        return max(fields_dict(self, "space").values()) <= VALIDATION_TOL

    def to_dict(self) -> dict:
        doc = {"check": "reductive-structure", "space": self.space, "pass": self.passed}
        return doc | {"residuals": fields_dict(self, "space")}


@dataclass(frozen=True)
class PlaneSpec:
    """An (x, y) pair of m-vectors spanning a tangent 2-plane."""

    x: np.ndarray
    y: np.ndarray


# -- operations ------------------------------------------------------------


def project(space: ReductiveSpace, x, part: str) -> np.ndarray:
    """Orthogonal projection onto an indexed subspace (coordinate masking)."""
    coeffs = np.asarray(x, dtype=float)
    idx = space.part_indices(part)
    out = np.zeros_like(coeffs)
    out[idx] = coeffs[idx]
    return out


def connection_ops(space: ReductiveSpace, u) -> tuple[np.ndarray, np.ndarray]:
    """Matrices T of x -> -[u, x]_m and R of x -> [[u, x]_k, u] on the m-basis
    coordinates, both read from one ad_u.  Each block gathers its columns, then its
    rows, so it is C-ordered and its products round as those of np.ix_ blocks do."""
    ad = space.algebra.ad(u)
    k, m = space.part_indices("K"), space.part_indices("M")
    on_m = ad[:, m]
    if len(k) == 0:
        return -on_m[m], np.zeros((len(m), len(m)))
    return -on_m[m], -ad[:, k][m] @ on_m[k]


KERNEL_BLOCK = 512  # rows per evaluation block; bounds the (rows, n*p) products
HESSIAN_BLOCK = 1 << 16  # frame-Hessian entries, (2(n-2))^2 a row, per block: stays in cache
GRAD_RTOL = 1e-14  # a gradient below this times |f| + max|PHP| is zero to rounding
STOP_RTOL = 1e-13  # a predicted gain and a trial change below this times |f| are rounding
START_SCREEN = 8  # random planes screened per optimizer start


def gaussian_pairs(rng, count: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two (count, n) standard Gaussian draws, xs first: the planes they span
    are uniform on the Grassmannian (the stream of random_unit_m)."""
    return rng.standard_normal((count, n)), rng.standard_normal((count, n))


class BracketKernel:
    """The weighted bracket form f(x, y) = N / area^2 on ON-frame pairs of m.

    N = w_k |[x,y]_k|^2 + w_m |[x,y]_m|^2 and area^2 = |x|^2 |y|^2 - <x,y>^2.
    Weights (1, 1/4) give the normal-mode sectional curvature; weights (1, 1)
    give |[x,y]|^2, since the Gram is block-diagonal across k + m.

    The bracket tensor B[a, b, :] = [e_a, e_b] of an orthonormal frame e of m,
    written in orthonormal frames of k and m and scaled by sqrt(w_k), sqrt(w_m),
    is the algebra's `brackets` of that frame with itself.

    f alone (order 0, `value`) is read in Pluecker form: with sigma = x ^ y,
    sigma_ij = x_i y_j - x_j y_i (i < j), and M the rows B(e_i, e_j) (i < j),
    B(x, y) = sigma M and area^2 = |sigma|^2, summed as squares: on 40,000
    raw Gaussian pairs in a 3-dim m, the difference above lost up to 2e-12
    relative to orthonormalized pairs, the sum of squares 1e-15.  So
    f = |sigma M|^2 / |sigma|^2 is GL(2)-invariant as computed, and any two
    vectors spanning the plane may be passed in.

    The derivatives (`second_order`, at orthonormal pairs) are read in a
    frame of the tangent space of the Grassmannian of planes.  f is invariant
    under GL(2) acting on (x, y), so its gradient is horizontal: orthogonal to
    span(x, y) in both blocks.  With N (n, n - 2) an orthonormal basis of
    span(x, y)^perp (`_frame`), a horizontal direction is (N a, N b), and the
    gradient and Hessian are those of (a, b) -> f(x + N a, y + N b) at 0.
    B is stored as an (n, n*p) matrix: B(x, .) is one GEMM and, B being
    antisymmetric, B(., y) = -B(y, .) is another.  With
    J_N = [-N^T B(y, .); N^T B(x, .)], the gradient is
    g_N = 2 J_N B(x, y) / area^2, since area^2 only moves along span(x, y).
    For a horizontal z = (xi, eta),
      z^T H z = 2 |B(xi, y) + B(x, eta)|^2 + 4 <B(x, y), B(xi, eta)> - 2 f |z|^2.
    The first term gives 2 J_N J_N^T.  The second gives the off-diagonal
    blocks +-2 C_N, C_N = N^T C N with C = B(., ., B(x, y)) antisymmetric: one
    GEMM against the tensor laid out as (p, n*n).  The third gives -2 f I on
    the diagonal.  H_N is 2(n - 2) square, and diag(N, N) lifts g_N and H_N
    to the ambient gradient and projected Hessian P H P, P = I - xx^T - yy^T
    on both blocks.
    """

    def __init__(self, space: ReductiveSpace, w_k: float, w_m: float):
        alg = space.algebra
        k = space.part_indices("K")
        self.n = n = space.dim_m
        frame = space.from_frame(np.eye(n))  # row a: the coefficients of e_a
        b = alg.brackets(frame, frame)  # b[a, b] = [e_a, e_b]
        parts = [np.sqrt(w_k) * (b[:, :, k] @ space.chol_k)] if len(k) else []
        parts.append(np.sqrt(w_m) * space.to_frame(b))
        tensor = np.concatenate(parts, axis=2)
        tensor = 0.5 * (tensor - tensor.transpose(1, 0, 2))
        self._tensor = tensor.reshape(n, -1)
        self._contract = tensor.reshape(n * n, -1).T.copy()  # b -> B(., ., b)
        self._pairs = np.triu_indices(n, 1)
        self._wedge = tensor[self._pairs].T.copy()  # column ij (i < j) is B(e_i, e_j)

    def value(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """f at each row pair."""
        return self._evaluate(xs, ys, 0)[0]

    def second_order(self, xs: np.ndarray, ys: np.ndarray):
        """f, the gradient g_N and Hessian H_N in the tangent frame, and the
        frame N, at orthonormal row pairs."""
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
        r = n - 2
        g, h = np.empty((count, 2 * r)), np.empty((count, 2 * r, 2 * r))
        frame = np.empty((count, n, r))
        block = max(1, HESSIAN_BLOCK // max(1, (2 * r) ** 2))
        for lo in range(0, count, block):
            rows = slice(lo, lo + block)
            x, y = xs[rows], ys[rows]
            nb = frame[rows] = _frame(x, y)
            nt = nb.transpose(0, 2, 1)
            bx = (x @ self._tensor).reshape(len(x), n, -1)  # B(x, .)
            bxy = np.einsum("nb,nbc->nc", y, bx)
            xx = np.einsum("na,na->n", x, x)
            yy = np.einsum("na,na->n", y, y)
            xy = np.einsum("na,na->n", x, y)
            area2 = (xx * yy - xy**2)[:, None]
            fb = np.einsum("nc,nc->n", bxy, bxy)[:, None] / area2
            f[rows] = fb[:, 0]
            by = (y @ self._tensor).reshape(len(y), n, -1)  # B(y, .) = -B(., y)
            jac = np.empty((len(x), 2 * r, bx.shape[2]))  # J_N
            np.negative(np.matmul(nt, by, out=jac[:, :r]), out=jac[:, :r])
            np.matmul(nt, bx, out=jac[:, r:])
            g[rows] = 2.0 * np.matmul(jac, bxy[:, :, None])[:, :, 0] / area2
            hb = np.matmul(jac, jac.transpose(0, 2, 1), out=h[rows])
            cn = nt @ (bxy @ self._contract).reshape(len(x), n, n) @ nb
            hb[:, :r, r:] += cn
            hb[:, r:, :r] -= cn
            # the diagonals, written through a view, as h[rows] is contiguous
            hb.reshape(len(x), -1)[:, :: 2 * r + 1] -= fb
            hb *= 2.0
        return f, g, h, frame


def _frame(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Orthonormal bases N (rows, n, n - 2) of span(x, y)^perp at orthonormal pairs.

    The Householder reflection H1 along u1 = x + sign(x_0) e_0 takes x to a
    multiple of e_0; H2 along u2 = (0, y' + sign(y'_1) e_1), y' = H1 y with its
    e_0 part dropped, takes H1 y to a multiple of e_1 and fixes e_0.  So the
    columns 2, ..., n - 1 of the orthogonal H1 H2 span the complement: N is
    H1 H2 applied to those columns of the identity."""
    n = xs.shape[1]
    u1 = xs.copy()
    u1[:, 0] += np.copysign(1.0, xs[:, 0])
    c1 = 2.0 / np.einsum("na,na->n", u1, u1)
    u2 = ys - (c1 * np.einsum("na,na->n", u1, ys))[:, None] * u1
    u2[:, 0] = 0.0
    u2[:, 1] += np.copysign(np.linalg.norm(u2, axis=1), u2[:, 1])
    c2 = 2.0 / np.einsum("na,na->n", u2, u2)
    frame = -(c2[:, None] * u2)[:, :, None] * u2[:, None, 2:]
    frame[:, 2:] += np.eye(n - 2)
    return frame - (c1[:, None] * u1)[:, :, None] * np.einsum("na,nab->nb", u1, frame)[:, None]


def _orthonormalize(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xs = xs / np.linalg.norm(xs, axis=1, keepdims=True)
    ys = ys - np.einsum("na,na->n", ys, xs)[:, None] * xs
    ys = ys / np.linalg.norm(ys, axis=1, keepdims=True)
    return xs, ys


def _trial_pairs(z, g, h, frame, s, mu):
    """Trial pairs and predicted gains of one damped Newton step from each row.

    In the tangent frame N of each row, the step d = s (mu I - s H)^-1 g
    predicts the gain s g.d, which is positive while mu I - s H is positive
    definite.  A gain <= 0 shows that it is not: s H has a wrong-sign
    eigenvalue lam above mu, so the row sits near a saddle of s f.  Such a row
    steps along the top eigenvector v of s H instead, signed so that s g.v >= 0,
    by the length a = min(lam/mu, 1), and predicts 1/2 lam a^2 + |g.v| a.  a is
    1 unless rounding alone made the gain <= 0; then lam <= mu.  The frame
    has no vertical directions, so lam may be negative: it is clamped at 0, and
    a row with no positive curvature predicts no gain.  Only these rows pay
    for an eigh: in 64-row batches it costs two to three solves at size 2 and
    six to eleven at sizes 6 to 26.  The trial is the Gram-Schmidt pair of
    (x + N d_x, y + N d_y).
    """
    r = g.shape[1] // 2
    lhs = -s[:, None, None] * h
    lhs.reshape(len(lhs), -1)[:, :: 2 * r + 1] += mu[:, None]  # the diagonals
    d = s[:, None] * np.linalg.solve(lhs, g[:, :, None])[:, :, 0]
    gain = s * np.einsum("na,na->n", g, d)
    bent = gain <= 0
    if bent.any():
        lam, vec = np.linalg.eigh(s[bent, None, None] * h[bent])
        lam, v = np.maximum(lam[:, -1], 0.0), vec[:, :, -1]
        slope = s[bent] * np.einsum("na,na->n", g[bent], v)
        alpha = np.minimum(lam / mu[bent], 1.0)
        d[bent] = np.where(slope < 0, -alpha, alpha)[:, None] * v
        gain[bent] = 0.5 * lam * alpha**2 + np.abs(slope) * alpha
    n = z.shape[1] // 2
    step = z.reshape(-1, 2, n) + d.reshape(-1, 2, r) @ frame.transpose(0, 2, 1)
    return np.concatenate(_orthonormalize(step[:, 0], step[:, 1]), axis=1), gain


def optimize_pairs(
    kernel: BracketKernel, signs: tuple[float, ...], rng, multistarts: int, max_iter: int = 400
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Multistart Riemannian Newton ascent (sign +1) and descent (sign -1) of f.

    Each sign, in order, draws START_SCREEN * multistarts Gaussian pairs from
    `rng`, xs then ys, and one order-0 kernel call evaluates f on all of them
    (the value is GL(2)-invariant, so raw pairs will do).  Per sign, the
    `multistarts` pairs with the largest s f, best first and ties in draw
    order, are Gram-Schmidt'ed into its starts: the reduce step of multi-level
    single linkage, which searches a larger sample only from its best points.
    All rows advance in one loop of at most `max_iter` steps.

    A row takes the damped (Levenberg-Marquardt) Newton step
    d = s (mu I - s H)^-1 g on the Grassmannian of planes, with g and H read
    in the row's tangent frame N (`BracketKernel`), and is retracted onto
    orthonormal pairs by Gram-Schmidt.  mu starts at |f| + max|PHP|, the
    largest entry of the ambient projected Hessian P H P = N2 H N2^T,
    N2 = diag(N, N), lifted once at the starts: that rule depends on the
    basis, and the frame's own max|H| or |H|_2 take more steps.  mu also
    regularizes the flat directions along isotropy orbits.  Where mu I - s H
    is indefinite and the step predicts no gain, the row is near a saddle and
    steps along the wrong-sign curvature of s H instead (`_trial_pairs`), so
    that it leaves the saddle in one step rather than waiting for mu to grow
    past that curvature.  A step that improves f with a positive predicted
    gain is kept and divides mu by 5; any other step multiplies it by 8.  A
    row stops once its gradient is zero to rounding, or once its predicted
    gain g.(mu I - s H)^-1 g (the damped Newton decrement) and its trial's
    change of f both fall to rounding relative to |f|.  A row that reaches a
    saddle with a gradient zero to rounding stops there.  After the screen and
    one order-2 call at the starts, each step makes one kernel call, on the
    trial pairs, and an accepted row keeps that gradient, Hessian and frame.
    The steps see the live rows alone, kept contiguous in row order: a step
    that improves every row keeps the trial arrays whole, and a row's f, pair
    and |g| are written out once, when it stops, as the live rows are compressed.
    Returns f, the ON-frame pairs (x, y) and the Riemannian gradient norm |g|
    by row, and the number of steps taken.
    """
    if multistarts < 1:
        raise ValueError("multistarts must be >= 1")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    n, pool = kernel.n, START_SCREEN * multistarts
    draws = [gaussian_pairs(rng, pool, n) for _ in signs]
    xs, ys = (np.concatenate(part) for part in zip(*draws))
    screen = np.asarray(signs)[:, None] * kernel.value(xs, ys).reshape(len(signs), pool)
    best = np.argsort(-screen, axis=1, kind="stable")[:, :multistarts]  # ties keep draw order
    keep = (best + pool * np.arange(len(signs))[:, None]).ravel()
    z = np.hstack(_orthonormalize(xs[keep], ys[keep]))
    sign = np.repeat(np.asarray(signs, dtype=float), multistarts)
    f, g, h, frame = kernel.second_order(z[:, :n], z[:, n:])
    # |f| + max|PHP|, P H P = N2 H N2^T lifted a quadrant at a time
    r, nt = n - 2, frame.transpose(0, 2, 1)
    quadrants = [h[:, a : a + r, b : b + r] for a in (0, r) for b in (0, r)]
    mu = np.abs(f) + np.max([np.abs(frame @ q @ nt).max(axis=(1, 2)) for q in quadrants], axis=0)
    flat = GRAD_RTOL * mu  # a gradient norm at or below this is zero to rounding
    gnorm = np.linalg.norm(g, axis=1)
    out_f, out_z, out_gnorm = f, z, gnorm  # by row; a row is written here once, when it stops
    live, done = np.arange(len(f)), ~(gnorm > flat)  # the live rows' numbers, in row order
    steps = 0
    while steps < max_iter and not done.all():
        if done.any():  # write the stopped rows out, and keep the live rows contiguous
            stop = live[done]
            out_f[stop], out_z[stop], out_gnorm[stop] = f[done], z[done], gnorm[done]
            live, z, f, g, h, frame, mu, sign, flat, gnorm = (
                a[~done] for a in (live, z, f, g, h, frame, mu, sign, flat, gnorm)
            )
        steps += 1
        trial, gain = _trial_pairs(z, g, h, frame, sign, mu)
        nf, ng, nh, nframe = kernel.second_order(trial[:, :n], trial[:, n:])
        ngnorm = np.linalg.norm(ng, axis=1)
        better = (gain > 0) & (sign * nf > sign * f)
        rounding = STOP_RTOL * np.abs(f)
        done = (gain <= rounding) & (np.abs(nf - f) <= rounding)
        done |= better & (ngnorm <= flat)
        mu *= np.where(better, 0.2, 8.0)
        if better.all():
            z, f, g, h, frame, gnorm = trial, nf, ng, nh, nframe, ngnorm
        else:
            z[better], f[better], g[better] = trial[better], nf[better], ng[better]
            h[better], frame[better], gnorm[better] = nh[better], nframe[better], ngnorm[better]
    out_f[live], out_z[live], out_gnorm[live] = f, z, gnorm
    return out_f, out_z[:, :n], out_z[:, n:], out_gnorm, steps


def sectional_curvature(space: ReductiveSpace, x, y) -> float:
    """Sectional curvature (|[x,y]_k|^2 + |[x,y]_m|^2 / 4) / area^2 of the
    tangent plane spanned by x, y, the normal homogeneous formula.

    A vector of g stands for the tangent vector of its m-part, so k-parts are
    dropped first.
    """
    xc, yc = project(space, x, "M"), project(space, y, "M")
    alg = space.algebra
    area2 = alg.inner(xc, xc) * alg.inner(yc, yc) - alg.inner(xc, yc) ** 2
    if not PLANE_TOL <= area2 < math.inf:  # NaN-safe: non-finite vectors span no plane
        raise DegeneratePlane(f"plane area^2 = {area2:.2e}")
    kernel = space.curvature_kernel
    return float(kernel.value(space.to_frame(xc[None]), space.to_frame(yc[None]))[0])


@dataclass(frozen=True)
class LtsReport:
    space: str
    dim: int
    m_closure: float
    k_action: float
    subalgebra_closure: float

    @property
    def is_lts(self) -> bool:
        return max(self.m_closure, self.k_action) <= VALIDATION_TOL

    @property
    def closes_subalgebra(self) -> bool:
        return self.subalgebra_closure <= VALIDATION_TOL

    def to_dict(self) -> dict:
        passed = self.is_lts and self.closes_subalgebra
        doc = {"check": "lie-triple-system", "space": self.space, "dim": self.dim, "pass": passed}
        return doc | {"residuals": fields_dict(self, "space", "dim")}


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


def lts_check(space: ReductiveSpace, vectors) -> LtsReport:
    """Verify nu is a Lie triple system and that nu + [nu,nu]_k closes."""
    vs = np.array(vectors, dtype=float)
    alg = space.algebra
    in_k = np.zeros(alg.dim, dtype=bool)
    in_k[space.part_indices("K")] = True
    pairs = alg.brackets(vs, vs).reshape(-1, alg.dim)
    pairs_k = np.where(in_k, pairs, 0.0)
    m_closure = _span_residual(vs, alg.gram, np.where(in_k, 0.0, pairs))
    triple = alg.brackets(pairs_k, vs).reshape(-1, alg.dim)
    k_action = _span_residual(vs, alg.gram, triple)

    span = np.vstack([vs, pairs_k])
    sub = alg.brackets(span, span).reshape(-1, alg.dim)
    subalgebra_closure = _span_residual(span, alg.gram, sub)
    return LtsReport(
        space=space.name,
        dim=int(np.linalg.matrix_rank(vs, tol=1e-10)),
        m_closure=m_closure,
        k_action=k_action,
        subalgebra_closure=subalgebra_closure,
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
        # the argmin plane holds arrays for the caller; passed is written as "pass"
        return {"check": "rank-one", "pass": self.passed} | fields_dict(self, "argmin", "passed")


def rank_one_check(space: ReductiveSpace, seed: int = 0) -> RankOneReport:
    """Minimize |[x,y]|^2 over g-orthonormal pairs in m by Riemannian Newton,
    from RANK_ONE_MULTISTARTS starts."""
    kernel = BracketKernel(space, 1.0, 1.0)
    rng = np.random.default_rng(seed)
    vals, xs, ys, _, _ = optimize_pairs(kernel, (-1.0,), rng, RANK_ONE_MULTISTARTS)
    best = int(np.argmin(vals))
    return RankOneReport(
        space=space.name,
        min_bracket_sq=float(vals[best]),
        passed=bool(vals[best] > RANK_ONE_THRESHOLD),
        argmin=PlaneSpec(space.from_frame(xs[best]), space.from_frame(ys[best])),
        multistarts=RANK_ONE_MULTISTARTS,
        seed=seed,
    )


@dataclass(frozen=True)
class TransitivityReport:
    space: str
    part: str
    witness: str
    kernel_dim: int
    transitive: bool

    def to_dict(self) -> dict:
        return {"check": "isotropy-transitivity"} | fields_dict(self)


def _kernel_dim_of_witness(space: ReductiveSpace, u: np.ndarray, part_idx: np.ndarray) -> int:
    """Kernel dimension of v -> [u, v]_k restricted to the given part of m."""
    mat = space.algebra.ad(u)[np.ix_(space.part_indices("K"), part_idx)]
    if mat.size == 0:  # no k, or an empty part: nothing in the part leaves the kernel
        return len(part_idx)
    sv = np.linalg.svd(mat, compute_uv=False)
    return len(part_idx) - int(np.sum(sv > 1e-10 * max(1.0, sv[0])))


def isotropy_transitivity_check(space: ReductiveSpace, part: str) -> TransitivityReport:
    """Transitivity of the linear isotropy action on the unit sphere of a part.

    Reads the witness direction registered for the part: the action is
    transitive iff the kernel of v -> [u,v]_k on the part is exactly span(u).
    Raises NoWitness when the space registers none.
    """
    part = part.upper()
    part_idx = space.part_indices(part)
    label = space.witnesses.get(part)
    if label is None:
        raise NoWitness(f"no transitivity witness registered for {space.name}/{part}")
    kdim = _kernel_dim_of_witness(space, space.basis_vector(label), part_idx)
    return TransitivityReport(
        space=space.name, part=part, witness=label, kernel_dim=kdim, transitive=bool(kdim == 1)
    )

