"""Independent oracles and golden-table builders shared by the test modules.

Each oracle takes its own route to what the library computes, and none imports
a private name of the library: plain midpoint bisection for the transcendental
roots, scipy's matrix exponential and adaptive ODE integration for the
fundamental solution, Householder QR for orthonormal pairs, first-order ascent
for the curvature extremes, dense sampling for bracket minima, einsums over the
structure tensor, and the multiplication tables written out term by term.  A
library object may be read as data (a kernel's bracket tensor), never as code.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from homogeodesy.matrices import (
    a_matrix,
    alpha_coeff,
    b_matrix,
    c_matrix,
)


def bisect_tan_root(mu: float, k: int = 1, tol: float = 1e-13) -> float:
    """k-th positive root of tan(s/2) = mu*s by plain midpoint bisection."""
    assert mu < 0
    a = (2 * k - 1) * math.pi + 1e-9
    b = (2 * k + 1) * math.pi - 1e-9

    def f(s):
        return math.tan(s / 2.0) - mu * s

    fa = f(a)
    assert fa < 0 < f(b)
    while b - a > tol:
        mid = 0.5 * (a + b)
        if f(mid) < 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def expm_propagator(companion: np.ndarray, t: float) -> np.ndarray:
    """E(t) = exp(tA) of a companion matrix A = [[0, I], [-R, T]] by scipy.linalg.expm.

    With n the size of R, J(t) = E[:n, n:] maps X'(0) to X(t) and J'(t) = E[n:, n:]."""
    return scipy.linalg.expm(t * companion)


def ode_fundamental(companion: np.ndarray, ts, rtol=1e-11, atol=1e-13) -> list[np.ndarray]:
    """J(t) blocks by adaptive integration of Y' = companion Y, Y(0) = (0, I)."""
    two_n = companion.shape[0]
    n = two_n // 2
    y0 = np.zeros((two_n, n))
    y0[n:] = np.eye(n)
    sol = solve_ivp(
        lambda t, y: (companion @ y.reshape(two_n, n)).ravel(),
        (0.0, float(max(ts))),
        y0.ravel(),
        t_eval=np.asarray(ts, dtype=float),
        method="DOP853",
        rtol=rtol,
        atol=atol,
    )
    return [sol.y[:, k].reshape(two_n, n)[:n] for k in range(len(ts))]


def sampled_bracket_minimum(space, samples: int = 100_000, seed: int = 7) -> float:
    """min |[x,y]|^2 over random g-orthonormal pairs in m (dense sampling)."""
    rng = np.random.default_rng(seed)
    alg = space.algebra
    g = alg.gram
    xs = space.random_unit_m(rng, samples)
    ys = space.random_unit_m(rng, samples)
    ip = np.einsum("ni,ij,nj->n", ys, g, xs)
    ys = ys - ip[:, None] * xs
    norms = np.sqrt(np.einsum("ni,ij,nj->n", ys, g, ys))
    keep = norms > 1e-8
    ys = ys[keep] / norms[keep, None]
    xs = xs[keep]
    b = np.einsum("ni,nj,ijk->nk", xs, ys, alg.structure)
    return float(np.min(np.einsum("nk,kl,nl->n", b, g, b)))


def naturally_reductive_curvature(space, x, y) -> float:
    """Sectional curvature of the plane of x, y by the naturally reductive
    formula (<[[x,y]_k, x]_m, y> + |[x,y]_m|^2 / 4) / area^2, k-parts dropped
    first, by einsums over the structure tensor.  On a normal homogeneous
    space ad-invariance gives <[[x,y]_k, x], y> = |[x,y]_k|^2, the formula of
    homogeneous.sectional_curvature."""
    from homogeodesy.homogeneous import project

    alg = space.algebra
    xc, yc = project(space, x, "M"), project(space, y, "M")
    area2 = alg.inner(xc, xc) * alg.inner(yc, yc) - alg.inner(xc, yc) ** 2
    b = np.einsum("i,j,ijk->k", xc, yc, alg.structure)
    bk, bm = project(space, b, "K"), project(space, b, "M")
    adbk_x = np.einsum("i,j,ijk->k", bk, xc, alg.structure)
    num = alg.inner(project(space, adbk_x, "M"), yc) + 0.25 * alg.inner(bm, bm)
    return float(num / area2)


def orthonormal_pairs(xs, ys):
    """Each pair (x, y) made orthonormal by a Householder QR of the n x 2 matrix [x | y],
    signed so that x keeps its direction and y stays on its side of x (Gram-Schmidt's
    result, by another route)."""
    q, r = np.linalg.qr(np.stack((xs, ys), axis=-1))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    return q[..., 0], q[..., 1]


def random_pairs(kernel, rng, count: int):
    """Orthonormal pairs from the kernel's Gaussian pairs (the stream of gaussian_pairs)."""
    from homogeodesy.homogeneous import gaussian_pairs

    return orthonormal_pairs(*gaussian_pairs(rng, count, kernel.n))


def ambient_second_order(kernel, xs, ys):
    """f, df/d(x, y) and the projected Hessian P H P in ambient coordinates.

    With z = (x, y) and J = [-B(y, .); B(x, .)], the gradient is exact at any
    pair: dN/dz = 2 J B(x, y) and df/dz = (dN/dz - f d(area^2)/dz) / area^2.
    At an orthonormal pair the Riemannian Hessian on the Grassmannian is
    P H P, where P applies Q = I - xx^T - yy^T to both blocks and, for
    horizontal z = (xi, eta),
      z^T H z = 2 |B(xi, y) + B(x, eta)|^2 + 4 <B(x, y), B(xi, eta)> - 2 f |z|^2:
    2 (PJ)(PJ)^T, the off-diagonal blocks +-2 QCQ with C = B(., ., B(x, y)),
    and -2 f Q on the diagonal.  Reads the kernel's bracket tensor only.
    """
    n = kernel.n
    bx = (xs @ kernel._tensor).reshape(len(xs), n, -1)  # B(x, .)
    by = (ys @ kernel._tensor).reshape(len(ys), n, -1)  # B(y, .) = -B(., y)
    bxy = np.einsum("nb,nbc->nc", ys, bx)
    xx = np.einsum("na,na->n", xs, xs)[:, None]
    yy = np.einsum("na,na->n", ys, ys)[:, None]
    xy = np.einsum("na,na->n", xs, ys)[:, None]
    area2 = xx * yy - xy**2
    f = np.einsum("nc,nc->n", bxy, bxy)[:, None] / area2
    jac = np.concatenate([-by, bx], axis=1)
    darea2 = 2.0 * np.concatenate([yy * xs - xy * ys, xx * ys - xy * xs], axis=1)
    g = (2.0 * np.einsum("nac,nc->na", jac, bxy) - f * darea2) / area2
    # B(x, x) = B(y, y) = 0, so P J = J - (x; y) B(x, y)^T
    jac -= np.concatenate([xs, ys], axis=1)[:, :, None] * bxy[:, None]
    h = jac @ jac.transpose(0, 2, 1)
    q = np.eye(n) - xs[:, :, None] * xs[:, None] - ys[:, :, None] * ys[:, None]
    qcq = q @ (bxy @ kernel._contract).reshape(len(xs), n, n) @ q
    h[:, :n, n:] += qcq
    h[:, n:, :n] -= qcq
    h[:, :n, :n] -= f[:, :, None] * q
    h[:, n:, n:] -= f[:, :, None] * q
    return f[:, 0], g, 2.0 * h


def optimize_pairs_one_sign(kernel, sign: float, rng, multistarts: int, max_iter: int = 400):
    """Reference multistart optimizer: one sign per call, two kernel calls per step.

    Gradient ascent of sign * f with an adaptive step: each step evaluates the
    gradient at the current pairs and f at the trial pairs.  The library's
    Newton optimizer must reach the same best f per sign, and no worse beyond
    rounding.  Returns f and the ON-frame pairs.
    """
    xs, ys = random_pairs(kernel, rng, multistarts)
    f = sign * kernel.value(xs, ys)
    step = np.full(multistarts, 0.1)
    for _ in range(max_iter):
        idx = np.flatnonzero(step > 1e-10)
        if not len(idx):
            break
        _, g, _ = ambient_second_order(kernel, xs[idx], ys[idx])
        gx, gy = g[:, : kernel.n], g[:, kernel.n :]
        gnorm = np.sqrt(np.sum(gx**2, axis=1) + np.sum(gy**2, axis=1)) + 1e-30
        scale = (sign * step[idx] / gnorm)[:, None]
        nx, ny = orthonormal_pairs(xs[idx] + scale * gx, ys[idx] + scale * gy)
        nf = sign * kernel.value(nx, ny)
        better = nf > f[idx]
        good = idx[better]
        xs[good], ys[good], f[good] = nx[better], ny[better], nf[better]
        step[good] = np.minimum(step[good] * 1.3, 0.5)
        step[idx[~better]] *= 0.5
    return sign * f, xs, ys


# -- multiplication tables ---------------------------------------------------


def su_table_rhs(n: int, kind: str, r: int, j: int, k: int, l: int) -> np.ndarray:
    """Right-hand side of the su(N) A/B/C multiplication table."""
    A, B, C = (
        lambda x, y: a_matrix(n, x, y),
        lambda x, y: b_matrix(n, x, y),
        lambda x, y: c_matrix(n, x, y),
    )
    d = lambda x, y: 1.0 if x == y else 0.0
    if kind == "AA":
        return np.zeros((n, n), dtype=complex)
    if kind == "AB":
        return d(r, k) * C(r, l) - d(r, l) * C(r, k) - d(j, k) * C(j, l) + d(j, l) * C(j, k)
    if kind == "AC":
        return -d(r, k) * B(r, l) - d(r, l) * B(r, k) + d(j, k) * B(j, l) + d(j, l) * B(j, k)
    if kind == "BB":
        return d(j, k) * B(r, l) - d(j, l) * B(r, k) - d(r, k) * B(j, l) + d(r, l) * B(j, k)
    if kind == "BC":
        return d(j, l) * C(r, k) + d(j, k) * C(r, l) - d(r, l) * C(j, k) - d(r, k) * C(j, l)
    if kind == "CC":
        return -d(j, k) * B(r, l) - d(j, l) * B(r, k) - d(r, k) * B(j, l) - d(r, l) * B(j, k)
    raise ValueError(kind)


def su_table_lhs(n: int, kind: str, r: int, j: int, k: int, l: int) -> np.ndarray:
    builders = {"A": a_matrix, "B": b_matrix, "C": c_matrix}
    x = builders[kind[0]](n, r, j)
    y = builders[kind[1]](n, k, l)
    return x @ y - y @ x


def jacobi_identity_residual_dense(alg) -> float:
    """The cyclic Jacobi residual over the whole dim^4 tensor of [[b_i, b_j], b_l]."""
    c = alg.structure
    t = np.einsum("ijk,klm->ijlm", c, c)
    cyc = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
    scale = max(1.0, float(np.max(np.abs(t))))
    return float(np.max(np.abs(cyc))) / scale


def commutators_einsum(stack: np.ndarray) -> np.ndarray:
    """[b_i, b_j] of a stack (d, N, N) of matrices, by one einsum."""
    comm = np.einsum("iab,jbc->ijac", stack, stack)
    return comm - comm.transpose(1, 0, 2, 3)


def reconstruct_einsum(structure: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_k c_ijk b_k over a stack (d, N, N) of matrices, by one einsum."""
    return np.einsum("ijk,kab->ijab", structure, stack)


def reconstruction_residual_einsum(alg) -> float:
    """Max entrywise gap between the commutators of the basis and their expansions."""
    stack = np.array([b.entries for b in alg.basis])
    return float(np.max(np.abs(reconstruct_einsum(alg.structure, stack) - commutators_einsum(stack))))


def ad_einsum(structure: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ad_x with [x, b_j] in column j, by one einsum."""
    return np.einsum("i,ijk->kj", x, structure)


def brackets_einsum(structure: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """[x_a, y_b] for the rows of xs and ys, by one three-operand einsum."""
    return np.einsum("ai,bj,ijk->abk", xs, ys, structure)


def algebra_from_doc(doc: dict):
    """Rebuild an algebra from its `algebra_to_json` document through assemble_algebra."""
    from homogeodesy.algebra import BasisMatrix, GramRule, assemble_algebra

    basis = [BasisMatrix(b["label"], np.array(b["re"]) + 1j * np.array(b["im"])) for b in doc["basis"]]
    rule = doc["gram_rule"]
    gram_rule = GramRule(rule["coeff"], tuple(rule["blocks"]), tuple(rule["block_scales"]), rule["scale"])
    return assemble_algebra(basis, gram_rule, name=doc["name"])


def bracabc_matrix_residual(n: int = 5) -> float:
    """Entrywise residual of the full A/B/C table from raw matrix commutators."""
    worst = 0.0
    pairs = [(r, j) for r in range(1, n + 1) for j in range(r + 1, n + 1)]
    for kind in ("AA", "AB", "AC", "BB", "BC", "CC"):
        for r, j in pairs:
            for k, l in pairs:
                lhs = su_table_lhs(n, kind, r, j, k, l)
                rhs = su_table_rhs(n, kind, r, j, k, l)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def bracabc_bracket_residual(alg) -> float:
    """Same table, but routed through bracket() on an assembled su(N) algebra."""
    from homogeodesy.algebra import bracket

    n = alg.basis[0].entries.shape[0]
    builders = {"A": a_matrix, "B": b_matrix, "C": c_matrix}
    pairs = [(r, j) for r in range(1, n + 1) for j in range(r + 1, n + 1)]
    worst = 0.0
    for kind in ("AA", "AB", "AC", "BB", "BC", "CC"):
        for r, j in pairs:
            for k, l in pairs:
                x = alg.element(alg.coeffs_of_matrix(builders[kind[0]](n, r, j)))
                y = alg.element(alg.coeffs_of_matrix(builders[kind[1]](n, k, l)))
                got = bracket(x, y).matrix()
                want = su_table_rhs(n, kind, r, j, k, l)
                worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


def sp_table_residual(alg, m: int) -> float:
    """The quaternionic sphere tables through bracket() on sp(m+1)."""
    from homogeodesy.algebra import bracket

    def el(label):
        return alg.basis_element(label)

    def mat_of(label):
        return alg.basis[alg.index(label)].entries

    def check(x_lbl, y_lbl, rhs):
        got = bracket(el(x_lbl), el(y_lbl)).matrix()
        return float(np.max(np.abs(got - rhs)))

    worst = 0.0
    cyclic = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
    for p, q, r in cyclic:
        worst = max(worst, check(f"X_{p}", f"X_{q}", 2 * mat_of(f"X_{r}")))
        for a in range(1, m + 1):
            worst = max(worst, check(f"X_{p}", f"Y_{a}", -mat_of(f"Y_{{{a}{p}}}")))
            worst = max(worst, check(f"X_{p}", f"Y_{{{a}{p}}}", mat_of(f"Y_{a}")))
            worst = max(worst, check(f"X_{p}", f"Y_{{{a}{q}}}", mat_of(f"Y_{{{a}{r}}}")))
            worst = max(
                worst,
                check(
                    f"Y_{a}",
                    f"Y_{{{a}{p}}}",
                    -2 * mat_of(f"X_{p}") + 2 * mat_of(f"Z_{{{a}{p}}}"),
                ),
            )
            worst = max(
                worst,
                check(
                    f"Y_{{{a}{p}}}",
                    f"Y_{{{a}{q}}}",
                    2 * mat_of(f"X_{r}") + 2 * mat_of(f"Z_{{{a}{r}}}"),
                ),
            )
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            worst = max(worst, check(f"Y_{a}", f"Y_{b}", -mat_of(f"Z_{{{a},{b}}}")))
            for p, q, r in cyclic:
                worst = max(
                    worst, check(f"Y_{a}", f"Y_{{{b}{p}}}", mat_of(f"Z_{{({a},{b}){p}}}"))
                )
                worst = max(
                    worst, check(f"Y_{{{a}{p}}}", f"Y_{{{b}{p}}}", -mat_of(f"Z_{{{a},{b}}}"))
                )
                worst = max(
                    worst,
                    check(f"Y_{{{a}{p}}}", f"Y_{{{b}{q}}}", mat_of(f"Z_{{({a},{b}){r}}}")),
                )
    return worst


def berger_table_residual(space) -> float:
    """The Berger-sphere bracket table as coefficient identities."""
    from homogeodesy.algebra import bracket

    m = int(space.params["m"])
    s = float(space.params["s"])
    alg = space.algebra
    coef = (m + 1) / alpha_coeff(m)

    def coeffs(x_lbl, y_lbl):
        return bracket(alg.basis_element(x_lbl), alg.basis_element(y_lbl)).coeffs

    def expected(parts):
        out = np.zeros(alg.dim)
        for label, value in parts.items():
            out[alg.index(label)] = value
        return out

    worst = 0.0
    for r in range(1, m + 1):
        got = coeffs("d_s", f"e_{r}")
        worst = max(worst, np.max(np.abs(got - expected({f"f_{r}": math.sqrt(s) * coef}))))
        got = coeffs("d_s", f"f_{r}")
        worst = max(worst, np.max(np.abs(got - expected({f"e_{r}": -math.sqrt(s) * coef}))))
        for j in range(1, m + 1):
            if j == r:
                continue
            lo, hi = min(r, j), max(r, j)
            sign = 1.0 if r < j else -1.0
            got = coeffs(f"e_{r}", f"e_{j}")
            worst = max(
                worst, np.max(np.abs(got - expected({f"B_{{{lo},{hi}}}": -sign})))
            )
            got = coeffs(f"f_{r}", f"f_{j}")
            worst = max(
                worst, np.max(np.abs(got - expected({f"B_{{{lo},{hi}}}": -sign})))
            )
            got = coeffs(f"e_{r}", f"f_{j}")
            worst = max(worst, np.max(np.abs(got - expected({f"C_{{{lo},{hi}}}": 1.0}))))
        parts = {}
        if s < 1:
            parts["d_s"] = coef * math.sqrt(s)
            parts["h_s"] = coef * math.sqrt(1 - s)
        else:
            parts["d_s"] = coef
        if r >= 2:
            parts[f"S_{r - 1}"] = (1 - r) / alpha_coeff(r - 1)
        for j in range(r, m):
            parts[f"S_{j}"] = 1.0 / alpha_coeff(j)
        got = coeffs(f"e_{r}", f"f_{r}")
        worst = max(worst, np.max(np.abs(got - expected(parts))))
    return worst


def ad_orbit_direction(space, z, u, t: float) -> np.ndarray:
    """exp(t ad_z) u computed by matrix exponential of ad_z restricted to m."""
    m = space.part_indices("M")
    ad_m = space.algebra.ad(np.asarray(z, dtype=float))[np.ix_(m, m)]
    out = np.zeros(len(u))
    out[m] = scipy.linalg.expm(t * ad_m) @ np.asarray(u, dtype=float)[m]
    return out


def bracket_tensor_einsum(space, w_k: float, w_m: float) -> np.ndarray:
    """BracketKernel's (n, n*p) tensor by one three-index einsum over the frame."""
    alg = space.algebra
    m, k = space.part_indices("M"), space.part_indices("K")
    a = space.frame_m
    b = np.einsum("ia,jb,ijc->abc", a, a, alg.structure[np.ix_(m, m, np.arange(alg.dim))])
    parts = [np.sqrt(w_k) * (b[:, :, k] @ space.chol_k)] if len(k) else []
    parts.append(np.sqrt(w_m) * space.to_frame(b))
    tensor = np.concatenate(parts, axis=2)
    tensor = 0.5 * (tensor - tensor.transpose(1, 0, 2))
    return tensor.reshape(len(m), -1)


def classify_two_pass(sys, kernel) -> tuple[bool, bool]:
    """(isotropic_exists, strictly_isotropic) of kernel rows in algebra
    coordinates, as a second pass over finished events: back to the ON frame,
    an orthonormal basis Q by QR, and the singular values of (I - P_W) Q
    against RANK_TOL, W = (Ker R_u)-perp."""
    from homogeodesy.jacobi import RANK_TOL

    q, _ = np.linalg.qr(sys.space.to_frame(kernel).T)
    sv = np.linalg.svd(q - sys.complement_projector @ q, compute_uv=False)
    return bool(sv[-1] < RANK_TOL), bool(sv[0] < RANK_TOL)
