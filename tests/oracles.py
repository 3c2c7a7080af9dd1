"""Independent oracles and golden-table builders shared by the test modules.

Everything here is deliberately computed without the library's own code
paths: plain midpoint bisection for the transcendental roots, adaptive ODE
integration for the fundamental solution, dense sampling for bracket minima,
and the multiplication tables written out term by term.
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


def random_pairs(kernel, rng, count: int):
    """Orthonormal pairs: Gram-Schmidt on the kernel's Gaussian pairs."""
    from homogeodesy.homogeneous import _orthonormalize

    return _orthonormalize(*kernel.gaussian_pairs(rng, count))


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
    from homogeodesy.homogeneous import _orthonormalize

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
        nx, ny = _orthonormalize(xs[idx] + scale * gx, ys[idx] + scale * gy)
        nf = sign * kernel.value(nx, ny)
        better = nf > f[idx]
        good = idx[better]
        xs[good], ys[good], f[good] = nx[better], ny[better], nf[better]
        step[good] = np.minimum(step[good] * 1.3, 0.5)
        step[idx[~better]] *= 0.5
    return sign * f, xs, ys


def optimize_pairs_by_gather(kernel, signs, rng, multistarts: int, max_iter: int = 400):
    """homogeneous.optimize_pairs with its step loop over every row: each step
    gathers the live rows by a mask, and scatters the improved rows back.

    The library keeps the live rows compacted instead, and writes a row out
    once, when it stops.  Both pass the same rows, in the same order, to each
    kernel call, so they must agree bit for bit."""
    from homogeodesy.homogeneous import (
        GRAD_RTOL,
        START_SCREEN,
        STOP_RTOL,
        _orthonormalize,
        _trial_pairs,
    )

    n, pool = kernel.n, START_SCREEN * multistarts
    draws = [kernel.gaussian_pairs(rng, pool) for _ in signs]
    xs, ys = (np.concatenate(part) for part in zip(*draws))
    screen = np.asarray(signs)[:, None] * kernel.value(xs, ys).reshape(len(signs), pool)
    best = np.argsort(-screen, axis=1, kind="stable")[:, :multistarts]
    keep = (best + pool * np.arange(len(signs))[:, None]).ravel()
    z = np.hstack(_orthonormalize(xs[keep], ys[keep]))
    sign = np.repeat(np.asarray(signs, dtype=float), multistarts)
    f, g, h, frame = kernel.second_order(z[:, :n], z[:, n:])
    r, nt = n - 2, frame.transpose(0, 2, 1)
    quadrants = [h[:, a : a + r, b : b + r] for a in (0, r) for b in (0, r)]
    mu = np.abs(f) + np.max([np.abs(frame @ q @ nt).max(axis=(1, 2)) for q in quadrants], axis=0)
    flat = GRAD_RTOL * mu
    active = np.linalg.norm(g, axis=1) > flat
    steps = 0
    while steps < max_iter and active.any():
        steps += 1
        idx = np.flatnonzero(active)
        s, fi = sign[idx], f[idx]
        trial, gain = _trial_pairs(z[idx], g[idx], h[idx], frame[idx], s, mu[idx])
        nf, ng, nh, nframe = kernel.second_order(trial[:, :n], trial[:, n:])
        better = (gain > 0) & (s * nf > s * fi)
        good = idx[better]
        z[good], f[good], g[good] = trial[better], nf[better], ng[better]
        h[good], frame[good] = nh[better], nframe[better]
        mu[idx] *= np.where(better, 0.2, 8.0)
        rounding = STOP_RTOL * np.abs(fi)
        done = (gain <= rounding) & (np.abs(nf - fi) <= rounding)
        done |= better & (np.linalg.norm(ng, axis=1) <= flat[idx])
        active[idx[done]] = False
    return f, z[:, :n], z[:, n:], np.linalg.norm(g, axis=1), steps


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


def torsion_op(space, u) -> np.ndarray:
    """Matrix of x -> -[u, x]_m on the m-basis coordinates, from its own ad_u."""
    ad = space.algebra.ad(u)
    m = space.part_indices("M")
    return -ad[np.ix_(m, m)]


def jacobi_op(space, u) -> np.ndarray:
    """Matrix of x -> [[u, x]_k, u] on the m-basis coordinates, from its own ad_u."""
    ad = space.algebra.ad(u)
    k = space.part_indices("K")
    m = space.part_indices("M")
    if len(k) == 0:
        return np.zeros((len(m), len(m)))
    return -ad[np.ix_(m, k)] @ ad[np.ix_(k, m)]


def system_by_two_ad(space, u):
    """(T, R, companion, ||T||_2) of jacobi.build_system for a unit u on m, with T
    and R each from its own ad_u and the companion by np.block."""
    t_on = space.chol_m.T @ torsion_op(space, u) @ space.frame_m
    r_on = space.chol_m.T @ jacobi_op(space, u) @ space.frame_m
    r_on, t_on = 0.5 * (r_on + r_on.T), 0.5 * (t_on - t_on.T)
    companion = np.block([[np.zeros_like(r_on), np.eye(len(r_on))], [-r_on, t_on]])
    return t_on, r_on, companion, np.linalg.norm(t_on, 2)


def samples_by_insertion(sys, t_max: float, step: float, lip: float, delta: float):
    """jacobi._samples with each level's new samples inserted into whole sample arrays.

    The same grid, clearing test, jump points, midpoints and sigma_min
    evaluator, called on the same batches (the grid, then each level's new
    times in time order), for the L and delta of jacobi._samples.  A suspicious
    interval [lo, hi] whose certified zero-free ends [lo, a) and (b, hi] leave
    lo < a < b < hi with b - a at most half its width gets a and b; any other
    suspicious interval at least _LEAF wide gets its midpoint.  After a level
    the new times are inserted into the time and value arrays; an interval
    that is not split is tested again at each later level and stays unsplit.
    """
    from homogeodesy.jacobi import _LEAF, _sigma_min

    t = np.arange(step / 2.0, t_max + 1.5 * step, step)
    f = _sigma_min(sys, t)
    while True:
        lo, hi, f_lo, f_hi = t[:-1], t[1:], f[:-1], f[1:]
        width = hi - lo
        suspicious = f_lo + f_hi <= lip * width + 2.0 * delta
        a, b = lo + (f_lo - delta) / lip, hi - (f_hi - delta) / lip
        jump = suspicious & (lo < a) & (a < b) & (b < hi) & (b - a <= 0.5 * width)
        split = jump | suspicious & (width >= _LEAF)
        if not split.any():
            break
        at = np.concatenate((np.flatnonzero(split), np.flatnonzero(jump)))
        new = np.concatenate((np.where(jump, a, 0.5 * (lo + hi))[split], b[jump]))
        order = np.argsort(at, kind="stable")  # a (or the midpoint) before b
        at, new = at[order], new[order]
        t, f = np.insert(t, at + 1, new), np.insert(f, at + 1, _sigma_min(sys, new))
    return t, f, suspicious


def newton_scalar(sys, lo, hi, t):
    """One safeguarded Newton on sigma_min from t, one exponential per step.

    The bracket [lo, hi] is bisected on the sign of sigma_min' when a step
    leaves it or fails to halve the step before last; J = E_12 and J' = E_22
    come from one E = exp(tA), and sigma_i' = u_i^T J' v_i.  Returns the last
    probe (t, sv, vt, slopes) and whether it landed on a zero, stopping once
    the bracket collapses.
    """
    from homogeodesy.jacobi import _MAX_NEWTON, _NEWTON_RTOL, _expm

    n = sys.n
    dx = dx_old = hi - lo
    for _ in range(_MAX_NEWTON):
        e = _expm(t * sys.companion)
        u, sv, vt = np.linalg.svd(e[:n, n:])
        slopes = np.einsum("ij,ji->i", u.T @ e[n:, n:], vt.T)
        probe = (t, sv, vt, slopes)
        if slopes[-1] < 0:
            lo = t
        else:
            hi = t
        step = sv[-1] / slopes[-1] if slopes[-1] else math.inf
        if abs(step) <= _NEWTON_RTOL * t:
            return probe, True
        if hi - lo <= _NEWTON_RTOL * t:
            break
        if lo < t - step < hi and 2.0 * abs(step) <= abs(dx_old):
            dx_old, dx = dx, step
            t -= step
        else:
            dx_old, dx = dx, 0.5 * (hi - lo)
            t = lo + dx
    return probe, False


def classify_two_pass(sys, kernel) -> tuple[bool, bool]:
    """(isotropic_exists, strictly_isotropic) of kernel rows in algebra
    coordinates, as a second pass over finished events: back to the ON frame,
    an orthonormal basis Q by QR, and the singular values of (I - P_W) Q
    against RANK_TOL, W = (Ker R_u)-perp."""
    from homogeodesy.jacobi import RANK_TOL

    q, _ = np.linalg.qr(sys.space.to_frame(kernel).T)
    sv = np.linalg.svd(q - sys.complement_projector @ q, compute_uv=False)
    return bool(sv[-1] < RANK_TOL), bool(sv[0] < RANK_TOL)


def refine_scalar(sys, ts, fs):
    """The zeros in one run of suspicious cells (fs = sigma_min(ts)) by scalar
    Newton, bracketed by the whole run, then a Newton from each close zero that
    another singular value predicts inside the run; events are classified by
    classify_two_pass.  The first Newton starts from the lowest sample k,
    unless a cell [ts[i], ts[i + 1]] next to it (i = k - 1 or k, the one with
    the smaller |ts[i + 1] - ts[i] - fs[i] - fs[i + 1]|) predicts its zero
    from both ends, ts[i] + fs[i] and ts[i + 1] - fs[i + 1], to within
    _NEWTON_RTOL * ts[i]: then it starts from the mean of the two predictions
    if that lies in the cell.  A first Newton
    that stops on an end of the run, sigma_min' pointing out of it, without
    landing is no event: the run starts again from its other end, in the same
    bracket, and that probe counts unless it fails the same way."""
    from homogeodesy.jacobi import _NEWTON_RTOL, MULTIPLICITY_RTOL, ConjugateEvent

    def stuck_at_end(probe, landed):
        t, slope = probe[0], probe[3][-1]
        return not landed and (
            (slope > 0 and t - ts[0] <= _NEWTON_RTOL * t)
            or (slope < 0 and ts[-1] - t <= _NEWTON_RTOL * t)
        )

    k = int(np.argmin(fs))
    start, best = ts[k], math.inf
    for i in (k - 1, k):
        if i < 0 or i + 1 >= len(ts):
            continue
        gap = abs(ts[i + 1] - ts[i] - fs[i] - fs[i + 1])  # between the two predictions
        if gap < best:
            best, cell = gap, i
    mean = 0.5 * (ts[cell] + ts[cell + 1]) + 0.5 * (fs[cell] - fs[cell + 1])
    if best <= _NEWTON_RTOL * ts[cell] and ts[cell] <= mean <= ts[cell + 1]:
        start = mean
    probe, landed = newton_scalar(sys, ts[0], ts[-1], start)
    if stuck_at_end(probe, landed):
        other = ts[-1] if probe[3][-1] > 0 else ts[0]
        probe, landed = newton_scalar(sys, ts[0], ts[-1], other)
    found = [] if stuck_at_end(probe, landed) else [probe]
    events = []
    while found and len(events) < sys.n:
        t, sv, vt, slopes = found.pop()
        mult = int(np.sum(sv < MULTIPLICITY_RTOL * sv[0]))
        if mult == 0:
            continue
        kernel = sys.space.from_frame(vt[sys.n - mult :])
        events.append(ConjugateEvent(float(t), mult, kernel, *classify_two_pass(sys, kernel)))
        for value, slope in zip(sv[: sys.n - mult], slopes):
            if not slope:
                continue
            guess = t - value / slope
            radius = 0.25 * abs(guess - t)
            known = [ev.t for ev in events] + [other[0] for other in found]
            if ts[0] < guess < ts[-1] and all(abs(guess - tk) > radius for tk in known):
                probe, landed = newton_scalar(sys, guess - radius, guess + radius, guess)
                if landed:
                    found.append(probe)
    return sorted(events, key=lambda ev: ev.t)


def scan_by_scalar_newton(sys, t_max: float):
    """jacobi.scan_conjugate_times with each run of suspicious cells refined on
    its own by scalar Newton (refine_scalar), on the same samples."""
    from homogeodesy.jacobi import _samples, default_scan_step

    ts, fs, suspicious, _ = _samples(sys, t_max, default_scan_step(sys))
    events = []
    edges = np.flatnonzero(np.diff(np.concatenate(([0], suspicious.astype(int), [0]))))
    for first, last in zip(edges[::2], edges[1::2]):
        run = refine_scalar(sys, ts[first : last + 1], fs[first : last + 1])
        events += [ev for ev in run if ev.t <= t_max + 1e-12]
    return events
