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


def optimize_pairs_one_sign(kernel, sign: float, rng, multistarts: int, max_iter: int = 400):
    """Reference multistart optimizer: one sign per call, two kernel calls per step.

    Same step rules as homogeneous.optimize_pairs, but each step evaluates the
    gradient at the current pairs and f at the trial pairs.  The library's
    optimizer must reproduce it row for row, bit for bit: its rows, one sign
    after the other, are runs of this loop.  Returns f and the ON-frame pairs.
    """
    from homogeodesy.homogeneous import _orthonormalize

    xs, ys = kernel.random_pairs(rng, multistarts)
    f = sign * kernel.value(xs, ys)
    step = np.full(multistarts, 0.1)
    for _ in range(max_iter):
        idx = np.flatnonzero(step > 1e-10)
        if not len(idx):
            break
        _, gx, gy = kernel.value_and_gradient(xs[idx], ys[idx])
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


def samples_by_insertion(sys, t_max: float, step: float):
    """jacobi._samples with each bisection level inserted into whole sample arrays.

    The same grid, products, shifts, certificate constants and tests; after a
    level the midpoints are inserted into the block's time and value arrays
    and the next level's heads are found through the inserted positions.
    """
    import itertools

    from homogeodesy.jacobi import _BLOCK, _LEAF, _expm

    n, a = sys.n, sys.companion
    ts = np.arange(step / 2.0, t_max + 1.5 * step, step)
    t_end = ts[-1]
    eta, norm_r, norm_t = max(0.0, -sys.r_evals[0]), sys.norm_r, sys.norm_t
    lip, r = math.cosh(math.sqrt(eta) * t_end), math.sqrt(norm_r + eta) + math.sqrt(eta)
    zeta, u = 1.0 + t_end * min(norm_t, r), np.finfo(float).eps / 2.0
    chain = len(ts) + max(0, math.ceil(math.log2(step / _LEAF))) + 1
    delta = 2 * n * u / (1 - 2 * n * u) * n * lip**3 * t_end
    delta *= chain * (2 + zeta + t_end * r) + zeta**2
    delta += lip**2 * u * (1 + norm_r + norm_t) * t_end * (1 + t_end) * (zeta + t_end)
    stepper = _expm(step * a)
    row = _expm(ts[0] * a)[:n]
    shifts = []
    parts = []
    for start in range(0, len(ts) - 1, _BLOCK):
        grid = np.empty((min(_BLOCK, len(ts) - 1 - start) + 1, n, 2 * n))
        grid[0] = row
        for j in range(1, len(grid)):
            np.matmul(grid[j - 1], stepper, out=grid[j])
        row = grid[-1]
        t = ts[start : start + len(grid)]
        f = np.linalg.svd(grid[:, :, n:], compute_uv=False)[:, -1]
        rows, heads = np.arange(len(grid) - 1), grid[:-1]
        for level in itertools.count():
            width = np.diff(t)
            suspicious = f[:-1] + f[1:] <= lip * width + 2.0 * delta
            split = suspicious & (width >= _LEAF)
            if not split.any():
                break
            at, heads = np.flatnonzero(split), heads[split[rows]]
            half = step / 2.0 ** (level + 1)
            if level == len(shifts):
                shifts.append(_expm(half * a))
            mid_heads = (heads.reshape(-1, 2 * n) @ shifts[level]).reshape(heads.shape)
            smin = np.linalg.svd(mid_heads[:, :, n:], compute_uv=False)[:, -1]
            t, f = np.insert(t, at + 1, t[at] + half), np.insert(f, at + 1, smin)
            rows = ((at + np.arange(len(at)))[:, None] + [0, 1]).ravel()
            heads = np.stack((heads, mid_heads), axis=1).reshape(-1, n, 2 * n)
        parts.append((t[:-1], f[:-1], suspicious))
    ts, fs, suspicious = (np.concatenate(column) for column in zip(*parts))
    return np.append(ts, t[-1]), np.append(fs, f[-1]), suspicious, lip, delta
