import dataclasses
import itertools
import math

import numpy as np
import pytest

import homogeodesy.homogeneous as homogeneous
from homogeodesy.algebra import bracket
from homogeodesy.catalog import build_space
from homogeodesy.homogeneous import (
    START_SCREEN,
    STOP_RTOL,
    BracketKernel,
    DegeneratePlane,
    MissingSplit,
    NoWitness,
    ReductiveSpace,
    _orthonormalize,
    connection_ops,
    gaussian_pairs,
    isotropy_transitivity_check,
    lts_check,
    optimize_pairs,
    project,
    rank_one_check,
    sectional_curvature,
)
from homogeodesy.matrices import alpha_coeff
from homogeodesy.pinching import estimate_pinching

from oracles import (
    ad_orbit_direction,
    ambient_second_order,
    bracket_tensor_einsum,
    naturally_reductive_curvature,
    optimize_pairs_by_gather,
    optimize_pairs_one_sign,
    random_pairs,
    sampled_bracket_minimum,
)

CATALOG = (
    "round:n=3,kappa=1",
    "berger:m=1,s=1,kappa=1",
    "berger:m=2,s=0.5,kappa=1",
    "spsphere:m=1,s=0.5,kappa=1",
    "spsphere:m=2,s=1,kappa=1",
    "cpodd:m=1,kappa=1",
    "b13",
    "w7:s=0.5",
)


def test_random_unit_m_shapes(rng):
    space = build_space("b13")
    dim = space.algebra.dim
    assert space.random_unit_m(rng).shape == (dim,)
    assert space.random_unit_m(rng, 0).shape == (0, dim)
    batch = space.random_unit_m(rng, 3)
    assert batch.shape == (3, dim)
    np.testing.assert_allclose([space.algebra.norm(x) for x in batch], 1.0, atol=1e-12)


@pytest.mark.parametrize("desc", CATALOG)
def test_frame_round_trip_and_orthonormality(desc, rng):
    space = build_space(desc)
    m, k = space.part_indices("M"), space.part_indices("K")
    xs = np.zeros((16, space.algebra.dim))
    xs[:, m] = rng.standard_normal((16, len(m)))
    np.testing.assert_allclose(space.from_frame(space.to_frame(xs)), xs, rtol=0, atol=1e-14)
    frame = space.from_frame(np.eye(space.dim_m))
    np.testing.assert_allclose(frame @ space.algebra.gram @ frame.T, np.eye(len(m)), atol=1e-14)
    with_k = xs.copy()
    with_k[:, k] = rng.standard_normal((16, len(k)))
    assert np.array_equal(space.to_frame(with_k), space.to_frame(xs))


def test_projection_direct_sum():
    space = build_space("b13")
    rng = np.random.default_rng(0)
    x = rng.standard_normal(space.algebra.dim)
    total = project(space, x, "K") + project(space, x, "M")
    np.testing.assert_allclose(total, x, atol=1e-14)
    total_m = project(space, x, "M0") + project(space, x, "M1")
    np.testing.assert_allclose(total_m, project(space, x, "M"), atol=1e-14)


def test_missing_split_error():
    space = build_space("round:n=3,kappa=1")
    with pytest.raises(MissingSplit):
        project(space, np.zeros(space.algebra.dim), "M0")


@pytest.mark.parametrize("desc", ["b13", "round:n=3,kappa=1"])
def test_part_indices_are_cached_read_only_arrays(desc):
    # every caller shares one array per part, so writing to it must raise
    space = build_space(desc)
    parts = {"K": space.k_indices, "M": space.m_indices, "M0": space.m0_indices, "M1": space.m1_indices}
    for part, idx in parts.items():
        if idx is None:
            with pytest.raises(MissingSplit):
                space.part_indices(part)
            continue
        got = space.part_indices(part)
        assert got is space.part_indices(part.lower())
        assert got.dtype == int and np.array_equal(got, idx)
        with pytest.raises(ValueError, match="read-only"):
            got[0] = got[-1]
    with pytest.raises(ValueError, match="unknown part 'N'"):
        space.part_indices("n")


def test_berger_e_f_bracket_k_part():
    # last line of the Berger table: the k-part of [e_r, f_r] is along h_s, S_j
    m, s = 2, 0.5
    space = build_space(f"berger:m={m},s={s}")
    alg = space.algebra
    b = bracket(alg.basis_element("e_1"), alg.basis_element("f_1")).coeffs
    bk = project(space, b, "K")
    coef = (m + 1) / alpha_coeff(m)
    assert abs(bk[alg.index("h_s")] - coef * math.sqrt(1 - s)) < 1e-12
    assert abs(bk[alg.index("S_1")] - 1.0) < 1e-12


def test_b13_e4_e1_projections():
    space = build_space("b13")
    alg = space.algebra
    b = bracket(alg.basis_element("e_4"), alg.basis_element("e_1")).coeffs
    bm = project(space, b, "M")
    np.testing.assert_allclose(bm, space.basis_vector("u_2"), atol=1e-12)
    bk = project(space, b, "K")
    np.testing.assert_allclose(bk, space.basis_vector("H_8"), atol=1e-12)


@pytest.mark.parametrize("desc", CATALOG)
def test_torsion_skew_jacobi_psd(desc, rng):
    space = build_space(desc)
    g = space.gram_m
    m = space.part_indices("M")
    for _ in range(20):
        u = space.random_unit_m(rng)
        t, r = connection_ops(space, u)
        assert np.max(np.abs(t.T @ g + g @ t)) < 1e-10
        rg = g @ r
        assert np.max(np.abs(rg - rg.T)) < 1e-10
        evals = np.linalg.eigvalsh(space.chol_m.T @ r @ np.linalg.inv(space.chol_m.T))
        assert evals.min() > -1e-10


def test_torsion_matrix_berger_vertical():
    space = build_space("berger:m=2,s=0.5")
    t = connection_ops(space, space.basis_vector("d_s"))[0]
    alg = space.algebra
    m = list(space.m_indices)
    coef = math.sqrt(0.5) * 3 / alpha_coeff(2)
    e1, f1 = m.index(alg.index("e_1")), m.index(alg.index("f_1"))
    assert abs(t[f1, e1] + coef) < 1e-12  # e_r -> -sqrt(s)(m+1)/alpha_m f_r
    assert abs(t[e1, f1] - coef) < 1e-12


def test_symmetric_pair_torsion_vanishes():
    space = build_space("round:n=4,kappa=1")
    rng = np.random.default_rng(1)
    u = space.random_unit_m(rng)
    assert np.max(np.abs(connection_ops(space, u)[0])) < 1e-12


def test_jacobi_op_kills_direction():
    space = build_space("b13")
    rng = np.random.default_rng(2)
    u = space.random_unit_m(rng)
    m = space.part_indices("M")
    out = connection_ops(space, u)[1] @ u[m]
    assert np.max(np.abs(out)) < 1e-10


def test_sectional_curvature_modes_agree(rng):
    for desc in CATALOG:
        space = build_space(desc)
        for _ in range(10):
            x, y = space.random_unit_m(rng), space.random_unit_m(rng)
            kn = sectional_curvature(space, x, y)
            kr = naturally_reductive_curvature(space, x, y)
            assert abs(kn - kr) < 1e-10 * max(1.0, abs(kn))


def test_sectional_curvature_ignores_k_parts():
    # a vector of g stands for the tangent vector of its m-part
    space = build_space("berger:m=2,s=0.5")
    x, y = space.basis_vector("e_1"), space.basis_vector("f_1")
    z = space.basis_vector(space.algebra.labels[space.k_indices[0]])
    for curvature in (sectional_curvature, naturally_reductive_curvature):
        k = curvature(space, x, y)
        assert curvature(space, x + 0.3 * z, y - 0.7 * z) == k


def test_commuting_plane_is_flat(abelian_space):
    x = abelian_space.basis_vector("t_1")
    y = abelian_space.basis_vector("t_2")
    assert sectional_curvature(abelian_space, x, y) == 0.0


def test_degenerate_plane_raises():
    space = build_space("b13")
    x = space.basis_vector("e_1")
    with pytest.raises(DegeneratePlane):
        sectional_curvature(space, x, 2.0 * x)


def test_bracket_kernel_matches_scalar(rng):
    # the kernel against the independent naturally reductive formula
    for desc in CATALOG:
        space = build_space(desc)
        kernel = BracketKernel(space, 1.0, 0.25)
        xs = space.random_unit_m(rng, 16)
        ys = space.random_unit_m(rng, 16)
        batch = kernel.value(space.to_frame(xs), space.to_frame(ys))
        for i in range(16):
            ref = naturally_reductive_curvature(space, xs[i], ys[i])
            assert abs(batch[i] - ref) < 1e-10 * max(1.0, abs(ref))


@pytest.mark.parametrize("weights", [(1.0, 0.25), (1.0, 1.0)])
@pytest.mark.parametrize(
    "desc",
    ["round:n=4,kappa=0.5", "berger:m=2,s=0.5", "spsphere:m=1,s=0.5", "cpodd:m=1", "b13",
     "w7:s=0.7"],
)
def test_bracket_kernel_gradient_matches_central_differences(desc, weights):
    kernel = BracketKernel(build_space(desc), *weights)
    gen = np.random.default_rng(5)
    xs = gen.standard_normal((8, kernel.n))  # neither unit nor orthogonal
    ys = gen.standard_normal((8, kernel.n))
    f, g, _ = ambient_second_order(kernel, xs, ys)  # exact at any pair, not only ON ones
    gx, gy = g[:, : kernel.n], g[:, kernel.n :]
    # f is homogeneous of degree 0 in x and in y, so f/|x| sets the gradient's scale
    scale = np.hypot(np.linalg.norm(gx, axis=1), np.linalg.norm(gy, axis=1)) + np.abs(f) * (
        1 / np.linalg.norm(xs, axis=1) + 1 / np.linalg.norm(ys, axis=1)
    )
    h = 1e-5
    for i in range(kernel.n):
        e = np.zeros(kernel.n)
        e[i] = h
        fd_x = (kernel.value(xs + e, ys) - kernel.value(xs - e, ys)) / (2 * h)
        fd_y = (kernel.value(xs, ys + e) - kernel.value(xs, ys - e)) / (2 * h)
        assert np.all(np.abs(fd_x - gx[:, i]) <= 1e-6 * scale)
        assert np.all(np.abs(fd_y - gy[:, i]) <= 1e-6 * scale)


@pytest.mark.parametrize("weights", [(1.0, 0.25), (1.0, 1.0)])
@pytest.mark.parametrize("desc", CATALOG)
def test_bracket_tensor_matches_three_index_einsum(desc, weights):
    space = build_space(desc)
    got = BracketKernel(space, *weights)._tensor
    want = bracket_tensor_einsum(space, *weights)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("desc", CATALOG)
def test_value_is_gl2_invariant_on_raw_gaussian_pairs(desc):
    # order 0 reads the plane through x ^ y, so raw draws (more than one
    # block of them) and their Gram-Schmidt pairs give the same f
    kernel = BracketKernel(build_space(desc), 1.0, 0.25)
    xs, ys = gaussian_pairs(np.random.default_rng(17), 1100, kernel.n)
    raw = kernel.value(xs, ys)
    orthonormal = kernel.value(*random_pairs(kernel, np.random.default_rng(17), 1100))
    assert np.all(np.abs(raw - orthonormal) <= 1e-13 * np.abs(orthonormal))
    # and a rescaled, sheared basis of the same planes
    assert np.all(np.abs(kernel.value(3.0 * xs - ys, 0.5 * ys) - raw) <= 1e-13 * np.abs(raw))


def test_bracket_kernel_blocks_agree_with_rows(rng):
    # more rows than one block of either order: every row must match its own
    # one-row evaluation
    space = build_space("berger:m=1,s=0.5")
    kernel = BracketKernel(space, 1.0, 0.25)
    # rows per order-2 block: HESSIAN_BLOCK frame-Hessian entries, (2(n - 2))^2 a row
    block = max(1, homogeneous.HESSIAN_BLOCK // (2 * (kernel.n - 2)) ** 2)
    count = max(block, homogeneous.KERNEL_BLOCK) + 100
    xs, ys = random_pairs(kernel, rng, count)
    values, (f, g, h, frame) = kernel.value(xs, ys), kernel.second_order(xs, ys)
    for i in (0, homogeneous.KERNEL_BLOCK - 1, homogeneous.KERNEL_BLOCK, count - 1):
        value = kernel.value(xs[i : i + 1], ys[i : i + 1])[0]
        np.testing.assert_allclose(value, values[i], rtol=1e-12)
    for i in (0, block - 1, block, count - 1):
        f1, g1, h1, frame1 = kernel.second_order(xs[i : i + 1], ys[i : i + 1])
        np.testing.assert_allclose(f1[0], f[i], rtol=1e-12)
        np.testing.assert_allclose(g1[0], g[i], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(h1[0], h[i], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(frame1[0], frame[i], rtol=1e-12, atol=1e-12)


def test_lts_cp_fiber():
    space = build_space("cpodd:m=1")
    rep = lts_check(space, [space.basis_vector("X_2"), space.basis_vector("X_3")])
    assert rep.is_lts and rep.closes_subalgebra


def test_lts_w7_fiber():
    space = build_space("w7:s=0.25")
    vecs = [space.basis_vector(l) for l in ("u_0s", "u_1s", "v_1s")]
    rep = lts_check(space, vecs)
    assert rep.is_lts and rep.closes_subalgebra


def test_lts_one_dimensional_trivial():
    space = build_space("b13")
    rep = lts_check(space, [space.basis_vector("e_3")])
    assert rep.is_lts


def test_lts_rejects_non_triple_system():
    space = build_space("b13")
    rep = lts_check(space, [space.basis_vector("e_1"), space.basis_vector("u_1")])
    assert not rep.is_lts


def test_rank_one_positive_on_catalog():
    for desc in ("berger:m=2,s=0.5,kappa=1", "b13", "w7:s=0.5"):
        rep = rank_one_check(build_space(desc))
        assert rep.passed and rep.min_bracket_sq > 1e-6
    # the minimum 0.8 on CP^{2m+1} is reached, not stalled above it
    for desc in ("cpodd:m=1", "cpodd:m=2"):
        rep = rank_one_check(build_space(desc))
        assert rep.passed and rep.min_bracket_sq <= 0.8 + 1e-9


def test_rank_one_matches_sampling_oracle():
    space = build_space("berger:m=2,s=0.5,kappa=1")
    rep = rank_one_check(space)
    oracle = sampled_bracket_minimum(space, samples=100_000)
    # the optimizer should do at least as well as dense sampling
    assert rep.min_bracket_sq <= oracle + 1e-9
    assert oracle > 1e-6


FAMILIES = ("berger:m=2,s=0.5", "spsphere:m=1,s=0.5", "cpodd:m=1", "w7:s=0.5", "b13")
ROUNDING = 1e-14  # relative slack for "no worse": f itself is rounded to a few ulp


def _best(vals, sign):
    return vals.max() if sign > 0 else vals.min()


@pytest.mark.parametrize("desc", FAMILIES)
def test_optimize_pairs_matches_one_sign_reference(desc):
    # both signs in one loop against the first-order reference loop run once
    # per sign from the same generator: per sign, the same best f within
    # 1e-12 and no worse than it beyond rounding
    kernel = BracketKernel(build_space(desc), 1.0, 0.25)
    vals = optimize_pairs(kernel, (+1.0, -1.0), np.random.default_rng(11), 8)[0]
    rng = np.random.default_rng(11)
    for part, sign in enumerate((+1.0, -1.0)):
        want = _best(optimize_pairs_one_sign(kernel, sign, rng, 8)[0], sign)
        best = _best(vals[8 * part : 8 * part + 8], sign)
        np.testing.assert_allclose(best, want, rtol=1e-12, atol=0)
        assert sign * (best - want) >= -ROUNDING * abs(want)


@pytest.mark.parametrize("desc", ["b13", "cpodd:m=1", "spsphere:m=1,s=0.5", "round:n=3"])
def test_starts_are_the_best_of_the_screened_pool(desc):
    # per sign, sign +1 first, optimize_pairs draws START_SCREEN * multistarts
    # Gaussian pairs from rng and starts from the multistarts of them with the
    # largest s f, best first, Gram-Schmidt'ed; at max_iter = 0 it returns them
    space = build_space(desc)
    kernel = BracketKernel(space, 1.0, 0.25)
    multistarts, signs = 8, (+1.0, -1.0)
    _, xs, ys, _, _ = optimize_pairs(kernel, signs, np.random.default_rng(5), multistarts, 0)
    rng = np.random.default_rng(5)
    for part, sign in enumerate(signs):
        pool = gaussian_pairs(rng, START_SCREEN * multistarts, kernel.n)
        gx, gy = _orthonormalize(*pool)
        rows = slice(part * multistarts, (part + 1) * multistarts)
        dist = [np.abs(gx - x).max(axis=1) + np.abs(gy - y).max(axis=1) for x, y in zip(xs, ys)]
        kept = [int(np.argmin(d)) for d in dist[rows]]
        assert len(set(kept)) == multistarts
        np.testing.assert_allclose(gx[kept], xs[rows], rtol=0, atol=1e-14)
        np.testing.assert_allclose(gy[kept], ys[rows], rtol=0, atol=1e-14)
        planes = space.from_frame(np.stack(pool, axis=1))
        sf = sign * np.array([naturally_reductive_curvature(space, x, y) for x, y in planes])
        tol = 1e-12 * np.abs(sf).max()
        assert sf[kept].min() >= np.delete(sf, kept).max() - tol
        assert np.all(np.diff(sf[kept]) <= tol)


def test_screen_ties_keep_the_first_draws(abelian_space):
    # f is exactly 0 on the torus, so every s f ties and each sign starts from
    # the first multistarts draws of its pool (f on the round sphere is 1 only
    # to rounding, and there the screen ranks its last bits)
    kernel = BracketKernel(abelian_space, 1.0, 1.0)
    _, xs, ys, _, _ = optimize_pairs(kernel, (+1.0, -1.0), np.random.default_rng(2), 8, 0)
    rng = np.random.default_rng(2)
    for part in range(2):
        x, y = (d[:8] for d in gaussian_pairs(rng, START_SCREEN * 8, kernel.n))
        want = np.hstack(_orthonormalize(x, y))
        np.testing.assert_array_equal(np.hstack([xs, ys])[8 * part : 8 * part + 8], want)


def _bracket_sq(space, x, y) -> float:
    b = np.einsum("i,j,ijk->k", x, y, space.algebra.structure)
    return float(b @ space.algebra.gram @ b)


@pytest.mark.parametrize("desc", ["cpodd:m=1", "b13"])
def test_rank_one_check_matches_one_sign_reference(desc):
    space = build_space(desc)
    rep = rank_one_check(space, seed=3)
    kernel = BracketKernel(space, 1.0, 1.0)
    want = optimize_pairs_one_sign(kernel, -1.0, np.random.default_rng(3), 64)[0].min()
    np.testing.assert_allclose(rep.min_bracket_sq, want, rtol=1e-12, atol=0)
    assert rep.min_bracket_sq <= want * (1 + ROUNDING)
    # the reported plane is g-orthonormal and evaluates to the reported minimum
    x, y = rep.argmin.x, rep.argmin.y
    gram = space.algebra.gram
    np.testing.assert_allclose([x @ gram @ x, y @ gram @ y, x @ gram @ y], [1, 1, 0], atol=1e-14)
    np.testing.assert_allclose(_bracket_sq(space, x, y), rep.min_bracket_sq, rtol=1e-12)


def _horizontal(x, y, v):
    """Each n-block of the rows of v projected onto span(x, y)^perp."""
    n = x.shape[1]
    out = v.copy()
    for blk in (slice(0, n), slice(n, 2 * n)):
        w = out[:, blk]
        w -= np.einsum("na,na->n", w, x)[:, None] * x + np.einsum("na,na->n", w, y)[:, None] * y
    return out


@pytest.mark.parametrize("weights", [(1.0, 0.25), (1.0, 1.0)])
@pytest.mark.parametrize("desc", FAMILIES)
def test_projected_hessian_matches_central_differences(desc, weights):
    kernel = BracketKernel(build_space(desc), *weights)
    n = kernel.n
    gen = np.random.default_rng(9)
    xs, ys = random_pairs(kernel, gen, 8)
    f, g, h = ambient_second_order(kernel, xs, ys)
    # f is GL(2)-invariant: its gradient is already horizontal, and P H P symmetric
    np.testing.assert_allclose(_horizontal(xs, ys, g), g, rtol=0, atol=1e-13 * np.abs(g).max())
    np.testing.assert_allclose(h, h.transpose(0, 2, 1), rtol=0, atol=1e-13 * np.abs(h).max())
    # along horizontal z, P H z is the projected derivative of the exact gradient
    z = _horizontal(xs, ys, gen.standard_normal((8, 2 * n)))
    t = 1e-5
    _, gp, _ = ambient_second_order(kernel, xs + t * z[:, :n], ys + t * z[:, n:])
    _, gm, _ = ambient_second_order(kernel, xs - t * z[:, :n], ys - t * z[:, n:])
    fd = _horizontal(xs, ys, (gp - gm) / (2 * t))
    hz = np.einsum("nab,nb->na", h, z)
    scale = (np.abs(h).max(axis=(1, 2)) * np.linalg.norm(z, axis=1))[:, None]
    assert np.all(np.abs(fd - hz) <= 1e-7 * scale)
    # vertical directions are in the kernel of P H P
    vertical = np.hstack([xs, np.zeros_like(xs)])
    assert np.all(np.abs(np.einsum("nab,nb->na", h, vertical)) <= 1e-13 * scale)


def _lift(frame, v):
    """N2 v for the rows of v, N2 = diag(N, N): frame coordinates to ambient ones."""
    r = frame.shape[2]
    return np.concatenate([frame @ v[:, :r], frame @ v[:, r:]], axis=1)


@pytest.mark.parametrize("weights", [(1.0, 0.25), (1.0, 1.0)])
@pytest.mark.parametrize("desc", FAMILIES)
def test_frame_quantities_lift_to_the_ambient_reference(desc, weights):
    # N is an orthonormal basis of span(x, y)^perp, and the frame gradient and
    # Hessian are the ambient ones read in it: N2 g_N = g, N2 H_N N2^T = P H P
    kernel = BracketKernel(build_space(desc), *weights)
    xs, ys = random_pairs(kernel, np.random.default_rng(13), 8)
    f, g, h, frame = kernel.second_order(xs, ys)
    want_f, want_g, want_h = ambient_second_order(kernel, xs, ys)
    r = kernel.n - 2
    assert frame.shape == (8, kernel.n, r)
    assert g.shape == (8, 2 * r) and h.shape == (8, 2 * r, 2 * r)
    gram = frame.transpose(0, 2, 1) @ frame
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(r), gram.shape), rtol=0, atol=1e-14)
    np.testing.assert_allclose(np.einsum("nab,na->nb", frame, xs), 0.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(np.einsum("nab,na->nb", frame, ys), 0.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(f, want_f, rtol=1e-13, atol=0)
    lifted_g = _lift(frame, g[:, :, None])[:, :, 0]
    np.testing.assert_allclose(lifted_g, want_g, rtol=0, atol=1e-12 * np.abs(want_g).max())
    lifted_h = _lift(frame, _lift(frame, h).transpose(0, 2, 1)).transpose(0, 2, 1)
    np.testing.assert_allclose(lifted_h, want_h, rtol=0, atol=1e-12 * np.abs(want_h).max())


@pytest.mark.parametrize("desc", FAMILIES)
def test_reported_extremes_are_second_order_critical(desc):
    # the stop rule bounds f's predicted gain |g|^2 / (mu + |H|) by rounding
    # in f, so the gradient is at sqrt(STOP_RTOL).  g and H are read in the
    # tangent frame, where |g| and |H|_2 are those of the ambient g and P H P.
    # Along isotropy orbits f is constant, and there
    # Hess f(v, v) = -<grad f, dv/dt>: near a critical orbit the Hessian's
    # wrong-sign part is rounding plus O(|grad f|).
    space = build_space(desc)
    kernel = BracketKernel(space, 1.0, 0.25)
    rep = estimate_pinching(space, multistarts=32, seed=0)
    for plane, sign, grad_norm in (
        (rep.argmax_plane, 1.0, rep.grad_norm_argmax),
        (rep.argmin_plane, -1.0, rep.grad_norm_argmin),
    ):
        x, y = space.to_frame(plane.x[None]), space.to_frame(plane.y[None])
        f, g, h, _ = kernel.second_order(x, y)
        hnorm = np.linalg.norm(h[0], 2)
        assert np.linalg.norm(g) == pytest.approx(grad_norm, rel=1e-6, abs=1e-15)
        assert grad_norm <= math.sqrt(STOP_RTOL) * (abs(f[0]) + hnorm)
        wrong = (sign * np.linalg.eigvalsh(h[0])).max()
        assert wrong <= 1e-12 * hnorm + 4 * grad_norm


def _recorded_trials(monkeypatch, desc):
    """The inputs and outputs of every _trial_pairs call of one pinching run."""
    calls = []
    trial_pairs = homogeneous._trial_pairs

    def recorded(*args):
        # copies: the optimizer may update its live arrays in place after the call
        out = trial_pairs(*args)
        calls.append(tuple(tuple(np.copy(a) for a in part) for part in (args, out)))
        return out

    monkeypatch.setattr(homogeneous, "_trial_pairs", recorded)
    estimate_pinching(build_space(desc), multistarts=32, seed=0)
    return calls


@pytest.mark.parametrize("desc", ["b13", "spsphere:m=1,s=0.5", "cpodd:m=1"])
def test_indefinite_rows_step_along_the_top_eigenvector(monkeypatch, desc):
    # where the damped step predicts no gain, mu I - s H is indefinite: the
    # trial is the unit pair retracted from z + a N2 v, v the top eigenvector
    # of the frame Hessian s H, signed so that s g.v >= 0, a = min(lam / mu, 1)
    escapes = 0
    for (z, g, h, frame, s, mu), (trial, gain) in _recorded_trials(monkeypatch, desc):
        n = z.shape[1] // 2
        lhs = mu[:, None, None] * np.eye(g.shape[1]) - s[:, None, None] * h
        bent = np.einsum("na,na->n", g, np.linalg.solve(lhs, g[:, :, None])[:, :, 0]) <= 0
        lam, vec = np.linalg.eigh(s[bent, None, None] * h[bent])
        lam, v = lam[:, -1], vec[:, :, -1]
        assert np.all(lam > mu[bent])
        slope = s[bent] * np.einsum("na,na->n", g[bent], v)
        v *= np.sign(slope)[:, None]
        alpha = np.minimum(lam / mu[bent], 1.0)[:, None]
        step = z[bent] + alpha * _lift(frame[bent], v[:, :, None])[:, :, 0]
        want = np.hstack(_orthonormalize(step[:, :n], step[:, n:]))
        np.testing.assert_allclose(trial[bent], want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            gain[bent], 0.5 * lam * alpha[:, 0] ** 2 + np.abs(slope) * alpha[:, 0], rtol=1e-12
        )
        escapes += int(bent.sum())
    assert escapes > 0


@pytest.mark.parametrize("desc", FAMILIES)
def test_no_row_is_rejected_for_its_predicted_gain(monkeypatch, desc):
    # a step is kept iff its predicted gain is positive and f improves: every
    # gain is positive, so only the trial's value can reject a step
    calls = _recorded_trials(monkeypatch, desc)
    assert calls
    assert all(np.all(gain > 0) for _, (_, gain) in calls)


# the CI verify spaces (on round:n=3 f is constant, so no row is live at the
# start), one with 2 x 2 frame Hessians (r = 1) and one with none (r = 0)
LOOP_SPACES = [
    "berger:m=2,s=0.5",
    "spsphere:m=2,s=0.5",
    "cpodd:m=2",
    "b13",
    "w7:s=0.5",
    "round:n=3",
    "berger:m=1,s=0.5",
    "round:n=2",
]


@pytest.mark.parametrize("desc", LOOP_SPACES)
def test_compacted_loop_matches_the_gather_loop(desc):
    # the live rows kept compacted, and each written out once when it stops,
    # give the same bits as gathering the live rows by a mask on every step
    kernel = BracketKernel(build_space(desc), 1.0, 0.25)
    cases = itertools.product([(1.0, -1.0), (-1.0,)], [3, 8, 32], [0, 1, 5, 400], [0, 2])
    for signs, multistarts, max_iter, seed in cases:
        got = optimize_pairs(kernel, signs, np.random.default_rng(seed), multistarts, max_iter)
        want = optimize_pairs_by_gather(
            kernel, signs, np.random.default_rng(seed), multistarts, max_iter
        )
        case = (signs, multistarts, max_iter, seed)
        assert got[4] == want[4], case
        for a, b in zip(got[:4], want[:4]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), case


@pytest.mark.parametrize("desc", LOOP_SPACES)
def test_rank_one_check_matches_the_gather_loop(monkeypatch, desc):
    space = build_space(desc)
    for seed in (0, 2):
        got = rank_one_check(space, seed)
        with monkeypatch.context() as patched:
            patched.setattr(homogeneous, "optimize_pairs", optimize_pairs_by_gather)
            want = rank_one_check(space, seed)
        assert got.to_dict() == want.to_dict()
        assert got.argmin.x.tobytes() == want.argmin.x.tobytes()
        assert got.argmin.y.tobytes() == want.argmin.y.tobytes()


def test_flat_functions_stop_at_once(abelian_space):
    # f = 1 on the round sphere and f = 0 on the torus: every start has a zero
    # gradient to rounding, so no row takes a step
    cases = ((build_space("round:n=3"), (1.0, 0.25), 1.0), (abelian_space, (1.0, 1.0), 0.0))
    for space, weights, value in cases:
        kernel = BracketKernel(space, *weights)
        *rows, steps = optimize_pairs(kernel, (+1.0, -1.0), np.random.default_rng(0), 16)
        assert steps == 0
        assert all(np.all(np.isfinite(part)) for part in rows)
        np.testing.assert_allclose(rows[0], value, atol=1e-14)


def test_rank_one_fails_on_abelian(abelian_space):
    rep = rank_one_check(abelian_space)
    assert not rep.passed
    assert rep.min_bracket_sq < 1e-12


TRANSITIVITY_TABLE = [
    ("berger:m=2,s=0.5", "M1", True),
    ("berger:m=2,s=1", "M1", True),
    ("berger:m=1,s=0.5", "M1", True),
    ("berger:m=1,s=1", "M1", False),  # Euclidean S^3: trivial isotropy
    ("berger:m=2,s=0.5", "M0", True),
    ("spsphere:m=1,s=0.5", "M0", True),
    ("spsphere:m=1,s=1", "M0", False),  # s = 1: [d_p, m0]_k = 0
    ("spsphere:m=2,s=0.5", "M1", True),
    ("cpodd:m=1", "M0", True),
    ("cpodd:m=2", "M1", True),
    ("b13", "M0", True),
    ("b13", "M1", True),
    ("w7:s=0.5", "M0", True),
    ("w7:s=0.5", "M1", True),
    ("berger:m=2,s=0.5", "M", False),  # slope angle obstructs full transitivity
    ("round:n=3", "M", True),
]


@pytest.mark.parametrize("desc,part,want", TRANSITIVITY_TABLE)
def test_isotropy_transitivity(desc, part, want):
    rep = isotropy_transitivity_check(build_space(desc), part)
    assert rep.transitive is want
    if rep.transitive:
        assert rep.kernel_dim == 1


def test_one_dimensional_part_trivially_transitive():
    rep = isotropy_transitivity_check(build_space("berger:m=2,s=0.5"), "M0")
    assert rep.transitive and rep.kernel_dim == 1


def test_empty_isotropy_validates_and_is_not_transitive(abelian_space):
    # with k empty every index block of validate is empty, with or without an
    # m0/m1 split, and v -> [u, v]_k is the zero map on the 2-dimensional m,
    # so its kernel is all of m
    split = dataclasses.replace(abelian_space, m0_indices=(0,), m1_indices=(1,))
    for space in (abelian_space, split):
        val = space.validate()
        assert (val.k_subalgebra, val.reductivity, val.split_invariance) == (0.0, 0.0, 0.0)
        assert val.gram_block_diagonal == 0.0
    witnessed = dataclasses.replace(abelian_space, witnesses={"M": "t_1"})
    rep = isotropy_transitivity_check(witnessed, "M")
    assert (rep.kernel_dim, rep.transitive) == (2, False)


def test_no_witness_error():
    base = build_space("spsphere:m=1,s=1")
    stripped = ReductiveSpace(
        algebra=base.algebra,
        k_indices=base.k_indices,
        m_indices=base.m_indices,
        m0_indices=base.m0_indices,
        m1_indices=base.m1_indices,
        name="stripped",
        params=dict(base.params),
        witnesses={},
    )
    with pytest.raises(NoWitness):
        isotropy_transitivity_check(stripped, "M0")


def _lts_of_m0(space):
    return lts_check(space, [space.basis_vector(space.algebra.labels[i]) for i in space.m0_indices])


@pytest.mark.parametrize(
    "make,dropped,added",
    [
        (ReductiveSpace.validate, set(), {"check", "pass"}),
        (_lts_of_m0, set(), {"check", "pass"}),
        (rank_one_check, {"argmin", "passed"}, {"check", "pass"}),
        (lambda space: isotropy_transitivity_check(space, "M0"), set(), {"check"}),
        (
            lambda space: estimate_pinching(space, multistarts=8),
            {"argmin_plane", "argmax_plane"},
            {"check"},
        ),
    ],
    ids=["SpaceValidation", "LtsReport", "RankOneReport", "TransitivityReport", "PinchingReport"],
)
def test_result_documents_carry_every_field_once(make, dropped, added):
    # a document holds its report's fields, less the ones it leaves out, plus "check"
    # and "pass"; SpaceValidation and LtsReport nest their residuals, each key once
    report = make(build_space("berger:m=2,s=0.5"))
    doc = report.to_dict()
    residuals = doc.get("residuals", {})
    flat = {k: v for k, v in doc.items() if k != "residuals"} | residuals
    assert len(flat) == len(doc) - ("residuals" in doc) + len(residuals)
    names = {f.name for f in dataclasses.fields(report)}
    assert set(flat) == names - dropped | added
    for name in names - dropped:
        assert flat[name] == getattr(report, name)
    if "passed" in dropped:  # renamed "pass"
        assert flat["pass"] == report.passed


def test_ad_orbit_identity_and_isometry(rng):
    space = build_space("spsphere:m=1,s=0.5")
    z = np.zeros(space.algebra.dim)
    z[list(space.k_indices)] = rng.standard_normal(len(space.k_indices))
    u = space.random_unit_m(rng)
    np.testing.assert_allclose(ad_orbit_direction(space, z, u, 0.0), u, atol=1e-14)
    for t in (0.3, 1.7, 4.0):
        rotated = ad_orbit_direction(space, z, u, t)
        assert abs(space.algebra.norm(rotated) - 1.0) < 1e-12
