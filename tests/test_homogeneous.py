import math

import numpy as np
import pytest

from homogeodesy.algebra import bracket
from homogeodesy.catalog import build_space
from homogeodesy.homogeneous import (
    STOP_RTOL,
    BracketKernel,
    DegeneratePlane,
    MissingSplit,
    NoWitness,
    ReductiveSpace,
    isotropy_transitivity_check,
    jacobi_op,
    lts_check,
    optimize_pairs,
    project,
    rank_one_check,
    sectional_curvature,
    torsion_op,
)
from homogeodesy.matrices import alpha_coeff
from homogeodesy.pinching import estimate_pinching

from oracles import (
    ad_orbit_direction,
    bracket_tensor_einsum,
    optimize_pairs_one_sign,
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
        t = torsion_op(space, u)
        r = jacobi_op(space, u)
        assert np.max(np.abs(t.T @ g + g @ t)) < 1e-10
        rg = g @ r
        assert np.max(np.abs(rg - rg.T)) < 1e-10
        evals = np.linalg.eigvalsh(space.chol_m.T @ r @ np.linalg.inv(space.chol_m.T))
        assert evals.min() > -1e-10


def test_torsion_matrix_berger_vertical():
    space = build_space("berger:m=2,s=0.5")
    t = torsion_op(space, space.basis_vector("d_s"))
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
    assert np.max(np.abs(torsion_op(space, u))) < 1e-12


def test_jacobi_op_kills_direction():
    space = build_space("b13")
    rng = np.random.default_rng(2)
    u = space.random_unit_m(rng)
    m = space.part_indices("M")
    out = jacobi_op(space, u) @ u[m]
    assert np.max(np.abs(out)) < 1e-10


def test_sectional_curvature_modes_agree(rng):
    for desc in CATALOG:
        space = build_space(desc)
        for _ in range(10):
            x, y = space.random_unit_m(rng), space.random_unit_m(rng)
            kn = sectional_curvature(space, x, y, mode="normal")
            kr = sectional_curvature(space, x, y, mode="naturally_reductive")
            assert abs(kn - kr) < 1e-10 * max(1.0, abs(kn))


def test_sectional_curvature_ignores_k_parts():
    # a vector of g stands for the tangent vector of its m-part
    space = build_space("berger:m=2,s=0.5")
    x, y = space.basis_vector("e_1"), space.basis_vector("f_1")
    z = space.basis_vector(space.algebra.labels[space.k_indices[0]])
    for mode in ("normal", "naturally_reductive"):
        k = sectional_curvature(space, x, y, mode=mode)
        assert sectional_curvature(space, x + 0.3 * z, y - 0.7 * z, mode=mode) == k


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
            ref = sectional_curvature(space, xs[i], ys[i], mode="naturally_reductive")
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
    f, gx, gy = kernel.value_and_gradient(xs, ys)
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
    xs, ys = kernel.gaussian_pairs(np.random.default_rng(17), 1100)
    raw = kernel.value(xs, ys)
    orthonormal = kernel.value(*kernel.random_pairs(np.random.default_rng(17), 1100))
    assert np.all(np.abs(raw - orthonormal) <= 1e-13 * np.abs(orthonormal))
    # and a rescaled, sheared basis of the same planes
    assert np.all(np.abs(kernel.value(3.0 * xs - ys, 0.5 * ys) - raw) <= 1e-13 * np.abs(raw))


def test_bracket_kernel_blocks_agree_with_rows(rng):
    # more rows than one block: every row must match its own one-row evaluation
    space = build_space("berger:m=1,s=0.5")
    kernel = BracketKernel(space, 1.0, 0.25)
    xs, ys = kernel.random_pairs(rng, 1100)
    f, gx, gy = kernel.value_and_gradient(xs, ys)
    for i in (0, 511, 512, 1099):
        f1, gx1, gy1 = kernel.value_and_gradient(xs[i : i + 1], ys[i : i + 1])
        np.testing.assert_allclose(f1[0], f[i], rtol=1e-12)
        np.testing.assert_allclose(gx1[0], gx[i], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gy1[0], gy[i], rtol=1e-12, atol=1e-12)


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
    xs, ys = kernel.random_pairs(gen, 8)
    f, g, h = kernel.second_order(xs, ys)
    f1, gx, gy = kernel.value_and_gradient(xs, ys)
    np.testing.assert_allclose(f, f1, rtol=1e-13)
    np.testing.assert_allclose(g, np.hstack([gx, gy]), rtol=0, atol=1e-13 * np.abs(g).max())
    # f is GL(2)-invariant: its gradient is already horizontal, and P H P symmetric
    np.testing.assert_allclose(_horizontal(xs, ys, g), g, rtol=0, atol=1e-13 * np.abs(g).max())
    np.testing.assert_allclose(h, h.transpose(0, 2, 1), rtol=0, atol=1e-13 * np.abs(h).max())
    # along horizontal z, P H z is the projected derivative of the exact gradient
    z = _horizontal(xs, ys, gen.standard_normal((8, 2 * n)))
    t = 1e-5
    _, gxp, gyp = kernel.value_and_gradient(xs + t * z[:, :n], ys + t * z[:, n:])
    _, gxm, gym = kernel.value_and_gradient(xs - t * z[:, :n], ys - t * z[:, n:])
    fd = _horizontal(xs, ys, (np.hstack([gxp, gyp]) - np.hstack([gxm, gym])) / (2 * t))
    hz = np.einsum("nab,nb->na", h, z)
    scale = (np.abs(h).max(axis=(1, 2)) * np.linalg.norm(z, axis=1))[:, None]
    assert np.all(np.abs(fd - hz) <= 1e-7 * scale)
    # vertical directions are in the kernel of P H P
    vertical = np.hstack([xs, np.zeros_like(xs)])
    assert np.all(np.abs(np.einsum("nab,nb->na", h, vertical)) <= 1e-13 * scale)


@pytest.mark.parametrize("desc", FAMILIES)
def test_reported_extremes_are_second_order_critical(desc):
    # the stop rule bounds f's predicted gain |g|^2 / (mu + |PHP|) by rounding
    # in f, so the gradient is at sqrt(STOP_RTOL).  Along isotropy orbits f is
    # constant, and there Hess f(v, v) = -<grad f, dv/dt>: near a critical
    # orbit the Hessian's wrong-sign part is rounding plus O(|grad f|).
    space = build_space(desc)
    kernel = BracketKernel(space, 1.0, 0.25)
    rep = estimate_pinching(space, multistarts=32, seed=0)
    for plane, sign, grad_norm in (
        (rep.argmax_plane, 1.0, rep.grad_norm_argmax),
        (rep.argmin_plane, -1.0, rep.grad_norm_argmin),
    ):
        f, g, h = kernel.second_order(space.to_frame(plane.x[None]), space.to_frame(plane.y[None]))
        hnorm = np.linalg.norm(h[0], 2)
        assert np.linalg.norm(g) == pytest.approx(grad_norm, rel=1e-6, abs=1e-15)
        assert grad_norm <= math.sqrt(STOP_RTOL) * (abs(f[0]) + hnorm)
        wrong = (sign * np.linalg.eigvalsh(h[0])).max()
        assert wrong <= 1e-12 * hnorm + 4 * grad_norm


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


def test_ad_orbit_identity_and_isometry(rng):
    space = build_space("spsphere:m=1,s=0.5")
    z = np.zeros(space.algebra.dim)
    z[list(space.k_indices)] = rng.standard_normal(len(space.k_indices))
    u = space.random_unit_m(rng)
    np.testing.assert_allclose(ad_orbit_direction(space, z, u, 0.0), u, atol=1e-14)
    for t in (0.3, 1.7, 4.0):
        rotated = ad_orbit_direction(space, z, u, t)
        assert abs(space.algebra.norm(rotated) - 1.0) < 1e-12
