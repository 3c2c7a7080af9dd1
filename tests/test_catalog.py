import math

import numpy as np
import pytest

from homogeodesy.algebra import algebra_from_json, algebra_to_json
from homogeodesy.catalog import (
    BadParams,
    SpaceDescriptor,
    SymmetricReference,
    build_space,
    parse_descriptor,
    symmetric_conjugate_times,
)
from homogeodesy.homogeneous import BracketKernel, DegeneratePlane, sectional_curvature


@pytest.mark.parametrize(
    "desc,dim_m",
    [
        ("berger:m=1,s=0.5", 3),
        ("berger:m=2,s=0.5", 5),
        ("berger:m=2,s=1", 5),
        ("spsphere:m=1,s=0.5", 7),
        ("spsphere:m=2,s=0.9", 11),
        ("cpodd:m=1", 6),
        ("cpodd:m=2", 10),
        ("b13", 13),
        ("w7:s=0.5", 7),
        ("round:n=5", 5),
    ],
)
def test_tangent_dimensions(desc, dim_m):
    assert build_space(desc).dim_m == dim_m


@pytest.mark.parametrize(
    "text",
    [
        "berger:m=0,s=0.5",
        "berger:m=1,s=0",
        "berger:m=1,s=1.2",
        "berger:m=1,s=0.5,kappa=-1",
        "spsphere:m=1,s=2",
        "w7:s=0",
        "w7:s=-0.3",
        "round:n=1",
        "cpodd:m=0",
    ],
)
def test_bad_params(text):
    with pytest.raises(BadParams):
        build_space(text)


def test_bad_descriptor_grammar():
    with pytest.raises(BadParams):
        parse_descriptor("flagmanifold:m=1")
    with pytest.raises(BadParams):
        parse_descriptor("berger:bogus=1")
    with pytest.raises(BadParams):
        parse_descriptor("berger:m=1.5")
    with pytest.raises(BadParams):
        parse_descriptor("berger:s=x")


def test_descriptor_fractions_and_roundtrip():
    desc = parse_descriptor("spsphere:m=1,s=2/3,kappa=1")
    params = dict(desc.params)
    assert abs(params["s"] - 2.0 / 3.0) < 1e-15
    again = parse_descriptor(desc.text())
    assert again == desc


def test_build_space_caches():
    a = build_space("b13")
    b = build_space("b13")
    assert a is b


@pytest.mark.parametrize(
    "desc,u0,u1,tau",
    [
        ("berger:m=2,s=0.5,kappa=1", "d_s", "e_1", 1 * 0.5 * 3 / 4),
        ("berger:m=1,s=0.9,kappa=2", "d_s", "e_1", 2 * 0.9 * 2 / 2),
        ("spsphere:m=1,s=0.5,kappa=1", "d_1s", "Y_1", 0.25),
        ("spsphere:m=2,s=1,kappa=3", "d_2s", "Y_{21}", 1.5),
        ("cpodd:m=1,kappa=1", "X_2", "Y_1", 0.5),
        ("cpodd:m=2,kappa=2", "X_3", "Y_{12}", 1.0),
    ],
)
def test_mixed_plane_curvature_tau(desc, u0, u1, tau):
    space = build_space(desc)
    k = sectional_curvature(space, space.basis_vector(u0), space.basis_vector(u1))
    assert abs(k - tau) < 1e-10
    assert abs(space.params["tau"] - tau) < 1e-12


@pytest.mark.parametrize("kappa", [1.0, 2.0])
def test_cp_vertical_sphere_curvature(kappa):
    space = build_space(f"cpodd:m=1,kappa={kappa:g}")
    k = sectional_curvature(space, space.basis_vector("X_2"), space.basis_vector("X_3"))
    assert abs(k - 8 * kappa) < 1e-10


def test_round_berger_s1_m1_is_constant_curvature(rng):
    kappa = 2.0
    space = build_space(f"berger:m=1,s=1,kappa={kappa:g}")
    xs = space.random_unit_m(rng, 1000)
    ys = space.random_unit_m(rng, 1000)
    kernel = BracketKernel(space, 1.0, 0.25)
    ks = kernel.value(space.to_frame(xs), space.to_frame(ys))
    np.testing.assert_allclose(ks, kappa, atol=1e-10)


def test_round_sphere_family_is_constant_curvature(rng):
    space = build_space("round:n=4,kappa=0.5")
    xs = space.random_unit_m(rng, 500)
    ys = space.random_unit_m(rng, 500)
    kernel = BracketKernel(space, 1.0, 0.25)
    ks = kernel.value(space.to_frame(xs), space.to_frame(ys))
    np.testing.assert_allclose(ks, 0.5, atol=1e-10)


def test_symmetric_conjugate_times_sphere():
    ref = SymmetricReference("sphere", 1.0)
    np.testing.assert_allclose(
        symmetric_conjugate_times(ref, 10.0), [math.pi, 2 * math.pi, 3 * math.pi]
    )


def test_symmetric_conjugate_times_projective():
    ref = SymmetricReference("projective", 2.0)
    got = symmetric_conjugate_times(ref, math.pi)
    want = [math.pi / (2 * math.sqrt(2)), math.pi / math.sqrt(2)]
    np.testing.assert_allclose(got, want)


def test_symmetric_conjugate_times_empty():
    ref = SymmetricReference("sphere", 1.0)
    assert symmetric_conjugate_times(ref, 1.0) == []


def test_base_references():
    assert build_space("b13").base_reference == SymmetricReference("projective", 2.0)
    assert build_space("w7:s=0.9").base_reference == SymmetricReference("projective", 1.0)
    assert build_space("berger:m=2,s=0.5,kappa=2").base_reference.kappa == 2.0


def test_catalog_space_export_roundtrip():
    alg = build_space("spsphere:m=1,s=0.5").algebra
    back = algebra_from_json(algebra_to_json(alg))
    np.testing.assert_allclose(back.structure, alg.structure, atol=1e-12)


def test_sp_sphere_s1_vertical_norms():
    # s = 1 vertical frame d_p = sqrt(2) X_p is orthonormal
    space = build_space("spsphere:m=1,s=1")
    g = space.gram_m
    np.testing.assert_allclose(g, np.eye(space.dim_m), atol=1e-12)


@pytest.mark.parametrize("t_max", [math.inf, math.nan, 1e12])
def test_symmetric_conjugate_times_refuses_unbounded_t_max(t_max):
    ref = SymmetricReference("projective", 1.0)
    with pytest.raises(ValueError, match="t_max"):
        symmetric_conjugate_times(ref, t_max)
    with pytest.raises(BadParams, match="t_max must be positive"):
        symmetric_conjugate_times(ref, -1.0)


def test_hand_built_descriptor_is_not_truncated():
    desc = SpaceDescriptor("berger", (("kappa", 1.0), ("m", 2.5), ("s", 0.5)))
    with pytest.raises(BadParams, match="integer m"):
        build_space(desc)
    with pytest.raises(BadParams, match="unknown family"):
        build_space(SpaceDescriptor("flag", ()))
    with pytest.raises(BadParams, match=r"bad parameters \['n'\]"):
        build_space(SpaceDescriptor("berger", (("n", 3),)))
    assert build_space(SpaceDescriptor("berger", (("s", 0.5),))).name == "berger:m=1,s=0.5,kappa=1"
    assert build_space(SpaceDescriptor("berger", (("kappa", 1.0), ("m", 2), ("s", 0.5)))) is (
        build_space("berger:m=2,s=0.5")
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # the typed error, and no numpy warning
def test_non_finite_plane_is_degenerate(bad):
    space = build_space("b13")
    x = space.basis_vector("e_1").copy()
    x[-1] = bad
    with pytest.raises(DegeneratePlane):
        sectional_curvature(space, x, space.basis_vector("f_1"))
