import math

import numpy as np
import pytest

import homogeodesy.catalog as catalog
from homogeodesy.algebra import algebra_to_json
from homogeodesy.catalog import (
    BadParams,
    SpaceDescriptor,
    SymmetricReference,
    build_space,
    parse_descriptor,
    symmetric_conjugate_times,
)
from homogeodesy.cli import main
from homogeodesy.homogeneous import BracketKernel, DegeneratePlane, sectional_curvature
from oracles import algebra_from_doc


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


@pytest.mark.parametrize("desc,key", [("berger:m=1000,s=0.5", "m"), ("round:n=1000", "n")])
def test_oversized_integer_parameter_exit_code(capsys, monkeypatch, desc, key):
    # the commutator table of berger:m=1000 alone would hold 1e18 numbers: the
    # descriptor is refused before any builder runs, so a builder that raises
    # stands in for the allocation
    family = desc.partition(":")[0]

    def builder(**params):
        raise AssertionError(f"{family} was built with {params}")

    monkeypatch.setitem(catalog._FAMILIES, family, (builder, catalog._FAMILIES[family][1]))
    assert main(["verify", desc]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key} = 1000 exceeds")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "family,key,largest",
    [
        (family, key, largest)
        for family, (_, spec) in catalog._FAMILIES.items()
        for key, (typ, _, largest) in spec.items()
        if typ is int
    ],
)
def test_hand_built_descriptor_above_its_bound_is_refused_before_building(
    monkeypatch, family, key, largest
):
    def builder(**params):
        raise AssertionError(f"{family} was built with {params}")

    monkeypatch.setitem(catalog._FAMILIES, family, (builder, catalog._FAMILIES[family][1]))
    for value in (largest + 1, 1000):
        with pytest.raises(BadParams, match=f"{key} = {value} exceeds {largest}"):
            build_space(SpaceDescriptor(family, ((key, value),)))


def test_integer_parameters_are_admitted_up_to_their_largest():
    for family, (_, spec) in catalog._FAMILIES.items():
        for key, (typ, _, largest) in spec.items():
            if typ is int:
                assert dict(parse_descriptor(f"{family}:{key}={largest}").params)[key] == largest
                with pytest.raises(BadParams, match="exceeds"):
                    parse_descriptor(f"{family}:{key}={largest + 1}")


def test_bad_descriptor_grammar():
    with pytest.raises(BadParams):
        parse_descriptor("flagmanifold:m=1")
    with pytest.raises(BadParams):
        parse_descriptor("berger:bogus=1")
    with pytest.raises(BadParams):
        parse_descriptor("berger:m=1.5")
    with pytest.raises(BadParams):
        parse_descriptor("berger:s=x")
    with pytest.raises(BadParams, match="parameter 'm' given more than once"):
        parse_descriptor("berger:m=1,m=2")  # not read as its last value


def test_descriptor_parses_fractions():
    desc = parse_descriptor("spsphere:m=1,s=2/3,kappa=1")
    params = dict(desc.params)
    assert abs(params["s"] - 2.0 / 3.0) < 1e-15


@pytest.mark.parametrize(
    "desc",
    ["round:n=4,kappa=0.5", "berger:m=2,s=0.5", "spsphere:m=1", "cpodd:m=2,kappa=3"]
    + ["b13", "w7:s=0.25"],
)
def test_descriptor_names_the_space_it_builds(desc):
    # the CLI names a space from its descriptor where it refuses it unbuilt
    assert parse_descriptor(desc).name == build_space(desc).name


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
    back = algebra_from_doc(algebra_to_json(alg))
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


@pytest.mark.parametrize(
    "desc,k,m0,m1",
    [
        ("berger:m=2,s=0.5", "h_s S_1 B_{1,2} C_{1,2}", "d_s", "e_1 e_2 f_1 f_2"),
        ("berger:m=2,s=1", "S_1 B_{1,2} C_{1,2}", "d_s", "e_1 e_2 f_1 f_2"),
        (
            "spsphere:m=1,s=0.5",
            "Z_{11} Z_{12} Z_{13} h_1s h_2s h_3s",
            "d_1s d_2s d_3s",
            "Y_1 Y_{11} Y_{12} Y_{13}",
        ),
        ("spsphere:m=1,s=1", "Z_{11} Z_{12} Z_{13}", "d_1s d_2s d_3s", "Y_1 Y_{11} Y_{12} Y_{13}"),
        ("cpodd:m=1", "Z_{11} Z_{12} Z_{13} X_1", "X_2 X_3", "Y_1 Y_{11} Y_{12} Y_{13}"),
        (
            "b13",
            "H_1 H_2 H_3 H_4 H_5 H_6 H_7 H_8 H_9 H_10 H_11",
            "u_0 u_1 u_2 v_1 v_2",
            "e_1 e_2 e_3 e_4 f_1 f_2 f_3 f_4",
        ),
        ("w7:s=0.5", "K_1 K_2 K_3 K_4", "u_0s u_1s v_1s", "e_1 e_2 f_1 f_2"),
        ("round:n=3", "B_{1,2} B_{1,3} B_{2,3}", "e_1 e_2 e_3", None),
    ],
)
def test_partition_by_label_in_order(desc, k, m0, m1):
    # every orthonormal frame downstream is taken in this basis order
    space = build_space(desc)
    labels = space.algebra.labels
    k, m0, m1 = k.split(), m0.split(), m1.split() if m1 else []
    assert labels == tuple(k + m0 + m1)
    assert [labels[i] for i in space.k_indices] == k
    assert [labels[i] for i in space.m_indices] == m0 + m1
    if m1:
        assert [labels[i] for i in space.m0_indices] == m0
        assert [labels[i] for i in space.m1_indices] == m1
    else:  # the round sphere has no m0/m1 split
        assert space.m0_indices is None and space.m1_indices is None
