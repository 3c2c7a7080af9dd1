import math

import numpy as np
import pytest
import scipy.linalg

from homogeodesy import homogeneous, jacobi
from homogeodesy.catalog import build_space
from homogeodesy.closed_form import cross_validate
from homogeodesy.jacobi import (
    _BLOCK,
    _LEAF,
    _samples,
    BadAngle,
    BadAux,
    GridTooLarge,
    JacobiError,
    ZeroVector,
    build_system,
    conjugate_events,
    default_scan_step,
    fundamental_block,
    geodesic_direction,
    geodesic_pair,
    isotropic_complement_projector,
    isotropic_derivative_basis,
    scan_conjugate_times,
)

from oracles import ad_orbit_direction, ode_fundamental, samples_by_insertion


def test_build_system_normalizes_and_validates():
    space = build_space("b13")
    sys = build_system(space, 3.0 * space.basis_vector("e_1"))
    assert abs(space.algebra.norm(sys.u) - 1.0) < 1e-12
    assert np.max(np.abs(sys.T + sys.T.T)) < 1e-12
    assert np.max(np.abs(sys.R - sys.R.T)) < 1e-12
    assert np.linalg.eigvalsh(sys.R).min() > -1e-12
    n = sys.n
    np.testing.assert_allclose(sys.companion[:n, n:], np.eye(n), atol=0)
    np.testing.assert_allclose(sys.companion[n:, :n], -sys.R, atol=0)


def test_build_system_rejects_zero_and_k_vectors():
    space = build_space("b13")
    with pytest.raises(ZeroVector):
        build_system(space, np.zeros(space.algebra.dim))
    with pytest.raises(ValueError):
        build_system(space, space.basis_vector("H_3"))


def test_fundamental_block_at_zero_and_small_t():
    space = build_space("w7:s=0.5")
    sys = build_system(space, space.basis_vector("e_1"))
    np.testing.assert_allclose(fundamental_block(sys, 0.0), np.zeros((7, 7)), atol=0)
    t = 1e-6
    np.testing.assert_allclose(fundamental_block(sys, t), t * np.eye(7), atol=1e-11)


def test_round_sphere_system_is_constant_curvature():
    kappa = 2.0
    space = build_space(f"round:n=3,kappa={kappa:g}")
    sys = build_system(space, space.basis_vector("e_1"))
    assert np.max(np.abs(sys.T)) < 1e-12
    # R = kappa * Id on the complement of u
    evals = np.sort(np.linalg.eigvalsh(sys.R))
    np.testing.assert_allclose(evals, [0.0, kappa, kappa], atol=1e-12)


def test_round_sphere_events_strictly_isotropic():
    space = build_space("round:n=3,kappa=1")
    events = conjugate_events(space, space.basis_vector("e_1"), 7.0)
    assert [round(e.t, 9) for e in events] == [round(math.pi, 9), round(2 * math.pi, 9)]
    for e in events:
        assert e.multiplicity == 2
        assert e.isotropic_exists and e.strictly_isotropic


@pytest.mark.parametrize("m,s,kappa", [(1, 0.5, 1.0), (2, 0.5, 1.0), (2, 0.9, 2.0)])
def test_berger_vertical_hopf_events(m, s, kappa):
    space = build_space(f"berger:m={m},s={s:g},kappa={kappa:g}")
    tau = space.params["tau"]
    events = conjugate_events(space, geodesic_direction(space, 0.0), 2.2 * math.pi / math.sqrt(tau))
    assert len(events) == 2
    for p, e in enumerate(events, start=1):
        assert abs(e.t - p * math.pi / math.sqrt(tau)) < 1e-8
        assert e.multiplicity == 2 * m
        assert e.isotropic_exists is False
        assert e.strictly_isotropic is False


def test_scan_orders_events_and_excludes_zero(rng):
    space = build_space("w7:s=0.5")
    for _ in range(3):
        u = space.random_unit_m(rng)
        events = conjugate_events(space, u, 8.0)
        ts = [e.t for e in events]
        assert all(t > 0 for t in ts)
        assert ts == sorted(ts)
        assert all(e.multiplicity >= 1 for e in events)
        assert all(
            e.strictly_isotropic is False or e.isotropic_exists for e in events
        )


def test_grid_cap_raises_before_allocating():
    space = build_space("b13")
    sys = build_system(space, space.basis_vector("e_1"))
    with pytest.raises(GridTooLarge) as info:
        scan_conjugate_times(sys, 1e12)
    assert isinstance(info.value, ValueError)


def test_close_zero_pairs_on_b13():
    space = build_space("b13")
    aux = {"phi1": 0.4701283207489579, "phi2": 4.732149539600932}
    u = geodesic_direction(space, 0.22977933257562105, aux)
    events = conjugate_events(space, u, 6.4)
    for t, mult in ((1.5961271, 1), (1.5972701, 3), (6.2875103, 1), (6.2895198, 3)):
        hits = [e for e in events if abs(e.t - t) < 1e-7 and e.multiplicity == mult]
        assert len(hits) == 1, (t, [(e.t, e.multiplicity) for e in events])


def test_close_zero_pair_inside_one_leaf():
    # two simple zeros 5.3e-6 apart, closer than the bisection leaves
    space = build_space("w7:s=0.959")
    u = geodesic_direction(space, 0.057744733155488566, {"phi": 2.7042823728344505})
    events = conjugate_events(space, u, 2.3)
    assert [e.multiplicity for e in events] == [1, 1]
    np.testing.assert_allclose([e.t for e in events], [2.20044907972, 2.20045439152], atol=1e-10)
    assert events[0].isotropic_exists is False and events[1].strictly_isotropic


def test_zero_next_to_bracket_end():
    space = build_space("berger:m=1,s=0.7436260997901464,kappa=1.0127478004197072")
    u = geodesic_direction(space, 0.5435299223114946, {"alpha": 1})
    events = conjugate_events(space, u, 3.8591117298820334)
    assert any(abs(e.t - 3.4639305885) < 1e-9 for e in events)


@pytest.mark.parametrize(
    "desc", ["berger:m=2,s=0.5", "spsphere:m=1,s=0.5", "cpodd:m=1,kappa=2", "b13", "w7:s=0.5"]
)
def test_scan_times_match_closed_forms_to_roundoff(desc):
    space = build_space(desc)
    u, v = geodesic_pair(space, 0.7)
    report = cross_validate(space, u, v, 9.0)
    assert report.all_matched and report.matched
    for pred, event in report.matched:
        assert abs(event.t - pred.t) <= 1e-12 * max(1.0, pred.t), (pred.t, event.t)


def test_expm_budget_per_event(monkeypatch):
    calls = []
    expm = scipy.linalg.expm

    def counting(a):
        calls.append(1)
        return expm(a)

    monkeypatch.setattr(scipy.linalg, "expm", counting)
    space = build_space("b13")
    u = geodesic_direction(space, 0.9, {"phi1": 0.4, "phi2": 1.3})
    events = conjugate_events(space, u, 6.0)
    assert len(events) >= 5
    assert len(calls) <= 200 * len(events)


def test_expm_is_looked_up_at_each_call(monkeypatch):
    # a binding patched onto scipy.linalg after the first exponential (as the
    # benchmark tracer does) still sees every later one
    space = build_space("b13")
    sys = build_system(space, geodesic_direction(space, 0.9, {"phi1": 0.4, "phi2": 1.3}))
    fundamental_block(sys, 1.0)
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(1) or expm(a))
    fundamental_block(sys, 1.0)
    assert len(calls) == 1
    assert scan_conjugate_times(sys, 3.0) and len(calls) > 1


def test_bisection_costs_one_expm_per_level(monkeypatch):
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(1) or expm(a))
    space = build_space("b13")
    u = geodesic_direction(space, 0.9, {"phi1": 0.4, "phi2": 1.3})
    events = conjugate_events(space, u, 6.0)
    assert len(events) >= 5
    assert len(calls) <= 20 * len(events)


SAMPLED_GEODESICS = [
    ("berger:m=2,s=0.5", 0.7, {}),
    ("spsphere:m=1,s=0.5", 1.1, {"phi1": 0.8, "phi2": 2.0}),
    ("cpodd:m=2,kappa=2", 0.3, {"phi": 0.5, "alpha": 2}),
    ("b13", 0.9, {"phi1": 0.4, "phi2": 1.3}),
    ("w7:s=0.5", 0.2, {"phi": 2.7}),
]


@pytest.mark.parametrize("desc,theta,aux", SAMPLED_GEODESICS)
def test_propagated_samples_match_fresh_expm(desc, theta, aux):
    # grid and midpoint samples come from products with one expm per level;
    # each must agree with the matrix exponential taken at its own time
    space = build_space(desc)
    sys = build_system(space, geodesic_direction(space, theta, aux))
    ts, fs, suspicious, _, _ = _samples(sys, 6.0, default_scan_step(sys))
    assert len(ts) == len(fs) == len(suspicious) + 1
    assert np.all(np.diff(ts) > 0) and suspicious.any()
    # bisection reaches the leaf, so every level's exp(w A / 2) is exercised
    assert np.diff(ts).min() < 2 * _LEAF
    for t, f in zip(ts, fs):
        e = scipy.linalg.expm(t * sys.companion)
        want = np.linalg.svd(fundamental_block(sys, t), compute_uv=False)[-1]
        assert abs(f - want) <= 1e-12 * max(1.0, np.linalg.norm(e, 2)), (t, f, want)


def _assert_samples_match_insertion_reference(sys, t_max):
    step = default_scan_step(sys)
    got, want = _samples(sys, t_max, step), samples_by_insertion(sys, t_max, step)
    for column, reference in zip(got[:3], want[:3]):
        assert column.dtype == reference.dtype
        np.testing.assert_array_equal(column, reference)
    assert got[3:] == want[3:]  # L and delta
    return got


@pytest.mark.parametrize("desc,theta,aux", SAMPLED_GEODESICS)
def test_bisection_levels_match_insertion_reference(desc, theta, aux):
    # live intervals per level and one sort at the end give the samples,
    # suspicious flags, L and delta of whole-array inserts, bit for bit
    space = build_space(desc)
    sys = build_system(space, geodesic_direction(space, theta, aux))
    ts = _assert_samples_match_insertion_reference(sys, 6.0)[0]
    assert np.diff(ts).min() < 2 * _LEAF


@pytest.mark.parametrize(
    "desc,t_max", [("cpodd:m=1,kappa=1e4", 1.0), ("spsphere:m=1,s=1e-6", 0.5), ("w7:s=1e-6", 0.5)]
)
def test_bisection_levels_match_insertion_reference_on_edge_inputs(desc, t_max):
    # the CI edge inputs (largest kappa, smallest s) at theta = 0.7, cut short
    space = build_space(desc)
    sys = build_system(space, geodesic_direction(space, 0.7))
    _assert_samples_match_insertion_reference(sys, t_max)


def test_bisection_levels_match_insertion_reference_across_blocks():
    space = build_space("berger:m=2,s=0.5")
    sys = build_system(space, geodesic_direction(space, 0.7))
    assert 300.0 / default_scan_step(sys) > 2 * _BLOCK
    _assert_samples_match_insertion_reference(sys, 300.0)


def test_bisection_samples_per_event():
    # the certificate's slack sets how many intervals stay live; the energy
    # bound ||J'|| <= 1 keeps about 21 samples per event here (about 30 with
    # the cell bound e^{nu h/2} ||[E_21 | E_22]||, 99 with ||E|| e^{||A|| h/2})
    space = build_space("b13")
    u = geodesic_direction(space, 0.9, {"phi1": 0.4, "phi2": 1.3})
    sys = build_system(space, u)
    events = scan_conjugate_times(sys, 6.0)
    ts = _samples(sys, 6.0, default_scan_step(sys))[0]
    assert len(events) >= 5
    assert len(ts) <= 25 * len(events)


@pytest.mark.parametrize("desc,theta,aux", SAMPLED_GEODESICS)
def test_certificate_bounds_j_prime_inside_cells(desc, theta, aux):
    # the one constant L must bound ||J'(t)|| = ||E_22(t)|| at every t, not only
    # at the samples; delta, a bound on a whole chain of products, leaves room
    # for the rounding of one fresh expm
    space = build_space(desc)
    sys = build_system(space, geodesic_direction(space, theta, aux))
    n, step = sys.n, default_scan_step(sys)
    _, _, _, lip, delta = _samples(sys, 6.0, step)
    assert 1.0 <= lip <= 1.0 + 1e-12
    grid = np.arange(step / 2.0, 6.0 + 1.5 * step, step)
    for left, right in zip(grid[:-1], grid[1:]):
        for t in np.linspace(left, right, 10)[1:-1]:
            e = scipy.linalg.expm(t * sys.companion)
            assert np.linalg.norm(e[n:, n:], 2) <= lip + delta, (t, lip)
            j_prime = e[:n, :n] + e[:n, n:] @ sys.T
            assert np.max(np.abs(e[n:, n:] - j_prime)) <= 1e-12 * np.linalg.norm(e, 2)


@pytest.mark.parametrize("desc,theta,aux", SAMPLED_GEODESICS)
def test_sample_error_within_delta(desc, theta, aux):
    # delta is the derived forward-error bound of a propagated sample; the
    # clearing test sigma(a) + sigma(b) > L w + 2 delta relies on it
    space = build_space(desc)
    sys = build_system(space, geodesic_direction(space, theta, aux))
    ts, fs, _, _, delta = _samples(sys, 6.0, default_scan_step(sys))
    assert 0.0 < delta < 1e-8
    for t, f in zip(ts, fs):
        want = np.linalg.svd(fundamental_block(sys, t), compute_uv=False)[-1]
        assert abs(f - want) <= delta, (t, f, want, delta)


def test_indefinite_jacobi_operator_is_refused(monkeypatch):
    # the energy bound needs R >= 0; an R with a negative eigenvalue is refused
    space = build_space("b13")
    u = space.basis_vector("e_1")
    r = homogeneous.jacobi_op(space, u)
    monkeypatch.setattr(jacobi, "jacobi_op", lambda *args: r - 0.1 * np.eye(len(r)))
    with pytest.raises(JacobiError, match="indefinite"):
        build_system(space, u)


def test_large_kappa_scan_matches_closed_forms():
    # at kappa = 1e4 (||R|| ~ 6e4) the energy bound is still 1, so cells with no
    # zero clear at the grid; a bound that grows with ||A|| bisects every cell
    space = build_space("cpodd:m=1,kappa=1e4")
    u, v = geodesic_pair(space, 0.7)
    report = cross_validate(space, u, v, 2.0)
    assert report.all_matched and len(report.matched) >= 100
    sys = build_system(space, u)
    ts = _samples(sys, 2.0, default_scan_step(sys))[0]
    assert len(ts) <= 50 * len(report.events)


def test_explicit_fine_step_matches_default(rng, monkeypatch):
    space = build_space("cpodd:m=1")
    u = space.random_unit_m(rng)
    sys = build_system(space, u)
    default = [e.t for e in scan_conjugate_times(sys, 6.0)]
    monkeypatch.setattr(jacobi, "default_scan_step", lambda s: default_scan_step(s) / 3)
    fine = [e.t for e in scan_conjugate_times(sys, 6.0)]
    np.testing.assert_allclose(default, fine, atol=1e-8)


def test_expm_matches_adaptive_ode(rng):
    space = build_space("spsphere:m=1,s=0.5")
    for _ in range(2):
        sys = build_system(space, space.random_unit_m(rng))
        ts = np.linspace(0.5, 10.0, 8)
        oracle = ode_fundamental(sys.companion, ts)
        for t, want in zip(ts, oracle):
            got = fundamental_block(sys, t)
            assert np.max(np.abs(got - want)) < 1e-8


def test_isotropic_subspace_identity(rng):
    # [k, u] equals (Ker R_u)-perp: the algebraic core of the isotropy criterion
    for desc in ("berger:m=2,s=0.5", "b13", "w7:s=0.5", "cpodd:m=1"):
        space = build_space(desc)
        for _ in range(10):
            u = space.random_unit_m(rng)
            sys = build_system(space, u)
            basis = isotropic_derivative_basis(space, u)
            proj = isotropic_complement_projector(sys)
            assert np.max(np.abs(basis @ basis.T - proj)) < 1e-8


def test_conjugate_spectrum_invariant_under_isotropy(rng):
    space = build_space("spsphere:m=1,s=0.5")
    z = np.zeros(space.algebra.dim)
    z[list(space.k_indices)] = rng.standard_normal(len(space.k_indices))
    u = geodesic_direction(space, 0.6)
    rotated = ad_orbit_direction(space, z, u, 0.9)
    t1 = [e.t for e in conjugate_events(space, u, 8.0)]
    t2 = [e.t for e in conjugate_events(space, rotated, 8.0)]
    assert len(t1) == len(t2)
    np.testing.assert_allclose(t1, t2, atol=1e-6)


def test_geodesic_direction_vertical_horizontal():
    space = build_space("berger:m=2,s=0.5")
    u_vert = geodesic_direction(space, 0.0)
    np.testing.assert_allclose(u_vert, space.unit(space.basis_vector("d_s")), atol=1e-12)
    u_horiz = geodesic_direction(space, math.pi / 2)
    np.testing.assert_allclose(u_horiz, space.unit(space.basis_vector("e_2")), atol=1e-12)


def test_geodesic_pair_is_orthonormal():
    for desc in ("berger:m=2,s=0.5,kappa=2", "cpodd:m=1,kappa=2", "w7:s=0.25", "b13"):
        space = build_space(desc)
        for theta in (0.0, 0.3, math.pi / 2):
            u, v = geodesic_pair(space, theta)
            assert abs(space.algebra.norm(u) - 1) < 1e-12
            assert abs(space.algebra.norm(v) - 1) < 1e-12
            assert abs(space.algebra.inner(u, v)) < 1e-12


def test_bad_angle_and_aux():
    space = build_space("berger:m=2,s=0.5")
    with pytest.raises(BadAngle):
        geodesic_direction(space, 2.0 * math.pi)
    with pytest.raises(BadAux):
        geodesic_direction(space, 0.3, {"phi": 0.2})  # berger takes no phi
    with pytest.raises(BadAux):
        geodesic_direction(space, 0.3, {"alpha": 5})
    with pytest.raises(BadAux):
        geodesic_direction(build_space("round:n=3"), 0.0)


def test_non_finite_aux_is_refused_by_name():
    b13 = build_space("b13")
    with pytest.raises(BadAux, match="x0 must be finite"):
        geodesic_pair(b13, 0.7, {"x0": math.nan})
    with pytest.raises(BadAux, match="phi1 must be finite"):
        geodesic_pair(build_space("spsphere:m=1,s=0.5"), 0.7, {"phi1": math.inf})
    with pytest.raises(BadAux, match="x0"):  # finite, but the direction's norm overflows
        geodesic_pair(b13, 0.7, {"x0": 1e300})
    for bad in ([math.nan] + [0.0] * 23, [1e300] + [0.0] * 23):
        with pytest.raises(ValueError, match="cannot normalize a vector of norm"):
            b13.unit(bad)


def test_non_integral_alpha_is_refused_by_name():
    berger = build_space("berger:m=2,s=0.5")
    with pytest.raises(BadAux, match="alpha must be an integer in 1..2, got 1.5"):
        geodesic_pair(berger, 0.7, {"alpha": 1.5})
    with pytest.raises(BadAux, match="alpha must be an integer in 1..2, got 3"):
        geodesic_pair(berger, 0.7, {"alpha": 3})
    assert np.array_equal(
        geodesic_pair(berger, 0.7, {"alpha": 2.0})[0], geodesic_pair(berger, 0.7, {"alpha": 2})[0]
    )


def test_complement_projector_is_computed_once_per_system():
    space = build_space("b13")
    sys = build_system(space, geodesic_direction(space, 0.9, {"phi1": 0.4, "phi2": 1.3}))
    proj = isotropic_complement_projector(sys)
    assert isotropic_complement_projector(sys) is proj
    assert not proj.flags.writeable


def test_one_eigendecomposition_of_r_and_one_norm_of_t_per_geodesic(monkeypatch):
    space = build_space("b13")
    u = geodesic_direction(space, 0.7)
    calls = []
    for name in ("eigh", "eigvalsh", "norm"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _name=name, **kw):
            if _name != "norm" or (args[0] if args else kw.get("ord")) == 2:
                calls.append((_name, np.array(a)))
            return _real(a, *args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    events = conjugate_events(space, u, 12.0)
    monkeypatch.undo()
    assert len(events) > 0
    assert [name for name, _ in calls] == ["eigh", "norm"]
    sys = build_system(space, u)
    assert np.array_equal(calls[0][1], sys.R) and np.array_equal(calls[1][1], sys.T)


def test_system_spectral_fields_are_read_only():
    space = build_space("w7:s=0.5")
    sys = build_system(space, geodesic_direction(space, 0.7))
    for arr in (sys.r_evals, sys.r_evecs):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        sys.r_evals[0] = 0.0
    assert np.all(np.diff(sys.r_evals) >= 0)
    np.testing.assert_allclose((sys.r_evecs * sys.r_evals) @ sys.r_evecs.T, sys.R, atol=1e-12)
    assert sys.norm_t == pytest.approx(np.linalg.norm(sys.T, 2), rel=1e-14)
    assert sys.norm_r == pytest.approx(np.linalg.norm(sys.R, 2), rel=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # the typed error, and no numpy warning
def test_non_finite_direction_is_a_value_error(bad):
    space = build_space("b13")
    u = space.basis_vector("e_1").copy()
    u[-1] = bad
    with pytest.raises(ValueError, match="geodesic direction must be finite"):
        build_system(space, u)
    with pytest.raises(ValueError, match="geodesic direction must be finite"):
        conjugate_events(space, u, 2.0)
