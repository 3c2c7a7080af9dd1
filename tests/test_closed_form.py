import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homogeodesy.catalog import build_space
from homogeodesy.closed_form import (
    BRANCH_COMMUTING,
    BRANCH_RHO_POSITIVE,
    BRANCH_RHO_ZERO,
    CLASS_ISOTROPIC,
    CLASS_NOT_STRICT,
    FAMILY_TAN,
    FAMILY_TWO_PI,
    MATCH_TOL,
    HypothesisViolated,
    closed_form_times,
    cross_validate,
    extract_cp_data,
    solve_tan_family,
)
from homogeodesy.jacobi import T_TOL, conjugate_events, geodesic_pair
from homogeodesy.report import conjugate_table, reproduce

from oracles import ad_orbit_direction, bisect_tan_root


def test_tan_family_against_bisection_oracle():
    # mu = -1/2: tan(x) = -x has its first root at x ~ 2.028757838;
    # the oracle computes it independently by midpoint bisection
    oracle = bisect_tan_root(-0.5, k=1)
    got = solve_tan_family(-0.5, 1)[0]
    assert abs(got - oracle) < 1e-11
    assert abs(got - 4.057515676220868) < 1e-9


def test_tan_family_multiple_roots():
    roots = solve_tan_family(-0.5, 4)
    for k, root in enumerate(roots, start=1):
        assert (2 * k - 1) * math.pi < root < (2 * k + 1) * math.pi
        assert abs(bisect_tan_root(-0.5, k=k) - root) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-300.0, max_value=-1e-3))
def test_first_root_in_pi_two_pi(mu):
    root = solve_tan_family(mu, 1)[0]
    assert math.pi < root < 2 * math.pi
    assert abs(math.tan(root / 2) - mu * root) < 1e-9


def test_tan_family_mu_to_zero_limit():
    # as mu -> 0- the first root climbs to 2 pi (the families merge);
    # to first order the gap is 4 pi |mu|
    for mu in (-1e-1, -1e-2, -1e-3):
        root = solve_tan_family(mu, 1)[0]
        gap = 2 * math.pi - root
        assert math.pi * abs(mu) < gap < 5 * math.pi * abs(mu)


def test_tan_family_rejects_nonnegative_mu():
    with pytest.raises(ValueError):
        solve_tan_family(0.0, 1)
    with pytest.raises(ValueError):
        solve_tan_family(0.3, 1)


def test_unbounded_t_max_is_refused_before_any_root():
    space = build_space("berger:m=1,s=0.5")
    for theta in (0.0, 0.7):  # the 2p*pi branch, then the tan branch
        u, v = geodesic_pair(space, theta)
        data = extract_cp_data(space, u, v)
        for t_max in (math.inf, math.nan, 0.0, -1.0, 1e12):
            with pytest.raises(ValueError, match="t_max"):
                closed_form_times(data, t_max)
        with pytest.raises(ValueError, match="t_max"):
            cross_validate(space, u, v, math.inf)


@pytest.mark.parametrize("desc", ["berger:m=1,s=1e-6", "cpodd:m=1,kappa=1e4"])
def test_far_tan_roots_are_certified(desc):
    # with |mu| up to 2e5 (berger) or s = omega t up to 2e3 (kappa = 1e4) the
    # residual of a correctly rounded root exceeds 1e-9, yet a sign change of
    # f still brackets every root to 1e-12
    space = build_space(desc)
    data = extract_cp_data(space, *geodesic_pair(space, 0.7))
    omega, mu = math.sqrt(data.lam + data.rho), -data.rho / (2.0 * data.lam)
    times = [c.t for c in closed_form_times(data, 12.0) if c.family == FAMILY_TAN]
    assert len(times) >= 2
    for t in times:
        s = t * omega
        f = lambda x: math.tan(x / 2.0) - mu * x
        assert f(s * (1.0 - 1e-12)) < 0.0 < f(s * (1.0 + 1e-12)), (t, s)


@pytest.mark.parametrize(
    "desc,theta",
    [("berger:m=2,s=0.5,kappa=1", math.pi / 3), ("berger:m=1,s=0.9,kappa=2", 0.4)],
)
def test_extract_berger(desc, theta):
    space = build_space(desc)
    kappa, tau = space.params["kappa"], space.params["tau"]
    u, v = geodesic_pair(space, theta)
    data = extract_cp_data(space, u, v)
    assert data.branch == BRANCH_RHO_POSITIVE
    assert abs(data.lam - 4 * tau) < 1e-9 * 4 * tau
    want_rho = 4 * (kappa - tau) * math.sin(theta) ** 2
    assert abs(data.rho - want_rho) < 1e-9 * want_rho


def test_extract_w7_and_b13():
    w7 = build_space("w7:s=0.25")
    u, v = geodesic_pair(w7, math.pi / 2)
    data = extract_cp_data(w7, u, v)
    assert abs(data.lam - 0.25 / 1.25) < 1e-12
    assert abs(data.rho - 1 / 1.25) < 1e-12
    b13 = build_space("b13")
    u, v = geodesic_pair(b13, math.pi / 4, {"phi1": 0.3, "phi2": 1.0})
    data = extract_cp_data(b13, u, v)
    assert abs(data.lam - 1.0) < 1e-12
    assert abs(data.rho - 0.5) < 1e-12


def test_extract_commuting_branch_cp_vertical_plane():
    kappa = 1.0
    space = build_space("cpodd:m=1,kappa=1")
    u = space.unit(space.basis_vector("X_2"))
    v = space.unit(space.basis_vector("X_3"))
    data = extract_cp_data(space, u, v)
    assert data.branch == BRANCH_COMMUTING
    assert abs(data.lam - 8 * kappa) < 1e-9


def test_extract_rho_zero_branch_vertical():
    space = build_space("b13")
    u, v = geodesic_pair(space, 0.0)
    data = extract_cp_data(space, 0.0 * u + u, v)
    assert data.branch == BRANCH_RHO_ZERO
    assert abs(data.lam - 1.0) < 1e-12


def test_extract_rejects_non_orthonormal():
    space = build_space("b13")
    u, _ = geodesic_pair(space, 0.3)
    with pytest.raises(HypothesisViolated):
        extract_cp_data(space, u, u)


def test_extract_rejects_mixed_bracket():
    # [e_1, f_1] has both h- and m-components on B13
    space = build_space("b13")
    with pytest.raises(HypothesisViolated):
        extract_cp_data(space, space.basis_vector("e_1"), space.basis_vector("f_1"))


def test_extract_rejects_b13_x0_component():
    # with a u_0 component the collinearity [[u,[u,v]]_k, u] ~ [u,v] fails
    space = build_space("b13")
    u, v = geodesic_pair(space, math.pi / 4, {"x0": 0.6})
    with pytest.raises(HypothesisViolated):
        extract_cp_data(space, u, v)


def test_closed_form_times_branches():
    space = build_space("cpodd:m=1,kappa=1")
    u = space.unit(space.basis_vector("X_2"))
    v = space.unit(space.basis_vector("X_3"))
    data = extract_cp_data(space, u, v)
    period = math.pi / math.sqrt(8.0)
    times = closed_form_times(data, 4 * period + 1e-9)
    assert [t.isotropy_class for t in times] == [CLASS_ISOTROPIC] * 4
    np.testing.assert_allclose([t.t for t in times], period * np.arange(1, 5), atol=1e-12)
    assert closed_form_times(data, 0.5 * period) == []


def test_closed_form_times_rho_positive_families():
    space = build_space("berger:m=2,s=0.5,kappa=1")
    u, v = geodesic_pair(space, math.pi / 2)
    data = extract_cp_data(space, u, v)
    # lambda = 1.5, rho = 2.5: tan(s/2) = -(5/6)s, first root in ]pi, 2pi[
    assert abs(data.lam - 1.5) < 1e-12 and abs(data.rho - 2.5) < 1e-12
    times = closed_form_times(data, 2 * math.pi + 0.2)
    families = [(t.family, t.isotropy_class) for t in times]
    assert (FAMILY_TAN, CLASS_NOT_STRICT) in families
    assert (FAMILY_TWO_PI, CLASS_ISOTROPIC) in families
    tan_t = [t.t for t in times if t.family == FAMILY_TAN][0]
    assert abs(tan_t - bisect_tan_root(-2.5 / 3.0) / 2.0) < 1e-9
    two_pi = [t.t for t in times if t.family == FAMILY_TWO_PI]
    np.testing.assert_allclose(two_pi, [math.pi, 2 * math.pi], atol=1e-12)


def test_theta_limit_merges_tan_family_into_two_pi():
    # rho -> 0 as theta -> 0 and the first tan root collapses onto 2 pi/sqrt(lam)
    space = build_space("berger:m=2,s=0.5,kappa=1")
    prev_gap = None
    for theta in (1e-1, 1e-2, 1e-3):
        u, v = geodesic_pair(space, theta)
        data = extract_cp_data(space, u, v)
        root = solve_tan_family(-data.rho / (2 * data.lam), 1)[0]
        gap = abs(root / math.sqrt(data.lam + data.rho) - 2 * math.pi / math.sqrt(data.lam))
        if prev_gap is not None:
            assert gap < prev_gap / 10
        prev_gap = gap


def test_rho_lambda_identity():
    space = build_space("w7:s=0.5")
    u, v = geodesic_pair(space, 1.1)
    data = extract_cp_data(space, u, v)
    from homogeodesy.algebra import bracket
    from homogeodesy.homogeneous import project

    alg = space.algebra
    a = bracket(bracket(alg.element(u), alg.element(v)), alg.element(u)).coeffs
    ak = project(space, a, "K")
    assert abs(data.rho * data.lam - alg.inner(ak, ak)) < 1e-9


def test_cross_validate_berger_horizontal():
    space = build_space("berger:m=2,s=0.5,kappa=1")
    u, v = geodesic_pair(space, math.pi / 2)
    cv = cross_validate(space, u, v, 2 * math.pi + 0.2)
    assert cv.all_matched
    for pred, ev in cv.matched:
        if pred.family == FAMILY_TAN:
            assert ev.isotropic_exists is False  # horizontal: not isotropic at all
        else:
            assert ev.isotropic_exists is True


def test_cross_validate_cimp1_families():
    kappa = 1.0
    space = build_space("cpodd:m=1,kappa=1")
    u, _ = geodesic_pair(space, 0.0, {"phi": 0.4})
    v_plane = space.unit(
        math.cos(0.4) * space.basis_vector("X_3") - math.sin(0.4) * space.basis_vector("X_2")
    )
    cv = cross_validate(space, u, v_plane, 1.2)
    first = math.sqrt(2 * kappa) * math.pi / (4 * kappa)
    assert any(abs(c.t - first) < 1e-9 for c in cv.closed_form)
    assert cv.all_matched

    _, v_mixed = geodesic_pair(space, 0.0, {"phi": 0.4})
    cv2 = cross_validate(space, u, v_mixed, 5.0)
    non_strict = math.sqrt(2 * kappa) * math.pi / kappa
    assert any(
        abs(c.t - non_strict) < 1e-9 and c.isotropy_class == CLASS_NOT_STRICT
        for c in cv2.closed_form
    )
    assert cv2.all_matched


def test_reproduce_cimp1_sweep():
    # m in {1, 2} x kappa in {1, 2} x phi in {0, 0.7}: the vertical 2-plane has
    # lambda = 8 kappa and the mixed pair lambda = 2 kappa
    doc = reproduce("cimp1")
    assert doc["theorem"] == "cimp1" and doc["pass"] is True
    assert len(doc["cells"]) == 8
    for cell in doc["cells"]:
        kappa = build_space(cell["space"]).params["kappa"]
        assert cell["pass"] is True and "error" not in cell
        assert abs(cell["lambda_plane"] - 8 * kappa) <= 1e-9 * 8 * kappa
        assert abs(cell["lambda_mixed"] - 2 * kappa) <= 1e-9 * 2 * kappa
    assert sorted({cell["space"] for cell in doc["cells"]}) == [
        f"cpodd:m={m},kappa={kappa}" for m in (1, 2) for kappa in (1, 2)
    ]


def test_theorem_sweeps_match_closed_forms_within_t_tol(monkeypatch):
    # T_TOL is the promised accuracy of event times: every closed-form time of
    # the conj, conjB13 and conjW7 cells lies within it of its matched event
    # (the worst of the 248 pairs is 3.0e-12, on w7:s=2/3 at theta = 0)
    reports = []

    def record(*args):
        reports.append(cross_validate(*args))
        return reports[-1]

    monkeypatch.setattr("homogeodesy.report.cross_validate", record)
    for name in ("conj", "conjB13", "conjW7"):
        assert reproduce(name)["pass"] is True
    gaps = [abs(pred.t - ev.t) for cv in reports for pred, ev in cv.matched]
    assert len(gaps) == 248
    assert max(gaps) <= T_TOL


def test_each_closed_form_time_is_paired_with_its_nearest_event():
    # at kappa = 1e8 the tan-family time 0.0057950357689 has an exact event that
    # is not strictly isotropic, and a strictly isotropic zero 9.8e-8 earlier,
    # also within MATCH_TOL: pairing the first event in range, not the nearest,
    # raises Mismatch on that earlier zero
    space = build_space("cpodd:m=1,kappa=1e8")
    u, v = geodesic_pair(space, 0.7)
    report = cross_validate(space, u, v, 0.01)
    assert report.all_matched and len(report.matched) == 53
    for pred, event in report.matched:
        near = [ev for ev in report.events if abs(ev.t - pred.t) < MATCH_TOL]
        assert event is min(near, key=lambda ev: abs(ev.t - pred.t))
    # the table labels only the nearest event of each prediction
    rows = conjugate_table(space, 0.7, 0.01)["rows"]
    assert sum(bool(row["closed_form_match"]) for row in rows) == 53
    close = [row for row in rows if abs(row["t"] - 0.0057950357689) < MATCH_TOL]
    assert [row["closed_form_match"] for row in close] == ["", FAMILY_TAN]
    assert close[0]["strictly_isotropic"] and not close[1]["isotropic_exists"]


ANGLE = st.floats(min_value=0.0, max_value=2 * math.pi)


@st.composite
def slope_geodesics(draw):
    """A space of one of the five families and a slope-angle direction on it."""
    family = draw(st.sampled_from(["berger", "spsphere", "cpodd", "b13", "w7"]))
    m = draw(st.integers(min_value=1, max_value=2))
    s = draw(st.floats(min_value=0.25, max_value=1.0))
    kappa = draw(st.floats(min_value=0.5, max_value=2.0))
    theta = draw(st.floats(min_value=0.01, max_value=math.pi / 2))
    alpha = draw(st.integers(min_value=1, max_value=m))
    desc, aux = {
        "berger": (f"berger:m={m},s={s!r},kappa={kappa!r}", {"alpha": alpha}),
        "spsphere": (
            f"spsphere:m={m},s={s!r},kappa={kappa!r}",
            {"phi1": draw(ANGLE) / 2, "phi2": draw(ANGLE), "alpha": alpha},
        ),
        "cpodd": (f"cpodd:m={m},kappa={kappa!r}", {"phi": draw(ANGLE), "alpha": alpha}),
        "b13": ("b13", {"phi1": draw(ANGLE) / 2, "phi2": draw(ANGLE)}),
        "w7": (f"w7:s={s!r}", {"phi": draw(ANGLE), "alpha": min(alpha, 2)}),
    }[family]
    return desc, theta, aux


@settings(max_examples=40, deadline=None, derandomize=True)
@given(slope_geodesics())
def test_scan_finds_every_closed_form_time(geodesic):
    # cross_validate raises Mismatch on a missed time or an incompatible class
    desc, theta, aux = geodesic
    space = build_space(desc)
    u, v = geodesic_pair(space, theta, aux)
    data = extract_cp_data(space, u, v)
    report = cross_validate(space, u, v, 7.0 / math.sqrt(data.lam + data.rho))
    assert report.all_matched and len(report.matched) == len(report.closed_form)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(slope_geodesics(), st.data())
def test_events_invariant_along_isotropy_orbit(geodesic, data):
    # exp(t ad_z) with z in k is an isometry fixing the origin: it maps Jacobi
    # fields along gamma_u to Jacobi fields along the rotated geodesic, so the
    # conjugate events, their multiplicities and isotropy flags are the same
    desc, theta, aux = geodesic
    space = build_space(desc)
    u = geodesic_pair(space, theta, aux)[0]
    z = np.zeros(space.algebra.dim)
    k = list(space.k_indices)
    z[k] = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(k), max_size=len(k)))
    rotated = ad_orbit_direction(space, z, u, data.draw(st.floats(-math.pi, math.pi)))
    assume(np.linalg.norm(rotated - u) > 1e-3)  # a direction off the stabilizer of u
    before = conjugate_events(space, u, 6.0)
    after = conjugate_events(space, rotated, 6.0)
    def kinds(events):
        return [(ev.multiplicity, ev.isotropic_exists, ev.strictly_isotropic) for ev in events]

    assert kinds(after) == kinds(before)
    np.testing.assert_allclose([ev.t for ev in after], [ev.t for ev in before], rtol=0, atol=1e-8)


@pytest.mark.parametrize("which", [0, 1])
def test_non_finite_pair_violates_the_hypotheses(which):
    space = build_space("berger:m=1,s=0.5")
    pair = [p.copy() for p in geodesic_pair(space, 0.7)]
    pair[which][-1] = math.nan
    with pytest.raises(HypothesisViolated, match="not orthonormal"):
        extract_cp_data(space, *pair)
