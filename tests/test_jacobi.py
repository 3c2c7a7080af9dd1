import dataclasses
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
    MULTIPLICITY_RTOL,
    T_TOL,
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
    scan_with_stats,
)

from oracles import ad_orbit_direction, classify_two_pass, expm_propagator, ode_fundamental
from write_references import EDGE_INPUTS, EDGE_THETA


def _expm_singular_values(sys, t) -> np.ndarray:
    """The singular values of J(t), largest first, from the test-side exponential."""
    n = sys.n
    return np.linalg.svd(expm_propagator(sys.companion, t)[:n, n:], compute_uv=False)


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


def test_newton_exponentials_per_event():
    # Newton's propagations, counted in matrices: at most 20 per event
    space = build_space("b13")
    u = geodesic_direction(space, 0.9, {"phi1": 0.4, "phi2": 1.3})
    events, stats = scan_with_stats(build_system(space, u), 6.0)
    assert len(events) >= 5
    assert stats.propagations <= 20 * len(events)


def test_one_newton_exponential_per_simple_event():
    # each run holds one zero (of multiplicity 1, 3 or 6) and two samples within
    # about 1e-11 of it, whose predictions t + sigma_min and t - sigma_min agree
    # to Newton's landing tolerance: Newton starts there and lands at once, so
    # the whole scan takes one Newton round of one propagation per event
    space = build_space("b13")
    u = geodesic_direction(space, 0.9, {"phi1": 0.4, "phi2": 1.3})
    events, stats = scan_with_stats(build_system(space, u), 6.0)
    assert len(events) == 9
    assert stats.runs == stats.newton_starts == len(events)
    assert (stats.newton_rounds, stats.propagations) == (1, len(events))


def test_close_pair_starts_newton_on_its_lowest_sample(monkeypatch):
    # zeros 2.8e-7 apart near t = pi are reported as one event of multiplicity
    # 4; the cells next to their run's lowest sample predict no single zero, so
    # Newton starts on that sample and the rotated direction reports the same
    # time.  Started from the mean of two disagreeing predictions, one side
    # reported 3.1415926 and the other 3.1415923
    space = build_space("b13")
    u = geodesic_pair(space, 0.015625, {"phi1": 0.0, "phi2": 0.0})[0]
    z = np.zeros(space.algebra.dim)
    z[list(space.k_indices)[-1]] = 1.0
    rotated = ad_orbit_direction(space, z, u, 1.0)
    firsts, refine = [], jacobi._refine  # (run's ends, lowest sample, first start)

    def recording_refine(sys, ts, fs):
        run = refine(sys, ts, fs)
        row = next(run)
        firsts.append((ts[0], ts[-1], ts[np.argmin(fs)], row[2]))
        while True:
            reply = yield row
            try:
                row = run.send(reply)
            except StopIteration as done:
                return done.value

    monkeypatch.setattr(jacobi, "_refine", recording_refine)
    before, after = conjugate_events(space, u, 6.0), conjugate_events(space, rotated, 6.0)
    kinds = [[(ev.multiplicity, ev.isotropic_exists, ev.strictly_isotropic) for ev in events]
             for events in (before, after)]
    assert kinds[0] == kinds[1]
    np.testing.assert_allclose([ev.t for ev in after], [ev.t for ev in before], rtol=0, atol=1e-8)
    pair = [ev.t for ev in before if abs(ev.t - math.pi) < 1e-5]
    assert len(pair) == 1
    runs = [(lowest, start) for lo, hi, lowest, start in firsts if lo <= pair[0] <= hi]
    assert len(runs) == 2 and all(lowest == start for lowest, start in runs)


LOCKSTEP_INPUTS = [
    # rounds: stacked Newton rounds allowed over the whole scan; three per
    # Newton call on b13, twice the measured count otherwise
    ("b13", 0.9, {"phi1": 0.4, "phi2": 1.3}, 6.0, 3),  # nine runs, each lands in 1 round
    ("w7:s=0.959", 0.057744733155488566, {"phi": 2.7042823728344505}, 2.3, 6),  # one search
    ("w7:s=1e-6", 0.7, {}, 2.0, 12),  # 486 runs, 57 search; 4 + 2 rounds
]


@pytest.mark.parametrize("desc,theta,aux,t_max,rounds", LOCKSTEP_INPUTS)
def test_expm_calls_one_table_per_scan_and_one_per_newton_round(desc, theta, aux, t_max, rounds):
    space = build_space(desc)
    sys = build_system(space, geodesic_direction(space, theta, aux))
    events, stats = scan_with_stats(sys, t_max)
    assert len(events) >= 2
    assert stats.newton_rounds <= rounds  # Python-level Newton rounds
    # each Newton start is propagated at least once, and at most three times
    assert stats.newton_starts <= stats.propagations <= 3 * stats.newton_starts


@pytest.mark.parametrize("desc,theta,aux,t_max", [row[:4] for row in LOCKSTEP_INPUTS])
def test_each_newton_call_carries_the_next_start_of_every_searching_run(
    monkeypatch, desc, theta, aux, t_max
):
    # the lockstep's shape, which no ScanStats field holds: Newton call r
    # carries the r-th start of every run that is still searching, and each
    # round of a call propagates at least one of its rows, the first all of them
    space = build_space(desc)
    sys = build_system(space, geodesic_direction(space, theta, aux))
    newtons = []  # (rows, rounds, propagations) per Newton call
    starts = []  # Newton starts each run yields
    newton, refine = jacobi._newton, jacobi._refine

    def counting_refine(*args):
        run, reply, index = refine(*args), None, len(starts)
        starts.append(0)
        while True:
            try:
                row = run.send(reply)
            except StopIteration as done:
                return done.value
            starts[index] += 1
            reply = yield row

    def recording_newton(sys, lo, *rest):
        out = newton(sys, lo, *rest)
        newtons.append((len(lo), *out[2:]))
        return out

    monkeypatch.setattr(jacobi, "_newton", recording_newton)
    monkeypatch.setattr(jacobi, "_refine", counting_refine)
    _, stats = scan_with_stats(sys, t_max)
    # first every run's predicted zero (or its lowest sample), then each one's
    # next close-zero search
    assert [rows for rows, _, _ in newtons] == [
        sum(count > r for count in starts) for r in range(max(starts))
    ]
    for rows, took, propagations in newtons:
        assert rows + took - 1 <= propagations <= rows * took
    assert (stats.runs, stats.newton_starts) == (len(starts), sum(starts))
    assert [sum(column) for column in zip(*newtons)] == [
        stats.newton_starts, stats.newton_rounds, stats.propagations
    ]


def test_newton_ends_unlanded_in_a_zero_free_bracket():
    # sigma_min > 0.049 on [0.05, 0.1]: Newton bisects towards the lower end
    # until the bracket collapses there, lands nowhere, and its last probe has
    # no singular value below the multiplicity cutoff, so the run gives no event
    space = build_space("b13")
    sys = build_system(space, geodesic_direction(space, 0.9, {"phi1": 0.4, "phi2": 1.3}))
    probe, landed, _, propagations = jacobi._newton(sys, *np.array([[0.05], [0.1], [0.075]]))
    sv = probe[1][0]
    assert not landed[0] and abs(probe[0][0] - 0.05) <= 1e-14
    assert sv[-1] > 0.049 and not np.any(sv < jacobi.MULTIPLICITY_RTOL * sv[0])
    assert propagations <= jacobi._MAX_NEWTON
    ts, total = np.linspace(0.05, 0.1, 5), 0
    run, reply, starts = jacobi._refine(sys, ts, jacobi._sigma_min(sys, ts)), None, 0
    with pytest.raises(StopIteration) as done:
        while True:
            start = run.send(reply)
            starts += 1
            probes, landed, _, propagations = jacobi._newton(sys, *np.array([start]).T)
            total += propagations
            reply = tuple(column[0] for column in probes), landed[0]
    assert done.value.value == [] and starts == 2  # the lowest sample, then the other end
    assert total <= starts * jacobi._MAX_NEWTON


def test_a_run_beside_a_zero_gives_no_event():
    # a run that starts 1e-8 past a zero: sigma_min' points out of it at both
    # ends, so Newton stops on its low end twice, unlanded, where sigma_min is
    # 1e-8, under the multiplicity cutoff yet no zero; such a probe is no event
    space = build_space("b13")
    sys = build_system(space, geodesic_direction(space, 0.9, {"phi1": 0.4, "phi2": 1.3}))
    zero = scan_conjugate_times(sys, 1.5)[0].t
    ts = zero + np.linspace(1e-8, 1e-6, 5)
    run, reply, starts = jacobi._refine(sys, ts, jacobi._sigma_min(sys, ts)), None, 0
    with pytest.raises(StopIteration) as done:
        while True:
            start = run.send(reply)
            starts += 1
            probes, landed, _, _ = jacobi._newton(sys, *np.array([start]).T)
            probe = tuple(column[0] for column in probes)
            assert not landed[0] and abs(probe[0] - ts[0]) <= 1e-14 * ts[0]
            assert np.sum(probe[1] < jacobi.MULTIPLICITY_RTOL * probe[1][0]) == 1
            reply = probe, landed[0]
    assert done.value.value == [] and starts == 2  # the lowest sample, then the other end


def test_refine_drops_a_probe_with_no_vanishing_singular_value():
    # a first probe strictly inside its run that did not land, and so is not
    # stuck on an end of the run, whose singular values all lie above the
    # multiplicity cutoff is no event: Newton on the collapsed bracket [t, t]
    # at a zero-free t returns such a probe
    space = build_space("b13")
    sys = build_system(space, geodesic_direction(space, 0.9, {"phi1": 0.4, "phi2": 1.3}))
    ts = np.linspace(0.05, 0.1, 5)  # sigma_min > 0.049 here
    run = jacobi._refine(sys, ts, jacobi._sigma_min(sys, ts))
    next(run)
    probes, landed, _, _ = jacobi._newton(sys, *np.array([[0.075], [0.075], [0.075]]))
    probe = tuple(column[0] for column in probes)
    assert not landed[0] and probe[0] == 0.075
    assert not np.any(probe[1] < jacobi.MULTIPLICITY_RTOL * probe[1][0])
    with pytest.raises(StopIteration) as done:
        run.send((probe, landed[0]))
    assert done.value.value == []


SAMPLED_GEODESICS = [
    ("berger:m=2,s=0.5", 0.7, {}),
    ("spsphere:m=1,s=0.5", 1.1, {"phi1": 0.8, "phi2": 2.0}),
    ("cpodd:m=2,kappa=2", 0.3, {"phi": 0.5, "alpha": 2}),
    ("b13", 0.9, {"phi1": 0.4, "phi2": 1.3}),
    ("w7:s=0.5", 0.2, {"phi": 2.7}),
    # the one geodesic here whose samples move when a level's new times reach
    # _sigma_min out of time order (every a, then every b)
    ("b13", 0.9789830595183625, {"phi1": 0.8120129155591033, "phi2": 2.359056159939254}),
]


@pytest.mark.parametrize("desc,theta,aux", SAMPLED_GEODESICS)
def test_propagated_samples_match_fresh_expm(desc, theta, aux):
    # grid and midpoint samples come from the modes of K; each must agree with
    # the matrix exponential taken at its own time
    space = build_space(desc)
    sys = build_system(space, geodesic_direction(space, theta, aux))
    ts, fs, suspicious, _ = _samples(sys, 6.0, default_scan_step(sys))
    assert len(ts) == len(fs) == len(suspicious) + 1
    assert np.all(np.diff(ts) > 0) and suspicious.any()
    # bisection reaches the leaf, so every level's midpoints are exercised
    assert np.diff(ts).min() < 2 * _LEAF
    n = sys.n
    for t, f in zip(ts, fs):
        e = expm_propagator(sys.companion, t)
        want = np.linalg.svd(e[:n, n:], compute_uv=False)[-1]
        assert abs(f - want) <= 1e-12 * max(1.0, np.linalg.norm(e, 2)), (t, f, want)


def _assert_final_gaps_are_certified(sys, t_max, events=None):
    """The sampler's contract, read off its output (see _samples).

    The samples strictly increase and hold the whole grid.  Each final gap is
    cleared by the test sigma(lo) + sigma(hi) > L (hi - lo) + 2 delta, with the
    L and delta of ScanStats, or is kept: the suspicious flags are that test's
    failures.  A kept gap is narrower than _LEAF and cannot jump: its certified
    zero-free ends [lo, a) and (b, hi], a = lo + (f_lo - delta) / L and b = hi -
    (f_hi - delta) / L, leave no lo < a < b < hi with b - a at most half its
    width.  Every event of the scan lies in a kept gap (events, when given,
    stand for the scan's).  The leaf and step are read from jacobi at the call."""
    step = jacobi.default_scan_step(sys)
    ts, fs, suspicious, stats = _samples(sys, t_max, step)
    lip, delta = stats.lipschitz, stats.delta
    assert np.all(np.diff(ts) > 0)
    grid = np.arange(step / 2.0, t_max + 1.5 * step, step)
    assert stats.grid_points == len(grid) and np.isin(grid, ts).all()
    assert ts[0] == grid[0] and ts[-1] == grid[-1] and stats.samples == len(ts)
    lo, hi, f_lo, f_hi = ts[:-1], ts[1:], fs[:-1], fs[1:]
    width = hi - lo
    kept = f_lo + f_hi <= lip * width + 2.0 * delta
    np.testing.assert_array_equal(suspicious, kept)
    a, b = lo + (f_lo - delta) / lip, hi - (f_hi - delta) / lip
    can_jump = (lo < a) & (a < b) & (b < hi) & (b - a <= 0.5 * width)
    assert not np.any(kept & ((width >= jacobi._LEAF) | can_jump)), np.flatnonzero(kept & can_jump)
    times = [ev.t for ev in (scan_conjugate_times(sys, t_max) if events is None else events)]
    gaps = np.searchsorted(ts, times) - 1  # the gap [ts[i], ts[i + 1]] of each event
    assert np.all(suspicious[gaps]), np.asarray(times)[~suspicious[gaps]]
    return ts, fs, suspicious, stats


# samples and sigma_min batches of each scan of SAMPLED_GEODESICS to t = 6,
# by (desc, theta); jumps (see _samples) set them, as EDGE_COUNTS pins the edge inputs'
SAMPLE_COUNTS = {
    ("berger:m=2,s=0.5", 0.7): (57, 4),
    ("spsphere:m=1,s=0.5", 1.1): (82, 4),
    ("cpodd:m=2,kappa=2", 0.3): (155, 3),
    ("b13", 0.9): (111, 5),
    ("w7:s=0.5", 0.2): (92, 10),
    ("b13", 0.9789830595183625): (108, 7),
}


@pytest.mark.parametrize("desc,theta,aux", SAMPLED_GEODESICS)
def test_bisection_levels_match_insertion_reference(desc, theta, aux):
    # live intervals per level and one sort at the end leave final gaps that
    # each clear or stop at the leaf, with every event in a kept one, from the
    # pinned number of samples and batches
    space = build_space(desc)
    sys = build_system(space, geodesic_direction(space, theta, aux))
    ts, _, _, stats = _assert_final_gaps_are_certified(sys, 6.0)
    assert (stats.samples, stats.batches) == SAMPLE_COUNTS[desc, theta]
    assert np.diff(ts).min() < 2 * _LEAF


# events, multiplicity sum, samples and sigma_min batches of each cut-short edge
# input: the samples move with each term of delta (with a tenth of its part (1)
# the cpodd input takes 1685 samples, with 100 delta 1677)
EDGE_COUNTS = {
    "cpodd:m=1,kappa=1e4": (141, 193, 1683, 5),
    "spsphere:m=1,s=1e-6": (172, 344, 5018, 3),
    "w7:s=1e-6": (121, 242, 3545, 3),
}


@pytest.mark.parametrize("desc,t_max", EDGE_INPUTS)
def test_edge_inputs_keep_their_counts(desc, t_max):
    space = build_space(desc)
    events, stats = scan_with_stats(build_system(space, geodesic_direction(space, EDGE_THETA)), t_max)
    got = len(events), sum(ev.multiplicity for ev in events), stats.samples, stats.batches
    assert got == EDGE_COUNTS[desc]


@pytest.mark.parametrize("desc,t_max", EDGE_INPUTS)
def test_bisection_levels_match_insertion_reference_on_edge_inputs(desc, t_max):
    space = build_space(desc)
    sys = build_system(space, geodesic_direction(space, EDGE_THETA))
    stats = _assert_final_gaps_are_certified(sys, t_max)[3]
    assert (stats.samples, stats.batches) == EDGE_COUNTS[desc][2:]


def test_bisection_levels_match_insertion_reference_across_blocks():
    space = build_space("berger:m=2,s=0.5")
    sys = build_system(space, geodesic_direction(space, 0.7))
    assert 300.0 / default_scan_step(sys) > 2 * _BLOCK
    stats = _assert_final_gaps_are_certified(sys, 300.0)[3]
    assert (stats.samples, stats.batches) == (2896, 6)


def test_power_of_two_leaf_step_counts_every_level(monkeypatch):
    # a bisected row of width exactly _LEAF still splits and one of width
    # _LEAF / 2 does not.  With sigma_min = 0 no row jumps (a < lo) and every
    # row is suspicious; a dyadic step and leaf keep every midpoint exact, so
    # the final rows are exactly _LEAF / 2 wide
    space = build_space("cpodd:m=1")
    sys = build_system(space, geodesic_direction(space, 0.7))
    leaf = 2.0**-17
    monkeypatch.setattr(jacobi, "_LEAF", leaf)
    monkeypatch.setattr(jacobi, "default_scan_step", lambda s: leaf * 2**10)
    monkeypatch.setattr(jacobi, "_sigma_min", lambda s, ts: np.zeros(len(ts)))
    ts, _, suspicious = _assert_final_gaps_are_certified(sys, 0.02, events=[])[:3]
    assert len(ts) > 3 * 2**10 and suspicious.all()
    np.testing.assert_array_equal(np.diff(ts), leaf / 2)


def test_a_gap_within_two_deltas_of_clearing_is_split(monkeypatch):
    # the clearing test allows for the error delta of each of its two samples:
    # with sigma_min = c on the grid, 2c = L h + 3 delta / 2 clears L h + delta
    # but not L h + 2 delta, so each grid cell must jump (b - a = delta / (2L))
    space = build_space("b13")
    sys = build_system(space, geodesic_direction(space, 0.9, {"phi1": 0.4, "phi2": 1.3}))
    step = default_scan_step(sys)
    _, _, _, stats = _samples(sys, 1.0, step)
    level = 0.5 * (stats.lipschitz * step + 1.5 * stats.delta)
    monkeypatch.setattr(jacobi, "_sigma_min", lambda s, ts: np.full(len(ts), level))
    ts, _, suspicious, stats = _samples(sys, 1.0, step)
    assert stats.batches == 2 and stats.samples == 3 * stats.grid_points - 2
    assert not suspicious.any()


SCALAR_NEWTON_INPUTS = [(desc, theta, aux, 6.0) for desc, theta, aux in SAMPLED_GEODESICS] + [
    ("b13", 0.22977933257562105, {"phi1": 0.4701283207489579, "phi2": 4.732149539600932}, 6.4),
    ("w7:s=0.959", 0.057744733155488566, {"phi": 2.7042823728344505}, 2.3),
    ("cpodd:m=1,kappa=1e4", 0.7, {}, 1.0),
    ("spsphere:m=1,s=1e-6", 0.7, {}, 0.5),
    ("w7:s=1e-6", 0.7, {}, 0.5),
    ("w7:s=1e-6", 0.7, {}, 2.0),  # 57 close-zero searches in one Newton call
]
# events and multiplicity sum of each scan of SCALAR_NEWTON_INPUTS, by (desc, theta, t_max)
NEWTON_COUNTS = {
    ("berger:m=2,s=0.5", 0.7, 6.0): (2, 4),
    ("spsphere:m=1,s=0.5", 1.1, 6.0): (6, 11),
    ("cpodd:m=2,kappa=2", 0.3, 6.0): (10, 16),
    ("b13", 0.9, 6.0): (9, 20),
    ("w7:s=0.5", 0.2, 6.0): (6, 6),
    ("b13", 0.9789830595183625, 6.0): (9, 20),
    ("b13", 0.22977933257562105, 6.4): (11, 24),
    ("w7:s=0.959", 0.057744733155488566, 2.3): (2, 2),
    ("cpodd:m=1,kappa=1e4", 0.7, 1.0): (141, 193),
    ("spsphere:m=1,s=1e-6", 0.7, 0.5): (172, 344),
    ("w7:s=1e-6", 0.7, 0.5): (121, 242),
    ("w7:s=1e-6", 0.7, 2.0): (543, 972),
}
# J(t) of the library and of the test's exponential may differ by this much,
# relative to max(1, ||E||_2): each is backward stable to a modest multiple of
# the unit roundoff times ||E|| (the sample tolerance of
# test_propagated_samples_match_fresh_expm; a modal J measured 1.7e-14)
PROPAGATOR_RTOL = 1e-12


@pytest.mark.parametrize("desc,theta,aux,t_max", SCALAR_NEWTON_INPUTS)
def test_lockstep_newton_matches_scalar_newton(desc, theta, aux, t_max):
    # every run refined at once gives events that one exponential at each
    # event's own time confirms: the pinned events and multiplicity sum; each
    # event a zero of J(t); its multiplicity the singular values under the
    # cutoff; its kernel rows orthonormal and spanning their right-singular space
    space = build_space(desc)
    sys = build_system(space, geodesic_direction(space, theta, aux))
    events, stats = scan_with_stats(sys, t_max)
    assert (len(events), sum(ev.multiplicity for ev in events)) == NEWTON_COUNTS[desc, theta, t_max]
    n = sys.n
    for event in events:
        e = expm_propagator(sys.companion, event.t)
        _, sv, vt = np.linalg.svd(e[:n, n:])
        eps, mult = PROPAGATOR_RTOL * max(1.0, np.linalg.norm(e, 2)), event.multiplicity
        # sigma_min is L-Lipschitz (scan_conjugate_times), and the event lies
        # within T_TOL of its zero
        assert sv[-1] <= stats.lipschitz * T_TOL + eps, (event.t, sv[-1])
        cutoff = MULTIPLICITY_RTOL * sv[0]
        assert np.all(sv[n - mult :] < cutoff), (event.t, mult, sv / sv[0])
        assert mult == n or sv[n - mult - 1] >= cutoff, (event.t, mult, sv / sv[0])
        kernel = space.to_frame(event.kernel)
        # the ON-frame round trip and the SVD keep the rows orthonormal to
        # rounding (measured at most 2.3e-15)
        np.testing.assert_allclose(kernel @ kernel.T, np.eye(mult), rtol=0, atol=1e-13)
        if mult < n:
            # Wedin's sin-theta theorem: the kernel is a right-singular space
            # of the library's J, within eps of the test's J, so the sine of its
            # largest principal angle to the test's space is at most eps over
            # the gap sigma_{n-mult}(J) - (sigma_{n-mult+1}(J) + eps)
            sine = np.linalg.norm(kernel @ vt[: n - mult].T, 2)
            assert sine <= eps / (sv[n - mult - 1] - sv[n - mult] - eps), (event.t, sine)
    # Newton keeps to its bracket: between each two consecutive events, in the
    # bracket [lo, hi] that leaves out an eighth of the gap on each side,
    # started a sixteenth of the way in, where a Newton step would jump to the
    # event below lo, every row stays in its bracket and lands nowhere (the
    # first 64 events: each row bisects about 47 times before it collapses)
    times = np.array([ev.t for ev in events[:64]])
    lo, hi = times[:-1] + np.diff(times) / 8, times[1:] - np.diff(times) / 8
    probes, landed, _, _ = jacobi._newton(sys, lo, hi, lo + (hi - lo) / 16)
    assert not landed.any() and np.all((lo <= probes[0]) & (probes[0] <= hi))


@pytest.mark.parametrize("desc,theta,aux,t_max", SCALAR_NEWTON_INPUTS)
def test_scan_flags_match_two_pass_classification(desc, theta, aux, t_max):
    # each event is classified where the scan finds it, from its ON-frame
    # kernel rows; its flags are those of a second pass over finished events
    space = build_space(desc)
    sys = build_system(space, geodesic_direction(space, theta, aux))
    events = scan_conjugate_times(sys, t_max)
    assert events
    for event in events:
        flags = (event.isotropic_exists, event.strictly_isotropic)
        assert all(type(flag) is bool for flag in flags), (event.t, flags)
        assert flags == classify_two_pass(sys, event.kernel), event.t


@pytest.mark.parametrize(
    "theta,aux,t_max",
    [
        (0.9, {"phi1": 0.4, "phi2": 1.3}, 6.0),
        # the last run starts past t_max: it is not refined, so not classified
        (
            1.0177711855734826,
            {"phi1": 0.1594931532923511, "phi2": 4.393609603929916},
            5.331103066367819,
        ),
    ],
)
def test_scan_classifies_once_per_event_without_qr_or_to_frame(monkeypatch, theta, aux, t_max):
    space = build_space("b13")
    sys = build_system(space, geodesic_direction(space, theta, aux))
    calls = []

    def counted(name, real):
        return lambda *args, **kw: calls.append(name) or real(*args, **kw)

    monkeypatch.setattr(jacobi, "classify_isotropy", counted("classify", jacobi.classify_isotropy))
    monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
    to_frame = homogeneous.ReductiveSpace.to_frame
    monkeypatch.setattr(homogeneous.ReductiveSpace, "to_frame", counted("to_frame", to_frame))
    events = scan_conjugate_times(sys, t_max)
    assert len(events) >= 5 and calls == ["classify"] * len(events)


def test_bisection_samples_per_event():
    # the certificate's slack sets how many intervals stay live; the energy
    # bound ||J'|| <= 1 keeps about 21 samples per event here with midpoints
    # only (about 30 with the cell bound e^{nu h/2} ||[E_21 | E_22]||, 99 with
    # ||E|| e^{||A|| h/2}), and about 12 with samples at the ends of the
    # certified zero-free zones (jumps, see _samples)
    space = build_space("b13")
    u = geodesic_direction(space, 0.9, {"phi1": 0.4, "phi2": 1.3})
    events, stats = scan_with_stats(build_system(space, u), 6.0)
    assert len(events) >= 5
    assert stats.samples <= 25 * len(events)


@pytest.mark.parametrize(
    "desc,theta,aux,batches",
    [
        # midpoints alone take 15 batches on both: the grid, then 14 levels to
        # halve a step of about 0.1 to the 1e-5 leaf; jumps take 9 and 4
        ("b13", 0.9, {"phi1": 0.4, "phi2": 1.3}, 10),
        ("berger:m=1,s=0.5", 0.7, {}, 5),
    ],
)
def test_jumps_cut_the_sigma_min_batches_per_scan(desc, theta, aux, batches):
    space = build_space(desc)
    events, stats = scan_with_stats(build_system(space, geodesic_direction(space, theta, aux)), 6.0)
    assert events
    assert stats.batches <= batches, stats


def test_every_event_is_a_zero_on_w7():
    # a Newton start that stops on an end of its run without landing is no
    # event (_refine); reported, such probes put events at t = 3.6063835159
    # and 3.9473038178 here, where sigma_min / sigma_max is 1.2e-9 and 4.3e-8.
    # The counts are those of midpoint bisection; Newton lands at a relative
    # step of 1e-14, and the worst event measured 1.3e-14
    space = build_space("w7:s=1e-6")
    sys = build_system(space, geodesic_direction(space, 0.7))
    events = scan_conjugate_times(sys, 4.0)
    assert (len(events), sum(e.multiplicity for e in events)) == (1518, 1947)
    for event in events:
        sv = _expm_singular_values(sys, event.t)
        assert sv[-1] <= 1e-12 * sv[0], (event.t, sv[-1] / sv[0])


@pytest.mark.parametrize("desc,theta,aux", SAMPLED_GEODESICS)
def test_certificate_bounds_j_prime_inside_cells(desc, theta, aux):
    # the one constant L must bound ||J'(t)|| = ||E_22(t)|| at every t, not only
    # at the samples; delta, the error bound of a modal sample, leaves room for
    # the rounding of one fresh expm
    space = build_space(desc)
    sys = build_system(space, geodesic_direction(space, theta, aux))
    n, step = sys.n, default_scan_step(sys)
    stats = _samples(sys, 6.0, step)[3]
    lip, delta = stats.lipschitz, stats.delta
    assert 1.0 <= lip <= 1.0 + 1e-12
    grid = np.arange(step / 2.0, 6.0 + 1.5 * step, step)
    for left, right in zip(grid[:-1], grid[1:]):
        for t in np.linspace(left, right, 10)[1:-1]:
            e = expm_propagator(sys.companion, t)
            assert np.linalg.norm(e[n:, n:], 2) <= lip + delta, (t, lip)
            j_prime = e[:n, :n] + e[:n, n:] @ sys.T
            assert np.max(np.abs(e[n:, n:] - j_prime)) <= 1e-12 * np.linalg.norm(e, 2)


def _assert_sample_error_within_delta(sys, t_max):
    # delta is the derived forward-error bound of a modal sample; the clearing
    # test sigma(a) + sigma(b) > L w + 2 delta relies on it, and it stays far
    # below the leaf so that it does not set how deep the bisection goes
    ts, fs, _, stats = _samples(sys, t_max, default_scan_step(sys))
    delta = stats.delta
    assert 0.0 < delta <= 1e-3 * _LEAF
    for t, f in zip(ts, fs):
        want = _expm_singular_values(sys, t)[-1]
        assert abs(f - want) <= delta, (t, f, want, delta)


@pytest.mark.parametrize("desc,theta,aux", SAMPLED_GEODESICS)
def test_sample_error_within_delta(desc, theta, aux):
    space = build_space(desc)
    sys = build_system(space, geodesic_direction(space, theta, aux))
    _assert_sample_error_within_delta(sys, 6.0)


@pytest.mark.parametrize("desc,t_max", EDGE_INPUTS)
def test_sample_error_within_delta_on_edge_inputs(desc, t_max):
    space = build_space(desc)
    sys = build_system(space, geodesic_direction(space, EDGE_THETA))
    _assert_sample_error_within_delta(sys, t_max)


@pytest.mark.parametrize(
    "desc,theta,aux", SAMPLED_GEODESICS + [(desc, EDGE_THETA, {}) for desc, _ in EDGE_INPUTS]
)
def test_no_sample_needed_before_half_a_step(desc, theta, aux):
    # ||J(t) - tI|| <= L (t^2 ||T|| / 2 + t^3 ||R|| / 6) keeps sigma_min(J) > 0
    # on ]0, h/2], so the grid may start at h/2 (see _samples)
    space = build_space(desc)
    sys = build_system(space, geodesic_direction(space, theta, aux))
    half = default_scan_step(sys) / 2.0
    lip = math.cosh(math.sqrt(max(0.0, -sys.r_evals[0])) * half)
    for t in half * np.array([1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0]):
        spread = lip * (t * sys.norm_t / 2.0 + t**2 * sys.norm_r / 6.0)
        assert spread <= 0.066
        sigma = _expm_singular_values(sys, t)[-1]
        assert sigma >= t * (1.0 - spread), (t, sigma, spread)


def test_indefinite_jacobi_operator_is_refused(monkeypatch):
    # the energy bound needs R >= 0; an R with a negative eigenvalue is refused
    space = build_space("b13")
    u = space.basis_vector("e_1")
    t, r = homogeneous.connection_ops(space, u)
    monkeypatch.setattr(jacobi, "connection_ops", lambda *args: (t, r - 0.1 * np.eye(len(r))))
    with pytest.raises(JacobiError, match="indefinite"):
        build_system(space, u)


# the spaces the CI verify step builds
CI_SPACES = ["berger:m=2,s=0.5", "spsphere:m=2,s=0.5", "cpodd:m=2", "b13", "w7:s=0.5", "round:n=3"]


@pytest.mark.parametrize("desc", CI_SPACES)
def test_build_system_matches_two_ad_formulas(desc, rng):
    # in the ON frame, T x = -[u, x]_m and R x = [[u, x]_k, u], each bracket
    # taken by algebra.brackets on the frame's vectors, to rounding relative to
    # ||T|| and ||R||: both routes sum at most dim products per entry in two
    # products and a change of frame (measured at most 1.8e-16 relative), and
    # 1e-13 leaves room for dim up to a few hundred.  T is exactly skew and R
    # exactly symmetric, the companion is [[0, I], [-R, T]], and norm_t is ||T||_2
    space = build_space(desc)
    alg, k = space.algebra, space.part_indices("K")
    for u in space.random_unit_m(rng, 10):
        sys = build_system(space, u)
        n = sys.n
        frame = space.from_frame(np.eye(n))  # row j: the j-th ON frame vector of m
        ux = alg.brackets(sys.u[None], frame)[0]  # row j: [u, x_j]
        ux_k = np.zeros_like(ux)
        ux_k[:, k] = ux[:, k]
        torsion = space.to_frame(-ux).T  # column j: -[u, x_j]_m
        jacobi_op = space.to_frame(alg.brackets(ux_k, sys.u[None])[:, 0]).T  # [[u, x_j]_k, u]
        np.testing.assert_allclose(sys.T, torsion, rtol=0, atol=1e-13 * max(1.0, sys.norm_t))
        np.testing.assert_allclose(sys.R, jacobi_op, rtol=0, atol=1e-13 * max(1.0, sys.norm_r))
        np.testing.assert_array_equal(sys.T, -sys.T.T)
        np.testing.assert_array_equal(sys.R, sys.R.T)
        zero, one = np.zeros((n, n)), np.eye(n)
        np.testing.assert_array_equal(sys.companion, np.block([[zero, one], [-sys.R, sys.T]]))
        assert sys.norm_t == pytest.approx(np.linalg.norm(sys.T, 2), rel=1e-14, abs=1e-300)


def test_adjointness_is_tested_relative_to_the_operators(rng):
    # the asymmetry of R at kappa = 1e8 is 8.9e-8, rounding on ||R|| = 5.7e8,
    # so the system scans
    space = build_space("cpodd:m=1,kappa=1e8")
    sys = build_system(space, geodesic_direction(space, 0.7))
    assert np.max(np.abs(sys.R)) > 1e8
    events = scan_conjugate_times(sys, 0.01)
    assert len(events) >= 100
    for event in events[::10]:
        sv = _expm_singular_values(sys, event.t)
        assert sv[-1] <= 1e-12 * sv[0], (event.t, sv[-1] / sv[0])
    # a structure tensor that is not ad-invariant for the Gram (off by 1e-6)
    # gives a T that is not skew and an R that is not symmetric: refused
    space = build_space("w7:s=0.5")
    c = rng.standard_normal(space.algebra.structure.shape)
    broken = space.algebra.structure + 1e-6 * (c - c.transpose(1, 0, 2))
    space = dataclasses.replace(space, algebra=dataclasses.replace(space.algebra, structure=broken))
    with pytest.raises(JacobiError, match="adjointness"):
        build_system(space, geodesic_direction(space, 0.7))


def test_small_s_operators_are_adjoint_to_rounding():
    # at s <= 1e-8, ||T|| = 1.5e4 to 6.8e4: T and R are read from the
    # pairing's structure constants, which keep ad-invariance to rounding, so
    # R is symmetric to rounding on ||R|| = 3 to 5.7 and the systems build
    for desc in ("spsphere:m=1,s=1e-8", "spsphere:m=1,s=1e-9", "w7:s=1e-8", "w7:s=1e-9"):
        space = build_space(desc)
        sys = build_system(space, geodesic_direction(space, 0.7))
        ops = homogeneous.connection_ops(space, sys.u)
        t, r = (space.chol_m.T @ op @ space.frame_m for op in ops)
        assert sys.norm_t > 1e4
        assert np.max(np.abs(r - r.T)) <= 1e-15 * sys.norm_r, desc
        assert np.max(np.abs(t + t.T)) <= 1e-15 * sys.norm_t, desc
    assert len(scan_conjugate_times(sys, 0.05)) == 384  # w7:s=1e-9


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
    for name in ("eigh", "eigvalsh", "norm", "svd"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _name=name, **kw):
            if _name != "norm" or (args[0] if args else kw.get("ord")) == 2:
                calls.append((_name, np.array(a)))
            return _real(a, *args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    events = conjugate_events(space, u, 12.0)
    monkeypatch.undo()
    assert len(events) > 0
    sys = build_system(space, u)
    # ||T||_2 is the top singular value of one SVD of T; the scan's other SVDs
    # are of J and of its kernels
    assert [name for name, a in calls if np.array_equal(a, sys.T)] == ["svd"]
    calls = [(name, a) for name, a in calls if name != "svd" or np.array_equal(a, sys.T)]
    assert [name for name, _ in calls] == ["eigh", "svd", "eigh"]
    assert np.array_equal(calls[0][1], sys.R) and np.array_equal(calls[1][1], sys.T)
    # the third is iK, K = [[0, S], [-S, T]] with S^2 = R: the modes of the samples
    herm, n = calls[2][1], sys.n
    assert np.array_equal(herm, herm.conj().T) and np.array_equal(herm[n:, n:], 1j * sys.T)
    assert not herm[:n, :n].any()
    np.testing.assert_allclose((herm @ herm)[:n, :n].real, sys.R, atol=1e-12)


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
