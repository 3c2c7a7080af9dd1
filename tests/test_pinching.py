import dataclasses

import numpy as np
import pytest

import homogeodesy.homogeneous as homogeneous
import homogeodesy.pinching as pinching
from homogeodesy.catalog import build_space
from homogeodesy.homogeneous import (
    BracketKernel,
    gaussian_pairs,
    rank_one_check,
    sectional_curvature,
)
from homogeodesy.pinching import estimate_pinching, expected_delta, pinching_curve

from oracles import naturally_reductive_curvature, random_pairs


def test_round_sphere_delta_is_one():
    rep = estimate_pinching(build_space("round:n=3,kappa=1"), multistarts=64)
    assert abs(rep.delta - 1.0) < 1e-9
    assert rep.converged


def test_two_dimensional_m_takes_no_step(monkeypatch):
    # round:n=2 has one tangent plane, so the tangent frame of the
    # Grassmannian is empty: the order-2 blocks, the 0 x 0 systems and the
    # lifted mu must all hold at n - 2 = 0, and no row may step
    def no_step(*args):
        raise AssertionError("a row stepped")

    monkeypatch.setattr(homogeneous, "_trial_pairs", no_step)
    space = build_space("round:n=2")
    rep = estimate_pinching(space)
    assert rep.optimizer_steps == 0 and rep.converged
    np.testing.assert_allclose([rep.k_min, rep.k_max, rep.delta], 1.0, rtol=0, atol=1e-14)
    one = rank_one_check(space)
    assert one.passed
    np.testing.assert_allclose(one.min_bracket_sq, 1.0, rtol=0, atol=1e-14)


def test_cp_delta_one_sixteenth():
    rep = estimate_pinching(build_space("cpodd:m=1,kappa=1"), multistarts=128)
    assert abs(rep.delta - 1.0 / 16.0) / (1.0 / 16.0) < 0.01
    assert abs(rep.k_min - 0.5) < 1e-6
    assert abs(rep.k_max - 8.0) < 1e-6


def test_scaling_covariance():
    # g_{kappa,s} = (1/kappa) g_s, so doubling kappa doubles both curvature
    # extremes (tau = kappa s (m+1)/(2m)) and leaves delta unchanged
    r1 = estimate_pinching(build_space("berger:m=2,s=0.5,kappa=1"), multistarts=64, seed=3)
    r2 = estimate_pinching(build_space("berger:m=2,s=0.5,kappa=2"), multistarts=64, seed=3)
    assert abs(r2.k_min - 2 * r1.k_min) < 1e-9
    assert abs(r2.k_max - 2 * r1.k_max) < 1e-9
    assert abs(r2.delta - r1.delta) < 1e-9


def test_report_bounds_hold_on_audit(rng):
    space = build_space("spsphere:m=1,s=0.5")
    rep = estimate_pinching(space, multistarts=64)
    xs = space.random_unit_m(rng, 5000)
    ys = space.random_unit_m(rng, 5000)
    ks = np.array([naturally_reductive_curvature(space, x, y) for x, y in zip(xs, ys)])
    assert ks.min() >= rep.k_min - 1e-6 * rep.k_max
    assert ks.max() <= rep.k_max + 1e-6 * rep.k_max
    assert 0 < rep.delta <= 1


def test_audit_widens_an_unconverged_bracket():
    # with no Newton step the screened starts miss both extremes of b13, so
    # the audit values outside [k_min, k_max] widen it and clear `converged`
    space = build_space("b13")
    rep = estimate_pinching(space, multistarts=3, max_iter=0)
    kernel = BracketKernel(space, 1, 0.25)
    audit = kernel.value(*gaussian_pairs(np.random.default_rng(1), 10_000, kernel.n))
    assert rep.converged is False
    assert rep.k_min <= audit.min() and audit.max() <= rep.k_max
    assert (rep.k_min, rep.k_max) == (audit.min(), audit.max())


def test_expected_delta_formulas():
    assert expected_delta("round") == 1.0
    assert expected_delta("cpodd") == 1.0 / 16.0
    assert abs(expected_delta("berger", m=2, s=0.5) - 1.5 / 11.5) < 1e-15
    assert abs(expected_delta("berger", m=1, s=1.0) - 1.0) < 1e-15
    assert abs(expected_delta("spsphere", m=1, s=0.5) - 0.0625) < 1e-15
    assert abs(expected_delta("spsphere", m=1, s=1.0) - 0.2) < 1e-15
    assert expected_delta("b13") is None


def test_sp_sphere_breakpoint_continuity():
    s = 2.0 / 3.0
    assert abs(s / (8 - 3 * s) - s * s / 4) < 1e-15
    rep = estimate_pinching(build_space(f"spsphere:m=1,s={s:.15g}"), multistarts=96)
    assert abs(rep.delta - 1.0 / 9.0) / (1.0 / 9.0) < 0.01


def test_pinching_curve_rows():
    rows = pinching_curve("spsphere", 1, [0.5, 1.0], multistarts=64)
    assert [row["s"] for row in rows] == [0.5, 1.0]
    for row in rows:
        assert row["rel_error"] < 0.01
        assert isinstance(row["converged"], bool)


def test_pinching_curve_rejects_unknown_family():
    with pytest.raises(ValueError):
        pinching_curve("b13", 1, [0.5])


def test_zero_audit_samples_rejected_before_optimizing(monkeypatch):
    def optimizer_must_not_run(*args):
        raise AssertionError("the optimizer ran")

    monkeypatch.setattr(pinching, "optimize_pairs", optimizer_must_not_run)
    with pytest.raises(ValueError, match="audit_samples must be >= 1"):
        estimate_pinching(build_space("round:n=3"), audit_samples=0)


def test_starts_that_have_not_agreed_are_not_converged():
    # after 3 steps the best k_min start of berger:m=2,s=0.5 is still 6.6e-6
    # above 3/8, and its third-closest start 3.0e-6 from it: outside
    # CONVERGENCE_RTOL (a bound of 1e-2 would call it converged)
    report = estimate_pinching(build_space("berger:m=2,s=0.5"), multistarts=32, max_iter=3)
    assert report.optimizer_steps == 3
    assert abs(report.k_min / 0.375 - 1.0) > 1e-6
    assert report.converged is False


@pytest.mark.parametrize("multistarts", [1, 2])
def test_too_few_multistarts_rejected_before_any_kernel_call(monkeypatch, multistarts):
    # converged needs three starts within CONVERGENCE_RTOL of each extreme
    def kernel_must_not_run(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(BracketKernel, "_evaluate", kernel_must_not_run)
    with pytest.raises(ValueError, match="multistarts must be >= 3"):
        estimate_pinching(build_space("cpodd:m=1"), multistarts=multistarts)


def test_multistarts_above_the_bound_rejected_before_any_draw(monkeypatch):
    # MAX_MULTISTARTS keeps `pinching` within the descriptor budget on the largest m
    class Reached(Exception):
        pass

    def optimizer_reached(*args):
        raise Reached

    def must_not_run(*args):
        raise AssertionError("a draw or the kernel ran")

    monkeypatch.setattr(pinching, "optimize_pairs", optimizer_reached)
    space = build_space("cpodd:m=1")
    with pytest.raises(Reached):
        estimate_pinching(space, multistarts=pinching.MAX_MULTISTARTS)
    monkeypatch.setattr(homogeneous, "gaussian_pairs", must_not_run)
    monkeypatch.setattr(pinching, "_audit_pairs", must_not_run)  # the audit's draw
    monkeypatch.setattr(BracketKernel, "_evaluate", must_not_run)
    with pytest.raises(ValueError, match=f"multistarts must be <= {pinching.MAX_MULTISTARTS}"):
        estimate_pinching(space, multistarts=pinching.MAX_MULTISTARTS + 1)


def test_negative_max_iter_rejected_before_any_kernel_call(monkeypatch):
    def kernel_must_not_run(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(BracketKernel, "_evaluate", kernel_must_not_run)
    with pytest.raises(ValueError, match="max_iter must be >= 0"):
        estimate_pinching(build_space("round:n=3"), max_iter=-1)


def test_report_carries_optimizer_stats():
    space = build_space("berger:m=2,s=0.5")
    doc = estimate_pinching(space, multistarts=8, seed=2).to_dict()
    assert doc == estimate_pinching(space, multistarts=8, seed=2).to_dict()
    assert 0 < doc["optimizer_steps"] < 400
    assert 0 <= doc["grad_norm_argmax"] < 1e-6
    assert 0 <= doc["grad_norm_argmin"] < 1e-6
    assert estimate_pinching(space, multistarts=8, seed=2, max_iter=3).optimizer_steps == 3
    assert estimate_pinching(build_space("round:n=3"), multistarts=8).optimizer_steps == 0


def test_pinching_kernel_evaluation_budget(monkeypatch):
    # one order-0 call screens the candidate starts of both extremes, one
    # order-2 call evaluates the starts, at most one call per optimizer step,
    # one for the audit
    calls = []
    evaluate = BracketKernel._evaluate

    def counted(self, *args, **kwargs):
        calls.append(1)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(BracketKernel, "_evaluate", counted)
    rep = estimate_pinching(build_space("b13"), multistarts=8, max_iter=20)
    assert rep.optimizer_steps <= 20
    assert len(calls) <= 1 + 1 + rep.optimizer_steps + 1


# optimizer_steps of estimate_pinching(space, multistarts=32, seed=0): rows
# near a saddle, whose damped Newton system is indefinite, used to wait for mu
# to outgrow the wrong-sign curvature and took 47, 44 and 48 steps; stepping
# along that curvature they took 28, 13 and 16, and starting from the best of
# START_SCREEN times as many random planes they take the 15, 10 and 12 allowed here
STEP_BUDGET = {
    "b13": 15,
    "cpodd:m=1,kappa=1.973439333218471": 10,
    "spsphere:m=1,s=0.8269679852604728,kappa=1.9841362282291077": 12,
}


@pytest.mark.parametrize("desc", sorted(STEP_BUDGET))
def test_optimizer_step_budget(desc):
    rep = estimate_pinching(build_space(desc), multistarts=32, seed=0)
    assert rep.optimizer_steps <= STEP_BUDGET[desc]
    assert rep.converged


@pytest.mark.parametrize("seed", [0, 4])
def test_audit_reads_raw_draws_of_the_seed_plus_one_stream(monkeypatch, seed):
    # the audit, the last order-0 call after the screen of the starts,
    # evaluates default_rng(seed + 1)'s Gaussian pairs, xs first, as drawn: the
    # same values as on their Gram-Schmidt pairs
    audits = []
    value = BracketKernel.value

    def recorded(self, xs, ys):
        audits.append(value(self, xs, ys))
        return audits[-1]

    monkeypatch.setattr(BracketKernel, "value", recorded)
    space = build_space("spsphere:m=1,s=0.5")
    rep = estimate_pinching(space, multistarts=8, seed=seed, audit_samples=3000)
    monkeypatch.undo()
    kernel = BracketKernel(space, 1.0, 0.25)
    want = kernel.value(*random_pairs(kernel, np.random.default_rng(seed + 1), 3000))
    assert len(audits) == 2 and audits[-1].shape == want.shape
    np.testing.assert_allclose(audits[-1], want, rtol=1e-13, atol=0)
    assert rep.k_min <= audits[-1].min() and rep.k_max >= audits[-1].max()


@pytest.mark.parametrize("seed, count, desc", [(1, 3000, "berger:m=2,s=0.5"), (7, 5, "b13")])
def test_audit_pairs_are_the_kernel_stream_read_only(seed, count, desc):
    kernel = BracketKernel(build_space(desc), 1.0, 0.25)
    got = pinching._audit_pairs(seed, count, kernel.n)
    want = gaussian_pairs(np.random.default_rng(seed), count, kernel.n)
    for a, b in zip(got, want, strict=True):
        np.testing.assert_array_equal(a, b)
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.0


def test_audit_draws_are_shared_by_equal_keys_only():
    # with no Newton step and 3 starts the audit sets both extremes (see
    # test_audit_widens_an_unconverged_bracket), so a report read from the
    # wrong draw would differ from the cold one
    a, b = build_space("berger:m=2,s=0.5"), build_space("berger:m=1,s=0.5")  # n = 5 and 3
    runs = [(a, {}), (b, {}), (a, {}), (a, {}), (a, {"seed": 1}), (a, {"audit_samples": 999})]

    def estimate(space, kwargs):
        return estimate_pinching(space, multistarts=3, max_iter=0, **kwargs).to_dict()

    pinching._audit_pairs.cache_clear()
    warm = [estimate(space, kwargs) for space, kwargs in runs]
    info = pinching._audit_pairs.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 5, 1)  # only the repeat of a is shared
    assert len({(d["k_min"], d["k_max"]) for d in (warm[0], warm[4], warm[5])}) == 3
    for (space, kwargs), doc in zip(runs, warm):
        pinching._audit_pairs.cache_clear()
        assert estimate(space, kwargs) == doc


def test_curvature_kernel_is_built_once_per_space(monkeypatch):
    space = dataclasses.replace(build_space("berger:m=2,s=0.5"))  # a copy with no kernel yet
    x, y = space.random_unit_m(np.random.default_rng(3), 2)
    want = BracketKernel(space, 1.0, 0.25).value(space.to_frame(x[None]), space.to_frame(y[None]))[0]
    builds = []
    init = BracketKernel.__init__

    def counted(self, *args):
        builds.append(args[1:])
        init(self, *args)

    monkeypatch.setattr(BracketKernel, "__init__", counted)
    assert sectional_curvature(space, x, y) == want
    reports = [estimate_pinching(space, multistarts=8, seed=seed).to_dict() for seed in (0, 1)]
    assert sectional_curvature(space, x, y) == want
    assert builds == [(1.0, 0.25)]
    assert reports[0] == estimate_pinching(build_space("berger:m=2,s=0.5"), multistarts=8).to_dict()


# k_min, k_max, delta, converged of estimate_pinching(space, multistarts=32,
# seed=0), recorded with one optimizer run per extreme
PINNED = {
    "b13": (0.10810810810810813, 7.25000000000001, 0.014911463187325238, True),
    "cpodd:m=1": (0.4999999999999999, 7.9999999999999964, 0.06250000000000001, True),
    "berger:m=1,s=0.5": (0.49999999999999967, 2.500000000000001, 0.1999999999999998, True),
    "berger:m=2,s=0.9": (0.6749999999999995, 1.9750000000000012, 0.3417721518987337, True),
    "spsphere:m=1,s=0.5": (0.24999999999999983, 4.000000000000001, 0.062499999999999944, True),
    "spsphere:m=2,s=0.3": (0.14999999999999988, 6.6666666666666705, 0.022499999999999968, True),
}


@pytest.mark.parametrize("desc", sorted(PINNED))
def test_pinching_constants_are_pinned(desc):
    rep = estimate_pinching(build_space(desc), multistarts=32, seed=0)
    *want, converged = PINNED[desc]
    np.testing.assert_allclose([rep.k_min, rep.k_max, rep.delta], want, rtol=1e-12, atol=0)
    assert rep.converged is converged
