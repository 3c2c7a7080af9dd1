import numpy as np
import pytest

import homogeodesy.pinching as pinching
from homogeodesy.catalog import build_space
from homogeodesy.homogeneous import BracketKernel, sectional_curvature
from homogeodesy.pinching import estimate_pinching, expected_delta, pinching_curve


def test_round_sphere_delta_is_one():
    rep = estimate_pinching(build_space("round:n=3,kappa=1"), multistarts=64)
    assert abs(rep.delta - 1.0) < 1e-9
    assert rep.converged


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
    ks = np.array(
        [sectional_curvature(space, x, y, mode="naturally_reductive") for x, y in zip(xs, ys)]
    )
    assert ks.min() >= rep.k_min - 1e-6 * rep.k_max
    assert ks.max() <= rep.k_max + 1e-6 * rep.k_max
    assert 0 < rep.delta <= 1


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
    # one kernel call for the starts of both extremes, at most one per
    # optimizer step, one for the audit
    calls = []
    evaluate = BracketKernel._evaluate

    def counted(self, *args, **kwargs):
        calls.append(1)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(BracketKernel, "_evaluate", counted)
    estimate_pinching(build_space("b13"), multistarts=8, max_iter=20)
    assert len(calls) <= 20 + 2


@pytest.mark.parametrize("seed", [0, 4])
def test_audit_reads_raw_draws_of_the_seed_plus_one_stream(monkeypatch, seed):
    # the audit evaluates default_rng(seed + 1)'s Gaussian pairs, xs first, as
    # drawn: the same values as on their Gram-Schmidt pairs
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
    want = kernel.value(*kernel.random_pairs(np.random.default_rng(seed + 1), 3000))
    assert len(audits) == 1 and audits[0].shape == want.shape
    np.testing.assert_allclose(audits[0], want, rtol=1e-13, atol=0)
    assert rep.k_min <= audits[0].min() and rep.k_max >= audits[0].max()


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
