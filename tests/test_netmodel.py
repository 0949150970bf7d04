import random

import pytest

from hetsim.domain import StrategyParams
from hetsim.evaluation import net_eva, normalize
from hetsim.netmodel import NetworkProfile, ground_truth_eval, perf_at, sample_link

PARAMS = StrategyParams(n_exp=30, rho=0.5, sigma=0.5)


def profile(**kw):
    base = dict(d0=0.01, a=0.1, p0=0.02, b=0.05, g0=0.002, h=0.05, cap=50,
                exponent=2)
    base.update(kw)
    return NetworkProfile(**base)


def test_perf_at_zero_load_is_base():
    delay, plr, jit = perf_at(profile(), 0)
    assert delay == 0.01
    assert plr == 0.02
    assert jit == 0.002


def test_perf_at_full_cap():
    delay, _, _ = perf_at(profile(a=0.1, cap=50), 50)
    assert delay == pytest.approx(0.11, abs=1e-15)


def test_plr_clamped_at_one():
    _, plr, _ = perf_at(profile(p0=0.02, b=2.0, cap=50), 100)
    assert plr == 1.0  # raw value 8.02


def test_perf_rejects_negative_load():
    with pytest.raises(ValueError):
        perf_at(profile(), -1)


def test_perf_nondecreasing_and_convex():
    p = profile()
    for n in range(0, 200):
        d0, l0, j0 = perf_at(p, n)
        d1, l1, j1 = perf_at(p, n + 1)
        assert d1 >= d0 and l1 >= l0 and j1 >= j0


def test_eval_strictly_decreasing_and_concave():
    p = profile()
    evals = [ground_truth_eval(p, n, PARAMS) for n in range(0, 203)]
    for n in range(0, 200):
        assert evals[n + 1] < evals[n]
        # perf convex increasing + affine decreasing normalization
        assert evals[n + 2] - evals[n + 1] <= evals[n + 1] - evals[n] + 1e-12


def test_flat_profile_eval_constant():
    p = profile(a=0.0, b=0.0, h=0.0)
    assert ground_truth_eval(p, 0, PARAMS) == ground_truth_eval(p, 150, PARAMS)


def test_ground_truth_eval_matches_pipeline():
    p = profile()
    for n in (0, 7, 42):
        expected = net_eva(normalize(*perf_at(p, n), PARAMS), PARAMS)
        assert ground_truth_eval(p, n, PARAMS) == expected


def test_ground_truth_eval_at_thresholds_is_zero():
    p = profile(d0=0.1, a=0.0, p0=0.05, b=0.0, g0=0.1, h=0.0)
    assert ground_truth_eval(p, 1, PARAMS) == pytest.approx(0.0, abs=1e-15)


def test_ground_truth_eval_halfway():
    p = profile(d0=0.05, a=0.0, p0=0.025, b=0.0, g0=0.05, h=0.0)
    assert ground_truth_eval(p, 1, PARAMS) == pytest.approx(0.5, abs=1e-12)


def test_sample_link_certain_loss():
    p = profile(p0=1.0 - 1e-9, b=1.0)  # plr clamps to 1 for any n >= cap
    rng = random.Random(1)
    p_full = profile(p0=0.5, b=2.0)
    for _ in range(100):
        assert not sample_link(p_full, 100, rng).delivered


def test_sample_link_degenerate_delay():
    p = profile(p0=0.0, b=0.0, g0=1e-12, h=0.0)
    rng = random.Random(2)
    sample = sample_link(p, 10, rng)
    assert sample.delivered
    delay, _, _ = perf_at(p, 10)
    assert sample.delay == pytest.approx(delay, abs=1e-9)


def test_sample_link_requires_sender():
    with pytest.raises(ValueError):
        sample_link(profile(), 0, random.Random(0))


def test_sample_link_delay_never_below_base():
    p = profile(h=2.0)  # jitter wide enough to push raw delays negative
    rng = random.Random(3)
    for _ in range(2000):
        s = sample_link(p, 5, rng)
        if s.delivered:
            assert s.delay >= p.d0


def test_sample_link_delivery_rate_matches_plr():
    # plr(n) = 0.25 exactly with flat loss curve; 1e5 draws, 3 sigma band
    p = profile(p0=0.25, b=0.0)
    rng = random.Random(12345)
    trials = 100_000
    delivered = sum(sample_link(p, 10, rng).delivered for _ in range(trials))
    rate = delivered / trials
    sigma = (0.75 * 0.25 / trials) ** 0.5
    assert abs(rate - 0.75) <= 3 * sigma
    assert abs(rate - 0.75) <= 0.01
