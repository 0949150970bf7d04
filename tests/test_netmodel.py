import pytest
from reference import score

from hetsim.evaluation import ground_truth_eval
from hetsim.netmodel import NetworkProfile, perf_at


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
    evals = [ground_truth_eval(p, n) for n in range(0, 203)]
    for n in range(0, 200):
        assert evals[n + 1] < evals[n]
        # perf convex increasing + affine decreasing normalization
        assert evals[n + 2] - evals[n + 1] <= evals[n + 1] - evals[n] + 1e-12


def test_flat_profile_eval_constant():
    p = profile(a=0.0, b=0.0, h=0.0)
    assert ground_truth_eval(p, 0) == ground_truth_eval(p, 150)


def test_ground_truth_eval_matches_pipeline():
    p = profile()
    for n in (0, 7, 42):
        expected = score(perf_at(p, n), 0.0).score  # the reference's own scoring
        assert ground_truth_eval(p, n) == expected


def test_ground_truth_eval_at_thresholds_is_zero():
    p = profile(d0=0.1, a=0.0, p0=0.05, b=0.0, g0=0.1, h=0.0)
    assert ground_truth_eval(p, 1) == pytest.approx(0.0, abs=1e-15)


def test_ground_truth_eval_halfway():
    p = profile(d0=0.05, a=0.0, p0=0.025, b=0.0, g0=0.05, h=0.0)
    assert ground_truth_eval(p, 1) == pytest.approx(0.5, abs=1e-12)
