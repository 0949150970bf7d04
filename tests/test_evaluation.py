import itertools
import random

import pytest

from hetsim.domain import (
    ALL_NETWORKS,
    F_DELAY_REF,
    F_JIT_REF,
    F_PLR_REF,
    W_DELAY,
    W_JIT,
    W_PLR,
    NetworkKind,
)
from hetsim.evaluation import (
    NetEvaluation,
    best_network,
    evaluate_network,
    meets_requirements,
    predict_equilibrium_shift,
    select_best,
)
from hetsim.netmodel import NetworkProfile, perf_at

REFERENCES = (F_DELAY_REF, F_PLR_REF, F_JIT_REF)
WEIGHTS = (W_DELAY, W_PLR, W_JIT)


def utility(index, value):
    """One metric's normalized utility: the score with the other two metrics
    at their references, where their utilities are 0, over its weight."""
    metrics = list(REFERENCES)
    metrics[index] = value
    return evaluate_network(tuple(metrics)).score / WEIGHTS[index]


def test_normalize_threshold_point():
    assert utility(0, 0.1) == 0.0


def test_normalize_halfway():
    assert utility(0, 0.05) == pytest.approx(0.5)


def test_normalize_over_threshold_negative():
    assert utility(1, 0.10) == pytest.approx(-1.0)


def test_normalize_order_reversing():
    for idx in range(3):
        assert utility(idx, 0.09) < utility(idx, 0.01)


def test_utilities_never_exceed_one():
    rng = random.Random(6)
    for _ in range(500):
        metrics = (rng.uniform(0, 0.5), rng.uniform(0, 1.5), rng.uniform(0, 0.5))
        assert all(utility(idx, m) <= 1.0 for idx, m in enumerate(metrics))
        assert evaluate_network(metrics).score <= 1.0


def test_net_eva_all_ones():
    assert evaluate_network((0.0, 0.0, 0.0)).score == pytest.approx(1.0)


def test_net_eva_weighted_sum():
    # Utilities (0.5, 1, 0).
    assert evaluate_network((0.05, 0.0, 0.1)).score == pytest.approx(0.55)


def test_net_eva_zeros():
    assert evaluate_network(REFERENCES).score == 0.0


def test_net_eva_monotone_in_each_utility():
    rng = random.Random(0)
    for _ in range(200):
        metrics = [rng.uniform(0, 0.3) for _ in range(3)]
        base = evaluate_network(tuple(metrics)).score
        idx = rng.randrange(3)
        metrics[idx] -= rng.uniform(0, 0.3)  # a better metric
        assert evaluate_network(tuple(metrics)).score >= base


def test_requirements_two_of_three_fails():
    assert meets_requirements(0.2, 0.06, 0.01) is False


def test_requirements_one_of_three_ok():
    assert meets_requirements(0.2, 0.01, 0.01) is True


def test_requirements_at_thresholds_ok():
    assert meets_requirements(0.1, 0.05, 0.1) is True


def test_requirements_antitone():
    rng = random.Random(1)
    for _ in range(200):
        metrics = [rng.uniform(0, 0.2), rng.uniform(0, 0.1), rng.uniform(0, 0.2)]
        before = meets_requirements(*metrics)
        idx = rng.randrange(3)
        metrics[idx] += rng.uniform(0, 0.2)
        after = meets_requirements(*metrics)
        assert not (before is False and after is True)


def evals_from_scores(scores):
    return {
        net: NetEvaluation(score=score, meets_requirements=True)
        for net, score in zip(ALL_NETWORKS, scores)
    }


def test_select_best_unique_max():
    evals = evals_from_scores([0.5, 0.7, 0.6])
    assert select_best(evals, NetworkKind.DSRC) is NetworkKind.LTE


def test_select_best_tie_keeps_current():
    evals = evals_from_scores([0.7, 0.7, 0.1])
    assert select_best(evals, NetworkKind.LTE) is NetworkKind.LTE


def test_select_best_three_way_tie_keeps_current():
    evals = evals_from_scores([0.7, 0.7, 0.7])
    assert select_best(evals, NetworkKind.WIFI) is NetworkKind.WIFI


def test_select_best_tie_without_current_uses_fixed_order():
    evals = evals_from_scores([0.2, 0.7, 0.7])
    assert select_best(evals, NetworkKind.DSRC) is NetworkKind.LTE


def test_select_best_requires_all_networks():
    for net in ALL_NETWORKS:
        evals = evals_from_scores([0.5, 0.7, 0.6])
        del evals[net]
        with pytest.raises(ValueError, match="select_best needs all three networks"):
            select_best(evals, NetworkKind.DSRC)
    extra = {**evals_from_scores([0.5, 0.7, 0.6]), "5g": NetEvaluation(0.9, True)}
    with pytest.raises(ValueError, match=r"needs all three networks, got \['5g', 'dsrc'"):
        select_best(extra, NetworkKind.DSRC)


def test_best_network_excludes():
    evals = evals_from_scores([0.9, 0.2, 0.6])
    assert best_network(evals) is NetworkKind.DSRC
    assert best_network(evals, exclude=NetworkKind.DSRC) is NetworkKind.WIFI
    assert best_network(evals, exclude=NetworkKind.WIFI) is NetworkKind.DSRC


def test_best_network_ties_follow_fixed_order():
    assert best_network(evals_from_scores([0.1, 0.4, 0.4])) is NetworkKind.LTE
    evals = evals_from_scores([0.4, 0.4, 0.4])
    assert best_network(evals) is NetworkKind.DSRC
    assert best_network(evals, exclude=NetworkKind.DSRC) is NetworkKind.LTE
    assert best_network(evals, exclude=NetworkKind.LTE) is NetworkKind.DSRC


def test_select_best_matches_brute_force():
    # Scores from {0, 0.5, 1} make ties common; every score triple and
    # every current network is checked against the rule spelled out:
    # stay on a network that ties the maximum, else the first maximum in
    # the fixed order.
    for scores in itertools.product((0.0, 0.5, 1.0), repeat=3):
        top = max(scores)
        for current in ALL_NETWORKS:
            if scores[ALL_NETWORKS.index(current)] == top:
                expected = current
            else:
                expected = ALL_NETWORKS[scores.index(top)]
            assert select_best(evals_from_scores(list(scores)), current) is expected


def test_select_best_affine_invariance():
    rng = random.Random(2)
    for _ in range(100):
        scores = [rng.uniform(-1, 1) for _ in range(3)]
        current = rng.choice(ALL_NETWORKS)
        pick = select_best(evals_from_scores(scores), current)
        scale = rng.uniform(0.1, 10)
        shift = rng.uniform(-5, 5)
        transformed = [scale * s + shift for s in scores]
        assert select_best(evals_from_scores(transformed), current) is pick


def test_evaluate_network_measured():
    metrics = (0.05, 0.025, 0.05)
    ev = evaluate_network(metrics)
    assert ev.score == pytest.approx(0.5)
    assert ev.meets_requirements
    # Each utility in parentheses, then the weighted sum left to right: the
    # grouping every pinned digest was taken with.
    assert ev == (W_DELAY * ((F_DELAY_REF - 0.05) / F_DELAY_REF)
                  + W_PLR * ((F_PLR_REF - 0.025) / F_PLR_REF)
                  + W_JIT * ((F_JIT_REF - 0.05) / F_JIT_REF), True)


def test_evaluate_network_penalty_drops_score_exactly():
    profile = NetworkProfile(d0=0.03, a=0.25, p0=0.01,
                             b=0.12, g0=0.01, h=0.15, cap=40)
    metrics = perf_at(profile, 17)
    clean = evaluate_network(metrics)
    for delta in (0.05, 0.08, 0.5):
        hit = evaluate_network(metrics, penalty=delta)
        assert clean.score - hit.score == pytest.approx(delta, abs=1e-12)


def test_penalty_can_flip_requirements():
    profile = NetworkProfile(d0=0.0999, a=0.0, p0=0.0499,
                             b=0.0, g0=0.0999, h=0.0, cap=1, exponent=1)
    metrics = perf_at(profile, 10)
    assert evaluate_network(metrics).meets_requirements
    assert not evaluate_network(metrics, penalty=0.05).meets_requirements


# --- equilibrium oracle -------------------------------------------------------

def test_predict_shift_symmetric_linear():
    f = lambda n: 1 - 0.01 * n
    assert predict_equilibrium_shift(f, f, 30, 20, 0.08) == 4


def test_predict_shift_zero_disturbance():
    f = lambda n: 1 - 0.01 * n
    assert predict_equilibrium_shift(f, f, 30, 20, 0.0) == 0


def test_predict_shift_asymmetric_linear():
    f_a = lambda n: 1 - 0.02 * n
    f_b = lambda n: 1 - 0.01 * n
    assert predict_equilibrium_shift(f_a, f_b, 30, 20, 0.09) == 3


@pytest.mark.parametrize("g, h, named", [(-1, 20, "g=-1,"), (30, -1, "h=-1")])
def test_predict_shift_rejects_negative_population(g, h, named):
    f = lambda n: 1 - 0.01 * n
    with pytest.raises(ValueError, match=named):
        predict_equilibrium_shift(f, f, g, h, 0.08)


def test_predict_shift_minimizes_residual():
    rng = random.Random(11)
    for _ in range(50):
        sa, sb = rng.uniform(0.001, 0.05), rng.uniform(0.001, 0.05)
        g, h = rng.randrange(5, 60), rng.randrange(0, 40)
        delta = rng.uniform(0, 1.0)
        f_a = lambda n: 2 - sa * n
        f_b = lambda n: 2 - sb * n
        s = predict_equilibrium_shift(f_a, f_b, g, h, delta)
        def residual(k):
            return abs(f_a(g - k) - f_a(g) + f_b(h) - f_b(h + k) - delta)
        best = min(range(g + 1), key=lambda k: (residual(k), k))
        assert s == best
