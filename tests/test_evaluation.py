import itertools
import random

import pytest

from hetsim.domain import ALL_NETWORKS, NetworkKind
from hetsim.evaluation import (
    NetEvaluation,
    best_network,
    evaluate_network,
    meets_requirements,
    net_eva,
    normalize,
    select_best,
)
from hetsim.netmodel import NetworkProfile, perf_at

def test_normalize_threshold_point():
    u_delay, _, _ = normalize(0.1, 0.0, 0.0)
    assert u_delay == 0.0


def test_normalize_halfway():
    u_delay, _, _ = normalize(0.05, 0.0, 0.0)
    assert u_delay == pytest.approx(0.5)


def test_normalize_over_threshold_negative():
    _, u_plr, _ = normalize(0.0, 0.10, 0.0)
    assert u_plr == pytest.approx(-1.0)


def test_normalize_order_reversing():
    for idx in range(3):
        worse = [0.01, 0.01, 0.01]
        worse[idx] = 0.09
        better = [0.01, 0.01, 0.01]
        assert normalize(*worse)[idx] < normalize(*better)[idx]


def test_utilities_never_exceed_one():
    rng = random.Random(6)
    for _ in range(500):
        metrics = (rng.uniform(0, 0.5), rng.uniform(0, 1.5), rng.uniform(0, 0.5))
        assert all(u <= 1.0 for u in normalize(*metrics))


def test_net_eva_all_ones():
    assert net_eva((1.0, 1.0, 1.0)) == pytest.approx(1.0)


def test_net_eva_weighted_sum():
    assert net_eva((0.5, 1.0, 0.0)) == pytest.approx(0.55)


def test_net_eva_zeros():
    assert net_eva((0.0, 0.0, 0.0)) == 0.0


def test_net_eva_monotone_in_each_utility():
    rng = random.Random(0)
    for _ in range(200):
        u = [rng.uniform(-2, 1) for _ in range(3)]
        base = net_eva(tuple(u))
        idx = rng.randrange(3)
        u[idx] += rng.uniform(0, 1)
        assert net_eva(tuple(u)) >= base


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
    evals = evals_from_scores([0.5, 0.7, 0.6])
    del evals[NetworkKind.WIFI]
    with pytest.raises(ValueError):
        select_best(evals, NetworkKind.DSRC)


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
    profile = NetworkProfile(d0=0.01, a=0.1, p0=0.01,
                             b=0.05, g0=0.002, h=0.05, cap=50)
    metrics = (0.05, 0.025, 0.05)
    ev = evaluate_network(metrics, profile)
    assert ev.score == pytest.approx(0.5)
    assert ev.meets_requirements
    assert ev.score == net_eva(normalize(*metrics))


def test_evaluate_network_fallback_prior():
    profile = NetworkProfile(d0=0.06, a=0.12, p0=0.01,
                             b=0.08, g0=0.015, h=0.12, cap=60)
    ev = evaluate_network(None, profile)
    ref = evaluate_network(perf_at(profile, 1), profile)
    assert ev.score == ref.score
    assert ev.meets_requirements == ref.meets_requirements


def test_evaluate_network_penalty_drops_score_exactly():
    profile = NetworkProfile(d0=0.03, a=0.25, p0=0.01,
                             b=0.12, g0=0.01, h=0.15, cap=40)
    metrics = perf_at(profile, 17)
    clean = evaluate_network(metrics, profile)
    for delta in (0.05, 0.08, 0.5):
        hit = evaluate_network(metrics, profile, penalty=delta)
        assert clean.score - hit.score == pytest.approx(delta, abs=1e-12)


def test_penalty_can_flip_requirements():
    profile = NetworkProfile(d0=0.0999, a=0.0, p0=0.0499,
                             b=0.0, g0=0.0999, h=0.0, cap=1, exponent=1)
    metrics = perf_at(profile, 10)
    assert evaluate_network(metrics, profile).meets_requirements
    assert not evaluate_network(metrics, profile, penalty=0.05).meets_requirements
