import math
import random
from fractions import Fraction

import pytest
from reference import p_degraded, p_overload, p_return, update_counter

from hetsim.domain import ALL_NETWORKS, NetworkKind, StrategyParams
from hetsim.evaluation import NetEvaluation
from hetsim.strategy import _STAY_END, Decision, Trigger, decide_baseline, decide_game

PARAMS = StrategyParams(n_exp=30, rho=0.5, sigma=0.5)


class StubRng:
    """Deterministic stand-in feeding a preset sequence of uniforms."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def evals(d=0.0, l=0.0, w=0.0, d_meets=True, l_meets=True, w_meets=True):
    flags = {NetworkKind.DSRC: d_meets, NetworkKind.LTE: l_meets,
             NetworkKind.WIFI: w_meets}
    scores = {NetworkKind.DSRC: d, NetworkKind.LTE: l, NetworkKind.WIFI: w}
    return {
        net: NetEvaluation(score=scores[net], meets_requirements=flags[net])
        for net in ALL_NETWORKS
    }


def view(current=NetworkKind.DSRC, x_dsrc=10, x_current=None, ev=None,
         dsrc_meets=True, current_meets=True, c=0):
    # The requirement flags live in the evaluations; for a DSRC terminal
    # the current network is DSRC, so dsrc_meets wins.
    ev = dict(ev if ev is not None else evals())
    for net, flag in {current: current_meets, NetworkKind.DSRC: dsrc_meets}.items():
        ev[net] = ev[net]._replace(meets_requirements=flag)
    # The five facts a terminal decides from, in decide_game's order.
    return (current, x_dsrc, x_current if x_current is not None else x_dsrc, ev, c)


# --- probability formulas ---------------------------------------------------

def test_p_overload_values():
    assert p_overload(31, 30, 0.5) == pytest.approx(0.03125, abs=1e-12)
    assert p_overload(49, 30, 0.5) == pytest.approx(0.2, abs=1e-12)


def test_p_overload_asymptote():
    assert abs(p_overload(10**6, 30, 0.5) - 0.5) < 1e-4


def test_p_overload_requires_overload():
    with pytest.raises(ValueError):
        p_overload(30, 30, 0.5)


def test_p_overload_strictly_increasing_in_x():
    prev = 0.0
    for x in range(31, 10_001, 37):
        val = p_overload(x, 30, 0.5)
        assert 0.0 < val < 0.5
        assert val > prev
        prev = val


def test_p_degraded_values():
    assert p_degraded(1, 30, 0.5) == pytest.approx(0.016667, abs=1e-6)
    assert p_degraded(100, 10, 0.5) == 1.0
    assert p_degraded(0, 30, 0.5) == 0.0


def test_p_degraded_blackout():
    assert p_degraded(1, 0, 0.5) == 0.5
    assert p_degraded(7, 0, 0.5) == 1.0


def test_p_return_values():
    assert p_return(10, 19, 30, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert p_return(30, 19, 30, 0.5) == 0.0
    assert p_return(35, 19, 30, 0.5) == 0.0  # negative raw value clamps


def test_p_return_nonincreasing():
    for x_prime in (0, 5, 19):
        prev = 1.0
        for x in range(0, 40):
            val = p_return(x, x_prime, 30, 0.5)
            assert 0.0 <= val <= 0.5
            assert val <= prev + 1e-15
            prev = val
    for x in (5, 15, 25):
        prev = 1.0
        for x_prime in range(0, 60):
            val = p_return(x, x_prime, 30, 0.5)
            assert val <= prev + 1e-15
            prev = val


def test_probabilities_match_exact_rational_forms():
    # Independent oracle: the same formulas in exact Fraction arithmetic.
    for x in (31, 33, 40, 49, 77, 313):
        for n_exp in (10, 30):
            for rho_n, rho_d in ((1, 2), (1, 4), (9, 10)):
                if x <= n_exp:
                    continue
                exact = Fraction(rho_n, rho_d) * Fraction(x - n_exp + 1, x + 1)
                assert p_overload(x, n_exp, rho_n / rho_d) == pytest.approx(
                    float(exact), abs=1e-12)


def test_update_counter():
    assert update_counter(5, met=False) == 6
    assert update_counter(5, met=True) == 2
    assert update_counter(0, met=True) == 0


@pytest.mark.parametrize("call, named", [
    (lambda: update_counter(-1, met=True), "got -1"),
    (lambda: p_degraded(-1, 30, 0.5), "got -1"),
    (lambda: p_return(-1, 10, 30, 0.5), "x=-1,"),
    (lambda: p_return(10, -1, 30, 0.5), "x_prime=-1"),
], ids=["update_counter", "p_degraded", "p_return-x", "p_return-x_prime"])
def test_negative_count_rejected(call, named):
    with pytest.raises(ValueError, match=named):
        call()


# --- game decisions ----------------------------------------------------------

def test_overload_switches_to_best_non_dsrc():
    # p_overload(40, 30, 0.5) = 0.5 * 11 / 41 ~= 0.1341; a draw of 0.05 switches
    v = view(x_dsrc=40, ev=evals(d=0.9, l=0.6, w=0.4))
    d = decide_game(*v, PARAMS, StubRng(0.05))
    assert d.target is NetworkKind.LTE
    assert d.trigger is Trigger.OVERLOAD
    assert d.new_counter_c == 0  # untouched on the overload path


def test_quiet_dsrc_halves_counter():
    v = view(x_dsrc=25, dsrc_meets=True, c=4)
    d = decide_game(*v, PARAMS, StubRng())
    assert d.target is None
    assert d.new_counter_c == 2


def test_failed_return_draw_stays():
    # p_return(10, 19, 30, 0.5) = 0.5; a draw of 0.7 fails, current is healthy
    v = view(current=NetworkKind.LTE, x_dsrc=10, x_current=19,
             dsrc_meets=True, current_meets=True, c=0)
    d = decide_game(*v, PARAMS, StubRng(0.7))
    assert d.target is None
    assert d.trigger is Trigger.NONE


def test_successful_return_to_dsrc():
    v = view(current=NetworkKind.LTE, x_dsrc=10, x_current=19, c=5)
    d = decide_game(*v, PARAMS, StubRng(0.3))
    assert d.target is NetworkKind.DSRC
    assert d.trigger is Trigger.RETURN_TO_DSRC
    assert d.new_counter_c == 5  # return path never inspects requirements


def test_overload_draw_failure_falls_through_to_degradation():
    # First draw 0.9 fails the overload gate, DSRC is degraded, second draw
    # 0.0 wins the degradation draw.
    v = view(x_dsrc=40, dsrc_meets=False, c=1, ev=evals(l=0.2, w=0.9))
    d = decide_game(*v, PARAMS, StubRng(0.9, 0.0))
    assert d.target is NetworkKind.WIFI
    assert d.trigger is Trigger.DEGRADATION
    assert d.new_counter_c == 2


def test_degradation_counter_increments_even_when_staying():
    v = view(x_dsrc=20, dsrc_meets=False, c=3)
    d = decide_game(*v, PARAMS, StubRng(0.99))
    assert d.target is None
    assert d.new_counter_c == 4


def test_non_dsrc_degradation_excludes_current():
    v = view(current=NetworkKind.WIFI, x_dsrc=35, x_current=10,
             dsrc_meets=True, current_meets=False, c=9,
             ev=evals(d=0.1, l=0.8, w=0.9))
    # x_dsrcty 35 >= n_exp closes the return valve; degradation draw wins
    d = decide_game(*v, PARAMS, StubRng(0.0))
    assert d.target is NetworkKind.LTE
    assert d.new_counter_c == 10


def test_non_dsrc_return_valve_needs_healthy_dsrc():
    v = view(current=NetworkKind.LTE, x_dsrc=5, x_current=10,
             dsrc_meets=False, current_meets=True, c=0)
    d = decide_game(*v, PARAMS, StubRng())
    assert d.target is None


def test_overload_gate_opens_one_past_n_exp():
    # p_overload(31, 30, 0.5) = 0.03125 > 0, so a draw of 0.0 switches.
    v = view(x_dsrc=PARAMS.n_exp + 1, ev=evals(d=0.9, l=0.4, w=0.6))
    d = decide_game(*v, PARAMS, StubRng(0.0))
    assert d.target is NetworkKind.WIFI
    assert d.trigger is Trigger.OVERLOAD


def test_return_gate_closed_at_n_exp():
    # DSRC at n_exp has no headroom: no return draw (the empty stub would raise).
    v = view(current=NetworkKind.LTE, x_dsrc=PARAMS.n_exp, x_current=10)
    d = decide_game(*v, PARAMS, StubRng())
    assert d.target is None
    assert d.trigger is Trigger.NONE


def test_stay_when_draws_exceed_all_probabilities():
    rng_values = [0.999999] * 2
    v = view(x_dsrc=45, dsrc_meets=False, c=2)
    d = decide_game(*v, PARAMS, StubRng(*rng_values))
    assert d.target is None
    v2 = view(current=NetworkKind.WIFI, x_dsrc=4, x_current=7,
              dsrc_meets=True, current_meets=False, c=2)
    d2 = decide_game(*v2, PARAMS, StubRng(0.999999, 0.999999))
    assert d2.target is None


def test_game_decision_never_targets_current():
    rng = random.Random(99)
    nets = list(ALL_NETWORKS)
    for _ in range(500):
        current = rng.choice(nets)
        v = view(current=current,
                 x_dsrc=rng.randrange(0, 60),
                 x_current=rng.randrange(0, 60),
                 dsrc_meets=rng.random() < 0.5,
                 current_meets=rng.random() < 0.5,
                 c=rng.randrange(0, 20),
                 ev=evals(d=rng.random(), l=rng.random(), w=rng.random()))
        d = decide_game(*v, PARAMS, rng)
        assert d.target is not current
        assert d.new_counter_c >= 0


DSRC, LTE, WIFI = ALL_NETWORKS


def play(v, params, *draws):
    """decide_game's (target, counter, trigger), after checking that it took
    exactly the scripted draws."""
    rng = StubRng(*draws)
    d = decide_game(*v, params, rng)
    assert rng.values == []
    return tuple(d)


def at_and_below(p):
    """A draw equal to p loses (False); the float just below it wins (True)."""
    return [(p, False)] + ([(math.nextafter(p, 0.0), True)] if p > 0 else [])


def test_inlined_formulas_match_reference_bit_for_bit():
    # Acceptance criterion 1's grids, with the blackout x = 0 added for
    # degradation. Scores make the best network but DSRC Wi-Fi, and the best
    # but LTE DSRC, so each target names the network it excludes.
    ev = evals(d=0.9, l=0.4, w=0.6)
    cases = 0
    for x in (31, 32, 40, 49, 100, 999):
        for n_exp in (10, 30):
            for rho in (0.5, 0.25, 0.9, 0.0):
                if x <= n_exp:
                    continue
                params = StrategyParams(n_exp=n_exp, rho=rho, sigma=0.5)
                v = view(x_dsrc=x, ev=ev, c=6)
                for draw, wins in at_and_below(p_overload(x, n_exp, rho)):
                    # A lost draw falls through to DSRC's met requirements.
                    assert play(v, params, draw) == (
                        (WIFI, 6, Trigger.OVERLOAD) if wins else (None, 3, Trigger.NONE))
                    cases += 1

    for x in (0, 10, 29, 30, 35):
        for x_prime in (0, 9, 19, 40):
            for rho in (0.5, 0.25, 0.9):
                params = StrategyParams(n_exp=30, rho=rho, sigma=0.5)
                v = view(current=LTE, x_dsrc=x, x_current=x_prime, ev=ev, c=6)
                if x >= params.n_exp:  # no headroom: no return draw
                    assert play(v, params) == (None, 3, Trigger.NONE)
                    cases += 1
                    continue
                for draw, wins in at_and_below(p_return(x, x_prime, 30, rho)):
                    assert play(v, params, draw) == (
                        (DSRC, 6, Trigger.RETURN_TO_DSRC) if wins else (None, 3, Trigger.NONE))
                    cases += 1

    for c in (0, 1, 2, 10, 100):
        for x in (0, 1, 3, 30, 200):
            for sigma in (0.5, 0.2, 1.0):
                # DSRC reads its own count below the overload gate; elsewhere,
                # with DSRC failing, the current network's count.
                params = StrategyParams(n_exp=200, rho=0.5, sigma=sigma)
                p = p_degraded(update_counter(c, met=False), x, sigma)
                for v, target in ((view(x_dsrc=x, dsrc_meets=False, ev=ev, c=c), WIFI),
                                  (view(current=LTE, x_dsrc=5, x_current=x, dsrc_meets=False,
                                        current_meets=False, ev=ev, c=c), DSRC)):
                    for draw, wins in at_and_below(p):
                        assert play(v, params, draw) == (
                            target if wins else None, c + 1,
                            Trigger.DEGRADATION if wins else Trigger.NONE)
                        cases += 1

    for c in range(25):
        for met in (True, False):
            expected = update_counter(c, met)
            assert expected == (c // 2 if met else c + 1)
            for v in (view(x_dsrc=20, dsrc_meets=met, ev=ev, c=c),
                      view(current=LTE, x_dsrc=30, x_current=5, current_meets=met, ev=ev,
                           c=c)):
                # A met cycle takes no draw; a failing one loses its draw of 1.0.
                assert play(v, PARAMS, *([] if met else [1.0])) == (
                    None, expected, Trigger.NONE)
                cases += 1
    assert cases == 580


@pytest.mark.parametrize("decide, expected", [
    # overload: p_overload(40, 30, 0.5) ~= 0.134 > 0.05
    (lambda: decide_game(*view(x_dsrc=40, ev=evals(d=0.9, l=0.6, w=0.4)), PARAMS,
                         StubRng(0.05)), (LTE, 0, Trigger.OVERLOAD)),
    # return: p_return(10, 19, 30, 0.5) = 0.5 > 0.3
    (lambda: decide_game(*view(current=LTE, x_dsrc=10, x_current=19, c=5), PARAMS,
                         StubRng(0.3)), (DSRC, 5, Trigger.RETURN_TO_DSRC)),
    # degradation after a lost overload draw
    (lambda: decide_game(*view(x_dsrc=40, dsrc_meets=False, c=1, ev=evals(l=0.2, w=0.9)),
                         PARAMS, StubRng(0.9, 0.0)), (WIFI, 2, Trigger.DEGRADATION)),
    # fall-through stays: a lost overload, return or degradation draw
    (lambda: decide_game(*view(x_dsrc=40, c=4), PARAMS, StubRng(0.9)),
     (None, 2, Trigger.NONE)),
    (lambda: decide_game(*view(current=LTE, x_dsrc=10, x_current=19, c=3), PARAMS,
                         StubRng(0.7)), (None, 1, Trigger.NONE)),
    (lambda: decide_game(*view(x_dsrc=20, dsrc_meets=False, c=3), PARAMS, StubRng(0.99)),
     (None, 4, Trigger.NONE)),
    # quiet stay: no gate opens, no draw
    (lambda: decide_game(*view(x_dsrc=25, c=4), PARAMS, StubRng()), (None, 2, Trigger.NONE)),
    (lambda: decide_baseline(LTE, evals(d=0.5, l=0.7, w=0.6), 7), (None, 7, Trigger.NONE)),
    (lambda: decide_baseline(DSRC, evals(d=0.5, l=0.7, w=0.6), 7), (LTE, 7, Trigger.ARGMAX)),
], ids=["overload", "return", "degradation", "lost_overload", "lost_return",
        "lost_degradation", "quiet", "baseline_stay", "baseline_switch"])
def test_every_decision_path_returns_a_decision(decide, expected):
    # A stay-put result comes from a table built at import, or past the table
    # without Decision's constructor; each path must still give a Decision with
    # its fields in their declared order.
    d = decide()
    assert type(d) is Decision
    assert (d.target, d.new_counter_c, d.trigger) == expected


STAY_PATHS = {
    # A met cycle halves the counter and takes no draw.
    "met": lambda c: decide_game(*view(x_dsrc=20, c=2 * c), PARAMS, StubRng()),
    # A failing cycle adds one to it and loses its degradation draw of 1.0.
    "failing": lambda c: decide_game(*view(x_dsrc=20, dsrc_meets=False, c=c - 1), PARAMS,
                                     StubRng(1.0)),
    # The baseline on its argmax network keeps it.
    "baseline": lambda c: decide_baseline(DSRC, evals(d=0.9), c),
}


@pytest.mark.parametrize("c", [-1, 0, _STAY_END - 1, _STAY_END, _STAY_END + 1],
                         ids=["negative", "first", "last", "at_end", "past_end"])
@pytest.mark.parametrize("path", list(STAY_PATHS))
def test_stay_put_table_edge(path, c):
    # A stay with its new counter c in [0, _STAY_END) is the one shared object
    # the table holds for c; any other counter builds its own. Either way the
    # result is an exact Decision.
    first, second = STAY_PATHS[path](c), STAY_PATHS[path](c)
    assert type(first) is Decision
    assert tuple(first) == (None, c, Trigger.NONE)
    assert second == first
    if 0 <= c < _STAY_END:  # a refactor that builds stays again fails here
        assert second is first


# --- baseline decisions ------------------------------------------------------

def test_baseline_switches_to_argmax():
    v = view(ev=evals(d=0.5, l=0.7, w=0.6))
    d = decide_baseline(v[0], v[3], v[4])
    assert d.target is NetworkKind.LTE


def test_baseline_stays_when_best():
    v = view(ev=evals(d=0.9, l=0.1, w=0.1))
    assert decide_baseline(v[0], v[3], v[4]).target is None


def test_baseline_tie_keeps_current():
    v = view(current=NetworkKind.WIFI, ev=evals(d=0.4, l=0.4, w=0.4))
    assert decide_baseline(v[0], v[3], v[4]).target is None


def test_baseline_keeps_counter_untouched():
    v = view(ev=evals(d=0.5, l=0.7, w=0.6), c=7)
    assert decide_baseline(v[0], v[3], v[4]).new_counter_c == 7


def test_baseline_scale_invariant():
    rng = random.Random(5)
    for _ in range(100):
        scores = [rng.uniform(-1, 1) for _ in range(3)]
        current = rng.choice(list(ALL_NETWORKS))
        v1 = view(current=current, ev=evals(*scores))
        scale = rng.uniform(0.5, 4.0)
        v2 = view(current=current, ev=evals(*[s * scale for s in scores]))
        assert decide_baseline(v1[0], v1[3], v1[4]).target is decide_baseline(v2[0], v2[3], v2[4]).target


def test_expected_switchers_is_sigma_c_analytically():
    # m terminals sharing counter c and perceived x = m: the per-terminal
    # probability min(sigma*c/m, 1) puts the expected switcher count at
    # exactly sigma*c while the clamp is inactive.
    m = 30
    for c in (1, 2, 4, 10, 20):
        expected = m * p_degraded(c, m, 0.5)
        assert expected == pytest.approx(min(0.5 * c, m), abs=1e-12)
