import dataclasses
import math
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from reference import WindowLedger, p_degraded, p_overload, p_return, update_counter

from hetsim import engine
from hetsim.evaluation import (
    best_network,
    evaluate_network,
    ground_truth_eval,
    predict_equilibrium_shift,
    select_best,
)
from hetsim.domain import (
    ALL_NETWORKS,
    DisturbanceSpec,
    MeasurementMode,
    NetworkKind,
    StrategyKind,
    StrategyParams,
    load_scenario,
    validate_config,
)
from hetsim.engine import init_state, run_cycle, run_scenario, substream_seed
from hetsim.netmodel import perf_at
from hetsim.report import render_csv
from hetsim.sensing import ReceptionLedger
from hetsim.strategy import Decision, Trigger

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def step_cfg(**overrides):
    cfg = load_scenario(SCENARIOS / "table2_step.json")
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def test_substreams_differ_and_are_stable():
    seeds = {substream_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert substream_seed(42, 7) == substream_seed(42, 7)
    assert substream_seed(42, 7) != substream_seed(43, 7)


def test_initial_state_matches_assignment():
    state = init_state(step_cfg())
    assert state.counts == {NetworkKind.DSRC: 10, NetworkKind.LTE: 20,
                            NetworkKind.WIFI: 20}
    assert len(state.attachment) == 50
    assert state.cycle == 0


def test_conservation_every_cycle():
    cfg = step_cfg(num_cycles=40, measurement_mode=MeasurementMode.DIRECT)
    for records in (run_scenario(cfg),
                    run_scenario(dataclasses.replace(
                        cfg, strategy_kind=StrategyKind.BASELINE_MCDM))):
        for record in records:
            assert sum(record.counts.values()) == 50


def assert_counts_match_attachment(cfg):
    # The engine keeps its counts by adding up the moves; a recount of the
    # attachment after every cycle sees a move the sum check cannot (one that
    # updates the wrong network, or none).
    state = init_state(cfg)
    handoffs = 0
    for _ in range(cfg.num_cycles):
        state, record = run_cycle(state, cfg)
        recount = {net: state.attachment.count(net) for net in ALL_NETWORKS}
        assert state.counts == recount
        assert record.counts == recount
        handoffs += record.handoffs
    assert handoffs > 0


@pytest.mark.parametrize("kind", list(StrategyKind), ids=lambda k: k.value)
@pytest.mark.parametrize("mode", list(MeasurementMode), ids=lambda m: m.value)
def test_counts_match_attachment_every_cycle(mode, kind):
    assert_counts_match_attachment(step_cfg(num_cycles=40, measurement_mode=mode,
                                            strategy_kind=kind))


@pytest.mark.parametrize("mode", list(MeasurementMode), ids=lambda m: m.value)
def test_counts_match_attachment_under_disturbance_and_noise(mode):
    cfg = load_scenario(SCENARIOS / "table2_disturbance.json")
    assert_counts_match_attachment(dataclasses.replace(cfg, measurement_mode=mode))


def test_cycle_zero_baseline_moves_terminals():
    cfg = step_cfg(num_cycles=1, strategy_kind=StrategyKind.BASELINE_MCDM,
                   measurement_mode=MeasurementMode.DIRECT)
    records = run_scenario(cfg)
    assert records[0].handoffs > 0


def test_single_terminal_world_is_frozen():
    cfg = step_cfg(total_terminals=1,
                   initial_assignment={NetworkKind.DSRC: 1, NetworkKind.LTE: 0,
                                       NetworkKind.WIFI: 0},
                   num_cycles=30)
    for mode in MeasurementMode:
        records = run_scenario(dataclasses.replace(cfg, measurement_mode=mode))
        assert all(r.handoffs == 0 for r in records)
        assert all(r.counts[NetworkKind.DSRC] == 1 for r in records)


@pytest.mark.parametrize("split", [(1, 0, 0), (2, 1, 1)], ids=["n1", "n4"])
def test_no_terminal_hears_itself(split):
    # Lossless links: each ledger hears every other terminal once, and never
    # itself; ids 0, 1..2 and 3 are the first, middle and last senders.
    assignment = dict(zip(ALL_NETWORKS, split))
    cfg = step_cfg(total_terminals=sum(split), initial_assignment=assignment, num_cycles=1,
                   profiles={net: dataclasses.replace(p, p0=0.0, b=0.0)
                             for net, p in step_cfg().profiles.items()})
    state = init_state(cfg)
    attachment = list(state.attachment)
    state, _ = run_cycle(state, cfg)
    for receiver, ledger in enumerate(state.ledgers):
        assert {net: ledger.distinct_senders(net) for net in ALL_NETWORKS} == {
            net: assignment[net] - (attachment[receiver] is net) for net in ALL_NETWORKS}


@pytest.mark.parametrize("field, value, violation", [
    ("d0", -0.01, "profiles.lte.d0 must be > 0, got -0.01"),
    ("cap", 0, "profiles.lte.cap must be >= 1, got 0"),
    ("a", math.nan, "profiles.lte.a must be finite, got nan"),
], ids=["d0", "cap", "a"])
@pytest.mark.parametrize("mode", list(MeasurementMode), ids=lambda m: m.value)
def test_init_state_refuses_invalid_config(mode, field, value, violation):
    # No world is built from a config that validation rejects: a negative d0
    # would put a reception before its generation, cap 0 divides by zero, and
    # a NaN coefficient runs NaN curves.
    profiles = dict(step_cfg().profiles)
    profiles[NetworkKind.LTE] = dataclasses.replace(profiles[NetworkKind.LTE],
                                                    **{field: value})
    cfg = step_cfg(num_cycles=1, measurement_mode=mode, profiles=profiles)
    assert validate_config(cfg) == [violation]
    with pytest.raises(ValueError, match=f"^invalid scenario: {re.escape(violation)}$"):
        init_state(cfg)


def decided_evals(monkeypatch, cfg):
    """The evaluations each terminal decides from in the first cycle of cfg."""
    seen = []

    def capture(current, x_dsrc, x_current, evals, *rest):
        seen.append(evals)
        return Decision(None, 0, Trigger.NONE)

    monkeypatch.setattr(engine, "decide_game", capture)
    state, _ = run_cycle(init_state(cfg), cfg)
    assert len(seen) == cfg.total_terminals
    return state, seen


def recorded_measures(monkeypatch):
    """What each ledger's `measure` returned per network inside the cycle run
    last, the readings the engine scored: a ledger releases the delays they
    compare once its terminal has measured. Clear it before each run_cycle."""
    readings = {}
    measure = ReceptionLedger.measure

    def recorded(ledger, net):
        readings[ledger, net] = reading = measure(ledger, net)
        return reading

    monkeypatch.setattr(ReceptionLedger, "measure", recorded)
    return readings


def prior_evals(cfg, penalty):
    return {net: evaluate_network(perf_at(cfg.profiles[net], 1), penalty.get(net, 0.0))
            for net in ALL_NETWORKS}


def test_sampled_cycle_zero_scores_every_network_from_base_load_prior(monkeypatch):
    # No sender is heard in two cycles yet, so measure returns None on every
    # network and each scores its base-load prior, disturbance penalty included.
    spec = DisturbanceSpec(network=NetworkKind.LTE, delta_e=0.08, start_cycle=0)
    cfg = step_cfg(num_cycles=1, disturbance=spec)
    measured = recorded_measures(monkeypatch)
    state, seen = decided_evals(monkeypatch, cfg)
    assert all(measured[ledger, net] is None for ledger in state.ledgers for net in ALL_NETWORKS)
    assert all(evals == prior_evals(cfg, {NetworkKind.LTE: 0.08}) for evals in seen)


def test_direct_empty_network_scores_from_base_load_prior(monkeypatch):
    # An occupied network scores its curve at its load; an empty one, which
    # no terminal can measure, its base-load prior.
    assign = {NetworkKind.DSRC: 10, NetworkKind.LTE: 40, NetworkKind.WIFI: 0}
    cfg = step_cfg(num_cycles=1, measurement_mode=MeasurementMode.DIRECT,
                   initial_assignment=assign)
    _, seen = decided_evals(monkeypatch, cfg)
    expected = prior_evals(cfg, {})
    for net in (NetworkKind.DSRC, NetworkKind.LTE):
        expected[net] = evaluate_network(perf_at(cfg.profiles[net], assign[net]))
    assert all(evals == expected for evals in seen)


@pytest.mark.parametrize("kind", list(StrategyKind), ids=lambda k: k.value)
@pytest.mark.parametrize("mode", list(MeasurementMode), ids=lambda m: m.value)
def test_cycle_calls_match_traced_benchmark_closed_forms(monkeypatch, mode, kind):
    # The traced benchmark wraps these names and pins their calls per cycle
    # (and reads .delivered on each link), so a kernel that bypasses one of
    # them fails here before it fails there.
    calls = Counter()
    opened = []

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    sample_link, begin_cycle = engine.sample_link, ReceptionLedger.begin_cycle

    def counted_begin(ledger):
        calls["begin_cycle"] += 1
        slots = begin_cycle(ledger)
        opened.append(slots)
        return slots

    def counted_link(*args):
        link = sample_link(*args)
        calls["sample_link"] += 1
        calls["delivered"] += link.delivered
        return link

    monkeypatch.setattr(engine, "sample_link", counted_link)
    monkeypatch.setattr(ReceptionLedger, "begin_cycle", counted_begin)
    monkeypatch.setattr(engine, "evaluate_network",
                        counted("evaluate_network", engine.evaluate_network))
    monkeypatch.setattr(engine, "decide_game", counted("decide", engine.decide_game))
    monkeypatch.setattr(engine, "decide_baseline", counted("decide", engine.decide_baseline))
    cfg = step_cfg(num_cycles=4, measurement_mode=mode, strategy_kind=kind)
    n, sampled = cfg.total_terminals, mode is MeasurementMode.SAMPLED
    state = init_state(cfg)
    for _ in range(cfg.num_cycles):
        opened.clear()
        before = calls["delivered"]
        state, _ = run_cycle(state, cfg)
        # Each delivered link is one entry in its receiver's open slots.
        assert calls["delivered"] - before == sum(len(slot) for slots in opened for slot in slots)
    delivered = calls.pop("delivered", 0)
    per_cycle = {"sample_link": n * (n - 1) if sampled else 0,
                 "begin_cycle": n if sampled else 0,
                 "evaluate_network": 3 * n + 3 if sampled else 6,
                 "decide": n}
    assert calls == Counter({name: c * cfg.num_cycles for name, c in per_cycle.items()})
    assert (0 < delivered < calls["sample_link"]) if sampled else delivered == 0


@pytest.mark.parametrize("kind", list(StrategyKind), ids=lambda k: k.value)
def test_sampled_ledgers_hold_one_cycle_of_delays_between_cycles(kind):
    # Each receiver releases the previous cycle's delays once it has measured,
    # so between cycles the ledgers hold at most one delay per ordered pair.
    cfg = step_cfg(num_cycles=5, strategy_kind=kind)
    n = cfg.total_terminals
    state = init_state(cfg)
    for _ in range(cfg.num_cycles):
        state, _ = run_cycle(state, cfg)
        assert all(ledger._previous is None for ledger in state.ledgers)
        held = sum(len(slot) for ledger in state.ledgers for slot in ledger._current.values())
        assert 0 < held <= n * (n - 1)


@pytest.mark.parametrize("kind", list(StrategyKind), ids=lambda k: k.value)
def test_every_receiver_perceives_before_the_first_decision(monkeypatch, kind):
    # A sampled cycle perceives first: every ledger opens its cycle before any
    # terminal decides. Each decision then scores its own receiver's
    # measurements, a None one from the base-load prior, penalty included.
    events = []
    begin_cycle, decide_game, decide_baseline = (
        ReceptionLedger.begin_cycle, engine.decide_game, engine.decide_baseline)

    def logged_begin(ledger):
        events.append(("begin", ledger))
        return begin_cycle(ledger)

    def logged_game(current, x_dsrc, x_current, evals, *rest):
        events.append(("decide", evals))
        return decide_game(current, x_dsrc, x_current, evals, *rest)

    def logged_baseline(current, evals, *rest):
        events.append(("decide", evals))
        return decide_baseline(current, evals, *rest)

    monkeypatch.setattr(ReceptionLedger, "begin_cycle", logged_begin)
    monkeypatch.setattr(engine, "decide_game", logged_game)
    monkeypatch.setattr(engine, "decide_baseline", logged_baseline)
    measured = recorded_measures(monkeypatch)
    spec = DisturbanceSpec(network=NetworkKind.LTE, delta_e=0.08, start_cycle=0)
    cfg = step_cfg(num_cycles=3, strategy_kind=kind, disturbance=spec)
    n = cfg.total_terminals
    prior = {net: perf_at(cfg.profiles[net], 1) for net in ALL_NETWORKS}
    penalty = {net: 0.08 if net is NetworkKind.LTE else 0.0 for net in ALL_NETWORKS}
    state = init_state(cfg)
    readings = 0
    for _ in range(cfg.num_cycles):
        events.clear()
        measured.clear()
        state, _ = run_cycle(state, cfg)
        assert [event for event, _ in events] == ["begin"] * n + ["decide"] * n
        assert [ledger for _, ledger in events[:n]] == state.ledgers
        for ledger, (_, evals) in zip(state.ledgers, events[n:]):
            assert evals == {net: evaluate_network(measured[ledger, net] or prior[net],
                                                   penalty[net]) for net in ALL_NETWORKS}
        readings += sum(reading is not None for reading in measured.values())
    assert readings > 0  # not every network scored from the prior


def lossy_step_cfg(**overrides):
    """table2_step with every network's base loss p0 at 0.8, so LOST is common."""
    profiles = {net: dataclasses.replace(p, p0=0.8) for net, p in step_cfg().profiles.items()}
    return step_cfg(profiles=profiles, **overrides)


@pytest.mark.parametrize("make_cfg, kind", [
    (step_cfg, StrategyKind.GAME),
    (step_cfg, StrategyKind.BASELINE_MCDM),
    (lossy_step_cfg, StrategyKind.GAME),
], ids=["game", "baseline", "p0_0.8"])
def test_heard_masks_match_window_reference_fed_the_same_slots(monkeypatch, make_cfg, kind):
    # The engine stamps each receiver's heard senders as the broadcasters less
    # its own bit and the lost links, without reading the slots. A
    # WindowLedger fed the slots the receiver opened must read the same.
    begin_cycle = ReceptionLedger.begin_cycle
    opened = {}

    def captured_begin(ledger):
        slots = opened[ledger] = begin_cycle(ledger)
        return slots

    monkeypatch.setattr(ReceptionLedger, "begin_cycle", captured_begin)
    measured = recorded_measures(monkeypatch)
    cfg = make_cfg(num_cycles=12, strategy_kind=kind)
    n = cfg.total_terminals
    state = init_state(cfg)
    refs = [WindowLedger() for _ in range(n)]
    lost = 0
    for _ in range(cfg.num_cycles):
        opened.clear()
        measured.clear()
        state, _ = run_cycle(state, cfg)
        assert len(opened) == n
        for ledger, ref in zip(state.ledgers, refs):
            ref.begin_cycle()
            for net, slot in zip(ALL_NETWORKS, opened[ledger]):
                for sender, delay in slot.items():
                    ref.record_reception(net, sender, delay)
            lost += n - 1 - sum(map(len, opened[ledger]))
            for net in ALL_NETWORKS:
                assert ledger.distinct_senders(net) == ref.distinct_senders(net)
                assert measured[ledger, net] == ref.measure(net)
    links = n * (n - 1) * cfg.num_cycles
    assert 0 < lost < links
    if make_cfg is lossy_step_cfg:
        assert lost > links // 2


def test_determinism_byte_identical():
    cfg = step_cfg(num_cycles=30)  # sampled mode, full packet pipeline
    assert render_csv(run_scenario(cfg)) == render_csv(run_scenario(cfg))
    direct = step_cfg(num_cycles=30, measurement_mode=MeasurementMode.DIRECT)
    assert render_csv(run_scenario(direct)) == render_csv(run_scenario(direct))


def test_different_seeds_differ():
    cfg = step_cfg(num_cycles=30)
    a = render_csv(run_scenario(dataclasses.replace(cfg, seed=1)))
    b = render_csv(run_scenario(dataclasses.replace(cfg, seed=2)))
    assert a != b


def test_zero_cycles_rejected():
    with pytest.raises(ValueError, match="num_cycles"):
        run_scenario(step_cfg(num_cycles=0))


def test_invalid_config_refused_with_violations():
    cfg = step_cfg(strategy=StrategyParams(n_exp=30, rho=1.0, sigma=0.5))
    with pytest.raises(ValueError, match=re.escape("strategy.rho must be in [0, 1), got 1.0")):
        run_scenario(cfg)


def test_direct_mode_records_ground_truth():
    cfg = step_cfg(num_cycles=5, measurement_mode=MeasurementMode.DIRECT)
    records = run_scenario(cfg)
    from hetsim.netmodel import perf_at
    # Cycle 0 loads are the initial assignment.
    for net, count in ((NetworkKind.DSRC, 10), (NetworkKind.LTE, 20),
                       (NetworkKind.WIFI, 20)):
        assert records[0].net_perf[net] == pytest.approx(perf_at(cfg.profiles[net], count),
                                                          abs=1e-15)
        assert records[0].net_score[net] == pytest.approx(
            ground_truth_eval(cfg.profiles[net], count), abs=1e-15)


def test_single_terminal_avg_score_is_ground_truth():
    cfg = step_cfg(total_terminals=1,
                   initial_assignment={NetworkKind.DSRC: 1, NetworkKind.LTE: 0,
                                       NetworkKind.WIFI: 0},
                   num_cycles=3, measurement_mode=MeasurementMode.DIRECT)
    records = run_scenario(cfg)
    expected = ground_truth_eval(cfg.profiles[NetworkKind.DSRC], 1)
    assert records[0].avg_score == pytest.approx(expected, abs=1e-15)


# --- disturbance -------------------------------------------------------------

def test_disturbance_lowers_reported_score_by_exactly_delta():
    base = step_cfg(num_cycles=12, measurement_mode=MeasurementMode.DIRECT,
                    strategy_kind=StrategyKind.GAME)
    delta = 0.08
    spec = DisturbanceSpec(network=NetworkKind.LTE, delta_e=delta, start_cycle=4,
                           duration_cycles=3)
    clean = run_scenario(base)
    hit = run_scenario(dataclasses.replace(base, disturbance=spec))
    # Identical seeds keep the worlds aligned until the disturbance can change
    # behavior; cycle 4's record reflects pre-decision loads, so its per-network
    # score is directly comparable.
    diff = clean[4].net_score[NetworkKind.LTE] - hit[4].net_score[NetworkKind.LTE]
    assert diff == pytest.approx(delta, abs=1e-12)
    assert clean[4].net_score[NetworkKind.WIFI] == hit[4].net_score[NetworkKind.WIFI]
    assert clean[3].net_score[NetworkKind.LTE] == hit[3].net_score[NetworkKind.LTE]
    # ground-truth curves untouched
    assert clean[4].net_perf[NetworkKind.LTE] == hit[4].net_perf[NetworkKind.LTE]


def test_disturbance_expiry_restores_scores():
    base = step_cfg(num_cycles=12, measurement_mode=MeasurementMode.DIRECT)
    spec = DisturbanceSpec(network=NetworkKind.LTE, delta_e=0.05, start_cycle=2,
                           duration_cycles=2)
    hit = run_scenario(dataclasses.replace(base, disturbance=spec))
    state_scores = [r.net_score[NetworkKind.LTE] for r in hit]
    # cycle 4 is the first cycle past the active window [2, 4)
    clean = run_scenario(base)
    assert state_scores[4] == pytest.approx(
        clean[4].net_score[NetworkKind.LTE], abs=1e-12)


def test_disturbed_run_leaves_no_penalty_for_the_next():
    # Cycles without an active disturbance share one zero-penalty map; a
    # disturbed run before must leave it untouched for every later run.
    disturbed = load_scenario(SCENARIOS / "linear_delta_e.json")
    assert disturbed.disturbance.active_at(disturbed.num_cycles - 1)
    run_scenario(disturbed)
    cfg = step_cfg(measurement_mode=MeasurementMode.DIRECT)
    counts = cfg.initial_assignment
    for record in run_scenario(cfg):
        for net in ALL_NETWORKS:
            assert record.net_score[net] == evaluate_network(
                perf_at(cfg.profiles[net], counts[net])).score
        counts = record.counts


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


def test_predicted_shift_matches_game_simulation():
    cfg = load_scenario(SCENARIOS / "linear_delta_e.json")
    f_a = lambda n: ground_truth_eval(cfg.profiles[NetworkKind.WIFI], n)
    f_b = lambda n: ground_truth_eval(cfg.profiles[NetworkKind.LTE], n)
    predicted = predict_equilibrium_shift(f_a, f_b, 30, 15, cfg.disturbance.delta_e)
    records = run_scenario(cfg)
    assert all(r.handoffs == 0 for r in records[:cfg.disturbance.start_cycle])
    tail = records[-30:]
    simulated = 30 - sum(r.counts[NetworkKind.WIFI] for r in tail) / len(tail)
    assert abs(simulated - predicted) <= 2


# --- one-step expected-flow oracle (direct mode) ------------------------------

def expected_next_counts(cfg, counter):
    """Expected post-decision counts of one direct-mode cycle, in closed form.

    Starts from the configured assignment with every terminal's counter at
    `counter`. All terminals of a network see the same shared evaluations
    (the base-load prior on an empty network) and the same counts, so each
    moves with the same probabilities.
    """
    counts, params = cfg.initial_assignment, cfg.strategy
    evals = {net: evaluate_network(perf_at(cfg.profiles[net], counts[net] or 1))
             for net in ALL_NETWORKS}
    x_dsrc = counts[NetworkKind.DSRC]
    expected = {net: float(n) for net, n in counts.items()}
    for net in (n for n in ALL_NETWORKS if counts[n]):
        if cfg.strategy_kind is StrategyKind.BASELINE_MCDM:
            flows = [(select_best(evals, net), 1.0)]
        else:
            if net is NetworkKind.DSRC:
                x = x_dsrc
                first = (p_overload(x, params.n_exp, params.rho)
                         if x > params.n_exp else 0.0)
                first_target = best_network(evals, exclude=net)
            else:
                x = counts[net] - 1
                first = (p_return(x_dsrc, x, params.n_exp, params.rho)
                         if evals[NetworkKind.DSRC].meets_requirements
                         and x_dsrc < params.n_exp else 0.0)
                first_target = NetworkKind.DSRC
            # A lost first draw falls through to the degradation check.
            met = evals[net].meets_requirements
            degrade = 0.0 if met else p_degraded(update_counter(counter, met), x,
                                                 params.sigma)
            flows = [(first_target, first),
                     (best_network(evals, exclude=net), (1 - first) * degrade)]
        for target, p in flows:
            if target is not net:
                expected[net] -= counts[net] * p
                expected[target] += counts[net] * p
    return expected


ORACLE_STATES = {
    "step_start": ((10, 20, 20), 0),   # return to DSRC
    "empty_dsrc": ((0, 25, 25), 0),    # return and degradation
    "full_dsrc": ((50, 0, 0), 10),     # overload, then counter-scaled degradation
}


def oracle_cfg(assignment, kind):
    return step_cfg(initial_assignment=dict(zip(ALL_NETWORKS, assignment)),
                    num_cycles=1, measurement_mode=MeasurementMode.DIRECT,
                    strategy_kind=kind)


def one_cycle_counts(cfg, counter, seed):
    state = init_state(dataclasses.replace(cfg, seed=seed))
    state.counters = [counter] * len(state.counters)
    return run_cycle(state, cfg)[1].counts


@pytest.mark.parametrize("name", ORACLE_STATES)
def test_game_one_step_flow_matches_closed_form(name):
    assignment, counter = ORACLE_STATES[name]
    cfg = oracle_cfg(assignment, StrategyKind.GAME)
    expected = expected_next_counts(cfg, counter)
    k = 800
    runs = [one_cycle_counts(cfg, counter, seed) for seed in range(k)]
    for net in ALL_NETWORKS:
        values = [counts[net] for counts in runs]
        mean = sum(values) / k
        sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (k - 1))
        if sd == 0:
            assert mean == expected[net], net
        else:
            z = (mean - expected[net]) / (sd / math.sqrt(k))
            assert abs(z) < 4, (net, mean, expected[net], z)


@pytest.mark.parametrize("name", ORACLE_STATES)
def test_baseline_one_step_flow_matches_closed_form(name):
    assignment, counter = ORACLE_STATES[name]
    cfg = oracle_cfg(assignment, StrategyKind.BASELINE_MCDM)
    assert one_cycle_counts(cfg, counter, 42) == expected_next_counts(cfg, counter)


def test_noise_scenario_conserves_terminals():
    cfg = load_scenario(SCENARIOS / "table2_disturbance.json")
    cfg = dataclasses.replace(cfg, num_cycles=60,
                              measurement_mode=MeasurementMode.DIRECT)
    for record in run_scenario(cfg):
        assert sum(record.counts.values()) == 50


@pytest.mark.parametrize("n_dsrc", [20, 2], ids=["unclipped", "clipped"])
@pytest.mark.parametrize("amplitude", [1, 3, 4, 7, 8, 15, 16])
def test_noise_draw_matches_randint_draw_for_draw(monkeypatch, amplitude, n_dsrc):
    # run_cycle draws the noise inline; it must be rng.randint(-a, a) exactly,
    # clipped at 0, for widths 2a + 1 on either side of 4, 8, 16 and 32.
    seen = []

    def stay(current, x_dsrc, x_current, evals, counter_c, params, rng):
        seen.append(x_dsrc)
        return Decision(None, counter_c, Trigger.NONE)

    monkeypatch.setattr(engine, "decide_game", stay)
    rest = 50 - n_dsrc
    cfg = step_cfg(measurement_mode=MeasurementMode.DIRECT, noise_amplitude=amplitude,
                   num_cycles=25, initial_assignment={
                       NetworkKind.DSRC: n_dsrc, NetworkKind.LTE: rest // 2,
                       NetworkKind.WIFI: rest - rest // 2})
    state = init_state(cfg)
    for _ in range(cfg.num_cycles):
        state, _ = run_cycle(state, cfg)
    refs = [random.Random(substream_seed(cfg.seed, i)) for i in range(50)]
    want = [max(0, n_dsrc + ref.randint(-amplitude, amplitude))
            for _ in range(cfg.num_cycles) for ref in refs]
    assert seen == want
    assert [rng.getstate() for rng in state.rngs] == [ref.getstate() for ref in refs]
    assert max(seen) == n_dsrc + amplitude
    assert min(seen) == max(0, n_dsrc - amplitude)


def test_baseline_oscillates_after_disturbance():
    # Under the score-chasing baseline, a disturbance small enough to be
    # absorbed by a partial shift instead stampedes the whole population
    # back and forth every cycle.
    cfg = load_scenario(SCENARIOS / "linear_delta_e.json")
    cfg = dataclasses.replace(cfg, strategy_kind=StrategyKind.BASELINE_MCDM)
    g = cfg.initial_assignment[NetworkKind.WIFI]
    records = run_scenario(cfg)
    post = records[cfg.disturbance.start_cycle:]
    massive = sum(1 for r in post if r.handoffs >= g)
    assert massive >= 0.8 * len(post)


def test_any_valid_config_runs():
    rng = random.Random(31337)
    base = step_cfg()
    for _ in range(8):
        counts = [rng.randrange(0, 12) for _ in range(3)]
        if sum(counts) == 0:
            counts[0] = 1
        assignment = dict(zip(ALL_NETWORKS, counts))
        cfg = dataclasses.replace(
            base,
            total_terminals=sum(counts),
            initial_assignment=assignment,
            num_cycles=rng.randrange(1, 8),
            seed=rng.randrange(0, 2**64),
            measurement_mode=rng.choice(list(MeasurementMode)),
            strategy_kind=rng.choice(list(StrategyKind)),
            strategy=StrategyParams(n_exp=rng.randrange(1, 40),
                                    rho=rng.uniform(0, 0.99),
                                    sigma=rng.uniform(0, 1.0)),
        )
        assert validate_config(cfg) == []
        records = run_scenario(cfg)
        assert len(records) == cfg.num_cycles


def clipped_uniform_mean(delay, jitter, floor):
    """E[max(delay + U(-jitter, jitter), floor)]."""
    lo, hi = delay - jitter, delay + jitter
    if lo >= floor:
        return delay
    # floor with probability (floor - lo) / (2 jitter), else uniform above it
    return (floor * (floor - lo) / (2 * jitter)
            + (hi ** 2 - floor ** 2) / (4 * jitter))


@pytest.mark.parametrize("seed", [42, 7, 123])
def test_sampled_measurements_agree_with_curves(monkeypatch, seed):
    # rho = sigma = 0: no terminal can switch, so every load stays fixed and
    # each cycle's receptions are fresh draws from the same curves.
    frozen = dataclasses.replace(step_cfg().strategy, rho=0.0, sigma=0.0)
    cfg = step_cfg(seed=seed, num_cycles=15, strategy=frozen)
    state = init_state(cfg)
    counts = dict(state.counts)
    delays = {net: [] for net in ALL_NETWORKS}
    senders = {net: [] for net in ALL_NETWORKS}  # (heard, expected, variance)
    measured = recorded_measures(monkeypatch)
    for t in range(cfg.num_cycles):
        measured.clear()
        state, record = run_cycle(state, cfg)
        assert record.counts == counts
        for i, ledger in enumerate(state.ledgers):
            for net in ALL_NETWORKS:
                metrics = measured[ledger, net]
                if metrics is not None:
                    delays[net].append(metrics[0])
                # Non-overlapping 3-cycle windows keep the snapshots independent.
                if t % 3 == 2:
                    _, plr, _ = perf_at(cfg.profiles[net], counts[net])
                    heard_p = 1 - plr ** 3  # missed only if lost three times
                    others = counts[net] - (state.attachment[i] is net)
                    senders[net].append((ledger.distinct_senders(net),
                                         others * heard_p,
                                         others * heard_p * (1 - heard_p)))
    for net in ALL_NETWORKS:
        delay, _, jitter = perf_at(cfg.profiles[net], counts[net])
        expected = clipped_uniform_mean(delay, jitter, cfg.profiles[net].d0)
        sample = delays[net]
        mean = sum(sample) / len(sample)
        var = sum((x - mean) ** 2 for x in sample) / (len(sample) - 1)
        assert abs(mean - expected) <= 4 * (var / len(sample)) ** 0.5, net

        n = len(senders[net])
        residual = sum(h - e for h, e, _ in senders[net]) / n
        stderr = sum(v for _, _, v in senders[net]) ** 0.5 / n
        assert abs(residual) <= 4 * stderr, net


def abs_difference_mean(delay, jitter, floor):
    """E|X1 - X2| for independent X = max(delay + U(-jitter, jitter), floor).

    It is 2 * integral of F(1 - F) dx. Above the floor's atom, of mass a, the
    CDF F rises linearly to 1 over 2 jitter, so the integral is
    2 jitter * integral of u(1 - u) du from a to 1.
    """
    a = min(max(floor - (delay - jitter), 0.0) / (2 * jitter), 1.0)
    return 4 * jitter * (1 / 6 - a * a / 2 + a ** 3 / 3)


def loss_estimate_mean(m, plr):
    """E[(heard - k) / k] over m other senders, given that `measure` reads.

    Each sender is heard this cycle (k of them) with probability 1 - plr. Each
    of the m - k others is in the trailing second's sender count (10 cycles of
    0.1 s) if heard in one of its 9 earlier cycles: probability 1 - plr ** 9.
    `measure` reads only if one of the k was also heard last cycle:
    probability 1 - plr ** k.
    """
    weight = {k: math.comb(m, k) * (1 - plr) ** k * plr ** (m - k) * (1 - plr ** k)
              for k in range(1, m + 1)}
    return (sum(w * (m - k) * (1 - plr ** 9) / k for k, w in weight.items())
            / sum(weight.values()))


@pytest.mark.parametrize("p0, num_cycles", [(None, 25), (0.8, 60)], ids=["table2_step", "lossy"])
def test_sampled_jitter_and_loss_match_exact_expectations(monkeypatch, p0, num_cycles):
    # rho = sigma = 0 keeps every load fixed, so from cycle 10 on, each reading
    # of `measure` draws from one distribution per (network, own network). The
    # lossy case raises every p0 to 0.8, where a sender misses all 9 earlier
    # cycles of the window often enough (0.8 ** 9 = 0.13) to weigh.
    frozen = dataclasses.replace(step_cfg().strategy, rho=0.0, sigma=0.0)
    profiles = step_cfg().profiles
    if p0 is not None:
        profiles = {net: dataclasses.replace(p, p0=p0) for net, p in profiles.items()}
    # One residual per (seed, receiver, network, metric): the sum, over the cycles
    # where `measure` reads, of reading minus expectation. Each term has mean 0,
    # and receivers draw from their own streams, so the sums are independent.
    residuals = {(net, metric): [] for net in ALL_NETWORKS for metric in ("jitter", "loss")}
    measured = recorded_measures(monkeypatch)
    for seed in range(6):
        cfg = step_cfg(seed=seed, num_cycles=num_cycles, strategy=frozen, profiles=profiles)
        state = init_state(cfg)
        counts = dict(state.counts)
        expected = {}
        for net in ALL_NETWORKS:
            delay, plr, jitter = perf_at(profiles[net], counts[net])
            for own in (False, True):
                expected[net, own] = (abs_difference_mean(delay, jitter, profiles[net].d0),
                                      loss_estimate_mean(counts[net] - own, plr))
        sums = [{net: [0.0, 0.0] for net in ALL_NETWORKS} for _ in state.ledgers]
        for t in range(num_cycles):
            measured.clear()
            state, record = run_cycle(state, cfg)
            assert record.counts == counts
            if t < 10:
                continue
            for i, ledger in enumerate(state.ledgers):
                for net in ALL_NETWORKS:
                    metrics = measured[ledger, net]
                    if metrics is not None:
                        want_jitter, want_loss = expected[net, state.attachment[i] is net]
                        sums[i][net][0] += metrics[2] - want_jitter
                        sums[i][net][1] += metrics[1] - want_loss
        for receiver in sums:
            for net, (jitter_sum, loss_sum) in receiver.items():
                residuals[net, "jitter"].append(jitter_sum)
                residuals[net, "loss"].append(loss_sum)
    for key, sample in residuals.items():
        n = len(sample)
        mean = sum(sample) / n
        var = sum((x - mean) ** 2 for x in sample) / (n - 1)
        assert abs(mean) <= 4 * (var / n) ** 0.5, key
