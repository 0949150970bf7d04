import dataclasses
import random
from pathlib import Path

import pytest

from hetsim.domain import (
    ALL_NETWORKS,
    DisturbanceSpec,
    MeasurementMode,
    NetworkKind,
    StrategyKind,
    StrategyParams,
    load_scenario,
)
from hetsim.engine import (
    init_state,
    predict_equilibrium_shift,
    run_cycle,
    run_scenario,
    substream_seed,
)
from hetsim.netmodel import NetworkProfile, ground_truth_eval
from hetsim.report import render_csv

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
    with pytest.raises(ValueError, match="rho must be < 1"):
        run_scenario(cfg)


def test_decision_order_permutation_is_invisible():
    cfg = step_cfg(num_cycles=25)
    order = list(range(50))
    random.Random(7).shuffle(order)
    baseline = render_csv(run_scenario(cfg))
    assert render_csv(run_scenario(cfg, decision_order=order)) == baseline
    assert render_csv(run_scenario(cfg, decision_order=list(reversed(range(50))))) \
        == baseline


def test_direct_mode_records_ground_truth():
    cfg = step_cfg(num_cycles=5, measurement_mode=MeasurementMode.DIRECT)
    records = run_scenario(cfg)
    from hetsim.netmodel import perf_at
    # Cycle 0 loads are the initial assignment.
    for net, count in ((NetworkKind.DSRC, 10), (NetworkKind.LTE, 20),
                       (NetworkKind.WIFI, 20)):
        delay, plr, jit = perf_at(cfg.profiles[net], count)
        assert records[0].net_delay[net] == pytest.approx(delay, abs=1e-15)
        assert records[0].net_plr[net] == pytest.approx(plr, abs=1e-15)
        assert records[0].net_jit[net] == pytest.approx(jit, abs=1e-15)
        assert records[0].net_score[net] == pytest.approx(
            ground_truth_eval(cfg.profiles[net], count, cfg.strategy), abs=1e-15)


def test_single_terminal_avg_score_is_ground_truth():
    cfg = step_cfg(total_terminals=1,
                   initial_assignment={NetworkKind.DSRC: 1, NetworkKind.LTE: 0,
                                       NetworkKind.WIFI: 0},
                   num_cycles=3, measurement_mode=MeasurementMode.DIRECT)
    records = run_scenario(cfg)
    expected = ground_truth_eval(cfg.profiles[NetworkKind.DSRC], 1, cfg.strategy)
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
    assert clean[4].net_delay[NetworkKind.LTE] == hit[4].net_delay[NetworkKind.LTE]


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
    f_a = lambda n: ground_truth_eval(cfg.profiles[NetworkKind.WIFI], n, cfg.strategy)
    f_b = lambda n: ground_truth_eval(cfg.profiles[NetworkKind.LTE], n, cfg.strategy)
    predicted = predict_equilibrium_shift(f_a, f_b, 30, 15, cfg.disturbance.delta_e)
    records = run_scenario(cfg)
    assert all(r.handoffs == 0 for r in records[:cfg.disturbance.start_cycle])
    tail = records[-30:]
    simulated = 30 - sum(r.counts[NetworkKind.WIFI] for r in tail) / len(tail)
    assert abs(simulated - predicted) <= 2


def test_noise_scenario_conserves_terminals():
    cfg = load_scenario(SCENARIOS / "table2_disturbance.json")
    cfg = dataclasses.replace(cfg, num_cycles=60,
                              measurement_mode=MeasurementMode.DIRECT)
    for record in run_scenario(cfg):
        assert sum(record.counts.values()) == 50


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
        from hetsim.domain import validate_config
        assert validate_config(cfg) == []
        records = run_scenario(cfg)
        assert len(records) == cfg.num_cycles
