"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The heavyweight sweeps (criteria 2, 3, 5) run the step and disturbance
scenarios across 100 seeds in direct measurement mode.
"""

import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest
from reference import p_degraded, p_overload, p_return, update_counter

from hetsim.cli import main
from hetsim.domain import (
    CYCLE_S,
    F_DELAY_REF,
    F_JIT_REF,
    F_PLR_REF,
    W_DELAY,
    W_JIT,
    W_PLR,
    MeasurementMode,
    NetworkKind,
    StrategyKind,
    load_scenario,
)
from hetsim.engine import run_scenario
from hetsim.evaluation import evaluate_network, ground_truth_eval, predict_equilibrium_shift
from hetsim.report import detect_convergence, render_csv

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
N_SEEDS = 100


def verdict(number, name, detail):
    print(f"acceptance {number} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def step_direct():
    cfg = load_scenario(SCENARIOS / "table2_step.json")
    return dataclasses.replace(cfg, measurement_mode=MeasurementMode.DIRECT,
                               num_cycles=60)


@pytest.fixture(scope="module")
def game_sweep(step_direct):
    """Per-seed (records, handoffs) for the game strategy on the step scenario."""
    out = []
    for seed in range(N_SEEDS):
        records = run_scenario(dataclasses.replace(step_direct, seed=seed))
        for r in records:
            assert sum(r.counts.values()) == 50
        out.append(records)
    return out


@pytest.fixture(scope="module")
def baseline_sweep(step_direct):
    cfg = dataclasses.replace(step_direct,
                              strategy_kind=StrategyKind.BASELINE_MCDM)
    out = []
    for seed in range(N_SEEDS):
        records = run_scenario(dataclasses.replace(cfg, seed=seed))
        for r in records:
            assert sum(r.counts.values()) == 50
        out.append(records)
    return out


def test_criterion_1_formula_oracles():
    """Closed-form checks against exact rational arithmetic, |err| <= 1e-12."""
    tol = 1e-12
    tuples = 0
    worst = 0.0

    def check(got, exact):
        nonlocal tuples, worst
        err = abs(got - float(exact))
        worst = max(worst, err)
        assert err <= tol
        tuples += 1

    rhos = [Fraction(1, 2), Fraction(1, 4), Fraction(9, 10), Fraction(0)]
    for x in (31, 32, 40, 49, 100, 999):
        for n_exp in (10, 30):
            for rho in rhos:
                if x > n_exp:
                    check(p_overload(x, n_exp, float(rho)),
                          rho * Fraction(x - n_exp + 1, x + 1))

    sigmas = [Fraction(1, 2), Fraction(1, 5), Fraction(1)]
    for c in (0, 1, 2, 10, 100):
        for x in (1, 3, 30, 200):
            for sigma in sigmas:
                check(p_degraded(c, x, float(sigma)),
                      min(sigma * c / x, Fraction(1)))

    for x in (0, 10, 29, 30, 35):
        for x_prime in (0, 9, 19, 40):
            for rho in rhos[:3]:
                raw = rho * Fraction(30 - x, x_prime + 1)
                check(p_return(x, x_prime, 30, float(rho)),
                      min(max(raw, Fraction(0)), rho))

    # The decimal values the constants are written as, not their binary floats.
    f_d, f_p, f_j = (Fraction(str(r)) for r in (F_DELAY_REF, F_PLR_REF, F_JIT_REF))
    w_d, w_p, w_j = (Fraction(str(w)) for w in (W_DELAY, W_PLR, W_JIT))
    metric_grid = [Fraction(n, 200) for n in (0, 3, 10, 21, 40)]
    for delay in metric_grid:
        for plr in metric_grid[:3]:
            for jit in metric_grid:
                ev = evaluate_network((float(delay), float(plr), float(jit)))
                exact_u = ((f_d - delay) / f_d, (f_p - plr) / f_p, (f_j - jit) / f_j)
                check(ev.score, w_d * exact_u[0] + w_p * exact_u[1] + w_j * exact_u[2])
                exceeded = (delay > f_d) + (plr > f_p) + (jit > f_j)
                assert ev.meets_requirements is (exceeded < 2)
                tuples += 1

    for c in range(0, 25):
        assert update_counter(c, met=False) == c + 1
        assert update_counter(c, met=True) == c // 2
        tuples += 2

    assert tuples >= 100
    verdict(1, "formula-oracles", f"{tuples} tuples, max abs err {worst:.2e}")


def test_criterion_2_step_response_convergence(game_sweep):
    """Game converges within 15 cycles to a DSRC population near n_exp."""
    good = 0
    conv_cycles = []
    for records in game_sweep:
        conv = detect_convergence([r.handoffs for r in records],
                                  threshold=1, window=20)
        if conv is None or conv > 15:
            continue
        region = records[conv:]
        mean_dsrc = sum(r.counts[NetworkKind.DSRC] for r in region) / len(region)
        if 27 <= mean_dsrc <= 33:
            good += 1
            conv_cycles.append(conv)
    assert good >= 0.9 * N_SEEDS
    verdict(2, "step-response-convergence",
            f"{good}/{N_SEEDS} seeds, worst convergence cycle "
            f"{max(conv_cycles)}")


def test_criterion_3_baseline_ping_pong(game_sweep, baseline_sweep):
    """Baseline never settles and hands off at >= 10x the game's rate."""
    never = sum(
        detect_convergence([r.handoffs for r in records], 1, 20) is None
        for records in baseline_sweep)
    game_rate = (sum(sum(r.handoffs for r in records) for records in game_sweep)
                 / (N_SEEDS * len(game_sweep[0])))
    base_rate = (sum(sum(r.handoffs for r in records) for records in baseline_sweep)
                 / (N_SEEDS * len(baseline_sweep[0])))
    assert never >= 0.95 * N_SEEDS
    assert base_rate >= 10 * game_rate
    verdict(3, "baseline-ping-pong",
            f"{never}/{N_SEEDS} seeds never converge, "
            f"{base_rate:.1f} vs {game_rate:.2f} handoffs/cycle")


def test_criterion_4_empty_lte(baseline_sweep):
    """Baseline argmax never parks terminals on the weakest-at-base-load net."""
    worst = 0.0
    for records in baseline_sweep[:10]:
        mean_lte = sum(r.counts[NetworkKind.LTE] for r in records) / len(records)
        worst = max(worst, mean_lte)
        assert mean_lte <= 1.0
    verdict(4, "empty-lte", f"max mean LTE attachment {worst:.3f} terminals")


def test_criterion_5_disturbance_stability():
    """Noisy population estimates leave the converged DSRC level in a +-3 band.

    The band is checked on one-second aggregates of the count (the system's
    own reporting period); the raw per-cycle count flickers by one-off
    exchange handoffs, which the aggregate absorbs.
    """
    cfg = load_scenario(SCENARIOS / "table2_disturbance.json")
    cfg = dataclasses.replace(cfg, measurement_mode=MeasurementMode.DIRECT)
    bucket = round(1.0 / CYCLE_S)
    good = 0
    worst = 0.0
    for seed in range(N_SEEDS):
        records = run_scenario(dataclasses.replace(cfg, seed=seed))
        for r in records:
            assert sum(r.counts.values()) == 50
        conv = detect_convergence([r.handoffs for r in records],
                                  threshold=3, window=20)
        if conv is None:
            continue
        counts = [r.counts[NetworkKind.DSRC] for r in records[conv:]]
        converged_value = sum(counts) / len(counts)
        offsets = [
            abs(sum(counts[i:i + bucket]) / len(counts[i:i + bucket])
                - converged_value)
            for i in range(0, len(counts), bucket)
        ]
        worst = max(worst, max(offsets))
        if max(offsets) <= 3:
            good += 1
    assert good >= 0.9 * N_SEEDS
    verdict(5, "disturbance-stability",
            f"{good}/{N_SEEDS} seeds, worst one-second offset {worst:.2f}")


def test_criterion_6_equilibrium_oracle():
    """Analytic shift matches both the linear closed form and the simulation."""
    rng = random.Random(2024)
    cases = 0
    for _ in range(25):
        slope_a = rng.choice([0.005, 0.01, 0.02, 0.025])
        slope_b = rng.choice([0.005, 0.01, 0.015])
        g, h = rng.randrange(10, 50), rng.randrange(5, 30)
        target = rng.randrange(0, min(g, 12) + 1)
        delta = target * (slope_a + slope_b)
        f_a = lambda n, s=slope_a: 2.0 - s * n
        f_b = lambda n, s=slope_b: 2.0 - s * n
        assert predict_equilibrium_shift(f_a, f_b, g, h, delta) == target
        cases += 1
    assert cases >= 20

    cfg = load_scenario(SCENARIOS / "linear_delta_e.json")
    f_a = lambda n: ground_truth_eval(cfg.profiles[NetworkKind.WIFI], n)
    f_b = lambda n: ground_truth_eval(cfg.profiles[NetworkKind.LTE], n)
    g = cfg.initial_assignment[NetworkKind.WIFI]
    h = cfg.initial_assignment[NetworkKind.LTE]
    predicted = predict_equilibrium_shift(f_a, f_b, g, h,
                                          cfg.disturbance.delta_e)
    shifts = []
    for seed in range(10):
        records = run_scenario(dataclasses.replace(cfg, seed=seed))
        tail = records[-30:]
        shifts.append(g - sum(r.counts[NetworkKind.WIFI] for r in tail)
                      / len(tail))
    simulated = sum(shifts) / len(shifts)
    assert abs(simulated - predicted) <= 2
    verdict(6, "equilibrium-oracle",
            f"{cases} closed-form cases exact; predicted {predicted}, "
            f"simulated {simulated:.1f}")


def test_criterion_7_expected_switchers():
    """Empirical mean switchers matches sigma*c under the degradation draw."""
    m, sigma, trials = 30, 0.5, 100_000
    rng = random.Random(777)
    details = []
    for c in (1, 2, 4, 10, 20):
        p = p_degraded(c, m, sigma)
        expected = sigma * c
        assert m * p == pytest.approx(expected, abs=1e-12)
        total = 0
        for _ in range(trials):
            switchers = 0
            for _ in range(m):
                if rng.random() < p:
                    switchers += 1
            total += switchers
        mean = total / trials
        stderr = (m * p * (1 - p) / trials) ** 0.5
        assert abs(mean - expected) <= 3 * stderr
        details.append(f"sigma*c={expected}: {mean:.3f}")
    verdict(7, "expected-switchers", "; ".join(details))


def test_criterion_8_conservation_and_determinism():
    """Terminals are conserved every cycle; (config, seed) runs are bit-stable."""
    step = load_scenario(SCENARIOS / "table2_step.json")
    checked = 0
    for seed in (3, 17):
        for mode in MeasurementMode:
            cfg = dataclasses.replace(step, num_cycles=40, seed=seed,
                                      measurement_mode=mode)
            first = run_scenario(cfg)
            for r in first:
                assert sum(r.counts.values()) == 50
                checked += 1
            assert render_csv(run_scenario(cfg)) == render_csv(first)
    verdict(8, "conservation-and-determinism",
            f"{checked} cycles conserved, 4 reruns byte-identical")


def test_criterion_9_handoff_rate_ratio(tmp_path):
    """cmd_compare: the game's total handoffs stay under half the baseline's."""
    out = tmp_path / "cmp.csv"
    code = main(["compare", str(SCENARIOS / "table2_step.json"), "-o", str(out)])
    assert code == 0

    def total_handoffs(path):
        lines = path.read_text().splitlines()
        idx = lines[0].split(",").index("handoffs")
        return sum(int(line.split(",")[idx]) for line in lines[1:])

    game = total_handoffs(tmp_path / "cmp_game.csv")
    baseline = total_handoffs(tmp_path / "cmp_baseline_mcdm.csv")
    assert game <= 0.5 * baseline
    verdict(9, "handoff-rate-ratio",
            f"game {game} vs baseline {baseline} total handoffs "
            f"(ratio {game / baseline:.4f})")
