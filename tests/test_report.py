import dataclasses
import hashlib
from pathlib import Path

import pytest

from hetsim.domain import ALL_NETWORKS, MeasurementMode, NetworkKind, load_scenario
from hetsim.engine import CycleRecord, run_scenario
from hetsim.report import (
    CSV_COLUMNS,
    compare,
    detect_convergence,
    render_csv,
    summarize,
    write_csv,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def csv_sha256(records):
    return hashlib.sha256(render_csv(records).encode("utf-8")).hexdigest()


def record(cycle, handoffs, counts=(30, 10, 10), avg_score=0.5):
    count_map = dict(zip(ALL_NETWORKS, counts))
    zero = {net: 0.0 for net in ALL_NETWORKS}
    return CycleRecord(cycle=cycle, time_s=cycle * 0.1, counts=count_map,
                       handoffs=handoffs, avg_score=avg_score,
                       net_score=dict(zero), net_delay=dict(zero),
                       net_plr=dict(zero), net_jit=dict(zero))


def from_handoffs(series):
    return [record(i, h) for i, h in enumerate(series)]


def test_detect_convergence_example():
    assert detect_convergence([20, 15, 8, 1, 0, 0, 0], threshold=1, window=3) == 3


def test_detect_convergence_all_quiet():
    assert detect_convergence([0, 0, 0, 0], threshold=1, window=3) == 0


def test_detect_convergence_never():
    assert detect_convergence([5, 5, 5, 5], threshold=1, window=2) is None


def test_detect_convergence_window_exceeds_series():
    assert detect_convergence([0, 0], threshold=1, window=3) is None


def test_detect_convergence_rejects_bad_window():
    with pytest.raises(ValueError):
        detect_convergence([0], threshold=1, window=0)


def test_detect_convergence_satisfies_defining_predicate():
    import random
    rng = random.Random(4)
    for _ in range(100):
        series = [rng.randrange(0, 4) for _ in range(60)]
        threshold, window = rng.randrange(0, 3), rng.randrange(1, 10)
        got = detect_convergence(series, threshold, window)
        candidates = [c for c in range(len(series) - window + 1)
                      if all(v <= threshold for v in series[c:c + window])]
        assert got == (min(candidates) if candidates else None)


def test_summarize_quiet_run():
    summary = summarize(from_handoffs([0] * 30))
    assert summary.converged_at_cycle == 0
    assert summary.pingpong_index == 0.0
    assert summary.total_handoffs == 0
    assert summary.mean_counts[NetworkKind.DSRC] == 30.0


def test_summarize_never_converged_uses_whole_run():
    summary = summarize(from_handoffs([10] * 30), threshold=1, window=5)
    assert summary.converged_at_cycle is None
    assert summary.pingpong_index == 10.0
    assert summary.total_handoffs == 300


def test_summarize_post_convergence_region():
    series = [40, 20, 0, 0, 0, 0, 0, 2, 0, 0]
    summary = summarize(from_handoffs(series), threshold=2, window=3)
    assert summary.converged_at_cycle == 2
    assert summary.pingpong_index == pytest.approx(2 / 8)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_golden_step_run_summary():
    # Pinned regression: table2_step.json exactly as shipped (seed 42, sampled).
    records = run_scenario(load_scenario(SCENARIOS / "table2_step.json"))
    summary = summarize(records)
    assert summary.converged_at_cycle == 10
    assert summary.pingpong_index == 0.0
    assert summary.total_handoffs == 32
    assert summary.mean_avg_score == pytest.approx(0.14268952594371906, abs=1e-12)
    assert summary.mean_counts[NetworkKind.DSRC] == pytest.approx(30.0)
    assert summary.mean_counts[NetworkKind.LTE] == pytest.approx(5.0)
    assert summary.mean_counts[NetworkKind.WIFI] == pytest.approx(15.0)
    assert csv_sha256(records) == \
        "6c77300474171797331cd114bc141ee1fe2d73b4cdc0722b3a7caceb473f50af"


#: sha256 of the CSV of each shipped scenario at its own seed, direct mode.
DIRECT_CSV_SHA256 = {
    "table2_step": "ef203fc30c6359b91931800f630c93c3a0dbe3b756d7e36b2d6bf0d181227dd4",
    "table2_disturbance": "04a3a183d01c0d6dad46506408c3eb50399493602c31b4bce03ee7cee5b95278",
    "linear_delta_e": "9967f768ba788a0e5c2aa3de5cc6e98c3e02fa1efa348a9c01398986efb6b28e",
}


@pytest.mark.parametrize("name", DIRECT_CSV_SHA256)
def test_golden_direct_csv_bytes(name):
    cfg = dataclasses.replace(load_scenario(SCENARIOS / f"{name}.json"),
                              measurement_mode=MeasurementMode.DIRECT)
    assert csv_sha256(run_scenario(cfg)) == DIRECT_CSV_SHA256[name]


def test_csv_header_only_for_empty():
    assert render_csv([]) == ",".join(CSV_COLUMNS) + "\n"


def test_csv_one_record_two_lines(tmp_path):
    out = tmp_path / "one.csv"
    write_csv([record(0, 3)], out)
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].split(",") == list(CSV_COLUMNS)
    assert lines[1].startswith("0,0.000000,30,10,10,3,0.500000,")


def test_csv_byte_identical_for_identical_run(tmp_path):
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "table2_step.json"),
                              num_cycles=25)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_scenario(cfg), a)
    write_csv(run_scenario(cfg), b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_round_trip_six_decimals(tmp_path):
    cfg = dataclasses.replace(load_scenario(SCENARIOS / "table2_step.json"),
                              num_cycles=10)
    records = run_scenario(cfg)
    out = tmp_path / "run.csv"
    write_csv(records, out)
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    for line, rec in zip(lines[1:], records):
        row = dict(zip(header, line.split(",")))
        assert int(row["cycle"]) == rec.cycle
        assert int(row["count_dsrc"]) == rec.counts[NetworkKind.DSRC]
        assert int(row["handoffs"]) == rec.handoffs
        assert float(row["avg_score"]) == pytest.approx(rec.avg_score, abs=5e-7)
        assert float(row["delay_wifi"]) == pytest.approx(
            rec.net_delay[NetworkKind.WIFI], abs=5e-7)


def test_csv_write_failure_names_destination(tmp_path):
    target = tmp_path / "missing" / "out.csv"
    with pytest.raises(OSError, match="out.csv"):
        write_csv([record(0, 0)], target)


def test_compare_example():
    game = summarize(from_handoffs([1, 1, 0, 1] * 10), threshold=1, window=2)
    # Force the exact rates from the worked example via handcrafted summaries.
    game = dataclasses.replace(game, pingpong_index=0.8)
    baseline = dataclasses.replace(game, pingpong_index=25.0,
                                   converged_at_cycle=None)
    result = compare(game, baseline)
    assert result.handoff_rate_ratio == pytest.approx(0.032)
    assert result.game_per_terminal_prob == pytest.approx(0.016)
    assert result.game_converged_at is not None
    assert result.baseline_converged_at is None


def test_compare_identical_summaries():
    summary = summarize(from_handoffs([2, 2, 2, 2]), threshold=1, window=2)
    assert compare(summary, summary).handoff_rate_ratio == 1.0


def test_compare_zero_baseline_quiet_game():
    quiet = summarize(from_handoffs([0, 0, 0]))
    assert compare(quiet, quiet).handoff_rate_ratio == 1.0
