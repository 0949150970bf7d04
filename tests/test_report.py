import dataclasses
import hashlib
from pathlib import Path

import pytest

from hetsim.domain import ALL_NETWORKS, MeasurementMode, NetworkKind, load_scenario
from hetsim.engine import CycleRecord, run_scenario
from hetsim.report import (
    CSV_COLUMNS,
    detect_convergence,
    format_comparison,
    render_csv,
    summarize,
    write_csv,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def csv_sha256(records):
    return hashlib.sha256(render_csv(records).encode("utf-8")).hexdigest()


def record(cycle, handoffs, counts=(30, 10, 10), avg_score=0.5):
    count_map = dict(zip(ALL_NETWORKS, counts))
    return CycleRecord(cycle=cycle, counts=count_map, handoffs=handoffs,
                       avg_score=avg_score, net_score={net: 0.0 for net in ALL_NETWORKS},
                       net_perf={net: (0.0, 0.0, 0.0) for net in ALL_NETWORKS})


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


def test_detect_convergence_rejects_negative_threshold():
    with pytest.raises(ValueError, match="threshold"):
        detect_convergence([0], threshold=-1, window=1)


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
    summary = summarize(from_handoffs([10] * 30))
    assert summary.converged_at_cycle is None
    assert summary.pingpong_index == 10.0
    assert summary.total_handoffs == 300


def test_summarize_post_convergence_region():
    series = [40, 20] + [0] * 5 + [1] + [0] * 14
    summary = summarize(from_handoffs(series))
    assert summary.converged_at_cycle == 2
    assert summary.pingpong_index == pytest.approx(1 / 20)


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


def test_cycle_record_fields_keywords_and_immutability():
    # The engine builds records positionally; the library builds them by keyword.
    assert CycleRecord._fields == ("cycle", "counts", "handoffs", "avg_score",
                                   "net_score", "net_perf")
    counts = dict(zip(ALL_NETWORKS, (12, 19, 19)))
    net_score = dict(zip(ALL_NETWORKS, (0.25, -0.125, 0.5)))
    net_perf = dict(zip(ALL_NETWORKS, ((0.01, 0.02, 0.003), (0.04, 0.05, 0.006),
                                       (0.07, 0.08, 0.009))))
    by_keyword = CycleRecord(cycle=7, counts=counts, handoffs=4, avg_score=0.375,
                             net_score=net_score, net_perf=net_perf)
    by_position = CycleRecord(7, counts, 4, 0.375, net_score, net_perf)
    assert by_keyword == by_position
    assert render_csv([by_keyword]).encode() == render_csv([by_position]).encode()
    with pytest.raises(AttributeError):
        by_keyword.handoffs = 5
    assert by_keyword._replace(handoffs=5).handoffs == 5
    assert by_keyword.handoffs == 4


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
            rec.net_perf[NetworkKind.WIFI][0], abs=5e-7)


def test_csv_write_failure_names_destination(tmp_path):
    target = tmp_path / "missing" / "out.csv"
    with pytest.raises(OSError, match="out.csv"):
        write_csv([record(0, 0)], target)


def test_compare_example():
    game = summarize(from_handoffs([1, 1, 0, 1] * 10))
    # Force the exact rates from the worked example via handcrafted summaries.
    game = dataclasses.replace(game, pingpong_index=0.8)
    baseline = dataclasses.replace(game, pingpong_index=25.0,
                                   converged_at_cycle=None)
    assert format_comparison(game, baseline).splitlines() == [
        "handoff rate ratio (game/baseline): 0.0320",
        "game:     0.8000 handoffs/cycle (0.0160 per terminal), total 30, converged cycle 0",
        "baseline: 25.0000 handoffs/cycle (0.5000 per terminal), total 30, converged never",
    ]


def test_compare_identical_summaries():
    summary = summarize(from_handoffs([2] * 20))
    assert format_comparison(summary, summary).splitlines()[0] == \
        "handoff rate ratio (game/baseline): 1.0000"


def test_compare_zero_baseline_quiet_game():
    quiet = summarize(from_handoffs([0, 0, 0]))
    assert format_comparison(quiet, quiet).splitlines() == [
        "handoff rate ratio (game/baseline): 1.0000",
        "game:     0.0000 handoffs/cycle (0.0000 per terminal), total 0, converged never",
        "baseline: 0.0000 handoffs/cycle (0.0000 per terminal), total 0, converged never",
    ]


def test_compare_zero_baseline_busy_game():
    busy, quiet = summarize(from_handoffs([2] * 20)), summarize(from_handoffs([0, 0, 0]))
    assert format_comparison(busy, quiet).splitlines() == [
        "handoff rate ratio (game/baseline): inf",
        "game:     2.0000 handoffs/cycle (0.0400 per terminal), total 40, converged never",
        "baseline: 0.0000 handoffs/cycle (0.0000 per terminal), total 0, converged never",
    ]
