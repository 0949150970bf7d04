"""Exact sampled records, pinned by digest: the same bits on CPython 3.10-3.13.

`sum()` of floats is compensated from CPython 3.12 on, so a mean summed with
it moves in its last bits between versions. The ledger's means and the
summary's mean score sum with `math.fsum`, which is correctly rounded on
every version. The CSV prints 6 decimals and cannot see such drift, so the
digests hash every record float exactly, as `float.hex`. The module imports
no pytest: an interpreter without it can import this file and call the test.
"""

import dataclasses
import hashlib
from pathlib import Path

from hetsim.domain import ALL_NETWORKS, MeasurementMode, StrategyKind, load_scenario
from hetsim.engine import run_scenario
from hetsim.report import summarize

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

#: sha256 of record_digest's text for each shipped scenario and strategy,
#: sampled, 40 cycles.
PINNED = {
    "table2_step/game":
        "1522aac1ec7fa75175b91c1a48a97286ca31b7c703a6b9b5e66f9260e222f87a",
    "table2_step/baseline_mcdm":
        "1853d9425189b8d77bee7cbbc8b7c627d7e047046bc22a5c957842c94029360d",
    "table2_disturbance/game":
        "04c0de91c5f1aae9dcfa3b39766b821b4a826205e21bf2714102cc87daa9f704",
    "table2_disturbance/baseline_mcdm":
        "e253a50892b390ca6e76f2cc53ab4b037754495a2852cd2f6494d74bc4bda4ba",
    "linear_delta_e/game":
        "0e1d5eaaa70f2aeba45ceba547fa9d563baee32f1eac89c2413f2e539f58763e",
    "linear_delta_e/baseline_mcdm":
        "aae5834c80a076e6541d29443fd979da9452354c0a9ceeed0a3f5c74c83066ee",
}


def record_digest(records) -> str:
    """sha256 over every record field, floats as hex, and the summary's mean score."""
    h = hashlib.sha256()
    for r in records:
        fields = [r.cycle, r.handoffs, *(r.counts[net] for net in ALL_NETWORKS),
                  r.avg_score.hex(), *(r.net_score[net].hex() for net in ALL_NETWORKS),
                  *(x.hex() for net in ALL_NETWORKS for x in r.net_perf[net])]
        h.update((",".join(map(str, fields)) + "\n").encode())
    h.update(summarize(records).mean_avg_score.hex().encode())
    return h.hexdigest()


def sampled_digests() -> dict[str, str]:
    digests = {}
    for name in ("table2_step", "table2_disturbance", "linear_delta_e"):
        for kind in StrategyKind:
            cfg = dataclasses.replace(load_scenario(SCENARIOS / f"{name}.json"),
                                      num_cycles=40, strategy_kind=kind,
                                      measurement_mode=MeasurementMode.SAMPLED)
            digests[f"{name}/{kind.value}"] = record_digest(run_scenario(cfg))
    return digests


def test_sampled_records_match_pinned_digests():
    assert sampled_digests() == PINNED
