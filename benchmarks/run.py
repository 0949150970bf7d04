"""hetsim benchmark: end-to-end metrics per workload, per-layer metrics traced.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py and README.md): sampled_step_n200,
compare_step_n50, direct_sweep_disturbance.

--trace 0 measures the end-to-end metrics: set-up time from fifteen fresh
processes, then rounds of the workload repeated until --seconds have
passed (at least three rounds). Every timing is scaled to nominal host
speed by a reference loop timed between cycles (see hostspeed.py).
--trace 1 runs one untraced round and two traced rounds, checks that
their counts repeat and match closed forms,
reports the per-layer metrics and the informational N ladder, and writes
the spans of the first traced round under .bench_out/.

Every operation (one simulated (config, seed) run) passes the output gate
or counts as failed: it must not raise, every record's counts must sum to
N, and the sha256 of its CSV must equal the pinned digest for the default
seed, or the digest of its first repeat for any other seed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, NamedTuple

import workloads
from hetsim import domain, engine, report
from hetsim.domain import MAX_SEED, MeasurementMode
from hostspeed import HostSpeed
from tracer import CALLS, CHILD_NS, HITS, TOTAL_NS, Tracer

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_sha256.json"
OUT_DIR = workloads.ROOT / ".bench_out"
MIN_ROUNDS = 3
SETUP_PROBES = 15
SETUP_HOST_SAMPLES = 3
SETUP_TIMEOUT_S = 60
NO_SPAN = contextlib.nullcontext()


class Gate:
    """Output correctness gate over every operation of a run."""

    def __init__(self, workload: str, seed: int):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        self.pinned: list[str] | None = (
            golden["workloads"][workload] if seed == golden["seed"] else None)
        self.first: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, index: int, cfg: Any, records: list | None, text: str | None) -> None:
        self.attempted += 1
        problem = None
        if records is None or text is None:
            problem = "raised"
        elif len(records) != cfg.num_cycles:
            problem = f"{len(records)} records for {cfg.num_cycles} cycles"
        elif any(sum(r.counts.values()) != cfg.total_terminals for r in records):
            problem = f"counts do not sum to {cfg.total_terminals}"
        else:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            expected = (self.pinned[index] if self.pinned is not None
                        else self.first.setdefault(index, digest))
            if digest != expected:
                problem = f"csv sha256 {digest}, expected {expected}"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"operation {index} (seed {cfg.seed}): {problem}")


def simulate(cfg: Any, cycles: Cycles, tracer: Tracer | None = None,
             host: HostSpeed | None = None) -> tuple[list, str]:
    """One operation, driven the way run_scenario drives it, plus its outputs.

    Appends each cycle's wall and CPU time to `cycles`, with the host-speed
    stretch it ran in when `host` samples the reference loop between cycles.
    """
    violations = domain.validate_config(cfg)
    if violations:
        raise ValueError("invalid scenario: " + "; ".join(violations))
    state = engine.init_state(cfg)
    records = []
    clock, cpu_clock = time.perf_counter_ns, time.process_time_ns
    for _ in range(cfg.num_cycles):
        if host is not None:
            cycles.stretch.append(host.maybe_sample())
        with tracer.span("run_cycle", cycle=state.cycle) if tracer else NO_SPAN:
            start, cpu_start = clock(), cpu_clock()
            state, record = engine.run_cycle(state, cfg)
            cycles.wall_ns.append(clock() - start)
            cycles.cpu_ns.append(cpu_clock() - cpu_start)
        records.append(record)
    report.summarize(records)
    return records, report.render_csv(records)


class Cycles(NamedTuple):
    """Per-cycle host times of a round, and the stretch each ran in."""
    wall_ns: list[int]
    cpu_ns: list[int]
    stretch: list[int]


class Round(NamedTuple):
    wall_s: float
    cpu_s: float
    cycles: Cycles
    csv_bytes: int
    host: HostSpeed | None


def run_round(configs: list, gate: Gate, tracer: Tracer | None = None,
              host: HostSpeed | None = None) -> Round:
    """Simulate every operation once.

    The times cover the program's calls only; the gate's checks and the
    reference loop run outside them. With `host`, the reference loop is
    sampled between cycles and once more at the end of the round.
    """
    wall = cpu = 0.0
    cycles = Cycles([], [], [])
    csv_bytes = 0
    for index, cfg in enumerate(configs):
        records = text = None
        attrs = {"seed": cfg.seed, "n": cfg.total_terminals,
                 "mode": cfg.measurement_mode.value, "strategy": cfg.strategy_kind.value}
        ref_wall, ref_cpu = (sum(host.wall_ns), sum(host.cpu_ns)) if host else (0, 0)
        wall_start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with tracer.span("run", **attrs) if tracer else NO_SPAN:
                records, text = simulate(cfg, cycles, tracer, host)
        except Exception:  # a failing operation is counted, not fatal
            traceback.print_exc()
        wall += time.perf_counter() - wall_start
        cpu += time.process_time() - cpu_start
        if host:
            wall -= (sum(host.wall_ns) - ref_wall) / 1e9
            cpu -= (sum(host.cpu_ns) - ref_cpu) / 1e9
        gate.check(index, cfg, records, text)
        csv_bytes += len(text.encode("utf-8")) if text is not None else 0
    if host:
        host.sample()
    return Round(wall, cpu, cycles, csv_bytes, host)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its being ready for cycle 0,
    at nominal host speed (reference loop sampled before and after)."""
    host = HostSpeed()
    for _ in range(SETUP_HOST_SAMPLES):
        host.sample()
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    for _ in range(SETUP_HOST_SAMPLES):
        host.sample()
    return elapsed * host.wall_factor()


def normalized(rounds: list[Round]) -> tuple[list[float], float, float]:
    """Each cycle's time, and one round's wall and CPU time, at nominal host speed.

    Within a round, each cycle's time is scaled by the host-speed factor of
    the stretch it ran in, and the work between cycles by the round's median
    factor. Every round repeats identical work, so cycle k of one round
    computes exactly what cycle k of every other round computes: the
    figures are medians over the rounds.
    """
    cycle_ns, run_s, run_cpu_s = [], [], []
    for r in rounds:
        fw, fc = r.host.wall_factors(), r.host.cpu_factors()
        c = r.cycles
        wall = [ns * fw[j] for ns, j in zip(c.wall_ns, c.stretch)]
        cpu = [ns * fc[j] for ns, j in zip(c.cpu_ns, c.stretch)]
        cycle_ns.append(wall)
        run_s.append((sum(wall) / 1e9
                      + (r.wall_s - sum(c.wall_ns) / 1e9) * statistics.median(fw)))
        run_cpu_s.append((sum(cpu) / 1e9
                          + (r.cpu_s - sum(c.cpu_ns) / 1e9) * statistics.median(fc)))
    return ([statistics.median(repeats) for repeats in zip(*cycle_ns)],
            statistics.median(run_s), statistics.median(run_cpu_s))


def tail_percentile(n: int) -> float:
    """Highest percentile, in steps of 0.1, with at least ten of n samples above it."""
    for tenths in range(999, 0, -1):
        if n - -(-tenths * n // 1000) >= 10:
            return tenths / 10
    raise ValueError(f"{n} samples are too few for a tail percentile")


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-round(p * 10) * len(ordered) // 1000))
    return ordered[rank - 1]


def terminal_cycles(configs: list) -> int:
    return sum(cfg.total_terminals * cfg.num_cycles for cfg in configs)


def machine() -> str:
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"{platform.system()} {platform.machine()}")


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, Gate, list[str]]:
    """End-to-end metrics from untraced runs."""
    configs = workloads.round_configs(workload, workloads.load_base(workload), seed)
    setup = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    gate = Gate(workload, seed)
    rounds: list[Round] = []
    peak_rss_kb = 0
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(run_round(configs, gate, host=HostSpeed()))
        if not peak_rss_kb:
            # Every round repeats the same work, so the first one reaches the
            # program's peak; later rounds only grow the benchmark's samples.
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cycle_ns, run_s, run_cpu_s = normalized(rounds)
    tail_p = tail_percentile(len(cycle_ns))
    print(f"machine: {machine()}")
    print(f"{workload}: seed {seed}, {len(rounds)} rounds of {len(configs)} runs; "
          f"cycle_ms_tail is p{tail_p} of {len(cycle_ns)} cycles, each the median "
          f"of {len(rounds)} repeats at nominal host speed")
    print(f"unnormalized: run_s {statistics.median(r.wall_s for r in rounds):.4f} s "
          f"(median of rounds); host slower than nominal by "
          f"{1 / statistics.median(f for r in rounds for f in r.host.wall_factors()):.3f}x")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (run_s, "s"),
        "run_cpu_s": (run_cpu_s, "s"),
        "terminal_cycles_per_s": (terminal_cycles(configs) / run_s, "1/s"),
        "cycle_ms_p50": (statistics.median(cycle_ns) / 1e6, "ms"),
        "cycle_ms_tail": (percentile(cycle_ns, tail_p) / 1e6, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    return metrics, gate, []


def self_tests(configs: list, a: dict[str, list[int]], b: dict[str, list[int]],
               cycles_a: int, cycles_b: int) -> list[str]:
    """Exact-count checks on the two traced rounds."""
    failures = []
    counts_a = {k: (v[CALLS], v[HITS]) for k, v in a.items()}
    counts_b = {k: (v[CALLS], v[HITS]) for k, v in b.items()}
    if counts_a != counts_b or cycles_a != cycles_b:
        failures.append(f"traced rounds differ: {counts_a} / {counts_b}")
    sampled = sum(c.num_cycles * c.total_terminals * (c.total_terminals - 1)
                  for c in configs if c.measurement_mode is MeasurementMode.SAMPLED)
    decide = sum(c.num_cycles * c.total_terminals for c in configs)
    evaluate = sum(c.num_cycles * (3 * c.total_terminals + 3
                                   if c.measurement_mode is MeasurementMode.SAMPLED else 6)
                   for c in configs)
    for name, expected in (("sample_link", sampled), ("decide", decide),
                           ("evaluate_network", evaluate)):
        got = a.get(name, [0])[CALLS]
        if got != expected:
            failures.append(f"{name} calls {got}, closed form {expected}")
    return failures


def trace(workload: str, seed: int) -> tuple[dict, Gate, list[str]]:
    """Per-layer metrics from traced rounds, checked against exact counts."""
    configs = workloads.round_configs(workload, workloads.load_base(workload), seed)
    gate = Gate(workload, seed)
    untraced = run_round(configs, gate)
    tracer = Tracer()
    with tracer:
        with tracer.span("setup"):
            configs = workloads.round_configs(workload, workloads.load_base(workload), seed)
        first = len(tracer.spans)
        traced = run_round(configs, gate, tracer)
        second = len(tracer.spans)
        run_round(configs, gate, tracer)
    a, b = tracer.totals(first, second), tracer.totals(second)
    setup = tracer.totals(0, first)
    cycle_spans = [s for s in tracer.spans[first:second] if s["name"] == "run_cycle"]
    n_cycles_b = sum(1 for s in tracer.spans[second:] if s["name"] == "run_cycle")
    failures = self_tests(configs, a, b, len(cycle_spans), n_cycles_b)

    def get(name: str) -> list[int]:
        return a.get(name, [0, 0, 0, 0])

    def calls(name: str) -> tuple[int, str]:
        return get(name)[CALLS], "count"

    def ms(name: str) -> tuple[float, str]:
        return get(name)[TOTAL_NS] / 1e6, "ms"

    def self_ms(name: str) -> tuple[float, str]:
        agg = get(name)
        return (agg[TOTAL_NS] - agg[CHILD_NS]) / 1e6, "ms"

    def ratio(name: str) -> tuple[float, str]:
        agg = get(name)
        return (agg[HITS] / agg[CALLS] if agg[CALLS] else 0.0), "ratio"

    metrics: dict[str, tuple[float, str]] = {
        "netmodel.sample_link_calls": calls("sample_link"),
        "netmodel.sample_link_self_ms": self_ms("sample_link"),
        "netmodel.perf_at_calls": calls("perf_at"),
        "netmodel.perf_at_ms": ms("perf_at"),
        "netmodel.delivered_ratio": ratio("sample_link"),
        "sensing.begin_cycle_ms": ms("begin_cycle"),
        "sensing.record_reception_calls": calls("record_reception"),
        "sensing.record_reception_ms": ms("record_reception"),
        "sensing.measure_calls": calls("measure"),
        "sensing.measure_ms": ms("measure"),
        "sensing.measured_ratio": ratio("measure"),
        "sensing.distinct_senders_calls": calls("distinct_senders"),
        "sensing.distinct_senders_ms": ms("distinct_senders"),
        "evaluation.evaluate_network_calls": calls("evaluate_network"),
        "evaluation.evaluate_network_self_ms": self_ms("evaluate_network"),
        "evaluation.select_best_calls": calls("select_best"),
        "evaluation.select_best_ms": ms("select_best"),
        "strategy.decide_calls": calls("decide"),
        "strategy.decide_self_ms": self_ms("decide"),
        "strategy.switch_ratio": ratio("decide"),
        "engine.init_state_ms": ms("init_state"),
        "engine.run_cycle_calls": (len(cycle_spans), "count"),
        "engine.run_cycle_self_ms": (sum(s["self_ns"] for s in cycle_spans) / 1e6, "ms"),
        "domain.load_scenario_ms": (setup["load_scenario"][TOTAL_NS] / 1e6, "ms"),
        "domain.validate_config_ms": ms("validate_config"),
        "report.summarize_ms": ms("summarize"),
        "report.render_csv_ms": ms("render_csv"),
        "report.csv_bytes": (traced.csv_bytes, "bytes"),
        "trace.overhead_ratio": (traced.wall_s / untraced.wall_s, "ratio"),
    }
    for name, cfg in workloads.ladder_configs(seed).items():
        cycles = Cycles([], [], [])
        simulate(cfg, cycles)
        metrics[name] = (statistics.median(cycles.wall_ns) / 1e6, "ms")

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "machine": machine(),
                   "spans": tracer.spans[:second]}, fh)
    print(f"machine: {machine()}")
    print(f"{workload}: seed {seed}, spans of the first traced round in "
          f"{out.relative_to(workloads.ROOT)}")
    return metrics, gate, failures


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed <= MAX_SEED - workloads.SWEEP_SEEDS:
        parser.error(f"--seed must be in [0, {MAX_SEED - workloads.SWEEP_SEEDS}]")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.trace:
        metrics, gate, failures = trace(args.workload, args.seed)
    else:
        metrics, gate, failures = measure(args.workload, args.seed, args.seconds)
    for problem in gate.problems:
        print(f"gate: {problem}", file=sys.stderr)
    for failure in failures:
        print(f"self-test failed: {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": gate.failed == 0 and not failures,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
