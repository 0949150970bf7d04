"""Set-up probe: everything a run does before its first cycle, then "ready".

Imports hetsim, loads the workload's scenario, validates the round's first
config and builds its initial state, then prints ``ready``. run.py starts
this script several times and times each from process start to that line.

Usage: python3 benchmarks/setup_probe.py <workload> <seed>
"""

import sys


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    import workloads
    from hetsim import domain, engine

    cfg = workloads.round_configs(workload, workloads.load_base(workload), seed)[0]
    violations = domain.validate_config(cfg)
    if violations:
        print("invalid scenario: " + "; ".join(violations), file=sys.stderr)
        return 1
    engine.init_state(cfg)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
