"""Heterogeneous vehicular network selection simulator.

A deterministic discrete-time model of terminals choosing between DSRC,
LTE, and Wi-Fi while each network's performance degrades with its own
population. Ships a probabilistic multi-play handoff game and the
conventional single-play weighted-score baseline it is measured against.

The package root re-exports the run path only: load and validate a
scenario, run it (whole or a cycle at a time) and summarize the records.
Every other public name is imported from the module that defines it.
"""

from .domain import load_scenario, validate_config
from .engine import init_state, run_cycle, run_scenario
from .report import detect_convergence, summarize

__version__ = "0.1.0"

__all__ = [
    "load_scenario", "validate_config", "init_state", "run_cycle", "run_scenario",
    "summarize", "detect_convergence",
]
