"""Heterogeneous vehicular network selection simulator.

A deterministic discrete-time model of terminals choosing between DSRC,
LTE, and Wi-Fi while each network's performance degrades with its own
population. Ships a probabilistic multi-play handoff game and the
conventional single-play weighted-score baseline it is measured against.
"""

from .domain import (
    ALL_NETWORKS,
    DisturbanceSpec,
    MeasurementMode,
    NetworkKind,
    NoiseSpec,
    ScenarioConfig,
    ScenarioFormatError,
    StrategyKind,
    StrategyParams,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_config,
)
from .engine import (
    CycleRecord,
    WorldState,
    init_state,
    predict_equilibrium_shift,
    run_cycle,
    run_scenario,
)
from .evaluation import (
    NetEvaluation,
    evaluate_network,
    meets_requirements,
    net_eva,
    normalize,
    select_best,
)
from .netmodel import LinkSample, NetworkProfile, ground_truth_eval, perf_at, sample_link
from .report import (
    ComparisonSummary,
    RunSummary,
    compare,
    detect_convergence,
    summarize,
    write_csv,
)
from .sensing import ReceptionLedger
from .strategy import (
    Decision,
    TerminalView,
    Trigger,
    decide_baseline,
    decide_game,
    p_degraded,
    p_overload,
    p_return,
    update_counter,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_NETWORKS", "ComparisonSummary", "CycleRecord", "Decision",
    "DisturbanceSpec", "LinkSample", "MeasurementMode", "NetEvaluation",
    "NetworkKind", "NetworkProfile", "NoiseSpec", "ReceptionLedger",
    "RunSummary", "ScenarioConfig", "ScenarioFormatError", "StrategyKind",
    "StrategyParams", "TerminalView", "Trigger", "WorldState", "compare",
    "decide_baseline", "decide_game", "detect_convergence",
    "evaluate_network", "ground_truth_eval",
    "init_state", "load_scenario", "meets_requirements", "net_eva",
    "normalize", "p_degraded", "p_overload", "p_return", "perf_at",
    "predict_equilibrium_shift", "run_cycle", "run_scenario", "sample_link",
    "save_scenario", "scenario_from_dict", "scenario_to_dict", "select_best",
    "summarize", "update_counter", "validate_config", "write_csv",
]
