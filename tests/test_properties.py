"""Property tests over configs drawn around table2_step.

The growth coefficients (a, b, h) and the disturbance's delta_e span the
full finite float range, so these tests reach the overflow edge that the
shipped scenarios never come near. Runs stay small: at most 60 terminals
and 5 cycles in direct mode, at most 12 terminals in sampled mode. One
reference property runs sampled mode for 11-20 cycles with moderate
curves, long enough for the trailing-second loss window to slide. The
scenario-document property feeds whole scenario documents, each a shipped
one with one value replaced, through the command line, and the output
property feeds `-o` strings built from path parts. The wrong-kind property
puts a value of another kind in one number field of a drawn config and
checks that the config and the same value in a scenario file get the same
violations. The argmax property draws score triples instead.
"""

import dataclasses
import io
import json
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from reference import best_keeping, best_other, reference_run  # noqa: E402

from hetsim.cli import main  # noqa: E402
from hetsim.domain import (  # noqa: E402
    ALL_NETWORKS,
    DisturbanceSpec,
    MeasurementMode,
    NetworkKind,
    StrategyKind,
    load_scenario,
    scenario_from_dict,
    validate_config,
)
from hetsim.engine import init_state, run_cycle, run_scenario  # noqa: E402
from hetsim.evaluation import NetEvaluation, best_network, select_best  # noqa: E402
from hetsim.report import render_csv, summarize  # noqa: E402

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
STEP = load_scenario(SCENARIOS / "table2_step.json")
LINEAR = load_scenario(SCENARIOS / "linear_delta_e.json")

ANY_FLOAT = st.floats()
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
CHECKS = settings(derandomize=True, deadline=None, max_examples=100)


@st.composite
def configs(draw, mode=None, wild=False):
    """table2_step with drawn populations, curves, strategy, disturbance, noise.

    wild=True also draws values that break the config's invariants
    (negative, NaN and infinite floats, out-of-range integers).
    """
    coef = ANY_FLOAT if wild else NON_NEGATIVE
    if mode is None:
        mode = draw(st.sampled_from(MeasurementMode))
    n = draw(st.integers(1, 12 if mode is MeasurementMode.SAMPLED else 60))
    dsrc = draw(st.integers(0, n))
    lte = draw(st.integers(0, n - dsrc))
    cycles = draw(st.integers(-1 if wild else 1, 5))
    profiles = {}
    for net in ALL_NETWORKS:
        base = STEP.profiles[net]
        # Each coefficient and cap keeps its table2_step value or takes a drawn one.
        changes = {name: draw(st.just(getattr(base, name)) | coef) for name in "abh"}
        changes["cap"] = draw(st.just(base.cap) | st.integers(-1 if wild else 1, 100))
        if wild:
            changes.update(d0=draw(ANY_FLOAT), p0=draw(ANY_FLOAT), g0=draw(ANY_FLOAT),
                           exponent=draw(ANY_FLOAT))
        profiles[net] = dataclasses.replace(base, **changes)
    disturbance = None
    if draw(st.booleans()):
        start = draw(st.integers(-1, 5) if wild else st.integers(0, cycles - 1))
        disturbance = DisturbanceSpec(
            network=draw(st.sampled_from(ALL_NETWORKS)),
            delta_e=draw(ANY_FLOAT if wild else NON_NEGATIVE),
            start_cycle=start,
            duration_cycles=draw(st.none() | st.integers(0 if wild else 1, 3)))
    return dataclasses.replace(
        STEP,
        total_terminals=n + draw(st.integers(-1, 1)) if wild else n,
        initial_assignment={NetworkKind.DSRC: dsrc, NetworkKind.LTE: lte,
                            NetworkKind.WIFI: n - dsrc - lte},
        num_cycles=cycles,
        profiles=profiles,
        seed=draw(st.integers(0, 2**64 - 1)),
        strategy_kind=draw(st.sampled_from(StrategyKind)),
        measurement_mode=mode,
        disturbance=disturbance,
        noise_amplitude=draw(st.integers(-3 if wild else 0, 3)),
    )


@st.composite
def long_sampled_configs(draw):
    """Sampled table2_step runs of 11-20 cycles, so the trailing second fills
    and slides, with moderate curves: packets are often lost but rarely all,
    and scores stay small enough that a delay's last bits reach the records."""
    n = draw(st.integers(2, 12))
    dsrc = draw(st.integers(0, n))
    lte = draw(st.integers(0, n - dsrc))
    moderate = st.floats(0.0, 0.3)
    profiles = {net: dataclasses.replace(
                    base, a=draw(moderate), p0=draw(st.floats(0.0, 0.4)), b=draw(moderate),
                    h=draw(moderate), cap=draw(st.integers(8, 60)))
                for net, base in STEP.profiles.items()}
    return dataclasses.replace(
        STEP,
        total_terminals=n,
        initial_assignment={NetworkKind.DSRC: dsrc, NetworkKind.LTE: lte,
                            NetworkKind.WIFI: n - dsrc - lte},
        num_cycles=draw(st.integers(11, 20)),
        profiles=profiles,
        seed=draw(st.integers(0, 2**64 - 1)),
        strategy=dataclasses.replace(STEP.strategy, n_exp=draw(st.integers(1, 12))),
        strategy_kind=draw(st.sampled_from(StrategyKind)),
        noise_amplitude=draw(st.integers(0, 3)),
    )


def _floats(record):
    yield record.avg_score
    yield from record.net_score.values()
    for perf in record.net_perf.values():
        yield from perf


# Each metric over its reference is finite, but avg_score sums 50 of them.
BIG_WIFI_DELAY = dataclasses.replace(
    STEP, num_cycles=3, measurement_mode=MeasurementMode.DIRECT,
    profiles={**STEP.profiles,
              NetworkKind.WIFI: dataclasses.replace(STEP.profiles[NetworkKind.WIFI], a=1e307)})
# The disturbance penalty alone drives every wifi score to about -1.7e308.
BIG_PENALTY = dataclasses.replace(
    LINEAR, num_cycles=35, disturbance=dataclasses.replace(LINEAR.disturbance, delta_e=1.7e308))
# Sampled delays reach delay + jitter, so measured scores exceed the curve's.
BIG_MEASURED_DELAY = dataclasses.replace(
    STEP, total_terminals=2, num_cycles=2, seed=19,
    initial_assignment={NetworkKind.DSRC: 2, NetworkKind.LTE: 0, NetworkKind.WIFI: 0},
    profiles={net: dataclasses.replace(p, cap=1, a=2.2e306, h=2.2e306)
              for net, p in STEP.profiles.items()})


@CHECKS
@given(configs(wild=True))
def test_validate_config_never_raises(cfg):
    violations = validate_config(cfg)
    assert all(isinstance(v, str) for v in violations)
    assert validate_config(cfg) == violations


@CHECKS
@given(configs(wild=True))
def test_init_state_refuses_what_validation_rejects(cfg):
    violations = validate_config(cfg)
    if not violations:
        init_state(cfg)
        return
    with pytest.raises(ValueError) as exc:
        init_state(cfg)
    assert str(exc.value) == "invalid scenario: " + "; ".join(violations)


@CHECKS
@given(configs())
@example(BIG_WIFI_DELAY)
@example(BIG_PENALTY)
@example(BIG_MEASURED_DELAY)
def test_accepted_config_runs_finite_conserving_and_reproducible(cfg):
    if validate_config(cfg):
        with pytest.raises(ValueError, match="invalid scenario"):
            run_scenario(cfg)
        return
    records = run_scenario(cfg)
    assert len(records) == cfg.num_cycles
    for record in records:
        assert sum(record.counts.values()) == cfg.total_terminals
        assert all(math.isfinite(x) for x in _floats(record)), record
    assert math.isfinite(summarize(records).mean_avg_score)
    assert render_csv(run_scenario(cfg)) == render_csv(records)


@CHECKS
@given(configs())
@example(BIG_WIFI_DELAY)
@example(BIG_PENALTY)
@example(BIG_MEASURED_DELAY)
def test_accepted_config_matches_reference(cfg):
    # Record equality compares every float exactly, where the CSV shows 6 decimals.
    if validate_config(cfg):
        return
    assert run_scenario(cfg) == reference_run(cfg)


@CHECKS
@given(long_sampled_configs())
def test_long_sampled_run_matches_reference(cfg):
    assert not validate_config(cfg)
    assert run_scenario(cfg) == reference_run(cfg)


@CHECKS
@given(configs(mode=MeasurementMode.SAMPLED))
def test_cycle_zero_truth_agrees_between_modes(cfg):
    if validate_config(cfg):
        return
    direct = dataclasses.replace(cfg, measurement_mode=MeasurementMode.DIRECT)
    _, sampled_record = run_cycle(init_state(cfg), cfg)
    _, direct_record = run_cycle(init_state(direct), direct)
    assert sampled_record.net_score == direct_record.net_score
    assert sampled_record.net_perf == direct_record.net_perf


DOCUMENTS = {name: json.loads((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))
             for name in ("table2_step", "table2_disturbance", "linear_delta_e")}
_MARK = "<replaced>"


def _paths(value, path=()):
    """The key path of the value and of every value nested in it."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))


def _document(name, path, raw):
    """The shipped document's JSON text with the value at path replaced by raw text."""
    holder = [json.loads(json.dumps(DOCUMENTS[name]))]
    parent, key = holder, 0
    for part in path:
        parent, key = parent[key], part
    parent[key] = _MARK
    return json.dumps(holder[0]).replace(json.dumps(_MARK), raw)


# Raw JSON text: Python's json reads NaN, Infinity and 1e400 (as inf) too. Small
# numbers often keep the document valid, so the run reaches the simulation.
SCALAR_TEXT = [
    st.integers(0, 100).map(str),
    st.floats(0, 1).map(json.dumps),
    st.integers().map(str),
    st.integers(-10**400, 10**400).map(str),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "true", "false", "null",
                     str(2**64 - 1), str(10**300), "1.7976931348623157e+308"]),
    st.floats().map(json.dumps),
    st.text(max_size=4).map(json.dumps),
    st.sampled_from([m.value for kind in (NetworkKind, StrategyKind, MeasurementMode)
                     for m in kind]).map(json.dumps),
]
VALUE_TEXT = st.one_of(*SCALAR_TEXT, (
    st.lists(st.one_of(SCALAR_TEXT), max_size=3).map(lambda items: f"[{', '.join(items)}]")
    | st.dictionaries(st.text(max_size=3).map(json.dumps), st.one_of(SCALAR_TEXT),
                      max_size=3).map(
        lambda pairs: "{" + ", ".join(f"{k}: {v}" for k, v in pairs.items()) + "}")))


@st.composite
def documents(draw):
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    path = draw(st.sampled_from(list(_paths(DOCUMENTS[name]))))
    return _document(name, path, draw(VALUE_TEXT))


@CHECKS
@given(documents())
@example(_document("table2_step", ("seed",), "9" * 5000))
@example(_document("table2_step", ("strategy", "rho"), "9" * 400))
def test_any_scenario_document_exits_cleanly(text):
    try:
        cfg = scenario_from_dict(json.loads(text))
    except ValueError:  # ScenarioFormatError, or an integer literal over 4300 digits
        pass
    else:
        assert all(isinstance(v, str) for v in validate_config(cfg))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "scenario.json")
        path.write_text(text, encoding="utf-8")
        # 31 cycles keep linear_delta_e's disturbance, at cycle 30, inside the run.
        for argv in (["validate", str(path)],
                     ["run", str(path), "--mode", "direct", "--num-cycles", "31",
                      "-o", str(Path(tmp, "out.csv"))]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv[0], code)
            assert "Traceback" not in err.getvalue()


#: Path parts of a drawn -o: names (in the working directory `dir` is a
#: directory and `file` a regular file), the dot entries and separators.
OUTPUT_NAMES = st.sampled_from(["a", "x.csv", "dir", "file", ".", ".."])
SEPARATORS = st.sampled_from(["/", "//"])


@st.composite
def output_paths(draw):
    """Up to four parts joined by separators, never a leading one, at times a trailing one."""
    parts = draw(st.lists(OUTPUT_NAMES, max_size=4))
    text = "".join(part + draw(SEPARATORS) for part in parts)
    return text if draw(st.booleans()) else text.rstrip("/")


def file_tree(root):
    """Every path under root, mapped to its text if it is a regular file."""
    return {p.relative_to(root).as_posix(): p.is_file() and p.read_text()
            for p in root.rglob("*")}


@CHECKS
@given(st.sampled_from(["run", "compare"]), output_paths())
@example("run", "new/")
@example("run", "file/")
@example("compare", "a/")
def test_any_output_path_writes_what_it_prints_or_exits_cleanly(command, output):
    # Exit 0 writes exactly the printed files, in the directory -o names (for
    # run, at -o itself); exit 1 or 2 prints one line and changes nothing.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp).resolve()
        work = root / "1" / "2" / "3" / "4"  # four ".." parts still end inside root
        (work / "dir").mkdir(parents=True)
        (work / "file").write_text("an earlier file\n")
        before = file_tree(root)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, str(SCENARIOS / "table2_step.json"), "--mode", "direct",
                             "--num-cycles", "3", "-o", output])
            printed = [line.removeprefix("wrote ") for line in out.getvalue().splitlines()
                       if line.startswith("wrote ")]
            if code == 0:
                assert len(printed) == (1 if command == "run" else 2)
                directory = os.path.dirname(output) or "."
                assert os.path.isdir(directory), output
                for path in printed:
                    assert os.path.isfile(path)
                    assert os.path.samefile(os.path.dirname(path) or ".", directory)
                if command == "run":
                    assert os.path.isfile(output) and os.path.samefile(output, printed[0])
                written = {Path(os.path.realpath(path)).relative_to(root).as_posix()
                           for path in printed}
                assert file_tree(root).keys() == before.keys() | written
            else:
                assert code in (1, 2)
                assert out.getvalue() == ""
                assert len(err.getvalue().splitlines()) == 1
                assert "Traceback" not in err.getvalue()
                assert file_tree(root) == before
        finally:
            os.chdir(cwd)


#: The dotted path of every field of a scenario document (the shipped ones set them all).
FIELD_PATHS = {".".join(path) for doc in DOCUMENTS.values() for path in _paths(doc) if path}


@CHECKS
@given(configs(wild=True))
def test_every_violation_opens_with_its_field_path(cfg):
    # A violation names its field as the loader's shape errors do.
    for violation in validate_config(cfg):
        path = re.match(r"[\w.]+", violation).group()
        assert path in FIELD_PATHS and violation[len(path)] in " :", violation


def _at(doc, path):
    """The value at a key path of a parsed document."""
    for part in path:
        doc = doc[part]
    return doc


def _replaced(obj, path, value):
    """A copy of a config with the value at a key path replaced."""
    if not path:
        return value
    head, *rest = path
    if isinstance(obj, dict):
        return {**obj, head: _replaced(obj[head], rest, value)}
    return dataclasses.replace(obj, **{head: _replaced(getattr(obj, head), rest, value)})


def _scenario_text(cfg):
    """A config written as a scenario document; enum members write as their values."""
    return json.dumps(dataclasses.asdict(cfg), default=lambda member: member.value)


#: Values of a kind no number field admits, small enough to write as JSON.
OTHER_KINDS = st.one_of(st.text(max_size=3), st.booleans(), st.none(),
                        st.lists(st.integers(-9, 9), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(-9, 9), max_size=2))


@CHECKS
@given(configs(), st.data())
def test_wrong_kind_named_alike_in_code_and_file(cfg, data):
    # One number field takes a value of another kind (a float, of any size or
    # NaN, in an int field too): validation names that field alone, and the same
    # value written into the scenario file loads and gets the identical list.
    doc = json.loads(_scenario_text(cfg))
    path = data.draw(st.sampled_from(
        [p for p in _paths(doc) if type(_at(doc, p)) in (int, float)]))
    kinds = OTHER_KINDS | st.floats() if type(_at(doc, path)) is int else OTHER_KINDS
    if path == ("disturbance", "duration_cycles"):  # declared int | None
        kinds = kinds.filter(lambda value: value is not None)
    bad = _replaced(cfg, path, data.draw(kinds))
    violations = validate_config(bad)
    assert len(violations) == 1 and violations[0].startswith(f"{'.'.join(path)} must be ")
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp, "scenario.json")
        scenario.write_text(_scenario_text(bad), encoding="utf-8")
        assert validate_config(load_scenario(scenario)) == violations


@st.composite
def tied_scores(draw):
    """Three scores drawn from a pool of one to three, so ties are common."""
    pool = draw(st.lists(st.floats(), min_size=1, max_size=3))
    return [draw(st.sampled_from(pool)) for _ in ALL_NETWORKS]


@CHECKS
@given(tied_scores(), st.lists(st.booleans(), min_size=3, max_size=3))
def test_argmax_matches_max_definitions(scores, flags):
    # The reference's argmax, max() over ALL_NETWORKS with a score key and
    # the first maximum kept, for every excluded and every current network.
    evals = {net: NetEvaluation(score, flag)
             for net, score, flag in zip(ALL_NETWORKS, scores, flags)}
    for exclude in (None, *ALL_NETWORKS):
        assert best_network(evals, exclude) is best_other(evals, exclude)
    for current in ALL_NETWORKS:
        assert select_best(evals, current) is best_keeping(evals, current)
