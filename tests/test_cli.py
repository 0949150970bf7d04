import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hetsim
from hetsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
STEP = str(SCENARIOS / "table2_step.json")
DISTURBANCE = str(SCENARIOS / "table2_disturbance.json")
LINEAR = str(SCENARIOS / "linear_delta_e.json")


def mutated_scenario(tmp_path, name, mutate, base=STEP):
    doc = json.loads(Path(base).read_text())
    mutate(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_happy_path(tmp_path, capsys):
    out = tmp_path / "step.csv"
    code = main(["run", STEP, "--num-cycles", "30", "-s", "7", "-o", str(out)])
    assert code == 0
    assert out.exists()
    lines = out.read_text().splitlines()
    assert len(lines) == 31
    printed = capsys.readouterr().out
    assert "pingpong index" in printed
    assert "converged" in printed


def test_run_seed_changes_output(tmp_path):
    out_a, out_b, out_c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    main(["run", STEP, "--num-cycles", "25", "-s", "1", "-o", str(out_a)])
    main(["run", STEP, "--num-cycles", "25", "-s", "2", "-o", str(out_b)])
    main(["run", STEP, "--num-cycles", "25", "-s", "1", "-o", str(out_c)])
    assert out_a.read_bytes() != out_b.read_bytes()
    assert out_a.read_bytes() == out_c.read_bytes()


def test_run_missing_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = main(["run", str(missing)])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_run_invalid_config_lists_violation(tmp_path, capsys):
    path = mutated_scenario(tmp_path, "bad_rho.json",
                            lambda d: d["strategy"].update(rho=1.0))
    code = main(["run", path, "-o", str(tmp_path / "x.csv")])
    assert code == 1
    assert "strategy.rho must be in [0, 1), got 1.0" in capsys.readouterr().err


def test_run_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 1
    assert "is not valid JSON" in capsys.readouterr().err


def test_run_unknown_key_exits_1(tmp_path, capsys):
    path = mutated_scenario(tmp_path, "unknown.json",
                            lambda d: d.update(extra_knob=1))
    assert main(["run", path]) == 1
    assert "extra_knob" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["f_delay_ref", "f_plr_ref", "f_jit_ref",
                                 "w_delay", "w_plr", "w_jit"])
def test_removed_scoring_key_refused(tmp_path, capsys, key):
    # The references and weights are constants now; a file that still sets one is refused.
    path = mutated_scenario(tmp_path, "old.json", lambda d: d["strategy"].update({key: 0.1}))
    assert main(["validate", path]) == 1
    assert key in capsys.readouterr().err


def test_run_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "no_dir" / "x.csv"
    code = main(["run", STEP, "--num-cycles", "5", "-o", str(out)])
    assert code == 2
    assert "x.csv" in capsys.readouterr().err


def test_run_strategy_override_changes_csv(tmp_path):
    game, baseline = tmp_path / "game.csv", tmp_path / "baseline.csv"
    args = ["run", STEP, "--mode", "direct", "--num-cycles", "30"]
    assert main(args + ["-o", str(game)]) == 0
    assert main(args + ["--strategy", "baseline_mcdm", "-o", str(baseline)]) == 0
    assert game.read_bytes() != baseline.read_bytes()


@pytest.mark.parametrize("mutate, violation", [
    (lambda d: d["profiles"]["wifi"].update(a=1e308),
     "profiles.wifi: load curve overflows at 50 terminals"),
    (lambda d: d["profiles"]["dsrc"].update(cap=1, exponent=200),
     "profiles.dsrc: load curve overflows at 50 terminals"),
    # Integers beyond the float range would raise OverflowError mid-run.
    (lambda d: d["strategy"].update(n_exp=10**400),
     f"strategy.n_exp must be in [1, {sys.float_info.max}], got <401-digit integer>"),
    (lambda d: d.update(num_cycles=10**400),
     f"num_cycles must be in [1, {sys.float_info.max}], got <401-digit integer>"),
    (lambda d: d.update(noise_amplitude=10**400),
     f"noise_amplitude must be <= {sys.float_info.max} - total_terminals"),
])
def test_unsimulatable_scenario_refused(tmp_path, capsys, mutate, violation):
    path = mutated_scenario(tmp_path, "bad.json", mutate)
    out = tmp_path / "o.csv"
    for argv in (["validate", path], ["run", path, "--mode", "direct", "-o", str(out)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        head, listed = captured.err.splitlines()
        assert head == "invalid scenario:" and listed.startswith(f"  - {violation}")
    assert not out.exists()


@pytest.mark.parametrize("field, first", [("seed", 7), ("strategy.rho", 0.25),
                                          ("profiles.lte.a", 0.5), ("initial_assignment.dsrc", 5)],
                         ids=lambda v: v.rpartition(".")[2] if isinstance(v, str) else None)
def test_duplicate_key_refused(tmp_path, monkeypatch, capsys, field, first):
    # json.load alone keeps a repeated key's last value, so the file would run
    # with a value its reader may not see. The error names the object that repeats it.
    parent, _, key = field.rpartition(".")
    anchor = f'"{parent.rpartition(".")[2]}": {{' if parent else "{"
    text = Path(STEP).read_text()
    assert anchor in text
    path = tmp_path / "duplicate.json"
    path.write_text(text.replace(anchor, f'{anchor}"{key}": {first}, ', 1))
    monkeypatch.chdir(tmp_path)
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: {parent or 'scenario'}: duplicate key '{key}'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["duplicate.json"]


def test_every_non_finite_value_named(tmp_path, monkeypatch, capsys):
    # The loader reads shape only, so a file's NaN, infinity and over-range int,
    # and a leaf of the wrong type, are each named by validation, as in a
    # config built in code.
    def non_finite(d):
        d["strategy"].update(rho=float("nan"), sigma=10**400)
        d["profiles"]["lte"]["a"] = float("inf")

    def wrong_type(d):
        d["noise_amplitude"] = 2.0
        d["strategy"]["rho"] = "0.5"

    cases = [(non_finite, ["strategy.rho must be finite, got nan",
                           "strategy.sigma must be finite, got inf",
                           "profiles.lte.a must be finite, got inf"]),
             (wrong_type, ["strategy.rho must be a number, got '0.5'",
                           "noise_amplitude must be an integer, got 2.0"])]
    monkeypatch.chdir(tmp_path)
    for corrupt, expected in cases:
        path = mutated_scenario(tmp_path, f"{corrupt.__name__}.json", corrupt)
        for command in ("validate", "run", "compare", "oracle", "calibrate"):
            assert main([command, path]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "invalid scenario:\n" + "".join(f"  - {v}\n" for v in expected)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["non_finite.json", "wrong_type.json"]


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["run", STEP, "--bogus"])
    assert exc.value.code != 0


@pytest.mark.parametrize("flag", ["--convergence-threshold", "--convergence-window"])
@pytest.mark.parametrize("command", ["run", "compare", "oracle"])
def test_convergence_flags_rejected(tmp_path, monkeypatch, capsys, command, flag):
    # The convergence rule is fixed: the flags are refused even at their old defaults.
    monkeypatch.chdir(tmp_path)
    mode = [] if command == "oracle" else ["--mode", "direct"]  # oracle takes no --mode
    with pytest.raises(SystemExit) as exc:
        main([command, STEP, *mode, "--num-cycles", "3", flag, "20"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("window", ["0", "-1"])
def test_convergence_window_below_one_rejected(tmp_path, command, window):
    # Once a range error, now an unknown option: either way exit 2 and no output file.
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, STEP, "--mode", "direct", "--num-cycles", "3",
              "-o", str(out), "--convergence-window", window])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_closed_stdout_exits_2_without_traceback(tmp_path):
    # A reader that has gone away, as in `hetsim run ... | head -1`.
    read_end, write_end = os.pipe()
    os.close(read_end)
    out = tmp_path / "o.csv"
    # The child imports the package this suite imported, installed or not.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(hetsim.__file__).resolve().parent.parent),
                      env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hetsim.cli", "run", STEP, "--mode", "direct",
             "--num-cycles", "20", "-o", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert out.exists()
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_utf8_scenario_exits_1(tmp_path, capsys, command):
    path = tmp_path / "utf16.json"
    path.write_bytes(Path(STEP).read_text().encode("utf-16"))  # starts ff fe
    assert path.read_bytes()[:2] == b"\xff\xfe"
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert "UTF-8" in err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("text", [
    Path(STEP).read_text().replace('"seed": 42', '"seed": 1' + "0" * 5000),
    '{"strategy": ' + "[" * 100_000 + "]" * 100_000 + "}",
], ids=["5001-digit-int", "nested-100000-deep"])
def test_unparsable_scenario_exits_1_naming_file(tmp_path, capsys, command, text):
    # json.load raises a plain ValueError past the int digit limit and RecursionError
    # on deep nesting; neither is a JSONDecodeError.
    path = tmp_path / "unparsable.json"
    path.write_text(text)
    assert main([command, str(path)]) == 1
    assert str(path) in capsys.readouterr().err


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", STEP])
    assert exc.value.code != 0


def test_compare_writes_both_and_reports(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = main(["compare", STEP, "--num-cycles", "60", "--mode", "direct",
                 "-s", "5", "-o", str(out)])
    assert code == 0
    game = tmp_path / "cmp_game.csv"
    baseline = tmp_path / "cmp_baseline_mcdm.csv"
    assert game.exists() and baseline.exists()
    # The two "wrote" lines, then the comparison opens with its ratio, finite or inf.
    printed = capsys.readouterr().out.splitlines()
    assert printed[:2] == [f"wrote {game}", f"wrote {baseline}"]
    assert re.fullmatch(r"handoff rate ratio \(game/baseline\): ([0-9]+\.[0-9]{4}|inf)",
                        printed[2])

    def total_handoffs(path):
        lines = path.read_text().splitlines()
        idx = lines[0].split(",").index("handoffs")
        return sum(int(l.split(",")[idx]) for l in lines[1:])

    assert total_handoffs(game) < total_handoffs(baseline)


def test_compare_seed_override_applies_to_both(tmp_path):
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    main(["compare", STEP, "--num-cycles", "25", "-s", "9", "-o", str(out1)])
    main(["compare", STEP, "--num-cycles", "25", "-s", "9", "-o", str(out2)])
    assert (tmp_path / "one_game.csv").read_bytes() == \
        (tmp_path / "two_game.csv").read_bytes()
    assert (tmp_path / "one_baseline_mcdm.csv").read_bytes() == \
        (tmp_path / "two_baseline_mcdm.csv").read_bytes()


@pytest.mark.parametrize("args, written", [
    (["run"], ["table2_step.csv"]),
    (["compare"], ["table2_step_game.csv", "table2_step_baseline_mcdm.csv"]),
    (["run", "-o", "out.txt"], ["out.txt"]),
    (["compare", "-o", "out.txt"], ["out_game.csv", "out_baseline_mcdm.csv"]),
], ids=["run", "compare", "run-o", "compare-o"])
def test_output_names(tmp_path, monkeypatch, capsys, args, written):
    # The base is -o, else the scenario stem plus .csv; compare puts _<kind> before .csv.
    monkeypatch.chdir(tmp_path)
    command, *flags = args
    assert main([command, STEP, "--mode", "direct", "--num-cycles", "5", *flags]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written)
    printed = capsys.readouterr().out.splitlines()
    assert printed[:len(written)] == [f"wrote {name}" for name in written]


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("output", ["", ".", "/"], ids=["empty", "dot", "root"])
def test_output_without_file_name_refused(tmp_path, monkeypatch, capsys, command, output):
    # A -o naming no file is a configuration error, refused before anything runs.
    def never_run(cfg):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr("hetsim.cli.run_scenario", never_run)
    monkeypatch.chdir(tmp_path)
    assert main([command, STEP, "--mode", "direct", "--num-cycles", "3", "-o", output]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"-o {output!r} names no file"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("output", ["..", "out", "out/", "../work", "new/", "x.csv/", "x.csv/."],
                         ids=["parent", "dir", "dir-slash", "cwd-via-parent", "missing-slash",
                              "file-slash", "file-dot"])
def test_output_naming_a_directory_refused(tmp_path, monkeypatch, capsys, command, output):
    # A -o naming a directory is refused before anything runs: run would fail
    # to write it only after the whole run, and compare would read it as the
    # stem of hidden files such as `.._game.csv`. A trailing separator or "."
    # names a directory too, as open() reads it, where none exists or a file does.
    def never_run(cfg):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr("hetsim.cli.run_scenario", never_run)
    work = tmp_path / "work"
    (work / "out").mkdir(parents=True)
    (work / "x.csv").write_text("an earlier run\n")
    monkeypatch.chdir(work)
    assert main([command, STEP, "--mode", "direct", "--num-cycles", "3", "-o", output]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"-o {output!r} names no file"]
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "work", "work/out", "work/x.csv"]
    assert (work / "x.csv").read_text() == "an earlier run\n"


def os_error(code, path):
    return f"[Errno {code}] {os.strerror(code)}: {path!r}"


@pytest.mark.parametrize("command, flags, code, error", [
    ("run", ["-o", "missing/x.csv"], 2, os_error(errno.ENOENT, "missing/x.csv")),
    ("compare", ["-o", "missing/x.csv"], 2, os_error(errno.ENOENT, "missing/x_game.csv")),
    ("run", ["-o", "file/x.csv"], 2, os_error(errno.ENOTDIR, "file/x.csv")),
    ("compare", ["-o", "file/x.csv"], 2, os_error(errno.ENOTDIR, "file/x_game.csv")),
    ("run", [], 1, "output 'table2_step.csv' is a directory"),
    ("compare", ["-o", "x.csv"], 1, "output 'x_baseline_mcdm.csv' is a directory"),
], ids=["run-missing-dir", "compare-missing-dir", "run-under-file", "compare-under-file",
        "run-derived-dir", "compare-derived-dir"])
def test_unwritable_output_refused_before_the_run(tmp_path, monkeypatch, capsys,
                                                  command, flags, code, error):
    # Every output path is opened for writing before the first run, the paths
    # derived from the scenario stem or -o included: a bad one costs no
    # simulation, and compare leaves no game CSV behind nor changes an old one.
    def never_run(cfg):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr("hetsim.cli.run_scenario", never_run)
    monkeypatch.setattr("hetsim.engine.run_scenario", never_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("not a directory\n")
    (tmp_path / "x_game.csv").write_text("an earlier run\n")
    (tmp_path / "table2_step.csv").mkdir()
    (tmp_path / "x_baseline_mcdm.csv").mkdir()

    def tree():
        return {p.relative_to(tmp_path).as_posix(): p.is_file() and p.read_text()
                for p in tmp_path.rglob("*")}

    before = tree()
    assert main([command, STEP, "--mode", "direct", "--num-cycles", "3", *flags]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [error]
    assert tree() == before


def test_compare_missing_output_dir_exits_2(tmp_path):
    out = tmp_path / "ghost" / "cmp.csv"
    assert main(["compare", STEP, "--num-cycles", "5", "-o", str(out)]) == 2


@pytest.mark.parametrize("args", [
    ["compare", "--mode", "direct", "-o", "cmp.csv", "--strategy", "game"],
    ["oracle", "--strategy", "game"],
    ["oracle", "-s", "3"],
    ["oracle", "--mode", "direct"],
], ids=["compare", "oracle", "oracle-seed", "oracle-mode"])
def test_strategy_flag_rejected(tmp_path, monkeypatch, capsys, args):
    # compare always runs both strategies. oracle runs the scenario file as it
    # stands but for its length: its analytic shift is defined on the curves.
    monkeypatch.chdir(tmp_path)
    command, *flags = args
    with pytest.raises(SystemExit) as exc:
        main([command, LINEAR, "--num-cycles", "31", *flags])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_oracle_prints_prediction(capsys):
    code = main(["oracle", LINEAR])
    assert code == 0
    printed = capsys.readouterr().out
    assert "predicted shift:         7" in printed
    assert "simulated steady shift:" in printed


def test_oracle_prints_int_delta_e_as_the_float_it_runs(tmp_path, capsys):
    # The loader turns a finite int in a float field into a float, so a file
    # that writes "delta_e": 1 prints the same bytes as one that writes 1.0.
    printed = []
    for value in (1, 1.0):
        path = mutated_scenario(tmp_path, f"{value}.json",
                                lambda d: d["disturbance"].update(delta_e=value), base=LINEAR)
        assert main(["oracle", path]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert "delta_e=1.0)" in printed[0]


def test_oracle_refuses_run_shorter_than_tail_past_disturbance(capsys):
    # linear_delta_e's disturbance starts at cycle 30; the 30-cycle tail of a
    # 31-cycle run would average 29 cycles from before it.
    code = main(["oracle", LINEAR, "--num-cycles", "31"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "start_cycle 30" in captured.err and "got 31 cycles" in captured.err
    assert main(["oracle", LINEAR, "--num-cycles", "60"]) == 0


def test_oracle_refuses_disturbance_ending_before_tail(tmp_path, capsys):
    # A 10-cycle disturbance from cycle 30 is over long before the last 30
    # cycles of the 150-cycle run, so their mean measures no shift at all.
    path = mutated_scenario(tmp_path, "short.json",
                            lambda d: d["disturbance"].update(duration_cycles=10),
                            base=LINEAR)
    assert main(["oracle", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cycles 120 to 149" in captured.err
    assert "start_cycle 30 to 39" in captured.err
    # Active through the last cycle (start_cycle + duration_cycles == num_cycles).
    path = mutated_scenario(tmp_path, "to_end.json",
                            lambda d: d["disturbance"].update(duration_cycles=120),
                            base=LINEAR)
    assert main(["oracle", path]) == 0
    assert "predicted shift:         7" in capsys.readouterr().out
    assert main(["oracle", path, "--num-cycles", "151"]) == 1


def test_oracle_without_disturbance_exits_1(capsys):
    code = main(["oracle", STEP])
    assert code == 1
    assert "disturbance" in capsys.readouterr().err


def test_oracle_reports_violations_before_missing_disturbance(tmp_path, capsys):
    path = mutated_scenario(tmp_path, "bad_rho.json",
                            lambda d: d["strategy"].update(rho=1.0))
    assert main(["oracle", path]) == 1
    assert "strategy.rho must be in [0, 1), got 1.0" in capsys.readouterr().err


def test_oracle_disturbance_at_cycle_zero_reads_initial_assignment(tmp_path, capsys):
    path = mutated_scenario(tmp_path, "at_zero.json",
                            lambda d: d["disturbance"].update(start_cycle=0), base=LINEAR)
    assert main(["oracle", path]) == 0
    # The run ends near wifi=23; g must be the initial wifi population.
    assert "(g=30, partner lte h=15," in capsys.readouterr().out
    # A run shorter than the tail is refused for its length alone.
    assert main(["oracle", path, "--num-cycles", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "the simulated shift averages the last 30 cycles; got 20 cycles\n"


def test_calibrate_shipped_profiles_pass(capsys):
    assert main(["calibrate", STEP]) == 0
    printed = capsys.readouterr().out
    assert "FAIL" not in printed
    assert printed.count("PASS") == 5


def test_calibrate_detects_lte_best_at_base_load(tmp_path, capsys):
    # Make LTE the best network at load 1: condition (b) must fail.
    path = mutated_scenario(
        tmp_path, "lte_best.json",
        lambda d: d["profiles"]["lte"].update(d0=0.001, p0=0.001, g0=0.001))
    assert main(["calibrate", path]) == 1
    assert "FAIL  lte-worst-at-base-load" in capsys.readouterr().out


def test_calibrate_detects_flat_curves(tmp_path, capsys):
    def flatten(doc):
        for prof in doc["profiles"].values():
            prof.update(a=0.0, b=0.0, h=0.0)
    path = mutated_scenario(tmp_path, "flat.json", flatten)
    assert main(["calibrate", path]) == 1
    assert "FAIL  decreasing-evaluation" in capsys.readouterr().out


def test_validate_ok(capsys):
    assert main(["validate", STEP]) == 0
    assert main(["validate", DISTURBANCE]) == 0
    assert main(["validate", LINEAR]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_each_violation(tmp_path, capsys):
    def corrupt(doc):
        doc["strategy"]["rho"] = 1.0
        doc["initial_assignment"]["wifi"] = 25
    path = mutated_scenario(tmp_path, "bad.json", corrupt)
    assert main(["validate", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invalid scenario:\n"
                            "  - initial_assignment must sum to total_terminals 50, got 55\n"
                            "  - strategy.rho must be in [0, 1), got 1.0\n")


def wifi_loss_only(b, scale=1):
    """Wifi with loss as its only load-dependent metric, on table2_step x scale."""
    def mutate(doc):
        doc["total_terminals"] *= scale
        doc["strategy"]["n_exp"] *= scale
        for net, count in doc["initial_assignment"].items():
            doc["initial_assignment"][net] = count * scale
        for prof in doc["profiles"].values():
            prof["cap"] *= scale
        doc["profiles"]["wifi"].update(a=0.0, b=b, h=0.0)
    return mutate


@pytest.mark.parametrize("b, scale, verdict", [
    # Strictly decreasing over loads 0..50; the loss clamps at 1 only from load 73.
    (0.3, 1, "PASS"),
    # N = 400: the loss clamps at 1 from load 260, so the evaluation is flat to 400.
    (1.5, 8, "FAIL"),
])
def test_calibrate_decreasing_checks_loads_up_to_population(tmp_path, capsys, b, scale, verdict):
    path = mutated_scenario(tmp_path, "wifi_loss.json", wifi_loss_only(b, scale))
    main(["calibrate", path])
    assert f"{verdict}  decreasing-evaluation" in capsys.readouterr().out
