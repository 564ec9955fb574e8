"""Tests for the command-line front end: exit codes and printed summaries."""

import argparse
import json
import math
from pathlib import Path

import pytest

from triangle_opt import CSV_COLUMNS, ZOO_KINDS
from triangle_opt.cli import _parser, _usage, main
from triangle_opt.harness import _THEOREMS


def _write_config(tmp_path, **overrides):
    cfg = {
        "problem": {"kind": "quadratic", "dimension": 6, "seed": 2},
        "solver": {"mode": "mst_exact_L", "L": 1.0},
        "seeds": [0],
        "max_iters": 30,
    }
    cfg.update(overrides)
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_solve_writes_trace_and_prints_summary(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = str(tmp_path / "trace.csv")
    rc = main(["solve", "--config", config, "--out", out])
    captured = capsys.readouterr()
    assert rc == 0
    assert "seed 0:" in captured.out
    assert "final gap" in captured.out
    assert out in captured.out
    header = open(out).readline().strip()
    assert header == "k,A,alpha,L_trial,j,m,cum_f,cum_grad,cum_stoch,gap"


def test_solve_seed_override_limits_the_batch(tmp_path, capsys):
    config = _write_config(tmp_path, seeds=[0, 1, 2])
    rc = main(["solve", "--config", config, "--seed", "7"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "seed 7:" in captured.out
    assert "seed 0:" not in captured.out


def test_solve_negative_seed_is_a_validation_error(tmp_path, capsys):
    config = _write_config(tmp_path, solver={"mode": "sumst_stochastic_universal", "D": 0.1},
                           epsilon=0.01, seeds=[0, 1])
    rc = main(["solve", "--config", config, "--seed", "-1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert 'error: ValidationError: "--seed" must be an integer >= 0, got -1' in captured.err
    assert captured.out == ""


def test_the_parser_is_reused_without_carrying_state_between_calls(tmp_path, capsys):
    config = _write_config(tmp_path, seeds=[0, 1, 2])
    assert main(["solve", "--config", config, "--seed", "3"]) == 0
    assert main(["solve", "--config", config]) == 0
    with pytest.raises(SystemExit) as rejected:
        main(["solve", "--config", config, "--seed", "three"])
    assert rejected.value.code == 1
    assert main(["solve", "--config", config]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == ["seed 3"] + ["seed 0", "seed 1", "seed 2"] * 2


@pytest.mark.parametrize("argv, says", [
    (["check", "--trace", "t.csv", "--theorem", "bogus"], "invalid choice: 'bogus'"),
    (["check", "--trace", "t.csv", "--theorem", "t1", "--L", "abc"], "invalid float value"),
    (["solve"], "required: --config"),
    ([], "required: command"),
])
def test_a_usage_error_exits_1_with_the_usage_line(capsys, argv, says):
    # 2 is kept for a failed bound check, so a script can tell a typo from one
    with pytest.raises(SystemExit) as rejected:
        main(argv)
    assert rejected.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: triangle-opt") and says in captured.err
    assert captured.out == ""


def test_help_exits_0(capsys):
    for argv in (["--help"], ["check", "--help"]):
        with pytest.raises(SystemExit) as shown:
            main(argv)
        assert shown.value.code == 0
        assert capsys.readouterr().out.startswith("usage: triangle-opt")


def test_solve_repeated_seed_is_a_validation_error(tmp_path, capsys):
    config = _write_config(tmp_path, seeds=[0, 0])
    out = tmp_path / "trace.csv"
    rc = main(["solve", "--config", config, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: ValidationError" in captured.err
    assert "seed 0 more than once" in captured.err
    assert captured.out == ""
    assert not list(tmp_path.glob("trace*.csv"))


@pytest.mark.parametrize("key, value", [("seed", -1), ("seed", 1.5), ("seed", True),
                                        ("dimension", 2.5), ("dimension", "x")])
def test_solve_bad_problem_seed_or_dimension_is_a_validation_error(tmp_path, capsys, key,
                                                                   value):
    problem = {"kind": "quadratic", "dimension": 6, "seed": 2, key: value}
    rc = main(["solve", "--config", _write_config(tmp_path, problem=problem)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: ValidationError" in captured.err
    assert f"error: ValidationError: {key} must be an integer >= " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("problem, name", [
    ({"kind": "quadratic", "lam_min": "x"}, "lam_min"),
    ({"kind": "lasso", "lam": None}, "lam"),
    ({"kind": "quadratic", "x_star_norm": "2"}, "x_star_norm"),
    ({"kind": "holder_norm_power", "p": True}, "p"),
    ({"kind": "lasso", "lam": math.nan}, "lam"),
    ({"kind": "quadratic", "lam_max": math.inf}, "lam_max"),
    ({"kind": "quadratic", "feasible": 1}, "feasible"),
])
def test_solve_badly_typed_problem_option_is_a_validation_error(tmp_path, capsys, problem,
                                                                 name):
    # json.dumps writes NaN and Infinity, which json.loads reads back
    rc = main(["solve", "--config", _write_config(tmp_path, problem=problem)])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: ValidationError: {problem['kind']} option {name} must be" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("mode", [[], {}, 5])
def test_solve_with_a_mode_that_is_not_a_string_is_a_validation_error(tmp_path, capsys, mode):
    rc = main(["solve", "--config", _write_config(tmp_path, solver={"mode": mode, "L": 1.0})])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: ValidationError: unknown solver mode {mode!r}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_solve_bad_config_is_an_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"problem": {"kind": "quadratic"}}')
    rc = main(["solve", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error" in captured.err
    rc = main(["solve", "--config", str(tmp_path / "missing.json")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "cannot read config" in captured.err


def test_solve_config_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    rc = main(["solve", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(f"error: ParseError: config {path} is not UTF-8 text")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_solve_reports_per_seed_failures(tmp_path, capsys):
    config = _write_config(
        tmp_path, solver={"mode": "amst_adaptive", "L0": 2.0 ** -12,
                          "max_backtracks": 3})
    rc = main(["solve", "--config", config])
    captured = capsys.readouterr()
    assert rc == 1
    assert "BacktrackLimitExceeded" in captured.out


def test_check_pass_and_fail_exit_codes(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = str(tmp_path / "trace.csv")
    assert main(["solve", "--config", config, "--out", out]) == 0
    capsys.readouterr()

    rc = main(["check", "--trace", out, "--theorem", "t1",
               "--L", "1.0", "--R2", "2.0"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "t1: pass" in captured.out

    # an impossibly small R2 makes the bound fail; failing rows are listed
    rc = main(["check", "--trace", out, "--theorem", "t1",
               "--L", "1.0", "--R2", "1e-9"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "t1: FAIL" in captured.out
    assert "k=" in captured.out


def test_check_missing_parameter_is_an_error(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = str(tmp_path / "trace.csv")
    assert main(["solve", "--config", config, "--out", out]) == 0
    capsys.readouterr()
    rc = main(["check", "--trace", out, "--theorem", "t1", "--L", "1.0"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "ConfigError" in captured.err


def test_check_count_outside_int64_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n0,1,1,1,0,1,1,1,0,nan\n"
                    "1,2,1,1,0,1,2,2,18446744073709551616,0.5\n")
    rc = main(["check", "--trace", str(path), "--theorem", "t10_calls",
               "--D", "1", "--R2", "1", "--epsilon", "0.1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: ParseError: line 3" in captured.err and "'cum_stoch'" in captured.err


def test_check_out_of_range_parameter_is_an_error(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = str(tmp_path / "trace.csv")
    assert main(["solve", "--config", config, "--out", out]) == 0
    capsys.readouterr()
    for bad in ("0", "nan", "-1", "inf"):
        rc = main(["check", "--trace", out, "--theorem", "t2_t3",
                   "--L", bad, "--R2", "1", "--mu", "0.1"])
        captured = capsys.readouterr()
        assert rc == 1, bad
        assert "error: ConfigError" in captured.err and "'L'" in captured.err, bad


def _t6_trace(tmp_path, l_trial, j):
    row0 = dict.fromkeys(CSV_COLUMNS, "nan")
    row0.update(k="0", A="1.0", alpha="1.0", L_trial=l_trial, j=str(j), m="1", cum_f="2",
                cum_grad="1", cum_stoch="0")
    row1 = dict(row0, k="1", L_trial="1.0", j="0", cum_f="4", cum_grad="2")
    path = tmp_path / "t6.csv"
    path.write_text("\n".join([",".join(CSV_COLUMNS)]
                              + [",".join(row[name] for name in CSV_COLUMNS)
                                 for row in (row0, row1)]) + "\n")
    return str(path)


@pytest.mark.parametrize("l_trial", ["0", "-1", "nan", "inf"])
def test_check_t6_work_rejects_a_bad_row_0_trial_constant(tmp_path, capsys, l_trial):
    rc = main(["check", "--trace", _t6_trace(tmp_path, l_trial, 1),
               "--theorem", "t6_work", "--L", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: ConfigError" in captured.err and "L_trial" in captured.err
    assert "row 0" in captured.err and "Traceback" not in captured.err


def test_check_t6_work_grades_a_row_0_past_1024_doublings(tmp_path, capsys):
    # 2.0 ** 1100 overflows; L00 = 1e31 / 2^1100 is a finite, positive double
    rc = main(["check", "--trace", _t6_trace(tmp_path, "1e31", 1100),
               "--theorem", "t6_work", "--L", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "t6_work: pass" in captured.out and captured.err == ""


def test_check_rejects_a_flag_the_theorem_does_not_read(tmp_path, capsys):
    rc = main(["check", "--trace", _t6_trace(tmp_path, "1.0", 0),
               "--theorem", "t6_work", "--L", "1", "--R2", "5"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "error: ConfigError: --R2: not read by t6_work" in captured.err


def test_check_t5_halving_grades_a_trace_past_1023_restarts(tmp_path, capsys):
    # 2.0 ** (k + 1) overflows from k = 1023 on, where the bound mu*R2/2^(k+1) is
    # subnormal or 0
    config = _write_config(tmp_path, max_iters=1100)
    out = str(tmp_path / "trace.csv")
    assert main(["solve", "--config", config, "--out", out]) == 0
    capsys.readouterr()
    rc = main(["check", "--trace", out, "--theorem", "t5_halving", "--mu", "0.1", "--R2", "1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.err == ""
    assert "t5_halving: FAIL over 1100 rows" in captured.out


def _check_subparser():
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices["check"]


def test_check_flags_are_the_flags_the_theorem_table_names():
    flags = [opt for action in _check_subparser()._actions for opt in action.option_strings
             if opt not in ("-h", "--help", "--trace", "--theorem")]
    named = {param.flag for theorem in _THEOREMS.values() for param in theorem.params.values()}
    assert sorted(flags) == sorted(named - {None})


def test_check_help_and_the_readme_list_each_theorems_flags_from_the_table():
    help_text = _check_subparser().format_help()
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for theorem_id, theorem in _THEOREMS.items():
        assert f"  {theorem_id:<11} {_usage(theorem)}\n" in help_text, theorem_id
        assert f"| `{theorem_id}` | `{_usage(theorem)}` |" in readme, theorem_id


def test_check_unreadable_trace_is_an_error(tmp_path, capsys):
    rc = main(["check", "--trace", str(tmp_path / "none.csv"),
               "--theorem", "t1", "--L", "1", "--R2", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error" in captured.err


@pytest.mark.parametrize("name", ["utf16.csv", "utf16.json"])
def test_check_trace_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe" + ",".join(CSV_COLUMNS).encode("utf-16-le"))
    rc = main(["check", "--trace", str(path), "--theorem", "t1", "--L", "1", "--R2", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(f"error: ParseError: trace {path} is not UTF-8 text")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_check_badly_typed_json_trace_is_a_parse_error(tmp_path, capsys):
    row = {"k": 0, "A": 1.0, "alpha": 1.0, "L_trial": 1.0, "j": "x", "m": 1,
           "cum_f": 1, "cum_grad": 1, "cum_stoch": 0, "gap": 0.5}
    for name, rows in (("list.json", [1, 2]), ("cell.json", [row])):
        path = tmp_path / name
        path.write_text(json.dumps(rows))
        rc = main(["check", "--trace", str(path), "--theorem", "t1", "--L", "1", "--R2", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error: ParseError" in captured.err


def test_zoo_list_and_describe(capsys):
    rc = main(["zoo", "list"])
    captured = capsys.readouterr()
    assert rc == 0
    kinds = captured.out.split()
    assert "quadratic" in kinds and "simplex_linear" in kinds

    rc = main(["zoo", "describe", "lasso"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("lasso:")

    rc = main(["zoo", "describe", "cubic"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "unknown problem kind" in captured.err

    rc = main(["zoo", "describe"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "describe needs a problem kind" in captured.err


_OPTION_LINES = {
    "quadratic": "dimension (default 50), lam_min (default 0.02), lam_max (default 1.0), "
                 "x_star_norm (default 2.0), feasible (default free_space)",
    "lasso": "dimension (default 12), lam (default 0.5)",
    "holder_norm_power": "dimension (default 5), p (default 1.5)",
    "logistic": "dimension (default 8)",
    "simplex_linear": "dimension (default 6)",
}


@pytest.mark.parametrize("kind", ZOO_KINDS)
def test_zoo_describe_lists_every_option_with_its_default(capsys, kind):
    assert main(["zoo", "describe", kind]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{kind}:"
    assert len(lines) > 2 and not any("Options" in line for line in lines[:-1])
    assert lines[-1] == "Options: " + _OPTION_LINES[kind]


def test_solve_writes_the_partial_trace_of_a_failed_run(tmp_path, capsys):
    config = _write_config(tmp_path, problem={"kind": "simplex_linear"},
                           solver={"mode": "amst_adaptive"}, max_iters=1200)
    out = str(tmp_path / "trace.csv")
    rc = main(["solve", "--config", config, "--out", out])
    captured = capsys.readouterr()
    assert rc == 1
    assert "seed 0: error: CoefficientOverflow" in captured.out
    assert f"partial trace of 995 rows -> {out}" in captured.out
    assert len(open(out).read().splitlines()) == 1 + 995
