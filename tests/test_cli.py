"""End-to-end tests of the command line surface: flag parsing, JSON output,
exit codes, and determinism of repeated runs."""

import json
from pathlib import Path

import pytest

from gitkit import localization, polytopes
from gitkit.cli import COMMANDS, main
from gitkit.localization import vertex_sum


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# every (group, op) of COMMANDS with its exact stdout and exit code, and the
# stderr JSON of domain errors; "{tmp}" stands for the directory of the files
PINNED = json.loads(Path(__file__).with_name("cli_pinned.json").read_text())


def test_pinned_cases_cover_registry():
    ops = {(c["argv"][0], c["argv"][1] if len(c["argv"]) > 1 else None)
           for c in PINNED["cases"]}
    assert {(group, op) for group, op, *_ in COMMANDS} <= ops


@pytest.mark.parametrize("case", PINNED["cases"],
                         ids=[f"{i:02d}-" + "-".join(c["argv"][:2])
                              for i, c in enumerate(PINNED["cases"])])
def test_pinned_output(case, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GITKIT_SEED", raising=False)
    for name, obj in PINNED["files"].items():
        (tmp_path / name).write_text(json.dumps(obj))
    code, out, err = run([a.replace("{tmp}", str(tmp_path)) for a in case["argv"]], capsys)
    assert code == case["exit"]
    assert out.replace(str(tmp_path), "{tmp}") == case["stdout"]
    if case["stderr"] is not None:
        assert err.replace(str(tmp_path), "{tmp}") == case["stderr"]


def test_weyl_character_output(capsys):
    code, out, err = run(["char", "weyl", "--lambda", "2,1,0"], capsys)
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["dim"] == 8
    support = {(tuple(t["w"]), t["c"]) for t in obj["character"]}
    assert ((1, 1, 1), 2) in support
    assert len(support) == 7


def test_repeated_runs_are_byte_identical(capsys):
    _, out1, _ = run(["char", "weyl", "--lambda", "2,1,0"], capsys)
    _, out2, _ = run(["char", "weyl", "--lambda", "2,1,0"], capsys)
    assert out1 == out2
    _, out3, _ = run(["polytope", "bg", "--points", "0,0;2,0;0,2", "--seed", "3"],
                     capsys)
    _, out4, _ = run(["polytope", "bg", "--points", "0,0;2,0;0,2", "--seed", "3"],
                     capsys)
    assert out3 == out4


def test_horn_check_exact_stdout(capsys):
    code, out, err = run(["horn", "check", "--a", "3,1", "--b", "2,1", "--c", "4,3"],
                         capsys)
    assert code == 0
    assert out == '{"feasible": true}\n'
    code, out, _ = run(["horn", "check", "--a", "1,0", "--b", "1,0", "--c", "3,-1"],
                       capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["feasible"] is False
    assert obj["violated"] == {"I": [2], "J": [2], "K": [2]}
    code, out, _ = run(["horn", "check", "--a", "1,0", "--b", "1,0", "--c", "1,0"],
                       capsys)
    assert json.loads(out)["violated"] == "trace"


def test_puzzle_count_and_listing(capsys):
    code, out, _ = run(["puzzles", "count", "--r", "4", "--I", "2,4",
                        "--J", "2,4", "--K", "2,3"], capsys)
    assert code == 0
    assert json.loads(out) == {"count": 1}
    code, out, _ = run(["puzzles", "count", "--r", "4", "--I", "2,4",
                        "--J", "2,4", "--K", "2,3", "--list"], capsys)
    obj = json.loads(out)
    assert obj["count"] == 1 and len(obj["fillings"]) == 1


def test_stability_classify_and_flow(capsys):
    code, out, _ = run(["stability", "classify", "--weights", "1,1;-1,0;0,-1"],
                       capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "Stable"
    code, out, _ = run(["stability", "flow", "--weights", "1,0;1,1"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["outcome"] == "Escaped"
    assert abs(obj["direction"][0] + 1.0) < 1e-6
    assert abs(obj["direction"][1]) < 1e-6
    assert obj["slope"] < 0


def test_localize_p1(capsys):
    code, out, _ = run(["localize", "p1", "--d", "3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["d"] == 3 and obj["passed"] is True
    assert obj["box"] == [[-9, 9]]


def test_localize_toric_inline(capsys):
    code, out, _ = run(["localize", "toric", "--points", "0,0;1,0;0,1",
                        "--eval", "2,3", "--box", "-1:2,-1:2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == "6"
    assert len(obj["expansion"]) == 3


def test_polytope_cut_kinds(capsys):
    code, out, _ = run(["polytope", "cut", "--points", "0,0;1,0;1,1;0,1",
                        "--normal", "1,1", "--level", "3/2"], capsys)
    assert code == 0
    assert json.loads(out)["kind"] == "cut"
    _, out, _ = run(["polytope", "cut", "--points", "0,0;1,0;1,1;0,1",
                     "--normal", "1,1", "--level", "-1"], capsys)
    assert json.loads(out)["kind"] == "noop"
    _, out, _ = run(["polytope", "cut", "--points", "0,0;1,0;1,1;0,1",
                     "--normal", "1,1", "--level", "5"], capsys)
    assert json.loads(out)["kind"] == "empty"


def test_infile_polytope(tmp_path, capsys):
    p = polytopes.hull([(0, 0), (1, 0), (0, 1)])
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(p.to_json()))
    code, out, _ = run(["polytope", "lattice", "--in", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_infile_series(tmp_path, capsys):
    series = vertex_sum(polytopes.hull([(0,), (2,)]))
    bare = tmp_path / "series.json"
    bare.write_text(json.dumps(series.to_json()))
    code, out, _ = run(["localize", "eval", "--in", str(bare), "--point", "2"],
                       capsys)
    assert code == 0
    assert json.loads(out)["value"] == "7"
    # a wrapper object with a "series" key works too
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"series": series.to_json()}))
    code, out, _ = run(["localize", "eval", "--in", str(wrapped), "--point", "2"],
                       capsys)
    assert code == 0 and json.loads(out)["value"] == "7"


def test_zero_term_of_the_wrong_rank_in_a_series_exits_one(tmp_path, capsys):
    # a zero coefficient used to be dropped before its exponent was checked
    path = tmp_path / "series.json"
    path.write_text(json.dumps([{"num": [{"w": [0, 0], "c": 1}, {"w": [1], "c": 0}],
                                 "den": [], "dir": ["1", "1"]}]))
    code, out, err = run(["localize", "eval", "--in", str(path), "--point", "2,3"], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"code": "rank_mismatch",
                               "message": "exponent length does not match rank",
                               "context": {"rank": 2, "exponent": [1]}}


@pytest.mark.parametrize("group", ["char", "localize"])
def test_non_integral_highest_weight_exits_one(group, capsys):
    # localize weyl used to truncate 5/2 to 2 and print the character of (2, 0)
    code, out, err = run([group, "weyl", "--lambda", "5/2,0"], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"code": "not_integral",
                               "message": "highest weight must have integer entries",
                               "context": {"weight": ["5/2", "0"]}}


def test_domain_error_exits_one_with_json_stderr(capsys):
    code, out, err = run(["char", "weyl", "--lambda", "1,2"], capsys)
    assert code == 1 and out == ""
    obj = json.loads(err)
    assert set(obj) == {"code", "context", "message"}
    assert obj["code"] == "not_dominant"


def test_blowup_degree_cap_exits_one(capsys):
    code, out, err = run(["localize", "blowup", "--d", "100000", "--e", "0"], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"code": "bad_input",
                               "message": "d and e must be between -200 and 200",
                               "context": {"d": 100000, "e": 0}}


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_flow_tol_not_positive_is_bad_input(tol, capsys):
    code, out, err = run(["stability", "flow", "--weights", "1,0;0,1;-1,-1",
                          "--tol", tol, "--max-iter", "2000"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {"code": "bad_input",
                               "message": "tol must be a finite positive number",
                               "context": {"tol": repr(float(tol))}}


@pytest.mark.parametrize("argv, what", [
    (["classify", "--weights", "1e200,0;1e200,1"], "slope_sq"),
    (["destab", "--weights", "1e200,0;1e200,1"], "slope_sq"),
    (["slope", "--weights", "1e400,0;-1,0", "--lambda", "1,0"], "slope"),
    (["flow", "--weights", "1e400,0;-1,0"], "weight"),
    (["kn", "--weights", "1e400,0;-1,0", "--xi", "0,0"], "weight"),
    (["kn", "--weights", "1,0;-1,0", "--xi", "1e308,0"], "psi"),
    (["flow", "--weights", "1,0;-1,0", "--xi0", "1e308,0"], "psi"),
    (["flow", "--weights", "1e200,0;-1,0"], "gradient"),
], ids=["classify", "destab", "slope", "flow", "kn", "kn-psi", "flow-psi", "flow-gradient"])
def test_float_overflow_exits_one(argv, what, capsys):
    code, out, err = run(["stability", *argv], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"code": "float_overflow",
                               "message": f"{what} is beyond float range", "context": {}}


@pytest.mark.parametrize("argv", [
    ["kn", "--weights", "1,0;-1,0", "--masses", "1e-400,1", "--xi", "0,0"],
    ["flow", "--weights", "1,0;-1,0", "--masses", "1e-400,1"],
], ids=["kn", "flow"])
def test_mass_below_float_range_exits_one(argv, capsys):
    # the mass rounds to 0.0, whose log was a "math domain error"
    code, out, err = run(["stability", *argv], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"code": "float_underflow",
                               "message": "mass is below float range", "context": {}}


def test_slope_of_a_tiny_direction_is_finite(capsys):
    # |lam|^2 = 1e-400 is 0.0 as a float; the slope itself is 1
    code, out, _ = run(["stability", "slope", "--weights", "1,0;-1,0",
                        "--lambda", "1e-200,0"], capsys)
    assert code == 0 and json.loads(out)["value"] == 1.0


@pytest.mark.parametrize("argv, lengths", [
    (["polytope", "cut", "--points", "0,0;1,0;0,1", "--normal", "1", "--level", "0"], [1, 2]),
    (["stability", "slope", "--weights", "1,0;0,1;-1,-1", "--lambda", "1"], [2, 1]),
    (["stability", "graded", "--weights", "1,0;0,1;-1,-1", "--lambda", "1"], [2, 1]),
    (["stability", "moment", "--weights", "1,0;0,1;-1,-1", "--shift", "1"], [2, 1]),
], ids=["cut-normal", "slope-lambda", "graded-lambda", "moment-shift"])
def test_wrong_length_vector_is_rank_mismatch(argv, lengths, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"code": "rank_mismatch",
                               "message": "weights have different lengths",
                               "context": {"lengths": lengths}}


@pytest.mark.parametrize("weights, error, message", [
    (";", "empty_hull", "convex hull of no points"),
    ("1,0;0,1,2", "rank_mismatch", "hull points have mixed lengths"),
    ("1,0;0", "rank_mismatch", "hull points have mixed lengths"),
], ids=["none", "lengths-2-3", "lengths-2-1"])
def test_bad_critical_type_weights_exit_one(weights, error, message, capsys):
    code, out, err = run(["stability", "types", "--weights", weights], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"code": error, "message": message, "context": {}}


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_bg_samples_not_positive_is_bad_input(samples, capsys):
    code, out, err = run(["polytope", "bg", "--points", "0,0;1,0;0,1",
                          "--samples", samples], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"code": "bad_input",
                               "message": "samples must be a positive integer",
                               "context": {"samples": samples}}


def test_box_point_cap_exits_one(capsys):
    code, out, err = run(["localize", "toric", "--points", "0,0;1,0;0,1",
                          "--box", "0:100000,0:100000"], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"code": "too_large",
                               "message": "box expansion capped at 1000000 box points",
                               "context": {"points": 10000200001, "cap": 1000000}}


def test_missing_infile_exits_one(tmp_path, capsys):
    code, _, err = run(["polytope", "lattice", "--in", str(tmp_path / "no.json")],
                       capsys)
    assert code == 1
    assert json.loads(err)["code"] == "bad_file"


@pytest.mark.parametrize("argv, content", [
    (["stability", "product"], {"x": {"weights": [["1", "0"]]}}),
    (["polytope", "hull"], {}),
    (["stability", "classify"], [1, 2]),
    (["localize", "eval", "--point", "2"], {"series": 5}),
    (["localize", "eval", "--point", "2"], {}),
    (["stability", "classify"], {"weights": [1, 2]}),
    (["localize", "eval", "--point", "2"], [{"num": 5, "den": [], "dir": ["1"]}]),
    (["localize", "eval", "--point", "2"],
     [{"num": [{"w": ["1"], "c": 1}], "den": [], "dir": ["1"]}]),
    (["localize", "eval", "--point", "2"],
     [{"num": [{"w": [1], "c": 2.5}], "den": [], "dir": ["1"]}]),
    (["localize", "eval", "--point", "2"],
     [{"num": [{"w": [1], "c": 1}], "den": [[1.5]], "dir": ["-1"]}]),
    (["localize", "eval", "--point", "2"],
     [{"num": [{"w": [1], "c": 1}], "den": [], "dir": 1}]),
], ids=["product-no-y", "hull-no-vertices", "classify-list", "eval-series-int",
        "eval-empty-object", "classify-int-weights", "eval-term-num-int",
        "eval-term-w-string", "eval-term-c-float", "eval-term-den-float",
        "eval-term-dir-int"])
def test_malformed_infile_is_bad_input(argv, content, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    code, out, err = run(argv + ["--in", str(path)], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err)["code"] == "bad_input"


def test_product_without_infile_is_bad_input(capsys):
    code, out, err = run(["stability", "product"], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err)["code"] == "bad_input"


def test_unchecked_input_error_reports_internal(tmp_path, capsys, monkeypatch):
    # a library call that fails past every input check ends in one JSON error
    def broken(series, point):
        raise TypeError("unchecked")

    monkeypatch.setattr(localization, "evaluate", broken)
    path = tmp_path / "series.json"
    path.write_text(json.dumps(vertex_sum(polytopes.hull([(0,), (2,)])).to_json()))
    code, out, err = run(["localize", "eval", "--in", str(path), "--point", "2"], capsys)
    assert (code, out) == (1, "")
    obj = json.loads(err)
    assert obj["code"] == "internal" and set(obj) == {"code", "context", "message"}


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["char", "weyl", "--lambda", "2,x"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["char", "weyl"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["nosuchgroup"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_negative_weight_values_parse(capsys):
    code, out, _ = run(["lie", "dominantize", "--mu", "-1,3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["dominant"] == ["3", "-1"]


def test_seed_env_overrides_flag(capsys, monkeypatch):
    monkeypatch.delenv("GITKIT_SEED", raising=False)
    _, base9, _ = run(["horn", "sample", "--r", "2", "--trials", "5",
                       "--seed", "9"], capsys)
    _, base0, _ = run(["horn", "sample", "--r", "2", "--trials", "5",
                       "--seed", "0"], capsys)
    monkeypatch.setenv("GITKIT_SEED", "9")
    _, env9, _ = run(["horn", "sample", "--r", "2", "--trials", "5",
                      "--seed", "0"], capsys)
    assert env9 == base9
    assert base9 != base0
    monkeypatch.setenv("GITKIT_SEED", "abc")
    code, _, err = run(["horn", "sample", "--r", "2", "--trials", "5"], capsys)
    assert code == 1
    assert json.loads(err)["code"] == "bad_seed"


def test_horn_sample_stdout_pinned(capsys, monkeypatch):
    # stdout recorded from the per-matrix Jacobi loop that preceded the batch
    monkeypatch.delenv("GITKIT_SEED", raising=False)
    want = {
        2: '{"max_slack_error": 0.0, "max_trace_error": 3.3306690738754696e-15, '
           '"r": 2, "trials": 200, "violations": 0}\n',
        3: '{"max_slack_error": 0.0, "max_trace_error": 1.1102230246251565e-14, '
           '"r": 3, "trials": 200, "violations": 0}\n',
        4: '{"max_slack_error": 0.0, "max_trace_error": 1.687538997430238e-14, '
           '"r": 4, "trials": 200, "violations": 0}\n',
    }
    for r, line in want.items():
        code, out, err = run(["horn", "sample", "--r", str(r), "--trials", "200",
                              "--seed", "7"], capsys)
        assert (code, out, err) == (0, line, "")


def test_horn_sample_negative_trials_exits_one(capsys):
    code, out, err = run(["horn", "sample", "--r", "2", "--trials", "-5"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["code"] == "bad_input"
    code, out, _ = run(["horn", "sample", "--r", "2", "--trials", "0"], capsys)
    assert code == 0 and json.loads(out)["trials"] == 0


def test_examples_report(capsys):
    code, out, err = run(["examples"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "total 17 cases, all passed"
    assert all("FAIL" not in line for line in lines)
    assert len(lines) == 18


def test_installed_entry_point(tmp_path):
    """The declared console script runs in its own process, prints one JSON
    object and exits 0. The `[project.scripts]` target is checked in every
    run; pip's wrapper file is checked too wherever `gitkit` is on PATH."""
    import importlib
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    import gitkit

    argv = ["horn", "check", "--a", "3,1", "--b", "2,1", "--c", "4,3"]

    if shutil.which("gitkit"):
        res = subprocess.run(["gitkit", *argv], capture_output=True, text=True)
        assert res.returncode == 0
        assert res.stdout == '{"feasible": true}\n'

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["gitkit"]
    module, _, attr = spec.partition(":")
    assert getattr(importlib.import_module(module), attr) is main

    # the same call the generated console-script wrapper makes, against the
    # copy of gitkit this test imported, from outside the source tree
    env = dict(os.environ)
    src = str(Path(gitkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    call = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    res = subprocess.run([sys.executable, "-c", call, *argv], capture_output=True,
                         text=True, env=env, cwd=tmp_path)
    assert res.returncode == 0
    assert res.stdout == '{"feasible": true}\n'
