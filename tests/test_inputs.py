"""The input boundary: every public entry of gitkit, and every CLI command,
returns an answer or refuses its input with a coded GitkitError.

`lie.rat` reads a rational, `lie.is_int`/`lie.integer` an integer (a
numbers.Integral that is not a bool) and `lie.entries` a list.  The fuzz tests
draw arguments of the right arity from text, None, bools, 2.5 and 2.0, NaN,
the infinities, "p/q" strings, wrong lengths and nested lists, mixed with
well-formed values.  Ranks, point counts, `trials`, `samples` and `max_iter`
are held small: the size caps that would bound `hull` and the other
combinatorial scans on any input do not exist yet, so a large draw could run
for minutes.  Each call must finish within the deadline below.
"""

import contextlib
import io
import json
import types
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gitkit
from gitkit import (
    ConeSeries,
    LaurentPoly,
    associativity_check,
    blowup_chi,
    classify_stability,
    count_puzzles,
    dominantize,
    enumerate_puzzles,
    hull,
    kempf_ness,
    kostant_polytope,
    lattice_points,
    lr_coefficient,
    minimize_kempf_ness,
    normal_fan,
    p1_chi,
    proj_point,
    rational_eq,
    rho,
    symplectic_cut,
    vertex_sum,
    weyl_character,
    weyl_via_localization,
)
from gitkit.characters import su2_invariant_dim
from gitkit.cli import COMMANDS, main
from gitkit.lie import GitkitError
from gitkit.stability import product

NAN, INF = float("nan"), float("inf")
EVAL_POLY = LaurentPoly(2, {(1, 0): 1, (0, -1): 2})
SET_REFUSED = ("bad_input", "a vector must be an ordered list, not a set", {"type": "set"})


def _not_a(noun, cls, *types):
    return "bad_input", f"{noun} must be a {cls}", {"types": list(types)}


# ------------------------------------------------------------ regression

# Each of these leaked a Python exception or returned a wrong answer.  The
# cases that are refused as text are in test_lie's
# test_entries_that_are_not_rationals_are_refused.
@pytest.mark.parametrize("call, code, message, context", [
    (lambda: count_puzzles(3, (1, "a"), (1,), (1,)),
     "bad_input", "I must be an integer", {"I": "'a'"}),
    (lambda: count_puzzles(2.5, (1,), (1,), (1,)),
     "bad_input", "r must be an integer", {"r": "2.5"}),
    (lambda: count_puzzles(True, (1,), (1,), (1,)),
     "bad_input", "r must be an integer", {"r": "True"}),
    (lambda: p1_chi("x"), "bad_input", "d must be an integer", {"d": "'x'"}),
    (lambda: p1_chi(2.5), "bad_input", "d must be an integer", {"d": "2.5"}),
    (lambda: blowup_chi(2.5, 1), "bad_input", "d must be an integer", {"d": "2.5"}),
    (lambda: rho(2.5), "bad_input", "r must be an integer", {"r": "2.5"}),
    (lambda: associativity_check(3, 1.5), "bad_input", "s must be an integer", {"s": "1.5"}),
    (lambda: rational_eq(p1_chi(1), 1),
     "bad_input", "a series must be a ConeSeries", {"types": ["ConeSeries", "int"]}),
    (lambda: lr_coefficient(3, 1, (1.5,), (1,), (2,)),
     "bad_input", "partition must be an integer", {"partition": "1.5"}),
    (lambda: enumerate_puzzles(4, (2, 4), (2, 4), (2, 3), limit=-1),
     "bad_input", "limit must be non-negative", {"limit": -1}),
    (lambda: su2_invariant_dim([1, 1], scale=True),
     "bad_input", "scale must be an integer or a fraction", {"scale": "True"}),
    (lambda: LaurentPoly(1, {(True,): 1}),
     "not_integral", "Laurent exponents must be integers", {"exponent": ["True"]}),
    (lambda: LaurentPoly(1, {(1,): 1}).evaluate(("x",)),
     "bad_rational", "cannot parse a rational from 'x'", {}),
    (lambda: EVAL_POLY.evaluate(["x", 1]), "bad_rational", "cannot parse a rational from 'x'", {}),
    (lambda: EVAL_POLY.evaluate([NAN, 1]), "bad_rational", "cannot parse a rational from nan", {}),
    (lambda: EVAL_POLY.evaluate(5), "bad_input", "expected a list of values", {"type": "int"}),
    (lambda: EVAL_POLY.evaluate([True, 1]),
     "bad_rational", "boolean is not a rational", {"value": "True"}),
    (lambda: kostant_polytope({1, 2}), *SET_REFUSED),
    (lambda: dominantize({3, 1}), *SET_REFUSED),
    (lambda: weyl_character({2, 0}), *SET_REFUSED),
    (lambda: proj_point([(1, 0)], {1}), *SET_REFUSED),
    (lambda: lr_coefficient(4, 2, {1}, (1,), (2,)), *SET_REFUSED),
    (lambda: lattice_points(5), *_not_a("a polytope", "Polytope", "int")),
    (lambda: classify_stability(None), *_not_a("a point", "ProjPoint", "NoneType")),
    (lambda: vertex_sum("x"), *_not_a("a polytope", "Polytope", "str")),
    (lambda: kempf_ness(5, (0,)), *_not_a("a point", "ProjPoint", "int")),
    (lambda: minimize_kempf_ness(3), *_not_a("a point", "ProjPoint", "int")),
    (lambda: product(proj_point([(1, 0)]), 5),
     *_not_a("a point", "ProjPoint", "ProjPoint", "int")),
    (lambda: normal_fan([]), *_not_a("a polytope", "Polytope", "list")),
    (lambda: symplectic_cut(None, (1,), 0), *_not_a("a polytope", "Polytope", "NoneType")),
    (lambda: LaurentPoly(-1), "bad_input", "rank must be non-negative", {"rank": -1}),
    (lambda: LaurentPoly.one("x"), "bad_input", "rank must be an integer", {"rank": "'x'"}),
    (lambda: LaurentPoly.one(2.5), "bad_input", "rank must be an integer", {"rank": "2.5"}),
    (lambda: LaurentPoly.monomial(5), "bad_input", "expected a list of values", {"type": "int"}),
    (lambda: LaurentPoly.monomial({1, 2}), *SET_REFUSED),
    (lambda: LaurentPoly.monomial(([1], 2)),
     "bad_rational", "cannot parse a rational from [1]", {}),
], ids=["puzzle-subset-text", "puzzle-size-float", "puzzle-size-bool", "p1-text",
        "p1-float", "blowup-float", "rho-float", "assoc-float", "rational-eq-int",
        "lr-float-part", "enumerate-negative-limit", "su2-bool-scale", "laurent-bool",
        "laurent-evaluate-text", "laurent-evaluate-text-entry", "laurent-evaluate-nan",
        "laurent-evaluate-int", "laurent-evaluate-bool", "kostant-set", "dominantize-set",
        "weyl-character-set", "proj-point-set-masses", "lr-set-partition",
        "lattice-points-int", "classify-none", "vertex-sum-text", "kempf-ness-int",
        "minimize-kempf-ness-int", "product-int", "normal-fan-list", "cut-none",
        "laurent-negative-rank", "laurent-one-text", "laurent-one-float",
        "laurent-monomial-int", "laurent-monomial-set", "laurent-monomial-list-entry"])
def test_inputs_that_leaked_or_misread_are_refused(call, code, message, context):
    with pytest.raises(GitkitError) as exc:
        call()
    assert (exc.value.code, exc.value.message, exc.value.context) == (code, message, context)


# ------------------------------------------------------------ library fuzz

JUNK = ["x", "", "1/2", "-3/4", "1/0", " 2 ", None, True, False, 2.5, 2.0, -1.0,
        NAN, INF, -INF, Fraction(1, 2), [], [[1, 2]], [1, [2]], [None]]
junk = st.sampled_from(JUNK)
small = st.integers(-1, 4)
entry = st.one_of(st.integers(-2, 3), junk)
vec = st.one_of(st.lists(entry, max_size=3), st.lists(st.integers(-2, 3), max_size=3).map(tuple))
vecs = st.lists(vec, max_size=4)
ints = st.one_of(small, junk)
rats = st.one_of(st.integers(-2, 3), st.sampled_from(["1/2", "-3/2", Fraction(2, 3)]), junk)


# the record arguments are built records or junk
TRIANGLE = hull([(0, 0), (1, 0), (0, 1)])
POLYTOPES = st.one_of(st.sampled_from([
    TRIANGLE, hull([(0, 0), (2, 0), (2, 1), (0, 1)]), hull([(0, 0), (1, 1)]),
    hull([(Fraction(1, 2), 0), (1, 0), (1, 1)]), hull([(3,)]),
    hull([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])]), junk)
POINTS = st.one_of(st.sampled_from([
    proj_point([(1, 0), (0, 1), (-1, -1)]), proj_point([(1, 0)]),
    proj_point([(1, 0), (-1, 0)], ["1/2", 2]), proj_point([(2,), (-1,)])]), junk)
SERIES = st.one_of(st.sampled_from([p1_chi(1), blowup_chi(1, 0)[0], vertex_sum(TRIANGLE),
                                    weyl_via_localization((1, 0))[0], ConeSeries(())]), junk)
FILLING = enumerate_puzzles(4, (2, 4), (2, 4), (2, 3))[0]
edges = st.one_of(st.just(FILLING), st.just({}), junk,
                  st.tuples(st.sampled_from(sorted(FILLING)), junk).map(
                      lambda kv: {**FILLING, kv[0]: kv[1]}))
scalar = st.one_of(st.integers(-2, 3),
                   st.sampled_from([j for j in JUNK if not isinstance(j, list)]))
terms = st.one_of(st.dictionaries(st.lists(scalar, max_size=3).map(tuple), entry, max_size=3),
                  junk)
poly = st.one_of(st.sampled_from([LaurentPoly.one(1), LaurentPoly(2, {(1, 0): 1, (0, 1): -1})]),
                 junk)
matrix = st.one_of(st.lists(st.lists(st.one_of(st.integers(-2, 2), junk), max_size=3), max_size=3),
                   junk)
box = st.one_of(st.lists(st.one_of(st.tuples(small, small), junk), max_size=3), junk)
label = st.sampled_from(["a", 0, None, (1,), [1], [1, [2]]])
masses = st.one_of(st.lists(st.tuples(label, st.one_of(st.integers(1, 3), rats)), max_size=3),
                   st.lists(rats, max_size=4), junk)

# the arguments of each public name, drawn as one tuple
T = st.tuples
SIGNATURES = {
    "GitkitError": T(junk, junk, junk),
    "WeylElement": T(vec),
    "dominantize": T(vec),
    "rho": T(ints),
    "weyl_orbit": T(vec, ints),
    "LaurentPoly": T(ints, terms),
    "bwb_cohomology": T(vec),
    "invariant_dim": T(st.one_of(vecs, junk), st.one_of(st.sampled_from(["SL", "GL"]), junk)),
    "tensor_decompose": T(vec, vec),
    "weyl_character": T(vec),
    "weyl_dim": T(vec),
    "associativity_check": T(ints, ints, ints, st.one_of(st.none(), ints)),
    # half of the draws keep the boundary of FILLING, so that the edges are read
    "check_filling": st.one_of(T(ints, vec, vec, vec, edges),
                               T(st.just(4), st.just((2, 4)), st.just((2, 4)), st.just((2, 3)),
                                 edges)),
    "count_puzzles": T(ints, vec, vec, vec),
    "enumerate_puzzles": T(ints, vec, vec, vec, st.one_of(st.none(), ints)),
    "lr_coefficient": T(ints, ints, vec, vec, vec),
    "check_triple": T(vec, vec, vec),
    "generate_horn_system": T(ints, st.one_of(st.sampled_from(["all-positive", "irredundant"]),
                                              junk)),
    "jacobi_eigenvalues": T(matrix),
    "polygon_nonempty": T(st.one_of(vec, junk)),
    "sample_hermitian_validate": T(ints, ints, ints, st.one_of(st.just(1e-8), junk)),
    "sl2_config_semistable": T(masses, st.one_of(st.none(), rats)),
    "ProjPoint": T(junk),
    "classify_stability": T(POINTS),
    "critical_types": T(st.one_of(vecs, junk)),
    "hm_slope": T(POINTS, vec),
    "kempf_ness": T(POINTS, vec),
    "max_destabilizing": T(POINTS),
    "minimize_kempf_ness": T(POINTS, st.one_of(st.none(), vec), st.one_of(st.just(1e-6), junk),
                             ints),
    "moment_map": T(POINTS, st.one_of(st.none(), vec)),
    "proj_point": T(st.one_of(vecs, junk), st.one_of(st.none(), vec)),
    "Polytope": T(junk, junk, junk, junk),
    "brianchon_gram_check": T(POLYTOPES, ints, ints),
    "hull": T(st.one_of(vecs, junk)),
    "is_delzant": T(POLYTOPES),
    "kostant_polytope": T(vec),
    "lattice_points": T(POLYTOPES),
    "normal_fan": T(POLYTOPES),
    "symplectic_cut": T(POLYTOPES, vec, rats),
    "ConeSeries": T(st.one_of(st.lists(st.sampled_from(p1_chi(2).terms), max_size=2).map(tuple),
                              junk)),
    "Term": T(poly, st.one_of(vecs, junk), vec),
    "blowup_chi": T(ints, ints),
    "evaluate": T(SERIES, vec),
    "expand_in_box": T(SERIES, box),
    "p1_chi": T(ints),
    "p1_kn_identity": T(ints),
    "rational_eq": T(SERIES, SERIES),
    "vertex_sum": T(POLYTOPES),
    "weyl_via_localization": T(vec),
}


def test_fuzz_covers_every_public_name():
    public = {n for n, v in vars(gitkit).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert set(SIGNATURES) == public


@pytest.mark.parametrize("name", sorted(SIGNATURES))
@settings(max_examples=50, derandomize=True, database=None, deadline=timedelta(seconds=2))
@given(data=st.data())
def test_public_entries_answer_or_refuse_with_a_code(name, data):
    args = data.draw(SIGNATURES[name], label="args")
    try:
        getattr(gitkit, name)(*args)
    except GitkitError as exc:
        assert isinstance(exc.code, str) and exc.code


# ------------------------------------------------------------ CLI fuzz

# flags whose values are held small (an int flag with a large default is
# always given, so that no draw runs the default 1000 trials or 10^5 steps)
SMALL_INT = ["-1", "0", "1", "2", "3", "4", "x", "2.5", ""]
ALWAYS = {"--trials", "--samples", "--max-iter"}
VALUES = ["0", "1", "-1", "3", "1/2", "-3/2", "x", "", " ", "1,0", "2,1,0", "0,1", "1,x",
          "1,0;0,1;-1,-1", "1;-1", "1,1;1", "1:2", "0:1,0:1", "2:1", "nan", "inf", "2.0",
          "1e400", "1/0", ",", ";", "SL", "GL", "json", "table"]
FILES = [{"weights": [[1, 0], [0, 1], [-1, -1]], "masses": [1, "1/2", 2]},
         {"weights": [[1, "x"]]}, {"weights": 5}, {"weights": [[1, 0]], "masses": [True]},
         {"vertices": [[0, 0], [1, 0], [0, 1]]}, {"vertices": [[0], [0, 1]]},
         {"vertices": [["1/2", 0], [1, 1]]},
         {"x": {"weights": [[1]]}, "y": {"weights": [[-1], [2]]}}, {"x": 1, "y": []},
         p1_chi(1).to_json(), {"series": vertex_sum(TRIANGLE).to_json()},
         [{"num": [{"w": [1], "c": 1}], "den": [[None]], "dir": ["1"]}],
         [{"num": [{"w": [1], "c": 1}], "den": [[2]], "dir": [[1]]}],
         5, "x", None, [], {}, [[1, "x"]], [{"num": 1, "den": 2, "dir": 3}]]


@st.composite
def _argv(draw, row, path):
    group, op, flags, _run = row
    argv = [group] + ([op] if op else [])
    for flag, kw in flags:
        if kw.get("action") == "store_true":
            if draw(st.booleans()):
                argv.append(flag)
            continue
        if flag not in ALWAYS and not draw(st.integers(0, 4)):   # now and then left out
            continue
        if kw.get("dest") == "infile" or flag == "--polytope":
            content = draw(st.one_of(st.sampled_from(FILES).map(json.dumps), st.just("{")))
            path.write_text(content)
            value = str(path)
        elif kw.get("type") is int:
            value = draw(st.sampled_from(SMALL_INT))
        else:
            value = draw(st.sampled_from(VALUES))
        argv += [flag, value]
    return argv


@pytest.mark.parametrize("row", COMMANDS, ids=[f"{g}-{o}" for g, o, *_ in COMMANDS])
@settings(max_examples=8, derandomize=True, database=None, deadline=timedelta(seconds=2))
@given(data=st.data())
def test_cli_commands_exit_cleanly_on_drawn_flags(row, data, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz_in.json"
    argv = data.draw(_argv(row, path), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse refuses a flag
            code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        report = json.loads(err.getvalue().splitlines()[-1])
        assert report["code"] and report["code"] != "internal", report
