"""Command line interface: one subcommand per library operation.

Structured inputs arrive inline (comma/semicolon lists, rationals as 'p/q')
or from a JSON file via --in.  All stdout is canonical JSON (sorted keys) or,
for the report harness, a fixed-width table; repeated runs with equal inputs
produce byte-identical stdout.  Domain failures exit 1 with a JSON error on
stderr; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import characters, horn, lie, localization, polytopes, puzzles, stability
from .lie import GitkitError


class _Parser(argparse.ArgumentParser):
    # let values like -1,0 or -1/2 pass as arguments instead of option strings;
    # the stock matcher is set per instance, so a class attribute cannot widen it
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")


def _weight_arg(s: str):
    try:
        return tuple(lie.rat(p) for p in s.split(","))
    except GitkitError as exc:
        raise argparse.ArgumentTypeError(f"bad weight {s!r}: {exc}")


def _subset_arg(s: str):
    if s.strip() == "":
        return ()
    try:
        return tuple(int(p) for p in s.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad index set {s!r}: {exc}")


def _weights_arg(s: str):
    return tuple(_weight_arg(part) for part in s.split(";") if part.strip() != "")


def _box_arg(s: str):
    out = []
    try:
        for part in s.split(","):
            lo, hi = part.split(":")
            out.append((int(lo), int(hi)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad box {s!r}: {exc}")
    return tuple(out)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GitkitError("bad_file", f"could not read JSON from {path}", {"error": str(exc)})


def _resolve_seed(args) -> int:
    env = os.environ.get("GITKIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise GitkitError("bad_seed", "GITKIT_SEED must be an integer", {"value": env})
    return args.seed


def _point(args) -> stability.ProjPoint:
    if args.infile:
        return stability.ProjPoint.from_json(_load_json(args.infile))
    if args.weights:
        return stability.proj_point(args.weights, args.masses)
    raise GitkitError("bad_input", "provide --in FILE or --weights", {})


def _point_pair(args) -> tuple:
    if not args.infile:
        raise GitkitError("bad_input", "provide --in FILE with points x and y", {})
    obj = _load_json(args.infile)
    if not isinstance(obj, dict) or "x" not in obj or "y" not in obj:
        raise GitkitError("bad_input", "the input must be an object with keys x and y", {})
    return stability.ProjPoint.from_json(obj["x"]), stability.ProjPoint.from_json(obj["y"])


def _polytope(args, flag: str = "infile") -> polytopes.Polytope:
    path = getattr(args, flag)
    if path:
        return polytopes.Polytope.from_json(_load_json(path))
    if args.points:
        return polytopes.hull(args.points)
    raise GitkitError("bad_input", "provide --in FILE or --points", {})


def _series(args) -> localization.ConeSeries:
    if args.infile:
        obj = _load_json(args.infile)
        if isinstance(obj, dict) and "series" in obj:
            obj = obj["series"]
        return localization.ConeSeries.from_json(obj)
    raise GitkitError("bad_input", "provide --in FILE with a series", {})


def _rank_checked(args):
    if args.r and len(args.lam) != args.r:
        raise GitkitError("rank_mismatch", "--r disagrees with --lambda length",
                          {"r": args.r, "lambda": len(args.lam)})
    return args.lam


# ------------------------------------------------- results to JSON
# Tuples print as JSON arrays, so a report whose fields are all JSON values
# prints as `vars(report)`.

def _weights(ws) -> list:
    return [lie.weight_to_json(w) for w in ws]


def _character(poly) -> dict:
    return {"character": poly.to_json(), "dim": poly.total_coeff_sum()}


def _dominant(res) -> dict:
    if res is None:
        return {"singular": True}
    w, dom = res
    return {"perm": w.perm, "length": w.length, "dominant": lie.weight_to_json(dom)}


def _bwb(res) -> dict:
    if res is None:
        return {"vanishes": True}
    deg, wt = res
    return {"degree": deg, "weight": lie.weight_to_json(wt)}


def _count(n, args) -> dict:
    out = {"count": n}
    if args.list:
        out["fillings"] = puzzles.enumerate_puzzles(args.r, args.iset, args.jset, args.kset,
                                                    limit=args.limit)
    return out


def _horn_system(sys_, fmt: str):
    if fmt == "json":
        return sys_.to_json()
    lines = [f"r={sys_.r} mode={sys_.mode} trace-equality plus {len(sys_.triples)} inequalities"]
    lines += [f"I={list(i)} J={list(j)} K={list(k)} count={n}" for i, j, k, n in sys_.triples]
    return "\n".join(lines)


def _feasible(res) -> dict:
    if res.feasible:
        return {"feasible": True}
    if res.violated == ("trace",):
        return {"feasible": False, "violated": "trace"}
    i, j, k = res.violated
    return {"feasible": False, "violated": {"I": i, "J": j, "K": k}}


def _slope(s) -> dict:
    return {"num": lie.fmt_rat(s.num), "lam_normsq": lie.fmt_rat(s.lam_normsq),
            "value": s.value}


def _destab(res) -> dict:
    if res is None:
        return {"semistable": True}
    return {k: v for k, v in stability.verdict_to_json(res).items() if k != "verdict"}


def _lattice(pts) -> dict:
    return {"points": _weights(pts), "count": len(pts)}


def _delzant(rep) -> dict:
    if rep.ok:
        return {"delzant": True}
    return {"delzant": False, "failing_vertex": lie.weight_to_json(rep.failing_vertex),
            "reason": rep.reason}


def _cut(res) -> dict:
    if res.polytope is None:
        return {"kind": res.kind}
    return {"kind": res.kind, "polytope": res.polytope.to_json()}


def _fan(fan) -> dict:
    return {"cones": [{"face_dim": c["face_dim"], "face_vertices": _weights(c["face_vertices"]),
                       "generators": c["generators"]} for c in fan]}


def _toric(series, args) -> dict:
    out = {"series": series.to_json()}
    if args.eval is not None:
        out["value"] = lie.fmt_rat(localization.evaluate(series, args.eval))
    if args.box is not None:
        out["expansion"] = localization.expand_in_box(series, args.box).to_json()
    return out


def _p1(rep) -> dict:
    return {**vars(rep), "expansion": rep.expansion.to_json()}


def _blowup(series, rep) -> dict:
    return {**vars(rep), "series": series.to_json()}


def _weyl_series(series, poly) -> dict:
    return {"series": series.to_json(), **_character(poly)}


def _examples(args) -> None:
    # imported here, so that no other command pays for loading the examples
    from . import examples

    rows, all_ok = examples.run_all()
    width = max(len(r[0]) for r in rows)
    for name, status, detail in rows:
        print(f"{name:<{width}}  {status:<4}  {detail}")
    print(f"total {len(rows)} cases, {'all passed' if all_ok else 'FAILURES PRESENT'}")
    if not all_ok:
        raise GitkitError("examples_failed", "some worked examples failed", {})


# ------------------------------------------------- the table
# A flag is (option string, add_argument keywords).

def _req(flag, type=None, **kw):
    return flag, {"type": type, "required": True, **kw}


def _opt(flag, type=None, default=None, **kw):
    return flag, {"type": type, "default": default, **kw}


_SWITCH = {"action": "store_true"}
_IN = _opt("--in", dest="infile")
_POINT = [_opt("--weights", _weights_arg), _opt("--masses", _weight_arg), _IN]
_POINTS = _opt("--points", _weights_arg)
_SEED = _opt("--seed", int, 0)
_LAMBDA = _req("--lambda", _weight_arg, dest="lam")
_R = _req("--r", int)
_TOL = _opt("--tol", float, 1e-8)

_GROUPS = {
    "lie": "weights, orbits, sorting",
    "char": "characters and cohomology",
    "puzzles": "boundary counts and structure constants",
    "horn": "eigenvalue inequality systems",
    "stability": "torus actions on projective points",
    "polytope": "hulls, cuts, fans",
    "localize": "fixed-point sums and expansions",
    "examples": "run the worked-example regression table",
}


# One row per command: (group, op, flags, run).  `run(args)` calls the library
# and returns the JSON value to print (a string prints as is, None prints
# nothing).  It reads each function off its module at call time, so whatever
# the module binds under that name then is called.
COMMANDS = (
    ("lie", "orbit", [_LAMBDA, _opt("--r", int, 0)],
     lambda a: {"orbit": _weights(sorted(lie.weyl_orbit(a.lam, a.r or len(a.lam))))}),
    ("lie", "rho", [_R], lambda a: {"rho": lie.weight_to_json(lie.rho(a.r))}),
    ("lie", "dominantize", [_req("--mu", _weight_arg)],
     lambda a: _dominant(lie.dominantize(a.mu))),

    ("char", "weyl", [_LAMBDA, _opt("--r", int, 0)],
     lambda a: _character(characters.weyl_character(_rank_checked(a)))),
    ("char", "tensor", [_LAMBDA, _req("--mu", _weight_arg)],
     lambda a: {"components": characters.decomposition_to_json(
         characters.tensor_decompose(a.lam, a.mu))}),
    ("char", "invariant",
     [_req("--weights", _weights_arg, help="semicolon-separated highest weights"),
      _opt("--group", default="SL", choices=("SL", "GL"))],
     lambda a: {"dim": characters.invariant_dim(list(a.weights), group=a.group)}),
    ("char", "bwb", [_LAMBDA], lambda a: _bwb(characters.bwb_cohomology(a.lam))),

    ("puzzles", "count",
     [_R, _req("--I", _subset_arg, dest="iset"), _req("--J", _subset_arg, dest="jset"),
      _req("--K", _subset_arg, dest="kset"), ("--list", _SWITCH), _opt("--limit", int)],
     lambda a: _count(puzzles.count_puzzles(a.r, a.iset, a.jset, a.kset), a)),
    ("puzzles", "lr",
     [_R, _req("--s", int), _req("--lam", _subset_arg), _req("--mu", _subset_arg),
      _req("--nu", _subset_arg)],
     lambda a: {"coefficient": puzzles.lr_coefficient(a.r, a.s, a.lam, a.mu, a.nu)}),
    ("puzzles", "assoc", [_R, _req("--s", int), _opt("--max-cases", int), _SEED],
     lambda a: vars(puzzles.associativity_check(a.r, a.s, seed=_resolve_seed(a),
                                                max_cases=a.max_cases))),

    ("horn", "generate",
     [_R, ("--irredundant", _SWITCH), _opt("--format", default="json", choices=("json", "table"))],
     lambda a: _horn_system(horn.generate_horn_system(
         a.r, "irredundant" if a.irredundant else "all-positive"), a.format)),
    ("horn", "check",
     [_req("--a", _weight_arg), _req("--b", _weight_arg), _req("--c", _weight_arg)],
     lambda a: _feasible(horn.check_triple(a.a, a.b, a.c))),
    ("horn", "sample", [_R, _opt("--trials", int, 1000), _TOL, _SEED],
     lambda a: vars(horn.sample_hermitian_validate(a.r, trials=a.trials, seed=_resolve_seed(a),
                                                   tol=a.tol))),
    ("horn", "polygon", [_req("--lengths", _weight_arg)],
     lambda a: {"nonempty": horn.polygon_nonempty(a.lengths)}),
    ("horn", "sl2", [_req("--masses", _weight_arg), _opt("--total")],
     lambda a: dict(zip(("semistable", "witness"),
                        horn.sl2_config_semistable(list(a.masses), expected_total=a.total)))),

    ("stability", "moment", [*_POINT, _opt("--shift", _weight_arg)],
     lambda a: {"moment": lie.weight_to_json(stability.moment_map(_point(a), shift=a.shift))}),
    ("stability", "polytope", _POINT,
     lambda a: stability.orbit_moment_polytope(_point(a)).to_json()),
    ("stability", "classify", _POINT,
     lambda a: stability.verdict_to_json(stability.classify_stability(_point(a)))),
    ("stability", "slope", [*_POINT, _LAMBDA],
     lambda a: _slope(stability.hm_slope(_point(a), a.lam))),
    ("stability", "destab", _POINT, lambda a: _destab(stability.max_destabilizing(_point(a)))),
    ("stability", "kn", [*_POINT, _req("--xi", _weight_arg)],
     lambda a: dict(zip(("value", "gradient"), stability.kempf_ness(_point(a), a.xi)))),
    ("stability", "flow",
     [*_POINT, _opt("--xi0", _weight_arg), _TOL, _opt("--max-iter", int, 100000)],
     lambda a: vars(stability.minimize_kempf_ness(_point(a), xi0=a.xi0, tol=a.tol,
                                                  max_iter=a.max_iter))),
    ("stability", "graded", [*_POINT, _LAMBDA],
     lambda a: stability.associated_graded(_point(a), a.lam).to_json()),
    ("stability", "jh", _POINT,
     lambda a: {"generators": _weights(stability.jordan_holder_cone(_point(a)))}),
    ("stability", "types", [_req("--weights", _weights_arg)],
     lambda a: {"types": _weights(sorted(stability.critical_types(list(a.weights))))}),
    ("stability", "product", [_IN], lambda a: stability.product(*_point_pair(a)).to_json()),

    # hull: --points goes to `polytopes.hull`, --in to `Polytope.from_json`, which calls it
    ("polytope", "hull", [_POINTS, _IN], lambda a: _polytope(a).to_json()),
    ("polytope", "kostant", [_LAMBDA], lambda a: polytopes.kostant_polytope(a.lam).to_json()),
    ("polytope", "lattice", [_POINTS, _IN],
     lambda a: _lattice(polytopes.lattice_points(_polytope(a)))),
    ("polytope", "delzant", [_POINTS, _IN],
     lambda a: _delzant(polytopes.is_delzant(_polytope(a)))),
    ("polytope", "cut", [_POINTS, _req("--normal", _weight_arg), _req("--level"), _IN],
     lambda a: _cut(polytopes.symplectic_cut(_polytope(a), a.normal, a.level))),
    ("polytope", "fan", [_POINTS, _IN], lambda a: _fan(polytopes.normal_fan(_polytope(a)))),
    ("polytope", "bg", [_POINTS, _opt("--samples", int, 200), _SEED, _IN],
     lambda a: vars(polytopes.brianchon_gram_check(_polytope(a), samples=a.samples,
                                                   seed=_resolve_seed(a)))),

    ("localize", "toric",
     [_opt("--polytope", help="JSON file with the polytope"), _POINTS,
      _opt("--eval", _weight_arg), _opt("--box", _box_arg)],
     lambda a: _toric(localization.vertex_sum(_polytope(a, "polytope")), a)),
    ("localize", "eval", [_req("--point", _weight_arg), _IN],
     lambda a: {"value": lie.fmt_rat(localization.evaluate(_series(a), a.point))}),
    ("localize", "expand", [_req("--box", _box_arg), _IN],
     lambda a: {"expansion": localization.expand_in_box(_series(a), a.box).to_json()}),
    ("localize", "p1", [_req("--d", int)], lambda a: _p1(localization.p1_kn_identity(a.d))),
    ("localize", "blowup", [_req("--d", int), _req("--e", int)],
     lambda a: _blowup(*localization.blowup_chi(a.d, a.e))),
    ("localize", "weyl", [_LAMBDA],
     lambda a: _weyl_series(*localization.weyl_via_localization(a.lam))),

    ("examples", None, [], _examples),
)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="gitkit", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True, parser_class=_Parser)
    ops = {}
    for group, op, flags, run in COMMANDS:
        if group not in ops:
            sp = groups.add_parser(group, help=_GROUPS[group])
            if op is not None:
                ops[group] = sp.add_subparsers(dest="op", required=True, parser_class=_Parser)
        if op is not None:
            sp = ops[group].add_parser(op)
        for flag, kw in flags:
            sp.add_argument(flag, **kw)
        sp.set_defaults(run=run, op=op)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.run(args)
    except GitkitError as exc:
        err = {"code": exc.code, "message": exc.message, "context": exc.context}
    except (KeyError, TypeError, ValueError) as exc:
        # malformed input that no check caught: one JSON report, not a traceback
        err = {"code": "internal", "message": f"unexpected {type(exc).__name__}",
               "context": {"error": str(exc)}}
    else:
        if out is not None:
            print(out if isinstance(out, str) else json.dumps(out, sort_keys=True))
        return 0
    print(json.dumps(err, sort_keys=True), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
