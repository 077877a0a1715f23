"""Per-layer spans for the traced run, recorded from outside gitkit.

`install` replaces each traced public function with a wrapper in every gitkit
module namespace that binds it (``hull`` is bound in ``polytopes``,
``stability`` and ``localization``; ``weyl_character`` in ``characters`` and
``localization``), so calls made inside the library are caught too.  Nothing
under ``src/`` changes.  The untraced runs never import this module.

A span is (id, parent id, operation index, layer, start, end).  A layer's self
time is its spans' time minus the time of the spans nested directly inside
them.  ``lie`` stays unwrapped: its helpers run millions of times per run and
wrapping them would measure the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import statistics
import sys
import time
from math import comb

# "<module>.<function>", or "<module>.<class>.<method>"
LAYERS = (
    "polytopes.hull",
    "polytopes.Polytope.edges",
    "polytopes.lattice_points",
    "polytopes.symplectic_cut",
    "stability.nearest_point_of_hull",
    "stability.minimize_kempf_ness",
    "stability.kempf_ness",
    "stability.classify_stability",
    "horn.jacobi_eigenvalues",
    "horn.generate_horn_system",
    "horn.check_triple",
    "horn.sample_hermitian_validate",
    "puzzles.count_puzzles",
    "puzzles.count_puzzles_all_k",
    "characters.weyl_character",
    "characters.tensor_decompose",
    "localization.expand_in_box",
    "localization.vertex_sum",
)


def _distinct(points) -> int:
    return len({tuple(p) for p in points})


def _hull_counts(args, kwargs, result) -> dict:
    n = _distinct(args[0] if args else kwargs["points"])
    return {"points_in": n, "facets_out": len(result.facets),
            "candidate_subsets": comb(n, result.dim) if result.dim >= 1 else 0}


def _nearest_counts(args, kwargs, result) -> dict:
    pts = list(args[0] if args else kwargs["weights"])
    n, r = _distinct(pts), len(pts[0])
    return {"candidate_subsets": sum(comb(n, k) for k in range(1, min(n, r + 1) + 1))}


def _descent_counts(args, kwargs, result) -> dict:
    return {"iterations": result.iterations}


def _expand_counts(args, kwargs, result) -> dict:
    return {"terms_out": len(result.terms)}


# counters worked out from a call's inputs or return value
COMPUTED = {
    "polytopes.hull": _hull_counts,
    "stability.nearest_point_of_hull": _nearest_counts,
    "stability.minimize_kempf_ness": _descent_counts,
    "localization.expand_in_box": _expand_counts,
}
CLI_METRICS = ("import_gitkit_ms", "import_numpy_ms", "build_parser_ms", "main_ms")
EXTRA = {
    "polytopes.hull": ("points_in", "facets_out", "candidate_subsets"),
    "stability.nearest_point_of_hull": ("candidate_subsets",),
    "stability.minimize_kempf_ness": ("iterations",),
    "characters.weyl_character": ("repeat_calls",),
    "localization.expand_in_box": ("terms_out",),
}


class Tracer:
    """Holds the spans of one run in memory and sums them per layer."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []          # [span id, child time] of open spans
        self.op = -1
        self.calls = {name: 0 for name in LAYERS}
        self.self_s = {name: 0.0 for name in LAYERS}
        self.counts = {name: dict.fromkeys(EXTRA.get(name, ()), 0) for name in LAYERS}
        self.seen_characters: set = set()
        self.cli_samples: list = []    # one dict of CLI_METRICS per cli call

    def wrap(self, name: str, fn):
        tracer = self
        computed = COMPUTED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1][0] if tracer.stack else None
            tracer.spans.append(None)
            frame = [sid, 0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][1] += t1 - t0
                tracer.spans[sid] = (sid, parent, tracer.op, name, t0, t1)
                tracer.calls[name] += 1
                tracer.self_s[name] += (t1 - t0) - frame[1]
            if computed is not None:
                for key, v in computed(args, kwargs, result).items():
                    tracer.counts[name][key] += v
            if name == "characters.weyl_character":
                key = tuple(args[0] if args else kwargs["lam"])
                if key in tracer.seen_characters:
                    tracer.counts[name]["repeat_calls"] += 1
                tracer.seen_characters.add(key)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced layer wherever a gitkit module binds it; every
        gitkit module is imported first, so that none is missed."""
        import gitkit
        from gitkit import characters, horn, localization, polytopes, puzzles, stability

        for info in pkgutil.iter_modules(gitkit.__path__):
            importlib.import_module(f"gitkit.{info.name}")
        modules = [m for key, m in sys.modules.items()
                   if key == "gitkit" or key.startswith("gitkit.")]
        home = {"polytopes": polytopes, "stability": stability, "horn": horn,
                "puzzles": puzzles, "characters": characters, "localization": localization}
        for name in LAYERS:
            mod, _, attr = name.partition(".")
            if "." in attr:  # a method: wrap it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(home[mod], cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(home[mod], attr)
            wrapped = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def metrics(self) -> dict:
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = {"value": self.calls[name], "unit": "count"}
            out[f"{name}.self_ms"] = {"value": self.self_s[name] * 1e3, "unit": "ms"}
            for key, v in self.counts[name].items():
                out[f"{name}.{key}"] = {"value": v, "unit": "count"}
        for key in CLI_METRICS:
            values = [s[key] for s in self.cli_samples]
            out[f"cli.{key}"] = {"value": statistics.median(values) if values else 0.0,
                                 "unit": "ms"}
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines, written once at the end of the run."""
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "layer": name,
                                     "start": t0, "end": t1}) + "\n")


def importtime_ms(stderr: str) -> dict:
    """Cumulative import times of gitkit and numpy from `python -X importtime`."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, module = line[len("import time:"):].split("|")
        name = module.strip()
        if name in ("gitkit", "numpy"):
            try:
                out[name] = int(cumulative) / 1e3
            except ValueError:
                continue
    return out

