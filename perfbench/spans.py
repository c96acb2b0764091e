"""Spans around tracecat's public functions, and the per-layer metrics they give.

`install` wraps every public module-level function of the measured modules,
plus the `Cyc` operators, `PlanarDiagram` construction and
`ModuleTensorData.mfuse`, in every tracecat namespace that binds it, so
that calls between modules are seen too.  A call to a wrapped function
opens a span: name, start, end, parent and run id (the benchmark job).
The hot leaves (`Cyc` arithmetic, diagram construction, hundreds of
thousands of calls per job) do not get a span each: their calls and time
are summed per name and charged to the enclosing span, which is what its
self time needs.  A leaf must not call another wrapped function.

Spans stay in memory and are written as JSON lines by `Tracer.dump`;
`layer_stats` turns such a file into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("cyclo", "tl", "fusion", "modules", "trace", "algebra", "packages", "cli")

# span record fields
ID, PARENT, RUN, NAME, TAG, START, END, LEAF_S = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self.run = -1

    def _open(self, name: str, tag) -> list:
        parent = self.stack[-1][ID] if self.stack else -1
        rec = [len(self.spans), parent, self.run, name, tag, 0.0, 0.0, 0.0]
        self.spans.append(rec)
        self.stack.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self.stack.pop()

    def job(self, run: int, fn, *args):
        """Run one benchmark job under a root span `bench.job`."""
        self.run = run
        rec = self._open("bench.job", None)
        try:
            return fn(*args)
        finally:
            self._close(rec)

    def span_wrapper(self, name: str, fn, tagger=None, counter=None):
        def traced(*args, **kwargs):
            rec = self._open(name, tagger(*args, **kwargs) if tagger else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter:
                counter(self.counters, result, *args)
            return result

        return traced

    def leaf_wrapper(self, name: str, fn):
        stats = self.leaves[name]
        stack = self.stack

        def traced(*args, **kwargs):
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t
                stats[0] += 1
                stats[1] += d
                if stack:
                    stack[-1][LEAF_S] += d

        return traced

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(
                json.dumps({"leaves": dict(self.leaves), "counters": dict(self.counters)})
                + "\n"
            )


# -- installing the wrappers -------------------------------------------------------


def _suite_tag(k, *args, **kwargs):
    return f"k{k}"


def _derive_tag(action, *args, **kwargs):
    return action.name.split("_")[0]


def _compose_counts(counters, result, f, g):
    counters["tl.compose.pairs"] += len(f.terms) * len(g.terms)
    counters["tl.compose.terms_out"] += len(result.terms)


TAGGERS = {"tl.identity_suite": _suite_tag, "modules.derive_module_fusion": _derive_tag}
COUNTERS = {"tl.compose": _compose_counts}


def _public_functions(module) -> dict[str, object]:
    out = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        # plain functions and functools.lru_cache wrappers around them
        if inspect.isfunction(obj) or hasattr(obj, "cache_clear"):
            out[attr] = obj
    return out


def install(tracer: Tracer) -> None:
    replacements: dict[int, object] = {}
    for short in MODULES:
        module = importlib.import_module(f"tracecat.{short}")
        for attr, fn in _public_functions(module).items():
            name = f"{short}.{attr}"
            replacements[id(fn)] = tracer.span_wrapper(
                name, fn, TAGGERS.get(name), COUNTERS.get(name)
            )
    for mod_name in [m for m in sys.modules if m == "tracecat" or m.startswith("tracecat.")]:
        module = sys.modules[mod_name]
        for attr, obj in list(vars(module).items()):
            if id(obj) in replacements:
                setattr(module, attr, replacements[id(obj)])

    from tracecat.cyclo import Cyc
    from tracecat.modules import ModuleTensorData
    from tracecat.tl import PlanarDiagram

    Cyc.__mul__ = tracer.leaf_wrapper("cyclo.mul", Cyc.__mul__)
    Cyc.__add__ = tracer.leaf_wrapper("cyclo.add", Cyc.__add__)
    Cyc.inverse = tracer.leaf_wrapper("cyclo.inverse", Cyc.inverse)
    PlanarDiagram.__post_init__ = tracer.leaf_wrapper(
        "tl.diagram", PlanarDiagram.__post_init__
    )
    ModuleTensorData.mfuse = tracer.span_wrapper("modules.mfuse", ModuleTensorData.mfuse)


# -- reading a span file -----------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans
    and minus the time of the leaf calls made directly inside it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for rec in spans:
        covered, reach = 0.0, rec[START]
        for start, end in sorted(children.get(rec[ID], ())):
            start, end = max(start, reach), min(end, rec[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(rec[END] - rec[START] - covered - rec[LEAF_S])
    return out


def read(path: Path) -> tuple[list[list], dict, dict]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    tail = json.loads(lines[-1])
    return [json.loads(line) for line in lines[:-1]], tail["leaves"], tail["counters"]


# name, unit, better: higher or lower
PER_LAYER = [
    *[(f"cyclo.{op}.{stat}", unit, "lower")
      for op in ("mul", "add", "inverse") for stat, unit in (("calls", "count"), ("self_s", "s"))],
    ("tl.compose.calls", "count", "lower"),
    ("tl.compose.self_s", "s", "lower"),
    ("tl.compose.pairs", "count", "lower"),
    ("tl.compose.terms_out", "count", "lower"),
    ("tl.compose.yield", "ratio", "higher"),
    ("tl.tensor.calls", "count", "lower"),
    ("tl.tensor.self_s", "s", "lower"),
    ("tl.diagram.created", "count", "lower"),
    *[(f"tl.{fn}.self_s", "s", "lower")
      for fn in ("jones_wenzl", "jw_by_annihilation", "braid_blocks",
                 "traciator_self_action", "twist_morphism", "pivotal_trace")],
    *[(f"tl.identity_suite.k{k}.s", "s", "lower") for k in (2, 4, 10, 16, 28)],
    *[(f"modules.derive_module_fusion.{g}.s", "s", "lower") for g in ("d8", "d10", "d12")],
    *[(f"modules.{fn}.self_s", "s", "lower")
      for fn in ("action_automorphisms", "validate_action", "validate_tensor_data")],
    ("modules.mfuse.calls", "count", "lower"),
    ("modules.mfuse.self_s", "s", "lower"),
    ("fusion.validate_ring.calls", "count", "lower"),
    ("fusion.validate_ring.self_s", "s", "lower"),
    ("fusion.fuse.calls", "count", "lower"),
    ("fusion.fuse.self_s", "s", "lower"),
    ("fusion.fp_dimensions.self_s", "s", "lower"),
    ("fusion.verlinde_su2.calls", "count", "lower"),
    ("fusion.verlinde_su2.self_s", "s", "lower"),
    ("trace.trace_matrix.calls", "count", "lower"),
    *[(f"trace.{fn}.{stat}", unit, "lower")
      for fn in ("trace_object", "trace_of_word", "internal_end")
      for stat, unit in (("calls", "count"), ("self_s", "s"))],
    *[(f"trace.check_{c}.self_s", "s", "lower")
      for c in ("adjunction", "splitting_iso", "traciator_iso", "forgetful")],
    ("algebra.enumerate_internal_ends.calls", "count", "lower"),
    ("algebra.enumerate_internal_ends.self_s", "s", "lower"),
    ("algebra.identify_algebra.self_s", "s", "lower"),
    ("packages.load_builtin.calls", "count", "lower"),
    ("packages.load_builtin.self_s", "s", "lower"),
    ("packages.parse_package.self_s", "s", "lower"),
    ("packages.package_text.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("tracing.overhead_s", "s", "lower"),
]


def layer_stats(spans: list[list], leaves: dict, counters: dict) -> dict[str, float]:
    """calls and self_s per span name, inclusive `.s` per tagged span, the
    leaf totals and the extra counters, as one flat dict."""
    stats: dict[str, float] = defaultdict(float)
    for rec, own in zip(spans, self_times(spans)):
        stats[f"{rec[NAME]}.calls"] += 1
        stats[f"{rec[NAME]}.self_s"] += own
        if rec[TAG] is not None:
            stats[f"{rec[NAME]}.{rec[TAG]}.s"] += rec[END] - rec[START]
    for name, (calls, seconds) in leaves.items():
        stats[f"{name}.calls"] += calls
        stats[f"{name}.self_s"] += seconds
    stats.update(counters)
    stats["tl.diagram.created"] = stats.get("tl.diagram.calls", 0)
    pairs = stats.get("tl.compose.pairs", 0)
    stats["tl.compose.yield"] = stats.get("tl.compose.terms_out", 0) / pairs if pairs else 0.0
    return stats


def lane_violations(workload: str, stats: dict[str, float]) -> list[str]:
    """A workload that should bypass a layer must really bypass it."""
    out = []
    if workload in ("derive", "queries"):
        out += [
            f"{name} = {int(v)} on {workload}"
            for name, v in sorted(stats.items())
            if name.endswith(".calls") and name.split(".")[0] in ("cyclo", "tl") and v
        ]
    if workload.startswith("tl-") and stats.get("modules.derive_module_fusion.calls"):
        out.append(f"modules.derive_module_fusion spans on {workload}")
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {
        name: statistics.median(d.get(name, 0.0) for d in per_pass)
        for name, _, _ in PER_LAYER
        if name != "tracing.overhead_s"
    }
