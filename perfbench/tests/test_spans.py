"""Self-time arithmetic and lane checks on a synthetic span tree."""

import json
from pathlib import Path

import pytest

from perfbench import spans


def span(id, parent, name, start, end, leaf_s=0.0, tag=None, run=0):
    return [id, parent, run, name, tag, start, end, leaf_s]


def test_self_time_subtracts_children_and_leaves():
    tree = [
        span(0, -1, "bench.job", 0.0, 10.0),
        span(1, 0, "tl.identity_suite", 1.0, 9.0, tag="k4"),
        span(2, 1, "tl.compose", 2.0, 5.0, leaf_s=1.5),
        span(3, 2, "tl.tensor", 2.5, 3.0),
        span(4, 1, "tl.compose", 6.0, 8.0, leaf_s=0.25),
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 3.0, 1.0, 0.5, 1.75])


def test_overlapping_children_are_counted_once_and_clipped():
    tree = [
        span(0, -1, "a", 0.0, 10.0),
        span(1, 0, "b", 1.0, 4.0),
        span(2, 0, "c", 3.0, 6.0),
        span(3, 0, "d", 9.0, 12.0),
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_stats_and_yield():
    tree = [
        span(0, -1, "bench.job", 0.0, 10.0),
        span(1, 0, "tl.identity_suite", 1.0, 9.0, tag="k4"),
        span(2, 1, "tl.compose", 2.0, 5.0, leaf_s=1.5),
        span(3, 1, "tl.compose", 6.0, 8.0),
    ]
    leaves = {"cyclo.mul": [10, 1.0], "tl.diagram": [7, 0.5]}
    counters = {"tl.compose.pairs": 40, "tl.compose.terms_out": 10}
    stats = spans.layer_stats(tree, leaves, counters)
    assert stats["tl.compose.calls"] == 2
    assert stats["tl.compose.self_s"] == pytest.approx(1.5 + 2.0)
    assert stats["tl.identity_suite.k4.s"] == pytest.approx(8.0)
    assert stats["tl.identity_suite.self_s"] == pytest.approx(3.0)
    assert stats["cyclo.mul.calls"] == 10 and stats["cyclo.mul.self_s"] == 1.0
    assert stats["tl.diagram.created"] == 7
    assert stats["tl.compose.yield"] == pytest.approx(0.25)


def test_lanes():
    tl_stats = {"tl.compose.calls": 3, "modules.derive_module_fusion.calls": 1}
    assert spans.lane_violations("derive", tl_stats) == ["tl.compose.calls = 3 on derive"]
    assert spans.lane_violations("tl-scalar", tl_stats) == [
        "modules.derive_module_fusion spans on tl-scalar"
    ]
    assert spans.lane_violations("queries", {"fusion.fuse.calls": 5, "cyclo.mul.calls": 0}) == []


def test_tracer_round_trip(tmp_path):
    tracer = spans.Tracer()
    outer = tracer.span_wrapper("m.outer", lambda f: f() + 1, tagger=lambda f: "t")
    leaf = tracer.leaf_wrapper("cyclo.mul", lambda: 41)
    assert tracer.job(0, outer, leaf) == 42
    path = tmp_path / "spans.jsonl"
    tracer.dump(path)
    records, leaves, counters = spans.read(path)
    assert [r[spans.NAME] for r in records] == ["bench.job", "m.outer"]
    assert records[1][spans.PARENT] == 0 and records[1][spans.TAG] == "t"
    assert leaves["cyclo.mul"][0] == 1
    assert records[1][spans.LEAF_S] == pytest.approx(leaves["cyclo.mul"][1])


def test_benchmark_json_lists_the_printed_metrics():
    from perfbench import run

    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
