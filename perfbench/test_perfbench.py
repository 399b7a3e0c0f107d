"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import itertools
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def test_same_seed_same_words():
    def first(seed):
        return list(itertools.islice(workloads.small_words(seed), 300))
    assert first(5) == first(5)
    assert first(5) != first(6)
    assert workloads.ladder_words(1) == workloads.ladder_words(2) == [
        " ".join(["x1"] * n) for n in (5, 6, 7, 8, 9)]


def _boom():
    raise ValueError("stub failure")


def test_each_failure_kind_counts_once():
    ok = workloads._expect("EQUIVALENT")
    ops = [Op("fine", lambda: "EQUIVALENT", ok),
           Op("slow", lambda: time.sleep(5), ok, limit_s=0.05),
           Op("boom", _boom, ok),
           Op("wrong", lambda: "MISMATCH", ok)]
    t0 = time.perf_counter()
    samples = workloads.run_ops(ops)
    assert time.perf_counter() - t0 < 2
    _, details, failures = run.summarize(
        "stub", [{"samples": samples, "peak_rss_mb": 1.0}])
    assert len(samples) == 4
    assert [(f["what"], f["reason"]) for f in failures] == [
        ("slow", "time limit"), ("boom", "exception"),
        ("wrong", "wrong answer")]
    assert details["fail_ratio"] == 3 / 4


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 6.0, 7.0, 9.0, 10.0])
    t = tracing.Tracer(clock=lambda: next(ticks))
    root = t.begin_op(0)          # [0, 10]
    a = t.open("a")               # [1, 6]
    b = t.open("b")               # [2, 4]
    t.close(b)
    t.close(a)
    c = t.open("c")               # [7, 9]
    t.close(c)
    t.close(root)
    agg = tracing.aggregate(t.spans)
    assert agg["op"] == (1, 10.0, 3.0)
    assert agg["a"] == (1, 5.0, 3.0)
    assert agg["b"] == (1, 2.0, 2.0)
    assert agg["c"] == (1, 2.0, 2.0)
    assert [s[3] for s in t.spans] == [None, 0, 1, 0]


def test_wrappers_see_the_pipeline_and_are_removed():
    from khtangle import algebra, dstruct, tangles
    originals = (tangles.tangle_complex, dstruct.reduce, algebra.BElem.__mul__)
    t = tracing.Tracer()
    restore = tracing.install(t)
    try:
        t.begin_op(0)
        assert tangles.compare(tangles.parse_tangle("x1 x1"))[0] == \
            tangles.EQUIVALENT
    finally:
        restore()
    assert (tangles.tangle_complex, dstruct.reduce,
            algebra.BElem.__mul__) == originals
    m = tracing.layer_metrics(tracing.aggregate(t.spans), t.counts, 1)
    assert m["tangles.tangle_complex.calls"] == 2
    assert m["tangles.cube.resolutions"] == 4
    assert m["dstruct.iso_check.calls"] == 1
    assert m["algebra.BElem.mul.calls"] > 0


def test_benchmark_json_names_only_computed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    samples = [("w", 0.1, None, 0.015), ("w", 0.2, None, 0.015)]
    e2e, _, _ = run.summarize("stub", [{"samples": samples,
                                        "peak_rss_mb": 1.0}])
    e2e["setup_s"] = 0.0
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e)
    layers = set(tracing.layer_metrics({}, {}, 1))
    layers |= {"cli.import_s", "acat.load_tables.s"}
    layers |= {f"trace.overhead.{name}" for name in e2e}
    assert {m["name"] for m in spec["per_layer"]} <= layers


def test_op_times_scale_to_the_reference_speed():
    slow_host = [("w", 0.2, None, 2 * workloads.REF_S)] * 3
    e2e, details, _ = run.summarize("stub", [{"samples": slow_host,
                                              "peak_rss_mb": 1.0}])
    assert abs(e2e["verdict_p50_ms"] - 100.0) < 1e-9
    assert abs(details["unscaled_p50_ms"] - 200.0) < 1e-9
    assert details["host_speed"] == 0.5
