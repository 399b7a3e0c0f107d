#!/usr/bin/env python3
"""The khtangle benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing.  Each
workload is a closed loop with one client: the next input starts only
after the previous verdict.  Whole passes run while the run's seconds
last, each pass in a fresh interpreter, so that one pass's peak memory
is not inherited by the next; set-up time is the median over several
fresh interpreters.  Times are scaled to a reference speed of the host,
measured in the same processes (see `workloads.REF_S`), because the
host's own speed drifts by more than the bounds allow.

With `--trace 0` the last line of standard output is one JSON object
holding every end-to-end metric that BENCHMARK.json lists.  With
`--trace 1` the workload runs once untraced and once traced, and the
object holds every per-layer metric, including the tracing overhead
(traced minus untraced) of each end-to-end metric.  The lines before it
name every figure with its unit and list each failure with its reason
and, for a tangle, the word.  `--workload all` runs every workload in
turn and ends with one object keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

sys.path.insert(0, str(SRC))
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 15
# Every child is killed, and the run fails, once this much time has gone
# by since the run started, so that a run always ends within 180 s.
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    pass


def child(args, job, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    timeout = deadline - time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), *args], cwd=ROOT,
            env=env, input=json.dumps(job), capture_output=True, text=True,
            timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(args)}: still running at the run's "
                         f"{RUN_LIMIT_S} s limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{' '.join(args)}: exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure_setup(trace, deadline):
    """Median fresh-process set-up figures, each scaled to the reference
    speed measured in its own process; one discarded warm-up first, so
    that every sample reads compiled bytecode."""
    args = ["setup"] + (["--trace"] if trace else [])
    child(args, None, deadline)
    samples = [child(args, None, deadline) for _ in range(SETUP_SAMPLES)]
    return {key: statistics.median(workloads.REF_S * s[key] / s["ref_s"]
                                   for s in samples)
            for key in samples[0] if key != "ref_s"}


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def summarize(workload, passes):
    """End-to-end figures of one run, plus the workload's own details.

    Op times are scaled to the reference speed (see workloads.REF_S); the
    details give the unscaled figures and the host's speed beside them.
    """
    samples = [s for p in passes for s in p["samples"]]
    scaled = [dt * workloads.REF_S / ref for _, dt, _, ref in samples]
    raw = [dt for _, dt, _, _ in samples]
    pass_s = [sum(dt * workloads.REF_S / ref for _, dt, _, ref in p["samples"])
              for p in passes]
    metrics = {
        "verdicts_per_s": statistics.median(
            len(p["samples"]) / t for p, t in zip(passes, pass_s)),
        "verdict_p50_ms": 1000 * statistics.median(scaled),
        "verdict_p90_ms": 1000 * _p90(scaled),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    failures = [{"what": what, "reason": f[0], "detail": f[1]}
                for what, _, f, _ in samples if f is not None]
    details = {"samples": len(samples), "passes": len(passes),
               "pass_s": statistics.median(pass_s),
               "fail_ratio": len(failures) / len(samples),
               "max_peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
               "unscaled_p50_ms": 1000 * statistics.median(raw),
               "unscaled_p90_ms": 1000 * _p90(raw),
               "host_speed": statistics.median(
                   workloads.REF_S / ref for _, _, _, ref in samples)}
    if workload == "twist-ladder":
        rung = {}
        for (what, *_), t in zip(samples, scaled):
            rung.setdefault(what, []).append(t)
        med = [statistics.median(rung[w]) for w in workloads.ladder_words(0)]
        details.update(ladder_top_s=med[-1], ladder_total_s=sum(med),
                       growth_factor=med[-1] / med[-2])
    elif workload == "verifiers":
        details["verify_s"] = details["pass_s"]
    return metrics, details, failures


def run_once(workload, seed, seconds, trace, deadline):
    """One closed-loop run: whole passes while `seconds` last."""
    setup = measure_setup(trace, deadline)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    if trace:
        OUT.mkdir(exist_ok=True)
        spans.write_text("")
    args = ["pass"] + (["--trace"] if trace else [])
    passes, ops = [], 0
    start = time.monotonic()
    for items in workloads.pass_items(workload, seed):
        if passes and time.monotonic() - start >= seconds:
            break
        job = {"workload": workload, "items": items, "first_op": ops,
               "spans": str(spans)}
        passes.append(child(args, job, deadline))
        ops += len(items)
    metrics, details, failures = summarize(workload, passes)
    metrics["setup_s"] = setup["setup_s"]
    out = {"attempted": ops, "failed": len(failures),
           "correct": not any(f["reason"] == "wrong answer"
                              for f in failures),
           "metrics": metrics, "details": details, "failures": failures}
    if trace:
        agg, counts = {}, {}
        for p in passes:
            tracing.merge(agg, p["spans"])
            tracing.merge(counts, p["counts"])
        layers = tracing.layer_metrics(agg, counts, ops)
        layers["cli.import_s"] = setup["import_s"]
        layers["acat.load_tables.s"] = setup["load_tables_s"]
        out["layers"] = layers
    return out


def _figure(name, value, unit=""):
    return f"  {name:<40} {value:14.6g} {unit}"


def benchmark(spec, workload, seed, seconds, trace):
    """The result object the last line prints, and the lines before it."""
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = run_once(workload, seed, seconds, False, deadline)
    lines = [f"{workload} seed {seed}: {plain['attempted']} attempted, "
             f"{plain['failed']} failed"]
    lines += [_figure(m["name"], plain["metrics"][m["name"]], m["unit"])
              for m in spec["end_to_end"]]
    lines += [_figure(k, v) for k, v in plain["details"].items()]
    runs, result = [plain], plain
    metrics = {m["name"]: {"value": plain["metrics"][m["name"]],
                           "unit": m["unit"]} for m in spec["end_to_end"]}
    if trace:
        traced = run_once(workload, seed, seconds, True, deadline)
        layers = traced["layers"]
        for m in spec["end_to_end"]:
            layers[f"trace.overhead.{m['name']}"] = (
                traced["metrics"][m["name"]] - plain["metrics"][m["name"]])
        lines.append(f"{workload} traced: {traced['attempted']} attempted, "
                     f"{traced['failed']} failed")
        lines += [_figure(m["name"], layers[m["name"]], m["unit"])
                  for m in spec["per_layer"]]
        runs, result = [plain, traced], traced
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    lines += [f"  FAILED [{f['reason']}] {f['what'] or '(empty word)'}: "
              f"{f['detail']}" for run in runs for f in run["failures"]]
    return {"correct": all(run["correct"] for run in runs),
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}, lines


def main(argv=None):
    p = argparse.ArgumentParser(description="The khtangle benchmark.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (SRC / "khtangle" / "__init__.py").is_file():
        sys.stderr.write(f"error: no khtangle sources under {SRC}\n")
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        p.error(f"unknown workload {args.workload!r}; one of {names} or all")
    todo = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in todo:
            results[workload], lines = benchmark(
                spec, workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
    except BenchError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    print(json.dumps(results if args.workload == "all"
                     else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
