"""The benchmark's inputs and the child processes that run them.

    python3 perfbench/workloads.py setup [--trace]
    python3 perfbench/workloads.py pass [--trace] < pass.json

`setup` times one fresh-process set-up: importing `khtangle.cli` and
building the shared constant objects.  `pass` runs one pass of a
workload, given as {"workload", "items", "first_op", "spans"} on
standard input, in order and one at a time, checks every output against
its known answer and reports per-op times, failures and the process's
peak RSS; with `--trace` it also installs the layer wrappers of
`tracing.py`, appends its spans to the file named by "spans" and reports
the layer totals.  Each prints one JSON object as its only line of
standard output.  `run.py` starts them, each in a fresh interpreter,
with `src/` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import sys
import time
from dataclasses import dataclass
from typing import Callable

import tracing

# The per-tangle budget that tests/test_acceptance.py enforces.
WORD_LIMIT_S = 30.0
# Five rungs, so that the median verdict is the middle rung's time.
LADDER = (5, 6, 7, 8, 9)
SMALL_MAX_CROSSINGS = 2
SMALL_BATCH = 200
# The acceptance test's largest budget, the functor verifier's.
VERIFY_LIMIT_S = 60.0
# A shared host can change speed by 1.7x over minutes for any pure-Python
# work alike (seen on a 2-vCPU Xeon VM).  Each pass therefore times a
# fixed reference computation at least every REF_EVERY_S of work, and
# every op time is scaled by REF_S / (the references around it): REF_S
# is the reference's typical time on that VM, so scaled times read as
# seconds there.
REF_S = 0.015
REF_EVERY_S = 0.5
FUNCTOR_SEQUENCES = 111_972


# --- inputs ----------------------------------------------------------------

def ladder_words(seed):
    """x1^n for each rung; the seed does not change this workload."""
    return [" ".join(["x1"] * n) for n in LADDER]


def small_words(seed):
    """The endless stream of random words of at most two crossings."""
    from khtangle import tangles
    rng = random.Random(seed)
    while True:
        yield str(tangles.random_word(rng, max_crossings=SMALL_MAX_CROSSINGS))


def pass_items(workload, seed):
    """The workload's endless sequence of passes, each a list of items.

    A run executes whole passes only, so every rung or verifier is
    sampled equally often; a small-words pass is the next batch of
    words from the stream, and a verifiers pass is one run of all four
    verifiers.
    """
    if workload == "twist-ladder":
        while True:
            yield ladder_words(seed)
    elif workload == "small-words":
        stream = small_words(seed)
        while True:
            yield [next(stream) for _ in range(SMALL_BATCH)]
    elif workload == "verifiers":
        while True:
            yield ["verifiers"]
    else:
        raise ValueError(f"unknown workload {workload!r}")


# --- operations with known answers -----------------------------------------

class TimeLimit(Exception):
    """Raised from SIGALRM when an operation overruns its time limit."""


def _on_alarm(signum, frame):
    raise TimeLimit()


@dataclass
class Op:
    """One operation with a known answer.

    `run` computes the answer; `check` returns None when it is the known
    one and otherwise a description of what came out instead.
    """
    what: str
    run: Callable
    check: Callable
    limit_s: float = WORD_LIMIT_S


def _expect(answer):
    return lambda got: None if got == answer else f"got {got}"


def _compare_op(text):
    from khtangle import tangles

    def run():
        return tangles.compare(tangles.parse_tangle(text))[0]
    return Op(text, run, _expect(tangles.EQUIVALENT))


def _check_functor(result):
    bad, checked = result
    if bad or checked != FUNCTOR_SEQUENCES:
        return f"{len(bad)} violations over {checked} sequences"
    return None


def _check_homology(rep):
    dims = {k: {w: n for w, n in v.items() if n}
            for k, v in rep["dims"].items()}
    expected = {(s, d): ({0: 2, 2: 2} if s == d else {1: 2})
                for s in (0, 1) for d in (0, 1)}
    if not rep["pass"] or dims != expected:
        return f"dims {dims}, failures {rep['failures']}"
    return None


def _check_lemma(rep):
    failed = [k for k, ok in rep["checks"].items() if not ok]
    return None if rep["pass"] else f"failed checks {failed}"


def _verifiers_op():
    """The four verifiers as one operation, as `khtangle verify` runs
    them, checked against every known answer."""
    from khtangle import acat, bimod, functor
    tables = acat.load_tables()

    def run():
        return {"acat": acat.verify_ainfty(tables, 5)
                + acat.verify_subalgebra(tables),
                "functor": functor.verify_functor(max_len=6),
                "homology": functor.verify_quasi_iso(10),
                "bimodules": bimod.verify_lemma_main(16, 8)}

    def check(out):
        wrong = [(name, msg) for name, msg in (
            ("acat", f"{len(out['acat'])} violations" if out["acat"] else None),
            ("functor", _check_functor(out["functor"])),
            ("homology", _check_homology(out["homology"])),
            ("bimodules", _check_lemma(out["bimodules"]))) if msg]
        return "; ".join(f"{name}: {msg}" for name, msg in wrong) or None
    return Op("verifiers", run, check, VERIFY_LIMIT_S)


def ops_for(workload, items):
    if workload == "verifiers":
        return [_verifiers_op() for _ in items]
    return [_compare_op(text) for text in items]


def run_op(op: Op, clock=time.perf_counter):
    """Run one operation under its time limit.

    Returns (seconds, failure) where failure is None or a pair
    (reason, detail) with reason one of "wrong answer", "exception" and
    "time limit".
    """
    t0 = clock()
    try:
        signal.setitimer(signal.ITIMER_REAL, op.limit_s)
        try:
            result = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except TimeLimit:
        failure = ("time limit", f"over {op.limit_s:g} s")
    except Exception as e:  # the failure is recorded and the loop goes on
        failure = ("exception", f"{type(e).__name__}: {e}")
    else:
        wrong = op.check(result)
        failure = None if wrong is None else ("wrong answer", wrong)
    return clock() - t0, failure


def reference(clock=time.perf_counter):
    """Time a fixed pure-Python computation that uses no khtangle code,
    with the dict, set and integer work the program is made of."""
    t0 = clock()
    d = {}
    for i in range(20000):
        d.setdefault((i * 7919) % 1000, set()).symmetric_difference_update(
            {i & 63})
    sum(len(frozenset(v)) for v in d.values())
    acc = 0
    for i in range(30000):
        acc += i * i
    return clock() - t0


def run_ops(ops, tracer=None, first_op=0, clock=time.perf_counter):
    """Run the ops in order, one at a time, timing the reference before
    the first, after the last and between ops at least every REF_EVERY_S.

    Returns [(what, seconds, failure, reference seconds)], where the
    reference time is the mean of the two references around the op.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    samples, pending = [], []
    ref = reference(clock)
    last_ref = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            span = tracer.begin_op(first_op + i)
        dt, failure = run_op(op, clock)
        if tracer is not None:
            tracer.close(span)
        pending.append((op.what, dt, failure))
        if clock() - last_ref >= REF_EVERY_S or i == len(ops) - 1:
            prev, ref = ref, reference(clock)
            last_ref = clock()
            samples += [(*p, (prev + ref) / 2) for p in pending]
            pending = []
    return samples


# --- child processes -------------------------------------------------------

def run_pass(job, trace):
    ops = ops_for(job["workload"], job["items"])
    tracer = tracing.Tracer() if trace else None
    restore = tracing.install(tracer) if trace else None
    try:
        samples = run_ops(ops, tracer, job["first_op"])
    finally:
        if restore is not None:
            restore()
    out = {"samples": samples,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        out["spans"] = tracing.aggregate(tracer.spans)
        out["counts"] = dict(tracer.counts)
        tracer.write(job["spans"])
    return out


def setup_once(trace):
    """One fresh-process set-up, as a user of the CLI pays it, with the
    reference timed before and after it in the same process."""
    before = reference()
    t0 = time.perf_counter()
    import khtangle.cli  # noqa: F401
    t1 = time.perf_counter()
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracing.install(tracer)
    from khtangle import acat, bimod, functor
    acat.load_tables()
    functor.default_tables()
    bimod.bimodule_Y()
    t2 = time.perf_counter()
    out = {"setup_s": t2 - t0, "import_s": t1 - t0,
           "ref_s": (before + reference()) / 2}
    if tracer is not None:
        out["load_tables_s"] = tracing.aggregate(tracer.spans).get(
            "acat.load_tables", (0, 0.0, 0.0))[1]
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "pass"))
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    if args.mode == "setup":
        out = setup_once(args.trace)
    else:
        out = run_pass(json.load(sys.stdin), args.trace)
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
