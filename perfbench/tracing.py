"""Layer spans and counters for the traced benchmark run.

`install` replaces the public functions of khtangle's modules with
wrappers that open a span around each call and, where a layer's work
has a natural size, count it.  The program itself is unchanged: the
wrappers live here and are removed again by the function `install`
returns.  Calls made through a module attribute or a module global are
seen; a name bound by `from module import name` elsewhere is not.

Spans are kept in memory as [name, start, end, parent index, op id] and
written out once, at the end of the run.  Self time is a span's
duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = None

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.clock(), None, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = self.clock()
        while self.stack and self.stack.pop() != idx:
            pass

    def begin_op(self, op_id):
        """Open the root span of one benchmark operation.

        The stack is cleared first, so a span an interrupt left open in
        an earlier operation cannot become this one's parent.
        """
        self.op = op_id
        self.stack.clear()
        return self.open("op")

    def write(self, path):
        """Append the spans to `path`, one JSON object a line."""
        with open(path, "a") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")


def aggregate(spans):
    """{name: (calls, inclusive seconds, self seconds)} over closed spans."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if end is not None and parent is not None:
            child_s[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        if end is None:
            continue
        calls, incl, self_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, incl + end - start,
                     self_s + end - start - child_s[i])
    return out


# --- what is wrapped --------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _sequences_upto(max_len):
    from khtangle import acat
    return sum(len(acat.composable_sequences(n)) for n in range(3, max_len + 1))


def _count_cube(c, args, kwargs, cube):
    c["tangles.cube.resolutions"] += len(cube.resolutions)


def _count_deloop(c, args, kwargs, m):
    c["tangles.deloop.gens_out"] += len(m.gens)
    c["tangles.deloop.arrows_out"] += len(m.arrows)


def _count_reduce(c, args, kwargs, m):
    c["dstruct.reduce.gens_in"] += len(args[0].gens)
    c["dstruct.reduce.gens_out"] += len(m.gens)


def _count_iso(c, args, kwargs, witness):
    from khtangle import dstruct
    c["dstruct.iso_check.gens_in"] += len(args[0].gens)
    if witness != dstruct.NOT_FOUND:
        c["dstruct.iso_check.witnesses"] += 1
        c["dstruct.iso_check.chain"] += isinstance(witness, dict) and \
            "shift" in witness


def _count_box(c, args, kwargs, m):
    c["dstruct.box_ad.arrows_out"] += len(m.arrows)


def _count_ainfty(c, args, kwargs, bad):
    max_len = args[1] if len(args) > 1 else kwargs.get("max_len", 5)
    c["acat.verify_ainfty.sequences"] += _sequences_upto(max_len)


def _count_functor(c, args, kwargs, result):
    c["functor.verify_functor.sequences"] += result[1]


# (module, function, count hook or None): a span around every call
SPANS = (
    ("tangles", "build_cube", _count_cube),
    ("tangles", "deloop_translate", _count_deloop),
    ("tangles", "tangle_complex", None),
    ("dstruct", "check_d_squared", None),
    ("dstruct", "reduce", _count_reduce),
    ("dstruct", "iso_check", _count_iso),
    ("dstruct", "cone_h", None),
    ("dstruct", "box_ad", _count_box),
    ("bimod", "bimodule_Y", None),
    ("bimod", "verify_lemma_main", None),
    ("f2", "nullspace", None),
    ("f2", "rank", None),
    ("acat", "load_tables", None),
    ("acat", "verify_ainfty", _count_ainfty),
    ("acat", "verify_subalgebra", None),
    ("functor", "verify_functor", _count_functor),
    ("functor", "verify_quasi_iso", None),
    ("cones", "homology_dims", None),
)

# (module, function): a call counter only, for functions called too
# often for a span each
COUNTED = (
    ("algebra", "q_map"),
    ("cones", "compose_C"),
)

# count -> the span whose calls it is averaged over
PER_CALL = {
    "tangles.cube.resolutions": "tangles.build_cube",
    "tangles.deloop.gens_out": "tangles.deloop_translate",
    "tangles.deloop.arrows_out": "tangles.deloop_translate",
    "dstruct.reduce.gens_in": "dstruct.reduce",
    "dstruct.reduce.gens_out": "dstruct.reduce",
    "dstruct.iso_check.gens_in": "dstruct.iso_check",
    "dstruct.box_ad.arrows_out": "dstruct.box_ad",
    "acat.verify_ainfty.sequences": "acat.verify_ainfty",
    "functor.verify_functor.sequences": "functor.verify_functor",
}


def _span_wrapper(tracer, name, fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer.counts, args, kwargs, result)
        return result
    return wrapper


def _count_wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def install(tracer):
    """Wrap the layer functions; returns a function that restores them."""
    import importlib
    from khtangle.algebra import BElem

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def module(name):
        return importlib.import_module(f"khtangle.{name}")

    for mod, fn, count in SPANS:
        owner = module(mod)
        patch(owner, fn, _span_wrapper(tracer, f"{mod}.{fn}",
                                       getattr(owner, fn), count))
    for mod, fn in COUNTED:
        owner = module(mod)
        patch(owner, fn, _count_wrapper(tracer, f"{mod}.{fn}.calls",
                                        getattr(owner, fn)))
    patch(BElem, "__mul__",
          _count_wrapper(tracer, "algebra.BElem.mul.calls", BElem.__mul__))

    def restore():
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
    return restore


def merge(total, part):
    """Add one pass's aggregate (or counts) into a running total."""
    for name, value in part.items():
        if isinstance(value, (int, float)):
            total[name] = total.get(name, 0) + value
        else:
            old = total.get(name, (0,) * len(value))
            total[name] = tuple(a + b for a, b in zip(old, value))
    return total


def layer_metrics(agg, counts, verdicts):
    """Per-layer figures of a traced run, from its span aggregate and
    counts.

    `<span>.s`, `<span>.self_s` and `<span>.calls` are per verdict
    (totals over the run divided by the operations attempted), so runs
    of different length compare.  A count in PER_CALL is averaged over
    calls of its span.  `trace.coverage` is the share of the time spent
    in operations that the layer spans' self times account for.
    """
    out = {}
    layer_self = 0.0
    for mod, fn, _ in SPANS:
        name = f"{mod}.{fn}"
        calls, incl, self_s = agg.get(name, (0, 0.0, 0.0))
        out[f"{name}.s"] = incl / verdicts
        out[f"{name}.self_s"] = self_s / verdicts
        out[f"{name}.calls"] = calls / verdicts
        layer_self += self_s
    c = Counter(counts)
    for name, span in PER_CALL.items():
        calls = agg.get(span, (0,))[0]
        out[name] = c[name] / calls if calls else 0.0
    for name in ("algebra.q_map.calls", "cones.compose_C.calls",
                 "algebra.BElem.mul.calls"):
        out[name] = c[name] / verdicts
    gens_in = c["dstruct.reduce.gens_in"]
    out["dstruct.reduce.cancel_ratio"] = (
        (gens_in - c["dstruct.reduce.gens_out"]) / gens_in if gens_in else 0.0)
    witnesses = c["dstruct.iso_check.witnesses"]
    out["dstruct.iso_check.chain_ratio"] = (
        c["dstruct.iso_check.chain"] / witnesses if witnesses else 0.0)
    op_s = agg.get("op", (0, 0.0, 0.0))[1]
    out["trace.coverage"] = layer_self / op_s if op_s else 0.0
    return out
