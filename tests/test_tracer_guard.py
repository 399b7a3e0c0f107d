"""The benchmark's tracer against the pipeline it wraps.

`perfbench/tracing.py` wraps khtangle's functions by module and name,
and counts generators and arrows through `len(m.gens)` and
`len(m.arrows)`.  Its own self-tests live under `perfbench/`, outside
this suite, so this test runs the traced path: a renamed function, or a
structure whose counts no longer read as sizes, fails here.
"""

import importlib
import importlib.util
from pathlib import Path

from khtangle import algebra, tangles

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_pipeline_and_restores_it():
    tracing = load_tracing()
    word = tangles.parse_tangle("x1 x1")
    delooped = tangles.deloop_translate(tangles.build_cube(word))
    wrapped = [(importlib.import_module(f"khtangle.{mod}"), fn)
               for mod, fn, *_ in tracing.SPANS + tracing.COUNTED]

    def current():
        return [getattr(owner, fn) for owner, fn in wrapped] + \
            [algebra.BElem.__mul__]

    originals = current()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert all(new is not old for new, old in zip(current(), originals))
        assert tangles.compare(word)[0] == tangles.EQUIVALENT
        tangles.deloop_translate(tangles.build_cube(word))
    finally:
        restore()
    assert all(now is old for now, old in zip(current(), originals))

    counts = tracer.counts
    for name in ("dstruct.reduce.gens_in", "dstruct.box_ad.arrows_out",
                 "dstruct.iso_check.gens_in", "tangles.deloop.gens_out",
                 "algebra.BElem.mul.calls"):
        assert counts[name] > 0, name
    assert counts["tangles.deloop.gens_out"] == len(delooped.gens)
    assert counts["tangles.deloop.arrows_out"] == len(delooped.arrows)
    calls = {name: c for name, (c, *_) in
             tracing.aggregate(tracer.spans).items()}
    assert calls["tangles.deloop_translate"] == 1
    assert calls["dstruct.iso_check"] == 1
