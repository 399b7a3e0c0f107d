"""End-to-end acceptance gate.

Each test prints exactly one pass/fail line for its criterion and
enforces the advertised runtime budget on this machine.
"""

import random
import time

from khtangle import acat, algebra, bimod, dstruct, functor, tangles
from khtangle.algebra import FLAVOR_BT


def _line(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"[criterion {num}] {label}: {status}{tail}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_1_algebra_relations_fast_with_mutation_suite():
    tables = acat.load_tables()
    t0 = time.perf_counter()
    bad = acat.verify_ainfty(tables, 5) + acat.verify_subalgebra(tables)
    elapsed = time.perf_counter() - t0
    killed = total = 0
    for key in tables:
        total += 1
        if acat.verify_ainfty({k: v for k, v in tables.items() if k != key},
                              5):
            killed += 1
    ok = not bad and elapsed < 1.0 and killed >= 0.9 * total
    _line(1, "algebra relations: 0 violations < 1s, >= 90% mutants killed",
          ok, f"{elapsed:.2f}s, {killed}/{total} mutants killed")


def test_criterion_2_functor_relations_to_length_six():
    t0 = time.perf_counter()
    violations, checked = functor.verify_functor(max_len=6)
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60.0
    _line(2, "functor relations to length 6: 0 violations < 60s", ok,
          f"{checked} sequences, {elapsed:.2f}s")


def test_criterion_3_homology_dimensions_and_basis():
    rep = functor.verify_quasi_iso(max_weight=10)
    dims_ok = True
    for (s, d), dims in rep["dims"].items():
        expected = {0: 2, 2: 2} if s == d else {1: 2}
        got = {w: n for w, n in dims.items() if n}
        dims_ok = dims_ok and got == expected
    ok = rep["pass"] and dims_ok
    totals = {f"{s}->{d}": sum(v.values()) for (s, d), v in rep["dims"].items()}
    _line(3, "homology dims 4/4 endo and 2/2 cross with image basis", ok,
          f"totals {totals}" + (f", failures {rep['failures']}"
                                if rep["failures"] else ""))


def test_criterion_4_bimodule_lemma():
    t0 = time.perf_counter()
    report = bimod.verify_lemma_main(16, 8)
    elapsed = time.perf_counter() - t0
    ok = report["pass"] and elapsed < 30.0
    failed = [k for k, v in report["checks"].items() if not v]
    _line(4, "bimodule chain-isomorphism checks pass < 30s", ok,
          f"{len(report['checks'])} checks, {elapsed:.2f}s"
          + (f", failed: {failed}" if failed else ""))


def test_criterion_5_corpus_equivalence():
    worst = 0.0
    bad = []
    for text in tangles.CORPUS:
        t0 = time.perf_counter()
        verdict, _ = tangles.compare(tangles.parse_tangle(text))
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        if verdict != tangles.EQUIVALENT:
            bad.append((text or "(empty)", verdict))
        assert dt < 30.0, f"{text!r} took {dt:.1f}s"
    ok = not bad
    _line(5, "corpus fully EQUIVALENT, every tangle < 30s", ok,
          f"{len(tangles.CORPUS)} tangles, worst {worst:.2f}s"
          + (f", bad: {bad}" if bad else ""))


def test_criterion_6_structural_invariants():
    t0 = time.perf_counter()

    def check_pipeline(word):
        m = tangles.deloop_translate(tangles.build_cube(word))
        r = dstruct.reduce(m)
        cone = dstruct.cone_h(r)
        boxed = dstruct.box_ad(r.map_labels(algebra.q_map, FLAVOR_BT),
                               bimod.bimodule_Y())
        for stage, s in (("deloop", m), ("reduce", r), ("cone", cone),
                         ("box", boxed), ("reduce box", dstruct.reduce(boxed))):
            assert dstruct.check_d_squared(s) == [], (str(word), stage)
        return r

    for text in tangles.CORPUS:
        r = check_pipeline(tangles.parse_tangle(text))
        lhs = dstruct.reduce(dstruct.cone_h(r))
        rhs = dstruct.reduce(dstruct.box_ad(r, bimod.bimodule_I()))
        assert dstruct.iso_check(lhs, rhs) != dstruct.NOT_FOUND, text

    r2 = tangles.tangle_complex(tangles.parse_tangle("x1 y1"))
    trivial = tangles.tangle_complex(tangles.parse_tangle(""))
    assert dstruct.iso_check(r2, trivial) != dstruct.NOT_FOUND

    rng = random.Random(0)
    n_random = 200
    for _ in range(n_random):
        check_pipeline(tangles.random_word(rng, max_crossings=8))

    elapsed = time.perf_counter() - t0
    _line(6, "d^2 = 0 through every pipeline stage; R2 trivial; "
             "cone matches boxing with I", True,
          f"corpus + {n_random} random words, {elapsed:.1f}s")
