"""`compare` caches its decision on the reduced complex (`_decision`),
and the reduced complex's key on the walk of the delooped cube
(`_complex_key`).

A hit must answer exactly as deciding afresh would, must run none of
the pipeline after the walk, must hand out a witness the caller may
change, and each cache must hold `MAX_DECISIONS` entries.  A walk
changed by a patched deloop rule must miss and meet the d^2 guard.
"""

import random

import pytest

from khtangle import algebra, dstruct, tangles
from test_serialize_gate import gate_words
from test_tangles import DELOOP_BUGS


def word(text):
    return tangles.parse_tangle(text)


def cold(w, star="nw"):
    tangles._decision.cache_clear()
    return tangles.compare(w, star)


def coldest(w, star="nw"):
    """`compare` with no cached decision, walk or edge shape."""
    tangles._complex_key.cache_clear()
    tangles._saddle_arrows.cache_clear()
    return cold(w, star)


def size(cache):
    return cache.cache_info().currsize


def test_warm_and_cold_compare_agree():
    cases = [(w, star) for star in tangles.STAR_CHOICES
             for w in tangles.every_word(4)]
    cases += [(word(text), "nw") for text in gate_words()]
    cases += [(word(" ".join(["x1"] * n)), "nw") for n in range(1, 9)]
    warm = [tangles.compare(w, star) for w, star in cases]
    # words share reduced complexes, so most of the first pass were hits
    assert size(tangles._decision) < len(cases) // 10
    again = [tangles.compare(w, star) for w, star in cases]
    assert warm == again == [cold(w, star) for w, star in cases]


def test_a_decision_rebuilds_the_reduced_complex_in_order(monkeypatch):
    # `_decision` decides the structure it rebuilds from a key; `out`
    # and `inn` must list the arrows in `tangle_complex`'s order
    monkeypatch.setattr(tangles, "_decide", lambda m: m)
    cases = [(w, star) for star in tangles.STAR_CHOICES
             for w in tangles.every_word(4)]
    cases += [(word(" ".join(["x1"] * n)), "nw") for n in range(1, 9)]
    # those complexes have no row of two arrows; six of the first 64
    # criterion-6 words have one, so that a row order can go wrong
    rng = random.Random(0)
    cases += [(tangles.random_word(rng, 8), "nw") for _ in range(64)]
    for w, star in cases:
        walk = tangles._walk(tangles.build_cube(w, star))
        m = tangles._decision.__wrapped__(tangles._complex_key(walk))
        ref = tangles.tangle_complex(w, star)
        assert (m.flavor, m.gens) == (ref.flavor, ref.gens), (str(w), star)
        for rows, ref_rows in ((m.out, ref.out), (m.inn, ref.inn)):
            assert [list(row.items()) for row in rows] == \
                [list(row.items()) for row in ref_rows], (str(w), star)


def test_a_hit_runs_no_cone_box_or_iso(monkeypatch):
    calls = []
    for name in ("cone_h", "box_ad", "iso_check"):
        def counted(*args, _f=getattr(dstruct, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(dstruct, name, counted)
    first = tangles.compare(word("x1"))
    assert sorted(calls) == ["box_ad", "cone_h", "iso_check"]
    calls.clear()
    # "x1 u1 n2" reduces to the same complex as "x1"
    assert tangles.compare(word("x1")) == first
    assert tangles.compare(word("x1 u1 n2")) == first
    assert calls == []


@pytest.mark.parametrize("text", ["x1 x1", "x1 x1 x1"])
def test_mutating_a_witness_does_not_change_the_next(text):
    expected = cold(word(text))
    verdict, witness = tangles.compare(word(text))
    assert (verdict, witness) == expected
    if "entries" in witness:   # a chain map: change its list in place
        witness["entries"].clear()
    witness.clear()
    witness["spoiled"] = True
    assert tangles.compare(word(text)) == expected


def test_both_caches_hold_max_decisions_entries():
    # the cap holds every distinct reduced complex of every_word(6) at nw
    assert tangles.MAX_DECISIONS >= 2057
    for cache in (tangles._complex_key, tangles._decision):
        assert cache.cache_info().maxsize == tangles.MAX_DECISIONS


def test_an_exception_is_raised_each_time_and_not_stored(monkeypatch):
    monkeypatch.setattr(dstruct, "MAX_BOX_ARROWS", 0)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="arrow cap"):
            tangles.compare(word("x1"))
    assert size(tangles._decision) == 0
    monkeypatch.undo()
    assert tangles.compare(word("x1"))[0] == tangles.EQUIVALENT


def test_no_cube_is_stored_when_the_decision_raises(monkeypatch):
    monkeypatch.setattr(dstruct, "MAX_BOX_ARROWS", 0)
    with pytest.raises(RuntimeError, match="arrow cap"):
        tangles.compare(word("x1"))
    # the walk's key is kept, but no decision: the second call skips
    # the reduction and raises again in `_decision`
    assert size(tangles._complex_key) == 1 and size(tangles._decision) == 0
    with pytest.raises(RuntimeError, match="arrow cap"):
        tangles.compare(word("x1"))
    assert tangles._complex_key.cache_info().hits == 1
    assert size(tangles._decision) == 0


def test_warm_and_cold_compare_agree_on_two_crossing_words():
    words = [tangles.random_word(random.Random(s), 2) for s in range(2000)]
    cases = [(w, star) for star in tangles.STAR_CHOICES for w in words]
    warm = [tangles.compare(w, star) for w, star in cases]
    assert size(tangles._decision) < size(tangles._complex_key) < \
        len(cases) // 10
    # deciding afresh is a function of the word and the star
    fresh = {}
    for w, star in cases:
        if (w, star) not in fresh:
            fresh[w, star] = coldest(w, star)
    assert warm == [fresh[case] for case in cases]


def test_a_repeated_cube_runs_no_guard_load_or_elimination(monkeypatch):
    calls = []

    def counted(owner, name):
        f = getattr(owner, name)

        def wrapper(*args):
            calls.append(name)
            return f(*args)
        monkeypatch.setattr(owner, name, wrapper)

    def expanded():
        return tangles._saddle_arrows.cache_info().misses

    counted(tangles, "_d_squared_is_zero")
    counted(dstruct.Adjacency, "__init__")
    counted(dstruct.Adjacency, "eliminate")
    first = tangles.compare(word("x1 x1 x1"))
    assert {"_d_squared_is_zero", "__init__", "eliminate"} <= set(calls)
    shapes = expanded()
    assert shapes
    calls.clear()
    assert tangles.compare(word("x1 x1 x1")) == first
    assert calls == [] and expanded() == shapes
    # "x1 x1 x1 u1 n2" walks the same cube; a new cube of a known
    # complex runs the guard, and then looks the decision up
    assert tangles.compare(word("x1 x1 x1 u1 n2")) == first
    assert calls == []
    assert tangles.compare(word("u1 x3 x3 x3 n2")) == first
    assert "_d_squared_is_zero" in calls and "eliminate" in calls
    assert size(tangles._complex_key) == 2 and size(tangles._decision) == 1


@pytest.mark.parametrize("bug", DELOOP_BUGS)
def test_a_patched_rule_misses_the_cube_memo_and_meets_the_guard(
        monkeypatch, bug):
    w = word("x1 y1")
    assert tangles.compare(w)[0] == tangles.EQUIVALENT
    monkeypatch.setattr(algebra, *DELOOP_BUGS[bug])
    tangles._saddle_arrows.cache_clear()
    with pytest.raises(AssertionError, match=r"^d\^2 != 0 after delooping"):
        tangles.compare(w)
