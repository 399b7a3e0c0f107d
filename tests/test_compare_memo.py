"""`compare` memoizes its decision on the reduced complex, and the
reduced complex on the walk of the delooped cube.

A hit must answer exactly as deciding afresh would, must run none of
the pipeline after the walk, must hand out a witness the caller may
change, and each memo must stay within its cap.  A walk changed by a
patched deloop rule must miss and meet the d^2 guard.
"""

import random

import pytest

from khtangle import algebra, dstruct, tangles
from test_serialize_gate import gate_words
from test_tangles import DELOOP_BUGS


def word(text):
    return tangles.parse_tangle(text)


def cold(w, star="nw"):
    tangles._DECISIONS.clear()
    return tangles.compare(w, star)


def coldest(w, star="nw"):
    """`compare` with no memoized decision, cube or edge shape."""
    tangles._CUBES.clear()
    tangles._EXPANDED.clear()
    return cold(w, star)


def test_warm_and_cold_compare_agree():
    cases = [(w, star) for star in tangles.STAR_CHOICES
             for w in tangles.every_word(4)]
    cases += [(word(text), "nw") for text in gate_words()]
    cases += [(word(" ".join(["x1"] * n)), "nw") for n in range(1, 9)]
    warm = [tangles.compare(w, star) for w, star in cases]
    # words share reduced complexes, so most of the first pass were hits
    assert len(tangles._DECISIONS) < len(cases) // 10
    again = [tangles.compare(w, star) for w, star in cases]
    assert warm == again == [cold(w, star) for w, star in cases]


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


def test_the_memo_keeps_the_most_recently_used_up_to_its_cap(monkeypatch):
    # the cap holds every distinct reduced complex of every_word(6) at nw
    assert tangles.MAX_DECISIONS >= 2057
    monkeypatch.setattr(tangles, "MAX_DECISIONS", 3)
    texts = ["x1", "x1 x1", "x1 x1 x1", "x1 y1", "x1 x1 y1"]
    for text in texts:
        tangles.compare(word(text))
        assert len(tangles._DECISIONS) <= 3
    # a hit on the oldest kept decision makes it the newest, so the next
    # miss drops the one after it
    kept = list(tangles._DECISIONS)
    tangles.compare(word("x1 x1 x1"))
    assert list(tangles._DECISIONS) == kept[1:] + kept[:1]
    tangles.compare(word("x1"))
    assert list(tangles._DECISIONS)[:2] == [kept[2], kept[0]]


def test_an_exception_is_raised_each_time_and_not_stored(monkeypatch):
    monkeypatch.setattr(dstruct, "MAX_BOX_ARROWS", 0)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="arrow cap"):
            tangles.compare(word("x1"))
    assert len(tangles._DECISIONS) == 0
    monkeypatch.undo()
    assert tangles.compare(word("x1"))[0] == tangles.EQUIVALENT


def test_warm_and_cold_compare_agree_on_two_crossing_words():
    words = [tangles.random_word(random.Random(s), 2) for s in range(2000)]
    cases = [(w, star) for star in tangles.STAR_CHOICES for w in words]
    warm = [tangles.compare(w, star) for w, star in cases]
    assert len(tangles._DECISIONS) < len(tangles._CUBES) < len(cases) // 10
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

    counted(tangles, "_d_squared_is_zero")
    counted(tangles, "_saddle_arrows")
    counted(dstruct.Adjacency, "__init__")
    counted(dstruct.Adjacency, "eliminate")
    first = tangles.compare(word("x1 x1 x1"))
    assert {"_d_squared_is_zero", "_saddle_arrows", "__init__",
            "eliminate"} <= set(calls)
    calls.clear()
    assert tangles.compare(word("x1 x1 x1")) == first
    assert calls == []
    # "x1 x1 x1 u1 n2" walks the same cube; a new cube of a known
    # complex runs the guard, and then looks the decision up
    assert tangles.compare(word("x1 x1 x1 u1 n2")) == first
    assert calls == []
    assert tangles.compare(word("u1 x3 x3 x3 n2")) == first
    assert "_d_squared_is_zero" in calls and "eliminate" in calls
    assert len(tangles._CUBES) == 2 and len(tangles._DECISIONS) == 1


def test_no_cube_is_stored_when_the_decision_raises(monkeypatch):
    monkeypatch.setattr(dstruct, "MAX_BOX_ARROWS", 0)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="arrow cap"):
            tangles.compare(word("x1"))
    assert len(tangles._CUBES) == len(tangles._DECISIONS) == 0


def test_the_cube_memo_keeps_the_most_recently_used_up_to_its_cap(
        monkeypatch):
    monkeypatch.setattr(tangles, "MAX_DECISIONS", 3)
    # five cubes, the first four of one reduced complex
    texts = ["x1 x1 x1", "x1 u1 x3 x3 n2", "u1 x3 x3 x3 n2",
             "u1 x3 x3 n2 x1", "x1 x1"]
    for text in texts:
        tangles.compare(word(text))
        assert len(tangles._CUBES) <= 3
    assert len(tangles._DECISIONS) == 2
    kept = list(tangles._CUBES)
    assert len(kept) == 3
    guards = []
    guard = tangles._d_squared_is_zero

    def counted(*args):
        guards.append(args)
        return guard(*args)

    monkeypatch.setattr(tangles, "_d_squared_is_zero", counted)
    # a hit on the oldest kept cube makes it the newest
    tangles.compare(word(texts[2]))
    assert guards == []
    assert list(tangles._CUBES) == kept[1:] + kept[:1]
    # a dropped cube misses, and drops the least recently used
    tangles.compare(word(texts[0]))
    assert len(guards) == 1
    assert list(tangles._CUBES)[:2] == [kept[2], kept[0]]


@pytest.mark.parametrize("bug", DELOOP_BUGS)
def test_a_patched_rule_misses_the_cube_memo_and_meets_the_guard(
        monkeypatch, bug):
    w = word("x1 y1")
    assert tangles.compare(w)[0] == tangles.EQUIVALENT
    monkeypatch.setattr(algebra, *DELOOP_BUGS[bug])
    tangles._EXPANDED.clear()
    with pytest.raises(AssertionError, match=r"^d\^2 != 0 after delooping"):
        tangles.compare(w)
