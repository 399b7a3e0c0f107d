"""`compare` memoizes its decision on the reduced complex.

A hit must answer exactly as deciding afresh would, must run none of
the back half of the pipeline, must hand out a witness the caller may
change, and the memo must stay within its cap.
"""

import pytest

from khtangle import dstruct, tangles
from test_serialize_gate import gate_words


def word(text):
    return tangles.parse_tangle(text)


def cold(w, star="nw"):
    tangles._DECISIONS.clear()
    return tangles.compare(w, star)


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
