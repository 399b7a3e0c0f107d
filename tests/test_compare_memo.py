"""`compare` caches its decision on the reduced complex up to an
order-preserving renaming of its generators and a global hdeg shift
(`_decision`), and the reduced complex's key on the walk of the
delooped cube (`_complex_key`).

A hit must answer exactly as deciding afresh would, its witness renamed
to the complex's own names and hdegs, must run none of the pipeline
after the walk, must hand out a witness the caller may change, and each
cache must hold `MAX_DECISIONS` entries.  A walk changed by a patched
deloop rule must miss and meet the d^2 guard.
"""

import random

import pytest
from hypothesis import given, strategies as st

from khtangle import algebra, bimod, dstruct, tangles
from test_serialize_gate import gate_words
from test_tangles import DELOOP_BUGS, run_python


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


def uncached(w, star="nw"):
    """The answer for the reduced complex itself, under its own names
    and hdegs, through no cache."""
    return tangles._decide(tangles.tangle_complex(w, star))


def size(cache):
    return cache.cache_info().currsize


def memo_cases():
    cases = [(w, star) for star in tangles.STAR_CHOICES
             for w in tangles.every_word(4)]
    cases += [(word(text), "nw") for text in gate_words()]
    cases += [(word(" ".join(["x1"] * n)), "nw") for n in range(1, 9)]
    # those complexes have no row of two arrows; six of the first 64
    # criterion-6 words have one, so that a row order can go wrong
    rng = random.Random(0)
    cases += [(tangles.random_word(rng, 8), "nw") for _ in range(64)]
    return cases


def test_warm_and_cold_compare_agree():
    cases = memo_cases()
    warm = [tangles.compare(w, star) for w, star in cases]
    # words share reduced complexes, so most of the first pass were hits
    assert size(tangles._decision) < len(cases) // 20
    again = [tangles.compare(w, star) for w, star in cases]
    assert warm == again == [uncached(w, star) for w, star in cases]


@pytest.mark.parametrize("first, second", [("x1", "x1 x1 y1"),
                                           ("", "x1 y1")])
def test_a_renamed_and_shifted_complex_shares_its_decision(first, second):
    # "x1" reduces to v0d0, v1d0 at hdegs 0, 1 and "x1 x1 y1" to v4d0,
    # v5d0 at 1, 2; "" to v0d0 at 0 and "x1 y1" to v2d0 at 1
    a, b = (tangles.tangle_complex(word(text)) for text in (first, second))
    assert [g.name for g in a.gens] != [g.name for g in b.gens]
    assert [g.hdeg + 1 for g in a.gens] == [g.hdeg for g in b.gens]
    for text in (first, second):
        assert tangles.compare(word(text)) == uncached(word(text))
    info = tangles._decision.cache_info()
    assert (info.currsize, info.hits) == (1, 1)


@pytest.mark.parametrize("patch", ["iso_check", "_two_layer_image"])
def test_an_answer_without_isomorphism_is_renamed_exactly(monkeypatch,
                                                          patch):
    # with no isomorphism found, the counts agree and the answer is
    # INDETERMINATE; with the complex itself as its image, they differ,
    # and the MISMATCH diagnostic keys the counts by idempotent and hdeg
    if patch == "iso_check":
        monkeypatch.setattr(dstruct, patch, lambda m, n: dstruct.NOT_FOUND)
        expected = tangles.INDETERMINATE
    else:
        monkeypatch.setattr(tangles, patch, lambda m: m)
        expected = tangles.MISMATCH
    # "x1 x1 x1 y1" reduces to v5d2, v8d0, v11d0 at hdegs 2, 1, 3, and
    # its key to ranks 1, 2, 0 at hdegs 1, 0, 2
    w = word("x1 x1 x1 y1")
    key, names, lo = tangles._complex_key(
        tangles._walk(tangles.build_cube(w)))
    assert (names, lo) == ({"00000": "v11d0", "00001": "v5d2",
                            "00002": "v8d0"}, 1)
    raw = tangles._decision(key)
    assert tangles.compare(w) == uncached(w)
    assert tangles.compare(w)[0] == expected
    if expected == tangles.MISMATCH:
        assert raw != tangles.compare(w)
        assert "'f:0'" in str(raw) and "'f:0'" not in str(uncached(w))


def test_a_shared_decision_answers_as_a_cold_one_under_hash_seeds(
        monkeypatch):
    # the second word of each pair decides from the first's entry: "x1
    # x1 y1" by a bijection, "u1 x1 x1 x3 n1" by a chain map, its lowest
    # hdeg 2 to the other's 1
    pairs = [("x1", "x1 x1 y1"), ("u1 x1 x3 y1 n1", "u1 x1 x1 x3 n1")]

    def run(warm):
        return run_python(f"""
            from khtangle import tangles
            for first, second in {pairs!r}:
                if {warm}:
                    tangles.compare(tangles.parse_tangle(first))
                print(repr(tangles.compare(tangles.parse_tangle(second))))
            print(tangles._decision.cache_info().hits)
        """).splitlines()

    for seed in ("1", "2"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        warm, cold_ = run(True), run(False)
        assert warm[:-1] == cold_[:-1], seed
        assert (warm[-1], cold_[-1]) == ("2", "0")
    assert "entries" in cold_[1]


def test_a_decision_rebuilds_the_reduced_complex_in_order(monkeypatch):
    # `_decision` decides the structure it rebuilds from a key: up to
    # the renaming of its generators to their ranks and the shift of
    # its hdegs, it is `tangle_complex`'s, and `out` lists the arrows in
    # its order
    monkeypatch.setattr(tangles, "_decide", lambda m: m)
    for w, star in memo_cases():
        walk = tangles._walk(tangles.build_cube(w, star))
        key, names, lo = tangles._complex_key(walk)
        m = tangles._decision.__wrapped__(key)
        ref = tangles.tangle_complex(w, star)
        ref_names = [g.name for g in ref.gens]
        assert [names[g.name] for g in m.gens] == ref_names, (str(w), star)
        assert lo == min((g.hdeg for g in ref.gens), default=0)
        assert {len(g.name) for g in m.gens} <= {tangles._RANK_WIDTH}
        assert m.flavor == ref.flavor
        assert [(int(g.name), g.idem, g.hdeg + lo) for g in m.gens] == [
            (rank, g.idem, g.hdeg) for rank, g in
            zip(dstruct.name_ids(ref_names), ref.gens)], (str(w), star)
        assert [list(row.items()) for row in m.out] == \
            [list(row.items()) for row in ref.out], (str(w), star)


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
    # "x1 u1 n2" reduces to the same complex as "x1", and "x1 x1 y1" to
    # it renamed and shifted
    assert tangles.compare(word("x1")) == first
    assert tangles.compare(word("x1 u1 n2")) == first
    assert tangles.compare(word("x1 x1 y1")) != first
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

    counted(tangles, "_d_squared_shown_zero")
    counted(dstruct.Adjacency, "__init__")
    counted(dstruct.Adjacency, "eliminate")
    first = tangles.compare(word("x1 x1 x1"))
    assert {"_d_squared_shown_zero", "__init__", "eliminate"} <= set(calls)
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
    assert "_d_squared_shown_zero" in calls and "eliminate" in calls
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


def test_a_warm_face_cache_answers_as_a_cold_one(monkeypatch):
    # the d^2 guard keeps its local faces and edges for the process:
    # in fresh interpreters under two hash seeds, the gate words answer
    # with those caches empty, and again after the 200 criterion-6 words
    # filled them, as they answer here
    gate = gate_words()
    code = f"""
        import random
        from khtangle import tangles

        def answers():
            tangles._complex_key.cache_clear()
            tangles._decision.cache_clear()
            return [tangles.compare(tangles.parse_tangle(text))
                    for text in {gate!r}]

        cold = answers()
        rng = random.Random(0)
        for _ in range(200):
            tangles.compare(tangles.random_word(rng, 8))
        assert tangles._local_d_squared_is_zero.cache_info().currsize > 300
        print(repr(cold))
        print(repr(answers()))
    """
    cold = [tangles.compare(word(text)) for text in gate]
    for seed in ("1", "2"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        assert run_python(code).splitlines() == [repr(cold)] * 2, seed


# the suffixes `_decide` appends to a generator's name: the H-cone's
# copies, and the box tensor's bimodule generators
SUFFIXES = [".0", ".1"] + [f"*{b}" for b in bimod.bimodule_Y().gens]


@given(st.lists(st.tuples(st.integers(0, 1 << 15), st.integers(0, 1 << 12)),
                min_size=1, max_size=40, unique=True), st.data())
def test_a_suffix_keeps_the_order_of_names_and_of_ranks(blocks, data):
    # so that `_decide` orders a complex's suffixed names as it orders
    # its ranks with the same suffixes, and renaming a witness is exact
    names = [tangles._gen_name(bits, decor) for bits, decor in blocks]
    ranks = [f"{r:0{tangles._RANK_WIDTH}d}" for r in dstruct.name_ids(names)]
    suffixes = [data.draw(st.lists(st.sampled_from(SUFFIXES), min_size=1,
                                   unique=True)) for _ in names]
    by_name = sorted((n, s) for n, ss in zip(names, suffixes) for s in ss)
    for own in (names, ranks):
        suffixed = [(n, s) for n, ss in zip(own, suffixes) for s in ss]
        back = dict(zip(own, names))
        assert [(back[n], s) for n, s in
                sorted(suffixed, key=lambda ns: ns[0] + ns[1])] == by_name
