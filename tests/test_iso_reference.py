"""Colour refinement of `dstruct._signatures` against a three-round one.

The reference below always refines three times and numbers each
round's colours by sorting the nested signatures.  `_signatures` stops
after a round that splits no class and numbers colours first-seen.  The
bijection search reads only which generators share a colour, so both
must give the same partition of the generators of the two structures,
and `iso_check` must return the same witness with either.
"""

import random

from khtangle import algebra, dstruct, tangles
from khtangle.algebra import FILLED, HOLLOW
from test_deloop_reference import corpus_and_gate_words, reduced_complex
from test_dstruct import structure


def reference_signatures(m, shift, n, inns):
    sig = [[(g.idem.value, g.hdeg + sh) for g in st.gens]
           for st, sh in ((m, shift), (n, 0))]
    for _ in range(3):
        nxt = [[(own[x],
                 tuple(sorted((id(l), own[d]) for d, l in st.out[x].items())),
                 tuple(sorted((id(l), own[s]) for s, l in inn[x].items())))
                for x in range(len(st.gens))]
               for st, own, inn in zip((m, n), sig, inns)]
        canon = {v: i for i, v in enumerate(sorted(set(nxt[0] + nxt[1])))}
        sig = [[canon[v] for v in row] for row in nxt]
    return sig


def partition(signatures, m, shift, n):
    classes = {}
    inns = dstruct._in_rows(m), dstruct._in_rows(n)
    for tag, st, sig in zip("mn", (m, n), signatures(m, shift, n, inns)):
        for g, colour in zip(st.gens, sig, strict=True):
            classes.setdefault(colour, set()).add((tag, g.name))
    return {frozenset(c) for c in classes.values()}


def _same_refinement(monkeypatch, m, n):
    shift = (min(g.hdeg for g in n.gens)
             - min(g.hdeg for g in m.gens))
    assert (partition(dstruct._signatures, m, shift, n)
            == partition(reference_signatures, m, shift, n))
    witness = dstruct.iso_check(m, n)
    with monkeypatch.context() as mp:
        mp.setattr(dstruct, "_signatures", reference_signatures)
        assert dstruct.iso_check(m, n) == witness


def _same_on_words(monkeypatch, texts):
    for text in texts:
        m = reduced_complex(text, "nw")
        _same_refinement(monkeypatch, dstruct.cone_h(m),
                         tangles._two_layer_image(m))


def _random_words(seed, count, crossings):
    rng = random.Random(seed)
    return [str(tangles.random_word(rng, crossings)) for _ in range(count)]


def test_same_on_corpus_gate_words_twists_and_random_words(monkeypatch):
    # the gate's random words are the first 30 of these 60
    _same_on_words(monkeypatch, dict.fromkeys(
        corpus_and_gate_words() + [" ".join(["x1"] * k) for k in range(1, 8)]
        + _random_words(0, 60, 8)))


def test_same_on_small_words(monkeypatch):
    _same_on_words(monkeypatch, _random_words(1, 300, 2))


def chain(last_label):
    return structure([(f"g{k}", FILLED, k) for k in range(5)],
                     [(f"g{k}", f"g{k + 1}", algebra.dpow(1, FILLED))
                      for k in range(3)] + [("g3", "g4", last_label)])


def test_three_round_cap_on_chains_still_splitting(monkeypatch):
    # the chains differ four arrows away from g0, so every round splits
    # a class and only a fourth would tell the two g0s apart
    m, n = chain(algebra.dpow(1, FILLED)), chain(algebra.spow(2, FILLED))
    _same_refinement(monkeypatch, m, n)
    assert frozenset({("m", "g0"), ("n", "g0")}) in partition(
        dstruct._signatures, m, 0, n)


def assert_bijection_is_isomorphism(m, n, witness):
    """A bijection witness of `iso_check(m, n)`, checked apart from the
    search: one to one and onto, keeping idempotents, moving every hdeg
    by one shift, and carrying each `out` row of m exactly onto the row
    of its image in n, labels included."""
    at_n = {g.name: y for y, g in enumerate(n.gens)}
    assert len(witness) == len(m.gens)
    f = [at_n[witness[g.name]] for g in m.gens]
    assert sorted(f) == list(range(len(n.gens)))
    assert len({n.gens[y].hdeg - g.hdeg for g, y in zip(m.gens, f)}) <= 1
    assert all(n.gens[y].idem == g.idem for g, y in zip(m.gens, f))
    for x, row in enumerate(m.out):
        assert {f[d]: label for d, label in row.items()} == n.out[f[x]]


def test_every_bijection_witness_of_the_short_words_is_an_isomorphism():
    # the corpus and every_word(4) at four stars: 4,356 bijections and
    # 24 chain maps, which this check does not read
    bijections = 0
    for star in tangles.STAR_CHOICES:
        for text in list(tangles.CORPUS) + [
                str(w) for w in tangles.every_word(4)]:
            m = tangles.tangle_complex(tangles.parse_tangle(text), star)
            lhs, rhs = dstruct.cone_h(m), tangles._two_layer_image(m)
            witness = dstruct.iso_check(lhs, rhs)
            if "entries" not in witness:
                assert_bijection_is_isomorphism(lhs, rhs, witness)
                bijections += 1
    assert bijections == 4356


def bipartite(edges):
    """a0-a3 (FILLED, hdeg 0) each with an arrow s to two of b0-b3
    (HOLLOW, hdeg 1), as (a, b) index pairs."""
    s = algebra.spow(1, FILLED)
    return structure([(f"a{i}", FILLED, 0) for i in range(4)]
                     + [(f"b{i}", HOLLOW, 1) for i in range(4)],
                     [(f"a{i}", f"b{j}", s) for i, j in edges])


def test_a_cycle_and_two_squares_that_colours_do_not_separate():
    # every generator has two arrows of one label to or from the other
    # colour, so refinement leaves two classes, and only the arrows to
    # generators already assigned tell an 8-cycle from two 4-cycles: a
    # search that checks one arrow per row maps a1, a2, a3 to a2, a3, a1
    cycle = bipartite([(i, j % 4) for i in range(4) for j in (i, i + 1)])
    squares = bipartite([(i, j) for i in range(4)
                         for j in ((0, 1) if i < 2 else (2, 3))])
    assert len(partition(dstruct._signatures, cycle, 0, squares)) == 2
    assert dstruct.iso_check(cycle, squares) == dstruct.NOT_FOUND
    assert dstruct.iso_check(squares, cycle) == dstruct.NOT_FOUND
    witness = dstruct.iso_check(cycle, cycle)
    assert witness != dstruct.NOT_FOUND
    assert_bijection_is_isomorphism(cycle, cycle, witness)
