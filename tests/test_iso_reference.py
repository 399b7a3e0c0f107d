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
from khtangle.algebra import FILLED
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
