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
from khtangle.algebra import FILLED, FLAVOR_B
from test_deloop_reference import corpus_and_gate_words, reduced_complex


def reference_signatures(m, shift, n, adj):
    sig = {}
    for tag, st, sh in (("m", m, shift), ("n", n, 0)):
        for g in st.gens.values():
            sig[tag, g.name] = (g.idem.value, g.hdeg + sh)
    for _ in range(3):
        nxt = {}
        for tag, st in (("m", m), ("n", n)):
            out, inn = adj[tag]
            for name in st.gens:
                outs = sorted((id(l), sig[tag, d]) for d, l in out[name])
                ins = sorted((id(l), sig[tag, s]) for s, l in inn[name])
                nxt[tag, name] = (sig[tag, name], tuple(outs), tuple(ins))
        canon = {v: i for i, v in enumerate(sorted(set(nxt.values())))}
        sig = {k: canon[v] for k, v in nxt.items()}
    return ({name: s for (t, name), s in sig.items() if t == "m"},
            {name: s for (t, name), s in sig.items() if t == "n"})


def partition(signatures, m, shift, n):
    adj = {tag: (st.outgoing(), st.incoming())
           for tag, st in (("m", m), ("n", n))}
    sig_m, sig_n = signatures(m, shift, n, adj)
    classes = {}
    for tag, sig in (("m", sig_m), ("n", sig_n)):
        for name, colour in sig.items():
            classes.setdefault(colour, set()).add((tag, name))
    return {frozenset(c) for c in classes.values()}


def _same_refinement(monkeypatch, m, n):
    shift = (min(g.hdeg for g in n.gens.values())
             - min(g.hdeg for g in m.gens.values()))
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
    m = dstruct.TypeDStructure(FLAVOR_B)
    for k in range(5):
        m.add_gen(f"g{k}", FILLED, k)
    for k in range(3):
        m.add_arrow(f"g{k}", f"g{k + 1}", algebra.dpow(1, FILLED))
    m.add_arrow("g3", "g4", last_label)
    return m


def test_three_round_cap_on_chains_still_splitting(monkeypatch):
    # the chains differ four arrows away from g0, so every round splits
    # a class and only a fourth would tell the two g0s apart
    m, n = chain(algebra.dpow(1, FILLED)), chain(algebra.spow(2, FILLED))
    _same_refinement(monkeypatch, m, n)
    assert frozenset({("m", "g0"), ("n", "g0")}) in partition(
        dstruct._signatures, m, 0, n)
