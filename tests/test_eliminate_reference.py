"""`Adjacency.eliminate` against the single-heap elimination.

The reference below heapifies every load key and refreshes the keys
lazily on one heap.  `eliminate` reads the load keys from a sorted run
and buckets the keys made while it cancels by cost, heaping a bucket
when the read reaches its cost; it must cancel the same pairs in the
same order, so the reduced structure, its generator order, its arrow
order and its labels are the reference's.
"""

import heapq
import random

import pytest

from khtangle import algebra, dstruct, tangles
from khtangle.algebra import FILLED
from test_deloop_reference import CENSUS, corpus_and_gate_words
from test_tangles import twist


def reference_eliminate(adj):
    """Cancel arrows labelled exactly by an idempotent, all keys on one
    lazy heap."""
    out, inn, heap, n = adj.out, adj.inn, adj.keys, adj.n
    nn = n * n
    heapq.heapify(heap)
    while heap:
        c, arrow = divmod(heap[0], nn)
        x, y = divmod(arrow, n)
        from_x = out[x]
        label = None if from_x is None else from_x.get(y)
        if label is None or not label.is_idem:
            heapq.heappop(heap)   # cancelled, or no longer an idempotent
            continue
        into_y = inn[y]
        actual = (len(into_y) - 1) * (len(from_x) - 1)
        if actual != c:
            heapq.heapreplace(heap, actual * nn + arrow)
            continue
        heapq.heappop(heap)
        into_y = [(p, l) for p, l in into_y.items() if p != x]
        from_x = [(q, l) for q, l in from_x.items() if q != y]
        for g in (x, y):
            for d in out[g]:
                del inn[d][g]
            for s in inn[g]:
                del out[s][g]
            out[g] = inn[g] = None
        for p, beta in into_y:
            from_p = out[p]
            for q, gamma in from_x:
                prod = beta * gamma
                if prod.is_zero():
                    continue
                cur = from_p.get(q)
                if cur is not None:
                    prod = cur + prod
                    if prod.is_zero():
                        del from_p[q]
                        del inn[q][p]
                        continue
                into_q = inn[q]
                from_p[q] = into_q[p] = prod
                if prod.is_idem:
                    heapq.heappush(heap, (len(into_q) - 1) * (len(from_p) - 1)
                                   * nn + p * n + q)


class _Cancelled(list):
    """An `out` list that logs each generator whose entry becomes None,
    as both eliminations do for x and then y of each pair they cancel."""

    def __init__(self, out, log):
        super().__init__(out)
        self.log = log

    def __setitem__(self, g, value):
        if value is None:
            self.log.append(g)
        super().__setitem__(g, value)


def cancelled_by(eliminate, adj):
    """Run `eliminate` on adj; the pairs it cancelled, in order."""
    log = []
    adj.out = _Cancelled(adj.out, log)
    eliminate(adj)
    return list(zip(log[::2], log[1::2]))


def _under(monkeypatch, eliminate, run):
    """run() with every elimination done by `eliminate`: its result and
    the pairs cancelled, in order."""
    cancelled = []
    with monkeypatch.context() as patch:
        patch.setattr(dstruct.Adjacency, "eliminate", lambda adj: cancelled
                      .extend(cancelled_by(eliminate, adj)))
        return run(), cancelled


def _listed(m):
    return dstruct.serialize(m), m.gens, list(m.arrows.items())


def _same_as_reference(monkeypatch, text, star):
    """The reduced complex of a word and its two-layer image, reduced by
    `eliminate` and by the reference, cancel the same pairs and agree in
    order and labels."""
    word = tangles.parse_tangle(text)

    def run():
        m = tangles.tangle_complex(word, star)
        return _listed(m), _listed(tangles._two_layer_image(m))

    new = _under(monkeypatch, dstruct.Adjacency.eliminate, run)
    old = _under(monkeypatch, reference_eliminate, run)
    assert new == old, (text, star)


@pytest.mark.parametrize("star", tangles.STAR_CHOICES)
def test_words_are_reduced_as_the_reference(monkeypatch, star):
    for text in CENSUS + corpus_and_gate_words():
        _same_as_reference(monkeypatch, text, star)


def test_larger_words_are_reduced_as_the_reference(monkeypatch):
    rng = random.Random(0)
    texts = [str(twist(n)) for n in range(1, 10)] + \
        [str(tangles.random_word(rng, 8)) for _ in range(60)]
    for text in texts:
        _same_as_reference(monkeypatch, text, "nw")


# Hand-built cases on generators 0..n-1 (id = position), arrows "s d
# label" loaded in the order given, all at one vertex.  Keys are
# written (cost, s, d).  In the first four, fill-in sums an idempotent
# arrow to zero and a later cancellation makes it an idempotent again,
# so that its load key, still unread in the run, is live once more:
# dropping that key when its arrow died would cancel another pair.
I, D = algebra.idem(FILLED), algebra.dpow(1, FILLED)
LABELS = {"i": I, "D": D, "i+D": I + D}


def _loaded(n, arrows):
    ids = list(range(n))
    triples = [(int(s), int(d), LABELS[label])
               for s, d, label in map(str.split, arrows.split(","))]
    return dstruct.Adjacency(ids, None, [(ids, ids, triples)])


@pytest.mark.parametrize("n, arrows, cancelled", [
    # the arrow 5 -> 8, key (2, 5, 8), is summed to zero by cancelling
    # 0 -> 7 and made again by cancelling 3 -> 6, which pushes (3, 5, 8);
    # the load key comes first and cancels it before (3, 5, 2) could
    (10, "3 7 i, 0 7 i, 1 8 i+D, 5 7 i, 5 2 i, 5 8 i, 0 8 i, 4 8 i, "
         "9 2 i+D, 5 6 i, 4 6 i, 3 6 i, 9 8 i",
     [(0, 7), (3, 6), (5, 8)]),
    # a cost that went down: 5 -> 8, key (3, 5, 8), dies and comes back
    # at (4, 5, 8); its load key finds cost 2 and cancels it at once
    (10, "3 7 i, 0 7 i, 1 8 i+D, 5 9 i+D, 5 7 i, 5 2 i, 5 8 i, 3 2 D, "
         "0 8 i, 4 8 i, 5 6 i, 4 6 i, 3 6 i",
     [(0, 7), (4, 6), (5, 8)]),
    # a key stale upward twice: 10 -> 3 goes from its load key (1, 10, 3)
    # to (2, 10, 3) and then to (3, 10, 3), and is cancelled after
    # 6 -> 9, which comes back from its load key (2, 6, 9)
    (12, "4 8 i, 0 8 i, 1 9 D, 6 8 i, 6 3 i, 10 2 D, 6 9 i, 0 9 i, "
         "10 3 i, 11 9 i+D, 5 9 i, 6 7 i, 4 3 i, 5 7 i, 4 7 i",
     [(0, 8), (5, 7), (6, 9), (10, 3)]),
    # equal keys: 10 -> 9 becomes D when 1 -> 12 is cancelled and i
    # again when 4 -> 11 is, which pushes (2, 10, 9), its load key, still
    # in the run; 6 -> 9 comes back from its load key (2, 6, 9) and is
    # cancelled before 10 -> 9 could be
    (13, "4 8 i+D, 4 11 i, 0 8 i, 1 12 i, 1 9 i+D, 10 2 i, 6 8 i, 6 3 i, "
         "6 9 i, 4 3 D, 10 9 i, 0 9 i, 5 9 i, 6 7 i, 5 7 i, 10 12 i, "
         "10 11 i, 6 2 i",
     [(1, 12), (5, 7), (0, 8), (4, 11), (6, 9)]),
    # the bucket drop: (0, 1, 2) and (0, 1, 4) rise to cost 2 and wait in
    # its bucket; cancelling 5 -> 2 at (1, 5, 2) sums 1 -> 4 to zero, and
    # bucket 2, as it becomes the heap, drops (2, 1, 2), whose target is
    # cancelled, and keeps (2, 1, 4), whose arrow is gone but whose ends
    # live, as fill-in could make that arrow again
    (7, "1 4 i, 1 2 i, 1 6 D, 5 4 i, 5 2 i", [(5, 2)]),
], ids=["comes-back", "cost-down", "stale-twice", "equal-keys",
        "bucket-drop"])
def test_hand_built_cases_are_reduced_as_the_reference(n, arrows, cancelled):
    adj, ref = _loaded(n, arrows), _loaded(n, arrows)
    assert cancelled_by(dstruct.Adjacency.eliminate, adj) == \
        cancelled_by(reference_eliminate, ref) == cancelled
    assert adj.out == ref.out and adj.inn == ref.inn
