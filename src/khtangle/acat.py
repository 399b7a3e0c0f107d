"""The twelve-generator A-infinity category of the two figure-eight objects.

Two objects L0, L1; morphism spaces spanned by a_i, b_i, c_i, d_i
(endomorphisms of L_i) and p01, q01 (from L1 to L0), p10, q10 (from L0
to L1).  The only non-vanishing operations are mu2 and mu3, given by
one finite lookup table keyed by the input sequence.  mu2(x, y)
composes as "y then x".

The table ships as a plain-text data file (one line per non-zero
product) so the relation checker can be pointed at mutated tables.
"""

from __future__ import annotations

import importlib.resources

from . import f2
from .algebra import FILLED, HOLLOW, FLAVOR_BT, idem, spow

GENERATORS = (
    "a0", "b0", "c0", "d0",
    "a1", "b1", "c1", "d1",
    "p01", "q01", "p10", "q10",
)

# src/dst object indices: mu2(x, y) requires src(x) == dst(y) and lands
# in morphisms with src(y), dst(x).
_HOM = {
    "a0": (0, 0), "b0": (0, 0), "c0": (0, 0), "d0": (0, 0),
    "a1": (1, 1), "b1": (1, 1), "c1": (1, 1), "d1": (1, 1),
    "p01": (1, 0), "q01": (1, 0),
    "p10": (0, 1), "q10": (0, 1),
}

UNITS = {0: "a0", 1: "a1"}


def src(x):
    return _HOM[x][0]


def dst(x):
    return _HOM[x][1]


def composable(seq):
    """Composability of (x_n, ..., x_1): x_1 is applied first."""
    return all(src(seq[i]) == dst(seq[i + 1]) for i in range(len(seq) - 1))


def parse_tables(lines) -> dict:
    """The table lines as one dict {(x_n, ..., x_1): frozenset of outputs}.

    Keys are composable pairs and triples; every other sequence has
    mu = 0, so readers look values up with `tables.get(seq, f2.ZERO)`.
    """
    tables = {}
    for raw in lines:
        raw = raw.rstrip("\r\n")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, arrow, out = line.partition("->")
        op, *seq = head.split() or [""]
        outs = out.split()
        if not arrow:
            raise ValueError(f"no '->' in {raw!r}")
        if (op, len(seq)) not in (("mu2", 2), ("mu3", 3)):
            raise ValueError(f"bad table line: {raw!r}")
        for g in seq + outs:
            if g not in _HOM:
                raise ValueError(f"unknown generator {g!r} in {raw!r}")
        if not composable(seq):
            raise ValueError(f"inputs are not composable in {raw!r}")
        # mu(x_n, ..., x_1) maps src(x_1) to dst(x_n)
        hom = (src(seq[-1]), dst(seq[0]))
        for i, g in enumerate(outs):
            if _HOM[g] != hom:
                raise ValueError(f"output {g!r} is not in Hom{hom} in {raw!r}")
            if g in outs[:i]:
                raise ValueError(f"repeated output {g!r} in {raw!r}")
        key = tuple(seq)
        if key in tables:
            raise ValueError(f"repeated entry {op} {' '.join(seq)} in {raw!r}")
        tables[key] = frozenset(outs)
    return tables


def load_tables(path=None) -> dict:
    if path is not None:
        with open(path) as fh:
            return parse_tables(fh)
    text = importlib.resources.files("khtangle.data").joinpath(
        "mu_tables.txt").read_text()
    return parse_tables(text.splitlines())


def composable_sequences(length, generators=GENERATORS):
    """All composable tuples (x_n, ..., x_1) of the given length."""
    by_dst = {}
    for g in generators:
        by_dst.setdefault(dst(g), []).append(g)
    seqs = [(g,) for g in generators]
    for _ in range(length - 1):
        seqs = [s + (g,) for s in seqs for g in by_dst[src(s[-1])]]
    return seqs


def count_sequences(length, generators=GENERATORS):
    """len(composable_sequences(length, generators)), without the tuples."""
    # ends[o]: how many sequences have their last entry starting at o
    ends = [sum(src(g) == o for g in generators) for o in (0, 1)]
    for _ in range(length - 1):
        ends = [sum(ends[dst(g)] for g in generators if src(g) == o)
                for o in (0, 1)]
    return sum(ends)


def expansions(keys, tables):
    """Every (seq, key) such that an inner mu contracts a block of seq to key.

    seq is key with one entry key[i] replaced by a block whose mu
    contains key[i]; a block has the Hom type of its output, so seq is
    composable whenever key is.
    """
    producers = {}   # {output: [blocks whose mu contains it]}
    for block, outs in tables.items():
        for g in outs:
            producers.setdefault(g, []).append(block)
    for key in keys:
        for i, g in enumerate(key):
            for block in producers.get(g, ()):
                yield key[:i] + block + key[i + 1:], key


def relation_defects(terms, max_len, generators=GENERATORS):
    """The non-zero sums, per sequence, of a relation's (seq, f2 vector) terms.

    Only sequences of length <= max_len with entries in generators count.
    Every composable one is covered: a sequence no term reaches has
    defect zero.  Returns [(seq, defect)] in composable_sequences order:
    by length, then by the positions of the entries in generators.
    """
    pos = {g: i for i, g in enumerate(generators)}
    acc = {}
    for seq, value in terms:
        if len(seq) <= max_len and all(g in pos for g in seq):
            acc[seq] = acc.get(seq, f2.ZERO) ^ value
    return sorted(((seq, v) for seq, v in acc.items() if v),
                  key=lambda item: (len(item[0]), [pos[g] for g in item[0]]))


def verify_ainfty(tables, max_len=5, generators=GENERATORS):
    """Violating sequences of the A-infinity relations, lengths 3..max_len.

    The relation on a sequence sums, over every block contracted by an
    inner mu, the outer mu of the contracted sequence.
    """
    terms = ((seq, tables[key]) for seq, key in expansions(tables, tables))
    return [seq for seq, _ in relation_defects(terms, max_len, generators)]


def verify_units(tables):
    """Generators x failing mu2(1_dst(x), x) = {x} = mu2(x, 1_src(x))."""
    return [("unit", x) for x in GENERATORS
            if tables.get((UNITS[dst(x)], x)) != {x}
            or tables.get((x, UNITS[src(x)])) != {x}]


# --- the associative subalgebra on a, c, p generators -------------------

SUB_GENERATORS = ("a0", "c0", "a1", "c1", "p01", "p10")


def verify_subalgebra(tables):
    """The a/c/p subalgebra is closed under mu2 and has no mu3.

    Returns the list of violations (closure failures or non-zero mu3 on
    triples from the subalgebra), expected empty.
    """
    sub = set(SUB_GENERATORS)
    bad = []
    for seq in composable_sequences(2, SUB_GENERATORS):
        if not tables.get(seq, f2.ZERO) <= sub:
            bad.append(("mu2-closure",) + seq)
    for seq in composable_sequences(3, SUB_GENERATORS):
        if tables.get(seq):
            bad.append(("mu3-nonzero",) + seq)
    bad.extend(("ainfty",) + s for s in verify_ainfty(tables, 5, SUB_GENERATORS))
    return bad


# --- dictionary with the quotient quiver algebra ------------------------

# quotient-algebra monomial -> a/c/p generator; FILLED is L0, HOLLOW L1
BT_TO_SUB = {
    idem(FILLED, FLAVOR_BT): "a0",
    idem(HOLLOW, FLAVOR_BT): "a1",
    spow(2, FILLED, FLAVOR_BT): "c0",
    spow(2, HOLLOW, FLAVOR_BT): "c1",
    spow(1, HOLLOW, FLAVOR_BT): "p01",
    spow(1, FILLED, FLAVOR_BT): "p10",
}


def bt_to_sub(x):
    """The a/c/p generators of a quotient-algebra element, as an f2
    vector of generator names."""
    return frozenset(BT_TO_SUB[t] for t in x.monomials())
