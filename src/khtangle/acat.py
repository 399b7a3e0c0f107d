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


def ainfty_defect(tables, seq):
    """The A-infinity relation evaluated on one composable sequence.

    Sum over all ways of applying an inner mu to a consecutive block and
    the outer mu to the contracted sequence; zero iff the relation holds.
    """
    n = len(seq)
    acc = f2.ZERO
    for ln in (2, 3):
        for i in range(n - ln + 1):
            inner = tables.get(seq[i:i + ln], f2.ZERO)
            for g in inner:
                outer_seq = seq[:i] + (g,) + seq[i + ln:]
                acc = acc ^ tables.get(outer_seq, f2.ZERO)
    return acc


def verify_ainfty(tables, max_len=5, generators=GENERATORS):
    """Violating sequences of the A-infinity relations, lengths 3..max_len."""
    violations = []
    for n in range(3, max_len + 1):
        for seq in composable_sequences(n, generators):
            if ainfty_defect(tables, seq):
                violations.append(seq)
    return violations


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

def bt_to_sub(x):
    """Translate a quotient-algebra element to the a/c/p subalgebra.

    Input is a BElem of the H=0 flavor; output an f2 vector of generator
    names.  FILLED corresponds to L0, HOLLOW to L1.
    """
    from .algebra import FILLED, HOLLOW, FLAVOR_BT, idem, spow

    out = set()
    table = {
        idem(FILLED, FLAVOR_BT): "a0",
        idem(HOLLOW, FLAVOR_BT): "a1",
        spow(2, FILLED, FLAVOR_BT): "c0",
        spow(2, HOLLOW, FLAVOR_BT): "c1",
        spow(1, HOLLOW, FLAVOR_BT): "p01",
        spow(1, FILLED, FLAVOR_BT): "p10",
    }
    for t in x.monomials():
        out ^= {table[t]}
    return frozenset(out)
