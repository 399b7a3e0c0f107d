"""The dg category of the two H-cones over the quiver algebra.

Objects are the mapping cones [v -> H -> v] for the two vertices,
`OBJECTS[0]` filled and `OBJECTS[1]` hollow.  A morphism between cones
is a 2x2 matrix of algebra elements, held as the F2 vector of its terms
(slot, monomial): the slot is one of TT, TB, BT, BB (top/bottom of
source to top/bottom of target) and the monomial a one-term `BElem`.
Ranks, relation sums and defects read that vector as it is.  The
differential commutes the single H-labeled cone arrow past the
morphism.  A named basis organizes the morphism spaces into six plain
families (cycles) and six hatted families; it is input notation, which
`to_positional` writes into the slots.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra, f2
from .algebra import BElem, Vertex

OBJECTS = {0: Vertex.FILLED, 1: Vertex.HOLLOW}
SLOTS = ("tt", "tb", "bt", "bb")


@dataclass(frozen=True)
class ConeMorphism:
    src: Vertex
    dst: Vertex
    terms: frozenset   # of (slot, monomial), each monomial src -> dst

    def __post_init__(self):
        # raised, not asserted here and below: python -O too
        for slot, t in self.terms:
            if not (slot in SLOTS and t.runs(self.src, self.dst)):
                raise ValueError(f"{slot} term {t} does not run src -> dst")

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if (self.src, self.dst) != (other.src, other.dst):
            raise ValueError("object mismatch in sum")
        return ConeMorphism(self.src, self.dst, self.terms ^ other.terms)

    def __str__(self):
        return " ".join(f"{s}:{t}" for s, t in sorted(self.terms)) or "0"


def _sum(src, dst, terms):
    """The morphism of the terms that occur an odd number of times."""
    acc = set()
    for term in terms:
        acc ^= {term}
    return ConeMorphism(src, dst, frozenset(acc))


def zero_mor(src: Vertex, dst: Vertex) -> ConeMorphism:
    return ConeMorphism(src, dst, f2.ZERO)


def identity_mor(v: Vertex) -> ConeMorphism:
    i = algebra.idem(v)
    return ConeMorphism(v, v, frozenset([("tt", i), ("bb", i)]))


def compose_C(f: ConeMorphism, g: ConeMorphism) -> ConeMorphism:
    """Composite "f then g" by 2x2 matrix multiplication: a term of f in
    slot (a, b) times a term of g in slot (b, c) lands in slot (a, c)."""
    if f.dst != g.src:
        raise ValueError("object mismatch in composition")
    return _sum(f.src, g.dst, ((s[0] + r[1], m)
                               for s, x in f.terms for r, y in g.terms
                               if s[1] == r[0] for m in (x * y).monomials()))


# where the differential sends a term of each slot, times H
_D_SLOTS = {"bt": ("tt", "bb"), "tt": ("tb",), "bb": ("tb",), "tb": ()}


def diff_C(f: ConeMorphism) -> ConeMorphism:
    """Commutator with the H-labeled cone arrows of source and target.

    H is central, so every term is multiplication by H in the
    appropriate slot; the BT slot maps into TT and BB, the diagonal
    slots into TB.
    """
    return _sum(f.src, f.dst, ((r, m) for s, t in f.terms
                               for m in algebra.h_mul(t).monomials()
                               for r in _D_SLOTS[s]))


# --- the named basis ----------------------------------------------------

# families on endomorphism spaces: A, B (index k >= 0), C, D (l >= 1)
# families on cross spaces: P, Q (l >= 1); each plain or hatted.
ENDO_FAMILIES = ("A", "B", "C", "D")
CROSS_FAMILIES = ("P", "Q")


@dataclass(frozen=True)
class BasisName:
    family: str   # A, B, C, D, P, Q
    hatted: bool
    index: int    # k >= 0 for A/B, l >= 1 for C/D/P/Q
    sub: str      # "0" / "1" for endo families, "01" / "10" for P/Q

    def __post_init__(self):
        if not (self.family in ENDO_FAMILIES + CROSS_FAMILIES
                and self.index >= (0 if self.family in ("A", "B") else 1)
                and self.sub in (("0", "1") if self.family in ENDO_FAMILIES
                                 else ("01", "10"))):
            raise ValueError(f"no basis element {self!r}")

    # the subscript reads target then source, as a sequence does
    @property
    def src(self):
        return OBJECTS[int(self.sub[-1])]

    @property
    def dst(self):
        return OBJECTS[int(self.sub[0])]

    def __str__(self):
        hat = "^" if self.hatted else ""
        return f"{self.family}{hat}{self.index}_{self.sub}"


def _family_monomial(name: BasisName) -> BElem:
    v, k = name.src, name.index
    if name.family in ("A", "B"):
        return algebra.idem(v) if k == 0 else algebra.spow(2 * k, v)
    if name.family in ("C", "D"):
        return algebra.dpow(k, v)
    return algebra.spow(2 * k - 1, v)


# which positional slots a family occupies: diagonal families sit in
# TT and BB, off-diagonal in a single slot; hatting moves the morphism
# one step against the cone arrows.
_PLAIN_SLOTS = {"A": ("tt", "bb"), "C": ("tt", "bb"), "P": ("tt", "bb"),
                "B": ("tb",), "D": ("tb",), "Q": ("tb",)}
_HAT_SLOTS = {"A": ("bt",), "C": ("bt",), "P": ("bt",),
              "B": ("bb",), "D": ("bb",), "Q": ("bb",)}


def to_positional(name: BasisName) -> ConeMorphism:
    mono = _family_monomial(name)
    slots = (_HAT_SLOTS if name.hatted else _PLAIN_SLOTS)[name.family]
    return ConeMorphism(name.src, name.dst,
                        frozenset((s, mono) for s in slots))


def combo_to_positional(names, src: Vertex, dst: Vertex) -> ConeMorphism:
    out = zero_mor(src, dst)
    for n in names:
        out = out + to_positional(n)
    return out


def in_subcategory(f: ConeMorphism) -> bool:
    """Membership in the subcategory spanned by A, C, P (plain/hatted).

    The plain A/C/P forms fill TT and BB alike and the hatted ones BT,
    while every B/D/Q form puts a term in TB or in BB alone.
    """
    tt = {t for s, t in f.terms if s == "tt"}
    bb = {t for s, t in f.terms if s == "bb"}
    return tt == bb and all(s != "tb" for s, _ in f.terms)


# --- weight-truncated homology ------------------------------------------

def _weight_basis(src, dst, weight):
    """(slot, monomial) for the monomials src -> dst of the given weight."""
    monos = [t for t in algebra.monomials_between(src, dst, weight)
             if t.max_weight == weight]
    return [(slot, t) for slot in SLOTS for t in monos]


def _diff_matrix(src, dst, weight):
    """Rows: images under the differential of the weight-w basis."""
    return [diff_C(ConeMorphism(src, dst, frozenset([term]))).terms
            for term in _weight_basis(src, dst, weight)]


def homology_dims(src: Vertex, dst: Vertex, max_weight: int):
    """Per-weight homology dimensions of Hom(cone(src), cone(dst)), for
    weights up to max_weight, which must be at least 4."""
    # raised, not asserted: python -O too
    if max_weight < 4:
        raise ValueError(f"max_weight {max_weight} is below 4")
    dims = {}
    ranks = {w: f2.rank(_diff_matrix(src, dst, w))
             for w in range(-2, max_weight + 1)}
    for w in range(max_weight + 1):
        d = len(_weight_basis(src, dst, w))
        dims[w] = d - ranks[w] - ranks.get(w - 2, 0)
    return dims


def homology_class_rank(src, dst, cycles, weight):
    """Rank of the span of the given cycles in weight-w homology."""
    boundaries = [row for row in _diff_matrix(src, dst, weight - 2) if row]
    vecs = [c.terms for c in cycles]
    return f2.rank(boundaries + vecs) - f2.rank(boundaries)
