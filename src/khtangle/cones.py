"""The dg category of the two H-cones over the quiver algebra.

Objects are the mapping cones [v -> H -> v] for the two vertices; a
morphism between cones is a 2x2 matrix of algebra elements, stored in
four positional slots TT, TB, BT, BB (top/bottom of source to
top/bottom of target).  The differential commutes the single H-labeled
cone arrow past the morphism.  A named basis organizes the morphism
spaces into six plain families (cycles) and six hatted families; it is
input notation, which `to_positional` writes into the slots.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra, f2
from .algebra import BElem, Vertex, FLAVOR_B

SLOTS = ("tt", "tb", "bt", "bb")


def _zero():
    return algebra.zero(FLAVOR_B)


@dataclass(frozen=True)
class ConeMorphism:
    src: Vertex
    dst: Vertex
    tt: BElem
    tb: BElem
    bt: BElem
    bb: BElem

    def __post_init__(self):
        for slot in SLOTS:
            label = getattr(self, slot)
            assert label.runs(self.src, self.dst), \
                f"{slot} label {label} does not run src -> dst"

    def is_zero(self):
        return all(getattr(self, s).is_zero() for s in SLOTS)

    def __add__(self, other):
        assert (self.src, self.dst) == (other.src, other.dst)
        return ConeMorphism(self.src, self.dst,
                            *(getattr(self, s) + getattr(other, s)
                              for s in SLOTS))

    def __str__(self):
        parts = [f"{s}:{getattr(self, s)}" for s in SLOTS
                 if not getattr(self, s).is_zero()]
        return " ".join(parts) or "0"


def zero_mor(src: Vertex, dst: Vertex) -> ConeMorphism:
    z = _zero()
    return ConeMorphism(src, dst, z, z, z, z)


def identity_mor(v: Vertex) -> ConeMorphism:
    i, z = algebra.idem(v), _zero()
    return ConeMorphism(v, v, i, z, z, i)


def compose_C(f: ConeMorphism, g: ConeMorphism) -> ConeMorphism:
    """Composite "f then g" by 2x2 matrix multiplication."""
    assert f.dst == g.src, "object mismatch in composition"
    return ConeMorphism(
        f.src, g.dst,
        f.tt * g.tt + f.tb * g.bt,
        f.tt * g.tb + f.tb * g.bb,
        f.bt * g.tt + f.bb * g.bt,
        f.bt * g.tb + f.bb * g.bb,
    )


def diff_C(f: ConeMorphism) -> ConeMorphism:
    """Commutator with the H-labeled cone arrows of source and target.

    H is central, so every term is multiplication by H in the
    appropriate slot; the BT slot maps into TT, BB and the diagonal
    slots into TB.
    """
    return ConeMorphism(
        f.src, f.dst,
        algebra.h_mul(f.bt),
        algebra.h_mul(f.tt + f.bb),
        _zero(),
        algebra.h_mul(f.bt),
    )


# --- the named basis ----------------------------------------------------

# families on endomorphism spaces: A, B (index k >= 0), C, D (l >= 1)
# families on cross spaces: P, Q (l >= 1); each plain or hatted.
ENDO_FAMILIES = ("A", "B", "C", "D")
CROSS_FAMILIES = ("P", "Q")

_SUB_TO_SRC = {"0": Vertex.FILLED, "1": Vertex.HOLLOW,
               "10": Vertex.FILLED, "01": Vertex.HOLLOW}


@dataclass(frozen=True)
class BasisName:
    family: str   # A, B, C, D, P, Q
    hatted: bool
    index: int    # k >= 0 for A/B, l >= 1 for C/D/P/Q
    sub: str      # "0" / "1" for endo families, "01" / "10" for P/Q

    def __post_init__(self):
        assert self.family in ENDO_FAMILIES + CROSS_FAMILIES
        assert self.index >= (0 if self.family in ("A", "B") else 1)
        assert self.sub in (("0", "1") if self.family in ENDO_FAMILIES
                            else ("01", "10"))

    @property
    def src(self):
        return _SUB_TO_SRC[self.sub]

    @property
    def dst(self):
        if self.family in ENDO_FAMILIES:
            return self.src
        return self.src.other()

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
    comps = {s: (mono if s in slots else _zero()) for s in SLOTS}
    return ConeMorphism(name.src, name.dst, **comps)


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
    return f.tb.is_zero() and f.bb is f.tt


# --- weight-truncated homology ------------------------------------------

def _weight_basis(src, dst, weight):
    """(slot, monomial) for the monomials src -> dst of the given weight."""
    monos = [t for t in algebra.monomials_between(src, dst, weight)
             if t.max_weight == weight]
    return [(slot, t) for slot in SLOTS for t in monos]


def _mor_to_vec(f: ConeMorphism):
    return frozenset((slot, t) for slot in SLOTS
                     for t in getattr(f, slot).monomials())


def _basis_mor(src, dst, slot, t):
    comps = {s: (t if s == slot else _zero()) for s in SLOTS}
    return ConeMorphism(src, dst, **comps)


def _diff_matrix(src, dst, weight):
    """Rows: images under the differential of the weight-w basis."""
    return [_mor_to_vec(diff_C(_basis_mor(src, dst, slot, t)))
            for slot, t in _weight_basis(src, dst, weight)]


def homology_dims(src: Vertex, dst: Vertex, max_weight: int):
    """Per-weight homology dimensions of Hom(cone(src), cone(dst))."""
    assert max_weight >= 4
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
    vecs = [_mor_to_vec(c) for c in cycles]
    return f2.rank(boundaries + vecs) - f2.rank(boundaries)
