"""The A-infinity functor from the twelve-generator category to the cones.

Objects map L0 to the filled cone and L1 to the hollow cone.  The
length-1 action sends each generator to the matching plain basis family;
the length-2 and length-3 actions are finite tables of hatted
corrections.  All actions of length >= 4 vanish.  The functor relations
are verified exhaustively on composable sequences up to length six.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import acat, cones, f2
from .acat import GENERATORS, SUB_GENERATORS, composable_sequences, dst, src
from .algebra import Vertex

OBJECTS = {0: Vertex.FILLED, 1: Vertex.HOLLOW}


def _n(family, hatted, index, sub):
    return cones.BasisName(family, hatted, index, sub)


F1_TABLE = {
    "a0": [_n("A", False, 0, "0")], "a1": [_n("A", False, 0, "1")],
    "b0": [_n("B", False, 0, "0")], "b1": [_n("B", False, 0, "1")],
    "c0": [_n("C", False, 1, "0")], "c1": [_n("C", False, 1, "1")],
    "d0": [_n("D", False, 1, "0")], "d1": [_n("D", False, 1, "1")],
    "p01": [_n("P", False, 1, "01")], "p10": [_n("P", False, 1, "10")],
    "q01": [_n("Q", False, 1, "01")], "q10": [_n("Q", False, 1, "10")],
}

# keys are sequences (x2, x1) with x1 applied first.
F2_TABLE = {
    ("p01", "p10"): [_n("A", True, 0, "0")],
    ("p10", "p01"): [_n("A", True, 0, "1")],
    ("c0", "c0"): [_n("C", True, 1, "0")],
    ("c1", "c1"): [_n("C", True, 1, "1")],
    ("q01", "p10"): [_n("B", True, 0, "0")],
    ("q10", "p01"): [_n("B", True, 0, "1")],
    ("p01", "q10"): [_n("B", True, 0, "0")],
    ("p10", "q01"): [_n("A", False, 0, "1"), _n("B", True, 0, "1")],
    ("d0", "c0"): [_n("D", True, 1, "0")],
    ("d1", "c1"): [_n("D", True, 1, "1")],
    ("c0", "d0"): [_n("C", False, 1, "0"), _n("D", True, 1, "0")],
    ("c1", "d1"): [_n("C", False, 1, "1"), _n("D", True, 1, "1")],
}

F3_TABLE = {
    ("c0", "d0", "c0"): [_n("C", True, 1, "0")],
    ("c1", "d1", "c1"): [_n("C", True, 1, "1")],
}


@dataclass(frozen=True)
class FunctorTables:
    f1: dict = field(default_factory=lambda: dict(F1_TABLE))
    f2: dict = field(default_factory=lambda: dict(F2_TABLE))
    f3: dict = field(default_factory=lambda: dict(F3_TABLE))


def default_tables():
    return FunctorTables()


def seq_endpoints(seq):
    """(source object, target object) of a composable sequence."""
    return src(seq[-1]), dst(seq[0])


def apply_F(tables: FunctorTables, seq) -> cones.ConeMorphism:
    """Evaluate the functor action on a composable sequence."""
    s, d = seq_endpoints(seq)
    zero = cones.zero_mor(OBJECTS[s], OBJECTS[d])
    if not acat.composable(seq):
        return zero
    table = {1: tables.f1, 2: tables.f2, 3: tables.f3}.get(len(seq))
    if table is None:
        return zero
    key = seq[0] if len(seq) == 1 else tuple(seq)
    names = table.get(key, ())
    return cones.combo_to_positional(names, OBJECTS[s], OBJECTS[d])


def _checker(tables, mu_tables):
    """An evaluator of the functor relation defect by table lookup.

    F vanishes off its table keys, all of length <= 3, so only blocks
    contracting to a key and splits into two keys contribute.
    """
    keys = [(g,) for g in tables.f1] + list(tables.f2) + list(tables.f3)
    F = {seq: apply_F(tables, seq) for seq in keys}
    vec = {seq: cones._mor_to_vec(f) for seq, f in F.items()}
    diff = {seq: cones._mor_to_vec(cones.diff_C(f)) for seq, f in F.items()}
    # "earlier then later", for every pair that composes
    comp = {(later, earlier): cones._mor_to_vec(cones.compose_C(fe, fl))
            for later, fl in F.items() for earlier, fe in F.items()
            if src(later[-1]) == dst(earlier[0])}

    def defect(seq):
        n = len(seq)
        acc = f2.ZERO
        # source-side: contract a block with an inner operation, apply F
        for ln in (2, 3):
            if n - ln + 1 > 3:
                continue
            for i in range(n - ln + 1):
                for g in mu_tables.mu(seq[i:i + ln]):
                    acc = acc ^ vec.get(seq[:i] + (g,) + seq[i + ln:],
                                        f2.ZERO)
        # target-side: differential of F, plus all two-block splittings
        acc = acc ^ diff.get(seq, f2.ZERO)
        for i in range(max(1, n - 3), min(n, 4)):
            acc = acc ^ comp.get((seq[:i], seq[i:]), f2.ZERO)
        return acc

    return defect


def verify_functor(tables=None, max_len=6, mu_tables=None,
                   stop_at_first=False):
    """Violations of the functor relations, lengths 1..max_len.

    Returns ([(sequence, defect)], sequences checked); a defect is the
    non-zero relation value as an f2 vector of cone basis keys.
    """
    tables = tables or default_tables()
    mu_tables = mu_tables or acat.load_tables()
    defect = _checker(tables, mu_tables)
    violations = []
    checked = 0
    for n in range(1, max_len + 1):
        for seq in composable_sequences(n):
            checked += 1
            value = defect(seq)
            if value:
                violations.append((seq, value))
                if stop_at_first:
                    return violations, checked
    return violations, checked


# --- mutation suite ------------------------------------------------------

def table_mutations(tables=None):
    """All single-entry mutations: each f2/f3 entry deleted or redirected."""
    tables = tables or default_tables()
    muts = []
    for attr in ("f2", "f3"):
        table = getattr(tables, attr)
        for key, value in table.items():
            without = {k: v for k, v in table.items() if k != key}
            muts.append((f"delete {attr}{key}",
                         _replace_table(tables, attr, without)))
            # redirect: flip the hat on the first named family
            flipped = [cones.BasisName(value[0].family, not value[0].hatted,
                                       value[0].index, value[0].sub)]
            redirected = dict(table)
            redirected[key] = flipped + list(value[1:])
            muts.append((f"redirect {attr}{key}",
                         _replace_table(tables, attr, redirected)))
    return muts


def _replace_table(tables, attr, new):
    parts = {"f1": tables.f1, "f2": tables.f2, "f3": tables.f3}
    parts[attr] = new
    return FunctorTables(**parts)


# --- quasi-isomorphism check ---------------------------------------------

def verify_quasi_iso(max_weight=10, tables=None):
    """Homology-level check of the functor.

    Confirms that the length-1 images are cycles whose classes form a
    basis of the truncated homology of every morphism space, and that
    the restricted functor lands in the subcategory.
    """
    assert max_weight >= 4
    tables = tables or default_tables()
    report = {"failures": [], "dims": {}}
    for g in GENERATORS:
        if not cones.diff_C(apply_F(tables, (g,))).is_zero():
            report["failures"].append(f"F1({g}) is not a cycle")

    spaces = {(s, d): [g for g in GENERATORS if src(g) == s and dst(g) == d]
              for s in (0, 1) for d in (0, 1)}
    for (s, d), gens in spaces.items():
        vs, vd = OBJECTS[s], OBJECTS[d]
        dims = cones.homology_dims(vs, vd, max_weight)
        report["dims"][s, d] = dims
        expected_weights = (0, 2) if s == d else (1,)
        for w, dim in dims.items():
            if w not in expected_weights and dim != 0:
                report["failures"].append(
                    f"unexpected homology in Hom({s},{d}) at weight {w}")
        for w in expected_weights:
            cycles = [apply_F(tables, (g,)) for g in gens
                      if _image_weight(tables, g) == w]
            r = cones.homology_class_rank(vs, vd, cycles, w)
            if r != len(cycles) or r != dims[w]:
                report["failures"].append(
                    f"F1 classes not a basis in Hom({s},{d}) weight {w}")

    for n in range(1, 4):
        for seq in composable_sequences(n, SUB_GENERATORS):
            if not cones.in_subcategory(apply_F(tables, seq)):
                report["failures"].append(
                    f"restricted image of {seq} leaves the subcategory")
    report["pass"] = not report["failures"]
    return report


def _image_weight(tables, g):
    f = apply_F(tables, (g,))
    return max(getattr(f, s).max_weight() for s in cones.SLOTS)
