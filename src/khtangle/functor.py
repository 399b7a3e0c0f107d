"""The A-infinity functor from the twelve-generator category to the cones.

Objects map L0 to the filled cone and L1 to the hollow cone.  One table,
keyed by the input sequence, holds the whole action: length 1 sends each
generator to the matching plain basis family, lengths 2 and 3 are hatted
corrections, and every other sequence maps to zero.  The functor relations
are verified on every composable sequence up to length six: each term of
a relation is added to the sequence it belongs to, and a sequence that
no term reaches has defect zero.
"""

from __future__ import annotations

import itertools

from . import acat, cones
from .acat import GENERATORS, SUB_GENERATORS, composable_sequences, dst, src


def _n(family, hatted, index, sub):
    return cones.BasisName(family, hatted, index, sub)


# keys are composable sequences (x_n, ..., x_1) with x_1 applied first
F_TABLE = {
    ("a0",): [_n("A", False, 0, "0")], ("a1",): [_n("A", False, 0, "1")],
    ("b0",): [_n("B", False, 0, "0")], ("b1",): [_n("B", False, 0, "1")],
    ("c0",): [_n("C", False, 1, "0")], ("c1",): [_n("C", False, 1, "1")],
    ("d0",): [_n("D", False, 1, "0")], ("d1",): [_n("D", False, 1, "1")],
    ("p01",): [_n("P", False, 1, "01")], ("p10",): [_n("P", False, 1, "10")],
    ("q01",): [_n("Q", False, 1, "01")], ("q10",): [_n("Q", False, 1, "10")],
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
    ("c0", "d0", "c0"): [_n("C", True, 1, "0")],
    ("c1", "d1", "c1"): [_n("C", True, 1, "1")],
}


def default_tables():
    return dict(F_TABLE)


def apply_F(tables, seq) -> cones.ConeMorphism:
    """Evaluate the functor action on a sequence; zero off the table."""
    return cones.combo_to_positional(tables.get(tuple(seq), ()),
                                     cones.OBJECTS[src(seq[-1])],
                                     cones.OBJECTS[dst(seq[0])])


def verify_functor(tables=None, max_len=6, mu_tables=None):
    """Violations of the functor relations, lengths 1..max_len.

    The relation on a sequence sums F of every contraction by an inner
    mu, the differential of F, and the composite of F on every split
    into an earlier and a later part.

    Returns ([(sequence, defect)], sequences covered); a defect is the
    non-zero relation value as an f2 vector of (slot, monomial) terms.
    """
    if tables is None:
        tables = default_tables()
    if mu_tables is None:
        mu_tables = acat.load_tables()
    F = {seq: apply_F(tables, seq) for seq in tables}
    terms = itertools.chain(
        # source side: contract a block with an inner operation, apply F
        ((seq, F[key].terms) for seq, key in acat.expansions(F, mu_tables)),
        # target side: differential of F, and F on "earlier then later"
        ((seq, cones.diff_C(f).terms) for seq, f in F.items()),
        ((later + earlier, cones.compose_C(fe, fl).terms)
         for later, fl in F.items() for earlier, fe in F.items()
         if src(later[-1]) == dst(earlier[0])))
    checked = sum(map(acat.count_sequences, range(1, max_len + 1)))
    return acat.relation_defects(terms, max_len), checked


# --- mutation suite ------------------------------------------------------

def table_mutations(tables=None):
    """All single-entry mutations: each entry of length 2 or 3 deleted or
    redirected."""
    if tables is None:
        tables = default_tables()
    muts = []
    for key, value in tables.items():
        if len(key) == 1:
            continue
        muts.append((f"delete f{len(key)}{key}",
                     {k: v for k, v in tables.items() if k != key}))
        # redirect: flip the hat on the first named family
        flipped = cones.BasisName(value[0].family, not value[0].hatted,
                                  value[0].index, value[0].sub)
        muts.append((f"redirect f{len(key)}{key}",
                     {**tables, key: [flipped] + list(value[1:])}))
    return muts


# --- quasi-isomorphism check ---------------------------------------------

def verify_quasi_iso(max_weight=10, tables=None):
    """Homology-level check of the functor.

    Confirms that the length-1 images are cycles whose classes form a
    basis of the truncated homology of every morphism space, and that
    the restricted functor lands in the subcategory.  A max_weight below
    4 raises the ValueError of `cones.homology_dims`.
    """
    if tables is None:
        tables = default_tables()
    report = {"failures": [], "dims": {}}
    for g in GENERATORS:
        if not cones.diff_C(apply_F(tables, (g,))).is_zero():
            report["failures"].append(f"F1({g}) is not a cycle")

    spaces = {(s, d): [g for g in GENERATORS if src(g) == s and dst(g) == d]
              for s in (0, 1) for d in (0, 1)}
    for (s, d), gens in spaces.items():
        vs, vd = cones.OBJECTS[s], cones.OBJECTS[d]
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
    return max((t.max_weight for _, t in apply_F(tables, (g,)).terms),
               default=0)
