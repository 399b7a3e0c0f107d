import itertools

from khtangle import algebra, cones, f2
from khtangle.algebra import FILLED, HOLLOW
from khtangle.cones import BasisName
from test_tangles import run_python


def all_names(max_index):
    out = []
    for family in cones.ENDO_FAMILIES + cones.CROSS_FAMILIES:
        lo = 0 if family in ("A", "B") else 1
        subs = ("0", "1") if family in cones.ENDO_FAMILIES else ("01", "10")
        for index in range(lo, max_index + 1):
            for sub in subs:
                for hatted in (False, True):
                    out.append(BasisName(family, hatted, index, sub))
    return out


def basis_mors(max_index):
    return [cones.to_positional(n) for n in all_names(max_index)]


def test_diff_squares_to_zero():
    for f in basis_mors(10):
        assert cones.diff_C(cones.diff_C(f)).is_zero(), str(f)


def test_diff_is_linear_and_leibniz():
    mors = basis_mors(4)
    for f, g in itertools.product(mors, repeat=2):
        if f.dst != g.src:
            continue
        fg = cones.compose_C(f, g)
        lhs = cones.diff_C(fg)
        rhs = (cones.compose_C(cones.diff_C(f), g)
               + cones.compose_C(f, cones.diff_C(g)))
        assert lhs == rhs, (str(f), str(g))


def test_compose_associative_and_unital():
    mors = basis_mors(4)
    for f in mors:
        assert cones.compose_C(cones.identity_mor(f.src), f) == f
        assert cones.compose_C(f, cones.identity_mor(f.dst)) == f
    for f, g, h in itertools.product(mors[:20], mors[:20], mors[:20]):
        if f.dst != g.src or g.dst != h.src:
            continue
        assert (cones.compose_C(cones.compose_C(f, g), h)
                == cones.compose_C(f, cones.compose_C(g, h)))


def test_named_basis_is_linearly_independent():
    # the names are a basis of their span, so the notation is unambiguous
    rows = [f.terms for f in basis_mors(10)]
    assert f2.rank(rows) == len(rows)


def test_plain_families_are_cycles_hatted_are_not():
    for name in all_names(5):
        f = cones.to_positional(name)
        if name.hatted:
            assert not cones.diff_C(f).is_zero(), str(name)
        else:
            assert cones.diff_C(f).is_zero(), str(name)


def test_homology_dims():
    endo0 = cones.homology_dims(FILLED, FILLED, 10)
    endo1 = cones.homology_dims(HOLLOW, HOLLOW, 10)
    cross = cones.homology_dims(FILLED, HOLLOW, 10)
    cross2 = cones.homology_dims(HOLLOW, FILLED, 10)
    for endo in (endo0, endo1):
        assert endo[0] == 2 and endo[2] == 2
        assert all(v == 0 for w, v in endo.items() if w not in (0, 2))
    for cr in (cross, cross2):
        assert cr[1] == 2
        assert all(v == 0 for w, v in cr.items() if w != 1)


def test_in_subcategory_examples():
    assert cones.in_subcategory(cones.to_positional(BasisName("C", False, 1, "0")))
    assert cones.in_subcategory(cones.to_positional(BasisName("P", True, 1, "10")))
    assert not cones.in_subcategory(cones.to_positional(BasisName("B", False, 0, "0")))
    assert not cones.in_subcategory(cones.to_positional(BasisName("D", True, 2, "1")))
    assert cones.in_subcategory(cones.zero_mor(FILLED, HOLLOW))


def weight(name):
    return cones._family_monomial(name).max_weight


def test_in_subcategory_follows_the_family_rule():
    # the subcategory is spanned by the A, C and P forms, plain or hatted
    names = [n for n in all_names(5) if weight(n) <= 8]
    for n in names:
        assert cones.in_subcategory(cones.to_positional(n)) == (
            n.family in "ACP"), str(n)
    for n, m in itertools.combinations(names, 2):
        if (n.src, n.dst) == (m.src, m.dst):
            f = cones.combo_to_positional((n, m), n.src, n.dst)
            assert cones.in_subcategory(f) == (
                n.family in "ACP" and m.family in "ACP"), (str(n), str(m))


def test_homology_class_rank_examples():
    # identity and the weight-2 cycles represent independent classes
    a0 = cones.to_positional(BasisName("A", False, 0, "0"))
    b0 = cones.to_positional(BasisName("B", False, 0, "0"))
    assert cones.homology_class_rank(FILLED, FILLED, [a0, b0], 0) == 2
    c1 = cones.to_positional(BasisName("C", False, 1, "0"))
    d1 = cones.to_positional(BasisName("D", False, 1, "0"))
    assert cones.homology_class_rank(FILLED, FILLED, [c1, d1], 2) == 2
    # C1 + A1 bounds the hatted identity, so the two are homologous
    a1 = cones.to_positional(BasisName("A", False, 1, "0"))
    assert cones.homology_class_rank(FILLED, FILLED, [c1, a1], 2) == 1
    # a boundary represents the zero class
    bdry = cones.diff_C(cones.to_positional(BasisName("A", True, 0, "0")))
    assert cones.homology_class_rank(FILLED, FILLED, [bdry], 2) == 0


def test_bad_algebra_is_refused_under_python_O():
    # each of these once got past an assert under -O: a sum of two
    # flavours, S^0, an object mismatch in composition, a bad slot, ...
    code = """
        from khtangle import algebra, cones
        from khtangle.algebra import FILLED, HOLLOW, FLAVOR_BT
        s1, s1_bt = algebra.spow(1, FILLED), algebra.spow(1, FILLED, FLAVOR_BT)
        ident = cones.identity_mor
        bad = {
            "sum": lambda: s1 + s1_bt,
            "product": lambda: s1 * s1_bt,
            "S^0": lambda: algebra.spow(0, FILLED),
            "D^0": lambda: algebra.dpow(0, FILLED),
            "h_mul": lambda: algebra.h_mul(s1_bt),
            "slot": lambda: cones.ConeMorphism(
                FILLED, FILLED, frozenset([("xx", algebra.idem(FILLED))])),
            "term": lambda: cones.ConeMorphism(
                FILLED, HOLLOW, frozenset([("tt", algebra.idem(FILLED))])),
            "add": lambda: ident(FILLED) + ident(HOLLOW),
            "compose": lambda: cones.compose_C(ident(FILLED), ident(HOLLOW)),
            "family": lambda: cones.BasisName("E", False, 0, "0"),
            "index": lambda: cones.BasisName("C", False, 0, "0"),
            "sub": lambda: cones.BasisName("P", False, 1, "0"),
        }
        for name, make in bad.items():
            try:
                print(name, "made", make())
            except ValueError:
                print(name, "refused")
    """
    names = ["sum", "product", "S^0", "D^0", "h_mul", "slot", "term", "add",
             "compose", "family", "index", "sub"]
    for flags in ((), ("-O",)):
        assert run_python(code, *flags).splitlines() == [
            f"{name} refused" for name in names], flags
