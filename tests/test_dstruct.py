import pytest

from khtangle import algebra, dstruct
from khtangle.algebra import FILLED, HOLLOW, FLAVOR_B


def two_step_bad():
    m = dstruct.TypeDStructure(FLAVOR_B)
    m.add_gen("x", FILLED, 0)
    m.add_gen("y", HOLLOW, 1)
    m.add_gen("z", FILLED, 2)
    m.add_arrow("x", "y", algebra.spow(1, FILLED))
    m.add_arrow("y", "z", algebra.spow(1, HOLLOW))
    return m


def test_check_d_squared():
    m = dstruct.TypeDStructure(FLAVOR_B)
    assert dstruct.check_d_squared(m) == []
    m.add_gen("a", FILLED, 0)
    m.add_gen("b", FILLED, 1)
    m.add_arrow("a", "b", algebra.h_elem(FILLED))
    assert dstruct.check_d_squared(m) == []
    assert dstruct.check_d_squared(two_step_bad()) == [("x", "z")]


def test_arrow_accumulation_cancels():
    m = dstruct.TypeDStructure(FLAVOR_B)
    m.add_gen("a", FILLED, 0)
    m.add_gen("b", FILLED, 1)
    m.add_arrow("a", "b", algebra.dpow(1, FILLED))
    m.add_arrow("a", "b", algebra.dpow(1, FILLED))
    assert m.arrows == {}


def test_arrow_validation():
    m = dstruct.TypeDStructure(FLAVOR_B)
    m.add_gen("a", FILLED, 0)
    m.add_gen("b", FILLED, 0)
    with pytest.raises(AssertionError):
        m.add_arrow("a", "b", algebra.dpow(1, FILLED))  # hdeg not +1
    m.add_gen("c", HOLLOW, 1)
    with pytest.raises(AssertionError):
        m.add_arrow("a", "c", algebra.dpow(1, FILLED))  # endpoint mismatch


def test_arrow_validation_reads_both_endpoints():
    # S from FILLED ends at HOLLOW: the label check of one endpoint pair
    # must not answer for another
    m = dstruct.TypeDStructure(FLAVOR_B)
    m.add_gen("a", FILLED, 0)
    m.add_gen("b", HOLLOW, 1)
    m.add_gen("c", FILLED, 1)
    m.add_arrow("a", "b", algebra.spow(1, FILLED))
    with pytest.raises(AssertionError, match="does not run"):
        m.add_arrow("a", "c", algebra.spow(1, FILLED))
    m.add_arrow("a", "b", algebra.spow(1, FILLED))
    assert m.arrows == {}


def test_cone_h_point():
    m = dstruct.TypeDStructure(FLAVOR_B)
    m.add_gen("p", FILLED, 0)
    c = dstruct.cone_h(m)
    assert len(c.gens) == 2
    (label,) = c.arrows.values()
    assert label == algebra.h_elem(FILLED)
    assert dstruct.check_d_squared(c) == []


def test_cone_h_two_generators():
    m = dstruct.TypeDStructure(FLAVOR_B)
    m.add_gen("a", FILLED, 0)
    m.add_gen("b", HOLLOW, 1)
    m.add_arrow("a", "b", algebra.spow(1, FILLED))
    c = dstruct.cone_h(m)
    assert len(c.gens) == 4 and len(c.arrows) == 4
    assert dstruct.check_d_squared(c) == []


def test_cone_h_empty():
    assert dstruct.cone_h(dstruct.TypeDStructure(FLAVOR_B)).gens == {}


def test_reduce_acyclic_pair():
    m = dstruct.TypeDStructure(FLAVOR_B)
    m.add_gen("x", FILLED, 0)
    m.add_gen("y", FILLED, 1)
    m.add_arrow("x", "y", algebra.idem(FILLED))
    assert dstruct.reduce(m).gens == {}


def test_reduce_is_a_fixed_point_without_idem_arrows():
    m = dstruct.TypeDStructure(FLAVOR_B)
    m.add_gen("a", FILLED, 0)
    m.add_gen("b", FILLED, 1)
    m.add_arrow("a", "b", algebra.h_elem(FILLED))
    r = dstruct.reduce(m)
    assert r.gens.keys() == m.gens.keys() and r.arrows == m.arrows


def test_reduce_zigzag():
    # p -> y (beta), x -> y (iota), x -> q (gamma): cancel x,y,
    # leaving p -> q with beta*gamma
    m = dstruct.TypeDStructure(FLAVOR_B)
    m.add_gen("p", FILLED, 0)
    m.add_gen("x", HOLLOW, 0)
    m.add_gen("y", HOLLOW, 1)
    m.add_gen("q", FILLED, 1)
    m.add_arrow("p", "y", algebra.spow(1, FILLED))
    m.add_arrow("x", "y", algebra.idem(HOLLOW))
    m.add_arrow("x", "q", algebra.spow(1, HOLLOW))
    r = dstruct.reduce(m)
    assert set(r.gens) == {"p", "q"}
    assert r.arrows == {("p", "q"): algebra.spow(2, FILLED)}


def test_reduce_breaks_ties_by_name_not_insertion():
    # both arrows cost no fill-in; the tie goes to the target whose name
    # sorts first, "g10", so x -> g10 is cancelled and g2 is kept
    m = dstruct.TypeDStructure(FLAVOR_B)
    m.add_gen("x", FILLED, 0)
    m.add_gen("g2", FILLED, 1)
    m.add_gen("g10", FILLED, 1)
    m.add_arrow("x", "g2", algebra.idem(FILLED))
    m.add_arrow("x", "g10", algebra.idem(FILLED))
    assert list(dstruct.reduce(m).gens) == ["g2"]


def test_iso_check_identity_and_permutation():
    m = two_step_bad()  # any structure works for matching purposes
    m = dstruct.TypeDStructure(FLAVOR_B)
    m.add_gen("a", FILLED, 0)
    m.add_gen("b", HOLLOW, 1)
    m.add_arrow("a", "b", algebra.spow(1, FILLED))
    assert dstruct.iso_check(m, m) == {"a": "a", "b": "b"}
    n = dstruct.TypeDStructure(FLAVOR_B)
    n.add_gen("bb", HOLLOW, 4)
    n.add_gen("aa", FILLED, 3)
    n.add_arrow("aa", "bb", algebra.spow(1, FILLED))
    w = dstruct.iso_check(m, n)
    assert w == {"a": "aa", "b": "bb"}  # global shift by 3


def test_reduce_keeps_a_non_unit_arrow():
    # i + D is not a unit in B, so cancelling x -> y would not be a
    # homotopy equivalence
    m = dstruct.TypeDStructure(FLAVOR_B)
    m.add_gen("x", FILLED, 0)
    m.add_gen("y", FILLED, 1)
    label = algebra.idem(FILLED) + algebra.dpow(1, FILLED)
    m.add_arrow("x", "y", label)
    r = dstruct.reduce(m)
    assert set(r.gens) == {"x", "y"}
    assert r.arrows == {("x", "y"): label}


def test_iso_check_count_mismatch():
    m = dstruct.TypeDStructure(FLAVOR_B)
    m.add_gen("a", FILLED, 0)
    n = dstruct.TypeDStructure(FLAVOR_B)
    n.add_gen("a", HOLLOW, 0)
    assert dstruct.iso_check(m, n) == dstruct.NOT_FOUND


def test_iso_check_degree_spreads_differ():
    # the same counts per idempotent, but no one shift aligns the degrees
    m = dstruct.TypeDStructure(FLAVOR_B)
    n = dstruct.TypeDStructure(FLAVOR_B)
    for s, top in ((m, 1), (n, 2)):
        s.add_gen("a", FILLED, 0)
        s.add_gen("b", FILLED, top)
    assert dstruct.iso_check(m, n) == dstruct.NOT_FOUND
    assert dstruct.iso_check(n, m) == dstruct.NOT_FOUND


def test_iso_check_finds_base_change():
    """Same homotopy type, different label bases: D vs S^2 chains."""
    m = dstruct.TypeDStructure(FLAVOR_B)
    n = dstruct.TypeDStructure(FLAVOR_B)
    for s in (m, n):
        s.add_gen("a", FILLED, 0)
        s.add_gen("b", FILLED, 1)
        s.add_gen("c", FILLED, 1)
        s.add_gen("d", FILLED, 2)
    # m: a->b D, a->c S^2, both -> d with the complementary label
    m.add_arrow("a", "b", algebra.dpow(1, FILLED))
    m.add_arrow("a", "c", algebra.spow(2, FILLED))
    m.add_arrow("b", "d", algebra.spow(2, FILLED))
    m.add_arrow("c", "d", algebra.dpow(1, FILLED))
    # n: the same after the base change b -> b + c
    n.add_arrow("a", "b", algebra.dpow(1, FILLED))
    n.add_arrow("a", "c", algebra.dpow(1, FILLED) + algebra.spow(2, FILLED))
    n.add_arrow("b", "d", algebra.dpow(1, FILLED) + algebra.spow(2, FILLED))
    n.add_arrow("c", "d", algebra.dpow(1, FILLED))
    assert not dstruct.check_d_squared(m)
    assert not dstruct.check_d_squared(n)
    w = dstruct.iso_check(m, n)
    assert w != dstruct.NOT_FOUND
    assert isinstance(w, dict) and "entries" in w


def one_arrow(label):
    m = dstruct.TypeDStructure(FLAVOR_B)
    m.add_gen("a", FILLED, 0)
    m.add_gen("b", FILLED, 1)
    m.add_arrow("a", "b", label)
    return m


@pytest.mark.xfail(strict=True, reason="the chain-map search reads "
                   "invertibility off the weight-zero part, so it takes "
                   "1 + D for a unit (ROADMAP item 2)")
def test_iso_check_refuses_d_against_d_plus_d_squared():
    # a -> b labelled D and D + D^2 have different homology; the witness
    # found today maps b to (1 + D) b, and 1 + D is not a unit in B
    d = algebra.dpow(1, FILLED)
    m, n = one_arrow(d), one_arrow(d + algebra.dpow(2, FILLED))
    assert dstruct.iso_check(m, n) == dstruct.NOT_FOUND
    assert dstruct.iso_check(dstruct.cone_h(m), dstruct.cone_h(n)) == \
        dstruct.NOT_FOUND


def test_iso_check_refuses_cone_d_against_cone_d_squared():
    m = dstruct.cone_h(one_arrow(algebra.dpow(1, FILLED)))
    n = dstruct.cone_h(one_arrow(algebra.dpow(2, FILLED)))
    assert dstruct.iso_check(m, n) == dstruct.NOT_FOUND


def test_serialization_roundtrip():
    m = dstruct.TypeDStructure(FLAVOR_B)
    m.add_gen("a", FILLED, 0)
    m.add_gen("b", HOLLOW, 1)
    m.add_gen("c", FILLED, 1)
    m.add_arrow("a", "b", algebra.spow(1, FILLED))
    m.add_arrow("a", "c", algebra.h_elem(FILLED))
    assert dstruct.serialize(m) == (
        "flavor B\n"
        "gen a filled 0\n"
        "gen b hollow 1\n"
        "gen c filled 1\n"
        "arrow a b S\n"
        "arrow a c D+S^2\n")
    assert dstruct.serialize(dstruct.TypeDStructure(FLAVOR_B)) == "flavor B\n"
