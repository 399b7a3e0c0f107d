import itertools
import random

import pytest

from khtangle import algebra, f2
from khtangle.algebra import (FILLED, HOLLOW, FLAVOR_B, FLAVOR_BT, BBasis,
                              basis_up_to_weight, dpow, h_elem, h_mul, idem,
                              mono_elem, q_map, spow)


def elems(w, flavor=FLAVOR_B):
    return [mono_elem(t, flavor) for t in basis_up_to_weight(w, flavor)]


def test_mul_examples():
    assert spow(1, FILLED) * spow(1, HOLLOW) == spow(2, FILLED)
    assert (dpow(1, FILLED) * spow(1, FILLED)).is_zero()
    assert dpow(1, FILLED) * dpow(2, FILLED) == dpow(3, FILLED)
    assert (spow(2, FILLED, FLAVOR_BT) * spow(1, FILLED, FLAVOR_BT)).is_zero()


def test_mul_respects_path_endpoints():
    # an odd S power changes vertex, so squaring it needs the far vertex
    assert (spow(1, FILLED) * spow(1, FILLED)).is_zero()
    assert not (spow(1, FILLED) * spow(1, HOLLOW)).is_zero()


@pytest.mark.parametrize("flavor", [FLAVOR_B, FLAVOR_BT])
def test_associative_and_unital(flavor):
    unit = idem(FILLED, flavor) + idem(HOLLOW, flavor)
    es = elems(6, flavor) if flavor == FLAVOR_B else elems(2, flavor)
    for x in es:
        assert unit * x == x
        assert x * unit == x
    for x, y, z in itertools.product(es[:10], es[:10], es[:10]):
        assert (x * y) * z == x * (y * z)


def test_associative_spot_checks_weight_12():
    es = [mono_elem(t) for t in basis_up_to_weight(12) if t.weight >= 5]
    for x, y, z in itertools.product(es[:6], es[:6], es[:6]):
        assert (x * y) * z == x * (y * z)


def test_h_is_central():
    for x in elems(12):
        for y in elems(6):
            assert h_mul(x) * y == h_mul(x * y) == x * h_mul(y)


def test_h_mul_examples():
    assert h_mul(idem(FILLED)) == dpow(1, FILLED) + spow(2, FILLED)
    assert h_mul(dpow(3, HOLLOW)) == dpow(4, HOLLOW)
    assert h_mul(spow(5, FILLED)) == spow(7, FILLED)
    assert h_mul(idem(FILLED)) == h_elem(FILLED)


def test_q_map_examples():
    assert q_map(dpow(1, FILLED)) == spow(2, FILLED, FLAVOR_BT)
    assert q_map(spow(3, FILLED)).is_zero()
    assert q_map(idem(HOLLOW)) == idem(HOLLOW, FLAVOR_BT)


def test_q_map_is_algebra_homomorphism():
    for x in elems(8):
        for y in elems(8):
            assert q_map(x * y) == q_map(x) * q_map(y)


def test_q_kernel_is_exactly_h_multiples():
    # q(x) = 0 iff x lies in the span of H*b over basis monomials b
    h_rows = [frozenset(h_mul(mono_elem(t)).terms)
              for t in basis_up_to_weight(12)]
    h_rank = f2.rank(h_rows)
    for t in basis_up_to_weight(12):
        in_ker = q_map(mono_elem(t)).is_zero()
        in_span = f2.rank(h_rows + [frozenset([t])]) == h_rank
        if t.weight <= 10:  # stay below the truncation boundary
            assert in_ker == in_span, str(t)


def test_flavor_guard():
    with pytest.raises(ValueError):
        algebra.BElem(frozenset([BBasis("d", 1, FILLED)]), FLAVOR_BT)
    with pytest.raises(ValueError):
        algebra.BElem(frozenset([BBasis("s", 3, FILLED)]), FLAVOR_BT)


# --- the packed encoding against the monomial rules ----------------------

def termwise_mul(x, y):
    """Reference product: the monomial rule summed over term pairs."""
    acc = set()
    for a in x.terms:
        for b in y.terms:
            m = algebra._mono_mul(a, b, x.flavor)
            if m is not None:
                acc ^= {m}
    return algebra.BElem(acc, x.flavor)


@pytest.mark.parametrize("flavor", [FLAVOR_B, FLAVOR_BT])
def test_packed_product_matches_monomial_rule(flavor):
    basis = basis_up_to_weight(10, flavor)
    # the second pass reads every product from the memo of the first
    for _ in range(2):
        for a, b in itertools.product(basis, basis):
            got = mono_elem(a, flavor) * mono_elem(b, flavor)
            want = algebra._mono_mul(a, b, flavor)
            assert got.terms == (frozenset() if want is None
                                 else frozenset([want])), (str(a), str(b))


@pytest.mark.parametrize("flavor", [FLAVOR_B, FLAVOR_BT])
def test_packed_product_of_mixed_vertex_sums(flavor):
    rng = random.Random(3)
    basis = basis_up_to_weight(8, flavor)
    unit = idem(FILLED, flavor) + idem(HOLLOW, flavor)
    assert unit.terms == {BBasis("i", 0, FILLED), BBasis("i", 0, HOLLOW)}
    assert str(unit) == "i+i"
    pairs = [tuple(algebra.BElem(rng.sample(basis, rng.randint(0, 5)),
                                 flavor) for _ in range(2))
             for _ in range(300)]
    # the second pass reads every product and sum from the memo
    for _ in range(2):
        for x, y in pairs:
            assert x * y == termwise_mul(x, y)
            assert (x + y).terms == x.terms ^ y.terms
            assert unit * x == x == x * unit


def test_h_mul_and_q_map_match_termwise_definitions():
    def h_mono(t):
        if t.kind == "i":
            return {BBasis("d", 1, t.vertex), BBasis("s", 2, t.vertex)}
        return {BBasis(t.kind, t.n + (2 if t.kind == "s" else 1), t.vertex)}

    def q_mono(t):
        if t.kind == "i" or (t.kind == "s" and t.n <= 2):
            return {t}
        if t.kind == "d" and t.n == 1:
            return {BBasis("s", 2, t.vertex)}
        return set()

    basis = basis_up_to_weight(12)
    for t in basis:
        assert h_mul(mono_elem(t)).terms == h_mono(t)
        assert q_map(mono_elem(t)) == algebra.BElem(q_mono(t), FLAVOR_BT)
    x = algebra.BElem(basis[::3])  # a sum over both vertices
    hx, qx = set(), set()
    for t in x.terms:
        hx ^= h_mono(t)
        qx ^= q_mono(t)
    assert h_mul(x).terms == hx
    assert q_map(x) == algebra.BElem(qx, FLAVOR_BT)


def test_str_orders_d_then_i_then_s():
    assert str(h_elem(FILLED)) == "D+S^2"
    assert str(idem(HOLLOW) + dpow(1, HOLLOW)) == "D+i"
    assert str(spow(3, FILLED) + idem(FILLED) + dpow(2, FILLED)
               + spow(1, FILLED) + dpow(1, FILLED)) == "D+D^2+i+S+S^3"
    assert str(algebra.zero()) == "0"
    assert str(spow(1, FILLED) + spow(1, HOLLOW)) == "S+S"


def test_flavor_guard_names_the_monomial():
    with pytest.raises(ValueError, match="S\\^3"):
        algebra.BElem([BBasis("s", 3, HOLLOW)], FLAVOR_BT)
    with pytest.raises(ValueError, match="D"):
        algebra.BElem([BBasis("i", 0, FILLED), BBasis("d", 2, HOLLOW)],
                      FLAVOR_BT)
    assert spow(2, FILLED, FLAVOR_BT) * spow(1, FILLED, FLAVOR_BT) == \
        algebra.zero(FLAVOR_BT)


def test_equal_values_are_one_object():
    for v in (FILLED, HOLLOW):
        assert spow(1, v) * spow(1, v.other()) is spow(2, v)
        assert algebra.BElem([BBasis("s", 2, v)]) is spow(2, v)
        assert idem(v) + dpow(1, v) + dpow(1, v) is idem(v)
        assert (dpow(1, v) * spow(1, v)) is algebra.zero()
        assert h_mul(idem(v)) is h_elem(v)
        assert q_map(dpow(1, v)) is spow(2, v, FLAVOR_BT)
    assert algebra.BElem((), FLAVOR_BT) is algebra.zero(FLAVOR_BT)
    # the flavor is part of the value
    assert spow(1, FILLED) != spow(1, FILLED, FLAVOR_BT)
    assert not algebra.zero(FLAVOR_BT) == algebra.zero()
