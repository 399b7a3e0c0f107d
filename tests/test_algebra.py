import itertools
import operator
import random

import pytest

from khtangle import algebra, f2
from khtangle.algebra import (FILLED, HOLLOW, FLAVOR_B, FLAVOR_BT, dpow,
                              h_elem, h_mul, idem, monomials_between, q_map,
                              spow)

VERTICES = (FILLED, HOLLOW)


# --- reference: monomials as plain (kind, n, vertex) paths ----------------

def path_basis(w, flavor=FLAVOR_B):
    """Every path of weight at most w, per vertex: i, S^1.., D^1.."""
    smax = min(w, 2) if flavor == FLAVOR_BT else w
    out = []
    for v in VERTICES:
        out.append(("i", 0, v))
        out += [("s", n, v) for n in range(1, smax + 1)]
        if flavor == FLAVOR_B:
            out += [("d", n, v) for n in range(1, w // 2 + 1)]
    return out


def path_key(t):
    """Paths sort by kind (d < i < s), exponent, then vertex."""
    kind, n, v = t
    return kind, n, v.value


def path_ends(t):
    kind, n, v = t
    return v, (v.other() if kind == "s" and n % 2 else v)


def path_weight(t):
    kind, n, _ = t
    return {"i": 0, "s": n, "d": 2 * n}[kind]


def concat(x, y, flavor):
    """Concatenate paths x then y; None means the product is zero."""
    if path_ends(x)[1] != y[2]:
        return None
    if x[0] == "i":
        return y
    if y[0] == "i":
        return x
    if x[0] != y[0]:
        return None  # DS = SD = 0
    n = x[1] + y[1]
    if x[0] == "s" and flavor == FLAVOR_BT and n >= 3:
        return None  # S^3 = 0 in the quotient
    return x[0], n, x[2]


def elem(paths, flavor=FLAVOR_B):
    """The F2 sum of the given paths."""
    out = algebra.zero(flavor)
    for kind, n, v in paths:
        out = out + (idem(v, flavor) if kind == "i" else
                     spow(n, v, flavor) if kind == "s" else
                     dpow(n, v, flavor))
    return out


def path_of(t):
    """The path of a monomial, read from its text and its source."""
    text, v = str(t), t.ends()[0]
    if text == "i":
        return "i", 0, v
    letter, _, e = text.partition("^")
    return letter.lower(), int(e or 1), v


def paths_of(x):
    return frozenset(path_of(t) for t in x.monomials())


def elems(w, flavor=FLAVOR_B):
    return [elem([t], flavor) for t in path_basis(w, flavor)]


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
    es = [elem([t]) for t in path_basis(12) if path_weight(t) >= 5]
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
    h_rows = [frozenset(h_mul(t).monomials()) for t in elems(12)]
    h_rank = f2.rank(h_rows)
    for t in elems(12):
        in_ker = q_map(t).is_zero()
        in_span = f2.rank(h_rows + [frozenset([t])]) == h_rank
        if t.max_weight <= 10:  # stay below the truncation boundary
            assert in_ker == in_span, str(t)


def test_flavor_guard():
    with pytest.raises(ValueError):
        dpow(1, FILLED, FLAVOR_BT)
    with pytest.raises(ValueError):
        spow(3, FILLED, FLAVOR_BT)


# --- products and sums against the path rules -----------------------------

def termwise_mul(x, y):
    """Reference product: path concatenation summed over term pairs."""
    acc = set()
    for a in paths_of(x):
        for b in paths_of(y):
            m = concat(a, b, x.flavor)
            if m is not None:
                acc ^= {m}
    return elem(acc, x.flavor)


@pytest.mark.parametrize("flavor", [FLAVOR_B, FLAVOR_BT])
def test_packed_product_matches_monomial_rule(flavor):
    basis = path_basis(10, flavor)
    # the second pass reads every product from the memo of the first
    for _ in range(2):
        for a, b in itertools.product(basis, basis):
            got = elem([a], flavor) * elem([b], flavor)
            want = concat(a, b, flavor)
            assert paths_of(got) == (frozenset() if want is None
                                     else frozenset([want])), (a, b)


def random_elems(rng, flavor, count):
    basis = path_basis(8, flavor)
    return [elem(rng.sample(basis, rng.randint(0, 5)), flavor)
            for _ in range(count)]


@pytest.mark.parametrize("flavor", [FLAVOR_B, FLAVOR_BT])
def test_packed_product_of_mixed_vertex_sums(flavor):
    rng = random.Random(3)
    unit = idem(FILLED, flavor) + idem(HOLLOW, flavor)
    assert paths_of(unit) == {("i", 0, FILLED), ("i", 0, HOLLOW)}
    assert str(unit) == "i+i"
    pairs = list(zip(*[iter(random_elems(rng, flavor, 600))] * 2))
    # the second pass reads every product and sum from the memo
    for _ in range(2):
        for x, y in pairs:
            assert x * y == termwise_mul(x, y)
            assert paths_of(x + y) == paths_of(x) ^ paths_of(y)
            assert unit * x == x == x * unit


def test_h_mul_and_q_map_match_termwise_definitions():
    def h_mono(t):
        kind, n, v = t
        if kind == "i":
            return {("d", 1, v), ("s", 2, v)}
        return {(kind, n + (2 if kind == "s" else 1), v)}

    def q_mono(t):
        kind, n, v = t
        if kind == "i" or (kind == "s" and n <= 2):
            return {t}
        if kind == "d" and n == 1:
            return {("s", 2, v)}
        return set()

    basis = path_basis(12)
    for t in basis:
        assert paths_of(h_mul(elem([t]))) == h_mono(t)
        assert q_map(elem([t])) == elem(q_mono(t), FLAVOR_BT)
    x = elem(basis[::3])  # a sum over both vertices
    hx, qx = set(), set()
    for t in paths_of(x):
        hx ^= h_mono(t)
        qx ^= q_mono(t)
    assert paths_of(h_mul(x)) == hx
    assert q_map(x) == elem(qx, FLAVOR_BT)


def test_str_orders_d_then_i_then_s():
    assert str(h_elem(FILLED)) == "D+S^2"
    assert str(idem(HOLLOW) + dpow(1, HOLLOW)) == "D+i"
    assert str(spow(3, FILLED) + idem(FILLED) + dpow(2, FILLED)
               + spow(1, FILLED) + dpow(1, FILLED)) == "D+D^2+i+S+S^3"
    assert str(algebra.zero()) == "0"
    assert str(spow(1, FILLED) + spow(1, HOLLOW)) == "S+S"


def test_flavor_guard_names_the_monomial():
    with pytest.raises(ValueError, match="S\\^3"):
        spow(3, HOLLOW, FLAVOR_BT)
    with pytest.raises(ValueError, match="D\\^2"):
        dpow(2, HOLLOW, FLAVOR_BT)
    # i from FILLED plus D^2 from HOLLOW, made directly: the guard
    # names the one term outside the quotient
    with pytest.raises(ValueError, match="monomial D\\^2 is not"):
        algebra._make(frozenset([("i", 0, FILLED), ("d", 2, HOLLOW)]),
                      FLAVOR_BT)
    assert spow(2, FILLED, FLAVOR_BT) * spow(1, FILLED, FLAVOR_BT) == \
        algebra.zero(FLAVOR_BT)


def test_mixed_flavours_raise_on_every_call():
    # a cache stores no exception, so a repeated call raises again
    # instead of returning a value
    s1, s1_bt = spow(1, FILLED), spow(1, FILLED, FLAVOR_BT)
    for op, name in ((operator.add, "sum"), (operator.mul, "product")):
        for a, b in ((s1, s1_bt), (s1_bt, s1)):
            for _ in range(2):
                with pytest.raises(ValueError, match=f"mismatch in {name}"):
                    op(a, b)


def test_equal_values_are_one_object():
    for v in (FILLED, HOLLOW):
        assert spow(1, v) * spow(1, v.other()) is spow(2, v)
        assert (idem(v) + spow(2, v)).monomials()[1] is spow(2, v)
        assert idem(v) + dpow(1, v) + dpow(1, v) is idem(v)
        assert (dpow(1, v) * spow(1, v)) is algebra.zero()
        assert h_mul(idem(v)) is h_elem(v)
        assert q_map(dpow(1, v)) is spow(2, v, FLAVOR_BT)
    assert elem([], FLAVOR_BT) is algebra.zero(FLAVOR_BT)
    # the flavor is part of the value
    assert spow(1, FILLED) != spow(1, FILLED, FLAVOR_BT)
    assert not algebra.zero(FLAVOR_BT) == algebra.zero()


# --- monomials: one-term values ------------------------------------------

@pytest.mark.parametrize("flavor", [FLAVOR_B, FLAVOR_BT])
def test_monomials_come_in_path_order_and_sum_to_the_element(flavor):
    rng = random.Random(5)
    for x in random_elems(rng, flavor, 500) + elems(8, flavor):
        monos = x.monomials()
        assert [path_of(t) for t in monos] == sorted(paths_of(x),
                                                     key=path_key)
        assert list(monos) == sorted(monos)
        total = algebra.zero(flavor)
        for t in monos:
            assert t.monomials() == (t,)
            total = total + t
        assert total is x
        assert str(x) == ("+".join(map(str, monos)) or "0")


@pytest.mark.parametrize("flavor", [FLAVOR_B, FLAVOR_BT])
def test_monomial_order_and_ends_match_the_paths(flavor):
    basis = path_basis(12, flavor)
    by_path = {t: elem([t], flavor) for t in basis}
    assert ([path_of(t) for t in sorted(by_path.values())]
            == sorted(basis, key=path_key))
    for t, mono in by_path.items():
        assert mono.ends() == path_ends(t)
        assert mono.max_weight == path_weight(t)


@pytest.mark.parametrize("flavor", [FLAVOR_B, FLAVOR_BT])
def test_weight_idem_and_runs_of_sums_match_the_paths(flavor):
    rng = random.Random(7)
    for x in random_elems(rng, flavor, 300) + elems(8, flavor):
        paths = paths_of(x)
        assert x.max_weight == max(map(path_weight, paths), default=0)
        assert x.is_idem == (len(paths) == 1
                             and next(iter(paths))[0] == "i")
        for ends in itertools.product(VERTICES, repeat=2):
            assert x.runs(*ends) == all(path_ends(t) == ends
                                        for t in paths), (str(x), ends)


@pytest.mark.parametrize("flavor", [FLAVOR_B, FLAVOR_BT])
def test_enumerator_lists_each_monomial_once_in_path_order(flavor):
    seen = []
    for src, dst in itertools.product(VERTICES, repeat=2):
        got = monomials_between(src, dst, 12, flavor)
        want = [t for t in path_basis(12, flavor)
                if path_ends(t) == (src, dst)]
        assert [path_of(t) for t in got] == want
        for t in got:
            assert t.runs(src, dst) and t.ends() == (src, dst)
            assert not t.runs(src, dst.other())
        seen += got
    assert len(seen) == len(set(seen)) == len(path_basis(12, flavor))
    assert monomials_between(FILLED, FILLED, -1, flavor) == []
