import importlib.resources
import itertools

import pytest

from khtangle import acat, algebra
from khtangle.algebra import FILLED, HOLLOW, FLAVOR_BT


@pytest.fixture(scope="module")
def tables():
    return acat.load_tables()


def mu(tables, *seq):
    return tables.get(seq, frozenset())


def test_mu2_examples(tables):
    assert mu(tables, "p01", "p10") == {"c0"}
    assert mu(tables, "p01", "q10") == {"d0"}
    assert mu(tables, "a0", "b0") == {"b0"}
    assert mu(tables, "b0", "a0") == {"b0"}
    assert mu(tables, "b0", "b0") == frozenset()


def test_mu3_examples(tables):
    assert mu(tables, "p01", "p10", "b0") == {"a0"}
    assert mu(tables, "c0", "b0", "c0") == {"c0"}
    assert mu(tables, "c0", "q01", "p10") == {"c0"}
    assert mu(tables, "b0", "b0", "b0") == frozenset()


def test_non_composable_is_zero(tables):
    assert mu(tables, "p01", "p01") == frozenset()
    assert mu(tables, "a0", "a1") == frozenset()


def test_strict_unitality(tables):
    for x in acat.GENERATORS:
        assert mu(tables, acat.UNITS[acat.dst(x)], x) == {x}
        assert mu(tables, x, acat.UNITS[acat.src(x)]) == {x}
    assert acat.verify_units(tables) == []


def test_ainfty_relations_hold(tables):
    assert acat.verify_ainfty(tables, 5) == []


def test_subalgebra_is_associative_without_mu3(tables):
    assert acat.verify_subalgebra(tables) == []
    sub = set(acat.SUB_GENERATORS)
    for seq in acat.composable_sequences(3, acat.SUB_GENERATORS):
        assert mu(tables, *seq) == frozenset()
    for seq in acat.composable_sequences(2, acat.SUB_GENERATORS):
        assert mu(tables, *seq) <= sub


@pytest.mark.parametrize("generators",
                         [acat.GENERATORS, acat.SUB_GENERATORS])
def test_count_sequences_counts_the_composable_sequences(generators):
    for n in range(1, 7):
        assert acat.count_sequences(n, generators) == \
            len(acat.composable_sequences(n, generators))
    assert sum(acat.count_sequences(n) for n in range(1, 7)) == 111972


def without(tables, key):
    return {k: v for k, v in tables.items() if k != key}


def test_mu2_mutation_suite(tables):
    """Every single mu2 table mutation breaks some relation."""
    killed, total, survivors = 0, 0, []
    for key in [k for k in tables if len(k) == 2]:
        total += 1
        if acat.verify_ainfty(without(tables, key), 5):
            killed += 1
        else:
            survivors.append(key)
    assert killed >= 0.9 * total, f"survivors: {survivors}"


def test_mu3_mutations_detected(tables):
    for key in [k for k in tables if len(k) == 3]:
        assert acat.verify_ainfty(without(tables, key), 5), key


def packaged_table_text():
    return importlib.resources.files("khtangle.data").joinpath(
        "mu_tables.txt").read_text()


def test_table_roundtrip(tables, tmp_path):
    path = tmp_path / "tables.txt"
    path.write_text(packaged_table_text())
    again = acat.load_tables(path)
    assert again == tables
    arities = [len(k) for k in tables]
    assert arities.count(2) == 36 and arities.count(3) == 24


def test_parse_rejects_unknown_generators():
    with pytest.raises(ValueError):
        acat.parse_tables(["mu2 a0 zz -> a0"])
    with pytest.raises(ValueError):
        acat.parse_tables(["mu9 a0 a0 -> a0"])


def test_parse_rejects_ill_typed_entries():
    with pytest.raises(ValueError, match="not composable"):
        acat.parse_tables(["mu2 p01 p01 -> a0"])
    with pytest.raises(ValueError, match="not composable"):
        acat.parse_tables(["mu3 a0 a1 a1 -> a0"])
    with pytest.raises(ValueError, match="is not in Hom"):
        acat.parse_tables(["mu2 a0 b0 -> p01"])
    with pytest.raises(ValueError, match="is not in Hom"):
        acat.parse_tables(["mu3 p01 p10 b0 -> a0 c1"])


def test_parse_rejects_a_line_without_arrow():
    # not a zero entry
    with pytest.raises(ValueError, match="no '->'"):
        acat.parse_tables(["mu2 a0 a0"])
    with pytest.raises(ValueError, match="bad table line"):
        acat.parse_tables(["-> a0"])


def test_parse_rejects_a_repeated_entry():
    # a second line for the same inputs does not overwrite the first
    with pytest.raises(ValueError, match="repeated entry mu2 a0 a0"):
        acat.parse_tables(["mu2 a0 a0 -> a0", "mu2 a0 a0 -> b0"])


def test_parse_rejects_a_repeated_output():
    # over F2, a0 + a0 would be 0, not a0
    with pytest.raises(ValueError, match="repeated output 'a0'"):
        acat.parse_tables(["mu2 a0 a0 -> a0 a0"])


def test_parse_errors_quote_the_line_without_its_terminator():
    with pytest.raises(ValueError) as err:
        acat.parse_tables(["mu2 a0 a0 -> a0 a0\n"])
    assert str(err.value) == "repeated output 'a0' in 'mu2 a0 a0 -> a0 a0'"


def test_dictionary_to_subalgebra(tables):
    """The quotient algebra transports onto the a/c/p subalgebra."""
    pairs = {
        acat.bt_to_sub(algebra.idem(FILLED, FLAVOR_BT)): "a0",
        acat.bt_to_sub(algebra.spow(2, FILLED, FLAVOR_BT)): "c0",
        acat.bt_to_sub(algebra.spow(1, FILLED, FLAVOR_BT)): "p10",
        acat.bt_to_sub(algebra.spow(1, HOLLOW, FLAVOR_BT)): "p01",
        acat.bt_to_sub(algebra.idem(HOLLOW, FLAVOR_BT)): "a1",
    }
    for got, want in pairs.items():
        assert got == frozenset([want])


def test_dictionary_is_algebra_isomorphism(tables):
    """On all basis pairs: dict(x then y) = mu2(dict(y), dict(x))."""
    basis = [t for s, d in itertools.product((FILLED, HOLLOW), repeat=2)
             for t in algebra.monomials_between(s, d, 2, FLAVOR_BT)]
    assert len(basis) == 6
    checked = 0
    for x, y in itertools.product(basis, repeat=2):
        lhs = acat.bt_to_sub(x * y)
        gx = next(iter(acat.bt_to_sub(x)))
        gy = next(iter(acat.bt_to_sub(y)))
        rhs = mu(tables, gy, gx)
        assert lhs == rhs, (str(x), str(y))
        checked += 1
    assert checked == 36
