import pytest

from khtangle import acat, cones, functor
from khtangle.algebra import FILLED, dpow, spow
from khtangle.cones import BasisName
from test_tangles import run_python


@pytest.fixture(scope="module")
def tables():
    return functor.default_tables()


@pytest.fixture(scope="module")
def mu_tables():
    return acat.load_tables()


def F(tables, *seq):
    return functor.apply_F(tables, tuple(seq))


def named(*names):
    return cones.combo_to_positional(names, names[0].src, names[0].dst)


def test_length_one_images(tables):
    assert F(tables, "a0") == cones.to_positional(BasisName("A", False, 0, "0"))
    assert F(tables, "q10") == cones.to_positional(BasisName("Q", False, 1, "10"))
    assert F(tables, "d1") == cones.to_positional(BasisName("D", False, 1, "1"))


def test_length_two_images(tables):
    assert F(tables, "p01", "p10") == cones.to_positional(
        BasisName("A", True, 0, "0"))
    assert F(tables, "p10", "q01") == named(
        BasisName("A", False, 0, "1"), BasisName("B", True, 0, "1"))
    # untabulated pairs map to zero
    assert F(tables, "b0", "b0").is_zero()


def test_length_three_and_beyond(tables):
    assert F(tables, "c0", "d0", "c0") == cones.to_positional(
        BasisName("C", True, 1, "0"))
    assert F(tables, "c0", "d0", "c0", "d0").is_zero()


def test_non_composable_is_zero(tables):
    assert F(tables, "a0", "a1").is_zero()


def test_length_one_images_are_cycles(tables):
    for g in acat.GENERATORS:
        assert cones.diff_C(F(tables, g)).is_zero(), g


def test_functor_relations_hold_to_length_six():
    violations, checked = functor.verify_functor(max_len=6)
    assert violations == []
    assert checked == 111972


def test_violations_carry_their_defect(tables):
    without = {k: v for k, v in functor.F_TABLE.items() if k != ("p01", "p10")}
    bad, _ = functor.verify_functor(without, max_len=3)
    assert bad and all(defect for _, defect in bad)
    # without F2(p01, p10) its relation keeps the differential of the
    # hatted A_0: H on both diagonal slots of the filled cone
    h = [dpow(1, FILLED), spow(2, FILLED)]
    assert dict(bad)["p01", "p10"] == {(slot, t) for slot in ("bb", "tt")
                                       for t in h}


def test_empty_tables_are_not_replaced_by_the_packaged_ones():
    # with mu = 0 the relation of (a0, a0) keeps F1(a0)
    bad, _ = functor.verify_functor(max_len=2, mu_tables={})
    assert ("a0", "a0") in dict(bad)
    assert not functor.verify_quasi_iso(max_weight=4, tables={})["pass"]


def test_mutation_suite_kills_at_least_ninety_percent(mu_tables):
    killed, total, survivors = 0, 0, []
    for name, mutated in functor.table_mutations():
        total += 1
        bad, _ = functor.verify_functor(mutated, max_len=4,
                                        mu_tables=mu_tables)
        if bad:
            killed += 1
        else:
            survivors.append(name)
    assert killed >= 0.9 * total, f"survivors: {survivors}"


def test_quasi_iso_report():
    rep = functor.verify_quasi_iso(max_weight=10)
    assert rep["pass"], rep["failures"]
    assert rep["dims"][0, 0][0] == 2 and rep["dims"][0, 1][1] == 2


def test_broken_tables_fail_quasi_iso():
    # redirecting a plain length-1 image to its hatted partner breaks
    # the cycle condition
    bad = {**functor.F_TABLE, ("c0",): [BasisName("C", True, 1, "0")]}
    rep = functor.verify_quasi_iso(max_weight=10, tables=bad)
    assert not rep["pass"]


def test_a_weight_below_four_is_refused_under_python_O():
    # an assert would vanish under -O: weights 2 and 3 would pass with
    # no failure, and weight 1 would die with a KeyError
    code = """
        from khtangle import cones, functor
        from khtangle.algebra import FILLED
        for check in (lambda w: cones.homology_dims(FILLED, FILLED, w),
                      lambda w: functor.verify_quasi_iso(w)):
            for w in (1, 2, 3):
                try:
                    check(w)
                except ValueError as e:
                    print("refused:", e)
    """
    expected = [f"refused: max_weight {w} is below 4" for w in (1, 2, 3)] * 2
    for flags in ((), ("-O",)):
        assert run_python(code, *flags).splitlines() == expected, flags
