import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from khtangle import algebra, bimod
from khtangle.algebra import (FILLED, HOLLOW, FLAVOR_B, FLAVOR_BT, dpow, idem,
                              monomials_between, spow)
from khtangle.bimod import Action, Pattern


def test_pattern_format():
    samples = {"1": ("i",), "S": ("S", 1), "D": ("D", 1), "S^2": ("S", 2),
               "D^3": ("D", 3), "S^{k}": ("S", 0, 1), "S^{2k}": ("S", 0, 2),
               "S^{2k+1}": ("S", 1, 2), "D^{k+1}": ("D", 1, 1),
               "S^{2k+2}": ("S", 2, 2), "D^{k+2}": ("D", 2, 1),
               "S^{2k+3}": ("S", 3, 2)}
    for text, fields in samples.items():
        assert str(Pattern(*fields)) == text


def test_pattern_rejects_garbage():
    for bad in [("E",), ("S", -1), ("S", 0, 3), ("i", 1), ("i", 0, 1)]:
        with pytest.raises(AssertionError):
            Pattern(*bad)


def test_pattern_match_and_instantiate():
    p = Pattern("S", 1, 2)
    assert p.instantiate(2, FILLED, FLAVOR_B) is spow(5, FILLED)
    assert p.instantiate(0, HOLLOW, FLAVOR_BT) is spow(1, HOLLOW, FLAVOR_BT)
    assert Pattern("D", 0, 1).instantiate(0, HOLLOW, FLAVOR_B) is idem(HOLLOW)


def test_shipped_bimodule_shapes():
    bims = {"I": bimod.bimodule_I(), "Q": bimod.bimodule_Q(),
            "Y": bimod.bimodule_Y()}
    assert set(bims["I"].gens) == {"l", "b", "m", "y"}
    assert set(bims["Q"].gens) == {"z", "w"}
    assert set(bims["Y"].gens) == {"t", "u", "k", "v"}
    assert bims["Q"].a_flavor == FLAVOR_B and bims["Q"].d_flavor == FLAVOR_BT
    assert bims["Y"].a_flavor == FLAVOR_BT and bims["Y"].d_flavor == FLAVOR_B
    q_strs = {f"{a.src}->{a.dst} {a}" for a in bims["Q"].actions}
    assert "z->z (D | S^2)" in q_strs
    y_strs = {f"{a.src}->{a.dst} {a}" for a in bims["Y"].actions}
    assert "k->t (S,S | 1)" in y_strs and "v->u (S,S | 1)" in y_strs


def test_degree_rule_enforced():
    gens = [bimod.BimGen("a", FILLED, FILLED, 0),
            bimod.BimGen("b", FILLED, FILLED, 0)]
    with pytest.raises(AssertionError):
        bimod._mk_bim("bad", FLAVOR_B, FLAVOR_B, gens,
                      [Action("a", "b", (), Pattern("D", 1))])


def test_ill_typed_actions_rejected():
    y = bimod.bimodule_Y()

    def with_loop_at_t(inputs, output):
        bad = Action("t", "t", inputs, output)
        return bimod._mk_bim("bad", y.a_flavor, y.d_flavor, y.gens.values(),
                             y.actions + (bad,))

    # S leaves the filled vertex, so it cannot run from t back to t
    with pytest.raises(AssertionError, match="inputs do not run"):
        with_loop_at_t((Pattern("S", 1),), Pattern("S", 1))
    # S^2 returns to the filled vertex, S does not
    with pytest.raises(AssertionError, match="output does not run"):
        with_loop_at_t((Pattern("S", 2),), Pattern("S", 1))
    # the parameter is free, so the output would grow without limit
    with pytest.raises(AssertionError, match="growing output"):
        with_loop_at_t((Pattern("S", 2),), Pattern("D", 1, 1))
    # S^{k+1} is well typed between t and t only for odd k
    gens = [bimod.BimGen("a", FILLED, FILLED, 0)]
    with pytest.raises(AssertionError, match="inputs do not run"):
        bimod._mk_bim("bad", FLAVOR_B, FLAVOR_B, gens,
                      [Action("a", "a", (Pattern("S", 1, 1),),
                              Pattern("S", 1, 1))])


def test_ill_typed_morphism_components_rejected():
    f = bimod.morphism_f()

    def with_component(comp):
        return bimod.ADMorphism("bad", f.source, f.target,
                                f.components + (comp,))

    # l is filled, w*u hollow: no idempotent output joins them
    with pytest.raises(AssertionError, match="inputs do not run"):
        with_component(Action("l", "w*u", (), Pattern("i")))
    with pytest.raises(AssertionError, match="output does not run"):
        with_component(Action("l", "z*t", (), Pattern("S", 1)))
    # l and z*k differ by one in hdeg, so an input-free component breaks
    # the degree rule
    with pytest.raises(AssertionError, match="breaks the degree rule"):
        with_component(Action("l", "z*k", (), Pattern("i")))


def test_ill_typed_families_rejected_under_python_O():
    code = textwrap.dedent("""
        from khtangle import bimod
        from khtangle.bimod import Action, Pattern
        f = bimod.morphism_f()
        for comp in (Action("l", "w*u", (), Pattern("i")),
                     Action("l", "z*k", (), Pattern("i"))):
            try:
                bimod.ADMorphism("bad", f.source, f.target,
                                 f.components + (comp,))
            except AssertionError as e:
                print("refused:", e)
        y = bimod.bimodule_Y()
        try:
            bimod._mk_bim("bad", y.a_flavor, y.d_flavor, y.gens.values(),
                          y.actions + (Action("t", "t", (), Pattern("i")),))
        except AssertionError as e:
            print("refused:", e)
    """)
    src = Path(bimod.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "refused: component l->w*u (- | 1) inputs do not run "
        "FILLED -> HOLLOW",
        "refused: component l->z*k (- | 1) breaks the degree rule",
        "refused: action t->t (- | 1) breaks the degree rule"]


def test_structural_and_enumerated_identities_agree():
    for bound in (7, 20):
        structural = bimod.instantiate_actions(
            bimod.identity_bimodule(FLAVOR_B, structural=True), bound)
        enumerated = bimod.instantiate_actions(
            bimod.identity_bimodule(FLAVOR_B, structural=False), bound)
        assert structural == enumerated


def test_box_qy_contains_expected_actions():
    items = bimod.box_bimods(bimod.bimodule_Q(), bimod.bimodule_Y(), 12)
    assert ("z*k", "z*t", (spow(1, FILLED), spow(1, HOLLOW)),
            idem(FILLED)) in items
    assert ("z*t", "z*t", (dpow(1, FILLED),), dpow(1, FILLED)) in items
    # and matches the transcription exactly below the margin
    eff = 12 - 8
    assert (bimod._filter_weight(items, eff)
            == bimod._filter_weight(
                bimod.instantiate_actions(bimod.bimodule_QY_expected(), 12),
                eff))


def test_box_with_identity_is_identity_on_actions():
    q = bimod.bimodule_Q()
    ident = bimod.identity_bimodule(FLAVOR_B)
    boxed = bimod.box_bimods(ident, q, 10)
    renamed = frozenset(
        (s.split("*", 1)[1], d.split("*", 1)[1], ins, out)
        for (s, d, ins, out) in boxed)
    assert renamed == bimod.instantiate_actions(q, 10)


@pytest.mark.parametrize("flavor", [FLAVOR_B, FLAVOR_BT])
def test_factorizations_multiply_back(flavor):
    for src, dst in itertools.product((FILLED, HOLLOW), repeat=2):
        for mono in monomials_between(src, dst, 12, flavor):
            pairs = algebra.splits(mono)
            for a, b in pairs:
                assert a * b is mono
                assert not a.is_idem and not b.is_idem
            # S^n and D^n split after each of their n - 1 inner steps
            w = mono.max_weight
            is_d = (flavor == FLAVOR_B and w > 0 and w % 2 == 0
                    and mono is dpow(w // 2, src))
            assert len(pairs) == max((w // 2 if is_d else w) - 1, 0)


def test_morphisms_are_cycles():
    assert bimod.diff_ad_morphism(bimod.morphism_f(), 16) == frozenset()
    assert bimod.diff_ad_morphism(bimod.morphism_g(), 16) == frozenset()


def test_deleting_a_component_breaks_the_cycle_condition():
    f = bimod.morphism_f()
    kept = tuple(c for c in f.components
                 if not (c.src == "m" and c.dst == "w*u"))
    broken = bimod.ADMorphism("f'", f.source, f.target, kept)
    leftover = bimod._filter_weight(bimod.diff_ad_morphism(broken, 16), 8)
    assert leftover
    gof = bimod._filter_weight(
        bimod.compose_ad_morphisms(bimod.morphism_g(), broken, 16), 8)
    assert gof != bimod._filter_weight(
        bimod.identity_components(f.source), 8)


def test_composites_are_identities():
    f, g = bimod.morphism_f(), bimod.morphism_g()
    eff = 8
    gof = bimod._filter_weight(bimod.compose_ad_morphisms(g, f, 16), eff)
    fog = bimod._filter_weight(bimod.compose_ad_morphisms(f, g, 16), eff)
    assert gof == bimod._filter_weight(bimod.identity_components(f.source), eff)
    assert fog == bimod._filter_weight(bimod.identity_components(g.source), eff)


def test_arity_two_composite_vanishes():
    # f and g have arity <= 1, so the arity-2 part of g after f is g1 f1
    gof = bimod.compose_ad_morphisms(bimod.morphism_g(), bimod.morphism_f(), 16)
    assert bimod._filter_weight(
        [c for c in gof if len(c[2]) == 2], 8) == frozenset()


def test_weight_shifts_bounded_by_four():
    for bim in (bimod.bimodule_I(), bimod.bimodule_Q(), bimod.bimodule_Y(),
                bimod.identity_bimodule(FLAVOR_B),
                bimod.identity_bimodule(FLAVOR_BT)):
        assert bimod.max_weight_shift(bim) <= 4, bim.name
    for mor in (bimod.morphism_f(), bimod.morphism_g()):
        assert bimod.max_weight_shift(mor) <= 4, mor.name


def test_verify_lemma_main_passes():
    report = bimod.verify_lemma_main(16, 8)
    assert report["pass"], report["checks"]
    assert len(report["checks"]) == 9


def test_verify_lemma_rejects_tight_bounds():
    with pytest.raises(AssertionError):
        bimod.verify_lemma_main(8, 8)
