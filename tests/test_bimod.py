import dataclasses
import itertools

import pytest

from khtangle import algebra, bimod, dstruct, functor, tangles
from khtangle.algebra import (FILLED, HOLLOW, FLAVOR_B, FLAVOR_BT, dpow, idem,
                              monomials_between, spow)
from khtangle.bimod import Action, Pattern

from test_serialize_gate import gate_words
from test_tangles import run_python


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
    out = run_python("""
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
    """, "-O")
    assert out.splitlines() == [
        "refused: component l->w*u (- | 1) inputs do not run "
        "FILLED -> HOLLOW",
        "refused: component l->z*k (- | 1) breaks the degree rule",
        "refused: action t->t (- | 1) breaks the degree rule"]


def _S(offset, stride=0):
    return Pattern("S", offset, stride)


def _D(offset, stride=0):
    return Pattern("D", offset, stride)


_IOTA = Pattern("i")


def enumerated_identity():
    """The identity bimodule of the full algebra with its D family split
    by parity of the exponent."""
    gens = [bimod.BimGen("e.f", FILLED, FILLED, 0),
            bimod.BimGen("e.h", HOLLOW, HOLLOW, 0)]
    acts = [Action(g.name, g.name, (_IOTA,), _IOTA) for g in gens]
    for a, b in [("e.f", "e.f"), ("e.h", "e.h"), ("e.f", "e.h"),
                 ("e.h", "e.f")]:
        for p in [_S(2, 2), _D(1, 2), _D(2, 2)] if a == b else [_S(1, 2)]:
            acts.append(Action(a, b, (p,), p))
    return bimod._mk_bim(f"id[{FLAVOR_B}]", FLAVOR_B, FLAVOR_B, gens, acts)


def transcribed_Y():
    """Y as it was written out by hand before it was derived from F."""
    gens = [bimod.BimGen("t", FILLED, FILLED, 0),
            bimod.BimGen("u", HOLLOW, HOLLOW, 0),
            bimod.BimGen("k", FILLED, FILLED, 1),
            bimod.BimGen("v", HOLLOW, HOLLOW, 1)]
    acts = []
    for a, b in [("t", "u"), ("u", "t"), ("k", "v"), ("v", "k")]:
        acts.append(Action(a, b, (_S(1),), _S(1)))
    for g in "tukv":
        acts.append(Action(g, g, (_S(2),), _D(1)))
    for a, b in [("t", "k"), ("u", "v")]:
        acts.append(Action(a, b, (), _D(1)))
        acts.append(Action(a, b, (), _S(2)))
    for a, b in [("k", "t"), ("v", "u")]:
        acts.append(Action(a, b, (_S(2), _S(2)), _D(1)))
        acts.append(Action(a, b, (_S(1), _S(1)), _IOTA))
    return bimod._mk_bim("Y", FLAVOR_BT, FLAVOR_B, gens, acts)


def transcribed_Q():
    """Q as it was written out by hand before it was derived from q."""
    gens = [bimod.BimGen("z", FILLED, FILLED, 0),
            bimod.BimGen("w", HOLLOW, HOLLOW, 0)]
    acts = [Action("z", "w", (_S(1),), _S(1)),
            Action("w", "z", (_S(1),), _S(1))]
    for g in "zw":
        acts.append(Action(g, g, (_D(1),), _S(2)))
        acts.append(Action(g, g, (_S(2),), _S(2)))
    return bimod._mk_bim("Q", FLAVOR_B, FLAVOR_BT, gens, acts)


def transcribed_I():
    """I as it was written out by hand before it was derived from the
    identity bimodule."""
    gens = [bimod.BimGen("l", FILLED, FILLED, 0),
            bimod.BimGen("b", HOLLOW, HOLLOW, 0),
            bimod.BimGen("m", FILLED, FILLED, 1),
            bimod.BimGen("y", HOLLOW, HOLLOW, 1)]
    acts = []
    for a, b in [("l", "b"), ("b", "l"), ("m", "y"), ("y", "m")]:
        acts.append(Action(a, b, (_S(1, 2),), _S(1, 2)))
    for g in "lbmy":
        acts.append(Action(g, g, (_D(1, 1),), _D(1, 1)))
        acts.append(Action(g, g, (_S(2, 2),), _S(2, 2)))
    for a, b in [("l", "m"), ("b", "y")]:
        acts.append(Action(a, b, (), _D(1)))
        acts.append(Action(a, b, (), _S(2)))
    return bimod._mk_bim("I", FLAVOR_B, FLAVOR_B, gens, acts)


TRANSCRIBED = {"Y": transcribed_Y, "Q": transcribed_Q, "I": transcribed_I}


def test_structural_and_enumerated_identities_agree():
    for bound in (7, 20):
        assert (bimod.instantiate_actions(bimod.identity_bimodule(), bound)
                == bimod.instantiate_actions(enumerated_identity(), bound))


@pytest.mark.parametrize("name", TRANSCRIBED)
def test_derived_bimodules_equal_their_transcriptions(name):
    derived = getattr(bimod, f"bimodule_{name}")()
    ref = TRANSCRIBED[name]()
    assert (derived.name, derived.a_flavor, derived.d_flavor) == \
        (ref.name, ref.a_flavor, ref.d_flavor)
    assert list(derived.gens.items()) == list(ref.gens.items())
    for bound in (8, 16, 24, 40):
        assert (bimod.instantiate_actions(derived, bound)
                == bimod.instantiate_actions(ref, bound)), bound
        # the actions come in another order, but the box tensor reads
        # them per (source, inputs), and there the targets come in the
        # same order: so it adds the same arrows in the same order
        index = bimod._action_index(derived, bound)
        ref_index = bimod._action_index(ref, bound)
        assert index.keys() == ref_index.keys()
        for key, fired in index.items():
            assert sorted(fired) == sorted(ref_index[key])
            assert [d for d, _ in fired] == [d for d, _ in ref_index[key]]


def _derive_Y(monkeypatch, table, build=bimod.bimodule_Y.__wrapped__):
    """Y built anew from `table` in place of `functor.F_TABLE`."""
    monkeypatch.setattr(functor, "F_TABLE", table)
    return build()


def test_y_follows_the_functor_table(monkeypatch):
    """Every single-entry mutation of F either leaves Y as it is (keys
    outside the a/c/p subalgebra), is refused (a redirect inside it
    breaks the degree rule) or changes Y; the two c deletions then break
    some gate words' verdicts, the two p deletions none of them."""
    y = bimod.bimodule_Y()
    again = _derive_Y(monkeypatch, dict(functor.F_TABLE))
    # bimodules hash and compare by identity, so compare their fields
    assert (again.name, again.a_flavor, again.d_flavor) == \
        (y.name, y.a_flavor, y.d_flavor)
    assert list(again.gens.items()) == list(y.gens.items())
    assert again.actions == y.actions
    actions = bimod.instantiate_actions(y, 16)
    complexes = [tangles.tangle_complex(tangles.parse_tangle(w))
                 for w in gate_words()]
    unchanged, refused, broken = [], [], {}
    for name, table in functor.table_mutations():
        try:
            mutant = _derive_Y(monkeypatch, table)
        except AssertionError as e:
            assert "breaks the degree rule" in str(e)
            refused.append(name)
            continue
        if bimod.instantiate_actions(mutant, 16) == actions:
            unchanged.append(name)
            continue
        monkeypatch.setattr(bimod, "bimodule_Y", lambda: mutant)
        broken[name] = sum(
            dstruct.iso_check(dstruct.cone_h(m), tangles._two_layer_image(m))
            == dstruct.NOT_FOUND for m in complexes)
    sub = [str(k) for k in functor.F_TABLE
           if len(k) > 1 and set(k) <= {"c0", "c1", "p01", "p10"}]
    assert len(unchanged) == 20 and not any(k in n for n in unchanged
                                            for k in sub)
    assert refused == [f"redirect f2{k}" for k in sub]
    assert len(complexes) == 35
    assert broken == {"delete f2('p01', 'p10')": 0,
                      "delete f2('p10', 'p01')": 0,
                      "delete f2('c0', 'c0')": 1,
                      "delete f2('c1', 'c1')": 6}


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
    ident = bimod.identity_bimodule()
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
                bimod.identity_bimodule()):
        assert bimod.max_weight_shift(bim, 16) <= 4, bim.name
    for mor in (bimod.morphism_f(), bimod.morphism_g()):
        assert bimod.max_weight_shift(mor, 16) <= 4, mor.name


def test_verify_lemma_main_measures_weight_shifts_at_its_bound(monkeypatch):
    # m -> z*t with input D^(1+k) and output D^(1+2k) shifts the weight
    # by 2k, so the shift grows with the bound the lemma runs at
    f = bimod.morphism_f()
    steep = bimod.ADMorphism("f'", f.source, f.target, f.components + (
        Action("m", "z*t", (_D(1, 1),), _D(1, 2)),))
    monkeypatch.setattr(bimod, "morphism_f", lambda: steep)
    report = bimod.verify_lemma_main(24, 8)
    assert report["max_weight_shifts"]["f"] == \
        bimod.max_weight_shift(steep, 24) == 22
    assert not report["checks"]["single-step weight shift <= 4"]


def test_verify_lemma_main_passes():
    report = bimod.verify_lemma_main(16, 8)
    assert report["pass"], report["checks"]
    assert len(report["checks"]) == 9


def test_verify_lemma_rejects_tight_bounds():
    with pytest.raises(AssertionError):
        bimod.verify_lemma_main(8, 8)


def test_bimod_argument_checks_survive_python_O():
    # an assert would vanish under -O: verify_lemma_main(8, 8) would run
    # at an effective bound of 0, and a stride of 3 would slip past the
    # parity argument of _check_families
    out = run_python("""
        from khtangle import bimod
        for make in (lambda: bimod.verify_lemma_main(8, 8),
                     lambda: bimod.Pattern("S", 0, 3)):
            try:
                make()
            except AssertionError as e:
                print("refused:", e)
    """, "-O")
    assert out.splitlines() == [
        "refused: bound 8 and margin 8 need bound > margin >= 8",
        "refused: pattern S needs offset >= 0 and stride 0, 1 or 2, "
        "not 0 and 3"]


def reference_compose(h2_items, h1_items, bound):
    """Composition as it was first written: every pair formed, then the
    composites past the bound filtered out."""
    h2_from = {}
    for s2, d2, in2, out2 in h2_items:
        h2_from.setdefault(s2, []).append((d2, in2, out2))
    acc = set()
    for (s1, d1, in1, out1) in h1_items:
        for d2, in2, out2 in h2_from.get(d1, ()):
            prod = out1 * out2
            if not prod.is_zero():
                acc.symmetric_difference_update({(s1, d2, in1 + in2, prod)})
    return bimod._filter_weight(acc, bound)


def fresh_table(bim_or_mor, bound):
    """The concrete table instantiated anew, bypassing every cache."""
    if isinstance(bim_or_mor, bimod.ADBimodule):
        return bimod._instantiate_all(
            bim_or_mor.actions, bim_or_mor.gens, bim_or_mor.a_flavor,
            bim_or_mor.d_flavor, bound)
    return bimod._instantiate_all(
        bim_or_mor.components, bim_or_mor.source.gens,
        bim_or_mor.source.a_flavor, bim_or_mor.target.d_flavor, bound)


def broken_f():
    f = bimod.morphism_f()
    return bimod.ADMorphism("f'", f.source, f.target, tuple(
        c for c in f.components if not (c.src == "m" and c.dst == "w*u")))


@pytest.mark.parametrize("bound", [8, 12, 16, 24])
def test_composition_within_the_bound_matches_the_reference(bound):
    f, g, fb = bimod.morphism_f(), bimod.morphism_g(), broken_f()
    i, qy = f.source, f.target
    # (later, earlier): every composition the lemma and the broken f make
    for h2, h1 in [(qy, f), (f, i), (i, g), (g, qy), (g, f), (f, g),
                   (qy, fb), (fb, i), (g, fb)]:
        h2, h1 = bimod._table(h2, bound), bimod._table(h1, bound)
        assert (bimod.compose_concrete(h2, h1, bound)
                == reference_compose(h2, h1, bound))


def table_owners():
    return [bimod.bimodule_I(), bimod.bimodule_Q(), bimod.bimodule_Y(),
            bimod.bimodule_QY_expected(),
            bimod.identity_bimodule(), enumerated_identity(),
            bimod.morphism_f(), bimod.morphism_g(), broken_f()]


@pytest.mark.parametrize("owner", table_owners(), ids=lambda o: o.name)
def test_cached_tables_equal_fresh_instantiation_in_order(owner,
                                                          monkeypatch):
    bounds = range(8, 25)
    expected = {bound: fresh_table(owner, bound) for bound in bounds}
    built = []      # the bound of every table instantiated from now on
    build = bimod._instantiate_all

    def counted(families, gens, a_flavor, d_flavor, bound):
        built.append(bound)
        return build(families, gens, a_flavor, d_flavor, bound)

    monkeypatch.setattr(bimod, "_instantiate_all", counted)

    def ask(copy, bound):
        table = bimod._table(copy, bound)
        assert isinstance(table, tuple) and list(table) == expected[bound]

    # a new owner has no table yet and builds one on first use
    fresh = dataclasses.replace(owner)
    assert not built
    ask(fresh, 8)
    assert built == [8]
    # each bound is built once, in the order it was first asked for
    for bound in [*bounds, *bounds]:
        ask(fresh, bound)
    assert built == list(bounds)
    # and so for 8..23 asked for after 24
    built.clear()
    late = dataclasses.replace(owner)
    for bound in [24, *bounds]:
        ask(late, bound)
    assert built == [24, *range(8, 24)]


def test_a_replaced_bimodule_gets_its_own_table():
    y = bimod.bimodule_Y()
    table, index = bimod._table(y, 16), bimod._action_index(y, 16)
    cut = dataclasses.replace(y, actions=y.actions[:-1])
    assert len(bimod._table(cut, 16)) < len(table)
    assert list(bimod._table(cut, 16)) == fresh_table(cut, 16)
    assert bimod._action_index(cut, 16) != index
    # Y's own table and index are the ones built before
    assert bimod._table(y, 16) is table
    assert bimod._action_index(y, 16) is index
    assert list(table) == fresh_table(y, 16)


@pytest.mark.parametrize("bound", [24, 40])
def test_verify_lemma_main_passes_on_wider_windows(bound):
    report = bimod.verify_lemma_main(bound, 8)
    assert report["pass"], report["checks"]
    assert len(report["checks"]) == 9


def test_verify_lemma_main_instantiates_each_table_once():
    out = run_python("""
        from khtangle import bimod
        calls = []
        build = bimod._instantiate_all

        def counted(families, gens, a_flavor, d_flavor, bound):
            calls.append((families, bound))
            return build(families, gens, a_flavor, d_flavor, bound)

        bimod._instantiate_all = counted
        assert bimod.verify_lemma_main(16, 8)["pass"]
        assert bimod.verify_lemma_main(16, 8)["pass"]
        print(len(calls), len(set(calls)), sorted({b for _, b in calls}))
    """)
    # Y, Q, I, QY, f and g at bound 16; the weight shifts read those
    # tables, and a second run builds none
    assert out.splitlines() == ["6 6 [16]"]
