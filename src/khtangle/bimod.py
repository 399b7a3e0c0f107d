"""Type AD bimodules, their box tensor, and AD morphism calculus.

An AD bimodule consumes algebra inputs on one side (the A-side) and
emits one algebra output on the other (the D-side).  Actions come in
k-parameterized families: every exponent is an affine expression
offset + stride*k in one shared non-negative parameter.  Verification
instantiates families up to a weight bound and computes exactly below
it.

Derives the two-layer Y from the functor table, the quotient bimodule Q
from the quotient map and the cone of the identity I from the identity
bimodule; transcribes Q box Y and the morphisms f : I -> Q box Y and g,
mutually inverse, and verifies, truncated, that they are chain isomorphisms.

Bimodules and morphisms hash by identity.  Their concrete tables are
immutable tuples that `_table` builds once per owner and bound, on
first use; a new `ADBimodule` or `ADMorphism` has none yet.  A
composition forms only the pairs whose input weights sum to at most the
bound: a composite weighs the sum of its factors' weights, so one past
the bound could cancel only composites past it too.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import acat, algebra, functor
from .algebra import BElem, Vertex, FILLED, HOLLOW, FLAVOR_B, FLAVOR_BT


@dataclass(frozen=True)
class Pattern:
    """An exponent family: letter S/D/i with exponent offset + stride*k."""

    letter: str  # 'S', 'D', or 'i'
    offset: int = 0
    stride: int = 0

    def __post_init__(self):
        # raised, not asserted: _check_families relies on stride <= 2
        _require(self.letter in ("S", "D", "i"),
                 f"pattern letter {self.letter!r} is not S, D or i")
        _require(self.offset >= 0 and self.stride in (0, 1, 2),
                 f"pattern {self.letter} needs offset >= 0 and stride "
                 f"0, 1 or 2, not {self.offset} and {self.stride}")
        _require(self.letter != "i" or self.offset == self.stride == 0,
                 "pattern i takes no offset or stride")

    def exponent(self, k):
        return self.offset + self.stride * k

    def instantiate(self, k, vertex: Vertex, flavor) -> BElem:
        e = self.exponent(k)
        if self.letter == "i" or e == 0:
            return algebra.idem(vertex, flavor)
        power = algebra.spow if self.letter == "S" else algebra.dpow
        return power(e, vertex, flavor)

    def __str__(self):
        if self.letter == "i":
            return "1"
        if self.stride == 0:
            return self.letter if self.offset == 1 else f"{self.letter}^{self.offset}"
        coef = "" if self.stride == 1 else str(self.stride)
        tail = f"+{self.offset}" if self.offset else ""
        return f"{self.letter}^{{{coef}k{tail}}}"


@dataclass(frozen=True)
class BimGen:
    name: str
    left_idem: Vertex   # A-side idempotent
    right_idem: Vertex  # D-side idempotent
    hdeg: int = 0


@dataclass(frozen=True)
class Action:
    """A family of delta components: inputs consumed along the A-side
    path from the source generator, one D-side output emitted."""

    src: str
    dst: str
    inputs: tuple       # tuple of Pattern, in path order (first applied first)
    output: Pattern

    def __str__(self):
        ins = ",".join(str(p) for p in self.inputs) or "-"
        return f"({ins} | {self.output})"


@dataclass(frozen=True, eq=False)
class ADBimodule:
    """An AD bimodule; every family is checked to be well typed for
    every parameter value, so its concrete actions need no checks."""

    name: str
    a_flavor: str
    d_flavor: str
    gens: dict            # name -> BimGen
    actions: tuple        # tuple of Action

    def __post_init__(self):
        _check_families("action", self.actions, self.gens, self.gens,
                        self.a_flavor, self.d_flavor, 1)

    @functools.cached_property
    def depth(self):
        """The most inputs any action consumes."""
        return max((len(a.inputs) for a in self.actions), default=0)

    @functools.cached_property
    def gens_by_idem(self):
        """A-side idempotent -> names of the generators there, in order."""
        out = {}
        for g in self.gens.values():
            out[g.left_idem] = out.get(g.left_idem, ()) + (g.name,)
        return out


def _check_families(what, families, src_gens, dst_gens, a_flavor, d_flavor,
                    degree):
    """Refuse a family that breaks the degree rule, hdeg(dst) - hdeg(src)
    = degree - #inputs, or is ill typed for some parameter value.  Raised,
    not asserted: python -O must refuse it too, as the box tensor and the
    morphism calculus trust every concrete action."""
    for a in families:
        s, d = src_gens[a.src], dst_gens[a.dst]
        where = f"{what} {a.src}->{a.dst} {a}"
        _require(d.hdeg - s.hdeg == degree - len(a.inputs),
                 f"{where} breaks the degree rule")
        _require(any(p.stride for p in a.inputs) or not a.output.stride,
                 f"{where} has a growing output on fixed inputs")
        # strides are at most 2, so k = 0 and 1 give every parity
        for k in (0, 1):
            v = s.left_idem
            for p in a.inputs:
                v = p.instantiate(k, v, a_flavor).ends()[1]
            _require(v == d.left_idem, f"{where} inputs do not run "
                     f"{s.left_idem!r} -> {d.left_idem!r}")
            _require(a.output.instantiate(k, s.right_idem, d_flavor)
                     .ends()[1] == d.right_idem, f"{where} output does "
                     f"not run {s.right_idem!r} -> {d.right_idem!r}")


def _require(ok, message):
    if not ok:
        raise AssertionError(message)


def _mk_bim(name, a_flavor, d_flavor, gens, actions):
    return ADBimodule(name, a_flavor, d_flavor,
                      {g.name: g for g in gens}, tuple(actions))


def _S(offset, stride=0):
    return Pattern("S", offset, stride)


def _D(offset, stride=0):
    return Pattern("D", offset, stride)


_IOTA = Pattern("i")


def _pattern(mono: BElem) -> Pattern:
    """The fixed pattern of a monomial."""
    (kind, n, _), = mono.terms
    return _IOTA if kind == "i" else Pattern(kind.upper(), n)


def _h_cone(name, flavors, names, terms) -> ADBimodule:
    """Two layers joined by each vertex's H arrow: `names` names the
    top (hdeg 0) then bottom generators, filled then hollow, and a term
    (slot, source vertex, target vertex, inputs, output) runs from the
    slot's first end to its second, as in `cones` (t top, b bottom)."""
    gens = [BimGen(n, v, v, h) for (h, v), n in
            zip(itertools.product((0, 1), (FILLED, HOLLOW)), names)]
    at = {("tb"[g.hdeg], g.left_idem): g.name for g in gens}
    acts = [Action(at[slot[0], s], at[slot[1], d], ins, out)
            for slot, s, d, ins, out in terms]
    acts += [Action(at["t", v], at["b", v], (), _pattern(m))
             for v in (FILLED, HOLLOW) for m in algebra.h_elem(v).monomials()]
    return _mk_bim(name, *flavors, gens, acts)


@functools.cache
def bimodule_Y() -> ADBimodule:
    """The functor F on the a/c/p subalgebra as an H-cone: a key of
    non-unit generators gives an action per term of its image, its inputs
    the key's quotient monomials in path order (the key reversed).  Every
    `compare` boxes with this one instance, checked and indexed once."""
    preimage = {g: _pattern(m) for m, g in acat.BT_TO_SUB.items()
                if not m.is_idem}
    terms = []
    for key in functor.F_TABLE:
        if set(key) <= preimage.keys():
            f = functor.apply_F(functor.F_TABLE, key)
            ins = tuple(preimage[g] for g in reversed(key))
            # sorted: BElem hashes by identity, so set order varies
            terms += [(slot, f.src, f.dst, ins, _pattern(m))
                      for slot, m in sorted(f.terms)]
    return _h_cone("Y", (FLAVOR_BT, FLAVOR_B), "tukv", terms)


@functools.cache
def bimodule_Q() -> ADBimodule:
    """The quotient map, an action t -> u per monomial u of q(t); weight
    2 covers them all, as q keeps weight and the quotient has no heavier.
    One shared instance, as for `bimodule_Y`."""
    gens = [BimGen("z", FILLED, FILLED, 0), BimGen("w", HOLLOW, HOLLOW, 0)]
    acts = [Action(s.name, d.name, (_pattern(t),), _pattern(u))
            for s, d in itertools.product(gens, repeat=2)
            for t in algebra.monomials_between(s.left_idem, d.left_idem, 2)
            if not t.is_idem for u in algebra.q_map(t).monomials()]
    return _mk_bim("Q", FLAVOR_B, FLAVOR_BT, gens, acts)


@functools.cache
def bimodule_I() -> ADBimodule:
    """The H-cone of `identity_bimodule`, its non-unit actions in both
    layers.  One shared instance, as for `bimodule_Y`."""
    ident = identity_bimodule()
    terms = [(slot, ident.gens[a.src].left_idem, ident.gens[a.dst].left_idem,
              a.inputs, a.output)
             for a in ident.actions if a.inputs != (_IOTA,)
             for slot in ("tt", "bb")]
    return _h_cone("I", (FLAVOR_B, FLAVOR_B), "lbmy", terms)


def identity_bimodule() -> ADBimodule:
    """Pass-through bimodule of the full algebra: even S powers and D
    powers loop at a generator, odd S powers connect the two."""
    gens = [BimGen("e.f", FILLED, FILLED, 0), BimGen("e.h", HOLLOW, HOLLOW, 0)]
    acts = [Action(g.name, g.name, (_IOTA,), _IOTA) for g in gens]
    for a, b in [("e.f", "e.f"), ("e.h", "e.h"), ("e.f", "e.h"),
                 ("e.h", "e.f")]:
        for p in [_S(2, 2), _D(1, 1)] if a == b else [_S(1, 2)]:
            acts.append(Action(a, b, (p,), p))
    return _mk_bim(f"id[{FLAVOR_B}]", FLAVOR_B, FLAVOR_B, gens, acts)


@functools.cache
def bimodule_QY_expected() -> ADBimodule:
    """The box tensor of Q and Y, transcribed as a standalone table.

    One shared instance, as for `bimodule_Y`: the lemma verifier
    builds it several times.
    """
    gens = [BimGen("z*t", FILLED, FILLED, 0), BimGen("w*u", HOLLOW, HOLLOW, 0),
            BimGen("z*k", FILLED, FILLED, 1), BimGen("w*v", HOLLOW, HOLLOW, 1)]
    acts = []
    for a, b in [("z*t", "w*u"), ("w*u", "z*t"), ("z*k", "w*v"),
                 ("w*v", "z*k")]:
        acts.append(Action(a, b, (_S(1),), _S(1)))
    for g in ("z*t", "w*u", "z*k", "w*v"):
        acts.append(Action(g, g, (_S(2),), _D(1)))
        acts.append(Action(g, g, (_D(1),), _D(1)))
    for a, b in [("z*t", "z*k"), ("w*u", "w*v")]:
        acts.append(Action(a, b, (), _D(1)))
        acts.append(Action(a, b, (), _S(2)))
    for a, b in [("z*k", "z*t"), ("w*v", "w*u")]:
        acts.append(Action(a, b, (_S(1), _S(1)), _IOTA))
        acts.append(Action(a, b, (_D(1), _D(1)), _D(1)))
        acts.append(Action(a, b, (_S(2), _D(1)), _D(1)))
        acts.append(Action(a, b, (_D(1), _S(2)), _D(1)))
        acts.append(Action(a, b, (_S(2), _S(2)), _D(1)))
    return _mk_bim("QY", FLAVOR_B, FLAVOR_B, gens, acts)


# --- morphisms ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ADMorphism:
    name: str
    source: ADBimodule
    target: ADBimodule
    components: tuple    # tuple of Action (src in source, dst in target)

    def __post_init__(self):
        _check_families("component", self.components, self.source.gens,
                        self.target.gens, self.source.a_flavor,
                        self.target.d_flavor, 0)


@functools.cache
def morphism_f() -> ADMorphism:
    """f : I -> Q box Y.  One shared instance, as for `bimodule_Y`."""
    comps = [Action("l", "z*t", (), _IOTA), Action("b", "w*u", (), _IOTA),
             Action("m", "z*k", (), _IOTA), Action("y", "w*v", (), _IOTA)]
    for a, b in [("m", "z*t"), ("y", "w*u")]:
        comps.append(Action(a, b, (_S(2, 2),), _S(0, 2)))
        comps.append(Action(a, b, (_D(2, 1),), _D(1, 1)))
    comps.append(Action("m", "w*u", (_S(3, 2),), _S(1, 2)))
    comps.append(Action("y", "z*t", (_S(3, 2),), _S(1, 2)))
    return ADMorphism("f", bimodule_I(), bimodule_QY_expected(), tuple(comps))


@functools.cache
def morphism_g() -> ADMorphism:
    """g : Q box Y -> I.  One shared instance, as for `bimodule_Y`."""
    comps = [Action("z*t", "l", (), _IOTA), Action("w*u", "b", (), _IOTA),
             Action("z*k", "m", (), _IOTA), Action("w*v", "y", (), _IOTA)]
    for a, b in [("z*k", "l"), ("w*v", "b")]:
        comps.append(Action(a, b, (_S(2, 2),), _S(0, 2)))
        comps.append(Action(a, b, (_D(2, 1),), _D(1, 1)))
    comps.append(Action("z*k", "b", (_S(3, 2),), _S(1, 2)))
    comps.append(Action("w*v", "l", (_S(3, 2),), _S(1, 2)))
    return ADMorphism("g", bimodule_QY_expected(), bimodule_I(), tuple(comps))


# --- instantiation ------------------------------------------------------

def _instantiate_component(comp: Action, gens, a_flavor, d_flavor, bound):
    """Concrete tuples (src, dst, input monomials, output monomial), the
    inputs in a_flavor and the output in d_flavor."""
    sgen = gens[comp.src]
    out = []
    strides = [p.stride for p in comp.inputs] + [comp.output.stride]
    kmax = 0 if all(s == 0 for s in strides) else bound
    for k in range(kmax + 1):
        monos, v = [], sgen.left_idem
        for p in comp.inputs:
            monos.append(p.instantiate(k, v, a_flavor))
            v = monos[-1].ends()[1]
        if sum(m.max_weight for m in monos) > bound:
            break
        if any(m.is_idem and p.letter != "i"
               for m, p in zip(monos, comp.inputs)):
            continue  # an exponent collapsed to zero: not a valid input
        outm = comp.output.instantiate(k, sgen.right_idem, d_flavor)
        out.append((comp.src, comp.dst, tuple(monos), outm))
    return out


def _instantiate_all(families, gens, a_flavor, d_flavor, bound):
    """Concrete actions of the families, F2-reduced, in family order
    (not set order, which varies between processes), so a box tensor
    adds its arrows in the same order in every run."""
    acc = {}
    for fam in families:
        for item in _instantiate_component(fam, gens, a_flavor, d_flavor,
                                           bound):
            if item in acc:
                del acc[item]
            else:
                acc[item] = None
    return list(acc)


def _weight(item):
    """The total input weight of a concrete action or component."""
    return sum(m.max_weight for m in item[2])


@functools.cache
def _table(owner, bound):
    """The concrete actions of a bimodule, or components of a morphism,
    of input weight <= bound, as a tuple built once per owner and bound.
    Keyed on the owner itself, not on its id(): the cache keeps the
    owner alive, so its address is never another owner's."""
    if isinstance(owner, ADBimodule):
        return tuple(_instantiate_all(owner.actions, owner.gens,
                                      owner.a_flavor, owner.d_flavor, bound))
    return tuple(_instantiate_all(owner.components, owner.source.gens,
                                  owner.source.a_flavor,
                                  owner.target.d_flavor, bound))


def instantiate_actions(bim: ADBimodule, bound):
    """All concrete actions with total input weight <= bound, F2-reduced."""
    return frozenset(_table(bim, bound))


def _filter_weight(items, bound):
    return frozenset(i for i in items if _weight(i) <= bound)


def diff_ad_morphism(mor: ADMorphism, bound):
    """Truncated differential of an AD morphism, as concrete components.

    Exact for every component of total input weight <= bound, and has
    no other: the components are instantiated up to the bound, a
    composition forms only the pairs within it, and a split keeps the
    input weight.  Terms: the morphism followed by a target action, a
    source action followed by the morphism, and the morphism with one
    input split into two non-idempotent factors (the A-side
    multiplication terms).
    """
    h = _table(mor, bound)
    acc = set(compose_concrete(_table(mor.target, bound), h, bound)
              ^ compose_concrete(h, _table(mor.source, bound), bound))
    for (cs, cd, cin, cout) in h:
        for i, mono in enumerate(cin):
            for first, second in algebra.splits(mono):
                item = (cs, cd, cin[:i] + (first, second) + cin[i + 1:], cout)
                acc.symmetric_difference_update({item})
    return frozenset(acc)


def compose_concrete(h2_items, h1_items, bound):
    """Concrete composition: h1 first, then h2, of input weight <= bound.

    A pair is formed only if its input weights sum to at most the bound:
    the composite weighs that sum, and equal composites weigh the same,
    so one past the bound could cancel only composites past it too.
    """
    h2_from = {}
    for item in h2_items:
        h2_from.setdefault(item[0], []).append((_weight(item),) + item[1:])
    acc = set()
    for item in h1_items:
        s1, d1, in1, out1 = item
        room = bound - _weight(item)
        for w2, d2, in2, out2 in h2_from.get(d1, ()):
            if w2 <= room:
                prod = out1 * out2
                if not prod.is_zero():
                    acc ^= {(s1, d2, in1 + in2, prod)}
    return frozenset(acc)


def compose_ad_morphisms(h2: ADMorphism, h1: ADMorphism, bound):
    _require(h1.target.name == h2.source.name,
             f"{h2.name} starts at {h2.source.name}, not at "
             f"{h1.name}'s target {h1.target.name}")
    return compose_concrete(_table(h2, bound), _table(h1, bound), bound)


def identity_components(bim: ADBimodule):
    return frozenset(
        (g.name, g.name, (), algebra.idem(g.right_idem, bim.d_flavor))
        for g in bim.gens.values())


# --- box tensor of bimodules --------------------------------------------

@functools.cache
def _action_index(bim: ADBimodule, bound):
    """(source, input monomials) -> [(target, output)] over the concrete
    actions of input weight <= bound, built once per bimodule and bound."""
    index = {}
    for s, d, ins, out in _table(bim, bound):
        index.setdefault((s, ins), []).append((d, out))
    return index


def box_matches(left_idems, left_out, right: ADBimodule, bound):
    """The box-tensor matcher behind box_bimods and dstruct.box_ad.

    `left_idems` yields each left generator with its D-side idempotent,
    as (generator, idempotent) pairs, and `left_out[x]` lists the
    concrete outgoing actions (target, inputs, output) of generator x; a
    type D structure's arrow monomials enter as actions with no inputs.
    A concrete right action with r inputs, r = 0 included, fires on every
    path of r left actions whose outputs equal its inputs in order.
    Right actions are instantiated up to input weight `bound`.  Yields
    one ((left source, right source), (left target, right target),
    inputs, output) per firing, right generators by name; equal firings
    cancel over F2.
    """
    index = _action_index(right, bound)
    depth, by_idem = right.depth, right.gens_by_idem
    for x, idem in left_idems:
        starts = by_idem.get(idem)
        if not starts:
            continue
        # left paths from x: (end, concatenated inputs, outputs)
        paths = frontier = [(x, (), ())]
        for _ in range(depth):
            frontier = [(d, ins + ains, outs + (out,))
                        for end, ins, outs in frontier
                        for d, ains, out in left_out[end]]
            paths = paths + frontier
        for end, ins, outs in paths:
            for b in starts:
                for bd, rout in index.get((b, outs), ()):
                    yield (x, b), (end, bd), ins, rout


def box_bimods(left: ADBimodule, right: ADBimodule, bound) -> frozenset:
    """Concrete action set of the box tensor, truncated by input weight."""
    _require(left.d_flavor == right.a_flavor,
             f"{left.name} emits {left.d_flavor} but {right.name} "
             f"consumes {right.a_flavor}")
    left_out = {name: [] for name in left.gens}
    for s, d, ins, out in _table(left, bound):
        left_out[s].append((d, ins, out))
    left_idems = [(g.name, g.right_idem) for g in left.gens.values()]
    acc = set()
    for (x, b), (end, bd), ins, out in box_matches(left_idems, left_out,
                                                  right, bound):
        if sum(m.max_weight for m in ins) <= bound:
            acc ^= {(f"{x}*{b}", f"{end}*{bd}", ins, out)}
    return frozenset(acc)


# --- lemma verification -------------------------------------------------

def max_weight_shift(bim_or_mor, bound):
    """Largest |output weight - input weight| over the concrete actions
    or components of input weight <= bound."""
    return max((abs(item[3].max_weight - _weight(item))
                for item in _table(bim_or_mor, bound)), default=0)


def verify_lemma_main(bound=16, margin=8):
    """The truncated chain-isomorphism verification for f and g.

    Checks, on every component of total input weight <= bound - margin:
    the computed box tensor of Q and Y matches the transcribed table,
    both morphisms are cycles, both composites are identities, and the
    arity-graded sub-identities of the composites hold; and on every
    action and component of input weight <= bound: no single step
    shifts the weight by more than 4.
    """
    _require(bound > margin >= 8,
             f"bound {bound} and margin {margin} need bound > margin >= 8")
    report = {"checks": {}, "pass": True}
    f, g = morphism_f(), morphism_g()
    qy = f.target
    eff = bound - margin

    computed = _filter_weight(box_bimods(bimodule_Q(), bimodule_Y(), bound),
                              eff)
    expected = _filter_weight(instantiate_actions(qy, bound), eff)
    report["checks"]["box QY = transcribed table"] = computed == expected

    for name, mor in (("df = 0", f), ("dg = 0", g)):
        leftover = _filter_weight(diff_ad_morphism(mor, bound), eff)
        report["checks"][name] = not leftover

    # identity components have no inputs, so every one is within eff
    id_i = identity_components(f.source)
    id_qy = identity_components(qy)
    whole = compose_ad_morphisms(g, f, bound)
    fog = _filter_weight(compose_ad_morphisms(f, g, bound), eff)
    report["checks"]["g after f = id"] = _filter_weight(whole, eff) == id_i
    report["checks"]["f after g = id"] = fog == id_qy

    # arity-graded sub-identities of g after f: f and g have arity <= 1,
    # so the arity-j part of the composite is the sum of g_b f_a, a + b = j
    part = [frozenset(c for c in whole if len(c[2]) == j) for j in range(3)]
    report["checks"].update({
        "arity 0: g0 after f0 = id": part[0] == id_i,
        "arity 1: g0 f1 + g1 f0 = 0": not part[1],
        "arity 2: g1 after f1 = 0": not _filter_weight(part[2], eff),
    })

    shifts = {n: max_weight_shift(x, bound) for n, x in
              [("Y", bimodule_Y()), ("Q", bimodule_Q()),
               ("I", bimodule_I()), ("QY", qy), ("f", f), ("g", g)]}
    report["max_weight_shifts"] = shifts
    report["checks"]["single-step weight shift <= 4"] = \
        max(shifts.values()) <= 4
    report["pass"] = all(report["checks"].values())
    return report
