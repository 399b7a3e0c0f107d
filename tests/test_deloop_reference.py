"""The integer deloop of `tangles` against the named-generator deloop.

The reference below works every edge out on its own, adds every arrow
of every source decoration through `TypeDStructure.add_arrow`, which
sums labels per arrow and checks each one's endpoints and degrees, and
then checks d^2 = 0.  `tangles` works each edge shape's rules out once,
checks them once, loads the arrows straight into reduce's integer
adjacency, numbered by the rank of their names worked out from the
blocks of the cube, and names only the generators that survive; its
outputs must be the reference's, in the same order, on every word of at
most 4 slices and on larger ones.
"""

import functools
import random
import tracemalloc

import pytest

from khtangle import algebra, dstruct, tangles
from khtangle.algebra import FLAVOR_B
from test_serialize_gate import gate_words
from test_tangles import DELOOP_BUGS, twist


def reference_deloop(cube):
    """Expand loops into dot decorations and saddles into algebra labels."""
    out = dstruct.TypeDStructure(FLAVOR_B)
    star_port = cube.ends[cube.star]

    positions = {}
    for bits, res in cube.resolutions.items():
        positions[bits] = [out.add_gen(f"v{bits}d{decor}", res.matching,
                                       bin(bits).count("1"))
                           for decor in range(1 << len(res.loops))]

    for bits, src in cube.resolutions.items():
        for j, site in enumerate(cube.sites):
            if (bits >> j) & 1:
                continue
            tbits = bits | (1 << j)
            tgt = cube.resolutions[tbits]
            _add_saddle_arrows(out, src, tgt, positions[bits],
                               positions[tbits], site, star_port)

    bad = dstruct.check_d_squared(out)
    if bad:
        raise AssertionError(f"d^2 != 0 after delooping: {bad[:3]}")
    return out


def _add_saddle_arrows(out, src, tgt, src_gens, tgt_gens, site,
                       star_port):
    """Arrows for the cube edge flipping the crossing at `site`, for
    every source dot decoration, each through `add_arrow`."""
    _, a, b, c1, c2 = site
    src_touch = {src.component_of[p] for p in (a, b, c1, c2)}
    tgt_touch = sorted({tgt.component_of[p] for p in (a, b, c1, c2)})
    star_tgt = tgt.component_of[star_port]
    tgt_bit = {lid: 1 << i for i, lid in enumerate(tgt.loops)}
    v = src.matching

    def dotted(comps, label):
        bits = 0
        for comp in comps:
            if comp in tgt_bit:
                bits |= tgt_bit[comp]
            elif comp == star_tgt:
                return None
            else:
                label = label * algebra.dpow(1, tgt.matching)
        return bits, label

    idem = algebra.idem(v)
    if len(src_touch) == 2 and len(tgt_touch) == 2:
        rules = [[dotted((), algebra.spow(1, v))]]
    elif len(src_touch) == 2:
        rules = [[dotted((), idem)], [dotted(tgt_touch, idem)],
                 [dotted(tgt_touch, algebra.h_mul(idem))]]
    else:
        t_a, t_b = tgt_touch
        rules = [[dotted((t_a,), idem), dotted((t_b,), idem),
                  dotted((), algebra.h_mul(idem))],
                 [dotted((t_a, t_b), idem)]]
    rules = [[r for r in rule if r is not None] for rule in rules]

    touched = 0
    carried = []
    for i, lid in enumerate(src.loops):
        if lid in src_touch:
            touched |= 1 << i
        else:
            carried.append((1 << i, tgt_bit[tgt.component_of[lid]]))

    for decor, s in enumerate(src_gens):
        tdecor = 0
        for sbit, tbit in carried:
            if decor & sbit:
                tdecor |= tbit
        for bits, label in rules[(decor & touched).bit_count()]:
            out.add_arrow(s, tgt_gens[tdecor | bits], label)


def corpus_and_gate_words():
    return list(dict.fromkeys(list(tangles.CORPUS) + gate_words()))


@functools.cache
def reduced_complex(text, star):
    """`tangle_complex` of a word, kept for the other reference tests."""
    return tangles.tangle_complex(tangles.parse_tangle(text), star)


def _same_outputs(text, star):
    """deloop_translate is the reference, and tangle_complex reduces it."""
    word = tangles.parse_tangle(text)
    cube = tangles.build_cube(word, star)
    ref = reference_deloop(cube)
    m = tangles.deloop_translate(cube)
    assert m.gens == ref.gens, (text, star)
    assert list(m.arrows.items()) == list(ref.arrows.items()), (text, star)
    m, ref = reduced_complex(text, star), dstruct.reduce(ref)
    assert dstruct.serialize(m) == dstruct.serialize(ref), (text, star)
    assert list(m.arrows) == list(ref.arrows), (text, star)
    assert m.gens == ref.gens, (text, star)


@pytest.mark.parametrize("star", tangles.STAR_CHOICES)
def test_outputs_are_the_reference(star):
    for text in corpus_and_gate_words() + [" ".join(["x1"] * n)
                                           for n in range(1, 9)]:
        _same_outputs(text, star)


CENSUS = [str(word) for word in tangles.every_word(4)]


@pytest.mark.parametrize("star", tangles.STAR_CHOICES)
def test_every_short_word_is_the_reference_and_equivalent(star):
    assert len(CENSUS) == 1084
    for text in CENSUS:
        _same_outputs(text, star)
        verdict, _ = tangles.compare(tangles.parse_tangle(text), star)
        assert verdict == tangles.EQUIVALENT, (text, star)


def test_block_ids_are_the_sorted_name_ids():
    # `Adjacency` breaks key ties by these ids, so they decide the
    # reduced complex
    for text in CENSUS + [" ".join(["x1"] * n) for n in range(1, 10)]:
        cube = tangles.build_cube(tangles.parse_tangle(text))
        names = [tangles._gen_name(bits, decor)
                 for bits, res in cube.resolutions.items()
                 for decor in range(1 << len(res.loops))]
        res = tangles._walk(cube)[0]
        assert tangles._name_ids(res) == dstruct.name_ids(names), text


def test_outputs_are_the_reference_on_large_words():
    _same_outputs(" ".join(["x1"] * 9), "nw")
    rng = random.Random(0)
    for _ in range(60):
        _same_outputs(str(tangles.random_word(rng, 8)), "nw")


def _deloop_errors(word, cube):
    """The error of `tangle_complex`, of the reference deloop and of
    `deloop_translate` on one word, None for each that passes."""
    errors = []
    for deloop in (lambda: tangles.tangle_complex(word, cube.star),
                   lambda: reference_deloop(cube),
                   lambda: tangles.deloop_translate(cube)):
        try:
            deloop()
            errors.append(None)
        except AssertionError as err:
            errors.append(str(err))
    return errors


@pytest.mark.parametrize("bug", DELOOP_BUGS)
def test_seeded_bugs_fail_both_deloops_alike(monkeypatch, bug):
    rng = random.Random(0)
    words = [tangles.random_word(rng, 5) for _ in range(40)]
    cubes = [tangles.build_cube(word) for word in words]
    monkeypatch.setattr(algebra, *DELOOP_BUGS[bug])
    caught = 0
    for word, cube in zip(words, cubes):
        errors = _deloop_errors(word, cube)
        assert errors[0] == errors[1] == errors[2], str(word)
        if errors[0] is not None:
            assert errors[0].startswith("d^2 != 0 after delooping: [(")
            caught += 1
    assert caught > 0


@pytest.mark.parametrize("star", tangles.STAR_CHOICES)
@pytest.mark.parametrize("bug", DELOOP_BUGS)
def test_face_guard_fails_exactly_when_the_global_guard_does(
        monkeypatch, bug, star):
    # the reference checks d^2 over the whole cube: the face guard of
    # `tangles` must fail on the same words, with the same message
    words = [tangles.parse_tangle(text) for text in tangles.CORPUS] + \
        [twist(n) for n in range(1, 9)]
    cubes = [tangles.build_cube(word, star) for word in words]
    monkeypatch.setattr(algebra, *DELOOP_BUGS[bug])
    caught = 0
    for word, cube in zip(words, cubes):
        errors = _deloop_errors(word, cube)
        assert errors[0] == errors[1] == errors[2], str(word)
        caught += errors[0] is not None
    assert 0 < caught < len(words)


def test_no_delooped_structure_on_the_compare_path():
    # peak traced allocation, each after a first run that fills the
    # label caches; the cube of x1^8 has 3,281 generators
    word = twist(8)
    cube = tangles.build_cube(word)

    def peak(run):
        run()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    direct = peak(lambda: tangles.tangle_complex(word))
    through_reference = peak(lambda: dstruct.reduce(reference_deloop(cube)))
    assert direct <= 0.9 * through_reference, (direct, through_reference)
