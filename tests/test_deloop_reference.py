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

The d^2 guard of `tangles` sums each local face once per process; the
sum over each distinct face's own arrow lists that it replaced is kept
here as the oracle, with two deloop bugs seeded in `tangles` alone.
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


def global_d_squared_is_zero(lists, edges, c):
    """Whether every 2-face's two-step paths sum to zero, each distinct
    face (by the indices of its four arrow lists) checked once on its
    own lists: the guard of `tangles` before it read local faces.

    A face's paths run from the decorations of bits through bits|i or
    bits|j to those of bits|i|j, so its sum needs nothing but its four
    arrow lists; a list that a path's second step reads is indexed by
    source decoration once per cube."""
    index = {}
    checked = set()
    for face in tangles._faces(edges, c):
        if face in checked:
            continue
        first_i, then_j, first_j, then_i = face
        for k in (then_j, then_i):
            if k not in index:
                index[k] = tangles._by_source(lists[k])
        if dstruct.nonzero_two_step(
                [(tangles._triples(lists[first_i]), index[then_j]),
                 (tangles._triples(lists[first_j]), index[then_i])]):
            return False
        checked.add(face)
    return True


def _old_saddle_shape(src, tgt, site, star_port):
    """`tangles._saddle_shape` as it was, finding each loop's bit by
    `loops.index`."""
    _, a, b, c1, c2 = site
    src_of, tgt_of, loops = src.component_of, tgt.component_of, tgt.loops
    src_touch = {src_of[a], src_of[b], src_of[c1], src_of[c2]}
    star_tgt = tgt_of[star_port]
    return (src.matching, tgt.matching, len(src_touch),
            tuple([1 << loops.index(comp) if comp in loops
                   else -(comp != star_tgt) for comp in
                   sorted({tgt_of[a], tgt_of[b], tgt_of[c1], tgt_of[c2]})]),
            tuple([0 if lid in src_touch else 1 << loops.index(tgt_of[lid])
                   for lid in src.loops]))


def old_walk(cube):
    """`tangles._walk` as it was, on `_old_saddle_shape`."""
    c = len(cube.sites)
    star_port = cube.ends[cube.star]
    edges = [0] * (c << c)
    index = {(): 0}
    for bits, src in cube.resolutions.items():
        for j, site in enumerate(cube.sites):
            if not (bits >> j) & 1:
                edge = tangles._saddle_arrows(*_old_saddle_shape(
                    src, cube.resolutions[bits | (1 << j)], site, star_port))
                edges[bits * c + j] = index.setdefault(edge, len(index))
    res = tuple([(len(r.loops), r.matching)
                 for r in cube.resolutions.values()])
    return res, tuple(edges), tuple(index)


@pytest.mark.parametrize("star", tangles.STAR_CHOICES)
def test_the_walk_is_the_old_walk(star):
    for text in gate_words() + [" ".join(["x1"] * n) for n in range(1, 10)]:
        cube = tangles.build_cube(tangles.parse_tangle(text), star)
        assert tangles._walk(cube) == old_walk(cube), (text, star)


def _dropping_a_dot():
    """`_saddle_arrows` that drops the dot of an edge's first untouched
    loop, where three or more go untouched: more than any edge of a
    local face has, so only the lists of whole cubes are wrong."""
    expand = tangles._saddle_arrows.__wrapped__

    @functools.cache
    def dropping(v, w, n_touched, kinds, loops):
        flat = expand(v, w, n_touched, kinds, loops)
        moved = [k for k, tbit in enumerate(loops) if tbit]
        if len(moved) < 3:
            return flat
        k = moved[0]
        flat = list(flat)
        for i in range(0, len(flat), 3):
            if flat[i] >> k & 1:
                flat[i + 1] &= ~loops[k]
        return tangles._Arrows(flat, (v, w, n_touched, kinds, loops))
    return dropping


def _swapping_two_loops():
    """`_saddle_shape` that swaps the target loops of an edge's first
    two untouched loops."""
    shape = tangles._saddle_shape

    def swapping(*args):
        *rest, loops = shape(*args)
        moved = [k for k, tbit in enumerate(loops) if tbit]
        if len(moved) >= 2:
            loops = list(loops)
            a, b = moved[:2]
            loops[a], loops[b] = loops[b], loops[a]
        return *rest, tuple(loops)
    return swapping


# name -> (`tangles` function, a maker of its wrong replacement)
TANGLES_BUGS = {
    "a dot on an untouched loop is dropped": ("_saddle_arrows",
                                              _dropping_a_dot),
    "an untouched loop goes to another loop": ("_saddle_shape",
                                               _swapping_two_loops),
}


def _whole_cube_error(cube):
    """The message of the d^2 check over the whole delooped cube, built
    from `_deloop_arrows`, or None if it passes."""
    m = dstruct.TypeDStructure()
    at = {(bits, decor): m.add_gen(tangles._gen_name(bits, decor),
                                   res.matching, bits.bit_count())
          for bits, res in cube.resolutions.items()
          for decor in range(1 << len(res.loops))}
    for bits, j, arrows in tangles._deloop_arrows(cube):
        for decor, tdecor, label in tangles._triples(arrows):
            m.add_arrow(at[bits, decor], at[bits | 1 << j, tdecor], label)
    bad = dstruct.check_d_squared(m)
    return f"d^2 != 0 after delooping: {bad[:3]}" if bad else None


def _guard_cases():
    return [(word, star) for star in tangles.STAR_CHOICES
            for word in list(tangles.every_word(4)) +
            [twist(n) for n in range(1, 9)]]


@pytest.mark.parametrize("bug", TANGLES_BUGS)
def test_local_guard_fails_exactly_where_the_oracle_does(monkeypatch, bug):
    # the local guard may leave a face to the whole-cube sum, but it
    # never shows d^2 = 0 where the oracle finds a face that fails
    cubes = [tangles.build_cube(word, star) for word, star in _guard_cases()]
    name, make = TANGLES_BUGS[bug]
    monkeypatch.setattr(tangles, name, make())
    caught = 0
    for cube in cubes:
        walk = tangles._walk(cube)
        res, edges, lists = walk
        holds = global_d_squared_is_zero(lists, edges, len(cube.sites))
        assert holds or not tangles._d_squared_shown_zero(
            lists, edges, len(cube.sites))
        try:
            tangles._guarded(walk)
            error = None
        except AssertionError as err:
            error = str(err)
        assert error == (None if holds else _whole_cube_error(cube))
        caught += not holds
    assert 0 < caught < len(cubes)


# distinct local faces (as arrow lists) of every 2-face of `_guard_cases`;
# every_word(5) at four stars meets 266, and the 200 criterion-6 words at
# four stars 358
LOCAL_FACES_MET = 155


def test_d_squared_is_zero_on_every_local_face_met():
    # a finite check: every 2-face of these words has a local face, each
    # corner of it holding at most the four loops its saddles touch, and
    # d^2 = 0 on each of those local faces
    met = set()
    for word, star in _guard_cases():
        res, edges, lists = tangles._walk(tangles.build_cube(word, star))
        for face in tangles._faces(edges, len(res).bit_length() - 1):
            local = tangles._local_face(*[lists[k] for k in face])
            assert local is not None, (str(word), star)
            met.add(tuple(local))
    assert len(met) == LOCAL_FACES_MET
    for first_i, then_j, first_j, then_i in met:
        for arrows in (first_i, then_j, first_j, then_i):
            assert tangles._saddle_arrows(*arrows.shape) == arrows
            assert len(arrows.shape[4]) <= 4 and arrows.target_loops <= 4
        assert not dstruct.nonzero_two_step(
            [(tangles._triples(first_i), tangles._by_source(then_j)),
             (tangles._triples(first_j), tangles._by_source(then_i))])


def test_a_face_whose_paths_part_two_far_loops_is_left_to_the_whole_sum():
    # two arc-arc saddles round a face whose first corner has two loops
    # that neither saddle touches: one path keeps them in order, the
    # other swaps them, so the local face (no loop at all) has d^2 = 0
    # but the face has not; each edge alone is its rule tensored with
    # the identity, and the far corner's loops agree as a set
    filled, hollow = algebra.FILLED, algebra.HOLLOW
    first_i, then_j, first_j = (tangles._saddle_arrows(
        v, w, 2, (0, -1), (1, 2)) for v, w in ((filled, hollow),
                                                (hollow, filled),
                                                (filled, hollow)))
    then_i = tangles._saddle_arrows(hollow, filled, 2, (0, -1), (2, 1))
    face = (first_i, then_j, first_j, then_i)
    assert all(arrows.target_loops == 2 for arrows in face)
    assert dstruct.nonzero_two_step(
        [(tangles._triples(first_i), tangles._by_source(then_j)),
         (tangles._triples(first_j), tangles._by_source(then_i))])
    assert tangles._local_face(*face) is None
    # an edge's local list needs its far loops to go to the far loops
    assert tangles._local_edge(first_i, 0b01, 0b01) is not None
    assert tangles._local_edge(first_i, 0b01, 0b10) is None
    # and each list needs its moved loops to be its target's loops, once
    for go in ((1, 1), (1, 4)):
        assert tangles._saddle_arrows(
            filled, hollow, 2, (0, -1), go).target_loops is None
