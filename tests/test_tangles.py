import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from khtangle import algebra, bimod, dstruct, tangles
from khtangle.algebra import FILLED, HOLLOW, FLAVOR_BT


def test_parse_examples():
    w = tangles.parse_tangle("x1 x1 u1 x2 n3")
    assert w.slices == (("x", 1), ("x", 1), ("u", 1), ("x", 2), ("n", 3))
    assert w.crossings == 3
    assert str(w) == "x1 x1 u1 x2 n3"
    assert tangles.parse_tangle("").slices == ()


def test_parse_errors_report_positions():
    with pytest.raises(tangles.TangleError, match="slice 0.*bad token"):
        tangles.parse_tangle("z1")
    # digits are ASCII: isdigit() accepts a superscript, which int()
    # refuses, and an Arabic-Indic digit, which int() reads as 1
    for bad in ("x\u00b2", "x\u0661"):
        with pytest.raises(tangles.TangleError, match="slice 0.*bad token"):
            tangles.parse_tangle(bad)
    with pytest.raises(tangles.TangleError, match="slice 1.*out of range"):
        tangles.parse_tangle("x1 x2")
    with pytest.raises(tangles.TangleError, match="final strand count"):
        tangles.parse_tangle("u1")
    with pytest.raises(tangles.TangleError, match="final strand count 0"):
        tangles.parse_tangle("n1")
    with pytest.raises(tangles.TangleError,
                       match=r"slice 1: cup index 4 out of range 1\.\.3 "
                             r"\(strand count 2\)"):
        tangles.parse_tangle("x1 u4 n1")


# (slices, the refusal): before `TangleWord` checked its slices, the
# first word compared as a `y` crossing, and the next three died in
# `build_cube` with an IndexError, a KeyError and a crossing end-pairing
REFUSED_SLICES = [
    ((("q", 1),), "slice 0: unknown kind 'q'"),
    ((("x", 3),), r"slice 0: crossing index 3 out of range 1\.\.1 "),
    ((("n", 1),), "final strand count 0 != 2"),
    ((("u", 1),), "final strand count 4 != 2"),
    ((("x", "1"),), "slice 0: crossing index '1' out of range"),
    ((("x", 1.0),), "slice 0: crossing index 1.0 out of range"),
    ((("x", True),), "slice 0: crossing index True out of range"),
    ((("x", 1), ("u", 1), ("n", 2), ("y", 0)), "slice 3: crossing index 0 "),
]


@pytest.mark.parametrize("slices,refusal", REFUSED_SLICES,
                         ids=[str(s) for s, _ in REFUSED_SLICES])
def test_hand_built_words_are_refused_before_any_cube(monkeypatch, slices,
                                                      refusal):
    def build(*args):
        raise AssertionError("built a cube of a refused word")

    monkeypatch.setattr(tangles, "build_cube", build)
    with pytest.raises(tangles.TangleError, match=refusal):
        tangles.compare(tangles.TangleWord(slices))


def test_a_word_whose_strand_count_dips_to_zero_is_a_word():
    # capping both strands leaves none; a cup brings two back
    word = tangles.parse_tangle("n1 u1")
    assert word == tangles.TangleWord((("n", 1), ("u", 1)))
    assert tangles.compare(word)[0] == tangles.EQUIVALENT


def word_stream_digest():
    """sha256 over the words the benchmark and the gates draw, each as the
    repr of its slices, and one draw past each random stream, so that a
    change in the order or the number of the RNG calls shows."""
    h = hashlib.sha256()

    def feed(tag, words, rng=None):
        h.update(f"{tag}\n".encode())
        for w in words:
            h.update(f"{w.slices!r}\n".encode())
        if rng is not None:
            h.update(f"{rng.random()!r}\n".encode())

    for s in range(21):      # the small-words stream
        rng = random.Random(s)
        feed(f"random_word(Random({s}), 2)",
             [tangles.random_word(rng, 2) for _ in range(2000)], rng)
    rng = random.Random(0)   # criterion 6; the serialize gate's first 30
    feed("random_word(Random(0), 8)",
         [tangles.random_word(rng, 8) for _ in range(200)], rng)
    feed("every_word(5)", tangles.every_word(5))   # the census
    return h.hexdigest()


def test_generated_words_are_the_ones_recorded():
    # recorded at b17e09a, before the generators read `tangles._kinds`
    assert word_stream_digest() == (
        "b122d878c2da2fce0474da3bb7f57ab0c5133d6d3603803a9fd65dc749f53d52")


def test_build_cube_examples():
    cube = tangles.build_cube(tangles.parse_tangle("x1"))
    assert set(cube.resolutions) == {0, 1}
    pairings = {bits: r.matching for bits, r in cube.resolutions.items()}
    assert set(pairings.values()) == {FILLED, HOLLOW}
    assert all(r.loops == () for r in cube.resolutions.values())

    trivial = tangles.build_cube(tangles.parse_tangle(""))
    (only,) = trivial.resolutions.values()
    assert only.matching == FILLED and only.loops == ()

    circled = tangles.build_cube(tangles.parse_tangle("u1 n1"))
    (only,) = circled.resolutions.values()
    assert only.matching == FILLED and len(only.loops) == 1


def twist(n):
    return tangles.parse_tangle(" ".join(["x1"] * n))


def test_build_cube_crossing_guard(monkeypatch):
    cap = f"over the cap of {tangles.MAX_GENERATORS:,}"
    # 2^11 resolutions pass the first test; their loops do not
    with pytest.raises(tangles.TangleError,
                       match=f"at least [0-9,]+ generators, {cap}"):
        tangles.build_cube(twist(11))
    cube = tangles.build_cube(twist(10))
    assert sum(1 << len(r.loops) for r in cube.resolutions.values()) == 29_525

    # x1^15 passes the 2^c test and is refused part way through the cube
    calls = []
    simulate = tangles._simulate

    def counting_simulate(joined, sites, ends, bits):
        calls.append(bits)
        return simulate(joined, sites, ends, bits)

    monkeypatch.setattr(tangles, "_simulate", counting_simulate)
    with pytest.raises(tangles.TangleError, match=cap):
        tangles.build_cube(twist(15))
    assert 0 < len(calls) < 1 << 15

    def refusing_simulate(joined, sites, ends, bits):
        raise AssertionError("simulated a cube refused by its size")

    monkeypatch.setattr(tangles, "_simulate", refusing_simulate)
    with pytest.raises(tangles.TangleError, match=f"at least 131,072 .*{cap}"):
        tangles.build_cube(twist(17))
    # 2^15,000 has more digits than str prints; the bound is clamped
    with pytest.raises(tangles.TangleError,
                       match=f"at least {1 << 64:,} generators, {cap}"):
        tangles.build_cube(twist(15_000))


def test_build_cube_refuses_a_word_of_a_million_ports(monkeypatch):
    # 500,001 cup-cap pairs need over 10^6 ports and make one resolution
    # of 500,001 loops; 16 pairs already pass the cap.  Loops of cups and
    # caps alone are loops of every resolution, so both are refused
    # before any resolution is simulated.
    def refusing_simulate(joined, sites, ends, bits):
        raise AssertionError("simulated a cube refused by its size")

    monkeypatch.setattr(tangles, "_simulate", refusing_simulate)
    cap = f"over the cap of {tangles.MAX_GENERATORS:,}"
    with pytest.raises(tangles.TangleError,
                       match=f"at least 65,536 generators, {cap}"):
        tangles.build_cube(tangles.parse_tangle("u1 n1 " * 16))
    with pytest.raises(tangles.TangleError,
                       match=f"at least {1 << 64:,} generators, {cap}"):
        tangles.build_cube(tangles.parse_tangle("u1 n1 " * 500_001))
    # 10 crossings and 6 such loops: 2^16
    with pytest.raises(tangles.TangleError,
                       match=f"at least 65,536 generators, {cap}"):
        tangles.build_cube(tangles.parse_tangle("x1 " * 10 + "u1 n1 " * 6))
    with pytest.raises(AssertionError, match="simulated"):
        tangles.build_cube(tangles.parse_tangle("u1 n1 " * 3))
    monkeypatch.undo()
    (only,) = tangles.build_cube(
        tangles.parse_tangle("u1 n1 " * 3)).resolutions.values()
    assert len(only.loops) == 3


def test_deloop_examples():
    m = tangles.deloop_translate(
        tangles.build_cube(tangles.parse_tangle("u1 n1")))
    assert len(m.gens) == 2  # one loop expands to dotted and undotted
    m = tangles.deloop_translate(
        tangles.build_cube(tangles.parse_tangle("x1")))
    assert len(m.gens) == 2 and len(m.arrows) == 1
    (label,) = m.arrows.values()
    assert label in (algebra.spow(1, FILLED), algebra.spow(1, HOLLOW))


def test_reduced_complex_sizes():
    sizes = {"": 1, "x1": 2, "x1 x1": 3, "u1 n1": 2}
    for text, n in sizes.items():
        m = tangles.tangle_complex(tangles.parse_tangle(text))
        assert len(m.gens) == n, text
        assert dstruct.check_d_squared(m) == []


# (move, one side, the other side): each pair differs by one move
MOVES = [
    ("R1", "u1 x2 n1", ""),
    ("R2", "x1 y1", ""),
    ("R2-cup", "u1 x2 y2 n1", "u1 n1"),
    ("R3", "u1 x1 x2 x1 n3", "u1 x2 x1 x2 n3"),
    ("R3-cup", "x1 u3 x2 x1 x2 n3", "x1 u3 x1 x2 x1 n3"),
    ("zig-zag", "u2 n1", ""),
]


@pytest.mark.parametrize("lhs,rhs", [m[1:] for m in MOVES],
                         ids=[m[0] for m in MOVES])
def test_moves_give_isomorphic_complexes(lhs, rhs):
    m = tangles.tangle_complex(tangles.parse_tangle(lhs))
    n = tangles.tangle_complex(tangles.parse_tangle(rhs))
    assert dstruct.iso_check(m, n) != dstruct.NOT_FOUND


def test_twist_ladder_reduces_to_an_arc():
    # x1^n is rational: its complex is n + 1 generators, for every n the
    # generator cap admits
    for n in range(1, 11):
        assert len(tangles.tangle_complex(twist(n)).gens) == n + 1, n
    with pytest.raises(tangles.TangleError):
        tangles.build_cube(twist(11))


def rational_word(rng, twists):
    """A rational tangle of `twists` random twists from the slope 0/1 of
    the empty word, and its slope p/q by the rule that ROADMAP item 13
    fits, not derives: `x1` (`y1`) appended maps p/q to (p + q)/q
    ((p - q)/q), and `u3 x2 T n2` (`u3 y2 T n2`) around T to p/(q - p)
    (p/(q + p)).  KWZ (arXiv 1910.14584) show that the invariant of a
    rational tangle is one arc, so it has |p| + |q| generators."""
    word, p, q = [], 0, 1
    for _ in range(twists):
        kind = rng.choice("xy")
        sign = 1 if kind == "x" else -1
        if rng.random() < 0.5:
            word, p = word + [f"{kind}1"], p + sign * q
        else:
            word, q = ["u3", f"{kind}2"] + word + ["n2"], q - sign * p
    return tangles.parse_tangle(" ".join(word)), p, q


def test_rational_tangles_reduce_to_an_arc():
    rng = random.Random(2)
    sizes = []
    for _ in range(400):
        word, p, q = rational_word(rng, rng.randint(1, 9))
        sizes.append(len(tangles.tangle_complex(word).gens))
        assert sizes[-1] == abs(p) + abs(q), (str(word), p, q)
    assert max(sizes) > 30
    # the star moves which end is special, not the arc's length
    rng = random.Random(3)
    for _ in range(100):
        word, p, q = rational_word(rng, rng.randint(1, 6))
        for star in tangles.STAR_CHOICES:
            assert len(tangles.tangle_complex(word, star).gens) == \
                abs(p) + abs(q), (str(word), star, p, q)


# name -> (algebra function, replacement): each makes a wrong deloop
DELOOP_BUGS = {
    "H is the identity": ("h_mul", lambda x: x),
    "H is zero": ("h_mul", lambda x: algebra.zero(x.flavor)),
    "dot on an arc is the identity": ("dpow", lambda n, v: algebra.idem(v)),
}


@pytest.mark.parametrize("bug", DELOOP_BUGS)
def test_deloop_guard_catches_seeded_bugs(monkeypatch, bug):
    # on the corpus alone, a merge that drops its H goes uncaught
    rng = random.Random(0)
    words = [tangles.random_word(rng, 5) for _ in range(40)]
    cubes = [tangles.build_cube(word) for word in words]
    monkeypatch.setattr(algebra, *DELOOP_BUGS[bug])
    caught = [0, 0]
    for word, cube in zip(words, cubes):
        for i, deloop in enumerate((lambda: tangles.deloop_translate(cube),
                                    lambda: tangles.tangle_complex(word))):
            try:
                deloop()
            except AssertionError as err:
                assert "d^2 != 0" in str(err)
                caught[i] += 1
    assert caught[0] > 0
    assert caught[1] == caught[0]


def test_star_choice_changes_nothing_essential():
    word = tangles.parse_tangle("x1 x1")
    for star in tangles.STAR_CHOICES:
        m = tangles.tangle_complex(word, star=star)
        assert len(m.gens) == 3


STAR_REFUSED = "star 'up' is not one of nw, ne, sw, se"


def test_unknown_star_is_refused():
    with pytest.raises(tangles.TangleError, match=STAR_REFUSED):
        tangles.compare(tangles.parse_tangle("x1"), star="up")


def run_python(code, *flags):
    """The stdout of `code` run by a fresh interpreter given `flags`."""
    src = Path(tangles.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *flags, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          check=True).stdout


def test_unknown_star_is_refused_under_python_O():
    # an assert would vanish under -O and leave a KeyError deeper down
    out = run_python("""
        from khtangle import tangles
        try:
            tangles.compare(tangles.parse_tangle("x1"), star="up")
        except tangles.TangleError as e:
            print("refused:", e)
    """, "-O")
    assert out.splitlines() == [f"refused: {STAR_REFUSED}"]


def test_unplanar_end_pairing_is_refused_under_python_O():
    # one crossing joins NW to SW (bits 0) or NW to NE (bits 1) and two
    # inner ports to each other, leaving the other two ends apart; under
    # -O a bare assert let these through as FILLED and HOLLOW
    out = run_python("""
        from khtangle import tangles
        ends = dict(zip(tangles.STAR_CHOICES, range(4)))
        sites = {0: [("x", 0, 4, 2, 5)], 1: [("x", 0, 1, 4, 5)]}
        for bits, site in sites.items():
            try:
                tangles._simulate(list(range(6)), site, ends, bits)
            except AssertionError as e:
                print("refused:", e)
    """, "-O")
    refused = "refused: crossing end-pairing; not planar?"
    assert out.splitlines() == [refused, refused]


def test_edge_label_check_survives_python_O():
    # a saddle labelled by the idempotent does not run FILLED -> HOLLOW;
    # under -O an assert would let it through to bimod or the d^2 guard
    code = """
        from khtangle import algebra, tangles
        algebra.spow = lambda n, v, flavor=algebra.FLAVOR_B: \\
            algebra.idem(v, flavor)
        try:
            tangles.compare(tangles.parse_tangle("x1"))
        except AssertionError as e:
            print("stopped:", e)
    """
    for flags in ((), ("-O",)):
        assert run_python(code, *flags).splitlines() == [
            "stopped: label i does not run FILLED -> HOLLOW"], flags


def test_compare_small_corpus_entries():
    for text in ("", "x1", "x1 x1", "u1 n1", "x1 y1"):
        verdict, witness = tangles.compare(tangles.parse_tangle(text))
        assert verdict == tangles.EQUIVALENT, text
        assert witness is not None


def test_cone_matches_boxing_with_the_cone_bimodule():
    for text in ("", "x1", "x1 x1"):
        m = tangles.tangle_complex(tangles.parse_tangle(text))
        lhs = dstruct.reduce(dstruct.cone_h(m))
        rhs = dstruct.reduce(dstruct.box_ad(m, bimod.bimodule_I()))
        assert dstruct.iso_check(lhs, rhs) != dstruct.NOT_FOUND, text


def test_boxing_with_quotient_bimodule_is_the_quotient_map():
    suffix = {FILLED: "*z", HOLLOW: "*w"}
    for text in ("x1", "x1 x1", "u1 n1"):
        m = tangles.tangle_complex(tangles.parse_tangle(text))
        boxed = dstruct.box_ad(m, bimod.bimodule_Q())
        direct = m.map_labels(algebra.q_map, FLAVOR_BT)
        idem = {g.name: g.idem for g in m.gens}
        renamed = {(s + suffix[idem[s]], d + suffix[idem[d]]): v
                   for (s, d), v in direct.arrows.items()}
        assert boxed.arrows == renamed, text
        assert len(boxed.gens) == len(m.gens)


def test_random_words_are_consistent():
    rng = random.Random(20240824)
    for _ in range(20):
        word = tangles.random_word(rng, max_crossings=5)
        # deloop_translate asserts d^2 = 0 internally
        m = tangles.deloop_translate(tangles.build_cube(word))
        r = dstruct.reduce(m)
        assert dstruct.check_d_squared(r) == []
        assert r.euler_counts() == m.euler_counts(), str(word)


def test_random_word_generator_is_valid():
    rng = random.Random(7)
    for _ in range(50):
        word = tangles.random_word(rng, max_crossings=6)
        assert word.crossings <= 6
        assert tangles.parse_tangle(str(word)) == word


def test_compare_refuses_an_oversized_cube_before_delooping(monkeypatch):
    def deloop(cube):
        raise AssertionError("delooped a cube refused by its size")

    monkeypatch.setattr(tangles, "_deloop_arrows", deloop)
    monkeypatch.setattr(tangles, "deloop_translate", deloop)
    with pytest.raises(tangles.TangleError,
                       match="deloops to at least [0-9,]+ generators"):
        tangles.compare(twist(11))
    # the same stand-in does fire on a cube within the cap
    with pytest.raises(AssertionError, match="delooped a cube"):
        tangles.compare(twist(3))


def corrupt_edge(monkeypatch, cube, j):
    """Make `_deloop_arrows` put H times the first label on the edge
    flipping crossing j of resolution 0, and change no other edge."""
    walk = tangles._deloop_arrows

    def corrupted(cube):
        for bits, k, arrows in walk(cube):
            if bits == 0 and k == j:
                decor, tdecor, label, *rest = arrows
                arrows = (decor, tdecor, algebra.h_mul(label), *rest)
            yield bits, k, arrows

    monkeypatch.setattr(tangles, "_deloop_arrows", corrupted)
    monkeypatch.setattr(tangles, "build_cube", lambda word, star: cube)


def test_compare_deloops_once_and_keeps_the_d_squared_guard(monkeypatch):
    word = tangles.parse_tangle("x1 x1 x1")
    cube = tangles.build_cube(word)
    reference = tangles.deloop_translate(cube)
    c = len(cube.sites)
    edge_arrows = {(bits, j): arrows
                   for bits, j, arrows in tangles._deloop_arrows(cube)}
    walks, events, faces, made = [], [], [], []
    walk, guard, faces_of = (tangles._deloop_arrows,
                             tangles._d_squared_shown_zero, tangles._faces)
    d_squared, eliminate = dstruct.check_d_squared, \
        dstruct.Adjacency.eliminate
    add_gen = dstruct.TypeDStructure.add_gen
    add_arrow = dstruct.TypeDStructure.add_arrow

    def counting_walk(cube):
        walks.append(cube)
        return walk(cube)

    def recording_guard(lists, edges, c):
        ok = guard(lists, edges, c)
        events.append(("guard", ok, list(lists), list(edges)))
        return ok

    def recording_faces(edges, c):
        for face in faces_of(edges, c):
            faces.append(face)
            yield face

    def recording_d_squared(m):
        events.append(("d_squared", len(m.gens), len(m.arrows)))
        return d_squared(m)

    def recording_eliminate(adj):
        events.append(("eliminate",))
        return eliminate(adj)

    def recording_add_gen(m, name, idem, hdeg):
        made.append(name)
        return add_gen(m, name, idem, hdeg)

    def recording_add_arrow(m, src, dst, label):
        made.append(m.gens[src].name)
        return add_arrow(m, src, dst, label)

    def deloop(cube):
        raise AssertionError("compare built the delooped structure")

    monkeypatch.setattr(tangles, "_deloop_arrows", counting_walk)
    monkeypatch.setattr(tangles, "_d_squared_shown_zero", recording_guard)
    monkeypatch.setattr(tangles, "_faces", recording_faces)
    monkeypatch.setattr(tangles, "deloop_translate", deloop)
    monkeypatch.setattr(dstruct, "check_d_squared", recording_d_squared)
    monkeypatch.setattr(dstruct.Adjacency, "eliminate", recording_eliminate)
    monkeypatch.setattr(dstruct.TypeDStructure, "add_gen", recording_add_gen)
    monkeypatch.setattr(dstruct.TypeDStructure, "add_arrow",
                        recording_add_arrow)
    verdict, _ = tangles.compare(word)
    assert verdict == tangles.EQUIVALENT
    assert len(walks) == 1
    # the face guard runs once, before anything is cancelled, and the
    # global d^2 sum does not run at all
    (_, ok, lists, edges), *rest = events
    assert ok and rest and all(e == ("eliminate",) for e in rest)
    arrow_lists = [lists[e] for e in edges]
    # it receives every edge's arrows, and so every delooped arrow
    assert {(k // c, k % c): arrows for k, arrows in enumerate(arrow_lists)
            if not (k // c >> k % c) & 1} == edge_arrows
    assert sum(map(len, arrow_lists)) == 3 * len(reference.arrows)
    # it visits every 2-face, each as its four edges
    expected = [(edge_arrows[bits, i], edge_arrows[bits | 1 << i, j],
                 edge_arrows[bits, j], edge_arrows[bits | 1 << j, i])
                for bits in range(1 << c)
                for i, j in itertools.combinations(
                    [k for k in range(c) if not bits >> k & 1], 2)]
    assert [tuple(lists[k] for k in face) for face in faces] == expected
    assert len(faces) == sum(math.comb(c - bits.bit_count(), 2)
                             for bits in range(1 << c))
    # cone_h names its generators v{bits}d{decor}.0 and .1; no delooped
    # generator or arrow goes through TypeDStructure
    assert made and not [name for name in made
                         if re.fullmatch(r"v\d+d\d+", name)]

    # the global d^2 sum runs once a face fails, on the whole cube, to
    # name the bad pairs
    events.clear()
    corrupt_edge(monkeypatch, cube, 0)
    with pytest.raises(AssertionError, match=re.escape("d^2 != 0")):
        tangles.compare(word)
    assert [e[:2] for e in events] == [
        ("guard", False), ("d_squared", len(reference.gens))]
    assert events[1][2] == len(reference.arrows)


def test_face_guard_rechecks_a_shared_edge_list_that_changed(monkeypatch):
    # edge (bits 0, crossing 3) of x1^4 has the arrows of other edges,
    # and each of its faces comes after a face of the same shape that
    # holds; with one label changed, d^2 = 0 must fail with the message
    # that the global sum over the whole cube gives
    word = twist(4)
    cube = tangles.build_cube(word)
    walk = list(tangles._deloop_arrows(cube))
    assert walk[3][:2] == (0, 3)
    assert sum(arrows == walk[3][2] for _, _, arrows in walk) > 1
    corrupt_edge(monkeypatch, cube, 3)

    m = dstruct.TypeDStructure()
    at = {(bits, decor): m.add_gen(tangles._gen_name(bits, decor),
                                   res.matching, bits.bit_count())
          for bits, res in cube.resolutions.items()
          for decor in range(1 << len(res.loops))}
    for bits, j, arrows in tangles._deloop_arrows(cube):
        for decor, tdecor, label in tangles._triples(arrows):
            m.add_arrow(at[bits, decor], at[bits | 1 << j, tdecor], label)
    bad = dstruct.check_d_squared(m)
    assert bad
    message = f"d^2 != 0 after delooping: {bad[:3]}"
    for deloop in (lambda: tangles.tangle_complex(word),
                   lambda: tangles.deloop_translate(cube)):
        with pytest.raises(AssertionError) as err:
            deloop()
        assert str(err.value) == message


def test_compare_expands_each_edge_shape_once(monkeypatch):
    shape = tangles._saddle_shape
    edges = []

    def counting_shape(*args):
        edges.append(args)
        return shape(*args)

    monkeypatch.setattr(tangles, "_saddle_shape", counting_shape)
    expand = tangles._saddle_arrows.cache_info
    # shapes are expanded once per process: x1^9 has 45, 36 of them
    # x1^8's, and deciding it afresh expands none
    for n, n_edges, shapes in ((8, 1024, 36), (9, 2304, 9), (9, 2304, 0)):
        tangles._complex_key.cache_clear()
        tangles._decision.cache_clear()
        edges.clear()
        before = expand().misses
        assert tangles.compare(twist(n))[0] == tangles.EQUIVALENT
        assert (len(edges), expand().misses - before) == (n_edges, shapes)


def test_compare_names_only_the_generators_that_survive_reduce(
        monkeypatch):
    word = twist(9)
    cube = tangles.build_cube(word)
    assert sum(1 << len(r.loops) for r in cube.resolutions.values()) == 9842
    survivors = [g.name for g in tangles.tangle_complex(word).gens]
    assert len(survivors) == 10
    named = []
    gen_name = tangles._gen_name

    def recording_gen_name(bits, decor):
        named.append(gen_name(bits, decor))
        return named[-1]

    monkeypatch.setattr(tangles, "_gen_name", recording_gen_name)
    assert tangles.compare(word)[0] == tangles.EQUIVALENT
    assert named == survivors


def test_every_word_is_every_short_word_random_word_makes():
    words = list(tangles.every_word(4))
    assert len(words) == len(set(words)) == 1084
    assert all(tangles.parse_tangle(str(w)) == w for w in words)
    assert max(len(w.slices) for w in words) == 4
    rng = random.Random(3)
    made = {w for w in (tangles.random_word(rng) for _ in range(20000))
            if len(w.slices) <= 4}
    assert made <= set(words)


def test_every_word_of_at_most_five_slices_is_equivalent_at_every_star():
    # the census at k <= 5: 12,600 words at each star, of which nw gives
    # 1,210 distinct walks and 349 distinct reduced complexes, 64 up to
    # the renaming of their generators and the shift of their hdegs
    words = list(tangles.every_word(5))
    assert len(words) == 12600
    for star in tangles.STAR_CHOICES:
        bad = [str(w) for w in words
               if tangles.compare(w, star)[0] != tangles.EQUIVALENT]
        assert bad == [], (star, bad[:5])
        if star == "nw":
            assert (tangles._complex_key.cache_info().currsize,
                    tangles._decision.cache_info().currsize) == (1210, 64)
