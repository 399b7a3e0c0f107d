"""Tangle words, the cube of resolutions, and the comparison pipeline.

A 4-ended tangle is presented as a word of slices read top to bottom,
which `TangleWord` checks against the grammar `_SLICES` as it is made:
`x i` / `y i` are the two crossing types between strands i and i+1,
`u i` inserts a cup (two new adjacent strands), `n i` caps off strands
i and i+1, and the strand count starts and ends at 2.  The four ends
are NW, NE (top) and SW, SE (bottom), the distinguished one NW by default.

One walk over the word numbers the ports of a port graph and joins its
cups and caps; each of the 2^c resolutions adds the two joins of each
crossing's smoothing.  A vertex of the cube records its end-pairing
(FILLED = vertical, HOLLOW = horizontal) and its closed loops.
Delooping turns the cube into a type D structure over the full quiver
algebra with dotted-cobordism labels, and the two comparison pipelines
build the H-cone and the two-layer bimodule image from it.

`compare` decides each distinct reduced complex once per process, up
to an order-preserving renaming of its generators and a global hdeg
shift, and reduces each distinct walk of the delooped cube once, as
`functools` caches of `MAX_DECISIONS` (4,096) entries over two pure
functions: `_complex_key` from the walk to the reduced complex's key
(its generators named by the ranks of their names, their hdegs taken
above the lowest, and its arrows), the names by rank and the lowest
hdeg, and `_decision` from that key to the verdict, whose witness
`compare` renames back.  `_saddle_arrows` expands each edge shape once
per process.  Words repeat both often: 12,600 words of `every_word(5)`
give 1,210 distinct walks and 64 distinct keys at nw (349 complexes
with their own names and hdegs), 161,668 of `every_word(6)` give 9,390
walks and 481 keys (2,057 complexes), and the first 200
`random_word(Random(s), 2)` words of seeds s = 101-110 hold 91 to 108
walks and 37 to 44 keys (79 to 89 complexes).

The d^2 guard sums each local face (a 2-face on the at most four loops
per corner that its saddles touch) once per process, in two more
caches keyed on arrow lists, `_local_edge` and
`_local_d_squared_is_zero`: 266 local faces on `every_word(5)` and 358
on the 200 `random_word(Random(0), 8)` words, at the four stars.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
from collections import defaultdict
from dataclasses import dataclass

from . import algebra, bimod, dstruct
from .algebra import Vertex, FILLED, HOLLOW, FLAVOR_B

STAR_CHOICES = ("nw", "ne", "sw", "se")


# kind -> (name, reach, step): index 1 to count + reach, then count + step
_SLICES = {"x": ("crossing", -1, 0), "y": ("crossing", -1, 0),
           "u": ("cup", 1, 2), "n": ("cap", -1, -2)}


class TangleError(ValueError):
    pass


@dataclass(frozen=True)
class TangleWord:
    """Slices (kind, index) checked as they are made, so every later stage
    trusts them: an int index in its kind's range at each strand count,
    which starts at 2, may dip to 0 (`n1 u1`) and ends at 2."""
    slices: tuple  # tuple of (kind, index), kind in "xyun"

    def __post_init__(self):
        count = 2     # inline, not by `_kinds`: every parsed word runs this
        for pos, (kind, i) in enumerate(self.slices):
            try:
                what, reach, step = _SLICES[kind]
            except (KeyError, TypeError):
                raise TangleError(
                    f"slice {pos}: unknown kind {kind!r}") from None
            if type(i) is not int or not 1 <= i <= count + reach:
                raise TangleError(
                    f"slice {pos}: {what} index {i!r} out of range "
                    f"1..{count + reach} (strand count {count})")
            count += step
        if count != 2:
            raise TangleError(f"final strand count {count} != 2")

    @property
    def crossings(self):
        return sum(1 for k, _ in self.slices if k in "xy")

    def __str__(self):
        return " ".join(f"{k}{i}" for k, i in self.slices)


@functools.lru_cache(maxsize=1024)
def _token(tok):
    """(kind, index) of a kind letter then ASCII digits, else None."""
    kind, num = tok[:1], tok[1:]
    if kind in _SLICES and num.isascii() and num.isdigit():
        return kind, int(num)
    return None


def parse_tangle(text: str) -> TangleWord:
    """Tokenize a slice word; `TangleWord` checks its slices."""
    slices = tuple(map(_token, text.split()))
    if None in slices:
        pos = slices.index(None)
        raise TangleError(f"slice {pos}: bad token {text.split()[pos]!r}")
    return TangleWord(slices)


# --- the port graph and its resolutions ----------------------------------

def _find(parent, p):
    while parent[p] != p:
        parent[p] = parent[parent[p]]
        p = parent[p]
    return p


def _union(parent, p, q):
    """Join the components of p and q in a flat union-find whose roots
    are the smallest ports of their components; False if already one."""
    p, q = _find(parent, p), _find(parent, q)
    if q < p:
        p, q = q, p
    parent[q] = p
    return p != q


@dataclass
class Resolution:
    matching: Vertex
    loops: tuple            # sorted tuple of loop ids (min port)
    component_of: list      # port -> component id (min port of component)


def _simulate(joined, sites, ends, bits) -> Resolution:
    """Add the joins of every crossing per its bit to the cup and cap
    joins and compute the pairing."""
    parent = joined.copy()
    for j, (kind, a, b, c1, c2) in enumerate(sites):
        if (bits >> j) & 1 == (kind == "x"):   # a turns back to b
            _union(parent, a, b)
            _union(parent, c1, c2)
        else:
            _union(parent, a, c1)
            _union(parent, b, c2)
    # a parent is never a larger port, so one pass in port order sets
    # each port to its root, the component id
    for p in range(len(parent)):
        parent[p] = parent[parent[p]]
    t1, t2, b1, b2 = (parent[ends[e]] for e in STAR_CHOICES)

    # raised, not asserted: python -O must refuse a crossing pairing too
    if t1 == b1 and t2 == b2:
        matching = FILLED
    elif t1 == t2 and b1 == b2:
        matching = HOLLOW
    else:
        raise AssertionError("crossing end-pairing; not planar?")
    loops = tuple(sorted(set(parent) - {t1, t2, b1, b2}))
    return Resolution(matching, loops, parent)


@dataclass
class ResolutionCube:
    sites: tuple        # per crossing: (kind, a, b, c1, c2), ports a, b above
    ends: dict          # "nw"/"ne"/"sw"/"se" -> port
    resolutions: dict   # bits -> Resolution
    star: str = "nw"


# Each resolution deloops to 2^(its loops) generators.  A loop of cups
# and caps alone is a loop of every resolution, so a cube with c
# crossings and l such loops deloops to at least 2^(c + l) generators.
# The cap admits x1^10 (29,525 generators; `compare` takes 0.39-0.73 s
# and 46 MB peak RSS in a fresh process on a 2-vCPU Xeon VM, six runs
# with the d^2 guard on local faces, import included; the spread is the
# host's drift) and the worst criterion-6 word (26,244).  It refuses
# x1^11 (88,574 generators) before any delooping, although with the
# cap lifted `compare` takes 1.3-1.4 s and 110 MB there (three runs):
# the cap bounds the size of the delooped cube, not the 30 s per-tangle
# budget.
MAX_GENERATORS = 50_000


def _refuse(gens):
    raise TangleError(f"the cube deloops to at least {gens:,} generators, "
                      f"over the cap of {MAX_GENERATORS:,}")


def build_cube(word: TangleWord, star="nw") -> ResolutionCube:
    """Number the ports and join cups and caps in one walk over the word,
    then simulate every resolution; refuse a cube that would deloop to
    more than MAX_GENERATORS generators up front, or as soon as its
    resolutions so far pass the cap."""
    if star not in STAR_CHOICES:
        raise TangleError(f"star {star!r} is not one of "
                          f"{', '.join(STAR_CHOICES)}")
    joined = [0, 1]     # ports 0, 1 are the top ends
    ports = [0, 1]      # the ports crossing the current level
    sites = []
    cupcap_loops = 0
    for kind, i in word.slices:
        p = len(joined)
        if kind == "u":
            joined += [p, p]
            ports[i - 1:i - 1] = [p, p + 1]
        elif kind == "n":
            # a cap on two joined ports closes a loop of cups and caps
            cupcap_loops += not _union(joined, ports[i - 1], ports[i])
            del ports[i - 1:i + 1]
        else:
            joined += [p, p + 1]
            sites.append((kind, ports[i - 1], ports[i], p, p + 1))
            ports[i - 1:i + 1] = [p, p + 1]
    # 2^64 is far past the cap, so clamping there keeps "at least" true
    # and the count printable: str refuses ints of 4,300+ digits
    c = len(sites)
    floor = 1 << min(c + cupcap_loops, 64)
    if floor > MAX_GENERATORS:
        _refuse(floor)
    ends = dict(zip(STAR_CHOICES, [0, 1] + ports))
    resolutions = {}
    gens = 0
    for bits in range(1 << c):
        res = resolutions[bits] = _simulate(joined, sites, ends, bits)
        gens += 1 << min(len(res.loops), 64)
        if gens > MAX_GENERATORS:
            _refuse(gens)
    return ResolutionCube(tuple(sites), ends, resolutions, star)


# --- delooping and translation ------------------------------------------
#
# Generator (bits, decor) of the delooped cube is decoration `decor` of
# resolution `bits`, named v{bits}d{decor}; its position is its place in
# deloop order, resolution by resolution.  `_walk` interns the arrow
# list of each cube edge from one walk (`_deloop_arrows`), whose edge
# shapes `_saddle_arrows` expands once per process: edges with equal
# arrows share one list and its index.  The walk is all that the rest
# reads of the cube: `_guarded` numbers the generators by sorted name
# from their blocks alone (`_name_ids`).
# Every two-step path runs bits -> bits|i -> bits|i|j, so each d^2
# entry lives on one 2-face and is a function of that face's four arrow
# lists alone; its two saddles touch at most four loops of each corner,
# and a dot on any other loop rides along unchanged (Bar-Natan's
# cobordisms are local).  So `_d_squared_shown_zero` sums each distinct
# face as its local face (`_local_face`), once per local face and
# process; where that shows nothing, `dstruct.check_d_squared` sums over
# the whole cube and names its bad pairs.  The arrows then load edge by
# edge, in walk order, into `dstruct.Adjacency`: an edge is the ids of
# its source and target blocks and its arrow list, so nothing is made
# per arrow.  `_reduced` reduces the adjacency, naming only the
# survivors, for `tangle_complex` and `compare`; `deloop_translate`
# loads the same edges on positions into a `TypeDStructure`.

def _gen_name(bits, decor):
    return f"v{bits}d{decor}"


def _deloop_arrows(cube: ResolutionCube):
    """Expand loops into dot decorations and saddles into algebra labels:
    (bits, j, (decor, tdecor, label, ...)) for the edge flipping crossing
    j of each resolution, the arrows of every source decoration in deloop
    order, flat.  Edges of one shape share one tuple."""
    star_port = cube.ends[cube.star]
    for bits, src in cube.resolutions.items():
        for j, site in enumerate(cube.sites):
            if not (bits >> j) & 1:
                yield bits, j, _saddle_arrows(*_saddle_shape(
                    src, cube.resolutions[bits | (1 << j)], site, star_port))


def _walk(cube: ResolutionCube):
    """One walk of `_deloop_arrows` as (res, edges, lists): res[bits] is
    resolution bits's (loop count, matching), and edges[bits * c + j]
    indexes in `lists` the arrow list of the edge flipping crossing j of
    resolution bits, 0 (no arrows) where that bit is set; equal lists
    share one index."""
    c = len(cube.sites)
    edges = [0] * (c << c)
    index = {(): 0}
    for bits, j, edge in _deloop_arrows(cube):
        edges[bits * c + j] = index.setdefault(edge, len(index))
    res = tuple([(len(r.loops), r.matching)
                 for r in cube.resolutions.values()])
    return res, tuple(edges), tuple(index)


def _triples(arrows):
    """The (decor, tdecor, label) triples of a flat arrow tuple.  Flat,
    the arrow lists that the load holds take a third of the memory of
    tuples of triples."""
    it = iter(arrows)
    return zip(it, it, it)


def _faces(edges, c):
    """The arrow-list indices of the edges bits -> bits|i, bits|i ->
    bits|i|j, bits -> bits|j and bits|j -> bits|i|j of every 2-face of
    the cube: for each bits and each pair i < j of its unset bits."""
    # with bits i and j unset, edge (bits | 1 << i, j) is at
    # bits * c + (c << i) + j
    pairs = [((1 << i) | (1 << j), i, (c << i) + j, j, (c << j) + i)
             for i in range(c) for j in range(i + 1, c)]
    for bits in range(1 << c):
        row = bits * c
        for both, i, ij, j, ji in pairs:
            if not bits & both:
                yield (edges[row + i], edges[row + ij],
                       edges[row + j], edges[row + ji])


def _by_source(arrows):
    """A flat arrow tuple as a map decor -> {tdecor: label}, read as
    empty at a decoration without arrows."""
    index = defaultdict(dict)
    for decor, tdecor, label in _triples(arrows):
        index[decor][tdecor] = label
    return index


def _d_squared_shown_zero(lists, edges, c):
    """Whether d^2 = 0 is shown on every 2-face of the walk by its local
    face, each distinct face (by the indices of its four arrow lists)
    once; False leaves the question to the sum over the whole cube."""
    for face in dict.fromkeys(_faces(edges, c)):
        local = _local_face(*[lists[k] for k in face])
        if local is None or not _local_d_squared_is_zero(*local):
            return False
    return True


def _local_face(first_i, then_j, first_j, then_i):
    """The four arrow lists of a 2-face (as `_faces` gives them) on the
    loops its two saddles touch, if the face is that local face tensored
    with the identity on its far loops (those neither saddle touches);
    else None.  A face without far loops, or with a list that
    `_saddle_arrows` did not make, is its own local face.

    Otherwise each list must have `target_loops`, the edges must agree
    on the corners' loop counts, and both paths must leave each far loop
    alone and take it to one far loop of the far corner.  Then every
    two-step path carries the far dots alike, and the face's d^2 is the
    local face's tensored with the identity."""
    face = (first_i, then_j, first_j, then_i)
    try:
        go_i, go_ij, go_j, go_ji = (first_i.shape[4], then_j.shape[4],
                                    first_j.shape[4], then_i.shape[4])
    except AttributeError:
        return face
    if not any(b and c for b, c in zip(go_i, go_j)):
        return face
    loops = [e.target_loops for e in face]
    if None in loops or (len(go_j), len(go_ij), len(go_ji), loops[3]) != (
            len(go_i), loops[0], loops[2], loops[1]):
        return None
    # the bits of the loops that neither saddle touches, in each corner
    far_a = far_b = far_c = far_d = 0
    bit = 1
    for b, c in zip(go_i, go_j):
        if b and c:
            d = go_ij[b.bit_length() - 1]
            if not d or d != go_ji[c.bit_length() - 1]:
                return None
            far_a |= bit
            far_b |= b
            far_c |= c
            far_d |= d
        bit <<= 1
    local = (_local_edge(first_i, far_a, far_b),
             _local_edge(then_j, far_b, far_d),
             _local_edge(first_j, far_a, far_c),
             _local_edge(then_i, far_c, far_d))
    return None if None in local else local


@functools.cache
def _local_edge(arrows, far_src, far_tgt):
    """The list of an edge whose list `arrows` has `target_loops`, on the
    loops outside the bit masks `far_src` and `far_tgt` of its corners,
    renumbered in order: `_saddle_arrows` of its shape without the far
    loops, if the saddle takes the loops of `far_src` to those of
    `far_tgt` and that list has `target_loops` too; else None.  It is
    then `arrows` on the decorations that dot no far loop, far bits
    taken out, whichever shape of `arrows` it is made from.  Keyed on
    the rules' output, so a patched rule's lists miss."""
    v, w, n_touched, kinds, go = arrows.shape
    far = [go[k] for k in range(len(go)) if far_src >> k & 1]
    if 0 in far or sum(far) != far_tgt:
        return None
    kept = [k for k in range(len(go)) if not far_src >> k & 1]
    to = {0: 0, -1: -1}
    bit = 1
    for k in range(arrows.target_loops):
        if not far_tgt >> k & 1:
            to[1 << k] = bit
            bit <<= 1
    local = _saddle_arrows(v, w, n_touched, tuple(map(to.get, kinds)),
                           tuple([to[go[k]] for k in kept]))
    return local if local.target_loops is not None else None


@functools.cache
def _local_d_squared_is_zero(first_i, then_j, first_j, then_i):
    """Whether the two-step paths of a local face sum to zero: the one
    d^2 sum of the guard, once per local face and process."""
    return not dstruct.nonzero_two_step(
        [(_triples(first_i), _by_source(then_j)),
         (_triples(first_j), _by_source(then_i))])


@functools.cache
def _name_ranks(n, suffix):
    """The rank of each of f"{i}{suffix}", i in range(n), in sorted order;
    kept per n, a power of two within the generator cap."""
    return tuple(dstruct.name_ids([f"{i}{suffix}" for i in range(n)]))


def _name_ids(res):
    """The rank of each generator's name in sorted order, in deloop order,
    without a name, from the walk's res: v{bits}d{decor} sorts by its
    block's prefix f"{bits}d" first, which no other block's names start
    with, and then by str(decor), the same order for every block of one
    loop count."""
    block = _name_ranks(len(res), "d")
    size = [0] * len(res)
    for bits, (loops, _) in enumerate(res):
        size[block[bits]] = 1 << loops
    start = list(itertools.accumulate(size, initial=0))
    ids = []
    for bits, (loops, _) in enumerate(res):
        ids += map(start[block[bits]].__add__, _name_ranks(1 << loops, ""))
    return ids


def _guarded(walk):
    """The generators' sorted-name ids in deloop order, a function that
    makes the DGen at a position, and a function `blocks(per)` that
    gives, for a list `per` over positions, the arrows of each edge as
    (per of its source block, per of its target block, its (decor,
    tdecor, label) triples), once d^2 = 0 holds on every 2-face of the
    walk that `_walk` gives; if it fails on one, the error names the
    first bad pairs of the whole cube."""
    res, edges, lists = walk
    # resolution bits holds the positions start[bits] to start[bits + 1]
    start = list(itertools.accumulate(
        (1 << loops for loops, _ in res), initial=0))

    def gen(i):
        bits = bisect.bisect_right(start, i) - 1
        return dstruct.DGen(_gen_name(bits, i - start[bits]),
                            res[bits][1], bits.bit_count())

    c = len(res).bit_length() - 1

    def blocks(per):
        for k, e in enumerate(edges):
            if e:
                bits, j = divmod(k, c)
                t = bits | (1 << j)
                yield (per[start[bits]:start[bits + 1]],
                       per[start[t]:start[t + 1]], _triples(lists[e]))

    ids = _name_ids(res)
    if not _d_squared_shown_zero(lists, edges, c):
        at = range(len(ids))
        bad = dstruct.check_d_squared(dstruct.TypeDStructure(
            FLAVOR_B, map(gen, at), blocks(at)))
        if bad:
            raise AssertionError(f"d^2 != 0 after delooping: {bad[:3]}")
    return ids, gen, blocks


def deloop_translate(cube: ResolutionCube) -> dstruct.TypeDStructure:
    """The delooped cube as a type D structure, checked for d^2 = 0."""
    ids, gen, blocks = _guarded(_walk(cube))
    at = range(len(ids))
    return dstruct.TypeDStructure(FLAVOR_B, map(gen, at), blocks(at))


def _saddle_shape(src, tgt, site, star_port):
    """What the arrows of the edge flipping the crossing at `site` depend
    on: the two matchings, the number of source components the saddle
    touches, the class of each target component it touches in sorted
    order (the bit 1 << i of target loop i, 0 for the starred arc, -1 for
    the other arc), and for each source loop 0 if touched, else the bit
    of its target loop."""
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


class _Arrows(tuple):
    """The flat arrow tuple that `_saddle_arrows` gives for `shape`, with
    `target_loops` worked out on first read.  It equals and hashes as
    the plain tuple, but hashes once: the d^2 guard keys on lists."""

    def __new__(cls, flat, shape):
        arrows = super().__new__(cls, flat)
        arrows.shape = shape
        arrows._hash = tuple.__hash__(arrows)
        return arrows

    def __hash__(self):
        return self._hash

    @functools.cached_property
    def target_loops(self):
        return _target_loops(self)


def _target_loops(arrows):
    """The target loop count of the edge whose arrows and shape `arrows`
    holds, if the loops its saddle makes and moves are the target's
    loops once each, and the arrows are the rule of the touched loops
    (`_saddle_arrows` of the shape without the others) with each other
    dot moved to its target loop; else None: a second expansion."""
    v, w, n_touched, kinds, loops = arrows.shape
    made = [k for k in kinds if k > 0]
    moved = [t for t in loops if t]
    n = len(made) + len(moved)
    if sorted(made + moved) != [1 << k for k in range(n)]:
        return None
    if not moved:
        return n
    rule = _saddle_arrows(
        v, w, n_touched, tuple([1 << made.index(k) if k > 0 else k
                                for k in kinds]),
        (0,) * (len(loops) - len(moved)))
    rows = _by_source(rule)
    # the rule's target decorations as the target's loop bits
    up = [0]
    for bit in made:
        up += [u | bit for u in up]
    # each decoration's dots on touched loops as the rule's decoration,
    # and its other dots moved
    at, to = [0], [0]
    bit = 1
    for tbit in loops:
        if tbit:
            at += at
            to += [m | tbit for m in to]
        else:
            at += [r | bit for r in at]
            to += to
            bit <<= 1
    flat = []
    for decor, (r, m) in enumerate(zip(at, to)):
        for tdecor, label in rows[r].items():
            flat += decor, m | up[tdecor], label
    return n if arrows == tuple(flat) else None


@functools.cache
def _saddle_arrows(v, w, n_touched, kinds, loops):
    """Arrows for a cube edge of the shape that `_saddle_shape` gives, as
    one flat `_Arrows` tuple decor, tdecor, label, decor, ... (read by
    `_triples`) for every source dot decoration in turn, worked out once
    per shape and process.  The cache is keyed on the rules' input, so a
    patched deloop rule must come with `_saddle_arrows.cache_clear()`.

    The saddle rule depends on a decoration only through the number of
    dotted source loops the saddle touches, so it is worked out once per
    shape as `rules[n]`: the (target loop bits, label) of each arrow when
    n of them are dotted, summed per target.  Dots on untouched loops
    move to the same loop in the target.  Each label is checked to run
    between the two resolutions' idempotents v and w; the hdeg rises by
    one along every edge.
    """
    def dotted(comps, label):
        """(target loop bits, label) with a dot on each component: a dot
        on the starred arc kills the term, one on the other arc is D."""
        bits = 0
        for kind in comps:
            if kind > 0:
                bits |= kind
            elif kind == 0:
                return None
            else:
                label = label * algebra.dpow(1, w)
        return bits, label

    idem = algebra.idem(v)
    if n_touched == 2 and len(kinds) == 2:
        # arc-arc reconnection: the saddle cobordism
        rules = [[dotted((), algebra.spow(1, v))]]
    elif n_touched == 2:
        # merge of two components into one; arcs carry no dot, and two
        # dots meeting give H times a dot
        rules = [[dotted((), idem)], [dotted(kinds, idem)],
                 [dotted(kinds, algebra.h_mul(idem))]]
    else:
        # split of one component into two: a dot coming in dots both
        # offspring; otherwise one offspring is dotted, or H
        k_a, k_b = kinds
        rules = [[dotted((k_a,), idem), dotted((k_b,), idem),
                  dotted((), algebra.h_mul(idem))],
                 [dotted(kinds, idem)]]

    # each source decoration's dots on the loops the saddle touches, and
    # the target loop bits its other dots move to: appending, for each
    # loop in turn, the decorations that dot it keeps decoration order
    touched, moved = [0], [0]
    for tbit in loops:
        if not tbit:
            touched += [t + 1 for t in touched]
            moved += moved
        else:
            touched += touched
            moved += [m | tbit for m in moved]

    sums = []
    for rule in rules[:max(touched) + 1]:
        # an F2 sum per target: a non-zero sum keeps its first slot, a
        # zero one is dropped, and a later term starts it again last
        acc = {}
        for bits, label in filter(None, rule):
            if label.is_zero():
                continue
            if not (label.flavor == FLAVOR_B and label.runs(v, w)):
                raise AssertionError(f"label {label} does not run "
                                     f"{v!r} -> {w!r}")
            cur = acc.get(bits)
            new = label if cur is None else cur + label
            if new.is_zero():
                del acc[bits]
            else:
                acc[bits] = new
        sums.append(list(acc.items()))

    flat = []
    for decor, (t, tdecor) in enumerate(zip(touched, moved)):
        for bits, label in sums[t]:
            flat += decor, tdecor | bits, label
    return _Arrows(flat, (v, w, n_touched, kinds, loops))


# --- pipelines ----------------------------------------------------------

def tangle_complex(word: TangleWord, star="nw"):
    """Reduced type D structure of the delooped resolution cube:
    `dstruct.reduce(deloop_translate(cube))`, with the delooped arrows
    loaded edge by edge into reduce's adjacency on ids from `_name_ids`:
    no delooped structure and no list of its arrows is made, and only
    the generators that survive are named."""
    return _reduced(_walk(build_cube(word, star)))


def _reduced(walk):
    """The reduced complex of the cube whose walk `_walk` gives."""
    ids, gen, blocks = _guarded(walk)
    return dstruct.Adjacency(ids, gen, blocks(ids)).reduced(FLAVOR_B)


def compute_dd1(word: TangleWord, star="nw"):
    """The H-cone invariant of the tangle."""
    return dstruct.cone_h(tangle_complex(word, star))


def compute_lt_image(word: TangleWord, star="nw"):
    """The quotient-then-two-layer image of the tangle invariant."""
    return _two_layer_image(tangle_complex(word, star))


def _two_layer_image(m):
    mq = m.map_labels(algebra.q_map, algebra.FLAVOR_BT)
    return dstruct.reduce(dstruct.box_ad(mq, bimod.bimodule_Y()))


EQUIVALENT = "EQUIVALENT"
INDETERMINATE = "INDETERMINATE"
MISMATCH = "MISMATCH"


def compare(word: TangleWord, star="nw"):
    """Verdict on whether the two invariants agree for this tangle, and
    its witness: `_decision` of the reduced complex's key, the key from
    `_complex_key(_walk(cube))`, with the witness renamed to the
    complex's own names and hdegs.

    Both caches are exact.  The reduced complex m is a function of the
    walk: the generators' names, idempotents, hdegs and sorted-name ids
    come from each resolution's loop count and matching, the arrows
    from the edges and their lists, and the star enters only through
    the lists.  The walk holds the deloop rules' output, not their
    input, so a walk with a changed arrow misses and meets the d^2
    guard.  The decision is a function of m up to an order-preserving
    renaming of its generators and a global hdeg shift: everything
    after the reduction reads only `gens` and the `out` rows in their
    order; labels are interned, and `_chain_iso_search` draws from a
    fixed seed.  `_decide` reads names
    only by comparing them (the sorted-name ids of `reduce`, the order
    of `_iso_search`, the chain-map pivots, each a `max` over (name,
    name, monomial), and the sorted entries) and by appending `.k` and
    `*b` to them; `.` and `*` sort below every character of a name
    (digits, `v`, `d`), so a suffix keeps the order even where one name
    is a prefix of another.  It reads hdegs only through differences
    (the iso shift, `add_arrow`'s +1 check, equal counts): `euler_counts`
    flips parity on both sides alike, and `_signatures` numbers colours
    first-seen, not by value.  So a complex decides as its ranks with
    hdegs from 0 do, and the witness is renamed back: each rank prefix
    becomes its name, and a count's hdeg rises by the lowest hdeg.

    A repeated walk costs the cube, the walk, two lookups and the
    renaming; a new walk of a known m costs the guard, the load and the
    elimination too.  An exception, such as the box tensor's arrow cap,
    is raised each time: its walk's key is kept, and `_decision` stores
    no exception.  Each call builds a new witness.
    """
    key, names, lo = _complex_key(_walk(build_cube(word, star)))
    verdict, witness = _decision(key)
    if verdict == MISMATCH:
        return verdict, {side: {_raised(at, lo): c for at, c in counts.items()}
                         for side, counts in witness.items()}
    if witness is None:
        return verdict, None
    w = _RANK_WIDTH
    if "entries" in witness:
        return verdict, {"shift": witness["shift"], "entries": [
            (names[x[:w]] + x[w:], names[y[:w]] + y[w:], t)
            for x, y, t in witness["entries"]]}
    return verdict, {names[x[:w]] + x[w:]: names[y[:w]] + y[w:]
                     for x, y in witness.items()}


def _raised(at, lo):
    """A count's f"{idem}:{hdeg}" with its hdeg raised by lo."""
    idem, _, h = at.rpartition(":")
    return f"{idem}:{int(h) + lo}"


# every_word(6) at nw gives 481 distinct keys (2,057 distinct complexes
# with their own names and hdegs) from 9,390 walks
MAX_DECISIONS = 4096

# a reduced complex is within the generator cap, so its ranks fit
_RANK_WIDTH = len(str(MAX_GENERATORS))


@functools.lru_cache(maxsize=MAX_DECISIONS)
def _complex_key(walk):
    """The walk's reduced complex m as (key, names, lo): `lo` is its
    lowest hdeg (0 if it has no generator); `key` is its flavour, its
    generators in position order, each named by its name's rank in
    sorted order, zero padded to one width, at its hdeg less lo, and
    each `out` row's items in order; `names` maps each rank back to its
    name, for the caller to read only."""
    m = _reduced(walk)
    names = [g.name for g in m.gens]
    ranks = [f"{rank:0{_RANK_WIDTH}d}" for rank in dstruct.name_ids(names)]
    lo = min((g.hdeg for g in m.gens), default=0)
    gens = tuple([dstruct.DGen(rank, g.idem, g.hdeg - lo)
                  for rank, g in zip(ranks, m.gens)])
    rows = tuple(tuple(row.items()) for row in m.out)
    return (m.flavor, gens, rows), dict(zip(ranks, names)), lo


@functools.lru_cache(maxsize=MAX_DECISIONS)
def _decision(key):
    """The verdict and witness of the reduced complex whose key
    `_complex_key` gives, rebuilt with the `out` order of
    `Adjacency.reduced`: its arrows load row by row, in order."""
    flavor, gens, rows = key
    n = range(len(gens))
    return _decide(dstruct.TypeDStructure(flavor, gens, [(n, n, (
        (s, d, label) for s, row in enumerate(rows) for d, label in row))]))


def _decide(m):
    """The verdict and witness for the reduced complex m.  Its H-cone
    needs no further reduction: no arrow of a reduced complex, and
    neither H, has an idempotent summand."""
    lhs = dstruct.cone_h(m)
    rhs = _two_layer_image(m)
    witness = dstruct.iso_check(lhs, rhs)
    if witness != dstruct.NOT_FOUND:
        return EQUIVALENT, witness
    lc, rc = lhs.gen_counts(), rhs.gen_counts()
    if sorted(lc.values()) != sorted(rc.values()) or \
            lhs.euler_counts() != rhs.euler_counts():
        return MISMATCH, {"lhs_counts": _fmt_counts(lc),
                          "rhs_counts": _fmt_counts(rc)}
    return INDETERMINATE, None


def _fmt_counts(counts):
    return {f"{idem.value}:{h}": c for (idem, h), c in sorted(
        counts.items(), key=lambda kv: (kv[0][0].value, kv[0][1]))}


# --- corpus and random words --------------------------------------------

CORPUS = (
    "",
    "x1",
    "y1",
    "x1 x1",
    "x1 x1 x1",
    "x1 y1",
    "x1 x1 u1 x2 n3",
    "x1 x1 u1 x2 x2 n3",
    "x1 x1 x1 u1 x2 x2 x2 n3",
    "u1 n1",
    "x1 u1 n1",
)


def _kinds(count):
    """(kind, highest index, strand count after) of each kind, in order,
    that keeps 2 to 6 strands at `count`: cups on at most 4, caps on 4+."""
    return [(kind, count + reach, count + step)
            for kind, (_, reach, step) in _SLICES.items()
            if 2 <= count + step <= 6]


def random_word(rng: random.Random, max_crossings=8) -> TangleWord:
    """A random word of at most `max_crossings` crossings: up to 14 slices,
    each chosen after an index is drawn for each of `_kinds`, then caps."""
    slices = []
    count = 2
    crossings = 0
    for _ in range(rng.randint(0, 14)):
        kind, i, count = rng.choice([
            (kind, rng.randint(1, top), after)
            for kind, top, after in _kinds(count)
            if kind not in "xy" or crossings < max_crossings])
        slices.append((kind, i))
        crossings += kind in "xy"
    while count > 2:    # a cap: the last of `_kinds` above 2 strands
        _, top, count = _kinds(count)[-1]
        slices.append(("n", rng.randint(1, top)))
    return TangleWord(tuple(slices))


def every_word(max_slices):
    """Every word of at most `max_slices` slices that `random_word` can
    make, depth first: each slice one of `_kinds`, its index in range."""
    def grow(slices, count):
        if count == 2:
            yield TangleWord(tuple(slices))
        if len(slices) < max_slices:
            for kind, top, after in _kinds(count):
                for i in range(1, top + 1):
                    yield from grow(slices + [(kind, i)], after)
    return grow([], 2)
