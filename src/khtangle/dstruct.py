"""Type D structures over the quiver algebra and its quotient.

A type D structure is a finite set of generators, each carrying an
idempotent vertex and a homological degree, together with arrows labeled
by algebra elements.  The differential axiom says that summing the
two-step path products between any generator pair gives zero.

`TypeDStructure` holds its generators by position: `gens[i]` is the
DGen at position i, and `out[s]` maps each position d to the label of
the arrow s -> d.  `arrows` is a view keyed by generator name, for
serialization and tests.  Provides the well-definedness check, the
mapping cone of H times the identity, the box tensor with an AD
bimodule, reduction by cancellation of idempotent arrows, isomorphism
testing, and a line-oriented text serialization.  `nonzero_two_step` is
the one two-step path sum: `check_d_squared` applies it to a whole
structure and `tangles` to each distinct local face of the delooped
cube, once per process.  Reduction runs on `Adjacency`, its private
elimination engine, which loads arrows a block at a time on generators
numbered by sorted name and names them on demand: `reduce` loads a
structure into it, numbered by `name_ids`, and `tangles` loads the
delooped cube edge by edge, numbered from the shape of its names and
named only where a generator survives.  It too stores each label once,
and packs its load keys by cost.
"""

from __future__ import annotations

from typing import NamedTuple

from . import algebra, bimod, f2
from .algebra import BElem, Vertex, FLAVOR_B


class DGen(NamedTuple):
    name: str
    idem: Vertex
    hdeg: int


class TypeDStructure:
    """Generators by position, and the arrows between them: `out[s]`
    maps d to the label of s -> d, in the order its arrows were
    added."""

    __slots__ = ("flavor", "gens", "out")

    def __init__(self, flavor=FLAVOR_B, gens=(), blocks=()):
        """The generators `gens`, in position order, and the arrows of
        each block (src, dst, arrows) as `Adjacency` loads them: an
        arrow (i, j, label) joins positions src[i] and dst[j].  No two
        arrows may join the same pair and no label may be zero."""
        self.flavor = flavor
        self.gens = list(gens)
        out = self.out = [{} for _ in self.gens]
        for src, dst, arrows in blocks:
            for i, j, label in arrows:
                out[src[i]][dst[j]] = label

    def add_gen(self, name, idem, hdeg):
        """Append a generator; its position."""
        self.gens.append(DGen(name, idem, hdeg))
        self.out.append({})
        return len(self.gens) - 1

    def add_arrow(self, src, dst, label: BElem):
        """F2-accumulate label onto the arrow src -> dst (positions)."""
        if label.is_zero():
            return
        # raised, not asserted: python -O too
        if label.flavor != self.flavor:
            raise AssertionError(f"label {label} is {label.flavor}, "
                                 f"not {self.flavor}")
        gs, gd = self.gens[src], self.gens[dst]
        if not label.runs(gs.idem, gd.idem):
            raise AssertionError(
                f"label {label} does not run {gs.idem!r} -> {gd.idem!r}")
        if gd.hdeg != gs.hdeg + 1:
            raise AssertionError(
                f"arrow {gs.name} -> {gd.name} does not raise hdeg by 1")
        from_s = self.out[src]
        cur = from_s.get(dst)
        new = label if cur is None else cur + label
        if new.is_zero():
            del from_s[dst]
        else:
            from_s[dst] = new

    def triples(self):
        """(s, d, label) for every arrow s -> d, by source position."""
        for s, from_s in enumerate(self.out):
            for d, label in from_s.items():
                yield s, d, label

    @property
    def arrows(self):
        """{(source name, target name): label}, by source position: a
        view made on each read."""
        names = [g.name for g in self.gens]
        return {(names[s], names[d]): label for s, d, label in self.triples()}

    def gen_counts(self):
        """Generator count per (idempotent, hdeg)."""
        counts = {}
        for g in self.gens:
            key = (g.idem, g.hdeg)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def euler_counts(self):
        """Signed generator count per idempotent (homotopy invariant)."""
        out = {}
        for g in self.gens:
            out[g.idem] = out.get(g.idem, 0) + (-1) ** (g.hdeg & 1)
        return out

    def map_labels(self, func, flavor):
        """Apply func to every arrow label; drop zeros."""
        res = TypeDStructure(flavor, self.gens)
        for from_s, res_s in zip(self.out, res.out):
            for d, label in from_s.items():
                new = func(label)
                if not new.is_zero():
                    res_s[d] = new
        return res


class Adjacency:
    """The arrows on generator ids, as `reduce` eliminates them.

    Generators are numbered by sorted name, so that key ties break as
    the names would: `ids[i]` is the id of the generator at position i,
    given by `name_ids` or, for the delooped cube, by `tangles` from the
    shape of the names alone, and `gen(i)` makes its DGen, which only
    the survivors of `eliminate` need.  `out[s]` maps d to the label of
    s -> d and `inn[d]` lists each such s, both on ids and in load
    order.  `runs[cost]` packs s * n + d, in load order, into an
    `array('q')` (n^2 fits in 64 bits for any n that fits in memory)
    for every loaded arrow labelled exactly by an idempotent whose
    fill-in (|in(d)| - 1) * (|out(s)| - 1) over the arrows loaded so
    far is cost.
    """

    __slots__ = ("ids", "gen", "n", "out", "inn", "runs")

    def __init__(self, ids, gen, blocks):
        """Load the arrows of `blocks` in order, on ids, as
        `TypeDStructure` loads them on positions."""
        import array   # imported here: set-up of the package needs none

        self.ids, self.gen = ids, gen
        n = self.n = len(ids)
        out = self.out = [{} for _ in range(n)]
        inn = self.inn = [[] for _ in range(n)]
        runs = self.runs = {}
        for src, dst, arrows in blocks:
            for i, j, label in arrows:
                s, d = src[i], dst[j]
                from_s, into_d = out[s], inn[d]
                from_s[d] = label
                into_d.append(s)
                if label.is_idem:
                    cost = (len(into_d) - 1) * (len(from_s) - 1)
                    run = runs.get(cost)
                    if run is None:
                        run = runs[cost] = array.array("q")
                    run.append(s * n + d)

    def eliminate(self):
        """Cancel arrows labelled exactly by an idempotent until none
        remain, cheapest fill-in first and ties by (s, d); the `out` and
        `inn` of a cancelled pair become None, s's first.

        Keys cost * n^2 + s * n + d order as (cost, s, d) tuples would,
        and are read in increasing order, as from one heap of all of
        them; equal keys are equal (cost, s, d), so their order does not
        matter.  The read goes up one cost level at a time.  The load's
        keys never change, and wait packed by cost: when the read
        reaches a level, that level's packed run is sorted into `run`
        and read from its end, which frees it as it goes.  A key made
        here waits in `later`, in a bucket for its cost, until the read
        reaches that cost; a heap holds the made keys of cost at most
        `level`, the cost read so far.  The next key is the smaller of
        the run's head and the heap's; once both are spent, the level
        rises to the cheapest packed run or bucket, and a bucket of that
        cost becomes the heap.  Most made keys die unread, and a key with a cancelled
        end stays dead, so a bucket drops those as it becomes the heap;
        a key whose arrow fill-in removed stays, as fill-in can make
        that arrow again.  Keys are refreshed lazily: a key whose arrow
        is gone or no longer an idempotent is dropped, one whose cost
        rose waits again at its current cost, and one whose cost fell is
        cancelled at once, since at its current cost it would be below
        every other key.

        Fill-in walks the sources into y in in-row order, and the costs
        it makes grow with each arrow it adds, so that order decides the
        pairs cancelled: a new arrow's source is appended, the source of
        an arrow that fill-in sums to zero or a cancellation deletes is
        removed in place, and an arrow whose label fill-in changes keeps
        its place.
        """
        import heapq   # imported here: set-up of the package needs none

        out, inn, n, runs = self.out, self.inn, self.n, self.runs
        nn = n * n
        pop, push = heapq.heappop, heapq.heappush
        # a key is below nn * nn, so `end` closes the heap; `run` holds
        # pairs s * n + d below nn, the keys of its level less `base` =
        # level * nn, so its first entry nn closes it at `limit` =
        # (level + 1) * nn
        end = nn * nn
        run, heap = [nn], [end]
        later = {}
        level = base = limit = 0   # no level is open before the first key
        # labels are interned and few: a dict of products per left label
        # spares a method call per fill-in entry
        products = {}
        while True:
            key = base + run[-1]
            if heap[0] < key:
                key = pop(heap)
            elif key < limit:
                run.pop()
            else:
                # the run and the heap are spent: open the next level
                level = min(runs) if runs else nn
                if later:
                    level = min(level, min(later))
                if level == nn:
                    break
                base, limit = level * nn, (level + 1) * nn
                if level in runs:
                    packed = runs.pop(level)
                    packed.append(nn)
                    run = sorted(packed, reverse=True)
                if level in later:
                    heap = [k for k in later.pop(level)
                            if out[k // n % n] is not None
                            and out[k % n] is not None]
                    heap.append(end)
                    heapq.heapify(heap)
                continue
            # most keys read are dead: test the source, then the arrow,
            # before decoding the cost
            x = key // n % n
            from_x = out[x]
            if from_x is None:
                continue   # x cancelled
            y = key % n
            label = from_x.get(y)
            if label is None or not label.is_idem:
                continue   # y cancelled, or no longer an idempotent
            into_y = inn[y]
            actual = (len(into_y) - 1) * (len(from_x) - 1)
            if actual > key // nn:
                if actual > level:
                    later.setdefault(actual, []).append(
                        actual * nn + key % nn)
                else:
                    push(heap, actual * nn + key % nn)
                continue
            # detach the pair's rows, which then hold the fill-in's
            # sources into y and targets from x, and clear every other
            # reference to x and y but the arrows into y, which fill-in
            # pops as it reads their labels
            del from_x[y]
            into_y.remove(x)
            for d in from_x:
                inn[d].remove(x)
            for s in inn[x]:
                del out[s][x]
            for d in out[y]:
                inn[d].remove(y)
            out[x] = out[y] = inn[x] = inn[y] = None
            if not actual:
                # y's only source was x, or x's only target y
                for p in into_y:
                    del out[p][y]
                continue
            # an F2 sum is zero exactly when its two interned terms are
            # one value, and a product when it is the interned zero
            zero = algebra.zero(label.flavor)
            for p in into_y:
                from_p = out[p]
                beta = from_p.pop(y)
                times_beta = products.get(beta)
                if times_beta is None:
                    times_beta = products[beta] = {}
                for q, gamma in from_x.items():
                    prod = times_beta.get(gamma)
                    if prod is None:
                        prod = times_beta[gamma] = beta * gamma
                    if prod is zero:
                        continue
                    cur = from_p.get(q)
                    if cur is None:
                        from_p[q] = prod
                        inn[q].append(p)
                    elif cur is prod:
                        del from_p[q]
                        inn[q].remove(p)
                        continue
                    else:
                        prod = from_p[q] = cur + prod
                    if prod.is_idem:
                        cost = (len(inn[q]) - 1) * (len(from_p) - 1)
                        if cost > level:
                            later.setdefault(cost, []).append(
                                cost * nn + p * n + q)
                        else:
                            push(heap, cost * nn + p * n + q)

    def reduced(self, flavor):
        """Eliminate, then the type D structure on the survivors in
        position order, each survivor's `out` row renumbered."""
        self.eliminate()
        out = self.out
        kept = [(i, k) for i, k in enumerate(self.ids) if out[k] is not None]
        new = {k: j for j, (_, k) in enumerate(kept)}
        return TypeDStructure(flavor, [self.gen(i) for i, _ in kept], [(
            new, new, ((k, d, label) for _, k in kept
                       for d, label in out[k].items()))])


def nonzero_two_step(legs):
    """Pairs (x, z), by x in the order the first steps reach it, whose
    two-step path sum is non-zero: the one d^2 summation.  The paths
    x -> y -> z run through each leg (steps, then) in `legs`: `steps`
    yields the first steps (x, y, label of x -> y), and `then[y]` maps z
    to the label of y -> z, empty if need be, for every y they reach."""
    acc = {}
    for steps, then in legs:
        for x, y, a in steps:
            sums = acc.get(x)
            if sums is None:
                sums = acc[x] = {}
            for z, b in then[y].items():
                prod = a * b
                # None is a zero sum, kept in its slot: an F2 sum of two
                # interned values is zero exactly when they are one value
                cur = sums.get(z)
                sums[z] = prod if cur is None else \
                    None if cur is prod else cur + prod
    return [(x, z) for x, sums in acc.items() for z, total in sums.items()
            if total is not None and not total.is_zero()]


def name_ids(names):
    """The rank of each name in sorted order: the ids of `Adjacency`.
    Generator names must be distinct: the structures key nothing by
    name, but serialization, witnesses and these ranks read them."""
    order = sorted(range(len(names)), key=names.__getitem__)
    ids = [0] * len(names)
    for k, i in enumerate(order):
        ids[i] = k
    if len(set(names)) < len(names):
        name = next(names[i] for i, j in zip(order, order[1:])
                    if names[i] == names[j])
        raise ValueError(f"two generators are named {name!r}")
    return ids


def check_d_squared(m: TypeDStructure):
    """Generator name pairs (x, z) where the two-step path sum is
    non-zero, by x in position order."""
    bad = nonzero_two_step([(m.triples(), m.out)])
    return [(m.gens[x].name, m.gens[z].name) for x, z in bad]


def cone_h(m: TypeDStructure) -> TypeDStructure:
    """Mapping cone of multiplication by the central element H: the
    copies of generator i sit at positions 2i (.0) and 2i + 1 (.1)."""
    if m.flavor != FLAVOR_B:   # raised, not asserted: python -O too
        raise ValueError(f"cone_h needs a B structure, not {m.flavor}")
    out = TypeDStructure(FLAVOR_B, [DGen(f"{g.name}.{k}", g.idem, g.hdeg + k)
                                    for g in m.gens for k in (0, 1)])
    for s, d, label in m.triples():
        out.add_arrow(2 * s, 2 * d, label)
        out.add_arrow(2 * s + 1, 2 * d + 1, label)
    for i, g in enumerate(m.gens):
        out.add_arrow(2 * i, 2 * i + 1, algebra.h_elem(g.idem))
    return out


MAX_BOX_ARROWS = 10 ** 6


def box_ad(m: TypeDStructure, bim) -> TypeDStructure:
    """Box tensor of a type D structure with an AD bimodule.

    Generators are pairs (m-generator, bimodule generator) with matching
    idempotents.  The arrow monomials of m enter `bimod.box_matches` as
    left actions without inputs, so a concrete action of the bimodule
    with j inputs fires on every arrow path of length j whose monomials
    are its inputs, exactly as in `bimod.box_bimods`.
    """
    if m.flavor != bim.a_flavor:   # raised, not asserted: python -O too
        raise ValueError(f"{bim.name} consumes {bim.a_flavor}, not {m.flavor}")
    # generator (s, b) sits at first[s] + offset[b]: m's generators in
    # turn, each with the bimodule generators of its idempotent in order
    by_idem = bim.gens_by_idem
    offset = {b: i for names in by_idem.values() for i, b in enumerate(names)}
    first, gens = [], []
    for g in m.gens:
        first.append(len(gens))
        gens += [DGen(f"{g.name}*{b.name}", b.right_idem, g.hdeg + b.hdeg)
                 for b in map(bim.gens.get, by_idem.get(g.idem, ()))]
    out = TypeDStructure(bim.d_flavor, gens)

    left_out = [[(d, (), t) for d, label in from_s.items()
                 for t in label.monomials()] for from_s in m.out]
    # no path of j monomials weighs more than j times the heaviest one
    bound = bim.depth * max((l.max_weight for _, _, l in m.triples()),
                            default=0)
    n_arrows = 0
    for (s, b), (d, bd), _, outm in bimod.box_matches(
            enumerate(g.idem for g in m.gens), left_out, bim, bound):
        out.add_arrow(first[s] + offset[b], first[d] + offset[bd], outm)
        n_arrows += 1
        if n_arrows > MAX_BOX_ARROWS:
            raise RuntimeError("box tensor diverged: arrow cap hit")
    return out


def reduce(m: TypeDStructure) -> TypeDStructure:
    """Cancel arrows labelled exactly by an idempotent until none remain.

    Each cancellation is Gaussian elimination: it is a homotopy
    equivalence because its label is a unit.  The idempotents are the
    only units of e_v B e_v: i + x with x of positive weight is not
    invertible in B, so an arrow with such a label is kept.  The result
    keeps m's order of generators and of each generator's arrows.
    """
    ids = name_ids([g.name for g in m.gens])
    return Adjacency(ids, m.gens.__getitem__,
                     [(ids, ids, m.triples())]).reduced(m.flavor)


# --- isomorphism testing ------------------------------------------------

NOT_FOUND = "NOT_FOUND"


def _in_rows(m: TypeDStructure):
    """`inn[d]` maps s to the label of s -> d, in no order that matters."""
    inn = [{} for _ in m.gens]
    for s, d, label in m.triples():
        inn[d][s] = label
    return inn


def _signatures(m: TypeDStructure, shift, n: TypeDStructure, inns):
    """Joint iterated neighborhood signatures over both structures, with
    their in-rows `inns`: the colour of each generator, by position.

    Seeded from (idem, shifted hdeg) and refined by arrow labels and
    neighbor signatures until a round splits no class, for at most
    three rounds (a fourth could change the bijection found).  Colours
    are numbered first-seen in one table shared by both structures, so
    they are comparable between them.
    """
    sig = [[(g.idem.value, g.hdeg + sh) for g in st.gens]
           for st, sh in ((m, shift), (n, 0))]
    colours = len(set(sig[0] + sig[1]))
    for _ in range(3):
        canon, nxt = {}, []
        for st, own, st_inn in zip((m, n), sig, inns):
            nxt.append([])
            for x, (out, inn) in enumerate(zip(st.out, st_inn)):
                # labels are interned, so id() tells them apart
                outs = sorted((id(l), own[d]) for d, l in out.items())
                ins = sorted((id(l), own[s]) for s, l in inn.items())
                nxt[-1].append(canon.setdefault(
                    (own[x], tuple(outs), tuple(ins)), len(canon)))
        sig = nxt
        if len(canon) == colours:
            break
        colours = len(canon)
    return sig


def iso_check(m: TypeDStructure, n: TypeDStructure):
    """Isomorphism search, allowing one global hdeg shift.

    The generator counts per (idempotent, hdeg) must agree after the
    shift, so the lowest degree of m lands on the lowest degree of n:
    that fixes the one shift worth trying.  Tries a generator bijection
    preserving idempotents, degrees, and arrow labels first; failing
    that, searches for a general invertible chain map (a triangular
    base change) by linear algebra.  Returns a witness (a generator
    bijection, or a dict describing the chain map's matrix entries) or
    NOT_FOUND.
    """
    if m.flavor != n.flavor or len(m.gens) != len(n.gens):
        return NOT_FOUND
    if not m.gens:
        return {}
    shift = (min(g.hdeg for g in n.gens)
             - min(g.hdeg for g in m.gens))
    counts_m = {(i, h + shift): c for (i, h), c in m.gen_counts().items()}
    if counts_m != n.gen_counts():
        return NOT_FOUND
    inns = _in_rows(m), _in_rows(n)
    witness = _iso_search(m, n, shift, inns)
    if witness is None:
        witness = _chain_iso_search(m, n, shift, inns[0])
    return NOT_FOUND if witness is None else witness


def _chain_iso_search(m, n, shift, inn_m):
    """Invertible chain map search by F2 linear algebra; `inn_m` holds
    m's in-rows.

    Unknowns are monomial matrix entries of a degree-preserving map;
    the chain-map condition is linear, so its solution space is
    computed exactly and searched for a member whose weight-zero part
    is blockwise invertible (which forces invertibility, since all
    positive-weight terms are filtration-raising).  Members tried: each
    basis vector, their sum, and 512 random sums drawn with seed 7.
    """
    import random as _random

    max_label = max((l.max_weight for st in (m, n)
                     for _, _, l in st.triples()), default=0)
    max_w = max_label + 2
    unknowns = []
    for x, gx in enumerate(m.gens):
        for y, gy in enumerate(n.gens):
            if gy.hdeg != gx.hdeg + shift:
                continue
            for t in algebra.monomials_between(gx.idem, gy.idem, max_w,
                                               m.flavor):
                unknowns.append((x, y, t))
    # the coordinates of the chain-map condition are keyed by name, so
    # that the pivots, and so the basis found, follow the names
    m_names = [g.name for g in m.gens]
    n_names = [g.name for g in n.gens]
    rows = []
    for (x, y, a) in unknowns:
        vec = set()
        for z, label in n.out[y].items():
            for t in (a * label).monomials():
                vec ^= {(m_names[x], n_names[z], t)}
        for x0, label in inn_m[x].items():
            for t in (label * a).monomials():
                vec ^= {(m_names[x0], n_names[y], t)}
        rows.append(frozenset(vec))
    basis = f2.nullspace(rows)
    if not basis:
        return None

    blocks = {}
    for i, (x, y, t) in enumerate(unknowns):
        if t.is_idem:
            key = (m.gens[x].idem, m.gens[x].hdeg)
            blocks.setdefault(key, []).append(i)

    def invertible(support):
        for idxs in blocks.values():
            xs = sorted({unknowns[i][0] for i in idxs})
            mat = [frozenset(unknowns[i][1] for i in idxs
                             if i in support and unknowns[i][0] == x)
                   for x in xs]
            if f2.rank(mat) != len(xs):
                return False
        return True

    def candidates():
        nb = len(basis)
        yield from ((i,) for i in range(nb))
        yield range(nb)
        rng = _random.Random(7)
        for _ in range(512):
            yield [i for i in range(nb) if rng.random() < 0.5]

    for combo in candidates():
        support = set()
        for b in combo:
            support ^= basis[b]
        if invertible(support):
            return {"shift": shift, "entries": sorted(
                (m_names[x], n_names[y], str(t))
                for i, (x, y, t) in enumerate(unknowns) if i in support)}
    return None


def _iso_search(m, n, shift, inns):
    sig_m, sig_n = _signatures(m, shift, n, inns)
    by_sig = {}
    for y, s in enumerate(sig_n):
        by_sig.setdefault(s, []).append(y)
    order = sorted(range(len(m.gens)), key=lambda x: (
        len(by_sig.get(sig_m[x], ())), m.gens[x].name))
    if any(sig_m[x] not in by_sig for x in order):
        return None

    inn_m, inn_n = inns
    assign = {}
    used = set()

    def consistent(a, b):
        # arrow counts must match exactly, and so must the labels of the
        # arrows to generators already assigned
        for mine, theirs in ((m.out[a], n.out[b]), (inn_m[a], inn_n[b])):
            if len(mine) != len(theirs):
                return False
            for k, l in mine.items():
                if k in assign and theirs.get(assign[k]) != l:
                    return False
        return True

    # depth first on an explicit stack, not by recursion, which a
    # structure of a thousand generators would take past Python's limit:
    # `tries[i]` holds the candidates of order[i] not yet tried, in the
    # order of its colour class, and order[:len(tries) - 1] are assigned
    tries = [iter(by_sig[sig_m[order[0]]])] if order else []
    while len(assign) < len(order):
        if not tries:
            return None
        a = order[len(tries) - 1]
        for b in tries[-1]:
            if b not in used and consistent(a, b):
                assign[a] = b
                used.add(b)
                if len(tries) < len(order):
                    tries.append(iter(by_sig[sig_m[order[len(tries)]]]))
                break
        else:
            # every candidate of a failed: take back its predecessor's
            tries.pop()
            if tries:
                used.discard(assign.pop(order[len(tries) - 1]))
    return {m.gens[a].name: n.gens[b].name for a, b in assign.items()}


# --- serialization ------------------------------------------------------

_IDEM_TO_TOKEN = {Vertex.FILLED: "filled", Vertex.HOLLOW: "hollow"}


def serialize(m: TypeDStructure) -> str:
    lines = [f"flavor {m.flavor}"]
    for g in sorted(m.gens, key=lambda g: g.name):
        lines.append(f"gen {g.name} {_IDEM_TO_TOKEN[g.idem]} {g.hdeg}")
    for (s, d), label in sorted(m.arrows.items()):
        lines.append(f"arrow {s} {d} {label}")
    return "\n".join(lines) + "\n"
