"""The two-vertex quiver algebra with loops and its H=0 quotient.

Basis monomials are paths in the quiver with vertices FILLED and HOLLOW,
written (kind, n, v) for a path from v: ("i", 0, v) is the idempotent,
("s", n, v) is S^n, where the arrow S alternates between the vertices,
and ("d", n, v) is D^n, where the loop D stays at v.  Mixed S.D words
vanish by the quiver relations.  There is one element type, `BElem`: a
value is the frozenset of its monomials, a sum is their symmetric
difference, and a product concatenates paths term by term.  A monomial
is a one-term value.  The full algebra carries the central element
H = D + S^2; the quotient sets H = 0, equivalently identifies D with S^2
and kills S^3.
"""

from __future__ import annotations

import enum
import functools


class Vertex(enum.Enum):
    FILLED = "f"
    HOLLOW = "h"

    def other(self):
        return Vertex.HOLLOW if self is Vertex.FILLED else Vertex.FILLED

    def __lt__(self, other):
        """FILLED first, so that path monomials sort as tuples."""
        return self.value < other.value

    def __repr__(self):
        return "FILLED" if self is Vertex.FILLED else "HOLLOW"


FILLED = Vertex.FILLED
HOLLOW = Vertex.HOLLOW

# algebra flavors
FLAVOR_B = "B"    # full algebra, with H
FLAVOR_BT = "Bt"  # quotient by H = 0


# --- path monomials -------------------------------------------------------

def _end(t):
    """The target vertex of a path: an odd S power changes vertex."""
    kind, n, v = t
    return v.other() if kind == "s" and n & 1 else v


def _weight(t):
    kind, n, _ = t
    return 2 * n if kind == "d" else n


def _in_quotient(t):
    """Whether a path survives H = 0: the idempotents, S and S^2."""
    kind, n, _ = t
    return kind == "i" or (kind == "s" and n <= 2)


def _concat(x, y, flavor):
    """The path x then y, or None where the product vanishes."""
    if _end(x) is not y[2]:
        return None
    if x[0] == "i":
        return y
    if y[0] == "i":
        return x
    if x[0] != y[0]:
        return None   # S.D = D.S = 0
    t = (x[0], x[1] + y[1], x[2])
    return t if flavor == FLAVOR_B or _in_quotient(t) else None


def _str(t):
    kind, n, _ = t
    if kind == "i":
        return "i"
    return kind.upper() if n == 1 else f"{kind.upper()}^{n}"


class BElem:
    """An F2 linear combination of path monomials in one flavor.

    `terms` is the frozenset of its monomials (kind, n, v), see above;
    values are immutable.  Values are built by `zero`, `idem`, `spow`,
    `dpow` and arithmetic; `monomials` splits a value into one-term
    values.  `max_weight` is the weight of the heaviest term (S counts
    1, D counts 2; 0 for zero) and `is_idem` says whether the value is
    exactly one vertex's idempotent; both are set when the value is
    made.

    Every value exists once (see `_make`), so equality is identity
    and the zero test compares with the interned zero.  Sums, products
    and monomials are `functools` caches keyed on the values themselves,
    which hash by identity and live as long as the interning table; each
    value memoizes its own `runs` answers, keyed by the endpoints.
    """

    __slots__ = ("terms", "flavor", "max_weight", "is_idem", "_order",
                 "_runs")

    def __lt__(self, other):
        """Monomial order: D powers, then idempotents, then S powers,
        each by exponent and then vertex (FILLED first)."""
        return self._order < other._order

    def is_zero(self):
        return self is _ZERO[self.flavor]

    @functools.cache
    def __add__(self, other):
        # raised, not asserted: python -O too; a cache stores no
        # exception, so a mismatch raises on every call
        if self.flavor != other.flavor:
            raise ValueError(f"flavor mismatch in sum: {self.flavor} + "
                             f"{other.flavor}")
        return _make(self.terms ^ other.terms, self.flavor)

    @functools.cache
    def __mul__(self, other):
        if self.flavor != other.flavor:
            raise ValueError(f"flavor mismatch in product: {self.flavor} * "
                             f"{other.flavor}")
        acc = set()
        for x in self.terms:
            for y in other.terms:
                t = _concat(x, y, self.flavor)
                if t is not None:
                    acc ^= {t}
        return _make(frozenset(acc), self.flavor)

    def runs(self, src: Vertex, dst: Vertex):
        """Whether every term is a path from src to dst."""
        key = (src is FILLED, dst is FILLED)
        try:
            return self._runs[key]
        except KeyError:
            r = self._runs[key] = all(t[2] is src and _end(t) is dst
                                      for t in self.terms)
            return r

    @functools.cache
    def monomials(self):
        """The terms as one-term values, in monomial order (see
        `__lt__`), which is also the order `str` prints them in."""
        return tuple(_make(frozenset([t]), self.flavor) for t in self._order)

    def ends(self):
        """(source, target) vertex of a monomial."""
        (t,) = self.terms
        return t[2], _end(t)

    def __str__(self):
        return "+".join(map(_str, self._order)) or "0"

    def __repr__(self):
        return f"BElem({str(self)!r}, flavor={self.flavor!r})"


_INTERNED = {}   # (terms, flavor) -> the one BElem of that value


def _make(terms, flavor):
    """Every element, from `idem`/`spow`/`dpow` or from arithmetic, is
    made here, once per value."""
    e = _INTERNED.get((terms, flavor))
    if e is not None:
        return e
    order = tuple(sorted(terms))
    if flavor == FLAVOR_BT:
        bad = [t for t in order if not _in_quotient(t)]
        if bad:
            raise ValueError(
                f"monomial {_str(bad[0])} is not in the quotient algebra")
    e = object.__new__(BElem)
    e.terms = terms
    e.flavor = flavor
    e.max_weight = max(map(_weight, terms), default=0)
    e.is_idem = len(order) == 1 and order[0][0] == "i"
    e._order = order
    e._runs = {}
    _INTERNED[terms, flavor] = e
    return e


_ZERO = {f: _make(frozenset(), f) for f in (FLAVOR_B, FLAVOR_BT)}


def zero(flavor=FLAVOR_B):
    return _ZERO[flavor]


def idem(v: Vertex, flavor=FLAVOR_B):
    return _make(frozenset([("i", 0, v)]), flavor)


def spow(n: int, v: Vertex, flavor=FLAVOR_B):
    if n < 1:   # raised, not asserted: python -O too
        raise ValueError(f"S^{n}: the exponent must be at least 1")
    return _make(frozenset([("s", n, v)]), flavor)


def dpow(n: int, v: Vertex, flavor=FLAVOR_B):
    if n < 1:
        raise ValueError(f"D^{n}: the exponent must be at least 1")
    return _make(frozenset([("d", n, v)]), flavor)


def h_elem(v: Vertex):
    """The central element H = D + S^2 based at v."""
    return dpow(1, v) + spow(2, v)


_H = h_elem(FILLED) + h_elem(HOLLOW)


def h_mul(x: BElem) -> BElem:
    """Multiply by the central element H (full algebra only): e goes to
    D + S^2, S^n to S^(n+2) and D^n to D^(n+1)."""
    if x.flavor != FLAVOR_B:   # raised, not asserted: python -O too
        raise ValueError(f"h_mul needs a B element, not {x.flavor}")
    return x * _H


def q_map(x: BElem) -> BElem:
    """The quotient homomorphism onto the H = 0 algebra: S^n survives for
    n <= 2, D maps to S^2 and higher D powers to zero."""
    acc = set()
    for kind, n, v in x.terms:
        t = ("s", 2, v) if kind == "d" and n == 1 else (kind, n, v)
        if _in_quotient(t):
            acc ^= {t}
    return _make(frozenset(acc), FLAVOR_BT)


@functools.cache
def splits(x: BElem):
    """The pairs (a, b) of non-idempotent monomials with a * b = x, for a
    monomial x: the path x cut at each of its interior points.  Made
    once per monomial, which is interned and so lives as long."""
    (t,) = x.terms
    kind, n, v = t
    out = []
    for i in range(1, n):
        first = (kind, i, v)
        second = (kind, n - i, _end(first))
        out.append((_make(frozenset([first]), x.flavor),
                    _make(frozenset([second]), x.flavor)))
    return tuple(out)


def monomials_between(src: Vertex, dst: Vertex, max_weight: int,
                      flavor=FLAVOR_B):
    """The monomials from src to dst of weight at most max_weight: the
    idempotent, then S powers, then D powers, each by exponent."""
    out = [idem(src, flavor)] if src is dst and max_weight >= 0 else []
    smax = min(max_weight, 2) if flavor == FLAVOR_BT else max_weight
    out += [spow(n, src, flavor)
            for n in range(2 if src is dst else 1, smax + 1, 2)]
    if flavor == FLAVOR_B and src is dst:
        out += [dpow(n, src) for n in range(1, max_weight // 2 + 1)]
    return out
