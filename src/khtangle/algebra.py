"""The two-vertex quiver algebra with loops and its H=0 quotient.

Basis monomials are paths in the quiver with vertices FILLED and HOLLOW:
idempotents, powers of the connecting arrow S (which alternates between
the vertices), and powers of the loop D.  Mixed S.D words vanish by the
quiver relations.  There is one element type, `BElem`; a monomial is a
one-term element.  The full algebra carries the central element
H = D + S^2; the quotient sets H = 0, equivalently identifies D with S^2
and kills S^3.
"""

from __future__ import annotations

import enum


class Vertex(enum.Enum):
    FILLED = "f"
    HOLLOW = "h"

    def other(self):
        return Vertex.HOLLOW if self is Vertex.FILLED else Vertex.FILLED

    def __repr__(self):
        return "FILLED" if self is Vertex.FILLED else "HOLLOW"


FILLED = Vertex.FILLED
HOLLOW = Vertex.HOLLOW

# algebra flavors
FLAVOR_B = "B"    # full algebra, with H
FLAVOR_BT = "Bt"  # quotient by H = 0


# --- packed elements ------------------------------------------------------
#
# An element is stored per source vertex v as two ints: in s_v, bit 0 is
# the idempotent e_v and bit n is S^n from v; in d_v, bit n (n >= 1) is
# D^n from v.  The idempotent is kept only in s_v.  A product is then a
# carry-less multiply per part: S^a S^b = S^(a+b) with an odd left
# factor continuing from the other vertex, D^a D^b = D^(a+b), the
# idempotent is the unit of both parts, and mixed S.D words vanish.  The
# quotient keeps s_v mod S^3 and has d_v = 0.

_VERTICES = (FILLED, HOLLOW)   # the order of the packed components
_QUOTIENT_S = 0b111            # e, S and S^2: the S part of the quotient


def _clmul(a, b):
    """Carry-less product of two bit polynomials."""
    r = 0
    while a:
        low = a & -a
        r ^= b * low
        a ^= low
    return r


def _s_mul(a, b_same, b_other):
    """S part of a product: the terms of a of even exponent continue
    from the same vertex, those of odd exponent from the other one."""
    r = 0
    while a:
        low = a & -a
        r ^= (b_same if low.bit_length() & 1 else b_other) * low
        a ^= low
    return r


def _has_parity(x, parity):
    """Whether x has a set bit whose index is congruent to parity mod 2."""
    while x:
        low = x & -x
        if (low.bit_length() - 1) & 1 == parity:
            return True
        x ^= low
    return False


def _exponents(x):
    """Indices of the set bits of x, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


class BElem:
    """An F2 linear combination of path monomials in one flavor.

    `packed` is (s_F, d_F, s_H, d_H), see the encoding above; elements
    are immutable.  Values are built by `zero`, `idem`, `spow`, `dpow`
    and arithmetic; a monomial is a one-term value, and `monomials`
    splits a value into them.

    Every value exists once (see `_packed`), so equality is identity
    and the zero test compares with the interned zero.  Each value
    memoizes its products, sums, `runs` answers and monomials, keyed by
    the other operand's serial number (or by the endpoints).
    """

    __slots__ = ("packed", "flavor", "_hash", "_n", "_mul", "_add", "_runs",
                 "_monos")

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        """Monomial order: D powers, then idempotents, then S powers,
        each by exponent and then vertex (FILLED first)."""
        return _mono_key(self.packed) < _mono_key(other.packed)

    def is_zero(self):
        return self is _ZERO[self.flavor]

    def __add__(self, other):
        try:
            return self._add[other._n]
        except KeyError:
            pass
        assert self.flavor == other.flavor
        a, b = self.packed, other.packed
        r = self._add[other._n] = _packed(
            (a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]), self.flavor)
        return r

    def __mul__(self, other):
        try:
            return self._mul[other._n]
        except KeyError:
            pass
        assert self.flavor == other.flavor, "flavor mismatch in product"
        xsf, xdf, xsh, xdh = self.packed
        ysf, ydf, ysh, ydh = other.packed
        sf = _s_mul(xsf, ysf, ysh)
        sh = _s_mul(xsh, ysh, ysf)
        if self.flavor == FLAVOR_BT:
            r = _packed((sf & _QUOTIENT_S, 0, sh & _QUOTIENT_S, 0), FLAVOR_BT)
        else:
            df = _clmul(xdf | (xsf & 1), ydf | (ysf & 1)) & ~1
            dh = _clmul(xdh | (xsh & 1), ydh | (ysh & 1)) & ~1
            r = _packed((sf, df, sh, dh), FLAVOR_B)
        self._mul[other._n] = r
        return r

    def is_idem(self):
        """Whether the element is exactly one vertex's idempotent."""
        return self.packed in ((1, 0, 0, 0), (0, 0, 1, 0))

    def runs(self, src: Vertex, dst: Vertex):
        """Whether every term is a path from src to dst."""
        key = (src is FILLED, dst is FILLED)
        try:
            return self._runs[key]
        except KeyError:
            r = self._runs[key] = _runs(self.packed, src, dst)
            return r

    def max_weight(self):
        return max((max(s.bit_length() - 1, 2 * (d.bit_length() - 1))
                    for _, s, d in _by_vertex(self.packed) if s or d),
                   default=0)

    def monomials(self):
        """The terms as one-term values, in monomial order (see
        `__lt__`), which is also the order `str` prints them in."""
        if self._monos is None:
            self._monos = tuple(
                _packed(_one_term(d, n, v), self.flavor)
                for d, n, v in _terms(self.packed))
        return self._monos

    def ends(self):
        """(source, target) vertex of a monomial: an odd S power changes
        vertex, every other monomial stays."""
        sf, df, sh, dh = self.packed
        src = FILLED if sf | df else HOLLOW
        s = sf | sh
        return src, (src.other() if s and not s.bit_length() & 1 else src)

    def __str__(self):
        toks = [_power("D" if d else "S", n) if n else "i"
                for d, n, _ in _terms(self.packed)]
        return "+".join(toks) if toks else "0"

    def __repr__(self):
        return f"BElem({str(self)!r}, flavor={self.flavor!r})"


def _power(letter, n):
    return letter if n == 1 else f"{letter}^{n}"


def _by_vertex(packed):
    """(vertex, s_v, d_v) for both source vertices."""
    return zip(_VERTICES, packed[0::2], packed[1::2])


def _terms(packed):
    """(is a D power, exponent, source vertex) of every term: D powers,
    then idempotents, then S powers, each by exponent and then vertex."""
    sf, df, sh, dh = packed
    out = [(True, n, v) for n in _exponents(df | dh)
           for v, d in ((FILLED, df), (HOLLOW, dh)) if d >> n & 1]
    out += [(False, 0, v) for v, s in ((FILLED, sf), (HOLLOW, sh)) if s & 1]
    out += [(False, n, v) for n in _exponents((sf | sh) & ~1)
            for v, s in ((FILLED, sf), (HOLLOW, sh)) if s >> n & 1]
    return out


def _one_term(d_power, n, v):
    """The packed form of one monomial: S^n (S^0 the idempotent) or D^n
    from v."""
    parts = [0, 0, 0, 0]
    parts[2 * _VERTICES.index(v) + d_power] = 1 << n
    return tuple(parts)


def _mono_key(packed):
    """Sort key of a monomial: kind (D, idempotent, S), exponent, and
    whether it starts at HOLLOW."""
    sf, df, sh, dh = packed
    d = df | dh
    n = (d or sf | sh).bit_length() - 1
    return (0 if d else 2 if n else 1), n, not (sf | df)


def _runs(packed, src, dst):
    for v, s, d in _by_vertex(packed):
        if v is not src:
            if s or d:
                return False
        elif src is dst:
            if _has_parity(s, 1):
                return False   # odd S powers change vertex
        elif d or _has_parity(s, 0):
            return False       # only odd S powers change vertex
    return True


def _in_quotient(packed):
    return not (packed[1] or packed[3] or (packed[0] | packed[2]) > _QUOTIENT_S)


_INTERNED = {}   # (packed, flavor) -> the one BElem of that value


def _packed(packed, flavor):
    """Every element, from `idem`/`spow`/`dpow` or from arithmetic, is
    made here, once per value."""
    e = _INTERNED.get((packed, flavor))
    if e is not None:
        return e
    if flavor == FLAVOR_BT and not _in_quotient(packed):
        bad = next(t for t in _packed(packed, FLAVOR_B).monomials()
                   if not _in_quotient(t.packed))
        raise ValueError(f"monomial {bad} is not in the quotient algebra")
    e = object.__new__(BElem)
    e.packed = packed
    e.flavor = flavor
    e._hash = hash(packed)
    e._n = len(_INTERNED)
    e._mul, e._add, e._runs = {}, {}, {}
    e._monos = None
    _INTERNED[packed, flavor] = e
    return e


_ZERO = {f: _packed((0, 0, 0, 0), f) for f in (FLAVOR_B, FLAVOR_BT)}


def zero(flavor=FLAVOR_B):
    return _ZERO[flavor]


def idem(v: Vertex, flavor=FLAVOR_B):
    return _packed(_one_term(False, 0, v), flavor)


def spow(n: int, v: Vertex, flavor=FLAVOR_B):
    assert n >= 1
    return _packed(_one_term(False, n, v), flavor)


def dpow(n: int, v: Vertex, flavor=FLAVOR_B):
    assert n >= 1
    return _packed(_one_term(True, n, v), flavor)


def h_elem(v: Vertex):
    """The central element H = D + S^2 based at v."""
    return dpow(1, v) + spow(2, v)


def h_mul(x: BElem) -> BElem:
    """Multiply by the central element H (full algebra only): e goes to
    D + S^2, S^n to S^(n+2) and D^n to D^(n+1)."""
    assert x.flavor == FLAVOR_B
    sf, df, sh, dh = x.packed
    return _packed((sf << 2, (df ^ (sf & 1)) << 1,
                    sh << 2, (dh ^ (sh & 1)) << 1), FLAVOR_B)


def q_map(x: BElem) -> BElem:
    """The quotient homomorphism onto the H = 0 algebra: S^n survives for
    n <= 2, D maps to S^2 and higher D powers to zero."""
    sf, df, sh, dh = x.packed
    return _packed(((sf & _QUOTIENT_S) ^ ((df & 2) << 1), 0,
                    (sh & _QUOTIENT_S) ^ ((dh & 2) << 1), 0), FLAVOR_BT)


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
