"""Sparse linear algebra over the two-element field.

A vector is a frozenset of basis keys: a key is present iff its
coefficient is 1.  Keys are opaque but must be hashable and totally
orderable so that pivoting is deterministic.
"""

from __future__ import annotations


ZERO = frozenset()


def rank(rows):
    """Rank of the row list over F2: the rows less the dependencies
    among them."""
    return len(rows) - len(nullspace(rows))


def nullspace(rows):
    """Basis of combinations of rows summing to zero.

    Returns a list of frozensets of row indices; every subset-XOR of
    rows summing to zero is a combination of these.
    """
    pivots = {}
    basis = []
    for i, raw in enumerate(rows):
        row, combo = frozenset(raw), frozenset([i])
        while row:
            p = max(row)
            if p not in pivots:
                pivots[p] = (row, combo)
                break
            prow, pcombo = pivots[p]
            row, combo = row ^ prow, combo ^ pcombo
        else:
            basis.append(combo)
    return basis
