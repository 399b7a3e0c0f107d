"""Sparse linear algebra over the two-element field.

A vector is a frozenset of basis keys: a key is present iff its
coefficient is 1.  Keys are opaque but must be hashable and totally
orderable so that pivoting is deterministic.
"""

from __future__ import annotations


ZERO = frozenset()


def _reduce_row(row, pivots):
    """Eliminate row against a pivot dict {pivot key: row}."""
    while row:
        p = max(row)
        if p not in pivots:
            return row
        row = row ^ pivots[p]
    return row


def rank(rows):
    """Rank of the row list over F2."""
    pivots = {}
    r = 0
    for row in rows:
        row = _reduce_row(frozenset(row), pivots)
        if row:
            pivots[max(row)] = row
            r += 1
    return r


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
