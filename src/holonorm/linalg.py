"""Exact linear algebra over the Gaussian rationals: the engine's one row
reduction. `nullspace` runs it, and `inverse` reads M^-1 off it.

Rows arrive raw, in the format of `backend`'s raw accumulators, as the
centralizer builds them. A homogeneous system from a Levi-nonflat model
forces nearly every unknown to vanish by a row that holds it alone once
the zeros found so far are taken out (545 of 550 columns for an NF14
commutant at order 22). Those zeros are peeled first, as the
singleton-row pass of LP presolve does, reading only which entries are
nonzero; only the few rows left are reduced to canonical coefficients and
go through exact sparse row reduction (Monagan and Pearce, ISSAC 2009:
reduce each coefficient that is read, once).
"""

from __future__ import annotations

from .backend import ONE, ZERO, settle, sub_product


def _eliminate(row, factor, pivot_row):
    """row -= factor * pivot_row in place, one reduction per entry,
    dropping entries that cancel."""
    for c, v in pivot_row.items():
        new = sub_product(row.get(c), factor, v)
        if new is None:
            row.pop(c, None)
        else:
            row[c] = new


def nullspace(rows, ncols):
    """Basis of the right nullspace of a sparse rational matrix.

    rows: iterable of raw rows {col: [re, im, den]}, value (re + im*i)/den
    in any terms, as `backend`'s raw accumulators hold them; an entry whose
    numerators are zero is no entry. The system is homogeneous, so a row
    whose entries all sit on columns known to vanish, but one column c,
    forces x_c = 0. A first pass peels these forced zeros, propagating
    with a stack: each row keeps the number of its columns still live and
    the sum of their indices, which names the last live column once the
    count is 1. Every solution vanishes on a forced column, so it is a
    pivot column of the reduced echelon form with an empty row, and it
    enters `pivots` as {}. The peel reads only which numerators are zero.

    Only the rows the peel leaves are settled (`backend.settle`), their
    forced columns dropped first, and they are reduced shortest first
    (which keeps the fill small): each is reduced against the pivots found
    so far and, if anything is left, becomes the pivot of its smallest
    column. Pivot rows are stored without their leading 1. Back-
    substitution then runs from the highest pivot column down: a pivot row
    already reduced holds no other pivot column, so each row eliminates
    only the pivot columns it holds. The reduced echelon form for the fixed
    column order is unique, so the basis does not depend on the order of
    the rows, nor on the peel.

    One vector per free column fc, in increasing order: fc -> 1 and
    pc -> -(entry fc of pivot row pc), pivot columns in increasing order.
    """
    rows = list(rows)
    live, col_sum = [], []
    rows_of = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        n = s = 0
        for c, v in row.items():
            if v[0] or v[1]:
                n += 1
                s += c
                rows_of[c].append(i)
        live.append(n)
        col_sum.append(s)
    pivots = {}  # col -> reduced row dict without the leading entry
    stack = [i for i, n in enumerate(live) if n == 1]
    while stack:
        i = stack.pop()
        if live[i] != 1:  # its last column was forced by another row
            continue
        col = col_sum[i]
        pivots[col] = {}
        for j in rows_of[col]:
            live[j] -= 1
            col_sum[j] -= col
            if live[j] == 1:
                stack.append(j)
    left = [settle({c: v for c, v in row.items() if c not in pivots})
            for row, n in zip(rows, live) if n]
    for row in sorted(left, key=len):
        while row:
            lead = min(row)
            factor = row.pop(lead)
            if lead not in pivots:
                inv = ONE / factor
                pivots[lead] = {c: v * inv for c, v in row.items()}
                break
            _eliminate(row, factor, pivots[lead])
    # back-substitute; a forced column's row is empty
    reduced = sorted(c for c, row in pivots.items() if row)
    for col in reversed(reduced):
        row = pivots[col]
        for col2 in [c for c in row if c in pivots]:
            _eliminate(row, row.pop(col2), pivots[col2])
    vectors = {c: {c: ONE} for c in range(ncols) if c not in pivots}
    for pc in reduced:
        for fc, v in pivots[pc].items():
            vectors[fc][pc] = -v
    return list(vectors.values())


def inverse(m):
    """Rows of M^-1 for a square matrix M given by its rows; None when M
    is singular.

    [M | -I] has rank n, so its nullspace has n vectors (x, y) with
    M x = y. When no column of M is free, the free columns are n..2n-1 and
    the vector of column n + j is (M^-1 e_j, e_j); a free column below n
    means M is singular.
    """
    n = len(m)
    rows = [{**{j: [c.a, c.b, c.d] for j, c in enumerate(row)}, n + i: [-1, 0, 1]}
            for i, row in enumerate(m)]
    vectors = nullspace(rows, 2 * n)
    if next(iter(vectors[0])) < n:  # the first key is the lowest free column
        return None
    return tuple(tuple(vectors[j].get(i, ZERO) for j in range(n)) for i in range(n))
