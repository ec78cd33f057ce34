"""Exact linear algebra over the prime field F_p, on int residues.

``rref``, ``rank``, ``kernel_basis_mod_p`` and ``kernel_of_columns_mod_p``
run one sparse Gauss-Jordan elimination on ints read mod p, and
``rank_up_to`` one that takes its rows one at a time; ``_pivots``, the
forward half of the first, counts a rank with no back-substitution.  The
program row reduces over no other field.  ``kernel_basis_mod_p`` keeps its
vectors sparse, as ``SparseRows``.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass

Matrix = list  # list[list], row-major


@dataclass(frozen=True)
class SparseRows:
    """Vectors of length ``ncols`` over F_p, in order, each a {column:
    nonzero residue} map in no set column order: a column that a map leaves
    out holds 0."""

    ncols: int
    rows: list


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def rref(rows: Matrix, p: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over F_p of int rows read mod p, as residues,
    and the pivot column indices (exact Gauss-Jordan).

    Rows are eliminated as column -> nonzero maps, so a row update walks only
    the nonzero entries of the pivot row. The reduced form of a row space is
    unique, so the result does not depend on the elimination order; it comes
    back dense, the pivot rows in column order followed by the zero rows."""
    if not rows:
        return [], []
    reduced, pivots = _gauss_jordan([{c: r for c, x in enumerate(row) if (r := x % p)} for row in rows], p)
    dense = [[0] * len(rows[0]) for _ in rows]
    for out, row in zip(dense, reduced):
        for j, x in row.items():
            out[j] = x
    return dense, pivots


def _gauss_jordan(rows: list[dict], p: int) -> tuple[list[dict], list[int]]:
    """The reduced pivot rows of rows given as {column: nonzero residue mod p}
    maps, as maps of the same kind, and their pivot columns: each pivot row
    that ``_pivots`` gives clears its column from the reduced rows before it."""
    reduced: list[dict] = []
    pivots: list[int] = []
    for c, tail in _pivots(rows, p):
        for row in reduced:
            if c in row:
                _eliminate(row, c, tail, p)
        pivot_row = dict(tail)
        pivot_row[c] = 1
        reduced.append(pivot_row)
        pivots.append(c)
    return reduced, pivots


def _pivots(rows: list[dict], p: int) -> list[tuple[int, list]]:
    """Forward elimination of rows given as {column: nonzero residue mod p}
    maps: each pivot column in increasing order, with the rest of its row
    scaled to 1 at the pivot as (column, residue) pairs, taken once every
    pending row is cleared at that column.  Their count is the rank."""
    pending = {i: entries for i, entries in enumerate(rows) if entries}
    # (leading column, row id) of each pending row. Every pending row's
    # columns are at least the smallest leading column c, so exactly the rows
    # led by c have an entry in column c.
    leads = [(min(entries), i) for i, entries in pending.items()]
    heapq.heapify(leads)
    out = []
    while leads:
        c, i = heapq.heappop(leads)
        inv = pow(pending[i].pop(c), -1, p)
        tail = [(j, x * inv % p) for j, x in pending.pop(i).items()]
        while leads and leads[0][0] == c:
            _, i = heapq.heappop(leads)
            row = pending[i]
            _eliminate(row, c, tail, p)
            if row:
                heapq.heappush(leads, (min(row), i))
            else:
                del pending[i]
        out.append((c, tail))
    return out


def _eliminate(row: dict, c: int, tail: list, p: int) -> None:
    """Clear column c of a sparse row with the pivot row for c, which is 1 at
    c and holds the nonzero residues ``tail`` elsewhere."""
    f = row.pop(c)
    for j, y in tail:
        x = row.get(j)
        if x is None:
            row[j] = -(f * y) % p
        else:
            x = (x - f * y) % p
            if x:
                row[j] = x
            else:
                del row[j]


def rank(rows: Matrix, p: int) -> int:
    return len(rref(rows, p)[1])


def rank_up_to(rows: Iterable[dict], p: int, bound: int) -> int:
    """min(rank, bound) over F_p of {column: int} rows read mod p, taken one
    at a time: no row past the one that brings the rank to ``bound`` is read.
    The pivot rows are kept reduced, each 1 at its pivot and 0 at the others,
    so one pass over a new row's entries at pivots reduces it."""
    reduced: dict[int, dict] = {}  # pivot column -> the rest of its row
    rows = iter(rows)
    while len(reduced) < bound and (row := next(rows, None)) is not None:
        entries = {c: r for c, x in row.items() if (r := x % p)}
        for c in [c for c in entries if c in reduced]:
            _eliminate(entries, c, reduced[c].items(), p)
        if entries:
            c = min(entries)
            inv = pow(entries.pop(c), -1, p)
            tail = {j: x * inv % p for j, x in entries.items()}
            for other in reduced.values():
                if c in other:
                    _eliminate(other, c, tail.items(), p)
            reduced[c] = tail
    return len(reduced)


def kernel_basis_mod_p(rows: list[dict], ncols: int, p: int) -> SparseRows:
    """Basis of the right kernel over the prime field F_p on ints, one vector
    per free column in column order: each row is a {column: int} map read
    mod p.  The reduced form is unique, so the basis does not depend on the
    elimination order; no rows give the whole space.

    A reduced row is 1 at its pivot pc and nonzero elsewhere only at free
    columns, so its entry x at free column fc puts -x at pc into the vector
    of fc: past the elimination, the work is one step per column and per
    nonzero entry, and no dense vector is built."""
    sparse = [{c: x % p for c, x in row.items() if x % p} for row in rows]
    reduced, pivots = _gauss_jordan(sparse, p)
    pivot_set = set(pivots)
    vectors = {fc: {fc: 1} for fc in range(ncols) if fc not in pivot_set}
    for row, pc in zip(reduced, pivots):
        del row[pc]
        for fc, x in row.items():
            vectors[fc][pc] = p - x
    return SparseRows(ncols, list(vectors.values()))


def kernel_of_columns_mod_p(columns: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right kernel over F_p of the matrix with these columns,
    ints read mod p, all of one length n: the relations among the columns.
    Column j is eliminated as a row with a 1 appended in place n + j, and a
    reduced row whose pivot lies past n has no entry below n, so its
    appended part is a relation.  The work grows with the columns, not the
    rows: a few long columns cost what reading them costs."""
    n = len(columns[0]) if columns else 0
    rows = []
    for j, column in enumerate(columns):
        row = {r: x for r, x in enumerate(map(p.__rmod__, column)) if x}
        row[n + j] = 1
        rows.append(row)
    reduced, pivots = _gauss_jordan(rows, p)
    return [
        [row.get(n + j, 0) for j in range(len(columns))]
        for row, c in zip(reduced, pivots)
        if c >= n
    ]
