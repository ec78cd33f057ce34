"""The (p+1)-regular tree of lattice classes for GL2 over the p-adic rationals,
as int labels.

A vertex is labeled (p, m, n, d): the class of the column lattice of
[[p^m, b],[0,1]] for b = n/d, reduced to the unique representative in
[0, p^m) having p-power denominator d.  The ball around the base vertex is
index arithmetic on three int arrays of these labels.  The transporter
[[1, 0], [-b, p^m]] carries the base vertex to (m, b); the program reads it
from the label's ints (L, O, C) of ``_level_and_offset``, p^m = L/C and
b = O/C, with no matrix object.  Group elements act through the
contragredient-flip convention, which pins the diagonal p-power elements to
the vertices (n, 0) and makes the base-vertex tube the unit circle of the
coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InvalidParameters
from .scalars import _check_prime, _mod_inverse


# -- vertex labels ---------------------------------------------------------------


def _offset(n: int, u: int, m: int, p: int) -> tuple[int, int]:
    """The c in [0, p^m) with val(n/u - c) >= m, for n/u in lowest terms and
    u > 0, in lowest terms over a power of p: with u = p^j u', p not dividing
    u', c = s/p^j for the s in [0, p^(m+j)) with s = n/u' mod p^(m+j)."""
    if not n:
        return 0, 1
    j = 0
    while not u % p:
        u //= p
        j += 1
    if m + j <= 0:
        return 0, 1
    mod = p ** (m + j)
    return n * _mod_inverse(u, mod) % mod, p**j


def vertex_label(p: int, m: int, b: Fraction) -> tuple[int, int, int, int]:
    """The label (p, m, n, d) of the vertex (m, b): b reduced to its canonical
    offset n/d."""
    return (p, m, *_offset(b.numerator, b.denominator, m, p))


def _level_and_offset(p: int, m: int, n: int, d: int) -> tuple[int, int, int]:
    """p^m and b = n/d, the label of the vertex (m, b), as numerators over one
    power of p, and that power."""
    if m >= 0:
        return p**m * d, n, d
    common = max(d, p**-m)
    return common // p**-m, n * (common // d), common


def _child_offsets(p: int, m: int, n: int, d: int) -> tuple[range, int]:
    """The offsets of the children (m + 1, b + c p^m), c in [0, p), of the
    vertex (m, b = n/d), as numerators over one power of p, and that power.
    Each is in lowest terms but a zero one, whose canonical form is 0/1."""
    step, n0, common = _level_and_offset(p, m, n, d)
    return range(n0, n0 + p * step, step), common


# -- truncated balls -------------------------------------------------------------


def ball_size(p: int, radius: int) -> int:
    """Number of vertices within the given distance of a vertex of the
    (p+1)-regular tree: 1 + (p+1)(p^r - 1)/(p - 1)."""
    return 1 + (p + 1) * (p**radius - 1) // (p - 1)


@dataclass
class TruncatedTree:
    """Ball around the base vertex, as index arithmetic on its vertices in
    breadth-first order, whose first ``n_interior`` vertices lie below the
    radius.  Vertex i is labeled (p, m, n, d) = (p, levels[i], nums[i],
    dens[i]), the label held as three int arrays; vertex i >= 1 hangs off
    vertex ``up(i)`` through edge i - 1."""

    p: int
    levels: list[int]
    nums: list[int]
    dens: list[int]
    n_interior: int

    @property
    def n_edges(self) -> int:
        return len(self.levels) - 1

    def label(self, i: int) -> tuple[int, int, int, int]:
        return self.p, self.levels[i], self.nums[i], self.dens[i]

    def up(self, i: int) -> int:
        """The base vertex's p + 1 neighbours come first, then p from each
        vertex in turn."""
        return 0 if i <= self.p + 1 else (i - 2) // self.p

    def star(self, i: int) -> range | list[int]:
        """The edges at interior vertex i: edge i - 1, then p*i + 1 ... p*i + p."""
        p = self.p
        return range(p + 1) if i == 0 else [i - 1, *range(p * i + 1, p * i + p + 1)]

    def ends(self, j: int) -> tuple[int, int]:
        """Edge j's parent end (the smaller level) and child end.  On the
        spine through levels -1, -2, ... the child end is ``up(j + 1)``."""
        a, b = self.up(j + 1), j + 1
        return (a, b) if self.levels[a] < self.levels[b] else (b, a)

    @cached_property
    def child_ends(self) -> list[int]:
        """Each edge's child end, by edge index, as ``ends`` gives it,
        computed on the first read."""
        levels, ids = self.levels, range(1, len(self.levels))
        return [i if levels[u] < levels[i] else u for i, u in zip(ids, map(self.up, ids))]


def truncated_tree(p: int, radius: int) -> TruncatedTree:
    """Ball of the given radius around the base vertex, neighbors visited
    parent first, then children by offset, its labels built shell by shell
    from ``_child_offsets``.  A vertex's new neighbours are its children but
    on the spine (-s, 0), s >= 0, which opens each shell: its parent is new
    too, and, but at the base, its child 0 is the vertex it was reached from."""
    _check_prime(p)
    if radius < 0:
        raise InvalidParameters("radius must be >= 0")
    levels, nums, dens, n_interior = [0], [0], [1], 0
    for _ in range(radius):
        start, n_interior = n_interior, len(levels)
        for i in range(start, n_interior):
            m = levels[i]
            offsets, common = _child_offsets(p, m, nums[i], dens[i])
            if i == start:
                levels.append(m - 1)
                nums.append(0)
                dens.append(1)
                offsets = offsets[1:] if i else offsets
            # a zero offset is only the base's child 0, whose common power is 1
            levels += [m + 1] * len(offsets)
            nums += offsets
            dens += [common] * len(offsets)
    return TruncatedTree(p, levels, nums, dens, n_interior)
