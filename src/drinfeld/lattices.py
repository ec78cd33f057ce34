"""Integral lattices attached to tree vertices and edges inside the
(k+1)-dimensional dual coefficient module: elementary-divisor profiles,
mod-uniformizer local spaces with their dimensions, and the membership test
of edge values.  Vertices are int labels (p, m, n, d), as in ``tree``.

Conventions: a lattice is a group element g and a column scaling: it is
generated over the valuation ring by the columns of
dual_act(g) * diag(pihat^scale[j]), where dual_act(g) = sym(g^-1)^T.  Edge
profiles are reported relative to the lattice at the child (deeper) endpoint.

The lattices are GL2-equivariant: the vertex lattice of v is the standard
lattice moved by v's transporter, and the child's transporter carries the
standard edge onto every edge.  At the standard edge the child lattice has
the identity basis and the parent lattice the basis diag(pihat^(2j-k)),
j = 0..k.  So the intersection of the two endpoint lattices of any edge is
the child's basis with column j scaled by pihat^max(0, 2j-k), and their sum
is the same basis scaled by pihat^min(0, 2j-k).  Since dual_act is a
homomorphism, the transition between two lattices is one symmetric-power
matrix between two diagonal scalings, and membership needs no elimination.
The transporters are lower triangular, so entry (i, j), j <= i, of that
matrix is D^j C(k-j, i-j) C^(i-j) A^(k-i) times num/den times pihat^n for
the transition [[A, 0], [C, D]]/N.  Profiles read each row's least
valuation, and local spaces each entry's valuation and unit part mod p, from
one table of p-adic factorials (``scalars._factorials``); membership applies
the matrix to a vector, unbuilt.  No scalar is built.  For even k every n is
even: the lattices are defined over Q_p.  Every valuation is a doubled int:
profiles are ``Doubled`` tuples, which the CLI prints halved.

Equivariance also fixes the local spaces: the transporter of v's c-th child
is v's transporter times that of the standard vertex's c-th child, so every
star has the standard star's transitions, and one star's kernel is every
star's.
"""

from __future__ import annotations

from itertools import chain
from operator import sub
from typing import Iterator

from .errors import InternalInvariantError, NegativeValuation
from .linalg import rank_up_to
from .scalars import _factorials, _twice_valuation, _vp, half
from .symrep import triangular_apply
from .tree import _level_and_offset


class Doubled(tuple):
    """Valuations held doubled, as ints: entry x stands for x/2."""

    __slots__ = ()


def vertex_lattice(v: tuple) -> tuple[int, int, int]:
    """The lattice of the vertex of label v = (p, m, n, d), the standard dual
    lattice moved by v's transporter g: its basis is dual_act(g) =
    sym(g^-1)^T for g^-1 = [[L, 0], [O, C]] / L, returned as the ints
    (L, O, C) of ``_level_and_offset``."""
    return _level_and_offset(*v)


def vertex_lattice_profile(v: tuple, k: int) -> Doubled:
    """Per-column doubled valuations of the canonical basis matrix dual_act(g)
    of the vertex of label v = (p, m, n, d), indexed by the dual basis position
    j = 0..k: the least in each row i of sym(g^-1), with no matrix built.  For
    g^-1 = [[a, 0], [c, d]]/N, entry (i, j), j <= i, of its lower triangular
    M is d^j C(k-j, i-j) c^(i-j) a^(k-i), and the twist has doubled valuation
    -k (v_p(a) + v_p(d)): O(k^2) steps, or O(k) when c = 0.  A factor common
    to a, c and d leaves every entry's doubled valuation unchanged."""
    p, _, _, _ = v
    a, c, d = vertex_lattice(v)
    va, vd = _vp(a, p), _vp(d, p)
    if not c:  # only the diagonal is nonzero
        return Doubled((2 * i - k) * (vd - va) for i in range(k + 1))
    vc, fact = _vp(c, p), _factorials(p, k)[0]  # v_p(n!)
    by_column = [j * (vd - vc) + fact[k - j] for j in range(k + 1)]
    least = (min(map(sub, by_column, fact[i::-1])) + i * vc + (k - i) * va - fact[k - i] for i in range(k + 1))
    return Doubled(2 * x - k * (va + vd) for x in least)


def edge_lattice_profile(p: int, k: int) -> Doubled:
    """Doubled elementary-divisor valuations of the edge lattice relative to the
    child-endpoint lattice, ascending, at every edge: those of the parent
    lattice relative to the child lattice, clamped below at 0.  The child's
    transporter moves the standard edge onto each edge, and there the
    transition is sym(g^-1) for the transporter g = [[C, 0], [0, L]]/C of the
    parent (-1, 0), diagonal: the divisors are its diagonal's valuations (see
    ``vertex_lattice_profile``).  A g with c nonzero is a broken invariant."""
    L, O, C = _level_and_offset(p, -1, 0, 1)
    if O:
        raise InternalInvariantError("the transition at the standard edge is not diagonal")
    slope = _vp(C, p) - _vp(L, p)  # v_p(d) - v_p(a) for g^-1 = [[a, 0], [0, d]]/N
    return Doubled(sorted(max(0, (2 * i - k) * slope) for i in range(k + 1)))


def _in_edge_lattice(p: int, L: int, O: int, C: int, k: int, ints: tuple) -> bool:
    """Whether coordinate j of the vector vec with ``_common_denominator``
    ints ``ints`` in the basis of the edge lattice of the edge whose child
    end has (L, O, C) from ``_level_and_offset``, sym(g)^T * vec for the
    child's transporter g, has doubled valuation at least max(0, 2j - k).
    g is [[C, 0], [-O, L]] / C, so sym(g) is the lower triangular M of the
    ints C, -O, L (applied by ``triangular_apply``) times L/C^(k+1) and
    pihat^((k+2)(v_p(C) - v_p(L))), of doubled valuation -k (v_p(L) + v_p(C))."""
    a, b, common = ints
    shift = (-k * (_vp(L, p) + _vp(C, p)) if k else 0) - 2 * _vp(common, p)
    # a zero part, such as the pihat part of most residues, has zero coordinates
    xs = triangular_apply(C, -O, L, a, transposed=True) if any(a) else a
    ys = triangular_apply(C, -O, L, b, transposed=True) if any(b) else b
    return all(_twice_valuation(x, y, p) + shift >= max(0, 2 * j - k) for j, (x, y) in enumerate(zip(xs, ys)))


# -- mod-uniformizer local spaces --------------------------------------------------


def _local_space(p: int, k: int, a: int, low: bool = False) -> list[dict]:
    """Basis of the image of an edge lattice in S/(pihat), as {column:
    nonzero residue mod p} maps against S's basis, for a diagonal
    transition.  S is the standard vertex's lattice with column j scaled by
    pihat^s_j: s_j = 0, or with ``low`` s_j = min(0, 2j - k), the sum of the
    endpoint lattices of the standard vertex's parent edge.  The edge
    lattice is its child end's with column j scaled by pihat^t_j,
    t_j = max(0, 2j - k), the child's transporter the inverse of
    [[a, 0], [0, 1]]: a = 1 at the parent edge and a = p at the edge to
    child 0.  The basis is the unit vectors e_j at which the diagonal's
    doubled valuation (2j - k) v_p(a) + t_j - s_j is 0.  Child 1's basis is
    ``_basis_rows``'s."""
    ts = [max(0, 2 * j - k) for j in range(k + 1)]
    ss = [min(0, 2 * j - k) for j in range(k + 1)] if low else [0] * (k + 1)
    slope, basis = -_vp(a, p), []
    for j, (t, s) in enumerate(zip(ts, ss)):
        twice = (2 * j - k) * slope + t - s
        if twice < 0:
            raise NegativeValuation(f"transition entry has valuation {half(twice)} < 0")
        if not twice:
            basis.append({j: 1})
    return basis


def _basis_rows(p: int, k: int, a: int, c: int, ts: list, ss: list) -> Iterator[dict]:
    """The basis of the image in S/(pihat) of the edge lattice whose child's
    transporter is the inverse of [[a, 0], [c, 1]], c != 0, with the column
    scalings ts and ss of ``_local_space``: the nonzero ``_residue_rows``,
    as they are made.  Child 1's residue rows, (a, c) = (p, 1), are 0 for
    2i < k and end at their diagonal unit for 2i >= k, at any p, so the
    nonzero ones are a basis; two that end at one column are a broken
    invariant."""
    va, ends = _vp(a, p), set()
    for row in filter(None, _residue_rows(p, k, a, c, 1, -k * va, a // p**va % p, ts, ss)):
        if (end := max(row)) in ends:
            raise InternalInvariantError("two residue rows of a local space end at one column")
        ends.add(end)
        yield row


def _residue_rows(p: int, k: int, A: int, C: int, D: int, shift: int, unit: int, ts: list, ss: list) -> Iterator[dict]:
    """The residues mod p of M[i][j] * w * pihat^(shift + t_i - s_j), a
    {column: nonzero residue} map per row i = 0..k, made one at a time, for
    the lower triangular symmetric power M of the ints [[A, 0], [C, D]], C
    nonzero, and a w of doubled valuation 0 and unit part ``unit``.  Entry (i, j), j <= i, of M
    is D^j C(k-j, i-j) C^(i-j) A^(k-i), read from ``_factorials``: a doubled
    valuation 0 gives its unit part, a positive one 0, a negative one raises."""
    vals, units, inverses = _factorials(p, k)
    va, vc, vd = _vp(A, p), _vp(C, p), _vp(D, p)
    ua, uc, ud = A // p**va % p, C // p**vc % p, D // p**vd % p
    col_v = [2 * (j * (vd - vc) + vals[k - j]) - s for j, s in enumerate(ss)]
    col_u = [pow(ud, j, p) * pow(uc, -j, p) * units[k - j] % p for j in range(k + 1)]
    for i, t in enumerate(ts):
        row_v = 2 * (i * vc + (k - i) * va - vals[k - i]) + shift + t
        row_u = unit * pow(uc, i, p) * pow(ua, k - i, p) * inverses[k - i] % p
        twice = [row_v + col_v[j] - 2 * vals[i - j] for j in range(i + 1)]
        if min(twice) < 0:
            raise NegativeValuation(f"transition entry has valuation {half(min(twice))} < 0")
        yield {j: row_u * col_u[j] * inverses[i - j] % p for j, x in enumerate(twice) if not x}


def star_local_kernel(p: int, k: int) -> int:
    """Dimension of the kernel of the local sum map at any vertex: tuples of
    edge values, one from each D-space around it, summing to zero in
    (vertex lattice)/(pihat).  Every star has the standard star's
    transitions (see the module docstring), so this is the standard star's."""
    return _star_kernel(p, k, _local_space(p, k, 1))


def _star_kernel(p: int, k: int, parent: list) -> int:
    """``star_local_kernel`` at the standard vertex, given the D-space of its
    parent edge.  Child c = 2..p-1 is child 1 conjugated by diag(c, 1), so
    its D-space is child 1's with column j times c^-j mod p: the rows number
    len(parent) + len(first) + (p - 1) len(second), child 1's counted as
    they are made and none kept, and the rank stops at k + 1, the most it
    can be.  The parent's and child 0's D-spaces, the low and high halves of
    the basis, reach it by themselves, so child 1's rows are made again only
    if the rank reads them, and no copy is built."""
    first, ts, ss = _local_space(p, k, p), [max(0, 2 * j - k) for j in range(k + 1)], [0] * (k + 1)
    second = (p, k, p, 1, ts, ss)  # child 1's (a, c) = (p, 1), made anew at each read
    copies = ({j: x * pow(c, -j, p) % p for j, x in row.items()} for c in range(2, p) for row in _basis_rows(*second))
    count = len(parent) + len(first) + (p - 1) * sum(map(bool, _basis_rows(*second)))
    return count - rank_up_to(chain(parent, first, _basis_rows(*second), copies), p, k + 1)


def local_dimension_formulas(q: int, k: int) -> dict:
    """Closed forms for the local space dimensions: dim D = floor(k/2) + 1,
    dim E = 1 for even k and 0 for odd k, dim Z_har = (q - 1) dim D + dim E."""
    dim_d, dim_e = k // 2 + 1, 1 - k % 2
    return {"dimD": dim_d, "dimE": dim_e, "dimZhar": (q - 1) * dim_d + dim_e}


def local_space_report(p: int, k: int) -> dict:
    """Brute-force local dimensions at the standard edge and vertex, paired
    with the closed forms.  The standard edge is the standard vertex's
    parent edge, so its D-space enters the star kernel too."""
    d_space = _local_space(p, k, 1)
    computed = {
        "dimD": len(d_space),
        "dimE": len(_local_space(p, k, 1, low=True)),
        "dimZhar": _star_kernel(p, k, d_space),
    }
    predicted = local_dimension_formulas(p, k)
    return {
        "computed": computed,
        "predicted": predicted,
        "pass": computed == predicted,
    }
