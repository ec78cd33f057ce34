"""Integral lattices attached to tree vertices and edges inside the
(k+1)-dimensional dual coefficient module: elementary-divisor profiles,
mod-uniformizer local spaces with their dimensions, and the membership test
of edge values.

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
The transporters are lower triangular, so each entry of that matrix is the
closed form of ``symrep.sym_ints`` times num/den times pihat^n: profiles read
the least valuation of each row from it with no matrix, local spaces read
residues from the matrix built by Pascal's rule, and membership applies it
to a vector, unbuilt.  No scalar is built.  For even k every n is even: the
lattices are defined over Q_p.  Every valuation is a doubled int: profiles
are ``Doubled`` tuples, which the CLI prints halved.

Equivariance also fixes the local spaces: the transporter of v's c-th child
is v's transporter times that of the standard vertex's c-th child, so every
star has the standard star's transitions, and one star's kernel is every
star's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from operator import sub

from .errors import InternalInvariantError, NegativeValuation
from .linalg import rank_up_to, rref
from .scalars import INF, _twice_valuation, _vp, half
from .symrep import sym_ints, triangular_apply
from .tree import (
    Edge,
    Mat2,
    Vertex,
    child_endpoint,
    make_vertex,
    standard_edge,
    standard_vertex,
    vertex_transporter,
)


class Doubled(tuple):
    """Valuations held doubled, as ints: entry x stands for x/2."""

    __slots__ = ()


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice in the dual module, generated by the columns of
    dual_act(g) * diag(pihat^scale[j])."""

    p: int
    k: int
    g: Mat2
    scale: tuple


def vertex_lattice(v: Vertex, k: int) -> Lattice:
    """Transport of the standard dual lattice to the vertex v; any transporter
    carrying the base vertex to v yields the same lattice."""
    return Lattice(v.p, k, vertex_transporter(v), (0,) * (k + 1))


def edge_lattice(e: Edge, k: int) -> Lattice:
    """Intersection of the two endpoint lattices: the child endpoint's
    lattice with column j scaled by pihat^max(0, 2j - k)."""
    child = child_endpoint(e)
    return Lattice(
        child.p, k, vertex_transporter(child), tuple(max(0, 2 * j - k) for j in range(k + 1))
    )


def vertex_lattice_profile(v: Vertex, k: int) -> Doubled:
    """Per-column doubled valuations of the canonical basis matrix dual_act(g),
    indexed by the dual basis position j = 0..k: the least in each row i of
    sym(g^-1), with no matrix built.  For g^-1 = [[a, 0], [c, d]]/N, entry (i, j), j <= i,
    of ``sym_ints``'s M is d^j C(k-j, i-j) c^(i-j) a^(k-i), and the twist has
    doubled valuation -k (v_p(a) + v_p(d)): O(k^2) steps, or O(k) when c = 0."""
    p, g = v.p, vertex_lattice(v, k).g.inv()
    va, vd = _vp(g.A, p), _vp(g.D, p)
    if not g.C:  # only the diagonal is nonzero
        return Doubled((2 * i - k) * (vd - va) for i in range(k + 1))
    vc, fact = _vp(g.C, p), list(accumulate((_vp(n, p) for n in range(1, k + 1)), initial=0))  # v_p(n!)
    by_column = [j * (vd - vc) + fact[k - j] for j in range(k + 1)]
    least = (min(map(sub, by_column, fact[i::-1])) + i * vc + (k - i) * va - fact[k - i] for i in range(k + 1))
    return Doubled(2 * x - k * (va + vd) for x in least)


def edge_lattice_profile(e: Edge, k: int) -> Doubled:
    """Doubled elementary-divisor valuations of the edge lattice relative to the
    child-endpoint lattice, ascending: those of the parent lattice relative
    to the child lattice, clamped below at 0.  The child's transporter moves
    the standard edge onto e, and there the transition is sym(g^-1) for the
    parent's transporter g, diagonal: the divisors are its diagonal's valuations
    (see ``vertex_lattice_profile``).  A g with b or c nonzero is a broken invariant."""
    p = e.u.p
    g = vertex_transporter(make_vertex(p, -1, 0))
    if g.B or g.C:
        raise InternalInvariantError("the transition at the standard edge is not diagonal")
    slope = _vp(g.A, p) - _vp(g.D, p)  # v_p(d) - v_p(a) for g^-1 = [[a, 0], [0, d]]/N
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
    shift = -k * (_vp(L, p) + _vp(C, p)) - 2 * _vp(common, p)
    # a zero part, such as the pihat part of most residues, has zero coordinates
    xs = triangular_apply(C, -O, L, a, transposed=True) if any(a) else a
    ys = triangular_apply(C, -O, L, b, transposed=True) if any(b) else b
    return all(_twice_valuation(x, y, p) + shift >= max(0, 2 * j - k) for j, (x, y) in enumerate(zip(xs, ys)))


# -- mod-uniformizer local spaces --------------------------------------------------


def _local_space(src: Lattice, dst: Lattice) -> list:
    """Basis of the image of dst in src/(pihat), as coordinate vectors of
    residues mod p against src's basis: the column space mod pihat of the
    transition M[j][i] * (num/den) * pihat^(e + t_j - s_i), for
    sym(dst.g^-1 src.g) = M * (num/den) * pihat^e.  An entry of doubled valuation 0 reduces to the
    unit part of M[j][i] * num/den mod p, a positive one to 0; a negative one raises.
    A diagonal g = diag(A, D)/N needs neither M nor an elimination: entry j of
    its diagonal has doubled valuation (2j - k)(v_p(D) - v_p(A)) + t_j - s_j,
    and the basis is the unit vectors e_j at which that is 0."""
    p, k = src.p, src.k
    g = dst.g.inv() @ src.g
    if not (g.B or g.C):
        slope, basis = _vp(g.D, p) - _vp(g.A, p), []
        for j, (t, s) in enumerate(zip(dst.scale, src.scale)):
            twice = (2 * j - k) * slope + t - s
            if twice < 0:
                raise NegativeValuation(f"transition entry has valuation {half(twice)} < 0")
            if not twice:
                basis.append([0] * j + [1] + [0] * (k - j))
        return basis
    m, num, den, e = sym_ints(g, k, p)
    vn, vd = _vp(num, p), _vp(den, p)
    unit = num // p**vn * pow(den // p**vd, -1, p)

    def residue(x: int, twice: int) -> int:
        v = _vp(x, p) if x else INF
        if 2 * v + twice < 0:
            raise NegativeValuation(f"transition entry has valuation {half(2 * v + twice)} < 0")
        return x // p**v * unit if 2 * v + twice == 0 else 0

    rows = [
        [residue(x, 2 * (vn - vd) + e + t - s) for x, s in zip(row, src.scale)]
        for row, t in zip(m, dst.scale)
    ]
    basis, pivots = rref(rows, p)
    return basis[: len(pivots)]


def d_space_basis(e: Edge, side: Vertex, k: int) -> list:
    """Basis of the image of the edge lattice in (side lattice)/(pihat), as
    rows of residues mod p against the side lattice's basis.  On the child
    side the two lattices share a transporter, so the transition is the
    diagonal diag(pihat^max(0, 2j - k))."""
    return _local_space(vertex_lattice(side, k), edge_lattice(e, k))


def e_space_basis(e: Edge, k: int) -> list:
    """Basis of the image of the edge lattice in (sum of the two endpoint
    lattices)/(pihat), as rows of residues mod p against the sum's basis.
    The sum is the child's lattice scaled by pihat^min(0, 2j - k), so the
    transition is diag(pihat^|2j - k|)."""
    edge = edge_lattice(e, k)
    total = Lattice(edge.p, k, edge.g, tuple(min(0, 2 * j - k) for j in range(k + 1)))
    return _local_space(total, edge)


def star_local_kernel(p: int, k: int) -> int:
    """Dimension of the kernel of the local sum map at any vertex: tuples of
    edge values, one from each D-space around it, summing to zero in
    (vertex lattice)/(pihat).  Every star has the standard star's
    transitions (see the module docstring), so this is the standard star's."""
    v = standard_vertex(p)
    return _star_kernel(v, k, d_space_basis(standard_edge(p), v, k))


def _star_kernel(v: Vertex, k: int, parent: list) -> int:
    """``star_local_kernel`` at the standard vertex v, given the D-space of
    its parent edge, the standard edge.  Child c = 2..p-1 is child 1
    conjugated by diag(c, 1), so its D-space is child 1's with column j
    times c^-j mod p: the rows number len(parent) + len(first) + (p - 1)
    len(second) unbuilt, and the rank stops at k + 1, the most it can be.
    The parent's and child 0's D-spaces, the low and high halves of the
    basis, reach it by themselves, so no copy is built."""
    p = v.p
    first, second = (d_space_basis(Edge(v, make_vertex(p, 1, c)), v, k) for c in (0, 1))
    copies = ([x * pow(c, -j, p) % p for j, x in enumerate(row)] for c in range(2, p) for row in second)
    count = len(parent) + len(first) + (p - 1) * len(second)
    return count - rank_up_to(chain(parent, first, second, copies), p, k + 1)


def local_dimension_formulas(q: int, k: int) -> dict:
    """Closed forms for the local space dimensions: dim D = floor(k/2) + 1,
    dim E = 1 for even k and 0 for odd k, dim Z_har = (q - 1) dim D + dim E."""
    dim_d, dim_e = k // 2 + 1, 1 - k % 2
    return {"dimD": dim_d, "dimE": dim_e, "dimZhar": (q - 1) * dim_d + dim_e}


def local_space_report(p: int, k: int) -> dict:
    """Brute-force local dimensions at the standard edge and vertex, paired
    with the closed forms.  The standard edge is the standard vertex's
    parent edge, so its D-space enters the star kernel too."""
    e = standard_edge(p)
    v = standard_vertex(p)
    d_space = d_space_basis(e, v, k)
    computed = {
        "dimD": len(d_space),
        "dimE": len(e_space_basis(e, k)),
        "dimZhar": _star_kernel(v, k, d_space),
    }
    predicted = local_dimension_formulas(p, k)
    return {
        "computed": computed,
        "predicted": predicted,
        "pass": computed == predicted,
    }
