"""Integral lattices attached to tree vertices and edges inside the
(k+1)-dimensional dual coefficient module: elementary-divisor profiles,
mod-uniformizer local spaces with their dimensions, and the membership test
for rational sections at vertex level.

Conventions: a lattice is stored as a square basis matrix whose columns
generate it over the valuation ring; edge profiles are reported relative to
the lattice at the child (deeper) endpoint.

The lattices are GL2-equivariant, and the child's vertex transporter carries
the standard edge onto every edge.  At the standard edge the child lattice
has the identity basis and the parent lattice the basis diag(pihat^(2j-k)),
j = 0..k.  So the intersection of the two endpoint lattices of any edge is
the child's basis with column j scaled by pihat^max(0, 2j-k), and their sum
is the same basis scaled by pihat^min(0, 2j-k).  The transitions from the
child's basis and from the sum to the edge lattice are therefore diagonal.
Profiles are printed, so they are ``Fraction`` valuations; everything else
compares the doubled int valuations of ``scalars``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ZeroFunction
from .linalg import (
    inverse,
    mat_mul,
    rank,
    rref,
    smith_over_dvr,
    solve,
    transpose,
)
from .rational import FactoredRational, transported_gauss_valuation
from .scalars import FiniteField, Fq, ScalarKHat, half
from .symrep import dual_act_matrix
from .tree import (
    Edge,
    Vertex,
    child_endpoint,
    edges_at,
    parent_endpoint,
    vertex_transporter,
)

Matrix = list  # list[list[ScalarKHat]]


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice in the dual module, generated by the matrix columns."""

    p: int
    k: int
    matrix: tuple

    def columns(self) -> list:
        return [list(col) for col in zip(*self.matrix)]


def _freeze(m: Matrix) -> tuple:
    return tuple(tuple(row) for row in m)


def _rows(l: Lattice) -> Matrix:
    return [list(row) for row in l.matrix]


def vertex_lattice(v: Vertex, k: int) -> Lattice:
    """Transport of the standard dual lattice to the vertex v; any transporter
    carrying the base vertex to v yields the same lattice."""
    return Lattice(v.p, k, _freeze(dual_act_matrix(vertex_transporter(v), k, v.p)))


def vertex_lattice_profile(v: Vertex, k: int) -> tuple:
    """Per-column valuations of the canonical basis matrix, indexed by the dual
    basis position j = 0..k (diagonal valuations for the level vertices)."""
    cols = vertex_lattice(v, k).columns()
    return tuple(half(min(x.valuation() for x in col)) for col in cols)


def transition_matrix(src: Lattice, dst: Lattice) -> Matrix:
    """Coordinates of dst's generators in src's basis."""
    zero, one = ScalarKHat.zero(src.p), ScalarKHat.one(src.p)
    return mat_mul(inverse(_rows(src), zero, one), _rows(dst))


def _scaled_columns(child: Lattice) -> Lattice:
    """The child's basis with column j scaled by pihat^max(0, 2j - k): the
    lattice of the edge to the child's parent."""
    k = child.k
    scale = [ScalarKHat.pihat(child.p, max(0, 2 * j - k)) for j in range(k + 1)]
    return Lattice(
        child.p, k, _freeze([[x * s for x, s in zip(row, scale)] for row in child.matrix])
    )


def lattice_contains_vector(l: Lattice, vec: list) -> bool:
    coords = solve(_rows(l), vec, ScalarKHat.zero(l.p))
    if coords is None:
        return False
    return all(x.is_integral() for x in coords)


def relative_profile(sup: Lattice, sub: Lattice) -> tuple:
    """Ascending elementary-divisor valuations of sub relative to sup."""
    return tuple(half(e) for e in smith_over_dvr(transition_matrix(sup, sub))[1])


class Lattices:
    """The weight-k vertex and edge lattices of one computation, each built on
    first use and kept only as long as the computation keeps this table."""

    def __init__(self, k: int) -> None:
        self.k = k
        self._vertex: dict = {}
        self._edge: dict = {}

    def vertex(self, v: Vertex) -> Lattice:
        if v not in self._vertex:
            self._vertex[v] = vertex_lattice(v, self.k)
        return self._vertex[v]

    def edge(self, e: Edge) -> Lattice:
        """Intersection of the two endpoint lattices: the child endpoint's
        basis with column j scaled by pihat^max(0, 2j - k)."""
        if e not in self._edge:
            self._edge[e] = _scaled_columns(self.vertex(child_endpoint(e)))
        return self._edge[e]


def edge_lattice_profile(e: Edge, k: int) -> tuple:
    """Elementary-divisor valuations of the edge lattice relative to the
    child-endpoint lattice, ascending: those of the parent lattice relative
    to the child lattice, clamped below at 0."""
    lattices = Lattices(k)
    child, parent = lattices.vertex(child_endpoint(e)), lattices.vertex(parent_endpoint(e))
    return tuple(sorted(max(Fraction(0), x) for x in relative_profile(child, parent)))


# -- mod-uniformizer local spaces --------------------------------------------------


def _column_space_basis(mat_modp: list, field: FiniteField) -> list:
    """Basis of the column space of a matrix over the residue field."""
    reduced, pivots = rref(transpose(mat_modp), field.zero())
    return [row for row in reduced[: len(pivots)]]


def _reduced_transition(src: Lattice, dst: Lattice, field: FiniteField) -> list:
    t = transition_matrix(src, dst)
    return [[field.elem(x.reduce_mod_pihat()) for x in row] for row in t]


def _reduced_scaling(k: int, exponent, field: FiniteField) -> list:
    """diag(pihat^exponent(2j - k)), j = 0..k, mod pihat: 1 where the
    exponent is 0, else 0."""
    zero, one = field.zero(), field.one()
    return [
        [one if i == j and not exponent(2 * j - k) else zero for j in range(k + 1)]
        for i in range(k + 1)
    ]


def d_space_basis(e: Edge, side: Vertex, lattices: Lattices) -> list:
    """Basis of the image of the edge lattice in (side lattice)/(pihat), as
    coordinate vectors against the side's basis.  The edge lattice is the
    child's basis scaled by pihat^max(0, 2j - k), so on the child side the
    transition is that diagonal."""
    field = Fq(e.u.p)
    if side == child_endpoint(e):
        t = _reduced_scaling(lattices.k, lambda x: max(0, x), field)
    else:
        t = _reduced_transition(lattices.vertex(side), lattices.edge(e), field)
    return _column_space_basis(t, field)


def e_space_basis(e: Edge, lattices: Lattices) -> list:
    """Basis of the image of the edge lattice in (sum of the two endpoint
    lattices)/(pihat).  Both are the child's basis, scaled by
    pihat^max(0, 2j - k) and pihat^min(0, 2j - k): the transition is
    diag(pihat^|2j - k|)."""
    field = Fq(e.u.p)
    return _column_space_basis(_reduced_scaling(lattices.k, abs, field), field)


def star_local_kernel(v: Vertex, lattices: Lattices) -> int:
    """Dimension of the kernel of the local sum map at v: tuples of edge
    values, one from each D-space around v, summing to zero in
    (vertex lattice)/(pihat)."""
    vectors = [x for e in edges_at(v) for x in d_space_basis(e, v, lattices)]
    return len(vectors) - rank(vectors, Fq(v.p).zero())


def local_dimension_formulas(q: int, k: int) -> dict:
    """Closed forms for the local space dimensions."""
    if k % 2 == 0:
        return {
            "dimD": (k + 2) // 2,
            "dimE": 1,
            "dimZhar": (q - 1) * (k + 2) // 2 + 1,
        }
    return {
        "dimD": (k + 1) // 2,
        "dimE": 0,
        "dimZhar": (q - 1) * (k + 1) // 2,
    }


def local_space_report(p: int, k: int) -> dict:
    """Brute-force local dimensions at the standard edge and vertex, paired
    with the closed forms."""
    from .tree import standard_edge, standard_vertex

    e = standard_edge(p)
    v = standard_vertex(p)
    lattices = Lattices(k)
    computed = {
        "dimD": len(d_space_basis(e, v, lattices)),
        "dimE": len(e_space_basis(e, lattices)),
        "dimZhar": star_local_kernel(v, lattices),
    }
    predicted = local_dimension_formulas(p, k)
    return {
        "computed": computed,
        "predicted": predicted,
        "pass": computed == predicted,
    }


# -- membership of rational sections ----------------------------------------------


def section_lattice_membership(f: FactoredRational, k: int, v: Vertex) -> tuple[bool, int]:
    """Whether f lies in the weight-k integral module over the vertex open:
    the transported section must be bounded by 1 on the vertex tube. The
    certificate is the doubled transported Gauss valuation."""
    if f.is_zero():
        raise ZeroFunction("membership is only defined for nonzero sections")
    val = transported_gauss_valuation(f, vertex_transporter(v).inv(), k)
    return val >= 0, val
