"""Integral lattices attached to tree vertices and edges inside the
(k+1)-dimensional dual coefficient module: elementary-divisor profiles,
mod-uniformizer local spaces with their dimensions, and membership tests for
rational sections at vertex and edge level.

Conventions: a lattice is stored as a square basis matrix whose columns
generate it over the valuation ring; edge profiles are reported relative to
the lattice at the child (deeper) endpoint; edge membership normalizes every
edge to the standard annulus, whose section module is generated by z^(-k/2)
for even k and by the pair z^(-(k-1)/2), pihat*z^(-(k+1)/2) for odd k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameters, UnresolvedTailBound, ZeroFunction
from .linalg import (
    identity,
    inverse,
    mat_mul,
    rank,
    rref,
    smith_over_dvr,
    smith_valuations,
    solve,
    transpose,
)
from .rational import (
    FactoredRational,
    automorphic_act,
    laurent_standard,
    raw_gauss_valuation,
)
from .scalars import FiniteField, ScalarKHat
from .symrep import dual_act_matrix
from .tree import (
    Edge,
    Mat2,
    Vertex,
    child_endpoint,
    edge_transporter,
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


def standard_lattice(p: int, k: int) -> Lattice:
    return Lattice(p, k, _freeze(identity(k + 1, ScalarKHat.zero(p), ScalarKHat.one(p))))


def vertex_lattice(v: Vertex, k: int, transporter: Mat2 | None = None) -> Lattice:
    """Transport of the standard dual lattice to the vertex v; any transporter
    carrying the base vertex to v yields the same lattice."""
    g = transporter if transporter is not None else vertex_transporter(v)
    return Lattice(v.p, k, _freeze(dual_act_matrix(g, k, v.p)))


def vertex_lattice_profile(v: Vertex, k: int) -> tuple:
    """Per-column valuations of the canonical basis matrix, indexed by the dual
    basis position j = 0..k (diagonal valuations for the level vertices)."""
    cols = vertex_lattice(v, k).columns()
    return tuple(min(x.valuation() for x in col) for col in cols)


def transition_matrix(src: Lattice, dst: Lattice) -> Matrix:
    """Coordinates of dst's generators in src's basis."""
    zero, one = ScalarKHat.zero(src.p), ScalarKHat.one(src.p)
    return mat_mul(inverse(_rows(src), zero, one), _rows(dst))


def _adapted(l1: Lattice, l2: Lattice, clamp) -> Lattice:
    u, evals, _ = smith_over_dvr(transition_matrix(l1, l2))
    adapted = mat_mul(_rows(l1), u)
    n = len(evals)
    scaled = [
        [adapted[i][j] * ScalarKHat.pihat(l1.p, clamp(int(2 * evals[j]))) for j in range(n)]
        for i in range(n)
    ]
    return Lattice(l1.p, l1.k, _freeze(scaled))


def lattice_intersection(l1: Lattice, l2: Lattice) -> Lattice:
    return _adapted(l1, l2, lambda e: max(e, 0))


def lattice_sum(l1: Lattice, l2: Lattice) -> Lattice:
    return _adapted(l1, l2, lambda e: min(e, 0))


def lattice_contains_vector(l: Lattice, vec: list) -> bool:
    coords = solve(_rows(l), vec, ScalarKHat.zero(l.p))
    if coords is None:
        return False
    return all(x.is_integral() for x in coords)


def lattice_contains(outer: Lattice, inner: Lattice) -> bool:
    return all(lattice_contains_vector(outer, col) for col in inner.columns())


def lattice_equal(l1: Lattice, l2: Lattice) -> bool:
    return lattice_contains(l1, l2) and lattice_contains(l2, l1)


def relative_profile(sup: Lattice, sub: Lattice) -> tuple:
    """Ascending elementary-divisor valuations of sub relative to sup."""
    return tuple(smith_valuations(transition_matrix(sup, sub)))


def relative_fdim(sup: Lattice, sub: Lattice) -> int:
    """Residue-field dimension of sup/sub (sum of uniformizer exponents)."""
    vals = relative_profile(sup, sub)
    if any(v < 0 for v in vals):
        raise InvalidParameters("not a sublattice")
    total = sum(2 * v for v in vals)
    return int(total)


def edge_lattice(e: Edge, k: int) -> Lattice:
    """Intersection of the two endpoint lattices, in a basis adapted to the
    child endpoint."""
    child = vertex_lattice(child_endpoint(e), k)
    parent = vertex_lattice(parent_endpoint(e), k)
    return lattice_intersection(child, parent)


def edge_lattice_profile(e: Edge, k: int) -> tuple:
    """Elementary-divisor valuations of the edge lattice relative to the
    child-endpoint lattice, ascending."""
    child = vertex_lattice(child_endpoint(e), k)
    return relative_profile(child, edge_lattice(e, k))


# -- mod-uniformizer local spaces --------------------------------------------------


def _column_space_basis(mat_modp: list, field: FiniteField) -> list:
    """Basis of the column space of a matrix over the residue field."""
    reduced, pivots = rref(transpose(mat_modp), field.zero())
    return [row for row in reduced[: len(pivots)]]


def _reduced_transition(src: Lattice, dst: Lattice, field: FiniteField) -> list:
    t = transition_matrix(src, dst)
    return [[field.elem(x.reduce_mod_pihat()) for x in row] for row in t]


def d_space_basis(e: Edge, k: int, side: Vertex) -> list:
    """Basis of the image of the edge lattice in (side lattice)/(pihat), as
    coordinate vectors against the side's basis."""
    field = FiniteField(e.u.p, 1)
    t = _reduced_transition(vertex_lattice(side, k), edge_lattice(e, k), field)
    return _column_space_basis(t, field)


def e_space_basis(e: Edge, k: int) -> list:
    """Basis of the image of the edge lattice in (sum of the two endpoint
    lattices)/(pihat)."""
    field = FiniteField(e.u.p, 1)
    total = lattice_sum(
        vertex_lattice(child_endpoint(e), k), vertex_lattice(parent_endpoint(e), k)
    )
    t = _reduced_transition(total, edge_lattice(e, k), field)
    return _column_space_basis(t, field)


def star_local_kernel(v: Vertex, k: int) -> dict:
    """Kernel of the local sum map at v: tuples of edge values, one from each
    D-space around v, summing to zero in (vertex lattice)/(pihat)."""
    field = FiniteField(v.p, 1)
    blocks = [d_space_basis(e, k, v) for e in edges_at(v)]
    columns: list = []
    for basis in blocks:
        columns.extend(basis)
    if not columns:
        return {"d_dims": [len(b) for b in blocks], "kernel_dim": 0}
    m = transpose(columns)  # (k+1) x (total D dims)
    r = rank(m, field.zero())
    return {
        "d_dims": [len(b) for b in blocks],
        "kernel_dim": len(columns) - r,
    }


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


def local_spaces(e_or_v, k: int, q: int) -> dict:
    """Dimensions of the reduced local spaces: at an edge, the image of the
    edge lattice in each endpoint reduction and in the reduction of the sum;
    at a vertex, the star-local harmonic kernel."""
    prime = e_or_v.p if isinstance(e_or_v, Vertex) else e_or_v.u.p
    if q != prime:
        raise InvalidParameters("the residue size must match the tree prime")
    if isinstance(e_or_v, Edge):
        e = e_or_v
        return {
            "dimD": len(d_space_basis(e, k, child_endpoint(e))),
            "dimD_parent": len(d_space_basis(e, k, parent_endpoint(e))),
            "dimE": len(e_space_basis(e, k)),
        }
    if isinstance(e_or_v, Vertex):
        return {"dimZhar": star_local_kernel(e_or_v, k)["kernel_dim"]}
    raise InvalidParameters("expected a tree vertex or edge")


def local_space_report(p: int, k: int) -> dict:
    """Brute-force local dimensions at the standard edge and vertex, paired
    with the closed forms."""
    from .tree import standard_edge, standard_vertex

    e = standard_edge(p)
    v = standard_vertex(p)
    computed = {
        "dimD": len(d_space_basis(e, k, v)),
        "dimE": len(e_space_basis(e, k)),
        "dimZhar": star_local_kernel(v, k)["kernel_dim"],
    }
    predicted = local_dimension_formulas(p, k)
    return {
        "computed": computed,
        "predicted": predicted,
        "pass": computed == predicted,
    }


# -- membership of rational sections ----------------------------------------------


def section_lattice_membership(
    f: FactoredRational, k: int, v: Vertex
) -> tuple[bool, Fraction]:
    """Whether f lies in the weight-k integral module over the vertex open:
    the transported section must be bounded by 1 on the vertex tube. The
    certificate is the transported Gauss valuation."""
    if f.is_zero():
        raise ZeroFunction("membership is only defined for nonzero sections")
    moved = automorphic_act(vertex_transporter(v).inv(), f, k)
    val = raw_gauss_valuation(moved)
    return val >= 0, val


def edge_coefficient_requirement(j: int, k: int) -> Fraction:
    """Minimal valuation a Laurent coefficient at exponent j may have for a
    weight-k section integral on the standard edge annulus."""
    if k % 2 == 0:
        return Fraction(max(0, -j - k // 2))
    inner = Fraction(max(0, -j - (k - 1) // 2))
    outer = Fraction(1, 2) + Fraction(max(0, -j - (k + 1) // 2))
    return min(inner, outer)


def edge_membership(
    f: FactoredRational, k: int, e: Edge, max_widenings: int = 6
) -> tuple[bool, dict]:
    """Coefficient-wise membership test on the edge annulus: transport to the
    standard edge, expand, and compare every coefficient (exact in a window,
    affine certificates outside) against the generator requirement."""
    if f.is_zero():
        return True, {"window": None, "note": "zero section"}
    moved = automorphic_act(edge_transporter(e).inv(), f, k)
    margin = 2
    for _ in range(max_widenings):
        lo = -(k + 3) - margin
        hi = max(4, k + 3) + margin
        win = laurent_standard(moved, lo, hi)
        violations = []
        for j in range(win.lo, win.hi + 1):
            val = win.coefficient(j).valuation()
            req = edge_coefficient_requirement(j, k)
            if val < req:
                violations.append({"j": j, "valuation": val, "required": req})
        if violations:
            return False, {"window": (win.lo, win.hi), "violations": violations}
        rays_ok = True
        j_below = win.lo - 1
        for alpha, beta in win.below:
            if alpha + beta * j_below < edge_coefficient_requirement(j_below, k):
                rays_ok = False
        j_above = win.hi + 1
        for alpha, beta in win.above:
            if alpha + beta * j_above < edge_coefficient_requirement(j_above, k):
                rays_ok = False
        if rays_ok:
            return True, {"window": (win.lo, win.hi), "violations": []}
        margin *= 2
    raise UnresolvedTailBound(
        "tail certificates stayed below the requirement after widening"
    )


# -- the multiplication comparison -------------------------------------------------


def edge_monomial_generators(k: int) -> list[tuple[Fraction, int]]:
    """(valuation shift, z-exponent) pairs generating the weight-k module on
    the standard edge annulus."""
    if k % 2 == 0:
        return [(Fraction(0), -(k // 2))]
    return [
        (Fraction(0), -((k - 1) // 2)),
        (Fraction(1, 2), -((k + 1) // 2)),
    ]


def product_module_comparison(k1: int, k2: int) -> dict:
    """Compare the image of multiplication weight-k1 x weight-k2 -> weight-
    (k1+k2) against the target module, at vertex level and at edge level.

    At a vertex both sides are free of rank one with matching generator
    valuations at every level. At an edge the image of the monomial generator
    products can miss the target generator; the defect is the smallest extra
    valuation needed (0 means the modules agree)."""
    if k1 < 0 or k2 < 0:
        raise InvalidParameters("weights must be nonnegative")
    vertex_ok = all(
        Fraction(k1 * n, 2) + Fraction(k2 * n, 2) == Fraction((k1 + k2) * n, 2)
        for n in range(-3, 4)
    )
    products = [
        (w1 + w2, b1 + b2)
        for w1, b1 in edge_monomial_generators(k1)
        for w2, b2 in edge_monomial_generators(k2)
    ]

    def attainable(target_exp: int) -> Fraction:
        best = None
        for w, b in products:
            # multiply by an integral annulus function with a z^(target-b) term
            cost = w + Fraction(max(0, b - target_exp))
            best = cost if best is None else min(best, cost)
        return best

    defects = [
        attainable(b_t) - w_t for w_t, b_t in edge_monomial_generators(k1 + k2)
    ]
    max_defect = max(defects)
    return {
        "vertex_surjective": vertex_ok,
        "edge_equal": max_defect == 0,
        "edge_defect": max_defect,
    }
