"""Edge cochains with dual-module values on truncated trees: the signed
vertex-sum operator, harmonic kernels over the field and modulo the
uniformizer, the residue map from weight-(k+2) rational sections, and the
integrality of its image.

Sign conventions: the vertex sum carries the parity sign of the vertex; the
residue values carry the parity sign of the transporter determinant, which is
what makes the residue construction equivariant and its image harmonic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError
from .lattices import edge_lattice, lattice_contains_vector, section_lattice_membership
from .linalg import kernel_basis, smith_over_dvr
from .rational import FactoredRational, automorphic_act, laurent_standard
from .scalars import ScalarKHat
from .symrep import dual_act, sym_matrix
from .tree import (
    Edge,
    Mat2,
    TruncatedTree,
    Vertex,
    act_on_edge,
    edge_transporter,
    unipotent_lower,
    vertex_parity,
)


@dataclass
class Cochain:
    """Sparse edge-indexed family of dual coordinate vectors (length k+1)."""

    p: int
    k: int
    values: dict

    def value(self, e: Edge) -> list:
        got = self.values.get(e)
        if got is not None:
            return list(got)
        return [ScalarKHat.zero(self.p)] * (self.k + 1)

    def is_zero(self) -> bool:
        return all(all(x.is_zero() for x in vec) for vec in self.values.values())

    def support(self) -> list:
        return sorted(
            e for e, vec in self.values.items() if any(not x.is_zero() for x in vec)
        )


def sigma(g: Mat2, p: int) -> int:
    """Parity sign of the determinant valuation: +1 on even levels, -1 on odd."""
    return -1 if int(g.omega_det(p)) % 2 else 1


def delta(c: Cochain, tree: TruncatedTree) -> dict:
    """Signed star sums at the interior vertices."""
    out = {}
    for v in tree.interior_vertices():
        total = [ScalarKHat.zero(c.p)] * (c.k + 1)
        for e in tree.edges_at(v):
            val = c.value(e)
            total = [t + x for t, x in zip(total, val)]
        sign = ScalarKHat.from_rational(vertex_parity(v), c.p)
        out[v] = [sign * t for t in total]
    return out


def _negative_coefficients(g: FactoredRational, k: int) -> list:
    """Laurent coefficients a_{-1}..a_{-k-1} on the standard annulus."""
    win = laurent_standard(g, -(k + 1), -1)
    return [win.coefficient(-s - 1) for s in range(k + 1)]


def _edge_residue(g: FactoredRational, k: int, gamma: Mat2, p: int) -> list:
    moved = automorphic_act(gamma, g, k + 2)
    coeffs = _negative_coefficients(moved, k)
    if all(a.is_zero() for a in coeffs):
        return [ScalarKHat.zero(p)] * (k + 1)
    c = sym_matrix(gamma, k, p)
    sign = ScalarKHat.from_rational(sigma(gamma, p), p)
    return [
        sign * sum((coeffs[s] * c[s][i] for s in range(k + 1)), ScalarKHat.zero(p))
        for i in range(k + 1)
    ]


def res0(
    g: FactoredRational, k: int, tree: TruncatedTree, audit: bool = False, rng=None
) -> Cochain:
    """Residue cochain of a weight-(k+2) rational section: on each edge,
    transport to the standard annulus, read the negative Laurent coefficients,
    and pair them through the transporter's module action."""
    values = {}
    for e in tree.edges:
        gamma = edge_transporter(e).inv()
        vec = _edge_residue(g, k, gamma, tree.p)
        if audit:
            jitter = unipotent_lower(
                (rng.randrange(1, 5 * tree.p)) if rng is not None else 1
            )
            # a second transporter for the same edge: standard-edge stabilizer
            alt = (edge_transporter(e) @ jitter).inv()
            other = _edge_residue(g, k, alt, tree.p)
            if any(not (a - b).is_zero() for a, b in zip(vec, other)):
                raise InternalInvariantError(
                    f"residue value at {e} depends on the transporter choice"
                )
        if any(not x.is_zero() for x in vec):
            values[e] = vec
    return Cochain(tree.p, k, values)


def res0_integrality(g: FactoredRational, k: int, tree: TruncatedTree) -> dict:
    """Whether the residue cochain lands in every edge lattice; certificates
    list the per-edge outcome alongside the vertex membership precondition."""
    c = res0(g, k, tree)
    per_edge = []
    all_in = True
    for e in tree.edges:
        ok = lattice_contains_vector(edge_lattice(e, k), c.value(e))
        all_in = all_in and ok
        per_edge.append({"edge": e, "in_lattice": ok})
    # the zero section lies in every lattice; membership tests need f != 0
    vertex_ok = g.is_zero() or all(
        section_lattice_membership(g, k + 2, v)[0] for v in tree.vertices
    )
    return {
        "in_all_edge_lattices": all_in,
        "vertex_membership": vertex_ok,
        "edges": per_edge,
    }


def cochain_transport(g: Mat2, c: Cochain) -> Cochain:
    """Push a cochain forward: the value on the image edge is the module action
    of g on the old value, times the determinant parity sign."""
    sign = ScalarKHat.from_rational(sigma(g, c.p), c.p)
    values = {}
    for e, vec in c.values.items():
        moved = dual_act(g, list(vec), c.k, c.p)
        values[act_on_edge(g, e)] = [sign * x for x in moved]
    return Cochain(c.p, c.k, values)


def _field_kernel(tree: TruncatedTree, k: int) -> dict:
    p = tree.p
    zero, one = ScalarKHat.zero(p), ScalarKHat.one(p)
    edges = list(tree.edges)
    index = {e: n for n, e in enumerate(edges)}
    ncols = (k + 1) * len(edges)
    rows = []
    for v in tree.interior_vertices():
        incident = [index[e] for e in tree.edges_at(v)]
        for i in range(k + 1):
            row = [zero] * ncols
            for n in incident:
                row[n * (k + 1) + i] = one
            rows.append(row)
    if ncols == 0:
        return {"dimension": 0, "basis": []}
    vectors = kernel_basis(rows, zero, one) if rows else [
        [one if t == s else zero for t in range(ncols)] for s in range(ncols)
    ]
    basis = []
    for vec in vectors:
        values = {}
        for e in edges:
            n = index[e]
            chunk = vec[n * (k + 1) : (n + 1) * (k + 1)]
            if any(not x.is_zero() for x in chunk):
                values[e] = chunk
        basis.append(Cochain(p, k, values))
    return {"dimension": len(vectors), "basis": basis}


def _modp_kernel(tree: TruncatedTree, k: int) -> dict:
    from .lattices import star_local_kernel

    p = tree.p
    zero, one = ScalarKHat.zero(p), ScalarKHat.one(p)
    edges = list(tree.edges)
    index = {e: n for n, e in enumerate(edges)}
    lattices = [edge_lattice(e, k) for e in edges]
    ncols = (k + 1) * len(edges)
    rows = []
    for v in tree.interior_vertices():
        for r in range(k + 1):
            row = [zero] * ncols
            for e in tree.edges_at(v):
                n = index[e]
                basis_matrix = lattices[n].matrix
                for j in range(k + 1):
                    row[n * (k + 1) + j] = row[n * (k + 1) + j] + basis_matrix[r][j]
            rows.append(row)
    if ncols == 0:
        return {"integral_rank": 0, "reduced_basis": [], "star_local": {}}
    vectors = kernel_basis(rows, zero, one) if rows else [
        [one if t == s else zero for t in range(ncols)] for s in range(ncols)
    ]
    reduced = []
    if vectors:
        columns = [[vec[i] for vec in vectors] for i in range(ncols)]
        u, _, _ = smith_over_dvr(columns)
        for s in range(len(vectors)):
            sat = [u[i][s] for i in range(ncols)]
            reduced.append([x.reduce_mod_pihat() for x in sat])
    star = {
        str(v): star_local_kernel(v, k) for v in tree.interior_vertices()
    }
    return {
        "integral_rank": len(vectors),
        "reduced_basis": reduced,
        "star_local": star,
    }


def harmonic_kernel(tree: TruncatedTree, k: int, mod_pihat: bool = False) -> dict:
    """Kernel of the signed star-sum operator on the truncation.

    With ``mod_pihat`` false: plain kernel over the scalar field, free
    boundary.  With ``mod_pihat`` true: kernel in edge-lattice coordinates
    with a saturated integral basis reduced modulo the uniformizer, plus the
    star-local kernel dimensions that measure the reduced harmonic space
    vertex by vertex.
    """
    if mod_pihat:
        return _modp_kernel(tree, k)
    return _field_kernel(tree, k)
