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
from fractions import Fraction
from operator import mul

from . import poly
from .errors import InternalInvariantError, PoleInsideAnnulus
from .lattices import in_edge_lattice, section_lattice_membership, star_local_kernel
from .linalg import _gauss_jordan
from .rational import FactoredRational, _root_key, principal_parts
from .scalars import ScalarKHat, _common_denominator, _make, _vp, half
from .symrep import triangular_apply
from .tree import (
    Mat2,
    TruncatedTree,
    Vertex,
    _level_and_offset,
    unipotent_lower,
    vertex_parity,
    vertex_transporter,
)


@dataclass
class Cochain:
    """Sparse edge-indexed family of dual coordinate vectors (length k+1)."""

    p: int
    k: int
    values: dict

    def support(self) -> list:
        return sorted(e for e, vec in self.values.items() if any(vec))


def sigma(g: Mat2, p: int) -> int:
    """Parity sign of the determinant valuation: +1 on even levels, -1 on odd."""
    return -1 if g.omega_det(p) % 2 else 1


def delta(c: Cochain, tree: TruncatedTree) -> dict:
    """Signed star sums at the interior vertices, each stored value added at
    its two ends: every edge at an interior vertex lies in the ball."""
    zeros, sums = [ScalarKHat.zero(c.p)] * (c.k + 1), {}
    for e, vec in c.values.items():
        for end in (e.u, e.v):
            sums[end] = [x + y for x, y in zip(sums.get(end, zeros), vec)]
    return {
        v: sums.get(v, zeros) if vertex_parity(v) > 0 else [-x for x in sums.get(v, zeros)]
        for v in tree.interior_vertices()
    }


def _raise_in_annulus(roots: list) -> None:
    """Refuse an edge whose annulus holds the images ``roots`` of poles."""
    if roots:
        root = min(roots, key=_root_key)
        raise PoleInsideAnnulus(
            f"pole at {root} with valuation {half(root.valuation())} sits inside the annulus"
        )


def _edge_residue(parts: list, k: int, gamma: Mat2, p: int) -> list:
    """Residue value on the edge that gamma moves to the standard edge.

    The Laurent coefficient a_{-s-1} of the weight-(k + 2) transport gamma.f
    (see ``rational.gauss_valuation``) on the standard annulus is the residue
    of that section times z^s over the inner disc (omega(z) >= 1).  In the coordinate w of f, with gamma = (a b; c d),
    this is chi^(k+2)(gamma) det^(-k-1) times the residue of
    f(w) (a w - b)^s (d - c w)^(k-s) dw over the poles y of f whose image
    (a y - b)/(d - c y) lies in the disc; a pole with principal part
    sum A_t (w - y)^-t gives sum A_t [u^(t-1)] (alpha + a u)^s (beta - c u)^(k-s)
    with alpha = a y - b and beta = d - c y.  When the disc holds -a/c, the
    image of w = infinity, the residue theorem gives minus the sum over the
    poles outside it instead.
    """
    a, b, c, d = gamma.lift(p)
    zero = ScalarKHat.zero(p)
    inner, outer, in_annulus = [], [], []
    for y, principal in parts:
        alpha, beta = a * y - b, d - c * y
        w = alpha.valuation() - beta.valuation()  # doubled: the annulus is 0 < w < 2
        if 0 < w < 2:
            in_annulus.append(alpha / beta)
        (inner if w >= 2 else outer).append((alpha, beta, principal))
    _raise_in_annulus(in_annulus)
    infinity_inside = not c.is_zero() and (a / c).valuation() >= 2
    poles = outer if infinity_inside else inner
    coeffs = [zero] * (k + 1)
    for alpha, beta, principal in poles:
        r = len(principal)
        left, right = [(ScalarKHat.one(p),)], [(ScalarKHat.one(p),)]
        for _ in range(k):  # (alpha + a u)^n and (beta - c u)^n below u^r
            left.append(poly.mul(left[-1], (alpha, a), zero)[:r])
            right.append(poly.mul(right[-1], (beta, -c), zero)[:r])
        for s in range(k + 1):
            series = poly.mul(left[s], right[k - s], zero)
            for t, x in enumerate(principal[: len(series)]):
                coeffs[s] = coeffs[s] + x * series[t]
    if all(x.is_zero() for x in coeffs):
        return [zero] * (k + 1)
    sign = -sigma(gamma, p) if infinity_inside else sigma(gamma, p)
    # sym(gamma) = M / N^k * det(gamma) * chi^-(k+2) for the lower triangular M of
    # A, C, D; with the factor chi^(k+2) det(gamma)^(-k-1) only (N / AD)^k is left
    scale = Fraction(gamma.N, gamma.A * gamma.D) ** k * sign
    num, den = scale.numerator, scale.denominator
    ca, cb, common = _common_denominator(coeffs)
    xs, ys = (triangular_apply(gamma.A, gamma.C, gamma.D, u, transposed=True) for u in (ca, cb))
    return [_make(p, num * x, num * y, den * common) for x, y in zip(xs, ys)]


def _pole_vector(y: ScalarKHat, principal: list, k: int) -> list:
    """R_y[j] = sum_t A_t [u^(t-1)] (y + u)^j, j = 0..k: the residue of
    f(w) w^j dw at a pole y of f with principal part (A_1, ..., A_r)."""
    zero, row, out = ScalarKHat.zero(y.p), [ScalarKHat.one(y.p)], []
    for _ in range(k + 1):  # Pascal's rule: row holds [u^t] (y + u)^j = C(j, t) y^(j-t), t below r
        out.append(sum(map(mul, principal, row), zero))
        row = [y * x + z for x, z in zip(row + [zero], [zero] + row)][: len(principal)]
    return out


def _counted_poles(parts: list, v: Vertex) -> tuple[tuple, int]:
    """The indices into ``parts`` of the poles summed on the edge whose child
    is v, and their sign.  With (L, O, C) from ``_level_and_offset``, the
    inverse gamma = [[L, 0], [O, C]] / L of v's transporter moves that edge to
    the standard edge: the poles y in the disc omega(L y / (C - O y)) >= 1 count with sign
    sigma(gamma), the parity of v_p(C) - v_p(L), or, when the disc holds
    gamma^-1(infinity) = -L/O (O != 0 and v_p(L) - v_p(O) >= 1), those outside
    with -sigma(gamma).  Only a pole with a pihat part is tested over K-hat."""
    p, (L, O, C) = v.p, _level_and_offset(v)
    inner, outer, in_annulus, c = [], [], [], None
    for i, (y, _) in enumerate(parts):
        if y.B:
            if c is None:
                c, d = _make(p, O, 0, L), _make(p, C, 0, L)
            beta = d - c * y
            w = y.valuation() - beta.valuation()  # doubled: the annulus is 0 < w < 2
            if 0 < w < 2:
                in_annulus.append(y / beta)
            inside = w >= 2
        else:
            top, bottom = L * y.A, C * y.D - O * y.A
            inside = not top or (bottom != 0 and _vp(top, p) - _vp(bottom, p) >= 1)
        (inner if inside else outer).append(i)
    _raise_in_annulus(in_annulus)
    sign = -1 if (_vp(C, p) - _vp(L, p)) % 2 else 1
    if O and _vp(L, p) - _vp(O, p) >= 1:
        return tuple(outer), -sign
    return tuple(inner), sign


def res0(g: FactoredRational, k: int, tree: TruncatedTree, rng=None) -> Cochain:
    """Residue cochain of a weight-(k+2) rational section: on each edge, the
    residue of f(w) w^j dw (j = 0..k) over the disc the edge cuts off, a
    signed sum of ``_pole_vector``s over the poles ``_counted_poles`` picks.
    Given ``rng``, each value is checked against the series of
    ``_edge_residue`` through a second, randomly drawn transporter."""
    p = tree.p
    # a pole whose principal part vanishes is cancelled by extra: no pole
    parts = [(y, A) for y, A in principal_parts(g) if any(A)]
    vectors = [_pole_vector(y, A, k) for y, A in parts]
    zero, sums, values = ScalarKHat.zero(p), {}, {}
    for j in range(tree.n_edges):
        child = tree.vertices[tree.ends(j)[1]]
        key = _counted_poles(parts, child)
        if key not in sums:
            poles, sign = key
            total = [sum(col, zero) for col in zip(*(vectors[i] for i in poles))]
            sums[key] = total if sign > 0 else [-x for x in total]
        vec = sums[key] or [zero] * (k + 1)
        if rng is not None:
            jitter = unipotent_lower(rng.randrange(1, 5 * p))
            # a second transporter for the same edge: standard-edge stabilizer
            alt = (vertex_transporter(child) @ jitter).inv()
            if vec != _edge_residue(parts, k, alt, p):
                raise InternalInvariantError(f"residue value at {tree.edge(j)} disagrees with the series")
        if any(vec):
            values[tree.edge(j)] = vec
    return Cochain(p, k, values)


def res0_integrality(
    g: FactoredRational, k: int, tree: TruncatedTree, cochain: Cochain
) -> dict:
    """Whether the residue cochain ``cochain`` = res0(g, k, tree) lands in
    every edge lattice, alongside the vertex membership precondition.

    Only the edges the cochain stores need a membership test: every other
    value is the zero vector, which lies in every full-rank lattice."""
    all_in = all(in_edge_lattice(e, k, vec) for e, vec in cochain.values.items())
    # the zero section lies in every lattice; membership tests need f != 0
    vertex_ok = g.is_zero() or all(
        section_lattice_membership(g, k + 2, v)[0] for v in tree.vertices
    )
    return {"in_all_edge_lattices": all_in, "vertex_membership": vertex_ok}


def field_kernel(tree: TruncatedTree, k: int) -> int:
    """Dimension of the kernel of the signed star-sum operator over the
    scalar field, with a free boundary.

    Dual coordinate i of a star sum involves only coordinate i of each
    edge value, so the kernel is k+1 copies of the kernel of the 0/1
    interior-by-edge incidence matrix.  A tree is bipartite, so that matrix
    is totally unimodular: every minor is 0 or +-1, and its rank over the
    field is its rank over F_p, taken on sparse int rows."""
    # edge j is column E - 1 - j, numbered from the boundary inward: each
    # row's smallest column is then the edge to its last child, which no
    # pending row shares, so the pending rows take no fill-in
    last = tree.n_edges - 1
    rows = [{last - j: 1 for j in tree.star(i)} for i in range(tree.n_interior)]
    return (k + 1) * (tree.n_edges - len(_gauss_jordan(rows, tree.p)[1]))


def star_local_kernels(tree: TruncatedTree, k: int) -> dict:
    """The star-local kernel dimensions mod pihat that measure the reduced
    harmonic space vertex by vertex, keyed by interior vertex.  Every star
    has the standard star's transitions, so one kernel fills them all.

    The kernel in edge-lattice coordinates needs no elimination: its rows are
    the incidence rows tensored with the identity, times the block diagonal
    of the invertible edge bases, so its rank is ``field_kernel``'s."""
    dim = star_local_kernel(tree.p, k)
    return {str(v): dim for v in tree.interior_vertices()}
