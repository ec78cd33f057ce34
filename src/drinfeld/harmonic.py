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
from itertools import compress, count, repeat
from operator import mul

from . import poly
from .errors import InternalInvariantError, PoleInsideAnnulus
from .lattices import _in_edge_lattice, star_local_kernel
from .linalg import _pivots
from .rational import FactoredRational, _one_minus_by, _root_key, _transported_valuations, principal_parts
from .scalars import ScalarKHat, _common_denominator, _make, half
from .symrep import triangular_apply
from .tree import Mat2, TruncatedTree, _level_and_offset, unipotent_lower, vertex_transporter


@dataclass
class Cochain:
    """Sparse family of dual coordinate vectors (length k+1) on the edges of a
    ball, keyed by edge index.  One that ``res0`` computes stores only nonzero
    vectors, and holds the ``rational._one_minus_by`` rows of its section at
    the ball's vertices that ``_ball_pass`` read."""

    ball: TruncatedTree
    k: int
    values: dict
    geometry: tuple | None = None

    @property
    def p(self) -> int:
        return self.ball.p


def sigma(g: Mat2, p: int) -> int:
    """Parity sign of the determinant valuation: +1 on even levels, -1 on odd."""
    return -1 if g.omega_det(p) % 2 else 1


def delta(c: Cochain, tree: TruncatedTree) -> dict:
    """Signed star sums at the interior vertices, keyed by index: each stored
    value is added at those of the two ends of its edge that are interior,
    and every edge at an interior vertex lies in the ball."""
    zeros, sums, interior = [ScalarKHat.zero(c.p)] * (c.k + 1), {}, tree.n_interior
    for j, vec in c.values.items():
        for end in tree.ends(j):
            if end < interior:
                sums[end] = [x + y for x, y in zip(sums[end], vec)] if end in sums else vec
    return {
        i: [-x for x in sums[i]] if i in sums and tree.levels[i] % 2 else sums.get(i, zeros)
        for i in range(tree.n_interior)
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
    zero, row = ScalarKHat.zero(y.p), [ScalarKHat.one(y.p)]
    out = [sum(map(mul, principal, row), zero)]
    for _ in range(k):  # Pascal's rule: row holds [u^t] (y + u)^j = C(j, t) y^(j-t), t below r
        row = [y * x + z for x, z in zip(row + [zero], [zero] + row)][: len(principal)]
        out.append(sum(map(mul, principal, row), zero))
    return out


def _ball_pass(g: FactoredRational, parts: list, tree: TruncatedTree) -> tuple[list, tuple]:
    """The key (indices into ``parts``, sign) of the poles summed on each edge
    of the ball, by index, and the pass over the vertices it reads them from:
    ``rational._one_minus_by``'s v_p(b) and omega(1 - b y), for each root y of
    g, at each vertex (m, b).  The vertex gives the key of the edge whose child
    end it is, and ``rational._transported_valuations`` reads its Gauss
    valuations from the same pass.

    The inverse gamma = (a b; c d) = [[p^m, 0], [b, 1]] / p^m of the child's
    transporter moves the edge to the standard edge: the poles y in the disc
    omega(y / (d - c y)) = omega(y) - omega(1 - b y) + 2m >= 2 count with sign
    sigma(gamma) = (-1)^m, or, when the disc holds gamma^-1(infinity) = -p^m/b
    (v_p(b) < m), those outside with -sigma(gamma).  A vertex's key depends
    only on which poles its disc holds, that flip and m's parity.  The first
    edge, in edge order, whose annulus 0 < omega < 2 holds a pole refuses."""
    p, levels = tree.p, tree.levels
    vbs, rows = geometry = _one_minus_by(g, p, tree.nums, tree.dens)
    # each pole's doubled valuation omega(y / (d - c y)) at each vertex
    row_of = {(y.A, y.B, y.D): row for (y, _), row in zip(g.factors, rows)}
    ws = [[t - u + 2 * m for u, m in zip(row_of[y.A, y.B, y.D], levels)] for y, _ in parts for t in [y.valuation()]]
    refused = {}  # each vertex's images of the poles in its edge's annulus, if any
    if any(1 in row for row in ws):
        for i in range(len(levels)):
            if in_annulus := [y for (y, _), row in zip(parts, ws) if row[i] == 1]:
                L, O, C = _level_and_offset(p, levels[i], tree.nums[i], tree.dens[i])
                gc, gd = _make(p, O, 0, L), _make(p, C, 0, L)
                refused[i] = [y / (gd - gc * y) for y in in_annulus]
    inside = zip(*([w >= 2 for w in row] for row in ws)) if ws else repeat(())
    shapes = list(zip(inside, [vb is not None and vb < m for vb, m in zip(vbs, levels)], [m & 1 for m in levels]))
    key_of = {}
    for shape in set(shapes):
        inside, flip, odd = shape
        key_of[shape] = tuple(compress(count(), map(flip.__ne__, inside))), -1 if flip ^ odd else 1
    children = tree.child_ends()
    for child in children if refused else ():
        if child in refused:
            _raise_in_annulus(refused[child])
    return [key_of[shapes[child]] for child in children], geometry


def res0(g: FactoredRational, k: int, tree: TruncatedTree, rng=None) -> Cochain:
    """Residue cochain of a weight-(k+2) rational section: on each edge, the
    residue of f(w) w^j dw (j = 0..k) over the disc the edge cuts off, a
    signed sum of ``_pole_vector``s over the poles ``_ball_pass`` picks.
    Given ``rng``, each value is checked against the series of
    ``_edge_residue`` through a second, randomly drawn transporter."""
    p = tree.p
    # a pole whose principal part vanishes is cancelled by extra: no pole
    parts = [(y, A) for y, A in principal_parts(g) if any(A)]
    vectors = [_pole_vector(y, A, k) for y, A in parts]
    keys, geometry = _ball_pass(g, parts, tree)
    zero, sums = ScalarKHat.zero(p), {}
    for poles, sign in set(keys):
        total = [sum(col, zero) for col in zip(*(vectors[i] for i in poles))] or [zero] * (k + 1)
        sums[poles, sign] = total if sign > 0 else [-x for x in total]
    if rng is not None:
        for j, key in enumerate(keys):
            jitter = unipotent_lower(rng.randrange(1, 5 * p))
            # a second transporter for the same edge: standard-edge stabilizer
            u, v = tree.ends(j)
            alt = (vertex_transporter(tree.label(v)) @ jitter).inv()
            if sums[key] != _edge_residue(parts, k, alt, p):
                raise InternalInvariantError(
                    f"residue value at the edge {tree.label(u)}-{tree.label(v)} disagrees with the series"
                )
    stored = {key for key, vec in sums.items() if any(vec)}
    return Cochain(tree, k, {j: sums[key] for j, key in enumerate(keys) if key in stored}, geometry)


def res0_integrality(
    g: FactoredRational, k: int, tree: TruncatedTree, cochain: Cochain
) -> dict:
    """Whether the residue cochain ``cochain`` = res0(g, k, tree) lands in
    every edge lattice, alongside the vertex membership precondition, read
    from the pass over the vertices that ``res0`` made: the valuations stop
    at the first negative one.

    Only the edges the cochain stores need a membership test: every other
    value is the zero vector, which lies in every full-rank lattice."""
    p, levels, nums, dens = tree.p, tree.levels, tree.nums, tree.dens
    # res0 shares one value list among the edges of a key: its ints are read once
    shared = {id(vec): vec for vec in cochain.values.values()}
    ints = {key: _common_denominator(vec) for key, vec in shared.items()}
    children = ((tree.ends(j)[1], ints[id(vec)]) for j, vec in cochain.values.items())
    all_in = all(
        _in_edge_lattice(p, *_level_and_offset(p, levels[i], nums[i], dens[i]), k, vec) for i, vec in children
    )
    # the zero section lies in every lattice; membership tests need f != 0
    valuations = _transported_valuations(g, k + 2, p, levels, nums, dens, *cochain.geometry)
    vertex_ok = g.is_zero() or all(x >= 0 for x in valuations)
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
    return (k + 1) * (tree.n_edges - len(_pivots(rows, tree.p)))


def star_local_kernels(tree: TruncatedTree, k: int) -> dict:
    """The star-local kernel dimensions mod pihat that measure the reduced
    harmonic space vertex by vertex, keyed by interior vertex (m, n/d) as
    the text V(m,n/d), or V(m,n) when d = 1.  Every star has the standard
    star's transitions, so one kernel fills them all.

    The kernel in edge-lattice coordinates needs no elimination: its rows are
    the incidence rows tensored with the identity, times the block diagonal
    of the invertible edge bases, so its rank is ``field_kernel``'s."""
    dim, n = star_local_kernel(tree.p, k), tree.n_interior
    return {
        f"V({m},{b})" if d == 1 else f"V({m},{b}/{d})": dim
        for m, b, d in zip(tree.levels[:n], tree.nums[:n], tree.dens[:n])
    }
