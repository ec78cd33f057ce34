"""Edge cochains with dual-module values on truncated trees: the signed
vertex-sum operator, harmonic kernels over the field and modulo the
uniformizer, the residue map from weight-(k+2) rational sections, and the
integrality of its image.

Sign conventions: the vertex sum carries the parity sign of the vertex; the
residue values carry the parity sign of the transporter determinant, which is
what makes the residue construction equivariant and its image harmonic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul, neg

from . import poly
from .errors import InternalInvariantError, PoleInsideAnnulus
from .lattices import _in_edge_lattice, star_local_kernel
from .linalg import _pivots
from .rational import FactoredRational, _one_minus_by, _transported_valuations, _value_key, principal_parts
from .scalars import ScalarKHat, _common_denominator, _make, _vp, half
from .symrep import triangular_apply
from .tree import TruncatedTree, _level_and_offset


@dataclass
class Cochain:
    """Sparse family of dual coordinate vectors (length k+1) on the edges of a
    ball, keyed by edge index, each held as the ints (a, b, L) of
    ``scalars._common_denominator``: entry j is (a[j] + b[j] pihat)/L,
    unreduced.  One that ``res0`` computes stores only nonzero vectors,
    shares one triple among the edges of a key and one L among all, and
    holds the ``rational._one_minus_by`` rows of its section at the ball's
    vertices that ``_ball_pass`` read.  The audit, ``delta``, the integrality
    report and the printer all read the ints; no other value format is
    built."""

    ball: TruncatedTree
    k: int
    ints: dict
    geometry: tuple | None = None


def delta(c: Cochain, tree: TruncatedTree) -> dict:
    """Signed star sums at the interior vertices that a stored edge meets,
    keyed by index, as ints (a, b, L) over the lcm L of the cochain's
    denominators; the sum at every other one is 0.  Each stored value is
    added at those of its edge's ends j + 1 and up(j + 1) that are interior,
    and every edge at an interior vertex lies in the ball."""
    L, k, sums, interior = math.lcm(*{x[2] for x in c.ints.values()}), c.k, {}, tree.n_interior
    for j, (a, b, den) in c.ints.items():
        vec = a + b if den == L else [x * (L // den) for x in a + b]
        for end in (j + 1, tree.up(j + 1)):
            if end < interior:
                sums[end] = [x + y for x, y in zip(sums[end], vec)] if end in sums else vec
    signed = {i: [-x for x in vec] if tree.levels[i] % 2 else vec for i, vec in sums.items()}
    return {i: (vec[: k + 1], vec[k + 1 :], L) for i, vec in signed.items()}


def _vertex_name(m: int, n: int, d: int) -> str:
    """The vertex (m, n/d) as the text V(m,n/d), or V(m,n) when d = 1."""
    return f"V({m},{n})" if d == 1 else f"V({m},{n}/{d})"


def _raise_in_annulus(poles: list, child: tuple) -> None:
    """Refuse the edge whose child end has label ``child``, (p, m, n, d), and
    whose annulus holds the poles ``poles`` of the section, if any."""
    if poles:
        y, (_, m, n, d) = min(poles, key=_value_key(poles)), child
        raise PoleInsideAnnulus(
            f"pole at {y} with valuation {half(y.valuation())} sits inside the annulus"
            f" of the edge whose child end is {_vertex_name(m, n, d)}"
        )


def _edge_residue(parts: list, k: int, A: int, C: int, D: int, p: int) -> tuple[list, list, int]:
    """Residue value on the edge that gamma = [[A, 0], [C, D]] / A, A and D
    positive, moves to the standard edge, as the ints of
    ``scalars._common_denominator``.

    The Laurent coefficient a_{-s-1} of the weight-(k + 2) transport gamma.f
    (see ``rational.gauss_valuation``) on the standard annulus is the residue
    of that section times z^s over the inner disc (omega(z) >= 1).  In the
    coordinate w of f, with gamma = (1 0; c d), this is chi^(k+2)(gamma)
    det^(-k-1) times the residue of f(w) w^s (d - c w)^(k-s) dw over the
    poles y of f whose image y/(d - c y) lies in the disc; a pole with
    principal part sum A_t (w - y)^-t gives
    sum A_t [u^(t-1)] (alpha + u)^s (beta - c u)^(k-s) with alpha = y and
    beta = d - c y.  When the disc holds -1/c, the image of w = infinity
    (v_p(A) > v_p(C)), the residue theorem gives minus the sum over the
    poles outside it instead.  The sign is the parity of the determinant's
    valuation v_p(D) - v_p(A).  The annulus 0 < omega(z) < 1 must hold no
    image of a pole (``_ball_pass`` refuses those edges first).
    """
    c, d = _make(p, C, 0, A), _make(p, D, 0, A)
    zero, one = ScalarKHat.zero(p), ScalarKHat.one(p)
    inner, outer = [], []
    for y, principal in parts:
        beta = d - c * y
        # doubled: the disc is w >= 2
        (inner if y.valuation() - beta.valuation() >= 2 else outer).append((y, beta, principal))
    infinity_inside = C != 0 and _vp(A, p) > _vp(C, p)
    coeffs = [zero] * (k + 1)
    for alpha, beta, principal in outer if infinity_inside else inner:
        r = len(principal)
        left, right = [(one,)], [(one,)]
        for _ in range(k):  # (alpha + u)^n and (beta - c u)^n below u^r
            left.append(poly.mul(left[-1], (alpha, one), zero)[:r])
            right.append(poly.mul(right[-1], (beta, -c), zero)[:r])
        for s in range(k + 1):
            series = poly.mul(left[s], right[k - s], zero)
            for t, x in enumerate(principal[: len(series)]):
                coeffs[s] = coeffs[s] + x * series[t]
    sign = -1 if (_vp(D, p) - _vp(A, p) + infinity_inside) % 2 else 1
    # sym(gamma) = M / A^k * det(gamma) * chi^-(k+2) for the lower triangular M of
    # A, C, D; with the factor chi^(k+2) det(gamma)^(-k-1) only M / D^k is left
    ca, cb, common = _common_denominator(coeffs)
    xs, ys = (triangular_apply(A, C, D, [sign * x for x in u], transposed=True) for u in (ca, cb))
    return xs, ys, common * D**k


def _pole_vector(y: ScalarKHat, principal: list, k: int) -> tuple[list, list, int]:
    """R_y[j] = sum_t A_t [u^(t-1)] (y + u)^j, j = 0..k: the residue of
    f(w) w^j dw at a pole y of f with principal part (A_1, ..., A_r), as
    the ints of ``_common_denominator``."""
    zero, row = ScalarKHat.zero(y.p), [ScalarKHat.one(y.p)]
    out = [sum(map(mul, principal, row), zero)]
    for _ in range(k):  # Pascal's rule: row holds [u^t] (y + u)^j = C(j, t) y^(j-t), t below r
        row = [y * x + z for x, z in zip(row + [zero], [zero] + row)][: len(principal)]
        out.append(sum(map(mul, principal, row), zero))
    return _common_denominator(out)


def _ball_pass(g: FactoredRational, parts: list, tree: TruncatedTree) -> tuple[list, tuple]:
    """The key of the poles summed on each edge of the ball, by index, and
    the pass over the vertices it reads them from: ``rational._one_minus_by``'s
    v_p(b) and omega(1 - b y), for each root y of g, at each vertex (m, b).
    A key is an int: bit 0 is set for the sign -1, and bit i + 1 when pole i
    of ``parts`` is summed.  The vertex gives the key of the edge whose child
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
    row_of = {(y.A, y.B, y.D): row for (y, _), row in zip(g.factors, rows)}
    flipped = (2 << len(parts)) - 1  # every pole's bit and the sign's
    keys = [flipped ^ m & 1 if vb is not None and vb < m else m & 1 for vb, m in zip(vbs, levels)]
    refused = []  # each pole's doubled omega(y / (d - c y)) at each vertex, if one is 1
    for i, (y, _) in enumerate(parts):
        t = y.valuation()
        ws = [t - u + 2 * m for u, m in zip(row_of[y.A, y.B, y.D], levels)]
        keys = [key ^ 2 << i if w >= 2 else key for key, w in zip(keys, ws)]
        if 1 in ws:
            refused.append((y, ws))
    children = tree.child_ends
    for child in children if refused else ():
        _raise_in_annulus([y for y, ws in refused if ws[child] == 1], tree.label(child))
    return [keys[i] for i in children], geometry


def res0(g: FactoredRational, k: int, tree: TruncatedTree, rng=None) -> Cochain:
    """Residue cochain of a weight-(k+2) rational section: on each edge, the
    residue of f(w) w^j dw (j = 0..k) over the disc the edge cuts off, a
    signed sum of ``_pole_vector``s over the poles ``_ball_pass`` picks,
    over one denominator.  Given ``rng``, each value is checked against the
    series of ``_edge_residue`` through a second transporter of its edge,
    the inverse of the child's transporter times a random [[1, 0], [x, 1]],
    built from the child's label ints alone."""
    p = tree.p
    parts = principal_parts(g)
    keys, geometry = _ball_pass(g, parts, tree)
    vectors = [_pole_vector(y, A, k) for y, A in parts]
    L = math.lcm(*(den for _, _, den in vectors))
    # each pole's bit in a key, and its vector's a, then b, over L
    columns = [(2 << i, [x * (L // den) for x in a + b]) for i, (a, b, den) in enumerate(vectors)]
    sums = {}
    for key in set(keys):
        total = [0] * (2 * k + 2)
        for bit, column in columns:
            total = list(map(add, total, column)) if key & bit else total
        if any(total):
            total = list(map(neg, total)) if key & 1 else total
            sums[key] = total[: k + 1], total[k + 1 :], L
    cochain = Cochain(tree, k, {j: sums[key] for j, key in enumerate(keys) if key in sums}, geometry)
    if rng is not None:
        zero = [0] * (k + 1), [0] * (k + 1), 1
        for j in range(tree.n_edges):
            x = rng.randrange(1, 5 * p)
            u, v = tree.ends(j)
            L, O, C = _level_and_offset(*tree.label(v))
            # the child's transporter [[C, 0], [-O, L]] / C times the standard
            # edge's stabilizer element [[1, 0], [x, 1]], inverted
            xs, ys, common = _edge_residue(parts, k, L, O - L * x, C, p)
            a, b, den = cochain.ints.get(j, zero)
            # the two values over their own denominators, cross-multiplied
            if any(s * common != t * den for s, t in zip(a + b, xs + ys)):
                raise InternalInvariantError(
                    f"residue value at the edge {tree.label(u)}-{tree.label(v)} disagrees with the series"
                )
    return cochain


def res0_integrality(
    g: FactoredRational, k: int, tree: TruncatedTree, cochain: Cochain
) -> dict:
    """Whether the residue cochain ``cochain`` = res0(g, k, tree) lands in
    every edge lattice, alongside the vertex membership precondition, read
    from the pass over the vertices that ``res0`` made: the valuations stop
    at the first negative one.

    Only the edges the cochain stores need a membership test: every other
    value is the zero vector, which lies in every full-rank lattice."""
    p, levels, nums, dens, children = tree.p, tree.levels, tree.nums, tree.dens, tree.child_ends
    ends = ((children[j], vec) for j, vec in cochain.ints.items())
    all_in = all(_in_edge_lattice(p, *_level_and_offset(p, levels[i], nums[i], dens[i]), k, vec) for i, vec in ends)
    # the zero section lies in every lattice; membership tests need f != 0
    valuations = _transported_valuations(g, k + 2, p, levels, nums, dens, *cochain.geometry)
    vertex_ok = g.is_zero() or all(map((0).__le__, valuations))
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
    return {_vertex_name(*label): dim for label in zip(tree.levels[:n], tree.nums[:n], tree.dens[:n])}
