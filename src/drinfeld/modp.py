"""Residue-field geometry over F_q: the symmetric-power comparison map, whose
images are rational functions on the projective line in lowest terms,
component degrees, global sections over truncated trees, quotient
representations with stable-line search, and the check that the uniformizer
involution swaps the vertex parities.

The coordinate on each component is the reduction of the global coordinate;
matching of sections across an edge happens at the two reduction points of
that edge on its endpoint components.

Every printed value is a residue mod p or an F_q coefficient list, computed on
ints; only the comparison map's equivariance check (``symgeom_equivariance``
and the generators and matrices it reads) works on ``FqElem``s.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import add

from . import poly
from .errors import InternalInvariantError, InvalidParameters, SingularMatrix
from .linalg import kernel_basis_mod_p, kernel_of_columns_mod_p, rank
from .scalars import FiniteField, Fq, FqElem, _binomials_mod, _factorials, _vp
from .symrep import substitution_matrix
from .tree import _offset, truncated_tree

INFINITY_POINT = "inf"


# -- group elements over F_q ---------------------------------------------------------


def _lift_matrix(field: FiniteField, g) -> tuple:
    rows = []
    for row in g:
        rows.append(tuple(field.elem(x) for x in row))
    m = (rows[0][0], rows[0][1], rows[1][0], rows[1][1])
    if m[0] * m[3] - m[1] * m[2] == field.zero():
        raise SingularMatrix("matrix over the residue field is singular")
    return m


def gl2_generators(field: FiniteField) -> list:
    """Generators of the general linear group of rank 2: the two unipotent
    elements with entry 1 and diag(w, 1) for a primitive element w.

    Conjugating the unipotents by powers of diag(w, 1) gives every elementary
    matrix, since the powers of w span F_q over F_p; these generate the
    determinant-one subgroup, and det diag(w, 1) = w reaches every
    determinant."""
    one, zero, w = field.one(), field.zero(), field.primitive_element()
    gens = [((one, one), (zero, one)), ((one, zero), (one, one))]
    if w != one:
        gens.append(((w, zero), (zero, one)))
    return gens


def component_degree(q: int, k: int) -> int:
    """Degree of the reduced weight-k bundle on one component."""
    return (q - 1) * k // 2 if k % 2 == 0 else (q - 1) * (k - 1) // 2 - 1


# -- the symmetric-power comparison map ----------------------------------------------


def symgeom_parameters(q: int, k: int, i: int) -> tuple[int, int]:
    """(t, shift) for the comparison map; raises when t < 0.  The shift is
    also the exponent of the window function in the images."""
    if k % 2 == 0:
        t2 = (q - 1) * k - 2 * i * (q + 1)
        shift = i - k // 2
    else:
        t2 = (q - 1) * k - (q + 1) - 2 * i * (q + 1)
        shift = i - (k - 1) // 2
    if t2 % 2:
        raise InternalInvariantError("degree parameter must be an even integer")
    t = t2 // 2
    if t < 0:
        raise InvalidParameters(f"no comparison map for q={q}, k={k}, i={i}")
    return t, shift


def sym_matrix_codes(field: FiniteField, g, t: int, s: int) -> list:
    """Codes (see ``FiniteField``) of the matrix of the twisted
    symmetric-power action on degree-t forms: F -> det(g)^s * F(dX+bY, cX+aY).
    The code of an element of the prime field is its residue, so when every
    entry of g lies there the matrix is ``substitution_matrix`` on those ints,
    read mod p, with no product over F_q."""
    a, b, c, d = _lift_matrix(field, g)
    if max(a.n, b.n, c.n, d.n) < field.p:
        p, (a, b, c, d) = field.p, (a.n, b.n, c.n, d.n)
        scalar = pow(a * d - b * c, s, p)
        return [[scalar * x % p for x in row] for row in substitution_matrix(a, b, c, d, t, int)]
    scalar = (a * d - b * c) ** s
    m = substitution_matrix(a, b, c, d, t, field.from_int)
    return [[(scalar * x).n for x in row] for row in m]


def symgeom_iso(q: int, k: int, i: int) -> dict:
    """The monomial-by-monomial comparison map from the twisted symmetric power
    to rational sections: X^r Y^(t-r) goes to z^r W^shift, W = z - z^q.

    t + (q + 1) shift + k = 0 (``symgeom_parameters``), so the shift -e is at
    most 0 for k >= 0; a positive shift, which needs k < 0, is refused.
    W = z (1 - z^(q-1)) has coefficients in F_p, and
    (1 - z^(q-1))^e = sum_j (-1)^j C(e, j) z^(j(q-1)), C(e, j) mod p read from
    ``scalars._factorials(p, e)``, so every image is built in lowest terms on
    ints mod p, for every q: (-1)^e z^(r-e) over P = (z^(q-1) - 1)^e, which
    is monic, with z^(e-r) moved to the denominator when r < e.  ``images``
    are these as (numerator, denominator) pairs, each polynomial a tuple of
    its nonzero terms as (exponent, residue) pairs by rising exponent, so
    their length grows with e and not with q; and ``numerators`` the
    numerators over the common denominator z^e P as sparse int rows."""
    field = Fq(q)
    p = field.p
    t, shift = symgeom_parameters(q, k, i)
    if shift > 0:
        raise InvalidParameters(f"the comparison map at q={q}, k={k}, i={i} has a positive shift")
    e = -shift
    binomials = _binomials_mod(p, e, _factorials(p, e))  # of (1 - z^(q-1))^e
    sign = (-1) ** e % p
    common = tuple((j * (q - 1), (-1) ** (e + j) * c % p) for j, c in enumerate(binomials) if c)
    images = [
        (((max(r - e, 0), sign),), tuple((x + max(e - r, 0), c) for x, c in common))
        for r in range(t + 1)
    ]
    return {
        "p": p,
        "f": field.f,
        "t": t,
        "shift": shift,
        "images": images,
        "numerators": [{r: sign} for r in range(t + 1)],
    }


def symgeom_equivariance(q: int, k: int, i: int, g) -> bool:
    """iso(g.F) == (iso F)|_g at weight k, on every monomial.

    With W = z - z^q, e the shift, N = b + dz and D = a + cz, column r of the
    symmetric-power matrix M gives the polynomial P_r = sum_j M[j][r] z^j,
    and equivariance is the identity
        P_r W^e == N^r What^e D^(-r - qe - k),
    where What = N D^(q-1) - N^q is the numerator of W(N/D) over D^q.  Since
    a, b, c, d lie in F_q, Frobenius gives N^q = b + d z^q and D^q = a + c z^q,
    so D What = N D^q - N^q D = det (z - z^q) = det W for every invertible g.
    The right side is then det^e N^r W^e D^(-e - r - qe - k), and
    -e - qe - k = t for every (q, k, i) (``symgeom_parameters``), so the
    identity holds exactly when P_r == det^e N^r D^(t-r).  The columns are
    checked against that: they run from det^e D^t by one product with N and
    one exact division by the linear D each, on ints mod p when a, b, c, d
    lie in the prime field (every generator at a prime q, and the unipotents
    at every q), and over F_q otherwise.
    """
    field = Fq(q)
    t, shift = symgeom_parameters(q, k, i)
    m = sym_matrix_codes(field, g, t, shift)
    entries = _lift_matrix(field, g)
    if max(x.n for x in entries) < field.p:
        columns = _columns_mod_p(field.p, *(x.n for x in entries), t, shift)
    else:
        columns = _columns_fq(*entries, t, shift)
    return all(column == [row[r] for row in m] for r, column in enumerate(columns))


def _columns_mod_p(p: int, a: int, b: int, c: int, d: int, t: int, s: int):
    """The codes of det^s N^r D^(t-r), r = 0..t, for N = b + dz and D = a + cz
    with a, b, c, d ints mod p, each a list of t + 1 residues, or None after a
    division by D that leaves a remainder."""
    scale = pow(a * d - b * c, s, p)
    binomials = _binomials_mod(p, t, _factorials(p, t))  # det^s (a + cz)^t by the binomial theorem
    column = [scale * x * pow(a, t - j, p) * pow(c, j, p) % p for j, x in enumerate(binomials)]
    inverse = pow(c or a, -1, p)
    for r in range(t + 1):
        yield column
        if r == t:
            return
        product = [(b * x + d * y) % p for x, y in zip(column + [0], [0, *column])]
        if not c:  # D = a: the top coefficient must vanish
            column = [x * inverse % p for x in product[:-1]]
            rest = product[-1]
        else:  # from the top: product[j + 1] = a w[j + 1] + c w[j]
            column, rest = [0] * (t + 1), product.pop()
            for j in range(t, -1, -1):
                column[j] = w = rest * inverse % p
                rest = (product[j] - a * w) % p
        if rest:
            yield None
            return


def _columns_fq(a: FqElem, b: FqElem, c: FqElem, d: FqElem, t: int, s: int):
    """``_columns_mod_p`` over F_q, on polynomials of ``FqElem``s."""
    field = a.field
    zero, one = field.zero(), field.one()
    n_poly, d_poly = poly.trim((b, d)), poly.trim((a, c))
    column = poly.scale(poly.power(d_poly, t, zero, one), (a * d - b * c) ** s)
    for r in range(t + 1):
        yield [x.n for x in column] + [0] * (t + 1 - len(column))
        if r == t:
            return
        column, rest = poly.divmod(poly.mul(n_poly, column, zero), d_poly, zero)
        if rest:
            yield None
            return


def symgeom_injectivity_rank(iso: dict) -> int:
    """Rank of the comparison map ``iso`` (from ``symgeom_iso``) as a matrix
    over F_q: the rank of its numerators over their common denominator, ints
    mod p, since they lie in F_p."""
    numerators = iso["numerators"]
    width = 1 + max(max(num) for num in numerators)
    return rank([[num.get(j, 0) for j in range(width)] for num in numerators], iso["p"])


# -- truncated-tree global sections --------------------------------------------------


def _reduction_point(u: tuple, w: tuple):
    """Point of u's component where neighbor w's component meets it, read from
    the labels: the residue 0 for u's parent, and for the child
    (m+1, b + c·p^m) of u = (m, b) the residue 1/c mod p, or infinity when
    c = 0."""
    (p, m, _, _), (_, level, _, _) = u, w
    if level == m - 1 and _child_digit(w, u) is not None:
        return 0
    if level == m + 1:
        c = _child_digit(u, w)
        if c == 0:
            return INFINITY_POINT
        if c is not None:
            return pow(c, -1, p)
    raise InternalInvariantError(f"the vertex {w} is not a neighbor of {u}")


def _child_digit(v: tuple, w: tuple) -> int | None:
    """The c in [0, p) with b' = b + c·p^m for the labels v = (p, m, b = n/d)
    and w = (p, m', b' = n'/d'), or None."""
    (p, m, n, d), (_, _, n2, d2) = v, w
    common = max(d, d2)
    # (b' - b)/p^m as num/den over the offsets' common power of p
    num = n2 * (common // d2) - n * (common // d)
    num, den = (num, common * p**m) if m >= 0 else (num * p**-m, common)
    c, rest = divmod(num, den)
    return c if not rest and 0 <= c < p else None


def _evaluation_row(p: int, point, dim: int, k: int) -> list[int]:
    """Value functional of a degree < dim polynomial at a reduction point, as
    ints to be read mod p, in the normalization where the finite points carry
    the sign (-1)^(k/2)."""
    if point == INFINITY_POINT:
        return [0] * (dim - 1) + [1]
    return [(-1) ** (k // 2) * pow(point, j, p) for j in range(dim)]


def global_sections_truncated(q: int, k: int, radius: int) -> dict:
    """Dimension of the reduced weight-k sections over the radius-r ball, both
    by the component-count formula and by direct assembly of the edge matching
    conditions (one per edge for even k, none for odd k)."""
    if k < 0:
        raise InvalidParameters("k must be nonnegative")
    if Fq(q).f != 1:
        raise InvalidParameters("truncated sections require a prime q")
    tree = truncated_tree(q, radius)
    n_vertices = len(tree.levels)
    per_component = max(0, component_degree(q, k) + 1)
    ncols = n_vertices * per_component
    glued = range(tree.n_edges) if k % 2 == 0 else []  # odd k has no matching conditions
    rows = []
    for edge in glued:
        u, w = tree.ends(edge)
        row = {}
        for end, other, sign in ((u, w, 1), (w, u, -1)):
            point = _reduction_point(tree.label(end), tree.label(other))
            values = _evaluation_row(q, point, per_component, k)
            row.update((end * per_component + j, sign * x) for j, x in enumerate(values))
        rows.append(row)
    basis = kernel_basis_mod_p(rows, ncols, q)
    direct = len(basis.rows)
    matching_rank = ncols - direct
    formula = ncols - len(glued)
    return {
        "dimension": formula,
        "direct_dimension": direct,
        "matching_rank": matching_rank,
        "edge_count": tree.n_edges,
        "vertex_count": n_vertices,
        "per_component_dimension": per_component,
        "basis": basis,
        "pass": formula == direct,
    }


# -- quotient representation and stable lines ----------------------------------------


def _quotient_structure(q: int, k: int, i: int) -> dict:
    """The quotient of Sym^t by the relations X^j = X^(j+q-1), j = 1..t-q:
    each relation folds a low exponent onto a higher one, so the classes of
    X^0 and the top q exponents are free."""
    field = Fq(q)
    t, shift = symgeom_parameters(q, k, i)
    if t < q + 1:
        raise InvalidParameters("the relation set is empty below degree q+1")
    free = [0, *range(t - q + 1, t + 1)]

    def reduce_vector(vec: list) -> tuple:
        work = list(vec)
        # X^j folds onto X^(j+q-1) for j = 1..t-q, a block of q - 1 exponents
        # at a time: ascending, so a block is whole before it folds on
        for j in range(1, t - q + 1, q - 1):
            end = min(j + q - 1, t - q + 1)
            work[j + q - 1 : end + q - 1] = map(add, work[j + q - 1 : end + q - 1], work[j:end])
        return (work[0], *work[t - q + 1 :])

    return {
        "p": field.p,
        "f": field.f,
        "q": q,
        "t": t,
        "shift": shift,
        "free": free,
        "reduce": reduce_vector,
    }


def _unipotent_column(s: dict, j: int, table: tuple) -> list[int]:
    """Column j of U - I on the quotient ``s``, mod p, with the entries for the
    upper unipotent [[1, 1], [0, 1]] over those for the lower [[1, 0], [1, 1]]:
    the folded images of the j-th free monomial X^e Y^(t-e), which are
    (X + Y)^e Y^(t-e), with coefficients C(e, r), and X^e (X + Y)^(t-e),
    with coefficients C(t - e, r - e), less the monomial itself.  The
    binomials mod p are read from ``table``, ``scalars._factorials(p, t)``."""
    t, e, dim, reduce_vector = s["t"], s["free"][j], len(s["free"]), s["reduce"]
    upper = reduce_vector(_binomials_mod(s["p"], e, table) + [0] * (t - e))
    lower = reduce_vector([0] * e + _binomials_mod(s["p"], t - e, table))
    column = [*upper, *lower]
    column[j] -= 1
    column[dim + j] -= 1
    return column


def _stable_lines(s: dict) -> list:
    """The stable lines of ``quotient_rep_and_stable_lines``, sorted, each a
    tuple of coordinates, and each coordinate the tuple of its f base-p
    digits (its coefficients on 1, x, ..., x^(f-1)).

    The unipotents U of ``gl2_generators`` have entries 0 and 1 and
    determinant 1, so U - I on the quotient is a matrix of ints mod p for
    every q = p^f, whose columns are binomials mod p read from one table of
    p-adic factorials (``_unipotent_column``).  diag(w, 1) sends X^j Y^(t-j)
    to w^(shift+t-j) X^j Y^(t-j), and folding j onto j + q - 1 keeps that
    eigenvalue, so it is diagonal on the free monomials.  Its eigenspaces are the classes of free monomials with one
    value of (shift + t - j) mod (q - 1), one class at q = 2, and the common
    eigenspaces are the relations among each class's columns of U - I.  The
    kernel over F_q of a matrix over F_p has a basis over F_p, so each is
    found on ints mod p.

    That basis is in reduced echelon form with ascending pivots, so each line
    of its span over F_q is once a combination first + sum c_i rest_i of a
    basis vector and the ones after it, which is already led by a 1.  Digit u
    of that combination is [u = 0] first + sum c_i[u] rest_i, so each digit
    runs over the F_p-span of ``rest``, and no product over F_q is taken."""
    p, f, t, shift, free = s["p"], s["f"], s["t"], s["shift"], s["free"]
    dim = len(free)
    classes: dict[int, list[int]] = {}
    for j, e in enumerate(free):
        classes.setdefault((shift + t - e) % (s["q"] - 1), []).append(j)
    table = _factorials(p, t)
    lines = []
    for members in classes.values():
        basis = []
        columns = [_unipotent_column(s, j, table) for j in members]
        for vec in kernel_of_columns_mod_p(columns, p):
            full = [0] * dim
            for j, x in zip(members, vec):
                full[j] = x
            basis.append(full)
        for lead, first in enumerate(basis):
            span = [(0,) * dim]
            for v in basis[lead + 1 :]:
                span = [tuple((x + c * y) % p for x, y in zip(u, v)) for c in range(p) for u in span]
            led = [tuple((x + y) % p for x, y in zip(first, u)) for u in span]
            lines += (tuple(zip(*planes)) for planes in itertools.product(led, *[span] * (f - 1)))
    return sorted(lines)


def quotient_rep_and_stable_lines(q: int, k: int, i: int) -> dict:
    """The induced representation on the quotient by the exponent-shift
    relations, plus every line fixed by the full invertible group.

    A line's stabiliser is a subgroup, so a line is fixed by the group
    exactly when each of ``gl2_generators`` fixes it, that is, when it is an
    eigenvector of each generator's matrix with a nonzero eigenvalue.  A
    unipotent has 1 as its only eigenvalue, and the diagonal generator is
    diagonal on the free monomials, so the stable lines are the lines of
    the unipotents' common fixed space within one eigenspace of the
    diagonal generator (``_stable_lines``).
    """
    s = _quotient_structure(q, k, i)
    return {
        "dimension": len(s["free"]),
        "t": s["t"],
        "shift": s["shift"],
        "free_monomials": s["free"],
        "stable_lines": _stable_lines(s),
        "group_order": (q * q - 1) * (q * q - q),
    }


# -- parity-swapping forms ------------------------------------------------------------


def _iota(v: tuple) -> tuple:
    """The label of iota v for the uniformizer involution iota = [[0, 1],
    [p, 0]] and the vertex v = (m, b): iota's flipped inverse [[0, -p], [-1,
    0]] takes v's representative [[p^m, b], [0, 1]] to the columns (0, -p^m)
    and (-p, -b), whose class is (1 - m, 0) when b = 0, and else
    (m + 1 - 2 v_p(b), p/b)."""
    p, m, n, d = v
    if not n:
        return p, 1 - m, 0, 1
    g = gcd(p * d, n)  # p/b = p d/n in lowest terms
    m = m + 1 - 2 * (_vp(n, p) - _vp(d, p))
    return (p, m, *_offset(p * d // g, n // g, m, p))


def b_forms_check(q: int) -> bool:
    """The parity half of the parity pair, at q = p^f: the uniformizer
    involution iota = [[0, 1], [p, 0]] swaps the two vertex parities, the
    parities of the levels, on the radius-2 ball at p and squares to the
    identity there.

    The other half, the invariance of the weight-(q+1) window form
    1/(z - z^q) under the determinant-one group, holds for every such g by
    the identity D What = det W (``symgeom_equivariance``), so it is not
    checked here."""
    tree = truncated_tree(Fq(q).p, 2)
    for i in range(len(tree.levels)):
        v = tree.label(i)
        w = _iota(v)
        if (w[1] - v[1]) % 2 != 1 or _iota(w) != v:
            return False
    return True
