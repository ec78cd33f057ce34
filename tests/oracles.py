"""Reference computations shared by several test files.  The program does not
call them: tests compare the program against them, or use them to state a
result of the paper."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import functools
import itertools
import json
import math
from math import comb, prod
from operator import mul

from drinfeld import modp, poly
from drinfeld.cli import _MAX_BALL_VERTICES, _MAX_RADIUS, _rational_str
from drinfeld.errors import (
    DrinfeldError,
    InternalInvariantError,
    InvalidParameters,
    NegativeValuation,
    PoleInsideAnnulus,
    ResidueFieldMismatch,
    SingularMatrix,
    ZeroFunction,
)
from drinfeld.harmonic import Cochain, _raise_in_annulus, res0
from drinfeld.lattices import Doubled, _in_edge_lattice
from drinfeld.linalg import Matrix, SparseRows, _gauss_jordan, rank, rref, transpose
from drinfeld.modp import (
    INFINITY_POINT,
    _quotient_structure,
    component_degree,
    symgeom_parameters,
)
from drinfeld.rational import (
    FactoredRational,
    _value_key,
    _zadd,
    _zmul,
    gauss_valuation,
)
from drinfeld.scalars import (
    INF,
    FiniteField,
    Fq,
    RationalLike,
    ScalarKHat,
    _check_prime,
    _common_denominator,
    _factorials,
    _make,
    _make_fq,
    _times_pihat,
    _twice_valuation,
    _vp,
    half,
)
from drinfeld.symrep import substitution_matrix
from drinfeld.theta import theta
from drinfeld.tree import (
    TruncatedTree,
    _child_offsets,
    _level_and_offset,
    _offset,
    ball_size,
    truncated_tree,
)

# -- integer factoring ---------------------------------------------------------------


def smallest_factor(n: int) -> int:
    """The least divisor d >= 2 of an int n >= 2, by trial division up to
    its integer square root: what ``scalars._prime_factors`` replaced."""
    return next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)


# -- group elements ------------------------------------------------------------------
#
# The program reads a transporter from its vertex's label ints
# (``tree._level_and_offset``) and the audit's lower triangular transporters
# from the same ints.  ``Mat2`` is the general element of GL2 over the
# rationals that the tests act with.


class Mat2:
    """2x2 matrix over the rationals, row-major entries a b / c d.

    A matrix is five ints (A, B, C, D, N) with value [[A, B], [C, D]] / N,
    N > 0 and gcd(A, B, C, D, N) = 1, so equal matrices hold equal ints.  The
    public constructor takes rational entries; arithmetic builds its result
    with ``_mat2``, which reduces by one gcd.  The entries are read as
    ``Fraction`` properties, or lifted to the quadratic extension by ``lift``.
    Immutable by convention, as ``ScalarKHat`` is.
    """

    __slots__ = ("A", "B", "C", "D", "N")

    def __init__(self, a: RationalLike, b: RationalLike, c: RationalLike, d: RationalLike) -> None:
        a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
        # the entries are in lowest terms, so the lcm of their denominators
        # shares no factor with all four numerators
        n = math.lcm(a.denominator, b.denominator, c.denominator, d.denominator)
        self.A = a.numerator * (n // a.denominator)
        self.B = b.numerator * (n // b.denominator)
        self.C = c.numerator * (n // c.denominator)
        self.D = d.numerator * (n // d.denominator)
        self.N = n

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.N)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.N)

    @property
    def c(self) -> Fraction:
        return Fraction(self.C, self.N)

    @property
    def d(self) -> Fraction:
        return Fraction(self.D, self.N)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Mat2:
            return NotImplemented
        return (self.A, self.B, self.C, self.D, self.N) == (
            other.A, other.B, other.C, other.D, other.N
        )

    def __hash__(self) -> int:
        return hash((self.A, self.B, self.C, self.D, self.N))

    def __repr__(self) -> str:
        return f"Mat2({self.a}, {self.b}, {self.c}, {self.d})"

    def __matmul__(self, other: "Mat2") -> "Mat2":
        A, B, C, D = self.A, self.B, self.C, self.D
        E, F, G, H = other.A, other.B, other.C, other.D
        return _mat2(
            A * E + B * G, A * F + B * H, C * E + D * G, C * F + D * H, self.N * other.N
        )

    def inv(self) -> "Mat2":
        """N * adj / (AD - BC): the inverse of [[A, B], [C, D]] / N."""
        A, B, C, D, N = self.A, self.B, self.C, self.D, self.N
        det = A * D - B * C
        if not det:
            raise SingularMatrix("matrix is singular")
        if det < 0:
            N, det = -N, -det
        return _mat2(N * D, -N * B, -N * C, N * A, det)

    def omega_det(self, p: int) -> int:
        """v_p of the determinant."""
        det = self.A * self.D - self.B * self.C
        if not det:
            raise InvalidParameters("matrix is singular")
        return _vp(det, p) - 2 * _vp(self.N, p)

    def lift(self, p: int) -> tuple[ScalarKHat, ScalarKHat, ScalarKHat, ScalarKHat]:
        """The entries a, b, c, d as scalars of the quadratic extension."""
        _check_prime(p)
        A, B, C, D, N = self.A, self.B, self.C, self.D, self.N
        return _make(p, A, 0, N), _make(p, B, 0, N), _make(p, C, 0, N), _make(p, D, 0, N)


_new = object.__new__
_gcd = math.gcd


def _mat2(A: int, B: int, C: int, D: int, N: int) -> Mat2:
    """The matrix [[A, B], [C, D]] / N for N > 0, reduced by the gcd of the
    five ints and otherwise unchecked: the fast path for results of
    arithmetic on matrices."""
    g = _gcd(A, B, C, D, N)
    if g != 1:
        A //= g
        B //= g
        C //= g
        D //= g
        N //= g
    m = _new(Mat2)
    m.A = A
    m.B = B
    m.C = C
    m.D = D
    m.N = N
    return m


def unipotent_lower(x: Fraction | int) -> Mat2:
    return Mat2(1, 0, x, 1)


def vertex_transporter(v: tuple) -> Mat2:
    """Group element [[1, 0], [-b, p^m]] carrying the base vertex to the
    vertex of label v = (p, m, n, d) (and base parent to v's parent)."""
    level, offset, common = _level_and_offset(*v)
    return _mat2(common, 0, -offset, level, common)


def sigma(g: Mat2, p: int) -> int:
    """Parity sign of the determinant valuation: +1 on even levels, -1 on odd."""
    return -1 if g.omega_det(p) % 2 else 1


# -- vertices, edges and lattices as objects ------------------------------------------
#
# The program takes a vertex as its int label (p, m, n, d) and reads a ball's
# vertices and edges from its index arithmetic.  These are the objects it took
# before: a hashed, ordered ``Vertex``, an ``Edge`` of two of them, the group
# action on vertices through ``Fraction``-free matrices, and the ``Lattice``
# record of a transporter and a column scaling.  They stay the reference for
# the label arithmetic.


def val_p(x, p: int) -> int | float:
    """p-adic valuation of a rational; INF for 0."""
    if type(x) is int:
        return _vp(x, p) if x else INF
    if type(x) is not Fraction:
        x = Fraction(x)
    if not x:
        return INF
    return _vp(x.numerator, p) - _vp(x.denominator, p)


def det(g: Mat2) -> Fraction:
    return Fraction(g.A * g.D - g.B * g.C, g.N * g.N)


def itilde(g: Mat2) -> Mat2:
    """The det-twisted inverse flip [[d,-c],[-b,a]] (an exact involution)."""
    m = _new(Mat2)
    m.A, m.B, m.C, m.D, m.N = g.D, -g.C, -g.B, g.A, g.N
    return m


@functools.total_ordering
class Vertex:
    """The vertex (m, b) over p as ints (p, m, n, d), b = n/d in lowest terms
    with d a power of p.  ``Vertex(p, m, b)`` takes a canonical offset b.
    Ordered by (p, m, b); immutable by convention, as ``Mat2`` is.  It
    unpacks to its label (p, m, n, d), so the program's functions of a label
    take it as they take the label."""

    __slots__ = ("p", "m", "n", "d", "_hash")

    def __init__(self, p: int, m: int, b) -> None:
        n, d = Fraction(b).as_integer_ratio()
        self.p, self.m, self.n, self.d, self._hash = p, m, n, d, hash((p, m, n, d))

    @property
    def b(self) -> Fraction:
        return Fraction(self.n, self.d)

    @property
    def label(self) -> tuple[int, int, int, int]:
        return self.p, self.m, self.n, self.d

    def __iter__(self):
        return iter(self.label)

    def __repr__(self) -> str:
        return f"V({self.m},{self.n})" if self.d == 1 else f"V({self.m},{self.n}/{self.d})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Vertex:
            return NotImplemented
        return self.n == other.n and self.m == other.m and self.d == other.d and self.p == other.p

    def __lt__(self, other: "Vertex") -> bool:
        return (self.p, self.m, self.n * other.d) < (other.p, other.m, other.n * self.d)

    def __hash__(self) -> int:
        return self._hash


def make_vertex(p: int, m: int, b: Fraction | int = 0) -> Vertex:
    _check_prime(p)
    return _vertex(p, m, *_offset(*Fraction(b).as_integer_ratio(), m, p))


def _vertex(p: int, m: int, n: int, d: int) -> Vertex:
    """The vertex (m, n/d) for a canonical offset n/d in lowest terms, unchecked."""
    v = _new(Vertex)
    v.p, v.m, v.n, v.d, v._hash = p, m, n, d, hash((p, m, n, d))
    return v


def standard_vertex(p: int) -> Vertex:
    _check_prime(p)
    return _vertex(p, 0, 0, 1)


def representative(v: Vertex) -> Mat2:
    """The matrix [[p^m, b],[0,1]] whose column lattice class is v."""
    level, offset, common = _level_and_offset(*v)
    return _mat2(level, offset, 0, common, common)


def vertex_of_matrix(mat: Mat2, p: int) -> Vertex:
    """Canonical label of the column lattice class of an invertible matrix.

    The class ignores the scalar 1/N, so this reads the int entries A, B,
    C, D.  Scaling by p^-mu, mu = min(v(C), v(D)), and taking the column
    whose bottom entry is a unit to the right brings the matrix to
    [[x, y], [z, w]] with w a unit, whose class is (v(det) - 2 mu, y/w)."""
    A, B, C, D = mat.A, mat.B, mat.C, mat.D
    det = A * D - B * C
    if not det:
        raise InvalidParameters("matrix is singular")
    vc, vd = val_p(C, p), val_p(D, p)
    mu, n, u = (vc, A, C) if vd > vc else (vd, B, D)
    return make_vertex(p, _vp(abs(det), p) - 2 * mu, Fraction(n, u))


def act_on_vertex(g: Mat2, v: Vertex) -> Vertex:
    if det(g) == 0:
        raise SingularMatrix("group element must be invertible")
    return vertex_of_matrix(itilde(g) @ representative(v), v.p)


def distance(u: Vertex, v: Vertex) -> int:
    if u.p != v.p:
        raise ResidueFieldMismatch("vertices over different primes")
    # the offsets over their common power of p; val_p is INF when they agree
    common = max(u.d, v.d)
    diff = u.n * (common // u.d) - v.n * (common // v.d)
    mstar = min(u.m, v.m, val_p(diff, u.p) - _vp(common, u.p))
    return (u.m - mstar) + (v.m - mstar)


def vertex_parity(v: Vertex) -> int:
    return 1 if v.m % 2 == 0 else -1


@functools.total_ordering
class Edge:
    """Unordered adjacent pair, stored parent-end first (smaller level).
    Ordered, compared and hashed as the pair (u, v), its hash taken once at
    construction; immutable by convention, as ``Vertex`` is."""

    __slots__ = ("u", "v", "_hash")

    def __init__(self, u: Vertex, v: Vertex) -> None:
        self.u, self.v, self._hash = u, v, hash((u, v))

    def __repr__(self) -> str:
        return f"E[{self.u},{self.v}]"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Edge:
            return NotImplemented
        return self.u == other.u and self.v == other.v

    def __lt__(self, other: "Edge") -> bool:
        if other.__class__ is not Edge:
            return NotImplemented
        return (self.u, self.v) < (other.u, other.v)

    def __hash__(self) -> int:
        return self._hash


def make_edge(x: Vertex, y: Vertex) -> Edge:
    if distance(x, y) != 1:
        raise InvalidParameters(f"{x} and {y} are not adjacent")
    return Edge(x, y) if x < y else Edge(y, x)


def standard_edge(p: int) -> Edge:
    return make_edge(standard_vertex(p), make_vertex(p, -1, 0))


def child_endpoint(e: Edge) -> Vertex:
    return e.v


def admitted_ball(p: int) -> TruncatedTree:
    """The largest ball that the CLI's radius and vertex budgets admit at p.
    Its arrays begin with every smaller ball's."""
    radius = 0
    while radius < _MAX_RADIUS and ball_size(p, radius + 1) <= _MAX_BALL_VERTICES:
        radius += 1
    return truncated_tree(p, radius)


def ball_vertex(tree: TruncatedTree, i: int) -> Vertex:
    return _vertex(*tree.label(i))


def ball_vertices(tree: TruncatedTree) -> list[Vertex]:
    """The ball's vertices as ``Vertex``es, in index order."""
    return [ball_vertex(tree, i) for i in range(len(tree.levels))]


def interior_vertices(tree: TruncatedTree) -> list[Vertex]:
    return ball_vertices(tree)[: tree.n_interior]


def ball_edge(tree: TruncatedTree, j: int) -> Edge:
    a, b = tree.ends(j)
    return Edge(ball_vertex(tree, a), ball_vertex(tree, b))


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


def local_space(src: Lattice, dst: Lattice) -> list:
    """Basis of the image of dst in src/(pihat), as coordinate vectors of
    residues mod p against src's basis: the column space mod pihat of the
    transition M[j][i] * (num/den) * pihat^(e + t_j - s_i), for
    sym(dst.g^-1 src.g) = M * (num/den) * pihat^e.  An entry of doubled
    valuation 0 reduces to the unit part of M[j][i] * num/den mod p, a
    positive one to 0; a negative one raises.  A diagonal g = diag(A, D)/N
    needs neither M nor an elimination: entry j of its diagonal has doubled
    valuation (2j - k)(v_p(D) - v_p(A)) + t_j - s_j, and the basis is the unit
    vectors e_j at which that is 0.  The reduced form of
    ``lattices._local_space``'s span on any two lattices, which the program
    reads at the standard star's three fixed transitions only."""
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
    basis, pivots = rref(local_rows(src, dst), p)
    return basis[: len(pivots)]


def local_rows(src: Lattice, dst: Lattice) -> list:
    """The rows of residues mod p that ``local_space`` reduces, read from the
    big ints of ``sym_ints``'s matrix with one ``_vp`` per entry, as the
    program read them before ``_residue_rows``: entry (i, j) is
    M[i][j] * (num/den) * pihat^(e + t_i - s_j) mod pihat, and a negative
    valuation raises."""
    p, k = src.p, src.k
    m, num, den, e = sym_ints(dst.g.inv() @ src.g, k, p)
    vn, vd = _vp(num, p), _vp(den, p)
    unit = num // p**vn * pow(den // p**vd, -1, p)

    def residue(x: int, twice: int) -> int:
        v = _vp(x, p) if x else INF
        if 2 * v + twice < 0:
            raise NegativeValuation(f"transition entry has valuation {half(2 * v + twice)} < 0")
        return x // p**v * unit % p if 2 * v + twice == 0 else 0

    return [
        [residue(x, 2 * (vn - vd) + e + t - s) for x, s in zip(row, src.scale)]
        for row, t in zip(m, dst.scale)
    ]


def _residue_rows(p: int, k: int, A: int, C: int, D: int, shift: int, unit: int, ts: list, ss: list):
    """The residues mod p of M[i][j] * w * pihat^(shift + t_i - s_j), a
    {column: nonzero residue} map per row i = 0..k, made one at a time, for
    the lower triangular symmetric power M of the ints [[A, 0], [C, D]], C
    nonzero, and a w of doubled valuation 0 and unit part ``unit``.  Entry
    (i, j), j <= i, of M is D^j C(k-j, i-j) C^(i-j) A^(k-i), read from
    ``_factorials``: a doubled valuation 0 gives its unit part, a positive
    one 0, a negative one raises.  The general transition that
    ``lattices._child_rows`` reads child 1's rows from in closed form."""
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


def child_one_rows(p: int, k: int) -> list[dict]:
    """Child 1's local space as ``_residue_rows`` reads it from the general
    transition: the child's transporter is the inverse of [[p, 0], [1, 1]],
    the twist has doubled valuation -k and unit part 1, and the column
    scalings are a D-space's; the nonzero rows."""
    ts = [max(0, 2 * j - k) for j in range(k + 1)]
    return list(filter(None, _residue_rows(p, k, p, 1, 1, -k, 1, ts, [0] * (k + 1))))


def closed_form_rows(src: Lattice, dst: Lattice) -> list:
    """``_residue_rows`` on the transition g = dst.g^-1 src.g =
    [[A, 0], [C, D]]/N, C nonzero, as dense rows: its twist AD/N^(k+2) *
    pihat^(-(k+2) v_p(det g)) read as a doubled valuation and a unit part
    mod p from g itself, with no ``sym_ints``."""
    p, k = src.p, src.k
    g = dst.g.inv() @ src.g
    num, den = g.A * g.D, g.N ** (k + 2)
    vn, vd = _vp(num, p), _vp(den, p)
    shift = 2 * (vn - vd) - (k + 2) * g.omega_det(p)
    unit = num // p**vn * pow(den // p**vd, -1, p) % p
    rows = _residue_rows(p, k, g.A, g.C, g.D, shift, unit, dst.scale, src.scale)
    return [[row.get(j, 0) for j in range(k + 1)] for row in rows]


def d_space_basis(e: Edge, side: Vertex, k: int) -> list:
    """Basis of the image of the edge lattice in (side lattice)/(pihat), as
    rows of residues mod p against the side lattice's basis.  On the child
    side the two lattices share a transporter, so the transition is the
    diagonal diag(pihat^max(0, 2j - k))."""
    return local_space(vertex_lattice(side, k), edge_lattice(e, k))


def e_space_basis(e: Edge, k: int) -> list:
    """Basis of the image of the edge lattice in (sum of the two endpoint
    lattices)/(pihat), as rows of residues mod p against the sum's basis.
    The sum is the child's lattice scaled by pihat^min(0, 2j - k), so the
    transition is diag(pihat^|2j - k|)."""
    edge = edge_lattice(e, k)
    total = Lattice(edge.p, k, edge.g, tuple(min(0, 2 * j - k) for j in range(k + 1)))
    return local_space(total, edge)


# -- scalars, matrices and vertex labels on Fractions --------------------------------
#
# The representations that the int-coded ``ScalarKHat``, its doubled-int
# valuation, the int-held ``Mat2`` and the integer vertex offsets of ``tree``
# replaced.  Tests compare the program against them.


def khat(p: int, a: RationalLike, b: RationalLike) -> ScalarKHat:
    """The scalar a + b*pihat from rational components, p checked to be
    prime: the constructor the tests build scalars with, where the program
    builds them from ints by ``scalars._make``."""
    _check_prime(p)
    a, b = Fraction(a), Fraction(b)
    d = math.lcm(a.denominator, b.denominator)
    # a and b are in lowest terms, so gcd(A, B, d) = 1
    return _make(p, a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d)


def _fraction_val(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


@dataclass(frozen=True)
class FractionScalarKHat:
    """a + b*pihat with pihat^2 = p, held as two ``Fraction``s.  The public
    constructor checks p and coerces both components to ``Fraction``;
    arithmetic skips the products and sums of a zero operand or of a
    pihat-part that is zero."""

    p: int
    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        _check_prime(self.p)
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def _make(self, a: Fraction, b: Fraction) -> "FractionScalarKHat":
        return FractionScalarKHat(self.p, a, b)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def _coerce(self, other) -> "FractionScalarKHat":
        if isinstance(other, FractionScalarKHat):
            if other.p != self.p:
                raise ResidueFieldMismatch(f"mixing p={self.p} and p={other.p}")
            return other
        return self._make(Fraction(other), Fraction(0))

    def __add__(self, other) -> "FractionScalarKHat":
        o = self._coerce(other)
        if not o.a and not o.b:
            return self
        if not self.a and not self.b:
            return o
        b = self.b + o.b if self.b and o.b else self.b or o.b
        return self._make(self.a + o.a, b)

    __radd__ = __add__

    def __neg__(self) -> "FractionScalarKHat":
        return self._make(-self.a, -self.b)

    def __sub__(self, other) -> "FractionScalarKHat":
        o = self._coerce(other)
        if not o.a and not o.b:
            return self
        return self._make(self.a - o.a, self.b - o.b if o.b else self.b)

    def __rsub__(self, other) -> "FractionScalarKHat":
        return self._coerce(other) - self

    def __mul__(self, other) -> "FractionScalarKHat":
        o = self._coerce(other)
        a, b, c, d = self.a, self.b, o.a, o.b
        if not b:
            if not a:
                return self
            if not d:
                return self._make(a * c, Fraction(0)) if c else o
            return self._make(a * c, a * d)
        if not d:
            if not c:
                return o
            return self._make(a * c, b * c)
        return self._make(a * c + self.p * b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "FractionScalarKHat":
        a, b = self.a, self.b
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of zero")
            return self._make(1 / a, Fraction(0))
        norm = a * a - self.p * b * b
        return self._make(a / norm, -b / norm)

    def __truediv__(self, other) -> "FractionScalarKHat":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "FractionScalarKHat":
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "FractionScalarKHat":
        if n < 0:
            return self.inverse() ** (-n)
        result = self._make(Fraction(1), Fraction(0))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def valuation(self) -> Fraction | float:
        va = Fraction(_fraction_val(self.a, self.p)) if self.a else INF
        if not self.b:
            return va
        return min(va, _fraction_val(self.b, self.p) + Fraction(1, 2))

    def is_integral(self) -> bool:
        return self.valuation() >= 0

    def reduce_mod_pihat(self) -> int:
        if self.valuation() < 0:
            raise NegativeValuation(f"{self} has valuation {self.valuation()} < 0")
        a = self.a
        return a.numerator * pow(a.denominator, -1, self.p) % self.p if a else 0

    def __repr__(self) -> str:
        if self.b == 0:
            return f"{self.a}"
        if self.a == 0:
            return f"{self.b}*pihat"
        return f"({self.a} + {self.b}*pihat)"


def fraction_valuation(x) -> Fraction | float:
    """omega(a + b*pihat) = min(val(a), val(b) + 1/2) as a ``Fraction``, read
    from the ``Fraction`` components of a scalar; INF for zero.  The program
    returns the doubled valuation 2*omega as an int."""
    va = Fraction(_fraction_val(x.a, x.p)) if x.a else INF
    if not x.b:
        return va
    return min(va, _fraction_val(x.b, x.p) + Fraction(1, 2))


@dataclass(frozen=True)
class FractionMat2:
    """2x2 matrix over the rationals held as four ``Fraction``s, row-major
    entries a b / c d: the representation the int-held ``Mat2`` replaced."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "FractionMat2") -> "FractionMat2":
        return FractionMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "FractionMat2":
        det = self.det()
        if det == 0:
            raise SingularMatrix("matrix is singular")
        return FractionMat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def itilde(self) -> "FractionMat2":
        return FractionMat2(self.d, -self.c, -self.b, self.a)

    def omega_det(self, p: int) -> Fraction:
        det = self.det()
        if det == 0:
            raise InvalidParameters("matrix is singular")
        return Fraction(_fraction_val(det, p))

    def lift(self, p: int) -> tuple:
        return tuple(ScalarKHat.from_rational(x, p) for x in (self.a, self.b, self.c, self.d))


def fraction_representative(v: Vertex) -> FractionMat2:
    return FractionMat2(Fraction(v.p) ** v.m, v.b, 0, 1)


def fraction_vertex_transporter(v: Vertex) -> FractionMat2:
    return FractionMat2(1, 0, -v.b, Fraction(v.p) ** v.m)


def fraction_vertex_of_matrix(mat: FractionMat2, p: int) -> Vertex:
    """Canonical label of the column lattice class, on ``Fraction`` entries."""
    if mat.det() == 0:
        raise InvalidParameters("matrix is singular")
    val = lambda x: _fraction_val(x, p) if x else INF
    a, b, c, d = mat.a, mat.b, mat.c, mat.d
    t = Fraction(p) ** -min(val(c), val(d))
    a, b, c, d = a * t, b * t, c * t, d * t
    if val(d) > 0:
        a, b = b, a
        c, d = d, c
    b0 = b / d
    return make_vertex(p, val(a - c * b0), b0)


def fraction_act_on_vertex(g: FractionMat2, v: Vertex) -> Vertex:
    if g.det() == 0:
        raise SingularMatrix("group element must be invertible")
    return fraction_vertex_of_matrix(g.itilde() @ fraction_representative(v), v.p)


def fraction_canonical_offset(b: Fraction, m: int, p: int) -> Fraction:
    """Unique c in [0, p^m) with p-power denominator and val(b - c) >= m."""
    b = Fraction(b)
    if b == 0:
        return Fraction(0)
    j = max(0, -_fraction_val(b, p))
    if m + j <= 0:
        return Fraction(0)
    mod = p ** (m + j)
    t = b * p**j  # denominator prime to p now
    s = (t.numerator * pow(t.denominator, -1, mod)) % mod
    return Fraction(s, p**j)


def fraction_parent(v: Vertex) -> Vertex:
    return Vertex(v.p, v.m - 1, fraction_canonical_offset(v.b, v.m - 1, v.p))


def fraction_children(v: Vertex) -> list[Vertex]:
    step = Fraction(v.p) ** v.m
    return [
        Vertex(v.p, v.m + 1, fraction_canonical_offset(v.b + c * step, v.m + 1, v.p))
        for c in range(v.p)
    ]


@dataclass
class EdgeCochain:
    """A family of edge values keyed by ``Edge``, on no ball: a residue
    cochain moved by the group, or one computed edge by edge."""

    p: int
    k: int
    values: dict


def edge_values(c: Cochain | EdgeCochain) -> dict:
    """The values of c keyed by ``Edge``."""
    if isinstance(c, EdgeCochain):
        return c.values
    return {ball_edge(c.ball, j): vec for j, vec in cochain_values(c).items()}


def cochain_values(c: Cochain) -> dict:
    """The vectors of a ``Cochain`` as ``ScalarKHat`` lists, keyed by edge
    index, from the ints it holds."""
    p = c.ball.p
    return {j: [_make(p, x, y, L) for x, y in zip(a, b)] for j, (a, b, L) in c.ints.items()}


def support(c: Cochain | EdgeCochain) -> list:
    """The edges of c's nonzero values, sorted."""
    return sorted(e for e, vec in edge_values(c).items() if any(vec))


def cochain_value(c: Cochain | EdgeCochain, e: Edge) -> list:
    """The value of c on e: the stored vector, or the zero vector."""
    p = c.p if isinstance(c, EdgeCochain) else c.ball.p
    return list(edge_values(c).get(e) or [ScalarKHat.zero(p)] * (c.k + 1))


def fraction_distance(u: Vertex, v: Vertex) -> int:
    """The tree distance from the levels and the valuation of the difference
    of the ``Fraction`` offsets."""
    diff = u.b - v.b
    mstar = min(u.m, v.m, _fraction_val(diff, u.p) if diff else INF)
    return (u.m - mstar) + (v.m - mstar)


def fraction_vertex_key(v: Vertex) -> tuple:
    """The (p, m, b) order of vertices, on ``Fraction`` offsets."""
    return (v.p, v.m, v.b)


def fraction_make_edge(x: Vertex, y: Vertex) -> Edge:
    """The edge stored with the endpoint of smaller (m, b) first."""
    return Edge(x, y) if (x.m, x.b) < (y.m, y.b) else Edge(y, x)


@dataclass(frozen=True, order=True)
class FrozenEdge:
    """``tree.Edge`` as the frozen dataclass it was: ordered, compared and
    hashed as the pair (u, v)."""

    u: Vertex
    v: Vertex


# -- the ball as hashed vertices and edges --------------------------------------------
#
# The breadth-first walk that ``tree.truncated_tree``'s index arithmetic
# replaced: every neighbour is looked up in a vertex index, and each vertex
# keeps its incident edges.  Below it, the edge helpers that only tests call.


@dataclass
class ReferenceBall:
    p: int
    vertices: list[Vertex]
    edges: list[Edge]
    index: dict[Vertex, int]
    incident: dict[Vertex, list[Edge]]
    n_interior: int

    def edges_at(self, v: Vertex) -> list[Edge]:
        """The ball's edges at v, in the order of ``edges``."""
        return list(self.incident.get(v, ()))


def reference_ball(p: int, radius: int) -> ReferenceBall:
    """The ball of the given radius around the base vertex, vertices in
    breadth-first order (neighbors visited parent first, then children by
    offset), each new vertex found by a miss in the vertex index."""
    center = standard_vertex(p)
    vertices = [center]
    index = {center: 0}
    edges: list[Edge] = []
    incident: dict[Vertex, list[Edge]] = {center: []}
    frontier = [center]
    n_interior = 0
    for _ in range(radius):
        n_interior = len(vertices)
        nxt: list[Vertex] = []
        for v in frontier:
            for w in neighbors(v):
                if w not in index:
                    index[w] = len(vertices)
                    vertices.append(w)
                    nxt.append(w)
                    e = Edge(v, w) if v.m < w.m else Edge(w, v)
                    edges.append(e)
                    incident[v].append(e)
                    incident[w] = [e]
        frontier = nxt
    return ReferenceBall(p, vertices, edges, index, incident, n_interior)


def parent_endpoint(e: Edge) -> Vertex:
    return e.u


def _parent_label(p: int, m: int, n: int, d: int) -> tuple[int, int, int]:
    """The label (m - 1, n', d') of the parent of the vertex (m, n/d): the
    reference for the parent labels that ``cli._regular`` computes inline."""
    # n/d = n/p^j is canonical, so the parent's offset is (n mod p^(m-1+j))/p^j,
    # in lowest terms when j > 0 because p does not divide n
    m -= 1
    mod = p**m * d if m >= 0 else d // p**-m
    n = n % mod if mod > 1 else 0
    return (m, n, d) if n else (m, 0, 1)


def parent(v: Vertex) -> Vertex:
    return _vertex(v.p, *_parent_label(v.p, v.m, v.n, v.d))


def children(v: Vertex) -> list[Vertex]:
    """The vertices (m+1, b + c p^m), c in [0, p), with canonical offsets."""
    p, m = v.p, v.m + 1
    offsets, common = _child_offsets(p, v.m, v.n, v.d)
    return [_vertex(p, m, x, common) if x else _vertex(p, m, 0, 1) for x in offsets]


def neighbors(v: Vertex) -> list[Vertex]:
    """All p+1 adjacent vertices, parent first, children in offset order."""
    return [parent(v)] + children(v)


def edges_at(v: Vertex) -> list[Edge]:
    """The p + 1 edges at v: the parent edge, then the child edges in
    offset order."""
    return [Edge(parent(v), v)] + [Edge(v, w) for w in children(v)]


def edge_transporter(e: Edge) -> Mat2:
    """Deterministic group element mapping the standard edge onto e.

    The transporter of the deeper endpoint works: it carries the base vertex to
    that endpoint and the base vertex's parent to the endpoint's parent.
    """
    return vertex_transporter(child_endpoint(e))


def ball_edges(tree: TruncatedTree) -> list[Edge]:
    """The ball's edges as ``Edge``s, in edge order."""
    return [ball_edge(tree, j) for j in range(tree.n_edges)]


def incident_positions(edges: list[Edge]) -> dict[Vertex, list[int]]:
    """The positions in ``edges`` of each vertex's edges, by a scan."""
    at: dict[Vertex, list[int]] = {}
    for n, e in enumerate(edges):
        at.setdefault(e.u, []).append(n)
        at.setdefault(e.v, []).append(n)
    return at


# -- the per-vertex and per-edge passes on scalars -------------------------------------
#
# What the kernel rank, the vertex membership and the scalar printer were
# before they read the ball's ints.


def dense_field_kernel(tree: TruncatedTree, k: int) -> int:
    """``harmonic.field_kernel`` by the rank over K-hat of the dense 0/1
    interior-by-edge incidence matrix of ``ScalarKHat``s."""
    zero, one = ScalarKHat.zero(tree.p), ScalarKHat.one(tree.p)
    edges = ball_edges(tree)
    at = incident_positions(edges)
    rows = []
    for v in interior_vertices(tree):
        row = [zero] * len(edges)
        for n in at[v]:
            row[n] = one
        rows.append(row)
    return (k + 1) * (len(edges) - reference_rank(rows, zero))


def in_edge_lattice(e: Edge, k: int, vec: list) -> bool:
    """``lattices._in_edge_lattice`` for the ``Edge`` e, from its child end's
    (L, O, C)."""
    v = e.v
    return _in_edge_lattice(v.p, *_level_and_offset(v.p, v.m, v.n, v.d), k, _common_denominator(vec))


def section_lattice_membership(f: FactoredRational, k: int, v: Vertex) -> tuple[bool, int]:
    """Whether f lies in the weight-k integral module over the vertex open:
    the transported section must be bounded by 1 on the vertex tube.  The
    certificate is the doubled transported Gauss valuation."""
    if f.is_zero():
        raise ZeroFunction("membership is only defined for nonzero sections")
    val = gauss_valuation(f, v, k)
    return val >= 0, val


def membership_by_transport(f: FactoredRational, k: int, v: Vertex) -> tuple[bool, int]:
    """``section_lattice_membership`` through the transporter's
    inverse and the Gauss valuation over K-hat, which is also
    ``rational.gauss_valuation(f, v, k)``."""
    val = transported_gauss_valuation(f, vertex_transporter(v).inv(), k)
    return val >= 0, val


def fraction_scalar_str(s: ScalarKHat) -> str:
    """``cli._scalar_str`` from the ``Fraction`` components."""
    if s.b == 0:
        return str(s.a)
    pihat = "pihat" if s.b == 1 else f"{s.b}*pihat"
    if s.a == 0:
        return pihat
    return f"{s.a} + {pihat}"


# -- the module actions and reduction over the quadratic extension --------------------
#
# The program holds the symmetric-power action as ints (``symrep.sym_ints``)
# and reads valuations and residues mod pihat from them; these build every
# entry as a ``ScalarKHat``.


def sym_matrix(g: Mat2, k: int, p: int) -> list:
    """Matrix over the quadratic extension of the twisted action
    F -> det(g) * chi(g)^-(k+2) * F(dX+bY, cX+aY)."""
    a, b, c, d = g.lift(p)
    base = substitution_matrix(a, b, c, d, k, lambda n: ScalarKHat.from_rational(n, p))
    scalar = ScalarKHat.from_rational(det(g), p) * chi(g, p, -(k + 2))
    return [[x * scalar for x in row] for row in base]


def dual_act_matrix(g: Mat2, k: int, p: int) -> list:
    """Matrix of the contragredient action (g.h)(F) = h(g^{-1}.F) on dual
    coordinates."""
    return [list(col) for col in zip(*sym_matrix(g.inv(), k, p))]


def _lower_triangular(a: int, c: int, d: int, k: int) -> Matrix:
    """``substitution_matrix(a, 0, c, d, k, int)`` in closed form, with no
    polynomial product: column i is (dX)^i (cX + aY)^(k-i), so entry (r, i) is
    d^i C(k-i, r-i) c^(r-i) a^(k-r) on and below the diagonal, 0 above it."""
    entry = lambda r, i: d**i * comb(k - i, r - i) * c ** (r - i) * a ** (k - r) if i <= r else 0
    return [[entry(r, i) for i in range(k + 1)] for r in range(k + 1)]


def is_integral(x: ScalarKHat) -> bool:
    """Whether omega(x) >= 0: p | D forces p to miss A or B, which puts the
    valuation below 0."""
    return x.D % x.p != 0


def reduce_mod_pihat(x: ScalarKHat) -> int:
    """Image in Z/p; requires omega >= 0 (then the pihat part drops)."""
    if not is_integral(x):
        raise NegativeValuation(f"{x} has valuation {half(x.valuation())} < 0")
    return x.A * pow(x.D, -1, x.p) % x.p


# -- linear algebra -------------------------------------------------------------------


def mat_vec(a: list, v: list) -> list:
    """Matrix times column vector."""
    return [sum((x * y for x, y in zip(row[1:], v[1:])), row[0] * v[0]) for row in a]


def dual_act(g: Mat2, coords: list, k: int, p: int) -> list:
    """The contragredient action on a dual coordinate column."""
    return mat_vec(dual_act_matrix(g, k, p), coords)


def epsilon(g: Mat2, p: int) -> ScalarKHat:
    """det(g) scaled to a unit: det * p^(-val(det)). Trivial on the diagonal
    p-power elements and on determinant-one elements."""
    w = g.omega_det(p)
    return ScalarKHat.from_rational(det(g) * Fraction(p) ** (-int(w)), p)


def act_on_edge(g: Mat2, e: Edge) -> Edge:
    return make_edge(act_on_vertex(g, e.u), act_on_vertex(g, e.v))


def poly_evaluate(u: poly.Poly, x, zero):
    """The value of the polynomial u at x, by Horner's rule."""
    acc = zero
    for c in reversed(u):
        acc = acc * x + c
    return acc


# -- dense linear algebra ----------------------------------------------------------
#
# The program row-reduces only int residues over F_p (``linalg``), and reads
# lattice transitions and membership off the transporters.  These eliminate
# over the scalars' own field (F_q, K-hat, the rationals) and over the basis
# matrices instead.


def reference_rref(rows: list, zero) -> tuple[list, list[int]]:
    """Dense Gauss-Jordan over the scalars' own field: pivot on the first row
    with a nonzero entry in each column, then clear that column in every
    other row.  The reference for ``linalg.rref`` on residues mod p."""
    a = [list(r) for r in rows]
    if not a:
        return a, []
    ncols = len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(a)) if a[i][c] != zero), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c]
        a[r] = [scalar_div(x, inv) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != zero:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, pivots


def reference_rank(rows: list, zero) -> int:
    return len(reference_rref(rows, zero)[1])


def mat_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    bt = list(zip(*b))
    return [[_dot(row, col) for col in bt] for row in a]


def _dot(u, v):
    acc = u[0] * v[0]
    for x, y in zip(u[1:], v[1:]):
        acc = acc + x * y
    return acc


def solve(a: list, b: list, zero) -> list | None:
    """One solution of a x = b, or None if inconsistent. Free variables are 0."""
    if not a:
        return [] if all(x == zero for x in b) else None
    aug = [list(row) + [bi] for row, bi in zip(a, b)]
    r, pivots = reference_rref(aug, zero)
    ncols = len(a[0])
    if ncols in pivots:
        return None
    x = [zero] * ncols
    for ri, pc in enumerate(pivots):
        x[pc] = r[ri][ncols]
    return x


def kernel_basis(rows: list, zero, one) -> list[list]:
    """Basis of the right kernel over the scalars' own field from the
    reference form, one vector per free column: the generic form of
    ``linalg.kernel_basis_mod_p``, which gives these vectors as residues
    over a prime field."""
    if not rows:
        return []
    ncols = len(rows[0])
    r, pivots = reference_rref(rows, zero)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = one
        for ri, pc in enumerate(pivots):
            vec[pc] = zero - r[ri][fc]
        basis.append(vec)
    return basis


def dense_kernel_basis_mod_p(rows: list[dict], ncols: int, p: int) -> list[list[int]]:
    """``linalg.kernel_basis_mod_p`` as dense residue lists, by the loop it
    replaced: one zero vector per free column, with a 1 at the free column
    and, for each pivot row holding the free column, minus that entry at
    the pivot."""
    sparse = [{c: x % p for c, x in row.items() if x % p} for row in rows]
    reduced, pivots = _gauss_jordan(sparse, p)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc not in pivot_set:
            vec = [0] * ncols
            vec[fc] = 1
            for row, pc in zip(reduced, pivots):
                if fc in row:
                    vec[pc] = -row[fc] % p
            basis.append(vec)
    return basis


def densify(vectors: SparseRows) -> list[list[int]]:
    """The vectors as dense lists of residues."""
    dense = []
    for vec in vectors.rows:
        row = [0] * vectors.ncols
        for c, x in vec.items():
            row[c] = x
        dense.append(row)
    return dense


def inverse(a: list, zero, one) -> list:
    n = len(a)
    aug = [list(row) + list(idr) for row, idr in zip(a, identity(n, zero, one))]
    r, pivots = reference_rref(aug, zero)
    if pivots != list(range(n)):
        raise InternalInvariantError("matrix is singular")
    return [row[n:] for row in r]


# -- Smith reduction over the valuation ring ---------------------------------------
#
# The program reads every profile off a diagonal transition and every
# membership off a triangular one; these reduce a general transition.


def identity(n: int, zero, one) -> list:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _min_val_position(a: list, start: int) -> tuple[int, int] | None:
    best = None
    best_val = INF
    for i in range(start, len(a)):
        for j in range(start, len(a[0])):
            v = a[i][j].valuation()
            if v < best_val:
                best_val = v
                best = (i, j)
    return best if best_val is not INF else None


def smith_over_dvr(m: list) -> tuple[list, list]:
    """Decompose m = u * d * v with u, v invertible over the valuation ring
    and d diagonal with i-th entry pihat^evals[i] (ascending ints, the doubled
    valuations of the entries; absent entries are zero).

    Returns (u, evals); u is nrows x nrows.  v is not built: row t of
    u^-1 * m is pihat^evals[t] times row t of v.
    """
    nrows, ncols = len(m), len(m[0]) if m else 0
    if nrows == 0 or ncols == 0:
        return [], []
    p = m[0][0].p
    a = [list(r) for r in m]
    zero, one = ScalarKHat.zero(p), ScalarKHat.one(p)
    u = identity(nrows, zero, one)
    evals = []
    for t in range(min(nrows, ncols)):
        pos = _min_val_position(a, t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            a[t], a[i] = a[i], a[t]
            for row in u:
                row[t], row[i] = row[i], row[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
        pivot = a[t][t]
        e = pivot.valuation()
        # Normalize the pivot to exactly pihat^e: scale row t by the unit
        # pihat^e/pivot, compensating in u.
        target = ScalarKHat.pihat(p, e)
        unit = scalar_div(target, pivot)
        a[t] = [x * unit for x in a[t]]
        unit_inv = unit.inverse()
        for row in u:
            row[t] = row[t] * unit_inv
        for i2 in range(t + 1, nrows):
            if not a[i2][t].is_zero():
                f = scalar_div(a[i2][t], a[t][t])
                if f.valuation() < 0:
                    raise InternalInvariantError("pivot was not minimal")
                a[i2] = [x - f * y for x, y in zip(a[i2], a[t])]
                for row in u:
                    row[t] = row[t] + f * row[i2]
        # Row t is not cleared right of the pivot: the column operations
        # would only build v, and later pivots read the rows below t alone.
        evals.append(e)
    return u, evals


def transition_matrix(src: Lattice, dst: Lattice) -> list:
    """Coordinates of dst's generators in src's basis:
    diag(pihat^-src.scale) * dual_act(src.g^-1 * dst.g) * diag(pihat^dst.scale),
    with entries M[j][i] * (num/den) * pihat^(e + t_j - s_i) for sym(dst.g^-1 src.g)."""
    p = src.p
    m, num, den, e = sym_ints(dst.g.inv() @ src.g, src.k, p)
    return [
        [_times_pihat(p, m[j][i] * num, den, e + t - s) for j, t in enumerate(dst.scale)]
        for i, s in enumerate(src.scale)
    ]


def relative_profile(sup: Lattice, sub: Lattice) -> tuple:
    """Ascending elementary-divisor valuations of sub relative to sup."""
    return tuple(half(e) for e in smith_over_dvr(transition_matrix(sup, sub))[1])


def lattice_contains_vector(l: Lattice, vec: list) -> bool:
    """Whether vec's coordinates in l's basis are integral: coordinate j of
    dual_act(g^-1) * vec, which is sym(g)^T * vec, has doubled valuation at
    least scale[j], for any lattice.  With vec = (a + b*pihat)/L and sym(g) =
    M * (num/den) * pihat^e, it is (num/(den L)) * pihat^e * (M^T a + pihat * M^T b).
    The program's ``in_edge_lattice`` reads edge lattices off the triangular M."""
    p = l.p
    m, num, den, e = sym_ints(l.g, l.k, p)
    a, b, common = _common_denominator(vec)
    shift = 2 * (_vp(num, p) - _vp(den * common, p)) + e
    for col, s in zip(zip(*m), l.scale):
        if _twice_valuation(sum(map(mul, col, a)), sum(map(mul, col, b)), p) + shift < s:
            return False
    return True


# -- lattice profiles and local spaces over the symmetric power's ints ----------------
#
# The program reads the profiles and the local spaces' residues from the
# closed form of the entries and a table of p-adic factorials
# (``lattices.vertex_lattice_profile``, ``lattices._child_rows``, and the
# general ``_residue_rows`` above).  These
# build the matrix of big ints and read every entry: ``sym_ints`` the lower
# triangular one by Pascal's rule, ``dense_sym_ints`` that of any g by
# ``substitution_matrix``'s polynomial products.


class NonInvertibleDeterminant(DrinfeldError):
    """The determinant is not invertible in the coefficient ring."""


def sym_ints(g: Mat2, k: int, p: int) -> tuple:
    """The twisted action F -> det(g) * chi(g)^-(k+2) * F(dX+bY, cX+aY) as
    M * (num/den) * pihat^e for g = [[A, 0], [C, D]]/N: num/den is AD/N^(k+2),
    e = -(k+2) v_p(det g), and column j of M is D^j (A + C t)^(k-j) from row j
    down, so entry (i, j), j <= i, is D^j C(k-j, i-j) C^(i-j) A^(k-i): O(k^2)
    int operations by Pascal's rule.  B != 0 is a broken invariant."""
    A, B, C, D, N = g.A, g.B, g.C, g.D, g.N
    if A * D == B * C:
        raise NonInvertibleDeterminant("determinant is zero")
    if B:
        raise InternalInvariantError("a symmetric power is taken only of a lower triangular matrix")
    rows = [[1]]
    for _ in range(k):
        rows.append([A * x + C * y for x, y in zip(rows[-1] + [0], [0] + rows[-1])])
    columns = [[0] * j + [D**j * x for x in rows[k - j]] for j in range(k + 1)]
    return transpose(columns), A * D, N ** (k + 2), -(k + 2) * g.omega_det(p)


def dense_sym_ints(g: Mat2, k: int, p: int) -> tuple:
    """``sym_ints``'s (M, num, den, e) for any invertible g, with M the
    ``substitution_matrix`` of the ints A, B, C, D."""
    A, B, C, D, N = g.A, g.B, g.C, g.D, g.N
    if A * D == B * C:
        raise NonInvertibleDeterminant("determinant is zero")
    return substitution_matrix(A, B, C, D, k, int), A * D - B * C, N ** (k + 2), -(k + 2) * g.omega_det(p)


def reference_vertex_profile(v: Vertex, k: int) -> tuple:
    """``vertex_lattice_profile`` as the least valuation in each row of the
    dense sym(g^-1) = M * (num/den) * pihat^e."""
    m, num, den, e = dense_sym_ints(vertex_transporter(v).inv(), k, v.p)
    shift = 2 * (_vp(num, v.p) - _vp(den, v.p)) + e
    return tuple(half(min(2 * _vp(x, v.p) for x in row if x) + shift) for row in m)


def reference_edge_profile(e: Edge, k: int) -> tuple:
    """``edge_lattice_profile`` as the sorted, clamped diagonal of the dense
    transition at the standard edge, checked entry by entry to be diagonal."""
    p = e.u.p
    m, num, den, shift = dense_sym_ints(vertex_transporter(make_vertex(p, -1, 0)).inv(), k, p)
    if any((x != 0) != (i == j) for i, row in enumerate(m) for j, x in enumerate(row)):
        raise InternalInvariantError("the transition at the standard edge is not diagonal")
    shift += 2 * (_vp(num, p) - _vp(den, p))
    return tuple(sorted(max(Fraction(0), half(2 * _vp(row[i], p) + shift)) for i, row in enumerate(m)))


def reference_local_rows(src: Lattice, dst: Lattice) -> list:
    """The rows of residues mod p that ``local_space`` reduces, read from
    the dense transition: entry (j, i) is M[j][i] * (num/den) *
    pihat^(e + t_j - s_i) mod pihat, and a negative valuation raises."""
    p = src.p
    m, num, den, e = dense_sym_ints(dst.g.inv() @ src.g, src.k, p)

    def unit(n: int) -> int:
        return n // p ** _vp(n, p)

    rows = []
    for row, t in zip(m, dst.scale):
        rows.append([])
        for x, s in zip(row, src.scale):
            twice = 2 * (_vp(x * num, p) - _vp(den, p)) + e + t - s if x else INF
            if twice < 0:
                raise NegativeValuation(f"transition entry has valuation {half(twice)} < 0")
            rows[-1].append(0 if twice else unit(x * num) * pow(unit(den), -1, p) % p)
    return rows


def fraction_standard_profiles(p: int, k: int) -> tuple[dict, dict]:
    """``cli._standard_profiles`` as the ``Fraction`` lists it once built:
    the dense profiles of the axis vertices at levels 0, 1 and -1 and of the
    standard edge, and their closed forms."""
    computed = {f"gamma{m}": list(reference_vertex_profile(make_vertex(p, m, 0), k)) for m in (0, 1, -1)}
    computed["standard_edge"] = list(reference_edge_profile(standard_edge(p), k))
    predicted = {f"gamma{m}": [Fraction(m * (k - 2 * j), 2) for j in range(k + 1)] for m in (0, 1, -1)}
    predicted["standard_edge"] = [Fraction(max(0, 2 * j - k), 2) for j in range(k + 1)]
    return computed, predicted


def reference_star_local_kernel(v: Vertex, k: int) -> int:
    """``lattices.star_local_kernel`` as the star at v itself: one D-space
    per edge at v, each reduced from v's own transition, stacked and ranked
    in one elimination."""
    vectors = [x for e in edges_at(v) for x in d_space_basis(e, v, k)]
    return len(vectors) - rank(vectors, v.p)


# -- lattices as basis matrices -------------------------------------------------------
#
# A lattice here is a square basis matrix whose columns generate it over the
# valuation ring.  The program builds edge lattices and endpoint sums as
# column scalings of the child's vertex lattice; Smith reduction finds them
# from the two lattices alone.


def scale_columns(m: list, exponents) -> list:
    """m with column j multiplied by pihat^exponents[j]."""
    p = m[0][0].p
    return [[x * ScalarKHat.pihat(p, e) for x, e in zip(row, exponents)] for row in m]


def lattice_basis(l: Lattice) -> list:
    """The basis matrix dual_act(g) * diag(pihat^scale[j]) of a program lattice."""
    return scale_columns(dual_act_matrix(l.g, l.k, l.p), l.scale)


def basis_transition(src: list, dst: list) -> list:
    """Coordinates of dst's columns in src's basis."""
    p = src[0][0].p
    return mat_mul(inverse(src, ScalarKHat.zero(p), ScalarKHat.one(p)), dst)


def basis_contains_vector(basis: list, vec: list) -> bool:
    coords = solve(basis, vec, ScalarKHat.zero(basis[0][0].p))
    return coords is not None and all(is_integral(x) for x in coords)


def basis_contains(outer: list, inner: list) -> bool:
    return all(basis_contains_vector(outer, list(col)) for col in zip(*inner))


def basis_equal(a: list, b: list) -> bool:
    return basis_contains(a, b) and basis_contains(b, a)


def basis_relative_profile(sup: list, sub: list) -> tuple:
    """Ascending elementary-divisor valuations of sub relative to sup."""
    return tuple(half(e) for e in smith_over_dvr(basis_transition(sup, sub))[1])


def _adapted(m1: list, m2: list, clamp) -> list:
    u, evals = smith_over_dvr(basis_transition(m1, m2))
    return scale_columns(mat_mul(m1, u), [clamp(e) for e in evals])


def lattice_intersection(m1: list, m2: list) -> list:
    return _adapted(m1, m2, lambda e: max(e, 0))


def lattice_sum(m1: list, m2: list) -> list:
    return _adapted(m1, m2, lambda e: min(e, 0))


def endpoint_sum(child: list) -> list:
    """The sum of an edge's two endpoint lattices as the child's basis with
    column j scaled by pihat^min(0, 2j - k)."""
    k = len(child) - 1
    return scale_columns(child, [min(0, 2 * j - k) for j in range(k + 1)])


# -- local spaces by reduced transition matrices ------------------------------------
#
# The program reduces the transition it reads off two transporters and two
# column scalings; these reduce the transition between the basis matrices.


def reduced_column_space(t: list, field: FiniteField) -> list:
    """Basis of the column space of t mod pihat, as rows of residues mod p:
    the reference form over ``field``, F_p."""
    reduced = [[field.elem(reduce_mod_pihat(x)) for x in row] for row in t]
    rows, pivots = reference_rref([list(col) for col in zip(*reduced)], field.zero())
    return [[x.n for x in row] for row in rows[: len(pivots)]]


def transition_d_space_basis(e: Edge, side: Vertex, k: int) -> list:
    t = basis_transition(
        lattice_basis(vertex_lattice(side, k)), lattice_basis(edge_lattice(e, k))
    )
    return reduced_column_space(t, Fq(e.u.p))


def transition_e_space_basis(e: Edge, k: int) -> list:
    total = endpoint_sum(lattice_basis(vertex_lattice(child_endpoint(e), k)))
    t = basis_transition(total, lattice_basis(edge_lattice(e, k)))
    return reduced_column_space(t, Fq(e.u.p))


# -- sections ------------------------------------------------------------------------


def scalar_div(a, b):
    """a / b in a field of the tests, where a or b may be a ``ScalarKHat``
    and the other a rational: no command divides scalars, so ``ScalarKHat``
    has no ``/``."""
    if not isinstance(a, ScalarKHat) and not isinstance(b, ScalarKHat):
        return a / b
    p = a.p if isinstance(a, ScalarKHat) else b.p
    lift = lambda x: x if isinstance(x, ScalarKHat) else ScalarKHat.from_rational(x, p)
    return lift(a) * lift(b).inverse()


def poly_shift(u: poly.Poly, x0, upto: int) -> poly.Poly:
    """Coefficients of u(x0 + w) in w below degree `upto`: the remainders of
    repeated synthetic division by z - x0."""
    out = []
    rest = list(u)
    while rest and len(out) < upto:
        acc = rest[-1]
        quotient = [acc]
        for c in reversed(rest[:-1]):
            acc = acc * x0 + c
            quotient.append(acc)
        out.append(quotient.pop())
        rest = quotient[::-1]
    return poly.trim(out)


class OracleRational(FactoredRational):
    """lead * extra(z) * prod (z - root)^mult with extra, monic, held as the
    scalar tuple ``coeffs`` ((one,) for none) beside the program's ints, so
    that the program's printer and valuations read it as they read a theta
    image.  It has the algebra that the program keeps only for functions with
    no extra: products, powers, the inverse, equality of the expanded
    numerators cross-multiplied, and ``refactored``, which pulls the known
    roots and 0 out of extra.  Sums, single derivatives and Mobius transforms
    build it."""

    __slots__ = ("coeffs",)

    def __init__(
        self,
        p: int,
        lead: ScalarKHat,
        factors=(),
        extra: poly.Poly | None = None,
    ) -> None:
        one = ScalarKHat.one(p)
        coeffs = poly.trim(tuple(extra)) if extra is not None else (one,)
        if lead.is_zero() or not coeffs:
            super().__init__(p, ScalarKHat.zero(p))
            self.coeffs = (one,)
            return
        top = coeffs[-1]
        if top != one:
            lead, coeffs = lead * top, poly.scale(coeffs, top.inverse())
        super().__init__(p, lead, factors, _common_denominator(list(coeffs)) if len(coeffs) > 1 else None)
        self.coeffs = coeffs

    @classmethod
    def of(cls, f: FactoredRational) -> "OracleRational":
        """f as an oracle section: its extra's ints read back as scalars."""
        if isinstance(f, cls):
            return f
        extra = [_make(f.p, x, y, f.extra[2]) for x, y in zip(*f.extra[:2])] if f.extra else None
        return cls(f.p, f.lead, f.factors, extra)

    def num_den(self) -> tuple[poly.Poly, poly.Poly]:
        """Expanded (numerator, denominator); denominator monic."""
        zero, one = ScalarKHat.zero(self.p), ScalarKHat.one(self.p)
        num, den = poly.scale(self.coeffs, self.lead), (one,)
        for root, mult in self.factors:
            lin = (-root, one)
            if mult > 0:
                num = poly.mul(num, poly.power(lin, mult, zero, one), zero)
            else:
                den = poly.mul(den, poly.power(lin, -mult, zero, one), zero)
        return num, den

    def refactored(self) -> "OracleRational":
        """Pull candidate linear factors (known roots and 0) out of extra."""
        if self.is_zero() or len(self.coeffs) <= 1:
            return self
        extra = self.coeffs
        factors = {(r.A, r.B, r.D): [r, m] for r, m in self.factors}
        zero = ScalarKHat.zero(self.p)
        by_key = {key: r for key, (r, _) in factors.items()} | {(0, 0, 1): zero}
        for root in sorted(by_key.values(), key=_value_key(by_key.values())):
            lin = (-root, ScalarKHat.one(self.p))
            while len(extra) > 1:
                q, r = poly.divmod(extra, lin, zero)
                if r:
                    break
                extra = q
                factors.setdefault((root.A, root.B, root.D), [root, 0])[1] += 1
        return OracleRational(self.p, self.lead, [(r, m) for r, m in factors.values()], extra)

    def __mul__(self, other: "FactoredRational | ScalarKHat") -> "OracleRational":
        if isinstance(other, ScalarKHat):
            return OracleRational(self.p, self.lead * other, self.factors, self.coeffs)
        other = OracleRational.of(other)
        extra = poly.mul(self.coeffs, other.coeffs, ScalarKHat.zero(self.p))
        return OracleRational(self.p, self.lead * other.lead, self.factors + other.factors, extra)

    __rmul__ = __mul__

    def inverse(self) -> "OracleRational":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        if len(self.coeffs) > 1:
            raise InvalidParameters("cannot invert an unfactored polynomial part")
        return OracleRational(self.p, self.lead.inverse(), [(r, -m) for r, m in self.factors])

    def __pow__(self, n: int) -> "OracleRational":
        if n < 0:
            return self.inverse() ** (-n)
        extra = poly.power(self.coeffs, n, ScalarKHat.zero(self.p), ScalarKHat.one(self.p))
        return OracleRational(self.p, self.lead**n, [(r, m * n) for r, m in self.factors], extra)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactoredRational):
            return NotImplemented
        (n1, d1), (n2, d2) = self.num_den(), OracleRational.of(other).num_den()
        zero = ScalarKHat.zero(self.p)
        return poly.mul(n1, d2, zero) == poly.mul(n2, d1, zero)


def compose_mobius(f: FactoredRational, mat: Mat2, p: int) -> OracleRational:
    """f((a z + b)/(c z + d)) for the literal matrix entries of mat."""
    if f.is_zero():
        return OracleRational.of(f)
    lift = lambda x: ScalarKHat.from_rational(x, p)
    A, B, C, D = lift(mat.a), lift(mat.b), lift(mat.c), lift(mat.d)
    one = ScalarKHat.one(p)
    lead = f.lead
    factors: list[tuple[ScalarKHat, int]] = []
    denom_exp = 0  # accumulated power of (C z + D)
    for root, mult in f.factors:
        top_lin = A - root * C
        top_const = B - root * D
        if not top_lin.is_zero():
            lead = lead * top_lin**mult
            factors.append((scalar_div(root * D - B, top_lin), mult))
        else:
            lead = lead * top_const**mult
        denom_exp -= mult
    extra = OracleRational.of(f).coeffs
    n = len(extra) - 1
    if n > 0:
        extra = homogenise(extra, (B, A), (D, C), ScalarKHat.zero(p), one)
        denom_exp -= n
    if denom_exp != 0:
        if not C.is_zero():
            lead = lead * C**denom_exp
            factors.append((scalar_div(-D, C), denom_exp))
        else:
            lead = lead * D**denom_exp
    return OracleRational(p, lead, factors, extra).refactored()


def poly_derivative(u: poly.Poly, one) -> poly.Poly:
    """u' for a dense polynomial over the ring of ``one``."""
    out, i = [], one
    for c in u[1:]:
        out.append(c * i)
        i = i + one
    return poly.trim(out)


def _derivative_once(f: FactoredRational) -> OracleRational:
    """f' = lead * [E' L + E sum m_i L / (z - r_i)] * prod (z - r_i)^(m_i - 1)
    for L = prod (z - r_i), refactored over the roots left and 0."""
    f = OracleRational.of(f)
    if f.is_zero():
        return f
    zero, one = ScalarKHat.zero(f.p), ScalarKHat.one(f.p)
    lins = [(-r, one) for r, _ in f.factors]
    prod_all: poly.Poly = (one,)
    for lin in lins:
        prod_all = poly.mul(prod_all, lin, zero)
    bracket = poly.mul(poly_derivative(f.coeffs, one), prod_all, zero)
    for i, (root, mult) in enumerate(f.factors):
        partial: poly.Poly = (one,)
        for j, lin in enumerate(lins):
            if j != i:
                partial = poly.mul(partial, lin, zero)
        term = poly.scale(poly.mul(f.coeffs, partial, zero), ScalarKHat.from_rational(mult, f.p))
        bracket = poly.add(bracket, term)
    reduced = [(r, m - 1) for r, m in f.factors]
    return OracleRational(f.p, f.lead, reduced, bracket).refactored()


def neg_rational(f: FactoredRational) -> OracleRational:
    return OracleRational(f.p, -f.lead, f.factors, OracleRational.of(f).coeffs)


def add_rational(f: FactoredRational, g: FactoredRational) -> OracleRational:
    """f + g: the numerators cross-multiplied over the product of the
    denominators, then the known roots and 0 pulled out of the sum."""
    f, g = OracleRational.of(f), OracleRational.of(g)
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    (n1, d1), (n2, d2) = f.num_den(), g.num_den()
    zero = ScalarKHat.zero(f.p)
    num = poly.add(poly.mul(n1, d2, zero), poly.mul(n2, d1, zero))
    poles = [(r, -m) for r, m in f.denominator_roots() + g.denominator_roots()]
    return OracleRational(f.p, ScalarKHat.one(f.p), poles, num).refactored()


def sub_rational(f: FactoredRational, g: FactoredRational) -> FactoredRational:
    return add_rational(f, neg_rational(g))


def div_rational(f: FactoredRational, g: FactoredRational) -> FactoredRational:
    return f * g.inverse()


def derivative_by_steps(f: FactoredRational, order: int) -> OracleRational:
    """The order-th derivative as ``order`` single derivatives, each one
    refactored: what ``FactoredRational.derivative`` does in one pass."""
    f = OracleRational.of(f)
    for _ in range(order):
        f = _derivative_once(f)
    return f


def _zscale(u: tuple, s: int) -> tuple:
    return poly.scale(u[0], s), poly.scale(u[1], s) if u[1] else ()


def _zderivative(u: tuple) -> tuple:
    return poly_derivative(u[0], 1), poly_derivative(u[1], 1) if u[1] else ()


def derivative_by_recurrence(f: FactoredRational, order: int) -> FactoredRational:
    """The order-th derivative by one recurrence on int coefficient tuples,
    the reference at large orders, where ``derivative_by_steps`` refactors
    too often to run.

    Write f = lead * E * prod (z - r_i)^m_i, refactored.  While the set S of
    roots still in f^(j) (the poles, and the zeros with m_i > j) stays the
    same, f^(j) = lead * Q_j * prod_S (z - r_i)^(m_i - j) with Q_0 = E and
    Q_(j+1) = Q_j' L + Q_j (A - j L'), where L = prod_S (z - r_i) and
    A = sum_S m_i L / (z - r_i); a zero leaves S at the step where its
    exponent reaches 0.  The recurrence runs on D L, D A and c Q_j over
    Z[pihat], for D the product of the denominators D_i of the roots in S
    and c the common denominator so far, and the image is built once."""
    f = OracleRational.of(f).refactored()
    if order == 0 or f.is_zero():
        return f
    p = f.p
    real, pihat, scale = _common_denominator(list(f.coeffs))
    q = (poly.trim(real), poly.trim(pihat))
    # S changes only where a zero's exponent reaches 0
    cuts = sorted({m for _, m in f.factors if 0 < m < order} | {0, order})
    for start, stop in zip(cuts, cuts[1:]):
        ell, weighted, denominator = ((1,), ()), ((), ()), 1
        for r, m in f.factors:
            if m < 0 or m > start:
                lin = ((-r.A, r.D), poly.trim((-r.B,)))
                weighted = _zadd(_zmul(weighted, lin, p), _zscale(ell, m * r.D))
                ell = _zmul(ell, lin, p)
                denominator *= r.D
        neg_ell_prime = _zscale(_zderivative(ell), -1)
        bracket = _zadd(weighted, _zscale(neg_ell_prime, start))
        for _ in range(start, stop):
            q = _zadd(_zmul(_zderivative(q), ell, p), _zmul(q, bracket, p))
            bracket = _zadd(bracket, neg_ell_prime)
        scale *= denominator ** (stop - start)
    coeffs = [_make(p, a, b, 1) for a, b in itertools.zip_longest(*q, fillvalue=0)]
    low = next((i for i, c in enumerate(coeffs) if c), 0)
    kept = [(r, m - order) for r, m in f.factors if m < 0 or m > order]
    kept.append((ScalarKHat.zero(p), low))
    return OracleRational(p, f.lead * _make(p, 1, 0, scale), kept, coeffs[low:])


def chi(g: Mat2, p: int, exponent: int = 1) -> ScalarKHat:
    """The uniformizer character: pihat^(exponent * val(det g))."""
    if g.A * g.D == g.B * g.C:
        raise NonInvertibleDeterminant("determinant is zero")
    return ScalarKHat.pihat(p, exponent * g.omega_det(p))


def transported_gauss_valuation(f: FactoredRational, g: Mat2, k: int) -> int | float:
    """Doubled valuation 2*omega on the unit circle of the coordinate (the
    base-vertex tube) of the weight-k transport
    g.f = chi^k(g) (a + c z)^(-k) f((b + d z)/(a + c z)), without building
    the transported section, for any invertible g over K-hat: what
    ``rational.gauss_valuation`` reads from a vertex's ints.

    The Gauss valuation is multiplicative (Gauss's lemma), so it is read factor
    by factor: with m = min(omega(a), omega(c)), a factor (w - y) becomes
    ((b - a y) + (d - c y) z) / (a + c z), extra becomes its homogenisation
    sum e_i (b + d z)^i (a + c z)^(n - i) over (a + c z)^n, and the automorphy
    factor chi^k(g) (a + c z)^(-k) contributes k omega(chi(g)) - k m.
    """
    if f.is_zero():
        return INF
    p, f = f.p, OracleRational.of(f)
    a, b, c, d = g.lift(p)
    degree = len(f.coeffs) - 1
    total = chi(g, p, k).valuation() + f.lead.valuation()
    for root, mult in f.factors:
        degree += mult
        total += mult * min((d - c * root).valuation(), (b - a * root).valuation())
    if len(f.coeffs) > 1:
        moved = homogenise(f.coeffs, (b, d), (a, c), ScalarKHat.zero(p), ScalarKHat.one(p))
        total += min(x.valuation() for x in moved)
    return total - (k + degree) * min(a.valuation(), c.valuation())


def automorphic_act(g: Mat2, f: FactoredRational, k: int) -> FactoredRational:
    """Weight-k action: chi^k(g) * (a + c z)^{-k} * f((b + d z)/(a + c z)),
    built as a section; ``transported_gauss_valuation`` reads its valuation
    without building it.

    This is a left action: acting by g1 then by g2 equals acting by g2 g1.
    """
    p = f.p
    if f.is_zero():
        return f
    pulled = compose_mobius(f, Mat2(g.d, g.b, g.c, g.a), p)
    scalar = chi(g, p, k)
    lift = lambda x: ScalarKHat.from_rational(x, p)
    if k != 0:
        if g.c != 0:
            c = lift(g.c)
            pulled = pulled * FactoredRational(
                p, c ** (-k), [(scalar_div(-lift(g.a), c), -k)]
            )
        else:
            scalar = scalar * lift(g.a) ** (-k)
    return pulled * scalar


def raw_gauss_valuation(f: FactoredRational) -> Fraction | float:
    """Valuation of f on the unit circle of the coordinate (base-vertex tube):
    omega(lead) + sum mult*min(0, omega(root)) + min over extra coefficients."""
    if f.is_zero():
        return INF
    total = fraction_valuation(f.lead)
    for root, mult in f.factors:
        total += mult * min(Fraction(0), fraction_valuation(root))
    total += min(fraction_valuation(c) for c in OracleRational.of(f).coeffs)
    return total


def rescale_to_gauss_bound(
    f: FactoredRational, v: Vertex, bound: Fraction
) -> FactoredRational:
    """Multiply f by the uniformizer power that puts its Gauss valuation at v
    exactly on the bound (or half a step above when the gap is not a multiple
    of the uniformizer valuation)."""
    # the uniformizer power that closes the doubled gap, rounded up
    steps = math.ceil(2 * bound - gauss_valuation(f, v))
    if steps == 0:
        return f
    return f * ScalarKHat.pihat(f.p, steps)


def counted_poles_by_transporter(parts: list, gamma: Mat2, p: int) -> tuple[tuple, int]:
    """The poles ``harmonic.res0`` sums on the edge that gamma moves to the
    standard edge, and their sign, from the four entries of any such gamma:
    those in the disc omega((a y - b)/(d - c y)) >= 1 with sign sigma(gamma),
    or, when the disc holds -a/c = gamma^-1(infinity), those outside with
    -sigma(gamma).  The program reads them from the child vertex's ints.  A
    refusal names the least pole in the annulus and the edge's child end,
    gamma^-1 applied to the standard vertex."""
    a, b, c, d = gamma.lift(p)
    inner, outer, in_annulus = [], [], []
    for i, (y, _) in enumerate(parts):
        alpha, beta = a * y - b, d - c * y
        if beta.is_zero():  # y = gamma^-1(infinity) lies outside every disc
            outer.append(i)
            continue
        w = alpha.valuation() - beta.valuation()  # doubled: the annulus is 0 < w < 2
        if 0 < w < 2:
            in_annulus.append(y)
        (inner if w >= 2 else outer).append(i)
    _raise_in_annulus(in_annulus, act_on_vertex(gamma.inv(), standard_vertex(p)))
    if not c.is_zero() and scalar_div(a, c).valuation() >= 2:
        return tuple(outer), -sigma(gamma, p)
    return tuple(inner), sigma(gamma, p)


def counted_poles_at_vertex(parts: list, v: Vertex) -> tuple[tuple, int]:
    """The poles ``harmonic.res0`` sums on the edge whose child is v, and
    their sign, read from the ints (L, O, C) of ``_level_and_offset``, one
    vertex at a time: the inverse gamma = [[L, 0], [O, C]] / L of v's
    transporter moves that edge to the standard edge, so the poles y in the
    disc omega(L y / (C - O y)) >= 1 count with sign sigma(gamma), the parity
    of v_p(C) - v_p(L), or, when the disc holds gamma^-1(infinity) = -L/O
    (O != 0 and v_p(L) - v_p(O) >= 1), those outside with -sigma(gamma).
    Only a pole with a pihat part is tested over K-hat.  A refusal names the
    least pole in the annulus, and v."""
    p, (L, O, C) = v.p, _level_and_offset(v.p, v.m, v.n, v.d)
    inner, outer, in_annulus, c = [], [], [], None
    for i, (y, _) in enumerate(parts):
        if y.B:
            if c is None:
                c, d = _make(p, O, 0, L), _make(p, C, 0, L)
            beta = d - c * y
            w = y.valuation() - beta.valuation()  # doubled: the annulus is 0 < w < 2
            if 0 < w < 2:
                in_annulus.append(y)
            inside = w >= 2
        else:
            top, bottom = L * y.A, C * y.D - O * y.A
            inside = not top or (bottom != 0 and _vp(top, p) - _vp(bottom, p) >= 1)
        (inner if inside else outer).append(i)
    _raise_in_annulus(in_annulus, v)
    sign = -1 if (_vp(C, p) - _vp(L, p)) % 2 else 1
    if O and _vp(L, p) - _vp(O, p) >= 1:
        return tuple(outer), -sign
    return tuple(inner), sign


def res_kills_theta(f: FactoredRational, k: int, tree: TruncatedTree) -> bool:
    """Residue cochain of the theta image is identically zero."""
    return support(res0(theta(f, k), k, tree)) == []


def kernel_polynomial_dimension(k: int, p: int) -> int:
    """Dimension of the kernel of theta on polynomials of degree up to k+3,
    by the reference rank over K-hat: the reference for the k + 1 that the
    CLI prints."""
    cap = k + 3
    zero = ScalarKHat.zero(p)
    rows = []
    # row r = coefficient of z^r in theta(z^c), columns c = 0..cap
    for r in range(max(1, cap - k)):
        row = []
        for c in range(cap + 1):
            if c - (k + 1) == r:
                row.append(ScalarKHat.from_rational(prod(range(c - k, c + 1)), p))
            else:
                row.append(zero)
        rows.append(row)
    return cap + 1 - reference_rank(rows, zero)


# -- Laurent expansion on the standard annulus ----------------------------------------


@dataclass
class LaurentWindow:
    """Exact Laurent coefficients of a rational function on the annulus between
    the base vertex and its parent (coordinate valuation strictly between 0 and
    1), within [lo, hi], plus affine tail certificates outside the window.

    Each (alpha, beta) pair guarantees every coefficient contribution on that
    side has valuation >= alpha + beta*j; below-window slopes are <= -1 and
    above-window slopes are >= 0, so endpoint checks settle ray comparisons.
    """

    p: int
    lo: int
    hi: int
    coeffs: dict[int, ScalarKHat]
    below: list[tuple[Fraction, Fraction]]
    above: list[tuple[Fraction, Fraction]]

    def coefficient(self, j: int) -> ScalarKHat:
        if not self.lo <= j <= self.hi:
            raise InvalidParameters(f"index {j} outside window [{self.lo}, {self.hi}]")
        return self.coeffs.get(j, ScalarKHat.zero(self.p))


def series_inverse(u: poly.Poly, upto: int, zero):
    """Multiplicative inverse of a power series with invertible constant term,
    truncated below degree `upto`."""
    inv0 = u[0].inverse()
    out = [zero] * upto
    out[0] = inv0
    for n in range(1, upto):
        acc = zero
        for i in range(1, min(n, len(u) - 1) + 1):
            acc = acc + u[i] * out[n - i]
        out[n] = -inv0 * acc
    return poly.trim(out)


def reference_principal_parts(f: FactoredRational) -> list[tuple[ScalarKHat, list]]:
    """``rational.principal_parts`` from the expanded numerator over the
    product of the other poles' factors: the Taylor series of their quotient
    at each pole y of order r, below u^r, by shifts and a series inverse."""
    num, _ = OracleRational.of(f).num_den()
    den_roots = f.denominator_roots()
    zero, one = ScalarKHat.zero(f.p), ScalarKHat.one(f.p)
    out = []
    for root, r in den_roots:
        others = (one,)
        for other_root, other_r in den_roots:
            if other_root is not root:
                others = poly.mul(others, poly.power((-other_root, one), other_r, zero, one), zero)
        series = poly.mul(poly_shift(num, root, r), series_inverse(poly_shift(others, root, r), r, zero), zero)[:r]
        series = series + (zero,) * (r - len(series))
        out.append((root, [series[r - t] for t in range(1, r + 1)]))
    return out


def laurent_standard(f: FactoredRational, lo: int, hi: int) -> LaurentWindow:
    """Laurent data of f on the standard annulus. Poles with coordinate
    valuation >= 1 expand inward (negative side), <= 0 outward (nonnegative
    side); a pole strictly inside the open annulus admits no expansion."""
    p = f.p
    zero = ScalarKHat.zero(p)
    if f.is_zero():
        return LaurentWindow(p, lo, hi, {}, [], [])
    num, den = OracleRational.of(f).num_den()
    den_roots = f.denominator_roots()
    w_lo = min(lo, -sum(m for _, m in den_roots) - 1)
    w_hi = max(hi, max(0, len(num) - len(den)) + 1)
    coeffs: dict[int, ScalarKHat] = {}
    below: list[tuple[Fraction, Fraction]] = []
    above: list[tuple[Fraction, Fraction]] = []

    quotient, _ = poly.divmod(num, den, zero)
    for j, c in enumerate(quotient):
        if w_lo <= j <= w_hi and not c.is_zero():
            coeffs[j] = coeffs.get(j, zero) + c

    for root, parts in reference_principal_parts(f):
        principal = dict(enumerate(parts, 1))  # t -> coeff of (z-root)^-t
        if root.is_zero():
            for t, a in principal.items():
                if w_lo <= -t <= w_hi and not a.is_zero():
                    coeffs[-t] = coeffs.get(-t, zero) + a
            continue
        w = fraction_valuation(root)
        if 0 < w < 1:
            raise PoleInsideAnnulus(
                f"pole at {root} with valuation {w} sits inside the annulus"
            )
        if w >= 1:
            # (z-x)^-t = sum_{s>=t} C(s-1,t-1) x^(s-t) z^(-s)
            for t, a in principal.items():
                if a.is_zero():
                    continue
                for s in range(t, -w_lo + 1):
                    j = -s
                    if j > w_hi:
                        continue
                    term = a * comb(s - 1, t - 1) * root ** (s - t)
                    coeffs[j] = coeffs.get(j, zero) + term
                below.append((fraction_valuation(a) - t * w, -w))
        else:
            # (z-x)^-t = (-1)^t x^-t sum_{i>=0} C(t-1+i, i) (z/x)^i
            for t, a in principal.items():
                if a.is_zero():
                    continue
                inv_pow = root ** (-t)
                sign = -ScalarKHat.one(p) if t % 2 else ScalarKHat.one(p)
                for j in range(max(0, w_lo), w_hi + 1):
                    term = sign * a * comb(t - 1 + j, j) * inv_pow * root ** (-j)
                    coeffs[j] = coeffs.get(j, zero) + term
                above.append((fraction_valuation(a) - t * w, -w))

    coeffs = {j: c for j, c in coeffs.items() if not c.is_zero()}
    return LaurentWindow(p, w_lo, w_hi, coeffs, below, above)


# -- polynomials and rational functions over F_q -----------------------------------


def poly_neg(u: poly.Poly) -> poly.Poly:
    return tuple(-x for x in u)


def monic_gcd(u: poly.Poly, v: poly.Poly, zero) -> poly.Poly:
    """The monic greatest common divisor; () when u and v are both zero."""
    while v:
        u, v = v, poly.divmod(u, v, zero)[1]
    if not u:
        return ()
    return poly.scale(u, u[-1].inverse())


def homogenise(u: poly.Poly, top: poly.Poly, bottom: poly.Poly, zero, one) -> poly.Poly:
    """u(top/bottom) * bottom^deg(u) as a polynomial: the sum of
    c_i top^i bottom^(deg - i) over the nonzero coefficients c_i only.  Each
    power is taken by squaring; in characteristic p the squares of a linear
    form stay sparse ((x + y z)^p = x^p + y^p z^p), which makes this cheaper
    than a table of all powers for sparse u such as z - z^q."""
    deg = len(u) - 1
    acc: poly.Poly = ()
    for i, c in enumerate(u):
        if c:
            term = poly.mul(poly.power(top, i, zero, one), poly.power(bottom, deg - i, zero, one), zero)
            acc = poly.add(acc, poly.scale(term, c))
    return acc


def field_elements(field: FiniteField) -> list:
    """All q elements of ``field``, in code order: the enumeration that the
    oracles below scan, which the program does not need."""
    return [_make_fq(field, n) for n in range(field.q)]


@dataclass(frozen=True)
class FqRatFunc:
    """num/den over F_q as tuples of ``FqElem``s, with den monic and
    gcd(num, den) = 1: the record of an ``FqFraction``."""

    field: FiniteField
    num: tuple
    den: tuple


def fq_function_str(f: FqRatFunc) -> str:
    """``f`` as num or (num)/(den), each the nonzero terms c*z^i joined by
    " + ", a unit c left off but at i = 0, and c printed as its residue over
    F_p and as its coefficient list past it: the text that
    ``cli._image_strs`` prints from codes."""

    def text(coeffs) -> str:
        terms = []
        for i, c in enumerate(coeffs):
            code = str(c.n if c.field.f == 1 else list(c.coeffs))
            zpow = "z" if i == 1 else f"z^{i}"
            if c:
                terms.append(code if i == 0 else zpow if c == c.field.one() else f"{code}*{zpow}")
        return " + ".join(terms)

    num = text(f.num)
    return num if f.den == (f.field.one(),) else f"({num})/({text(f.den)})"


def image_codes(f: FqRatFunc) -> tuple:
    """``f``, whose coefficients lie in F_p, as the (numerator, denominator)
    that ``modp.symgeom_iso`` returns: each the (exponent, residue) pairs of
    its nonzero terms."""
    terms = lambda coeffs: tuple((x, c.n) for x, c in enumerate(coeffs) if c)
    return terms(f.num), terms(f.den)


def dense_terms(pairs: tuple) -> list[int]:
    """The residues c_0, ..., c_n of a polynomial given as the (i, c_i) pairs
    of its nonzero terms by rising i."""
    coeffs = dict(pairs)
    return [coeffs.get(i, 0) for i in range(pairs[-1][0] + 1)]


@dataclass(frozen=True)
class FqFraction:
    """num/den over F_q with den monic and gcd(num, den) = 1, zero being
    ()/(1), with the field operations, each result reduced through a gcd: the
    reference that ``modp.symgeom_iso``'s closed forms are compared against."""

    field: FiniteField
    num: tuple
    den: tuple

    @staticmethod
    def make(field: FiniteField, num, den=None) -> "FqFraction":
        zero = field.zero()
        num = poly.trim(tuple(num))
        den = poly.trim(tuple(den)) if den is not None else (field.one(),)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return FqFraction(field, (), (field.one(),))
        g = monic_gcd(num, den, zero)
        if len(g) > 1:
            num = poly.divmod(num, g, zero)[0]
            den = poly.divmod(den, g, zero)[0]
        lead_inv = den[-1].inverse()
        return FqFraction(field, poly.scale(num, lead_inv), poly.scale(den, lead_inv))

    @staticmethod
    def of(f: FqRatFunc) -> "FqFraction":
        return FqFraction(f.field, f.num, f.den)

    @staticmethod
    def zero(field: FiniteField) -> "FqFraction":
        return FqFraction(field, (), (field.one(),))

    def record(self) -> FqRatFunc:
        """The same function as an ``FqRatFunc`` record, the form the
        comparison-map oracles return."""
        return FqRatFunc(self.field, self.num, self.den)

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: "FqFraction") -> "FqFraction":
        zero = self.field.zero()
        num = poly.add(poly.mul(self.num, other.den, zero), poly.mul(other.num, self.den, zero))
        return FqFraction.make(self.field, num, poly.mul(self.den, other.den, zero))

    def __neg__(self) -> "FqFraction":
        return FqFraction(self.field, poly_neg(self.num), self.den)

    def __sub__(self, other: "FqFraction") -> "FqFraction":
        return self + (-other)

    def __mul__(self, other: "FqFraction") -> "FqFraction":
        zero = self.field.zero()
        return FqFraction.make(
            self.field, poly.mul(self.num, other.num, zero), poly.mul(self.den, other.den, zero)
        )

    def inverse(self) -> "FqFraction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return FqFraction.make(self.field, self.den, self.num)

    def __truediv__(self, other: "FqFraction") -> "FqFraction":
        return self * other.inverse()

    def __pow__(self, n: int) -> "FqFraction":
        if n < 0:
            return self.inverse() ** (-n)
        # powers of coprime polynomials stay coprime, and of a monic one monic
        zero, one = self.field.zero(), self.field.one()
        return FqFraction(
            self.field, poly.power(self.num, n, zero, one), poly.power(self.den, n, zero, one)
        )


def window_poly(field: FiniteField) -> tuple:
    """z - z^q, whose reciprocal is the weight-(q+1) window form."""
    coeffs = [field.zero()] * (field.q + 1)
    coeffs[1] = field.one()
    coeffs[field.q] = -field.one()
    return tuple(coeffs)


def weight_action_p1(g, f: FqFraction, k: int) -> FqFraction:
    """(a+cz)^(-k) * f((b+dz)/(a+cz)) for g = [[a,b],[c,d]]."""
    field = f.field
    if f.is_zero():
        return FqFraction.zero(field)
    zero, one = field.zero(), field.one()
    a, b, c, d = modp._lift_matrix(field, g)
    n_poly = (b, d)  # b + d z
    d_poly = (a, c)  # a + c z
    num = homogenise(f.num, n_poly, d_poly, zero, one)
    den = homogenise(f.den, n_poly, d_poly, zero, one)
    # rebalance the homogenization: multiply by d_poly^(deg den - deg num - k)
    e = (len(f.den) - 1) - (len(f.num) - 1) - k
    if e >= 0:
        num = poly.mul(num, poly.power(d_poly, e, zero, one), zero)
    else:
        den = poly.mul(den, poly.power(d_poly, -e, zero, one), zero)
    return FqFraction.make(field, num, den)


def sl2_generators(field: FiniteField) -> list:
    """Generators of the determinant-one group: the upper and lower unipotents
    with entries 1, w, ..., w^(f-1) for a primitive element w.  These entries
    span F_q over F_p, so they give every unipotent, and the unipotents
    generate the group."""
    one, zero, w = field.one(), field.zero(), field.primitive_element()
    gens = []
    for i in range(field.f):
        x = w**i
        gens += [((one, x), (zero, one)), ((one, zero), (x, one))]
    return gens


# -- the quotient representation and the comparison map over F_q ----------------------


def quotient_structure_by_elimination(q: int, k: int, i: int) -> tuple[list, object]:
    """The free monomials and the reduction of ``modp._quotient_structure``,
    by row reduction of the t - q relation rows X^j - X^(j+q-1): the
    elimination that the fold replaced."""
    field = Fq(q)
    t, _ = symgeom_parameters(q, k, i)
    relations = []
    for j in range(1, t - q + 1):
        row = [field.zero()] * (t + 1)
        row[j] = field.one()
        row[q + j - 1] = row[q + j - 1] - field.one()
        relations.append(row)
    reduced, pivots = reference_rref(relations, field.zero())
    free = [c for c in range(t + 1) if c not in set(pivots)]

    def reduce_vector(vec: list) -> tuple:
        work = list(vec)
        for row, pc in zip(reduced, pivots):
            coef = work[pc]
            if coef:
                work = [w - coef * r for w, r in zip(work, row)]
        return tuple(work[c] for c in free)

    return free, reduce_vector


def generator_matrices_fq(s: dict) -> list:
    """(matrix, unipotent) for each of ``modp.gl2_generators``: its ``FqElem``
    matrix on the quotient ``s`` (``modp._quotient_structure``) against the
    free monomial classes, and whether it has trace 2 and determinant 1,
    which makes 1 its only eigenvalue, on Sym^t and on the quotient.  Both
    the generators and ``modp.sym_matrix_codes`` are read at call time, so a
    patch of either reaches it."""
    field, t, shift, free, reduce_vector = Fq(s["q"]), s["t"], s["shift"], s["free"], s["reduce"]
    matrices = []
    for g in modp.gl2_generators(field):
        (a, b), (c, d) = g
        m = sym_matrix_fq(field, g, t, shift)
        cols = [reduce_vector([row[j] for row in m]) for j in free]
        unipotent = a + d == field.from_int(2) and a * d - b * c == field.one()
        matrices.append(([[col[r] for col in cols] for r in range(len(free))], unipotent))
    return matrices


def unipotent_columns_by_substitution(s: dict) -> list[list[int]]:
    """The columns of U - I that ``modp._unipotent_column`` builds from
    binomials mod p, as ``modp._stable_lines`` read them before: the folded
    free columns of the int substitution matrix of the upper unipotent over
    those of the lower one, big ints and all, less the identity, mod p."""
    t, free, reduce_vector, p = s["t"], s["free"], s["reduce"], s["p"]
    dim = len(free)

    def free_columns(a: int, b: int, c: int, d: int) -> list:
        columns = list(zip(*substitution_matrix(a, b, c, d, t, int)))
        return [reduce_vector(columns[i]) for i in free]

    upper, lower = free_columns(1, 1, 0, 1), free_columns(1, 0, 1, 1)
    return [
        [(x - (r % dim == j)) % p for r, x in enumerate((*up, *low))]
        for j, (up, low) in enumerate(zip(upper, lower))
    ]


def _normalize(vec) -> tuple:
    """The vector scaled so that its first nonzero coordinate is 1."""
    for x in vec:
        if x:
            inv = x.inverse()
            return tuple(inv * y for y in vec)
    return tuple(vec)


def _span_lines(field: FiniteField, basis: list) -> set:
    """Every line of the span of ``basis`` (vectors of ``FqElem``s), each
    once: the combinations led by a coefficient 1, normalised."""
    elems = field_elements(field) if basis else []
    lines = set()
    for lead, first in enumerate(basis):
        rest = basis[lead + 1 :]
        for coeffs in itertools.product(elems, repeat=len(rest)):
            vec = first
            for c, v in zip(coeffs, rest):
                if c:
                    vec = [x + c * y for x, y in zip(vec, v)]
            lines.add(_normalize(vec))
    return lines


def digit_lines(lines: list) -> list:
    """Lines of ``FqElem``s as ``modp._stable_lines`` gives them: each
    coordinate as its tuple of coefficients."""
    return [tuple(x.coeffs for x in line) for line in lines]


def stable_lines_by_eigenvalues(q: int, k: int, i: int) -> list:
    """The stable lines by the eigenvalue scan that ``modp._stable_lines``
    replaced: the rows of M - lambda I stacked over ``generator_matrices_fq``,
    one lambda in F_q^x for each (only 1 for a unipotent), keeping the stacks
    with a nonzero kernel over ``FqElem`` (the common eigenspaces), whose
    lines ``_span_lines`` lists."""
    s = _quotient_structure(q, k, i)
    field, dim = Fq(q), len(s["free"])
    zero, one = field.zero(), field.one()
    units = [x for x in field_elements(field) if x]
    # (stacked rows, kernel basis) of each nonzero common eigenspace so far
    eigenspaces = [([], identity(dim, zero, one))]
    for m, unipotent in generator_matrices_fq(s):
        found = []
        for rows, _ in eigenspaces:
            for lam in [one] if unipotent else units:
                stacked = rows + [
                    [x - lam if j == r else x for j, x in enumerate(row)]
                    for r, row in enumerate(m)
                ]
                basis = kernel_basis(stacked, zero, one)
                if basis:
                    found.append((stacked, basis))
        eigenspaces = found
    lines = set()
    for _, basis in eigenspaces:
        lines |= _span_lines(field, basis)
    return sorted(lines, key=lambda v: tuple(x.coeffs for x in v))


def stable_lines_by_scan(q: int, k: int, i: int) -> list:
    """Every line of the quotient fixed by each of ``gl2_generators``, found
    by normalising each of the q^dim vectors and testing its image under
    each generator's matrix; a zero image is not fixed.  The reference for
    the common eigenspaces of ``quotient_rep_and_stable_lines``."""
    s = _quotient_structure(q, k, i)
    field = Fq(q)
    zero = field.zero()
    matrices = [m for m, _ in generator_matrices_fq(s)]

    def normalize(vec) -> tuple:
        for x in vec:
            if x != zero:
                inv = x.inverse()
                return tuple(inv * y for y in vec)
        return tuple(vec)

    lines = {
        normalize(vec)
        for vec in itertools.product(field_elements(field), repeat=len(s["free"]))
        if any(x != zero for x in vec)
    }
    return [
        line
        for line in sorted(lines, key=lambda v: tuple(x.coeffs for x in v))
        if all(normalize(mat_vec(m, list(line))) == line for m in matrices)
    ]


def sym_matrix_fq(field: FiniteField, g, t: int, s: int) -> list:
    """``modp.sym_matrix_codes`` as ``FqElem``s, read at call time, so that a
    patched builder reaches every check that goes through this one."""
    return [[_make_fq(field, n) for n in row] for row in modp.sym_matrix_codes(field, g, t, s)]


def sym_matrix_by_substitution(field: FiniteField, g, t: int, s: int) -> list:
    """The matrix over F_q of F -> det(g)^s * F(dX+bY, cX+aY) on degree-t
    forms, from ``substitution_matrix`` on ``FqElem``s whatever the entries
    of g: the reference for ``modp.sym_matrix_codes``."""
    a, b, c, d = modp._lift_matrix(field, g)
    scalar = (a * d - b * c) ** s
    m = substitution_matrix(a, b, c, d, t, field.from_int)
    return [[scalar * x for x in row] for row in m]


def symgeom_images_by_products(q: int, k: int, i: int) -> list:
    """The comparison map's images z^r W^shift, W = z - z^q, as products of
    ``FqFraction``s, each reduced through a gcd, as the program's records:
    the reference for the closed form of ``modp.symgeom_iso``."""
    field = Fq(q)
    t, shift = symgeom_parameters(q, k, i)
    window_power = FqFraction.make(field, (field.one(),))
    if shift:
        window_power = FqFraction.make(field, window_poly(field)) ** shift
    zfun = FqFraction.make(field, (field.zero(), field.one()))
    return [(zfun**r * window_power).record() for r in range(t + 1)]


def symgeom_numerators_by_fq(images: list) -> list:
    """The numerators of ``images`` over their least common denominator, as
    polynomials over F_q, the denominator built by gcds."""
    field = images[0].field
    zero = field.zero()
    common = images[0].den
    for img in images:
        g = monic_gcd(common, img.den, zero)
        common = poly.divmod(poly.mul(common, img.den, zero), g, zero)[0]
    return [poly.mul(img.num, poly.divmod(common, img.den, zero)[0], zero) for img in images]


def symgeom_rank_by_fq(images: list) -> int:
    """Rank over F_q of the comparison map with these images: the reference
    for ``modp.symgeom_injectivity_rank``."""
    numerators = symgeom_numerators_by_fq(images)
    zero = images[0].field.zero()
    width = max(len(n) for n in numerators)
    return reference_rank([list(n) + [zero] * (width - len(n)) for n in numerators], zero)


def symgeom_equivariance_by_columns(q: int, k: int, i: int, g) -> bool:
    """The comparison map's equivariance, column by column: with W = z - z^q,
    e the shift and P_r = sum_j M[j][r] z^j for the symmetric-power matrix M,
        P_r W^e == (b+dz)^r What^e (a+cz)^(-r - qe - k),
    where What = (b+dz)(a+cz)^(q-1) - (b+dz)^q is the numerator of
    W((b+dz)/(a+cz)) over (a+cz)^q.  The two sides are compared by
    cross-multiplying, each column by the dense What^|e| and a power of
    a + cz.  The reference for ``symgeom_equivariance``; it reads
    ``modp.sym_matrix_codes`` at call time, so a patched matrix reaches both."""
    field = Fq(q)
    t, shift = modp.symgeom_parameters(q, k, i)
    a, b, c, d = modp._lift_matrix(field, g)
    m = sym_matrix_fq(field, g, t, shift)
    n_poly, d_poly = (b, d), (a, c)
    zero, one = field.zero(), field.one()
    lhs_factor = rhs_factor = (one,)
    if shift:
        moved = poly.add(
            poly.mul(n_poly, poly.power(d_poly, q - 1, zero, one), zero),
            poly_neg(poly.power(n_poly, q, zero, one)),
        )
        window = poly.power(window_poly(field), abs(shift), zero, one)
        moved = poly.power(moved, abs(shift), zero, one)
        # a negative power of W or What moves to the other side
        lhs_factor, rhs_factor = (window, moved) if shift > 0 else (moved, window)
    # the power of a + cz on column r has exponent ex0 - r
    ex0 = -q * shift - k
    d_powers = [(one,)]
    for _ in range(max(abs(ex0), abs(ex0 - t))):
        d_powers.append(poly.mul(d_powers[-1], d_poly, zero))
    n_power = (one,)
    for r in range(t + 1):
        lhs = poly.mul([row[r] for row in m], lhs_factor, zero)
        rhs = poly.mul(n_power, rhs_factor, zero)
        ex = ex0 - r
        if ex > 0:
            rhs = poly.mul(rhs, d_powers[ex], zero)
        elif ex < 0:
            lhs = poly.mul(lhs, d_powers[-ex], zero)
        if lhs != rhs:
            return False
        n_power = poly.mul(n_power, n_poly, zero)
    return True


def evaluation_row_fq(field: FiniteField, point, dim: int, k: int) -> list:
    """``modp._evaluation_row`` over ``FqElem``: the value functional of a
    degree < dim polynomial at a reduction point, the finite points carrying
    the sign (-1)^(k/2)."""
    if point == INFINITY_POINT:
        return [field.one() if j == dim - 1 else field.zero() for j in range(dim)]
    sign = field.from_int((-1) ** (k // 2))
    return [sign * point**j for j in range(dim)]


def sections_basis_by_dense_rows(q: int, k: int, radius: int, units=None) -> list:
    """The kernel basis of ``modp.global_sections_truncated`` from dense
    ``FqElem`` matching rows and the generic ``kernel_basis``: the assembly
    that the rows of residues replaced.  ``units(edge)`` gives two unit
    constants that scale the two sides of an edge's condition (1 and 1 when
    omitted)."""
    field = Fq(q)
    tree = reference_ball(q, radius)
    per_component = max(0, component_degree(q, k) + 1)
    ncols = len(tree.vertices) * per_component
    rows = []
    for e in tree.edges if k % 2 == 0 else []:  # odd k has no matching conditions
        u, w = parent_endpoint(e), child_endpoint(e)
        cu, cw = units(e) if units else (field.one(), field.one())
        row = [field.zero()] * ncols
        for end, other, c in ((u, w, cu), (w, u, -cw)):
            point = modp._reduction_point(end, other)
            point = point if point == INFINITY_POINT else field.elem(point)
            for j, val in enumerate(evaluation_row_fq(field, point, per_component, k)):
                row[tree.index[end] * per_component + j] = c * val
        rows.append(row)
    if not rows:
        return identity(ncols, field.zero(), field.one())
    return kernel_basis(rows, field.zero(), field.one())


def quotient_reduce(q: int, k: int, i: int, coeffs: dict) -> tuple:
    """Class of sum coeffs[r] * X^r Y^(t-r) in the quotient, as coordinates
    against the free monomial classes."""
    s = _quotient_structure(q, k, i)
    field, t = Fq(q), s["t"]
    vec = [field.zero()] * (t + 1)
    for r, c in coeffs.items():
        vec[r] = vec[r] + field.elem(c)
    return s["reduce"](vec)


# -- the CLI's JSON output through json.dumps ---------------------------------------
#
# The two passes that ``cli._dumps`` replaced: convert the payload to plain
# JSON values, then print them with the standard library's indenting encoder.


def _jsonable(x):
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return x
    if isinstance(x, float):
        if math.isinf(x):
            return "infinity"
        raise InternalInvariantError("floating point values are not emitted")
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, ScalarKHat):
        return fraction_scalar_str(x)
    if isinstance(x, FactoredRational):
        return _rational_str(x)
    if isinstance(x, Vertex):
        return {"level": x.m, "offset": _jsonable(x.b)}
    if isinstance(x, Edge):
        return {"parent": _jsonable(x.u), "child": _jsonable(x.v)}
    if isinstance(x, SparseRows):
        return densify(x)
    if isinstance(x, Doubled):
        return [_jsonable(Fraction(t, 2)) for t in x]
    if isinstance(x, Cochain):
        items = sorted(edge_values(x).items(), key=lambda kv: (kv[0].u, kv[0].v))
        return [
            {"edge": _jsonable(e), "value": [_jsonable(c) for c in vec]}
            for e, vec in items
        ]
    if isinstance(x, dict):
        return {
            (key if isinstance(key, str) else str(_jsonable(key))): _jsonable(val)
            for key, val in x.items()
        }
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    raise InternalInvariantError(f"cannot serialize {type(x).__name__}")


def emit_oracle(payload) -> str:
    """The text that the CLI printed for ``payload`` before ``cli._dumps``."""
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2)
