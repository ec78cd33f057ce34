"""The (p+1)-regular tree of lattice classes for GL2 over the p-adic rationals,
with exact vertex labels, the group action, and canonical transporters.

A vertex is labeled (m, b): the class of the column lattice of [[p^m, b],[0,1]],
with b reduced to the unique representative in [0, p^m) having p-power
denominator. Group elements act through the contragredient-flip convention,
which pins the diagonal p-power elements to the vertices (n, 0) and makes the
base-vertex tube the unit circle of the coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, total_ordering

from .errors import InvalidParameters, ResidueFieldMismatch, SingularMatrix
from .scalars import RationalLike, ScalarKHat, _check_prime, _make, _mod_inverse, _vp, val_p


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

    def det(self) -> Fraction:
        return Fraction(self.A * self.D - self.B * self.C, self.N * self.N)

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

    def itilde(self) -> "Mat2":
        """The det-twisted inverse flip [[d,-c],[-b,a]] (an exact involution)."""
        m = _new(Mat2)
        m.A, m.B, m.C, m.D, m.N = self.D, -self.C, -self.B, self.A, self.N
        return m

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


# -- vertices ------------------------------------------------------------------


def _offset(n: int, u: int, m: int, p: int) -> tuple[int, int]:
    """The c in [0, p^m) with val(n/u - c) >= m, for n/u in lowest terms and
    u > 0, in lowest terms over a power of p: with u = p^j u', p not dividing
    u', c = s/p^j for the s in [0, p^(m+j)) with s = n/u' mod p^(m+j)."""
    if not n:
        return 0, 1
    j = 0
    while not u % p:
        u //= p
        j += 1
    if m + j <= 0:
        return 0, 1
    mod = p ** (m + j)
    return n * _mod_inverse(u, mod) % mod, p**j


@total_ordering
class Vertex:
    """The vertex (m, b) over p as ints (p, m, n, d), b = n/d in lowest terms
    with d a power of p.  ``Vertex(p, m, b)`` takes a canonical offset b.
    Ordered by (p, m, b); immutable by convention, as ``Mat2`` is."""

    __slots__ = ("p", "m", "n", "d", "_hash")

    def __init__(self, p: int, m: int, b: RationalLike) -> None:
        n, d = Fraction(b).as_integer_ratio()
        self.p, self.m, self.n, self.d, self._hash = p, m, n, d, hash((p, m, n, d))

    @property
    def b(self) -> Fraction:
        return Fraction(self.n, self.d)

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


def _level_and_offset(p: int, m: int, n: int, d: int) -> tuple[int, int, int]:
    """p^m and b = n/d, the label of the vertex (m, b), as numerators over one
    power of p, and that power."""
    if m >= 0:
        return p**m * d, n, d
    common = max(d, p**-m)
    return common // p**-m, n * (common // d), common


def representative(v: Vertex) -> Mat2:
    """The matrix [[p^m, b],[0,1]] whose column lattice class is v."""
    level, offset, common = _level_and_offset(v.p, v.m, v.n, v.d)
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
    if g.det() == 0:
        raise SingularMatrix("group element must be invertible")
    return vertex_of_matrix(g.itilde() @ representative(v), v.p)


def vertex_transporter(v: Vertex) -> Mat2:
    """Group element [[1, 0], [-b, p^m]] carrying the base vertex to v (and
    base parent to v's parent)."""
    level, offset, common = _level_and_offset(v.p, v.m, v.n, v.d)
    return _mat2(common, 0, -offset, level, common)


def _parent_label(p: int, m: int, n: int, d: int) -> tuple[int, int, int]:
    """The label (m - 1, n', d') of the parent of the vertex (m, n/d)."""
    # n/d = n/p^j is canonical, so the parent's offset is (n mod p^(m-1+j))/p^j,
    # in lowest terms when j > 0 because p does not divide n
    m -= 1
    mod = p**m * d if m >= 0 else d // p**-m
    n = n % mod if mod > 1 else 0
    return (m, n, d) if n else (m, 0, 1)


def _child_offsets(p: int, m: int, n: int, d: int) -> tuple[range, int]:
    """The offsets of the children (m + 1, b + c p^m), c in [0, p), of the
    vertex (m, b = n/d), as numerators over one power of p, and that power.
    Each is in lowest terms but a zero one, whose canonical form is 0/1."""
    step, n0, common = _level_and_offset(p, m, n, d)
    return range(n0, n0 + p * step, step), common


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


# -- edges ---------------------------------------------------------------------


@total_ordering
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


# -- truncated balls -------------------------------------------------------------


def ball_size(p: int, radius: int) -> int:
    """Number of vertices within the given distance of a vertex of the
    (p+1)-regular tree: 1 + (p+1)(p^r - 1)/(p - 1)."""
    return 1 + (p + 1) * (p**radius - 1) // (p - 1)


@dataclass
class TruncatedTree:
    """Ball around the base vertex, as index arithmetic on its vertices in
    breadth-first order, whose first ``n_interior`` vertices lie below the
    radius.  Vertex i is labeled (m, n/d) = (levels[i], nums[i], dens[i]), the
    ``Vertex`` label held as three int arrays; vertex i >= 1 hangs off vertex
    ``up(i)`` through edge i - 1.  ``vertex(i)`` and ``edge(j)`` build the
    ``Vertex`` and ``Edge`` objects, and ``vertices`` lists them all, built on
    its first read."""

    p: int
    levels: list[int]
    nums: list[int]
    dens: list[int]
    n_interior: int

    @property
    def n_edges(self) -> int:
        return len(self.levels) - 1

    def vertex(self, i: int) -> Vertex:
        return _vertex(self.p, self.levels[i], self.nums[i], self.dens[i])

    @cached_property
    def vertices(self) -> list[Vertex]:
        return list(map(self.vertex, range(len(self.levels))))

    def interior_vertices(self) -> list[Vertex]:
        return self.vertices[: self.n_interior]

    def up(self, i: int) -> int:
        """The base vertex's p + 1 neighbours come first, then p from each
        vertex in turn."""
        return 0 if i <= self.p + 1 else (i - 2) // self.p

    def star(self, i: int) -> range | list[int]:
        """The edges at interior vertex i: edge i - 1, then p*i + 1 ... p*i + p."""
        p = self.p
        return range(p + 1) if i == 0 else [i - 1, *range(p * i + 1, p * i + p + 1)]

    def ends(self, j: int) -> tuple[int, int]:
        """Edge j's parent end (the smaller level) and child end.  On the
        spine through levels -1, -2, ... the child end is ``up(j + 1)``."""
        a, b = self.up(j + 1), j + 1
        return (a, b) if self.levels[a] < self.levels[b] else (b, a)

    def child_ends(self) -> list[int]:
        """Each edge's child end, by edge index, as ``ends`` gives it."""
        levels, ids = self.levels, range(1, len(self.levels))
        return [i if levels[u] < levels[i] else u for i, u in zip(ids, map(self.up, ids))]

    def edge(self, j: int) -> Edge:
        a, b = self.ends(j)
        return Edge(self.vertex(a), self.vertex(b))


def truncated_tree(p: int, radius: int) -> TruncatedTree:
    """Ball of the given radius around the base vertex, neighbors visited
    parent first, then children by offset, its labels built shell by shell
    from ``_child_offsets``.  A vertex's new neighbours are its children but
    on the spine (-s, 0), s >= 0, which opens each shell: its parent is new
    too, and, but at the base, its child 0 is the vertex it was reached from."""
    _check_prime(p)
    if radius < 0:
        raise InvalidParameters("radius must be >= 0")
    levels, nums, dens, n_interior = [0], [0], [1], 0
    for _ in range(radius):
        start, n_interior = n_interior, len(levels)
        for i in range(start, n_interior):
            m = levels[i]
            offsets, common = _child_offsets(p, m, nums[i], dens[i])
            if i == start:
                levels.append(m - 1)
                nums.append(0)
                dens.append(1)
                offsets = offsets[1:] if i else offsets
            # a zero offset is only the base's child 0, whose common power is 1
            levels += [m + 1] * len(offsets)
            nums += offsets
            dens += [common] * len(offsets)
    return TruncatedTree(p, levels, nums, dens, n_interior)
