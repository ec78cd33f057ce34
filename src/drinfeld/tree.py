"""The (p+1)-regular tree of lattice classes for GL2 over the p-adic rationals,
with exact vertex labels, the group action, and canonical transporters.

A vertex is labeled (m, b): the class of the column lattice of [[p^m, b],[0,1]],
with b reduced to the unique representative in [0, p^m) having p-power
denominator. Group elements act through the contragredient-flip convention,
which pins the diagonal p-power elements to the vertices (n, 0) and makes the
base-vertex tube the unit circle of the coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameters, ResidueFieldMismatch, SingularMatrix
from .scalars import INF, _check_prime, _mod_inverse, val_p


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over the rationals, row-major entries a b / c d."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            x = getattr(self, name)
            if type(x) is not Fraction:
                object.__setattr__(self, name, Fraction(x))

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return _mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "Mat2":
        det = self.det()
        if det == 0:
            raise SingularMatrix("matrix is singular")
        return _mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def itilde(self) -> "Mat2":
        """The det-twisted inverse flip [[d,-c],[-b,a]] (an exact involution)."""
        return _mat2(self.d, -self.c, -self.b, self.a)

    def omega_det(self, p: int) -> Fraction:
        v = val_p(self.det(), p)
        if v is INF:
            raise InvalidParameters("matrix is singular")
        return v


_new = object.__new__


def _mat2(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> Mat2:
    """A matrix from four ``Fraction``s, unchecked: the fast path for results
    of arithmetic on matrices, whose entries are ``Fraction``s already."""
    m = _new(Mat2)
    m.__dict__.update(a=a, b=b, c=c, d=d)
    return m


def gamma_level(n: int, p: int) -> Mat2:
    """diag(1, p^n); sends the base vertex to (n, 0)."""
    return Mat2(1, 0, 0, Fraction(p) ** n)


def unipotent_upper(x: Fraction | int) -> Mat2:
    return Mat2(1, Fraction(x), 0, 1)


def unipotent_lower(x: Fraction | int) -> Mat2:
    return Mat2(1, 0, Fraction(x), 1)


def weyl_flip() -> Mat2:
    return Mat2(0, 1, 1, 0)


def diagonal(u: Fraction | int, w: Fraction | int) -> Mat2:
    return Mat2(Fraction(u), 0, 0, Fraction(w))


# -- vertices ------------------------------------------------------------------


_ZERO = Fraction(0)


def canonical_offset(b: Fraction, m: int, p: int) -> Fraction:
    """Unique c in [0, p^m) with p-power denominator and val(b - c) >= m.

    With b = n/(p^j u), p not dividing u, c = s/p^j for the s in [0, p^(m+j))
    with s = n/u mod p^(m+j)."""
    if type(b) is not Fraction:
        b = Fraction(b)
    n, u = b.numerator, b.denominator
    if not n:
        return _ZERO
    j = 0
    while not u % p:
        u //= p
        j += 1
    if m + j <= 0:
        return _ZERO
    mod = p ** (m + j)
    return Fraction(n * _mod_inverse(u, mod) % mod, p**j)


@dataclass(frozen=True, order=True)
class Vertex:
    p: int
    m: int
    b: Fraction

    def __repr__(self) -> str:
        return f"V({self.m},{self.b})"

    def __hash__(self) -> int:
        # the dataclass hash of (p, m, b), kept after the first call: balls
        # and lattice tables look vertices up many times
        fields = self.__dict__
        h = fields.get("_hash")
        if h is None:
            h = fields["_hash"] = hash((self.p, self.m, self.b))
        return h


def make_vertex(p: int, m: int, b: Fraction | int = 0) -> Vertex:
    _check_prime(p)
    return _vertex(p, m, canonical_offset(b, m, p))


def _vertex(p: int, m: int, b: Fraction) -> Vertex:
    """The vertex (m, b) for a canonical offset b, unchecked."""
    v = _new(Vertex)
    v.__dict__.update(p=p, m=m, b=b)
    return v


def standard_vertex(p: int) -> Vertex:
    return make_vertex(p, 0, 0)


def representative(v: Vertex) -> Mat2:
    """The matrix [[p^m, b],[0,1]] whose column lattice class is v."""
    return Mat2(Fraction(v.p) ** v.m, v.b, 0, 1)


def vertex_of_matrix(mat: Mat2, p: int) -> Vertex:
    """Canonical label of the column lattice class of an invertible matrix."""
    det = mat.det()
    if det == 0:
        raise InvalidParameters("matrix is singular")
    a, b, c, d = mat.a, mat.b, mat.c, mat.d
    mu = min(val_p(c, p), val_p(d, p))
    t = Fraction(p) ** (-int(mu))
    a, b, c, d = a * t, b * t, c * t, d * t
    if val_p(d, p) > 0:
        a, b = b, a
        c, d = d, c
    b0 = b / d
    m = val_p(a - c * b0, p)
    return make_vertex(p, int(m), b0)


def act_on_vertex(g: Mat2, v: Vertex) -> Vertex:
    if g.det() == 0:
        raise SingularMatrix("group element must be invertible")
    return vertex_of_matrix(g.itilde() @ representative(v), v.p)


def vertex_transporter(v: Vertex) -> Mat2:
    """Group element carrying the base vertex to v (and base parent to v's parent)."""
    return Mat2(1, 0, -v.b, Fraction(v.p) ** v.m)


def parent(v: Vertex) -> Vertex:
    # v.b = n/p^j is canonical, so the parent's offset is (n mod p^(m-1+j))/p^j
    p, m, n, den = v.p, v.m - 1, v.b.numerator, v.b.denominator
    mod = p**m * den if m >= 0 else den // p**-m
    return _vertex(p, m, Fraction(n % mod, den) if mod > 1 else _ZERO)


def children(v: Vertex) -> list[Vertex]:
    """The vertices (m+1, b + c p^m), c in [0, p): these offsets are canonical."""
    p, m, n, den = v.p, v.m, v.b.numerator, v.b.denominator
    # b and p^m as numerators over one power of p
    if m >= 0:
        common, step = den, den * p**m
    else:
        common = max(den, p**-m)
        step = common // p**-m
    n0 = n * (common // den)
    return [_vertex(p, m + 1, Fraction(n0 + c * step, common)) for c in range(p)]


def neighbors(v: Vertex) -> list[Vertex]:
    """All p+1 adjacent vertices, parent first, children in offset order."""
    return [parent(v)] + children(v)


def distance(u: Vertex, v: Vertex) -> int:
    if u.p != v.p:
        raise ResidueFieldMismatch("vertices over different primes")
    vb = val_p(u.b - v.b, u.p)
    mstar = min(u.m, v.m, vb if vb is not INF else min(u.m, v.m))
    return (u.m - int(mstar)) + (v.m - int(mstar))


def vertex_parity(v: Vertex) -> int:
    return 1 if v.m % 2 == 0 else -1


# -- edges ---------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Edge:
    """Unordered adjacent pair, stored parent-end first (smaller level)."""

    u: Vertex
    v: Vertex

    def __repr__(self) -> str:
        return f"E[{self.u},{self.v}]"


def make_edge(x: Vertex, y: Vertex) -> Edge:
    if distance(x, y) != 1:
        raise InvalidParameters(f"{x} and {y} are not adjacent")
    return Edge(x, y) if (x.m, x.b) < (y.m, y.b) else Edge(y, x)


def standard_edge(p: int) -> Edge:
    return make_edge(standard_vertex(p), make_vertex(p, -1, 0))


def child_endpoint(e: Edge) -> Vertex:
    return e.v


def parent_endpoint(e: Edge) -> Vertex:
    return e.u


def edge_transporter(e: Edge) -> Mat2:
    """Deterministic group element mapping the standard edge onto e.

    The transporter of the deeper endpoint works: it carries the base vertex to
    that endpoint and the base vertex's parent to the endpoint's parent.
    """
    return vertex_transporter(child_endpoint(e))


def edges_at(v: Vertex) -> list[Edge]:
    return [make_edge(v, w) for w in neighbors(v)]


# -- truncated balls -------------------------------------------------------------


def ball_size(p: int, radius: int) -> int:
    """Number of vertices within the given distance of a vertex of the
    (p+1)-regular tree: 1 + (p+1)(p^r - 1)/(p - 1)."""
    return 1 + (p + 1) * (p**radius - 1) // (p - 1)


@dataclass
class TruncatedTree:
    """Ball around the base vertex.  ``n_interior`` counts the vertices at
    distance below the radius, which come first in ``vertices``."""

    p: int
    radius: int
    vertices: list[Vertex]
    edges: list[Edge]
    index: dict[Vertex, int]
    incident: dict[Vertex, list[Edge]]
    n_interior: int

    def __contains__(self, v: Vertex) -> bool:
        return v in self.index

    def interior_vertices(self) -> list[Vertex]:
        return self.vertices[: self.n_interior]

    def edges_at(self, v: Vertex) -> list[Edge]:
        """The ball's edges at v, in the order of ``edges``."""
        return list(self.incident.get(v, ()))


def truncated_tree(p: int, radius: int) -> TruncatedTree:
    """Ball of the given radius around the base vertex, vertices in
    breadth-first order (neighbors visited parent first, then children by
    offset).  Each vertex's incident edges are recorded as the edges are
    appended, so they keep edge order."""
    if radius < 0:
        raise InvalidParameters("radius must be >= 0")
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
    return TruncatedTree(p, radius, vertices, edges, index, incident, n_interior)
