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
from typing import Iterator

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
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "Mat2":
        det = self.det()
        if det == 0:
            raise SingularMatrix("matrix is singular")
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def scale(self, t: Fraction) -> "Mat2":
        return Mat2(self.a * t, self.b * t, self.c * t, self.d * t)

    def itilde(self) -> "Mat2":
        """The det-twisted inverse flip [[d,-c],[-b,a]] (an exact involution)."""
        return Mat2(self.d, -self.c, -self.b, self.a)

    def omega_det(self, p: int) -> Fraction:
        v = val_p(self.det(), p)
        if v is INF:
            raise InvalidParameters("matrix is singular")
        return v


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


def canonical_offset(b: Fraction, m: int, p: int) -> Fraction:
    """Unique c in [0, p^m) with p-power denominator and val(b - c) >= m."""
    b = Fraction(b)
    if b == 0:
        return Fraction(0)
    vb = val_p(b, p)
    j = max(0, -int(vb))
    if m + j <= 0:
        return Fraction(0)
    mod = p ** (m + j)
    t = b * p**j  # denominator prime to p now
    s = (t.numerator * _mod_inverse(t.denominator, mod)) % mod
    return Fraction(s, p**j)


@dataclass(frozen=True, order=True)
class Vertex:
    p: int
    m: int
    b: Fraction

    def __repr__(self) -> str:
        return f"V({self.m},{self.b})"


def make_vertex(p: int, m: int, b: Fraction | int = 0) -> Vertex:
    _check_prime(p)
    return Vertex(p, m, canonical_offset(Fraction(b), m, p))


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
    return make_vertex(v.p, v.m - 1, v.b)


def children(v: Vertex) -> list[Vertex]:
    step = Fraction(v.p) ** v.m
    return [make_vertex(v.p, v.m + 1, v.b + c * step) for c in range(v.p)]


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


parity = vertex_parity


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


def act_on_edge(g: Mat2, e: Edge) -> Edge:
    return make_edge(act_on_vertex(g, e.u), act_on_vertex(g, e.v))


def edges_at(v: Vertex) -> list[Edge]:
    return [make_edge(v, w) for w in neighbors(v)]


# -- truncated balls -------------------------------------------------------------


@dataclass
class TruncatedTree:
    p: int
    radius: int
    center: Vertex
    vertices: list[Vertex]
    edges: list[Edge]
    index: dict[Vertex, int]
    incident: dict[Vertex, list[Edge]]

    def __contains__(self, v: Vertex) -> bool:
        return v in self.index

    def is_interior(self, v: Vertex) -> bool:
        return distance(self.center, v) <= self.radius - 1

    def interior_vertices(self) -> list[Vertex]:
        return [v for v in self.vertices if self.is_interior(v)]

    def edges_at(self, v: Vertex) -> list[Edge]:
        """The ball's edges at v, in the order of ``edges``."""
        return list(self.incident.get(v, ()))

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "radius": self.radius,
            "center": {"m": self.center.m, "b": str(self.center.b)},
            "vertices": [{"m": v.m, "b": str(v.b)} for v in self.vertices],
            "edges": [
                sorted([self.index[e.u], self.index[e.v]]) for e in self.edges
            ],
            "parity": [vertex_parity(v) for v in self.vertices],
        }


def truncated_tree(p: int, radius: int, center: Vertex | None = None) -> TruncatedTree:
    """Ball of the given radius, vertices in breadth-first order (neighbors
    visited parent first, then children by offset). Each vertex's incident
    edges are recorded as the edges are appended, so they keep edge order."""
    if radius < 0:
        raise InvalidParameters("radius must be >= 0")
    if center is None:
        center = standard_vertex(p)
    vertices = [center]
    index = {center: 0}
    edges: list[Edge] = []
    incident: dict[Vertex, list[Edge]] = {center: []}
    frontier = [center]
    for _ in range(radius):
        nxt: list[Vertex] = []
        for v in frontier:
            for w in neighbors(v):
                if w not in index:
                    index[w] = len(vertices)
                    vertices.append(w)
                    nxt.append(w)
                    e = make_edge(v, w)
                    edges.append(e)
                    incident[v].append(e)
                    incident[w] = [e]
        frontier = nxt
    return TruncatedTree(p, radius, center, vertices, edges, index, incident)


def geodesic_vertices(u: Vertex, v: Vertex) -> list[Vertex]:
    """The vertices on the path from u to v (inclusive)."""
    path_u = [u]
    path_v = [v]
    x, y = u, v
    while distance(x, y) > 0:
        if x.m >= y.m:
            x = parent(x)
            path_u.append(x)
        else:
            y = parent(y)
            path_v.append(y)
    if path_u[-1] != path_v[-1]:
        raise InvalidParameters("paths failed to meet")  # pragma: no cover
    return path_u + path_v[-2::-1]
