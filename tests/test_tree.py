"""Vertex/edge combinatorics, the twisted matrix action, and truncations."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld.cli import _MAX_BALL_VERTICES
from drinfeld.errors import InvalidParameters, SingularMatrix
from drinfeld.tree import (
    Edge,
    Mat2,
    Vertex,
    act_on_vertex,
    ball_size,
    child_endpoint,
    distance,
    make_edge,
    make_vertex,
    representative,
    standard_edge,
    standard_vertex,
    truncated_tree,
    unipotent_lower,
    vertex_of_matrix,
    vertex_parity,
    vertex_transporter,
)
from oracles import (
    FractionMat2,
    FrozenEdge,
    act_on_edge,
    ball_edges,
    children,
    edge_transporter,
    edges_at,
    fraction_act_on_vertex,
    fraction_canonical_offset,
    fraction_children,
    fraction_distance,
    fraction_make_edge,
    fraction_parent,
    fraction_representative,
    fraction_vertex_key,
    fraction_vertex_of_matrix,
    fraction_vertex_transporter,
    neighbors,
    parent,
    parent_endpoint,
    reference_ball,
)
from sampling import gamma_level, random_group_element, random_vertex, unipotent_upper, weyl_flip


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
    assert path_u[-1] == path_v[-1], "paths failed to meet"
    return path_u + path_v[-2::-1]


def _vertices(seed: int, p: int, count: int):
    rng = random.Random(seed)
    return [random_vertex(rng, p) for _ in range(count)]


class TestDiagonalAxis:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_diagonal_elements_walk_the_axis(self, p):
        base = standard_vertex(p)
        for n in range(-3, 4):
            assert act_on_vertex(gamma_level(n, p), base) == make_vertex(p, n, 0)

    def test_standard_edge_endpoints(self):
        e = standard_edge(2)
        assert parent_endpoint(e) == make_vertex(2, -1, 0)
        assert child_endpoint(e) == make_vertex(2, 0, 0)


class TestTransporters:
    @pytest.mark.parametrize("p", [2, 3])
    def test_vertex_transporter_hits_target(self, p):
        for v in _vertices(11, p, 12):
            g = vertex_transporter(v)
            assert act_on_vertex(g, standard_vertex(p)) == v

    @pytest.mark.parametrize("p", [2, 3])
    def test_edge_transporter_hits_target(self, p):
        rng = random.Random(17)
        for _ in range(12):
            v = random_vertex(rng, p)
            w = rng.choice(neighbors(v))
            e = make_edge(v, w)
            g = edge_transporter(e)
            assert act_on_edge(g, standard_edge(p)) == e

    def test_action_is_multiplicative_on_vertices(self):
        p = 2
        rng = random.Random(23)
        for _ in range(15):
            g1 = random_group_element(rng, p)
            g2 = random_group_element(rng, p)
            v = random_vertex(rng, p)
            assert act_on_vertex(g2 @ g1, v) == act_on_vertex(g2, act_on_vertex(g1, v))

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMatrix):
            act_on_vertex(Mat2(1, 1, 1, 1), standard_vertex(2))


# -- the int-held Mat2 against the Fraction-held oracle -------------------------------

_PRIMES = st.sampled_from([2, 3, 5, 7])
# zero in a fifth of the draws, so singular matrices and zero entries occur;
# p-power and mixed denominators alike
_entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-30, 30).map(Fraction),
    st.fractions(min_value=-30, max_value=30, max_denominator=60),
    st.builds(lambda n, j: Fraction(n, 2**j), st.integers(-40, 40), st.integers(0, 5)),
    st.builds(lambda n, j: Fraction(n, 3**j), st.integers(-40, 40), st.integers(0, 4)),
)
_quads = st.tuples(_entries, _entries, _entries, _entries)


def _entries_of(g) -> tuple:
    return (g.a, g.b, g.c, g.d)


def _assert_matches(g: Mat2, old: FractionMat2) -> None:
    """g holds the value of old in its canonical reduced ints."""
    assert _entries_of(g) == _entries_of(old)
    assert all(type(x) is Fraction for x in _entries_of(g))
    assert g.N > 0 and math.gcd(g.A, g.B, g.C, g.D, g.N) == 1
    assert g == Mat2(*_entries_of(old)) and hash(g) == hash(Mat2(*_entries_of(old)))


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the class is what is compared
        return type(exc)
    return None


@st.composite
def _vertices_deep(draw):
    """A vertex at level -4..4 whose offset has a p-power denominator up to
    p^4 beyond what the level forces."""
    p = draw(_PRIMES)
    m = draw(st.integers(-4, 4))
    j = draw(st.integers(0, 4))
    n = draw(st.integers(0, p ** (abs(m) + j + 2)))
    return make_vertex(p, m, Fraction(n, p ** (max(0, -m) + j)))


class TestMat2AgainstFractionOracle:
    @given(x=_quads, y=_quads, p=_PRIMES)
    @settings(max_examples=300, deadline=None)
    def test_arithmetic(self, x, y, p):
        g, h = Mat2(*x), Mat2(*y)
        old_g, old_h = FractionMat2(*x), FractionMat2(*y)
        _assert_matches(g, old_g)
        assert g.det() == old_g.det() and type(g.det()) is Fraction
        _assert_matches(g @ h, old_g @ old_h)
        _assert_matches(g.itilde(), old_g.itilde())
        assert g.lift(p) == old_g.lift(p)
        if old_g.det() == 0:
            assert _raised(g.inv) is _raised(old_g.inv) is SingularMatrix
            assert _raised(g.omega_det, p) is _raised(old_g.omega_det, p) is InvalidParameters
            assert _raised(vertex_of_matrix, g, p) is InvalidParameters
            assert _raised(fraction_vertex_of_matrix, old_g, p) is InvalidParameters
            return
        _assert_matches(g.inv(), old_g.inv())
        assert g.omega_det(p) == old_g.omega_det(p) and type(g.omega_det(p)) is int
        assert vertex_of_matrix(g, p) == fraction_vertex_of_matrix(old_g, p)

    @given(v=_vertices_deep())
    @settings(max_examples=300, deadline=None)
    def test_transporter_and_representative(self, v):
        _assert_matches(vertex_transporter(v), fraction_vertex_transporter(v))
        _assert_matches(representative(v), fraction_representative(v))
        assert act_on_vertex(vertex_transporter(v), standard_vertex(v.p)) == v

    @given(x=_quads, v=_vertices_deep())
    @settings(max_examples=300, deadline=None)
    def test_act_on_vertex(self, x, v):
        g, old_g = Mat2(*x), FractionMat2(*x)
        if old_g.det() == 0:
            assert _raised(act_on_vertex, g, v) is _raised(fraction_act_on_vertex, old_g, v)
            assert _raised(act_on_vertex, g, v) is SingularMatrix
            return
        assert act_on_vertex(g, v) == fraction_act_on_vertex(old_g, v)

    @given(n=st.integers(-6, 6), p=_PRIMES)
    def test_gamma_level(self, n, p):
        _assert_matches(gamma_level(n, p), FractionMat2(1, 0, 0, Fraction(p) ** n))


class TestAdjacency:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_neighbor_count(self, p):
        for v in _vertices(29, p, 8):
            nbs = neighbors(v)
            assert len(nbs) == p + 1
            assert len(set(nbs)) == p + 1
            assert all(distance(v, w) == 1 for w in nbs)

    def test_parent_child_inverse(self):
        p = 3
        for v in _vertices(31, p, 8):
            for c in neighbors(v):
                if parent(c) == v:
                    assert distance(v, c) == 1

    def test_adjacency_is_equivariant(self):
        p = 2
        rng = random.Random(37)
        for _ in range(10):
            g = random_group_element(rng, p)
            v = random_vertex(rng, p)
            moved = {act_on_vertex(g, w) for w in neighbors(v)}
            assert moved == set(neighbors(act_on_vertex(g, v)))


class TestDistanceAndParity:
    @given(seed=st.integers(0, 10**6), p=st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_distance_is_a_metric(self, seed, p):
        rng = random.Random(seed)
        u, v, w = (random_vertex(rng, p) for _ in range(3))
        assert distance(u, v) == distance(v, u) >= 0
        assert (distance(u, v) == 0) == (u == v)
        assert distance(u, w) <= distance(u, v) + distance(v, w)

    @given(seed=st.integers(0, 10**6), p=st.sampled_from([2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_geodesic_realizes_distance(self, seed, p):
        rng = random.Random(seed)
        u, v = random_vertex(rng, p), random_vertex(rng, p)
        path = geodesic_vertices(u, v)
        assert path[0] == u and path[-1] == v
        assert len(path) == distance(u, v) + 1
        assert all(distance(a, b) == 1 for a, b in zip(path, path[1:]))

    def test_parity_alternates_along_edges(self):
        p = 2
        for v in _vertices(41, p, 10):
            assert vertex_parity(v) in (-1, 1)
            for w in neighbors(v):
                assert vertex_parity(v) == -vertex_parity(w)

    def test_group_shifts_parity_by_determinant_sign(self):
        p = 2
        rng = random.Random(43)
        for _ in range(15):
            g = random_group_element(rng, p)
            v = random_vertex(rng, p)
            sign = (-1) ** (int(g.omega_det(p)) % 2)
            assert vertex_parity(act_on_vertex(g, v)) == sign * vertex_parity(v)

    def test_distance_is_invariant(self):
        p = 3
        rng = random.Random(47)
        for _ in range(10):
            g = random_group_element(rng, p)
            u, v = random_vertex(rng, p), random_vertex(rng, p)
            assert distance(act_on_vertex(g, u), act_on_vertex(g, v)) == distance(u, v)


class TestStabilizerFacts:
    def test_lower_unipotents_fix_the_standard_edge(self):
        p = 2
        e = standard_edge(p)
        for x in (1, 2, 3, 5):
            g = unipotent_lower(x)
            assert act_on_vertex(g, parent_endpoint(e)) == parent_endpoint(e)
            assert act_on_vertex(g, child_endpoint(e)) == child_endpoint(e)

    def test_unit_upper_unipotent_moves_the_parent_endpoint(self):
        p = 2
        e = standard_edge(p)
        g = unipotent_upper(1)
        assert act_on_vertex(g, child_endpoint(e)) == child_endpoint(e)
        assert act_on_vertex(g, parent_endpoint(e)) != parent_endpoint(e)

    def test_weyl_flip_swaps_axis_levels(self):
        p = 2
        w = weyl_flip()
        assert act_on_vertex(w, make_vertex(p, 1, 0)) == make_vertex(p, -1, 0)
        assert act_on_vertex(w, standard_vertex(p)) == standard_vertex(p)


class TestTruncations:
    @pytest.mark.parametrize(
        "p,radius", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]
    )
    def test_ball_cardinalities(self, p, radius):
        t = truncated_tree(p, radius)
        q = p
        expected_vertices = 1 + (q + 1) * (q**radius - 1) // (q - 1) if radius else 1
        assert len(t.vertices) == expected_vertices
        assert len(ball_edges(t)) == expected_vertices - 1  # a ball in a tree

    def test_oracle_seventeen_vertices(self):
        t = truncated_tree(3, 2)
        assert len(t.vertices) == 17
        assert len(ball_edges(t)) == 16

    def test_interior_regularity(self):
        t = truncated_tree(2, 3)
        for i, v in enumerate(t.interior_vertices()):
            assert len(edges_at(v)) == 3
            assert sorted(t.edge(j) for j in t.star(i)) == sorted(edges_at(v))

    def test_edges_at_matches_global_adjacency(self):
        t = truncated_tree(3, 2)
        for v in t.interior_vertices():
            assert set(edges_at(v)) <= set(ball_edges(t))
            assert edges_at(v) == [make_edge(v, w) for w in neighbors(v)]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_star_equals_a_scan_of_every_edge(self, p):
        """The arithmetic star of an interior vertex, and the one edge of a
        boundary vertex other than the base, against a scan of the ball's
        edges."""
        for radius in range(5):
            t = truncated_tree(p, radius)
            edges = ball_edges(t)
            for i, v in enumerate(t.vertices):
                star = t.star(i) if i < t.n_interior else [i - 1] if i else []
                assert [edges[j] for j in star] == [e for e in edges if v in (e.u, e.v)]

    def test_ball_is_centered(self):
        t = truncated_tree(2, 2)
        c = standard_vertex(2)
        assert all(distance(c, v) <= 2 for v in t.vertices)
        assert any(distance(c, v) == 2 for v in t.vertices)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_ball_size_counts_the_ball(self, p):
        for radius in range(5):
            assert ball_size(p, radius) == len(truncated_tree(p, radius).vertices)


class TestBallOracle:
    """The ball's interior and edges against their definitions: the vertices
    at distance below the radius from the base vertex, and ``make_edge`` with
    its adjacency check."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("radius", range(5))
    def test_interior_is_the_distance_filter(self, p, radius):
        t = truncated_tree(p, radius)
        c = standard_vertex(p)
        assert t.interior_vertices() == [v for v in t.vertices if distance(c, v) <= radius - 1]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_index_arithmetic_equals_the_hashed_walk(self, p):
        """The ball against the dict-based breadth-first walk, at every
        radius that the CLI's vertex budget admits: the vertex order, the
        edges with their parent ends, and the star of every interior
        vertex."""
        radius = 0
        while ball_size(p, radius) <= _MAX_BALL_VERTICES:
            t, ref = truncated_tree(p, radius), reference_ball(p, radius)
            assert t.vertices == ref.vertices and t.n_interior == ref.n_interior
            edges = ball_edges(t)
            assert [(e.u, e.v) for e in edges] == [(e.u, e.v) for e in ref.edges]
            for i, v in enumerate(t.interior_vertices()):
                assert [ref.edges[j] for j in t.star(i)] == ref.edges_at(v)
            radius += 1
        assert radius - 1 >= 4

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("radius", range(5))
    def test_edges_equal_make_edge(self, p, radius):
        for e in ball_edges(truncated_tree(p, radius)):
            assert e == make_edge(e.u, e.v) == make_edge(e.v, e.u)


def _assert_same_vertex(got: Vertex, expected: Vertex) -> None:
    assert got == expected
    assert type(got.b) is Fraction
    assert hash(got) == hash(expected)
    assert repr(got) == repr(expected)
    # the (p, m, b) order of the Fraction oracle, against a p-power offset
    # just above and one below
    p, den = expected.p, expected.b.denominator
    for step in (Fraction(1, p * den), Fraction(-1, p * p)):
        other = Vertex(p, expected.m, expected.b + step)
        assert (got < other) == (fraction_vertex_key(expected) < fraction_vertex_key(other))
        assert (other < got) == (fraction_vertex_key(other) < fraction_vertex_key(expected))
        assert (got == other) is False


class TestIntegerOffsets:
    """Vertex labels computed on integer numerators against the same labels
    computed on ``Fraction``s."""

    def _check(self, v: Vertex) -> None:
        _assert_same_vertex(parent(v), fraction_parent(v))
        got, expected = children(v), fraction_children(v)
        assert len(got) == len(expected) == v.p
        for w, x in zip(got, expected):
            _assert_same_vertex(w, x)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("radius", range(5))
    def test_every_label_of_a_ball(self, p, radius):
        for v in truncated_tree(p, radius).vertices:
            _assert_same_vertex(v, Vertex(p, v.m, fraction_canonical_offset(v.b, v.m, p)))
            self._check(v)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_seeded_vertices_and_offsets(self, p):
        rng = random.Random(1300 + p)
        for _ in range(300):
            m = rng.randint(-6, 6)
            j = rng.randint(0, 5)
            unit = rng.choice([1, 1, 2, 3, 7, 10, 11]) * rng.choice([1, -1])
            b = Fraction(rng.randint(-(p**8), p**8), p**j * unit)
            expected = fraction_canonical_offset(b, m, p)
            v = make_vertex(p, m, b)
            assert v.b == expected and type(v.b) is Fraction
            _assert_same_vertex(v, Vertex(p, m, expected))
            self._check(v)
            for n in (0, -3, 5):
                assert make_vertex(p, m, n).b == fraction_canonical_offset(n, m, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("radius", range(4))
    def test_distance_edges_and_order_of_a_ball(self, p, radius):
        ball = truncated_tree(p, radius)
        rng = random.Random(1400 + 10 * p + radius)
        pairs = [(u, w) for u in ball.vertices[:40] for w in ball.vertices]
        pairs += [(rng.choice(ball.vertices), random_vertex(rng, p)) for _ in range(200)]
        for u, w in pairs:
            assert distance(u, w) == fraction_distance(u, w)
            assert (u < w) == (fraction_vertex_key(u) < fraction_vertex_key(w))
            assert (u == w) == (fraction_vertex_key(u) == fraction_vertex_key(w))
            if fraction_distance(u, w) == 1:
                assert make_edge(u, w) == fraction_make_edge(u, w)
        for e in ball_edges(ball):
            assert make_edge(e.u, e.v) == make_edge(e.v, e.u) == fraction_make_edge(e.v, e.u)
        key = lambda e: (fraction_vertex_key(e.u), fraction_vertex_key(e.v))
        assert sorted(ball_edges(ball)) == sorted(ball_edges(ball), key=key)
        assert sorted(ball.vertices) == sorted(ball.vertices, key=fraction_vertex_key)

    def test_ball_builds_no_fraction(self, monkeypatch):
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        ball = truncated_tree(3, 5)
        Fraction(1, 3)  # the counter sees a construction
        assert len(ball.vertices) == ball_size(3, 5)
        assert built == [(1, 3)]

    def test_ball_builds_no_edge(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("an edge was built")

        monkeypatch.setattr(Edge, "__init__", refuse)
        assert len(truncated_tree(3, 5).vertices) == ball_size(3, 5)


class TestEdgeOracle:
    """``Edge`` is a slotted class with a cached hash; the frozen dataclass
    it replaced is the oracle for its order, equality and hash, so dicts
    and sets of edges iterate as before."""

    @pytest.mark.parametrize("p,radius", [(2, 3), (3, 2), (5, 1)])
    def test_order_equality_and_hash_of_a_ball(self, p, radius):
        edges = ball_edges(truncated_tree(p, radius))
        frozen = [FrozenEdge(e.u, e.v) for e in edges]
        for e, fe in zip(edges, frozen):
            assert hash(e) == hash(fe) == hash((e.u, e.v))
            assert repr(e) == f"E[{e.u},{e.v}]"
        for (e1, f1), (e2, f2) in itertools.product(zip(edges, frozen), repeat=2):
            assert (e1 < e2, e1 <= e2, e1 == e2, e1 > e2) == (f1 < f2, f1 <= f2, f1 == f2, f1 > f2)
        assert [(e.u, e.v) for e in sorted(edges)] == [(e.u, e.v) for e in sorted(frozen)]
        # equal hashes inserted in the same order: a set iterates as before
        assert [(e.u, e.v) for e in set(edges)] == [(e.u, e.v) for e in set(frozen)]
        twins = [make_edge(e.v, e.u) for e in edges]
        assert twins == edges and [hash(e) for e in twins] == [hash(e) for e in edges]

    def test_an_edge_is_no_tuple_or_dataclass(self):
        e = standard_edge(2)
        assert e != (e.u, e.v) and e != FrozenEdge(e.u, e.v)
        with pytest.raises(TypeError):
            e < (e.u, e.v)
