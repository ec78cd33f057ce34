"""Vertex/edge combinatorics, the twisted matrix action, and truncations."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import (
    Mat2,
    SingularMatrix,
    act_on_edge,
    act_on_vertex,
    child_endpoint,
    distance,
    edge_transporter,
    edges_at,
    gamma_level,
    geodesic_vertices,
    make_edge,
    make_vertex,
    neighbors,
    parent,
    parent_endpoint,
    standard_edge,
    standard_vertex,
    truncated_tree,
    unipotent_lower,
    unipotent_upper,
    vertex_parity,
    vertex_transporter,
    weyl_flip,
)
from drinfeld.sampling import random_group_element, random_vertex


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
        assert len(t.edges) == expected_vertices - 1  # a ball in a tree

    def test_oracle_seventeen_vertices(self):
        t = truncated_tree(3, 2)
        assert len(t.vertices) == 17
        assert len(t.edges) == 16

    def test_interior_regularity(self):
        t = truncated_tree(2, 3)
        for v in t.interior_vertices():
            assert len(t.edges_at(v)) == 3
            assert len(edges_at(v)) == 3

    def test_edges_at_matches_global_adjacency(self):
        t = truncated_tree(3, 2)
        for v in t.interior_vertices():
            assert {e for e in t.edges_at(v)} <= set(t.edges)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_edges_at_equals_a_scan_of_every_edge(self, p):
        for radius in range(5):
            t = truncated_tree(p, radius)
            for v in t.vertices:
                assert t.edges_at(v) == [e for e in t.edges if v in (e.u, e.v)]

    def test_ball_is_centered(self):
        t = truncated_tree(2, 2)
        c = standard_vertex(2)
        assert all(distance(c, v) <= 2 for v in t.vertices)
        assert any(distance(c, v) == 2 for v in t.vertices)
