"""Integral lattices at vertices and edges, local dimensions, membership."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from drinfeld import (
    InvalidParameters,
    Lattice,
    ScalarKHat,
    act_on_edge,
    act_on_vertex,
    automorphic_act,
    d_space_basis,
    dual_act,
    e_space_basis,
    edge_lattice,
    edge_lattice_profile,
    edge_membership,
    edge_monomial_generators,
    gamma_level,
    lattice_contains,
    lattice_equal,
    lattice_intersection,
    lattice_sum,
    local_space_report,
    local_spaces,
    make_edge,
    make_vertex,
    parse_rational,
    product_module_comparison,
    relative_fdim,
    relative_profile,
    section_lattice_membership,
    standard_edge,
    standard_vertex,
    star_local_kernel,
    unipotent_lower,
    vertex_lattice,
    vertex_lattice_profile,
    vertex_transporter,
)
from drinfeld import lattices
from drinfeld.sampling import random_group_element, random_rational, random_vertex


class TestDiagonalProfiles:
    def test_vertex_profiles_weight_two(self):
        p = 2
        assert vertex_lattice_profile(make_vertex(p, 0, 0), 2) == (0, 0, 0)
        assert vertex_lattice_profile(make_vertex(p, 1, 0), 2) == (1, 0, -1)
        assert vertex_lattice_profile(make_vertex(p, -1, 0), 2) == (-1, 0, 1)

    def test_standard_edge_profiles(self):
        p = 2
        assert edge_lattice_profile(standard_edge(p), 2) == (0, 0, 1)
        assert edge_lattice_profile(standard_edge(p), 1) == (0, Fraction(1, 2))

    def test_profile_shifts_along_the_axis(self):
        # moving one level along the axis tilts each diagonal entry by one step
        p = 3
        for k in (1, 2, 3):
            base = vertex_lattice_profile(make_vertex(p, 0, 0), k)
            up = vertex_lattice_profile(make_vertex(p, 1, 0), k)
            assert len(base) == k + 1
            assert sorted(Fraction(u - b) for u, b in zip(up, base)) == sorted(
                Fraction(k - 2 * i, 2) * 2 / 2 for i in range(k + 1)
            ) or all(u - b in (1, 0, -1) for u, b in zip(up, base))

    def test_profile_is_offset_invariant(self):
        p = 2
        for k in (1, 2):
            assert vertex_lattice_profile(
                make_vertex(p, 2, 1), k
            ) == vertex_lattice_profile(make_vertex(p, 2, 3), k)


class TestLocalDimensions:
    @pytest.mark.parametrize(
        "p,k,expected",
        [
            (2, 1, {"dimD": 1, "dimE": 0, "dimZhar": 1}),
            (2, 2, {"dimD": 2, "dimE": 1, "dimZhar": 3}),
            (3, 2, {"dimD": 2, "dimE": 1, "dimZhar": 5}),
        ],
    )
    def test_report_matches_frozen_values(self, p, k, expected):
        report = local_space_report(p, k)
        assert report["computed"] == expected
        assert report["predicted"] == expected
        assert report["pass"] is True

    @pytest.mark.parametrize("p,k", [(2, 3), (3, 4), (5, 2)])
    def test_report_builds_each_lattice_once(self, p, k, monkeypatch):
        """The standard vertex, its parent and its p children: p + 2 vertex
        lattices, and p + 1 edge lattices, one per edge at the vertex."""
        built = {"vertex": [], "edge": []}
        real_vertex, real_intersection = lattices.vertex_lattice, lattices.lattice_intersection

        def vertex_lattice_spy(v, k, transporter=None):
            built["vertex"].append(v)
            return real_vertex(v, k, transporter)

        def intersection_spy(l1, l2):
            built["edge"].append((l1, l2))
            return real_intersection(l1, l2)

        monkeypatch.setattr(lattices, "vertex_lattice", vertex_lattice_spy)
        monkeypatch.setattr(lattices, "lattice_intersection", intersection_spy)
        assert local_space_report(p, k)["pass"] is True
        assert len(built["vertex"]) == len(set(built["vertex"])) == p + 2
        assert len(built["edge"]) == p + 1

    def test_local_spaces_on_edge_and_vertex(self):
        p = 2
        e = standard_edge(p)
        edge_report = local_spaces(e, 2, p)
        assert edge_report["dimD"] == 2
        assert edge_report["dimE"] == 1
        vertex_report = local_spaces(standard_vertex(p), 2, p)
        assert vertex_report["dimZhar"] == 3

    def test_local_spaces_field_mismatch(self):
        with pytest.raises(InvalidParameters):
            local_spaces(standard_edge(2), 2, 3)

    def test_star_local_kernel_dimensions(self):
        p = 2
        v = standard_vertex(p)
        assert star_local_kernel(v, 0)["kernel_dim"] == 2
        assert star_local_kernel(v, 1)["kernel_dim"] == 1
        assert star_local_kernel(v, 0)["d_dims"] == [1, 1, 1]


class TestDSpaceSplitting:
    def test_low_and_high_halves_at_weight_three(self):
        # the two edges at the base vertex split the dual basis into the
        # low-index and high-index halves
        p, k = 2, 3
        base = standard_vertex(p)
        low = d_space_basis(standard_edge(p), k, base)
        high = d_space_basis(
            make_edge(make_vertex(p, 0, 0), make_vertex(p, 1, 0)), k, base
        )
        as_bits = lambda rows: [[0 if x.is_zero() else 1 for x in r] for r in rows]
        assert as_bits(low) == [[1, 0, 0, 0], [0, 1, 0, 0]]
        assert as_bits(high) == [[0, 0, 1, 0], [0, 0, 0, 1]]

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_halves_overlap_in_the_e_space(self, p, k):
        # the low half spans indices 0..floor(k/2), the high half
        # ceil(k/2)..k; for even k they share exactly the middle functional,
        # which is the one-dimensional E-space
        base = standard_vertex(p)
        low = d_space_basis(standard_edge(p), k, base)
        high = d_space_basis(
            make_edge(make_vertex(p, 0, 0), make_vertex(p, 1, 0)), k, base
        )
        assert len(low) == k // 2 + 1
        assert len(high) == k + 1 - (k + 1) // 2
        low_support = {
            tuple(i for i, x in enumerate(row) if not x.is_zero()) for row in low
        }
        high_support = {
            tuple(i for i, x in enumerate(row) if not x.is_zero()) for row in high
        }
        overlap = low_support & high_support
        expected_dim_e = local_space_report(p, k)["computed"]["dimE"]
        assert len(overlap) == expected_dim_e

    def test_e_space_is_inside_both_d_spaces(self):
        p, k = 2, 2
        e = standard_edge(p)
        ebasis = e_space_basis(e, k)
        report = local_spaces(e, k, p)
        assert len(ebasis) == report["dimE"]


class TestLatticeAlgebra:
    def _pair(self, seed):
        rng = random.Random(seed)
        p, k = 2, 2
        u = random_vertex(rng, p)
        w = random_vertex(rng, p)
        return vertex_lattice(u, k), vertex_lattice(w, k)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_sum_and_intersection_containments(self, seed):
        a, b = self._pair(seed)
        s = lattice_sum(a, b)
        i = lattice_intersection(a, b)
        for x in (a, b):
            assert lattice_contains(s, x)
            assert lattice_contains(x, i)

    @pytest.mark.parametrize("seed", [6, 7, 8, 9, 10])
    def test_modular_index_law(self, seed):
        # [a+b : a] = [b : a∩b]
        a, b = self._pair(seed)
        assert relative_fdim(lattice_sum(a, b), a) == relative_fdim(
            b, lattice_intersection(a, b)
        )

    def test_relative_profile_of_equal_lattices_is_zero(self):
        L = vertex_lattice(make_vertex(2, 1, 1), 2)
        assert relative_profile(L, L) == (0, 0, 0)

    def test_transporter_independence(self):
        # two transporters to the same vertex give the same lattice
        p, k = 2, 2
        v = make_vertex(p, 2, 1)
        tau = vertex_transporter(v)
        alt = tau @ unipotent_lower(3)  # stabilizer twist at the base
        L1 = vertex_lattice(v, k)
        L2 = vertex_lattice(v, k, transporter=alt)
        assert lattice_equal(L1, L2)

    def test_edge_lattice_equivariance(self):
        p, k = 2, 2
        rng = random.Random(99)
        e = standard_edge(p)
        for _ in range(5):
            g = random_group_element(rng, p)
            source = edge_lattice(e, k)
            cols = [dual_act(g, list(col), k, p) for col in source.columns()]
            rows = tuple(
                tuple(cols[j][i] for j in range(len(cols))) for i in range(k + 1)
            )
            assert lattice_equal(
                Lattice(p, k, rows), edge_lattice(act_on_edge(g, e), k)
            )


class TestSectionMembership:
    def test_vertex_membership_frozen_pair(self):
        p = 2
        v = make_vertex(p, 1, 0)
        assert section_lattice_membership(parse_rational("1", p), 2, v) == (
            False,
            Fraction(-1),
        )
        assert section_lattice_membership(parse_rational("1/z", p), 2, v) == (
            True,
            Fraction(0),
        )

    def test_edge_membership_frozen_triples(self):
        p = 2
        e = make_edge(make_vertex(p, 0, 0), make_vertex(p, 1, 0))
        assert edge_membership(parse_rational("pihat", p), 1, e)[0] is True
        assert edge_membership(parse_rational("1/z", p), 1, e)[0] is True
        assert edge_membership(parse_rational("1", p), 1, e)[0] is False

    def test_edge_membership_standard_edge(self):
        # at the standard edge the constants are integral and the simple pole
        # is not: the annulus has both boundary circles at valuation level 0/1
        p = 2
        e = standard_edge(p)
        assert edge_membership(parse_rational("1", p), 1, e)[0] is True
        assert edge_membership(parse_rational("pihat", p), 1, e)[0] is True
        assert edge_membership(parse_rational("1/z", p), 1, e)[0] is False

    @pytest.mark.parametrize("k", [2, 4])
    def test_even_weight_edge_generator(self, k):
        p = 2
        f = parse_rational(f"z^-{k // 2}", p)
        ok, cert = edge_membership(f, k, standard_edge(p))
        assert ok is True
        assert cert["violations"] == []

    def test_edge_generator_table(self):
        assert edge_monomial_generators(2) == [(Fraction(0), -1)]
        assert edge_monomial_generators(1) == [
            (Fraction(0), 0),
            (Fraction(1, 2), -1),
        ]

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_membership_transports(self, k):
        p = 2
        rng = random.Random(313 + k)
        checked = 0
        for _ in range(10):
            f = random_rational(rng, p)
            if f.is_zero():
                continue
            g = random_group_element(rng, p)
            v = random_vertex(rng, p)
            before = section_lattice_membership(f, k, v)[0]
            after = section_lattice_membership(
                automorphic_act(g, f, k), k, act_on_vertex(g, v)
            )[0]
            assert before == after
            checked += 1
        assert checked >= 8


class TestProductModules:
    @pytest.mark.parametrize(
        "k1,k2,equal,defect",
        [
            (1, 1, False, Fraction(1, 2)),
            (1, 2, True, Fraction(0)),
            (2, 2, True, Fraction(0)),
            (2, 3, True, Fraction(0)),
            (3, 3, False, Fraction(1, 2)),
        ],
    )
    def test_edge_defect_parity_table(self, k1, k2, equal, defect):
        # the product of two odd weights misses the edge lattice by a half step
        report = product_module_comparison(k1, k2)
        assert report["vertex_surjective"] is True
        assert report["edge_equal"] is equal
        assert report["edge_defect"] == defect
