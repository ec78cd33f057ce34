"""Residue cochains, harmonicity, integrality, and the cochain kernel."""

from __future__ import annotations

import random

import pytest

from drinfeld import (
    Cochain,
    ScalarKHat,
    automorphic_act,
    cochain_transport,
    delta,
    gamma_level,
    harmonic_kernel,
    make_edge,
    make_vertex,
    parse_rational,
    res0,
    res0_integrality,
    standard_vertex,
    truncated_tree,
    weyl_flip,
)
from drinfeld.linalg import kernel_basis
from drinfeld.sampling import random_group_element, random_rational


def _vec_is_zero(vec):
    return all(x.is_zero() for x in vec)


def _reference_field_kernel(tree, k):
    """Dense elimination of the interleaved (k+1)·E-column star-sum matrix."""
    p = tree.p
    zero, one = ScalarKHat.zero(p), ScalarKHat.one(p)
    edges = list(tree.edges)
    index = {e: n for n, e in enumerate(edges)}
    ncols = (k + 1) * len(edges)
    rows = []
    for v in tree.interior_vertices():
        incident = [index[e] for e in tree.edges_at(v)]
        for i in range(k + 1):
            row = [zero] * ncols
            for n in incident:
                row[n * (k + 1) + i] = one
            rows.append(row)
    if ncols == 0:
        return {"dimension": 0, "basis": []}
    vectors = kernel_basis(rows, zero, one) if rows else [
        [one if t == s else zero for t in range(ncols)] for s in range(ncols)
    ]
    basis = []
    for vec in vectors:
        values = {}
        for e in edges:
            n = index[e]
            chunk = vec[n * (k + 1) : (n + 1) * (k + 1)]
            if any(not x.is_zero() for x in chunk):
                values[e] = chunk
        basis.append(Cochain(p, k, values))
    return {"dimension": len(vectors), "basis": basis}


class TestResidueOfSimplePole:
    def test_spine_support_and_alternating_sign(self, tree_factory):
        # the residue cochain of 1/z lives on the axis, alternating +1/-1
        p = 2
        t = tree_factory(p, 3)
        c = res0(parse_rational("1/z", p), 0, t)
        expected_support = {
            make_edge(make_vertex(p, n - 1, 0), make_vertex(p, n, 0))
            for n in range(-2, 4)
        }
        assert set(c.support()) == expected_support
        for n in range(-2, 4):
            e = make_edge(make_vertex(p, n - 1, 0), make_vertex(p, n, 0))
            expected = ScalarKHat.from_rational((-1) ** n, p)
            assert (c.value(e)[0] - expected).is_zero()

    def test_polynomials_have_zero_residue(self, tree_factory):
        p = 2
        t = tree_factory(p, 2)
        c = res0(parse_rational("z^2", p), 0, t)
        assert c.is_zero()

    def test_weight_raises_vector_length(self, tree_factory):
        p = 2
        t = tree_factory(p, 2)
        for k in (0, 1, 2):
            c = res0(parse_rational("1/z", p), k, t)
            for e in c.support():
                assert len(c.value(e)) == k + 1


class TestHarmonicity:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_residues_are_harmonic(self, k, tree_factory, rng):
        p = 2
        t = tree_factory(p, 3)
        for _ in range(6):
            f = random_rational(rng, p)
            if f.is_zero():
                continue
            c = res0(f, k, t)
            star_sums = delta(c, t)
            assert all(_vec_is_zero(vec) for vec in star_sums.values())

    def test_delta_flags_a_non_harmonic_cochain(self, tree_factory):
        # a one-edge bump is not harmonic at its interior endpoints
        p = 2
        t = tree_factory(p, 2)
        e = next(iter(t.edges))
        bump = Cochain(p, 0, {e: [ScalarKHat.one(p)]})
        star_sums = delta(bump, t)
        assert any(not _vec_is_zero(vec) for vec in star_sums.values())


class TestEquivariance:
    @pytest.mark.parametrize("k", [0, 1])
    def test_transport_law_on_common_support(self, k, tree_factory, rng):
        # res0 intertwines the weight-(k+2) action with the signed dual action
        p = 2
        t = tree_factory(p, 3)
        compared = 0
        for _ in range(20):
            f = random_rational(rng, p)
            if f.is_zero():
                continue
            g = random_group_element(rng, p)
            try:
                lhs = res0(automorphic_act(g, f, k + 2), k, t)
                rhs = cochain_transport(g, res0(f, k, t))
            except Exception:
                continue  # transported pole landed strictly inside an annulus
            for e in lhs.support():
                if e in rhs.support():
                    compared += 1
                    assert all(
                        (a - b).is_zero()
                        for a, b in zip(lhs.value(e), rhs.value(e))
                    )
        assert compared >= 10

    def test_axis_translation_shifts_the_spine(self, tree_factory):
        p = 2
        t = tree_factory(p, 3)
        f = parse_rational("1/z", p)
        c = res0(f, 0, t)
        moved = cochain_transport(gamma_level(1, p), c)
        for n in range(-1, 4):
            e = make_edge(make_vertex(p, n - 1, 0), make_vertex(p, n, 0))
            assert e in moved.support()

    def test_weyl_flip_preserves_spine_support(self, tree_factory):
        p = 2
        t = tree_factory(p, 3)
        c = res0(parse_rational("1/z", p), 0, t)
        flipped = cochain_transport(weyl_flip(), c)
        spine = {
            make_edge(make_vertex(p, n - 1, 0), make_vertex(p, n, 0))
            for n in range(-2, 4)
        }
        assert set(flipped.support()) == spine


class TestIntegrality:
    def test_unit_section_is_integral(self, tree_factory):
        p = 2
        t = tree_factory(p, 3)
        report = res0_integrality(parse_rational("1/z", p), 0, t)
        assert report["in_all_edge_lattices"] is True
        assert report["vertex_membership"] is True

    def test_scaled_section_is_not(self, tree_factory):
        p = 2
        t = tree_factory(p, 3)
        report = res0_integrality(parse_rational("pihat^-1/z", p), 0, t)
        assert report["in_all_edge_lattices"] is False

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("text", ["1/z", "pihat^-1/z", "z^-2*(z-2)", "0"])
    def test_given_cochain_gives_the_same_report(self, text, k, tree_factory):
        p = 2
        t = tree_factory(p, 3)
        f = parse_rational(text, p)
        assert res0_integrality(f, k, t) == res0_integrality(
            f, k, t, cochain=res0(f, k, t)
        )

    @pytest.mark.parametrize("k", [0, 1])
    def test_edges_outside_the_support_are_in_their_lattices(self, k, tree_factory):
        p = 2
        t = tree_factory(p, 3)
        f = parse_rational("pihat^-1/z", p)
        support = set(res0(f, k, t).support())
        report = res0_integrality(f, k, t)
        outside = [row for row in report["edges"] if row["edge"] not in support]
        assert [row["edge"] for row in report["edges"]] == list(t.edges)
        assert outside and all(row["in_lattice"] for row in outside)
        assert not all(row["in_lattice"] for row in report["edges"])


class TestTransporterAudit:
    @pytest.mark.parametrize("k", [0, 1])
    def test_audited_residue_matches_plain(self, k, tree_factory):
        p = 2
        t = tree_factory(p, 2)
        f = parse_rational("1/z", p)
        plain = res0(f, k, t)
        audited = res0(f, k, t, audit=True, rng=random.Random(5))
        assert set(plain.support()) == set(audited.support())
        for e in plain.support():
            assert all(
                (a - b).is_zero()
                for a, b in zip(plain.value(e), audited.value(e))
            )


class TestKernelDimensions:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("radius", [1, 2])
    def test_field_kernel_has_boundary_dimension(self, p, k, radius):
        # dim ker(delta) = (k+1) * (edges - interior vertices) on a ball
        t = truncated_tree(p, radius)
        result = harmonic_kernel(t, k)
        boundary_excess = len(t.edges) - len(t.interior_vertices())
        assert result["dimension"] == (k + 1) * boundary_excess
        assert len(result["basis"]) == result["dimension"]

    @pytest.mark.parametrize(
        "p, radius",
        [(p, r) for p in (2, 3, 5) for r in range(4)] + [(2, 4)],
    )
    def test_block_field_kernel_equals_dense_elimination(self, p, radius):
        t = truncated_tree(p, radius)
        for k in range(4):
            got = harmonic_kernel(t, k)
            want = _reference_field_kernel(t, k)
            assert got["dimension"] == want["dimension"]
            assert [list(c.values.items()) for c in got["basis"]] == [
                list(c.values.items()) for c in want["basis"]
            ]

    def test_mod_pihat_kernel_shape(self):
        p = 2
        t = truncated_tree(p, 1)
        result = harmonic_kernel(t, 1, mod_pihat=True)
        assert result["integral_rank"] == len(result["reduced_basis"])
        star = result["star_local"]
        assert str(standard_vertex(p)) in star

    def test_star_local_dims_match_closed_form(self):
        p = 2
        t = truncated_tree(p, 1)
        star0 = harmonic_kernel(t, 0, mod_pihat=True)["star_local"]
        star1 = harmonic_kernel(t, 1, mod_pihat=True)["star_local"]
        v = str(standard_vertex(p))
        assert star0[v]["kernel_dim"] == 2
        assert star1[v]["kernel_dim"] == 1
