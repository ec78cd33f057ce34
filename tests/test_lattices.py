"""Integral lattices at vertices and edges, local dimensions, membership."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from drinfeld import lattices, scalars
from drinfeld.errors import InvalidParameters, NegativeValuation, PoleInsideAnnulus
from drinfeld.harmonic import res0, star_local_kernels
from drinfeld.linalg import rank_up_to, rref
from drinfeld.lattices import (
    edge_lattice_profile,
    local_dimension_formulas,
    local_space_report,
    star_local_kernel,
    vertex_lattice_profile,
)
from drinfeld.rational import FactoredRational, gauss_valuation, parse_rational
from drinfeld.scalars import Fq, ScalarKHat, half
from drinfeld.tree import _level_and_offset, truncated_tree
from inprocess import invoke
from oracles import (
    Edge,
    Lattice,
    Vertex,
    act_on_edge,
    add_rational,
    act_on_vertex,
    automorphic_act,
    ball_edges,
    ball_vertices,
    basis_contains,
    basis_contains_vector,
    basis_equal,
    basis_relative_profile,
    basis_transition,
    child_endpoint,
    child_one_rows,
    children,
    closed_form_rows,
    cochain_value,
    d_space_basis,
    dual_act,
    e_space_basis,
    edge_lattice,
    edge_transporter,
    endpoint_sum,
    fraction_valuation,
    in_edge_lattice,
    interior_vertices,
    khat,
    lattice_basis,
    lattice_contains_vector,
    lattice_intersection,
    lattice_sum,
    laurent_standard,
    local_rows,
    local_space,
    make_edge,
    make_vertex,
    membership_by_transport,
    parent_endpoint,
    reduced_column_space,
    reference_edge_profile,
    reference_local_rows,
    reference_star_local_kernel,
    reference_vertex_profile,
    relative_profile,
    scalar_div,
    section_lattice_membership,
    standard_edge,
    standard_vertex,
    sym_ints,
    transition_d_space_basis,
    transition_e_space_basis,
    transition_matrix,
    unipotent_lower,
    vertex_lattice,
    vertex_transporter,
)
from sampling import random_group_element, random_rational, random_vertex


def relative_fdim(sup: list, sub: list) -> int:
    """Residue-field dimension of sup/sub (sum of uniformizer exponents)."""
    vals = basis_relative_profile(sup, sub)
    if any(v < 0 for v in vals):
        raise InvalidParameters("not a sublattice")
    total = sum(2 * v for v in vals)
    return int(total)


def local_spaces(e_or_v, k: int, q: int) -> dict:
    """Dimensions of the reduced local spaces: at an edge, the image of the
    edge lattice in each endpoint reduction and in the reduction of the sum;
    at a vertex, the star-local harmonic kernel."""
    prime = e_or_v.p if isinstance(e_or_v, Vertex) else e_or_v.u.p
    if q != prime:
        raise InvalidParameters("the residue size must match the tree prime")
    if isinstance(e_or_v, Edge):
        e = e_or_v
        return {
            "dimD": len(d_space_basis(e, child_endpoint(e), k)),
            "dimD_parent": len(d_space_basis(e, parent_endpoint(e), k)),
            "dimE": len(e_space_basis(e, k)),
        }
    if isinstance(e_or_v, Vertex):
        return {"dimZhar": star_local_kernel(e_or_v.p, k)}
    raise InvalidParameters("expected a tree vertex or edge")


def edge_coefficient_requirement(j: int, k: int) -> Fraction:
    """Minimal valuation a Laurent coefficient at exponent j may have for a
    weight-k section integral on the standard edge annulus."""
    if k % 2 == 0:
        return Fraction(max(0, -j - k // 2))
    inner = Fraction(max(0, -j - (k - 1) // 2))
    outer = Fraction(1, 2) + Fraction(max(0, -j - (k + 1) // 2))
    return min(inner, outer)


def edge_membership(f: FactoredRational, k: int, e: Edge) -> tuple[bool, dict]:
    """Coefficient-wise membership test on the edge annulus: transport to the
    standard edge, expand, and compare every coefficient (exact in a window,
    affine certificates outside) against the generator requirement.  The
    standard annulus has the section module generated by z^(-k/2) for even k
    and by the pair z^(-(k-1)/2), pihat*z^(-(k+1)/2) for odd k."""
    if f.is_zero():
        return True, {"window": None, "note": "zero section"}
    moved = automorphic_act(edge_transporter(e).inv(), f, k)
    margin = 2
    for _ in range(6):  # tail widenings before giving up
        lo = -(k + 3) - margin
        hi = max(4, k + 3) + margin
        win = laurent_standard(moved, lo, hi)
        violations = []
        for j in range(win.lo, win.hi + 1):
            val = fraction_valuation(win.coefficient(j))
            req = edge_coefficient_requirement(j, k)
            if val < req:
                violations.append({"j": j, "valuation": val, "required": req})
        if violations:
            return False, {"window": (win.lo, win.hi), "violations": violations}
        rays_ok = True
        j_below = win.lo - 1
        for alpha, beta in win.below:
            if alpha + beta * j_below < edge_coefficient_requirement(j_below, k):
                rays_ok = False
        j_above = win.hi + 1
        for alpha, beta in win.above:
            if alpha + beta * j_above < edge_coefficient_requirement(j_above, k):
                rays_ok = False
        if rays_ok:
            return True, {"window": (win.lo, win.hi), "violations": []}
        margin *= 2
    raise AssertionError("tail certificates stayed below the requirement after widening")


def edge_monomial_generators(k: int) -> list[tuple[Fraction, int]]:
    """(valuation shift, z-exponent) pairs generating the weight-k module on
    the standard edge annulus."""
    if k % 2 == 0:
        return [(Fraction(0), -(k // 2))]
    return [
        (Fraction(0), -((k - 1) // 2)),
        (Fraction(1, 2), -((k + 1) // 2)),
    ]


def product_module_comparison(k1: int, k2: int) -> dict:
    """Compare the image of multiplication weight-k1 x weight-k2 -> weight-
    (k1+k2) against the target module, at vertex level and at edge level.

    At a vertex both sides are free of rank one with matching generator
    valuations at every level. At an edge the image of the monomial generator
    products can miss the target generator; the defect is the smallest extra
    valuation needed (0 means the modules agree)."""
    if k1 < 0 or k2 < 0:
        raise InvalidParameters("weights must be nonnegative")
    vertex_ok = all(
        Fraction(k1 * n, 2) + Fraction(k2 * n, 2) == Fraction((k1 + k2) * n, 2)
        for n in range(-3, 4)
    )
    products = [
        (w1 + w2, b1 + b2)
        for w1, b1 in edge_monomial_generators(k1)
        for w2, b2 in edge_monomial_generators(k2)
    ]

    def attainable(target_exp: int) -> Fraction:
        best = None
        for w, b in products:
            # multiply by an integral annulus function with a z^(target-b) term
            cost = w + Fraction(max(0, b - target_exp))
            best = cost if best is None else min(best, cost)
        return best

    defects = [
        attainable(b_t) - w_t for w_t, b_t in edge_monomial_generators(k1 + k2)
    ]
    max_defect = max(defects)
    return {
        "vertex_surjective": vertex_ok,
        "edge_equal": max_defect == 0,
        "edge_defect": max_defect,
    }


class TestDiagonalProfiles:
    def test_vertex_profiles_weight_two(self):
        p = 2
        # doubled valuations: the profile (1, 0, -1) is (2, 0, -2)
        assert vertex_lattice_profile(make_vertex(p, 0, 0), 2) == (0, 0, 0)
        assert vertex_lattice_profile(make_vertex(p, 1, 0), 2) == (2, 0, -2)
        assert vertex_lattice_profile(make_vertex(p, -1, 0), 2) == (-2, 0, 2)

    def test_standard_edge_profiles(self):
        p = 2
        assert edge_lattice_profile(p, 2) == (0, 0, 2)
        assert edge_lattice_profile(p, 1) == (0, 1)

    def test_profile_shifts_along_the_axis(self):
        # moving one level along the axis tilts each diagonal entry by one step
        p = 3
        for k in (1, 2, 3):
            base = vertex_lattice_profile(make_vertex(p, 0, 0), k)
            up = vertex_lattice_profile(make_vertex(p, 1, 0), k)
            assert len(base) == k + 1
            assert sorted(u - b for u, b in zip(up, base)) == sorted(
                k - 2 * i for i in range(k + 1)
            ) or all(u - b in (2, 0, -2) for u, b in zip(up, base))

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
        assert star_local_kernel(v.p, 0) == 2
        assert star_local_kernel(v.p, 1) == 1

    def test_local_spaces_build_no_field_element(self, monkeypatch):
        """The local spaces and the star kernels are eliminated on int
        residues mod p: every ``FqElem`` is made by ``scalars._make_fq``,
        and it is never called."""

        def refused(*_):
            raise AssertionError("an FqElem was built")

        monkeypatch.setattr(scalars, "_make_fq", refused)
        for p, k in ((2, 3), (3, 4), (5, 6), (7, 5)):
            report = local_space_report(p, k)
            assert report["pass"] is True, (p, k)
            stars = star_local_kernels(truncated_tree(p, 1), k)
            assert set(stars.values()) == {report["predicted"]["dimZhar"]}, (p, k)


class TestDSpaceSplitting:
    def test_low_and_high_halves_at_weight_three(self):
        # the two edges at the base vertex split the dual basis into the
        # low-index and high-index halves
        p, k = 2, 3
        base = standard_vertex(p)
        low = d_space_basis(standard_edge(p), base, k)
        high = d_space_basis(
            make_edge(make_vertex(p, 0, 0), make_vertex(p, 1, 0)), base, k
        )
        as_bits = lambda rows: [[0 if x == 0 else 1 for x in r] for r in rows]
        assert as_bits(low) == [[1, 0, 0, 0], [0, 1, 0, 0]]
        assert as_bits(high) == [[0, 0, 1, 0], [0, 0, 0, 1]]

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_halves_overlap_in_the_e_space(self, p, k):
        # the low half spans indices 0..floor(k/2), the high half
        # ceil(k/2)..k; for even k they share exactly the middle functional,
        # which is the one-dimensional E-space
        base = standard_vertex(p)
        low = d_space_basis(standard_edge(p), base, k)
        high = d_space_basis(
            make_edge(make_vertex(p, 0, 0), make_vertex(p, 1, 0)), base, k
        )
        assert len(low) == k // 2 + 1
        assert len(high) == k + 1 - (k + 1) // 2
        low_support = {
            tuple(i for i, x in enumerate(row) if x) for row in low
        }
        high_support = {
            tuple(i for i, x in enumerate(row) if x) for row in high
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


class TestStarsFromTheStandardStar:
    """``star_local_kernel`` builds the standard star's parent, child 0 and
    child 1 D-spaces and stops its rank at k + 1; the per-edge star at every
    vertex is its oracle, and the two identities it rests on are checked
    apart."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_kernel_equals_the_per_edge_star(self, p):
        for k in range(13):
            want = reference_star_local_kernel(standard_vertex(p), k)
            assert star_local_kernel(p, k) == want, (p, k)
            assert local_space_report(p, k)["computed"]["dimZhar"] == want, (p, k)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_every_interior_vertex_of_the_ball(self, p):
        """At every interior vertex of the radius-2 ball, the axis below the
        base vertex included, the star built there has the same kernel."""
        t = truncated_tree(p, 2)
        assert any(v.m < 0 for v in interior_vertices(t))
        for k in range(7):
            got = star_local_kernels(t, k)
            for v in interior_vertices(t):
                assert got[str(v)] == reference_star_local_kernel(v, k), (v, k)

    @pytest.mark.parametrize("p,radius", [(2, 3), (3, 3), (5, 3), (7, 2)])
    def test_child_transporters_compose(self, p, radius):
        """The c-th child's transporter is the vertex's times the standard
        vertex's c-th child's, so every child edge has the standard star's
        transition.  The ball reaches levels -radius..radius."""
        t = truncated_tree(p, radius)
        standard = [vertex_transporter(make_vertex(p, 1, c)) for c in range(p)]
        for v in interior_vertices(t):
            g = vertex_transporter(v)
            for w, h in zip(children(v), standard):
                assert vertex_transporter(w) == g @ h, (v, w)
        assert min(v.m for v in ball_vertices(t)) == -radius

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_children_are_torus_scaled_copies(self, p):
        """Child c's D-space at the standard vertex is child 1's with column
        j times c^-j mod p, once reduced."""
        v = standard_vertex(p)
        for k in range(13):
            spaces = [d_space_basis(make_edge(v, make_vertex(p, 1, c)), v, k) for c in range(p)]
            for c in range(2, p):
                scaled = [[x * pow(c, -j, p) % p for j, x in enumerate(row)] for row in spaces[1]]
                basis, pivots = rref(scaled, p)
                assert spaces[c] == basis[: len(pivots)], (p, k, c)

    def test_the_rank_stops_at_k_plus_one(self, monkeypatch):
        """The parent's and child 0's D-spaces reach the full rank, so the
        rank reads no row of child 1 and builds no torus copy."""
        read = []

        def counting(rows, p, bound):
            return rank_up_to((read.append(row) or row for row in rows), p, bound)

        monkeypatch.setattr(lattices, "rank_up_to", counting)
        for p, k in ((2, 6), (5, 7), (997, 28)):
            read.clear()
            assert star_local_kernel(p, k) == local_dimension_formulas(p, k)["dimZhar"]
            # the low half 0..k/2 and the high half k/2..k, one row each
            assert len(read) == (k // 2 + 1) + (k + 1 - (k + 1) // 2), (p, k)


_BALLS = [(2, 3), (3, 3), (5, 2), (7, 2)]


def _edge_lattices(e: Edge, k: int) -> tuple:
    """The child, parent, edge and endpoint-sum lattices of an edge."""
    edge = edge_lattice(e, k)
    return (
        vertex_lattice(child_endpoint(e), k),
        vertex_lattice(parent_endpoint(e), k),
        edge,
        Lattice(edge.p, k, edge.g, tuple(min(0, 2 * j - k) for j in range(k + 1))),
    )


def _transition_pairs(e: Edge, k: int) -> list:
    """(src, dst) lattice pairs of an edge: both endpoints in each other;
    the edge lattice in each endpoint and in the endpoint sum (the E-space),
    which are integral; and the reverses of those three, which are not
    integral for k >= 1."""
    child, parent, edge, total = _edge_lattices(e, k)
    return [
        (child, parent),
        (parent, child),
        (child, edge),
        (parent, edge),
        (total, edge),
        (edge, child),
        (edge, parent),
        (edge, total),
    ]


class TestTransitionsAgainstElimination:
    """The transition read off two transporters and two column scalings, its
    reduction mod pihat, and the membership test read off one transporter,
    against inverse, matrix product and solve over the basis matrices."""

    @pytest.mark.parametrize("p,radius", _BALLS)
    def test_every_edge_of_the_ball(self, p, radius):
        """Where the transition is integral, the local space reduced from the
        ints equals the column space of the eliminated transition mod pihat;
        where it is not, both raise."""
        field = Fq(p)
        edges = ball_edges(truncated_tree(p, radius))
        outcomes = set()
        for k in range(7):
            for e in edges:
                for src, dst in _transition_pairs(e, k):
                    want = basis_transition(lattice_basis(src), lattice_basis(dst))
                    assert transition_matrix(src, dst) == want, (e, k, src, dst)
                    try:
                        space = reduced_column_space(want, field)
                    except NegativeValuation:
                        with pytest.raises(NegativeValuation):
                            local_space(src, dst)
                        outcomes.add("not integral")
                    else:
                        assert local_space(src, dst) == space, (e, k, src, dst)
                        outcomes.add("integral")
        assert outcomes == {"integral", "not integral"}

    @pytest.mark.parametrize("p,radius", _BALLS)
    def test_even_weight_meets_no_odd_pihat_exponent(self, p, radius):
        """For even k the exponent e of sym_ints and every scaling are even,
        so every transition entry is rational: the lattices are defined over
        Q_p.  At odd k entries with a pihat part occur."""
        edges = ball_edges(truncated_tree(p, radius))
        for k in (0, 2, 4, 6):
            for e in edges:
                for src, dst in _transition_pairs(e, k):
                    _, _, _, exponent = sym_ints(dst.g.inv() @ src.g, k, p)
                    assert exponent % 2 == 0, (e, k)
                    assert all(t % 2 == 0 for t in src.scale + dst.scale), (e, k)
                    assert all(not x.B for row in transition_matrix(src, dst) for x in row)
        odd = [
            x.B
            for e in edges
            for src, dst in _transition_pairs(e, 1)
            for row in transition_matrix(src, dst)
            for x in row
        ]
        assert any(odd)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_membership_of_random_vectors(self, p):
        """Vectors with pihat parts and powers of p in their denominators,
        against the vertex, edge and endpoint-sum lattices of random edges."""
        rng = random.Random(7100 + p)
        units = [u for u in (1, 1, 1, 2, 3, 5, 7, 11) if u % p]
        seen = set()
        for _ in range(60):
            k = rng.randint(0, 5)
            v = random_vertex(rng, p)
            e = make_edge(v, rng.choice(children(v)))
            for l in _edge_lattices(e, k):
                for _ in range(3):
                    vec = [
                        khat(
                            p,
                            Fraction(rng.randint(-9, 9), p ** rng.randint(0, 3) * rng.choice(units)),
                            Fraction(rng.randint(-9, 9) * rng.randint(0, 1), p ** rng.randint(0, 3)),
                        )
                        for _ in range(k + 1)
                    ]
                    got = lattice_contains_vector(l, vec)
                    assert got is basis_contains_vector(lattice_basis(l), vec), (e, k, l, vec)
                    seen.add(got)
        assert seen == {True, False}

    @pytest.mark.parametrize("p,radius", [(2, 3), (3, 2), (5, 1)])
    def test_membership_of_neighbouring_columns(self, p, radius):
        """Every column of the endpoint lattices, of the edge lattice and of
        the endpoint sum, tested against each of the three lattices."""
        seen = set()
        for k in range(5):
            for e in ball_edges(truncated_tree(p, radius)):
                lattices = [
                    vertex_lattice(child_endpoint(e), k),
                    vertex_lattice(parent_endpoint(e), k),
                    edge_lattice(e, k),
                ]
                bases = [lattice_basis(l) for l in lattices]
                columns = [list(col) for b in bases + [endpoint_sum(bases[0])] for col in zip(*b)]
                for l, b in zip(lattices, bases):
                    for col in columns:
                        got = lattice_contains_vector(l, col)
                        assert got is basis_contains_vector(b, col), (e, k, l, col)
                        seen.add(got)
        assert seen == {True, False}


def _forbid_scalars(monkeypatch) -> None:
    """Make building a ``ScalarKHat`` fail.  Every scalar is built by
    ``scalars._make`` or by ``ScalarKHat.__init__``; ``_make`` is replaced
    wherever a ``drinfeld`` module has bound it, since modules bind their
    imports at import time."""

    def refuse(*args, **kwargs):
        raise AssertionError("a ScalarKHat was built")

    original = scalars._make
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "drinfeld" and getattr(module, "_make", None) is original:
            monkeypatch.setattr(module, "_make", refuse)
    monkeypatch.setattr(ScalarKHat, "__init__", refuse)


class TestIntegerPath:
    """Profiles, local spaces and membership read ints and build no scalar of
    the quadratic extension."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_builds_no_scalar(self, p, monkeypatch):
        cases = []
        for k in range(6):
            for e in ball_edges(truncated_tree(p, 2)):
                lattices = _edge_lattices(e, k)
                # columns with pihat parts and powers of p in their denominators
                vecs = [list(col) for l in lattices for col in zip(*lattice_basis(l))]
                cases.append((e, k, lattices, vecs))
        _forbid_scalars(monkeypatch)
        for e, k, lattices, vecs in cases:
            child, parent, edge, total = lattices
            vertex_lattice_profile(child_endpoint(e), k)
            vertex_lattice_profile(parent_endpoint(e), k)
            for src in (child, parent, total):
                local_space(src, edge)
            for l in lattices:
                for vec in vecs:
                    lattice_contains_vector(l, vec)
            edge_lattice_profile(p, k)
            local_space_report(p, k)
            for vec in vecs:
                in_edge_lattice(e, k, vec)
        # the guard trips where the program does build scalars
        with pytest.raises(AssertionError, match="ScalarKHat was built"):
            transition_matrix(child, parent)


class TestEdgeMembershipOnInts:
    """``in_edge_lattice`` reads an edge lattice's coordinates off the child
    transporter's triangular symmetric power; ``lattice_contains_vector``,
    which reads them off the full symmetric power of any lattice, is its
    oracle, on vectors inside the edge lattices as well as outside."""

    @pytest.mark.parametrize("p,radius", [(2, 3), (3, 3), (5, 2)])
    def test_columns_of_the_neighbouring_lattices(self, p, radius):
        """Every column of the endpoint lattices, the edge lattice and the
        endpoint sum, against the edge lattice of every edge of the ball."""
        seen = {True: 0, False: 0}
        for k in range(5):
            for e in ball_edges(truncated_tree(p, radius)):
                edge = edge_lattice(e, k)
                for l in _edge_lattices(e, k):
                    for col in zip(*lattice_basis(l)):
                        got = in_edge_lattice(e, k, list(col))
                        assert got is lattice_contains_vector(edge, list(col)), (e, k, l)
                        seen[got] += 1
        assert min(seen.values()) > 100, seen

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_residues_of_integral_sections(self, p):
        """Drawn sections, scaled by the pihat-power that puts their least
        doubled Gauss valuation over the radius-three ball at 0, pass the
        vertex membership test; their residues lie in every edge lattice, and
        divided by pihat some leave it."""
        t = truncated_tree(p, 3)
        rng = random.Random(4300 + p)
        seen, integral = {True: 0, False: 0}, 0
        for _ in range(100):
            f = random_rational(rng, p)
            if f.is_zero():
                continue
            k = rng.randint(0, 4)
            f = f * ScalarKHat.pihat(p, -min(gauss_valuation(f, v, k + 2) for v in ball_vertices(t)))
            assert all(section_lattice_membership(f, k + 2, v)[0] for v in ball_vertices(t))
            try:
                c = res0(f, k, t)
            except PoleInsideAnnulus:
                continue
            integral += 1
            for e in ball_edges(t):
                vec = cochain_value(c, e)
                assert in_edge_lattice(e, k, vec) and lattice_contains_vector(edge_lattice(e, k), vec)
                if any(vec):
                    seen[True] += 1
                    shifted = [scalar_div(x, ScalarKHat.pihat(p)) for x in vec]
                    got = in_edge_lattice(e, k, shifted)
                    assert got is lattice_contains_vector(edge_lattice(e, k), shifted), (f, k, e)
                    seen[got] += 1
        assert integral > 50 and min(seen.values()) > 20, (integral, seen)

    @given(
        seed=st.integers(0, 10**6),
        p=st.sampled_from([2, 3, 5, 7]),
        k=st.integers(0, 4),
        shift=st.integers(-2, 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_drawn_edges_and_vectors(self, seed, p, k, shift):
        """Integral combinations of the edge lattice's basis times pihat^shift,
        plus a drawn vector with pihat parts and powers of p in its denominators:
        inside for shift >= 0 when the drawn part is integral."""
        rng = random.Random(seed)
        v = random_vertex(rng, p)
        e = make_edge(v, rng.choice(children(v)))
        lift = lambda x: khat(p, Fraction(x), Fraction(rng.randint(-3, 3)))
        coeffs = [lift(rng.randint(-9, 9)) * ScalarKHat.pihat(p, shift) for _ in range(k + 1)]
        basis = lattice_basis(edge_lattice(e, k))
        vec = [sum((c * x for c, x in zip(coeffs, row)), ScalarKHat.zero(p)) for row in basis]
        noise = khat(p, Fraction(rng.randint(-9, 9), p ** rng.randint(0, 2)), Fraction(0))
        vec[rng.randrange(k + 1)] += noise * rng.randint(0, 1)
        assert in_edge_lattice(e, k, vec) is lattice_contains_vector(edge_lattice(e, k), vec)


class TestStandardEdgeGate:
    """``edge_lattice_profile`` reads the diagonal of the transition at the
    standard edge, and refuses a transition with b or c nonzero."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_diagonal_profile_equals_smith(self, p):
        e = standard_edge(p)
        for k in range(13):
            child = vertex_lattice(child_endpoint(e), k)
            parent = vertex_lattice(parent_endpoint(e), k)
            want = tuple(sorted(max(Fraction(0), x) for x in relative_profile(child, parent)))
            assert tuple(map(half, edge_lattice_profile(p, k))) == want, (p, k)

    def test_an_off_diagonal_entry_exits_three(self, monkeypatch):
        def skewed(p, m, n, d):
            # a transporter [[C, 0], [-O, L]]/C with O != 0 at the standard
            # edge's parent: the transition there gets entries below the diagonal
            L, O, C = _level_and_offset(p, m, n, d)
            return L, O + 1, C

        monkeypatch.setattr(lattices, "_level_and_offset", skewed)
        result = invoke(["lattice", "--p", "2", "--k", "3"])
        assert result.exit_code == 3, (result.output, repr(result.exception))
        assert result.stdout == "" and "Traceback" not in result.stderr
        assert result.stderr == (
            "internal invariant violated: the transition at the standard edge is not diagonal\n"
        )


def _profile_vertices(p: int) -> list:
    """The axis at levels -4..4 and every vertex within distance 2 of the
    base: every canonical offset at levels -2..2 that the ball reaches."""
    axis = [make_vertex(p, m, 0) for m in range(-4, 5)]
    return axis + [v for v in ball_vertices(truncated_tree(p, 2)) if v not in axis]


def _closed_form_mismatches(p: int) -> tuple[list, set]:
    """The transition pairs of every edge of the radius-2 ball at
    k = 0, 3, ..., 39 whose transition is not diagonal and whose closed-form
    rows (``oracles._residue_rows``, read from ``scalars._factorials``)
    differ from the rows read from ``sym_ints``'s big ints, a raise of
    ``NegativeValuation`` on one side only included; and the outcomes seen."""
    mismatches, outcomes = [], set()
    for e in ball_edges(truncated_tree(p, 2)):
        for k in range(0, 41, 3):
            for src, dst in _transition_pairs(e, k):
                if not (dst.g.inv() @ src.g).C:
                    continue
                sides = []
                for rows in (local_rows, closed_form_rows):
                    try:
                        sides.append(rows(src, dst))
                    except NegativeValuation:
                        sides.append("not integral")
                outcomes.add("not integral" if sides[0] == "not integral" else "integral")
                if sides[0] != sides[1]:
                    mismatches.append((e, k, src, dst))
    return mismatches, outcomes


class TestClosedFormsAgainstTheDenseMatrix:
    """The profiles and the local spaces' residue rows read from the closed
    form of the entries against the same read from ``sym_ints``'s lower
    triangular matrix of big ints, and those against ``substitution_matrix``'s
    dense matrix."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_vertex_profiles(self, p):
        for v in _profile_vertices(p):
            for k in range(41):
                got = vertex_lattice_profile(v, k)
                assert tuple(map(half, got)) == reference_vertex_profile(v, k), (v, k)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_edge_profiles(self, p):
        edges = ball_edges(truncated_tree(p, 1))
        for k in range(41):
            want = reference_edge_profile(standard_edge(p), k)
            assert all(tuple(map(half, edge_lattice_profile(p, k))) == want for e in edges), k

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_local_space_residue_rows(self, p, monkeypatch):
        """Every other transition's rows go to ``rref``; a diagonal one's
        basis is read from its diagonal, and equals the reduced rows."""
        seen = []

        def recording(rows, prime):
            seen.append(rows)
            return rref(rows, prime)

        monkeypatch.setattr(oracles, "rref", recording)
        outcomes = set()
        for e in ball_edges(truncated_tree(p, 2)):
            for k in range(0, 41, 3):
                for src, dst in _transition_pairs(e, k):
                    try:
                        want = reference_local_rows(src, dst)
                    except NegativeValuation:
                        with pytest.raises(NegativeValuation):
                            local_space(src, dst)
                        outcomes.add("not integral")
                    else:
                        space = local_space(src, dst)
                        g = dst.g.inv() @ src.g
                        if g.B or g.C:
                            got = seen.pop()
                            assert [[x % p for x in row] for row in got] == want, (e, k, src, dst)
                            outcomes.add("integral")
                        else:
                            assert not seen
                            basis, pivots = rref(want, p)
                            assert space == basis[: len(pivots)], (e, k, src, dst)
                            outcomes.add("diagonal")
        assert outcomes == {"integral", "diagonal", "not integral"}

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_closed_form_rows_equal_the_pascal_rows(self, p):
        mismatches, outcomes = _closed_form_mismatches(p)
        assert mismatches == []
        assert outcomes == {"integral", "not integral"}

    @pytest.mark.parametrize("p", [2, 5])
    def test_a_unit_part_off_by_one_is_found(self, p, monkeypatch):
        """With the unit part of one factorial, 2!'s, one more in the table,
        the closed-form rows no longer match, the oracle's general ones and
        the program's child 1 rows alike."""
        honest = scalars._factorials

        def off_by_one(prime, n):
            vals, units, inverses = honest(prime, n)
            if n >= 2:
                units[2] += 1
            return vals, units, inverses

        monkeypatch.setattr(oracles, "_factorials", off_by_one)
        mismatches, _ = _closed_form_mismatches(p)
        assert mismatches
        monkeypatch.undo()
        monkeypatch.setattr(lattices, "_factorials", off_by_one)
        assert any(list(lattices._child_rows(p, k)) != child_one_rows(p, k) for k in range(2, 30))


def _dense(rows: list[dict], k: int) -> list[list[int]]:
    return [[row.get(j, 0) for j in range(k + 1)] for row in rows]


def _echelon_from_the_right(rows: list[dict], p: int, k: int) -> list:
    """The reduced form of {column: nonzero residue} rows that are a basis in
    echelon form from the last column: no two end at one column."""
    ends = [max(row) for row in rows]
    assert len(set(ends)) == len(ends)
    assert all(0 < x < p for row in rows for x in row.values())
    basis, pivots = rref(_dense(rows, k), p) if rows else ([], [])
    return basis[: len(pivots)]


class TestStandardStarTransitions:
    """``lattices._local_space`` reads the standard star's two diagonal
    transitions, and the E-space's, from ints, and ``_child_rows`` child 1's;
    the oracle ``local_space``
    reduces the same from the ``Lattice`` records of the standard vertex and
    its edges.  The diagonal ones give the same unit vectors, and child 1's
    the nonzero residue rows, an echelon basis from the last column of the
    same span, all as {column: residue} maps."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_equal_the_lattice_records(self, p):
        v, e = standard_vertex(p), standard_edge(p)
        children = [make_edge(v, make_vertex(p, 1, c)) for c in (0, 1)]
        for k in range(0, 41, 3):
            assert _dense(lattices._local_space(p, k, 1), k) == d_space_basis(e, v, k), k
            assert _dense(lattices._local_space(p, k, 1, low=True), k) == e_space_basis(e, k), k
            assert _dense(lattices._local_space(p, k, p), k) == d_space_basis(children[0], v, k), k
            got = _echelon_from_the_right(list(lattices._child_rows(p, k)), p, k)
            assert got == d_space_basis(children[1], v, k), k

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_child_rows_are_the_general_transitions_rows(self, p):
        """Row i of child 1's local space, 2i >= k, is {j: C(k - j, i - j)
        mod p} over its nonzero entries, and ends at its diagonal entry 1:
        the nonzero rows that the general transition makes, row for row."""
        for k in range(60):
            rows = list(lattices._child_rows(p, k))
            assert rows == child_one_rows(p, k), k
            assert [(max(row), row[max(row)]) for row in rows] == [(i, 1) for i in range((k + 1) // 2, k + 1)], k


class TestEdgeLatticesAgainstSmith:
    """The column-scaled edge lattice and endpoint sum against the Smith
    intersection and sum of the two endpoint lattices, by mutual containment."""

    @pytest.mark.parametrize("p,radius", [(2, 3), (3, 3), (5, 2), (7, 2)])
    def test_every_edge_of_the_ball(self, p, radius):
        edges = ball_edges(truncated_tree(p, radius))
        for k in range(7):
            for e in edges:
                child = lattice_basis(vertex_lattice(child_endpoint(e), k))
                parent = lattice_basis(vertex_lattice(parent_endpoint(e), k))
                edge = lattice_basis(edge_lattice(e, k))
                assert basis_equal(edge, lattice_intersection(child, parent)), (e, k)
                assert basis_equal(endpoint_sum(child), lattice_sum(child, parent)), (e, k)

    @pytest.mark.parametrize("p,radius", [(2, 3), (3, 3), (5, 2), (7, 2)])
    def test_child_side_local_spaces_by_transition(self, p, radius):
        """The D-spaces on both sides and the E-space, reduced from the
        transitions between transporters, equal the ones reduced from the
        transitions between the basis matrices."""
        edges = ball_edges(truncated_tree(p, radius))
        for k in range(7):
            for e in edges:
                for side in (child_endpoint(e), parent_endpoint(e)):
                    got = d_space_basis(e, side, k)
                    assert got == transition_d_space_basis(e, side, k), (e, side, k)
                assert e_space_basis(e, k) == transition_e_space_basis(e, k), (e, k)

    @pytest.mark.parametrize("p", [2, 3])
    def test_edge_profile_off_the_standard_edge(self, p):
        edges = [e for e in ball_edges(truncated_tree(p, 2)) if e != standard_edge(p)]
        for k in range(5):
            for e in edges:
                child = lattice_basis(vertex_lattice(child_endpoint(e), k))
                parent = lattice_basis(vertex_lattice(parent_endpoint(e), k))
                want = basis_relative_profile(child, lattice_intersection(child, parent))
                got = edge_lattice_profile(p, k)
                assert tuple(map(half, got)) == want, (e, k)
                assert all(type(x) is int for x in got), (e, k)


class TestLatticeAlgebra:
    def _pair(self, seed):
        rng = random.Random(seed)
        p, k = 2, 2
        u = random_vertex(rng, p)
        w = random_vertex(rng, p)
        return lattice_basis(vertex_lattice(u, k)), lattice_basis(vertex_lattice(w, k))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_sum_and_intersection_containments(self, seed):
        a, b = self._pair(seed)
        s = lattice_sum(a, b)
        i = lattice_intersection(a, b)
        for x in (a, b):
            assert basis_contains(s, x)
            assert basis_contains(x, i)

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
        assert basis_relative_profile(lattice_basis(L), lattice_basis(L)) == (0, 0, 0)

    def test_transporter_independence(self):
        # two transporters to the same vertex give the same lattice
        p, k = 2, 2
        v = make_vertex(p, 2, 1)
        tau = vertex_transporter(v)
        alt = tau @ unipotent_lower(3)  # stabilizer twist at the base
        L1 = vertex_lattice(v, k)
        L2 = Lattice(p, k, alt, L1.scale)
        assert basis_equal(lattice_basis(L1), lattice_basis(L2))
        assert relative_profile(L1, L2) == (0, 0, 0)

    def test_edge_lattice_equivariance(self):
        p, k = 2, 2
        rng = random.Random(99)
        e = standard_edge(p)
        for _ in range(5):
            g = random_group_element(rng, p)
            source = lattice_basis(edge_lattice(e, k))
            cols = [dual_act(g, list(col), k, p) for col in zip(*source)]
            moved = [list(row) for row in zip(*cols)]
            assert basis_equal(moved, lattice_basis(edge_lattice(act_on_edge(g, e), k)))


class TestSectionMembership:
    def test_vertex_membership_frozen_pair(self):
        p = 2
        v = make_vertex(p, 1, 0)
        # the certificate is the doubled valuation: -2 for omega = -1
        assert section_lattice_membership(parse_rational("1", p), 2, v) == (False, -2)
        assert section_lattice_membership(parse_rational("1/z", p), 2, v) == (True, 0)

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

    @pytest.mark.parametrize("k", range(5))
    def test_membership_transports(self, k):
        for p in (2, 3, 5):
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
                assert before == after, (p, k, str(g), str(v))
                checked += 1
            assert checked >= 8


def _membership_sections(p: int) -> list:
    """Sections whose roots sit at 0, units, p-powers, pihat and pihat-shifted
    points, with poles and zeros of order up to 3 and p-power or pihat leads,
    and derivatives and sums of them, whose extra is not 1."""
    lift = lambda x: ScalarKHat.from_rational(Fraction(x), p)
    pihat = ScalarKHat.pihat(p)
    roots = [lift(0), lift(1), lift(p), lift(Fraction(1, p)), lift(p * p + 1), pihat,
             lift(1) + pihat, pihat * p, lift(Fraction(3, p**2)) + pihat * p**3]
    leads = [lift(1), lift(p**3), lift(Fraction(1, p**2)), pihat, ScalarKHat.pihat(p, -3)]
    rng = random.Random(7 * p)
    sections = []
    for lead in leads:
        for _ in range(3):
            factors = [(rng.choice(roots), rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(3)]
            sections.append(FactoredRational(p, lead, factors))
    sections += [f.derivative() for f in sections[::3]]
    sections += [add_rational(f, g) for f, g in zip(sections[::4], sections[1::4])]
    return [f for f in sections if not f.is_zero()]


class TestIntegerMembership:
    """``section_lattice_membership`` reads the transported Gauss valuation
    from the vertex's ints; the transport over K-hat is its oracle."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_vertex_of_the_radius_three_ball(self, p):
        sections = _membership_sections(p)
        assert any(f.extra for f in sections)
        seen = set()
        for v in ball_vertices(truncated_tree(p, 3)):
            for k in range(3):
                for f in sections:
                    got = section_lattice_membership(f, k, v)
                    assert got == membership_by_transport(f, k, v), (p, k, v, f)
                    seen.add(got[0])
        assert seen == {True, False}

    @given(
        seed=st.integers(0, 10**6),
        p=st.sampled_from([2, 3, 5, 7]),
        k=st.integers(0, 6),
        level=st.integers(-4, 4),
        digits=st.integers(0, 10**4),
    )
    @settings(max_examples=200, deadline=None)
    def test_drawn_sections_and_vertices(self, seed, p, k, level, digits):
        f = random_rational(random.Random(seed), p)
        v = make_vertex(p, level, Fraction(digits % p**4, p ** (digits % 3)))
        assert section_lattice_membership(f, k, v) == membership_by_transport(f, k, v)


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
