"""Residue cochains, harmonicity, integrality, and the cochain kernel."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import harmonic
from drinfeld.errors import InternalInvariantError, PoleInsideAnnulus
from drinfeld.harmonic import (
    Cochain,
    _ball_pass,
    _edge_residue,
    delta,
    field_kernel,
    res0,
    res0_integrality,
    star_local_kernels,
)
from drinfeld.rational import FactoredRational, _transported_valuations, gauss_valuation, parse_rational, principal_parts
from drinfeld.scalars import ScalarKHat, _make
from drinfeld.tree import truncated_tree
from inprocess import invoke
from oracles import (
    EdgeCochain,
    Mat2,
    OracleRational,
    act_on_edge,
    automorphic_act,
    ball_edges,
    ball_vertices,
    basis_contains_vector,
    child_endpoint,
    cochain_value,
    counted_poles_at_vertex,
    counted_poles_by_transporter,
    dense_field_kernel,
    dual_act,
    edge_lattice,
    edge_transporter,
    edge_values,
    incident_positions,
    interior_vertices,
    kernel_basis,
    lattice_basis,
    lattice_contains_vector,
    laurent_standard,
    make_edge,
    make_vertex,
    scalar_div,
    sigma,
    standard_vertex,
    support,
    sym_matrix,
    unipotent_lower,
)
from sampling import gamma_level, random_group_element, random_rational, weyl_flip


def cochain_transport(g: Mat2, c: Cochain) -> EdgeCochain:
    """Push a cochain forward: the value on the image edge is the module action
    of g on the old value, times the determinant parity sign."""
    p = c.ball.p
    sign = ScalarKHat.from_rational(sigma(g, p), p)
    values = {}
    for e, vec in edge_values(c).items():
        moved = dual_act(g, list(vec), c.k, p)
        values[act_on_edge(g, e)] = [sign * x for x in moved]
    return EdgeCochain(p, c.k, values)


def _vec_is_zero(ints):
    """Whether the vector with ``_common_denominator`` ints ``ints`` is 0."""
    return not any(ints[0]) and not any(ints[1])


def _reference_field_kernel(tree, k):
    """Kernel dimension by dense reference elimination of the interleaved
    (k+1)·E-column star-sum matrix."""
    p = tree.p
    zero, one = ScalarKHat.zero(p), ScalarKHat.one(p)
    edges = ball_edges(tree)
    at = incident_positions(edges)
    ncols = (k + 1) * len(edges)
    rows = []
    for v in interior_vertices(tree):
        incident = at[v]
        for i in range(k + 1):
            row = [zero] * ncols
            for n in incident:
                row[n * (k + 1) + i] = one
            rows.append(row)
    return len(kernel_basis(rows, zero, one)) if rows else ncols


def _lattice_coordinate_rows(tree, k):
    """The star-sum rows in edge-lattice coordinates: the block of edge e at
    interior vertex v is the basis matrix of the edge lattice of e."""
    zero = ScalarKHat.zero(tree.p)
    edges = ball_edges(tree)
    bases = {e: lattice_basis(edge_lattice(e, k)) for e in edges}
    at = incident_positions(edges)
    rows = []
    for v in interior_vertices(tree):
        incident = set(at[v])
        for r in range(k + 1):
            row = []
            for n, e in enumerate(edges):
                if n in incident:
                    row.extend(bases[e][r])
                else:
                    row.extend([zero] * (k + 1))
            rows.append(row)
    return rows, (k + 1) * len(edges)


def _reference_edge_residue(g, k, gamma, p):
    """The residue value by rebuilding the section on the edge: transport to
    the standard annulus, Laurent-expand, read a_{-1}..a_{-k-1} and pair them
    through the transporter's module action."""
    moved = automorphic_act(gamma, g, k + 2)
    win = laurent_standard(moved, -(k + 1), -1)
    coeffs = [win.coefficient(-s - 1) for s in range(k + 1)]
    if all(a.is_zero() for a in coeffs):
        return [ScalarKHat.zero(p)] * (k + 1)
    c = sym_matrix(gamma, k, p)
    sign = ScalarKHat.from_rational(sigma(gamma, p), p)
    return [
        sign * sum((coeffs[s] * c[s][i] for s in range(k + 1)), ScalarKHat.zero(p))
        for i in range(k + 1)
    ]


def _reference_res0(g, k, tree, rng=None):
    """res0 edge by edge through _reference_edge_residue, with the same
    second-transporter audit when ``rng`` is given.  An edge whose annulus
    the Laurent expansion refuses is refused by the disc rule's oracle too,
    which names the section's pole and the edge's child end."""
    values, parts = {}, principal_parts(g)
    for e in ball_edges(tree):
        try:
            vec = _reference_edge_residue(g, k, edge_transporter(e).inv(), tree.p)
        except PoleInsideAnnulus:
            counted_poles_at_vertex(parts, child_endpoint(e))
            raise AssertionError(f"the Laurent expansion refuses {e}, which the disc rule admits") from None
        if rng is not None:
            jitter = unipotent_lower(rng.randrange(1, 5 * tree.p))
            alt = (edge_transporter(e) @ jitter).inv()
            other = _reference_edge_residue(g, k, alt, tree.p)
            assert all((a - b).is_zero() for a, b in zip(vec, other))
        if any(not x.is_zero() for x in vec):
            values[e] = vec
    return EdgeCochain(tree.p, k, values)


def _outcome(fn, *args, **kwargs):
    """The cochain's values, or the class and message of what it raised."""
    try:
        return edge_values(fn(*args, **kwargs))
    except PoleInsideAnnulus as exc:
        return (type(exc), str(exc))


def _oracle_roots(p):
    """Roots at 0, at units, at p, p^2, 1/p, pihat and 1 + pihat."""
    lift = lambda x: ScalarKHat.from_rational(x, p)
    pihat = ScalarKHat.pihat(p)
    return [
        lift(0), lift(1), lift(-1), lift(2 if p != 2 else 3),
        lift(p), lift(p * p), lift(Fraction(1, p)), lift(Fraction(3, p)),
        pihat, lift(1) + pihat,
    ]


def _oracle_sections(p, rng, count):
    """Seeded products of (z - y)^m with |m| <= 3 over the oracle roots,
    scaled by 1, pihat, p or 1/p, and products of two of them."""
    roots = _oracle_roots(p)
    leads = [
        ScalarKHat.one(p), ScalarKHat.pihat(p), ScalarKHat.from_rational(p, p),
        ScalarKHat.from_rational(Fraction(1, p), p),
    ]

    def product():
        chosen = rng.sample(roots, rng.randint(1, 3))
        factors = [(y, rng.choice([-3, -2, -1, -1, 1, 2, 3])) for y in chosen]
        return FactoredRational(p, rng.choice(leads), factors)

    out = []
    while len(out) < count:
        f = product() * product() if len(out) % 3 == 2 else product()
        if not f.is_zero():
            out.append(f)
    return out


class TestResidueOracle:
    """res0 reads each edge value from the principal parts of the section;
    the reference rebuilds the section on every edge."""

    @pytest.mark.parametrize("p, radius", [(2, 3), (3, 2), (5, 1)])
    @pytest.mark.parametrize("k", range(5))
    def test_whole_cochains_match_the_reference(self, p, radius, k, tree_factory):
        t = tree_factory(p, radius)
        rng = random.Random(1000 * p + 10 * radius + k)
        sections = _oracle_sections(p, rng, 12)
        raised = 0
        for f in sections:
            want = _outcome(_reference_res0, f, k, t)
            assert _outcome(res0, f, k, t) == want
            raised += isinstance(want, tuple)
        assert raised < len(sections)

    @pytest.mark.parametrize("p, radius", [(2, 2), (3, 2), (5, 1)])
    def test_every_oracle_root_as_a_pole(self, p, radius, tree_factory):
        t = tree_factory(p, radius)
        one = ScalarKHat.one(p)
        for y in _oracle_roots(p):
            for m in (1, 2, 3):
                f = FactoredRational(p, one, [(y, -m)])
                g = f * FactoredRational(p, one, [(ScalarKHat.zero(p), -1)])
                for k in (0, 2):
                    for h in (f, g):
                        assert _outcome(res0, h, k, t) == _outcome(
                            _reference_res0, h, k, t
                        )

    def test_the_error_names_the_smallest_pole_of_the_annulus(self, tree_factory):
        p = 3
        t = tree_factory(p, 1)
        f = parse_rational("(z-pihat)^-1*(z+pihat)^-2*(z-p-pihat)^-1", p)
        got = _outcome(res0, f, 0, t)
        annulus = "sits inside the annulus of the edge whose child end is"
        assert got == (PoleInsideAnnulus, f"pole at -1*pihat with valuation 1/2 {annulus} V(0,0)")
        assert got == _outcome(_reference_res0, f, 0, t)
        # the section's own pole, not its image under the edge's transporter
        for text, radius, want in (
            ("(z-pihat^-3)^-1", 2, "pole at 1/4*pihat with valuation -3/2 {} V(2,0)"),
            ("pihat^-1*(z-pihat^3)^-2*(z-1)", 4, "pole at 2*pihat with valuation 3/2 {} V(-1,0)"),
        ):
            g, ball = parse_rational(text, 2), tree_factory(2, radius)
            assert _outcome(res0, g, 0, ball) == (PoleInsideAnnulus, want.format(annulus)), text
            assert _outcome(res0, g, 0, ball) == _outcome(_reference_res0, g, 0, ball), text

    def test_a_pole_that_extra_cancels_is_no_pole(self, tree_factory):
        # 1/z with a factor (z - pihat) in extra against a stated (z - pihat)^-1:
        # res0 refuses an extra, and refactored on the oracle type the pole is gone
        p = 2
        t = tree_factory(p, 2)
        one, pihat = ScalarKHat.one(p), ScalarKHat.pihat(p)
        z_inv = [(ScalarKHat.zero(p), -1)]
        cancelled = OracleRational(p, one, z_inv + [(pihat, -1)], (-pihat, one))
        halved = OracleRational(p, one, z_inv + [(pihat, -2)], (-pihat, one))
        for f in (cancelled, halved):
            with pytest.raises(InternalInvariantError):
                res0(f, 0, t)
        assert cancelled.refactored().factors == parse_rational("1/z", p).factors
        for k in (0, 1, 3):
            got = _outcome(res0, cancelled.refactored(), k, t)
            assert got == _outcome(res0, parse_rational("1/z", p), k, t)
            got = _outcome(res0, halved.refactored(), k, t)
            assert isinstance(got, tuple)
            assert got == _outcome(_reference_res0, halved.refactored(), k, t)

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_audited_cochains_match_the_reference(self, k, tree_factory):
        p = 3
        t = tree_factory(p, 2)
        for n, f in enumerate(_oracle_sections(p, random.Random(77 + k), 6)):
            want = _outcome(_reference_res0, f, k, t, random.Random(n))
            assert _outcome(res0, f, k, t, random.Random(n)) == want


def _series_values(f, k, tree):
    """Every edge value by ``_edge_residue``'s series through the edge's own
    transporter, as scalars, or the class and message of the first refusal,
    which the disc rule's oracle reads from the same transporter.  The
    inverse of every edge transporter is lower triangular with a = 1, the
    form ``_edge_residue`` takes."""
    p, parts = tree.p, principal_parts(f)
    gammas = {e: edge_transporter(e).inv() for e in ball_edges(tree)}
    try:
        for gamma in gammas.values():
            counted_poles_by_transporter(parts, gamma, p)
    except PoleInsideAnnulus as exc:
        return (type(exc), str(exc))
    values = {}
    for e, gamma in gammas.items():
        assert gamma.B == 0 and gamma.N == gamma.A, gamma
        a, b, den = _edge_residue(parts, k, gamma.A, gamma.C, gamma.D, p)
        values[e] = [_make(p, x, y, den) for x, y in zip(a, b)]
    return values


def _per_pole_values(f, k, tree):
    """Every edge value of res0, or the class and message of its refusal."""
    try:
        c = res0(f, k, tree)
    except PoleInsideAnnulus as exc:
        return (type(exc), str(exc))
    return {e: cochain_value(c, e) for e in ball_edges(tree)}


def _infinity_inside(e, p) -> bool:
    """Whether the disc that e cuts off holds gamma^-1(infinity) = -a/c."""
    a, _, c, _ = edge_transporter(e).inv().lift(p)
    return not c.is_zero() and scalar_div(a, c).valuation() >= 2


class TestPerPoleResidues:
    """res0 sums per-pole residue vectors over the poles its disc rule picks;
    ``_edge_residue`` expands the series through the edge's transporter.  They
    agree on every edge, refusals included."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("k", range(5))
    def test_every_edge_matches_the_series(self, p, k, tree_factory):
        t = tree_factory(p, 3)
        lift = lambda x: ScalarKHat.from_rational(x, p)
        one, pihat = lift(1), ScalarKHat.pihat(p)
        # poles of order up to 3, and a pihat-shifted pole that no annulus
        # of the ball holds (v(y - 1) = 7/2)
        shifted = one + pihat * p**3
        sections = _oracle_sections(p, random.Random(2600 + 10 * p + k), 9) + [
            FactoredRational(p, one, [(lift(p), -3), (lift(Fraction(1, p)), -2), (lift(0), 1)]),
            FactoredRational(p, pihat, [(shifted, -2), (lift(1 + p), -1)]),
            FactoredRational(p, one, [(lift(p * p), -3), (lift(-1), -1), (lift(2), 2)]),
        ]
        refused = 0
        for f in sections:
            want = _series_values(f, k, t)
            assert _per_pole_values(f, k, t) == want
            refused += isinstance(want, tuple)
        assert 0 < refused < len(sections) - 3
        assert any(_infinity_inside(e, p) for e in ball_edges(t))

    @given(
        p=st.sampled_from([2, 3, 5]),
        k=st.integers(0, 4),
        poles=st.lists(
            st.tuples(
                st.fractions(min_value=-50, max_value=50, max_denominator=30),
                st.integers(-3, 2).filter(bool),
            ),
            min_size=1,
            max_size=4,
            unique_by=lambda x: x[0],
        ),
        lead=st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_sections_with_rational_poles(self, p, k, poles, lead):
        lift = lambda x: ScalarKHat.from_rational(x, p)
        f = FactoredRational(p, lift(lead), [(lift(y), m) for y, m in poles])
        t = truncated_tree(p, 2)
        want = _series_values(f, k, t)
        assert not isinstance(want, tuple)
        assert _per_pole_values(f, k, t) == want

    def test_the_series_runs_only_under_audit(self, monkeypatch):
        calls = []

        def series(*args):
            calls.append(args)
            raise AssertionError("the series ran")

        monkeypatch.setattr(harmonic, "_edge_residue", series)
        args = ["residue", "--p", "2", "--k", "1", "--f", "(z-2)^-1*(z-3/2)", "--radius", "3"]
        result = invoke(args)
        assert result.exit_code == 0, result.output
        assert calls == []
        result = invoke([*args, "--audit"])
        assert isinstance(result.exception, AssertionError) and len(calls) == 1

    def test_the_audit_fails_on_a_wrong_pole_vector(self, monkeypatch):
        """With L added to the first entry of every pole vector, the cochain
        no longer matches the series: the audited command exits 3 and the
        plain one, which runs no series, exits 0."""
        honest = harmonic._pole_vector

        def off(y, principal, k):
            a, b, L = honest(y, principal, k)
            return [a[0] + L, *a[1:]], b, L

        monkeypatch.setattr(harmonic, "_pole_vector", off)
        args = ["residue", "--p", "2", "--k", "1", "--f", "(z-2)^-1*(z-3/2)", "--radius", "3"]
        result = invoke([*args, "--audit", "--seed", "3"])
        assert result.exit_code == 3, result.output
        assert "disagrees with the series" in result.output
        assert invoke(args).exit_code == 0


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
        assert set(support(c)) == expected_support
        for n in range(-2, 4):
            e = make_edge(make_vertex(p, n - 1, 0), make_vertex(p, n, 0))
            expected = ScalarKHat.from_rational((-1) ** (n % 2), p)
            assert (cochain_value(c, e)[0] - expected).is_zero()

    def test_polynomials_have_zero_residue(self, tree_factory):
        p = 2
        t = tree_factory(p, 2)
        c = res0(parse_rational("z^2", p), 0, t)
        assert support(c) == []

    def test_weight_raises_vector_length(self, tree_factory):
        p = 2
        t = tree_factory(p, 2)
        for k in (0, 1, 2):
            c = res0(parse_rational("1/z", p), k, t)
            for e in support(c):
                assert len(cochain_value(c, e)) == k + 1


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
        bump = Cochain(t, 0, {0: ([1], [0], 1)})
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
            for e in support(lhs):
                if e in support(rhs):
                    compared += 1
                    assert all(
                        (a - b).is_zero()
                        for a, b in zip(cochain_value(lhs, e), cochain_value(rhs, e))
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
            assert e in support(moved)

    def test_weyl_flip_preserves_spine_support(self, tree_factory):
        p = 2
        t = tree_factory(p, 3)
        c = res0(parse_rational("1/z", p), 0, t)
        flipped = cochain_transport(weyl_flip(), c)
        spine = {
            make_edge(make_vertex(p, n - 1, 0), make_vertex(p, n, 0))
            for n in range(-2, 4)
        }
        assert set(support(flipped)) == spine


def _key_poles(key):
    """A ``_ball_pass`` key as ``counted_poles_at_vertex`` gives it: the
    indices of the summed poles, bits 1, 2, ..., and the sign, bit 0."""
    return tuple(i for i in range(key.bit_length() - 1) if key >> i + 1 & 1), -1 if key & 1 else 1


def _outcome_of(fn, *args):
    """What fn returns, or the class and message of its refusal."""
    try:
        return fn(*args)
    except PoleInsideAnnulus as exc:
        return (type(exc), str(exc))


class TestCountedPolesOnInts:
    """``counted_poles_at_vertex`` reads the disc rule from the child vertex's
    ints, as ``res0``'s pass over the ball does; its oracle reads it from the
    entries of a transporter's inverse over K-hat, both the edge's own
    transporter and one twisted by the stabilizer of the standard edge."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_edge_of_the_radius_three_ball(self, p, tree_factory):
        t = tree_factory(p, 3)
        lift = lambda x: ScalarKHat.from_rational(x, p)
        one, pihat = lift(1), ScalarKHat.pihat(p)
        sections = _oracle_sections(p, random.Random(3200 + p), 24) + [
            # pihat-shifted poles: v(y - 1) = 7/2 and v(y - p) = 3/2
            FactoredRational(p, pihat, [(one + pihat * p**3, -2), (lift(1 + p), -1)]),
            FactoredRational(p, one, [(lift(p) + pihat * p, -1), (lift(Fraction(1, p)), -2)]),
            FactoredRational(p, one, [(lift(p * p), -3), (lift(-1), -1), (lift(2), 2)]),
        ]
        rng = random.Random(p)
        seen = set()
        for f in sections:
            parts = principal_parts(f)
            for e in ball_edges(t):
                got = _outcome_of(counted_poles_at_vertex, parts, child_endpoint(e))
                want = _outcome_of(counted_poles_by_transporter, parts, edge_transporter(e).inv(), p)
                assert got == want, (f, e)
                # a refusal names the section's pole and the child end, as the alternative does
                alt = (edge_transporter(e) @ unipotent_lower(rng.randrange(1, 5 * p))).inv()
                assert _outcome_of(counted_poles_by_transporter, parts, alt, p) == want
                if want[0] is PoleInsideAnnulus:
                    seen.add("refused")
                else:
                    poles, sign = got
                    seen.add((bool(poles), sign, any(y.B for i, (y, _) in enumerate(parts) if i in poles)))
        assert any(_infinity_inside(e, p) for e in ball_edges(t))
        assert "refused" in seen
        # counted sets with and without pihat poles, under both signs
        assert {(True, 1, True), (True, -1, True), (True, 1, False), (True, -1, False)} <= seen

    def test_res0_builds_no_transporter_unless_audited(self, monkeypatch, tree_factory):
        p = 3
        t = tree_factory(p, 3)
        sections = _oracle_sections(p, random.Random(31), 6)
        want = [_outcome(res0, f, 2, t) for f in sections]

        def refuse(*_):
            raise AssertionError("an edge transporter was built")

        # only the audit builds a transporter, from the child end's ints and a jitter
        monkeypatch.setattr(harmonic, "_edge_residue", refuse)
        assert [_outcome(res0, f, 2, t) for f in sections] == want
        with pytest.raises(AssertionError, match="edge transporter was built"):
            res0(parse_rational("1/z", p), 2, t, rng=random.Random(1))


class TestOnePassOverTheBall:
    """``_ball_pass`` reads each vertex's omega(1 - b y) once, for the counted
    poles of the edge whose child end it is, and ``_transported_valuations``
    reads the vertex's Gauss valuation from the same pass.
    ``counted_poles_at_vertex`` and ``gauss_valuation`` on ``Vertex`` objects
    are their oracles, edge by edge and vertex by vertex: a pass refuses at
    the first edge, in edge order, that the oracle refuses."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_keys_and_valuations_of_the_radius_three_ball(self, p, tree_factory):
        t = tree_factory(p, 3)
        lift = lambda x: ScalarKHat.from_rational(x, p)
        one, pihat = lift(1), ScalarKHat.pihat(p)
        sections = _oracle_sections(p, random.Random(4500 + p), 10) + [
            # pihat roots: v(y - 1) = 7/2, v(y - p) = 3/2, and one at valuation 1/2
            FactoredRational(p, pihat, [(one + pihat * p**3, -2), (lift(1 + p), -1)]),
            FactoredRational(p, one, [(lift(p) + pihat * p, -1), (lift(Fraction(1, p)), -2)]),
            FactoredRational(p, one, [(pihat, -1), (lift(0), -1)]),
        ]
        seen = set()
        for f in sections:
            parts = principal_parts(f)
            want = _outcome_of(lambda: [counted_poles_at_vertex(parts, e.v) for e in ball_edges(t)])
            got = _outcome_of(lambda: _ball_pass(f, parts, t))
            if isinstance(want, tuple):
                assert got == want, f
                seen.add("refused")
                continue
            keys, geometry = got
            assert [_key_poles(key) for key in keys] == want, f
            seen.add(("pihat root", any(y.B for y, _ in parts)))
            for k in range(4):
                vals = list(_transported_valuations(f, k + 2, p, t.levels, t.nums, t.dens, *geometry))
                assert vals == [gauss_valuation(f, v, k + 2) for v in ball_vertices(t)], (f, k)
                seen.add(("member", all(x >= 0 for x in vals)))
        assert {"refused", ("member", True), ("member", False), ("pihat root", True)} <= seen


class TestIntegrality:
    @pytest.mark.parametrize("p,radius", [(2, 4), (3, 3), (5, 2)])
    def test_membership_of_residue_values_against_solve(self, p, radius, tree_factory):
        """The membership test on every edge value of residue cochains, inside
        and outside the edge lattices, against solve over the basis matrix."""
        t = tree_factory(p, radius)
        seen = set()
        for text in ("1/z", "pihat^-1/z", "z^-2*(z-2)", "pihat/z/(z-1)"):
            f = parse_rational(text, p)
            for k in range(5):
                c = res0(f, k, t)
                for e in ball_edges(t):
                    got = lattice_contains_vector(edge_lattice(e, k), cochain_value(c, e))
                    want = basis_contains_vector(lattice_basis(edge_lattice(e, k)), cochain_value(c, e))
                    assert got is want, (text, k, e)
                    seen.add(got)
        assert seen == {True, False}

    def test_unit_section_is_integral(self, tree_factory):
        p = 2
        t = tree_factory(p, 3)
        f = parse_rational("1/z", p)
        report = res0_integrality(f, 0, t, res0(f, 0, t))
        assert report["in_all_edge_lattices"] is True
        assert report["vertex_membership"] is True

    def test_scaled_section_is_not(self, tree_factory):
        p = 2
        t = tree_factory(p, 3)
        f = parse_rational("pihat^-1/z", p)
        report = res0_integrality(f, 0, t, res0(f, 0, t))
        assert report["in_all_edge_lattices"] is False

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("text", ["1/z", "pihat^-1/z", "z^-2*(z-2)", "0"])
    def test_given_cochain_gives_the_same_report(self, text, k, tree_factory):
        # the report solves only on the stored edges; every edge value is checked here
        p = 2
        t = tree_factory(p, 3)
        f = parse_rational(text, p)
        c = res0(f, k, t)
        report = res0_integrality(f, k, t, c)
        expected = [lattice_contains_vector(edge_lattice(e, k), cochain_value(c, e)) for e in ball_edges(t)]
        assert report["in_all_edge_lattices"] is all(expected)

    @pytest.mark.parametrize("k", [0, 1])
    def test_edges_outside_the_support_are_in_their_lattices(self, k, tree_factory):
        p = 2
        t = tree_factory(p, 3)
        f = parse_rational("pihat^-1/z", p)
        c = res0(f, k, t)
        failing = [
            e for e in ball_edges(t) if not lattice_contains_vector(edge_lattice(e, k), cochain_value(c, e))
        ]
        stored = set(support(c))
        assert stored != set(ball_edges(t)) and set(failing) <= stored
        assert len(failing) > 1
        assert res0_integrality(f, k, t, c)["in_all_edge_lattices"] is False


class TestTransporterAudit:
    @pytest.mark.parametrize("k", [0, 1])
    def test_audited_residue_matches_plain(self, k, tree_factory):
        p = 2
        t = tree_factory(p, 2)
        f = parse_rational("1/z", p)
        plain = res0(f, k, t)
        audited = res0(f, k, t, rng=random.Random(5))
        assert set(support(plain)) == set(support(audited))
        for e in support(plain):
            assert all(
                (a - b).is_zero()
                for a, b in zip(cochain_value(plain, e), cochain_value(audited, e))
            )


class TestKernelDimensions:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("radius", [1, 2])
    def test_field_kernel_has_boundary_dimension(self, p, k, radius):
        # dim ker(delta) = (k+1) * (edges - interior vertices) on a ball
        t = truncated_tree(p, radius)
        boundary_excess = len(ball_edges(t)) - len(interior_vertices(t))
        assert field_kernel(t, k) == (k + 1) * boundary_excess

    @pytest.mark.parametrize(
        "p, radius",
        [(p, r) for p in (2, 3, 5) for r in range(4)] + [(2, 4)],
    )
    def test_block_field_kernel_equals_dense_elimination(self, p, radius):
        t = truncated_tree(p, radius)
        for k in range(4):
            assert field_kernel(t, k) == _reference_field_kernel(t, k)

    @pytest.mark.parametrize(
        "p, radius",
        [(p, r) for p in (2, 3, 5, 7) for r in range(5)] + [(2, 5), (2, 6)],
    )
    def test_incidence_rank_mod_p_equals_the_dense_rank(self, p, radius):
        """The rank over F_p of the sparse int rows is the rank over K-hat
        of the dense ones: the incidence matrix of a tree is totally
        unimodular."""
        t = truncated_tree(p, radius)
        k = radius % 3
        assert field_kernel(t, k) == dense_field_kernel(t, k)

    def test_mod_pihat_kernel_shape(self):
        # the star rows in edge-lattice coordinates are the incidence rows
        # tensored with the identity times invertible edge bases, so dense
        # reference elimination of them gives the field kernel's dimension
        for p, radius, k in itertools.product((2, 3, 5, 7), range(3), range(5)):
            t = truncated_tree(p, radius)
            zero, one = ScalarKHat.zero(p), ScalarKHat.one(p)
            rows, ncols = _lattice_coordinate_rows(t, k)
            want = len(kernel_basis(rows, zero, one)) if rows else ncols
            assert field_kernel(t, k) == want, (p, radius, k)
            assert sorted(star_local_kernels(t, k)) == sorted(
                str(v) for v in interior_vertices(t)
            )

    def test_star_local_dims_match_closed_form(self):
        p = 2
        t = truncated_tree(p, 1)
        star0 = star_local_kernels(t, 0)
        star1 = star_local_kernels(t, 1)
        v = str(standard_vertex(p))
        assert star0[v] == 2
        assert star1[v] == 1
