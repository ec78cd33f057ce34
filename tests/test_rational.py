"""Factored rational functions: parsing, calculus, transport, Gauss norms."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld.cli import _value
from drinfeld.errors import PoleInsideAnnulus, ZeroFunction
from drinfeld.rational import FactoredRational, gauss_valuation, parse_rational, principal_parts
from drinfeld.scalars import ScalarKHat
from drinfeld.theta import theta
from drinfeld.tree import Mat2, make_vertex, vertex_transporter
from oracles import (
    automorphic_act,
    compose_mobius,
    derivative_by_steps,
    fraction_valuation,
    laurent_standard,
    poly_evaluate,
    raw_gauss_valuation,
    reduce_mod_pihat,
    reference_principal_parts,
    transported_gauss_valuation,
)
from sampling import gamma_level, monomial, random_group_element, random_rational, random_vertex, weyl_flip


def evaluate(f: FactoredRational, z0: ScalarKHat) -> ScalarKHat:
    """The value of f at a point z0."""
    acc = f.lead * poly_evaluate(f.extra, z0, ScalarKHat.zero(f.p))
    for root, mult in f.factors:
        base = z0 - root
        if base.is_zero():
            if mult < 0:
                raise ZeroDivisionError(f"pole at {z0}")
            if mult > 0:
                return ScalarKHat.zero(f.p)
            continue
        acc = acc * base**mult
    return acc


def gauss_sample_audit(
    f: FactoredRational, v, rng, trials: int = 20
) -> dict:
    """Sample exact points on the closed tube of v and compare against the
    Gauss valuation.

    Sample points are units in the transported coordinate, kept outside the
    residue class of every unit-valuation pole so that each value is certified
    to sit at or above the Gauss valuation.  Attaining the minimum needs a unit
    residue class away from *all* unit-valuation roots and poles; over the
    ramified quadratic extension the residue field is still F_p, so for small p
    that class may not exist.  Obstructed verdicts are reported as None rather
    than False: None means "not decidable by rational points of this field",
    False means a genuine discrepancy.
    """
    p = f.p
    moved = automorphic_act(vertex_transporter(v).inv(), f, 0)
    gv = raw_gauss_valuation(moved)
    unit_residues = set(range(1, p))
    pole_residues = set()
    circle_residues = set()  # residues of all unit-valuation roots and poles
    for root, mult in moved.factors:
        if fraction_valuation(root) == 0:
            r = reduce_mod_pihat(root)
            circle_residues.add(r)
            if mult < 0:
                pole_residues.add(r)
    extra_blocks = set()
    if moved.extra and len(moved.extra) > 1:
        # residues where the reduced polynomial part drops below its generic
        # valuation: roots of (extra / p^min_val) mod pihat
        shift = min(fraction_valuation(c) for c in moved.extra)
        for r in unit_residues:
            total = ScalarKHat.zero(p)
            zr = ScalarKHat.from_rational(r, p)
            for j, c in enumerate(moved.extra):
                total = total + c * zr**j
            if fraction_valuation(total) > shift:
                extra_blocks.add(r)
    attainable = bool(unit_residues - circle_residues - extra_blocks)
    samplable = bool(unit_residues - pole_residues)
    sampled = []
    allowed = sorted(unit_residues - pole_residues)
    for i in range(trials if samplable else 0):
        r = allowed[i % len(allowed)]
        u = r + p * rng.randrange(0, 8)
        w = rng.randrange(0, p * 8)
        z_std = ScalarKHat(p, Fraction(u), Fraction(w))
        sampled.append(fraction_valuation(evaluate(moved, z_std)))
    ok = all(val >= gv for val in sampled) if sampled else None
    if sampled and min(sampled) == gv:
        attained = True
    else:
        attained = None if not attainable else (False if sampled else None)
    return {
        "gauss": gv,
        "samples": sampled,
        "all_at_or_above": ok,
        "minimum_attained": attained,
    }


class TestParsing:
    @pytest.mark.parametrize(
        "text",
        ["1/z", "pihat*z^-1", "3*(z-1)^2*(z-1/2)^-1", "(z-p)/z", "z^3", "-2", "z*(z+1)"],
    )
    @pytest.mark.parametrize("p", [2, 3])
    def test_roundtrip_through_num_den(self, text, p):
        f = parse_rational(text, p)
        num, den = f.num_den()
        # cross-multiplied comparison: f * den == num as rational functions
        one = ScalarKHat.one(p)
        assert f * FactoredRational(p, one, (), den) == FactoredRational(p, one, (), num)

    def test_p_literal_is_the_prime(self):
        f = parse_rational("(z-p)", 3)
        assert evaluate(f, ScalarKHat.from_rational(3, 3)).is_zero()

    def test_pihat_literal_squares_to_p(self):
        f = parse_rational("pihat*pihat", 5)
        assert (evaluate(f, ScalarKHat.one(5)) - ScalarKHat.from_rational(5, 5)).is_zero()

    def test_zero_and_one(self):
        assert parse_rational("0", 2).is_zero()
        assert (parse_rational("1", 2) - FactoredRational.one(2)).is_zero()


class TestArithmetic:
    @pytest.mark.parametrize("p", [2, 3])
    def test_field_identities_on_samples(self, p):
        rng = random.Random(500 + p)
        for _ in range(6):
            f = random_rational(rng, p)
            g = random_rational(rng, p)
            h = random_rational(rng, p)
            assert (f + g) * h == f * h + g * h
            assert f - f == FactoredRational(p, ScalarKHat.zero(p))
            if not g.is_zero():
                assert (f / g) * g == f

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            FactoredRational(2, ScalarKHat.zero(2)).inverse()

    def test_degree_of_products(self):
        p = 2
        f = parse_rational("z^2*(z-1)", p)
        g = parse_rational("(z-p)^-1", p)
        degree = lambda h: len(h.num_den()[0]) - len(h.num_den()[1])
        assert degree(f) == 3
        assert degree(f * g) == 2


class TestCalculus:
    def test_power_rule(self):
        p = 2
        for n in range(1, 6):
            f = monomial(p, n)
            expected = FactoredRational(
                p, ScalarKHat.from_rational(n, p), [(ScalarKHat.zero(p), n - 1)]
            )
            assert f.derivative() == expected

    def test_product_rule_on_samples(self):
        p = 3
        rng = random.Random(601)
        for _ in range(5):
            f = random_rational(rng, p)
            g = random_rational(rng, p)
            assert (f * g).derivative() == f.derivative() * g + f * g.derivative()

    def test_quotient_derivative_on_simple_pole(self):
        p = 2
        f = parse_rational("1/z", p)
        assert f.derivative() == parse_rational("-1*z^-2", p)

    def test_higher_order_matches_iteration(self):
        p = 2
        rng = random.Random(607)
        f = random_rational(rng, p)
        assert f.derivative(3) == f.derivative().derivative().derivative()


@st.composite
def _sections(draw):
    """A section at p in {2, 3, 5} with up to four factors of multiplicity
    -3..4 at rational roots, 0, pihat powers and sums of the two, and half
    the time plus a one-factor section, so that extra is not 1."""
    p = draw(st.sampled_from([2, 3, 5]))
    rationals = st.sampled_from([0, 1, -1, 2, Fraction(1, p), p, p * p, 1 + p, Fraction(3, 4)])
    roots = st.one_of(
        rationals.map(lambda x: ScalarKHat.from_rational(x, p)),
        st.integers(-2, 3).map(lambda e: ScalarKHat.pihat(p, e)),
        st.tuples(rationals, st.integers(-1, 2)).map(
            lambda t: ScalarKHat.from_rational(t[0], p) + ScalarKHat.pihat(p, t[1])
        ),
    )
    lead = ScalarKHat.from_rational(draw(st.sampled_from([1, Fraction(2, 3), -p])), p)
    f = FactoredRational(p, lead, draw(st.lists(st.tuples(roots, st.integers(-3, 4)), max_size=4)))
    if draw(st.booleans()):
        f = f + FactoredRational(p, ScalarKHat.one(p), [(draw(roots), draw(st.integers(-2, 2)))])
    return f


class TestOnePassDerivative:
    """``derivative(n)`` runs one recurrence and builds the image once.  The
    oracle is n single derivatives, each refactored over the roots left and 0."""

    @given(f=_sections(), n=st.integers(0, 6))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_repeated_derivative_as_function_and_text(self, f, n):
        got, expected = f.derivative(n), derivative_by_steps(f, n)
        assert got == expected
        assert repr(got) == repr(expected)
        assert _value(got) == _value(expected)

    @given(f=_sections(), n=st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_one_more_derivative_prints_alike(self, f, n):
        once, twice = f.derivative(n), f.derivative(n - 1).derivative()
        assert repr(once) == repr(twice)
        assert _value(once) == _value(twice)

    @pytest.mark.parametrize("order", [1, 5, 40])
    def test_builds_two_sections_at_any_order(self, order, monkeypatch):
        # the refactored section and the image: a sum's extra is not 1
        f = parse_rational("z^-1*(z-2/3)^-2*(z-110/3)", 5) + parse_rational("(z-1)^-1", 5)
        assert len(f.extra) > 1
        built = []
        real = FactoredRational.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(FactoredRational, "__init__", counted)
        f.derivative(order)
        assert len(built) == 2

    def test_an_extra_that_a_root_divides_is_refactored_first(self):
        # z (z - 2) in extra beside (z - 2)^1: n single derivatives would drop
        # z - 2 after one step, the refactored section z (z - 2)^2 keeps it
        p = 3
        zero, one, two = ScalarKHat.zero(p), ScalarKHat.one(p), ScalarKHat.from_rational(2, p)
        f = FactoredRational(p, one, [(two, 1)], (zero, -two, one))
        refactored = f._refactored()
        assert refactored.factors == ((zero, 1), (two, 2)) and len(refactored.extra) == 1
        assert f.derivative(0) is f
        for n in range(1, 4):
            got = f.derivative(n)
            assert got == derivative_by_steps(f, n)
            assert repr(got) == repr(derivative_by_steps(refactored, n))
        assert repr(f.derivative(1)) != repr(derivative_by_steps(f, 1))


class TestTransport:
    def test_mobius_composition_on_the_flip(self):
        p = 2
        f = parse_rational("1/z", p)
        w = weyl_flip()  # z -> p/z up to the twist convention; check functionally
        g = compose_mobius(f, w, p)
        # composing twice with an involution-up-to-center returns the input
        gg = compose_mobius(g, w, p)
        assert gg == f

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_automorphic_act_is_a_left_action(self, k):
        p = 2
        rng = random.Random(701 + k)
        for _ in range(6):
            f = random_rational(rng, p)
            g1 = random_group_element(rng, p)
            g2 = random_group_element(rng, p)
            assert automorphic_act(g2 @ g1, f, k) == automorphic_act(
                g2, automorphic_act(g1, f, k), k
            )

    def test_identity_acts_trivially_every_weight(self):
        p = 3
        rng = random.Random(709)
        f = random_rational(rng, p)
        for k in range(-2, 4):
            assert automorphic_act(gamma_level(0, p), f, k) == f


class TestGaussValuation:
    def test_axis_values_of_simple_pole(self):
        # on the tube at level n the coordinate has Gauss valuation -n,
        # so its reciprocal has valuation +n
        p = 2
        f = parse_rational("1/z", p)
        for n in range(-2, 3):
            assert gauss_valuation(f, make_vertex(p, n, 0)) == 2 * n  # doubled

    def test_constant_has_its_scalar_valuation(self):
        p = 3
        f = parse_rational("pihat*p", p)
        v = make_vertex(p, 2, 0)
        assert gauss_valuation(f, v) == 3  # doubled: omega = 3/2

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroFunction):
            gauss_valuation(FactoredRational(2, ScalarKHat.zero(2)), make_vertex(2, 0, 0))

    @given(seed=st.integers(0, 10**6), p=st.sampled_from([2, 3]))
    @settings(max_examples=25, deadline=None)
    def test_gauss_norm_bounds_point_values(self, seed, p):
        # three-valued audit: None means the residue field obstructs sampling;
        # False would be a genuine discrepancy between formula and evaluation
        rng = random.Random(seed)
        f = random_rational(rng, p)
        if f.is_zero():
            return
        v = random_vertex(rng, p)
        report = gauss_sample_audit(f, v, rng, trials=12)
        assert report["all_at_or_above"] is not False
        assert report["minimum_attained"] is not False

    def test_gauss_norm_attained_without_obstruction(self):
        # no unit-valuation roots: every sampled unit point attains the bound
        p = 3
        rng = random.Random(100)
        f = parse_rational("1/z", p)
        report = gauss_sample_audit(f, make_vertex(p, 1, 0), rng, trials=8)
        assert report["all_at_or_above"] is True
        assert report["minimum_attained"] is True
        assert report["gauss"] == 1

    def test_multiplicativity(self):
        p = 2
        rng = random.Random(809)
        v = random_vertex(rng, p)
        for _ in range(6):
            f = random_rational(rng, p)
            g = random_rational(rng, p)
            if f.is_zero() or g.is_zero():
                continue
            assert gauss_valuation(f * g, v) == gauss_valuation(
                f, v
            ) + gauss_valuation(g, v)


def _gauss_oracle_section(rng, p, kind):
    """A seeded section: a product of linear factors, a theta image or a sum
    (the last two have a nontrivial extra), or zero."""
    f = random_rational(rng, p)
    if kind == "theta":
        return theta(f, rng.randint(0, 2))
    if kind == "sum":
        return f + random_rational(rng, p)
    return FactoredRational(p, ScalarKHat.zero(p)) if kind == "zero" else f


def _gauss_oracle_matrix(rng, p, kind, f):
    """A random atom product, an upper-triangular matrix (c = 0), or a matrix
    with d = c*y for a root y of f, which sends y to infinity."""
    unit = lambda: Fraction(rng.choice([1, -1, 2, 3, 5, 7]), rng.choice([1, 2, 3]))
    scale = lambda: unit() * Fraction(p) ** rng.randint(-2, 2)
    if kind == "atoms" or not f.factors and kind == "infinity":
        return random_group_element(rng, p)
    if kind == "upper":
        return Mat2(scale(), rng.choice([0, scale()]), 0, scale())
    y = rng.choice(f.factors)[0].a  # the roots of a random_rational are rational
    a, c = scale(), scale()
    b = a * y + scale()  # a*y - b != 0 keeps the matrix invertible
    return Mat2(a, b, c, c * y)


class TestTransportedGaussValuation:
    @given(
        seed=st.integers(0, 10**6),
        p=st.sampled_from([2, 3, 5]),
        k=st.integers(-3, 6),
        f_kind=st.sampled_from(["product", "theta", "sum", "zero"]),
        g_kind=st.sampled_from(["atoms", "upper", "infinity"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_valuation_of_the_transported_section(
        self, seed, p, k, f_kind, g_kind
    ):
        rng = random.Random(seed)
        f = _gauss_oracle_section(rng, p, f_kind)
        g = _gauss_oracle_matrix(rng, p, g_kind, f)
        assert transported_gauss_valuation(f, g, k) == 2 * raw_gauss_valuation(
            automorphic_act(g, f, k)
        )

    def test_theta_images_and_sums_have_an_extra(self):
        rng = random.Random(3)
        kinds = ["theta", "sum"] * 10
        assert any(len(_gauss_oracle_section(rng, 3, kind).extra) > 1 for kind in kinds)

    @pytest.mark.parametrize("k", [-3, 0, 4])
    def test_a_pole_sent_to_infinity(self, k):
        p = 3
        f = parse_rational("(z-1)^-2*(z-3)*pihat", p)
        g = Mat2(2, 7, 1, 1)  # d = c*1: the pole at 1 goes to infinity
        assert transported_gauss_valuation(f, g, k) == 2 * raw_gauss_valuation(
            automorphic_act(g, f, k)
        )


class TestPrincipalParts:
    """principal_parts multiplies binomial series of the other factors at
    each pole; the oracle divides the expanded numerator by the product of
    the other poles' factors."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_equal_the_expanded_quotient(self, p):
        rng = random.Random(f"principal/{p}")
        sections = [_gauss_oracle_section(rng, p, kind) for kind in ["product", "theta", "sum"] * 30]
        sections += [
            parse_rational(text, p)
            for text in ("(z-pihat)^-3*(z-1)^2", "(z-1/2*pihat)^-2*(z-p)^-1*z^3", "pihat^-1*z^-3*(z-1)^-3*(z+1)")
        ]
        assert sum(any(r > 1 for _, r in f.denominator_roots()) for f in sections) > 10
        for f in sections:
            assert principal_parts(f) == reference_principal_parts(f), f


class TestLaurentWindows:
    def test_simple_pole_at_zero(self):
        p = 2
        w = laurent_standard(parse_rational("1/z", p), -3, 3)
        for j in range(-3, 4):
            expected = 1 if j == -1 else 0
            assert (
                w.coefficient(j) - ScalarKHat.from_rational(expected, p)
            ).is_zero()

    def test_pole_inside_the_inner_disc_expands_in_powers_of_p(self):
        # 1/(z-p) = z^{-1} + p z^{-2} + p^2 z^{-3} + ... on the standard annulus
        p = 2
        w = laurent_standard(parse_rational("(z-p)^-1", p), -4, 2)
        for m in range(4):
            assert (
                w.coefficient(-m - 1) - ScalarKHat.from_rational(p**m, p)
            ).is_zero()
        assert w.coefficient(0).is_zero()
        assert w.coefficient(1).is_zero()

    def test_pole_on_the_unit_circle_expands_in_nonnegative_powers(self):
        # 1/(z-1) = -(1 + z + z^2 + ...) on the standard annulus
        p = 2
        w = laurent_standard(parse_rational("(z-1)^-1", p), -2, 4)
        assert w.coefficient(-1).is_zero()
        assert w.coefficient(-2).is_zero()
        for j in range(0, 5):
            assert (w.coefficient(j) + ScalarKHat.one(p)).is_zero()

    def test_root_strictly_inside_the_annulus_is_rejected(self):
        p = 2
        with pytest.raises(PoleInsideAnnulus):
            laurent_standard(parse_rational("(z-pihat)^-1", p), -2, 2)

    def test_window_is_additive(self):
        p = 2
        f = parse_rational("1/z", p)
        g = parse_rational("(z-1)^-1", p)
        wf = laurent_standard(f, -2, 2)
        wg = laurent_standard(g, -2, 2)
        wsum = laurent_standard(f + g, -2, 2)
        for j in range(-2, 3):
            assert (
                wsum.coefficient(j) - wf.coefficient(j) - wg.coefficient(j)
            ).is_zero()
