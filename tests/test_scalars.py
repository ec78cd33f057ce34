"""Quadratic-ramified scalar arithmetic and residue-field construction."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import (
    Fq,
    INF,
    InvalidParameters,
    NegativeValuation,
    ResidueFieldMismatch,
    ScalarKHat,
    val_p,
)


def scalar(x, p, pihat_exp=0):
    return ScalarKHat.from_rational(Fraction(x), p) * ScalarKHat.pihat(p, pihat_exp)


# Reference arithmetic: the full formulas, every result through the checking
# public constructor.  The fast paths of ScalarKHat must agree with these.


def _reference_add(x, y):
    return ScalarKHat(x.p, x.a + y.a, x.b + y.b)


def _reference_mul(x, y):
    return ScalarKHat(x.p, x.a * y.a + x.p * x.b * y.b, x.a * y.b + x.b * y.a)


def _reference_inverse(x):
    norm = x.a * x.a - x.p * x.b * x.b
    return ScalarKHat(x.p, x.a / norm, -x.b / norm)


def _reference_pow(x, n):
    base = x if n >= 0 else _reference_inverse(x)
    result = ScalarKHat(x.p, 1, 0)
    for _ in range(abs(n)):
        result = _reference_mul(result, base)
    return result


# zero in about half the draws, so every zero-skipping branch is taken
_components = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
)
_rationals = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)


class TestFastArithmeticOracle:
    @given(
        p=st.sampled_from([2, 3, 5, 7]),
        a=_components,
        b=_components,
        c=_components,
        d=_components,
        r=_rationals,
        n=st.integers(-3, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_operations_match_the_reference(self, p, a, b, c, d, r, n):
        x, y = ScalarKHat(p, a, b), ScalarKHat(p, c, d)
        rs = ScalarKHat(p, r, 0)
        neg_y = ScalarKHat(p, -c, -d)
        cases = [
            (x * y, _reference_mul(x, y)),
            (x + y, _reference_add(x, y)),
            (x - y, _reference_add(x, neg_y)),
            (-y, neg_y),
            (x.conjugate(), ScalarKHat(p, a, -b)),
            (x * r, _reference_mul(x, rs)),
            (r * x, _reference_mul(rs, x)),
            (x + r, _reference_add(x, rs)),
            (r + x, _reference_add(rs, x)),
            (x - r, _reference_add(x, ScalarKHat(p, -r, 0))),
            (r - x, _reference_add(rs, ScalarKHat(p, -a, -b))),
        ]
        if not y.is_zero():
            cases.append((x / y, _reference_mul(x, _reference_inverse(y))))
            cases.append((y.inverse(), _reference_inverse(y)))
        if not x.is_zero():
            cases.append((r / x, _reference_mul(rs, _reference_inverse(x))))
        if not x.is_zero() or n >= 0:
            cases.append((x**n, _reference_pow(x, n)))
        if r:
            cases.append((x / r, _reference_mul(x, _reference_inverse(rs))))
        for got, expected in cases:
            assert got == expected
            assert type(got.a) is Fraction and type(got.b) is Fraction
            assert hash(got) == hash(expected)

    def test_zero_has_no_inverse(self):
        for p in (2, 3):
            with pytest.raises(ZeroDivisionError):
                ScalarKHat.zero(p).inverse()
            with pytest.raises(ZeroDivisionError):
                ScalarKHat.one(p) / ScalarKHat.zero(p)


class TestBoundaryChecks:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ScalarKHat(4, 1, 0),
            lambda: ScalarKHat.from_rational(1, 6),
            lambda: ScalarKHat.zero(1),
            lambda: ScalarKHat.one(0),
            lambda: ScalarKHat.pihat(9),
        ],
    )
    def test_public_constructors_reject_a_non_prime(self, build):
        # twice: the memoised prime check must not remember a failure
        for _ in range(2):
            with pytest.raises(InvalidParameters):
                build()

    def test_public_constructors_coerce_to_fractions(self):
        for s in (ScalarKHat(3, 2, -1), ScalarKHat.from_rational(5, 3), ScalarKHat.one(3)):
            assert type(s.a) is Fraction and type(s.b) is Fraction

    @pytest.mark.parametrize(
        "op",
        [
            lambda x, y: x + y,
            lambda x, y: x - y,
            lambda x, y: x * y,
            lambda x, y: x / y,
        ],
    )
    def test_mixing_primes_is_rejected(self, op):
        x = ScalarKHat(2, Fraction(1, 3), 1)
        y = ScalarKHat(3, 2, Fraction(-1, 2))
        with pytest.raises(ResidueFieldMismatch):
            op(x, y)
        with pytest.raises(ResidueFieldMismatch):
            op(y, x)


class TestValuation:
    def test_half_integer_grid(self):
        # p^2 * pihat has valuation 2 + 1/2 at p = 2
        assert scalar(4, 2, 1).valuation() == Fraction(5, 2)

    def test_zero_has_infinite_valuation(self):
        assert ScalarKHat.zero(2).valuation() == INF
        assert math.isinf(ScalarKHat.zero(5).valuation())

    def test_unit_sum(self):
        # 1 + pihat is a unit: its valuation is 0
        s = ScalarKHat.one(2) + ScalarKHat.pihat(2, 1)
        assert s.valuation() == 0
        assert s.is_unit()

    def test_val_p_on_rationals(self):
        assert val_p(Fraction(12), 2) == 2
        assert val_p(Fraction(1, 9), 3) == -2
        assert val_p(0, 7) == INF

    @given(
        a=st.integers(-20, 20).filter(bool),
        b=st.integers(1, 20),
        e=st.integers(-3, 3),
        c=st.integers(-20, 20).filter(bool),
        d=st.integers(1, 20),
        f=st.integers(-3, 3),
        p=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_valuation_is_additive(self, a, b, e, c, d, f, p):
        x = scalar(Fraction(a, b), p, e)
        y = scalar(Fraction(c, d), p, f)
        assert (x * y).valuation() == x.valuation() + y.valuation()

    @given(
        a=st.integers(-20, 20).filter(bool),
        b=st.integers(1, 20),
        e=st.integers(-3, 3),
        p=st.sampled_from([2, 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_inverse_negates_valuation(self, a, b, e, p):
        x = scalar(Fraction(a, b), p, e)
        assert x.inverse().valuation() == -x.valuation()
        assert (x * x.inverse() - ScalarKHat.one(p)).is_zero()

    def test_ultrametric_inequality(self):
        p = 2
        pairs = [
            (scalar(3, p), scalar(5, p)),
            (scalar(4, p, 1), scalar(2, p)),
            (scalar(1, p), scalar(-1, p)),  # cancellation: valuation may jump
        ]
        for x, y in pairs:
            s = x + y
            assert s.valuation() >= min(x.valuation(), y.valuation())


class TestPowers:
    @pytest.mark.parametrize("p", [2, 3])
    def test_power_matches_repeated_multiplication(self, p):
        x = ScalarKHat(p, Fraction(-3, 2), Fraction(5, 7))
        for n in range(-5, 13):
            base = x if n >= 0 else x.inverse()
            expected = ScalarKHat.one(p)
            for _ in range(abs(n)):
                expected = expected * base
            assert x**n == expected, (p, n)


class TestConjugationAndIntegrality:
    def test_conjugate_flips_uniformizer_sign(self):
        s = scalar(3, 2) + ScalarKHat.pihat(2, 1)
        c = s.conjugate()
        assert (s + c - scalar(6, 2)).is_zero()
        assert (s * c).is_rational()

    def test_is_integral_matches_valuation(self):
        assert scalar(6, 3).is_integral()
        assert scalar(1, 3, 1).is_integral()
        assert not scalar(Fraction(1, 3), 3).is_integral()
        assert not ScalarKHat.pihat(3, -1).is_integral()


class TestResidueReduction:
    def test_reduce_mod_pihat_examples(self):
        assert ScalarKHat.from_rational(3, 2).reduce_mod_pihat() == 1
        assert ScalarKHat.pihat(3, 1).reduce_mod_pihat() == 0
        # 1/3 is a 2-adic unit congruent to 1 mod 2
        assert ScalarKHat.from_rational(Fraction(1, 3), 2).reduce_mod_pihat() == 1

    def test_reduce_requires_integrality(self):
        with pytest.raises(NegativeValuation):
            ScalarKHat.pihat(2, -1).reduce_mod_pihat()

    def test_residue_mod_pihat_power(self):
        s = ScalarKHat.from_rational(3, 2) + ScalarKHat.pihat(2, 1)
        # components reduced mod p^ceil(e/2) and p^floor(e/2)
        assert s.residue_mod_pihat_power(3) == (3, 1)
        assert s.residue_mod_pihat_power(2) == (1, 1)
        assert s.residue_mod_pihat_power(1) == (1, 0)

    def test_residue_components_determine_class(self):
        p = 3
        s = scalar(4, p) + ScalarKHat.pihat(p, 1) * scalar(5, p)
        t = s + scalar(p ** 2, p) + ScalarKHat.pihat(p, 1) * scalar(p ** 2, p)
        # adding pihat^4-divisible terms cannot change the residue mod pihat^4
        assert s.residue_mod_pihat_power(4) == t.residue_mod_pihat_power(4)


class TestFiniteFields:
    def test_prime_power_moduli(self):
        f4 = Fq(4)
        assert (f4.p, f4.f) == (2, 2)
        assert f4.modulus == (1, 1, 1)  # x^2 + x + 1, little-endian
        f9 = Fq(9)
        assert (f9.p, f9.f) == (3, 2)
        assert f9.modulus == (1, 0, 1)  # x^2 + 1

    def test_enumeration_and_cardinality(self):
        for q in (2, 3, 4, 5, 9):
            field = Fq(q)
            elems = list(field.elements())
            assert len(elems) == q
            assert len(set(elems)) == q

    def test_multiplicative_group(self):
        field = Fq(4)
        g = field.gen()
        powers = {g ** i for i in range(1, 4)}
        assert len(powers) == 3  # generator of the cyclic group of order q-1
        assert g ** 3 == field.one()

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_primitive_element_generates_the_multiplicative_group(self, q):
        field = Fq(q)
        w = field.primitive_element()
        assert len({w**n for n in range(q - 1)}) == q - 1

    def test_negative_exponent(self):
        field = Fq(9)
        g = field.gen()
        assert g ** -1 * g == field.one()

    def test_mismatched_fields_rejected(self):
        with pytest.raises(ResidueFieldMismatch):
            Fq(4).one() + Fq(9).one()
