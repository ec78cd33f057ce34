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
    NegativeValuation,
    ResidueFieldMismatch,
    ScalarKHat,
    val_p,
)


def scalar(x, p, pihat_exp=0):
    return ScalarKHat.from_rational(Fraction(x), p) * ScalarKHat.pihat(p, pihat_exp)


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
