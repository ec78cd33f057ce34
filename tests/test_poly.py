"""The dense polynomial module over both coefficient types it serves:
ScalarKHat (with nonzero pihat-parts) and FqElem.  Every routine is checked
against evaluation or against the ring identities it promises, and
FactoredRational powers against the former product loop."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from drinfeld import poly
from drinfeld.errors import InvalidParameters
from drinfeld.rational import FactoredRational
from drinfeld.scalars import Fq, ScalarKHat
from oracles import field_elements, monic_gcd, poly_evaluate, poly_neg, series_inverse
from sampling import monomial, random_rational

RINGS = [("khat", p) for p in (2, 3, 5)] + [("fq", q) for q in (2, 3, 4, 5, 7, 8, 9)]


class Ring:
    """zero, one and seeded random elements of one coefficient type."""

    def __init__(self, kind: str, n: int, seed: int) -> None:
        self.rng = random.Random(f"{kind}/{n}/{seed}")
        if kind == "khat":
            self.zero, self.one = ScalarKHat.zero(n), ScalarKHat.one(n)
            self.p = n
        else:
            field = Fq(n)
            self.zero, self.one = field.zero(), field.one()
            self.elements = field_elements(field)
        self.kind = kind

    def draw(self):
        rng = self.rng
        if self.kind == "fq":
            return rng.choice(self.elements)
        if rng.random() < 0.2:
            return self.zero
        a = Fraction(rng.randint(-4, 4), rng.choice([1, 2, self.p]))
        b = Fraction(rng.randint(-3, 3), rng.choice([1, self.p]))
        return ScalarKHat(self.p, a, b)

    def nonzero(self):
        while True:
            x = self.draw()
            if not x.is_zero():
                return x

    def poly(self, max_degree: int = 5) -> tuple:
        """A polynomial of degree up to max_degree, zero coefficients included."""
        coeffs = [self.draw() for _ in range(self.rng.randint(0, max_degree))]
        return tuple(coeffs) + (self.nonzero(),)


def _unit_poly(ring: Ring, max_degree: int = 4) -> tuple:
    """A polynomial with invertible constant term."""
    return (ring.nonzero(),) + ring.poly(max_degree)


@pytest.fixture(params=RINGS, ids=[f"{k}{n}" for k, n in RINGS])
def ring(request) -> Ring:
    kind, n = request.param
    return Ring(kind, n, 7)


class TestArithmetic:
    def test_trim_drops_trailing_zeros_only(self, ring):
        x = ring.nonzero()
        assert poly.trim((ring.zero, x, ring.zero, ring.zero)) == (ring.zero, x)
        assert poly.trim((ring.zero,)) == ()

    def test_mul_agrees_with_evaluation(self, ring):
        for _ in range(10):
            u, v = ring.poly(), ring.poly()
            w = poly.mul(u, v, ring.zero)
            assert len(w) == len(u) + len(v) - 1
            for _ in range(3):
                x = ring.draw()
                assert poly_evaluate(w, x, ring.zero) == poly_evaluate(
                    u, x, ring.zero
                ) * poly_evaluate(v, x, ring.zero)
        assert poly.mul((), ring.poly(), ring.zero) == ()

    def test_add_and_neg_cancel(self, ring):
        u = ring.poly()
        assert poly.add(u, poly_neg(u)) == ()
        assert poly.add(u, ()) == u

    def test_power_equals_repeated_products(self, ring):
        for u in [ring.poly(3), (ring.nonzero(),), (ring.zero, ring.nonzero())]:
            expected = (ring.one,)
            for n in range(10):
                assert poly.power(u, n, ring.zero, ring.one) == expected
                expected = poly.mul(expected, u, ring.zero)

    def test_power_zero_is_one(self, ring):
        assert poly.power((), 0, ring.zero, ring.one) == (ring.one,)
        assert poly.power(ring.poly(), 0, ring.zero, ring.one) == (ring.one,)
        assert poly.power((), 3, ring.zero, ring.one) == ()

    def test_negative_power_raises(self, ring):
        with pytest.raises(InvalidParameters):
            poly.power(ring.poly(), -1, ring.zero, ring.one)
        with pytest.raises(InvalidParameters):
            poly.power((ring.one,), -3, ring.zero, ring.one)

    def test_derivative_obeys_leibniz(self, ring):
        d = lambda u: poly.derivative(u, ring.one)
        for _ in range(5):
            u, v = ring.poly(), ring.poly()
            lhs = d(poly.mul(u, v, ring.zero))
            rhs = poly.add(poly.mul(d(u), v, ring.zero), poly.mul(u, d(v), ring.zero))
            assert lhs == rhs
        assert d(()) == () and d((ring.nonzero(),)) == ()


class TestDivision:
    def test_divmod(self, ring):
        for _ in range(10):
            u, v = ring.poly(7), ring.poly(3)
            q, r = poly.divmod(u, v, ring.zero)
            assert len(r) < len(v)
            assert poly.add(poly.mul(q, v, ring.zero), r) == u
        with pytest.raises(ZeroDivisionError):
            poly.divmod(ring.poly(), (), ring.zero)

    def test_monic_gcd_is_monic_and_divides_both(self, ring):
        for _ in range(5):
            common = ring.poly(2)
            u = poly.mul(common, ring.poly(3), ring.zero)
            v = poly.mul(common, ring.poly(3), ring.zero)
            g = monic_gcd(u, v, ring.zero)
            assert g[-1] == ring.one
            assert poly.divmod(u, g, ring.zero)[1] == ()
            assert poly.divmod(v, g, ring.zero)[1] == ()
            assert poly.divmod(g, common, ring.zero)[1] == ()
        assert monic_gcd((), (), ring.zero) == ()


class TestSeries:
    def test_shift_agrees_with_translated_evaluation(self, ring):
        for _ in range(5):
            u, x0 = ring.poly(), ring.draw()
            full = poly.shift(u, x0, len(u))
            for _ in range(3):
                w = ring.draw()
                assert poly_evaluate(full, w, ring.zero) == poly_evaluate(
                    u, x0 + w, ring.zero
                )
            for upto in range(len(u) + 2):
                assert poly.shift(u, x0, upto) == poly.trim(full[:upto])

    def test_series_inverse(self, ring):
        for upto in range(1, 8):
            u = _unit_poly(ring)
            inv = series_inverse(u, upto, ring.zero)
            assert len(inv) <= upto
            assert poly.trim(poly.mul(inv, u, ring.zero)[:upto]) == (ring.one,)


def _product_loop_power(f: FactoredRational, n: int) -> FactoredRational:
    """The former FactoredRational.__pow__: n products, the reference."""
    if n < 0 and len(f.extra) > 1:
        raise InvalidParameters("cannot invert an unfactored polynomial part")
    if n < 0:
        return _product_loop_power(f.inverse(), -n)
    out = FactoredRational.one(f.p)
    for _ in range(n):
        out = out * f
    return out


def _parts(f: FactoredRational) -> tuple:
    return f.lead, f.factors, f.extra


class TestFactoredRationalPower:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_direct_power_matches_the_product_loop(self, p):
        rng = random.Random(p)
        sections = [random_rational(rng, p) for _ in range(12)]
        sections += [random_rational(rng, p) + random_rational(rng, p) for _ in range(4)]
        sections.append(FactoredRational(p, ScalarKHat.zero(p)))
        for f in sections:
            invertible = not f.is_zero() and len(f.extra) == 1
            for n in range(-3, 6):
                if n < 0 and not invertible:
                    continue
                assert _parts(f**n) == _parts(_product_loop_power(f, n))

    def test_non_invertible_negative_powers_raise(self):
        p = 3
        z = monomial(p, 1)
        unfactored = z * z + FactoredRational.one(p)  # z^2 + 1 has no root in Q_3
        assert len(unfactored.extra) > 1
        with pytest.raises(InvalidParameters):
            unfactored**-1
        with pytest.raises(ZeroDivisionError):
            FactoredRational(p, ScalarKHat.zero(p)) ** -2
