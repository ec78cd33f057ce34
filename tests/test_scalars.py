"""Quadratic-ramified scalar arithmetic and residue-field construction."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld.cli import _scalar_str
from drinfeld.errors import InvalidParameters, NegativeValuation, ResidueFieldMismatch
from drinfeld.scalars import (
    INF,
    FiniteField,
    Fq,
    ScalarKHat,
    _is_prime,
    _PRIME_BOUND,
    _binomials_mod,
    _factorials,
    _prime_factors,
    _rho_factor,
    _vp,
    half,
)
from oracles import (
    FractionScalarKHat,
    _fraction_val,
    field_elements,
    fraction_scalar_str,
    fraction_valuation,
    is_integral,
    khat,
    reduce_mod_pihat,
    scalar_div,
    smallest_factor,
    val_p,
)


def scalar(x, p, pihat_exp=0):
    return ScalarKHat.from_rational(Fraction(x), p) * ScalarKHat.pihat(p, pihat_exp)


# Reference arithmetic: the full formulas, every result through the checking
# public constructor.  The fast paths of ScalarKHat must agree with these, and
# with the same operation on the Fraction-held FractionScalarKHat.


def _reference_add(x, y):
    return khat(x.p, x.a + y.a, x.b + y.b)


def _reference_mul(x, y):
    return khat(x.p, x.a * y.a + x.p * x.b * y.b, x.a * y.b + x.b * y.a)


def _reference_inverse(x):
    norm = x.a * x.a - x.p * x.b * x.b
    return khat(x.p, x.a / norm, -x.b / norm)


def _reference_pow(x, n):
    base = x if n >= 0 else _reference_inverse(x)
    result = khat(x.p, 1, 0)
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


def _assert_matches_fraction_scalar(got, old):
    """Every observable of a scalar equals that of the Fraction-held one."""
    assert (got.p, got.a, got.b) == (old.p, old.a, old.b)
    assert type(got.a) is Fraction and type(got.b) is Fraction
    assert _scalar_str(got) == fraction_scalar_str(old)
    assert got.is_zero() == old.is_zero()
    # the program's valuation is the doubled one, an int, or INF for zero
    assert got.valuation() == 2 * old.valuation()
    assert type(got.valuation()) is (float if old.is_zero() else int)
    assert is_integral(got) == old.is_integral()
    if old.is_integral():
        assert reduce_mod_pihat(got) == old.reduce_mod_pihat()
    else:
        with pytest.raises(NegativeValuation) as new_error:
            reduce_mod_pihat(got)
        with pytest.raises(NegativeValuation) as old_error:
            old.reduce_mod_pihat()
        assert str(new_error.value) == str(old_error.value)


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
        x, y = khat(p, a, b), khat(p, c, d)
        ox, oy = FractionScalarKHat(p, a, b), FractionScalarKHat(p, c, d)
        rs = khat(p, r, 0)
        neg_y = khat(p, -c, -d)
        # (result, full-formula reference, the same operation on Fractions)
        cases = [
            (x, x, ox),
            (y, y, oy),
            (x * y, _reference_mul(x, y), ox * oy),
            (x + y, _reference_add(x, y), ox + oy),
            (x - y, _reference_add(x, neg_y), ox - oy),
            (-y, neg_y, -oy),
            (x * r, _reference_mul(x, rs), ox * r),
            (r * x, _reference_mul(rs, x), r * ox),
            (x + r, _reference_add(x, rs), ox + r),
            (r + x, _reference_add(rs, x), r + ox),
            (x - r, _reference_add(x, khat(p, -r, 0)), ox - r),
        ]
        if not y.is_zero():
            cases.append((scalar_div(x, y), _reference_mul(x, _reference_inverse(y)), ox / oy))
            cases.append((y.inverse(), _reference_inverse(y), oy.inverse()))
        if not x.is_zero() or n >= 0:
            cases.append((x**n, _reference_pow(x, n), ox**n))
        if r:
            cases.append((scalar_div(x, r), _reference_mul(x, _reference_inverse(rs)), ox / r))
        for got, expected, old in cases:
            assert got == expected
            _assert_matches_fraction_scalar(got, old)
        assert (x == y) == (ox == oy)
        assert (x == r) is False and (ox == r) is False

    @pytest.mark.parametrize(
        "a, b",
        [
            (Fraction(2, 4), Fraction(6, 9)),
            (6, 4),
            (Fraction(-3, 12), 0),
            (0, Fraction(10, 15)),
            (Fraction(5, 6), Fraction(7, 10)),
            (Fraction(9, 4), Fraction(3, 8)),
            (0, 0),
            ("1/6", "-5/4"),
        ],
    )
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_constructor_matches_the_fraction_scalar(self, p, a, b):
        x, old = khat(p, a, b), FractionScalarKHat(p, a, b)
        _assert_matches_fraction_scalar(x, old)
        for n in (-3, -2, 1, 2):
            power = Fraction(p) ** (n // 2)
            old_pihat = FractionScalarKHat(p, 0, power) if n % 2 else FractionScalarKHat(p, power, 0)
            _assert_matches_fraction_scalar(ScalarKHat.pihat(p, n), old_pihat)
            _assert_matches_fraction_scalar(x * ScalarKHat.pihat(p, n), old * old_pihat)
        rational = ScalarKHat.from_rational(Fraction(a), p)
        _assert_matches_fraction_scalar(rational, FractionScalarKHat(p, a, 0))
        assert x == khat(p, Fraction(a), Fraction(b))

    def test_zero_has_no_inverse(self):
        for p in (2, 3):
            with pytest.raises(ZeroDivisionError):
                ScalarKHat.zero(p).inverse()
            with pytest.raises(ZeroDivisionError):
                scalar_div(ScalarKHat.one(p), ScalarKHat.zero(p))


class TestBoundaryChecks:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: khat(4, 1, 0),
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
        for s in (khat(3, 2, -1), ScalarKHat.from_rational(5, 3), ScalarKHat.one(3)):
            assert type(s.a) is Fraction and type(s.b) is Fraction

    @pytest.mark.parametrize(
        "op",
        [
            lambda x, y: x + y,
            lambda x, y: x - y,
            lambda x, y: x * y,
            lambda x, y: scalar_div(x, y),
        ],
    )
    def test_mixing_primes_is_rejected(self, op):
        x = khat(2, Fraction(1, 3), 1)
        y = khat(3, 2, Fraction(-1, 2))
        with pytest.raises(ResidueFieldMismatch):
            op(x, y)
        with pytest.raises(ResidueFieldMismatch):
            op(y, x)


class TestPrimality:
    def test_agrees_with_trial_division_below_ten_to_the_five(self):
        for n in range(-3, 10**5):
            assert _is_prime(n) == (n >= 2 and smallest_factor(n) == n), n

    def test_prime_factors_agree_with_trial_division_below_ten_to_the_five(self):
        for n in range(1, 10**5):
            want, rest = set(), n
            while rest > 1:
                d = smallest_factor(rest)
                want.add(d)
                rest //= d
            assert _prime_factors(n) == want, n

    @pytest.mark.parametrize(
        "factors",
        [
            (1009, 1009),  # a square past the trial division
            (1009, 1009, 1009, 1013),
            (1021, 2**61 - 1),
            (2, 100000000003, 100000000283),  # two 12-digit primes
            (274177, 67280421310721),  # 2^64 + 1
            (3, 3, 5, 17, 257, 641, 65537, 6700417),  # 2^64 - 1
        ],
    )
    def test_prime_factors_of_products_past_trial_division(self, factors):
        assert _prime_factors(math.prod(factors)) == set(factors)

    @pytest.mark.parametrize("n", [1009 * 1013, 1009**2, 100000000003 * 100000000283, 3**2 * 1031**3])
    def test_rho_splits_an_odd_composite(self, n):
        f = _rho_factor(n)
        assert 1 < f < n and n % f == 0

    @pytest.mark.parametrize(
        "n",
        [
            3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
            3825123056546413051,  # to the bases 2 .. 23
            318665857834031151167461,  # to the bases 2 .. 37
            _PRIME_BOUND - 2,  # 17 times a prime
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not _is_prime(n)

    # the last is the largest prime below the bound
    @pytest.mark.parametrize("n", [1000003, 2**61 - 1, 10**24 + 7, 3317044064679887385961813])
    def test_large_primes(self, n):
        assert _is_prime(n)

    # the bound is itself a strong pseudoprime to all 13 bases
    @pytest.mark.parametrize("n", [_PRIME_BOUND, _PRIME_BOUND + 2, 10**400 + 1])
    def test_undecided_numbers_are_refused(self, n):
        with pytest.raises(InvalidParameters):
            _is_prime(n)

    @pytest.mark.parametrize(
        "q,pf", [(2, (2, 1)), (64, (2, 6)), (243, (3, 5)), (6561, (3, 8)), (10**24 + 7, (10**24 + 7, 1))]
    )
    def test_prime_powers_by_integer_roots(self, q, pf):
        assert (Fq(q).p, Fq(q).f) == pf

    @pytest.mark.parametrize("q", [1, 6, 12, 36, 100, 3 * 2**10, 10**24 + 9, 35**3])
    def test_other_numbers_are_not_fields(self, q):
        with pytest.raises(InvalidParameters):
            Fq(q)


def _plain_vp(n: int, p: int) -> int:
    """Exponent of p in a nonzero int, one division per factor."""
    v = 0
    while not n % p:
        n //= p
        v += 1
    return v


class TestValuation:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_vp_matches_the_plain_loop(self, p):
        # past 8 factors _vp divides by p^(2^i); units of both signs and sizes
        for v in range(301):
            for unit in (1, -1, p + 1, 1 - 2 * p, -(1 + p**5)):
                n = unit * p**v
                assert _vp(n, p) == _plain_vp(n, p) == v, (p, v, unit)

    def test_half_integer_grid(self):
        # p^2 * pihat has valuation 2 + 1/2 at p = 2, doubled 5
        assert scalar(4, 2, 1).valuation() == 5

    def test_zero_has_infinite_valuation(self):
        assert ScalarKHat.zero(2).valuation() == INF
        assert math.isinf(ScalarKHat.zero(5).valuation())

    def test_unit_sum(self):
        # 1 + pihat is a unit: its valuation is 0
        s = ScalarKHat.one(2) + ScalarKHat.pihat(2, 1)
        assert s.valuation() == 0

    @given(a=_components, b=_components, p=st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=300, deadline=None)
    def test_doubled_valuation_matches_the_fraction_oracle(self, a, b, p):
        x = khat(p, a, b)
        twice, omega = x.valuation(), fraction_valuation(x)
        if x.is_zero():
            assert twice is INF and omega is INF and half(twice) is INF
            return
        assert type(twice) is int
        assert Fraction(twice, 2) == omega == half(twice)
        assert twice == 2 * FractionScalarKHat(p, a, b).valuation()

    @given(x=_components, p=st.sampled_from([2, 3, 5, 7]))
    def test_val_p_is_an_int(self, x, p):
        for value in (x, x.numerator):
            got = val_p(value, p)
            if value:
                assert type(got) is int and got == _fraction_val(Fraction(value), p)
            else:
                assert got is INF

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


class TestFactorialTable:
    """``_factorials`` against ``math.factorial``, and the binomials mod p
    read from it against ``math.comb``."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_valuations_and_unit_parts(self, p):
        vals, units, inverses = _factorials(p, 300)
        for i in range(301):
            f = math.factorial(i)
            assert vals[i] == _vp(f, p), i
            assert units[i] == f // p ** vals[i] % p, i
            assert units[i] * inverses[i] % p == 1, i

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_binomials_mod_p(self, p):
        table = _factorials(p, 300)
        for n in range(301):
            assert _binomials_mod(p, n, table) == [math.comb(n, r) % p for r in range(n + 1)], n

    def test_a_prime_past_n_and_an_empty_reach(self):
        p = 10**24 + 7
        vals, units, _ = _factorials(p, 30)
        assert vals == [0] * 31 and units == [math.factorial(i) % p for i in range(31)]
        assert _factorials(5, 0) == ([0], [1], [1])
        assert _binomials_mod(5, 0, _factorials(5, 0)) == [1]


class TestPowers:
    @pytest.mark.parametrize("p", [2, 3])
    def test_power_matches_repeated_multiplication(self, p):
        x = khat(p, Fraction(-3, 2), Fraction(5, 7))
        for n in range(-5, 13):
            base = x if n >= 0 else x.inverse()
            expected = ScalarKHat.one(p)
            for _ in range(abs(n)):
                expected = expected * base
            assert x**n == expected, (p, n)


class TestConjugationAndIntegrality:
    def test_is_integral_matches_valuation(self):
        assert is_integral(scalar(6, 3))
        assert is_integral(scalar(1, 3, 1))
        assert not is_integral(scalar(Fraction(1, 3), 3))
        assert not is_integral(ScalarKHat.pihat(3, -1))


class TestResidueReduction:
    def test_reduce_mod_pihat_examples(self):
        assert reduce_mod_pihat(ScalarKHat.from_rational(3, 2)) == 1
        assert reduce_mod_pihat(ScalarKHat.pihat(3, 1)) == 0
        # 1/3 is a 2-adic unit congruent to 1 mod 2
        assert reduce_mod_pihat(ScalarKHat.from_rational(Fraction(1, 3), 2)) == 1

    def test_reduce_requires_integrality(self):
        with pytest.raises(NegativeValuation):
            reduce_mod_pihat(ScalarKHat.pihat(2, -1))


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
            elems = field_elements(field)
            assert len(elems) == q
            assert len(set(elems)) == q

    def test_multiplicative_group(self):
        field = Fq(4)
        g = field.elem((0, 1))  # x
        powers = {g ** i for i in range(1, 4)}
        assert len(powers) == 3  # generator of the cyclic group of order q-1
        assert g ** 3 == field.one()

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_primitive_element_generates_the_multiplicative_group(self, q):
        field = Fq(q)
        w = field.primitive_element()
        assert len({w**n for n in range(q - 1)}) == q - 1

    def test_a_field_finds_its_modulus_on_first_use(self):
        field = Fq(2**100)
        assert (field.p, field.f) == (2, 100)
        assert "modulus" not in vars(field)
        assert Fq(4).modulus == (1, 1, 1) and "modulus" in vars(Fq(4))

    def test_primitive_element_with_two_large_prime_factors(self):
        # q - 1 = 2 * 100000000003 * 100000000283: trial division would have
        # to pass the first 12-digit factor
        q, factors = 20000000057200000001699, (2, 100000000003, 100000000283)
        assert math.prod(factors) == q - 1 and _is_prime(q)
        w = Fq(q).primitive_element()
        assert all(w ** ((q - 1) // r) != Fq(q).one() for r in factors)

    def test_primitive_element_at_a_large_prime(self):
        # q - 1 has a 22-digit prime cofactor, which trial division would
        # have to pass before stopping
        q, factors = 10**24 + 7, (2, 7, 29, 2463054187192118226601)
        assert math.prod(factors) == q - 1
        w = Fq(q).primitive_element()
        assert all(w ** ((q - 1) // r) != Fq(q).one() for r in factors)

    def test_negative_exponent(self):
        field = Fq(9)
        g = field.elem((0, 1))
        assert g ** -1 * g == field.one()

    def test_mismatched_fields_rejected(self):
        with pytest.raises(ResidueFieldMismatch):
            Fq(4).one() + Fq(9).one()


# Reference finite-field arithmetic: the polynomial-basis elements that the
# int-coded FqElem replaced.  An element is its coefficient tuple on
# 1, x, ..., x^(f-1); a product multiplies the tuples and reduces modulo the
# field's modulus.


def _ref_poly_mod_mul(u, v, p):
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] = (out[i + j] + ui * vj) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _ref_poly_mod_rem(u, m, p):
    u = list(u)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(u) - 1 >= dm and any(u):
        if u[-1] == 0:
            u.pop()
            continue
        shift = len(u) - 1 - dm
        c = u[-1] * inv_lead % p
        for i, mi in enumerate(m):
            u[shift + i] = (u[shift + i] - c * mi) % p
        while len(u) > 1 and u[-1] == 0:
            u.pop()
    return tuple(u) if u else (0,)


class _ReferenceField:
    """F_{p^f} with the same modulus as Fq(p^f), on coefficient tuples."""

    def __init__(self, q):
        field = Fq(q)
        self.p, self.f, self.q, self.modulus = field.p, field.f, field.q, field.modulus

    def elem(self, coeffs):
        if isinstance(coeffs, int):
            vec = (coeffs % self.p,) + (0,) * (self.f - 1)
        else:
            if len(coeffs) > self.f:
                raise InvalidParameters("coefficient vector too long")
            vec = tuple(c % self.p for c in coeffs) + (0,) * (self.f - len(coeffs))
        return _ReferenceFqElem(self, vec)

    def one(self):
        return self.elem(1)

    def primitive_element(self):
        n = self.q - 1
        primes = [r for r in range(2, n + 1) if n % r == 0 and all(r % s for s in range(2, r))]
        one = self.one()
        for x in self.elements():
            if not x.is_zero() and all(x ** (n // r) != one for r in primes):
                return x

    def elements(self):
        for n in range(self.q):
            yield self.elem(tuple(n // self.p**i % self.p for i in range(self.f)))


class _ReferenceFqElem:
    def __init__(self, field, coeffs):
        self.field, self.coeffs = field, coeffs

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        p = self.field.p
        return _ReferenceFqElem(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        p = self.field.p
        return _ReferenceFqElem(self.field, tuple(-a % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        p = self.field.p
        prod = _ref_poly_mod_mul(self.coeffs, other.coeffs, p)
        if self.field.f > 1:
            prod = _ref_poly_mod_rem(prod, self.field.modulus, p)
        vec = tuple(prod) + (0,) * (self.field.f - len(prod))
        return _ReferenceFqElem(self.field, vec[: self.field.f])

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in finite field")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self):
        if self.field.f == 1:
            return str(self.coeffs[0])
        return "+".join(
            f"{c}x^{i}" if i else str(c) for i, c in enumerate(self.coeffs) if c
        ) or "0"


def _same(fast, ref):
    """Both raised ZeroDivisionError, or both gave the same element."""
    try:
        expected = ref()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            fast()
        return
    got = fast()
    assert got.coeffs == expected.coeffs
    assert repr(got) == repr(expected)


class TestFiniteFieldOracle:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_every_operation_matches_the_polynomial_basis(self, q):
        field, ref = Fq(q), _ReferenceField(q)
        fast_elems, ref_elems = field_elements(field), list(ref.elements())
        assert [x.coeffs for x in fast_elems] == [x.coeffs for x in ref_elems]
        assert [repr(x) for x in fast_elems] == [repr(x) for x in ref_elems]
        assert field.primitive_element().coeffs == ref.primitive_element().coeffs
        for x, rx in zip(fast_elems, ref_elems):
            assert x.is_zero() == rx.is_zero()
            _same(lambda: -x, lambda: -rx)
            _same(x.inverse, rx.inverse)
            for n in range(-3, q + 2):
                _same(lambda: x**n, lambda: rx**n)
            for y, ry in zip(fast_elems, ref_elems):
                assert (x == y) == (x.coeffs == y.coeffs)
                assert (x != y) == (x.coeffs != y.coeffs)
                _same(lambda: x + y, lambda: rx + ry)
                _same(lambda: x - y, lambda: rx - ry)
                _same(lambda: x * y, lambda: rx * ry)
                _same(lambda: x / y, lambda: rx / ry)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_constructors_match_the_polynomial_basis(self, q):
        field, ref = Fq(q), _ReferenceField(q)
        for n in range(-2 * q, 2 * q):
            assert field.elem(n).coeffs == ref.elem(n).coeffs
            assert field.from_int(n).coeffs == ref.elem(n).coeffs
        for length in range(field.f + 1):
            for vec in itertools.product(range(-1, field.p + 1), repeat=length):
                assert field.elem(vec).coeffs == ref.elem(vec).coeffs
        with pytest.raises(InvalidParameters):
            field.elem((0,) * (field.f + 1))
        assert field.zero().coeffs == ref.elem(0).coeffs
        assert field.one().coeffs == ref.elem(1).coeffs


class TestFieldIdentity:
    def test_equal_fields_built_apart_give_equal_elements(self):
        cached, apart = Fq(9), FiniteField(3, 2)
        assert cached is not apart and cached == apart
        for x, y in zip(field_elements(cached), field_elements(apart)):
            assert x == y and hash(x) == hash(y)
            assert x * y == apart.elem(x.coeffs) * cached.elem(y.coeffs)
            assert apart.elem(x) is x

    @pytest.mark.parametrize(
        "op",
        [
            lambda x, y: x + y,
            lambda x, y: x - y,
            lambda x, y: x * y,
            lambda x, y: x / y,
            lambda x, y: y.field.elem(x),
        ],
    )
    def test_mixing_prime_field_and_extension_is_rejected(self, op):
        f3, f9 = Fq(3), Fq(9)
        x9 = f9.elem((0, 1))
        for x, y in [(f3.one(), x9), (x9, f3.one())]:
            with pytest.raises(ResidueFieldMismatch):
                op(x, y)
        assert f3.one() != f9.one() and f9.one() != f3.one()

    def test_elements_are_immutable(self):
        # immutable by convention: an element holds its two slots and nothing
        # else, its coefficients are read-only, and arithmetic builds new
        # elements without touching its operands
        x = Fq(9).elem((0, 1))
        with pytest.raises(AttributeError):
            x.other = 0
        with pytest.raises(AttributeError):
            x.coeffs = (0, 0)
        y = Fq(9).elem((2, 1))
        for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y, lambda: -x,
                   lambda: x**3, lambda: x.inverse()):
            assert op() is not x
        assert (x.coeffs, y.coeffs) == ((0, 1), (2, 1))

    def test_inverse_of_zero_is_rejected(self):
        for q in (5, 9):
            with pytest.raises(ZeroDivisionError):
                Fq(q).zero().inverse()
            with pytest.raises(ZeroDivisionError):
                Fq(q).zero() ** -1

    def test_a_large_field_builds_no_tables(self):
        field = Fq(2**20)
        assert field.elem((1,) * 20).coeffs == (1,) * 20
        assert "_tables" not in vars(field)
