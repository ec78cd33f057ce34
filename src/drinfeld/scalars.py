"""Exact scalar arithmetic: p-adic valuations on rationals, the ramified
quadratic extension generated by a square root of p, and small finite fields.

All arithmetic is exact (``fractions.Fraction`` underneath); valuations are
returned as ``Fraction`` values normalized to halves, with ``math.inf`` for zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Union

from .errors import InvalidParameters, NegativeValuation, ResidueFieldMismatch

INF = math.inf

RationalLike = Union[int, Fraction]


@lru_cache(maxsize=None)
def _check_prime(p: int) -> None:
    # only primes are cached: a failed check raises, and lru_cache keeps no result
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise InvalidParameters(f"p must be prime, got {p}")


def val_p(x: RationalLike, p: int) -> Fraction | float:
    """p-adic valuation of a rational; inf for 0."""
    if type(x) is not Fraction:
        x = Fraction(x)
    if not x:
        return INF
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return Fraction(v)


def _mod_inverse(a: int, m: int) -> int:
    return pow(a, -1, m)


def reduce_rational_mod_p(x: RationalLike, p: int) -> int:
    """Image of a p-integral rational in Z/p, via num * den^{-1} mod p."""
    x = Fraction(x)
    if x == 0:
        return 0
    if val_p(x, p) < 0:
        raise NegativeValuation(f"{x} has negative valuation at p={p}")
    return (x.numerator * _mod_inverse(x.denominator, p)) % p


_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ScalarKHat:
    """Element a + b*pihat of the ramified quadratic extension with pihat^2 = p.

    The valuation extends the p-adic one with omega(pihat) = 1/2; since the two
    components have valuations of distinct parity (integers vs half-integers),
    omega(a + b*pihat) = min(val(a), val(b) + 1/2) with no cancellation ever.

    The public constructors check that p is prime and coerce both components
    to ``Fraction``.  Arithmetic on two valid scalars builds its result with
    ``_make``, which checks nothing, and skips the products and sums of a
    zero operand or of a pihat-part that is zero.
    """

    p: int
    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        _check_prime(self.p)
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", Fraction(self.a))
        if type(self.b) is not Fraction:
            object.__setattr__(self, "b", Fraction(self.b))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(x: RationalLike, p: int) -> "ScalarKHat":
        _check_prime(p)
        return _make(p, x if type(x) is Fraction else Fraction(x), _ZERO)

    @staticmethod
    def zero(p: int) -> "ScalarKHat":
        _check_prime(p)
        return _make(p, _ZERO, _ZERO)

    @staticmethod
    def one(p: int) -> "ScalarKHat":
        _check_prime(p)
        return _make(p, _ONE, _ZERO)

    @staticmethod
    def pihat(p: int, exponent: int = 1) -> "ScalarKHat":
        """pihat^exponent for any integer exponent (p^{e/2} for even e)."""
        q, r = divmod(exponent, 2)
        rat = Fraction(p) ** q
        if r == 0:
            return ScalarKHat(p, rat, Fraction(0))
        return ScalarKHat(p, Fraction(0), rat)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_rational(self) -> bool:
        return not self.b

    def rational_value(self) -> Fraction:
        if self.b:
            raise InvalidParameters(f"{self} is not rational")
        return self.a

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other: "ScalarKHat | RationalLike") -> "ScalarKHat":
        if isinstance(other, ScalarKHat):
            if other.p != self.p:
                raise ResidueFieldMismatch(f"mixing p={self.p} and p={other.p}")
            return other
        return _make(self.p, other if type(other) is Fraction else Fraction(other), _ZERO)

    def __add__(self, other: "ScalarKHat | RationalLike") -> "ScalarKHat":
        o = self._coerce(other)
        if not o.a and not o.b:
            return self
        if not self.a and not self.b:
            return o
        b = self.b + o.b if self.b and o.b else self.b or o.b
        return _make(self.p, self.a + o.a, b)

    __radd__ = __add__

    def __neg__(self) -> "ScalarKHat":
        return _make(self.p, -self.a, -self.b)

    def __sub__(self, other: "ScalarKHat | RationalLike") -> "ScalarKHat":
        o = self._coerce(other)
        if not o.a and not o.b:
            return self
        return _make(self.p, self.a - o.a, self.b - o.b if o.b else self.b)

    def __rsub__(self, other: "ScalarKHat | RationalLike") -> "ScalarKHat":
        return self._coerce(other) - self

    def __mul__(self, other: "ScalarKHat | RationalLike") -> "ScalarKHat":
        o = self._coerce(other)
        a, b, c, d = self.a, self.b, o.a, o.b
        if not b:
            if not a:
                return self
            if not d:
                return _make(self.p, a * c, _ZERO) if c else o
            return _make(self.p, a * c, a * d)
        if not d:
            if not c:
                return o
            return _make(self.p, a * c, b * c)
        return _make(self.p, a * c + self.p * b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "ScalarKHat":
        """Multiplicative inverse via the conjugate: (a - b*pihat) / (a^2 - p b^2)."""
        a, b = self.a, self.b
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of zero")
            return _make(self.p, 1 / a, _ZERO)
        norm = a * a - self.p * b * b
        return _make(self.p, a / norm, -b / norm)

    def __truediv__(self, other: "ScalarKHat | RationalLike") -> "ScalarKHat":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other: "ScalarKHat | RationalLike") -> "ScalarKHat":
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "ScalarKHat":
        if n < 0:
            return self.inverse() ** (-n)
        result = _make(self.p, _ONE, _ZERO)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "ScalarKHat":
        return _make(self.p, self.a, -self.b)

    # -- valuation and reduction ----------------------------------------------

    def valuation(self) -> Fraction | float:
        va = val_p(self.a, self.p)
        if not self.b:
            return va
        return min(va, val_p(self.b, self.p) + _HALF)

    def is_integral(self) -> bool:
        return self.valuation() >= 0

    def is_unit(self) -> bool:
        return self.valuation() == 0

    def reduce_mod_pihat(self) -> int:
        """Image in Z/p; requires omega >= 0 (then the pihat part drops)."""
        if self.valuation() < 0:
            raise NegativeValuation(f"{self} has valuation {self.valuation()} < 0")
        return reduce_rational_mod_p(self.a, self.p)

    def residue_mod_pihat_power(self, e: int) -> tuple[int, int]:
        """Canonical representative of the class mod pihat^e, as component pair.

        Returns (a mod p^ceil(e/2), b mod p^floor(e/2)); requires omega >= 0.
        """
        if e < 0:
            raise InvalidParameters("exponent must be nonnegative")
        if self.valuation() < 0:
            raise NegativeValuation(f"{self} has valuation {self.valuation()} < 0")
        wa, wb = (e + 1) // 2, e // 2
        ra = (
            (self.a.numerator * _mod_inverse(self.a.denominator, self.p**wa)) % self.p**wa
            if wa > 0
            else 0
        )
        rb = (
            (self.b.numerator * _mod_inverse(self.b.denominator, self.p**wb)) % self.p**wb
            if wb > 0
            else 0
        )
        return ra, rb

    def __repr__(self) -> str:
        if self.b == 0:
            return f"{self.a}"
        if self.a == 0:
            return f"{self.b}*pihat"
        return f"({self.a} + {self.b}*pihat)"


_new_scalar = object.__new__


def _make(p: int, a: Fraction, b: Fraction) -> ScalarKHat:
    """A scalar from a prime p and two ``Fraction``s, unchecked: the fast path
    for results of arithmetic on scalars that are already valid."""
    s = _new_scalar(ScalarKHat)
    fields = s.__dict__
    fields["p"] = p
    fields["a"] = a
    fields["b"] = b
    return s


# -- finite fields -----------------------------------------------------------


def _poly_mod_mul(u: tuple[int, ...], v: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] = (out[i + j] + ui * vj) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_mod_rem(u: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    u = list(u)
    dm = len(m) - 1
    inv_lead = _mod_inverse(m[-1], p)
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


def _is_irreducible(m: tuple[int, ...], p: int) -> bool:
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for n in range(p**d):
            cand = [n // p**i % p for i in range(d)] + [1]
            rem = _poly_mod_rem(m, tuple(cand), p)
            if rem == (0,):
                return False
    return True


@lru_cache(maxsize=None)
def _find_modulus(p: int, f: int) -> tuple[int, ...]:
    """First monic irreducible x^f + sum c_i x^i with (c_0..c_{f-1}) minimal
    as a base-p integer."""
    for n in range(p**f):
        coeffs = tuple(n // p**i % p for i in range(f)) + (1,)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise InvalidParameters(f"no irreducible of degree {f} over Z/{p}")  # pragma: no cover


@lru_cache(maxsize=None)
def Fq(q: int) -> "FiniteField":
    """The finite field with q = p^f elements, with a deterministic modulus."""
    if q < 2:
        raise InvalidParameters(f"q must be a prime power >= 2, got {q}")
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    f = 0
    m = q
    while m > 1:
        if m % p:
            raise InvalidParameters(f"q={q} is not a prime power")
        m //= p
        f += 1
    return FiniteField(p, f)


class FiniteField:
    """F_{p^f} as Z/p[x] modulo a fixed monic irreducible of degree f."""

    def __init__(self, p: int, f: int) -> None:
        _check_prime(p)
        if f < 1:
            raise InvalidParameters("degree must be >= 1")
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = _find_modulus(p, f) if f > 1 else (0, 1)

    def __repr__(self) -> str:
        return f"Fq({self.q})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteField) and (self.p, self.f) == (other.p, other.f)

    def __hash__(self) -> int:
        return hash(("FiniteField", self.p, self.f))

    # -- element constructors -------------------------------------------------

    def elem(self, coeffs: "int | tuple[int, ...] | FqElem") -> "FqElem":
        if isinstance(coeffs, FqElem):
            if coeffs.field != self:
                raise ResidueFieldMismatch("element from a different field")
            return coeffs
        if isinstance(coeffs, int):
            vec = (coeffs % self.p,) + (0,) * (self.f - 1)
        else:
            if len(coeffs) > self.f:
                raise InvalidParameters("coefficient vector too long")
            vec = tuple(c % self.p for c in coeffs) + (0,) * (self.f - len(coeffs))
        return FqElem(self, vec)

    def zero(self) -> "FqElem":
        return self.elem(0)

    def one(self) -> "FqElem":
        return self.elem(1)

    def gen(self) -> "FqElem":
        """Image of x (a generator of the field over Z/p when f > 1)."""
        if self.f == 1:
            return self.one()
        return self.elem((0, 1))

    def primitive_element(self) -> "FqElem":
        """First element, in ``elements`` order, of multiplicative order q-1."""
        n = self.q - 1
        primes = [
            r for r in range(2, n + 1) if n % r == 0 and all(r % s for s in range(2, r))
        ]
        one = self.one()
        for x in self.elements():
            if not x.is_zero() and all(x ** (n // r) != one for r in primes):
                return x

    def elements(self) -> Iterator["FqElem"]:
        """All q elements, in deterministic base-p order."""
        for n in range(self.q):
            yield self.elem(tuple(n // self.p**i % self.p for i in range(self.f)))

    def from_int(self, n: int) -> "FqElem":
        """Image of the integer n through Z -> Z/p -> F_q."""
        return self.elem(n)


@dataclass(frozen=True)
class FqElem:
    field: FiniteField
    coeffs: tuple[int, ...]

    def _check(self, other: "FqElem") -> None:
        if self.field != other.field:
            raise ResidueFieldMismatch("mixing elements of different fields")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        p = self.field.p
        return FqElem(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FqElem":
        p = self.field.p
        return FqElem(self.field, tuple(-a % p for a in self.coeffs))

    def __sub__(self, other: "FqElem") -> "FqElem":
        return self + (-other)

    def __mul__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        p = self.field.p
        prod = _poly_mod_mul(self.coeffs, other.coeffs, p)
        if self.field.f > 1:
            prod = _poly_mod_rem(prod, self.field.modulus, p)
        vec = tuple(prod) + (0,) * (self.field.f - len(prod))
        return FqElem(self.field, vec[: self.field.f])

    def inverse(self) -> "FqElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in finite field")
        # x^(q-2) is the inverse; q is tiny here so repeated squaring is plenty.
        return self ** (self.field.q - 2)

    def __truediv__(self, other: "FqElem") -> "FqElem":
        return self * other.inverse()

    def __pow__(self, n: int) -> "FqElem":
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

    def __repr__(self) -> str:
        if self.field.f == 1:
            return str(self.coeffs[0])
        return "+".join(
            f"{c}x^{i}" if i else str(c) for i, c in enumerate(self.coeffs) if c
        ) or "0"
