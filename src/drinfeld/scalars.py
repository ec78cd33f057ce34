"""Exact scalar arithmetic: p-adic valuations on rationals, the ramified
quadratic extension generated by a square root of p, and small finite fields.

All arithmetic is exact (``fractions.Fraction`` underneath); valuations are
returned as ``Fraction`` values normalized to halves, with ``math.inf`` for zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
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

    # -- valuation and reduction ----------------------------------------------

    def valuation(self) -> Fraction | float:
        va = val_p(self.a, self.p)
        if not self.b:
            return va
        return min(va, val_p(self.b, self.p) + _HALF)

    def is_integral(self) -> bool:
        return self.valuation() >= 0

    def reduce_mod_pihat(self) -> int:
        """Image in Z/p; requires omega >= 0 (then the pihat part drops)."""
        if self.valuation() < 0:
            raise NegativeValuation(f"{self} has valuation {self.valuation()} < 0")
        return reduce_rational_mod_p(self.a, self.p)

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
    """F_{p^f} as Z/p[x] modulo a fixed monic irreducible of degree f.

    An element is coded by the int n = c_0 + c_1 p + ... + c_{f-1} p^{f-1}
    of its coefficients on 1, x, ..., x^{f-1}, which is its index in
    ``elements``.  A prime field computes on the codes mod p.  An extension
    field multiplies through exp/log tables of ``primitive_element`` w and
    adds through a Zech table: w^i + w^j = w^(i + Z(j - i)) with
    w^Z(k) = 1 + w^k.  The three tables have q - 1 entries each and are
    built on the first arithmetic operation, not by the constructor.
    """

    def __init__(self, p: int, f: int) -> None:
        _check_prime(p)
        if f < 1:
            raise InvalidParameters("degree must be >= 1")
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = _find_modulus(p, f) if f > 1 else (0, 1)
        self._zero = _make_fq(self, 0)
        self._one = _make_fq(self, 1)

    def __repr__(self) -> str:
        return f"Fq({self.q})"

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, FiniteField) and (self.p, self.f) == (other.p, other.f)
        )

    def __hash__(self) -> int:
        return hash(("FiniteField", self.p, self.f))

    # -- codes and tables ------------------------------------------------------

    def _digits(self, n: int) -> tuple[int, ...]:
        p = self.p
        return tuple(n // p**i % p for i in range(self.f))

    def _code(self, digits: tuple[int, ...]) -> int:
        return sum(c * self.p**i for i, c in enumerate(digits))

    def _slow_mul(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        # product of coefficient vectors in Z/p[x] mod the modulus
        return _poly_mod_rem(_poly_mod_mul(u, v, self.p), self.modulus, self.p)

    def _slow_pow(self, n: int, e: int) -> int:
        if self.f == 1:
            return pow(n, e, self.p)
        result, base = (1,), self._digits(n)
        while e:
            if e & 1:
                result = self._slow_mul(result, base)
            base = self._slow_mul(base, base)
            e >>= 1
        return self._code(result)

    @cached_property
    def _primitive(self) -> int:
        """Code of the first element, in ``elements`` order, of order q-1."""
        n = self.q - 1
        primes = [
            r for r in range(2, n + 1) if n % r == 0 and all(r % s for s in range(2, r))
        ]
        return next(
            c for c in range(1, self.q) if all(self._slow_pow(c, n // r) != 1 for r in primes)
        )

    @cached_property
    def _tables(self) -> tuple[list[int], list[int], list[int]]:
        """(exp, log, zech) for an extension field: exp[i] is the code of w^i,
        log inverts it on nonzero codes, and zech[k] = log(1 + w^k), or -1
        where 1 + w^k = 0."""
        p, order = self.p, self.q - 1
        w = self._digits(self._primitive)
        exp, log = [0] * order, [0] * self.q
        u = (1,)
        for i in range(order):
            n = self._code(u)
            exp[i], log[n] = n, i
            u = self._slow_mul(u, w)
        # adding 1 changes the constant digit only
        zech = [log[s] if s else -1 for s in (n - n % p + (n + 1) % p for n in exp)]
        return exp, log, zech

    # -- element constructors -------------------------------------------------

    def elem(self, coeffs: "int | tuple[int, ...] | FqElem") -> "FqElem":
        if isinstance(coeffs, FqElem):
            if coeffs.field != self:
                raise ResidueFieldMismatch("element from a different field")
            return coeffs
        if isinstance(coeffs, int):
            return _make_fq(self, coeffs % self.p)
        if len(coeffs) > self.f:
            raise InvalidParameters("coefficient vector too long")
        return _make_fq(self, self._code(tuple(c % self.p for c in coeffs)))

    def zero(self) -> "FqElem":
        return self._zero

    def one(self) -> "FqElem":
        return self._one

    def primitive_element(self) -> "FqElem":
        """First element, in ``elements`` order, of multiplicative order q-1."""
        return _make_fq(self, self._primitive)

    def elements(self) -> Iterator["FqElem"]:
        """All q elements, in deterministic base-p order."""
        for n in range(self.q):
            yield _make_fq(self, n)

    def from_int(self, n: int) -> "FqElem":
        """Image of the integer n through Z -> Z/p -> F_q."""
        return _make_fq(self, n % self.p)


class FqElem:
    """An element of a finite field, held as its field and its code ``n``
    (see ``FiniteField``).  Immutable; build one with ``FiniteField.elem``."""

    __slots__ = ("field", "n")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FqElem is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("FqElem is immutable")

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients on 1, x, ..., x^(f-1), each in [0, p)."""
        return self.field._digits(self.n)

    def is_zero(self) -> bool:
        return not self.n

    def __eq__(self, other: object) -> bool:
        if type(other) is not FqElem:
            return NotImplemented
        return self.n == other.n and (self.field is other.field or self.field == other.field)

    def __hash__(self) -> int:
        return hash(self.n)

    def __add__(self, other: "FqElem") -> "FqElem":
        field = self.field
        if other.field is not field and other.field != field:
            raise ResidueFieldMismatch("mixing elements of different fields")
        a, b = self.n, other.n
        if field.f == 1:
            return _make_fq(field, (a + b) % field.p)
        if not a:
            return other
        if not b:
            return self
        exp, log, zech = field._tables
        order = field.q - 1
        la = log[a]
        z = zech[(log[b] - la) % order]
        return field._zero if z < 0 else _make_fq(field, exp[(la + z) % order])

    def __neg__(self) -> "FqElem":
        field, a = self.field, self.n
        if field.f == 1:
            return _make_fq(field, -a % field.p)
        if not a or field.p == 2:
            return self
        exp, log, _ = field._tables
        order = field.q - 1
        return _make_fq(field, exp[(log[a] + order // 2) % order])

    def __sub__(self, other: "FqElem") -> "FqElem":
        field = self.field
        if field.f == 1 and other.field is field:
            return _make_fq(field, (self.n - other.n) % field.p)
        return self + (-other)

    def __mul__(self, other: "FqElem") -> "FqElem":
        field = self.field
        if other.field is not field and other.field != field:
            raise ResidueFieldMismatch("mixing elements of different fields")
        a, b = self.n, other.n
        if field.f == 1:
            return _make_fq(field, a * b % field.p)
        if not a or not b:
            return field._zero
        exp, log, _ = field._tables
        return _make_fq(field, exp[(log[a] + log[b]) % (field.q - 1)])

    def inverse(self) -> "FqElem":
        field, a = self.field, self.n
        if not a:
            raise ZeroDivisionError("inverse of zero in finite field")
        if field.f == 1:
            return _make_fq(field, pow(a, -1, field.p))
        exp, log, _ = field._tables
        return _make_fq(field, exp[-log[a] % (field.q - 1)])

    def __truediv__(self, other: "FqElem") -> "FqElem":
        return self * other.inverse()

    def __pow__(self, e: int) -> "FqElem":
        field, a = self.field, self.n
        if not a:
            if e < 0:
                raise ZeroDivisionError("inverse of zero in finite field")
            return field._zero if e else field._one
        if field.f == 1:
            return _make_fq(field, pow(a, e, field.p))
        exp, log, _ = field._tables
        return _make_fq(field, exp[log[a] * e % (field.q - 1)])

    def __repr__(self) -> str:
        if self.field.f == 1:
            return str(self.n)
        return "+".join(
            f"{c}x^{i}" if i else str(c) for i, c in enumerate(self.coeffs) if c
        ) or "0"


_new_elem = object.__new__
_set_field = FqElem.field.__set__
_set_code = FqElem.n.__set__


def _make_fq(field: FiniteField, n: int) -> FqElem:
    """The element of code n in [0, q), unchecked: the fast path for results
    of arithmetic on elements that are already valid."""
    e = _new_elem(FqElem)
    _set_field(e, field)
    _set_code(e, n)
    return e
