"""Exact scalar arithmetic: p-adic valuations on rationals, the ramified
quadratic extension generated by a square root of p, and small finite fields.

All arithmetic is exact: a scalar of the extension is a few Python ints (see
``ScalarKHat``), a finite-field element is one int code (see ``FiniteField``).
``Fq`` also validates q and names its p and f for the residue-field commands,
which compute on int residues; ``FqElem`` arithmetic serves only the
comparison map's equivariance check (``modp.symgeom_equivariance``).
Valuations are ints: ``_vp`` returns the p-adic valuation v_p of a nonzero
int, ``ScalarKHat.valuation`` the doubled valuation 2*omega, which is the
exponent of pihat, and ``INF`` (``math.inf``) for zero.  ``half``
turns a doubled valuation into the ``Fraction`` omega where one is printed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Union

from .errors import InternalInvariantError, InvalidParameters, ResidueFieldMismatch

INF = math.inf

RationalLike = Union[int, Fraction]


# Miller-Rabin with the first 13 primes as bases decides every n below the
# bound (Sorenson and Webster, 2015); above it no test is run.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Whether an int n is prime, by a deterministic Miller-Rabin; raises
    ``InvalidParameters`` at n >= ``_PRIME_BOUND``, where it would not decide."""
    if n >= _PRIME_BOUND:
        raise InvalidParameters(f"primality is decided below {_PRIME_BOUND}, got {n}")
    if n < 2 or n in _PRIME_BASES:
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for b in _PRIME_BASES:
        x = pow(b, (n - 1) >> s, n)
        powers = [x] + [x := x * x % n for _ in range(s - 1)]  # b^d, b^2d, ..., b^(2^(s-1) d)
        if powers[0] != 1 and n - 1 not in powers:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A factor 1 < f < n of an odd composite n, by Pollard's rho with
    Brent's cycle finding: the walk x -> x^2 + c mod n from 2, for c = 1,
    2, ... until one splits n, with the differences multiplied in batches of
    128 between gcds."""
    for c in range(1, n):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for start in range(0, r, 128):
                saved = y
                for _ in range(min(128, r - start)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = math.gcd(acc, n)
                if g != 1:
                    break
            r *= 2
        if g == n:  # the batch overshot: step it again one difference at a time
            y, g = saved, 1
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
        if g != n:
            return g
    raise InternalInvariantError(f"{n} is not an odd composite")  # pragma: no cover


def _prime_factors(n: int) -> set[int]:
    """The prime factors of an int n >= 1: trial division below 2^10, then
    ``_rho_factor`` on what is left, until ``_is_prime`` accepts each part."""
    found = set()
    for d in range(2, 1 << 10):
        if d * d > n:
            break
        if not n % d:
            found.add(d)
            while not n % d:
                n //= d
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if _is_prime(m):
            found.add(m)
        else:
            f = _rho_factor(m)
            parts += [f, m // f]
    return found


@lru_cache(maxsize=None)
def _check_prime(p: int) -> None:
    # only primes are cached: a failed check raises, and lru_cache keeps no result
    if not _is_prime(p):
        raise InvalidParameters(f"p must be prime, got {p}")


def _iroot(n: int, f: int) -> int:
    """The largest int r with r^f <= n, for an int n >= 0, one bit at a time."""
    r = 0
    for bit in reversed(range(n.bit_length() // f + 1)):
        if (r | 1 << bit) ** f <= n:
            r |= 1 << bit
    return r


def _vp(n: int, p: int) -> int:
    """Exponent of p in a nonzero int: one division per factor for the first 8,
    then twice the exponent of p^2 plus a last factor, so v costs O(log v)
    rounds (a level-m transporter's symmetric power carries p^(m k))."""
    v = 0
    while not n % p:
        if v == 8:
            twice = _vp(n, p * p)
            return v + 2 * twice + (not n // (p * p) ** twice % p)
        n //= p
        v += 1
    return v


def _factorials(p: int, n: int) -> tuple[list[int], list[int], list[int]]:
    """For i = 0..n: v_p(i!), the unit part of i! mod p and its inverse mod
    p, step i adding v_p(i) and multiplying by i/p^v_p(i) (Legendre).  Every
    p-adic binomial is read from them: C(n, r) has valuation
    v(n) - v(r) - v(n - r) and unit part u(n) u(r)^-1 u(n - r)^-1."""
    vals, units = [0], [1]
    for i in range(1, n + 1):
        v = _vp(i, p)
        vals.append(vals[-1] + v)
        units.append(units[-1] * (i // p**v) % p)
    return vals, units, [pow(u, -1, p) for u in units]


def _binomials_mod(p: int, n: int, table: tuple) -> list[int]:
    """C(n, r) mod p for r = 0..n from a ``_factorials`` table that reaches n."""
    v, u, inv = table
    return [u[n] * inv[r] * inv[n - r] % p if v[r] + v[n - r] == v[n] else 0 for r in range(n + 1)]


def half(twice: int | float) -> Fraction | float:
    """The valuation omega as a ``Fraction`` from its double 2*omega; INF
    stays INF.  Valuations are computed doubled and halved only for output."""
    return twice if twice is INF else Fraction(twice, 2)


def _mod_inverse(a: int, m: int) -> int:
    return pow(a, -1, m)


_ZERO = Fraction(0)


class ScalarKHat:
    """Element a + b*pihat of the ramified quadratic extension with pihat^2 = p.

    The valuation extends the p-adic one with omega(pihat) = 1/2; since the two
    components have valuations of distinct parity (integers vs half-integers),
    omega(a + b*pihat) = min(val(a), val(b) + 1/2) with no cancellation ever.

    A scalar is four ints (p, A, B, D) with value (A + B*pihat)/D, D > 0 and
    gcd(A, B, D) = 1, so equal scalars hold equal ints.  The components
    a = A/D and b = B/D are read as ``Fraction`` properties.  The public
    constructors (``from_rational``, ``zero``, ``one``, ``pihat``) check that
    p is prime.  A scalar is not hashable, and it takes a rational operand on
    either side of + and *, but only on the right of -; no command divides
    scalars, so there is no /, only ``inverse``.
    Arithmetic on two valid scalars builds its result with ``_make``, which
    checks nothing and reduces by one gcd.  Immutable by convention, as
    ``Fraction`` is: nothing assigns to a scalar's slots once it is built.
    """

    __slots__ = ("p", "A", "B", "D")

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.D)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.D) if self.B else _ZERO

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(x: RationalLike, p: int) -> "ScalarKHat":
        _check_prime(p)
        if type(x) is int:
            return _make(p, x, 0, 1)
        return _make(p, x.numerator, 0, x.denominator)

    @staticmethod
    def zero(p: int) -> "ScalarKHat":
        _check_prime(p)
        return _make(p, 0, 0, 1)

    @staticmethod
    def one(p: int) -> "ScalarKHat":
        _check_prime(p)
        return _make(p, 1, 0, 1)

    @staticmethod
    def pihat(p: int, exponent: int = 1) -> "ScalarKHat":
        """pihat^exponent for any integer exponent (p^{e/2} for even e)."""
        _check_prime(p)
        return _times_pihat(p, 1, 1, exponent)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.A and not self.B

    def __bool__(self) -> bool:
        return self.A != 0 or self.B != 0

    def __eq__(self, other: object) -> bool:
        return (
            other.__class__ is ScalarKHat
            and self.A == other.A and self.B == other.B and self.D == other.D and self.p == other.p
        )

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other: "ScalarKHat | RationalLike") -> "ScalarKHat":
        """A rational operand as a scalar at self's p; the callers take a
        scalar at self's p as it is, so a scalar here has another p."""
        if other.__class__ is ScalarKHat:
            raise ResidueFieldMismatch(f"mixing p={self.p} and p={other.p}")
        return ScalarKHat.from_rational(other, self.p)

    def __add__(self, other: "ScalarKHat | RationalLike") -> "ScalarKHat":
        o = other if other.__class__ is ScalarKHat and other.p == self.p else self._coerce(other)
        if not o.A and not o.B:
            return self
        A, B, D = self.A, self.B, self.D
        if not A and not B:
            return o
        if D == o.D:
            return _make(self.p, A + o.A, B + o.B, D)
        return _make(self.p, A * o.D + o.A * D, B * o.D + o.B * D, D * o.D)

    __radd__ = __add__

    def __neg__(self) -> "ScalarKHat":
        return _make(self.p, -self.A, -self.B, self.D)

    def __sub__(self, other: "ScalarKHat | RationalLike") -> "ScalarKHat":
        o = other if other.__class__ is ScalarKHat and other.p == self.p else self._coerce(other)
        if not o.A and not o.B:
            return self
        A, B, D = self.A, self.B, self.D
        if D == o.D:
            return _make(self.p, A - o.A, B - o.B, D)
        return _make(self.p, A * o.D - o.A * D, B * o.D - o.B * D, D * o.D)

    def __mul__(self, other: "ScalarKHat | RationalLike") -> "ScalarKHat":
        o = other if other.__class__ is ScalarKHat and other.p == self.p else self._coerce(other)
        A, B, C, E = self.A, self.B, o.A, o.B
        if not B:
            if not E:
                return _make(self.p, A * C, 0, self.D * o.D)
            return _make(self.p, A * C, A * E, self.D * o.D)
        if not E:
            return _make(self.p, A * C, B * C, self.D * o.D)
        return _make(self.p, A * C + self.p * B * E, A * E + B * C, self.D * o.D)

    __rmul__ = __mul__

    def inverse(self) -> "ScalarKHat":
        """Multiplicative inverse via the conjugate: D (A - B*pihat) / (A^2 - p B^2)."""
        A, B, D = self.A, self.B, self.D
        if not B:
            if not A:
                raise ZeroDivisionError("inverse of zero")
            return _make(self.p, D, 0, A) if A > 0 else _make(self.p, -D, 0, -A)
        norm = A * A - self.p * B * B  # never 0: p is not a square
        if norm < 0:
            return _make(self.p, -D * A, D * B, -norm)
        return _make(self.p, D * A, -D * B, norm)

    def __pow__(self, n: int) -> "ScalarKHat":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 1:
            return self
        result = _make(self.p, 1, 0, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            base = base * base if n else base
        return result

    # -- valuation -------------------------------------------------------------

    def valuation(self) -> int | float:
        """The doubled valuation 2*omega = min(2 v(A), 2 v(B) + 1) - 2 v(D),
        an int (the exponent of pihat), or INF for zero."""
        A, B, p = self.A, self.B, self.p
        if not B:
            if not A:
                return INF
            twice = 2 * _vp(A, p)
        elif not A:
            twice = 2 * _vp(B, p) + 1
        else:
            twice = min(2 * _vp(A, p), 2 * _vp(B, p) + 1)
        if not self.D % p:
            twice -= 2 * _vp(self.D, p)
        return twice

    def __repr__(self) -> str:
        if not self.B:
            return f"{self.a}"
        if not self.A:
            return f"{self.b}*pihat"
        return f"({self.a} + {self.b}*pihat)"


_new_scalar = object.__new__
_gcd = math.gcd


def _make(p: int, A: int, B: int, D: int) -> ScalarKHat:
    """The scalar (A + B*pihat)/D for D > 0, reduced by gcd(A, B, D) and
    otherwise unchecked: the fast path for results of arithmetic on scalars
    that are already valid."""
    g = _gcd(A, B, D)
    if g != 1:
        A //= g
        B //= g
        D //= g
    s = _new_scalar(ScalarKHat)
    s.p = p
    s.A = A
    s.B = B
    s.D = D
    return s


def _times_pihat(p: int, a: int, d: int, exponent: int) -> ScalarKHat:
    """The scalar (a/d) * pihat^exponent for ints a and d > 0."""
    q, odd = divmod(exponent, 2)
    a, d = (a * p**q, d) if q >= 0 else (a, d * p**-q)
    return _make(p, 0, a, d) if odd else _make(p, a, 0, d)


def _common_denominator(vec: list) -> tuple[list[int], list[int], int]:
    """The scalars (A_i + B_i*pihat)/D_i of vec over one denominator L = lcm
    of the D_i: the ints A_i L/D_i, the ints B_i L/D_i and L."""
    L = math.lcm(*(x.D for x in vec))
    return [x.A * (L // x.D) for x in vec], [x.B * (L // x.D) for x in vec], L


def _twice_valuation(a: int, b: int, p: int) -> int | float:
    """The doubled valuation of a + b*pihat for ints a and b; INF for 0."""
    return min(2 * _vp(a, p) if a else INF, 2 * _vp(b, p) + 1 if b else INF)


# -- finite fields -----------------------------------------------------------


# Z/p[x] on int tuples for the modulus and tables of an extension field, not
# ``poly`` over prime-field FqElem: built that way the tables were the same for
# 29 fields, but building them took 0.16 s, not 0.07 s, at q = 4096 and 0.33 s,
# not 0.12 s, at q = 6561 (one core of a 2-vCPU Xeon).
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
    # q is m^f for the largest such f, and a prime power exactly when m is prime
    f = next(f for f in range(q.bit_length(), 0, -1) if _iroot(q, f) ** f == q)
    p = _iroot(q, f)
    if not _is_prime(p):
        raise InvalidParameters(f"q={q} is not a prime power")
    return FiniteField(p, f)


class FiniteField:
    """F_{p^f} as Z/p[x] modulo a fixed monic irreducible of degree f.

    An element is coded by the int n = c_0 + c_1 p + ... + c_{f-1} p^{f-1}
    of its coefficients on 1, x, ..., x^{f-1}.  A prime field computes on the
    codes mod p.  An extension field multiplies through exp/log tables of
    ``primitive_element`` w and adds through a Zech table:
    w^i + w^j = w^(i + Z(j - i)) with w^Z(k) = 1 + w^k.  The three tables
    have q - 1 entries each.  They and the modulus are built on first use,
    not by the constructor, so a field that only names q (``modp degrees``)
    costs nothing at any q.
    """

    def __init__(self, p: int, f: int) -> None:
        _check_prime(p)
        if f < 1:
            raise InvalidParameters("degree must be >= 1")
        self.p = p
        self.f = f
        self.q = p**f
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

    @cached_property
    def modulus(self) -> tuple[int, ...]:
        """The monic irreducible of degree f, little-endian; x for a prime
        field.  Found on first use, as the tables are."""
        return _find_modulus(self.p, self.f) if self.f > 1 else (0, 1)

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
        """The least code of an element of order q-1."""
        n = self.q - 1
        primes = _prime_factors(n)
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
        """The element of least code of multiplicative order q-1."""
        return _make_fq(self, self._primitive)

    def from_int(self, n: int) -> "FqElem":
        """Image of the integer n through Z -> Z/p -> F_q."""
        return _make_fq(self, n % self.p)


class FqElem:
    """An element of a finite field, held as its field and its code ``n``
    (see ``FiniteField``); build one with ``FiniteField.elem``.  Immutable
    by convention, as ``ScalarKHat`` is: nothing assigns to an element's
    slots once it is built."""

    __slots__ = ("field", "n")

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients on 1, x, ..., x^(f-1), each in [0, p)."""
        return self.field._digits(self.n)

    def is_zero(self) -> bool:
        return not self.n

    def __bool__(self) -> bool:
        return self.n != 0

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


def _make_fq(field: FiniteField, n: int) -> FqElem:
    """The element of code n in [0, q), unchecked: the fast path for results
    of arithmetic on elements that are already valid."""
    e = _new_elem(FqElem)
    e.field = field
    e.n = n
    return e
