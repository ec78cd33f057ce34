"""Exact rational functions of one variable over the ramified quadratic
extension, in factored form, together with their tube valuations (also under
the weighted group action on sections) and principal parts at the poles.

A function is lead * extra(z) * prod (z - root)^mult.  extra, a monic
polynomial of degree >= 1, holds what a derivative leaves unfactored over the
base field, as the ints of its coefficients; a parsed section has none, and
the denominator always stays inside the explicit factors.  The operations are
those the commands run: products, powers, the inverse, exact equality and
derivatives, each of a function with no extra; a function is not hashable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat, zip_longest
from math import factorial, gcd, lcm, perm
from typing import Callable, Iterable, Iterator

from . import poly
from .errors import InternalInvariantError, InvalidParameters, ZeroFunction
from .scalars import ScalarKHat, _common_denominator, _make, _twice_valuation, _vp
from .symrep import triangular_apply
from .tree import _level_and_offset

# -- polynomials over Z[pihat] ------------------------------------------------------
# A pair (a, b) of int polynomials stands for a + b pihat, with pihat^2 = p.


def _zadd(u: tuple, v: tuple) -> tuple:
    if not u[1] and not v[1]:
        return poly.add(u[0], v[0]), ()
    return poly.add(u[0], v[0]), poly.add(u[1], v[1])


def _zmul(u: tuple, v: tuple, p: int) -> tuple:
    (a, b), (c, d) = u, v
    if not b and not d:
        return poly.mul(a, c, 0), ()
    return (
        poly.add(poly.mul(a, c, 0), poly.scale(poly.mul(b, d, 0), p)),
        poly.add(poly.mul(a, d, 0), poly.mul(b, c, 0)),
    )


def _binomial_row(y: ScalarKHat, e: int, p: int) -> tuple:
    """(D z - c)^e for y = c/D, c = A + B pihat: C(e, j) D^j (-c)^(e - j) at z^j,
    from D^e at z^e down, each coefficient the one above times -c j / ((e - j + 1) D)."""
    A, B, D = y.A, y.B, y.D
    if not B:  # the same rule on one int list
        real = [D**e]
        for j in range(e, 0, -1):
            real.append(-A * real[-1] * j // ((e - j + 1) * D))
        return poly.trim(real[::-1]), ()
    row = [(D**e, 0)]
    for j in range(e, 0, -1):
        (x, v), below = row[-1], (e - j + 1) * D
        row.append(((-A * x - p * B * v) * j // below, (-A * v - B * x) * j // below))
    return poly.trim([x for x, _ in reversed(row)]), poly.trim([v for _, v in reversed(row)])


def _divide_out(pairs: list, r: ScalarKHat, e: int, scale: int, p: int) -> tuple[list, int]:
    """The pairs (x, y) of x + y pihat of a numerator over ``scale``, divided
    by (z - r)^e, and its new scale, for r = c/D a root of it at least e
    times: D^d N(w/D), d its degree, is divided by the monic w - c e times on
    ints, and w = D z put back."""
    A, B, D, d = r.A, r.B, r.D, len(pairs) - 1
    pairs = [(x * D ** (d - j), y * D ** (d - j)) for j, (x, y) in enumerate(pairs)]
    for _ in range(e):  # synthetic division; the remainder is 0
        out, x, y = [], 0, 0
        for u, v in reversed(pairs):
            x, y = u + A * x + p * B * y, v + A * y + B * x
            out.append((x, y))
        pairs = out[-2::-1]
    return [(x * D**j, y * D**j) for j, (x, y) in enumerate(pairs)], scale * D ** (d - e)


# -- factored rational functions --------------------------------------------------


def _value_key(roots: Iterable[ScalarKHat]) -> Callable[[ScalarKHat], tuple]:
    """The sort key that orders ``roots`` by a, then b, as the Fractions a and
    b would: the ints A L/D and B L/D over the roots' common denominator L."""
    L = lcm(*(r.D for r in roots))
    return lambda r: (r.A * (L // r.D), r.B * (L // r.D))


class FactoredRational:
    """lead * extra(z) * prod (z - root)^mult; 0 has lead 0.  extra is None,
    or the ints (real, pihat, norm) of a monic polynomial of degree >= 1 with
    coefficients (real[i] + pihat[i] pihat)/norm, unreduced, norm > 0: only
    ``derivative`` builds one.  The factors are merged by root, sorted and
    nonzero, so a function with no extra has one factored form."""

    __slots__ = ("p", "lead", "factors", "extra")

    def __init__(
        self,
        p: int,
        lead: ScalarKHat,
        factors: Iterable[tuple[ScalarKHat, int]] = (),
        extra: tuple | None = None,
    ) -> None:
        self.p = p
        if lead.is_zero():
            self.lead, self.factors, self.extra = ScalarKHat.zero(p), (), None
            return
        merged: dict[tuple, list] = {}  # by the ints of each root, which equal roots share
        for root, mult in factors:
            merged.setdefault((root.A, root.B, root.D), [root, 0])[1] += mult
        entries = [(root, mult) for root, mult in merged.values() if mult != 0]
        if len(entries) > 1:
            key = _value_key(root for root, _ in entries)
            entries.sort(key=lambda e: key(e[0]))
        self.lead, self.factors, self.extra = lead, tuple(entries), extra

    # -- structure ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.lead.is_zero()

    def _factored(self) -> "FactoredRational":
        """self, refused if it has an extra: the algebra below reads a
        function from its lead and factors alone."""
        if self.extra is not None:
            raise InternalInvariantError("a function with an unfactored polynomial part has no algebra here")
        return self

    def num_den(self) -> tuple[poly.Poly, poly.Poly]:
        """Expanded (numerator, denominator); denominator monic."""
        zero, one = ScalarKHat.zero(self.p), ScalarKHat.one(self.p)
        num, den = poly.trim((self._factored().lead,)), (one,)
        for root, mult in self.factors:
            lin = (-root, one)
            if mult > 0:
                num = poly.mul(num, poly.power(lin, mult, zero, one), zero)
            else:
                den = poly.mul(den, poly.power(lin, -mult, zero, one), zero)
        return num, den

    def denominator_roots(self) -> list[tuple[ScalarKHat, int]]:
        return [(r, -m) for r, m in self.factors if m < 0]

    # -- ring operations ------------------------------------------------------------

    def __mul__(self, other: "FactoredRational | ScalarKHat") -> "FactoredRational":
        if isinstance(other, ScalarKHat):
            return FactoredRational(self.p, self._factored().lead * other, self.factors)
        factors = list(self._factored().factors) + list(other._factored().factors)
        return FactoredRational(self.p, self.lead * other.lead, factors)

    __rmul__ = __mul__

    def inverse(self) -> "FactoredRational":
        if self._factored().is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        return FactoredRational(self.p, self.lead.inverse(), [(r, -m) for r, m in self.factors])

    def __pow__(self, n: int) -> "FactoredRational":
        if n < 0:
            return self.inverse() ** (-n)
        return FactoredRational(self.p, self._factored().lead**n, [(r, m * n) for r, m in self.factors])

    def __eq__(self, other: "FactoredRational") -> bool:
        """Equal functions with no extra have one factored form: lead times
        prod (z - root)^mult with the factors merged, sorted and nonzero."""
        f, g = self._factored(), other._factored()
        return f.p == g.p and f.lead == g.lead and f.factors == g.factors

    def derivative(self, order: int = 1) -> "FactoredRational":
        """The exact n-th derivative, n = ``order``, in closed form from the partial
        fractions f = P + sum c_(i,t) (z - y_i)^-t (``principal_parts``; P, the
        polynomial part, counts when deg f >= n):
            f^(n) = P^(n) + sum c_(i,t) (-1)^n t (t + 1) ... (t + n - 1) (z - y_i)^(-t-n).
        For y_i = c_i/D_i and l_i = D_i z - c_i, its numerator over prod l_i^(T_i + n),
        T_i the pole's order, is P^(n) prod l_i^(T_i + n) + sum_i S_i prod_(j != i)
        l_j^(T_j + n), S_i = sum_t c_(i,t) (-1)^n (t)_n D_i^(t + n) l_i^(T_i - t): binomial
        rows on ints over Z[pihat].  It keeps the poles of f, each zero of f of
        multiplicity m > n as (z - r)^(m - n), divided out, and z to its true order
        as factors, and the rest in the ints of a monic extra: the form n single
        derivatives print, each refactored over the roots left and 0.  f has no
        extra, so its factors give its roots' true multiplicities."""
        if order < 0:
            raise InvalidParameters("order must be >= 0")
        if order == 0 or self._factored().is_zero():
            return self
        f, n = self, order
        p, zero, parts = f.p, ScalarKHat.zero(f.p), principal_parts(f)
        whole = []
        if sum(m for _, m in f.factors) >= n:
            top, bottom = f.num_den()
            whole = [c * perm(j, n) for j, c in enumerate(poly.divmod(top, bottom, zero)[0]) if j >= n]
        real, pihat, scale = _common_denominator(whole + [c for _, cs in parts for c in cs])
        at = len(whole)
        num, below = (poly.trim(real[:at]), poly.trim(pihat[:at])), None  # below: the rows so far, None for 1
        for (y, cs), more in zip(parts, range(len(parts) - 1, -1, -1)):
            T, D, s, rising = len(cs), y.D, ((), ()), (-1) ** n * factorial(n)
            for t in range(1, T + 1):  # S by Horner's rule in l
                w = rising * D ** (t + n)
                term = poly.trim((real[at] * w,)), poly.trim((pihat[at] * w,))
                s = _zadd(_zmul(s, ((-y.A, D), poly.trim((-y.B,))), p), term) if t > 1 else term
                rising, at = rising * (t + n) // t, at + 1
            row = _binomial_row(y, T + n, p)
            num = _zadd(_zmul(num, row, p), _zmul(s, below, p) if below else s)
            below = (_zmul(below, row, p) if below else row) if more else below
            scale *= D ** (T + n)
        pairs = list(zip_longest(*num, fillvalue=0))
        if not pairs:
            return FactoredRational(p, zero)
        for r, m in f.factors:
            pairs, scale = _divide_out(pairs, r, m - n, scale, p) if m > n else (pairs, scale)
        low = next(i for i, (x, y) in enumerate(pairs) if x or y)
        kept = [(r, m - n) for r, m in f.factors if m < 0 or m > n] + [(zero, low)]
        g = gcd(*(c for pair in pairs for c in pair))
        lead, pairs = _make(p, *pairs[-1], scale), [(x // g, y // g) for x, y in pairs[low:]]
        A, B = pairs[-1]  # extra is pairs times the conjugate of A + B pihat over its norm, or over A
        cA, cB, norm = (1, 0, A) if not B else (A, -B, A * A - p * B * B)  # never 0: p is not a square
        cA, cB, norm = (cA, cB, norm) if norm > 0 else (-cA, -cB, -norm)
        real, pihat = [x * cA + p * y * cB for x, y in pairs], [x * cB + y * cA for x, y in pairs]
        return FactoredRational(p, lead, kept, (real, pihat, norm) if len(pairs) > 1 else None)


# -- tube valuations -----------------------------------------------------------------


def gauss_valuation(f: FactoredRational, v: tuple, k: int = 0) -> int:
    """Doubled valuation 2*omega, on the base-vertex tube, of the weight-k
    transport g.f = chi^k(g) (a + c z)^(-k) f((b + d z)/(a + c z)) by the
    inverse g of the transporter of the vertex of label v = (p, m, n, d), read
    from ints; at k = 0 that is the Gauss valuation of f on the tube of v.

    The Gauss valuation is multiplicative (Gauss's lemma), so it is read factor
    by factor.  For v = (m, b), g = (a b; c d) = [[p^m, 0], [b, 1]] / p^m, so
    chi^k(g) has doubled valuation -k m and min(omega(a), omega(c)) is
    min(0, 2 (v_p(b) - m)); a factor (z - y) becomes ((b - a y) + (d - c y) z)
    / (a + c z), with min(omega(d - c y), omega(y)) and d - c y = (1 - b y) /
    p^m; extra, of degree n, becomes sum e_i C^i z^i (L + O z)^(n - i) / L^n
    over (a + c z)^n for (L, O, C) from ``_level_and_offset``, whose
    coefficients Horner's rule in L + O z builds from ints
    (``triangular_apply``); and (a + c z)^(-k) gives -k min(omega(a), omega(c))."""
    if f.is_zero():
        raise ZeroFunction("the zero function has no Gauss valuation")
    p, m, n, d = v
    return next(_transported_valuations(f, k, p, [m], [n], [d], *_one_minus_by(f, p, [n], [d])))


def _one_minus_by(f: FactoredRational, p: int, nums: list, dens: list) -> tuple[list, list]:
    """v_p(b) of each offset b = nums[i]/dens[i] (None for b = 0), and for each
    factor (z - y) of f, in the order of f.factors, the row of omega(1 - b y)
    over the offsets.  With b = n/d = n/p^j and y = (A + B pihat)/D, that is
    min(0, omega(b y)) unless omega(b y) = 0, and only then read from the
    ints d D - n A - n B pihat.  For y = 0 the row is 0."""
    vbs = [(_vp(n, p) if d == 1 else -_vp(d, p)) if n else None for n, d in zip(nums, dens)]
    rows = []
    for y, _ in f.factors:
        A, B, D, t, twice_d = y.A, y.B, y.D, y.valuation(), 2 * _vp(y.D, p)
        rows.append([
            0 if vb is None or (s := 2 * vb + t) > 0 else s if s < 0
            else _twice_valuation(d * D - n * A, n * B, p) + 2 * min(vb, 0) - twice_d
            for n, d, vb in zip(nums, dens, vbs)
        ] if A or B else [0] * len(nums))
    return vbs, rows


def _transported_valuations(
    f: FactoredRational, k: int, p: int, levels: list, nums: list, dens: list, vbs: list, rows: list
) -> Iterator[int]:
    """``gauss_valuation`` at each vertex (m, b) = (levels[i], nums[i]/dens[i])
    in turn, read from the v_p(b) and omega(1 - b y) rows of ``_one_minus_by``
    there: a factor (z - y)^mult gives mult min(omega(1 - b y) - 2m, omega(y))."""
    extra, degree = f.extra, sum(mult for _, mult in f.factors) + (len(f.extra[0]) - 1 if f.extra else 0)
    lead, terms = f.lead.valuation(), [(mult, y.valuation(), row) for (y, mult), row in zip(f.factors, rows)]
    for i, (m, vb) in enumerate(zip(levels, vbs)):
        val = lead - k * m - (k + degree) * (2 * (vb - m) if vb is not None and vb < m else 0)
        for mult, t, row in terms:
            val += mult * min(row[i] - 2 * m, t)
        if extra:
            (a, b, den), (L, O, C) = extra, _level_and_offset(p, m, nums[i], dens[i])
            if O:
                coeffs = zip(triangular_apply(L, O, C, a), triangular_apply(L, O, C, b) if any(b) else repeat(0))
                val += min(_twice_valuation(x, y, p) for x, y in coeffs) - 2 * (_vp(den, p) + (len(a) - 1) * _vp(L, p))
            else:  # b = 0: e_i sits at z^i times L^(n - i) C^i
                step = 2 * (_vp(C, p) - _vp(L, p))
                val += min(_twice_valuation(x, y, p) + step * j for j, (x, y) in enumerate(zip(a, b))) - 2 * _vp(den, p)
        yield val


def tube_coordinate_level(v: tuple) -> int:
    """Signed scale of the tube of v: differentiating a section once shifts its
    Gauss valuation on that tube by at least this amount.

    This is the negative base-circle valuation of the derivative of the
    coordinate pulled back through the vertex transporter: the derivative is
    p^m / (p^m + b z)^2, so v = (m, b) gives 2 min(m, val(b)) - m, and m when
    b = 0.  On the diagonal axis this is the level of the vertex; off the axis
    the tube is a small disc around b and the value is below the level.
    """
    p, m, n, d = v
    return 2 * min(m, _vp(n, p) - _vp(d, p)) - m if n else m


# -- principal parts ----------------------------------------------------------------


def principal_parts(f: FactoredRational) -> list[tuple[ScalarKHat, list]]:
    """For each pole y of f, of order r, the coefficients [A_1, ..., A_r] of
    (z - y)^-1, ..., (z - y)^-r in the expansion of f around y, in the order
    of f.factors; f has no extra, so A_r is not 0.

    f (z - y)^r at z = y + u is lead times, for each other factor (z - x)^m,
    c^m (1 + u/c)^m with c = y - x, whose binomial series has
    [u^(t+1)] = [u^t] (m - t) / ((t + 1) c); all are read below u^r."""
    zero = ScalarKHat.zero(f.p)
    out = []
    for y, r in f._factored().denominator_roots():
        series = (f.lead,)
        for x, m in f.factors:
            if x is not y:
                c = y - x
                if r == 1:  # the value at y alone
                    series = (series[0] * c**m,)
                    continue
                inv = c.inverse()
                term = [inv**-m if m < 0 else c**m]
                for t in range(r - 1):
                    term.append(term[-1] * inv * _make(f.p, m - t, 0, t + 1))
                series = poly.mul(series, term, zero)[:r]
        series = series + (zero,) * (r - len(series))
        out.append((y, [series[r - t] for t in range(1, r + 1)]))
    return out


# -- parsing ------------------------------------------------------------------------


_TOKEN = re.compile(
    r"""
    (?P<pihat>pihat(\^(?P<pe>-?\d+))?) |
    (?P<prime>p(\^(?P<ppe>-?\d+))?) |
    (?P<zpow>z(\^(?P<ze>-?\d+))?) |
    (?P<paren>\(z(?P<inner>[^)]*)\)(\^(?P<fe>-?\d+))?) |
    (?P<rat>-?\d+(/\d+)?)
    """,
    re.VERBOSE,
)

_INNER_TERM = re.compile(
    r"(?P<sign>[+-])"
    r"(?:(?P<coef>\d+(?:/\d+)?|p(?!ihat)(?:\^(?P<cpe>-?\d+))?)\*?)?"
    r"(?P<pihat>pihat(?:\^(?P<tpe>-?\d+))?)?"
)


def _literal(text: str) -> Fraction:
    """A rational literal such as '3' or '1/2'; a zero denominator is bad input."""
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise InvalidParameters(f"zero denominator in {text!r}") from None
    except ValueError:  # more digits than int() converts
        raise InvalidParameters(f"a literal of {len(text)} characters is too long") from None


def _parse_root(inner: str, p: int) -> ScalarKHat:
    """Parse the '- root' tail inside '(z ... )' and return the root."""
    total = ScalarKHat.zero(p)
    pos = 0
    inner = inner.replace(" ", "")
    while pos < len(inner):
        m = _INNER_TERM.match(inner, pos)
        sign, raw_coef, cpe, pihat, tpe = m.group("sign", "coef", "cpe", "pihat", "tpe") if m else (None,) * 5
        if raw_coef is None and pihat is None:
            raise InvalidParameters(f"cannot parse factor tail {inner!r}")
        if raw_coef is None:
            coef = Fraction(1)
        elif raw_coef.startswith("p"):
            coef = Fraction(p) ** int(cpe or 1)
        else:
            coef = _literal(raw_coef)
        coef = coef if sign == "-" else -coef  # inner holds z - root: the root is the tail negated
        total = total + (ScalarKHat.pihat(p, int(tpe or 1)) * coef if pihat else ScalarKHat.from_rational(coef, p))
        pos = m.end()
    return total


def parse_rational(text: str, p: int) -> FactoredRational:
    """Parse expressions like '3*(z-1)^2*(z-1/2)^-1', 'pihat*z^-1', '1/z',
    '(z-p)/z'. Factors are separated by * or /; roots may use pihat terms.
    The scalar tokens multiply into one lead and the z-factors are collected
    as (root, exponent) pairs, so one section is built at the end."""
    expr = text.replace(" ", "")
    if not expr:
        raise InvalidParameters("empty expression")
    lead = ScalarKHat.one(p)
    factors = []
    pos = 0
    op = "*"
    while pos < len(expr):
        if expr[pos] in "*/":
            op = expr[pos]
            pos += 1
            continue
        m = _TOKEN.match(expr, pos)
        if not m:
            raise InvalidParameters(f"cannot parse {text!r} at position {pos}")
        sign, kind = 1 if op == "*" else -1, m.lastgroup  # the token's outermost group
        if kind == "pihat":
            lead = lead * ScalarKHat.pihat(p, sign * int(m.group("pe") or 1))
        elif kind == "prime":
            lead = lead * ScalarKHat.from_rational(Fraction(p) ** (sign * int(m.group("ppe") or 1)), p)
        elif kind == "zpow":
            factors.append((ScalarKHat.zero(p), sign * int(m.group("ze") or 1)))
        elif kind == "paren":
            factors.append((_parse_root(m.group("inner"), p), sign * int(m.group("fe") or 1)))
        else:
            value = _literal(m.group("rat"))
            if sign < 0 and not value:
                raise InvalidParameters(f"division by zero in {text!r}")
            lead = lead * ScalarKHat.from_rational(value if sign > 0 else 1 / value, p)
        pos = m.end()
    return FactoredRational(p, lead, factors)
