"""Exact rational functions of one variable over the ramified quadratic
extension, in factored form, together with their tube valuations (also under
the weighted group action on sections) and principal parts at the poles.

A function is lead * extra(z) * prod (z - root)^mult with extra a monic
polynomial kept for parts that do not factor over the base field
(derivatives); the denominator always stays inside the explicit factors.
Its operations are those the commands run: products, powers, the inverse,
exact equality and derivatives; a function is not hashable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Iterator

from . import poly
from .errors import InvalidParameters, ZeroFunction
from .scalars import ScalarKHat, _common_denominator, _make, _twice_valuation, _vp
from .symrep import triangular_apply
from .tree import _level_and_offset

# -- polynomials over Z[pihat] ------------------------------------------------------
# A pair (a, b) of int polynomials stands for a + b pihat, with pihat^2 = p.


def _zadd(u: tuple, v: tuple) -> tuple:
    if not u[1] and not v[1]:
        return poly.add(u[0], v[0]), ()
    return poly.add(u[0], v[0]), poly.add(u[1], v[1])


def _zscale(u: tuple, s: int) -> tuple:
    return poly.scale(u[0], s), poly.scale(u[1], s) if u[1] else ()


def _zmul(u: tuple, v: tuple, p: int) -> tuple:
    (a, b), (c, d) = u, v
    if not b and not d:
        return poly.mul(a, c, 0), ()
    return (
        poly.add(poly.mul(a, c, 0), poly.scale(poly.mul(b, d, 0), p)),
        poly.add(poly.mul(a, d, 0), poly.mul(b, c, 0)),
    )


def _zderivative(u: tuple) -> tuple:
    return poly.derivative(u[0], 1), poly.derivative(u[1], 1) if u[1] else ()


# -- factored rational functions --------------------------------------------------


def _root_key(x: ScalarKHat) -> tuple:
    return (x.a, x.b)


class FactoredRational:
    """lead * extra(z) * prod (z - root)^mult, extra monic; 0 has lead 0."""

    __slots__ = ("p", "lead", "factors", "extra")

    def __init__(
        self,
        p: int,
        lead: ScalarKHat,
        factors: Iterable[tuple[ScalarKHat, int]] = (),
        extra: poly.Poly = None,
    ) -> None:
        self.p = p
        if extra is None:
            extra = (ScalarKHat.one(p),)
        extra = poly.trim(tuple(extra))
        if lead.is_zero() or not extra:
            self.lead = ScalarKHat.zero(p)
            self.factors = ()
            self.extra = (ScalarKHat.one(p),)
            return
        merged: dict[tuple, list] = {}  # by the ints of each root, which equal roots share
        for root, mult in factors:
            key = root.A, root.B, root.D
            if key in merged:
                merged[key][1] += mult
            else:
                merged[key] = [root, mult]
        top = extra[-1]
        if (top.A, top.B, top.D) != (1, 0, 1):  # scalars are reduced: only 1 is (1, 0, 1)
            lead = lead * top
            extra = poly.scale(extra, top.inverse())
        self.lead = lead
        self.factors = tuple(
            (root, mult)
            for root, mult in sorted(merged.values(), key=lambda e: _root_key(e[0]))
            if mult != 0
        )
        self.extra = extra

    # -- structure ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.lead.is_zero()

    def num_den(self) -> tuple[poly.Poly, poly.Poly]:
        """Expanded (numerator, denominator); denominator monic."""
        zero, one = ScalarKHat.zero(self.p), ScalarKHat.one(self.p)
        num = poly.scale(self.extra, self.lead)
        den: poly.Poly = (one,)
        for root, mult in self.factors:
            lin = (-root, one)
            if mult > 0:
                num = poly.mul(num, poly.power(lin, mult, zero, one), zero)
            else:
                den = poly.mul(den, poly.power(lin, -mult, zero, one), zero)
        return num, den

    def denominator_roots(self) -> list[tuple[ScalarKHat, int]]:
        return [(r, -m) for r, m in self.factors if m < 0]

    def _refactored(self) -> "FactoredRational":
        """Pull candidate linear factors (known roots and 0) out of extra."""
        if self.is_zero() or len(self.extra) <= 1:
            return self
        extra = self.extra
        factors = {_root_key(r): [r, m] for r, m in self.factors}
        zero = ScalarKHat.zero(self.p)
        by_key = {_root_key(r): r for r, _ in self.factors} | {_root_key(zero): zero}
        candidates = [by_key[key] for key in sorted(by_key)]
        for root in candidates:
            lin = (-root, ScalarKHat.one(self.p))
            while len(extra) > 1:
                q, r = poly.divmod(extra, lin, zero)
                if r:
                    break
                extra = q
                key = _root_key(root)
                if key in factors:
                    factors[key][1] += 1
                else:
                    factors[key] = [root, 1]
        return FactoredRational(
            self.p, self.lead, [(r, m) for r, m in factors.values()], extra
        )

    # -- ring operations ------------------------------------------------------------

    def __mul__(self, other: "FactoredRational | ScalarKHat") -> "FactoredRational":
        if isinstance(other, ScalarKHat):
            return FactoredRational(self.p, self.lead * other, self.factors, self.extra)
        return FactoredRational(
            self.p,
            self.lead * other.lead,
            list(self.factors) + list(other.factors),
            poly.mul(self.extra, other.extra, ScalarKHat.zero(self.p)),
        )

    __rmul__ = __mul__

    def inverse(self) -> "FactoredRational":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        if len(self.extra) > 1:
            raise InvalidParameters("cannot invert an unfactored polynomial part")
        return FactoredRational(
            self.p, self.lead.inverse(), [(r, -m) for r, m in self.factors]
        )

    def __pow__(self, n: int) -> "FactoredRational":
        if n < 0:
            return self.inverse() ** (-n)
        zero, one = ScalarKHat.zero(self.p), ScalarKHat.one(self.p)
        return FactoredRational(
            self.p,
            self.lead**n,
            [(r, m * n) for r, m in self.factors],
            poly.power(self.extra, n, zero, one),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactoredRational):
            return NotImplemented
        n1, d1 = self.num_den()
        n2, d2 = other.num_den()
        zero = ScalarKHat.zero(self.p)
        return poly.mul(n1, d2, zero) == poly.mul(n2, d1, zero)

    def derivative(self, order: int = 1) -> "FactoredRational":
        """The exact n-th derivative, n = ``order``, in one pass over int
        coefficient tuples.

        Write f = lead * E * prod (z - r_i)^m_i.  While the set S of roots
        still in f^(j) (the poles, and the zeros with m_i > j) stays the same,
        f^(j) = lead * Q_j * prod_S (z - r_i)^(m_i - j) with Q_0 = E and
        Q_(j+1) = Q_j' L + Q_j (A - j L'), where L = prod_S (z - r_i) and
        A = sum_S m_i L / (z - r_i); a zero leaves S at the step where its
        exponent reaches 0.  So the image keeps as explicit factors every pole
        of f, every zero of f of multiplicity above n, and z to its true
        order, and every other zero of f^(n) stays in extra.  This is the form
        that n single derivatives print, each refactored over the roots left
        and 0, so f.derivative(n) and f.derivative(n - 1).derivative() print
        alike.  At n >= 1 an extra that one of f's roots or 0 divides is
        refactored first, so the rule reads the roots' true multiplicities.

        The recurrence runs on D L, D A and c Q_j over Z[pihat], for D the
        product of the denominators D_i of the roots in S and c the common
        denominator so far, with no gcd until the image is built."""
        if order < 0:
            raise InvalidParameters("order must be >= 0")
        if order == 0 or self.is_zero():
            return self
        f = self._refactored()
        p = f.p
        real, pihat, scale = _common_denominator(f.extra)
        q = (poly.trim(real), poly.trim(pihat))
        # S changes only where a zero's exponent reaches 0
        cuts = sorted({m for _, m in f.factors if 0 < m < order} | {0, order})
        for start, stop in zip(cuts, cuts[1:]):
            ell, weighted, denominator = ((1,), ()), ((), ()), 1
            for r, m in f.factors:
                if m < 0 or m > start:
                    lin = ((-r.A, r.D), poly.trim((-r.B,)))
                    weighted = _zadd(_zmul(weighted, lin, p), _zscale(ell, m * r.D))
                    ell = _zmul(ell, lin, p)
                    denominator *= r.D
            neg_ell_prime = _zscale(_zderivative(ell), -1)
            bracket = _zadd(weighted, _zscale(neg_ell_prime, start))
            for _ in range(start, stop):
                q = _zadd(_zmul(_zderivative(q), ell, p), _zmul(q, bracket, p))
                bracket = _zadd(bracket, neg_ell_prime)
            scale *= denominator ** (stop - start)
        coeffs = [_make(p, a, b, 1) for a, b in zip_longest(*q, fillvalue=0)]
        low = next((i for i, c in enumerate(coeffs) if c), 0)
        kept = [(r, m - order) for r, m in f.factors if m < 0 or m > order]
        kept.append((ScalarKHat.zero(p), low))
        return FactoredRational(p, f.lead / scale, kept, coeffs[low:])


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
    lead, degree = f.lead.valuation(), len(f.extra) - 1 + sum(mult for _, mult in f.factors)
    terms = [(mult, y.valuation(), row) for (y, mult), row in zip(f.factors, rows)]
    extra = _common_denominator(f.extra) if len(f.extra) > 1 else None
    for i, (m, vb) in enumerate(zip(levels, vbs)):
        val = lead - k * m - (k + degree) * (2 * (vb - m) if vb is not None and vb < m else 0)
        for mult, t, row in terms:
            val += mult * min(row[i] - 2 * m, t)
        if extra:
            (a, b, den), (L, O, C) = extra, _level_and_offset(p, m, nums[i], dens[i])
            coeffs = zip(triangular_apply(L, O, C, a), triangular_apply(L, O, C, b))
            val += min(_twice_valuation(x, y, p) for x, y in coeffs) - 2 * (_vp(den, p) + (len(a) - 1) * _vp(L, p))
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
    of f.factors.  The order is the one f.factors states: when extra vanishes
    at y the leading coefficients are zero, and all of them are when y is no
    pole at all.

    f (z - y)^r at z = y + u is lead extra(y + u) times, for each other factor
    (z - x)^m, c^m (1 + u/c)^m with c = y - x, whose binomial series has
    [u^(t+1)] = [u^t] (m - t) / ((t + 1) c); all are read below u^r."""
    zero = ScalarKHat.zero(f.p)
    out = []
    for y, r in f.denominator_roots():
        series = poly.scale(poly.shift(f.extra, y, r), f.lead) if len(f.extra) > 1 else (f.lead,)
        for x, m in f.factors:
            if x is not y:
                c = y - x
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
        if not m or (m.group("coef") is None and m.group("pihat") is None):
            raise InvalidParameters(f"cannot parse factor tail {inner!r}")
        sign = -1 if m.group("sign") == "-" else 1
        raw_coef = m.group("coef")
        if raw_coef is None:
            coef = Fraction(1)
        elif raw_coef.startswith("p"):
            coef = Fraction(p) ** int(m.group("cpe") or 1)
        else:
            coef = _literal(raw_coef)
        coef *= sign
        if m.group("pihat"):
            term = ScalarKHat.pihat(p, int(m.group("tpe") or 1)) * coef
        else:
            term = ScalarKHat.from_rational(coef, p)
        total = total + term
        pos = m.end()
    # inner holds z - root, so the root is the negated tail
    return -total


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
        sign = 1 if op == "*" else -1
        if m.group("pihat"):
            lead = lead * ScalarKHat.pihat(p, sign * int(m.group("pe") or 1))
        elif m.group("prime"):
            lead = lead * ScalarKHat.from_rational(Fraction(p) ** (sign * int(m.group("ppe") or 1)), p)
        elif m.group("zpow"):
            factors.append((ScalarKHat.zero(p), sign * int(m.group("ze") or 1)))
        elif m.group("paren"):
            factors.append((_parse_root(m.group("inner"), p), sign * int(m.group("fe") or 1)))
        else:
            value = _literal(m.group("rat"))
            if sign < 0 and not value:
                raise InvalidParameters(f"division by zero in {text!r}")
            lead = lead * ScalarKHat.from_rational(value if sign > 0 else 1 / value, p)
        pos = m.end()
    return FactoredRational(p, lead, factors)
