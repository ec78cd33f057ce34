"""Exact rational functions of one variable over the ramified quadratic
extension, in factored form, together with the Möbius pullbacks, the weighted
group action on sections, tube valuations, and Laurent expansions on the
standard annulus between the base vertex and its parent.

A function is lead * extra(z) * prod (z - root)^mult with extra a monic
polynomial kept for parts that do not factor over the base field (sums,
derivatives); the denominator always stays inside the explicit factors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .errors import (
    InternalInvariantError,
    InvalidParameters,
    PoleInsideAnnulus,
    ZeroFunction,
)
from .scalars import INF, ScalarKHat
from .symrep import chi
from .tree import Mat2, Vertex, vertex_transporter

Poly = tuple  # tuple[ScalarKHat, ...], little-endian, no trailing zeros; () is 0


# -- dense polynomial helpers ---------------------------------------------------


def poly_trim(coeffs: Sequence[ScalarKHat]) -> Poly:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1].is_zero():
        n -= 1
    return tuple(coeffs[:n])


def poly_add(u: Poly, v: Poly) -> Poly:
    if len(u) < len(v):
        u, v = v, u
    out = list(u)
    for i, x in enumerate(v):
        out[i] = out[i] + x
    return poly_trim(out)


def poly_scale(u: Poly, s: ScalarKHat) -> Poly:
    return poly_trim([x * s for x in u])


def poly_mul(u: Poly, v: Poly) -> Poly:
    if not u or not v:
        return ()
    p = u[0].p
    out = [ScalarKHat.zero(p)] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] = out[i + j] + x * y
    return poly_trim(out)


def poly_pow(u: Poly, n: int) -> Poly:
    if n < 0:
        raise InvalidParameters("negative polynomial power")
    if not u:
        return () if n > 0 else u
    out: Poly = (ScalarKHat.one(u[0].p),)
    for _ in range(n):
        out = poly_mul(out, u)
    return out


def poly_eval(u: Poly, z0: ScalarKHat) -> ScalarKHat:
    acc = ScalarKHat.zero(z0.p)
    for c in reversed(u):
        acc = acc * z0 + c
    return acc


def poly_deriv(u: Poly) -> Poly:
    return poly_trim([c * i for i, c in enumerate(u)][1:])


def poly_divmod(u: Poly, v: Poly) -> tuple[Poly, Poly]:
    if not v:
        raise ZeroDivisionError("polynomial division by zero")
    p = v[0].p
    q = [ScalarKHat.zero(p)] * max(0, len(u) - len(v) + 1)
    r = list(u)
    inv_lead = v[-1].inverse()
    while len(r) >= len(v) and poly_trim(r):
        r = list(poly_trim(r))
        if len(r) < len(v):
            break
        shift = len(r) - len(v)
        c = r[-1] * inv_lead
        q[shift] = q[shift] + c
        for i, vi in enumerate(v):
            r[shift + i] = r[shift + i] - c * vi
    return poly_trim(q), poly_trim(r)


def poly_shift(u: Poly, x0: ScalarKHat, upto: int) -> Poly:
    """Coefficients of u(x0 + w) in w, truncated below degree `upto`."""
    p = x0.p
    out = [ScalarKHat.zero(p)] * upto
    basis: Poly = (ScalarKHat.one(p),)
    step = (x0, ScalarKHat.one(p))  # x0 + w
    for c in u:
        for i, bcoef in enumerate(basis[:upto]):
            out[i] = out[i] + c * bcoef
        basis = poly_mul(basis, step)[: upto + 1]
    return tuple(out)


def poly_series_inverse(u: Sequence[ScalarKHat], upto: int) -> Poly:
    """Multiplicative inverse of a power series with invertible constant term,
    truncated below degree `upto`."""
    p = u[0].p
    inv0 = u[0].inverse()
    out = [ScalarKHat.zero(p)] * upto
    out[0] = inv0
    for n in range(1, upto):
        acc = ScalarKHat.zero(p)
        for i in range(1, min(n, len(u) - 1) + 1):
            acc = acc + u[i] * out[n - i]
        out[n] = -inv0 * acc
    return tuple(out)


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
        extra: Poly = None,
    ) -> None:
        self.p = p
        if extra is None:
            extra = (ScalarKHat.one(p),)
        extra = poly_trim(tuple(extra))
        if lead.is_zero() or not extra:
            self.lead = ScalarKHat.zero(p)
            self.factors = ()
            self.extra = (ScalarKHat.one(p),)
            return
        merged: dict[tuple, list] = {}
        for root, mult in factors:
            key = _root_key(root)
            if key in merged:
                merged[key][1] += mult
            else:
                merged[key] = [root, mult]
        top = extra[-1]
        if not (top - ScalarKHat.one(p)).is_zero():
            lead = lead * top
            extra = poly_scale(extra, top.inverse())
        self.lead = lead
        self.factors = tuple(
            (root, mult)
            for _, (root, mult) in sorted(merged.items())
            if mult != 0
        )
        self.extra = extra

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def zero(p: int) -> "FactoredRational":
        return FactoredRational(p, ScalarKHat.zero(p))

    @staticmethod
    def one(p: int) -> "FactoredRational":
        return FactoredRational(p, ScalarKHat.one(p))

    @staticmethod
    def constant(s: ScalarKHat) -> "FactoredRational":
        return FactoredRational(s.p, s)

    @staticmethod
    def z(p: int) -> "FactoredRational":
        return FactoredRational(p, ScalarKHat.one(p), [(ScalarKHat.zero(p), 1)])

    @staticmethod
    def monomial(p: int, exponent: int, coeff: ScalarKHat | None = None) -> "FactoredRational":
        c = coeff if coeff is not None else ScalarKHat.one(p)
        return FactoredRational(p, c, [(ScalarKHat.zero(p), exponent)])

    @staticmethod
    def from_poly(p: int, coeffs: Sequence[ScalarKHat]) -> "FactoredRational":
        t = poly_trim(tuple(coeffs))
        if not t:
            return FactoredRational.zero(p)
        return FactoredRational(p, ScalarKHat.one(p), (), t)._refactored()

    # -- structure ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.lead.is_zero()

    def num_den(self) -> tuple[Poly, Poly]:
        """Expanded (numerator, denominator); denominator monic."""
        one = (ScalarKHat.one(self.p),)
        num = poly_scale(self.extra, self.lead)
        den: Poly = one
        for root, mult in self.factors:
            lin = (-root, ScalarKHat.one(self.p))
            if mult > 0:
                num = poly_mul(num, poly_pow(lin, mult))
            else:
                den = poly_mul(den, poly_pow(lin, -mult))
        return num, den

    def degree(self) -> int:
        num, den = self.num_den()
        return (len(num) - 1) - (len(den) - 1)

    def denominator_roots(self) -> list[tuple[ScalarKHat, int]]:
        return [(r, -m) for r, m in self.factors if m < 0]

    def evaluate(self, z0: ScalarKHat) -> ScalarKHat:
        acc = self.lead * poly_eval(self.extra, z0)
        for root, mult in self.factors:
            base = z0 - root
            if base.is_zero():
                if mult < 0:
                    raise ZeroDivisionError(f"pole at {z0}")
                if mult > 0:
                    return ScalarKHat.zero(self.p)
                continue
            acc = acc * base**mult
        return acc

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
                q, r = poly_divmod(extra, lin)
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
            poly_mul(self.extra, other.extra),
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

    def __truediv__(self, other: "FactoredRational") -> "FactoredRational":
        return self * other.inverse()

    def __pow__(self, n: int) -> "FactoredRational":
        if n < 0 and len(self.extra) > 1:
            raise InvalidParameters("cannot invert an unfactored polynomial part")
        if n < 0:
            return self.inverse() ** (-n)
        out = FactoredRational.one(self.p)
        for _ in range(n):
            out = out * self
        return out

    def __neg__(self) -> "FactoredRational":
        return FactoredRational(self.p, -self.lead, self.factors, self.extra)

    def __add__(self, other: "FactoredRational") -> "FactoredRational":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        n1, d1 = self.num_den()
        n2, d2 = other.num_den()
        num = poly_add(poly_mul(n1, d2), poly_mul(n2, d1))
        den_factors = [(r, -m) for r, m in self.denominator_roots()] + [
            (r, -m) for r, m in other.denominator_roots()
        ]
        return FactoredRational(
            self.p, ScalarKHat.one(self.p), den_factors, num
        )._refactored()

    def __sub__(self, other: "FactoredRational") -> "FactoredRational":
        return self + (-other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactoredRational):
            return NotImplemented
        n1, d1 = self.num_den()
        n2, d2 = other.num_den()
        return poly_mul(n1, d2) == poly_mul(n2, d1)

    def __hash__(self) -> int:  # pragma: no cover
        raise TypeError("FactoredRational is unhashable")

    def derivative(self, order: int = 1) -> "FactoredRational":
        """Exact derivative; factors extracted back out where roots are known."""
        if order < 0:
            raise InvalidParameters("order must be >= 0")
        out = self
        for _ in range(order):
            out = out._derivative_once()
        return out

    def _derivative_once(self) -> "FactoredRational":
        if self.is_zero():
            return self
        one = ScalarKHat.one(self.p)
        lins = [(-r, one) for r, _ in self.factors]
        prod_all: Poly = (one,)
        for lin in lins:
            prod_all = poly_mul(prod_all, lin)
        bracket = poly_mul(poly_deriv(self.extra), prod_all)
        for i, (root, mult) in enumerate(self.factors):
            partial: Poly = (one,)
            for j, lin in enumerate(lins):
                if j != i:
                    partial = poly_mul(partial, lin)
            term = poly_scale(poly_mul(self.extra, partial), ScalarKHat.from_rational(mult, self.p))
            bracket = poly_add(bracket, term)
        reduced = [(r, m - 1) for r, m in self.factors]
        return FactoredRational(self.p, self.lead, reduced, bracket)._refactored()

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = [repr(self.lead)]
        if len(self.extra) > 1:
            parts.append(f"poly{self.extra}")
        for root, mult in self.factors:
            parts.append(f"(z-{root!r})^{mult}")
        return "*".join(parts)


# -- Möbius pullback and the weighted action ---------------------------------------


def derivative(f: FactoredRational, order: int = 1) -> FactoredRational:
    """Function form of FactoredRational.derivative."""
    return f.derivative(order)


def compose_mobius(f: FactoredRational, mat: Mat2, p: int) -> FactoredRational:
    """f((a z + b)/(c z + d)) for the literal matrix entries of mat."""
    if f.is_zero():
        return f
    lift = lambda x: ScalarKHat.from_rational(x, p)
    A, B, C, D = lift(mat.a), lift(mat.b), lift(mat.c), lift(mat.d)
    one = ScalarKHat.one(p)
    lead = f.lead
    factors: list[tuple[ScalarKHat, int]] = []
    denom_exp = 0  # accumulated power of (C z + D)
    for root, mult in f.factors:
        top_lin = A - root * C
        top_const = B - root * D
        if not top_lin.is_zero():
            lead = lead * top_lin**mult
            factors.append(((root * D - B) / top_lin, mult))
        else:
            lead = lead * top_const**mult
        denom_exp -= mult
    extra = f.extra
    n = len(extra) - 1
    if n > 0:
        az_b = (B, A)
        cz_d = (D, C)
        acc: Poly = ()
        for i, coeff in enumerate(extra):
            term = poly_scale(poly_mul(poly_pow(az_b, i), poly_pow(cz_d, n - i)), coeff)
            acc = poly_add(acc, term)
        extra = acc
        denom_exp -= n
    if denom_exp != 0:
        if not C.is_zero():
            lead = lead * C**denom_exp
            factors.append((-D / C, denom_exp))
        else:
            lead = lead * D**denom_exp
    return FactoredRational(p, lead, factors, extra)._refactored()


def automorphic_act(g: Mat2, f: FactoredRational, k: int) -> FactoredRational:
    """Weight-k action: chi^k(g) * (a + c z)^{-k} * f((b + d z)/(a + c z)).

    This is a left action: acting by g1 then by g2 equals acting by g2 g1.
    """
    p = f.p
    if f.is_zero():
        return f
    pulled = compose_mobius(f, Mat2(g.d, g.b, g.c, g.a), p)
    scalar = chi(g, p, k)
    lift = lambda x: ScalarKHat.from_rational(x, p)
    if k != 0:
        if g.c != 0:
            c = lift(g.c)
            pulled = pulled * FactoredRational(
                p, c ** (-k), [(-lift(g.a) / c, -k)]
            )
        else:
            scalar = scalar * lift(g.a) ** (-k)
    return pulled * scalar


# -- tube valuations -----------------------------------------------------------------


def raw_gauss_valuation(f: FactoredRational) -> Fraction | float:
    """Valuation of f on the unit circle of the coordinate (base-vertex tube):
    omega(lead) + sum mult*min(0, omega(root)) + min over extra coefficients."""
    if f.is_zero():
        return INF
    total = f.lead.valuation()
    for root, mult in f.factors:
        total += mult * min(Fraction(0), root.valuation())
    total += min(c.valuation() for c in f.extra)
    return total


def gauss_valuation(f: FactoredRational, v: Vertex) -> Fraction | float:
    """Valuation of f on the tube of vertex v (weight-0 transport, then the
    base-circle valuation)."""
    if f.is_zero():
        raise ZeroFunction("the zero function has no Gauss valuation")
    moved = automorphic_act(vertex_transporter(v).inv(), f, 0)
    return raw_gauss_valuation(moved)


def tube_coordinate_level(v: Vertex) -> int:
    """Signed scale of the tube of v: differentiating a section once shifts its
    Gauss valuation on that tube by at least this amount.

    Computed as the negative base-circle valuation of the derivative of the
    coordinate function pulled back through the vertex transporter.  On the
    diagonal axis this equals the level of the vertex; off the axis the tube
    can sit at a smaller scale than the level (e.g. it may be a small disc
    around a rational point), making the value strictly less than the level.
    """
    coord = FactoredRational(
        v.p, ScalarKHat.one(v.p), [(ScalarKHat.zero(v.p), 1)]
    )
    moved = automorphic_act(vertex_transporter(v).inv(), coord, 0)
    scale = -raw_gauss_valuation(moved.derivative())
    if scale != int(scale):
        raise InternalInvariantError(
            f"non-integral tube scale {scale} at {v}"
        )
    return int(scale)


def gauss_sample_audit(
    f: FactoredRational, v: Vertex, rng, trials: int = 20
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
        if root.valuation() == 0:
            r = root.reduce_mod_pihat()
            circle_residues.add(r)
            if mult < 0:
                pole_residues.add(r)
    extra_blocks = set()
    if moved.extra and len(moved.extra) > 1:
        # residues where the reduced polynomial part drops below its generic
        # valuation: roots of (extra / p^min_val) mod pihat
        shift = min(c.valuation() for c in moved.extra)
        for r in unit_residues:
            total = ScalarKHat.zero(p)
            zr = ScalarKHat.from_rational(r, p)
            for j, c in enumerate(moved.extra):
                total = total + c * zr**j
            if total.valuation() > shift:
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
        sampled.append(moved.evaluate(z_std).valuation())
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


# -- Laurent expansion on the standard annulus ----------------------------------------


@dataclass
class LaurentWindow:
    """Exact Laurent coefficients of a rational function on the annulus between
    the base vertex and its parent (coordinate valuation strictly between 0 and
    1), within [lo, hi], plus affine tail certificates outside the window.

    Each (alpha, beta) pair guarantees every coefficient contribution on that
    side has valuation >= alpha + beta*j; below-window slopes are <= -1 and
    above-window slopes are >= 0, so endpoint checks settle ray comparisons.
    """

    p: int
    lo: int
    hi: int
    coeffs: dict[int, ScalarKHat]
    below: list[tuple[Fraction, Fraction]]
    above: list[tuple[Fraction, Fraction]]

    def coefficient(self, j: int) -> ScalarKHat:
        if not self.lo <= j <= self.hi:
            raise InvalidParameters(f"index {j} outside window [{self.lo}, {self.hi}]")
        return self.coeffs.get(j, ScalarKHat.zero(self.p))

    def lower_bound(self, j: int) -> Fraction | float:
        if self.lo <= j <= self.hi:
            return self.coefficient(j).valuation()
        side = self.below if j < self.lo else self.above
        if not side:
            return INF
        return min(alpha + beta * j for alpha, beta in side)


def laurent_standard(
    f: FactoredRational, lo: int, hi: int
) -> LaurentWindow:
    """Laurent data of f on the standard annulus. Poles with coordinate
    valuation >= 1 expand inward (negative side), <= 0 outward (nonnegative
    side); a pole strictly inside the open annulus admits no expansion."""
    p = f.p
    zero = ScalarKHat.zero(p)
    if f.is_zero():
        return LaurentWindow(p, lo, hi, {}, [], [])
    num, den = f.num_den()
    den_roots = f.denominator_roots()
    w_lo = min(lo, -sum(m for _, m in den_roots) - 1)
    w_hi = max(hi, max(0, len(num) - len(den)) + 1)
    coeffs: dict[int, ScalarKHat] = {}
    below: list[tuple[Fraction, Fraction]] = []
    above: list[tuple[Fraction, Fraction]] = []

    quotient, remainder = poly_divmod(num, den)
    for j, c in enumerate(quotient):
        if w_lo <= j <= w_hi and not c.is_zero():
            coeffs[j] = coeffs.get(j, zero) + c

    for root, r in den_roots:
        others = (ScalarKHat.one(p),)
        for other_root, other_r in den_roots:
            if _root_key(other_root) != _root_key(root):
                others = poly_mul(
                    others, poly_pow((-other_root, ScalarKHat.one(p)), other_r)
                )
        num_shift = poly_shift(remainder, root, r)
        den_shift = poly_shift(others, root, r)
        series = poly_mul(num_shift, poly_series_inverse(den_shift, r))[:r]
        series = tuple(series) + (zero,) * (r - len(series))
        principal = {t: series[r - t] for t in range(1, r + 1)}  # coeff of (z-root)^-t

        if root.is_zero():
            for t, a in principal.items():
                if w_lo <= -t <= w_hi and not a.is_zero():
                    coeffs[-t] = coeffs.get(-t, zero) + a
            continue
        w = root.valuation()
        if 0 < w < 1:
            raise PoleInsideAnnulus(
                f"pole at {root} with valuation {w} sits inside the annulus"
            )
        if w >= 1:
            # (z-x)^-t = sum_{s>=t} C(s-1,t-1) x^(s-t) z^(-s)
            for t, a in principal.items():
                if a.is_zero():
                    continue
                for s in range(t, -w_lo + 1):
                    j = -s
                    if j > w_hi:
                        continue
                    term = a * comb(s - 1, t - 1) * root ** (s - t)
                    coeffs[j] = coeffs.get(j, zero) + term
                below.append((a.valuation() - t * w, -w))
        else:
            # (z-x)^-t = (-1)^t x^-t sum_{i>=0} C(t-1+i, i) (z/x)^i
            for t, a in principal.items():
                if a.is_zero():
                    continue
                inv_pow = root ** (-t)
                sign = -ScalarKHat.one(p) if t % 2 else ScalarKHat.one(p)
                for j in range(max(0, w_lo), w_hi + 1):
                    term = sign * a * comb(t - 1 + j, j) * inv_pow * root ** (-j)
                    coeffs[j] = coeffs.get(j, zero) + term
                above.append((a.valuation() - t * w, -w))

    coeffs = {j: c for j, c in coeffs.items() if not c.is_zero()}
    return LaurentWindow(p, w_lo, w_hi, coeffs, below, above)


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
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InvalidParameters(f"zero denominator in {text!r}") from None


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
    '(z-p)/z'. Factors are separated by * or /; roots may use pihat terms."""
    expr = text.replace(" ", "")
    if not expr:
        raise InvalidParameters("empty expression")
    result = FactoredRational.one(p)
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
        if m.group("pihat"):
            e = int(m.group("pe") or 1)
            factor = FactoredRational.constant(ScalarKHat.pihat(p, e))
        elif m.group("prime"):
            e = int(m.group("ppe") or 1)
            factor = FactoredRational.constant(
                ScalarKHat.from_rational(Fraction(p) ** e, p)
            )
        elif m.group("zpow"):
            e = int(m.group("ze") or 1)
            factor = FactoredRational.monomial(p, e)
        elif m.group("paren"):
            root = _parse_root(m.group("inner"), p)
            e = int(m.group("fe") or 1)
            factor = FactoredRational(p, ScalarKHat.one(p), [(root, e)])
        else:
            factor = FactoredRational.constant(
                ScalarKHat.from_rational(_literal(m.group("rat")), p)
            )
        if op == "/" and factor.is_zero():
            raise InvalidParameters(f"division by zero in {text!r}")
        result = result * factor if op == "*" else result / factor
        pos = m.end()
    return result
