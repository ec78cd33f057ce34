"""Seeded samplers for property tests: group elements as short products of
standard atoms, rational sections with poles at known points, and vertices
near the base vertex.  Deterministic for a fixed seed.  The program does not
call them.
"""

from __future__ import annotations

import random
from fractions import Fraction

from drinfeld.rational import FactoredRational
from drinfeld.scalars import FiniteField, FqElem, ScalarKHat
from oracles import FqFraction, Mat2, Vertex, make_vertex, unipotent_lower


def gamma_level(n: int, p: int) -> Mat2:
    """diag(1, p^n); sends the base vertex to (n, 0)."""
    return Mat2(1, 0, 0, Fraction(p) ** n)


def unipotent_upper(x: Fraction | int) -> Mat2:
    return Mat2(1, x, 0, 1)


def weyl_flip() -> Mat2:
    return Mat2(0, 1, 1, 0)


def diagonal(u: Fraction | int, w: Fraction | int) -> Mat2:
    return Mat2(u, 0, 0, w)


def _atoms(p: int) -> list:
    return [
        gamma_level(1, p),
        gamma_level(-1, p),
        unipotent_upper(1),
        unipotent_upper(-1),
        unipotent_upper(Fraction(p)),
        unipotent_upper(Fraction(1, p)),
        unipotent_lower(1),
        unipotent_lower(Fraction(p)),
        weyl_flip(),
        diagonal(1 + p, 1),
        diagonal(Fraction(p), Fraction(p)),
    ]


def random_group_element(rng: random.Random, p: int) -> Mat2:
    """Product of 2..4 atoms from the standard generating set."""
    atoms = _atoms(p)
    g = rng.choice(atoms)
    for _ in range(rng.randint(1, 3)):
        g = g @ rng.choice(atoms)
    return g


def _pole_points(p: int) -> list:
    return [
        ScalarKHat.from_rational(0, p),
        ScalarKHat.from_rational(1, p),
        ScalarKHat.from_rational(Fraction(p), p),
        ScalarKHat.from_rational(Fraction(1, p), p),
        ScalarKHat.from_rational(1 + p, p),
    ]


def fq_constant(field: FiniteField, c: FqElem) -> FqFraction:
    """The constant rational function c over F_q."""
    return FqFraction.make(field, (c,))


def fq_z(field: FiniteField) -> FqFraction:
    """The coordinate z as a rational function over F_q."""
    return FqFraction.make(field, (field.zero(), field.one()))


def monomial(p: int, exponent: int) -> FactoredRational:
    """z^exponent as a section."""
    return FactoredRational(p, ScalarKHat.one(p), [(ScalarKHat.zero(p), exponent)])


def random_rational(rng: random.Random, p: int) -> FactoredRational:
    """Nonzero product of a leading scalar and up to three linear factors with
    exponents in [-2, 2], poles and zeros at a fixed small point set."""
    lead_choices = [
        ScalarKHat.one(p),
        ScalarKHat.from_rational(2, p),
        ScalarKHat.from_rational(Fraction(1, p), p),
        ScalarKHat.pihat(p, 1),
        ScalarKHat.pihat(p, -1),
    ]
    lead = rng.choice(lead_choices)
    factors = []
    points = _pole_points(p)
    for _ in range(rng.randint(0, 3)):
        mult = rng.choice([-2, -1, 1, 2])
        factors.append((rng.choice(points), mult))
    return FactoredRational(p, lead, factors)


def random_vertex(rng: random.Random, p: int) -> Vertex:
    """Vertex with level in [-2, 2] and a random offset."""
    m = rng.randint(-2, 2)
    b: Fraction | int = 0
    if m > 0:
        b = Fraction(rng.randrange(0, p**m))
    elif m < 0:
        b = Fraction(rng.randrange(0, p), p ** (-m + 1))
    return make_vertex(p, m, b)
