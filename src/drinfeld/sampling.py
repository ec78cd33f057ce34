"""Seeded samplers for randomized sweeps: group elements as short products of
standard atoms, rational sections with poles at known points, and sections
rescaled into a vertex lattice.  Deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .rational import FactoredRational
from .scalars import INF, ScalarKHat
from .tree import (
    Mat2,
    Vertex,
    diagonal,
    gamma_level,
    make_vertex,
    unipotent_lower,
    unipotent_upper,
    weyl_flip,
)


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


def rescale_into_vertex_lattice(
    f: FactoredRational, k: int, v: Vertex
) -> FactoredRational:
    """Multiply f by a uniformizer power so it satisfies the weight-k vertex
    membership bound at v."""
    from .lattices import section_lattice_membership

    ok, val = section_lattice_membership(f, k, v)
    if ok:
        return f
    if val is INF:
        return f
    deficit = -val
    steps = int(2 * deficit)
    if Fraction(steps, 2) < deficit:
        steps += 1
    return f * ScalarKHat.pihat(f.p, steps)


def rescale_to_gauss_bound(
    f: FactoredRational, v: Vertex, bound: Fraction
) -> FactoredRational:
    """Multiply f by the uniformizer power that puts its Gauss valuation at v
    exactly on the bound (or half a step above when the gap is not a multiple
    of the uniformizer valuation)."""
    from .rational import gauss_valuation

    val = gauss_valuation(f, v)
    gap = bound - val
    steps = int(2 * gap)
    if Fraction(steps, 2) < gap:
        steps += 1
    if steps == 0:
        return f
    return f * ScalarKHat.pihat(f.p, steps)
