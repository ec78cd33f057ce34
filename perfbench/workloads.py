"""Seeded job lists for the three workloads.

A job is the argument vector of one ``drinfeld`` CLI invocation.  Each
workload is a fixed grid of commands and structural parameters (primes,
weights, radii): the grid fixes the work, so every seed gives the same
command mix at nearly the same cost.  The seed draws only the inputs whose
cost barely depends on their value -- rational sections, axis levels, audit
seeds, one of several realizations of the same comparison degree -- and the
order of the jobs.  No argument vector occurs twice in one list.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("local-lattices", "tree-cochains", "residue-field")


def comparison_degree(q: int, k: int, i: int) -> int | None:
    """Degree t of the symmetric-power comparison map for (q, k, i), or None
    when it does not exist: t = ((q-1)k - 2i(q+1))/2 for even k and
    ((q-1)k - (q+1) - 2i(q+1))/2 for odd k."""
    twice = (q - 1) * k - 2 * i * (q + 1) - (0 if k % 2 == 0 else q + 1)
    if twice < 0 or twice % 2:
        return None
    return twice // 2


def _realizations(q: int, t: int, count: int) -> list[tuple[int, int]]:
    """The first ``count`` pairs (k, i), by increasing k, with degree t."""
    found = []
    for k in range(0, 300):
        for i in range(0, 40):
            if comparison_degree(q, k, i) == t:
                found.append((k, i))
        if len(found) >= count:
            break
    return found[:count]


def _unit(rng: random.Random, p: int) -> Fraction:
    """A signed rational p-adic unit with small numerator and denominator."""
    while True:
        num, den = rng.randint(1, 8 * p), rng.randint(1, 4)
        if num % p and den % p:
            return Fraction(rng.choice((1, -1)) * num, den)


def _factor(root: Fraction, mult: int) -> str:
    base = "z" if root == 0 else (f"(z-{root})" if root > 0 else f"(z+{-root})")
    return base if mult == 1 else f"{base}^{mult}"


# A section shape is a list of (root valuation, multiplicity); the valuation
# None puts the root at 0.  The seed draws the unit part of each root.  The
# roots of one shape have distinct valuations, so their pairwise distances,
# and with them the support of the residue cochain, do not depend on the seed.
_SECTION_SHAPES = (
    ((None, -1), (0, -1)),
    ((None, -2), (1, 1)),
    ((1, -1), (-1, 1)),
    ((None, -1), (0, -2), (1, 1)),
)


def _section(rng: random.Random, p: int, shape) -> str:
    roots: list[Fraction] = []
    parts = []
    for valuation, mult in shape:
        while True:
            root = Fraction(0) if valuation is None else _unit(rng, p) * Fraction(p) ** valuation
            if root not in roots:
                break
        roots.append(root)
        parts.append(_factor(root, mult))
    return "*".join(parts)


# Extra theta certificates at k = 4 per prime in local-lattices.
_THETA_GROUP = 12


def _local_lattices(rng: random.Random) -> list[list[str]]:
    jobs = []
    for p in (2, 3, 5, 7):
        for k in range(0, 7):
            jobs.append(["local-dims", "--p", str(p), "--k", str(k)])
        for k in range(0, 11):
            jobs.append(["lattice", "--p", str(p), "--k", str(k)])
        for k in range(1, 13):
            # The extra levels at k <= 4 (cheap) and at k = 7 put the median
            # job time inside a group of about 28 jobs of like cost: the axis
            # at k = 7, theta at k = 3, 4 and the profiles at k = 3.
            count = 2 if k <= 4 else 4 if k == 7 else 1
            for level in rng.sample((-4, -3, -2, -1, 1, 2, 3, 4), count):
                jobs.append(
                    ["lattice", "--p", str(p), "--k", str(k), "--level", str(level), "--offset", "0"]
                )
        # One certificate at each k = 0..4, then a group of like cost at k = 4
        # (about 0.03 s whatever the section and level) that holds the median
        # job time, so that the median is an order statistic of many like jobs.
        thetas: list[list[str]] = []
        for k in (0, 1, 2, 3, 4) + (4,) * _THETA_GROUP:
            while True:
                f = _section(rng, p, _SECTION_SHAPES[len(thetas) % len(_SECTION_SHAPES)])
                level = rng.randint(-3, 3)
                job = ["theta", "--p", str(p), "--k", str(k), "--f", f, "--level", str(level)]
                if job not in thetas:
                    break
            thetas.append(job)
        jobs += thetas
    return jobs


def _tree_cochains(rng: random.Random) -> list[list[str]]:
    jobs = []
    for p, radii in ((2, range(0, 9)), (3, range(0, 7))):
        for r in radii:
            jobs.append(["tree", "--p", str(p), "--radius", str(r)])
    for p, radii in ((2, range(1, 5)), (3, range(1, 4))):
        for k in range(0, 3):
            for r in radii:
                jobs.append(["harmonic", "--p", str(p), "--k", str(k), "--radius", str(r)])
    for p, k, r in ((2, 0, 4), (2, 1, 4), (2, 2, 4), (3, 0, 3), (3, 1, 3), (3, 2, 3)):
        jobs.append(["residue", "--p", str(p), "--k", str(k), "--f", "1/z", "--radius", str(r)])
    # Seeded sections in three groups of equal cost: the first (two shapes of
    # like cost, 20 sections each, from pools of 26) sits at the median job
    # time and the second at the tail, so that those quantiles are order
    # statistics of many like jobs rather than of one.
    groups = ((0, 3, (0, 1), 40, ()), (1, 4, (1,), 10, ()), (2, 3, (2,), 3, ("--audit",)))
    for k, r, shapes, count, flags in groups:
        sections: set[str] = set()
        while len(sections) < count:
            shape = _SECTION_SHAPES[shapes[len(sections) % len(shapes)]]
            sections.add(_section(rng, 2, shape))
        for f in sorted(sections):
            job = ["residue", "--p", "2", "--k", str(k), "--f", f, "--radius", str(r), *flags]
            if flags:
                job += ["--seed", str(rng.randint(0, 10**6))]
            jobs.append(job)
    return jobs


# (q, k, radius) of the section jobs: each prints 50-510 kB of basis.
_SECTION_GRID = (
    (2, 6, 3), (3, 2, 3), (3, 3, 3), (3, 4, 2), (3, 4, 3), (3, 5, 3),
    (3, 6, 2), (5, 2, 2), (5, 3, 2), (5, 6, 1), (7, 4, 1),
)
# (q, t, jobs) of the stable-line jobs.  Realizations (k, i) of one degree t
# cost nearly the same, so the q = 2 group sits at the median job time and
# the q = 3, t = 5 group at the tail, with the sections and comparison maps
# of like cost beside it and fewer than ten heavier jobs above it.
_STABLE_LINE_GROUPS = ((2, 4, 64), (3, 4, 1), (3, 5, 20), (3, 6, 1), (3, 7, 1), (3, 8, 1))
# (q, k) of the comparison-map jobs, all with i = 0.
_SYMGEOM_GRID = (
    (3, 2), (3, 3), (3, 4), (3, 5), (3, 6),
    (4, 2), (4, 3), (4, 4), (4, 5),
    (5, 2), (5, 3), (5, 4), (5, 5),
    (7, 2), (7, 3), (7, 4), (7, 5),
)
_FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9)


def _residue_field(rng: random.Random) -> list[list[str]]:
    jobs = []
    for q, k, r in _SECTION_GRID:
        jobs.append(["modp", "sections", "--q", str(q), "--k", str(k), "--radius", str(r)])
    for q, t, count in _STABLE_LINE_GROUPS:
        for k, i in rng.sample(_realizations(q, t, count + 3), count):
            jobs.append(["modp", "stable-lines", "--q", str(q), "--k", str(k), "--i", str(i)])
    for q, k in _SYMGEOM_GRID:
        jobs.append(["modp", "symgeom-check", "--q", str(q), "--k", str(k), "--i", "0"])
    for q in _FIELD_SIZES:
        for k in rng.sample(range(0, 100), 4):
            jobs.append(["modp", "degrees", "--q", str(q), "--k", str(k)])
        jobs.append(["modp", "b-forms", "--q", str(q)])
    return jobs


_BUILDERS = {
    "local-lattices": _local_lattices,
    "tree-cochains": _tree_cochains,
    "residue-field": _residue_field,
}


def job_list(workload: str, seed: int) -> list[list[str]]:
    """The workload's jobs for this seed, in run order."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = _BUILDERS[workload](rng)
    rng.shuffle(jobs)
    if len({tuple(job) for job in jobs}) != len(jobs):
        raise ValueError(f"{workload}: an invocation repeats for seed {seed}")
    return jobs
