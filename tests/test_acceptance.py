"""Acceptance gate: one test per criterion, every assertion exact.

Each test prints a single PASS line on success (visible with -s or -rA);
the pytest -v report gives the per-criterion pass/fail ledger.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from drinfeld.errors import InvalidParameters
from drinfeld.harmonic import delta, res0, res0_integrality
from drinfeld.lattices import local_space_report, vertex_lattice_profile
from drinfeld.modp import (
    b_forms_check,
    component_degree,
    gl2_generators,
    global_sections_truncated,
    quotient_rep_and_stable_lines,
    symgeom_equivariance,
    symgeom_injectivity_rank,
    symgeom_iso,
    symgeom_parameters,
)
from drinfeld.rational import (
    FactoredRational,
    gauss_valuation,
    parse_rational,
    tube_coordinate_level,
)
from drinfeld.scalars import Fq, ScalarKHat
from drinfeld.theta import complement_b_identity, theta, theta_integrality
from drinfeld.tree import truncated_tree
from oracles import (
    Mat2,
    act_on_vertex,
    automorphic_act,
    cochain_value,
    det,
    kernel_polynomial_dimension,
    make_edge,
    make_vertex,
    quotient_reduce,
    res_kills_theta,
    rescale_to_gauss_bound,
    section_lattice_membership,
    support,
)
from inprocess import invoke
from sampling import (
    diagonal,
    gamma_level,
    random_group_element,
    random_rational,
    random_vertex,
)

SEED = 20260818


def _affine_factor(g, p):
    """The linear form a + c*z of a matrix, as a rational section."""
    a, c = Fraction(g.a), Fraction(g.c)
    if c == 0:
        return FactoredRational(p, ScalarKHat.from_rational(a, p))
    return FactoredRational(
        p,
        ScalarKHat.from_rational(c, p),
        [(ScalarKHat.from_rational(-a / c, p), 1)],
    )


def test_criterion_1_vertex_lattice_diagonal_profiles():
    for p in (2, 3):
        for k in range(7):
            for n in (0, 1, -1):
                profile = vertex_lattice_profile(make_vertex(p, n, 0), k)
                expected = tuple(Fraction(n * (k - 2 * j), 2) for j in range(k + 1))
                assert tuple(Fraction(x, 2) for x in profile) == expected, (p, k, n, profile)
    print("CRITERION 1: PASS - diagonal vertex lattice profiles exact for k in 0..6")


def test_criterion_2_local_dimensions_brute_force_vs_closed_form():
    for q in (2, 3, 5):
        for k in range(7):
            report = local_space_report(q, k)
            if k % 2 == 0:
                expected = {
                    "dimD": (k + 2) // 2,
                    "dimE": 1,
                    "dimZhar": (q - 1) * (k + 2) // 2 + 1,
                }
            else:
                expected = {
                    "dimD": (k + 1) // 2,
                    "dimE": 0,
                    "dimZhar": (q - 1) * (k + 1) // 2,
                }
            assert report["computed"] == expected, (q, k, report)
            assert report["predicted"] == expected, (q, k, report)
            assert report["pass"] is True
    print("CRITERION 2: PASS - local dimensions match closed forms for q in {2,3,5}, k in 0..6")


def test_criterion_3_component_degrees():
    for q in (2, 3, 4, 5):
        for k in range(-6, 10):
            if k % 2 == 0:
                expected = (q - 1) * k // 2
                assert (q - 1) * k % 2 == 0
            else:
                expected = (q - 1) * (k - 1) // 2 - 1
                assert (q - 1) * (k - 1) % 2 == 0
            assert component_degree(q, k) == expected, (q, k)
    print("CRITERION 3: PASS - component degrees exact for q in {2,3,4,5}, k in -6..9")


def test_criterion_4_membership_transport_and_affine_valuation_identity():
    # part 1: membership is carried along the group action (30 random triples)
    p = 2
    rng = random.Random(SEED)
    checked = 0
    while checked < 30:
        k = rng.randrange(0, 4)
        f = random_rational(rng, p)
        if f.is_zero():
            continue
        g = random_group_element(rng, p)
        v = random_vertex(rng, p)
        before = section_lattice_membership(f, k, v)[0]
        after = section_lattice_membership(
            automorphic_act(g, f, k), k, act_on_vertex(g, v)
        )[0]
        assert before == after, (k, str(g), str(v))
        checked += 1

    # part 2: the affine-factor valuation identity
    #   -2k*w(a + c*z) + k*w(det) == k*(n' - n)  on the target tube, where
    # gauss_valuation returns the doubled valuation 2*w(a + c*z),
    # in its three generating cases.  Tubes carry no points rational over the
    # ramified quadratic extension alone (every residue class is occupied by a
    # rational direction), so the tube-wide Gauss valuation -- exact, and
    # constant on the tube in all three cases -- is the honest certificate.
    for p in (2, 3):
        ks = (1, 2, 3)
        # case: pure level translations, n -> n + m
        for m in range(-3, 4):
            g = gamma_level(m, p)
            for n in range(-2, 3):
                n2 = n + m
                val = gauss_valuation(_affine_factor(g, p), make_vertex(p, n2, 0))
                for k in ks:
                    assert -k * val + k * g.omega_det(p) == k * (n2 - n)
        # case: scalar matrices at the base vertex
        for s in (1, 3, Fraction(p), Fraction(1, p), 3 * p * p):
            g = diagonal(s, s)
            val = gauss_valuation(_affine_factor(g, p), make_vertex(p, 0, 0))
            for k in ks:
                assert -k * val + k * g.omega_det(p) == 0
        # case: unit-determinant integral matrices at the base vertex
        rng2 = random.Random(SEED + p)
        found = 0
        while found < 12:
            g = Mat2(
                rng2.randrange(-9, 10),
                rng2.randrange(-9, 10),
                rng2.randrange(-9, 10),
                rng2.randrange(-9, 10),
            )
            if det(g) == 0 or g.omega_det(p) != 0:
                continue
            val = gauss_valuation(_affine_factor(g, p), make_vertex(p, 0, 0))
            assert val == 0, (p, str(g))
            for k in ks:
                assert -k * val + k * g.omega_det(p) == 0
            found += 1
    print(
        "CRITERION 4: PASS - 30 membership transports and the affine valuation "
        "identity in all three cases"
    )


def test_criterion_5_residue_suite():
    p = 2
    t = truncated_tree(p, 3)

    # part 1: the residue cochain of 1/z is supported exactly on the diagonal
    # axis, alternating between the two unit values of the weight-0 dual line
    c = res0(parse_rational("1/z", p), 0, t)
    expected_support = {
        make_edge(make_vertex(p, n - 1, 0), make_vertex(p, n, 0))
        for n in range(-2, 4)
    }
    assert set(support(c)) == expected_support
    for n in range(-2, 4):
        e = make_edge(make_vertex(p, n - 1, 0), make_vertex(p, n, 0))
        expected = ScalarKHat.from_rational((-1) ** (n % 2), p)
        assert (cochain_value(c, e)[0] - expected).is_zero()

    # part 2: residues are harmonic: the signed star sums vanish at every
    # interior vertex, for 20 random sections
    rng = random.Random(SEED)
    checked = 0
    attempts = 0
    while checked < 20 and attempts < 60:
        attempts += 1
        k = checked % 3
        f = random_rational(rng, p)
        if f.is_zero():
            continue
        cochain = res0(f, k, t)
        star_sums = delta(cochain, t)
        assert not any(any(a) or any(b) for a, b, _ in star_sums.values())
        checked += 1
    assert checked == 20

    # part 3: the residue lands in every edge lattice whenever the section
    # lies in all vertex lattices
    f = parse_rational("1/z", p)
    report = res0_integrality(f, 0, t, res0(f, 0, t))
    assert report["vertex_membership"] is True
    assert report["in_all_edge_lattices"] is True
    rng3 = random.Random(SEED + 5)
    implications = 0
    for _ in range(20):
        k = implications % 2
        f = random_rational(rng3, p)
        if f.is_zero():
            continue
        t2 = truncated_tree(p, 2)
        out = res0_integrality(f, k, t2, res0(f, k, t2))
        if out["vertex_membership"]:
            assert out["in_all_edge_lattices"], (k, str(f))
        implications += 1
    print("CRITERION 5: PASS - axis support, 20 harmonic star checks, edge-lattice integrality")


def test_criterion_6_theta_suite():
    p = 2

    # part 1: polynomial kernel dimension is exactly k+1, as printed and by rank
    for q in (2, 3, 5):
        for k in range(13):
            out = json.loads(invoke(["theta", "--p", str(q), "--k", str(k), "--f", "1/z"]).stdout)
            assert out["kernel_polynomial_dimension"] == kernel_polynomial_dimension(k, q) == k + 1, (q, k)

    # part 2: 30 random sections pinned on the vertex-lattice bound all pass
    rng = random.Random(SEED)
    checked = 0
    while checked < 30:
        k = rng.randrange(0, 4)
        f = random_rational(rng, p)
        if f.is_zero():
            continue
        v = random_vertex(rng, p)
        bound = Fraction(-k * tube_coordinate_level(v), 2)
        f_in = rescale_to_gauss_bound(f, v, bound)
        cert = theta_integrality(f_in, theta(f_in, k), k, v)
        assert cert["applicable"], (k, str(v), cert)
        assert cert["passes"], (k, str(v), cert)
        checked += 1

    # part 3: residues annihilate derivative images for 20 random sections
    t = truncated_tree(p, 2)
    rng2 = random.Random(SEED + 1)
    killed = 0
    attempts = 0
    while killed < 20 and attempts < 80:
        attempts += 1
        k = killed % 3
        f = random_rational(rng2, p)
        if f.is_zero():
            continue
        try:
            ok = res_kills_theta(f, k, t)
        except Exception:
            continue
        assert ok, (k, str(f))
        killed += 1
    assert killed == 20

    # part 4: the Euler-operator factorization identity
    for k in (2, 4, 6):
        for a in (0, 1):
            assert complement_b_identity(k, ScalarKHat.from_rational(a, p), range(-8, 9), p)
    print("CRITERION 6: PASS - kernel dims, 30 integrality certificates, 20 residue kills, factorization identity")


def test_criterion_7_modp_representation_suite():
    # part 1: every valid comparison-map triple is equivariant and injective
    triples = []
    for q in (2, 3, 4):
        F = Fq(q)
        gens = gl2_generators(F)
        for k in range(10):
            i = 0
            while True:
                try:
                    t, _ = symgeom_parameters(q, k, i)
                except InvalidParameters:
                    break
                for g in gens:
                    assert symgeom_equivariance(q, k, i, g), (q, k, i)
                assert symgeom_injectivity_rank(symgeom_iso(q, k, i)) == t + 1, (q, k, i)
                triples.append((q, k, i))
                i += 1
    assert len(triples) == 44

    # part 2: the quotient at (q,k,i) = (2,9,0) has dimension 3 and the two
    # cubic combinations share a class spanning a stable line
    out = quotient_rep_and_stable_lines(2, 9, 0)
    assert out["dimension"] == 3
    r1 = quotient_reduce(2, 9, 0, {3: 1, 0: 1, 2: 1})
    r2 = quotient_reduce(2, 9, 0, {3: 1, 0: 1, 1: 1})
    assert r1 == r2
    assert tuple(x.coeffs for x in r1) in set(out["stable_lines"])

    # part 3: parity-swapping checks
    for q in (2, 3, 4):
        assert b_forms_check(q) is True
    print("CRITERION 7: PASS - 44 equivariant injective triples, stable cubic class, parity checks")


def test_criterion_8_truncated_global_sections():
    for q in (2, 3):
        for k in range(6):
            for radius in (0, 1, 2):
                out = global_sections_truncated(q, k, radius)
                per = max(0, component_degree(q, k) + 1)
                if k % 2 == 0:
                    expected = out["vertex_count"] * per - out["edge_count"]
                else:
                    expected = out["vertex_count"] * per
                assert out["dimension"] == expected, (q, k, radius, out)
                assert out["direct_dimension"] == expected, (q, k, radius)
                assert out["pass"] is True
                if k == 1:
                    assert out["dimension"] == 0
    print("CRITERION 8: PASS - truncated section dimensions match direct assembly; weight 1 vanishes")


def test_criterion_9_cli_determinism():
    def run(args):
        env = dict(os.environ)
        # the child imports this checkout's src/, installed or not
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "drinfeld.cli", *args],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, (args, proc.stderr)
        return proc.stdout

    commands = [
        ("residue", "--p", "2", "--k", "1", "--f", "1/z", "--radius", "2",
         "--audit", "--seed", str(SEED)),
        ("harmonic", "--p", "2", "--k", "2", "--radius", "2"),
        ("modp", "sections", "--q", "2", "--k", "4", "--radius", "2"),
    ]
    for args in commands:
        assert run(args) == run(args), args
    print("CRITERION 9: PASS - byte-identical reports across repeats")
