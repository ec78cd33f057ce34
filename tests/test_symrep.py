"""Weight-k coefficient modules: the symmetric-power action and its dual."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drinfeld.errors import InternalInvariantError
from drinfeld.linalg import transpose
from drinfeld.scalars import Fq, ScalarKHat
from drinfeld.symrep import substitution_matrix, triangular_apply
from oracles import (
    Mat2,
    NonInvertibleDeterminant,
    _lower_triangular,
    chi,
    dual_act,
    epsilon,
    field_elements,
    khat,
    mat_vec,
    sigma,
    sym_ints,
    sym_matrix,
)
from sampling import gamma_level, random_group_element


def sym_act(g: Mat2, coords: list, k: int, p: int) -> list:
    """Twisted action on a polynomial coordinate column."""
    return mat_vec(sym_matrix(g, k, p), coords)


def _reference_substitution_matrix(a, b, c, d, k, from_int):
    """The term-by-term expansion: each binomial term of
    (dX+bY)^i (cX+aY)^(k-i) from its own powers, O(k^4) products."""
    cols = []
    for i in range(k + 1):
        col = [from_int(0)] * (k + 1)
        for r in range(i + 1):
            for t in range(k - i + 1):
                coeff = from_int(comb(i, r) * comb(k - i, t))
                term = coeff * d**r * b ** (i - r) * c**t * a ** (k - i - t)
                col[r + t] = col[r + t] + term
        cols.append(col)
    return transpose(cols)


def _unit(k, p, i):
    return [ScalarKHat.from_rational(1 if j == i else 0, p) for j in range(k + 1)]


def _vec_eq(xs, ys):
    return all((a - b).is_zero() for a, b in zip(xs, ys))


def _scale(s, xs):
    return [s * x for x in xs]


class TestSubstitutionMatrixOracle:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_the_term_expansion_over_the_quadratic_extension(self, p):
        rng = random.Random(4000 + p)
        lift = lambda n: ScalarKHat.from_rational(n, p)

        def draw():
            return khat(
                p,
                Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
                Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
            )

        for k in range(11):
            a, b, c, d = draw(), draw(), draw(), draw()
            assert substitution_matrix(a, b, c, d, k, lift) == (
                _reference_substitution_matrix(a, b, c, d, k, lift)
            ), (p, k)

    def test_matches_the_term_expansion_over_the_integers(self):
        rng = random.Random(4100)
        for k in range(11):
            for _ in range(3):
                a, b, c, d = (rng.randrange(-6, 7) * rng.choice([1, 8, 81]) for _ in range(4))
                assert substitution_matrix(a, b, c, d, k, int) == (
                    _reference_substitution_matrix(a, b, c, d, k, int)
                ), (k, a, b, c, d)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_matches_the_term_expansion_over_finite_fields(self, q):
        field = Fq(q)
        elems = field_elements(field)
        rng = random.Random(5000 + q)
        for k in range(11):
            a, b, c, d = (rng.choice(elems) for _ in range(4))
            assert substitution_matrix(a, b, c, d, k, field.from_int) == (
                _reference_substitution_matrix(a, b, c, d, k, field.from_int)
            ), (q, k)


@st.composite
def _matrices(draw):
    """(p, g) for a lower triangular g, the only shape the program takes a
    symmetric power of, with entries n p^i / (p^j u): p-power and non-p
    denominators."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    units = [u for u in (1, 2, 3, 5, 7, 11) if u % p]

    def entry():
        n = draw(st.integers(-20, 20)) * p ** draw(st.integers(0, 3))
        return Fraction(n, p ** draw(st.integers(0, 4)) * draw(st.sampled_from(units)))

    g = Mat2(entry(), 0, entry(), entry())
    assume(g.A * g.D != 0)
    return p, g


class TestIntegerSymmetricPower:
    @given(pg=_matrices(), k=st.integers(0, 10))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_matrix_over_the_quadratic_extension(self, pg, k):
        p, g = pg
        m, num, den, e = sym_ints(g, k, p)
        want = sym_matrix(g, k, p)
        assert all(type(x) is int for row in m for x in row)
        assert e == -(k + 2) * g.omega_det(p)
        pihat = ScalarKHat.pihat(p, e)
        for i in range(k + 1):
            for j in range(k + 1):
                got = ScalarKHat.from_rational(Fraction(m[i][j] * num, den), p) * pihat
                assert got == want[i][j], (p, g, k, i, j)

    def test_singular_matrix_rejected(self):
        with pytest.raises(NonInvertibleDeterminant):
            sym_ints(Mat2(1, 2, 2, 4), 1, 2)

    def test_a_nonzero_b_is_a_broken_invariant(self):
        for g in (Mat2(1, 1, 0, 1), Mat2(3, Fraction(1, 2), 2, 5), Mat2(0, 1, 1, 0)):
            with pytest.raises(InternalInvariantError, match="lower triangular"):
                sym_ints(g, 3, 2)


class TestTriangularApply:
    """``triangular_apply`` against the products of the closed-form matrix, in
    both directions: c = 0, negative entries and 300-digit entries included."""

    @pytest.mark.parametrize("k", range(31))
    def test_matches_the_closed_form_matrix_products(self, k):
        rng = random.Random(7100 + k)
        for bound in (1, 1, 50, 50, 10**300, 10**300):
            a, c, d = (rng.randint(-bound, bound) for _ in range(3))
            for c in (c, 0):
                m = _lower_triangular(a, c, d, k)
                vec = [rng.randint(-(10**300), 10**300) for _ in range(k + 1)]
                assert triangular_apply(a, c, d, vec) == mat_vec(m, vec), (a, c, d, k)
                assert triangular_apply(a, c, d, vec, transposed=True) == mat_vec(transpose(m), vec), (a, c, d, k)

    @pytest.mark.parametrize("k", range(8))
    def test_the_closed_form_is_the_substitution_matrix(self, k):
        rng = random.Random(7200 + k)
        for _ in range(5):
            a, c, d = (rng.randint(-30, 30) for _ in range(3))
            assert _lower_triangular(a, c, d, k) == substitution_matrix(a, 0, c, d, k, int)


class TestDiagonalEigenvalues:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [-1, 1])
    def test_sym_eigenvalues_on_the_axis(self, p, n):
        # the level-n diagonal element scales the i-th monomial by pihat^{n(2i-k)}
        for k in range(0, 5):
            g = gamma_level(n, p)
            for i in range(k + 1):
                out = sym_act(g, _unit(k, p, i), k, p)
                expected = _scale(ScalarKHat.pihat(p, n * (2 * i - k)), _unit(k, p, i))
                assert _vec_eq(out, expected)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [-1, 1])
    def test_dual_eigenvalues_are_inverted(self, p, n):
        for k in range(0, 5):
            g = gamma_level(n, p)
            for j in range(k + 1):
                out = dual_act(g, _unit(k, p, j), k, p)
                expected = _scale(ScalarKHat.pihat(p, n * (k - 2 * j)), _unit(k, p, j))
                assert _vec_eq(out, expected)


class TestActionLaws:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_sym_act_is_a_left_action(self, k):
        p = 2
        rng = random.Random(101 + k)
        for _ in range(8):
            g1 = random_group_element(rng, p)
            g2 = random_group_element(rng, p)
            vec = [
                ScalarKHat.from_rational(rng.randrange(-3, 4), p) for _ in range(k + 1)
            ]
            lhs = sym_act(g2, sym_act(g1, vec, k, p), k, p)
            rhs = sym_act(g2 @ g1, vec, k, p)
            assert _vec_eq(lhs, rhs)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_dual_act_is_a_left_action(self, k):
        p = 2
        rng = random.Random(211 + k)
        for _ in range(8):
            g1 = random_group_element(rng, p)
            g2 = random_group_element(rng, p)
            vec = [
                ScalarKHat.from_rational(rng.randrange(-3, 4), p) for _ in range(k + 1)
            ]
            lhs = dual_act(g2, dual_act(g1, vec, k, p), k, p)
            rhs = dual_act(g2 @ g1, vec, k, p)
            assert _vec_eq(lhs, rhs)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_scalar_p_acts_trivially(self, k):
        # the central element diag(p, p) lies in the kernel of the normalized action
        p = 2
        g = Mat2(p, 0, 0, p)
        for i in range(k + 1):
            assert _vec_eq(sym_act(g, _unit(k, p, i), k, p), _unit(k, p, i))
            assert _vec_eq(dual_act(g, _unit(k, p, i), k, p), _unit(k, p, i))

    def test_identity_acts_trivially(self):
        p = 3
        k = 3
        vec = [ScalarKHat.from_rational(j + 1, p) for j in range(k + 1)]
        assert _vec_eq(sym_act(Mat2(1, 0, 0, 1), vec, k, p), vec)

    def test_singular_matrix_rejected(self):
        with pytest.raises(NonInvertibleDeterminant):
            sym_act(Mat2(1, 2, 2, 4), _unit(1, 2, 0), 1, 2)


class TestCharacters:
    def test_chi_on_the_axis(self):
        p = 2
        assert str(chi(gamma_level(1, p), p)) == str(ScalarKHat.pihat(p, 1))
        inv = chi(gamma_level(1, p).inv(), p)
        assert inv.valuation() == -chi(gamma_level(1, p), p).valuation()

    def test_chi_is_multiplicative(self):
        p = 3
        rng = random.Random(307)
        for _ in range(10):
            g1 = random_group_element(rng, p)
            g2 = random_group_element(rng, p)
            assert ((chi(g1, p) * chi(g2, p)) - chi(g2 @ g1, p)).is_zero()

    def test_sigma_is_the_determinant_parity(self):
        p = 2
        assert sigma(gamma_level(1, p), p) == -1
        assert sigma(gamma_level(2, p), p) == 1
        assert sigma(Mat2(1, 0, 0, 1), p) == 1

    def test_epsilon_is_the_unit_part_of_the_determinant(self):
        p = 2
        assert str(epsilon(Mat2(3, 0, 0, 3), p)) == "9"
        assert str(epsilon(gamma_level(1, p), p)) == "1"
