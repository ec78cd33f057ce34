"""Residue-field geometry: rational functions over F_q and the weighted action
on the projective line (as oracles), divisor section spaces, the
symmetric-power comparison map, truncated global sections, the quotient
representation with its stable lines, the parity-swap check, and
integer-valuation profiles."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drinfeld import modp, poly, scalars
from drinfeld.cli import _image_strs
from drinfeld.errors import InternalInvariantError, InvalidParameters, ZeroFunction
from drinfeld.linalg import transpose
from drinfeld.modp import (
    INFINITY_POINT,
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
from drinfeld.rational import FactoredRational, parse_rational
from drinfeld.scalars import Fq, ScalarKHat, half
from drinfeld.tree import truncated_tree
from oracles import (
    FqFraction,
    Vertex,
    _normalize,
    act_on_vertex,
    admitted_ball,
    ball_edges,
    ball_vertex,
    child_endpoint,
    dense_terms,
    densify,
    digit_lines,
    field_elements,
    fq_function_str,
    generator_matrices_fq,
    homogenise,
    image_codes,
    khat,
    make_vertex,
    mat_vec,
    parent_endpoint,
    poly_evaluate,
    quotient_reduce,
    quotient_structure_by_elimination,
    sections_basis_by_dense_rows,
    sl2_generators,
    stable_lines_by_eigenvalues,
    stable_lines_by_scan,
    sym_matrix_by_substitution,
    sym_matrix_fq,
    symgeom_equivariance_by_columns,
    symgeom_images_by_products,
    symgeom_numerators_by_fq,
    symgeom_rank_by_fq,
    transported_gauss_valuation,
    unipotent_columns_by_substitution,
    vertex_transporter,
    weight_action_p1,
    window_poly,
)
from sampling import fq_constant, fq_z


def order_at(f: FqFraction, point) -> int:
    """Vanishing order at an F_q-point or at infinity (poles negative)."""
    field = f.field
    if f.is_zero():
        raise ZeroFunction("the zero function has no finite order")
    if point == INFINITY_POINT:
        return (len(f.den) - 1) - (len(f.num) - 1)
    lin = (-point, field.one())

    def multiplicity(u: tuple) -> int:
        count = 0
        while u and poly_evaluate(u, point, field.zero()).is_zero():
            u = poly.divmod(u, lin, field.zero())[0]
            count += 1
        return count

    return multiplicity(f.num) - multiplicity(f.den)


def divisor_degree(divisor: dict) -> int:
    return sum(divisor.values())


def section_space_basis(field, divisor: dict) -> list:
    """Basis of the rational functions with div(f) + D >= 0: powers of z times
    the product of (z - b)^(-n_b) over the finite support."""
    deg = divisor_degree(divisor)
    if deg < 0:
        return []
    base = fq_constant(field, field.one())
    for point, mult in divisor.items():
        if point == INFINITY_POINT:
            continue
        lin = FqFraction.make(field, (-point, field.one()))
        base = base * lin ** (-mult)
    zfun = fq_z(field)
    return [zfun**j * base for j in range(deg + 1)]


def h0_dimension(divisor: dict) -> int:
    return max(0, divisor_degree(divisor) + 1)


def sym_act_fq(field, g, coords: list, t: int, s: int) -> list:
    """Twisted symmetric-power action on a coordinate column over F_q."""
    return mat_vec(sym_matrix_fq(field, g, t, s), coords)


def symgeom_apply(images: list, coords: list) -> FqFraction:
    """The comparison map with these images (``FqRatFunc``s) applied to a
    coordinate column."""
    field = images[0].field
    total = FqFraction.zero(field)
    for c, img in zip(coords, images):
        total = total + FqFraction.of(img) * fq_constant(field, c)
    return total


def geven_lattice_profile(k: int, n: int) -> tuple:
    """Uniformizer exponents of the integer-valuation submodule along the
    level-n to level-(n+1) edge, for odd k."""
    if k % 2 == 0:
        raise InvalidParameters("the integer-valuation profile is for odd k")
    return (k * n // 2, k * (n + 1) // 2)


def geven_section_membership(f: FactoredRational, k: int, v: Vertex) -> tuple:
    """Membership in the integer-valuation submodule over the vertex open: the
    transported valuation must reach floor(k*m/2) - k*m/2 (0 or -1/2)."""
    if f.is_zero():
        raise ZeroFunction("membership is only defined for nonzero sections")
    val = half(transported_gauss_valuation(f, vertex_transporter(v).inv(), k))
    threshold = Fraction(k * v.m // 2) - Fraction(k * v.m, 2)
    return val >= threshold, val, threshold


def all_invertible_matrices(field):
    """Every element of the general linear group of rank 2, as 2x2 tuples:
    the reference that the generator-based checks are tested against."""
    elems = field_elements(field)
    out = []
    for a in elems:
        for b in elems:
            for c in elems:
                for d in elems:
                    if a * d - b * c != field.zero():
                        out.append(((a, b), (c, d)))
    return out


def _window_inverse(field):
    """(z - z^q)^(-1) over the given field."""
    return FqFraction.make(field, window_poly(field)).inverse()


def _reference_homogeneous_eval(u, n, d, zero, one):
    """u(n/d) * d^deg(u) with every power rebuilt for every coefficient, zero
    or not: the reference for the oracle ``homogenise``."""
    deg = len(u) - 1
    acc = ()
    for i, c in enumerate(u):
        term = poly.mul(poly.power(n, i, zero, one), poly.power(d, deg - i, zero, one), zero)
        acc = poly.add(acc, poly.mul(term, (c,), zero))
    return acc


class TestHomogeneousEvaluationOracle:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 49])
    def test_matches_the_reference(self, q):
        F = Fq(q)
        rng = random.Random(q)
        elems = field_elements(F)
        pick = lambda: elems[rng.randrange(q)]
        nonzero = lambda: elems[rng.randrange(1, q)]
        window = window_poly(F)
        polys = [(), (nonzero(),), window, poly.mul(window, (pick(), nonzero()), F.zero())]
        for _ in range(3):
            dense = [pick() for _ in range(rng.randint(1, 7))] + [nonzero()]
            sparse = [F.zero()] * rng.randint(2, q + 2) + [nonzero()]
            sparse[rng.randrange(len(sparse) - 1)] = nonzero()
            polys += [tuple(dense), tuple(sparse)]
        linears = [(pick(), nonzero()), (F.zero(), nonzero()), (nonzero(),), (F.one(), F.one())]
        for u in polys:
            for n in linears:
                for d in linears:
                    got = homogenise(u, n, d, F.zero(), F.one())
                    assert got == _reference_homogeneous_eval(u, n, d, F.zero(), F.one())

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_the_reference_over_khat(self, p):
        rng = random.Random(p)
        zero, one = ScalarKHat.zero(p), ScalarKHat.one(p)
        values = [
            khat(p, Fraction(a, p**e), Fraction(b))
            for a in (-2, 1, 3) for b in (-1, 0, 1) for e in (0, 1)
        ]
        pick = lambda: rng.choice(values + [zero])
        nonzero = lambda: rng.choice(values)
        polys = [(), (nonzero(),)]
        for _ in range(4):
            dense = [pick() for _ in range(rng.randint(1, 5))] + [nonzero()]
            sparse = [zero] * rng.randint(2, 6) + [nonzero()]
            sparse[rng.randrange(len(sparse) - 1)] = nonzero()
            polys += [tuple(dense), tuple(sparse)]
        # compose_mobius passes the entry pairs of a matrix, zero entries kept
        linears = [(pick(), nonzero()), (zero, nonzero()), (nonzero(), zero), (one, one)]
        for u in polys:
            for n in linears:
                for d in linears:
                    got = homogenise(u, n, d, zero, one)
                    assert got == _reference_homogeneous_eval(u, n, d, zero, one)


class TestRationalFunctions:
    def test_orders_of_a_quotient(self):
        F = Fq(3)
        f = FqFraction.make(
            F, (F.zero(), F.zero(), F.one()), (-F.one(), F.one())
        )  # z^2 / (z - 1)
        assert order_at(f, F.zero()) == 2
        assert order_at(f, F.one()) == -1
        assert order_at(f, INFINITY_POINT) == -1

    def test_field_operations_are_consistent(self):
        F = Fq(4)
        z = fq_z(F)
        g = (z * z + z) / (z + fq_constant(F, F.one()))
        # z(z+1)/(z+1) reduces to z
        assert (g - z).is_zero()
        assert ((z**3) * (z**-3) - fq_constant(F, F.one())).is_zero()

    def test_zero_has_no_inverse(self):
        F = Fq(2)
        with pytest.raises(ZeroDivisionError):
            FqFraction.zero(F).inverse()


class TestWeightedAction:
    def test_translation_at_weight_zero_shifts_the_coordinate(self):
        F = Fq(3)
        z = fq_z(F)
        g = ((F.one(), F.one()), (F.zero(), F.one()))
        moved = weight_action_p1(g, z, 0)
        assert (moved - (z + fq_constant(F, F.one()))).is_zero()

    # the identity D What = det W that ``b_forms_check`` relies on instead of
    # checking it, over the benchmark's fields and on generators of SL_2(F_q)
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_window_inverse_is_fixed_at_weight_q_plus_one(self, q):
        F = Fq(q)
        w = _window_inverse(F)
        upper = ((F.one(), F.one()), (F.zero(), F.one()))
        weyl = ((F.zero(), -F.one()), (F.one(), F.zero()))
        for g in [upper, weyl, *sl2_generators(F)]:
            assert (weight_action_p1(g, w, q + 1) - w).is_zero(), g

    def test_action_composes_as_a_left_action_on_samples(self):
        F = Fq(3)
        z = fq_z(F)
        f = (z * z + fq_constant(F, F.one())) / z
        g1 = ((F.one(), F.one()), (F.zero(), F.one()))
        g2 = ((F.zero(), -F.one()), (F.one(), F.zero()))
        # product g1*g2 computed in the field
        prod = (
            (
                g1[0][0] * g2[0][0] + g1[0][1] * g2[1][0],
                g1[0][0] * g2[0][1] + g1[0][1] * g2[1][1],
            ),
            (
                g1[1][0] * g2[0][0] + g1[1][1] * g2[1][0],
                g1[1][0] * g2[0][1] + g1[1][1] * g2[1][1],
            ),
        )
        for k in (0, 1, 2, 3):
            two_step = weight_action_p1(g1, weight_action_p1(g2, f, k), k)
            one_step = weight_action_p1(prod, f, k)
            assert (two_step - one_step).is_zero()


class TestSectionSpaces:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_random_divisors_match_the_dimension_formula(self, q, rng):
        F = Fq(q)
        points = field_elements(F) + [INFINITY_POINT]
        for _ in range(50 // len(points) + 12):
            divisor = {}
            for pt in points:
                mult = rng.randrange(-3, 4)
                if mult:
                    divisor[pt] = mult
            deg = divisor_degree(divisor)
            h0 = h0_dimension(divisor)
            assert h0 == max(0, deg + 1)
            basis = section_space_basis(F, divisor)
            assert len(basis) == h0
            for f in basis:
                # div(f) + D >= 0 at every point of the projective line
                for pt in points:
                    bound = divisor.get(pt, 0)
                    assert order_at(f, pt) + bound >= 0, (divisor, pt)
                # denominators split into linear factors over the field
                pole_total = sum(
                    max(0, -order_at(f, b)) for b in field_elements(F)
                )
                assert pole_total == len(f.den) - 1
            # independence: pairwise distinct orders at infinity
            inf_orders = {order_at(f, INFINITY_POINT) for f in basis}
            assert len(inf_orders) == len(basis)


class TestComponentDegrees:
    @pytest.mark.parametrize(
        "q,k,expected",
        [(3, 2, 2), (3, 3, 1), (2, 0, 0), (2, 9, 3), (5, -6, -12)],
    )
    def test_frozen_degree_table(self, q, k, expected):
        assert component_degree(q, k) == expected

    def test_degree_gap_between_parities(self):
        # odd weights lose the extra point against the next even weight down
        for q in (2, 3, 4, 5):
            for k in range(1, 10, 2):
                assert component_degree(q, k) == component_degree(q, k - 1) - 1


def _reference_symgeom_equivariance(q, k, i, g):
    """The comparison on rational functions in normal form: each image of the
    transformed monomial against the weighted action on the image, the
    images built as products (``symgeom_images_by_products``)."""
    images = symgeom_images_by_products(q, k, i)
    t, shift = symgeom_parameters(q, k, i)
    m = sym_matrix_fq(Fq(q), g, t, shift)
    for r in range(t + 1):
        lhs = symgeom_apply(images, [row[r] for row in m])
        rhs = weight_action_p1(g, FqFraction.of(images[r]), k)
        if not (lhs - rhs).is_zero():
            return False
    return True


# every (q, k, i) the comparison-map tests here and in test_acceptance use
_SYMGEOM_CASES = [
    (q, k, i)
    for q in (2, 3, 4)
    for k in range(10)
    for i in range(5)
    if (q - 1) * k - (k % 2) * (q + 1) - 2 * i * (q + 1) >= 0
]


# every (q, k, i) with 0 <= k <= 9 and 0 <= i <= 2 that has a comparison map
_COLUMN_CASES = {
    q: [
        (k, i)
        for k in range(10)
        for i in range(3)
        if (q - 1) * k - (k % 2) * (q + 1) - 2 * i * (q + 1) >= 0
    ]
    for q in (2, 3, 4, 5, 7, 8, 9)
}


def _swap_b_c(honest):
    return lambda field, g, t, s: honest(field, ((g[0][0], g[1][0]), (g[0][1], g[1][1])), t, s)


# broken symmetric-power matrices: each must fail the recurrence wherever it
# fails the per-column identity
_MUTATIONS = {
    "twist exponent s+1": lambda honest: lambda field, g, t, s: honest(field, g, t, s + 1),
    "transposed matrix": lambda honest: lambda field, g, t, s: transpose(honest(field, g, t, s)),
    "b and c swapped": _swap_b_c,
}


class TestComparisonMap:
    def test_frozen_parameters_for_q3_k4(self):
        assert symgeom_parameters(3, 4, 0) == (4, -2)
        assert symgeom_injectivity_rank(symgeom_iso(3, 4, 0)) == 5

    def test_negative_degree_parameter_is_rejected(self):
        with pytest.raises(InvalidParameters):
            symgeom_parameters(2, 0, 1)

    @pytest.mark.parametrize("q,k,i", [(2, 2, 0), (2, 5, 0), (3, 4, 0), (3, 4, 1), (4, 3, 0)])
    def test_equivariance_and_injectivity(self, q, k, i):
        F = Fq(q)
        for g in gl2_generators(F):
            assert symgeom_equivariance(q, k, i, g)
        t = symgeom_parameters(q, k, i)[0]
        assert symgeom_injectivity_rank(symgeom_iso(q, k, i)) == t + 1

    def test_image_of_a_monomial_matches_the_window_power(self):
        iso = symgeom_iso(3, 4, 0)
        F = Fq(3)
        images = [
            FqFraction.make(F, map(F.elem, dense_terms(n)), map(F.elem, dense_terms(d))).record()
            for n, d in iso["images"]
        ]
        coords = [F.one() if j == 2 else F.zero() for j in range(iso["t"] + 1)]
        img = symgeom_apply(images, coords)
        z = fq_z(F)
        expected = z * z * _window_inverse(F) ** 2
        assert (img - expected).is_zero()

    # negative weights with negative i give a positive shift: W^e in the numerator
    @pytest.mark.parametrize(
        "q,k,i", _SYMGEOM_CASES + [(9, 10, 0), (5, 12, 0), (2, -8, -2), (3, -6, -2), (4, -8, -3)]
    )
    def test_numerator_check_matches_the_rational_function_check(self, q, k, i):
        for g in gl2_generators(Fq(q)):
            expected = _reference_symgeom_equivariance(q, k, i, g)
            assert symgeom_equivariance(q, k, i, g) is expected is True

    @given(
        q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49, 101]),
        k=st.integers(0, 400),
        i=st.integers(-300, 300),
    )
    @settings(max_examples=400, deadline=None)
    def test_the_shift_is_never_positive(self, q, k, i):
        """t + (q + 1) shift + k = 0 with t, k >= 0, so the shift is at most
        0, and 0 only where t = k = 0: ``symgeom_iso`` has no branch for a
        positive shift."""
        try:
            t, shift = symgeom_parameters(q, k, i)
        except InvalidParameters:
            assume(False)
        assert t + (q + 1) * shift + k == 0
        assert shift < 0 or (shift, k, i) == (0, 0, 0)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_recurrence_matches_the_per_column_identity(self, q):
        for k, i in _COLUMN_CASES[q]:
            for g in gl2_generators(Fq(q)):
                assert symgeom_equivariance(q, k, i, g) is True, (k, i, g)
                assert symgeom_equivariance_by_columns(q, k, i, g) is True, (k, i, g)

    @pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_a_broken_matrix_fails_both_checks_alike(self, q, mutation, monkeypatch):
        monkeypatch.setattr(modp, "sym_matrix_codes", _MUTATIONS[mutation](modp.sym_matrix_codes))
        caught = 0
        for k, i in _COLUMN_CASES[q]:
            for g in gl2_generators(Fq(q)):
                expected = symgeom_equivariance_by_columns(q, k, i, g)
                assert symgeom_equivariance(q, k, i, g) is expected, (k, i, g)
                caught += not expected
        # over F_2 every determinant is 1, so a wrong twist changes nothing
        assert caught or (q, mutation) == (2, "twist exponent s+1")

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
    def test_a_wrong_determinant_twist_is_caught(self, q, monkeypatch):
        k, i = 4, 0
        honest = modp.sym_matrix_codes
        monkeypatch.setattr(
            modp, "sym_matrix_codes", lambda field, g, t, s: honest(field, g, t, s + 1)
        )
        upper, lower, diagonal = gl2_generators(Fq(q))
        for g, expected in ((upper, True), (lower, True), (diagonal, False)):
            assert symgeom_equivariance(q, k, i, g) is expected
            assert _reference_symgeom_equivariance(q, k, i, g) is expected


# every case above, over every field of the column cases, with the
# positive shifts that negative k and i give, which ``symgeom_iso`` refuses
_IMAGE_CASES = sorted(
    set(_SYMGEOM_CASES)
    | {(q, k, i) for q, cases in _COLUMN_CASES.items() for k, i in cases}
    | {(9, 10, 0), (5, 12, 0), (2, -8, -2), (3, -6, -2), (4, -8, -3), (5, -26, -9), (7, -30, -12), (8, -10, -4)}
)


def _invertible(field, rng, entries):
    """A random invertible 2x2 matrix over ``field`` with entries drawn from
    ``entries``."""
    while True:
        a, b, c, d = (rng.choice(entries) for _ in range(4))
        if a * d - b * c != field.zero():
            return ((a, b), (c, d))


class TestComparisonMapOnInts:
    """The closed-form images, the int matrix builder and the int column
    recurrence against the products over F_q that they replace."""

    @pytest.mark.parametrize("q,k,i", _IMAGE_CASES)
    def test_closed_form_images_match_the_products(self, q, k, i):
        if symgeom_parameters(q, k, i)[1] > 0:  # k < 0, past what the CLI admits
            with pytest.raises(InvalidParameters):
                symgeom_iso(q, k, i)
            return
        iso = symgeom_iso(q, k, i)
        expected = symgeom_images_by_products(q, k, i)
        assert iso["images"] == [image_codes(f) for f in expected]
        printed = _image_strs(iso["images"], iso["f"])
        assert printed == [fq_function_str(f) for f in expected]
        numerators = [
            {x: c.n for x, c in enumerate(n) if c} for n in symgeom_numerators_by_fq(expected)
        ]
        assert iso["numerators"] == numerators
        assert symgeom_injectivity_rank(iso) == symgeom_rank_by_fq(expected) == iso["t"] + 1

    def test_a_large_prime_at_shift_zero_builds_no_table(self, monkeypatch):
        """The factorial table reaches the shift, 0 here, and not p."""
        honest = modp._factorials

        def refuse(p, n):
            if n:
                raise AssertionError(f"a factorial table of {n + 1} entries was built")
            return honest(p, n)

        monkeypatch.setattr(modp, "_factorials", refuse)
        iso = symgeom_iso(1000003, 0, 0)
        assert iso["images"] == [(((0, 1),), ((0, 1),))]
        assert symgeom_injectivity_rank(iso) == 1

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_matrix_codes_match_the_field_matrix(self, q, rng):
        field = Fq(q)
        elems = field_elements(field)
        gens = gl2_generators(field) + [_invertible(field, rng, elems) for _ in range(6)]
        for g in gens:
            for t in range(7):
                for s in range(-2, 3):
                    expected = [[x.n for x in row] for row in sym_matrix_by_substitution(field, g, t, s)]
                    assert modp.sym_matrix_codes(field, g, t, s) == expected, (g, t, s)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
    def test_int_columns_match_the_field_columns(self, q, rng):
        field = Fq(q)
        prime = [field.from_int(n) for n in range(field.p)]
        for _ in range(12):
            g = _invertible(field, rng, prime)
            (a, b), (c, d) = g
            for t in range(6):
                for s in range(-2, 3):
                    ints = list(modp._columns_mod_p(field.p, a.n, b.n, c.n, d.n, t, s))
                    assert ints == list(modp._columns_fq(a, b, c, d, t, s)), (g, t, s)
                    assert None not in ints

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_only_the_diagonal_generator_over_an_extension_field_leaves_the_ints(
        self, q, monkeypatch
    ):
        on_field = []
        honest = modp._columns_fq

        def record(*args):
            on_field.append(args[:4])
            return honest(*args)

        monkeypatch.setattr(modp, "_columns_fq", record)
        field = Fq(q)
        for g in gl2_generators(field):
            assert symgeom_equivariance(q, 4, 0, g) is True
        w = field.primitive_element()
        assert on_field == ([(w, field.zero(), field.zero(), field.one())] if field.f > 1 else [])


class TestTruncatedSections:
    @pytest.mark.parametrize(
        "q,k,radius,expected",
        [(2, 3, 1, 4), (2, 2, 1, 5), (2, 1, 2, 0), (3, 4, 2, 69), (2, 0, 2, 1)],
    )
    def test_frozen_dimension_table(self, q, k, radius, expected):
        out = global_sections_truncated(q, k, radius)
        assert out["pass"] is True
        assert out["dimension"] == expected
        assert out["direct_dimension"] == expected

    def test_result_carries_the_full_census(self):
        out = global_sections_truncated(2, 2, 1)
        assert out["vertex_count"] == 4
        assert out["edge_count"] == 3
        assert out["per_component_dimension"] == 2
        assert out["matching_rank"] == 3
        assert len(out["basis"].rows) == out["direct_dimension"]

    @pytest.mark.parametrize("q,radius", [(2, 3), (3, 2), (5, 1), (7, 1)])
    def test_basis_matches_the_dense_assembly(self, q, radius):
        """The residue rows give the basis that dense ``FqElem`` rows give,
        at every k <= 6, radius 0 included."""
        for k, r in itertools.product(range(7), range(radius + 1)):
            want = [[x.n for x in vec] for vec in sections_basis_by_dense_rows(q, k, r)]
            assert densify(global_sections_truncated(q, k, r)["basis"]) == want, (k, r)

    def test_basis_stores_only_its_nonzero_entries(self):
        """The basis at q = 3, k = 4, radius 3 has 213 vectors of width 265,
        56 445 entries, and stores only the 488 that are not 0."""
        basis = global_sections_truncated(3, 4, 3)["basis"]
        assert (len(basis.rows), basis.ncols) == (213, 265)
        assert sum(map(len, basis.rows)) == 488
        assert sum(x != 0 for vec in densify(basis) for x in vec) == 488

    def test_dimension_is_stable_under_unit_rescaling(self, rng):
        for q, k, radius in [(2, 2, 1), (2, 4, 1), (3, 2, 1)]:
            F = Fq(q)
            units = [x for x in field_elements(F) if x != F.zero()]
            reference = global_sections_truncated(q, k, radius)

            def random_units(edge):
                return rng.choice(units), rng.choice(units)

            twisted = len(sections_basis_by_dense_rows(q, k, radius, random_units))
            assert twisted == reference["direct_dimension"] == reference["dimension"]


def _reference_reduction_point(u, w):
    """Point of u's component where neighbor w's component meets it, by
    transporting w with the inverse of u's transporter: the parent of u goes
    to (-1, 0), which meets at 0, and a child of u goes to the base child
    (1, c), which meets at 1/c mod p (infinity for c = 0)."""
    moved = act_on_vertex(vertex_transporter(u).inv(), w)
    if moved.m == -1 and moved.b == 0:
        return 0
    if moved.m == 1:
        c = moved.b
        if c == 0:
            return INFINITY_POINT
        return pow(int(c), -1, u.p)
    raise InternalInvariantError(f"{w} did not normalize to a base neighbor")


class TestReductionPointOracle:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_labels_match_transport_on_every_edge(self, q, tree_factory):
        for radius in range(4):
            for e in ball_edges(tree_factory(q, radius)):
                for u, w in ((e.u, e.v), (e.v, e.u)):
                    assert modp._reduction_point(u, w) == _reference_reduction_point(u, w), (u, w)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_labels_from_the_arrays_on_every_admitted_ball(self, p):
        """The points that ``global_sections_truncated`` reads from the
        ball's label arrays, at both ends of every edge of the largest ball
        the budget admits, against transport of the ``Vertex``es."""
        ball = admitted_ball(p)
        for j in range(ball.n_edges):
            u, w = ball.ends(j)
            for a, b in ((u, w), (w, u)):
                want = _reference_reduction_point(ball_vertex(ball, a), ball_vertex(ball, b))
                assert modp._reduction_point(ball.label(a), ball.label(b)) == want, (a, b)

    def test_non_adjacent_pair_raises(self):
        base = make_vertex(3, 0, 0)
        for w in (base, make_vertex(3, 2, 4), make_vertex(3, 0, Fraction(1, 3)), make_vertex(3, -2, 0)):
            with pytest.raises(InternalInvariantError):
                _reference_reduction_point(base, w)
            with pytest.raises(InternalInvariantError):
                modp._reduction_point(base, w)


class TestQuotientRepresentation:
    def test_frozen_structure_for_q2_k9(self):
        out = quotient_rep_and_stable_lines(2, 9, 0)
        assert out["dimension"] == 3
        assert out["free_monomials"] == [0, 2, 3]
        assert out["group_order"] == len(all_invertible_matrices(Fq(2)))
        assert out["stable_lines"] == [((1,), (1,), (1,))]

    def test_two_cubic_combinations_fall_in_the_same_class(self):
        r1 = quotient_reduce(2, 9, 0, {3: 1, 0: 1, 2: 1})
        r2 = quotient_reduce(2, 9, 0, {3: 1, 0: 1, 1: 1})
        assert r1 == r2
        assert tuple(x.coeffs for x in r1) == ((1,), (1,), (1,))

    def test_stable_line_is_preserved_by_a_nontrivial_element(self):
        out = quotient_rep_and_stable_lines(2, 9, 0)
        F = Fq(2)
        line = tuple(map(F.elem, out["stable_lines"][0]))
        t, shift = out["t"], out["shift"]
        g = ((F.one(), F.one()), (F.zero(), F.one()))
        # lift the line to full monomial coordinates on the free positions
        coords = [F.zero()] * (t + 1)
        for pos, c in zip(out["free_monomials"], line):
            coords[pos] = c
        image = sym_act_fq(F, g, coords, t, shift)
        assert quotient_reduce(2, 9, 0, {r: int(image[r].coeffs[0]) for r in range(t + 1)}) == line

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
    def test_fold_agrees_with_elimination(self, q):
        """The free monomials and the reductions of seeded vectors, against
        row reduction of the relations, at every k < 40 and 0 <= i < 4 with
        relations."""
        rng = random.Random(q)
        field = Fq(q)
        for k, i in itertools.product(range(40), range(4)):
            try:
                s = modp._quotient_structure(q, k, i)
            except InvalidParameters:
                continue
            free, reduce_vector = quotient_structure_by_elimination(q, k, i)
            assert s["free"] == free, (k, i)
            for _ in range(3):
                vec = [field.elem(rng.randrange(q)) for _ in range(s["t"] + 1)]
                assert s["reduce"](vec) == reduce_vector(vec), (k, i, vec)


def _mat_mul_fq(x, y):
    return tuple(
        tuple(x[r][0] * y[0][c] + x[r][1] * y[1][c] for c in range(2)) for r in range(2)
    )


def _stable_lines_by_full_group(q, k, i):
    """Every line of the quotient fixed by each element of the group, found by
    scanning the whole group."""
    out = quotient_rep_and_stable_lines(q, k, i)
    F = Fq(q)
    t, shift, free = out["t"], out["shift"], out["free_monomials"]
    dim = len(free)
    columns = []
    for g in all_invertible_matrices(F):
        cols = []
        for c in free:
            unit = [F.one() if j == c else F.zero() for j in range(t + 1)]
            image = sym_act_fq(F, g, unit, t, shift)
            cols.append(quotient_reduce(q, k, i, dict(enumerate(image))))
        columns.append(cols)

    def normalize(vec):
        lead = next(x for x in vec if x != F.zero())
        inv = lead.inverse()
        return tuple(inv * x for x in vec)

    lines = {
        normalize(vec)
        for vec in itertools.product(field_elements(F), repeat=dim)
        if any(x != F.zero() for x in vec)
    }
    stable = []
    for line in sorted(lines, key=lambda v: tuple(x.coeffs for x in v)):
        fixed = True
        for cols in columns:
            image = [
                sum((cols[j][r] * line[j] for j in range(dim)), F.zero())
                for r in range(dim)
            ]
            if normalize(image) != line:
                fixed = False
                break
        if fixed:
            stable.append(line)
    return stable


def _quotient_cases(q):
    """Every (k, i) with -12 <= k <= 24 and -3 <= i <= 3 whose comparison
    degree t reaches q + 1, so that the quotient has relations."""
    cases = []
    for k in range(-12, 25):
        for i in range(-3, 4):
            try:
                t = symgeom_parameters(q, k, i)[0]
            except InvalidParameters:
                continue
            if t >= q + 1:
                cases.append((k, i))
    return cases


def _fewer_generators(keep: str):
    """A stand-in for ``gl2_generators`` that keeps the identity alone, the
    upper unipotent alone, or the diagonal generator alone (the upper
    unipotent at q = 2, which has none)."""
    honest = modp.gl2_generators

    def fewer(field):
        upper, _, *diagonal = honest(field)
        one, zero = field.one(), field.zero()
        return {
            "identity": [((one, zero), (zero, one))],
            "upper": [upper],
            "diagonal": diagonal or [upper],
        }[keep]

    return fewer


class TestGroupGenerators:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_generators_close_up_to_the_whole_group(self, q):
        orders = {gl2_generators: (q * q - 1) * (q * q - q), sl2_generators: q * (q * q - 1)}
        for generators, order in orders.items():
            gens = generators(Fq(q))
            seen, frontier = set(gens), list(gens)
            while frontier:
                frontier = [
                    y
                    for y in {_mat_mul_fq(x, g) for x in frontier for g in gens}
                    if y not in seen
                ]
                seen.update(frontier)
            assert len(seen) == order, generators.__name__

    @pytest.mark.parametrize(
        "q,k,i", [(2, 9, 0), (3, 4, 0), (3, 7, 0), (3, 8, 1), (4, 4, 0), (4, 5, 0)]
    )
    def test_generator_stable_lines_match_the_full_group_scan(self, q, k, i):
        out = quotient_rep_and_stable_lines(q, k, i)
        assert out["stable_lines"] == digit_lines(_stable_lines_by_full_group(q, k, i))
        assert out["stable_lines"] == digit_lines(stable_lines_by_scan(q, k, i))
        assert out["group_order"] == len(all_invertible_matrices(Fq(q)))

    @pytest.mark.parametrize("keep", ["identity", "upper", "diagonal"])
    @pytest.mark.parametrize("q,k,i", [(2, 9, 0), (3, 4, 0), (4, 4, 0)])
    def test_eigenspaces_of_any_dimension_give_all_their_lines(self, q, k, i, keep, monkeypatch):
        # with fewer generators the common eigenspaces are larger than a line,
        # so the eigenvalue scan hands ``_span_lines`` bases of dimension >= 2
        monkeypatch.setattr(modp, "gl2_generators", _fewer_generators(keep))
        got = stable_lines_by_eigenvalues(q, k, i)
        assert got == stable_lines_by_scan(q, k, i)
        if keep == "identity":
            assert len(got) == (q ** (q + 1) - 1) // (q - 1)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_only_the_unipotent_generators_are_flagged(self, q):
        s = modp._quotient_structure(q, *_quotient_cases(q)[0])
        flags = [unipotent for _, unipotent in generator_matrices_fq(s)]
        assert flags == [True, True] + [False] * (q > 2)

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 16, 25])
    def test_the_diagonal_generator_is_diagonal_on_the_free_monomials(self, q, rng):
        """diag(w, 1) scales the class of X^e by w^(shift + t - e): the fact
        that splits ``_stable_lines`` into one kernel per eigenvalue class."""
        w = Fq(q).primitive_element()
        for k, i in rng.sample(_quotient_cases(q), 3):
            s = modp._quotient_structure(q, k, i)
            m, _ = generator_matrices_fq(s)[2]
            want = [
                [w ** (s["shift"] + s["t"] - e) if r == c else Fq(q).zero() for c in range(len(s["free"]))]
                for r, e in enumerate(s["free"])
            ]
            assert m == want, (k, i)

    @pytest.mark.parametrize(
        "q,count", [(2, 8), (3, 6), (5, 4), (7, 3), (4, 6), (8, 3), (9, 3), (16, 2), (25, 2), (27, 2)]
    )
    def test_residue_path_matches_the_field_path(self, q, count, rng):
        """The kernels on int residues give the lines that the eigenvalue scan
        over ``FqElem`` gives, at q = p^f too, where the rows of U - I are
        ints mod p, and the scan of every vector too where it finishes."""
        for k, i in rng.sample(_quotient_cases(q), count):
            got = modp._stable_lines(modp._quotient_structure(q, k, i))
            assert got == digit_lines(stable_lines_by_eigenvalues(q, k, i)), (k, i)
            if q <= 5:
                assert got == digit_lines(stable_lines_by_scan(q, k, i)), (k, i)

    # not the identity alone at q = 7: each of its 960 800 lines is stable
    @pytest.mark.parametrize(
        "q,k,i,keep",
        [
            (q, k, i, keep)
            for q, k, i in [(2, 9, 0), (3, 4, 0), (5, 4, 0), (7, 4, 0)]
            for keep in ("identity", "upper", "diagonal")
            if (q, keep) != (7, "identity")
        ],
    )
    def test_residue_path_with_fewer_generators(self, q, k, i, keep, monkeypatch):
        """The eigenvalue scan with fewer generators: every line it gives is
        fixed by each kept generator, and it gives the scan's lines where the
        scan finishes."""
        monkeypatch.setattr(modp, "gl2_generators", _fewer_generators(keep))
        got = stable_lines_by_eigenvalues(q, k, i)
        assert got and len(set(got)) == len(got)
        for m, _ in generator_matrices_fq(modp._quotient_structure(q, k, i)):
            for line in got:
                assert _normalize(mat_vec(m, list(line))) == line, (line, m)
        if q <= 5:
            assert got == stable_lines_by_scan(q, k, i)

    @pytest.mark.parametrize("q,count", [(4, 6), (5, 3)])
    def test_eigenspace_lines_match_the_scan_on_a_sample(self, q, count, rng):
        for k, i in rng.sample(_quotient_cases(q), count):
            got = quotient_rep_and_stable_lines(q, k, i)["stable_lines"]
            assert got == digit_lines(stable_lines_by_scan(q, k, i)), (k, i)


class TestUnipotentColumns:
    """The columns of U - I that ``_stable_lines`` reads come from binomials
    mod p read from a table of p-adic factorials, with no big int: against
    ``math.comb`` and against the int substitution matrix that they
    replaced, at q <= 31."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 499])
    def test_binomials_mod_p_match_math_comb(self, p):
        # every n below 60, a spread up to 1000, and where n gains a third digit
        third_digit = range(p * p - 1, p * p + 2) if p < 31 else ()
        ns = [*range(60), *range(60, 1000, 37), *third_digit]
        table = scalars._factorials(p, max(ns))
        for n in ns:
            assert scalars._binomials_mod(p, n, table) == [comb(n, r) % p for r in range(n + 1)], n

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 31])
    def test_columns_match_the_substitution_matrix(self, q, rng):
        p = Fq(q).p
        cases = _quotient_cases(q)
        for k, i in rng.sample(cases, min(4, len(cases))):
            s = modp._quotient_structure(q, k, i)
            table = scalars._factorials(p, s["t"])
            got = [
                [x % p for x in modp._unipotent_column(s, j, table)]
                for j in range(len(s["free"]))
            ]
            assert got == unipotent_columns_by_substitution(s), (k, i)

class TestParityAndIntegerProfiles:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_parity_pair_checks(self, q):
        assert b_forms_check(q) is True

    @pytest.mark.parametrize(
        "k,n,expected",
        [(1, 3, (1, 2)), (1, 1, (0, 1)), (1, -1, (-1, 0)), (3, 2, (3, 4)), (5, -3, (-8, -5))],
    )
    def test_frozen_profile_table(self, k, n, expected):
        assert geven_lattice_profile(k, n) == expected

    def test_even_weight_is_rejected(self):
        with pytest.raises(InvalidParameters):
            geven_lattice_profile(2, 0)

    def test_membership_samples(self):
        p = 2
        one = parse_rational("1", p)
        ok, val, threshold = geven_section_membership(one, 1, make_vertex(p, 0, 0))
        assert (ok, val, threshold) == (True, Fraction(0), Fraction(0))
        ok, val, threshold = geven_section_membership(one, 1, make_vertex(p, 1, 0))
        assert (ok, val, threshold) == (True, Fraction(-1, 2), Fraction(-1, 2))
        ok, val, threshold = geven_section_membership(
            parse_rational("1/z", p), 1, make_vertex(p, 1, 0)
        )
        assert (ok, val, threshold) == (True, Fraction(1, 2), Fraction(-1, 2))
        ok, val, threshold = geven_section_membership(
            parse_rational("pihat", p), 3, make_vertex(p, 1, 0)
        )
        assert (ok, val, threshold) == (False, Fraction(-1), Fraction(-1, 2))
