"""Exact linear algebra: the sparse Gauss-Jordan elimination and everything
built on it, checked against a dense reference elimination over F_q, K̂ and
the rationals, and Smith reduction over the valuation ring of K̂."""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul

import pytest

from drinfeld.errors import InternalInvariantError
from drinfeld.linalg import kernel_basis_mod_p, kernel_of_columns_mod_p, rank, rref
from drinfeld.scalars import Fq, ScalarKHat
from oracles import (
    inverse,
    is_integral,
    kernel_basis,
    mat_mul,
    reduce_mod_pihat,
    smith_over_dvr,
    solve,
)

# -- the dense reference -----------------------------------------------------------


def _reference_rref(rows, zero):
    """Dense Gauss-Jordan: pivot on the first row with a nonzero entry in each
    column, then clear that column in every other row."""
    a = [list(r) for r in rows]
    if not a:
        return a, []
    ncols = len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(a)) if a[i][c] != zero), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != zero:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, pivots


def _reference_kernel_basis(rows, zero, one):
    """Right kernel from the reference form, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    r, pivots = _reference_rref(rows, zero)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = one
        for ri, pc in enumerate(pivots):
            vec[pc] = zero - r[ri][fc]
        basis.append(vec)
    return basis


def _reference_solve(a, b, zero):
    if not a:
        return [] if all(x == zero for x in b) else None
    r, pivots = _reference_rref([list(row) + [bi] for row, bi in zip(a, b)], zero)
    ncols = len(a[0])
    if ncols in pivots:
        return None
    x = [zero] * ncols
    for ri, pc in enumerate(pivots):
        x[pc] = r[ri][ncols]
    return x


def _reference_inverse(a, zero, one):
    n = len(a)
    aug = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    r, pivots = _reference_rref(aug, zero)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in r]


# -- seeded scalars and matrices ------------------------------------------------------


def _fq(q):
    field = Fq(q)
    elements = field.elements()
    units = [x for x in elements if x != field.zero()]
    return f"F{q}", field.zero(), field.one(), lambda rng: rng.choice(units)


def _khat(p):
    zero, one = ScalarKHat.zero(p), ScalarKHat.one(p)

    def rational(rng):
        return Fraction(rng.randint(-3 * p, 3 * p), p ** rng.randint(0, 2)) * p ** rng.randint(0, 1)

    def unit(rng):
        while True:
            x = ScalarKHat(p, rational(rng), rational(rng) if rng.random() < 0.7 else 0)
            if not x.is_zero():
                return x

    return f"K{p}", zero, one, unit


def _rationals():
    def unit(rng):
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))

    return "Q", Fraction(0), Fraction(1), unit


SCALARS = [_fq(q) for q in (2, 3, 4, 5, 7, 8, 9)] + [_khat(p) for p in (2, 3, 5)] + [_rationals()]
SCALAR_IDS = [s[0] for s in SCALARS]


def _random_matrix(rng, nrows, ncols, density, zero, draw):
    return [[draw(rng) if rng.random() < density else zero for _ in range(ncols)] for _ in range(nrows)]


def _combination_matrix(rng, nrows, ncols, r, zero, draw):
    """An nrows x ncols matrix of rank at most r: random combinations of r rows."""
    base = _random_matrix(rng, r, ncols, 0.6, zero, draw)
    rows = []
    for _ in range(nrows):
        row = [zero] * ncols
        for b in base:
            if rng.random() < 0.7:
                f = draw(rng)
                row = [x + f * y for x, y in zip(row, b)]
        rows.append(row)
    return rows


def _invertible_matrix(rng, n, density, zero, draw):
    """Row-permuted L·U with nonzero diagonals and seeded off-diagonal entries."""
    lower = [[draw(rng) if i == j or (j < i and rng.random() < density) else zero for j in range(n)] for i in range(n)]
    upper = [[draw(rng) if i == j or (j > i and rng.random() < density) else zero for j in range(n)] for i in range(n)]
    m = mat_mul(lower, upper)
    rng.shuffle(m)
    return m


def _shapes(rng, zero, draw):
    """(name, matrix) pairs covering sparse, dense, wide, tall, square,
    rank-deficient and all-zero matrices, and the degenerate shapes."""
    shapes = [("no rows", []), ("zero columns", [[], [], []]), ("all zero", [[zero] * 5 for _ in range(4)])]
    for nrows, ncols in ((3, 7), (7, 3), (5, 5), (1, 6), (6, 1), (9, 12)):
        shapes.append((f"sparse {nrows}x{ncols}", _random_matrix(rng, nrows, ncols, 0.25, zero, draw)))
        shapes.append((f"dense {nrows}x{ncols}", _random_matrix(rng, nrows, ncols, 0.9, zero, draw)))
    for nrows, ncols, r in ((6, 6, 3), (8, 4, 2), (3, 9, 2), (10, 10, 7)):
        shapes.append((f"rank {r} {nrows}x{ncols}", _combination_matrix(rng, nrows, ncols, r, zero, draw)))
    return shapes


@pytest.fixture(params=SCALARS, ids=SCALAR_IDS)
def scalars(request):
    return request.param


# -- field routines against the reference ----------------------------------------------


class TestEliminationOracle:
    def test_rref_and_rank(self, scalars):
        name, zero, one, draw = scalars
        rng = random.Random(f"rref {name}")
        for _ in range(3):
            for shape, m in _shapes(rng, zero, draw):
                want = _reference_rref(m, zero)
                assert rref(m, zero) == want, shape
                assert rank(m, zero) == len(want[1]), shape

    def test_rref_leaves_its_input_alone(self, scalars):
        name, zero, one, draw = scalars
        rng = random.Random(f"input {name}")
        m = _random_matrix(rng, 5, 6, 0.5, zero, draw)
        copy = [list(row) for row in m]
        rref(m, zero)
        assert m == copy

    def test_kernel_basis(self, scalars):
        name, zero, one, draw = scalars
        rng = random.Random(f"kernel {name}")
        for _ in range(3):
            for shape, m in _shapes(rng, zero, draw):
                got = kernel_basis(m, zero, one)
                assert got == _reference_kernel_basis(m, zero, one), shape
                for vec in got:
                    assert all(sum((x * y for x, y in zip(row, vec)), zero) == zero for row in m)

    def test_solve_consistent(self, scalars):
        name, zero, one, draw = scalars
        rng = random.Random(f"solve {name}")
        for _ in range(3):
            for shape, m in _shapes(rng, zero, draw):
                ncols = len(m[0]) if m else 0
                x = [draw(rng) if rng.random() < 0.6 else zero for _ in range(ncols)]
                b = [sum((u * v for u, v in zip(row, x)), zero) for row in m]
                got = solve(m, b, zero)
                assert got is not None, shape
                assert got == _reference_solve(m, b, zero), shape

    def test_solve_inconsistent(self, scalars):
        name, zero, one, draw = scalars
        rng = random.Random(f"inconsistent {name}")
        for nrows, ncols, r in ((4, 4, 2), (6, 3, 2), (3, 5, 1)):
            m = _combination_matrix(rng, nrows, ncols, r, zero, draw)
            m[0] = [zero] * ncols
            b = [one] + [zero] * (nrows - 1)
            assert _reference_solve(m, b, zero) is None
            assert solve(m, b, zero) is None
        assert solve([], [one], zero) is None

    def test_inverse(self, scalars):
        name, zero, one, draw = scalars
        rng = random.Random(f"inverse {name}")
        for n in (1, 2, 3, 5, 8):
            for density in (0.3, 0.9):
                m = _invertible_matrix(rng, n, density, zero, draw)
                got = inverse(m, zero, one)
                assert got == _reference_inverse(m, zero, one)
                assert mat_mul(m, got) == [[one if i == j else zero for j in range(n)] for i in range(n)]
        assert inverse([], zero, one) == []

    def test_singular_inverse_raises(self, scalars):
        name, zero, one, draw = scalars
        rng = random.Random(f"singular {name}")
        for n, r in ((2, 1), (4, 3), (6, 2)):
            m = _combination_matrix(rng, n, n, r, zero, draw)
            assert _reference_inverse(m, zero, one) is None
            with pytest.raises(InternalInvariantError):
                inverse(m, zero, one)


class TestKernelModP:
    """``kernel_basis_mod_p`` on {column: int} rows against the oracle
    ``kernel_basis`` over ``Fq(p)`` on the same matrices."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
    def test_matches_the_field_kernel(self, p):
        name, zero, one, draw = _fq(p)
        rng = random.Random(f"kernel mod {p}")
        for _ in range(3):
            shapes = _shapes(rng, zero, draw)
            shapes += [(f"invertible {n}", _invertible_matrix(rng, n, 0.5, zero, draw)) for n in (1, 4, 7)]
            for shape, m in shapes:
                ncols = len(m[0]) if m else 0
                # entries off [0, p), and zero residues kept in the map, read mod p
                rows = [
                    {c: x.n + p * rng.randint(-2, 2) for c, x in enumerate(row) if x or rng.random() < 0.3}
                    for row in m
                ]
                want = [[x.n for x in vec] for vec in kernel_basis(m, zero, one)]
                assert kernel_basis_mod_p(rows, ncols, p) == want, shape

    @pytest.mark.parametrize("p", [2, 101])
    def test_no_rows_give_the_whole_space(self, p):
        assert kernel_basis_mod_p([], 3, p) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert kernel_basis_mod_p([{}, {1: p}], 2, p) == [[1, 0], [0, 1]]


class TestKernelOfColumnsModP:
    """``kernel_of_columns_mod_p`` on dense int columns spans the kernel that
    the oracle ``kernel_basis`` over ``Fq(p)`` finds on the same matrices,
    each vector in the kernel and the vectors independent."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
    def test_spans_the_field_kernel(self, p):
        name, zero, one, draw = _fq(p)
        field = Fq(p)
        rng = random.Random(f"column kernel mod {p}")
        for _ in range(3):
            shapes = _shapes(rng, zero, draw)
            shapes += [(f"invertible {n}", _invertible_matrix(rng, n, 0.5, zero, draw)) for n in (1, 4, 7)]
            for shape, m in shapes:
                if not m:
                    continue
                # entries off [0, p), read mod p
                columns = [[x.n + p * rng.randint(-2, 2) for x in col] for col in zip(*m)]
                got = kernel_of_columns_mod_p(columns, p)
                want = kernel_basis(m, zero, one)
                as_field = [[field.elem(x) for x in vec] for vec in got]
                assert rref(as_field, zero) == rref(want, zero), shape
                for vec in got:
                    assert all(sum(map(mul, row, vec)) % p == 0 for row in zip(*columns))

    @pytest.mark.parametrize("p", [2, 101])
    def test_zero_and_empty_columns(self, p):
        assert kernel_of_columns_mod_p([], p) == []
        assert kernel_of_columns_mod_p([[], []], p) == [[1, 0], [0, 1]]
        assert kernel_of_columns_mod_p([[p, 0], [1, 2]], p) == [[1, 0]]


class TestRrefModP:
    """``rref`` and ``rank`` given p, on dense int rows read mod p, against the
    same routines over ``Fq(p)`` on the same matrices."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
    def test_matches_the_field_form(self, p):
        name, zero, one, draw = _fq(p)
        rng = random.Random(f"rref mod {p}")
        for _ in range(3):
            shapes = _shapes(rng, zero, draw)
            shapes += [(f"invertible {n}", _invertible_matrix(rng, n, 0.5, zero, draw)) for n in (1, 4, 7)]
            for shape, m in shapes:
                # entries off [0, p), read mod p
                rows = [[x.n + p * rng.randint(-2, 2) for x in row] for row in m]
                reduced, pivots = rref(m, zero)
                assert rref(rows, 0, p) == ([[x.n for x in row] for row in reduced], pivots), shape
                assert rank(rows, 0, p) == len(pivots), shape


# -- Smith reduction over the valuation ring ---------------------------------------------


def _integral(m):
    return all(is_integral(x) for row in m for x in row)


def _unimodular(u, p):
    """Integral with an integral inverse, i.e. invertible over the valuation ring."""
    zero, one = ScalarKHat.zero(p), ScalarKHat.one(p)
    return _integral(u) and _integral(inverse(u, zero, one))


class TestSmithOverDVR:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_decomposition(self, p):
        name, zero, one, draw = _khat(p)
        rng = random.Random(f"smith {p}")
        shapes = [(3, 3), (2, 5), (5, 2), (4, 4), (6, 6)]
        for nrows, ncols in shapes:
            for density in (0.5, 1.0):
                m = _random_matrix(rng, nrows, ncols, density, zero, draw)
                u, evals = smith_over_dvr(m)
                assert len(u) == nrows
                assert evals == sorted(evals)
                assert _unimodular(u, p)
                assert len(evals) == rank(m, zero)
                # A unimodular v with m = u * d * v exists exactly when the
                # rows of w = u^-1 * m past len(evals) vanish and the rest,
                # scaled by pihat^(-evals[t]), are integral with reductions
                # mod pihat independent over F_p.
                w = mat_mul(inverse(u, zero, one), m)
                assert all(x.is_zero() for row in w[len(evals):] for x in row)
                scaled = [
                    [x * ScalarKHat.pihat(p, -e) for x in row]
                    for row, e in zip(w, evals)
                ]
                assert _integral(scaled)
                field = Fq(p)
                reduced = [[field.from_int(reduce_mod_pihat(x)) for x in row] for row in scaled]
                assert rank(reduced, field.zero()) == len(evals)

    def test_empty(self):
        assert smith_over_dvr([]) == ([], [])
