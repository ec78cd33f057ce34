"""Exact linear algebra: the sparse Gauss-Jordan elimination over F_p and
everything built on it, checked against the dense reference elimination of
``oracles``, which is itself checked over F_q, K̂ and the rationals; and
Smith reduction over the valuation ring of K̂."""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul

import pytest

from drinfeld.errors import InternalInvariantError
from drinfeld.linalg import kernel_basis_mod_p, kernel_of_columns_mod_p, rank, rank_up_to, rref
from drinfeld.scalars import Fq, ScalarKHat
from oracles import (
    dense_kernel_basis_mod_p,
    densify,
    field_elements,
    inverse,
    is_integral,
    kernel_basis,
    khat,
    mat_mul,
    reduce_mod_pihat,
    reference_rank,
    reference_rref,
    smith_over_dvr,
    solve,
)

# -- seeded scalars and matrices ------------------------------------------------------


def _fq(q):
    field = Fq(q)
    units = [x for x in field_elements(field) if x != field.zero()]
    return f"F{q}", field.zero(), field.one(), lambda rng: rng.choice(units)


def _khat(p):
    zero, one = ScalarKHat.zero(p), ScalarKHat.one(p)

    def rational(rng):
        return Fraction(rng.randint(-3 * p, 3 * p), p ** rng.randint(0, 2)) * p ** rng.randint(0, 1)

    def unit(rng):
        while True:
            x = khat(p, rational(rng), rational(rng) if rng.random() < 0.7 else 0)
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


# -- the reference, and the elimination mod p against it --------------------------------


def _prime(name):
    """p for the prime field F_p of these scalars, else None."""
    return int(name[1:]) if name[0] == "F" and Fq(int(name[1:])).f == 1 else None


def _dot(row, vec, zero):
    return sum((x * y for x, y in zip(row, vec)), zero)


def _check_reduced_form(m, reduced, pivots, zero, one):
    """``reduced`` is in reduced row echelon form with these pivots, and each
    row of m is the combination of the pivot rows whose coefficients are its
    own entries at the pivot columns; the rank is that of the transpose, so
    no pivot row is spurious."""
    assert pivots == sorted(set(pivots)) and len(reduced) == len(m)
    for i, row in enumerate(reduced):
        if i >= len(pivots):
            assert all(x == zero for x in row)
            continue
        c = pivots[i]
        assert row[c] == one and all(x == zero for x in row[:c])
        assert all(other[c] == zero for j, other in enumerate(reduced) if j != i)
    for row in m:
        if pivots:
            combination = [_dot([row[c] for c in pivots], column, zero) for column in zip(*reduced[: len(pivots)])]
            assert combination == row
        else:
            assert all(x == zero for x in row)
    if m and m[0]:
        assert reference_rank([list(col) for col in zip(*m)], zero) == len(pivots)


class TestEliminationOracle:
    """The reference elimination over each field's own scalars, and
    ``rref``, ``rank`` and ``kernel_basis_mod_p`` on int residues against it
    over a prime field."""

    def test_rref_and_rank(self, scalars):
        name, zero, one, draw = scalars
        p = _prime(name)
        rng = random.Random(f"rref {name}")
        for _ in range(3):
            for shape, m in _shapes(rng, zero, draw):
                reduced, pivots = reference_rref(m, zero)
                _check_reduced_form(m, reduced, pivots, zero, one)
                if p:
                    # entries off [0, p), read mod p
                    rows = [[x.n + p * rng.randint(-2, 2) for x in row] for row in m]
                    assert rref(rows, p) == ([[x.n for x in row] for row in reduced], pivots), shape
                    assert rank(rows, p) == len(pivots), shape

    def test_rref_leaves_its_input_alone(self, scalars):
        name, zero, one, draw = scalars
        p = _prime(name)
        rng = random.Random(f"input {name}")
        m = _random_matrix(rng, 5, 6, 0.5, zero, draw)
        copy = [list(row) for row in m]
        reference_rref(m, zero)
        assert m == copy
        if p:
            rows = [[x.n + p for x in row] for row in m]
            copy = [list(row) for row in rows]
            rref(rows, p)
            assert rows == copy

    def test_kernel_basis(self, scalars):
        name, zero, one, draw = scalars
        p = _prime(name)
        rng = random.Random(f"kernel {name}")
        for _ in range(3):
            for shape, m in _shapes(rng, zero, draw):
                got = kernel_basis(m, zero, one)
                ncols = len(m[0]) if m else 0
                free = [c for c in range(ncols) if c not in reference_rref(m, zero)[1]]
                assert len(got) == len(free), shape
                for fc, vec in zip(free, got):
                    assert [vec[c] for c in free] == [one if c == fc else zero for c in free], shape
                    assert all(_dot(row, vec, zero) == zero for row in m), shape
                if p:
                    sparse = [{c: x.n for c, x in enumerate(row) if x} for row in m]
                    want = [[x.n for x in vec] for vec in got]
                    assert densify(kernel_basis_mod_p(sparse, ncols, p)) == want, shape

    def test_solve_consistent(self, scalars):
        name, zero, one, draw = scalars
        rng = random.Random(f"solve {name}")
        for _ in range(3):
            for shape, m in _shapes(rng, zero, draw):
                ncols = len(m[0]) if m else 0
                x = [draw(rng) if rng.random() < 0.6 else zero for _ in range(ncols)]
                b = [_dot(row, x, zero) for row in m]
                got = solve(m, b, zero)
                assert got is not None, shape
                assert [_dot(row, got, zero) for row in m] == b, shape
                # the free variables are 0
                pivots = reference_rref(m, zero)[1]
                assert all(v == zero for c, v in enumerate(got) if c not in pivots), shape

    def test_solve_inconsistent(self, scalars):
        name, zero, one, draw = scalars
        rng = random.Random(f"inconsistent {name}")
        for nrows, ncols, r in ((4, 4, 2), (6, 3, 2), (3, 5, 1)):
            m = _combination_matrix(rng, nrows, ncols, r, zero, draw)
            m[0] = [zero] * ncols
            b = [one] + [zero] * (nrows - 1)
            assert solve(m, b, zero) is None
        assert solve([], [one], zero) is None

    def test_inverse(self, scalars):
        name, zero, one, draw = scalars
        rng = random.Random(f"inverse {name}")
        for n in (1, 2, 3, 5, 8):
            for density in (0.3, 0.9):
                m = _invertible_matrix(rng, n, density, zero, draw)
                got = inverse(m, zero, one)
                identity = [[one if i == j else zero for j in range(n)] for i in range(n)]
                assert mat_mul(m, got) == mat_mul(got, m) == identity
        assert inverse([], zero, one) == []

    def test_singular_inverse_raises(self, scalars):
        name, zero, one, draw = scalars
        rng = random.Random(f"singular {name}")
        for n, r in ((2, 1), (4, 3), (6, 2)):
            m = _combination_matrix(rng, n, n, r, zero, draw)
            assert reference_rank(m, zero) <= r
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
                assert densify(kernel_basis_mod_p(rows, ncols, p)) == want, shape

    @pytest.mark.parametrize("p", [2, 101])
    def test_no_rows_give_the_whole_space(self, p):
        assert densify(kernel_basis_mod_p([], 3, p)) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert densify(kernel_basis_mod_p([{}, {1: p}], 2, p)) == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_sparse_vectors_match_the_dense_loop(self, p):
        """Densified, the basis is what the dense loop of ``oracles`` builds,
        at every width from 0 to 12, for no rows, zero rows, random sparse
        rows and rows of full rank; each vector stores only nonzero
        residues, and has the width given."""
        rng = random.Random(f"sparse kernel mod {p}")
        for ncols in range(13):
            cases = [[], [{}, {c: p for c in range(ncols)}]]
            for nrows in range(1, ncols + 2):
                cases.append([
                    {c: rng.randrange(-2 * p, 2 * p) for c in range(ncols) if rng.random() < 0.3}
                    for _ in range(nrows)
                ])
            # full rank: a unit triangle under a random part, in shuffled columns
            order = rng.sample(range(ncols), ncols)
            rank = rng.randint(0, ncols)
            cases.append([
                {order[r]: rng.randrange(1, p), **{order[c]: rng.randrange(p) for c in range(r + 1, ncols)}}
                for r in range(rank)
            ])
            for rows in cases:
                got = kernel_basis_mod_p(rows, ncols, p)
                assert got.ncols == ncols
                assert densify(got) == dense_kernel_basis_mod_p(rows, ncols, p), (ncols, rows)
                assert all(0 <= c < ncols and 0 < x < p for vec in got.rows for c, x in vec.items())


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
                assert reference_rref(as_field, zero) == reference_rref(want, zero), shape
                for vec in got:
                    assert all(sum(map(mul, row, vec)) % p == 0 for row in zip(*columns))

    @pytest.mark.parametrize("p", [2, 101])
    def test_zero_and_empty_columns(self, p):
        assert kernel_of_columns_mod_p([], p) == []
        assert kernel_of_columns_mod_p([[], []], p) == [[1, 0], [0, 1]]
        assert kernel_of_columns_mod_p([[p, 0], [1, 2]], p) == [[1, 0]]


class TestRrefModP:
    """``rref`` and ``rank`` on dense int rows read mod p, against the
    reference form over ``Fq(p)`` of the same matrices."""

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
                reduced, pivots = reference_rref(m, zero)
                assert rref(rows, p) == ([[x.n for x in row] for row in reduced], pivots), shape
                assert rank(rows, p) == len(pivots), shape

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
    def test_rank_up_to_stops_at_its_bound(self, p):
        """``rank_up_to`` is min(rank, bound), and reads no row past the one
        that brings the rank to the bound."""
        name, zero, one, draw = _fq(p)
        rng = random.Random(f"rank up to {p}")
        for _ in range(3):
            for shape, m in _shapes(rng, zero, draw):
                rows = [[x.n + p * rng.randint(-2, 2) for x in row] for row in m]
                maps = [dict(enumerate(row)) for row in rows]
                full = len(reference_rref(m, zero)[1])
                for bound in range(full + 2):
                    read = []
                    got = rank_up_to((read.append(row) or row for row in maps), p, bound)
                    assert got == min(full, bound), (shape, bound)
                    assert read == maps[: len(read)], (shape, bound)
                    if got < bound:
                        assert read == maps, (shape, bound)
                    elif bound:  # the last row read brought the rank to the bound
                        assert rank(rows[: len(read) - 1], p) < bound, (shape, bound)
                    else:
                        assert not read, shape


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
                assert len(evals) == reference_rank(m, zero)
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
                reduced = [[reduce_mod_pihat(x) for x in row] for row in scaled]
                assert rank(reduced, p) == len(evals)

    def test_empty(self):
        assert smith_over_dvr([]) == ([], [])
