"""Degree-k symmetric powers of the standard 2-dimensional representation:
the substitution matrix of any g over any coefficients, and the power of a
lower triangular g applied to a vector without building it.

Basis conventions: polynomials use the monomials X^i Y^(k-i) (i = 0..k);
dual vectors are coordinate lists against the dual basis h_j = (X^j Y^(k-j))^*.
Matrices act on coordinate columns; the dual action of g is sym(g^-1)^T.  The
lattices and residues take powers only of lower triangular matrices, whose
entries ``lattices`` reads in closed form from a table of p-adic factorials
or applies unbuilt (``triangular_apply``), so the quadratic extension enters
through one exponent of pihat.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from . import poly
from .errors import InvalidParameters
from .linalg import Matrix, transpose

T = TypeVar("T")


def substitution_matrix(a: T, b: T, c: T, d: T, k: int, from_int: Callable[[int], T]) -> Matrix:
    """Matrix of F(X, Y) -> F(dX + bY, cX + aY) on homogeneous degree-k forms.

    Column i holds the monomial coefficients of (dX+bY)^i (cX+aY)^(k-i): the
    product of two rows of the power tables below, O(k^3) products in all.
    A degree-n form F is the polynomial F(t, 1), so xX + yY is (y, x).
    """
    if k < 0:
        raise InvalidParameters("degree must be >= 0")
    zero = from_int(0)
    left, right = [(from_int(1),)], [(from_int(1),)]
    for _ in range(k):
        left.append(poly.mul(left[-1], (b, d), zero))
        right.append(poly.mul(right[-1], (a, c), zero))
    cols = []
    for i in range(k + 1):
        col = poly.mul(left[i], right[k - i], zero)
        cols.append(list(col) + [zero] * (k + 1 - len(col)))
    return transpose(cols)  # rows indexed by monomial, columns by source index


def triangular_apply(a: int, c: int, d: int, vec: list, transposed: bool = False) -> list:
    """M * vec, or M^T * vec if ``transposed``, for the unbuilt lower triangular M =
    ``substitution_matrix(a, 0, c, d, k, int)``, k = len(vec) - 1, in O(k^2) steps:
    M * vec is sum_i d^i vec[i] t^i (a + c t)^(k-i), by Horner's rule; M^T * vec is
    d^j sum_m C(k-j, m) c^m a^(k-j-m) vec[j+m] at j, by Pascal's rule in u = vec:
    n steps of u <- a u[j] + c u[j+1] leave that sum in u[k-n]."""
    out = []
    if transposed:
        for n in range(len(vec) - 1, -1, -1):
            out.append(vec[-1] * d**n)
            vec = [a * x + c * y for x, y in zip(vec, vec[1:])] if n else vec
        return out[::-1]
    for i, x in enumerate(vec):
        out = [a * y + c * z for y, z in zip(out + [0], [0] + out)]
        out[-1] += d**i * x
    return out
