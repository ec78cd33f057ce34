"""The (k+1)-fold derivative operator carrying weight -k to weight k+2: its
polynomial kernel, equivariance with a unit-character correction, vertex-level
valuation amplification, the Euler-operator factorization identity, and the
vanishing of residues on its image."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .errors import InvalidParameters, ZeroFunction
from .harmonic import res0
from .linalg import kernel_basis
from .rational import (
    FactoredRational,
    automorphic_act,
    gauss_valuation,
    tube_coordinate_level,
)
from .scalars import INF, ScalarKHat
from .symrep import epsilon
from .tree import Mat2, TruncatedTree, Vertex


def theta(f: FactoredRational, k: int) -> FactoredRational:
    """(k+1)-st derivative."""
    if k < 0:
        raise InvalidParameters("k must be nonnegative")
    return f.derivative(k + 1)


def kernel_polynomial_dimension(k: int, p: int = 2) -> int:
    """Dimension of the kernel of the operator on polynomials of degree up to
    k+3, computed by exact rank."""
    cap = k + 3
    zero, one = ScalarKHat.zero(p), ScalarKHat.one(p)
    rows = []
    # row r = coefficient of z^r in theta(z^c), columns c = 0..cap
    out_len = max(1, cap - k)
    for r in range(out_len):
        row = []
        for c in range(cap + 1):
            if c - (k + 1) == r:
                row.append(ScalarKHat.from_rational(
                    prod(range(c - k, c + 1)), p
                ))
            else:
                row.append(zero)
        rows.append(row)
    return len(kernel_basis(rows, zero, one))


def bol_identity_check(g: Mat2, f: FactoredRational, k: int) -> bool:
    """theta intertwines the weighted actions up to the unit character of the
    determinant raised to k+1: applying theta after the weight-(-k) action
    equals epsilon(g)^(k+1) times the weight-(k+2) action after theta."""
    p = f.p
    lhs = theta(automorphic_act(g, f, -k), k)
    rhs = automorphic_act(g, theta(f, k), k + 2) * epsilon(g, p) ** (k + 1)
    return lhs == rhs


@dataclass(frozen=True)
class ThetaCertificate:
    vertex: Vertex
    level: int
    input_valuation: Fraction | float
    input_bound: Fraction
    output_valuation: Fraction | float
    output_bound: Fraction
    applicable: bool
    passes: bool


def theta_integrality(f: FactoredRational, k: int, v: Vertex) -> ThetaCertificate:
    """On a tube of coordinate scale n, an input of valuation >= -k*n/2 must
    map to an output of valuation >= (k+2)*n/2.

    The scale n is the tube coordinate level of the vertex: each of the k+1
    derivatives shifts the Gauss valuation on the tube by at least n, so the
    bound follows from -k*n/2 + (k+1)*n = (k+2)*n/2.  On the diagonal axis the
    scale coincides with the vertex level."""
    if f.is_zero():
        raise ZeroFunction("integrality is only defined for nonzero sections")
    n = tube_coordinate_level(v)
    in_bound = Fraction(-k * n, 2)
    out_bound = Fraction((k + 2) * n, 2)
    in_val = gauss_valuation(f, v)
    image = theta(f, k)
    out_val = INF if image.is_zero() else gauss_valuation(image, v)
    applicable = in_val >= in_bound
    passes = (not applicable) or out_val >= out_bound
    return ThetaCertificate(
        vertex=v,
        level=n,
        input_valuation=in_val,
        input_bound=in_bound,
        output_valuation=out_val,
        output_bound=out_bound,
        applicable=applicable,
        passes=passes,
    )


def complement_b_identity(
    k: int, a, m_values, p: int = 2
) -> bool:
    """Check the factorization of the conjugated operator through the Euler
    operator at a: both sides act on powers of (z-a) by scalars, the left side
    by the falling product over k+1 consecutive values, the right side by
    m times the product of (m^2 - j^2).

    Verified two ways for each exponent m: as exact integer scalars, and as an
    identity of rational functions built with the actual derivative operator.
    """
    if k <= 0 or k % 2:
        raise InvalidParameters("the identity is stated for positive even k")
    root = a if isinstance(a, ScalarKHat) else ScalarKHat.from_rational(a, p)
    half = k // 2
    lin = FactoredRational(p, ScalarKHat.one(p), [(root, 1)])
    for m in m_values:
        lhs_scalar = prod(half + m - i for i in range(k + 1))
        rhs_scalar = m * prod(m * m - j * j for j in range(1, half + 1))
        if lhs_scalar != rhs_scalar:
            return False
        functional_lhs = lin ** (half + 1) * theta(lin ** (half + m), k)
        functional_rhs = lin**m * ScalarKHat.from_rational(rhs_scalar, p)
        if not functional_lhs == functional_rhs:
            return False
    return True


def res_kills_theta(f: FactoredRational, k: int, tree: TruncatedTree) -> bool:
    """Residue cochain of the theta image is identically zero."""
    return res0(theta(f, k), k, tree).is_zero()
