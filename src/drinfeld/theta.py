"""The (k+1)-fold derivative operator carrying weight -k to weight k+2: its
vertex-level valuation amplification and the Euler-operator factorization
identity.  Its kernel on polynomials is those of degree at most k."""

from __future__ import annotations

from math import prod

from .errors import InvalidParameters, ZeroFunction
from .rational import FactoredRational, gauss_valuation, tube_coordinate_level
from .scalars import INF, ScalarKHat


def theta(f: FactoredRational, k: int) -> FactoredRational:
    """(k+1)-st derivative."""
    if k < 0:
        raise InvalidParameters("k must be nonnegative")
    return f.derivative(k + 1)


def theta_integrality(f: FactoredRational, image: FactoredRational, k: int, v: tuple) -> dict:
    """Certificate for f and its image theta(f, k): on a tube of coordinate
    scale n, an input of valuation >= -k*n/2 must map to an output of
    valuation >= (k+2)*n/2.  Its valuations and bounds are doubled, 2*omega
    (INF for the zero image), and halved only when printed.

    The scale n ("level") is the tube coordinate level of the vertex of label
    v: each of the k+1 derivatives shifts the Gauss valuation on the tube by
    at least n, so the bound follows from -k*n/2 + (k+1)*n = (k+2)*n/2.  On
    the diagonal axis the scale coincides with the vertex level."""
    if f.is_zero():
        raise ZeroFunction("integrality is only defined for nonzero sections")
    n = tube_coordinate_level(v)
    in_bound, out_bound = -k * n, (k + 2) * n
    in_val = gauss_valuation(f, v)
    out_val = INF if image.is_zero() else gauss_valuation(image, v)
    applicable = in_val >= in_bound
    return {"level": n, "input_valuation": in_val, "input_bound": in_bound, "output_valuation": out_val,
            "output_bound": out_bound, "applicable": applicable, "passes": not applicable or out_val >= out_bound}


def complement_b_identity(k: int, a: ScalarKHat, m_values, p: int) -> bool:
    """Check the factorization of the conjugated operator through the Euler
    operator at a: both sides act on powers of (z-a) by scalars, the left side
    by the falling product over k+1 consecutive values, the right side by
    m times the product of (m^2 - j^2).

    Verified two ways for each exponent m: as exact integer scalars, and as an
    identity of rational functions built with the actual derivative operator.
    """
    if k <= 0 or k % 2:
        raise InvalidParameters("the identity is stated for positive even k")
    half = k // 2
    lin = FactoredRational(p, ScalarKHat.one(p), [(a, 1)])
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
