"""Dense polynomials in one variable: coefficient tuples, little-endian, with
no trailing zeros; () is zero.  Coefficients (``ScalarKHat``, int, and
``FqElem`` in ``modp``'s equivariance check only) need +, -, *, negation,
``inverse()`` and to be false exactly at zero; callers pass ``zero``/``one``
where a routine builds coefficients.  Here are the ring operations, division
with remainder, and the shift that ``rational.principal_parts`` expands with.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from .errors import InvalidParameters

T = TypeVar("T")

Poly = tuple  # tuple[T, ...]


def trim(coeffs: Sequence[T]) -> Poly:
    n = len(coeffs)
    while n > 0 and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def add(u: Poly, v: Poly) -> Poly:
    if len(u) < len(v):
        u, v = v, u
    out = list(u)
    for i, x in enumerate(v):
        out[i] = out[i] + x
    return trim(out)


def scale(u: Poly, s: T) -> Poly:
    return trim([x * s for x in u])


def mul(u: Poly, v: Poly, zero: T) -> Poly:
    """u * v, skipping the zero coefficients of u."""
    if not u or not v:
        return ()
    out = [zero] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        if not x:
            continue
        for j, y in enumerate(v):
            out[i + j] = out[i + j] + x * y
    return trim(out)


def power(u: Poly, n: int, zero: T, one: T) -> Poly:
    """u^n by binary exponentiation; u^0 = (one,), also for u = ()."""
    if n < 0:
        raise InvalidParameters("negative polynomial power")
    out: Poly = (one,)
    while n:
        if n & 1:
            out = mul(out, u, zero)
        n >>= 1
        if n:
            u = mul(u, u, zero)
    return out


def derivative(u: Poly, one: T) -> Poly:
    out, i = [], one
    for c in u[1:]:
        out.append(c * i)
        i = i + one
    return trim(out)


def divmod(u: Poly, v: Poly, zero: T) -> tuple[Poly, Poly]:
    """(q, r) with u = q v + r and deg r < deg v, by long division in place."""
    if not v:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(v) - 1
    inv_lead = v[-1].inverse()
    r = list(u)
    q = [zero] * max(0, len(r) - n)
    for j in reversed(range(len(q))):
        x = r[j + n]
        if x:
            c = x * inv_lead
            q[j] = c
            for i in range(n):
                r[j + i] = r[j + i] - c * v[i]
    return trim(q), trim(r[:n])


def shift(u: Poly, x0: T, upto: int) -> Poly:
    """Coefficients of u(x0 + w) in w below degree `upto`: the remainders of
    repeated synthetic division by z - x0."""
    out = []
    rest = list(u)
    while rest and len(out) < upto:
        acc = rest[-1]
        quotient = [acc]
        for c in reversed(rest[:-1]):
            acc = acc * x0 + c
            quotient.append(acc)
        out.append(quotient.pop())
        rest = quotient[::-1]
    return trim(out)
