"""Closed product formulas for submodule counts of indecomposables.

Each count is a product of two Gaussian coefficients, with the boundary
cases that the product does not cover written out explicitly.  The results
are ordinary polynomials in q with nonnegative coefficients; specializing
at q = 1 gives the Euler characteristic of the corresponding complex
variety, which also has a direct binomial-product expression.
"""

from __future__ import annotations

from .laurent import ONE, ZERO, LaurentPoly
from .qbinom import gauss

__all__ = [
    "count_preprojective",
    "count_preinjective",
    "count_regular_deg1",
    "euler_char_formula",
    "generalized_binomial",
]


def count_preprojective(n: int, a: int, b: int) -> LaurentPoly:
    """Submodules of P_n with dimension vector (a, b), as a polynomial."""
    if a < 0 or b < 0:
        return ZERO
    if a == 0 and b == 0:
        return ONE
    return gauss(n + 1 - a, n + 1 - b) * gauss(a - b - 1, a - 1)


def count_preinjective(n: int, a: int, b: int) -> LaurentPoly:
    """Submodules of I_n with dimension vector (a, b): by duality, those of
    P_n with dimension vector (n + 1 - b, n - a)."""
    return count_preprojective(n, n + 1 - b, n - a)


def count_regular_deg1(t: int, a: int, b: int) -> LaurentPoly:
    """Submodules of the uniserial R_p(t) at a degree-1 point.

    Points of higher degree have no such product formula; the engine
    routes those through Hall polynomials instead.
    """
    if a < 0 or b < 0:
        return ZERO
    return gauss(t - a, t - b) * gauss(a - b, a)


def generalized_binomial(top: int, k: int) -> int:
    """Binomial coefficient extended to negative upper argument.

    Zero for k < 0; for top < 0 uses (-1)^k * C(k - top - 1, k).  This is
    exactly the q = 1 specialization of :func:`kronq.qbinom.gauss`.
    """
    if k < 0:
        return 0
    if top < 0:
        sign = -1 if k % 2 else 1
        return sign * generalized_binomial(k - top - 1, k)
    if k > top:
        return 0
    out = 1
    for i in range(1, k + 1):
        out = out * (top - i + 1) // i
    return out


_KINDS = ("preprojective", "preinjective", "regular_deg1")


def euler_char_formula(kind: str, index: int, a: int, b: int) -> int:
    """The same Euler characteristics as binomial products, computed
    directly in integer arithmetic (no polynomials involved)."""
    C = generalized_binomial
    n = index
    if kind == "preprojective":
        if a < 0 or b < 0:
            return 0
        if a == 0 and b == 0:
            return 1
        return C(n + 1 - b, n + 1 - a) * C(a - 1, a - b - 1)
    if kind == "preinjective":
        if a > n or b > n + 1:
            return 0
        if a == n and b == n + 1:
            return 1
        return C(n - b, a - b) * C(a + 1, b)
    if kind == "regular_deg1":
        if a < 0 or b < 0:
            return 0
        return C(n - b, n - a) * C(a, a - b)
    raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
