"""Gaussian (q-binomial) coefficients for arbitrary integer arguments.

``gauss(l, a)`` is the q-analogue of "a choose l".  For 0 <= l <= a it is the
ordinary polynomial counting l-dimensional subspaces of an a-dimensional
space over a field with q elements, built by the q-Pascal rule

    gauss(l, a) = gauss(l - 1, a - 1) + q^l * gauss(l, a - 1)

(Andrews, *The Theory of Partitions*, ch. 3), which needs only additions
and shifts.  For a < 0 it is a Laurent polynomial, +-q^k times an ordinary
Gaussian coefficient, given by the defining product of (q^i - 1) factors.
"""

from __future__ import annotations

from functools import cache
from math import comb

from .laurent import ONE, ZERO, LaurentPoly, _limb_width, _unpack

__all__ = ["gauss", "gauss_int"]


@cache
def gauss(l: int, a: int) -> LaurentPoly:
    """Gaussian coefficient with lower index l and upper index a.

    Conventions: 0 for l < 0, 1 for l == 0, 0 for 0 <= a < l.  Negative
    upper arguments reduce through the reflection

        gauss(l, a) = (-1)^l * q^(l*a - l*(l-1)/2) * gauss(l, -a + l - 1),

    which the test suite validates against direct expansion of the
    defining product in the Laurent ring.

    For 0 <= l <= a the q-Pascal rule runs over one row of packed ints:
    after k steps, ``row[j]`` holds gauss(j, j + k) with coefficients as
    limbs of ``width`` bytes.  No coefficient of the rectangle exceeds the
    value at q = 1, comb(a, l), so limbs never carry.  The loop keeps the
    recursion depth fixed whatever a is.
    """
    if l < 0:
        return ZERO
    if l == 0:
        return ONE
    if a < 0:
        g = gauss(l, -a + l - 1).shift(l * a - l * (l - 1) // 2)
        return -g if l % 2 else g
    if a < l:
        return ZERO
    l = min(l, a - l)
    width = _limb_width(comb(a, l))
    row = [1] * (l + 1)
    for _ in range(a - l):
        for j in range(1, l + 1):
            row[j] = row[j - 1] + (row[j] << 8 * width * j)
    return LaurentPoly.dense(0, _unpack(row[l], width, l * (a - l) + 1))


@cache
def gauss_int(l: int, a: int, q0: int) -> int:
    """gauss(l, a) evaluated exactly at an integer q0 >= 2."""
    return gauss(l, a).eval_integer(q0)
