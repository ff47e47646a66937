import sys

from kronq.laurent import ONE, ZERO, LaurentPoly, parse_poly
from kronq.oracle import _subspace_bases
from kronq.qbinom import gauss, gauss_int


def test_defining_values():
    assert gauss(0, 7) == ONE
    assert gauss(-2, 5) == ZERO
    assert gauss(2, 1) == ZERO
    assert gauss(1, 2) == parse_poly("q + 1")
    assert gauss(2, 4) == parse_poly("q^4 + q^3 + 2*q^2 + q + 1")
    assert gauss(1, -1) == parse_poly("-q^-1")


def _gauss_by_product(l: int, a: int) -> LaurentPoly:
    # direct expansion of the defining product in the Laurent ring
    if l < 0:
        return ZERO
    if l == 0:
        return ONE
    num = ONE
    for i in range(l):
        e = a - i
        num = num * (LaurentPoly.monomial(e) - 1)
    den = ONE
    for i in range(1, l + 1):
        den = den * (LaurentPoly.monomial(i) - 1)
    return num.divexact(den)


def test_negative_upper_argument_reflection_matches_product():
    # the q-Pascal rule and the reflection used internally must agree with
    # the defining product
    for l in range(0, 9):
        for a in range(-12, 25):
            if 0 <= a < l:
                assert gauss(l, a) == ZERO
                continue
            assert gauss(l, a) == _gauss_by_product(l, a), (l, a)


def test_deep_upper_argument_within_default_recursion_limit():
    # CPython's default limit; gauss must not recurse once per step of a
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        expected = _gauss_by_product(2, 1500)
        assert gauss(2, 1500) == expected
        assert gauss(1498, 1500) == expected
    finally:
        sys.setrecursionlimit(limit)


def test_symmetry():
    for a in range(0, 9):
        for l in range(0, 9):
            assert gauss(l, a) == gauss(a - l, a)


def test_cross_product_identity():
    for a in range(-6, 7):
        for l in range(-6, 7):
            for j in range(-6, 7):
                lhs = gauss(l, a) * gauss(j, l)
                rhs = gauss(j, a) * gauss(l - j, a - j)
                assert lhs == rhs, (a, l, j)


def test_q_vandermonde_identity():
    # sum over j bounded by vanishing of the lower indices: 0 <= j <= l
    for l in range(-6, 7):
        for a in range(-6, 7):
            for b in range(-6, 7):
                rhs = ZERO
                for j in range(0, max(l, -1) + 1):
                    term = gauss(l - j, a) * gauss(j, b)
                    rhs = rhs + term.shift(j * (a - l + j))
                assert gauss(l, a + b) == rhs, (l, a, b)


def test_counting_subspaces_at_primes():
    for p in (2, 3):
        for n in range(0, 6):
            for k in range(0, n + 1):
                assert gauss_int(k, n, p) == len(_subspace_bases(n, k, p))


def test_memoized_results_are_stable():
    first = gauss(3, 7)
    assert gauss(3, 7) == first
    assert gauss(3, 7) is first
