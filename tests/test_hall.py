import time
from fractions import Fraction

import pytest

import kronq.hall as hall
from kronq.abelian import subgroup_census
from kronq.hall import (
    _n,
    _subgroups,
    _weight_sums,
    hall_polynomial,
    hall_vanishes,
    regular_diagonal_count,
    subpartitions,
)
from kronq.laurent import ONE, ZERO, parse_poly
from kronq.model import conjugate_parts, parse_module


def _partitions_up_to(weight):
    out = [()]
    for w in range(1, weight + 1):
        def grow(remaining, cap, acc):
            if remaining == 0:
                out.append(tuple(acc))
                return
            for p in range(min(cap, remaining), 0, -1):
                acc.append(p)
                grow(remaining - p, p, acc)
                acc.pop()

        grow(w, w, [])
    return out


def test_subpartitions():
    assert set(subpartitions((2, 1))) == {(), (1,), (2,), (1, 1), (2, 1)}
    assert subpartitions(()) == ((),)


def test_fixed_values():
    assert hall_polynomial((1, 1), (1,), (1,)) == parse_poly("x + 1", var="x")
    assert hall_polynomial((2,), (1,), (1,)) == ONE
    for lam in [(3,), (2, 1), (2, 2, 1)]:
        assert hall_polynomial(lam, (), lam) == ONE
        assert hall_polynomial(lam, lam, ()) == ONE
    assert hall_polynomial((2,), (2,), (1,)) == ZERO


def test_regression_value_from_interpolation():
    # independently recompute g for lam=(2,1), mu=(1,1), nu=(1) from
    # subgroup counts at four primes by Lagrange interpolation
    lam, mu, nu = (2, 1), (1, 1), (1,)
    xs = [2, 3, 5, 7]
    ys = [subgroup_census(lam, p).get((mu, nu), 0) for p in xs]
    # interpolate exactly over the rationals
    def lagrange_eval_poly():
        coeffs = [Fraction(0)] * len(xs)
        for i, (xi, yi) in enumerate(zip(xs, ys)):
            num = [Fraction(1)]
            den = Fraction(1)
            for j, xj in enumerate(xs):
                if j == i:
                    continue
                num = [Fraction(0)] + num
                for k in range(len(num) - 1):
                    num[k] -= num[k + 1] * xj
                den *= xi - xj
            for k in range(len(num)):
                coeffs[k] += num[k] * yi / den
        return coeffs

    coeffs = lagrange_eval_poly()
    got = hall_polynomial(lam, nu, mu)
    for k, c in enumerate(coeffs):
        assert c.denominator == 1
        assert got.coefficient(k) == c.numerator
    # frozen regression: the count is the single socle subgroup
    assert got == ONE


def test_many_equal_rows_stay_cheap():
    # the only subgroup of type (1^12) in (Z/p^2)^12 is p times the group;
    # sigma = (1^12) with a 12-box strip has C(24, 12) row subsets but 13
    # vertical strips
    started = time.perf_counter()
    assert hall_polynomial((2,) * 12, (1,) * 12, (1,) * 12) == ONE
    assert time.perf_counter() - started < 1


def test_cold_weight_20_stays_cheap():
    # every cache the computation reads starts empty, gauss's included
    for f in vars(hall).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    started = time.perf_counter()
    g = hall_polynomial((5, 5, 4, 3, 2, 1), (4, 3, 2, 1), (4, 3, 2, 1))
    assert time.perf_counter() - started < 0.25
    assert g == parse_poly("16*q^15 + 31*q^14 - 9*q^13 - 46*q^12 - 10*q^11 + 21*q^10 + 7*q^9 - 2*q^8")


@pytest.mark.parametrize(
    "lam, nu, mu, want",
    [
        ((6, 5, 4, 3, 2, 1), (4, 3, 2, 1), (5, 3, 2, 1),
         "24*q^15 + 20*q^14 - 39*q^13 - 27*q^12 + 23*q^11 + 10*q^10 - 5*q^9"),
        ((5, 5, 4, 3, 2, 1), (4, 3, 2, 1), (4, 3, 2, 1),
         "16*q^15 + 31*q^14 - 9*q^13 - 46*q^12 - 10*q^11 + 21*q^10 + 7*q^9 - 2*q^8"),
        ((3, 3, 3, 3, 3, 3), (2, 2, 2, 1, 1, 1), (2, 2, 2, 1, 1, 1),
         "q^9 + q^8 + 2*q^7 + 3*q^6 + 3*q^5 + 3*q^4 + 3*q^3 + 2*q^2 + q + 1"),
        ((3, 3, 3, 3, 3, 3), (3, 3, 3), (2, 2, 2, 1, 1, 1), "0"),
        ((4, 4, 4, 4), (4, 4), (4, 4), "q^16 + q^15 + 2*q^14 + q^13 + q^12"),
        ((7, 5, 3, 1), (5, 3, 1), (4, 2, 1), "6*q^5 - 5*q^4 + 2*q^2 - q"),
        ((5, 4, 3, 2, 1), (3, 3, 2, 1), (3, 2, 1), "6*q^6 + 4*q^5 - 6*q^4 - 3*q^3 + 2*q^2"),
    ],
)
def test_pinned_large_values(lam, nu, mu, want):
    # regression values, computed independently by expanding whole u-basis
    # products; weights 15-21 lie beyond every census and sweep in this file
    assert hall_polynomial(lam, nu, mu) == parse_poly(want)
    assert hall_polynomial(lam, mu, nu) == parse_poly(want)


def test_symmetry_and_vanishing():
    for lam in [(2, 2), (3, 1), (2, 1, 1), (4,), (2, 2, 1)]:
        subs = subpartitions(lam)
        for mu in subs:
            for nu in subs:
                assert hall_polynomial(lam, nu, mu) == hall_polynomial(lam, mu, nu)
    assert hall_vanishes((2, 1), (1,), (1,))  # weights do not add up
    assert hall_vanishes((2,), (1, 1), ())  # nu not inside lam
    assert hall_polynomial((2,), (1, 1), ()) == ZERO
    assert hall_polynomial((3, 1), (2, 2), ()) == ZERO
    # every argument is checked as a partition
    for bad in [(1, 2), (0,)]:
        for args in [(bad, (1,), (1,)), ((2,), bad, (1,)), ((2,), (1,), bad)]:
            with pytest.raises(ValueError):
                hall_polynomial(*args)


def test_against_census_at_small_primes():
    lams = [lam for w in range(1, 6) for lam in _partitions_up_to(w) if sum(lam) == w]
    for lam in lams:
        for p in (2, 3):
            census = subgroup_census(lam, p)
            for mu in subpartitions(lam):
                for nu in subpartitions(lam):
                    want = census.get((mu, nu), 0)
                    assert hall_polynomial(lam, nu, mu).eval_integer(p) == want


def test_completeness_sums_to_total_subgroup_count():
    for lam in [(2, 1), (2, 2), (3, 1, 1), (2, 2, 1)]:
        for p in (2, 3):
            total = 0
            for mu in subpartitions(lam):
                for nu in subpartitions(lam):
                    total += hall_polynomial(lam, nu, mu).eval_integer(p)
            assert total == sum(subgroup_census(lam, p).values())


def test_degree_matches_the_classical_bound():
    # when nonzero, deg g = n(lam) - n(mu) - n(nu)
    for lam in [(2, 1), (2, 2), (3, 1), (2, 1, 1)]:
        subs = subpartitions(lam)
        for mu in subs:
            for nu in subs:
                g = hall_polynomial(lam, nu, mu)
                if g.is_zero:
                    continue
                bound = _n(lam) - _n(mu) - _n(nu)
                assert g.lo + len(g.cs) - 1 == bound, (lam, mu, nu, str(g))
                assert g.is_polynomial


def test_diagonal_regular_counts():
    for t in range(1, 5):
        m = parse_module(f"R(p,[{t}])")
        for a in range(t + 1):
            assert regular_diagonal_count(m, a) == ONE
    m = parse_module("R(p,[1]) + R(q,[1])")
    assert regular_diagonal_count(m, 1) == 2 * ONE
    m = parse_module("R(p@2,[1])")
    assert regular_diagonal_count(m, 1) == ZERO
    assert regular_diagonal_count(m, 2) == ONE
    with pytest.raises(ValueError):
        regular_diagonal_count(parse_module("P1"), 1)


def test_diagonal_regular_boundary_and_positivity():
    mods = [
        "R(p,[2,1])",
        "R(p,[2]) + R(q,[1,1])",
        "R(p@2,[2])",
        "R(p,[1]) + R(q@2,[1])",
    ]
    for text in mods:
        m = parse_module(text)
        n = m.dim_vector().a
        assert regular_diagonal_count(m, 0) == ONE
        assert regular_diagonal_count(m, n) == ONE
        for a in range(n + 1):
            poly = regular_diagonal_count(m, a)
            assert poly.is_polynomial and poly.has_nonnegative_coefficients


def test_birkhoff_product_equals_hall_sum_and_census():
    # three sources for the number of subgroups of type mu: Birkhoff's
    # product, the Hall polynomials summed over the quotient type, and the
    # exhaustive census at small primes
    for lam in _partitions_up_to(6):
        subs = subpartitions(lam)
        census = {p: subgroup_census(lam, p) for p in (2, 3)}
        for mu in subs:
            birkhoff = _subgroups(conjugate_parts(lam), mu)
            hall_sum = ZERO
            for nu in subs:
                hall_sum = hall_sum + hall_polynomial(lam, nu, mu)
            assert birkhoff == hall_sum, (lam, mu)
            for p, tally in census.items():
                want = sum(n for (sub, _), n in tally.items() if sub == mu)
                assert birkhoff.eval_integer(p) == want, (lam, mu, p)
    assert _subgroups(conjugate_parts((1, 1)), (1,)) == parse_poly("q + 1")


def test_weight_sums_match_summed_hall_polynomials():
    # regression against the former construction of the diagonal weights:
    # every Hall polynomial g(lam; nu, mu) with |mu| = w, summed
    for lam in _partitions_up_to(8):
        total = sum(lam)
        old = [ZERO] * (total + 1)
        for mu in subpartitions(lam):
            for nu in subpartitions(lam):
                if sum(mu) + sum(nu) == total:
                    old[sum(mu)] = old[sum(mu)] + hall_polynomial(lam, nu, mu)
        assert _weight_sums(lam) == tuple(old), lam


def test_weight_sums_equal_the_unmirrored_birkhoff_sums():
    # _weight_sums sums only |mu| <= |lam| / 2 and mirrors the rest
    # (H -> H^perp); here every subpartition is summed
    for lam in _partitions_up_to(12):
        lc = conjugate_parts(lam)
        full = [ZERO] * (sum(lam) + 1)
        for mu in subpartitions(lam):
            full[sum(mu)] = full[sum(mu)] + _subgroups(lc, mu)
        assert _weight_sums(lam) == tuple(full), lam
