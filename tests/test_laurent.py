import random
from fractions import Fraction

import pytest

from kronq.laurent import ONE, Q, ZERO, LaurentPoly, PolyParseError, parse_poly


def test_cancellation_and_basic_ring_ops():
    assert parse_poly("q + 1") + (-1) == Q
    assert parse_poly("q + 1") * parse_poly("q - 1") == parse_poly("q^2 - 1")
    assert LaurentPoly.monomial(-1) * Q == ONE
    assert -parse_poly("q - 3") == parse_poly("3 - q")
    assert parse_poly("q + 1") - parse_poly("q + 1") == ZERO


def test_canonical_form_drops_zeros():
    p = LaurentPoly({2: 1, 0: 0, -1: 0})
    assert dict(p.items()) == {2: 1}
    assert LaurentPoly({1: 1}) + LaurentPoly({1: -1}) == ZERO
    assert hash(LaurentPoly({3: 2})) == hash(LaurentPoly([(3, 1), (3, 1)]))


def test_shift_and_stretch():
    p = parse_poly("q^2 + q")
    assert p.shift(-1) == parse_poly("q + 1")
    assert p.shift(0, 3) == parse_poly("3*q^2 + 3*q")
    assert p.stretched(2) == parse_poly("q^4 + q^2")
    assert parse_poly("q^-1 + 1").stretched(3) == parse_poly("q^-3 + 1")


def test_multiplication_packed_matches_schoolbook():
    rng = random.Random(7)
    for trial in range(200):
        n1 = rng.randrange(1, 12)
        n2 = rng.randrange(1, 12)
        a = LaurentPoly(
            {rng.randrange(-6, 9): rng.randrange(-50, 50) for _ in range(n1)}
        )
        b = LaurentPoly(
            {rng.randrange(-6, 9): rng.randrange(-50, 50) for _ in range(n2)}
        )
        expected = {}
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                expected[e1 + e2] = expected.get(e1 + e2, 0) + v1 * v2
        assert a * b == LaurentPoly(expected)


def test_multiplication_huge_coefficients_stay_exact():
    big = 10**40
    a = LaurentPoly({0: big, 1: -big, 5: 1, 6: 1, 7: 1, 8: 1})
    b = LaurentPoly({0: big, 2: big, 3: 7, 4: 7, 9: 7})
    prod = a * b
    expected = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            expected[e1 + e2] = expected.get(e1 + e2, 0) + v1 * v2
    assert prod == LaurentPoly(expected)
    assert prod.coefficient(0) == big * big
    assert prod.coefficient(3) == 7 * big - big * big


def test_eval_exact():
    assert parse_poly("q + 1").eval_at(2) == 3
    assert LaurentPoly.monomial(-1).eval_at(2) == Fraction(1, 2)
    assert parse_poly("q^2 + q + 1").eval_at(1) == 3
    assert parse_poly("q^2 + q + 1").eval_integer(1) == 3
    assert parse_poly("q - 1").eval_at(Fraction(1, 3)) == Fraction(-2, 3)


def test_eval_error_signals():
    with pytest.raises(ZeroDivisionError):
        LaurentPoly.monomial(-2).eval_at(0)
    assert parse_poly("q^2 + 5").eval_at(0) == 5
    with pytest.raises(ValueError):
        LaurentPoly.monomial(-1).eval_integer(2)


def test_divexact():
    num = parse_poly("q^4 - 1")
    assert num.divexact(parse_poly("q - 1")) == parse_poly("q^3 + q^2 + q + 1")
    assert num.divexact(parse_poly("q^2 - 1")) == parse_poly("q^2 + 1")
    shifted = num.shift(-2)
    assert shifted.divexact(parse_poly("q - 1")) == parse_poly("q^3 + q^2 + q + 1").shift(-2)
    with pytest.raises(ValueError):
        parse_poly("q^2 + 1").divexact(parse_poly("q - 1"))
    with pytest.raises(ZeroDivisionError):
        num.divexact(ZERO)


def test_rendering():
    assert str(parse_poly("q^4 + q^3 + 2*q^2 + q + 1")) == "q^4 + q^3 + 2*q^2 + q + 1"
    assert str(-LaurentPoly.monomial(-1)) == "-q^-1"
    assert str(ZERO) == "0"
    assert str(LaurentPoly.const(-5)) == "-5"
    assert str(parse_poly("q - 1")) == "q - 1"
    assert LaurentPoly({2: 3}).to_string("x") == "3*x^2"


def test_parse_round_trip():
    samples = ["0", "q", "-q^-1", "q^4 + q^3 + 2*q^2 + q + 1", "5", "q - 1",
               "-4 + q^-1 + 2*q^-3"]
    for s in samples:
        assert parse_poly(s).to_string() == s
    # tolerated variants
    assert parse_poly("3q^2") == parse_poly("3*q^2")
    assert parse_poly(" q +1 ") == parse_poly("q + 1")
    assert parse_poly("x + 1", var="x") == Q + 1


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("q + + 1")
    assert exc.value.position >= 4
    with pytest.raises(PolyParseError):
        parse_poly("")
    with pytest.raises(PolyParseError):
        parse_poly("q^x")
    with pytest.raises(PolyParseError):
        parse_poly("q 1")
