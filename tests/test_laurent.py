import random
from fractions import Fraction

import pytest

from kronq.laurent import ONE, Q, ZERO, LaurentPoly, PolyParseError, _convolve, parse_poly


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


def _product_by_double_loop(a, b):
    expected = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            expected[e1 + e2] = expected.get(e1 + e2, 0) + v1 * v2
    return LaurentPoly(expected)


def test_multiplication_packed_matches_schoolbook():
    # the second setting gives factors of up to 40 terms, so products fall
    # on both sides of the schoolbook/packed cutoff
    rng = random.Random(7)
    for lo, hi, terms, coeff in ((-6, 9, 12, 50), (-20, 25, 60, 10**6)):
        for trial in range(200):
            n1 = rng.randrange(1, terms)
            n2 = rng.randrange(1, terms)
            a = LaurentPoly(
                {rng.randrange(lo, hi): rng.randrange(-coeff, coeff) for _ in range(n1)}
            )
            b = LaurentPoly(
                {rng.randrange(lo, hi): rng.randrange(-coeff, coeff) for _ in range(n2)}
            )
            assert a * b == _product_by_double_loop(a, b)


def test_multiplication_huge_coefficients_stay_exact():
    big = 10**40
    a = LaurentPoly({0: big, 1: -big, 5: 1, 6: 1, 7: 1, 8: 1})
    b = LaurentPoly({0: big, 2: big, 3: 7, 4: 7, 9: 7})
    prod = a * b
    assert prod == _product_by_double_loop(a, b)
    assert prod.coefficient(0) == big * big
    assert prod.coefficient(3) == 7 * big - big * big
    # signed factors of 1 to 40 terms, on both sides of the packing cutoff
    rng = random.Random(11)
    for trial in range(100):
        a, b = (
            LaurentPoly.dense(
                rng.randrange(-5, 5),
                [rng.randrange(-big, big) for _ in range(rng.randrange(1, 41))],
            )
            for _ in range(2)
        )
        assert a * b == _product_by_double_loop(a, b)


def test_convolve_matches_double_loop():
    rng = random.Random(3)
    for trial in range(300):
        bound = 10 ** rng.randrange(1, 41)
        xs, ys = (
            [rng.choice((0, rng.randrange(-bound, bound + 1))) for _ in range(rng.randrange(1, 81))]
            for _ in range(2)
        )
        if not any(xs) or not any(ys):
            continue
        expected = [0] * (len(xs) + len(ys) - 1)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                expected[i + j] += x * y
        assert _convolve(xs, ys) == expected


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


def test_dense_format_against_a_dict_reference():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    sparse = st.dictionaries(
        st.integers(-20, 20), st.integers(-(10**30), 10**30), max_size=12
    )

    def ref(d):
        return {e: v for e, v in d.items() if v}

    def ref_add(x, y):
        return ref({e: x.get(e, 0) + y.get(e, 0) for e in {*x, *y}})

    def ref_mul(x, y):
        out = {}
        for e1, v1 in x.items():
            for e2, v2 in y.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
        return ref(out)

    @hyp.settings(max_examples=200, deadline=None, database=None)
    @hyp.given(sparse, sparse, st.integers(-30, 30), st.integers(-3, 3), st.integers(1, 4))
    def check(x, y, k, scale, d):
        a, b = LaurentPoly(x), LaurentPoly(y)
        assert dict(a.items()) == ref(x)
        assert [e for e, _ in a.items()] == sorted(ref(x))
        assert all(a.coefficient(e) == x.get(e, 0) for e in range(-25, 26))
        assert dict((a + b).items()) == ref_add(x, y)
        assert dict((a - b).items()) == ref_add(x, {e: -v for e, v in y.items()})
        assert dict((a * b).items()) == ref_mul(x, y)
        assert dict(a.shift(k, scale).items()) == ref({e + k: v * scale for e, v in x.items()})
        assert dict(a.stretched(d).items()) == ref({e * d: v for e, v in x.items()})
        if b:
            assert (a * b).divexact(b) == a
        # canonical pair: equal values are equal and hash equal, whatever
        # the construction; zero is (0, ())
        c = LaurentPoly(list(x.items()) + [(e, 0) for e in range(-3, 4)])
        assert c == a and hash(c) == hash(a)
        assert (a.lo, a.cs) == (c.lo, c.cs)
        assert not a.cs or (a.cs[0] and a.cs[-1])
        assert ((a - c).lo, (a - c).cs) == (0, ())
        assert parse_poly(a.to_string()) == a

    check()
