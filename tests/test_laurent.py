import random
from fractions import Fraction

import pytest

from kronq import laurent
from kronq.laurent import (
    ONE,
    Q,
    ZERO,
    LaurentPoly,
    PolyParseError,
    _convolve,
    _limb_width,
    _pack,
    _unpack,
    parse_poly,
    sum_of_products,
)


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


def test_limbs_hold_signed_values_up_to_each_width():
    for k, width in ((7, 1), (15, 2), (31, 4), (63, 8), (71, 9), (127, 16)):
        assert _limb_width(2**k - 1) == width
        assert _limb_width(2**k) > width
        top = 2**k
        # extreme values next to each other, so every borrow and carry shows
        vals = [top - 1, -top, 0, -1, 1, -top, top - 1, 1 - top, -1]
        assert _unpack(_pack(vals, width), width, len(vals)) == vals
        assert _pack(vals, width) == sum(v << 8 * width * i for i, v in enumerate(vals))


def _sum_by_double_loop(terms):
    out = {}
    for g, h, s in terms:
        for e1, v1 in g.items():
            for e2, v2 in h.items():
                out[e1 + e2 + s] = out.get(e1 + e2 + s, 0) + v1 * v2
    return LaurentPoly(out)


def test_sum_of_products_at_each_limb_boundary(monkeypatch):
    # two terms that add up to one coefficient v: the bound is exactly |v|,
    # so v = 2^k - 1 fills the widest limb value and v = 2^k needs a wider
    # limb; a cutoff of 0 sends even these small terms through the packing
    monkeypatch.setattr(laurent, "_PACK_THRESHOLD", 0)
    for k in (7, 15, 31, 63, 64, 80):
        for v in (2**k - 1, 2**k, 2**k + 1):
            for sign in (1, -1):
                x = v // 3
                terms = [
                    (LaurentPoly.const(sign * x), Q, -2),
                    (LaurentPoly.monomial(-3, sign * (v - x)), Q, 1),
                ]
                assert sum_of_products(terms) == LaurentPoly.monomial(-1, sign * v)
    assert sum_of_products([]) == ZERO
    assert sum_of_products([(ZERO, Q, 1), (Q, ZERO, 2)]) == ZERO


def test_sum_of_products_matches_the_schoolbook_loop(monkeypatch):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    edges = [s * (2**k + d) for k in (7, 15, 31, 63) for d in (-1, 0, 1) for s in (1, -1)]
    coeff = st.one_of(
        st.integers(-9, 9), st.sampled_from(edges), st.integers(-(2**90), 2**90)
    )
    poly = st.builds(LaurentPoly.dense, st.integers(-8, 8), st.lists(coeff, max_size=6))
    terms = st.lists(st.tuples(poly, poly, st.integers(-12, 12)), max_size=4)

    default = laurent._PACK_THRESHOLD

    @hyp.settings(max_examples=80, deadline=None, database=None)
    @hyp.given(terms, st.booleans())
    def check(terms, cancel):
        if cancel:
            terms = terms + [(g, -h, s) for g, h, s in terms]
        expected = _sum_by_double_loop(terms)
        # with a cutoff of 0 every sum of two or more terms, and every
        # product, is packed
        for cutoff in (default, 0):
            monkeypatch.setattr(laurent, "_PACK_THRESHOLD", cutoff)
            got = sum_of_products(terms)
            assert got == expected
            assert not cancel or (got.lo, got.cs) == (0, ())

    check()


def test_eval_exact():
    assert parse_poly("q + 1").eval_integer(2) == 3
    with pytest.raises(ValueError, match="value 1/2 at q=2 is not an integer"):
        LaurentPoly.monomial(-1).eval_integer(2)
    assert parse_poly("q^2 + q + 1").eval_integer(1) == 3


def test_eval_error_signals():
    with pytest.raises(ZeroDivisionError):
        LaurentPoly.monomial(-2).eval_integer(0)
    assert parse_poly("q^2 + 5").eval_integer(0) == 5
    with pytest.raises(ValueError):
        LaurentPoly.monomial(-1).eval_integer(2)


def test_eval_integer_takes_ints_only():
    p = parse_poly("q + 1")
    for q0 in (Fraction(1, 3), 2.0, Fraction(2)):
        with pytest.raises(TypeError):
            p.eval_integer(q0)


def test_eval_integer_with_negative_exponents():
    # 1 + 3q^-1 + 2q^-2 = (q + 1)(q + 2) / q^2
    p = parse_poly("1 + 3*q^-1 + 2*q^-2")
    assert p.eval_integer(1) == 6
    assert p.eval_integer(2) == 3
    assert p.eval_integer(-1) == p.eval_integer(-2) == 0
    with pytest.raises(ValueError, match="value 20/9 at q=3"):
        p.eval_integer(3)
    # q^-1 (q^2 - 4) = q - 4 q^-1 is whole at q = 4 and -2, not at q = 3
    p = parse_poly("q - 4*q^-1")
    assert p.eval_integer(4) == 3
    assert p.eval_integer(-2) == 0
    with pytest.raises(ValueError):
        p.eval_integer(3)
    with pytest.raises(ZeroDivisionError):
        p.eval_integer(0)
    assert parse_poly("q^2 + 5").eval_integer(0) == 5
    assert ZERO.eval_integer(7) == 0
    # the message reduces the fraction and keeps its denominator positive
    with pytest.raises(ValueError, match="^value -1/2 at q=-2 is not an integer$"):
        parse_poly("q^-1").eval_integer(-2)


def test_eval_integer_matches_exact_fractions():
    rng = random.Random(3)
    for _ in range(300):
        lo = rng.randrange(-4, 4)
        p = LaurentPoly.dense(lo, [rng.randrange(-9, 10) for _ in range(rng.randrange(6))])
        for q0 in (-3, -2, -1, 1, 2, 3, 5):
            val = sum((Fraction(q0) ** e * v for e, v in p.items()), Fraction(0))
            if val.denominator == 1:
                assert p.eval_integer(q0) == val
            else:
                with pytest.raises(ValueError) as err:
                    p.eval_integer(q0)
                assert str(err.value) == f"value {val} at q={q0} is not an integer"


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


def test_parse_reads_only_decimal_digits():
    # superscripts are digits to str.isdigit but not to int()
    for bad, pos in [("q^²", 2), ("³q", 0), ("q + 2³", 5)]:
        with pytest.raises(PolyParseError) as exc:
            parse_poly(bad)
        assert exc.value.position == pos, bad


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


def test_parse_render_round_trip_on_random_polynomials():
    # negative exponents and coefficients far beyond 64 bits, in q and in x
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    big = st.integers(-(2**200), 2**200)
    polys = st.builds(LaurentPoly, st.dictionaries(st.integers(-40, 40), big, max_size=10))

    @hyp.settings(max_examples=300, deadline=None, database=None)
    @hyp.given(polys)
    def check(p):
        assert parse_poly(p.to_string()) == p
        assert parse_poly(p.to_string("x"), var="x") == p
        assert parse_poly(str(-p)) == -p

    check()


def test_sum_of_products_packs_a_reused_operand_once_per_width(monkeypatch):
    # g enters a sum with 1-byte limbs and then one with 9-byte limbs; its
    # cached packing follows the width, and each sum stays exact
    monkeypatch.setattr(laurent, "_PACK_THRESHOLD", 0)
    g = LaurentPoly.dense(-1, [1, 2, 1])
    small = [(g, Q, 0), (g, LaurentPoly.dense(0, [1, -1]), 2)]
    big_h = LaurentPoly.const(2**62)
    big = [(g, big_h, 0), (g, big_h, 1)]  # bound 2 * 4 * 2^62 = 2^65
    for terms, width in ((small, 1), (big, 9), (big, 9), (small, 1)):
        bound = sum(sum(map(abs, x.cs)) * sum(map(abs, y.cs)) for x, y, _ in terms)
        assert _limb_width(bound) == width
        assert sum_of_products(terms) == _sum_by_double_loop(terms)
        for x, _, _ in terms:
            assert x._pk == (width, _pack(x.cs, width))
    assert big_h._pk == (9, _pack(big_h.cs, 9))
