from kronq.closed_form import (
    count_preinjective,
    count_preprojective,
    count_regular_deg1,
    euler_char_formula,
    generalized_binomial,
)
from kronq.laurent import ONE, ZERO, parse_poly
from kronq.model import parse_module
from kronq.oracle import build_rep, count_submodules

WINDOW = range(-1, 7)
COUNTERS = {
    "preprojective": count_preprojective,
    "preinjective": count_preinjective,
    "regular_deg1": count_regular_deg1,
}


def euler_char(kind, index, a, b):
    """The count polynomial of a closed form evaluated at q = 1."""
    return COUNTERS[kind](index, a, b).eval_integer(1)


def test_preprojective_values():
    assert count_preprojective(0, 1, 0) == ONE
    assert count_preprojective(2, 1, 2) == ZERO
    assert count_preprojective(1, 1, 0) == parse_poly("q + 1")
    assert count_preprojective(2, 3, 2) == ONE
    assert count_preprojective(3, 2, 1) == parse_poly("q^2 + q + 1")
    assert count_preprojective(1, -1, 0) == ZERO


def test_preinjective_values():
    assert count_preinjective(1, 1, 2) == ONE
    assert count_preinjective(1, 2, 0) == ZERO
    assert count_preinjective(1, 1, 1) == parse_poly("q + 1")
    assert count_preinjective(0, 0, 1) == ONE


def test_regular_values():
    assert count_regular_deg1(2, 1, 1) == ONE
    assert count_regular_deg1(1, 0, 1) == ZERO
    assert count_regular_deg1(2, 2, 1) == parse_poly("q + 1")
    assert count_regular_deg1(3, 2, 0) == parse_poly("q^2 + q + 1")


def test_small_window_against_oracle():
    # the full window is exercised by the acceptance suite; spot-check here
    for n in range(3):
        for p in (2, 3):
            rep_p = build_rep(parse_module(f"P{n}"), p)
            rep_i = build_rep(parse_module(f"I{n}"), p)
            for a in range(-1, 5):
                for b in range(-1, 5):
                    assert count_preprojective(n, a, b).eval_integer(p) == (
                        count_submodules(rep_p, a, b)
                    )
                    assert count_preinjective(n, a, b).eval_integer(p) == (
                        count_submodules(rep_i, a, b)
                    )
    for t in (1, 2):
        for p in (2, 3):
            rep = build_rep(parse_module(f"R(p,[{t}])"), p)
            for a in range(-1, 4):
                for b in range(-1, 4):
                    assert count_regular_deg1(t, a, b).eval_integer(p) == (
                        count_submodules(rep, a, b)
                    )


def test_results_are_positive_polynomials():
    for n in range(5):
        for a in WINDOW:
            for b in WINDOW:
                for poly in (
                    count_preprojective(n, a, b),
                    count_preinjective(n, a, b),
                    count_regular_deg1(n + 1, a, b),
                ):
                    assert poly.is_polynomial, (n, a, b)
                    assert poly.has_nonnegative_coefficients, (n, a, b)


def test_generalized_binomial():
    assert generalized_binomial(5, 2) == 10
    assert generalized_binomial(5, -1) == 0
    assert generalized_binomial(3, 5) == 0
    assert generalized_binomial(-1, 2) == 1
    assert generalized_binomial(-2, 3) == -4
    assert generalized_binomial(0, 0) == 1


def test_euler_characteristics():
    # evaluation at q = 1 of the count polynomial; the binomial-product
    # route must agree everywhere on the window
    assert euler_char("preinjective", 1, 1, 1) == 2
    assert euler_char("regular_deg1", 2, 1, 0) == 2
    # the (1,1) cell of the n=3 preprojective is empty: no line at vertex 1
    # contains both images of a vertex-2 line
    assert euler_char("preprojective", 3, 1, 1) == 0
    for kind, idx_range in (
        ("preprojective", range(5)),
        ("preinjective", range(5)),
        ("regular_deg1", range(1, 5)),
    ):
        for idx in idx_range:
            for a in WINDOW:
                for b in WINDOW:
                    assert euler_char(kind, idx, a, b) == euler_char_formula(
                        kind, idx, a, b
                    ), (kind, idx, a, b)


def test_duality_sum_report():
    # plausibility report, not a correctness assertion: total submodule
    # counts of the two dual families should agree at q = 1
    for n in range(5):
        total_p = sum(
            euler_char("preprojective", n, a, b)
            for a in range(n + 2)
            for b in range(n + 1)
        )
        total_i = sum(
            euler_char("preinjective", n, a, b)
            for a in range(n + 1)
            for b in range(n + 2)
        )
        status = "equal" if total_p == total_i else "DIFFER"
        print(f"duality sums n={n}: P={total_p} I={total_i} -> {status}")
