"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
All comparisons are exact (integer or polynomial equality); there are no
tolerances anywhere.
"""

import time

import pytest

from kronq.abelian import subgroup_census
from kronq.closed_form import (
    count_preinjective,
    count_preprojective,
    count_regular_deg1,
    euler_char_formula,
)
from kronq.engine import CountingEngine
from kronq.hall import hall_polynomial, subpartitions
from kronq.laurent import ZERO
from kronq.model import parse_module
from kronq.oracle import build_rep, count_submodules, submodule_table
from kronq.qbinom import gauss

WINDOW = range(-1, 7)
PRIMES = (2, 3)


def _report(num, name, failures, started, detail=""):
    elapsed = time.time() - started
    status = "PASS" if not failures else f"FAIL ({len(failures)} cases)"
    print(f"criterion {num} [{name}]: {status}  {detail} ({elapsed:.1f}s)")
    assert not failures, failures[:10]


def test_criterion_1_q_double_sum_identity():
    started = time.time()
    failures = []
    span = range(-5, 6)
    cases = 0
    for m in span:
        for p in span:
            for mu in span:
                for nu in span:
                    cases += 1
                    lhs = ZERO
                    for r in range(0, p + 1):
                        term = (
                            gauss(r, m - mu + nu)
                            * gauss(p - r, p + mu - nu)
                            * gauss(m + p, mu + r)
                        )
                        lhs = lhs + term.shift((m - mu + nu - r) * (p - r))
                    rhs = gauss(m, mu) * gauss(p, nu)
                    if lhs != rhs:
                        failures.append((m, p, mu, nu))
    _report(1, "q double-sum identity", failures, started, f"{cases} cases")


def test_criterion_2_closed_forms_vs_oracle():
    started = time.time()
    failures = []
    jobs = []
    for n in range(5):
        jobs.append((f"P{n}", lambda a, b, n=n: count_preprojective(n, a, b)))
        jobs.append((f"I{n}", lambda a, b, n=n: count_preinjective(n, a, b)))
    for t in range(1, 5):
        jobs.append((f"R(p,[{t}])", lambda a, b, t=t: count_regular_deg1(t, a, b)))
    for text, formula in jobs:
        module = parse_module(text)
        for p in PRIMES:
            rep = build_rep(module, p)
            for a in WINDOW:
                for b in WINDOW:
                    want = count_submodules(rep, a, b)
                    got = formula(a, b).eval_integer(p)
                    if got != want:
                        failures.append((text, p, a, b, got, want))
    _report(2, "closed forms vs oracle", failures, started)


def test_criterion_3_recursion_vs_closed_forms():
    started = time.time()
    failures = []
    engine = CountingEngine(use_closed_forms=False)
    for n in range(5):
        mp, mi = parse_module(f"P{n}"), parse_module(f"I{n}")
        for a in WINDOW:
            for b in WINDOW:
                if engine.count(mp, a, b) != count_preprojective(n, a, b):
                    failures.append(("P", n, a, b))
                if engine.count(mi, a, b) != count_preinjective(n, a, b):
                    failures.append(("I", n, a, b))
    for t in range(1, 5):
        mr = parse_module(f"R(p,[{t}])")
        for a in WINDOW:
            for b in WINDOW:
                if engine.count(mr, a, b) != count_regular_deg1(t, a, b):
                    failures.append(("R", t, a, b))
    _report(3, "recursion vs closed forms (exact polynomials)", failures, started)


@pytest.fixture(scope="module")
def corpus_engine_tables(corpus):
    engine = CountingEngine()
    tables = []
    for module in corpus:
        dim = module.dim_vector()
        cells = {
            (a, b): engine.count(module, a, b)
            for a in range(dim.a + 1)
            for b in range(dim.b + 1)
        }
        tables.append((module, cells))
    return tables


def test_criterion_4_engine_vs_oracle_on_corpus(corpus_engine_tables):
    started = time.time()
    failures = []
    cells_checked = 0
    for module, cells in corpus_engine_tables:
        for p in PRIMES:
            oracle_cells = submodule_table(build_rep(module, p))
            for key, poly in cells.items():
                cells_checked += 1
                if poly.eval_integer(p) != oracle_cells[key]:
                    failures.append((str(module), p, key))
    _report(
        4,
        "engine vs oracle on the descriptor corpus",
        failures,
        started,
        f"{len(corpus_engine_tables)} modules, {cells_checked} cells",
    )


def test_criterion_5_hall_polynomials_held_out_prime():
    started = time.time()
    failures = []
    held_out = 7
    lams = [
        lam
        for w in range(1, 6)
        for lam in _partitions_of(w)
    ]
    checked = 0
    for lam in lams:
        census = subgroup_census(lam, held_out)
        subs = subpartitions(lam)
        for mu in subs:
            for nu in subs:
                checked += 1
                want = census.get((mu, nu), 0)
                got = hall_polynomial(lam, nu, mu).eval_integer(held_out)
                if got != want:
                    failures.append((lam, mu, nu, got, want))
        # nothing in the census may fall outside the predicted support
        for (mu, nu), v in census.items():
            if mu not in subs or nu not in subs:
                failures.append(("unexpected census key", lam, mu, nu))
    _report(
        5,
        "Hall polynomials vs enumeration at held-out p=7",
        failures,
        started,
        f"{len(lams)} group types, {checked} triples",
    )


def _partitions_of(w):
    out = []

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


def test_criterion_6_euler_characteristics():
    started = time.time()
    failures = []
    counters = {
        "preprojective": count_preprojective,
        "preinjective": count_preinjective,
        "regular_deg1": count_regular_deg1,
    }
    for kind, indices in (
        ("preprojective", range(5)),
        ("preinjective", range(5)),
        ("regular_deg1", range(1, 5)),
    ):
        for idx in indices:
            for a in WINDOW:
                for b in WINDOW:
                    via_poly = counters[kind](idx, a, b).eval_integer(1)
                    via_binomials = euler_char_formula(kind, idx, a, b)
                    if via_poly != via_binomials:
                        failures.append((kind, idx, a, b))
    _report(6, "Euler characteristics vs binomial products", failures, started)


def test_criterion_7_positivity_and_integrality(corpus_engine_tables):
    started = time.time()
    failures = []
    polys = 0
    for module, cells in corpus_engine_tables:
        for key, poly in cells.items():
            polys += 1
            if not poly.is_polynomial or not poly.has_nonnegative_coefficients:
                failures.append((str(module), key, str(poly)))
    _report(
        7,
        "positivity and integrality of engine outputs",
        failures,
        started,
        f"{polys} polynomials",
    )


def test_criterion_8_degree_two_diagonal_constraint():
    started = time.time()
    failures = []
    engine = CountingEngine()
    for t in (1, 2):
        module = parse_module(f"R(p@2,[{t}])")
        dim = module.dim_vector()
        for a in range(dim.a + 1):
            got = engine.count(module, a, a)
            expected_one = a % 2 == 0 and 0 <= a <= 2 * t
            if got != (1 if expected_one else 0):
                failures.append(("diagonal", t, a, str(got)))
        for p in PRIMES:
            oracle_cells = submodule_table(build_rep(module, p))
            for (a, b), want in oracle_cells.items():
                if a == b:
                    continue
                got = engine.count(module, a, b).eval_integer(p)
                if got != want:
                    failures.append(("off-diagonal", t, p, a, b))
    _report(8, "degree-2 diagonal support", failures, started)
