import gc
import random
import sys
import weakref
from collections import Counter

import pytest

from kronq.closed_form import (
    count_preinjective,
    count_preprojective,
    count_regular_deg1,
    euler_char_formula,
)
from kronq.engine import CountingEngine, count
from kronq.hall import regular_diagonal_count, subpartitions
from kronq.laurent import ONE, ZERO, parse_poly, sum_of_products
from kronq.model import (
    DimVector,
    KroneckerDescriptor,
    euler_form,
    ext_dim,
    parse_module,
    preinjective,
    preprojective,
    regular,
)
from kronq.oracle import build_rep, count_submodules, submodule_table
from kronq.qbinom import gauss


def test_guards_and_corners():
    m = parse_module("P1 + I1")
    dim = m.dim_vector()
    assert count(m, -1, 0) == ZERO
    assert count(m, 0, -2) == ZERO
    assert count(m, dim.a + 1, 0) == ZERO
    assert count(m, 0, dim.b + 1) == ZERO
    assert count(m, 0, 0) == ONE
    assert count(m, dim.a, dim.b) == ONE
    assert count(parse_module("0"), 0, 0) == ONE


def test_fixed_small_counts():
    assert count(parse_module("2*P0"), 1, 0) == parse_poly("q + 1")
    assert count(parse_module("P0 + P1"), 1, 0) == parse_poly("q^2 + q + 1")
    assert count(parse_module("P0 + I0"), 1, 1) == ONE
    assert count(parse_module("R(p1,[1]) + R(p2,[1])"), 1, 1) == 2 * ONE
    assert count(parse_module("R(p1,[2])"), 2, 1) == parse_poly("q + 1")
    assert count(parse_module("I2 + I0"), 1, 5) == ZERO


def test_recursion_a_formula_directly():
    recursion_a = CountingEngine().recursion_a
    assert recursion_a(parse_module("P1"), 1, 0) == count_preprojective(1, 1, 0)
    assert recursion_a(parse_module("R(p,[2])"), 2, 1) == count_regular_deg1(2, 2, 1)
    assert recursion_a(parse_module("3*P0"), 1, 0) == parse_poly("q^2 + q + 1")


def test_recursion_b_formula_directly():
    recursion_b = CountingEngine().recursion_b
    assert recursion_b(parse_module("I1"), 1, 1) == count_preinjective(1, 1, 1)
    # pure injective-simple modules: the reflected side is empty and the
    # whole count sits in one Gaussian factor
    assert recursion_b(parse_module("3*I0"), 0, 2) == parse_poly("q^2 + q + 1")
    assert recursion_b(parse_module("3*I0"), 0, 1) == parse_poly("q^2 + q + 1")
    # regression: modules mixing I0 with other summands
    assert recursion_b(parse_module("I1 + I0"), 1, 2) == parse_poly("q^2 + q + 1")
    assert recursion_b(parse_module("I0 + R(p,[1])"), 1, 1) == parse_poly("q + 1")


def test_recursion_b_against_oracle_on_mixed_modules():
    mods = ["I1 + I0", "2*I1", "I2 + R(p,[1])", "I1 + R(p@2,[1])", "3*I0 + I1"]
    recursion_b = CountingEngine().recursion_b
    for text in mods:
        m = parse_module(text)
        for p in (2, 3):
            table = submodule_table(build_rep(m, p))
            for (a, b), want in table.items():
                got = recursion_b(m, a, b) if (a, b) not in (
                    (0, 0),
                    m.dim_vector(),
                ) else count(m, a, b)
                assert got.eval_integer(p) == want, (text, p, a, b)


def test_forced_recursion_matches_closed_forms_small():
    eng = CountingEngine(use_closed_forms=False)
    for n in range(3):
        for a in range(-1, 6):
            for b in range(-1, 6):
                assert eng.count(parse_module(f"P{n}"), a, b) == (
                    count_preprojective(n, a, b)
                )
                assert eng.count(parse_module(f"I{n}"), a, b) == (
                    count_preinjective(n, a, b)
                )
    for t in (1, 2, 3):
        for a in range(-1, 5):
            for b in range(-1, 5):
                assert eng.count(parse_module(f"R(p,[{t}])"), a, b) == (
                    count_regular_deg1(t, a, b)
                )


def test_cache_transparency():
    mods = ["P1 + I1", "R(p,[2,1])", "P0 + R(p@2,[1])", "2*I1"]
    cached = CountingEngine(memoize=True)
    uncached = CountingEngine(memoize=False)
    for text in mods:
        m = parse_module(text)
        dim = m.dim_vector()
        for a in range(dim.a + 1):
            for b in range(dim.b + 1):
                assert cached.count(m, a, b) == uncached.count(m, a, b)


def test_sum_rule_total_submodules():
    mods = ["P1 + I0", "R(p,[2]) + I1", "P0 + P1 + R(p,[1])", "R(p@2,[2])"]
    for text in mods:
        m = parse_module(text)
        dim = m.dim_vector()
        for p in (2, 3):
            table = submodule_table(build_rep(m, p))
            engine_total = sum(
                count(m, a, b).eval_integer(p)
                for a in range(dim.a + 1)
                for b in range(dim.b + 1)
            )
            assert engine_total == sum(table.values())


def test_label_normalization_shares_counts():
    m1 = parse_module("R(a,[2]) + R(b,[1])")
    m2 = parse_module("R(left,[1]) + R(right,[2])")
    for a in range(4):
        for b in range(4):
            assert count(m1, a, b) == count(m2, a, b)


def test_outputs_are_positive_polynomials_spot():
    for text in ["P2 + I1", "R(p,[2,1]) + P0", "I1 + R(p@2,[1])"]:
        m = parse_module(text)
        dim = m.dim_vector()
        for a in range(dim.a + 1):
            for b in range(dim.b + 1):
                poly = count(m, a, b)
                assert poly.is_polynomial
                assert poly.has_nonnegative_coefficients


def test_descriptor_bookkeeping_once_per_descriptor(monkeypatch):
    calls = Counter()

    def counted(name, method):
        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    for name in ("dim_vector", "counting_key", "reflect_plus", "reflect_minus"):
        monkeypatch.setattr(
            KroneckerDescriptor, name, counted(name, getattr(KroneckerDescriptor, name))
        )
    engine = CountingEngine()
    engine.count(parse_module("P40 + P39"), 40, 39)
    distinct = len(engine._records)
    # P40 + P39 reflects through about forty descriptors; more records
    # would mean descriptors are not shared
    assert distinct < 100
    # one key per lookup: the entry call and at most one per recursion link
    assert calls["counting_key"] <= 3 * distinct
    assert calls["dim_vector"] <= distinct
    assert calls["reflect_plus"] + calls["reflect_minus"] <= 2 * distinct


def test_dropped_engine_frees_its_memo_without_gc():
    gc.disable()
    try:
        engine = CountingEngine()
        for text in ("R(p,[3,2,1])", "R(p,[2,1]) + I1"):
            m = parse_module(text)
            dim = m.dim_vector()
            for a in range(dim.a + 1):
                for b in range(dim.b + 1):
                    engine.count(m, a, b)
        rec = engine._record(parse_module("R(p,[3,2,1])"))
        # a regular-only module reflects to itself
        assert engine._records[rec.down_a] is rec
        value = rec.memo[(4, 2)]
        engine_ref, rec_ref = weakref.ref(engine), weakref.ref(rec)
        del rec
        held = sys.getrefcount(value)
        del engine
        assert engine_ref() is None
        assert rec_ref() is None
        # LaurentPoly takes no weak references; the memo's reference is gone
        assert sys.getrefcount(value) == held - 1
    finally:
        gc.enable()


def test_dropped_engine_frees_a_dual_pair_without_gc():
    gc.disable()
    try:
        engine = CountingEngine()
        m = parse_module("I3 + R(p,[1])")
        engine.table(m)
        rec = engine._record(m)
        dual = engine._records[rec.dual]
        assert dual.module == parse_module("P3 + R(p,[1])")
        # recursion_b on the dual names the module back
        engine.recursion_b(dual.module, 2, 2)
        assert engine._records[dual.dual] is rec
        # the module's (3, 2) cell is the dual's (5 - 2, 4 - 3) cell: one
        # value, held by the dual's memo only
        value = dual.memo[(3, 1)]
        assert rec.memo is None
        assert engine.table(m)[(3, 2)] is value
        refs = weakref.ref(engine), weakref.ref(rec), weakref.ref(dual)
        del rec, dual
        held = sys.getrefcount(value)
        del engine
        assert all(ref() is None for ref in refs)
        assert sys.getrefcount(value) == held - 1
    finally:
        gc.enable()


def _dual(m: KroneckerDescriptor) -> KroneckerDescriptor:
    return KroneckerDescriptor(m.preinjective, m.preprojective, m.regular)


def _random_modules(st, max_dim: int, points=(("p", 1), ("r", 2))):
    """Sums of P0-P2 and I0-I2 (multiplicity 1 or 2) and of tubes with up to
    two parts of size 1-3 at the given (label, degree) points, with total
    dimension at most max_dim.  Each summand is drawn within what is left of
    the bound, so no draw is thrown away."""

    @st.composite
    def modules(draw):
        left = max_dim

        def take(unit: int, most: int) -> int:
            # k in 1..most with k * unit within what is left
            nonlocal left
            k = draw(st.integers(1, min(most, left // unit)))
            left -= k * unit
            return k

        def summands():
            out = {}
            for n in draw(st.lists(st.integers(0, 2), unique=True, max_size=2)):
                if left >= 2 * n + 1:
                    out[n] = take(2 * n + 1, 2)
            return out

        def tube(degree):
            parts = []
            for _ in range(draw(st.integers(0, 2))):
                if left >= 2 * degree:
                    parts.append(take(2 * degree, 3))
            return tuple(sorted(parts, reverse=True))

        # the kinds take their share of the bound in a random order
        drawn = {}
        for key in draw(st.permutations(["P", "I", *points])):
            drawn[key] = summands() if key in ("P", "I") else tube(key[1])
        tubes = [(label, degree, drawn[label, degree]) for label, degree in points]
        return KroneckerDescriptor.build(drawn["P"], drawn["I"], tubes)

    return modules()


def _cells(m: KroneckerDescriptor):
    dm, dn = m.dim_vector()
    return [(a, b) for a in range(dm + 1) for b in range(dn + 1)]


def _grassmannian_dim(m: KroneckerDescriptor, a: int, b: int) -> int:
    """<e, alpha - e> for e = (a, b) and alpha the dimension of m."""
    dm, dn = m.dim_vector()
    return euler_form(DimVector(a, b), DimVector(dm - a, dn - b))


def test_duality_on_random_modules():
    hyp = pytest.importorskip("hypothesis")
    modules = _random_modules(hyp.strategies, 14)
    engines = CountingEngine(), CountingEngine(use_closed_forms=False)

    @hyp.settings(max_examples=60, deadline=None, database=None)
    @hyp.given(modules)
    def check(m):
        (dm, dn), d = m.dim_vector(), _dual(m)
        cells = [(a, b) for a in range(dm + 1) for b in range(dn + 1)]
        for engine in engines:
            for a, b in cells:
                assert engine.count(m, a, b) == engine.count(d, dn - b, dm - a), (m, a, b)
        if dn <= 5:
            table = submodule_table(build_rep(m, 2))
            for a, b in cells:
                assert engines[0].count(m, a, b).eval_integer(2) == table[a, b], (m, a, b)

    check()


def test_engine_matches_the_oracle_over_f3_with_several_points():
    # three degree-1 points and one degree-2 point; total dimension 9 keeps
    # the vertex-2 dimension at most 6
    hyp = pytest.importorskip("hypothesis")
    points = (("p", 1), ("q", 1), ("s", 1), ("r", 2))
    engine = CountingEngine()

    @hyp.settings(max_examples=40, deadline=None, database=None)
    @hyp.given(_random_modules(hyp.strategies, 9, points))
    def check(m):
        table = submodule_table(build_rep(m, 3))
        for a, b in _cells(m):
            assert engine.count(m, a, b).eval_integer(3) == table[a, b], (m, a, b)

    check()


def test_engine_still_correct_after_recursion_error():
    deep = parse_module("P700 + P699")
    for closed_forms in (True, False):
        engine = CountingEngine(use_closed_forms=closed_forms)
        try:
            engine.count(deep, 700, 699)
        except RecursionError:
            pass
        # the error may strike while a record is built: no key may be left
        # pointing at a missing or foreign record
        for key, pos in engine._positions.items():
            assert pos < len(engine._records)
            assert engine._records[pos].module.counting_key() == key
        fresh = CountingEngine(use_closed_forms=closed_forms)
        for text in ("P3 + P2", "P5 + I1", "R(p,[2,1]) + P1"):
            m = parse_module(text)
            dim = m.dim_vector()
            for a in range(dim.a + 1):
                for b in range(dim.b + 1):
                    assert engine.count(m, a, b) == fresh.count(m, a, b)


def test_q1_convolution_on_random_modules():
    # at q = 1 a count is the Euler characteristic of a quiver Grassmannian,
    # which is multiplicative over direct sums: a nonzero cell wrongly
    # answered as 0 has a positive value at q = 1 and breaks the sum
    hyp = pytest.importorskip("hypothesis")
    small = _random_modules(hyp.strategies, 8)
    engine = CountingEngine()

    def at_one(m, a, b):
        return engine.count(m, a, b).eval_integer(1)

    @hyp.settings(max_examples=60, deadline=None, database=None)
    @hyp.given(small, small)
    @hyp.example(parse_module("P2"), parse_module("P0"))  # rigid parts, sum not rigid
    def check(m, n):
        s = m + n
        for a, b in _cells(s):
            convolved = sum(at_one(m, f, g) * at_one(n, a - f, b - g) for f, g in _cells(m))
            assert at_one(s, a, b) == convolved, (m, n, a, b)

    check()


def _splits(blocks) -> bool:
    """Whether the engine's table of the sum of blocks is their split
    convolution: with Ext^1(N, M) = 0 and m = dim M, count(M + N, e) is the
    sum over e' + e'' = e of q^<e'', m - e'> count(M, e') count(N, e'')."""
    table, dim, whole = {(0, 0): ONE}, DimVector(0, 0), KroneckerDescriptor()
    for block in blocks:
        out = {}
        for (a, b), x in table.items():
            for a2, b2 in _cells(block):
                y = count(block, a2, b2)
                if x and y:
                    twist = euler_form(DimVector(a2, b2), DimVector(dim.a - a, dim.b - b))
                    key = (a + a2, b + b2)
                    out[key] = out.get(key, ZERO) + (x * y).shift(twist)
        table, dim, whole = out, dim + block.dim_vector(), whole + block
    return all(count(whole, a, b) == table.get((a, b), ZERO) for a, b in _cells(whole))


def test_direct_sums_split_by_the_euler_form():
    # Ext^1 vanishes from every later block into every earlier one when the
    # I_n come ascending, then each tube whole, then the P_n descending
    rng = random.Random(0)
    for _ in range(40):
        ps, is_, tubes = [], [], {("p", 1): [], ("x", 2): []}
        for _ in range(rng.randint(2, 3)):
            kind = rng.choice(["P", "I", ("p", 1), ("x", 2)])
            if kind in ("P", "I"):
                (ps if kind == "P" else is_).append(rng.randint(0, 4))
            else:
                tubes[kind].append(rng.randint(1, 4 - kind[1]))
        blocks = [preinjective(n) for n in sorted(is_)]
        blocks += [regular(sorted(t, reverse=True), *k) for k, t in tubes.items() if t]
        blocks += [preprojective(n) for n in sorted(ps, reverse=True)]
        assert _splits(blocks), blocks
    # Ext^1(I1, P1) and Ext^1(P2, R(p,[2])) are not 0, so the reversed
    # orders fail
    for first, second in [("I1", "P1"), ("R(p,[2])", "P2")]:
        blocks = [parse_module(first), parse_module(second)]
        assert _splits(blocks) and not _splits(blocks[::-1]), first


def test_split_counts_equal_the_recursive_table():
    # count splits a module into its I-, regular and P-parts; table runs
    # the memoized recursion on the whole module, cell by cell
    rng = random.Random(29)
    for _ in range(15):
        summands = []
        for _ in range(rng.randint(2, 4)):
            kind = rng.choice("PIRX")
            if kind in "PI":
                summands.append(f"{kind}{rng.randint(0, 8)}")
            else:
                parts = sorted(rng.choices(range(1, 5), k=rng.randint(1, 2)), reverse=True)
                point = rng.choice("pq") if kind == "R" else "x@2"
                summands.append(f"R({point},[{','.join(map(str, parts))}])")
        m = parse_module(" + ".join(summands))
        table = CountingEngine().table(m)
        split = CountingEngine()
        assert list(table) == list(_cells(m))
        for (a, b), value in table.items():
            assert split.count(m, a, b) == value, (m, a, b)


def test_rigid_counts_have_the_grassmannian_degree():
    # Gr_e(M) of a rigid M is empty or smooth and projective of dimension
    # <e, alpha - e>, so by purity and Poincare duality a nonzero count is a
    # palindrome with constant term 1; the rigid sums are those of P_n and
    # P_(n+1), or of I_n and I_(n+1)
    rigid = [
        KroneckerDescriptor.build({n: s, n + 1: t})
        for n in range(5)
        for s in range(3)
        for t in range(0 if s else 1, 3)
    ]
    for pp in rigid + [parse_module("3*P1 + P2")]:
        for m in (pp, _dual(pp)):
            assert ext_dim(m, m) == 0, m
            for a, b in _cells(m):
                value = count(m, a, b)
                if not value.is_zero:
                    cs = list(value.cs)
                    assert value.lo + len(cs) - 1 == _grassmannian_dim(m, a, b), (m, a, b)
                    assert value.lo == 0 and cs[0] == 1 and cs == cs[::-1], (m, a, b)


def test_counts_have_at_least_the_expected_degree():
    # every component of any Gr_e(M) has dimension at least <e, alpha - e>
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=40, deadline=None, database=None)
    @hyp.given(_random_modules(hyp.strategies, 14))
    def check(m):
        for a, b in _cells(m):
            value = count(m, a, b)
            if not value.is_zero:
                assert value.lo + len(value.cs) - 1 >= _grassmannian_dim(m, a, b), (m, a, b)

    check()


def test_deep_rigid_count_memoizes_only_its_nonzero_cells():
    engine = CountingEngine()
    assert engine.count(parse_module("P150 + P149"), 150, 149) == parse_poly("q^2 + q + 1")
    # one nonzero cell per reflection step; the vanishing rules answer the
    # other cells before the memo
    assert sum(len(rec.memo) for rec in engine._records if rec.memo is not None) <= 200


def test_recursion_window_stops_at_the_defect_bound(monkeypatch):
    # past c = l + t the reflected cell has b - a > t, which the first
    # defect-bound rule answers 0; the summation window never reaches it
    calls = []
    inner = CountingEngine._count

    def counted(self, rec, a, b):
        calls.append(b - a > rec.t)
        return inner(self, rec, a, b)

    monkeypatch.setattr(CountingEngine, "_count", counted)
    CountingEngine().count(parse_module("P60 + P59"), 50, 25)
    assert not any(calls)
    assert len(calls) < 3000  # 70,122 with the window up to N's dimension


def test_a_fused_sum_that_leaves_a_negative_term_is_refused(monkeypatch):
    import kronq.engine as engine
    import kronq.laurent as laurent

    sizes = []

    def spied(terms):
        sizes.append(len(terms))
        return sum_of_products(terms)

    def wrong_sign(l, a):
        return -gauss(l, a) if l == 1 else gauss(l, a)

    # a cutoff of 0 packs every sum of two or more terms, however small
    monkeypatch.setattr(laurent, "_PACK_THRESHOLD", 0)
    monkeypatch.setattr(engine, "sum_of_products", spied)
    monkeypatch.setattr(engine, "gauss", wrong_sign)
    with pytest.raises(AssertionError, match=r"^count\(P1 \+ P2, 5, 2\) produced -q\^2 - q - 1; "):
        CountingEngine().count(parse_module("P2 + P1"), 5, 2)
    assert sizes[-1] == 2


def _defect_bound(m: KroneckerDescriptor) -> int:
    """t, the number of preinjective summands with multiplicity: no
    submodule has b - a > t, and one with b - a = t contains M_I."""
    return sum(k for _, k in m.preinjective)


def _extra_preinjectives(hyp, max_dim: int):
    """A sum of I0-I2 of total dimension at most max_dim, or 0: added to a
    random module, it makes most draws have t > 0."""
    choices = ["0", "I0", "2*I0", "I1", "I0 + I1", "3*I0", "I2"]
    return hyp.strategies.sampled_from(
        [m for m in map(parse_module, choices) if sum(m.dim_vector()) <= max_dim]
    )


def test_defect_bound_rules_against_the_oracle():
    # two degree-1 points and one degree-2 point are realisable over F_2
    hyp = pytest.importorskip("hypothesis")
    points = (("p", 1), ("s", 1), ("r", 2))
    engine = CountingEngine()

    @hyp.settings(max_examples=60, deadline=None, database=None)
    @hyp.given(_random_modules(hyp.strategies, 5, points), _extra_preinjectives(hyp, 3))
    @hyp.example(parse_module("P0 + R(p,[2]) + R(r@2,[1])"), parse_module("I0"))
    @hyp.example(parse_module("P1 + R(p,[1,1])"), parse_module("2*I0"))
    def check(m, extra):
        m = m + extra
        t = _defect_bound(m)
        for p in (2, 3):
            rep = build_rep(m, p)
            for a, b in _cells(m):
                if b - a >= t:
                    want = count_submodules(rep, a, b)
                    assert engine.count(m, a, b).eval_integer(p) == want, (m, p, a, b)

    check()


def test_defect_bound_rules_against_the_summands_at_q1():
    # at q = 1 a count of M is the convolution of its summands' counts
    hyp = pytest.importorskip("hypothesis")
    engine = CountingEngine()

    def summand(s) -> KroneckerDescriptor:
        if s.kind == "P":
            return preprojective(s.n)
        if s.kind == "I":
            return preinjective(s.n)
        return regular(s.n, s.point, s.degree)

    @hyp.settings(max_examples=60, deadline=None, database=None)
    @hyp.given(_random_modules(hyp.strategies, 11), _extra_preinjectives(hyp, 5))
    @hyp.example(parse_module("P2 + R(p,[2,1]) + R(r@2,[1])"), parse_module("2*I1"))
    def check(m, extra):
        m = m + extra
        convolved = Counter({(0, 0): 1})
        for s in map(summand, m.summands()):
            ones = {e: engine.count(s, *e).eval_integer(1) for e in _cells(s)}
            step = Counter()
            for (a, b), v in convolved.items():
                for (f, g), w in ones.items():
                    step[a + f, b + g] += v * w
            convolved = step
        t = _defect_bound(m)
        for a, b in _cells(m):
            if b - a >= t:
                assert engine.count(m, a, b).eval_integer(1) == convolved[a, b], (m, a, b)

    check()


def test_preinjective_count_memoizes_no_zero_cell():
    for text, a, b in (("P19 + I3", 14, 10), ("P60 + I2", 40, 35)):
        engine = CountingEngine()
        m = parse_module(text)
        n, k = m.preprojective[0][0], m.preinjective[0][0]
        # at q = 1 the count is the convolution of the two closed forms
        euler = sum(
            euler_char_formula("preprojective", n, a - f, b - g)
            * euler_char_formula("preinjective", k, f, g)
            for f in range(k + 1)
            for g in range(k + 2)
        )
        assert engine.count(m, a, b).eval_integer(1) == euler > 0
        # the defect-bound and rigid rules answer every zero cell before
        # the memo
        values = [v for rec in engine._records if rec.memo is not None for v in rec.memo.values()]
        assert len(values) <= 3000, text
        assert not any(v.is_zero for v in values), text


def test_memo_off_gives_the_same_cells_on_random_modules():
    hyp = pytest.importorskip("hypothesis")
    cached = CountingEngine()

    @hyp.settings(max_examples=40, deadline=None, database=None)
    @hyp.given(_random_modules(hyp.strategies, 12))
    # a record read wholly from its dual, and a self-dual one
    @hyp.example(parse_module("I2 + R(p,[1])"))
    @hyp.example(parse_module("P1 + I1 + R(p,[2,1])"))
    def check(m):
        uncached = CountingEngine(memoize=False)
        for a, b in _cells(m):
            assert uncached.count(m, a, b) == cached.count(m, a, b), (m, a, b)
        # tables run unsplit, through the duality rule of every record
        assert uncached.table(m) == cached.table(m), m

    check()


def test_relabelled_points_give_the_same_counts():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    points = (("p", 1), ("s", 1), ("r", 2))

    @hyp.settings(max_examples=40, deadline=None, database=None)
    @hyp.given(_random_modules(st, 12, points), st.permutations(["a", "m", "z"]))
    def check(m, labels):
        new = dict(zip([label for label, _ in points], labels))
        relabelled = KroneckerDescriptor.build(
            dict(m.preprojective),
            dict(m.preinjective),
            [(new[label], degree, part) for label, degree, part in m.regular],
        )
        # a fresh engine, so the relabelled descriptor is the one counted
        fresh = CountingEngine()
        for a, b in _cells(m):
            assert fresh.count(relabelled, a, b) == count(m, a, b), (m, labels, a, b)

    check()


def _self_dual_modules():
    """Every tube of weight at most 7 at one degree-1 point, some of them
    beside a second point of degree 1 or 2, and P_k + I_k beside each tube
    for k <= 2."""
    tubes = [
        f"R(p,[{','.join(map(str, lam))}])"
        for lam in subpartitions((7,) * 7)
        if 0 < sum(lam) <= 7
    ]
    out = tubes + [f"{t} + R(q,[2])" for t in tubes[:10]]
    out += [f"{t} + R(r@2,[1])" for t in tubes[:10]]
    return out + [f"P{k} + {t} + I{k}" for k in range(3) for t in tubes]


def test_self_dual_fold_matches_the_unfolded_recursion():
    # D(M) = M when M has as many P_n as I_n, so the engine reads a cell
    # with a + b > m from its mirror (n - b, m - a); recursion_a sums the
    # cell itself, with the signed cancellation the fold avoids
    engine = CountingEngine()
    for text in _self_dual_modules():
        m = parse_module(text)
        dm, dn = m.dim_vector()
        assert dm == dn and m.dual() == m, text
        for a, b in _cells(m):
            if a + b > dm and a > b:
                assert engine.recursion_a(m, a, b) == engine.count(m, a, b), (text, a, b)
        if m.is_regular_only:
            for a in range(dm // 2 + 1, dm + 1):
                assert regular_diagonal_count(m, a) == engine.count(m, a, a), (text, a)


def test_self_dual_records_memoize_only_up_to_the_anti_diagonal():
    for text in _self_dual_modules()[::7]:
        engine = CountingEngine()
        m = parse_module(text)
        table = engine.table(m)
        dm = m.dim_vector().a
        assert all(table[a, b] == table[dm - b, dm - a] for a, b in table), text
        if m.is_regular_only:
            assert engine._record(m).memo, text
        for rec in engine._records:
            if rec.module.is_regular_only:
                assert all(a + b <= rec.m for a, b in rec.memo), (text, rec.module)
