import time
from collections import Counter

import pytest

from kronq.hall import _n
from kronq.model import (
    DimVector,
    KroneckerDescriptor,
    ModuleParseError,
    Summand,
    check_partition,
    conjugate_parts,
    contains_parts,
    ext_dim,
    euler_form,
    hom_dim,
    parse_module,
    preinjective,
    preprojective,
    regular,
)
from kronq.oracle import build_rep, hom_dim_numeric


def test_dim_vectors():
    assert preprojective(3).dim_vector() == DimVector(4, 3)
    assert preinjective(0).dim_vector() == DimVector(0, 1)
    assert regular((2, 1), degree=2).dim_vector() == DimVector(6, 6)
    big = parse_module("2*P0 + P3 + R(p1,[2,1]) + R(p2@2,[1]) + I1")
    assert big.dim_vector() == DimVector(12, 10)


def test_dim_vector_additive_under_direct_sum():
    m1 = parse_module("P1 + R(p1,[2])")
    m2 = parse_module("I2 + R(p2,[1])")
    s = m1 + m2
    assert s.dim_vector() == m1.dim_vector() + m2.dim_vector()


def test_partition_basics():
    lam = check_partition([3, 2, 2])
    assert lam == (3, 2, 2)
    assert sum(lam) == 7
    assert _n(lam) == 0 * 3 + 1 * 2 + 2 * 2
    assert conjugate_parts(lam) == (3, 3, 1)
    assert contains_parts(lam, (2, 2))
    assert not contains_parts(lam, (4,))
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((0,))


def test_split_socle():
    s, rest, t = parse_module("2*P0 + P2 + I0").split_socle()
    assert (s, str(rest), t) == (2, "P2", 1)
    s, rest, t = parse_module("P1").split_socle()
    assert (s, str(rest), t) == (0, "P1", 0)
    s, rest, t = parse_module("3*I0").split_socle()
    assert (s, str(rest), t) == (0, "0", 3)


def test_reflections():
    assert str(parse_module("P2 + I1").reflect_plus()) == "P1 + I2"
    r = parse_module("R(p,[3])")
    assert r.reflect_plus() == r
    assert parse_module("P1").reflect_plus().dim_vector() == DimVector(1, 0)
    assert parse_module("I1").reflect_minus().dim_vector() == DimVector(0, 1)
    # S+ kills the simple projective P0 and S- the simple injective I0
    assert parse_module("P0 + P1").reflect_plus() == parse_module("P0")
    assert parse_module("I0").reflect_minus().is_zero


def test_reflections_are_mutually_inverse():
    mods = ["P1", "P3 + I0", "R(p,[2,1]) + I2", "2*P1 + R(x@2,[1])"]
    for text in mods:
        m = parse_module(text)
        assert m.reflect_plus().reflect_minus() == m
    for text in ["I1", "I2 + P0", "R(p,[1]) + I1"]:
        m = parse_module(text)
        assert m.reflect_minus().reflect_plus() == m


def test_summand_kinds_and_dimension_vectors():
    assert Summand("P", 0) != Summand("I", 0)
    for n in range(1, 4):
        p, i, r = Summand("P", n), Summand("I", n), Summand("R", n, "p")
        assert p != i and p != r and i != r
        assert p.dim_vector() == DimVector(n + 1, n)
        assert i.dim_vector() == DimVector(n, n + 1)
        assert r.dim_vector() == DimVector(n, n)
    assert Summand("R", 3, "x", 2).dim_vector() == DimVector(6, 6)


def test_dual_is_an_involution_that_swaps_p_and_i():
    for text in ["P0", "2*P3 + I1", "R(p,[2,1]) + R(x@2,[1]) + P1 + 3*I0", "0"]:
        m = parse_module(text)
        d = m.dual()
        assert d.dual() == m
        assert d.dim_vector() == DimVector(m.dim_vector().b, m.dim_vector().a)
        assert d.regular == m.regular
        assert (d.preprojective, d.preinjective) == (m.preinjective, m.preprojective)
    assert str(parse_module("2*P3 + R(p,[1]) + I1").dual()) == "P1 + R(p,[1]) + 2*I3"


def test_reflect_plus_dimension_rule():
    for text in ["P1", "P2 + I1", "R(p,[2]) + P4", "I0 + P1", "2*P2 + R(a,[1])"]:
        m = parse_module(text)
        a, b = m.dim_vector()
        assert m.reflect_plus().dim_vector() == DimVector(b, 2 * b - a)


def test_hom_ext_table_examples():
    assert hom_dim(Summand("P", 1), Summand("P", 3)) == 3
    assert ext_dim(Summand("I", 2), Summand("P", 1)) == 5
    assert hom_dim(Summand("R", 2, "p", 1), Summand("R", 3, "p", 1)) == 2
    assert hom_dim(Summand("I", 1), Summand("P", 4)) == 0
    assert ext_dim(Summand("P", 2), Summand("P", 0)) == 1
    assert hom_dim(Summand("P", 2), Summand("I", 1)) == 3
    assert ext_dim(Summand("R", 1, "p", 2), Summand("P", 0)) == 2
    assert hom_dim(Summand("R", 1, "p", 1), Summand("R", 5, "q", 1)) == 0
    assert ext_dim(Summand("R", 1, "p", 1), Summand("R", 5, "q", 1)) == 0


def test_hom_minus_ext_is_the_euler_form():
    summands = (
        [Summand("P", n) for n in range(5)]
        + [Summand("I", n) for n in range(5)]
        + [Summand("R", t, "p", 1) for t in range(1, 4)]
        + [Summand("R", t, "q", 1) for t in range(1, 3)]
        + [Summand("R", t, "r", 2) for t in range(1, 3)]
    )
    for x in summands:
        for y in summands:
            expected = euler_form(x.dim_vector(), y.dim_vector())
            assert hom_dim(x, y) - ext_dim(x, y) == expected, (x, y)
    # across distinct tubes both dimensions vanish and so does the form
    x, y = Summand("R", 1, "p", 1), Summand("R", 1, "q", 1)
    assert hom_dim(x, y) == ext_dim(x, y) == 0


def test_hom_table_against_numeric_intertwiners():
    summands = [
        ("P0", Summand("P", 0)),
        ("P1", Summand("P", 1)),
        ("P2", Summand("P", 2)),
        ("I0", Summand("I", 0)),
        ("I1", Summand("I", 1)),
        ("R(p,[1])", Summand("R", 1, "p", 1)),
        ("R(p,[2])", Summand("R", 2, "p", 1)),
        ("R(x@2,[1])", Summand("R", 1, "x", 2)),
    ]
    for p in (2, 3):
        reps = {text: build_rep(parse_module(text), p) for text, _ in summands}
        for tx, sx in summands:
            for ty, sy in summands:
                da, db = sx.dim_vector()
                ea, eb = sy.dim_vector()
                if da + db + ea + eb > 5:
                    continue
                assert hom_dim(sx, sy) == hom_dim_numeric(reps[tx], reps[ty]), (
                    tx,
                    ty,
                    p,
                )


def test_hom_dim_numeric_matches_table_on_same_tube():
    # same label must map to the same concrete point
    m = parse_module("R(p,[2])")
    n = parse_module("R(p,[3])")
    for p in (2, 3):
        assert hom_dim_numeric(build_rep(m, p), build_rep(n, p)) == 2


def test_descriptor_hom_is_additive():
    m = parse_module("P1 + I0")
    n = parse_module("P2 + R(p,[1])")
    total = sum(hom_dim(x, y) for x in m.summands() for y in n.summands())
    assert hom_dim(m, n) == total


def test_parse_and_render():
    text = "2*P0 + P3 + R(p1,[2,1]) + R(p2@2,[1]) + I1"
    m = parse_module(text)
    assert str(m) == text
    assert parse_module(str(m)) == m
    assert parse_module("0").is_zero
    # degree defaults to 1; partitions are sorted; same label merges
    assert str(parse_module("R(p,[1,2])")) == "R(p,[2,1])"
    assert str(parse_module("R(p,[2]) + R(p,[1])")) == "R(p,[2,1])"
    assert str(parse_module("P1+I0")) == "P1 + I0"
    assert str(parse_module("2*R(p,[1])")) == "R(p,[1,1])"


def test_parse_repeated_regular_summand():
    started = time.perf_counter()
    m = parse_module("2000*P0 + 8000*R(p,[1])")
    assert time.perf_counter() - started < 1
    assert m.regular[0][2] == (1,) * 8000
    assert parse_module("2*R(p,[2,1]) + R(p,[3])") == parse_module("R(p,[3,2,2,1,1])")
    # zero copies of a regular summand are no summand, as for P and I
    assert parse_module("0*R(p,[1]) + P1") == parse_module("0*I2 + P1")


def test_parse_builds_the_descriptor_once(monkeypatch):
    calls = []
    build = KroneckerDescriptor.build

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(KroneckerDescriptor, "build", staticmethod(counted))
    m = parse_module("2*P0 + P3 + R(p,[2,1]) + I1")
    assert len(calls) == 1
    assert m == KroneckerDescriptor(((0, 2), (3, 1)), ((1, 1),), (("p", 1, (2, 1)),))


def test_parse_errors():
    for bad, pos_at_least in [
        ("P1 + Q2", 5),
        ("R(p,[1)", 6),
        ("3*", 2),
        ("R(p@0x,[1])", 4),
        ("P1 P2", 3),
        ("", 0),
    ]:
        with pytest.raises(ModuleParseError) as exc:
            parse_module(bad)
        assert exc.value.position >= pos_at_least, bad
    with pytest.raises(ModuleParseError) as exc:
        parse_module("R(p,[1]) + R(p@2,[1])")  # degree conflict on one label
    assert (exc.value.message, exc.value.position) == ("point 'p' used with degrees 1 and 2", 21)
    with pytest.raises(ModuleParseError) as exc:
        parse_module("P1 + R(q@0,[1])")
    assert (exc.value.message, exc.value.position) == ("point degrees must be positive", 15)


def test_parse_reads_only_decimal_digits():
    # superscripts are digits to str.isdigit but not to int()
    for bad, pos in [("P²", 1), ("R(p,[¹])", 5), ("R(p@³,[1])", 4), ("²*P0", 0)]:
        with pytest.raises(ModuleParseError) as exc:
            parse_module(bad)
        assert exc.value.position == pos, bad


def test_counting_key_ignores_labels():
    m1 = parse_module("R(a,[2]) + R(b,[1])")
    m2 = parse_module("R(x,[1]) + R(y,[2])")
    assert m1.counting_key() == m2.counting_key()
    m3 = parse_module("R(a@2,[2]) + R(b,[1])")
    assert m1.counting_key() != m3.counting_key()


def test_single_indecomposable():
    assert parse_module("P2").single_indecomposable() == Summand("P", 2)
    assert parse_module("R(p,[3])").single_indecomposable() == Summand("R", 3, "p", 1)
    assert parse_module("R(p,[2,1])").single_indecomposable() is None
    assert parse_module("2*P0").single_indecomposable() is None
    assert parse_module("0").single_indecomposable() is None


def _random_descriptors(st):
    """Descriptors with P and I multiplicities 1-5 at indices 0-30 and up to
    three labelled points of degree 1-3 carrying partitions of 1-4 parts."""
    counts = st.dictionaries(st.integers(0, 30), st.integers(1, 5), max_size=4)
    label = st.text("abpqxyz019_", min_size=1, max_size=3)
    parts = st.lists(st.integers(1, 6), min_size=1, max_size=4)
    points = st.dictionaries(label, st.tuples(st.integers(1, 3), parts), max_size=3)
    return st.builds(
        lambda pp, pi, reg: KroneckerDescriptor.build(
            pp, pi, [(lab, deg, sorted(ps, reverse=True)) for lab, (deg, ps) in reg.items()]
        ),
        counts, counts, points,
    )


def test_parse_render_round_trip_on_random_descriptors():
    hyp = pytest.importorskip("hypothesis")
    modules = _random_descriptors(hyp.strategies)

    @hyp.settings(max_examples=200, deadline=None, database=None)
    @hyp.given(modules, modules)
    def check(m, other):
        assert parse_module(str(m)) == m
        assert str(parse_module(str(m))) == str(m)
        # the direct sum against the multiset of summands, or the one error
        clashes = [
            (label, deg, d0)
            for label, d0, _ in m.regular
            for l2, deg, _ in other.regular
            if l2 == label and deg != d0
        ]
        if clashes:
            label, deg, d0 = clashes[0]
            with pytest.raises(ValueError) as exc:
                m + other
            assert str(exc.value) == f"point {label!r} used with degrees {d0} and {deg}"
            return
        total = m + other
        assert Counter(total.summands()) == Counter(m.summands()) + Counter(other.summands())
        assert total == other + m
        if not (m.is_zero or other.is_zero):
            assert parse_module(f"{m} + {other}") == total
        assert parse_module(str(total)) == total

    check()
