import random
from collections import Counter
from itertools import product

import pytest

import kronq.oracle as oracle
from kronq.model import parse_module
from kronq.oracle import (
    MatrixRep,
    PointCapacityError,
    build_rep,
    count_submodules,
    count_submodules_naive,
    hom_dim_numeric,
    submodule_table,
    _MAX_SUBSPACES,
    _image_tables,
    _matvec,
    _monic_irreducibles,
    _rank,
    _subspace_bases,
    _walk,
    _walk_size,
)
from kronq.qbinom import gauss_int


def test_standard_models():
    rep = build_rep(parse_module("P1"), 2)
    assert rep.alpha == ((1,), (0,))
    assert rep.beta == ((0,), (1,))
    rep = build_rep(parse_module("I1"), 2)
    assert rep.alpha == ((1, 0),)
    assert rep.beta == ((0, 1),)
    rep = build_rep(parse_module("R(p,[2])"), 3)
    assert rep.alpha == ((1, 0), (0, 1))
    assert rep.beta == ((0, 1), (0, 0))  # nilpotent Jordan block at 0
    rep = build_rep(parse_module("R(p@2,[1])"), 2)
    # companion matrix of the unique irreducible quadratic over F_2
    assert rep.alpha == ((1, 0), (0, 1))
    assert rep.beta == ((0, 1), (1, 1))
    # x^3 + x^2 + 1, the first cubic of the F_2 pool: companion blocks on
    # the diagonal of beta, an identity block above them
    rep = build_rep(parse_module("R(p@3,[2])"), 2)
    assert (rep.dim1, rep.dim2) == (6, 6)
    assert rep.alpha == tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
    assert rep.beta == (
        (0, 0, 1, 1, 0, 0),
        (1, 0, 0, 0, 1, 0),
        (0, 1, 1, 0, 0, 1),
        (0, 0, 0, 0, 0, 1),
        (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, 1),
    )
    # a shift of 3 gives the F_3 pool's fourth point, 'inf': alpha is the
    # nilpotent block and beta the identity
    rep = build_rep(parse_module("R(p,[2])"), 3, parameter_shift=3)
    assert rep.alpha == ((0, 1), (0, 0))
    assert rep.beta == ((1, 0), (0, 1))
    # P0 and I0 are a row and a column of zeros
    rep = build_rep(parse_module("P0 + I0"), 2)
    assert (rep.dim1, rep.dim2, rep.alpha, rep.beta) == (1, 1, ((0,),), ((0,),))


def test_quadratic_and_cubic_pool_polynomials_have_no_root():
    # a quadratic or cubic without a root in F_p is irreducible
    for p in (2, 3, 5, 7):
        for d in (2, 3):
            pool = list(_monic_irreducibles(d, p))
            assert pool == sorted(set(pool)), (d, p)
            for tail in pool:
                for x in range(p):
                    assert (x**d + sum(c * x**i for i, c in enumerate(tail))) % p, (tail, x)


def _monic_times(f, g, p):
    """(x^e + f)(x^k + g) over F_p, as an ascending tail without its 1."""
    out = [0] * (len(f) + len(g) + 1)
    for i, x in enumerate(f + (1,)):
        for j, y in enumerate(g + (1,)):
            out[i + j] += x * y
    return tuple(c % p for c in out[:-1])


def test_point_stream_is_every_irreducible_in_order():
    # a sieve: a monic polynomial of degree d is reducible exactly when it
    # is a monic irreducible of some degree e <= d/2 times a monic cofactor
    for p in (2, 3, 5, 7):
        irreducible = {}
        d = 1
        while p**d <= 3000:
            reducible = {
                _monic_times(f, g, p)
                for e in range(1, d // 2 + 1)
                for f in irreducible[e]
                for g in product(range(p), repeat=d - e)
            }
            want = [t for t in product(range(p), repeat=d) if t not in reducible]
            assert list(_monic_irreducibles(d, p)) == want, (d, p)
            irreducible[d] = want
            d += 1


def test_a_model_draws_only_the_points_it_uses(monkeypatch):
    # one point of degree 8 over F_5 needs the first irreducible octic, not
    # all 5^8 candidates
    drawn = []

    def counted(*args, **kwargs):
        for t in product(*args, **kwargs):
            drawn.append(len(t))
            yield t

    monkeypatch.setattr(oracle, "product", counted)
    build_rep(parse_module("R(x@8,[1])"), 5)
    assert 0 < drawn.count(8) < 50


def test_parameter_shift_wraps_around_the_pool():
    # over F_2 the degree-1 pool is x, x + 1, 'inf'; a shift of 2 puts p at
    # 'inf' and wraps q round to x
    m = parse_module("R(p,[1]) + R(q,[1])")
    reps = [build_rep(m, 2, parameter_shift=s) for s in range(7)]
    assert reps[:4] == reps[3:]
    assert (reps[2].alpha, reps[2].beta) == (((0, 0), (0, 1)), ((1, 0), (0, 0)))
    assert reps[0] != reps[1] != reps[2] != reps[0]
    m = parse_module("R(p@2,[1])")  # a pool of one
    assert len({build_rep(m, 2, parameter_shift=s) for s in range(3)}) == 1


def test_submodule_counts():
    rep = build_rep(parse_module("P1"), 2)
    assert count_submodules(rep, 1, 0) == 3
    assert count_submodules(rep, 0, 0) == 1
    assert count_submodules(rep, 1, 1) == 0
    assert count_submodules(rep, -1, 0) == 0
    assert count_submodules(rep, 5, 0) == 0
    rep = build_rep(parse_module("R(p,[1])"), 2)
    assert count_submodules(rep, 0, 1) == 0


def test_subspace_enumeration():
    assert len(_subspace_bases(2, 1, 2)) == 3
    assert _subspace_bases(3, 0, 3) == ((),)
    assert len(_subspace_bases(4, 2, 2)) == 35
    for n in range(5):
        for k in range(n + 1):
            for p in (2, 3):
                assert len(_subspace_bases(n, k, p)) == gauss_int(k, n, p)


def test_subspace_representatives_are_unique():
    reps = _subspace_bases(4, 2, 3)
    assert len(set(reps)) == len(reps) == gauss_int(2, 4, 3)


def test_optimized_count_equals_naive():
    mods = ["P1", "I1", "R(p,[1]) + I0", "P0 + R(p,[1])", "R(p,[1,1])"]
    for text in mods:
        m = parse_module(text)
        dim = m.dim_vector()
        if dim.a > 3 or dim.b > 3:
            continue
        for p in (2, 3):
            rep = build_rep(m, p)
            for a in range(dim.a + 1):
                for b in range(dim.b + 1):
                    assert count_submodules(rep, a, b) == (
                        count_submodules_naive(rep, a, b)
                    ), (text, p, a, b)


def test_counts_independent_of_point_assignment():
    mods = ["R(p,[2])", "R(p,[1]) + R(q,[2])", "R(p,[1]) + R(q,[1]) + R(r,[1])"]
    for text in mods:
        m = parse_module(text)
        dim = m.dim_vector()
        for p in (2, 3):
            tables = [
                submodule_table(build_rep(m, p, parameter_shift=shift))
                for shift in (0, 1, 2)
            ]
            assert tables[0] == tables[1] == tables[2], (text, p)
    # degree-2 points over F_3: three distinct irreducible quadratics
    m = parse_module("R(p@2,[1])")
    tables = [
        submodule_table(build_rep(m, 3, parameter_shift=s)) for s in (0, 1, 2)
    ]
    assert tables[0] == tables[1] == tables[2]


def test_point_capacity():
    with pytest.raises(PointCapacityError) as err:
        build_rep(parse_module("R(a,[1]) + R(b,[1]) + R(c,[1]) + R(d,[1])"), 2)
    assert str(err.value) == "F_2 has only 3 points of degree 1; descriptor needs 4"
    # F_3 hosts four degree-1 points
    build_rep(parse_module("R(a,[1]) + R(b,[1]) + R(c,[1]) + R(d,[1])"), 3)
    with pytest.raises(PointCapacityError) as err:
        build_rep(parse_module("R(a@2,[1]) + R(b@2,[1])"), 2)
    assert str(err.value) == "F_2 has only 1 points of degree 2; descriptor needs 2"
    build_rep(parse_module("R(a@2,[1]) + R(b@2,[1])"), 3)


def test_endomorphism_dimensions_match_the_table():
    # End(P_n) and End(I_n) are one-dimensional; a tube point of degree d
    # contributes d * min(t, t)
    for p in (2, 3):
        for text, expected in [
            ("P0", 1),
            ("P2", 1),
            ("I1", 1),
            ("R(p,[1])", 1),
            ("R(p,[2])", 2),
            ("R(p@2,[1])", 2),
        ]:
            rep = build_rep(parse_module(text), p)
            assert hom_dim_numeric(rep, rep) == expected, (text, p)


def test_mismatched_primes_rejected():
    r2 = build_rep(parse_module("P1"), 2)
    r3 = build_rep(parse_module("P1"), 3)
    with pytest.raises(ValueError):
        hom_dim_numeric(r2, r3)


def _given_reps(check):
    """Run ``check`` on arbitrary MatrixReps (random alpha and beta, not
    block-diagonal models) over F_2, F_3 and F_5 with dim2 <= 4, and dim1 <= 4
    over F_2 and F_3 but <= 2 over F_5, which keeps the naive count cheap."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def reps(draw):
        p = draw(st.sampled_from((2, 3, 5)))
        dim1 = draw(st.integers(0, 2 if p == 5 else 4))
        dim2 = draw(st.integers(0, 4))

        def matrix():
            entry = st.integers(0, p - 1)
            return tuple(tuple(draw(entry) for _ in range(dim2)) for _ in range(dim1))

        return MatrixRep(p, dim1, dim2, matrix(), matrix())

    hyp.settings(max_examples=60, deadline=None, database=None)(hyp.given(reps())(check))()


def test_table_cells_match_single_and_naive_counts_on_random_reps():
    def check(rep):
        for (a, b), cell in submodule_table(rep).items():
            assert cell == count_submodules(rep, a, b) == count_submodules_naive(rep, a, b)

    _given_reps(check)


def test_random_nonzero_rep_has_an_endomorphism():
    def check(rep):
        if rep.dim1 + rep.dim2:
            assert hom_dim_numeric(rep, rep) >= 1

    _given_reps(check)


def test_bit_plane_tables_match_the_generic_rank_on_wide_reps():
    # the F_2 masks and both F_3 planes reach past one byte at dim1 >= 9;
    # the reference ranks each subspace's images by ``_add``, and sparse
    # models leave lower ranks
    rng = random.Random(5)
    for p, dim1, density in product((2, 3), range(5, 11), (0.2, 0.5, 1)):
        dim2 = rng.randint(1, 3)
        entry = lambda: rng.randrange(p) * (rng.random() < density)
        rep = MatrixRep(p, dim1, dim2, *(
            tuple(tuple(entry() for _ in range(dim2)) for _ in range(dim1))
            for _ in "ab"
        ))
        want = {}
        for b in range(dim2 + 1):
            ranks = Counter(
                _rank([_matvec(m, v, p) for m in (rep.alpha, rep.beta) for v in u2], p)
                for u2 in _subspace_bases(dim2, b, p)
            )
            for a in range(dim1 + 1):
                want[a, b] = sum(
                    n * gauss_int(a - w, dim1 - w, p) for w, n in ranks.items() if w <= a
                )
        assert submodule_table(rep) == want, (p, dim1, dim2)


def test_walk_visits_exactly_the_nodes_the_bound_counts():
    # one cell b walks the d-subspaces with top pivot >= b - d, a whole
    # table every subspace; cases over the oracle's bound are never walked
    for p in (2, 3, 5):
        for n in range(7):
            for dims in [range(n + 1)] + [(b,) for b in range(n + 1)]:
                size = _walk_size(n, p, dims)
                if p**n + size > _MAX_SUBSPACES:
                    continue
                hists = _walk(MatrixRep(p, 0, n, (), ()), dims)
                assert sum(sum(h.values()) for h in hists) == size, (p, n, dims)
                for b in dims:
                    assert sum(hists[b].values()) == gauss_int(b, n, p), (p, n, dims)


def test_primes_above_a_byte():
    # residues mod p >= 256 are stored as machine words, and dim1 = 8 fills
    # one word exactly
    p = 257
    rng = random.Random(p)
    for dim1 in (1, 3, 8, 9):
        rows = lambda: tuple(tuple(rng.randrange(p) for _ in range(2)) for _ in range(dim1))
        rep = MatrixRep(p, dim1, 2, rows(), rows())
        for table, mat in zip(_image_tables(rep), (rep.alpha, rep.beta)):
            assert len(table) == dim1 * p**2
            for r in rng.sample(range(p**2), 40):
                image = tuple(table[r * dim1 : (r + 1) * dim1])
                assert image == _matvec(mat, (r % p, r // p), p), (dim1, r)
    for text in ("P1", "I1"):
        rep = build_rep(parse_module(text), p)
        for (a, b), cell in submodule_table(rep).items():
            assert cell == count_submodules_naive(rep, a, b), (text, a, b)
