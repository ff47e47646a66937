import pytest

from kronq.abelian import (
    _generic_census,
    subgroup_census,
    subgroup_count_by_types,
)
from kronq.qbinom import gauss_int


def test_cyclic_chain():
    # Z/p^e has exactly one subgroup per order
    for p in (2, 3, 5):
        for e in range(1, 5):
            census = subgroup_census((e,), p)
            assert sum(census.values()) == e + 1
            for c in range(e + 1):
                mu = (e - c,) if e - c else ()
                nu = (c,) if c else ()
                assert census[(mu, nu)] == 1


def test_elementary_counts_are_subspace_counts():
    for p in (2, 3, 7):
        for n in range(1, 6):
            census = subgroup_census((1,) * n, p)
            for r in range(n + 1):
                mu = (1,) * (n - r)
                nu = (1,) * r
                assert census[(mu, nu)] == gauss_int(r, n, p)
            assert sum(census.values()) == sum(
                gauss_int(r, n, p) for r in range(n + 1)
            )


def test_known_small_groups():
    assert sum(subgroup_census((1, 1), 2).values()) == 5
    assert sum(subgroup_census((1, 1), 3).values()) == 6
    assert sum(subgroup_census((2, 1), 2).values()) == 8
    # Z4 x Z2: three subgroups of order 2, three of order 4
    census = subgroup_census((2, 1), 2)
    assert census[((1,), (2,))] == 2
    assert census[((1,), (1, 1))] == 1
    assert census[((2,), (1,))] == 2
    assert census[((1, 1), (1,))] == 1


def test_generic_path_agrees_with_elementary_shortcut():
    for p in (2, 3):
        for n in (1, 2, 3):
            assert _generic_census((1,) * n, p) == subgroup_census((1,) * n, p)


def test_census_is_self_dual():
    for lam in [(2, 1), (3, 2), (2, 2, 1), (3, 1, 1)]:
        for p in (2, 3):
            census = subgroup_census(lam, p)
            for (mu, nu), v in census.items():
                assert census.get((nu, mu), 0) == v


def test_counts_by_type_accessor():
    assert subgroup_count_by_types((2, 1), (1,), (2,), 2) == 2
    assert subgroup_count_by_types((2, 1), (3,), (1,), 2) == 0


def test_rejects_non_partitions():
    with pytest.raises(ValueError):
        subgroup_census((1, 2), 2)
    with pytest.raises(ValueError):
        subgroup_census((0,), 2)


def test_type_and_cotype_weights_are_complementary():
    for lam in [(2, 2), (3, 1), (2, 1, 1)]:
        total = sum(lam)
        for (mu, nu), v in subgroup_census(lam, 3).items():
            assert sum(mu) + sum(nu) == total
            assert v > 0
