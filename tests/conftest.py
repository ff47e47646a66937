"""Shared helpers: the deterministic descriptor corpus used by the
engine-vs-oracle and positivity checks."""

from itertools import combinations_with_replacement

import pytest

from kronq.model import KroneckerDescriptor

MAX_DIM = (5, 5)

# summand alphabet: P0..P2, I0..I2, and regular points carrying any
# partition with parts <= 2 (stacked uniserials of length <= 2).
_DEG1_PARTITIONS = [
    (1,), (2,), (1, 1), (2, 1), (2, 2),
    (1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 1, 1, 1), (1, 1, 1, 1, 1),
]
_DEG2_PARTITIONS = [(1,), (2,), (1, 1)]

# realizable over both F_2 and F_3: at most three degree-1 points and one
# degree-2 point exist over F_2
_MAX_DEG1_POINTS = 3
_MAX_DEG2_POINTS = 1


def _count_multisets(bound, dims):
    """Multisets over indexed items with component-wise dimension bound."""
    items = list(dims.items())

    def grow(i, remaining, acc):
        yield dict(acc)
        for j in range(i, len(items)):
            key, (da, db) = items[j]
            if da <= remaining[0] and db <= remaining[1]:
                acc[key] = acc.get(key, 0) + 1
                yield from grow(j, (remaining[0] - da, remaining[1] - db), acc)
                acc[key] -= 1
                if not acc[key]:
                    del acc[key]

    yield from grow(0, bound, {})


def corpus_descriptors():
    """Every descriptor with dimension vector <= (5, 5) over the alphabet,
    regular points realizable over F_2 and F_3, in a deterministic order."""
    bound = MAX_DIM

    regular_choices = [({}, (0, 0))]
    deg1_options = list(
        ms
        for k in range(_MAX_DEG1_POINTS + 1)
        for ms in combinations_with_replacement(_DEG1_PARTITIONS, k)
    )
    deg2_options = list(
        ms
        for k in range(_MAX_DEG2_POINTS + 1)
        for ms in combinations_with_replacement(_DEG2_PARTITIONS, k)
    )
    regular_choices = []
    for d1 in deg1_options:
        for d2 in deg2_options:
            w = sum(sum(p) for p in d1) + 2 * sum(sum(p) for p in d2)
            if w <= min(bound):
                regular_choices.append((d1, d2, w))

    out = []
    for pp in _count_multisets(bound, {0: (1, 0), 1: (2, 1), 2: (3, 2)}):
        dims_pp = (
            sum(m * (n + 1) for n, m in pp.items()),
            sum(m * n for n, m in pp.items()),
        )
        for pi in _count_multisets(
            (bound[0] - dims_pp[0], bound[1] - dims_pp[1]),
            {0: (0, 1), 1: (1, 2), 2: (2, 3)},
        ):
            dims_pi = (
                sum(m * n for n, m in pi.items()),
                sum(m * (n + 1) for n, m in pi.items()),
            )
            budget = min(
                bound[0] - dims_pp[0] - dims_pi[0],
                bound[1] - dims_pp[1] - dims_pi[1],
            )
            for d1, d2, w in regular_choices:
                if w > budget:
                    continue
                reg = [
                    (f"p{i + 1}", 1, parts)
                    for i, parts in enumerate(d1)
                ]
                reg += [
                    (f"r{i + 1}", 2, parts)
                    for i, parts in enumerate(d2)
                ]
                desc = KroneckerDescriptor(
                    tuple(sorted(pp.items())),
                    tuple(sorted(pi.items())),
                    tuple(sorted(reg)),
                )
                if not desc.is_zero:
                    out.append(desc)
    out.sort(key=lambda d: (d.dim_vector(), str(d)))
    return out


@pytest.fixture(scope="session")
def corpus():
    return corpus_descriptors()
