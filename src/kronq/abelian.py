"""Exhaustive subgroup census of finite abelian p-groups.

Ground truth for the Hall polynomial path: every subgroup of
G = Z/p^{lam_1} x ... x Z/p^{lam_n} is visited exactly once and tallied by
(type of subgroup, type of quotient).

Subgroups correspond to integer lattices L with R <= L <= Z^n, where R is
generated by the rows of diag(p^{lam_i}); each such lattice has a unique
upper-triangular Hermite normal form basis, which the enumeration walks
column by column.  Placing column k imposes one p-power congruence per
earlier row (solvability of y * H = p^{lam_j} * e_j), so the walk only ever
visits valid matrices.  The back-substitution coefficients computed along
the way are exactly the rows of Y = diag(p^{lam_i}) * H^(-1), whose cokernel
is the subgroup itself, while the cokernel of H is the quotient; both types
come out of a Smith-form reduction over Z/p^{lam_1}.
"""

from __future__ import annotations

from functools import cache

from .model import check_partition
from .qbinom import gauss_int

__all__ = [
    "subgroup_census",
    "subgroup_count_by_types",
]

Part = tuple[int, ...]


def _valuation(x: int, p: int, cap: int) -> int:
    if x == 0:
        return cap
    v = 0
    while x % p == 0 and v < cap:
        x //= p
        v += 1
    return v


def _cokernel_type(mat: list[list[int]], p: int, cap: int) -> Part:
    """Type of Z^n / rowspan(mat) as a partition, assuming p^cap kills it.

    Smith reduction over Z/p^cap: repeatedly pick an entry of minimal
    p-valuation, clear its row and column, record the valuation.
    """
    mod = p**cap
    m = [[x % mod for x in row] for row in mat]
    n = len(m)
    vals = []
    rows = list(range(n))
    cols = list(range(n))
    while rows:
        best = None
        bv = cap
        for i in rows:
            mi = m[i]
            for j in cols:
                x = mi[j]
                if x:
                    v = _valuation(x, p, cap)
                    if v < bv:
                        bv = v
                        best = (i, j)
                        if v == 0:
                            break
            if best and bv == 0:
                break
        if best is None:
            vals.extend(cap for _ in rows)
            break
        i0, j0 = best
        piv = m[i0][j0]
        unit_inv = pow(piv // p**bv, -1, mod)
        for i in rows:
            if i == i0 or not m[i][j0]:
                continue
            f = (m[i][j0] // p**bv) * unit_inv % mod
            mi, m0 = m[i], m[i0]
            for j in cols:
                mi[j] = (mi[j] - f * m0[j]) % mod
        for j in cols:
            if j == j0 or not m[i0][j]:
                continue
            f = (m[i0][j] // p**bv) * unit_inv % mod
            for i in rows:
                m[i][j] = (m[i][j] - f * m[i][j0]) % mod
        vals.append(bv)
        rows.remove(i0)
        cols.remove(j0)
    return tuple(sorted((v for v in vals if v > 0), reverse=True))


def _elementary_census(n: int, p: int) -> dict[tuple[Part, Part], int]:
    # every subgroup and quotient of (Z/p)^n is elementary; only sizes vary
    out = {}
    for r in range(n + 1):
        out[((1,) * (n - r), (1,) * r)] = gauss_int(r, n, p)
    return out


def _generic_census(lam: Part, p: int) -> dict[tuple[Part, Part], int]:
    n = len(lam)
    cap = lam[0]
    tally: dict[tuple[Part, Part], int] = {}
    rows = [[0] * n for _ in range(n)]
    cvec = [0] * n
    # coeff[j][s] solves y * H = p^lam_j e_j; equals row j of diag(p^lam)H^-1
    coeff = [[0] * n for _ in range(n)]

    def place_column(k: int):
        if k == n:
            nu = _cokernel_type(rows, p, cap)
            mu = _cokernel_type(coeff, p, cap)
            key = (mu, nu)
            tally[key] = tally.get(key, 0) + 1
            return
        for ck in range(lam[k] + 1):
            pk = p**ck
            cvec[k] = ck
            rows[k][k] = pk
            coeff[k][k] = p ** (lam[k] - ck)

            def choose(u: int):
                # pick rows[u][k] subject to p^ck dividing the cascade sum
                if u < 0:
                    for j in range(k):
                        s = sum(coeff[j][v] * rows[v][k] for v in range(j, k))
                        coeff[j][k] = -s // pk
                    place_column(k + 1)
                    return
                t = sum(coeff[u][v] * rows[v][k] for v in range(u + 1, k))
                alpha = lam[u] - cvec[u]
                if alpha >= ck:
                    if t % pk == 0:
                        for x in range(pk):
                            rows[u][k] = x
                            choose(u - 1)
                        rows[u][k] = 0
                    return
                pa = p**alpha
                if t % pa:
                    return
                step = pk // pa
                x0 = (-(t // pa)) % step
                for x in range(x0, pk, step):
                    rows[u][k] = x
                    choose(u - 1)
                rows[u][k] = 0

            choose(k - 1)
            rows[k][k] = 0
            coeff[k][k] = 0

    place_column(0)
    return tally


@cache
def subgroup_census(lam, p: int) -> dict[tuple[Part, Part], int]:
    """Map (subgroup type, quotient type) -> count, exhaustively enumerated."""
    lam = check_partition(lam)
    if not lam:
        return {((), ()): 1}
    if lam[0] == 1:
        return _elementary_census(len(lam), p)
    return _generic_census(lam, p)


def subgroup_count_by_types(lam, mu, nu, p: int) -> int:
    """Number of subgroups of type mu with quotient of type nu."""
    return subgroup_census(tuple(lam), p).get((tuple(mu), tuple(nu)), 0)
