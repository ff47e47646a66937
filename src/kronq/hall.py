"""Classical Hall polynomials and diagonal counts for regular modules.

``hall_polynomial(lam, nu, mu)`` is the polynomial g(x) whose value at any
prime power x = p^d is the number of subgroups N of the finite abelian
p-group of type lam with N of type mu and quotient of type nu (equivalently
the count of submodules of the corresponding tube module).  It vanishes
unless |lam| = |mu| + |nu| and both mu and nu fit inside lam, and it is
symmetric in mu and nu.

The diagonal count of a regular module needs only the sum of g over nu,
the number of subgroups of type mu.  Birkhoff's product over the columns
of lam gives it directly (Birkhoff, Proc. LMS 38, 1935; Macdonald,
Symmetric Functions and Hall Polynomials, ch. II):

    sum over nu of g(lam, nu, mu) = prod_i  x^(mu'_{i+1} (lam'_i - mu'_i))
                                     * gauss(mu'_i - mu'_{i+1}, lam'_i - mu'_{i+1})

The single polynomial g, which only ``hall_polynomial`` (the ``kronq hall``
command) needs, is a coefficient of u_nu * u_mu in the Hall algebra.  A
product with one elementary factor e_r has a closed coefficient (the
Pieri rule; Macdonald, ch. II (4.6)):

    u_sigma * e_r = sum over lam with lam/sigma a vertical r-strip of
        x^(n(lam) - n(sigma) - r(r-1)/2 - sum_i k_i (n_i - k_i)) * prod_i gauss(k_i, n_i)

with n_i = lam'_i - lam'_{i+1}, k_i = lam'_i - sigma'_i and
n(lam) = sum_i (i - 1) lam_i.  Applying it once per column of rho gives
u_nu * E_rho, where E_rho is the product of e over the columns of rho.
Since E_mu = u_mu + (terms strictly below mu in dominance order),

    u_nu * u_mu = u_nu * E_mu - sum over sigma < mu of [u_sigma]E_mu * u_nu * u_sigma,

a recursion that descends in dominance order and so terminates.  Everything
stays in Z[x].  The test suite checks g against Birkhoff's sum and against
exhaustive subgroup enumeration at small primes.
"""

from __future__ import annotations

from functools import cache
from itertools import groupby, product

from .laurent import ONE, ZERO, LaurentPoly
from .model import KroneckerDescriptor, Partition, conjugate_parts, contains_parts
from .qbinom import gauss

__all__ = [
    "hall_polynomial",
    "hall_vanishes",
    "regular_diagonal_count",
    "subpartitions",
]

Part = tuple[int, ...]


def _as_parts(p) -> Part:
    if isinstance(p, Partition):
        return p.parts
    return Partition(tuple(p)).parts


@cache
def subpartitions(lam: Part) -> tuple[Part, ...]:
    """All partitions mu with mu_i <= lam_i."""
    out = []

    def grow(i, cap, acc):
        out.append(tuple(acc))
        if i >= len(lam):
            return
        for p in range(min(cap, lam[i]), 0, -1):
            acc.append(p)
            grow(i + 1, p, acc)
            acc.pop()

    grow(0, lam[0] if lam else 0, [])
    return tuple(out)


def _vertical_strips(sigma: Part, r: int):
    """Partitions lam containing sigma with lam/sigma a vertical strip of
    size r, i.e. at most one added box per row.  Within each run of equal
    rows of sigma (the r empty rows below it included), the added boxes go
    to the top k rows of the run."""
    runs = [(part, len(list(rows))) for part, rows in groupby(sigma + (0,) * r)]
    for ks in product(*(range(n + 1) for _, n in runs)):
        if sum(ks) == r:
            lam = [x for (part, n), k in zip(runs, ks) for x in [part + 1] * k + [part] * (n - k)]
            yield tuple(x for x in lam if x)


@cache
def _pieri_coeff(lam: Part, sigma: Part, r: int) -> LaurentPoly:
    """Coefficient of u_lam in u_sigma * e_r: the number of elementary
    subgroups of rank r with quotient type sigma, as a polynomial, by
    Macdonald's closed product (module docstring)."""
    lc = conjugate_parts(lam) + (0,)
    sc = conjugate_parts(sigma)
    sc += (0,) * (len(lc) - len(sc))
    exp = _n(lam) - _n(sigma) - r * (r - 1) // 2
    coeff = ONE
    for i in range(len(lc) - 1):
        n, k = lc[i] - lc[i + 1], lc[i] - sc[i]
        coeff = coeff * gauss(k, n)
        exp -= k * (n - k)
    return coeff.shift(exp)


def _n(lam: Part) -> int:
    """n(lam) = sum_i (i - 1) lam_i."""
    return sum(i * part for i, part in enumerate(lam))


def _dominates(lam: Part, mu: Part) -> bool:
    """lam >= mu in dominance order (equal weights assumed)."""
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l < total_m:
            return False
    return True


@cache
def _times_e(nu: Part, rho: Part) -> tuple[tuple[Part, LaurentPoly], ...]:
    """u_nu * E_rho in the u basis: the Pieri rule once per column of rho."""
    state = {nu: ONE}
    for r in conjugate_parts(rho):
        out: dict[Part, LaurentPoly] = {}
        for sigma, c in state.items():
            for lam in _vertical_strips(sigma, r):
                term = c * _pieri_coeff(lam, sigma, r)
                if not term.is_zero:
                    out[lam] = out[lam] + term if lam in out else term
        state = out
    return tuple(sorted((k, v) for k, v in state.items() if not v.is_zero))


@cache
def _u_product(nu: Part, mu: Part) -> tuple[tuple[Part, LaurentPoly], ...]:
    """Expansion of u_nu * u_mu in the u basis."""
    total = dict(_times_e(nu, mu))
    for sigma, coeff in _times_e((), mu):
        if sigma == mu:
            if coeff != ONE:
                raise AssertionError(f"expected unit diagonal at {mu}, got {coeff}")
            continue
        if not _dominates(mu, sigma):
            raise AssertionError(f"{sigma} not dominated by {mu}")
        for lam, c in _u_product(nu, sigma):
            total[lam] = total.get(lam, ZERO) - coeff * c
    return tuple(sorted((k, v) for k, v in total.items() if not v.is_zero))


def hall_vanishes(lam, nu, mu) -> bool:
    """True when the vanishing rule already forces the polynomial to be 0."""
    lam, nu, mu = _as_parts(lam), _as_parts(nu), _as_parts(mu)
    return (
        sum(lam) != sum(mu) + sum(nu)
        or not contains_parts(lam, mu)
        or not contains_parts(lam, nu)
    )


def hall_polynomial(lam, nu, mu) -> LaurentPoly:
    """g(x) counting subgroups of type mu with quotient of type nu inside
    the abelian p-group of type lam, at x = p."""
    lam, nu, mu = _as_parts(lam), _as_parts(nu), _as_parts(mu)
    if hall_vanishes(lam, nu, mu):
        return ZERO
    # normalize the commutative product to one cached orientation
    expansion = _u_product(nu, mu) if mu <= nu else _u_product(mu, nu)
    return dict(expansion).get(lam, ZERO)


def _subgroups(lc: Part, mu: Part) -> LaurentPoly:
    """Number of subgroups of type mu in the abelian p-group whose type has
    conjugate lc, as a polynomial in x = p (Birkhoff's product); mu must fit
    inside that type."""
    mc = conjugate_parts(mu)
    mc += (0,) * (len(lc) + 1 - len(mc))
    out = ONE
    for i, l in enumerate(lc):
        m, m_next = mc[i], mc[i + 1]
        out = out * gauss(m - m_next, l - m_next).shift(m_next * (l - m))
    return out


@cache
def _weight_sums(lam: Part) -> tuple[LaurentPoly, ...]:
    """Entry w: the number of subgroups of order x^w in the abelian group of
    type lam; used by the diagonal regular count."""
    lc = conjugate_parts(lam)
    out = [ZERO] * (sum(lam) + 1)
    for mu in subpartitions(lam):
        out[sum(mu)] += _subgroups(lc, mu)
    return tuple(out)


def regular_diagonal_count(module: KroneckerDescriptor, a: int) -> LaurentPoly:
    """Submodules of dimension vector (a, a) of a regular module.

    Factorizes over the points: count each point's subgroups by weight
    (substituting q^degree for x), and convolve the per-point weight
    distributions.
    """
    if not module.is_regular_only:
        raise ValueError("diagonal count requires a regular module")
    dim = module.dim_vector()
    if a < 0 or a > dim.a:
        return ZERO
    dp: dict[int, LaurentPoly] = {0: ONE}
    for _, degree, partition in module.regular:
        sums = _weight_sums(partition.parts)
        nxt: dict[int, LaurentPoly] = {}
        for base, acc in dp.items():
            for w, s in enumerate(sums):
                if s.is_zero:
                    continue
                key = base + degree * w
                if key > a:
                    continue
                term = acc * s.stretched(degree)
                prev = nxt.get(key)
                nxt[key] = term if prev is None else prev + term
        dp = nxt
    return dp.get(a, ZERO)
