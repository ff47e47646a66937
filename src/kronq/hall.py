"""Classical Hall polynomials and diagonal counts for regular modules.

``hall_polynomial(lam, nu, mu)`` is the polynomial g(x) whose value at any
prime power x = p^d is the number of subgroups N of the finite abelian
p-group of type lam with N of type mu and quotient of type nu (equivalently
the count of submodules of the corresponding tube module).  It vanishes
unless |lam| = |mu| + |nu| and both mu and nu fit inside lam, and it is
symmetric in mu and nu.  Partitions are plain tuples of ints, which
``hall_polynomial`` checks with ``model.check_partition``.

The diagonal count of a regular module needs only the sum of g over nu,
the number of subgroups of type mu.  Birkhoff's product over the columns
of lam gives it directly (Birkhoff, Proc. LMS 38, 1935; Macdonald,
Symmetric Functions and Hall Polynomials, ch. II):

    sum over nu of g(lam, nu, mu) = prod_i  x^(mu'_{i+1} (lam'_i - mu'_i))
                                     * gauss(mu'_i - mu'_{i+1}, lam'_i - mu'_{i+1})

The single polynomial g, which only ``hall_polynomial`` (the ``kronq hall``
command) needs, is the coefficient of u_lam in u_nu * u_mu in the Hall
algebra, and only that coefficient is computed.  A vertical r-strip
lam/kappa takes one box from each of the last k_i rows of the i-th run of
n_i equal parts of lam, with sum_i k_i = r, so each kappa comes from one
choice of the k_i.  The Pieri rule (Macdonald, ch. II (4.6)) gives

    [u_lam] u_kappa * e_r = x^(n(lam) - n(kappa) - r(r-1)/2 - sum_i k_i (n_i - k_i))
                            * prod_i gauss(k_i, n_i)

with n(lam) = sum_i (i - 1) lam_i.  With E_rho the product of e over the
columns of rho, [u_lam] u_nu * E_rho is the sum over such kappa of that
coefficient times [u_kappa] u_nu * E_rho', rho' being rho without its last
column (of length r).  Since E_mu = u_mu + (terms strictly below mu in dominance order),

    g(lam; nu, mu) = [u_lam] u_nu * E_mu - sum over sigma < mu inside lam of
                     [u_sigma]E_mu * g(lam; nu, sigma),

a recursion that descends in dominance order and so terminates.  Everything
stays in Z[x].  The test suite checks g against Birkhoff's sum and against
exhaustive subgroup enumeration at small primes.
"""

from __future__ import annotations

from functools import cache
from itertools import groupby, product

from .laurent import ONE, ZERO, LaurentPoly
from .model import KroneckerDescriptor, check_partition, conjugate_parts, contains_parts
from .qbinom import gauss

__all__ = [
    "hall_polynomial",
    "hall_vanishes",
    "regular_diagonal_count",
    "subpartitions",
]

Part = tuple[int, ...]


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
def _by_weight(lam: Part) -> dict[int, tuple[Part, ...]]:
    """The partitions inside lam, grouped by weight."""
    out: dict[int, list[Part]] = {}
    for sigma in subpartitions(lam):
        out.setdefault(sum(sigma), []).append(sigma)
    return {w: tuple(group) for w, group in out.items()}


@cache
def _times_e(lam: Part, nu: Part, cols: Part) -> LaurentPoly:
    """[u_lam] u_nu * E_rho, where cols are the column lengths of rho: the
    Pieri rule on the last column."""
    if not cols:
        return ONE if lam == nu else ZERO
    r = cols[-1]
    runs = [len(tuple(g)) for _, g in groupby(lam)]
    out = ZERO
    for ks in product(*(range(min(n, r) + 1) for n in runs)):
        if sum(ks) != r:
            continue
        kappa, end = list(lam), 0
        for n, k in zip(runs, ks):
            end += n
            kappa[end - k : end] = [part - 1 for part in kappa[end - k : end]]
        kappa = tuple(part for part in kappa if part)
        if contains_parts(kappa, nu):
            exp = _n(lam) - _n(kappa) - r * (r - 1) // 2
            coeff = ONE
            for n, k in zip(runs, ks):
                if 0 < k < n:  # gauss(0, n) = gauss(n, n) = 1
                    coeff = coeff * gauss(k, n)
                    exp -= k * (n - k)
            out += coeff.shift(exp) * _times_e(kappa, nu, cols[:-1])
    return out


@cache
def _hall(lam: Part, nu: Part, mu: Part) -> LaurentPoly:
    """g(lam; nu, mu) by the dominance recursion (module docstring); nu and
    mu must fit inside lam with |lam| = |nu| + |mu|."""
    cols = conjugate_parts(mu)
    out = _times_e(lam, nu, cols)
    for sigma in _by_weight(lam)[sum(mu)]:
        coeff = _times_e(sigma, (), cols)
        if sigma == mu:
            if coeff != ONE:
                raise AssertionError(f"expected unit diagonal at {mu}, got {coeff}")
        elif not coeff.is_zero:
            if not _dominates(mu, sigma):
                raise AssertionError(f"{sigma} not dominated by {mu}")
            out -= coeff * _hall(lam, nu, sigma)
    return out


def hall_vanishes(lam, nu, mu) -> bool:
    """True when the vanishing rule forces g to be 0; takes checked partitions."""
    return (
        sum(lam) != sum(mu) + sum(nu)
        or not contains_parts(lam, mu)
        or not contains_parts(lam, nu)
    )


def hall_polynomial(lam, nu, mu) -> LaurentPoly:
    """g(x) counting subgroups of type mu with quotient of type nu inside
    the abelian p-group of type lam, at x = p."""
    lam, nu, mu = map(check_partition, (lam, nu, mu))
    if hall_vanishes(lam, nu, mu):
        return ZERO
    # normalize the commutative product to one cached orientation
    return _hall(lam, nu, mu) if mu <= nu else _hall(lam, mu, nu)


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
    type lam; used by the diagonal regular count.

    H -> H^perp (the annihilator in the dual group, which is isomorphic to
    the group) matches the subgroups of order x^w with those of order
    x^(|lam| - w) at every prime, so the two entries are equal as
    polynomials, and only the lower half is summed.
    """
    lc, total = conjugate_parts(lam), sum(lam)
    out = [ZERO] * (total + 1)
    for mu in subpartitions(lam):
        w = sum(mu)
        if 2 * w <= total:
            out[w] += _subgroups(lc, mu)
    for w in range(total // 2 + 1, total + 1):
        out[w] = out[total - w]
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
    for _, degree, parts in module.regular:
        sums = [s.stretched(degree) for s in _weight_sums(parts)[: a // degree + 1]]
        nxt: dict[int, LaurentPoly] = {}
        for base, acc in dp.items():
            for w, s in enumerate(sums):
                key = base + degree * w
                if key > a:
                    break
                term = acc * s
                prev = nxt.get(key)
                nxt[key] = term if prev is None else prev + term
        dp = nxt
    return dp.get(a, ZERO)
