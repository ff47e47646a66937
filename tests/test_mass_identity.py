"""The Hall-algebra mass identity: every isomorphism class of one dimension
vector at once, at any field size, with no matrix model.

For alpha = (m, n) and e = (a, b),

    sum over classes [M] of dimension alpha of count(M, e) / |Aut M|
        = gauss(a, m) * gauss(b, n) * q^(2(ab + (n - b)m)) / (|GL_m| |GL_n|).

Proof: count the pairs (representation, subrepresentation of dimension e)
in two ways.  A representation is a pair of maps F_q^n -> F_q^m, and the
orbits of GL_m x GL_n on them are the isomorphism classes, with stabilizers
Aut M.  For a fixed U of dimension e each arrow has q^(ab + (n - b)m)
choices that keep U.  At e = 0 it is the classical mass formula; it is the
integration map of the Ringel-Hall algebra (Ringel, Invent. Math. 101,
1990; Reineke, Invent. Math. 152, 2003).
"""

from collections import Counter
from fractions import Fraction
from math import factorial, prod

from kronq.engine import CountingEngine
from kronq.model import KroneckerDescriptor, hom_dim
from kronq.oracle import points_of_degree
from kronq.qbinom import gauss


def _partitions(weight: int, cap: int):
    if weight == 0:
        yield ()
        return
    for part in range(min(weight, cap), 0, -1):
        for rest in _partitions(weight - part, part):
            yield (part,) + rest


def _class_types(m: int, n: int):
    """Every multiset of pieces of total dimension (m, n), as (P-part,
    I-part, regular slots): a piece is P_i (dimension (i + 1, i)), I_j
    ((j, j + 1)) or a slot (d, lambda), the partition lambda at one point of
    degree d (dimension (d|lambda|, d|lambda|)), with distinct slots at
    distinct points."""
    pieces = [(("P", i), (i + 1, i)) for i in range(m)]
    pieces += [(("I", j), (j, j + 1)) for j in range(n)]
    r = min(m, n)
    pieces += [
        (("R", (d, lam)), (d * w, d * w))
        for d in range(1, r + 1)
        for w in range(1, r // d + 1)
        for lam in _partitions(w, w)
    ]

    def grow(start, left, chosen):
        if left == (0, 0):
            yield list(chosen)
            return
        for k in range(start, len(pieces)):
            key, (da, db) = pieces[k]
            if da <= left[0] and db <= left[1]:
                chosen.append(key)
                yield from grow(k, (left[0] - da, left[1] - db), chosen)
                chosen.pop()

    for chosen in grow(0, (m, n), []):
        pp = Counter(i for kind, i in chosen if kind == "P")
        pi = Counter(j for kind, j in chosen if kind == "I")
        slots = [slot for kind, slot in chosen if kind == "R"]
        yield pp, pi, slots


def _classes(slots, q: int) -> int:
    """Isomorphism classes of one type: the slots of degree d take distinct
    points among the N_d of that degree, up to swapping equal slots."""
    by_degree = Counter(d for d, _ in slots)
    placements = prod(
        prod(points_of_degree(d, q) - i for i in range(k)) for d, k in by_degree.items()
    )
    return placements // prod(factorial(k) for k in Counter(slots).values())


def _gl(k: int, q: int) -> int:
    return prod(q**k - q**i for i in range(k))


def _aut(module, pp, pi, slots):
    """|Aut M| as a function of q: q^(dim End M - sum mu_X^2 d_X) times
    prod |GL_(mu_X)(F_(q^d_X))| over the distinct indecomposable summands X,
    mu_X the multiplicity of X and d_X its point degree (1 for P and I)."""
    blocks = [(mu, 1) for mu in pp.values()] + [(mu, 1) for mu in pi.values()]
    blocks += [(mu, d) for d, lam in slots for mu in Counter(lam).values()]
    radical = hom_dim(module, module) - sum(mu * mu * d for mu, d in blocks)
    return lambda q: q**radical * prod(_gl(mu, q**d) for mu, d in blocks)


def _check(engine, m: int, n: int, qs, via_table: bool = False, cells=None) -> None:
    """The identity in each cell e (by default every cell of the box) at
    every q in qs; each class is counted through ``table`` (the unsplit
    recursion) or ``count`` (the split rule)."""
    if cells is None:
        cells = [(a, b) for a in range(m + 1) for b in range(n + 1)]
    sums = {(q, e): Fraction(0) for q in qs for e in cells}
    for pp, pi, slots in _class_types(m, n):
        module = KroneckerDescriptor.build(
            pp, pi, [(f"x{i}", d, lam) for i, (d, lam) in enumerate(slots)]
        )
        if via_table:
            table = engine.table(module)
            values = {e: table[e] for e in cells}
        else:
            values = {e: engine.count(module, *e) for e in cells}
        aut = _aut(module, pp, pi, slots)
        for q in qs:
            weight = Fraction(_classes(slots, q), aut(q))
            for e, poly in values.items():
                sums[q, e] += weight * poly.eval_integer(q)
    for (q, (a, b)), total in sums.items():
        pairs = gauss(a, m).eval_integer(q) * gauss(b, n).eval_integer(q)
        expected = Fraction(pairs * q ** (2 * (a * b + (n - b) * m)), _gl(m, q) * _gl(n, q))
        assert total == expected, ((m, n), (a, b), q)


# every dimension vector up to (4, 4), with 60 class types at (4, 4) and
# points of degree up to 4
_ALPHAS = [(m, n) for m in range(5) for n in range(5)]


def test_mass_identity_on_every_class_up_to_4_4():
    engine = CountingEngine()
    for m, n in _ALPHAS:
        _check(engine, m, n, (2, 3, 4, 5))


def test_mass_identity_without_closed_forms_through_tables():
    engine = CountingEngine(use_closed_forms=False)
    for m, n in _ALPHAS:
        _check(engine, m, n, (2, 3, 4, 5), via_table=True)


def test_mass_identity_at_the_centre_of_6_6():
    # a regular record computes only the cells with a + b <= m and mirrors
    # the rest, so the weight-1 subgroups of a point of degree d reach a
    # diagonal count only when 2d <= m: for d = 3 the first such cell is
    # (3, 3) at alpha = (6, 6)
    _check(CountingEngine(), 6, 6, (2, 3, 4, 5), cells=[(3, 3)])
