"""Recursive computation of submodule counts for arbitrary descriptors.

Single counts split; tables recurse.  :meth:`CountingEngine.count` cuts a
module into at most three parts, in an order with vanishing Ext: the
preinjective part, the regular part whole, the preprojective part.  With N
the last part present and M the sum of the others, Ext^1(N, M) = 0, and
with m = dim M and the Euler form <x, y> = x_a y_a + x_b y_b - 2 x_b y_a:

    count(M + N, e) = sum over e' + e'' = e of
        q^<e'', m - e'> * count(M, e') * count(N, e'')

Proof: send a submodule U to (U meet M, the image of U in N).  The fibre
over (U', U'') is the set of graphs of maps U'' -> M/U', and
Ext^1(U'', M/U') is a quotient of Ext^1(N, M) = 0 because the algebra is
hereditary, so there are q^hom(U'', M/U') = q^<e'', m - e'> of them.  At
q = 1 this is Caldero-Chapoton multiplicativity (Comment. Math. Helv. 81,
2006); for the quantum form see Rupel, arXiv:1003.2652.  For P_n + X it
replaces the chain P_n + X -> P_(n-1) + S+X -> ..., n reflection steps each
with its own memo, by a few dozen products of closed forms, and keeps the
stack shallow.  Each factor is an ordinary count on its part's record, so
every rule below still applies inside it.  :meth:`CountingEngine.table`
does not split: its cells run through the whole module's record and share
its reflection memos, which a convolution per cell would not, so
splitting inside every record makes mixed tables slower, not faster.

Below the split, the dispatcher reduces a count to closed forms and
diagonal regular counts:

  1. dimension guards (0 outside the box, 1 at the corners);
  2. three proven vanishing rules decide a cell before the memo is
     consulted, so the module's record never dispatches or stores it.
     Write M = M_P + M_R + M_I for the preprojective, regular and
     preinjective parts, t for the number of summands of M_I (with
     multiplicity) and a_I for its vertex-1 dimension.  The defect-bound
     rules: count(M, a, b) = 0 when b - a > t, and when b - a = t it is
     count(M_R, a - a_I, a - a_I), a diagonal regular count (1 at a = a_I
     and 0 elsewhere when M_R = 0).  Proof: for a submodule
     U = U_P + U_R + U_I, Hom(I, P + R) = 0 puts U_I inside M_I.  The
     defect b - a adds over summands (-1 per P, 0 per R, +1 per I), and
     M_I/U_I is preinjective, of defect >= 0 with equality only when it
     is 0; so b - a = #U_I - #U_P <= t, and equality forces U_P = 0 and
     U to contain M_I.  Then U/M_I has defect 0 inside M_P + M_R, so it is
     regular, and Hom(R, P) = 0 puts it inside M_R (Ringel, Tame algebras
     and integral quadratic forms, LNM 1099, 1984; Simson, Skowronski,
     Elements II).  The second rule would map a regular-only module to
     itself, so its diagonal goes on to step 6.  The rigid rule: for a
     rigid module (Ext^1(M, M) = 0) of dimension alpha the quiver
     Grassmannian Gr_e(M) is empty or smooth of dimension <e, alpha - e>
     (Caldero, Reineke, J. Pure Appl. Algebra 212, 2008), so the count of
     e = (a, b) vanishes when that Euler form is negative;
  3. the duality D = Hom_k(-, k) swaps P_n and I_n and keeps each tube
     (Assem, Simson, Skowronski, Elements I, III.3), and U -> (M/U)*
     matches the submodules of dimension (a, b) with those of D(M) of
     dimension (n - b, m - a); a record reads each cell with a + b > fold
     from D(M).  When M has as many P_n as I_n for every n, D(M) = M,
     m = n and the fold is m: the mirror has a + b < m, so the fold never
     loops, and a cell with a + b <= m reads only such cells, so a regular
     record's memo holds about half the table and every Gaussian in its
     sums has upper argument m - 2b > 0.  When M has preinjective but no
     preprojective summands and no closed form, the fold is -1: D(M) takes
     step 5, and its memo alone stores these values.  Otherwise the fold
     is m + n, which no cell passes;
  4. a single indecomposable with a closed form is answered directly;
  5. any preprojective summand: recurse into the reflected module S+M
     (Bernstein, Gelfand, Ponomarev, Russian Math. Surveys 28, 1973), which
     strictly lowers the largest preprojective index;
  6. otherwise the module is regular: counts with b > a vanish by the
     first defect-bound rule, for a > b the same reflection lowers a, and
     on the diagonal the count factorizes over the tubes, each point
     contributing its subgroup counts by order (Birkhoff's product, see
     :mod:`kronq.hall`).

The recursion sums Gaussian-weighted counts of a reflected module.  The
summation bounds come from the dimension guards of the reflected module,
never from vanishing of the Gaussian factor: with a negative upper argument
the Gaussian is nonzero, +-q^k times an ordinary Gaussian coefficient with
one sign throughout, and dropping such terms would corrupt the result.
Negative exponents cancel across the sum; every computed value is checked
to be an honest polynomial with nonnegative coefficients.  The window also
ends where the reflected module's first defect-bound rule starts answering
0.  One step is a single :func:`~kronq.laurent.sum_of_products`, one
big-int accumulator with limbs sized from the bound sum (sum|g_i|)(sum|h_j|)
on every coefficient and unpacked with signed digits, so a coefficient that
failed to cancel comes back negative and the check catches it.

A deep count visits at most a few hundred descriptors, hundreds of
thousands of times, so the engine derives what it needs from a descriptor
once: each distinct descriptor (up to point labels) gets one
:class:`_Record` holding its dimension pair, its closed-form counter, its
reflected, dual and regular-part descriptors and the memo of its values.
S+M and DM come from the model's ``reflect_plus()`` and ``dual()``.
The recursion then works on records only.  A record names those records by
their position in the engine's record list, not by reference: a
regular-only module reflects to itself, and a record pointing at itself
would keep a dropped engine's memo alive until the cyclic garbage collector
runs.
"""

from __future__ import annotations

from .closed_form import (
    count_preinjective,
    count_preprojective,
    count_regular_deg1,
)
from .hall import regular_diagonal_count
from .laurent import ONE, ZERO, LaurentPoly, sum_of_products
from .model import KroneckerDescriptor, ext_dim
from .qbinom import gauss

__all__ = ["CountingEngine", "count"]


class _Record:
    """What the engine knows about one descriptor.

    ``closed`` is ``(counter, index)`` when a closed form answers every
    count of the module.  ``fold`` is the duality rule: every cell with
    a + b > fold is read from the dual module's record at (n - b, m - a),
    and it is m when D(M) = M, -1 when the module has preinjective but no
    preprojective summands and no closed form, and m + n otherwise.
    ``down_a`` is the position of the plus-reflected record of
    recursion_a, ``dual`` that of the dual module's record and ``regular``
    that of the record of the regular part M_R; all three are filled in on
    first use.  ``memo`` maps (a, b) to a count; it is None when
    memoization is off, and on a record with fold -1, which never reads it.

    ``t`` (the number of preinjective summands, with multiplicity) and
    ``a_i`` (their vertex-1 dimension) fix the defect-bound rules.  Each
    preinjective summand adds 1 to the defect b - a and each preprojective
    one takes 1 away, a submodule's preinjective part lies in M_I, and a
    quotient of M_I has defect >= 0, with equality only when it is 0; so
    no submodule has b - a > t.  One with b - a = t contains M_I and,
    since Hom(R, P) = 0, is M_I plus a submodule of M_R of dimension
    (a - a_i, a - a_i).  ``regular_only`` turns that second rule off,
    since it would map M = M_R to itself, and ``rigid`` switches on the
    rigid rule.
    """

    def __init__(self, module: KroneckerDescriptor, closed, memoize: bool):
        self.module = module
        self.m, self.n = module.dim_vector()
        self.t = sum(k for _, k in module.preinjective)
        self.a_i = sum(n * k for n, k in module.preinjective)
        self.regular_only = module.is_regular_only
        self.rigid = ext_dim(module, module) == 0
        self.closed = closed
        self.fold = self.m + self.n
        if module.preprojective == module.preinjective:
            self.fold = self.m  # D(M) = M, and m = n
        elif closed is None and not module.preprojective:  # preinjective only
            self.fold = -1
        self.down_a: int | None = None
        self.dual: int | None = None
        self.regular: int | None = None
        self.memo = {} if memoize and self.fold >= 0 else None


class CountingEngine:
    """Memoized counter; results are pure functions of the inputs.

    ``use_closed_forms=False`` forces indecomposables through the recursion
    (used to cross-check the closed formulas).  ``memoize=False`` disables
    the value cache, which must not change any value; the per-descriptor
    records (dimensions, closed-form choice, reflected and dual records) are
    kept either way.  Records bake in both choices, so they are fixed when
    the engine is built.  Records are found by the label-normalized
    ``counting_key`` and live as long as the engine.  The dicts are safe
    under CPython's interpreter lock; concurrent callers see identical
    values either way.
    """

    def __init__(self, use_closed_forms: bool = True, memoize: bool = True):
        self.use_closed_forms = use_closed_forms
        self._memoize = memoize
        self._records: list[_Record] = []
        self._positions: dict = {}  # counting_key -> index into _records

    def count(self, module: KroneckerDescriptor, a: int, b: int) -> LaurentPoly:
        """count(module, a, b): by the split rule (see the module docstring)
        when the module has two or three of its I-, regular and P-parts,
        with the last of them in that order as N and the rest as M, else
        by the recursion on the module's own record."""
        pp, pi, rg = module.preprojective, module.preinjective, module.regular
        if pp:
            head, tail = KroneckerDescriptor((), pi, rg), KroneckerDescriptor(pp)
        else:
            head, tail = KroneckerDescriptor((), pi), KroneckerDescriptor((), (), rg)
        if head.is_zero or tail.is_zero:
            return self._count(self._record(module), a, b)
        head, tail = self._record(head), self._record(tail)
        m, n = head.m, head.n  # dim M; the twist is <e'', m - e'>
        terms = []
        for a1 in range(max(0, a - tail.m), min(m, a) + 1):
            for b1 in range(max(0, b - tail.n), min(n, b) + 1):
                x = self._count(head, a1, b1)
                if x:
                    y = self._count(tail, a - a1, b - b1)
                    if y:
                        twist = (a - a1) * (m - a1) + (b - b1) * (n - b1) - 2 * (b - b1) * (m - a1)
                        terms.append((x, y, twist))
        return _checked(module, a, b, sum_of_products(terms))

    def table(self, module: KroneckerDescriptor) -> dict[tuple[int, int], LaurentPoly]:
        """Every count of the module, keyed by (a, b) in row order.  The
        cells go through one record by the recursion, unsplit, so they
        share its memos."""
        rec = self._record(module)
        return {(a, b): self._count(rec, a, b) for a in range(rec.m + 1) for b in range(rec.n + 1)}

    def recursion_a(self, module: KroneckerDescriptor, a: int, b: int) -> LaurentPoly:
        """Reduce through the reflection that removes the projective simple.

        With M of dimension (m, n), l = a - b and N = S+M (the reflection
        :meth:`~kronq.model.KroneckerDescriptor.reflect_plus`, which drops
        the P0 summands):

            count(M, a, b) = sum over c of
                q^(c(b-l+c)) * gauss(c, m-2b) * count(N, a-l, b-l+c)

        where c runs over the window allowed by N's vertex-2 dimension.
        """
        return self._recursion_a(self._record(module), a, b)

    def recursion_b(self, module: KroneckerDescriptor, a: int, b: int) -> LaurentPoly:
        """Count through the dual module: with M of dimension (m, n),

            count(M, a, b) = recursion_a(D(M), n - b, m - a)

        where D(M) = ``module.dual()`` swaps the preprojective and
        preinjective summands.
        """
        rec = self._record(module)
        return self._recursion_a(self._dual(rec), rec.n - b, rec.m - a)

    # -- records ---------------------------------------------------------

    def _position(self, module: KroneckerDescriptor) -> int:
        key = module.counting_key()
        pos = self._positions.get(key)
        if pos is None:
            closed = None
            if self.use_closed_forms:
                ind = module.single_indecomposable()
                if ind is not None and ind.degree == 1:  # P_n and I_n have degree 1
                    counters = {
                        "P": count_preprojective, "I": count_preinjective, "R": count_regular_deg1
                    }
                    closed = (counters[ind.kind], ind.n)
            # build the record before registering its key: a RecursionError
            # inside dim_vector must not leave the key on a missing record
            self._records.append(_Record(module, closed, self._memoize))
            pos = self._positions[key] = len(self._records) - 1
        return pos

    def _record(self, module: KroneckerDescriptor) -> _Record:
        return self._records[self._position(module)]

    def _down_a(self, rec: _Record) -> _Record:
        if rec.down_a is None:
            rec.down_a = self._position(rec.module.reflect_plus())
        return self._records[rec.down_a]

    def _dual(self, rec: _Record) -> _Record:
        if rec.dual is None:
            rec.dual = self._position(rec.module.dual())
        return self._records[rec.dual]

    def _regular(self, rec: _Record) -> _Record:
        if rec.regular is None:
            rec.regular = self._position(KroneckerDescriptor((), (), rec.module.regular))
        return self._records[rec.regular]

    # -- counting ----------------------------------------------------------

    def _count(self, rec: _Record, a: int, b: int) -> LaurentPoly:
        if a < 0 or b < 0 or a > rec.m or b > rec.n:
            return ZERO
        if (a == 0 and b == 0) or (a == rec.m and b == rec.n):
            return ONE
        excess = b - a - rec.t
        if excess > 0:
            return ZERO
        if excess == 0 and not rec.regular_only:
            return self._count(self._regular(rec), a - rec.a_i, a - rec.a_i)
        if rec.rigid and a * (rec.m - a) + b * (rec.n - b) - 2 * b * (rec.m - a) < 0:
            return ZERO  # <e, alpha - e> < 0
        if a + b > rec.fold:
            return self._count(self._dual(rec), rec.n - b, rec.m - a)
        memo = rec.memo
        if memo is not None:
            hit = memo.get((a, b))
            if hit is not None:
                return hit
        result = _checked(rec.module, a, b, self._dispatch(rec, a, b))
        if memo is not None:
            memo[(a, b)] = result
        return result

    def _dispatch(self, rec: _Record, a: int, b: int) -> LaurentPoly:
        if rec.closed is not None:
            counter, index = rec.closed
            return counter(index, a, b)
        if rec.module.preprojective or a > b:
            return self._recursion_a(rec, a, b)
        return regular_diagonal_count(rec.module, a)

    def _recursion_a(self, rec: _Record, a: int, b: int) -> LaurentPoly:
        refl = self._down_a(rec)
        l = a - b
        terms = []
        # past c = l + refl.t every cell breaks refl's first defect-bound rule
        for c in range(max(0, l - b), min(refl.n - (b - l), l + refl.t) + 1):
            sub = self._count(refl, a - l, b - l + c)
            if sub:
                terms.append((gauss(c, rec.m - 2 * b), sub, c * (b - l + c)))
        return sum_of_products(terms)


def _checked(module: KroneckerDescriptor, a: int, b: int, result: LaurentPoly) -> LaurentPoly:
    if not result.is_polynomial or not result.has_nonnegative_coefficients:
        raise AssertionError(
            f"count({module}, {a}, {b}) produced {result}; negative terms failed to cancel"
        )
    return result


_DEFAULT = CountingEngine()


def count(module: KroneckerDescriptor, a: int, b: int) -> LaurentPoly:
    """Number of submodules with dimension vector (a, b), as a polynomial
    in the field size (shared memoized engine)."""
    return _DEFAULT.count(module, a, b)
