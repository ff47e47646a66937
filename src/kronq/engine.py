"""Recursive computation of submodule counts for arbitrary descriptors.

The dispatcher reduces a count to closed forms and diagonal regular counts:

  1. dimension guards (0 outside the box, 1 at the corners);
  2. two proven vanishing rules answer 0 before the memo is consulted, so
     a cell known to be empty is never dispatched, checked or stored:
     a module with no preinjective summand has only submodules with
     a >= b, since Hom(I, P + R) = 0 (the defect rule); and for a rigid
     module (Ext^1(M, M) = 0) of dimension alpha the quiver Grassmannian
     Gr_e(M) is empty or smooth of dimension <e, alpha - e> (Caldero,
     Reineke, J. Pure Appl. Algebra 212, 2008), so the count of
     e = (a, b) vanishes when that Euler form is negative (the rigid rule);
  3. a single indecomposable with a closed form is answered directly;
  4. any preprojective summand: reflect away from the projective side,
     which strictly lowers the largest preprojective index;
  5. otherwise any preinjective summand: count in the dual module.  The
     duality D = Hom_k(-, k) swaps P_n and I_n and keeps each tube (Assem,
     Simson, Skowronski, Elements I, III.3), and U -> (M/U)* matches the
     submodules of dimension (a, b) with those of D(M) of dimension
     (n - b, m - a); D(M) has a preprojective summand, so it takes step 4,
     and its memo is the only one that stores these values;
  6. otherwise the module is regular: counts below the diagonal vanish by
     the defect rule, above it the same reflection lowers a, and on the
     diagonal the count factorizes over the tubes, each point
     contributing its subgroup counts by order (Birkhoff's product, see
     :mod:`kronq.hall`).

The recursion sums Gaussian-weighted counts of a reflected module.  The
summation bounds come from the dimension guards of the reflected module,
never from vanishing of the Gaussian factor: with a negative upper argument
the Gaussian is nonzero, +-q^k times an ordinary Gaussian coefficient with
one sign throughout, and dropping such terms would corrupt the result.
Negative exponents cancel across the sum; every computed value is checked
to be an honest polynomial with nonnegative coefficients.

A deep count visits at most a few hundred descriptors, hundreds of
thousands of times, so the engine derives what it needs from a descriptor
once: each distinct descriptor (up to point labels) gets one
:class:`_Record` holding its dimension pair, its closed-form counter, its
reflected and dual descriptors and the memo of its values.  The recursion
then works on records only.  A record names its reflected and dual records
by their position in the engine's record list, not by reference: a
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
from .laurent import ONE, ZERO, LaurentPoly
from .model import (
    KroneckerDescriptor,
    Preinjective,
    Preprojective,
    Regular,
    ext_dim,
    preinjective,
)
from .qbinom import gauss

__all__ = ["CountingEngine", "count", "recursion_a", "recursion_b"]


class _Record:
    """What the engine knows about one descriptor.

    ``closed`` is ``(counter, index)`` when a closed form answers every
    count of the module.  ``via_dual`` is set when the module has
    preinjective but no preprojective summands and no closed form: every
    count is then read from the dual module's record.  ``down_a`` is the
    position of the plus-reflected record of recursion_a and ``dual`` that
    of the dual module's record; both are filled in on first use.
    ``memo`` maps (a, b) to a count, or is None when memoization is off or
    the record answers through its dual.  ``no_preinjective`` and
    ``rigid`` switch on the defect and rigid vanishing rules.
    """

    def __init__(self, module: KroneckerDescriptor, closed, memoize: bool):
        self.module = module
        self.m, self.n = module.dim_vector()
        self.no_preinjective = not module.preinjective
        self.rigid = ext_dim(module, module) == 0
        self.closed = closed
        self.via_dual = closed is None and bool(module.preinjective) and not module.preprojective
        self.down_a: int | None = None
        self.dual: int | None = None
        self.memo = {} if memoize and not self.via_dual else None


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
        return self._count(self._record(module), a, b)

    def recursion_a(self, module: KroneckerDescriptor, a: int, b: int) -> LaurentPoly:
        """Reduce through the reflection that removes the projective simple.

        With M = s*P0 + M' + t*I0 of dimension (m, n), l = a - b and
        N the plus-reflection of M' + t*I0:

            count(M, a, b) = sum over c of
                q^(c(b-l+c)) * gauss(c, m-2b) * count(N, a-l, b-l+c)

        where c runs over the window allowed by N's vertex-2 dimension.
        """
        return self._recursion_a(self._record(module), a, b)

    def recursion_b(self, module: KroneckerDescriptor, a: int, b: int) -> LaurentPoly:
        """Count through the dual module: with M of dimension (m, n),

            count(M, a, b) = recursion_a(D(M), n - b, m - a)

        where D(M) swaps the preprojective and preinjective summands.
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
                if isinstance(ind, Preprojective):
                    closed = (count_preprojective, ind.n)
                elif isinstance(ind, Preinjective):
                    closed = (count_preinjective, ind.n)
                elif isinstance(ind, Regular) and ind.degree == 1:
                    closed = (count_regular_deg1, ind.length)
            # build the record before registering its key: a RecursionError
            # inside dim_vector must not leave the key on a missing record
            self._records.append(_Record(module, closed, self._memoize))
            pos = self._positions[key] = len(self._records) - 1
        return pos

    def _record(self, module: KroneckerDescriptor) -> _Record:
        return self._records[self._position(module)]

    def _down_a(self, rec: _Record) -> _Record:
        if rec.down_a is None:
            _, mp, t = rec.module.split_socle()
            rec.down_a = self._position((mp + preinjective(0, t) if t else mp).reflect_plus())
        return self._records[rec.down_a]

    def _dual(self, rec: _Record) -> _Record:
        if rec.dual is None:
            m = rec.module
            rec.dual = self._position(KroneckerDescriptor(m.preinjective, m.preprojective, m.regular))
        return self._records[rec.dual]

    # -- counting ----------------------------------------------------------

    def _count(self, rec: _Record, a: int, b: int) -> LaurentPoly:
        if a < 0 or b < 0 or a > rec.m or b > rec.n:
            return ZERO
        if (a == 0 and b == 0) or (a == rec.m and b == rec.n):
            return ONE
        if rec.no_preinjective and a < b:
            return ZERO
        if rec.rigid and a * (rec.m - a) + b * (rec.n - b) - 2 * b * (rec.m - a) < 0:
            return ZERO  # <e, alpha - e> < 0
        memo = rec.memo
        if memo is not None:
            hit = memo.get((a, b))
            if hit is not None:
                return hit
        elif rec.via_dual:
            # the dual's record checks and memoizes the value
            return self._count(self._dual(rec), rec.n - b, rec.m - a)
        result = self._dispatch(rec, a, b)
        if not result.is_polynomial or not result.has_nonnegative_coefficients:
            raise AssertionError(
                f"count({rec.module}, {a}, {b}) produced {result}; "
                "negative terms failed to cancel"
            )
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
        c_lo = max(0, l - b)
        c_hi = refl.n - (b - l)
        total = ZERO
        for c in range(c_lo, c_hi + 1):
            sub = self._count(refl, a - l, b - l + c)
            if sub.is_zero:
                continue
            g = gauss(c, rec.m - 2 * b)
            if g.is_zero:
                continue
            total = total + (g * sub).shift(c * (b - l + c))
        return total


_DEFAULT = CountingEngine()


def count(module: KroneckerDescriptor, a: int, b: int) -> LaurentPoly:
    """Number of submodules with dimension vector (a, b), as a polynomial
    in the field size (shared memoized engine)."""
    return _DEFAULT.count(module, a, b)


def recursion_a(module: KroneckerDescriptor, a: int, b: int) -> LaurentPoly:
    return _DEFAULT.recursion_a(module, a, b)


def recursion_b(module: KroneckerDescriptor, a: int, b: int) -> LaurentPoly:
    return _DEFAULT.recursion_b(module, a, b)
