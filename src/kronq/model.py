"""Formal descriptors of Kronecker modules.

A module is recorded by its direct-sum decomposition into indecomposables:
preprojectives P_n (dimension vector (n+1, n)), preinjectives I_n (dimension
(n, n+1)) and regular summands R_p(lambda) attached to points p of given
degree, where lambda is a partition and R_p(lambda) means the direct sum of
the uniserials R_p(lambda_i).  Descriptors are immutable and hashable, with
a canonical ordering of entries so they can serve as cache keys.  One
indecomposable is a :class:`Summand` record whose ``kind`` is 'P', 'I' or
'R'.  The descriptor owns the two operations the counting engine recurses
through: the reflection S+ (:meth:`~KroneckerDescriptor.reflect_plus`) and
the duality D (:meth:`~KroneckerDescriptor.dual`).

Text grammar (CLI and fixtures):

    summand := 'P' nat | 'I' nat | 'R(' label ['@' nat] ',' '[' nat (',' nat)* ']' ')'
    module  := '0' | [nat '*'] summand (' + ' [nat '*'] summand)*

A point degree of 1 may be omitted: ``R(p1,[2,1])`` is a degree-1 point.
A partition is a plain tuple such as ``(2, 1)``; ``check_partition`` alone
owns the rule that its parts are positive and weakly decreasing.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import repeat
from typing import Iterator, NamedTuple

__all__ = [
    "DimVector",
    "Summand",
    "KroneckerDescriptor",
    "ModuleParseError",
    "check_partition",
    "parse_module",
    "parse_partition",
    "preprojective",
    "preinjective",
    "regular",
    "hom_dim",
    "ext_dim",
    "euler_form",
    "conjugate_parts",
    "contains_parts",
]


class DimVector(NamedTuple):
    """Dimension pair (vertex 1, vertex 2); may go negative in guard logic."""

    a: int
    b: int

    def __add__(self, other):
        return DimVector(self.a + other[0], self.b + other[1])


def conjugate_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column heights of a weakly decreasing tuple of parts."""
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


def contains_parts(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """True when mu_i <= lam_i for every i."""
    if len(mu) > len(lam):
        return False
    return all(m <= l for m, l in zip(mu, lam))


def check_partition(parts) -> tuple[int, ...]:
    """parts as a tuple, checked to be positive integers in weakly
    decreasing order; the one owner of that rule.  Raises ``ValueError``."""
    parts = tuple(parts)
    if any(not isinstance(p, int) or p <= 0 for p in parts):
        raise ValueError(f"partition parts must be positive integers: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {parts}")
    return parts


class Summand(NamedTuple):
    """One indecomposable: P_n or I_n, or the uniserial of length n at a
    point of the given degree when ``kind`` is 'R'.  The kind is a field,
    so P_n and I_n never compare equal."""

    kind: str  # 'P', 'I' or 'R'
    n: int
    point: str = ""
    degree: int = 1

    def dim_vector(self) -> DimVector:
        if self.kind == "P":
            return DimVector(self.n + 1, self.n)
        if self.kind == "I":
            return DimVector(self.n, self.n + 1)
        d = self.degree * self.n
        return DimVector(d, d)


class ModuleParseError(ValueError):
    """Descriptor, partition or dimension text rejected at a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


def read_ints(text: str, what: str) -> list[tuple[int, int]]:
    """The comma-separated integers of text as (value, position) pairs, each
    an optional sign and decimal digits (those ``int`` reads) with optional
    spaces around them.  Raises :class:`ModuleParseError` naming ``what``
    at the first character that does not fit."""
    out, i = [], 0
    for piece in text.split(","):
        m = re.match(r"\s*([+-]?)(?:(\d+)\s*)?", piece)
        if m[2] is None or m.end() < len(piece):
            raise ModuleParseError(f"expected {what}", i + m.end())
        out.append((int(m[1] + m[2]), i + m.start(1)))
        i += len(piece) + 1
    return out


def parse_partition(text: str) -> tuple[int, ...]:
    """Comma-separated parts such as ``3,2,1``; blank text is the empty
    partition.  Raises :class:`ModuleParseError` at the first bad part."""
    if not text.strip():
        return ()
    parts: list[int] = []
    for x, i in read_ints(text, "partition part"):
        try:
            check_partition((*parts[-1:], x))
        except ValueError:
            raise ModuleParseError(
                "partition parts must be positive and weakly decreasing", i
            ) from None
        parts.append(x)
    return tuple(parts)


class KroneckerDescriptor(NamedTuple):
    """Multiset of indecomposable summands in canonical order.

    ``preprojective`` and ``preinjective`` hold (index, multiplicity) pairs
    sorted by index; ``regular`` holds (label, degree, parts) triples sorted
    by label, one per point, with parts a nonempty partition tuple.  As a
    NamedTuple it equals the plain tuple of those three fields; ``+`` is the
    direct sum, not concatenation.
    """

    preprojective: tuple[tuple[int, int], ...] = ()
    preinjective: tuple[tuple[int, int], ...] = ()
    regular: tuple[tuple[str, int, tuple[int, ...]], ...] = ()

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(preproj=None, preinj=None, reg=None) -> "KroneckerDescriptor":
        """Normalize dict/iterable inputs into canonical tuples."""
        pp = tuple(sorted((int(n), int(m)) for n, m in dict(preproj or {}).items() if m))
        pi = tuple(sorted((int(n), int(m)) for n, m in dict(preinj or {}).items() if m))
        rg = []
        for label, degree, parts in reg or ():
            parts = check_partition(parts)
            if parts:
                rg.append((str(label), int(degree), parts))
        rg.sort(key=lambda t: t[0])
        labels = [t[0] for t in rg]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate point labels: {labels}")
        if any(m <= 0 for _, m in pp) or any(m <= 0 for _, m in pi):
            raise ValueError("multiplicities must be positive")
        if any(n < 0 for n, _ in pp) or any(n < 0 for n, _ in pi):
            raise ValueError("summand indices must be nonnegative")
        if any(d <= 0 for _, d, _ in rg):
            raise ValueError("point degrees must be positive")
        return KroneckerDescriptor(pp, pi, tuple(rg))

    def __add__(self, other: "KroneckerDescriptor") -> "KroneckerDescriptor":
        """Direct sum; same-label regular points merge their partitions."""
        reg: dict[str, tuple[int, list[int]]] = {}
        for label, deg, part in self.regular + other.regular:
            d0, parts = reg.setdefault(label, (deg, []))
            if d0 != deg:
                raise ValueError(f"point {label!r} used with degrees {d0} and {deg}")
            parts.extend(part)
        return KroneckerDescriptor.build(
            Counter(dict(self.preprojective)) + Counter(dict(other.preprojective)),
            Counter(dict(self.preinjective)) + Counter(dict(other.preinjective)),
            [(label, deg, sorted(parts, reverse=True)) for label, (deg, parts) in reg.items()],
        )

    # -- structure ----------------------------------------------------------

    def dim_vector(self) -> DimVector:
        a = b = 0
        for n, m in self.preprojective:
            a += m * (n + 1)
            b += m * n
        for n, m in self.preinjective:
            a += m * n
            b += m * (n + 1)
        for _, deg, part in self.regular:
            k = deg * sum(part)
            a += k
            b += k
        return DimVector(a, b)

    def summands(self) -> Iterator[Summand]:
        """Expanded indecomposable summands (regulars one per part)."""
        for n, m in self.preprojective:
            yield from repeat(Summand("P", n), m)
        for label, deg, part in self.regular:
            for t in part:
                yield Summand("R", t, label, deg)
        for n, m in self.preinjective:
            yield from repeat(Summand("I", n), m)

    @property
    def is_zero(self) -> bool:
        return not (self.preprojective or self.preinjective or self.regular)

    @property
    def is_regular_only(self) -> bool:
        return not self.preprojective and not self.preinjective

    def single_indecomposable(self) -> Summand | None:
        """The unique summand when the module is indecomposable, else None."""
        found = None
        for s in self.summands():
            if found is not None:
                return None
            found = s
        return found

    def counting_key(self):
        """Canonical key for memoized counting.

        Point labels do not affect cardinalities, so regular entries are
        normalized to a sorted multiset of (degree, parts).
        """
        reg = tuple(sorted((deg, part) for _, deg, part in self.regular))
        return (self.preprojective, self.preinjective, reg)

    # -- socle splitting, reflection and duality ----------------------------

    def split_socle(self) -> tuple[int, "KroneckerDescriptor", int]:
        """Return (s, M', t) where M = s*P0 + M' + t*I0 and M' has neither."""
        s = t = 0
        pp = []
        for n, m in self.preprojective:
            if n == 0:
                s = m
            else:
                pp.append((n, m))
        pi = []
        for n, m in self.preinjective:
            if n == 0:
                t = m
            else:
                pi.append((n, m))
        return s, KroneckerDescriptor(tuple(pp), tuple(pi), self.regular), t

    def reflect_plus(self) -> "KroneckerDescriptor":
        """The BGP reflection S+ at the projective simple P_0: P_0 summands
        vanish, P_n -> P_{n-1}, I_n -> I_{n+1}, regular points kept.

        Off P_0 it sends dimension (m, n) to (n, 2n - m).
        """
        pp = tuple((n - 1, m) for n, m in self.preprojective if n)
        pi = tuple((n + 1, m) for n, m in self.preinjective)
        return KroneckerDescriptor(pp, pi, self.regular)

    def dual(self) -> "KroneckerDescriptor":
        """The duality D = Hom_k(-, k): P_n <-> I_n, each tube kept;
        sends dimension (m, n) to (n, m)."""
        return KroneckerDescriptor(self.preinjective, self.preprojective, self.regular)

    def reflect_minus(self) -> "KroneckerDescriptor":
        """S- = D S+ D: I_0 summands vanish, P_n -> P_{n+1}, I_n -> I_{n-1};
        off I_0 it sends dimension (m, n) to (2m - n, m)."""
        return self.dual().reflect_plus().dual()

    # -- display -------------------------------------------------------------

    def __str__(self):
        if self.is_zero:
            return "0"
        chunks = []
        for n, m in self.preprojective:
            chunks.append(f"P{n}" if m == 1 else f"{m}*P{n}")
        for label, deg, part in self.regular:
            at = "" if deg == 1 else f"@{deg}"
            chunks.append(f"R({label}{at},[{','.join(map(str, part))}])")
        for n, m in self.preinjective:
            chunks.append(f"I{n}" if m == 1 else f"{m}*I{n}")
        return " + ".join(chunks)


def preprojective(n: int, mult: int = 1) -> KroneckerDescriptor:
    return KroneckerDescriptor.build({n: mult})


def preinjective(n: int, mult: int = 1) -> KroneckerDescriptor:
    return KroneckerDescriptor.build({}, {n: mult})


def regular(parts, point: str = "p", degree: int = 1) -> KroneckerDescriptor:
    if isinstance(parts, int):
        parts = (parts,)
    return KroneckerDescriptor.build({}, {}, [(point, degree, tuple(parts))])


# -- descriptor grammar ---------------------------------------------------


def parse_module(text: str) -> KroneckerDescriptor:
    """Parse the descriptor grammar, e.g. ``2*P0 + P3 + R(p1,[2,1]) + I1``.

    The multiplicities and each point's parts are collected summand by
    summand, with every error raised at its summand, and the descriptor is
    built once at the end."""
    s = text
    i, n = 0, len(s)

    def skip_ws(i):
        while i < n and s[i].isspace():
            i += 1
        return i

    def read_nat(i, what):
        j = i
        while j < n and s[j].isdecimal():
            j += 1
        if j == i:
            raise ModuleParseError(f"expected {what}", i)
        return int(s[i:j]), j

    i = skip_ws(i)
    if i < n and s[i] == "0" and skip_ws(i + 1) == n:
        return KroneckerDescriptor()

    pp: Counter = Counter()
    pi: Counter = Counter()
    points: dict[str, tuple[int, list[int]]] = {}  # label -> (degree, parts)
    first = True
    while i < n:
        if not first:
            if s[i] != "+":
                raise ModuleParseError("expected '+' between summands", i)
            i = skip_ws(i + 1)
        mult = 1
        if i < n and s[i].isdecimal():
            mult, i = read_nat(i, "multiplicity")
            i = skip_ws(i)
            if i == n or s[i] != "*":
                raise ModuleParseError("expected '*' after multiplicity", i)
            i = skip_ws(i + 1)
        if i == n:
            raise ModuleParseError("expected a summand", i)
        kind = s[i]
        if kind in ("P", "I"):
            idx, i = read_nat(i + 1, "summand index")
            (pp if kind == "P" else pi)[idx] += mult
        elif kind == "R":
            i += 1
            if i == n or s[i] != "(":
                raise ModuleParseError("expected '(' after 'R'", i)
            i = skip_ws(i + 1)
            j = i
            while j < n and (s[j].isalnum() or s[j] == "_"):
                j += 1
            if j == i:
                raise ModuleParseError("expected a point label", i)
            label = s[i:j]
            i = skip_ws(j)
            degree = 1
            if i < n and s[i] == "@":
                degree, i = read_nat(i + 1, "point degree")
                i = skip_ws(i)
            if i == n or s[i] != ",":
                raise ModuleParseError("expected ',' before the partition", i)
            i = skip_ws(i + 1)
            if i == n or s[i] != "[":
                raise ModuleParseError("expected '['", i)
            i = skip_ws(i + 1)
            p, i = read_nat(i, "partition part")
            parts = [p]
            while (i := skip_ws(i)) < n and s[i] == ",":
                p, i = read_nat(skip_ws(i + 1), "partition part")
                parts.append(p)
            if i == n or s[i] != "]":
                raise ModuleParseError("expected ']'", i)
            i = skip_ws(i + 1)
            if i == n or s[i] != ")":
                raise ModuleParseError("expected ')'", i)
            i += 1
            # check the parts before the multiplicity, or 0*R(p,[0]) passes
            try:
                check_partition(sorted(parts, reverse=True))
            except ValueError as exc:
                raise ModuleParseError(str(exc), i) from None
            if mult:  # zero copies add no point, so their degree goes unchecked
                if degree <= 0:
                    raise ModuleParseError("point degrees must be positive", i)
                d0, got = points.setdefault(label, (degree, []))
                if d0 != degree:
                    raise ModuleParseError(
                        f"point {label!r} used with degrees {d0} and {degree}", i
                    )
                got += parts * mult
        else:
            raise ModuleParseError(f"unknown summand kind {kind!r}", i)
        first = False
        i = skip_ws(i)
    if first:
        raise ModuleParseError("empty module descriptor", 0)
    reg = [(label, deg, sorted(parts, reverse=True)) for label, (deg, parts) in points.items()]
    return KroneckerDescriptor.build(pp, pi, reg)


# -- morphism and extension dimensions ------------------------------------


def _pair_dims(x: Summand, y: Summand) -> tuple[int, int]:
    """(hom, ext) dimensions between two indecomposables.

    Two uniserials at one point have both; for every other pair at most one
    is nonzero, so the Euler form (hom minus ext) gives the pair.
    """
    if x.kind == y.kind == "R" and x.point == y.point:
        d = x.degree * min(x.n, y.n)
        return d, d
    e = euler_form(x.dim_vector(), y.dim_vector())
    return max(e, 0), max(-e, 0)


def _counted(x) -> list[tuple[Summand, int]]:
    """Distinct indecomposable summands with their multiplicities."""
    if not isinstance(x, KroneckerDescriptor):
        return [(x, 1)]
    out = [(Summand("P", n), m) for n, m in x.preprojective]
    for label, deg, part in x.regular:
        out += [(Summand("R", t, label, deg), k) for t, k in Counter(part).items()]
    out += [(Summand("I", n), m) for n, m in x.preinjective]
    return out


def hom_dim(x, y) -> int:
    """dim Hom(x, y); summands or whole descriptors (additive)."""
    return sum(m * n * _pair_dims(s, t)[0] for s, m in _counted(x) for t, n in _counted(y))


def ext_dim(x, y) -> int:
    """dim Ext^1(x, y); summands or whole descriptors (additive)."""
    return sum(m * n * _pair_dims(s, t)[1] for s, m in _counted(x) for t, n in _counted(y))


def euler_form(d1: DimVector, d2: DimVector) -> int:
    """Bilinear form whose value is hom minus ext for this quiver."""
    return d1.a * d2.a + d1.b * d2.b - 2 * d1.b * d2.a
