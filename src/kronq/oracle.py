"""Ground truth by exhaustive enumeration over small prime fields.

Builds explicit matrix pairs realizing a module descriptor and counts
submodules of a given dimension vector directly.  Everything here is
deliberately independent of the closed formulas and the recursion engine;
the only import from the counting stack is the integer Gaussian
coefficient ``gauss_int``, which the tests check against subspace
enumeration.  ``build_rep`` writes each summand's block in place.  Its
points of degree d come in lexicographic order from a lazy stream of monic
irreducibles, each candidate tried against the irreducibles of degree at
most d/2, and it draws only as many as it uses; Gauss's necklace formula in
``points_of_degree`` tells beforehand whether F_p has enough of them, through
``point_shortfalls``, which ``count --at`` shares.

A submodule is a pair (U1, U2) with alpha U2 + beta U2 inside U1.  For each
vertex-2 subspace U2 the oracle takes the rank w of its images; the U1 that
contain them number gauss(a - w, dim1 - w) at q = p.

The alpha and beta images of every vertex-2 vector are built once per
call, indexed by the vector's integer value (a bitmask over F_2, base p
otherwise).  Over F_2 an image is one int bitmask.  Over F_3 it is one int
of two bit planes (Boothby-Bradshaw): its coordinates equal to 1 in bits
0..dim1-1 and those equal to 2 in the dim1 bits above them.  Over p >= 5
the images fill one flat array of residues.  The subspaces U2 are then met
in one depth-first walk of the RREF tree.  A node at depth d is a
d-subspace given by its bottom d RREF rows; a child adds a top row with a
pivot below every pivot so far.  Each node carries the echelon of its
images, so a child reduces only its two new images into its parent's
echelon.  Over F_2 and F_3 an echelon row keeps its pivot, the lowest set
bit, scaled to 1: over F_2 a vector with that bit set is XORed with the
row, and over F_3 the row is subtracted where the vector has a 1 there and
added where it has a 2, a few bit operations on the two planes.  Over
p >= 5 the walk reduces by ``_add``, the echelon step of residue rows
that ``hom_dim_numeric`` also uses.  One walk fills the histogram of every
requested dimension, and extends a node only while its top pivot leaves
room to reach the next requested depth.  For the dimensions ``dims`` it
visits sum over d of gauss(d, n - nx(d) + d) nodes, with n = dim2 and
nx(d) the smallest requested dimension >= d: every subspace for a whole
table, and only the d-subspaces with top pivot >= b - d for one cell b.  A
call whose p^dim2 image entries and walked nodes add up to more than 10^6
is refused with ``ValueError`` before any enumeration.  ``check_work``
applies that bound from the dimension vector alone, so a refused request
builds no matrix model.

``count_submodules_naive`` keeps its own RREF enumeration, matrix-vector
product and span test as an independent cross-check.  That enumeration is
built afresh on each call and kept by no cache.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterator
from functools import cache
from itertools import chain, combinations, cycle, islice, product
from typing import NamedTuple

from .model import KroneckerDescriptor
from .qbinom import gauss_int

__all__ = [
    "MatrixRep",
    "PointCapacityError",
    "build_rep",
    "check_work",
    "points_of_degree",
    "point_shortfalls",
    "count_submodules",
    "count_submodules_naive",
    "submodule_table",
    "hom_dim_numeric",
]

# work bound of one oracle call: image table entries plus subspaces walked
_MAX_SUBSPACES = 10**6


class PointCapacityError(ValueError):
    """The prime field is too small to host the requested points."""


class MatrixRep(NamedTuple):
    """A pair of dim1 x dim2 matrices over F_p (maps vertex 2 -> vertex 1)."""

    p: int
    dim1: int
    dim2: int
    alpha: tuple[tuple[int, ...], ...]
    beta: tuple[tuple[int, ...], ...]


# -- small GF(p) linear algebra --------------------------------------------


@cache
def _inverses(p: int) -> tuple[int, ...]:
    """Multiplicative inverses mod p, indexed by residue (0 maps to 0)."""
    return (0,) + tuple(pow(x, -1, p) for x in range(1, p))


def _add(echelon: list, v, p: int) -> None:
    """Reduce v by the echelon's rows in order; keep it if it is not zero.

    Each kept row is normalised to 1 at its pivot and is zero at the
    pivots of the rows kept before it, so a vector reduced by the kept
    rows in order ends zero at every kept pivot.
    """
    for piv, row in echelon:
        f = v[piv]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    for piv, x in enumerate(v):
        if x:
            if x != 1:
                s = _inverses(p)[x]
                v = [y * s % p for y in v]
            echelon.append((piv, v))
            return


def _rank(rows, p: int) -> int:
    """Rank of a list of vectors over F_p, by one incremental echelon."""
    full = len(rows[0]) if rows else 0
    echelon: list = []
    for v in rows:
        _add(echelon, v, p)
        if len(echelon) == full:
            break
    return len(echelon)


def _matvec(mat, vec, p):
    return tuple(sum(r * v for r, v in zip(row, vec)) % p for row in mat)


# -- subspace enumeration ---------------------------------------------------


def _subspace_bases(n: int, k: int, p: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All k-dimensional subspaces of F_p^n as reduced-row-echelon bases,
    in deterministic order (pivot pattern, then free entries)."""
    if k == 0:
        return ((),)
    out = []
    for pivots in combinations(range(n), k):
        pivset = set(pivots)
        free_pos = [
            (i, j)
            for i, c in enumerate(pivots)
            for j in range(c + 1, n)
            if j not in pivset
        ]
        for fill in product(range(p), repeat=len(free_pos)):
            rows = [[0] * n for _ in range(k)]
            for i, c in enumerate(pivots):
                rows[i][c] = 1
            for (i, j), v in zip(free_pos, fill):
                rows[i][j] = v
            out.append(tuple(tuple(r) for r in rows))
    return tuple(out)


# -- representation builder --------------------------------------------------


def points_of_degree(d: int, q: int) -> int:
    """Closed points of degree d on the projective line over F_q: q + 1 for
    d = 1, else the monic irreducibles of degree d.  Those follow from
    q^e = sum over f | e of f * (irreducibles of degree f), which Moebius
    inversion turns into Gauss's necklace formula."""
    if d == 1:
        return q + 1
    irreducibles: dict[int, int] = {}  # by degree, over the divisors of d
    for e in range(1, d + 1):
        if d % e == 0:
            lower = sum(f * n for f, n in irreducibles.items() if e % f == 0)
            irreducibles[e] = (q**e - lower) // e
    return irreducibles[d]


def point_shortfalls(module: KroneckerDescriptor, q: int) -> list[tuple[int, int, int]]:
    """(degree, used, have) for each point degree, in order of first use,
    at which the module uses more points than ``points_of_degree`` gives."""
    out = []
    for degree, used in Counter(d for _, d, _ in module.regular).items():
        # for d >= 4 there are at least q^d / (2d) >= 2^(d-1) / d points,
        # so a large degree needs no exact count (nor a huge power of q)
        if degree >= 4 and degree - 1 >= (degree * used).bit_length():
            continue
        have = points_of_degree(degree, q)
        if used > have:
            out.append((degree, used, have))
    return out


def _divides(f: tuple[int, ...], t: tuple[int, ...], p: int) -> bool:
    """Whether x^e + f divides x^d + t over F_p, each polynomial an
    ascending coefficient tuple without its leading 1."""
    r, e = [*t, 1], len(f)
    for top in range(len(t), e - 1, -1):
        c = r[top] % p
        if c:
            for i, x in enumerate(f, top - e):
                r[i] -= c * x
    return not any(x % p for x in r[:e])


def _monic_irreducibles(d: int, p: int) -> Iterator[tuple[int, ...]]:
    """Monic irreducible polynomials of degree d over F_p, as ascending
    coefficient tuples without the leading 1, lazily and in lexicographic
    order: a candidate stays when no monic irreducible of degree <= d/2
    divides it.  Above degree 1 the candidates start at constant term 1,
    since the others are divisible by x."""
    divisors = [f for e in range(1, d // 2 + 1) for f in _monic_irreducibles(e, p)]
    for t in product(range(d > 1, p), *[range(p)] * (d - 1)):
        if not any(_divides(f, t, p) for f in divisors):
            yield t


def build_rep(module: KroneckerDescriptor, p: int, parameter_shift: int = 0) -> MatrixRep:
    """Block-diagonal matrix model of a descriptor over F_p.

    Each summand owns the next rows (vertex 1) and columns (vertex 2), and
    its entries are written straight into ``alpha`` and ``beta``:

    - P_n: alpha is [I; 0] and beta is [0; I], with I the n x n identity;
    - I_n: alpha is [I 0] and beta is [0 I];
    - a uniserial of length t at a point of degree d with monic irreducible
      x^d + c_(d-1) x^(d-1) + ... + c_0: alpha is the identity of size td
      and beta the block Jordan matrix with t companion blocks on its
      diagonal (1 below the diagonal, -c_i in row i of the last column) and
      identities just above them;
    - at the extra degree-1 point 'inf' the two swap: beta is the identity
      and alpha the nilpotent Jordan block of the polynomial x.

    Distinct labels receive distinct points, drawn in order from the stream
    of monic irreducibles of their degree (then 'inf' at degree 1);
    ``parameter_shift`` rotates that cyclic order, which must not change any
    submodule count.  Raises :class:`PointCapacityError` when
    ``point_shortfalls`` says F_p has too few points of some degree.
    """
    dim = module.dim_vector()
    alpha = [[0] * dim.b for _ in range(dim.a)]
    beta = [[0] * dim.b for _ in range(dim.a)]

    short = point_shortfalls(module, p)
    if short:
        deg, used, have = short[0]
        raise PointCapacityError(
            f"F_{p} has only {have} points of degree {deg}; descriptor needs {used}"
        )
    assignment = {}  # label -> point, per degree
    for deg in dict.fromkeys(d for _, d, _ in module.regular):
        labels = sorted(label for label, d, _ in module.regular if d == deg)
        pool = chain(_monic_irreducibles(deg, p), ["inf"] if deg == 1 else [])
        assignment.update(zip(labels, islice(cycle(pool), parameter_shift, None)))

    r = c = 0  # first row and column of the next summand
    for s in module.summands():
        if s.kind == "P":
            for i in range(s.n):
                alpha[r + i][c + i] = beta[r + i + 1][c + i] = 1
            r, c = r + s.n + 1, c + s.n
        elif s.kind == "I":
            for i in range(s.n):
                alpha[r + i][c + i] = beta[r + i][c + i + 1] = 1
            r, c = r + s.n, c + s.n + 1
        else:
            tail = assignment[s.point]
            ident, jordan = alpha, beta
            if tail == "inf":
                ident, jordan, tail = beta, alpha, (0,)
            d, size = s.degree, s.degree * s.n
            for i in range(size):
                k = i % d  # row k of a companion block
                ident[r + i][c + i] = 1
                row = jordan[r + i]
                if k:
                    row[c + i - 1] = 1
                row[c + i - k + d - 1] = -tail[k] % p
                if i + d < size:
                    row[c + i + d] = 1
            r, c = r + size, c + size
    return MatrixRep(p, dim.a, dim.b, tuple(map(tuple, alpha)), tuple(map(tuple, beta)))


# -- counting ----------------------------------------------------------------


def _image_tables(rep: MatrixRep) -> tuple:
    """The alpha and beta images of every vertex-2 vector, indexed by the
    vector's integer value: coordinate j is bit j over F_2 and digit j base
    p otherwise.

    Over F_2 a table is a list of int bitmasks.  Over F_3 it is a list of
    ints with two bit planes: the coordinates equal to 1 in bits 0..dim1-1
    and those equal to 2 in the dim1 bits above them.  Each is built block
    by block, the images of the vectors below p^j plus x times column j.
    Over p >= 5 a table is one flat array of dim1 residues per vector, in
    order of the vector's value.
    """
    p, k = rep.p, rep.dim1
    tables = []
    for mat in (rep.alpha, rep.beta):
        cols = [[row[j] for row in mat] for j in range(rep.dim2)]
        if p == 2:
            table = [0]
            for col in cols:
                mask = sum(x << i for i, x in enumerate(col))
                table += [v ^ mask for v in table]
        elif p == 3:
            plane, table = (1 << k) - 1, [0]
            for col in cols:
                ones = sum(1 << i for i, x in enumerate(col) if x % 3 == 1)
                twos = sum(1 << i for i, x in enumerate(col) if x % 3 == 2)
                # v + b plane by plane, b the column and then twice it
                table += [
                    ((v >> k | b2) ^ t) | ((v & plane | b1) ^ t) << k
                    for b1, b2 in ((ones, twos), (twos, ones))
                    for v in table
                    for t in [(v & plane | b2) ^ (v >> k | b1)]
                ]
        else:
            code = "B" if p < 256 else "L"
            table = array(code, [0]) * k
            for j, col in enumerate(cols):
                col = col * p**j  # one copy per vector so far
                table += array(
                    code,
                    ((s + x * c) % p for x in range(1, p) for s, c in zip(table, col)),
                )
        tables.append(table)
    return tuple(tables)


def _floors(dims) -> list[int]:
    """Per depth d up to max(dims), the least top pivot that leaves room to
    reach the smallest requested depth nx(d) >= d, namely nx(d) - d."""
    return [min(k for k in dims if k >= d) - d for d in range(max(dims) + 1)]


def _walk_size(n: int, p: int, dims) -> int:
    """Nodes the walk visits: the d-subspaces of F_p^n whose pivots are all
    at least floors[d], which span F_p^(n - floors[d]), for each depth d."""
    return sum(gauss_int(d, n - f, p) for d, f in enumerate(_floors(dims)))


def _walk(rep: MatrixRep, dims) -> list[dict[int, int]]:
    """For each depth d up to max(dims), the d-subspaces U2 of F_p^dim2 the
    walk visits, keyed by w = dim(alpha U2 + beta U2).  A requested depth
    gets every d-subspace.

    A node at depth d is given by its bottom d RREF rows.  A child adds a
    top row whose pivot c lies below every pivot so far; its free entries
    are the columns above c that are not pivots, and ``offsets`` holds
    every filling of them.  The parent of a subspace is the span of its
    rows without the top one, so the walk meets each subspace once.  The
    echelon of a node's images is its parent's with the child's two new
    images reduced into it.

    A row is (pivot bit, mask) over F_2, (pivot bit, ones, twos) over F_3
    and ``_add``'s over p >= 5; like ``_add``'s, it is 1 at its pivot, here
    its lowest nonzero coordinate, and 0 at the pivots kept before it.
    """
    p, n, full = rep.p, rep.dim2, rep.dim1
    floors = _floors(dims)
    last = len(floors) - 1
    place = [p**j for j in range(n)]
    ta, tb = _image_tables(rep)
    echelon: list = []
    if p == 2:

        def grow(r: int) -> None:
            for v in (ta[r], tb[r]):
                for pb, b in echelon:
                    if v & pb:
                        v ^= b
                if v:
                    echelon.append((v & -v, v))

    elif p == 3:
        plane = (1 << full) - 1

        def grow(r: int) -> None:
            for v in (ta[r], tb[r]):
                o, t = v & plane, v >> full
                for pb, b1, b2 in echelon:
                    if o & pb:  # v - b: add b with its planes swapped
                        x = (o | b1) ^ (t | b2)
                        o, t = (t | b1) ^ x, (o | b2) ^ x
                    elif t & pb:  # v + b
                        x = (o | b2) ^ (t | b1)
                        o, t = (t | b2) ^ x, (o | b1) ^ x
                if o | t:
                    pb = (o | t) & -(o | t)
                    echelon.append((pb, o, t) if o & pb else (pb, t, o))

    else:

        def grow(r: int) -> None:
            s = r * full
            _add(echelon, ta[s : s + full], p)
            _add(echelon, tb[s : s + full], p)

    # per depth, the count of visited subspaces by image rank
    hists = [[0] * (full + 1) for _ in floors]
    hists[0][0] = 1

    def visit(depth: int, top: int, offsets: list[int]) -> None:
        # counts the children of a node and walks on from those that have
        # children of their own
        w = len(echelon)
        hist = hists[depth + 1]
        low, deeper = floors[depth + 1], depth + 1 < last
        for c in range(top - 1, low - 1, -1):
            if c < top - 1:
                offsets = [o + x * place[c + 1] for x in range(p) for o in offsets]
            grandchildren = deeper and c > floors[depth + 2]
            for o in offsets:
                if w < full:
                    grow(o + place[c])
                hist[len(echelon)] += 1
                if grandchildren:
                    visit(depth + 1, c, offsets)
                del echelon[w:]

    if last:
        visit(0, n, [0])
    return [{w: k for w, k in enumerate(hist) if k} for hist in hists]


def check_work(
    p: int, dim1: int, dim2: int, cell: tuple[int, int] | None = None
) -> list[int]:
    """The vertex-2 dimensions that ``count_submodules(rep, *cell)``, or
    ``submodule_table(rep)`` when ``cell`` is None, walks on a model of
    dimension vector (dim1, dim2) over F_p; none for a cell out of range.
    Raises ``ValueError`` when the p^dim2 image-table entries plus the
    walked nodes exceed ``_MAX_SUBSPACES``; when the table alone does, at
    once, without summing the walk.  It needs no model, so a caller can
    refuse a request before building one."""
    if cell is None:
        dims = list(range(dim2 + 1))
    else:
        a, b = cell
        dims = [b] if 0 <= a <= dim1 and 0 <= b <= dim2 else []
    if not dims:
        return dims
    if p**dim2 > _MAX_SUBSPACES:
        work = f"at least {p}^{dim2}"  # the table alone; the walk is not sized
    else:
        work = p**dim2 + _walk_size(dim2, p, dims)
        if work <= _MAX_SUBSPACES:
            return dims
    raise ValueError(
        f"the oracle would walk {work} vectors and subspaces of "
        f"F_{p}^{dim2}; its bound is {_MAX_SUBSPACES}"
    )


def _cell(rep: MatrixRep, hist: dict[int, int], a: int) -> int:
    # each U2 with image rank w lies in gauss(a - w, dim1 - w) choices of U1
    return sum(
        cnt * gauss_int(a - w, rep.dim1 - w, rep.p)
        for w, cnt in hist.items()
        if w <= a
    )


def count_submodules(rep: MatrixRep, a: int, b: int) -> int:
    """Pairs of subspaces (U1, U2) of dimensions (a, b) with both images of
    U2 inside U1; 0 for out-of-range dimensions."""
    dims = check_work(rep.p, rep.dim1, rep.dim2, (a, b))
    return _cell(rep, _walk(rep, dims)[b], a) if dims else 0


def submodule_table(rep: MatrixRep) -> dict[tuple[int, int], int]:
    """Counts for every (a, b) in one pass per vertex-2 dimension."""
    hists = _walk(rep, check_work(rep.p, rep.dim1, rep.dim2))
    return {
        (a, b): _cell(rep, hist, a)
        for b, hist in enumerate(hists)
        for a in range(rep.dim1 + 1)
    }


def _in_span(vec, basis, p):
    # basis rows are RREF; reduce vec against them
    v = list(vec)
    for row in basis:
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is not None and v[piv]:
            f = v[piv]
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return not any(v)


def count_submodules_naive(rep: MatrixRep, a: int, b: int) -> int:
    """Fully naive double enumeration; cross-check for small instances."""
    if a < 0 or b < 0 or a > rep.dim1 or b > rep.dim2:
        return 0
    total = 0
    u1s = _subspace_bases(rep.dim1, a, rep.p)
    for u2 in _subspace_bases(rep.dim2, b, rep.p):
        images = [_matvec(rep.alpha, v, rep.p) for v in u2]
        images += [_matvec(rep.beta, v, rep.p) for v in u2]
        for u1 in u1s:
            if all(_in_span(img, u1, rep.p) for img in images):
                total += 1
    return total


def hom_dim_numeric(rep_x: MatrixRep, rep_y: MatrixRep) -> int:
    """Dimension of the space of pairs (f1, f2) intertwining both maps."""
    if rep_x.p != rep_y.p:
        raise ValueError("representations live over different primes")
    p = rep_x.p
    n1 = rep_y.dim1 * rep_x.dim1  # unknowns in f1
    n2 = rep_y.dim2 * rep_x.dim2  # unknowns in f2
    rows = []
    for mat_x, mat_y in ((rep_x.alpha, rep_y.alpha), (rep_x.beta, rep_y.beta)):
        # f1 . mat_x - mat_y . f2 = 0, one equation per (i, j)
        for i in range(rep_y.dim1):
            for j in range(rep_x.dim2):
                row = [0] * (n1 + n2)
                for k in range(rep_x.dim1):
                    row[i * rep_x.dim1 + k] = mat_x[k][j] % p
                for k in range(rep_y.dim2):
                    row[n1 + k * rep_x.dim2 + j] = (-mat_y[i][k]) % p
                rows.append(row)
    return n1 + n2 - _rank(rows, p)
