"""Ground truth by exhaustive enumeration over small prime fields.

Builds explicit matrix pairs realizing a module descriptor and counts
submodules of a given dimension vector directly.  Everything here is
deliberately independent of the closed formulas and the recursion engine;
the only import from the counting stack is the integer Gaussian
coefficient ``gauss_int``, which the tests check against subspace
enumeration.

A submodule is a pair (U1, U2) with alpha U2 + beta U2 inside U1.  For each
vertex-2 subspace U2 the oracle takes the rank w of its images; the U1 that
contain them number gauss(a - w, dim1 - w) at q = p.

The alpha and beta images of every vertex-2 vector are built once per
call, indexed by the vector's integer value (a bitmask over F_2, base p
otherwise): a list of int bitmasks over F_2, a flat byte array over odd p.
The subspaces U2 are then met in one depth-first walk of the RREF tree.  A
node at depth d is a d-subspace given by its bottom d RREF rows; a child
adds a top row with a pivot below every pivot so far.  Each node carries
the echelon of its images, so a child reduces only its two new images
into its parent's echelon: by XOR on bitmasks over F_2, and over odd p by
``_add``, the echelon step of rows normalised at their pivots that
``hom_dim_numeric`` also uses.  One walk fills the histogram of every
requested dimension, and extends a node only while its top pivot leaves
room to reach the next requested depth.  For the dimensions ``dims`` it
visits sum over d of gauss(d, n - nx(d) + d) nodes, with n = dim2 and
nx(d) the smallest requested dimension >= d: every subspace for a whole
table, and only the d-subspaces with top pivot >= b - d for one cell b.  A
call whose p^dim2 image entries and walked nodes add up to more than 10^6
is refused with ``ValueError`` before any enumeration.

``count_submodules_naive`` keeps its own RREF enumeration, matrix-vector
product and span test as an independent cross-check.  That enumeration is
built afresh on each call and kept by no cache.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product

from .model import KroneckerDescriptor, Preinjective, Preprojective
from .qbinom import gauss_int

__all__ = [
    "MatrixRep",
    "PointCapacityError",
    "build_rep",
    "count_submodules",
    "count_submodules_naive",
    "submodule_table",
    "hom_dim_numeric",
]

# work bound of one oracle call: image table entries plus subspaces walked
_MAX_SUBSPACES = 10**6


class PointCapacityError(ValueError):
    """The prime field is too small to host the requested points."""


@dataclass(frozen=True)
class MatrixRep:
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


@cache
def _monic_irreducibles(d: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Monic irreducible polynomials of degree d over F_p, as ascending
    coefficient tuples without the leading 1, in lexicographic order."""
    if d == 1:
        return tuple((c,) for c in range(p))
    found = []
    for tail in product(range(p), repeat=d):
        # x^d + tail; irreducible iff no monic factor of degree <= d//2
        if tail[0] == 0:
            continue
        reducible = False
        for e in range(1, d // 2 + 1):
            for ftail in product(range(p), repeat=e):
                # trial divide by x^e + ftail
                rem = list(tail)
                rem += [0] * (d - len(rem))
                rem.append(1)  # degree-d monic dividend
                div = list(ftail) + [1]
                for i in range(d, e - 1, -1):
                    c = rem[i]
                    if c:
                        for j in range(e + 1):
                            rem[i - e + j] = (rem[i - e + j] - c * div[j]) % p
                if not any(rem[:e]):
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            found.append(tuple(tail))
    return tuple(found)


def _companion(tail: tuple[int, ...], p: int) -> list[list[int]]:
    d = len(tail)
    mat = [[0] * d for _ in range(d)]
    for i in range(1, d):
        mat[i][i - 1] = 1
    for i in range(d):
        mat[i][d - 1] = (-tail[i]) % p
    return mat


def _regular_blocks(param, degree: int, t: int, p: int):
    """alpha/beta blocks for one uniserial of length t at a point.

    alpha is the identity and beta a block Jordan matrix whose diagonal
    blocks are the companion matrix of the point's monic irreducible
    polynomial.  The extra degree-1 point 'inf' swaps alpha with the
    nilpotent beta of the polynomial x.
    """
    if param == "inf":
        ident, nilpotent = _regular_blocks((0,), 1, t, p)
        return nilpotent, ident
    size = t * degree
    ident = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    comp = _companion(param, p)
    jordan = [[0] * size for _ in range(size)]
    for blk in range(t):
        off = blk * degree
        for i in range(degree):
            for j in range(degree):
                jordan[off + i][off + j] = comp[i][j]
        if blk + 1 < t:
            for i in range(degree):
                jordan[off + i][off + degree + i] = 1
    return ident, jordan


def build_rep(
    module: KroneckerDescriptor, p: int, parameter_shift: int = 0
) -> MatrixRep:
    """Block-diagonal matrix model of a descriptor over F_p.

    Distinct labels receive distinct points; ``parameter_shift`` rotates the
    parameter pools, which must not change any submodule count.  Raises
    :class:`PointCapacityError` when F_p has too few points of some degree.
    """
    dim = module.dim_vector()
    alpha = [[0] * dim.b for _ in range(dim.a)]
    beta = [[0] * dim.b for _ in range(dim.a)]

    # assign concrete points per degree
    degree_labels: dict[int, list[str]] = {}
    for label, deg, _ in module.regular:
        degree_labels.setdefault(deg, []).append(label)
    assignment = {}
    for deg, labels in degree_labels.items():
        pool = list(_monic_irreducibles(deg, p)) + (["inf"] if deg == 1 else [])
        if len(labels) > len(pool):
            raise PointCapacityError(
                f"F_{p} has only {len(pool)} points of degree {deg}; "
                f"descriptor needs {len(labels)}"
            )
        shift = parameter_shift % len(pool)
        pool = pool[shift:] + pool[:shift]
        for label, param in zip(sorted(labels), pool):
            assignment[label] = param

    def paste(block, target, r0, c0):
        for i, row in enumerate(block):
            for j, v in enumerate(row):
                if v:
                    target[r0 + i][c0 + j] = v

    r0 = c0 = 0
    for s in module.summands():
        if isinstance(s, Preprojective):
            n = s.n
            a_blk = [[1 if i == j else 0 for j in range(n)] for i in range(n + 1)]
            b_blk = [[1 if i == j + 1 else 0 for j in range(n)] for i in range(n + 1)]
            paste(a_blk, alpha, r0, c0)
            paste(b_blk, beta, r0, c0)
            r0 += n + 1
            c0 += n
        elif isinstance(s, Preinjective):
            n = s.n
            a_blk = [[1 if i == j else 0 for j in range(n + 1)] for i in range(n)]
            b_blk = [[1 if i + 1 == j else 0 for j in range(n + 1)] for i in range(n)]
            paste(a_blk, alpha, r0, c0)
            paste(b_blk, beta, r0, c0)
            r0 += n
            c0 += n + 1
        else:
            a_blk, b_blk = _regular_blocks(assignment[s.point], s.degree, s.length, p)
            paste(a_blk, alpha, r0, c0)
            paste(b_blk, beta, r0, c0)
            size = s.degree * s.length
            r0 += size
            c0 += size
    return MatrixRep(
        p,
        dim.a,
        dim.b,
        tuple(tuple(r) for r in alpha),
        tuple(tuple(r) for r in beta),
    )


# -- counting ----------------------------------------------------------------


def _image_tables(rep: MatrixRep) -> tuple:
    """The alpha and beta images of every vertex-2 vector, indexed by the
    vector's integer value: coordinate j is bit j over F_2 and digit j base
    p otherwise.

    Over F_2 a table is a list of int bitmasks.  Over odd p it is one flat
    array of dim1 residues per vector, in order of the vector's value.
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
                for b in echelon:
                    # clears b's top bit from v; each kept vector has a
                    # top bit that the vectors kept after it lack
                    v = min(v, v ^ b)
                if v:
                    echelon.append(v)

    else:

        def grow(r: int) -> None:
            s = r * full
            _add(echelon, ta[s : s + full], p)
            _add(echelon, tb[s : s + full], p)

    hists: list[dict[int, int]] = [{0: 1}] + [{} for _ in floors[1:]]

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
                k = len(echelon)
                hist[k] = hist.get(k, 0) + 1
                if grandchildren:
                    visit(depth + 1, c, offsets)
                del echelon[w:]

    if last:
        visit(0, n, [0])
    return hists


def _rank_histograms(rep: MatrixRep, dims) -> list[dict[int, int]]:
    """For each vertex-2 dimension b in ``dims``, the number of b-subspaces
    U2 of F_p^dim2 keyed by w = dim(alpha U2 + beta U2).

    Refuses, before any enumeration, a call whose work exceeds
    ``_MAX_SUBSPACES``: the p^dim2 entries of the image tables plus the
    nodes the walk visits.
    """
    p = rep.p
    work = p**rep.dim2 + _walk_size(rep.dim2, p, dims)
    if work > _MAX_SUBSPACES:
        raise ValueError(
            f"the oracle would walk {work} vectors and subspaces of "
            f"F_{p}^{rep.dim2}; its bound is {_MAX_SUBSPACES}"
        )
    hists = _walk(rep, dims)
    return [hists[b] for b in dims]


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
    if a < 0 or b < 0 or a > rep.dim1 or b > rep.dim2:
        return 0
    (hist,) = _rank_histograms(rep, (b,))
    return _cell(rep, hist, a)


def submodule_table(rep: MatrixRep) -> dict[tuple[int, int], int]:
    """Counts for every (a, b) in one pass per vertex-2 dimension."""
    hists = _rank_histograms(rep, range(rep.dim2 + 1))
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
