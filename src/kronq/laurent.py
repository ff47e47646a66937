"""Exact Laurent polynomials in one variable with integer coefficients.

Every count produced by this package is a value of this type.  Coefficients
are Python ints (arbitrary precision) and no floating point is used anywhere.
A polynomial is stored densely as its lowest exponent ``lo`` and the tuple
``cs`` of coefficients of q^lo, q^(lo+1), ...  Polynomials are kept in
canonical form: the first and last entries of ``cs`` are nonzero and zero is
``(0, ())``, so equal values always have identical pairs.

Large products and sums of products pack each coefficient list into one int
of signed limbs (1, 2, 4 or 8 bytes through :mod:`array`, wider ones byte by
byte) and do one big-int computation; the limbs are sized from a bound on
every coefficient of the result, so none overflows.
"""

from __future__ import annotations

from array import array
from math import gcd
from operator import add
from sys import byteorder

__all__ = ["LaurentPoly", "PolyParseError", "parse_poly", "sum_of_products", "ZERO", "ONE", "Q"]

# Products whose shorter factor has more terms than this go through the
# packed-integer convolution below instead of the schoolbook loop.  Measured
# on the products the benchmark workloads make, packing starts to win at 13
# to 16 terms, depending on the workload (table in CHANGES.md); sums of
# products start to win at 100 to 200 coefficient pairs, so they take the
# square as their cutoff.
_PACK_THRESHOLD = 14

# array type code of each signed limb width, chosen by itemsize because the
# sizes of 'i' and 'l' vary by platform
_CODES = {array(code).itemsize: code for code in "bhilq"}


def _limb_width(bound: int) -> int:
    """Bytes per limb holding any int of absolute value <= bound with a sign
    bit: 1, 2, 4 or 8, or the exact byte count beyond 8."""
    width = bound.bit_length() // 8 + 1
    return width if width > 8 else 1 << (width - 1).bit_length()


def _bias(width: int, count: int) -> int:
    """The int whose ``count`` limbs of ``width`` bytes hold their top bit."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(vals, width: int) -> int:
    """sum_i vals[i] * 2^(8 * width * i), for |vals[i]| < 2^(8 * width - 1).

    The bytes read as the int Y of limbs vals[i] in two's complement;
    flipping each top bit adds the bias B to every value, so X = (Y ^ B) - B.
    """
    code = _CODES.get(width)
    if code is None:
        raw = b"".join(v.to_bytes(width, "little", signed=True) for v in vals)
    else:
        limbs = array(code, vals)
        if byteorder == "big":
            limbs.byteswap()
        raw = limbs.tobytes()
    bias = _bias(width, len(vals))
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _unpack(n: int, width: int, count: int) -> list[int]:
    """The ``count`` signed limbs of n, the inverse of :func:`_pack`.  Adding
    the bias makes every limb nonnegative (balanced digits), and flipping the
    top bits back leaves two's complement."""
    bias = _bias(width, count)
    raw = ((n + bias) ^ bias).to_bytes(width * count, "little")
    code = _CODES.get(width)
    if code is None:
        chunks = range(0, len(raw), width)
        return [int.from_bytes(raw[i : i + width], "little", signed=True) for i in chunks]
    limbs = array(code, raw)
    if byteorder == "big":
        limbs.byteswap()
    return limbs.tolist()


def _convolve(xs, ys) -> list[int]:
    """Exact integer convolution via Kronecker substitution.  Every
    coefficient is at most sum|xs| * sum|ys| in absolute value, and the
    limbs are wide enough for that bound."""
    width = _limb_width(sum(map(abs, xs)) * sum(map(abs, ys)))
    return _unpack(_pack(xs, width) * _pack(ys, width), width, len(xs) + len(ys) - 1)


def _packed(p: "LaurentPoly", width: int) -> int:
    """p's coefficients packed into limbs of ``width`` bytes, kept on p, so
    a value that enters many sums at one width is packed once."""
    pk = p._pk
    if pk is None or pk[0] != width:
        pk = p._pk = (width, _pack(p.cs, width))
    return pk[1]


def sum_of_products(terms) -> "LaurentPoly":
    """sum of g * h * q^s over the triples (g, h, s) of ``terms``, exactly.

    Two or more nonzero products add up in one big-int accumulator
    (Kronecker substitution, Harvey, arXiv:0712.4046) that is unpacked once
    with signed digits, so negative coefficients come back exactly.  A
    single product, or terms with at most _PACK_THRESHOLD^2 coefficient
    pairs in all, where packing costs more than it saves, take ordinary
    multiplications.  Every coefficient of the sum is at most
    sum_t sum|g_t| * sum|h_t| in absolute value, and the limbs are wide
    enough for that bound.
    """
    terms = [(g, h, s) for g, h, s in terms if g.cs and h.cs]
    pairs = sum(len(g.cs) * len(h.cs) for g, h, _ in terms)
    if len(terms) < 2 or pairs <= _PACK_THRESHOLD**2:
        return sum(((g * h).shift(s) for g, h, s in terms), ZERO)
    lo = min(g.lo + h.lo + s for g, h, s in terms)
    top = max(g.lo + h.lo + s + len(g.cs) + len(h.cs) - 1 for g, h, s in terms)
    width = _limb_width(sum(sum(map(abs, g.cs)) * sum(map(abs, h.cs)) for g, h, _ in terms))
    acc = sum(
        _packed(g, width) * _packed(h, width) << 8 * width * (g.lo + h.lo + s - lo)
        for g, h, s in terms
    )
    return LaurentPoly.dense(lo, _unpack(acc, width, top - lo))


class LaurentPoly:
    """Immutable Laurent polynomial sum_i cs[i] * q^(lo + i), canonical:
    ``cs`` is a tuple whose first and last entries are nonzero, and zero is
    ``lo, cs = 0, ()``.  ``_pk`` is None or the (width, int) that
    :func:`sum_of_products` last packed ``cs`` into."""

    __slots__ = ("lo", "cs", "_pk")

    def __init__(self, coeffs=()):
        """From an exponent -> coefficient dict or (exponent, coefficient)
        pairs; repeated exponents add up."""
        pairs = list(coeffs.items() if isinstance(coeffs, dict) else coeffs)
        lo = min((e for e, _ in pairs), default=0)
        vals = [0] * (max((e for e, _ in pairs), default=lo - 1) - lo + 1)
        for e, v in pairs:
            vals[e - lo] += v
        p = LaurentPoly.dense(lo, vals)
        self.lo, self.cs, self._pk = p.lo, p.cs, None

    @classmethod
    def dense(cls, lo: int, vals) -> "LaurentPoly":
        """sum_i vals[i] * q^(lo + i), trimmed to canonical form."""
        i, j = 0, len(vals)
        while j and not vals[j - 1]:
            j -= 1
        while i < j and not vals[i]:
            i += 1
        self = object.__new__(cls)
        self.lo, self.cs = (lo + i, tuple(vals[i:j])) if j else (0, ())
        self._pk = None
        return self

    @classmethod
    def const(cls, v: int) -> "LaurentPoly":
        return cls.dense(0, (v,))

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "LaurentPoly":
        return cls.dense(exponent, (coeff,))

    # -- basic queries ----------------------------------------------------

    def items(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs with nonzero coefficient, ascending."""
        return [(self.lo + i, v) for i, v in enumerate(self.cs) if v]

    @property
    def _c(self) -> dict[int, int]:
        # exponent -> coefficient view for bench/tracing.py, its one reader,
        # which takes term counts and coefficient sizes from it
        return dict(self.items())

    def coefficient(self, exponent: int) -> int:
        i = exponent - self.lo
        return self.cs[i] if 0 <= i < len(self.cs) else 0

    def __bool__(self) -> bool:
        return bool(self.cs)

    @property
    def is_zero(self) -> bool:
        return not self.cs

    @property
    def is_polynomial(self) -> bool:
        """True when no negative exponent occurs."""
        return self.lo >= 0

    @property
    def has_nonnegative_coefficients(self) -> bool:
        return not self.cs or min(self.cs) >= 0

    # -- ring operations --------------------------------------------------

    @staticmethod
    def _coerce(v) -> "LaurentPoly":
        if isinstance(v, LaurentPoly):
            return v
        if isinstance(v, int):
            return LaurentPoly.const(v)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.cs:
            return self
        if not self.cs:
            return other
        lo = min(self.lo, other.lo)
        xs = (0,) * (self.lo - lo) + self.cs
        ys = (0,) * (other.lo - lo) + other.cs
        if len(xs) < len(ys):
            xs, ys = ys, xs
        return LaurentPoly.dense(lo, [*map(add, xs, ys), *xs[len(ys) :]])

    __radd__ = __add__

    def __neg__(self):
        return self.shift(0, -1)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.cs, other.cs
        if not a or not b:
            return ZERO
        if len(a) == 1:
            return other.shift(self.lo, a[0])
        if len(b) == 1:
            return self.shift(other.lo, b[0])
        if min(len(a), len(b)) > _PACK_THRESHOLD:
            vals = _convolve(a, b)
        else:
            vals = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        vals[j] += x * y
        return LaurentPoly.dense(self.lo + other.lo, vals)

    __rmul__ = __mul__

    def shift(self, k: int, scale: int = 1) -> "LaurentPoly":
        """Multiply by scale * q^k."""
        if scale == 1:
            return LaurentPoly.dense(self.lo + k, self.cs)
        return LaurentPoly.dense(self.lo + k, [v * scale for v in self.cs])

    def stretched(self, d: int) -> "LaurentPoly":
        """Substitute q -> q^d for d >= 1 (exponent scaling)."""
        if d == 1 or not self.cs:
            return self
        vals = [0] * (d * (len(self.cs) - 1) + 1)
        vals[::d] = self.cs
        return LaurentPoly.dense(self.lo * d, vals)

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ValueError when the quotient is not
        a Laurent polynomial over the integers."""
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return ZERO
        rem, div = list(self.cs), other.cs
        dn, dd = len(rem) - 1, len(div) - 1
        if dn < dd:
            raise ValueError("not divisible")
        quot = [0] * (dn - dd + 1)
        for i in range(dn - dd, -1, -1):
            top = rem[i + dd]
            if top % div[dd]:
                raise ValueError("not divisible")
            q = top // div[dd]
            quot[i] = q
            if q:
                for j, dv in enumerate(div, i):
                    rem[j] -= q * dv
        if any(rem):
            raise ValueError("not divisible")
        return LaurentPoly.dense(self.lo - other.lo, quot)

    # -- evaluation -------------------------------------------------------

    def eval_integer(self, q0: int) -> int:
        """Exact value at the int q0, asserting the result is an integer.

        Takes ints only: Horner's rule on ``cs`` and, for negative
        exponents, one exact division by q0^-lo.
        """
        if not isinstance(q0, int):
            raise TypeError(f"q0 must be an int, not {type(q0).__name__}")
        total = 0
        for c in reversed(self.cs):
            total = total * q0 + c
        if self.lo >= 0:
            return total * q0**self.lo
        if q0 == 0:
            raise ZeroDivisionError("cannot evaluate negative exponents at 0")
        den = q0**-self.lo
        val, rem = divmod(total, den)
        if rem:
            g = gcd(total, den) * (-1 if den < 0 else 1)
            raise ValueError(f"value {total // g}/{den // g} at q={q0} is not an integer")
        return val

    # -- equality, hashing, display ---------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if isinstance(other, LaurentPoly):
            return self.lo == other.lo and self.cs == other.cs
        return NotImplemented

    def __hash__(self):
        return hash((self.lo, self.cs))

    def to_string(self, var: str = "q") -> str:
        cs, lo = self.cs, self.lo
        if not cs:
            return "0"
        terms = []  # " + body" or " - body", highest exponent first
        for i in range(len(cs) - 1, -1, -1):
            v = cs[i]
            if not v:
                continue
            e, sign = lo + i, " + "
            if v < 0:
                sign, v = " - ", -v
            if e == 0:
                terms.append(f"{sign}{v}")
            elif v == 1:
                terms.append(f"{sign}{var}" if e == 1 else f"{sign}{var}^{e}")
            else:
                terms.append(f"{sign}{v}*{var}" if e == 1 else f"{sign}{v}*{var}^{e}")
        first = terms[0]
        terms[0] = first[3:] if first[1] == "+" else "-" + first[3:]
        return "".join(terms)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"LaurentPoly({self.to_string()!r})"


ZERO = LaurentPoly.dense(0, ())
ONE = LaurentPoly.const(1)
Q = LaurentPoly.monomial(1)


class PolyParseError(ValueError):
    """Polynomial string rejected, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_poly(text: str, var: str = "q") -> LaurentPoly:
    """Parse the textual rendering produced by :meth:`LaurentPoly.to_string`.

    Accepts terms like ``5``, ``q``, ``q^-2``, ``3*q^4`` (the ``*`` may be
    omitted) joined by ``+`` or ``-``.
    """
    terms: list[tuple[int, int]] = []
    i, n = 0, len(text)
    first = True

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    i = skip_ws(i)
    if i == n:
        raise PolyParseError("empty polynomial", 0)
    while i < n:
        sign = 1
        if text[i] in "+-":
            sign = -1 if text[i] == "-" else 1
            i = skip_ws(i + 1)
        elif not first:
            raise PolyParseError("expected '+' or '-'", i)
        coeff = None
        if i < n and text[i].isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            coeff = int(text[i:j])
            i = skip_ws(j)
            if i < n and text[i] == "*":
                i = skip_ws(i + 1)
                if not text.startswith(var, i):
                    raise PolyParseError(f"expected '{var}' after '*'", i)
        exponent = 0
        if text.startswith(var, i) and not (
            i + len(var) < n and text[i + len(var)].isalnum()
        ):
            i += len(var)
            exponent = 1
            if i < n and text[i] == "^":
                i += 1
                j = i
                if j < n and text[j] == "-":
                    j += 1
                if j == n or not text[j].isdecimal():
                    raise PolyParseError("expected integer exponent", j)
                while j < n and text[j].isdecimal():
                    j += 1
                exponent = int(text[i:j])
                i = j
        elif coeff is None:
            raise PolyParseError("expected a term", i)
        terms.append((exponent, sign * (1 if coeff is None else coeff)))
        first = False
        i = skip_ws(i)
    return LaurentPoly(terms)
