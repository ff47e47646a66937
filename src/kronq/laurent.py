"""Exact Laurent polynomials in one variable with integer coefficients.

Every count produced by this package is a value of this type.  Coefficients
are Python ints (arbitrary precision) and no floating point is used anywhere.
A polynomial is stored densely as its lowest exponent ``lo`` and the tuple
``cs`` of coefficients of q^lo, q^(lo+1), ...  Polynomials are kept in
canonical form: the first and last entries of ``cs`` are nonzero and zero is
``(0, ())``, so equal values always have identical pairs.
"""

from __future__ import annotations

from math import gcd
from operator import add

__all__ = ["LaurentPoly", "PolyParseError", "parse_poly", "ZERO", "ONE", "Q"]

# Products whose shorter factor has more terms than this go through the
# packed-integer convolution below instead of the schoolbook loop.  Measured
# on the products the benchmark workloads make, packing starts to win at 13
# to 16 terms, depending on the workload (table in CHANGES.md).
_PACK_THRESHOLD = 14


def _pack(vals: list[int], width: int) -> int:
    """Encode a list of small nonnegative ints as one big int, little endian."""
    return int.from_bytes(
        b"".join(v.to_bytes(width, "little") for v in vals), "little"
    )


def _unpack(n: int, width: int, count: int) -> list[int]:
    buf = n.to_bytes(width * count, "little")
    return [
        int.from_bytes(buf[i * width : (i + 1) * width], "little")
        for i in range(count)
    ]


def _convolve(xs, ys) -> list[int]:
    """Exact integer convolution via Kronecker substitution.

    Every limb holds its coefficient plus half the limb's range, so signed
    lists pack as nonnegative limbs; the bias is taken off each packed
    factor, the two are multiplied once, and the product's bias is added
    back before one unpack.  ``bound`` bounds every coefficient of the
    product, and the limb width makes ``half`` exceed it, so no biased
    coefficient leaves its limb.
    """
    bound = max(map(abs, xs)) * max(map(abs, ys)) * min(len(xs), len(ys))
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    limb = half.to_bytes(width, "little")

    def packed(vals):
        return _pack([v + half for v in vals], width) - int.from_bytes(
            limb * len(vals), "little"
        )

    count = len(xs) + len(ys) - 1
    prod = packed(xs) * packed(ys) + int.from_bytes(limb * count, "little")
    return [v - half for v in _unpack(prod, width, count)]


class LaurentPoly:
    """Immutable Laurent polynomial sum_i cs[i] * q^(lo + i), canonical:
    ``cs`` is a tuple whose first and last entries are nonzero, and zero is
    ``lo, cs = 0, ()``."""

    __slots__ = ("lo", "cs")

    def __init__(self, coeffs=()):
        """From an exponent -> coefficient dict or (exponent, coefficient)
        pairs; repeated exponents add up."""
        pairs = list(coeffs.items() if isinstance(coeffs, dict) else coeffs)
        lo = min((e for e, _ in pairs), default=0)
        vals = [0] * (max((e for e, _ in pairs), default=lo - 1) - lo + 1)
        for e, v in pairs:
            vals[e - lo] += v
        p = LaurentPoly.dense(lo, vals)
        self.lo, self.cs = p.lo, p.cs

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
        if not self.cs:
            return "0"
        terms = []
        for e, v in reversed(self.items()):
            mag = abs(v)
            if e == 0:
                body = str(mag)
            else:
                power = var if e == 1 else f"{var}^{e}"
                body = power if mag == 1 else f"{mag}*{power}"
            terms.append(("- " if v < 0 else "+ ") + body)
        out = " ".join(terms)
        return out[2:] if out[0] == "+" else "-" + out[2:]

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
