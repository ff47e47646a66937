"""Exact Laurent polynomials in one variable with integer coefficients.

Every count produced by this package is a value of this type.  Coefficients
are Python ints (arbitrary precision) and no floating point is used anywhere.
Polynomials are kept in canonical form: the coefficient map never stores a
zero, so equal values always have identical maps.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["LaurentPoly", "PolyParseError", "parse_poly", "ZERO", "ONE", "Q"]

# Products with more terms than this go through the packed-integer
# convolution below instead of the dict loop.
_PACK_THRESHOLD = 4


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


def _convolve(xs: list[int], ys: list[int]) -> list[int]:
    """Exact integer convolution via Kronecker substitution.

    Splitting into positive and negative parts keeps every packed limb
    nonnegative; the limb width is chosen so sums cannot carry over.
    """
    bound = (
        max(abs(v) for v in xs) * max(abs(v) for v in ys) * min(len(xs), len(ys))
    )
    width = (bound.bit_length() + 9) // 8 + 1
    xp = _pack([v if v > 0 else 0 for v in xs], width)
    xn = _pack([-v if v < 0 else 0 for v in xs], width)
    yp = _pack([v if v > 0 else 0 for v in ys], width)
    yn = _pack([-v if v < 0 else 0 for v in ys], width)
    count = len(xs) + len(ys) - 1
    plus = _unpack(xp * yp + xn * yn, width, count)
    minus = _unpack(xp * yn + xn * yp, width, count)
    return [u - v for u, v in zip(plus, minus)]


class LaurentPoly:
    """Immutable Laurent polynomial, exponent -> coefficient."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for e, v in items:
                v = c.get(e, 0) + v
                if v:
                    c[e] = v
                elif e in c:
                    del c[e]
        self._c = c

    @classmethod
    def _raw(cls, c: dict) -> "LaurentPoly":
        self = object.__new__(cls)
        self._c = c
        return self

    @classmethod
    def const(cls, v: int) -> "LaurentPoly":
        return cls._raw({0: v}) if v else cls._raw({})

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "LaurentPoly":
        return cls._raw({exponent: coeff}) if coeff else cls._raw({})

    # -- basic queries ----------------------------------------------------

    def items(self):
        return self._c.items()

    def coefficient(self, exponent: int) -> int:
        return self._c.get(exponent, 0)

    def __bool__(self) -> bool:
        return bool(self._c)

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def min_exponent(self) -> int:
        """Smallest exponent with nonzero coefficient; 0 for the zero poly."""
        return min(self._c) if self._c else 0

    @property
    def max_exponent(self) -> int:
        return max(self._c) if self._c else 0

    @property
    def is_polynomial(self) -> bool:
        """True when no negative exponent occurs."""
        return not self._c or min(self._c) >= 0

    @property
    def has_nonnegative_coefficients(self) -> bool:
        return all(v > 0 for v in self._c.values())

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
        c = dict(self._c)
        for e, v in other._c.items():
            v = c.get(e, 0) + v
            if v:
                c[e] = v
            else:
                del c[e]
        return LaurentPoly._raw(c)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({e: -v for e, v in self._c.items()})

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
        a, b = self._c, other._c
        if not a or not b:
            return ZERO
        if len(a) == 1:
            ((e, v),) = a.items()
            return other.shift(e, v)
        if len(b) == 1:
            ((e, v),) = b.items()
            return self.shift(e, v)
        if min(len(a), len(b)) <= _PACK_THRESHOLD:
            c = {}
            for e1, v1 in a.items():
                for e2, v2 in b.items():
                    e = e1 + e2
                    v = c.get(e, 0) + v1 * v2
                    if v:
                        c[e] = v
                    elif e in c:
                        del c[e]
            return LaurentPoly._raw(c)
        lo_a, lo_b = min(a), min(b)
        xs = [0] * (max(a) - lo_a + 1)
        for e, v in a.items():
            xs[e - lo_a] = v
        ys = [0] * (max(b) - lo_b + 1)
        for e, v in b.items():
            ys[e - lo_b] = v
        zs = _convolve(xs, ys)
        lo = lo_a + lo_b
        return LaurentPoly._raw({lo + i: v for i, v in enumerate(zs) if v})

    __rmul__ = __mul__

    def shift(self, k: int, scale: int = 1) -> "LaurentPoly":
        """Multiply by scale * q^k."""
        if not scale:
            return ZERO
        if scale == 1:
            return LaurentPoly._raw({e + k: v for e, v in self._c.items()})
        return LaurentPoly._raw({e + k: v * scale for e, v in self._c.items()})

    def stretched(self, d: int) -> "LaurentPoly":
        """Substitute q -> q^d (exponent scaling)."""
        if d == 1:
            return self
        return LaurentPoly._raw({e * d: v for e, v in self._c.items()})

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ValueError when the quotient is not
        a Laurent polynomial over the integers."""
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return ZERO
        lo_n, lo_d = self.min_exponent, other.min_exponent
        rem = [0] * (self.max_exponent - lo_n + 1)
        for e, v in self._c.items():
            rem[e - lo_n] = v
        div = [0] * (other.max_exponent - lo_d + 1)
        for e, v in other._c.items():
            div[e - lo_d] = v
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
                for j, dv in enumerate(div):
                    rem[i + j] -= q * dv
        if any(rem):
            raise ValueError("not divisible")
        lo = lo_n - lo_d
        return LaurentPoly._raw({lo + i: v for i, v in enumerate(quot) if v})

    # -- evaluation -------------------------------------------------------

    def eval_at(self, q0) -> Fraction:
        """Exact value at a rational point."""
        q0 = Fraction(q0)
        if q0 == 0:
            if self._c and min(self._c) < 0:
                raise ZeroDivisionError(
                    "cannot evaluate negative exponents at 0"
                )
            return Fraction(self._c.get(0, 0))
        total = Fraction(0)
        for e, v in self._c.items():
            total += v * q0**e
        return total

    def eval_integer(self, q0) -> int:
        """Exact value at q0, asserting the result is an integer."""
        val = self.eval_at(q0)
        if val.denominator != 1:
            raise ValueError(f"value {val} at q={q0} is not an integer")
        return val.numerator

    # -- equality, hashing, display ---------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        if isinstance(other, LaurentPoly):
            return self._c == other._c
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def to_string(self, var: str = "q") -> str:
        if not self._c:
            return "0"
        chunks = []
        for e in sorted(self._c, reverse=True):
            v = self._c[e]
            mag = abs(v)
            if e == 0:
                body = str(mag)
            else:
                power = var if e == 1 else f"{var}^{e}"
                body = power if mag == 1 else f"{mag}*{power}"
            chunks.append(("-" if v < 0 else "+", body))
        sign, body = chunks[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"LaurentPoly({self.to_string()!r})"


ZERO = LaurentPoly._raw({})
ONE = LaurentPoly._raw({0: 1})
Q = LaurentPoly._raw({1: 1})


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
    coeffs: dict[int, int] = {}
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
        if i < n and text[i].isdigit():
            j = i
            while j < n and text[j].isdigit():
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
                if j == n or not text[j].isdigit():
                    raise PolyParseError("expected integer exponent", j)
                while j < n and text[j].isdigit():
                    j += 1
                exponent = int(text[i:j])
                i = j
        elif coeff is None:
            raise PolyParseError("expected a term", i)
        v = coeffs.get(exponent, 0) + sign * (1 if coeff is None else coeff)
        if v:
            coeffs[exponent] = v
        elif exponent in coeffs:
            del coeffs[exponent]
        first = False
        i = skip_ws(i)
    return LaurentPoly._raw(coeffs)
