"""Output checks that do not go through the code under test.

Polynomials are read by the benchmark's own term parser, not by
``kronq.laurent.parse_poly``: a table prints up to a few MB of
polynomials, and parse_poly's per-character loop would take longer than
the op itself.  The q = 1 reference for a count is the direct-sum
convolution of single-summand Euler characteristics: binomial products
from ``kronq.closed_form.euler_char_formula`` for P_n, I_n and degree-1
uniserials, and for a uniserial at a point of degree >= 2 that summand's
own table at q = 1 (the direct-sum identity is what is checked there).
Hall values are compared with an exhaustive subgroup census, and hom/ext
with the Euler form.  Every checker returns None or a one-line reason.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from functools import cache

from workloads import dims

_TERM = {v: re.compile(rf"(?:(\d+)\*)?{v}(?:\^(-?\d+))?|(\d+)") for v in "qx"}


def parse_terms(text: str, var: str = "q") -> dict[int, int]:
    """exponent -> coefficient of a rendered polynomial; raises ValueError
    on anything that is not a sum of terms ``c``, ``q``, ``c*q``, ``q^e``,
    ``c*q^e`` joined by ' + ' or ' - '."""
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    out: dict[int, int] = {}
    for chunk in re.split(r" ([+-]) ", text):
        if chunk in ("+", "-"):
            sign = 1 if chunk == "+" else -1
            continue
        m = _TERM[var].fullmatch(chunk)
        if m is None:
            raise ValueError(f"bad term {chunk!r}")
        if m.group(3) is not None:
            coeff, exp = int(m.group(3)), 0
        else:
            coeff = int(m.group(1)) if m.group(1) else 1
            exp = int(m.group(2)) if m.group(2) else 1
        if coeff == 0 or exp in out:
            raise ValueError(f"non-canonical term {chunk!r}")
        out[exp] = sign * coeff
    return out


def polynomial_value_at_one(text: str) -> int:
    """Value at q = 1, after checking the text is a polynomial with
    positive integer coefficients (or the literal 0)."""
    if text == "0":
        return 0
    terms = parse_terms(text)
    if any(e < 0 for e in terms):
        raise ValueError(f"negative exponent in {text[:60]!r}")
    if any(c <= 0 for c in terms.values()):
        raise ValueError(f"negative coefficient in {text[:60]!r}")
    return sum(terms.values())


# -- q = 1 reference tables ------------------------------------------------


@cache
def _summand_table(kind: str, degree: int, index: int) -> tuple:
    """Nonzero q = 1 values of one indecomposable, as ((a, b), value)."""
    if kind == "R" and degree > 1:
        # no closed formula at degree >= 2: take the summand's own counts
        from kronq.engine import CountingEngine
        from kronq.model import regular

        module = regular(index, "p", degree)
        m, n = module.dim_vector()
        engine = CountingEngine()
        values = {(a, b): engine.count(module, a, b).eval_integer(1)
                  for a in range(m + 1) for b in range(n + 1)}
    else:
        from kronq.closed_form import euler_char_formula

        name = {"P": "preprojective", "I": "preinjective", "R": "regular_deg1"}[kind]
        m, n = {"P": (index + 1, index), "I": (index, index + 1), "R": (index, index)}[kind]
        values = {(a, b): euler_char_formula(name, index, a, b)
                  for a in range(m + 1) for b in range(n + 1)}
    return tuple((ab, v) for ab, v in values.items() if v)


def euler_table(summands) -> dict[tuple[int, int], int]:
    """q = 1 submodule counts of a direct sum, by convolving its summands."""
    acc = {(0, 0): 1}
    for kind, degree, index in summands:
        nxt: dict[tuple[int, int], int] = {}
        for (a, b), v in acc.items():
            for (c, d), w in _summand_table(kind, degree, index):
                key = (a + c, b + d)
                nxt[key] = nxt.get(key, 0) + v * w
        acc = nxt
    return acc


# -- per-kind checkers ---------------------------------------------------------


def _check_cells(cells: dict[tuple[int, int], str], summands) -> str | None:
    m, n = dims(summands)
    if set(cells) != {(a, b) for a in range(m + 1) for b in range(n + 1)}:
        return f"table cells do not cover the box {m}x{n}"
    ref = euler_table(summands)
    for (a, b), text in cells.items():
        if polynomial_value_at_one(text) != ref.get((a, b), 0):
            return f"cell ({a},{b}) is {ref.get((a, b), 0)} at q=1 by convolution"
    return None


def _table_cells(op: dict, out: str) -> dict[tuple[int, int], str]:
    fmt = op["fmt"]
    if fmt == "json":
        doc = json.loads(out)
        return {(c["a"], c["b"]): c["polynomial"] for c in doc["cells"]}
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(out)))
        return {(int(r["a"]), int(r["b"])): r["polynomial"] for r in rows}
    # text: a header line, then one row per a with cells padded to a
    # common width, so two or more spaces separate cells
    lines = out.splitlines()
    return {
        (a, b): cell
        for a, line in enumerate(lines[1:])
        for b, cell in enumerate(re.split(r" {2,}", line.strip()))
    }


def check_table(op: dict, out: str) -> str | None:
    return _check_cells(_table_cells(op, out), op["summands"])


def check_count(op: dict, out: str) -> str | None:
    a, b = op["dim"]
    value = polynomial_value_at_one(out.strip())
    expected = euler_table(op["summands"]).get((a, b), 0)
    if value != expected:
        return f"value {value} at q=1, convolution gives {expected}"
    return None


def check_verify(op: dict, out: str) -> str | None:
    rows = list(csv.DictReader(io.StringIO(out)))
    m, n = op["dim"]
    if {(int(r["a"]), int(r["b"])) for r in rows} != {
        (a, b) for a in range(m + 1) for b in range(n + 1)
    } or len(rows) != (m + 1) * (n + 1):
        return f"verify records do not cover the box {m}x{n}"
    for r in rows:
        if r["match"] != "True" or r["engine"] != r["oracle"]:
            return f"verify cell ({r['a']},{r['b']}) does not match"
    return None


def check_hall(op: dict, out: str) -> str | None:
    from kronq.abelian import subgroup_count_by_types

    text = out.strip()
    value = 0 if text == "0" else sum(c * 2**e for e, c in parse_terms(text, "x").items())
    census = subgroup_count_by_types(tuple(op["lam"]), tuple(op["mu"]), tuple(op["nu"]), 2)
    if value != census:
        return f"hall value {value} at x=2, census counts {census}"
    return None


def check_homext(op: dict, out: str) -> str | None:
    m = re.fullmatch(r"hom = (\d+)\next = (\d+)\n", out)
    if m is None:
        return "homext output is not 'hom = h / ext = e'"
    (a1, b1), (a2, b2) = op["x_dim"], op["y_dim"]
    euler = a1 * a2 + b1 * b2 - 2 * b1 * a2
    if int(m.group(1)) - int(m.group(2)) != euler:
        return f"hom - ext = {int(m.group(1)) - int(m.group(2))}, Euler form gives {euler}"
    return None


CHECKERS = {
    "count": check_count,
    "table": check_table,
    "verify": check_verify,
    "hall": check_hall,
    "homext": check_homext,
}


def digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()


def check(op: dict, rc, out: str, digests: list[str] | None = None) -> str | None:
    """Reason the op failed, or None.  ``digests`` holds the recorded
    stdout SHA-256 per op index for this seed, when one was recorded."""
    if rc != 0:
        return f"exit code {rc}"
    if digests is not None and op["index"] < len(digests) and digest(out) != digests[op["index"]]:
        return "stdout differs from the recorded digest"
    try:
        return CHECKERS[op["kind"]](op, out)
    except Exception as exc:  # a checker that breaks fails the op, not the run
        return f"check raised {type(exc).__name__}: {exc}"[:200]
