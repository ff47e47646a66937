"""Seeded op streams for the four benchmark workloads.

An op is one ``kronq`` command line plus what its checker needs to know
about the input (summands, dimension vectors, partitions).  The same
workload and seed always give the same stream.

Each stream is built from blocks: a block holds a fixed list of op
templates in a seeded order, and the seed fills in each template's sizes.
Every block therefore has the same mix of op sizes.  Within a template,
``deep_count`` and ``tube_table`` draw sizes stratified (``_Strata``), so a
run's spread of sizes, and with it the median op, stays put from seed to
seed while the inputs themselves change.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import count

WORKLOADS = ("deep_count", "tube_table", "verify_small", "cli_cold")


def partitions(n: int, cap: int | None = None):
    """Partitions of n as weakly decreasing tuples, largest first."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for p in range(min(n, cap), 0, -1):
        for rest in partitions(n - p, p):
            yield (p,) + rest


def _parts(parts) -> str:
    return "[" + ",".join(map(str, parts)) + "]"


def _summand_text(kind: str, degree: int, index: int, label: str) -> str:
    if kind in ("P", "I"):
        return f"{kind}{index}"
    at = "" if degree == 1 else f"@{degree}"
    return f"R({label}{at},[{index}])"


def dims(summands) -> tuple[int, int]:
    """Dimension vector of a direct sum of [kind, degree, index] summands."""
    a = b = 0
    for kind, degree, index in summands:
        if kind == "P":
            a, b = a + index + 1, b + index
        elif kind == "I":
            a, b = a + index, b + index + 1
        else:
            a, b = a + degree * index, b + degree * index
    return a, b


class _Strata:
    """Stratified seeded draws of one op parameter: each run of k draws
    takes one value from each k-th of the range, at a seeded point inside
    it.  Op cost moves steeply with some parameters (the gap a - b, the
    size of a second summand), and plain draws let a run's mix of costs
    move by a tenth from seed to seed."""

    def __init__(self, rng: random.Random, k: int = 6):
        self.rng = rng
        self.k = k
        self.deck: list[int] = []

    def randint(self, lo: int, hi: int) -> int:
        if not self.deck:
            self.deck = list(range(self.k))
            self.rng.shuffle(self.deck)
        u = (self.deck.pop() + self.rng.random()) / self.k
        return lo + int(u * (hi - lo + 1))


def _count_op(draw, summands, text: str) -> dict:
    """count at a dimension vector in the central third with a > b; counts
    with a <= b end after a few guards and would measure nothing.
    ``draw(name, lo, hi)`` picks each parameter."""
    m, n = dims(summands)
    a = draw("a", -(-m // 3) + 1, 2 * m // 3)
    b = draw("b", max(-(-n // 3), a - 6), min(2 * n // 3, a - 1))
    return {
        "kind": "count",
        "argv": ["count", "-m", text, "-d", f"{a},{b}"],
        "summands": summands,
        "dim": [a, b],
    }


# -- deep_count ------------------------------------------------------------


def _deep_template(draw, extra: str, n: int) -> dict:
    """P_n plus one small summand: P_m, I_k, or a degree-1 regular part
    with one part ("R") or two ("RR", which sends the engine into hall)."""
    summands = [["P", 1, n]]
    text = f"P{n}"
    if extra == "P":
        m = draw("m", n // 2, n - 2)
        summands.append(["P", 1, m])
        text += f" + P{m}"
    elif extra == "I":
        k = draw("k", 0, 4)
        summands.append(["I", 1, k])
        text += f" + I{k}"
    else:
        options = [(1,), (2,), (3,)] if extra == "R" else [(1, 1), (2, 1), (2, 2)]
        parts = options[draw("parts", 0, 2)]
        summands += [["R", 1, t] for t in parts]
        text += f" + R(p,{_parts(parts)})"
    return _count_op(draw, summands, text)


# (extra summand, n) per block.  A P_m or I_k extra costs about five times a
# degree-1 regular extra at the same n, so those get the smaller n.
_DEEP_BLOCK = [(e, n) for e in "PI" for n in (19, 22)] + [(e, n) for e in ("R", "RR") for n in (30, 34)]


def _deep_count(rng: random.Random):
    strata: dict[tuple, _Strata] = {}

    def draw(template, name, lo, hi):
        if (template, name) not in strata:
            strata[template, name] = _Strata(rng)
        return strata[template, name].randint(lo, hi)

    while True:
        for template in rng.sample(_DEEP_BLOCK, len(_DEEP_BLOCK)):
            yield _deep_template(partial(draw, template), *template)


# -- tube_table --------------------------------------------------------------

# Extra summands: none, P0/P1/I0/I1, a second degree-1 point, a degree-2 point.
_TUBE_EXTRAS = (
    (),
    (("P", 1, 0),),
    (("P", 1, 1),),
    (("I", 1, 0),),
    (("I", 1, 1),),
    (("R", 1, 1),),
    (("R", 1, 2),),
    (("R", 2, 1),),
)


def _tube_table(rng: random.Random):
    """Every partition of weight 11..14 once, in seeded order; the stream
    ends when they are used up (369 ops)."""
    pool = [lam for w in range(11, 15) for lam in partitions(w)]
    rng.shuffle(pool)
    extras = _Strata(rng, len(_TUBE_EXTRAS))
    for lam in pool:
        extra = _TUBE_EXTRAS[extras.randint(0, len(_TUBE_EXTRAS) - 1)]
        text = f"R(p,{_parts(lam)})"
        for kind, degree, index in extra:
            text += " + " + _summand_text(kind, degree, index, "q" if degree == 1 else "r")
        yield {
            "kind": "table",
            "fmt": "json",
            "argv": ["table", "-m", text, "--format", "json"],
            "summands": [["R", 1, t] for t in lam] + [list(s) for s in extra],
        }


# -- verify_small ------------------------------------------------------------

# (vertex-2 dimension, largest vertex-1 dimension) per prime; both give
# about 2,700 vertex-2 subspaces for the oracle to walk.  F_2 at vertex-2
# dimension 7 would walk 29,212 and take ten times longer.
_VERIFY_SIZE = {2: (6, 7), 3: (5, 5)}


def _points(p: int, degree: int) -> int:
    """Closed points of the given degree (1 to 3) on P^1 over F_p."""
    return {1: p + 1, 2: (p * p - p) // 2, 3: (p**3 - p) // 3}[degree]


def _verify_op(rng: random.Random, p: int) -> dict:
    target_b, max_a = _VERIFY_SIZE[p]
    preproj, preinj = [], []
    points: list[tuple[int, list[int]]] = []  # (degree, parts) per label
    a = b = 0
    while b < target_b:
        ra, rb = max_a - a, target_b - b
        choices = [("P", n) for n in range(4) if n + 1 <= ra and n <= rb]
        choices += [("I", n) for n in range(4) if n <= ra and n + 1 <= rb]
        for degree in (1, 2, 3):
            for t in range(1, 4):
                if degree * t > min(ra, rb):
                    continue
                if sum(d == degree for d, _ in points) < _points(p, degree):
                    choices.append(("new", degree, t))
                choices += [("old", i, t) for i, (d, _) in enumerate(points) if d == degree]
        choice = rng.choice(choices)
        if choice[0] == "P":
            preproj.append(choice[1])
            a, b = a + choice[1] + 1, b + choice[1]
        elif choice[0] == "I":
            preinj.append(choice[1])
            a, b = a + choice[1], b + choice[1] + 1
        else:
            _, which, t = choice
            if choice[0] == "new":
                points.append((which, [t]))
                degree = which
            else:
                points[which][1].append(t)
                degree = points[which][0]
            a, b = a + degree * t, b + degree * t
    chunks = [f"P{n}" for n in sorted(preproj)]
    for i, (degree, parts) in enumerate(points):
        at = "" if degree == 1 else f"@{degree}"
        chunks.append(f"R(x{i}{at},{_parts(sorted(parts, reverse=True))})")
    chunks += [f"I{n}" for n in sorted(preinj)]
    return {
        "kind": "verify",
        "argv": ["verify", "-m", " + ".join(chunks), "-p", str(p), "--format", "csv"],
        "dim": [a, b],
    }


def _verify_small(rng: random.Random):
    while True:
        for p in rng.sample((2, 3), 2):
            yield _verify_op(rng, p)


# -- cli_cold ------------------------------------------------------------------


def _table_op(kind: str, n: int, fmt: str) -> dict:
    text = f"R(p,[{n}])" if kind == "R" else f"{kind}{n}"
    return {
        "kind": "table",
        "fmt": fmt,
        "argv": ["table", "-m", text, "--format", fmt],
        "summands": [[kind, 1, n]],
    }


def _hall_op(rng: random.Random) -> dict:
    """A partition triple with mu inside lambda and nu the sorted row
    differences; weight 6..9 keeps the checker's subgroup census cheap."""
    lam = rng.choice([x for w in range(6, 10) for x in partitions(w) if x[0] >= 2 and len(x) <= 4])
    mu = tuple(sorted((rng.randint(0, part) for part in lam), reverse=True))
    mu = tuple(x for x in mu if x)
    nu = tuple(sorted((l - m for l, m in zip(lam, mu + (0,) * len(lam)) if l - m), reverse=True))
    if not mu or not nu:
        return _hall_op(rng)
    return {
        "kind": "hall",
        "argv": ["hall", "--lambda", ",".join(map(str, lam)),
                 "--mu", ",".join(map(str, mu)), "--nu", ",".join(map(str, nu))],
        "lam": list(lam), "mu": list(mu), "nu": list(nu),
    }


def _small_module(rng: random.Random, label: str):
    summands = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice("PIR")
        summands.append([kind, 1, rng.randint(1 if kind == "R" else 0, 6)])
    text = " + ".join(_summand_text(k, d, i, label) for k, d, i in summands)
    return summands, text


def _homext_op(rng: random.Random) -> dict:
    xs, xt = _small_module(rng, "p")
    ys, yt = _small_module(rng, rng.choice("pq"))
    # one point label per module, so repeated R summands merge into one point
    return {
        "kind": "homext",
        "argv": ["homext", "-x", xt, "-y", yt],
        "x_dim": list(dims(xs)), "y_dim": list(dims(ys)),
    }


_COLD_TABLES = [(k, f) for k in "PIR" for f in ("text", "json", "csv")]
_COLD_SIZES = [12, 13, 14, 14, 15, 16, 16, 17, 18]


def _cli_cold(rng: random.Random):
    while True:
        sizes = rng.sample(_COLD_SIZES, len(_COLD_SIZES))
        block = [_table_op(k, n, f) for (k, f), n in zip(_COLD_TABLES, sizes)]
        # one text table large enough to print 1 to 2 MB
        block.append(_table_op(rng.choice("PIR"), rng.randint(22, 25), "text"))
        block.append(_deep_template(lambda name, lo, hi: rng.randint(lo, hi), rng.choice("PI"), 13))
        block.append(_hall_op(rng))
        block.append(_homext_op(rng))
        rng.shuffle(block)
        yield from block


_STREAMS = {
    "deep_count": _deep_count,
    "tube_table": _tube_table,
    "verify_small": _verify_small,
    "cli_cold": _cli_cold,
}


def stream(workload: str, seed: int):
    """Endless (tube_table: finite) iterator of ops, each tagged with its
    index in the stream."""
    rng = random.Random(f"{workload}:{seed}")
    for i, op in zip(count(), _STREAMS[workload](rng)):
        op["index"] = i
        yield op
