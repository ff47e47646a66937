"""Command line interface.

Subcommands:

    count   polynomial for one module and dimension vector
    table   grid of polynomials over every dimension vector
    verify  compare the engine against brute-force enumeration over F_p
    hall    classical Hall polynomial for a partition triple
    homext  morphism/extension space dimensions between two modules

Output formats: text (default), json, csv.  Exit codes: 0 success, 1
runtime error (including unrealizable verification requests, a
verification whose oracle would walk more than 10^6 vertex-2 vectors and
subspaces, refused from the dimension vector before any matrix model is
built, a ``count --at q`` whose prime-power test would need a primality
proof beyond the range of its Miller-Rabin bases, refused before any
counting, a module too deep for the interpreter's recursion limit, and an
engine value that fails its polynomial check), 2 parse error, 3
evaluation point is not a prime power (result still printed), 4
verification mismatch.  Errors go to stderr only, as one line, and
running out of memory is ``error: out of memory`` with exit 1.  A reader
that closes stdout early (``kronq ... | head``) gets exit 1 and no message.

``count --at q`` with a prime power q also prints one ``warning:`` line on
stderr when the module uses more points of some degree d than the
projective line over F_q has; that check is the oracle's
``point_shortfalls``, the one that bounds the points of its matrix models.
stdout and the exit code are the same as without the warning.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from .engine import CountingEngine
from .hall import hall_polynomial
from .model import (
    ModuleParseError,
    ext_dim,
    hom_dim,
    parse_module,
    parse_partition,
    read_ints,
)
from .oracle import (
    build_rep,
    check_work,
    count_submodules,
    point_shortfalls,
    submodule_table,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_BAD_POINT = 3
EXIT_MISMATCH = 4


# the first 13 primes; as Miller-Rabin bases they decide primality of every
# n below _MR_PROVEN, the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3317044064679887385961981


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method from above.  The
    start comes from the float log2(n), raised past its rounding error, so
    that large k need not shrink it step by step from a power of 2."""
    e = math.log2(n) / k
    s = max(int(e) - 52, 0)
    x = (int(2 ** (e - s) * (1 + 2**-30)) + 1) << s
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def _is_prime_power(n: int) -> bool:
    """Whether n = r^k with r prime.  Raises ``ValueError`` when that needs
    a primality proof of some r >= _MR_PROVEN, which the bases cannot give."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    # every prime factor exceeds 41 > 2^5, so n = r^k has k <= bits / 5; the
    # largest such k leaves a root r that is no perfect power (k = 1 fits)
    for k in range(n.bit_length() // 5, 0, -1):
        r = _iroot(n, k)
        if r**k == n:
            break
    d, s = r - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    # at or past the bound no number of passing bases is a proof, so a root
    # there gets the first base only: a witness still settles it, a pass
    # refuses it at once
    for a in _MR_BASES if r < _MR_PROVEN else _MR_BASES[:1]:
        x = pow(a, d, r)
        if x == 1 or x == r - 1:
            continue
        for _ in range(s - 1):
            x = x * x % r
            if x == r - 1:
                break
        else:
            return False  # a witnesses that r is composite
    if r >= _MR_PROVEN:
        raise ValueError(
            f"cannot decide whether {n} is a prime power: {r} passes "
            f"Miller-Rabin to base 2, and the 13 bases 2, 3, ..., 41 prove "
            f"primality only below {_MR_PROVEN}"
        )
    return True


def _emit(records: list[dict], fields: list[str], fmt: str, title: str | None = None):
    """Render records as text columns, a json document, or csv."""
    if fmt == "json":
        doc = {"records": records} if title is None else {"kind": title, "records": records}
        print(json.dumps(doc, sort_keys=True))
        return
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for rec in records:
            writer.writerow({k: rec.get(k, "") for k in fields})
        sys.stdout.write(buf.getvalue())
        return
    widths = [max(len(str(f)), max((len(str(r.get(f, ""))) for r in records), default=0)) for f in fields]
    print("  ".join(f.ljust(w) for f, w in zip(fields, widths)).rstrip())
    for rec in records:
        print("  ".join(str(rec.get(f, "")).ljust(w) for f, w in zip(fields, widths)).rstrip())


def _parse_dim(text: str) -> tuple[int, int]:
    dims = read_ints(text, "dimension")
    if len(dims) != 2:
        at = dims[2][1] if len(dims) > 2 else len(text)
        raise ModuleParseError(f"dimension must be 'a,b', got {text!r}", at)
    return dims[0][0], dims[1][0]


def cmd_count(args) -> int:
    module = parse_module(args.module)
    a, b = _parse_dim(args.dim)
    # decided before counting, so an undecidable q is refused at once
    prime_power = args.at is not None and _is_prime_power(args.at)
    engine = CountingEngine(memoize=not args.no_cache)
    poly = engine.count(module, a, b)
    record = {"module": str(module), "a": a, "b": b, "polynomial": poly.to_string()}
    fields = ["module", "a", "b", "polynomial"]
    status = EXIT_OK
    if args.at is not None:
        record["at"] = args.at
        record["value"] = poly.eval_integer(args.at)
        fields += ["at", "value"]
        if not prime_power:
            print(
                f"warning: {args.at} is not a prime power >= 2; "
                "the value does not count anything",
                file=sys.stderr,
            )
            status = EXIT_BAD_POINT
        else:
            notes = [
                f"{used} points of degree {degree}, F_{args.at} has {have}"
                for degree, used, have in sorted(point_shortfalls(module, args.at))
            ]
            if notes:
                print(
                    f"warning: the module uses {'; '.join(notes)}; "
                    "the value does not count submodules over this field",
                    file=sys.stderr,
                )
    if args.euler:
        record["euler"] = poly.eval_integer(1)
        fields.append("euler")
    if args.format == "text":
        line = record["polynomial"]
        if "value" in record:
            line += f"\nat q={record['at']}: {record['value']}"
        if "euler" in record:
            line += f"\neuler characteristic: {record['euler']}"
        print(line)
    else:
        _emit([record], fields, args.format, title="count")
    return status


def cmd_table(args) -> int:
    module = parse_module(args.module)
    m, n = module.dim_vector()
    engine = CountingEngine(memoize=not args.no_cache)
    cells = [
        {"a": a, "b": b, "polynomial": poly.to_string()}
        for (a, b), poly in engine.table(module).items()
    ]
    if args.format == "json":
        print(
            json.dumps(
                {"kind": "table", "module": str(module), "dim": [m, n], "cells": cells},
                sort_keys=True,
            )
        )
    elif args.format == "csv":
        for cell in cells:
            cell["module"] = str(module)
        _emit(cells, ["module", "a", "b", "polynomial"], "csv")
    else:
        width = max(len(c["polynomial"]) for c in cells)
        print(f"# {module}   rows a = 0..{m}, columns b = 0..{n}")
        grid = {(c["a"], c["b"]): c["polynomial"] for c in cells}
        for a in range(m + 1):
            print("  ".join(grid[(a, b)].ljust(width) for b in range(n + 1)).rstrip())
    return EXIT_OK


def cmd_verify(args) -> int:
    module = parse_module(args.module)
    cell = None if args.dim is None else _parse_dim(args.dim)
    # the oracle's work bound needs only the dimension vector, so an
    # oversized request is refused before any matrix model is built
    check_work(args.prime, *module.dim_vector(), cell)
    engine = CountingEngine(memoize=not args.no_cache)
    rep = build_rep(module, args.prime)
    if cell is None:
        table, values = submodule_table(rep), engine.table(module)
    else:
        table, values = {cell: count_submodules(rep, *cell)}, {cell: engine.count(module, *cell)}
    name = str(module)
    records = []
    mismatches = 0
    for (a, b), expected in sorted(table.items()):
        got = values[a, b].eval_integer(args.prime)
        ok = got == expected
        mismatches += not ok
        records.append(
            {
                "module": name,
                "p": args.prime,
                "a": a,
                "b": b,
                "engine": got,
                "oracle": expected,
                "match": ok,
            }
        )
    _emit(
        records,
        ["module", "p", "a", "b", "engine", "oracle", "match"],
        args.format,
        title="verify",
    )
    if mismatches:
        print(f"{mismatches} mismatching cells", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_hall(args) -> int:
    parts = []
    for flag, text in (("--lambda", args.lam), ("--mu", args.mu), ("--nu", args.nu)):
        try:
            parts.append(parse_partition(text))
        except ModuleParseError as exc:
            raise ModuleParseError(f"{flag}: {exc.message}", exc.position) from None
    lam, mu, nu = parts
    poly = hall_polynomial(lam, nu, mu)
    if args.format == "text":
        print(poly.to_string("x"))
        return EXIT_OK
    # json keeps each partition as a list of parts, csv as one "3,2,1" cell
    record = {
        name: list(p) if args.format == "json" else ",".join(map(str, p))
        for name, p in (("lambda", lam), ("mu", mu), ("nu", nu))
    }
    record["polynomial"] = poly.to_string("x")
    _emit([record], ["lambda", "mu", "nu", "polynomial"], args.format, title="hall")
    return EXIT_OK


def cmd_homext(args) -> int:
    x = parse_module(args.x)
    y = parse_module(args.y)
    record = {
        "x": str(x),
        "y": str(y),
        "hom": hom_dim(x, y),
        "ext": ext_dim(x, y),
    }
    if args.format == "text":
        print(f"hom = {record['hom']}")
        print(f"ext = {record['ext']}")
    else:
        _emit([record], ["x", "y", "hom", "ext"], args.format, title="homext")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronq",
        description="Submodule counts of Kronecker modules over finite fields, "
        "as exact polynomials in q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, module=True):
        if module:
            p.add_argument("-m", "--module", required=True, help="module descriptor")
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text"
        )
        p.add_argument(
            "--no-cache", action="store_true", help="disable memoization"
        )

    p = sub.add_parser("count", help="count submodules of one dimension vector")
    common(p)
    p.add_argument("-d", "--dim", required=True, help="dimension vector 'a,b'")
    p.add_argument("--at", type=int, help="also evaluate at this field size")
    p.add_argument("--euler", action="store_true", help="also evaluate at q=1")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", help="grid of counts over all dimension vectors")
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="compare engine with brute force over F_p")
    common(p)
    p.add_argument("-p", "--prime", type=int, required=True, choices=(2, 3, 5))
    p.add_argument("-d", "--dim", help="single dimension vector 'a,b'")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hall", help="classical Hall polynomial")
    p.add_argument("--lambda", dest="lam", required=True, help="partition, e.g. 2,1")
    p.add_argument("--mu", required=True, help="subgroup type")
    p.add_argument("--nu", required=True, help="quotient type")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_hall)

    p = sub.add_parser("homext", help="hom/ext dimensions between two modules")
    p.add_argument("-x", required=True, help="first module descriptor")
    p.add_argument("-y", required=True, help="second module descriptor")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_homext)
    return parser


_PARSER: argparse.ArgumentParser | None = None  # built by the first main()


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except ModuleParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, RecursionError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # the reader is gone: send what stdout still buffers to devnull, so
        # the interpreter's flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
