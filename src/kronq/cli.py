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
built, a module too deep for the interpreter's recursion limit, and an
engine value that fails its polynomial check), 2 parse error, 3
evaluation point is not a prime power (result still printed), 4
verification mismatch.  Errors go to stderr only, as one line, and
running out of memory is ``error: out of memory`` with exit 1.  A reader
that closes stdout early (``kronq ... | head``) gets exit 1 and no message.

``count --at q`` with a prime power q also prints one ``warning:`` line on
stderr when the module uses more points of some degree d than the
projective line over F_q has; that count is the oracle's
``points_of_degree``, the one that bounds the points of its matrix models.
stdout and the exit code are the same as without the warning.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .engine import CountingEngine
from .hall import hall_polynomial
from .model import (
    ModuleParseError,
    Partition,
    ext_dim,
    hom_dim,
    parse_module,
    read_ints,
)
from .oracle import (
    build_rep,
    check_work,
    count_submodules,
    points_of_degree,
    submodule_table,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_BAD_POINT = 3
EXIT_MISMATCH = 4


def _is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, n + 1):
        if p * p > n:
            return True  # n itself is prime
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return False


def _unrealizable_degrees(module, q: int) -> list[str]:
    """One note per point degree that F_q has too few points for."""
    used: dict[int, int] = {}
    for _, degree, _ in module.regular:
        used[degree] = used.get(degree, 0) + 1
    notes = []
    for degree, n in sorted(used.items()):
        # for d >= 4 there are at least q^d / (2d) >= 2^(d-1) / d points,
        # so a large degree needs no exact count (nor a huge power of q)
        if degree >= 4 and degree - 1 >= (degree * n).bit_length():
            continue
        have = points_of_degree(degree, q)
        if n > have:
            notes.append(f"{n} points of degree {degree}, F_{q} has {have}")
    return notes


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
    engine = CountingEngine(memoize=not args.no_cache)
    poly = engine.count(module, a, b)
    record = {"module": str(module), "a": a, "b": b, "polynomial": poly.to_string()}
    fields = ["module", "a", "b", "polynomial"]
    status = EXIT_OK
    if args.at is not None:
        record["at"] = args.at
        record["value"] = poly.eval_integer(args.at)
        fields += ["at", "value"]
        if not _is_prime_power(args.at):
            print(
                f"warning: {args.at} is not a prime power >= 2; "
                "the value does not count anything",
                file=sys.stderr,
            )
            status = EXIT_BAD_POINT
        else:
            notes = _unrealizable_degrees(module, args.at)
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
        {"a": a, "b": b, "polynomial": engine.count(module, a, b).to_string()}
        for a in range(m + 1)
        for b in range(n + 1)
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
        table = submodule_table(rep)
    else:
        table = {cell: count_submodules(rep, *cell)}
    records = []
    mismatches = 0
    for (a, b), expected in sorted(table.items()):
        got = engine.count(module, a, b).eval_integer(args.prime)
        ok = got == expected
        mismatches += not ok
        records.append(
            {
                "module": str(module),
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
            parts.append(Partition.parse(text))
        except ModuleParseError as exc:
            raise ModuleParseError(f"{flag}: {exc.message}", exc.position) from None
    lam, mu, nu = parts
    poly = hall_polynomial(lam, nu, mu)
    if args.format == "text":
        print(poly.to_string("x"))
        return EXIT_OK
    # json keeps each partition as a list of parts, csv as one "3,2,1" cell
    record = {
        name: list(p.parts) if args.format == "json" else ",".join(map(str, p.parts))
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
