import csv
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import kronq.cli as cli
from kronq.cli import build_parser, main
from kronq.closed_form import euler_char_formula
from kronq.laurent import parse_poly
from kronq.model import parse_module
from kronq.oracle import _monic_irreducibles, point_shortfalls, points_of_degree

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "output-schema.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_json(out):
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    # every emitted polynomial string must round-trip through the parser
    var = "x" if doc.get("kind") == "hall" else "q"
    for rec in doc.get("records", []) + doc.get("cells", []):
        if "polynomial" in rec:
            assert parse_poly(rec["polynomial"], var).to_string(var) == (
                rec["polynomial"]
            )
    return doc


def test_count_text(capsys):
    code, out, err = run(capsys, "count", "-m", "P3", "-d", "2,1")
    assert code == 0
    assert out.strip() == "q^2 + q + 1"
    assert err == ""
    code, out, _ = run(capsys, "count", "-m", "R(p1,[2])", "-d", "1,1")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run(capsys, "count", "-m", "P0 + I0", "-d", "1,1")
    assert code == 0
    assert out.strip() == "1"


def test_count_json_schema_and_at(capsys):
    code, out, _ = run(
        capsys, "count", "-m", "P1", "-d", "1,0", "--at", "2", "--euler",
        "--format", "json",
    )
    assert code == 0
    doc = check_json(out)
    rec = doc["records"][0]
    assert rec["polynomial"] == "q + 1"
    assert rec["value"] == 3
    assert rec["euler"] == 2


def test_schema_requires_an_integer_value():
    doc = {
        "kind": "count",
        "records": [{"module": "P1", "a": 1, "b": 0, "polynomial": "q + 1", "at": 2, "value": 3}],
    }
    jsonschema.validate(doc, SCHEMA)
    doc["records"][0]["value"] = "1/2"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, SCHEMA)


def test_cli_import_leaves_fractions_and_the_census_unloaded():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    probe = (
        "import sys, kronq.cli; print(sorted("
        "{'dataclasses', 'fractions', 'inspect', 'kronq.abelian'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_count_warns_on_non_prime_power(capsys):
    code, out, err = run(capsys, "count", "-m", "P1", "-d", "1,0", "--at", "6")
    assert code == 3
    assert "q + 1" in out  # still evaluates
    assert "prime power" in err


def test_count_warns_when_field_has_too_few_points(capsys):
    # F_2 has one point of degree 2, F_3 has three
    module = "R(a@2,[1]) + R(b@2,[1])"
    code, out, err = run(capsys, "count", "-m", module, "-d", "2,2", "--at", "2")
    assert code == 0
    assert out == "2\nat q=2: 2\n"
    assert len(err.splitlines()) == 1
    assert err.startswith("warning: ") and "degree 2" in err
    code, out, err = run(capsys, "count", "-m", module, "-d", "2,2", "--at", "3")
    assert code == 0
    assert out == "2\nat q=3: 2\n"
    assert err == ""
    # q + 1 points of degree 1
    many = " + ".join(f"R(p{i},[1])" for i in range(4))
    _, _, err = run(capsys, "count", "-m", many, "-d", "1,1", "--at", "2")
    assert err.startswith("warning: ")
    _, _, err = run(capsys, "count", "-m", many, "-d", "1,1", "--at", "3")
    assert err == ""


def test_point_counts_match_the_oracle_point_pools():
    for p in (2, 3, 5):
        assert points_of_degree(1, p) == p + 1
        for d in range(2, 6):
            assert points_of_degree(d, p) == len(list(_monic_irreducibles(d, p)))


def test_point_shortfalls_serve_both_callers(capsys):
    # labels a, b come first, so degree 2 is the first degree in use
    module = "R(a@2,[1]) + R(b@2,[1]) + R(c,[1]) + R(d,[1]) + R(e,[1]) + R(f,[1])"
    assert point_shortfalls(parse_module(module), 2) == [(2, 2, 1), (1, 4, 3)]
    assert point_shortfalls(parse_module(module), 3) == []
    # a large degree is admitted without an exact count of q^d
    assert point_shortfalls(parse_module("R(a@64,[1]) + R(b@64,[1])"), 2) == []
    code, out, err = run(capsys, "count", "-m", module, "-d", "1,1", "--at", "2")
    assert (code, out) == (0, "4\nat q=2: 4\n")
    assert err == (
        "warning: the module uses 4 points of degree 1, F_2 has 3; 2 points of "
        "degree 2, F_2 has 1; the value does not count submodules over this field\n"
    )
    code, out, err = run(capsys, "verify", "-m", module, "-p", "2")
    assert (code, out) == (1, "")
    assert err == "error: F_2 has only 1 points of degree 2; descriptor needs 2\n"


def test_prime_powers_agree_with_trial_division():
    # smallest prime factor of every n < 10^5, by a sieve
    limit = 10**5
    spf = list(range(limit))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, limit, p):
                if spf[m] == m:
                    spf[m] = p
    for n in range(limit):
        want = n >= 2
        if want:
            m, p = n, spf[n]
            while m % p == 0:
                m //= p
            want = m == 1
        assert cli._is_prime_power(n) == want, n


def test_count_at_decides_large_field_sizes_fast(capsys):
    for q, code in [
        (1000000000000000003, 0),  # a prime with no small factor
        (1000000007**2, 0),
        (1000000007 * 1000000009, 3),
        # the bound is on the root: the Mersenne prime 2^61 - 1 is proven
        ((2**61 - 1) ** 2, 0),
        (2**89, 0),
        (3**40 * 5, 3),
    ]:
        started = time.perf_counter()
        got = run(capsys, "count", "-m", "P1", "-d", "1,0", "--at", str(q))
        assert time.perf_counter() - started < 1
        assert got[0] == code, q
        assert got[1] == f"q + 1\nat q={q}: {q + 1}\n"
        assert (got[2] == "") == (code == 0), q


def test_count_at_refuses_an_undecidable_field_size(capsys, monkeypatch):
    # the least strong pseudoprime to the 13 bases is composite, and the
    # Mersenne primes 2^89 - 1 and 2^4423 - 1 lie above it: none can be
    # decided, and each is refused before any counting, after one base
    monkeypatch.setattr(cli, "CountingEngine", None)
    for q in (cli._MR_PROVEN, 2**89 - 1, (2**89 - 1) ** 3, (2**4423 - 1) ** 3):
        started = time.perf_counter()
        code, out, err = run(capsys, "count", "-m", "P1", "-d", "1,0", "--at", str(q))
        assert time.perf_counter() - started < 1, q
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot decide whether {q} is a prime power: ")
        assert len(err.splitlines()) == 1


def test_zero_parts_are_refused_before_the_multiplicity(capsys):
    for module, message in [
        ("0*R(p,[0])", "partition parts must be positive integers: (0,) (at position 10)"),
        (
            "2*R(p,[0,1])",
            "partition parts must be positive integers: (1, 0) (at position 12)",
        ),
    ]:
        assert run(capsys, "count", "-m", module, "-d", "0,0") == (
            2, "", f"error: {message}\n"
        ), module


def test_count_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "count", "-m", "P1 + XX", "-d", "1,0")
    assert code == 2
    assert out == ""
    assert "position" in err
    code, out, err = run(capsys, "count", "-m", "P1", "-d", "1;0")
    assert code == 2
    assert out == ""


def test_number_fields_read_only_decimal_digits(capsys):
    # every partition and dimension field takes an optional sign and the
    # digits int() reads; any other text is refused at its first character
    # that does not fit, and a partition error names its option
    hall = ["hall", "--mu", "1", "--nu", "2"]
    for argv, message in [
        (hall + ["--lambda", "²,1"], "--lambda: expected partition part (at position 0)"),
        (hall + ["--lambda", "2,x"], "--lambda: expected partition part (at position 2)"),
        (hall + ["--lambda", "2,"], "--lambda: expected partition part (at position 2)"),
        (hall + ["--lambda", "2, +"], "--lambda: expected partition part (at position 4)"),
        (
            hall + ["--lambda", "2, 3"],
            "--lambda: partition parts must be positive and weakly decreasing (at position 3)",
        ),
        (
            hall + ["--lambda", "2,0"],
            "--lambda: partition parts must be positive and weakly decreasing (at position 2)",
        ),
        (
            ["hall", "--lambda", "2", "--mu", "x", "--nu", "1"],
            "--mu: expected partition part (at position 0)",
        ),
        (
            ["hall", "--lambda", "2", "--mu", "1", "--nu", "1 1"],
            "--nu: expected partition part (at position 2)",
        ),
        (["count", "-m", "P1", "-d", "3_0,1"], "expected dimension (at position 1)"),
        (["count", "-m", "P1", "-d", "1,²"], "expected dimension (at position 2)"),
        (["count", "-m", "P1", "-d", "1;0"], "expected dimension (at position 1)"),
        (["count", "-m", "P1", "-d", "1, -x"], "expected dimension (at position 4)"),
        (
            ["count", "-m", "P1", "-d", "1,0,2"],
            "dimension must be 'a,b', got '1,0,2' (at position 4)",
        ),
        (
            ["verify", "-m", "P1", "-p", "2", "-d", "1"],
            "dimension must be 'a,b', got '1' (at position 1)",
        ),
        (
            ["count", "-m", "R(p@0,[1])", "-d", "1,1"],
            "point degrees must be positive (at position 10)",
        ),
    ]:
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv
    assert run(capsys, "count", "-m", "P1", "-d=-1,0") == (0, "0\n", "")
    assert run(capsys, "count", "-m", "P1", "-d", " 1, +0 ") == (0, "q + 1\n", "")
    hall = ["hall", "--lambda", " 2 ,1", "--mu", "1", "--nu", "1,1"]
    assert run(capsys, *hall) == (0, "1\n", "")


def test_out_of_memory_and_closed_stdout_end_in_exit_1(capsys, monkeypatch):
    # str(MemoryError()) is empty, so it gets its own one-line message
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli.CountingEngine, "count", exhausted)
    assert run(capsys, "count", "-m", "P1", "-d", "1,0") == (1, "", "error: out of memory\n")
    monkeypatch.undo()
    # a reader that is gone: the write fails with EPIPE, main says nothing,
    # and the output still buffered goes to devnull, not to the dead pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as gone:
        monkeypatch.setattr(sys, "stdout", gone)
        assert main(["count", "-m", "P1", "-d", "1,0"]) == 1
        gone.write("x" * 100_000)
        gone.flush()
    assert capsys.readouterr().err == ""


def test_table_corners(capsys):
    code, out, _ = run(capsys, "table", "-m", "P1", "--format", "json")
    assert code == 0
    doc = check_json(out)
    assert doc["dim"] == [2, 1]
    cells = {(c["a"], c["b"]): c["polynomial"] for c in doc["cells"]}
    assert cells[(0, 0)] == "1"
    assert cells[(2, 1)] == "1"
    assert cells[(1, 0)] == "q + 1"
    assert cells[(1, 1)] == "0"
    code, out, _ = run(capsys, "table", "-m", "I0", "--format", "json")
    doc = check_json(out)
    assert [c["polynomial"] for c in doc["cells"]] == ["1", "1"]
    # diagonal ones for a degree-1 tube
    code, out, _ = run(capsys, "table", "-m", "R(p1,[1])", "--format", "json")
    doc = check_json(out)
    cells = {(c["a"], c["b"]): c["polynomial"] for c in doc["cells"]}
    assert cells[(0, 0)] == cells[(1, 1)] == cells[(1, 0)] == "1"
    assert cells[(0, 1)] == "0"


def test_table_csv_matches_json(capsys):
    code, json_out, _ = run(capsys, "table", "-m", "P1", "--format", "json")
    assert code == 0
    code, csv_out, _ = run(capsys, "table", "-m", "P1", "--format", "csv")
    assert code == 0
    doc = json.loads(json_out)
    json_cells = {
        (c["a"], c["b"]): c["polynomial"] for c in doc["cells"]
    }
    csv_cells = {}
    for row in csv.DictReader(io.StringIO(csv_out)):
        csv_cells[(int(row["a"]), int(row["b"]))] = row["polynomial"]
    assert csv_cells == json_cells


def test_verify_ok(capsys):
    code, out, err = run(capsys, "verify", "-m", "P2", "-p", "2")
    assert code == 0
    assert err == ""
    code, out, _ = run(
        capsys, "verify", "-m", "R(p1@2,[1])", "-p", "2", "--format", "json"
    )
    assert code == 0
    doc = check_json(out)
    assert all(rec["match"] for rec in doc["records"])


def test_verify_single_cell(capsys):
    code, out, _ = run(
        capsys, "verify", "-m", "P1", "-p", "3", "-d", "1,0", "--format", "json"
    )
    assert code == 0
    doc = check_json(out)
    assert len(doc["records"]) == 1
    assert doc["records"][0]["engine"] == 4


def test_verify_single_cell_enumerates_only_its_cell(capsys):
    # the whole table of P8 over F_2 walks 417,199 subspaces; one cell
    # with b = 1 walks the 255 lines and the zero subspace
    started = time.perf_counter()
    code, out, err = run(
        capsys, "verify", "-m", "P8", "-p", "2", "-d", "1,1", "--format", "json"
    )
    assert time.perf_counter() - started < 1
    assert code == 0
    assert err == ""
    (rec,) = check_json(out)["records"]
    assert (rec["a"], rec["b"]) == (1, 1)
    assert rec["match"]
    # outside the box both sides report 0
    code, out, _ = run(
        capsys, "verify", "-m", "P2", "-p", "3", "-d", "4,1", "--format", "json"
    )
    assert code == 0
    (rec,) = check_json(out)["records"]
    assert rec["oracle"] == rec["engine"] == 0
    assert rec["match"]


def test_verify_capacity_error_exit_1(capsys):
    code, out, err = run(
        capsys,
        "verify", "-m", "R(p1,[1]) + R(p2,[1]) + R(p3,[1]) + R(p4,[1])",
        "-p", "2",
    )
    assert code == 1
    assert out == ""
    assert "3 points of degree 1" in err


def test_hall_command(capsys):
    code, out, _ = run(capsys, "hall", "--lambda", "1,1", "--mu", "1", "--nu", "1")
    assert code == 0
    assert out.strip() == "x + 1"
    code, out, _ = run(capsys, "hall", "--lambda", "2", "--mu", "1", "--nu", "1")
    assert out.strip() == "1"
    code, out, _ = run(capsys, "hall", "--lambda", "2", "--mu", "2", "--nu", "1")
    assert out.strip() == "0"
    code, out, _ = run(
        capsys, "hall", "--lambda", "2,1", "--mu", "1", "--nu", "1,1",
        "--format", "json",
    )
    doc = check_json(out)
    assert doc["records"][0]["polynomial"] == "1"
    assert out == (
        '{"kind": "hall", "records": [{"lambda": [2, 1], "mu": [1], '
        '"nu": [1, 1], "polynomial": "1"}]}\n'
    )
    code, out, _ = run(
        capsys, "hall", "--lambda", "2,1", "--mu", "1", "--nu", "1,1",
        "--format", "csv",
    )
    assert code == 0
    assert out == 'lambda,mu,nu,polynomial\r\n"2,1",1,"1,1",1\r\n'


def test_homext_command(capsys):
    code, out, _ = run(capsys, "homext", "-x", "P1", "-y", "P3")
    assert code == 0
    assert out.splitlines() == ["hom = 3", "ext = 0"]
    code, out, _ = run(capsys, "homext", "-x", "I2", "-y", "P1", "--format", "json")
    doc = check_json(out)
    assert doc["records"][0] == {"x": "I2", "y": "P1", "hom": 0, "ext": 5}
    assert out == (
        '{"kind": "homext", "records": [{"ext": 5, "hom": 0, "x": "I2", "y": "P1"}]}\n'
    )
    code, out, _ = run(capsys, "homext", "-x", "I2", "-y", "P1", "--format", "csv")
    assert code == 0
    assert out == "x,y,hom,ext\r\nI2,P1,0,5\r\n"


def test_homext_large_multiplicities(capsys):
    # 2000 copies of P0 and of R_p(1): hom and ext sum over distinct summands
    m = "2000*P0 + 2000*R(p,[1])"
    started = time.perf_counter()
    code, out, _ = run(capsys, "homext", "-x", m, "-y", m)
    assert time.perf_counter() - started < 1
    assert code == 0
    assert out.splitlines() == ["hom = 12000000", "ext = 8000000"]


def test_count_csv_matches_json(capsys):
    args = ["count", "-m", "P3", "-d", "2,1", "--at", "2", "--euler"]
    code, json_out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    code, csv_out, _ = run(capsys, *args, "--format", "csv")
    assert code == 0
    rec = json.loads(json_out)["records"][0]
    row = next(csv.DictReader(io.StringIO(csv_out)))
    assert row["polynomial"] == rec["polynomial"]
    assert int(row["value"]) == rec["value"]
    assert int(row["euler"]) == rec["euler"]
    assert (int(row["a"]), int(row["b"])) == (rec["a"], rec["b"])


def test_no_cache_flag(capsys):
    code, out1, _ = run(capsys, "count", "-m", "P2 + I1", "-d", "2,2")
    code, out2, _ = run(capsys, "count", "-m", "P2 + I1", "-d", "2,2", "--no-cache")
    assert out1 == out2


def test_count_deep_rigid_sum(capsys):
    started = time.perf_counter()
    code, out, err = run(capsys, "count", "-m", "P300 + P299", "-d", "300,299")
    assert time.perf_counter() - started < 2
    assert code == 0
    assert out.strip() == "q^2 + q + 1"
    assert err == ""


def test_count_too_deep_exit_1(capsys):
    code, out, err = run(capsys, "count", "-m", "P700 + P699", "-d", "700,699")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_count_deep_preprojective_plus_preinjective(capsys):
    # the split rule counts P700 + I2 from the two closed forms, so a count
    # whose P700 recursion overflows the interpreter's stack exits 0
    code, out, err = run(capsys, "count", "-m", "P700 + I2", "-d", "500,499", "--euler")
    assert (code, err) == (0, "")
    euler = sum(
        euler_char_formula("preinjective", 2, f, g)
        * euler_char_formula("preprojective", 700, 500 - f, 499 - g)
        for f in range(3)
        for g in range(4)
    )
    assert euler == 10393490
    assert out.splitlines()[-1] == f"euler characteristic: {euler}"


def test_verify_over_work_bound_exit_1(capsys):
    # F_5^8 has about 2.8e11 subspaces: refused before any enumeration
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "-m", "P8", "-p", "5")
    assert time.perf_counter() - started < 1
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_verify_refuses_a_large_image_table_at_once(capsys):
    # the 5^n image table alone is over the bound, so the walk, a sum of
    # gauss(d, n) over every d, is never sized
    for n in (200, 600):
        started = time.perf_counter()
        code, out, err = run(capsys, "verify", "-m", f"P{n}", "-p", "5")
        assert time.perf_counter() - started < 1
        assert (code, out) == (1, "")
        assert err == (
            f"error: the oracle would walk at least 5^{n} vectors and subspaces "
            f"of F_5^{n}; its bound is 1000000\n"
        )


def test_verify_work_bound_counts_only_the_requested_cell(capsys):
    # the cell walks the 5^8 image table and the 97,656 lines of F_5^8
    code, out, err = run(
        capsys, "verify", "-m", "P8", "-p", "5", "-d", "1,1", "--format", "json"
    )
    assert code == 0
    assert err == ""
    (rec,) = check_json(out)["records"]
    assert rec["engine"] == rec["oracle"] == 0
    assert rec["match"]
    # the 5^9-entry image table alone is over the bound
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "-m", "P9", "-p", "5", "-d", "1,1")
    assert time.perf_counter() - started < 1
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_verify_refuses_before_building_the_model(capsys, monkeypatch):
    # a point of degree 8 over F_5 has a pool of 5^8 polynomials to sieve;
    # the bound needs only the dimension vector (8, 8)
    built = []
    monkeypatch.setattr(cli, "build_rep", lambda *args: built.append(args))
    code, out, err = run(capsys, "verify", "-m", "R(x@8,[1])", "-p", "5")
    assert (code, out) == (1, "")
    assert err == (
        "error: the oracle would walk 281269055969 vectors and subspaces of "
        "F_5^8; its bound is 1000000\n"
    )
    code, out, err = run(capsys, "verify", "-m", "R(x@8,[1])", "-p", "5", "-d", "3,3")
    assert (code, out) == (1, "")
    assert err.startswith("error: the oracle would walk ")
    assert not built


def test_failed_polynomial_check_exit_1(capsys, monkeypatch):
    # a counter that yields a negative coefficient trips the engine's check
    monkeypatch.setattr(
        "kronq.engine.count_preprojective", lambda n, a, b: parse_poly("-q")
    )
    code, out, err = run(capsys, "count", "-m", "P3", "-d", "2,1")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "count(P3, 2, 1)" in err


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []

    def counted():
        built.append(None)
        return build_parser()

    def outcome(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    calls = [
        ("count", "-m", "P3", "-d", "2,1", "--at", "4"),
        ("count", "-m", "P3"),
        ("table", "-m", "P1 + I0", "--format", "csv"),
        ("count", "-m", "P3", "-d", "x"),
        ("homext", "-x", "P1", "-y", "I0", "--format", "json"),
    ]
    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_PARSER", None)
    reused = [outcome(*argv) for argv in calls]
    assert len(built) == 1
    # a fresh parser per call answers byte for byte the same
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(outcome(*argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 0, 2, 0]


def _fuzz_module(rng, most=2, part=2):
    """A descriptor of at most ``most`` summand terms with parts of at most
    ``part``, or a malformed one."""
    summands = []
    for _ in range(rng.randint(1, most)):
        kind = rng.choice("PIRR")
        mult = rng.choice(["", "", "2*"]) if most > 1 else ""
        if kind == "R":
            parts = ",".join(str(rng.randint(1, part)) for _ in range(rng.randint(1, part)))
            point = rng.choice(["p", "q", "r@2", "s@3"])
            summands.append(f"{mult}R({point},[{parts}])")
        else:
            summands.append(f"{mult}{kind}{rng.randint(0, 2)}")
    text = " + ".join(summands)
    if rng.random() < 0.25:
        # no digit goes in, so no number grows past the sizes above
        cut = rng.randrange(len(text) + 1)
        text = text[:cut] + rng.choice(["x", "-", ")", " + ", "@", "²", "*"]) + text[cut:]
    return text


def _fuzz_ints(rng, count):
    """A comma list of small ints (dimensions or partition parts), or a
    malformed one."""
    text = ",".join(str(rng.randint(-1, 4)) for _ in range(count))
    return text if rng.random() < 0.75 else rng.choice(["", "1,", "a,b", " 2", "1;0", "-", "²"])


def test_random_small_argv_keep_the_exit_code_contract(capsys):
    # every argv here is one that argparse accepts (a field starting with
    # '-' is attached to its option), so main() itself answers each one:
    # with a documented exit code, at most one stderr line and no escaping
    # exception
    rng = random.Random(32)
    for _ in range(300):
        fmt = f"--format={rng.choice(['text', 'json', 'csv'])}"
        command = rng.choice(["count", "table", "verify", "hall", "homext"])
        if command == "hall":
            argv = [command, fmt] + [
                f"--{name}={_fuzz_ints(rng, rng.randint(1, 3))}" for name in ("lambda", "mu", "nu")
            ]
        elif command == "homext":
            argv = [command, fmt, f"-x{_fuzz_module(rng)}", f"-y{_fuzz_module(rng)}"]
        elif command == "verify":
            # the oracle's walk grows as p^dim, so its modules stay tiny; one
            # in ten is P12, where the work bound refuses the whole table
            module = _fuzz_module(rng, 1, 1) if rng.random() < 0.9 else "P12"
            argv = [command, fmt, f"--module={module}", f"--prime={rng.choice([2, 3, 5])}"]
            if rng.random() < 0.5:
                argv.append(f"--dim={_fuzz_ints(rng, 2)}")
        else:
            argv = [command, fmt, f"--module={_fuzz_module(rng)}"]
            if rng.random() < 0.2:
                argv.append("--no-cache")
            if command == "count":
                argv.append(f"--dim={_fuzz_ints(rng, 2)}")
                if rng.random() < 0.3:
                    argv.append(f"--at={rng.choice([-1, 0, 1, 2, 4, 6, 9, 10**6, 2**89 - 1])}")
                if rng.random() < 0.2:
                    argv.append("--euler")
        code = main(argv)
        _, err = capsys.readouterr()
        assert code in (0, 1, 2, 3, 4), argv
        assert len(err.splitlines()) <= 1, (argv, err)
        assert "Traceback" not in err, argv
