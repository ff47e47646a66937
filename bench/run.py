"""kronq benchmark: seeded closed-loop workloads, checked outputs, metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one op at a time and waits for it (a closed loop), until
the ops' summed time reaches S seconds.  Op times are scaled to a fixed
host speed, from a reference loop timed next to each op (see README.md,
Steadiness), so a run does the same work on a slow or a fast host; the
plain wall times are in the report lines.  Every op's output is checked
outside the timed region (see checks.py); an op that exits nonzero, times
out or fails its check counts as failed and the run goes on.  With
``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md).
``--workload all`` runs every workload in turn.  ``--record-digests``
records the stdout SHA-256 of the first DIGEST_OPS ops of the seed's stream
in bench/digests/; runs with that seed then compare each op against it.

Run from a checkout with kronq's sources in ``src/``; the benchmark
writes only under ``.bench_out/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracing
import workloads
from worker import OP_TIMEOUT_S, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# A run stops sending ops after this multiple of --seconds of wall time,
# even if the ops' summed time is still short (checks take wall time too).
WALL_FACTOR = 3
# Op time between two set-up samples.  The host's speed drifts over seconds,
# so samples spread over the run give a steadier median than a burst.
SETUP_EVERY_S = 2
# Seconds the reference loop (worker.reference_s) takes on a host at
# nominal speed.  A time t measured next to a loop time ref is reported
# as t * REF_NOMINAL_S / ref: the time the same work would take there.
REF_NOMINAL_S = 0.004
# Ops per workload whose stdout digests --record-digests records.
DIGEST_OPS = 60

SETUP_CODE = (
    "import time; t = time.perf_counter(); import kronq.cli; "
    "kronq.cli.build_parser(); print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# The same times unscaled, as the wall clock read them; report lines only.
WALL_UNITS = {
    "wall.ops_per_s": "1/s",
    "wall.op_s_p50": "s",
    "wall.op_s_p90": "s",
    "wall.setup_s": "s",
}

# Per-layer metrics on the last line of a traced run.  Times that are zero
# by construction on some workload (oracle.self_s, oracle.build_rep_s,
# laurent.render_s, closed_form.self_s) are printed in the report above
# it and kept in the trace file, but not on the last line.
PER_LAYER_UNITS = {
    "engine.self_s": "s",
    "engine.count_calls": "count",
    "engine.recursion_calls": "count",
    "engine.max_depth": "count",
    "engine.reuse_ratio": "ratio",
    "model.self_s": "s",
    "model.dim_vector_calls": "count",
    "model.counting_key_calls": "count",
    "model.reflect_calls": "count",
    "model.parse_s": "s",
    "hall.self_s": "s",
    "hall.incl_s": "s",
    "hall.diagonal_calls": "count",
    "hall.polynomial_calls": "count",
    "laurent.self_s": "s",
    "laurent.mul_calls": "count",
    "laurent.mul_term_pairs": "count",
    "laurent.max_terms": "count",
    "laurent.max_coeff_bits": "bits",
    "laurent.divexact_calls": "count",
    "qbinom.self_s": "s",
    "qbinom.incl_s": "s",
    "qbinom.gauss_calls": "count",
    "qbinom.gauss_hit_ratio": "ratio",
    "closed_form.calls": "count",
    "oracle.subspaces": "count",
    "oracle.cells": "count",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}
REPORT_ONLY_UNITS = {
    "closed_form.self_s": "s",
    "oracle.self_s": "s",
    "oracle.build_rep_s": "s",
    "laurent.render_s": "s",
    "cli.incl_s": "s",
    "trace.ops": "count",
    "trace.spans_dropped": "count",
}

# The layer each workload is chosen to load, and the time that shows it,
# as a share of the time spent inside kronq.cli.main.
HEAVY = {
    "deep_count": ("engine + model self", ("engine.self_s", "model.self_s")),
    "tube_table": ("hall inclusive", ("hall.incl_s",)),
    "verify_small": ("oracle self", ("oracle.self_s",)),
    "cli_cold": ("qbinom inclusive", ("qbinom.incl_s",)),
}


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (git
    would search the parent directories when the checkout has none)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def setup_time() -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import kronq.cli and build its
    parser, and the reference loop's time around it."""
    before = reference_s()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True,
    )
    return float(done.stdout), (before + reference_s()) / 2


# -- runners: one op at a time, return (rc, seconds, ref_s, stdout) -----------


class InProcess:
    """One long-lived worker interpreter that runs every op of the run."""

    def __init__(self, spans_file: Path | None = None):
        self.cmd = [sys.executable, str(HERE / "worker.py"), "serve"]
        if spans_file is not None:
            self.cmd.append(str(spans_file))
        self._start()

    def _start(self):
        self.proc = subprocess.Popen(
            self.cmd, env=_env(), cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, op):
        try:
            self.proc.stdin.write(json.dumps(op["argv"]) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        if not line:
            # the op took the interpreter down; later ops get a fresh one
            code = self.proc.wait()
            self._start()
            return f"worker died with exit code {code}", 0.0, reference_s(), ""
        result = json.loads(line)
        return result["rc"], result["seconds"], result["ref_s"], result["out"]

    def close(self) -> dict:
        self.proc.stdin.close()
        report = json.loads(self.proc.stdout.readline())
        self.proc.wait()
        return report


class Cold:
    """A fresh ``kronq`` process per op, timed from spawn to exit.  The
    reference loop runs here, right before and after the op."""

    def __init__(self, spans_file: Path | None = None):
        self.spans_file = spans_file
        self.layers: dict = {}
        self.spans: list = []
        self.n = 0
        self.maxrss_kb = 0

    def run(self, op):
        if self.spans_file is None:
            cmd = [sys.executable, "-m", "kronq.cli", *op["argv"]]
        else:
            trace = OUT / f"cold-{os.getpid()}.json"
            cmd = [sys.executable, str(HERE / "worker.py"), "once", str(trace), *op["argv"]]
        before = reference_s()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        out = proc.stdout.read().decode()
        proc.stdout.close()
        # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would mix
        # in every process reaped before it (workers, set-up probes)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        timer.cancel()
        timer.join()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        if seconds >= OP_TIMEOUT_S:
            rc, out = f"timeout after {OP_TIMEOUT_S} s", ""
        self.maxrss_kb = max(self.maxrss_kb, usage.ru_maxrss)
        ref_s = (before + reference_s()) / 2
        if self.spans_file is not None and trace.is_file():
            self._merge(json.loads(trace.read_text()))
            trace.unlink()
        self.n += 1
        return rc, seconds, ref_s, out

    def _merge(self, child: dict):
        for key, value in child["report"]["layers"].items():
            if key.endswith(("max_depth", "max_terms", "max_coeff_bits")):
                self.layers[key] = max(self.layers.get(key, 0), value)
            else:
                self.layers[key] = self.layers.get(key, 0) + value
        room = tracing.SPAN_CAP - len(self.spans)
        self.spans += [[self.n] + s[1:] for s in child["spans"][:max(room, 0)]]

    def close(self) -> dict:
        if self.spans_file is not None:
            self.spans_file.write_text(json.dumps({"spans": self.spans}))
        return {"maxrss_kb": self.maxrss_kb, "layers": self.layers}


def make_runner(workload: str, spans_file: Path | None = None):
    return (Cold if workload == "cli_cold" else InProcess)(spans_file)


# -- one pass over the op stream ------------------------------------------------


def execute(ops, runner, budget_s: float, digests=None, after_op=None) -> list[dict]:
    """Run ops until their summed scaled time reaches budget_s; check
    each, and call after_op(records) between ops."""
    records = []
    spent = 0.0
    wall_end = time.monotonic() + WALL_FACTOR * budget_s
    for op in ops:
        if spent >= budget_s or time.monotonic() > wall_end:
            break
        rc, seconds, ref_s, out = runner.run(op)
        scaled = seconds * REF_NOMINAL_S / ref_s
        spent += scaled
        records.append({
            "index": op["index"],
            "argv": op["argv"],
            "seconds": seconds,
            "ref_s": ref_s,
            "scaled_s": scaled,
            "stdout_bytes": len(out.encode()),
            "sha256": checks.digest(out),
            "error": checks.check(op, rc, out, digests),
        })
        if after_op is not None:
            after_op(records)
    return records


def load_digests(workload: str, seed: int):
    path = HERE / "digests" / f"{workload}.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    return doc["sha256"] if doc["seed"] == seed else None


def end_to_end(records, setup, report) -> dict:
    """Times scaled to the nominal host speed, then the same unscaled."""
    metrics = {"peak_rss_mb": report["maxrss_kb"] / 1024}
    completed = sum(r["error"] is None for r in records)
    for prefix, key in (("", "scaled_s"), ("wall.", "seconds")):
        times = [r[key] for r in records]
        metrics[prefix + "ops_per_s"] = completed / sum(times)
        metrics[prefix + "op_s_p50"] = statistics.median(times)
        metrics[prefix + "op_s_p90"] = statistics.quantiles(times, n=10)[-1]
        metrics[prefix + "setup_s"] = statistics.median(s[key] for s in setup)
    return metrics


def per_layer(untraced, traced, report) -> dict:
    k = len(traced)
    layers = dict(report["layers"])
    calls = layers.get("engine.count_calls", 0)
    gauss = layers.get("qbinom.gauss_calls", 0)
    layers["engine.reuse_ratio"] = (calls - layers.get("engine.dispatch_calls", 0)) / calls if calls else 0.0
    layers["qbinom.gauss_hit_ratio"] = layers.get("qbinom.gauss_hits", 0) / gauss if gauss else 0.0
    layers["cli.stdout_bytes"] = sum(r["stdout_bytes"] for r in traced)
    layers["trace.ops"] = k
    layers["trace.overhead_s"] = sum(r["scaled_s"] for r in traced) - sum(r["scaled_s"] for r in untraced[:k])
    return layers


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }
    digests = load_digests(workload, seed)
    if not trace:
        # set-up is timed every SETUP_EVERY_S of op time, spread over the
        # run, after one untimed start that leaves the bytecode cache written
        setup_time()
        setup = []

        def sample_setup(done):
            if sum(r["scaled_s"] for r in done) >= len(setup) * SETUP_EVERY_S:
                seconds, ref_s = setup_time()
                setup.append({"seconds": seconds, "scaled_s": seconds * REF_NOMINAL_S / ref_s})

        sample_setup([])

        runner = make_runner(workload)
        records = execute(workloads.stream(workload, seed), runner, seconds, digests, sample_setup)
        report = runner.close()
        metrics = end_to_end(records, setup, report)
        units = END_TO_END_UNITS
        shown = dict(units, **WALL_UNITS)
    else:
        # an untraced pass, then the same ops traced in a fresh process:
        # the difference of their summed op times is the tracing overhead
        runner = make_runner(workload)
        untraced = execute(workloads.stream(workload, seed), runner, seconds / 3, digests)
        runner.close()
        ops = [op for op, _ in zip(workloads.stream(workload, seed), untraced)]
        spans_file = OUT / f"{workload}-seed{seed}.spans.json"
        runner = make_runner(workload, spans_file)
        traced = execute(iter(ops), runner, 2 * seconds / 3, digests)
        report = runner.close()
        records = untraced + traced
        metrics = per_layer(untraced, traced, report)
        units = PER_LAYER_UNITS
        shown = dict(units, **REPORT_ONLY_UNITS)
    failed = [r for r in records if r["error"] is not None]
    env["ops"] = len(records)
    result = {
        "env": env,
        "failed_ops": len(failed),
        "failed_ops_frac": len(failed) / len(records),
        "metrics": metrics,
        "failures": [{k: r[k] for k in ("index", "argv", "error")} for r in failed[:20]],
        "records": records,
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    print_report(workload, result, shown, trace)
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in units.items()},
    }


def print_report(workload: str, result: dict, shown: dict, trace: bool):
    env, metrics = result["env"], result["metrics"]
    n = env["ops"]
    print(f"== {workload}  seed {env['seed']}  ops {n}  "
          f"python {env['python']}  nproc {env['nproc']}  git {env['git_sha'][:12]}")
    print(f"  {'failed_ops_frac':<26} {result['failed_ops_frac']:.6g}   ({result['failed_ops']} of {n} ops)")
    for name, unit in shown.items():
        note = f"   (n={n})" if name.endswith(("op_s_p50", "op_s_p90")) else ""
        print(f"  {name:<26} {metrics.get(name, 0):.6g} {unit}{note}")
    for fail in result["failures"]:
        print(f"  FAILED op {fail['index']}: {fail['error']}  [{' '.join(fail['argv'])}]")
    if trace:
        label, keys = HEAVY[workload]
        inside = metrics.get("cli.incl_s", 0)
        share = sum(metrics.get(k, 0) for k in keys) / inside if inside else 0.0
        top = sorted(((metrics.get(f"{l}.self_s", 0), l) for l in tracing.LAYERS), reverse=True)[:3]
        print(f"  predicted heavy layer: {label} = {share:.1%} of {inside:.4g} s inside "
              f"kronq.cli.main over {metrics['trace.ops']} ops; largest self times: "
              + ", ".join(f"{l} {t / inside:.0%}" for t, l in top if inside))


def record_digests(workload: str, seed: int):
    runner = make_runner(workload)
    ops = [op for op, _ in zip(workloads.stream(workload, seed), range(DIGEST_OPS))]
    records = execute(iter(ops), runner, float("inf"))
    runner.close()
    bad = [r for r in records if r["error"] is not None]
    if bad:
        sys.exit(f"not recording: op {bad[0]['index']} failed: {bad[0]['error']}")
    path = HERE / "digests" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": seed, "sha256": [r["sha256"] for r in records]}, indent=0) + "\n")
    print(f"recorded {len(records)} digests in {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"record the stdout digests of the seed's first {DIGEST_OPS} ops")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kronq" / "cli.py").is_file():
        print(f"error: no kronq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.record_digests:
        for name in names:
            record_digests(name, args.seed)
        return 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
