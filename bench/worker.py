"""Runs kronq ops for the benchmark in a fresh interpreter.

    python3 bench/worker.py serve [SPANS_FILE]
        Read one JSON op argv per line on stdin, run ``kronq.cli.main`` on
        it in this process, and answer one JSON line per op.  With
        SPANS_FILE, install the span wrappers first; the spans go to that
        file when stdin closes.  The last line holds the peak RSS and the
        per-layer totals.

    python3 bench/worker.py once TRACE_FILE ARG...
        Traced stand-in for the ``kronq`` command: install the wrappers,
        run ``kronq.cli.main(ARG...)`` with the real stdout, write the
        per-layer totals and spans to TRACE_FILE, exit with main's code.

``kronq`` must be importable (the benchmark puts ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time

from tracing import Tracer

# An op that runs longer than this counts as failed.
OP_TIMEOUT_S = 60
# Rounds of the reference loop, about 4 ms of integer work.  The host's
# speed moves by up to 1.4x within seconds and drifts over minutes; the
# loop is timed right before and right after each op, so that op times can
# be scaled to a fixed host speed (see README.md, Steadiness).
REF_LOOPS = 50_000


def reference_s() -> float:
    """Seconds this interpreter takes for the fixed reference loop."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class OpTimeout(BaseException):
    """Raised by the alarm; not an Exception, so kronq cannot catch it."""


def _alarm(signum, frame):
    raise OpTimeout()


def _run(main, argv):
    out = io.StringIO()
    before = reference_s()
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except OpTimeout:
        rc = f"timeout after {OP_TIMEOUT_S} s"
    except Exception as exc:  # any crash of the op is a failed op, not a failed run
        rc = f"{type(exc).__name__}: {exc}"[:200]
    finally:
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    ref_s = (before + reference_s()) / 2
    return {"rc": rc, "seconds": seconds, "ref_s": ref_s, "out": out.getvalue()}


def _report(tracer: Tracer | None, gauss_start=(0, 0)) -> dict:
    layers = {}
    if tracer is not None:
        hits, misses = tracer.gauss_cache()
        tracer.counts["qbinom.gauss_hits"] += hits - gauss_start[0]
        tracer.counts["qbinom.gauss_calls"] += hits + misses - sum(gauss_start)
        layers = tracer.totals()
        layers["trace.spans_dropped"] = tracer.dropped
    return {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "layers": layers}


def _write_spans(path: str, tracer: Tracer, report: dict):
    with open(path, "w") as fh:
        json.dump({"report": report, "spans": tracer.kept}, fh)


def serve(spans_file: str | None):
    import kronq.cli

    tracer = Tracer() if spans_file else None
    main = tracer.install() if tracer else kronq.cli.main
    gauss_start = tracer.gauss_cache() if tracer else (0, 0)
    signal.signal(signal.SIGALRM, _alarm)
    for n, line in enumerate(sys.stdin):
        result = _run(main, json.loads(line))
        if tracer is not None:
            tracer.finish_op(n)
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()
    report = _report(tracer, gauss_start)
    if tracer is not None:
        _write_spans(spans_file, tracer, report)
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()


def once(trace_file: str, argv: list[str]) -> int:
    tracer = Tracer()
    main = tracer.install()
    try:
        return main(argv)
    finally:
        tracer.finish_op(0)
        _write_spans(trace_file, tracer, _report(tracer))


if __name__ == "__main__":
    if sys.argv[1] == "serve":
        serve(sys.argv[2] if len(sys.argv) > 2 else None)
    else:
        sys.exit(once(sys.argv[2], sys.argv[3:]))
