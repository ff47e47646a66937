"""Spans around the calls into each kronq layer, installed from outside.

``install()`` replaces the public entry points of every layer, as bound
in each importing module, with wrappers that count calls and record a
span (name, start, end, parent) whenever a call crosses from one layer
into another.  A call that stays inside its caller's layer (the engine's
own recursion, ``gauss`` reflecting into itself) is only counted: a span
there would not change any layer's self time.  Self time is a span's
duration minus the durations of its child spans.

The per-layer metric names are ``<layer>.<metric>`` with the layer named
after its kronq module.
"""

from __future__ import annotations

import time
from collections import Counter

LAYERS = ("cli", "model", "engine", "closed_form", "hall", "qbinom", "laurent", "oracle")

# Spans kept for the trace file; past this many, spans still count
# towards the metrics but are no longer stored.
SPAN_CAP = 100_000


def _subspaces(n: int, p: int) -> int:
    """Number of subspaces of F_p^n, from the integer q-binomial product."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.op_spans: list[tuple] = []  # (name id, start, end, parent) of the running op
        self.kept: list[tuple] = []  # (op, name, start, end, parent), up to SPAN_CAP
        self.dropped = 0
        self._stack: list[int] = []  # open span indices
        self._layers: list[str] = []  # layer of each open span
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.maxima: Counter = Counter()
        self._depth = 0
        self._gauss = None

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def wrap(self, fn, name: str, layer: str, counter: str | None = None, after=None):
        nid = self._name_id(name, layer)
        stack, layers, spans, counts, clock = self._stack, self._layers, self.op_spans, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            if counter:
                counts[counter] += 1
            if layers and layers[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                layers.append(layer)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    layers.pop()
                    spans[idx] = (nid, start, end, stack[-1] if stack else -1)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- wrappers with extra bookkeeping -----------------------------------------

    def _engine_count(self, fn):
        inner = self.wrap(fn, "CountingEngine.count", "engine", "engine.count_calls")

        def count(*args, **kwargs):
            self._depth += 1
            if self._depth > self.maxima["engine.max_depth"]:
                self.maxima["engine.max_depth"] = self._depth
            try:
                return inner(*args, **kwargs)
            finally:
                self._depth -= 1

        return count

    def _after_mul(self, args, result):
        a, b = args
        if hasattr(b, "_c"):
            self.counts["laurent.mul_term_pairs"] += len(a._c) * len(b._c)
        c = getattr(result, "_c", None)
        if c:
            if len(c) > self.maxima["laurent.max_terms"]:
                self.maxima["laurent.max_terms"] = len(c)
            bits = max(abs(v) for v in c.values()).bit_length()
            if bits > self.maxima["laurent.max_coeff_bits"]:
                self.maxima["laurent.max_coeff_bits"] = bits

    def _after_table(self, args, result):
        rep = args[0]
        self.counts["oracle.subspaces"] += _subspaces(rep.dim2, rep.p)
        self.counts["oracle.cells"] += len(result)

    def install(self):
        """Wrap every layer's entry points in the imported kronq modules."""
        import kronq.cli as cli
        import kronq.closed_form as closed_form
        import kronq.engine as engine
        import kronq.hall as hall
        import kronq.model as model
        import kronq.oracle as oracle
        import kronq.qbinom as qbinom
        from kronq.laurent import LaurentPoly

        w = self.wrap
        cli.main = w(cli.main, "cli.main", "cli")
        cli.parse_module = w(cli.parse_module, "parse_module", "model")
        cli.hom_dim = w(cli.hom_dim, "hom_dim", "model")
        cli.ext_dim = w(cli.ext_dim, "ext_dim", "model")
        desc = model.KroneckerDescriptor
        for meth, counter in (
            ("dim_vector", "model.dim_vector_calls"),
            ("counting_key", "model.counting_key_calls"),
            ("reflect_plus", "model.reflect_calls"),
            ("reflect_minus", "model.reflect_calls"),
            ("split_socle", None),
            ("single_indecomposable", None),
            ("__add__", None),
        ):
            setattr(desc, meth, w(getattr(desc, meth), f"KroneckerDescriptor.{meth}", "model", counter))

        ce = engine.CountingEngine
        ce.count = self._engine_count(ce.count)
        ce._dispatch = w(ce._dispatch, "CountingEngine._dispatch", "engine", "engine.dispatch_calls")
        for meth in ("recursion_a", "recursion_b"):
            setattr(ce, meth, w(getattr(ce, meth), f"CountingEngine.{meth}", "engine", "engine.recursion_calls"))

        for fname in ("count_preprojective", "count_preinjective", "count_regular_deg1"):
            setattr(engine, fname, w(getattr(engine, fname), fname, "closed_form", "closed_form.calls"))

        engine.regular_diagonal_count = w(
            engine.regular_diagonal_count, "regular_diagonal_count", "hall", "hall.diagonal_calls")
        traced_hall = w(hall.hall_polynomial, "hall_polynomial", "hall", "hall.polynomial_calls")
        hall.hall_polynomial = cli.hall_polynomial = traced_hall

        self._gauss = qbinom.gauss
        traced_gauss = w(qbinom.gauss, "gauss", "qbinom")
        for mod in (qbinom, engine, closed_form, hall):
            mod.gauss = traced_gauss
        oracle.gauss_int = w(qbinom.gauss_int, "gauss_int", "qbinom")

        for meth, counter, after in (
            ("__mul__", "laurent.mul_calls", self._after_mul),
            ("__add__", None, None),
            ("shift", None, None),
            ("divexact", "laurent.divexact_calls", None),
            ("to_string", None, None),
        ):
            setattr(LaurentPoly, meth, w(getattr(LaurentPoly, meth), f"LaurentPoly.{meth}", "laurent", counter, after=after))
        LaurentPoly.__rmul__ = LaurentPoly.__mul__
        LaurentPoly.__radd__ = LaurentPoly.__add__

        cli.build_rep = w(cli.build_rep, "build_rep", "oracle")
        cli.submodule_table = w(cli.submodule_table, "submodule_table", "oracle", after=self._after_table)
        return cli.main

    # -- per-op accounting -------------------------------------------------------

    def gauss_cache(self) -> tuple[int, int]:
        info = self._gauss.cache_info()
        return info.hits, info.misses

    def finish_op(self, op_index: int):
        """Fold the running op's spans into per-layer times, keep them up to
        the cap, and start a fresh span list for the next op."""
        spans = self.op_spans
        child = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        outer = Counter()
        for i, (nid, start, end, parent) in enumerate(spans):
            layer = self.layer_of[nid]
            self.times[f"{layer}.self_s"] += end - start - child[i]
            # spans never nest inside a span of their own layer, so the
            # inclusive time of a layer is the sum over its spans
            self.times[f"{layer}.incl_s"] += end - start
            outer[self.names[nid]] += end - start
        self.times["model.parse_s"] += outer["parse_module"]
        self.times["laurent.render_s"] += outer["LaurentPoly.to_string"]
        self.times["oracle.build_rep_s"] += outer["build_rep"]
        room = SPAN_CAP - len(self.kept)
        for nid, start, end, parent in spans[:max(room, 0)]:
            self.kept.append((op_index, self.names[nid], start, end, parent))
        self.dropped += max(len(spans) - max(room, 0), 0)
        spans.clear()

    def totals(self) -> dict:
        """Per-run sums: times, counts, maxima."""
        out = dict(self.times)
        out.update(self.counts)
        out.update(self.maxima)
        return out
