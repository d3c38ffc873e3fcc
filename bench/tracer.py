"""Spans and counters around the calls into each quonlib module.

The tracer wraps library functions from outside the library. quonlib
modules import each other by name, so a function is replaced under every
name where it can be looked up: its own module's global, the names other
quonlib modules imported it under, and the entries of lists such as
verify.ALL_CRITERIA. Everything is restored when the traced pass ends.

Spans (name, start, end, parent span, operation id) are kept in memory;
the worker writes them out once, after its last pass. QPoly arithmetic is
counted but not spanned: per-call spans would swamp the run.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

from quonlib import (bounds, cli, gram, observables, parastat, qfock,
                     speicher, verify, wick)
from quonlib.qpoly import QPoly

SPANNED = (
    (qfock, "q_inner_product"),
    (wick, "enumerate_contractions"),
    (wick, "wick_expectation"),
    (gram, "gram_matrix"),
    (gram, "det_exact"),
    (gram, "positivity_scan"),
    (gram, "rank_at_limit"),
    (gram, "limit_eigenvector_check"),
    (gram, "zagier_determinant"),
    (parastat, "build_green"),
    (parastat, "check_trilinear"),
    (parastat, "max_occupancy"),
    (speicher, "mc_estimate"),
    (speicher, "sample_sign_matrix"),
    (speicher, "expectation_given_signs"),
    (speicher, "_assignment_sum"),
    (speicher, "expected_over_signs"),
    (observables, "check_transition_commutator"),
    (observables, "commutator_residual"),
    (bounds, "conservation_residual_check"),
    (bounds, "conservation_sweep"),
    (cli, "run"),
)

CRITERIA = tuple(f"verify.criterion_{fn.cid:02d}" for fn in verify.ALL_CRITERIA)

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("qpoly.mul.calls", "count"),
    ("qpoly.mul.coeff_ops", "count"),
    ("qpoly.exact_div.calls", "count"),
    ("qpoly.eval.calls", "count"),
    ("qfock.q_inner_product.self_s", "s"),
    ("qfock.q_inner_product.calls", "count"),
    ("qfock.vacuum_expectation.self_s", "s"),
    ("qfock.vacuum_expectation.calls", "count"),
    ("qfock.vacuum_expectation.memo_hit_ratio", "ratio"),
    ("wick.enumerate_contractions.self_s", "s"),
    ("wick.diagrams", "count"),
    ("wick.wick_expectation.self_s", "s"),
    ("gram.gram_matrix.self_s", "s"),
    ("gram.gram_matrix.calls", "count"),
    ("gram.gram_matrix.repeat_ratio", "ratio"),
    ("gram.gram_matrix.entries", "count"),
    ("gram.det_exact.self_s", "s"),
    ("gram.det_exact.points", "count"),
    ("gram.positivity_scan.self_s", "s"),
    ("gram.rank_at_limit.self_s", "s"),
    ("gram.limit_eigenvector_check.self_s", "s"),
    ("gram.zagier_determinant.self_s", "s"),
    ("parastat.build_green.self_s", "s"),
    ("parastat.build_green.dim", "count"),
    ("parastat.check_trilinear.self_s", "s"),
    ("parastat.max_occupancy.self_s", "s"),
    ("speicher.mc_estimate.self_s", "s"),
    ("speicher.samples", "count"),
    ("speicher.samples_per_s", "1/s"),
    ("speicher.sample_sign_matrix.self_s", "s"),
    ("speicher.expectation_given_signs.self_s", "s"),
    ("speicher._assignment_sum.self_s", "s"),
    ("speicher.expected_over_signs.self_s", "s"),
    ("observables.check_transition_commutator.self_s", "s"),
    ("observables.commutator_residual.self_s", "s"),
    ("bounds.conservation_residual_check.self_s", "s"),
    ("bounds.conservation_sweep.self_s", "s"),
    *((f"{name}.s", "s") for name in CRITERIA),
    ("cli.import_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_spread_s", "s"),
)


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []         # [name, start, end, parent index, op id]
        self.stack = []
        self.op = None
        self.counts = Counter()
        self.gram_ns = set()
        self.max_dim = 0

    # -- wrappers ------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1,
                          self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return traced

    def _counted(self, name, fn, coeff_ops=False):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            if coeff_ops:
                a, b = args
                counts[f"{name}.coeff_ops"] += len(a.coeffs) * (
                    len(b.coeffs) if isinstance(b, QPoly) else 1)
            return fn(*args)
        return counted

    def _vacuum_expectation(self, fn):
        # recursive calls pass the memo and get no span of their own
        counts = self.counts
        top = self._spanned("qfock.vacuum_expectation", fn)

        def traced(word, _memo=None):
            counts["vev.calls"] += 1
            if _memo is None:
                return top(word)
            if tuple(word) in _memo:
                counts["vev.memo_hits"] += 1
            return fn(word, _memo)
        return traced

    def _replacements(self):
        """(original, wrapper) pairs for every traced library function."""
        c = self.counts

        def diagrams(result, *_, **__):
            c["wick.diagrams"] += len(result)

        def gram_built(result, n, *_, **__):
            self.gram_ns.add(n)
            c["gram.entries"] += result.dim ** 2

        def samples(result, *_, **__):
            c["speicher.samples"] += result.samples

        def green(result, *_, **__):
            self.max_dim = max(self.max_dim, result.dim)

        after = {"enumerate_contractions": diagrams, "gram_matrix": gram_built,
                 "mc_estimate": samples, "build_green": green}
        pairs = [(getattr(mod, attr),
                  self._spanned(f"{mod.__name__.split('.')[-1]}.{attr}",
                                getattr(mod, attr), after.get(attr)))
                 for mod, attr in SPANNED]
        pairs += [(fn, self._spanned(name, fn))
                  for fn, name in zip(verify.ALL_CRITERIA, CRITERIA)]
        pairs += [(getattr(cli, attr), self._spanned("cli.command",
                                                     getattr(cli, attr)))
                  for attr in vars(cli) if attr.startswith("_cmd_")]
        pairs.append((qfock.vacuum_expectation,
                      self._vacuum_expectation(qfock.vacuum_expectation)))
        pairs.append((gram._det_bareiss_int,
                      self._counted("gram.points", gram._det_bareiss_int)))
        pairs += [(QPoly.__mul__, self._counted("qpoly.mul", QPoly.__mul__,
                                                coeff_ops=True)),
                  (QPoly.exact_div, self._counted("qpoly.exact_div",
                                                  QPoly.exact_div)),
                  (QPoly.__call__, self._counted("qpoly.eval",
                                                 QPoly.__call__))]
        return pairs

    # -- installation --------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Replace every name of every traced function while the block runs."""
        table = {id(orig): (orig, wrapper)
                 for orig, wrapper in self._replacements()}
        owners = [m for name, m in sys.modules.items()
                  if name == "quonlib" or name.startswith("quonlib.")]
        undo = []
        for owner in owners + [QPoly]:
            for attr, value in list(vars(owner).items()):
                hit = table.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    undo.append((setattr, owner, attr, value))
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        hit = table.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[i] = hit[1]
                            undo.append((list.__setitem__, value, i, item))
        try:
            yield self
        finally:
            for restore, owner, key, value in reversed(undo):
                restore(owner, key, value)

    @contextlib.contextmanager
    def operation(self, op_id):
        """A root span around one benchmark operation."""
        self.op = op_id
        idx = len(self.spans)
        self.spans.append(["bench.op", time.perf_counter(), None, -1, op_id])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()
            self.op = None

    # -- results -------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics of this pass; self time is a span's duration
        minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, total, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            total[name] += end - start
            calls[name] += 1
        c = self.counts
        m = {
            "qpoly.mul.calls": c["qpoly.mul"],
            "qpoly.mul.coeff_ops": c["qpoly.mul.coeff_ops"],
            "qpoly.exact_div.calls": c["qpoly.exact_div"],
            "qpoly.eval.calls": c["qpoly.eval"],
            "qfock.q_inner_product.calls": calls["qfock.q_inner_product"],
            "qfock.vacuum_expectation.calls": c["vev.calls"],
            "qfock.vacuum_expectation.memo_hit_ratio":
                _ratio(c["vev.memo_hits"], c["vev.calls"]),
            "wick.diagrams": c["wick.diagrams"],
            "gram.gram_matrix.calls": calls["gram.gram_matrix"],
            "gram.gram_matrix.repeat_ratio":
                _ratio(calls["gram.gram_matrix"], len(self.gram_ns)),
            "gram.gram_matrix.entries": c["gram.entries"],
            "gram.det_exact.points": c["gram.points"],
            "parastat.build_green.dim": self.max_dim,
            "speicher.samples": c["speicher.samples"],
            "speicher.samples_per_s": _ratio(c["speicher.samples"],
                                             total["speicher.mc_estimate"]),
        }
        for name, _ in LAYER_METRICS:
            if name.endswith(".self_s") and name not in m:
                m[name] = self_s[name[:-len(".self_s")]]
        for name in CRITERIA:
            m[f"{name}.s"] = total[name]
        return m
