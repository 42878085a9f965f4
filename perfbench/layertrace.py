"""Per-layer tracing of ncrat from outside the program.

``Tracer.install`` replaces ncrat's public layer functions, in every
ncrat module that holds a reference to them, by wrappers that record a
span (metric, phase, CPU seconds of the calling thread, wall interval) and a few sizes read off
the results.  A call nested inside another call of the same metric is
not counted twice.  A function that a later version of ncrat no longer
has is skipped, and the metrics that depend only on it are reported as
absent.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (metric, module, attribute); a metric may cover several functions.
TIMED = (
    ("ratexpr.parse_s", "ncrat.ratexpr", "parse_expression"),
    ("ratexpr.parse_s", "ncrat.ratexpr", "parse_poly"),
    ("ideals.build_s", "ncrat.ideals", "builtin_ideal"),
    ("ideals.symbolic_inverse_s", "ncrat.ideals", "symbolic_matrix_inverse"),
    ("ideals.substitute_s", "ncrat.ideals", "substitute_resolvent"),
    ("ideals.oracle_rep_s", "ncrat.ideals", "RRIdeal.oracle_rep"),
    ("realization.compile_s", "ncrat.realization", "compile_expression"),
    ("realization.compile_s", "ncrat.realization", "compile_poly"),
    ("realization.scalarize_s", "ncrat.realization", "scalarize"),
    ("realization.closure_s", "ncrat.realization", "scalar_rep_is_zero"),
    ("realization.minimize_s", "ncrat.realization", "minimize_scalar"),
    ("sampler.falsify_s", "ncrat.sampler", "falsify"),
    ("positivity.verify_s", "ncrat.positivity", "verify_certificate"),
)
# Metrics read off results: metric -> the timed metric whose results feed it.
DERIVED = {
    "realization.closure_negative_s": "realization.closure_s",
    "realization.compiled_dim": "realization.compile_s",
    "realization.scalar_dim": "realization.scalarize_s",
    "realization.nnz": "realization.scalarize_s",
    "realization.max_entry_bits": "realization.scalarize_s",
    "ideals.resolvent_nodes": "ideals.build_s",
}
# Sampled points: the callables falsify draws its points from.
SAMPLERS = (("ncrat.sampler", "sample_point"), ("ncrat.ideals", "zero_set_sampler"))


def _lookup(module, path):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None, None
    owner = module
    for part in path.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, obj


def _rebind(orig, wrapper):
    """Point every ncrat module-level reference to ``orig`` at ``wrapper``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "ncrat" or name.startswith("ncrat.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


def _distinct_nodes(ideal):
    seen = set()
    stack = [expr.node for expr in ideal.resolvent.values()]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, "children", ()))
        child = getattr(node, "child", None)
        if child is not None:
            stack.append(child)
    return len(seen)


def _scalar_bits(s):
    return max(s.re.numerator.bit_length(), s.re.denominator.bit_length(),
               s.im.numerator.bit_length(), s.im.denominator.bit_length())


def _max_entry_bits(sr):
    best = 0
    for s in sr.C.entries + sr.B.entries:
        best = max(best, _scalar_bits(s))
    for mat in sr.A:
        for row in mat.rows.values():
            for s in row.values():
                best = max(best, _scalar_bits(s))
    return best


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.spans = []  # (metric, phase, cpu seconds, wall start, wall end)
        self.counts = defaultdict(lambda: defaultdict(int))  # phase -> metric -> sum
        self.max_bits = 0
        self.present = set()  # metrics whose functions exist
        self._active = defaultdict(int)  # metric -> nesting depth
        self._ideals_seen = set()

    # -- installation -------------------------------------------------------

    def install(self):
        for metric, modname, path in TIMED:
            module = sys.modules.get(modname)
            owner, orig = _lookup(module, path) if module else (None, None)
            if orig is None:
                continue
            self.present.add(metric)
            wrapper = self._timed(metric, orig)
            setattr(owner, path.split(".")[-1], wrapper)
            _rebind(orig, wrapper)
        for derived, base in DERIVED.items():
            if base in self.present:
                self.present.add(derived)
        for modname, attr in SAMPLERS:
            module = sys.modules.get(modname)
            orig = getattr(module, attr, None) if module else None
            if orig is None:
                continue
            self.present.add("sampler.points_tried")
            wrapper = self._counting_sampler(orig) if attr == "sample_point" else self._sampler_factory(orig)
            setattr(module, attr, wrapper)
            _rebind(orig, wrapper)

    def _timed(self, metric, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._active[metric]:
                return fn(*args, **kwargs)
            tracer._active[metric] += 1
            w0, c0 = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, w1 = time.thread_time(), time.perf_counter()
                tracer._active[metric] -= 1
                tracer.spans.append((metric, tracer.phase, c1 - c0, w0, w1))
            tracer._observe(metric, result, c1 - c0, w0, w1)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, metric, result, cpu, w0, w1):
        counts = self.counts[self.phase]
        try:
            if metric == "realization.closure_s" and result is False:
                self.spans.append(("realization.closure_negative_s", self.phase, cpu, w0, w1))
            elif metric == "realization.compile_s":
                counts["realization.compiled_dim"] += result.dim
            elif metric == "realization.scalarize_s":
                counts["realization.scalar_dim"] += result.dim
                counts["realization.nnz"] += sum(mat.nnz() for mat in result.A)
                self.max_bits = max(self.max_bits, _max_entry_bits(result))
            elif metric == "ideals.build_s" and id(result) not in self._ideals_seen:
                self._ideals_seen.add(id(result))
                counts["ideals.resolvent_nodes"] += _distinct_nodes(result)
        except (AttributeError, TypeError):
            # a result of another shape than this tracer knows: the sizes
            # read off it are absent rather than wrong
            self.present -= {d for d, base in DERIVED.items() if base == metric}

    def _count_point(self, fn, *args, **kwargs):
        if self._active["sampler.points_tried"]:
            return fn(*args, **kwargs)
        self._active["sampler.points_tried"] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            self._active["sampler.points_tried"] -= 1
            self.counts[self.phase]["sampler.points_tried"] += 1

    def _counting_sampler(self, fn):
        def wrapper(*args, **kwargs):
            return self._count_point(fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _sampler_factory(self, factory):
        def wrapper(*args, **kwargs):
            return self._counting_sampler(factory(*args, **kwargs))

        wrapper.__wrapped__ = factory
        return wrapper

    # -- results ----------------------------------------------------------

    def totals(self, factor=None):
        """Per phase, {phase: {metric: value}}: CPU seconds of the spans,
        each scaled by ``factor(w0, w1)`` when given, and the counts."""
        out = defaultdict(lambda: defaultdict(float))
        for metric, phase, cpu, w0, w1 in self.spans:
            out[phase][metric] += cpu * (factor(w0, w1) if factor else 1.0)
        for phase, counts in self.counts.items():
            for metric, value in counts.items():
                out[phase][metric] += value
        return out


def per_round(phase_totals, rounds):
    """One figure per metric: the set-up phase plus the mean of the rounds."""
    out = defaultdict(float)
    for phase, totals in phase_totals.items():
        weight = 1.0 if phase == "setup" else 1.0 / rounds
        for metric, value in totals.items():
            out[metric] += weight * value
    return out
