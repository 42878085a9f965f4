#!/usr/bin/env python3
"""Benchmark of ncrat: exact membership, zero tests and the ncrat CLI.

    python3 perfbench/run.py --workload {member,zero-test,cli}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Sets up the workload, runs whole rounds
of its seeded corpus until --seconds have passed, checks every answer
against computations made apart from ncrat (exactcheck.py) and prints,
as its last line, one JSON object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  Times are CPU seconds normalized by the reference clock
(refclock.py).  Exits 1 when a check fails, 2 when ncrat is missing.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

import refclock  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 2  # set-ups in fresh processes besides the run's own
CHILD_TIMEOUT_S = 120.0
CHILD_POLL_S = 0.05  # wall precision only: child CPU time comes from wait4
END_TO_END = (
    ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("negative_op_p50_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("cli.startup_s", "s"), ("ratexpr.parse_s", "s"), ("ideals.build_s", "s"),
    ("ideals.symbolic_inverse_s", "s"), ("ideals.substitute_s", "s"), ("ideals.oracle_rep_s", "s"),
    ("realization.compile_s", "s"), ("realization.scalarize_s", "s"), ("realization.closure_s", "s"),
    ("realization.closure_negative_s", "s"), ("realization.minimize_s", "s"),
    ("sampler.falsify_s", "s"), ("positivity.verify_s", "s"),
    ("realization.compiled_dim", "count"), ("realization.scalar_dim", "count"),
    ("realization.nnz", "count"), ("realization.max_entry_bits", "bits"),
    ("ideals.resolvent_nodes", "count"), ("sampler.points_tried", "count"),
)


@dataclass
class Record:
    index: int  # corpus position
    cpu: float  # CPU seconds of the operation
    w0: float  # wall interval, for the reference clock
    w1: float
    out: object  # the answer, None when the operation failed
    error: str | None = None


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


class InProcess:
    """Operations called in this process; CPU time of the main thread."""

    def __init__(self, seed, probe, tracer, workdir):
        self.seed, self.probe, self.tracer, self.workdir = seed, probe, tracer, workdir
        self.corpus = []

    def import_ncrat(self):
        import ncrat

        if self.tracer:
            self.tracer.install()
        return ncrat

    def setup_seconds(self):
        """Normalized CPU time of the main thread from process start to now."""
        return time.thread_time() * self.probe.factor(self.probe.times[0], time.perf_counter(), margin=0.0)

    def timed_rounds(self, seconds):
        records, rounds = [], 0
        start = time.perf_counter()
        while True:
            if self.tracer:
                self.tracer.phase = rounds
            for i in range(len(self.corpus)):
                w0, c0 = time.perf_counter(), time.thread_time()
                try:
                    out, error = self.op(i), None
                except Exception as exc:  # counted as a failed operation
                    out, error = None, f"{type(exc).__name__}: {exc}"
                c1, w1 = time.thread_time(), time.perf_counter()
                records.append(Record(i, c1 - c0, w0, w1, out, error))
            rounds += 1
            if time.perf_counter() - start >= seconds:
                break
        return records, rounds

    def normalized(self, rec):
        return rec.cpu * self.probe.factor(rec.w0, rec.w1)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_totals(self):
        # no CLI process is started: cli.startup_s reads 0
        return self.tracer.totals(self.probe.factor), self.tracer.max_bits, self.tracer.present | {"cli.startup_s"}


class MemberWorkload(InProcess):
    """is_member on built ideals (exact path, no witness search)."""

    def setup(self):
        import corpus

        ncrat = self.import_ncrat()
        self.ideals = {}
        for kind, g in corpus.MEMBER_IDEALS:
            self.ideals[(kind, g)] = ncrat.builtin_ideal(kind, g)
        self.is_member = ncrat.is_member
        self.corpus = corpus.member_corpus(self.seed, self.ideals, ncrat)

    def op(self, i):
        item = self.corpus[i]
        return self.is_member(item.poly, self.ideals[(item.kind, item.g)]).member

    def negative(self, item):
        return not item.member

    def check(self, records):
        import checks

        return checks.check_member(self.seed, self.corpus, self.ideals, answers(records))


class ZeroTestWorkload(InProcess):
    """parse_expression, compile_expression, is_zero and minimize_scalar,
    as `ncrat zero-test` runs them."""

    def setup(self):
        import corpus

        ncrat = self.import_ncrat()
        alphabets = {("x", 2): ncrat.Alphabet.x(2), ("matrix", 2): ncrat.Alphabet.matrix(2),
                     ("matrix", 3): ncrat.Alphabet.matrix(3)}

        def inverse_entries(g):
            inv = ncrat.symbolic_matrix_inverse(g, alphabets[("matrix", g)])
            return [[ncrat.format_expression(e) for e in row] for row in inv]

        self.corpus = corpus.zero_test_corpus(self.seed, inverse_entries)
        self.prepared = []
        for item in self.corpus:
            alph = alphabets[item.alphabet]
            bp = ncrat.BasePoint.from_mapping({
                ncrat.Letter(alph.index_of(name), False): ncrat.ExactMatrix.from_rows(rows)
                for name, rows in item.basepoint.items()
            })
            self.prepared.append((item.text, alph, bp))
        self.api = (ncrat.parse_expression, ncrat.compile_expression, ncrat.is_zero, ncrat.minimize_scalar)

    def op(self, i):
        parse, compile_, is_zero, minimize = self.api
        text, alph, bp = self.prepared[i]
        rep = compile_(parse(text, alph), bp)
        zero = is_zero(rep)
        _, n_min = minimize(rep)
        return zero, n_min

    def negative(self, item):
        return not item.zero

    def check(self, records):
        import checks

        return checks.check_zero_test(self.seed, self.corpus, answers(records))


# ---------------------------------------------------------------------------
# CLI workload: fresh processes, CPU time from wait4
# ---------------------------------------------------------------------------


class CliWorkload:
    """Fresh `python -m ncrat.cli` processes, one per operation.

    The child inherits this process's single CPU, where the probe thread
    keeps taking reference samples while the child runs, so the reference
    sees the speed the child ran at.
    """

    def __init__(self, seed, probe, tracer, workdir):
        self.seed, self.probe, self.tracer, self.workdir = seed, probe, tracer, workdir
        self.env = refclock.single_threaded_env(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        self.max_rss_kb = 0
        self.phase = "setup"
        self.layer = {}  # phase -> metric -> normalized value
        self.present = set()
        self.max_bits = 0

    def setup(self):
        import corpus

        self.corpus = corpus.cli_corpus(self.seed, self.workdir)
        own = time.thread_time() * self.probe.factor(self.probe.times[0], time.perf_counter(), margin=0.0)
        warm = self.run_child(corpus.WARMUP_ARGS)
        if warm.error or warm.out[0] != 0:
            raise RuntimeError(f"warm-up invocation failed: {warm.error or warm.out}")
        self._setup_s = own + self.normalized(warm)

    def setup_seconds(self):
        return self._setup_s

    def run_child(self, args, index=-1):
        trace_path = os.path.join(self.workdir, "trace.json")
        if self.tracer:
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_path, *args]
        else:
            argv = [sys.executable, "-m", "ncrat.cli", *args]
        out_path = os.path.join(self.workdir, "stdout.txt")
        with open(out_path, "wb") as out:
            w0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, cwd=ROOT, env=self.env)
            killed = False
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - w0 > CHILD_TIMEOUT_S:
                    proc.kill()
                    killed = True
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(CHILD_POLL_S)
            w1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        rec = Record(index, usage.ru_utime + usage.ru_stime, w0, w1, (proc.returncode, stdout))
        if killed:
            rec.error = f"killed after {CHILD_TIMEOUT_S:.0f} s"
        elif proc.returncode not in (0, 1):
            rec.error = f"exit code {proc.returncode}"
        if index >= 0:
            self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        if self.tracer and os.path.exists(trace_path):
            self._collect_trace(trace_path, rec)
        return rec

    def _collect_trace(self, path, rec):
        with open(path) as fh:
            data = json.load(fh)
        os.remove(path)
        factor = self.probe.factor(rec.w0, rec.w1)
        phase = self.layer.setdefault(self.phase, {})
        phase["cli.startup_s"] = phase.get("cli.startup_s", 0.0) + data["startup_s"] * factor
        for metric, value in data["totals"].items():
            scaled = value if metric in COUNT_METRICS else value * factor
            phase[metric] = phase.get(metric, 0.0) + scaled
        self.present.update(data["present"])
        self.max_bits = max(self.max_bits, data["max_bits"])

    def timed_rounds(self, seconds):
        records, rounds = [], 0
        start = time.perf_counter()
        while True:
            self.phase = rounds
            for i, item in enumerate(self.corpus):
                records.append(self.run_child(item.args, i))
            rounds += 1
            if time.perf_counter() - start >= seconds:
                break
        return records, rounds

    def normalized(self, rec):
        return rec.cpu * self.probe.factor(rec.w0, rec.w1)

    def peak_rss_mb(self):
        return self.max_rss_kb / 1024.0

    def layer_totals(self):
        return self.layer, self.max_bits, self.present | {"cli.startup_s"}

    def negative(self, item):
        return item.negative

    def check(self, records):
        import checks

        return checks.check_cli(self.seed, self.corpus, answers(records))


WORKLOADS = {"member": MemberWorkload, "zero-test": ZeroTestWorkload, "cli": CliWorkload}
COUNT_METRICS = {name for name, unit in PER_LAYER if unit != "s"}


def answers(records):
    """corpus position -> list of the answers of every round."""
    out = {}
    for rec in records:
        if rec.error is None:
            out.setdefault(rec.index, []).append(rec.out)
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def summarize(times, negative_times):
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
        "negative_op_p50_ms": statistics.median(negative_times) * 1e3,
    }


def setup_in_fresh_process(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def layer_metrics(wl, rounds):
    import layertrace

    phases, max_bits, present = wl.layer_totals()
    values = layertrace.per_round(phases, rounds)
    values["realization.max_entry_bits"] = max_bits
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER if name in present}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the normalized set-up time and exit (used for setup_s)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ncrat", "__init__.py")):
        print(f"error: no ncrat package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(refclock.single_threaded_env({}))  # before numpy is imported
    refclock.pin_to_one_cpu()  # before the probe thread and any child starts
    sys.path.insert(0, SRC)

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with refclock.SpeedProbe() as probe:
            wl = WORKLOADS[args.workload](args.seed, probe, tracer, workdir)
            wl.setup()
            setup_s = wl.setup_seconds()
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            records, rounds = wl.timed_rounds(args.seconds)
        peak_rss_mb = wl.peak_rss_mb()  # before any checker code is loaded
        setup_samples = [setup_s]
        if not args.trace:
            setup_samples += [setup_in_fresh_process(args.workload, args.seed)
                              for _ in range(SETUP_REPEATS)]
        errors = wl.check(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(OUT_DIR)
        except OSError:
            pass

    failed = [r for r in records if r.error]
    for rec in failed[:5]:
        print(f"failed: {args.workload} corpus item {rec.index}: {rec.error}")
    for err in errors[:20]:
        print(f"CHECK FAILED: {err}")
    ok = [r for r in records if r.error is None]
    normalized = [wl.normalized(r) for r in ok]
    neg = [wl.normalized(r) for r in ok if wl.negative(wl.corpus[r.index])]
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {len(records)} operations "
          f"({len(neg)} negative), {len(failed)} failed; median reference unit "
          f"{statistics.median(probe.durations) * 1e3:.3f} ms (nominal {refclock.NOMINAL_REF_S * 1e3:.3f} ms); "
          f"busy time per round {sum(normalized) / rounds:.4f} s normalized, "
          f"{sum(r.cpu for r in ok) / rounds:.4f} s raw CPU")

    if args.trace:
        metrics = layer_metrics(wl, rounds)
    else:
        raw_cpu = summarize([r.cpu for r in ok], [r.cpu for r in ok if wl.negative(wl.corpus[r.index])])
        raw_wall = summarize([r.w1 - r.w0 for r in ok],
                             [r.w1 - r.w0 for r in ok if wl.negative(wl.corpus[r.index])])
        print("raw CPU (not normalized): " + ", ".join(f"{k}={v:.4g}" for k, v in raw_cpu.items()))
        print("raw wall (not normalized): " + ", ".join(f"{k}={v:.4g}" for k, v in raw_wall.items()))
        print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setup_samples))
        values = summarize(normalized, neg)
        values["setup_s"] = statistics.median(setup_samples)
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": not errors, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
