"""Smoke run of the benchmark: one round of every workload, plain and traced.

    python tests/benchmark_smoke.py

From the root of a checkout, this runs
``python3 perfbench/run.py --workload W --seconds 0 --trace T`` for each
workload of BENCHMARK.json and T = 0 and 1; with 0 seconds each run makes
one round.  A run fails when it exits non-zero, when the last line of its
combined stdout and stderr is not a JSON result with ``correct: true``
and ``failed: 0``, or when that result lacks one of the metrics
BENCHMARK.json declares: the end-to-end ones for T = 0, all the
per-layer ones for T = 1.  Prints one line per run and exits 1 if any run
failed.  It is a script, not a test, and pytest does not collect it.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(workload: str, trace: int, declared: dict) -> str | None:
    """The reason the run fails, or None when it passes."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    last = proc.stdout.rstrip("\n").rsplit("\n", 1)[-1]
    if proc.returncode:
        return f"exit code {proc.returncode}; last line: {last}"
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        return f"last line is not JSON: {last}"
    if not isinstance(result, dict) or result.get("correct") is not True or result.get("failed") != 0:
        return f"last line is not a correct result with 0 failed: {last}"
    missing = [name for name in declared["per_layer" if trace else "end_to_end"]
               if name not in result.get("metrics", {})]
    if missing:
        return f"metrics missing: {', '.join(missing)}"
    return None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {key: [m["name"] for m in bench[key]] for key in ("end_to_end", "per_layer")}
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            reason = check_run(workload, trace, declared)
            failures += reason is not None
            print(f"{workload} --trace {trace}: {'ok' if reason is None else 'FAILED: ' + reason}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
