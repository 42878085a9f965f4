"""The ncrat CLI with layer tracing, for the traced run of the cli workload.

    python3 perfbench/traced_cli.py TRACE_OUT.json <ncrat cli arguments>

Behaves like ``python -m ncrat.cli``; in addition it writes the CPU time
spent before ``main`` starts (interpreter, imports) and the per-layer CPU
times and counts of layertrace.Tracer to TRACE_OUT.json.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import ncrat.cli  # noqa: E402

startup_s = time.process_time()

import layertrace  # noqa: E402


def main():
    out_path, args = sys.argv[1], sys.argv[2:]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        return ncrat.cli.main(args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"startup_s": startup_s, "present": sorted(tracer.present),
                       "totals": tracer.totals()["setup"], "max_bits": tracer.max_bits}, fh)


if __name__ == "__main__":
    sys.exit(main())
