"""The contract between ncrat and perfbench's layer tracer.

perfbench/layertrace.py wraps ncrat's layer functions by name and reads
sizes off their results.  A layer function that is renamed, removed or
returns another shape drops its metrics from every traced run without an
error, so this test runs one operation of each traced layer under the
tracer and expects every per-layer metric of BENCHMARK.json, apart from
the CLI start-up time, to be present and observed.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs in a fresh interpreter: Tracer.install rebinds module attributes.
_TRACED_OPERATIONS = """
import json, os, sys
root = sys.argv[1]
sys.path[:0] = [os.path.join(root, "perfbench"), os.path.join(root, "src")]
import ncrat.cli  # every ncrat module, as in a traced CLI process
import layertrace

tracer = layertrace.Tracer()
tracer.install()

from ncrat import ideals, positivity, ratexpr, realization, sampler

U2 = ideals.builtin_ideal("Uprime", 2)
S2 = ideals.builtin_ideal("S", 2)
member = ratexpr.parse_poly("X1^* X1 + X2^* X2 - 1", S2.alphabet)
non_member = ratexpr.parse_poly("X1 X1^* + X2 X2^* - 1", S2.alphabet)
assert ideals.is_member(member, S2).member
assert not ideals.is_member(non_member, S2).member
ideals.substitute_resolvent(non_member, S2)

expr = ratexpr.parse_expression("(X1 + X2)^-1 - X1^-1 (X1^-1 + X2^-1)^-1 X2^-1", 2)
rep = realization.compile_expression(expr, realization.BasePoint.scalars([2, 3]))
assert realization.is_zero(rep)
realization.minimize_scalar(rep)

sizes = range(1, ideals.witness_size(non_member, S2) + 1)
assert sampler.falsify(non_member, ideals.zero_set_sampler(S2), sizes, 5, 1) is not None
commutator = ratexpr.parse_poly("X1 X2 - X2 X1", S2.alphabet)
assert sampler.falsify(commutator, sampler.SampleDomain("unitaries", 2), [1, 2], 5, 1) is not None

square = ratexpr.parse_poly("1 - X1", S2.alphabet)
certificate = positivity.SohsCertificate([square], member)
assert positivity.verify_certificate(square.star() * square + member, certificate, S2).ok

print(json.dumps({"present": sorted(tracer.present), "totals": tracer.totals()["setup"],
                  "max_bits": tracer.max_bits}))
"""


def test_every_layer_metric_is_traced():
    proc = subprocess.run([sys.executable, "-c", _TRACED_OPERATIONS, ROOT],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]} - {"cli.startup_s"}
    assert names - set(report["present"]) == set()
    # each traced metric was observed, not only installed
    assert names - {"realization.max_entry_bits"} - set(report["totals"]) == set()
    assert report["max_bits"] > 0
    for name in ("realization.compiled_dim", "realization.scalar_dim", "realization.nnz",
                 "ideals.resolvent_nodes", "sampler.points_tried"):
        assert report["totals"][name] > 0, name
