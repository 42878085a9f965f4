"""Tests of the benchmark's own checks: a flipped verdict or a flipped label
must make a run fail.

    python3 -m pytest perfbench
"""

import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import checks  # noqa: E402
import corpus  # noqa: E402
import exactcheck as ex  # noqa: E402
import refclock  # noqa: E402

import ncrat  # noqa: E402


def _member_case():
    ideal = ncrat.builtin_ideal("T", 2)
    f = ncrat.random_ideal_element(ideal, seed=1000, complexity=(1, 2))
    w = ncrat.NcPoly.monomial(ideal.alphabet, ncrat.Scalar(2), (ncrat.Letter(1, False),) * 2)
    items = [corpus.MemberItem("T", 2, f, True), corpus.MemberItem("T", 2, f + w, False)]
    return {("T", 2): ideal}, items


def test_member_answers_pass():
    ideals, items = _member_case()
    assert checks.check_member(1, items, ideals, {0: [True, True], 1: [False]}) == []


def test_member_flipped_verdict_fails():
    ideals, items = _member_case()
    assert checks.check_member(1, items, ideals, {0: [False], 1: [False]})
    assert checks.check_member(1, items, ideals, {0: [True], 1: [True]})
    assert checks.check_member(1, items, ideals, {0: [True, False], 1: [False]})


def test_member_flipped_label_fails():
    ideals, items = _member_case()
    for item in items:
        item.member = not item.member
    assert len(checks.check_member(1, items, ideals, {0: [False], 1: [True]})) == 2


def test_zero_test_flips_fail():
    text = "(X1 + X2)^-1 - X1^-1 (X1^-1 + X2^-1)^-1 X2^-1"
    item = corpus.ZeroItem("inverse-of-sum", text, ("x", 2), {}, True)
    assert checks.check_zero_test(1, [item], {0: [(True, 0)]}) == []
    assert checks.check_zero_test(1, [item], {0: [(False, 3)]})  # flipped verdict
    assert checks.check_zero_test(1, [item], {0: [(True, 2)]})  # minimal dimension disagrees
    item.zero = False  # flipped label
    assert checks.check_zero_test(1, [item], {0: [(False, 3)]})


def test_cli_flips_fail():
    text = corpus.cli_member_text(random.Random(0), random.Random(1), "T", 2)
    item = corpus.CliItem("member T", [], 0, False, {"type": "member", "kind": "T", "g": 2, "poly": text})
    good = (0, json.dumps({"member": True}))
    assert checks.check_cli(1, [item], {0: [good]}) == []
    assert checks.check_cli(1, [item], {0: [(1, json.dumps({"member": False}))]})
    item.exit_code = 1  # flipped label
    assert checks.check_cli(1, [item], {0: [(1, json.dumps({"member": False}))]})


def test_witness_off_the_domain_fails():
    spec = {"type": "falsify", "kind": "T", "g": 2, "poly": "X1 X2 - X2 X1"}
    item = corpus.CliItem("falsify", [], 1, True, spec)
    u = ex.cayley_orthogonal(random.Random(3), 3)  # 2 x 2 rotations would commute
    v = ex.cayley_orthogonal(random.Random(4), 3)

    def answer(mats):
        point = [{"rows": 3, "cols": 3, "entries": [[float(x), 0.0] for row in m for x in row]}
                 for m in mats]
        return {0: [(1, json.dumps({"witness": {"point": point}}))]}

    assert checks.check_cli(1, [item], answer([u, v])) == []
    assert checks.check_cli(1, [item], answer([ex.scale(2, u), v]))  # not unitary
    assert checks.check_cli(1, [item], answer([u, u]))  # commuting: f vanishes there


def test_zero_set_points_satisfy_relations():
    errors = []
    points = checks.ZeroSetPoints(7, errors)
    for kind, g in corpus.MEMBER_IDEALS + corpus.CLI_IDEALS + (("U", 3),):
        points(kind, g)
    assert errors == []


def test_parser_matches_ncrat_on_polynomials():
    shape, values = random.Random(5), random.Random(6)
    for kind, g in corpus.CLI_IDEALS:
        text = corpus.cli_non_member_text(shape, values, kind, g)
        ideal = ncrat.builtin_ideal(kind, g)
        f = ncrat.parse_poly(text, ideal.alphabet)
        assert checks.ncpoly_terms(f, ideal.alphabet) == ex.poly_from_text(text)


def test_flipped_label_fails_the_run():
    # one round of the member workload with the first label flipped
    code = (
        "import sys, corpus, run\n"
        "make = corpus.member_corpus\n"
        "def flipped(*args):\n"
        "    items = make(*args)\n"
        "    items[0].member = not items[0].member\n"
        "    return items\n"
        "corpus.member_corpus = flipped\n"
        "sys.exit(run.main(['--workload', 'member', '--seconds', '0']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 0
    assert "CHECK FAILED: member item 0" in proc.stdout


def test_exits_nonzero_without_ncrat(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "member"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""


def test_missing_layer_function_is_absent():
    # as if a later ncrat had no scalarize: its metrics are left out
    code = (
        "import ncrat.realization, layertrace\n"
        "del ncrat.realization.scalarize\n"
        "tracer = layertrace.Tracer()\n"
        "tracer.install()\n"
        "print(' '.join(sorted(tracer.present)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, SRC]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True,
                          env=env, timeout=60)
    present = set(proc.stdout.split())
    assert "realization.closure_s" in present and "realization.compiled_dim" in present
    assert not present & {"realization.scalarize_s", "realization.scalar_dim", "realization.nnz",
                          "realization.max_entry_bits"}


def test_reference_kernel_is_fixed():
    assert refclock.reference_unit() == refclock.REF_CHECKSUM
