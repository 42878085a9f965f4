import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import ncrat
from ncrat.cli import main
from ncrat.positivity import import_gram


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestMember:
    def test_generator_is_member(self):
        code, out, _ = run_cli("member", "--ideal", "T", "--g", "2",
                               "--poly", "1 - X1 X1^*")
        assert code == 0 and "member = True" in out

    def test_non_member_exits_one(self):
        code, out, _ = run_cli("member", "--ideal", "T", "--g", "2",
                               "--poly", "X1 X2 - X2 X1", "--seed", "4")
        assert code == 1 and "member = False" in out

    def test_witness_json(self):
        code, out, _ = run_cli("member", "--ideal", "T", "--g", "2",
                               "--poly", "X1 X2 - X2 X1", "--witness",
                               "--seed", "4", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["member"] is False
        assert data["witness"]["size"] >= 2

    def test_constant_non_member_gets_a_witness(self):
        # a constant has degree 0; the search runs up to the degree-1 size
        code, out, err = run_cli("member", "--ideal", "T", "--g", "1",
                                 "--poly", "2", "--witness", "--seed", "1")
        assert code == 1 and err == ""
        assert "member = False" in out and "witness at size 1" in out


class TestBound:
    def test_comm_inv_bound(self):
        code, out, _ = run_cli("bound", "--ideal", "CommInv",
                               "--poly", "X1 X2 X3 - X2 X1")
        assert code == 0 and "membership test size: 36" in out

    def test_pos_size_warning(self):
        code, out, _ = run_cli("bound", "--ideal", "T", "--g", "1",
                               "--poly", "X1 + X1^*")
        assert code == 0 and "never sampled" in out
        assert "(d = deg+1 = 2): 9 " in out
        # partitioned unitaries at g = 1 are unitaries: the same 3^d
        code, out, _ = run_cli("bound", "--ideal", "U", "--g", "1",
                               "--poly", "X11 + X11^*")
        assert code == 0 and "(d = deg+1 = 2): 9 " in out

    def test_constant_polynomial(self):
        # the true degree is printed; the test size is the degree-1 size
        code, out, _ = run_cli("bound", "--ideal", "T", "--g", "1", "--poly", "1")
        assert code == 0
        assert "degree u = 0, terms v = 1" in out and "membership test size: 1" in out


class TestZeroTest:
    def test_zero_series(self):
        code, out, _ = run_cli("zero-test", "--expr", "X1 X1^-1 - 1",
                               "--g", "1", "--basepoint", "scalar:1")
        assert code == 0 and "zero series: True" in out

    def test_nonzero_series(self):
        code, out, _ = run_cli("zero-test", "--expr", "X1 X2 - X2 X1",
                               "--g", "2", "--basepoint", "scalar:1,2")
        assert code == 1

    def test_bad_basepoint_is_usage_error(self):
        code, _, err = run_cli("zero-test", "--expr", "X1^-1",
                               "--g", "1", "--basepoint", "scalar:0")
        assert code == 2 and "error" in err


def _matrix(rows):
    """Exact-matrix JSON from rows of (re, im) pairs."""
    return {"rows": len(rows), "cols": len(rows[0]),
            "entries": [[str(re), str(im)] for row in rows for re, im in row]}


A_IUNIT = _matrix([[(0, 0), (0, 1)], [(0, 0), (0, 0)]])  # i * E12
B_UPPER = _matrix([[(1, 0), (1, 0)], [(0, 0), (2, 0)]])


class TestExpandAndEval:
    def test_expand_geometric(self):
        code, out, _ = run_cli("expand", "--expr", "X1^-1", "--g", "1",
                               "--basepoint", "scalar:1", "--order", "3")
        assert code == 0
        assert "[S, 1] = [1]" in out and "[S, X1] = [-X1]" in out

    def test_eval(self):
        code, out, _ = run_cli("eval", "--expr", "X1^-1", "--g", "1",
                               "--point", "scalar:2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["value"]["entries"][0] == ["1/2", "0"]

    def test_basepoint_file_list_form(self, tmp_path):
        # entry k binds X(k+1); a starred letter takes the conjugate transpose
        path = tmp_path / "point.json"
        path.write_text(json.dumps([A_IUNIT, B_UPPER]))
        code, out, _ = run_cli("eval", "--expr", "X2 X1^*", "--g", "2",
                               "--point", f"file:{path}", "--json")
        assert code == 0
        # B (i E12)^* = B (-i E21) = [[-i, 0], [-2i, 0]]
        assert json.loads(out)["value"]["entries"] == [["0", "-1"], ["0", "0"], ["0", "-2"], ["0", "0"]]

    def test_basepoint_file_by_name(self, tmp_path):
        # a starred name binds that letter itself; a bare name also binds
        # its starred letter, to the conjugate transpose
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"X1": A_IUNIT, "X2^*": B_UPPER}))
        code, out, _ = run_cli("eval", "--expr", "X1^* X2^*", "--g", "2",
                               "--point", f"file:{path}", "--json")
        assert code == 0
        # (-i E21) B = [[0, 0], [-i, -i]]
        assert json.loads(out)["value"]["entries"] == [["0", "0"], ["0", "0"], ["0", "-1"], ["0", "-1"]]


class TestSampleAndFalsify:
    def test_sample_deterministic(self):
        a = run_cli("sample", "--domain", "unitaries", "--g", "1",
                    "--size", "3", "--seed", "5", "--json")
        b = run_cli("sample", "--domain", "unitaries", "--g", "1",
                    "--size", "3", "--seed", "5", "--json")
        assert a == b and a[0] == 0

    def test_falsify_finds_commutator_witness(self):
        code, out, _ = run_cli("falsify", "--poly", "X1 X2 - X2 X1",
                               "--domain", "unitaries", "--g", "2",
                               "--sizes", "1..3", "--seed", "6", "--trials", "40")
        assert code == 1 and "witness at size 2" in out

    def test_falsify_member_finds_nothing(self):
        code, out, _ = run_cli("falsify", "--ideal", "T", "--g", "1",
                               "--poly", "1 - X1^* X1",
                               "--sizes", "1..4", "--seed", "6", "--trials", "20")
        assert code == 0 and "no witness" in out

    def test_seed_printed_when_missing(self):
        code, out, _ = run_cli("falsify", "--poly", "1 - X1^* X1",
                               "--domain", "unitaries", "--g", "1",
                               "--sizes", "1..2", "--trials", "5")
        assert code == 0 and out.startswith("seed:")

    @pytest.mark.parametrize("argv, code", [
        (["sample", "--domain", "unitaries", "--g", "1", "--size", "1", "--json"], 0),
        (["member", "--ideal", "T", "--g", "1", "--poly", "X1", "--witness", "--json"], 1),
    ], ids=["sample", "member-witness"])
    def test_drawn_seed_keeps_json_stdout(self, argv, code):
        # the drawn seed goes to stderr, and into the JSON object
        got, out, err = run_cli(*argv)
        assert got == code
        assert err.startswith("seed: ")
        assert json.loads(out)["seed"] == int(err.split()[1])


class TestSohsAndGram:
    def test_verify_sohs(self, tmp_path):
        cert = {
            "polynomial": "(1 - X1)^*(1 - X1)",
            "squares": ["1 - X1"],
            "remainder": "",
        }
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        code, out, _ = run_cli("verify-sohs", "--cert", str(path),
                               "--ideal", "T", "--g", "1")
        assert code == 0 and "valid: True" in out

    def test_verify_sohs_rejects(self, tmp_path):
        cert = {
            "polynomial": "(1 - X1)^*(1 - X1)",
            "squares": ["1 + X1"],
            "remainder": "",
        }
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        code, out, _ = run_cli("verify-sohs", "--cert", str(path),
                               "--ideal", "T", "--g", "1")
        assert code == 1 and "valid: False" in out

    def test_gram_export(self, tmp_path):
        out_path = tmp_path / "problem.gram"
        code, out, _ = run_cli("gram-export", "--poly", "X1^* X1", "--g", "1",
                               "--d", "1", "--out", str(out_path))
        assert code == 0 and out_path.exists()
        problem = import_gram(str(out_path))
        assert problem.d == 1 and len(problem.basis) == 3


def _one_relator(x1="1"):
    return {
        "name": "one-relator",
        "g": 3,
        "generators": ["X1 X2 X3 - X2 X1"],
        "resolved": ["X3"],
        "resolvent": {"X3": "X2^-1 X1^-1 X2 X1"},
        "basepoint": {
            "m": 1,
            "matrices": {
                "X1": {"rows": 1, "cols": 1, "entries": [[x1, "0"]]},
                "X2": {"rows": 1, "cols": 1, "entries": [["1", "0"]]},
            },
        },
    }


class TestCustomIdealFile:
    def test_member_against_ideal_file(self, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(_one_relator()))
        code, out, _ = run_cli("member", "--ideal-file", str(path),
                               "--poly", "X1 X2 X3 - X2 X1")
        assert code == 0 and "member = True" in out
        code, _, _ = run_cli("member", "--ideal-file", str(path), "--poly", "X3")
        assert code == 1

    def test_resolvent_undefined_at_the_base_point(self, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(_one_relator(x1="0")))
        code, out, err = run_cli("member", "--ideal-file", str(path), "--poly", "X1")
        assert code == 2 and out == ""
        assert "base point outside dom r [subtree path [1]]" in err


class TestSelftest:
    def test_quick_selftest_passes(self):
        code, out, _ = run_cli("selftest", "--quick")
        assert code == 0
        assert "10/10 criteria passed" in out
        assert out.count("PASS") == 10


def _cofactor_cert(j):
    """A certificate whose remainder is recomposed from generator j."""
    return {"polynomial": "1 - X1^* X1", "squares": [], "remainder": "1 - X1^* X1",
            "cofactors": [["1", j, "1"]]}


STAR_SPEC_WITHOUT_DOMAIN = {
    "g": 1,
    "star": True,
    "generators": ["1 - X1^* X1", "1 - X1 X1^*"],
    "resolved": ["X1^*"],
    "resolvent": {"X1^*": "X1^-1"},
    "basepoint": {"matrices": {"X1": _matrix([[(1, 0)]])}},
}

# a well-formed star ideal but for g = 0, which the size bounds cannot take
STAR_SPEC_G0 = {**STAR_SPEC_WITHOUT_DOMAIN, "g": 0, "letters": ["X1"], "domain_kind": "unitaries"}


class TestUsageErrors:
    @pytest.mark.parametrize("argv, content", [
        pytest.param(["member", "--ideal-file", "{file}", "--poly", "X1"], "{not json",
                     id="ideal-not-json"),
        pytest.param(["member", "--ideal-file", "{file}", "--poly", "X1"], "[]", id="ideal-list"),
        pytest.param(["bound", "--ideal-file", "{file}", "--poly", "X1"],
                     json.dumps(STAR_SPEC_WITHOUT_DOMAIN), id="star-ideal-bound"),
        pytest.param(["member", "--ideal-file", "{file}", "--poly", "X1", "--witness", "--seed", "1"],
                     json.dumps(STAR_SPEC_WITHOUT_DOMAIN), id="star-ideal-witness"),
        pytest.param(["verify-sohs", "--cert", "{file}", "--ideal", "T", "--g", "1"], "{not json",
                     id="cert-not-json"),
        pytest.param(["verify-sohs", "--cert", "{file}", "--ideal", "T", "--g", "1"],
                     '{"squares": []}', id="cert-no-polynomial"),
        pytest.param(["zero-test", "--expr", "X1", "--g", "1", "--basepoint", "file:{file}"],
                     "{not json", id="basepoint-not-json"),
        pytest.param(["zero-test", "--expr", "X1", "--g", "1", "--basepoint", "file:{file}"],
                     '[{"rows": 1}]', id="basepoint-no-cols"),
        pytest.param(["zero-test", "--expr", "X1", "--g", "1", "--basepoint", "scalar:abc"],
                     "", id="basepoint-scalar-not-a-number"),
        pytest.param(["zero-test", "--expr", "X1", "--g", "1", "--basepoint", "scalar:1/0"],
                     "", id="basepoint-scalar-zero-denominator"),
        pytest.param(["zero-test", "--expr", "X1", "--g", "1", "--basepoint", "scalar:1,x"],
                     "", id="basepoint-scalar-unused-value"),
        pytest.param(["verify-sohs", "--cert", "{file}", "--ideal", "T", "--g", "1"],
                     json.dumps(_cofactor_cert(5)), id="cert-cofactor-index-too-large"),
        pytest.param(["verify-sohs", "--cert", "{file}", "--ideal", "T", "--g", "1"],
                     json.dumps(_cofactor_cert(-1)), id="cert-cofactor-index-negative"),
        pytest.param(["bound", "--ideal-file", "{file}", "--poly", "X1"],
                     json.dumps(STAR_SPEC_G0), id="star-ideal-g0-bound"),
        pytest.param(["member", "--ideal-file", "{file}", "--poly", "X1", "--witness", "--seed", "1"],
                     json.dumps(STAR_SPEC_G0), id="star-ideal-g0-witness"),
    ])
    def test_malformed_input_file(self, tmp_path, argv, content):
        path = tmp_path / "input.json"
        path.write_text(content)
        code, _, err = run_cli(*(a.replace("{file}", str(path)) for a in argv))
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["falsify", "--poly", "X1 X2 - X2 X1", "--g", "2", "--sizes", "3..1"],
        ["falsify", "--poly", "X1 X2 - X2 X1", "--g", "2", "--sizes", "0..1"],
        ["falsify", "--poly", "X1 X2 - X2 X1", "--g", "2", "--sizes", "0"],
        ["falsify", "--poly", "X1 X2 - X2 X1", "--g", "2", "--sizes", "abc"],
        ["falsify", "--poly", "X1 X2 - X2 X1", "--g", "2", "--sizes", "1..x"],
        ["falsify", "--poly", "X1 X2 - X2 X1", "--g", "2", "--sizes", "2.."],
        ["falsify", "--ideal", "T", "--g", "1", "--poly", "X1", "--sizes", "0..2"],
        ["sample", "--domain", "unitaries", "--g", "2", "--size", "0"],
        ["sample", "--domain", "unitaries", "--g", "2", "--size", "-1"],
    ], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
    def test_unsampleable_sizes(self, argv):
        code, out, err = run_cli(*argv, "--seed", "1")
        assert code == 2 and err.startswith("error:") and out == ""

    @pytest.mark.parametrize("argv", [
        ["falsify", "--poly", "X1 X2 - X2 X1", "--g", "2", "--trials", "0"],
        ["member", "--ideal", "T", "--g", "1", "--poly", "X1", "--witness", "--trials", "-2"],
        ["falsify", "--poly", "X1 X1^* - 1", "--g", "1", "--sizes", "1", "--tol", "-1"],
        ["falsify", "--poly", "X1 X1^* - 1", "--g", "1", "--sizes", "1", "--tol", "0"],
        ["falsify", "--poly", "X1 X1^* - 1", "--g", "1", "--sizes", "1", "--tol", "nan"],
        ["falsify", "--ideal", "T", "--g", "1", "--poly", "X1", "--tol", "inf"],
        ["sample", "--domain", "unitaries", "--g", "0", "--size", "2"],
        ["sample", "--domain", "unitaries", "--g", "1", "--size", "2", "--index", "-1"],
        ["falsify", "--poly", "X11", "--domain", "partitioned", "--g", "10"],
    ], ids=lambda argv: f"{argv[0]}-{argv[-2]}={argv[-1]}")
    def test_out_of_range_settings(self, argv):
        code, out, err = run_cli(*argv, "--seed", "1")
        assert code == 2 and err.startswith("error:") and out == ""

    @pytest.mark.parametrize("argv", [
        ["member", "--ideal", "T", "--g", "1", "--poly", "1/0"],
        ["zero-test", "--expr", "1/0 X1", "--g", "1", "--basepoint", "scalar:1"],
    ], ids=["member", "zero-test"])
    def test_zero_denominator_in_a_literal(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 2 and err.startswith("error:") and out == ""

    @pytest.mark.parametrize("argv", [
        ["eval", "--point", "scalar:1"],
        ["eval", "--point", "scalar:1", "--expr", "X1", "--poly", "X1"],
        ["falsify", "--sizes", "1..2", "--seed", "1"],
        ["falsify", "--sizes", "1..2", "--seed", "1", "--expr", "X1", "--poly", "X1"],
    ], ids=["eval-neither", "eval-both", "falsify-neither", "falsify-both"])
    def test_expr_or_poly_exactly_once(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                main(argv)
        assert exc.value.code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("usage: ncrat") and "--expr" in err.getvalue()

    @pytest.mark.parametrize("argv", [
        ["expand", "--expr", "X1^-1", "--g", "1", "--basepoint", "scalar:1", "--order", "-2"],
        ["gram-export", "--poly", "0", "--g", "1", "--d", "-1", "--out", "{out}"],
    ], ids=["expand", "gram-export"])
    def test_negative_word_length(self, tmp_path, argv):
        path = tmp_path / "gram.txt"
        code, out, err = run_cli(*(a.replace("{out}", str(path)) for a in argv))
        assert code == 2 and err.startswith("error:") and out == ""
        assert not path.exists()

    def test_unknown_letter(self):
        code, _, err = run_cli("member", "--ideal", "T", "--g", "1",
                               "--poly", "X9")
        assert code == 2 and "error" in err

    def test_missing_ideal(self):
        code, _, err = run_cli("bound", "--poly", "X1")
        assert code == 2


# Commands that only compute exactly, with their exit codes; none of them
# may load numpy.
EXACT_COMMANDS = {
    "member": (0, ["member", "--ideal", "T", "--g", "2", "--poly", "1 - X1 X1^*"]),
    "member-negative": (1, ["member", "--ideal", "T", "--g", "2", "--poly", "X1 X2 - X2 X1", "--json"]),
    "zero-test": (0, ["zero-test", "--expr", "X1 X1^-1 - 1", "--g", "1", "--basepoint", "scalar:1"]),
    "expand": (0, ["expand", "--expr", "X1^-1", "--g", "1", "--basepoint", "scalar:1", "--order", "2"]),
    "eval": (0, ["eval", "--expr", "X1^-1 X2", "--g", "2", "--point", "scalar:2,3"]),
    "bound": (0, ["bound", "--ideal", "CommInv", "--poly", "X1 X2 X3 - X2 X1"]),
    "verify-sohs": (0, ["verify-sohs", "--cert", "{cert}", "--ideal", "T", "--g", "1"]),
    "gram-export": (0, ["gram-export", "--poly", "X1^* X1", "--g", "1", "--d", "1", "--out", "{out}"]),
}

# Runs a snippet in a fresh interpreter, then reports on the last line of
# stderr the snippet's `code`, whether numpy was loaded and which ncrat
# modules were.
_REPORT = """
import json, sys
print(json.dumps({"code": globals().get("code"), "numpy": "numpy" in sys.modules,
                  "modules": sorted(m for m in sys.modules if m.startswith("ncrat"))}),
      file=sys.stderr)
"""


def _fresh(snippet, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncrat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", snippet + _REPORT, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stderr.splitlines()[-1])


def _fresh_cli(argv):
    """Exit code, stdout and import report of one CLI command in a fresh process."""
    proc, report = _fresh("import json, sys, ncrat.cli\n"
                          "code = ncrat.cli.main(json.loads(sys.argv[1]))\n", json.dumps(argv))
    return report["code"], proc.stdout, report


class TestImportBoundary:
    @pytest.mark.parametrize("name", sorted(EXACT_COMMANDS))
    def test_exact_command_leaves_numpy_unloaded(self, tmp_path, name):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"polynomial": "(1 - X1)^*(1 - X1)",
                                    "squares": ["1 - X1"], "remainder": ""}))
        expected, argv = EXACT_COMMANDS[name]
        code, _, report = _fresh_cli([a.format(cert=cert, out=tmp_path / "problem.gram") for a in argv])
        assert code == expected
        assert not report["numpy"]

    @pytest.mark.parametrize("argv", [
        ["falsify", "--poly", "X1 X2 - X2 X1", "--g", "2", "--trials", "0", "--seed", "1"],
        ["falsify", "--ideal", "T", "--g", "1", "--poly", "X1", "--trials", "0", "--seed", "1"],
        ["member", "--ideal", "T", "--g", "1", "--poly", "X1", "--witness", "--trials", "0", "--seed", "1"],
    ], ids=["falsify", "falsify-ideal", "member-witness"])
    def test_rejected_search_leaves_numpy_unloaded(self, argv):
        # the library checks the search settings before it imports numpy
        code, out, report = _fresh_cli(argv)
        assert code == 2 and out == ""
        assert not report["numpy"]

    def test_unknown_falsify_mode_leaves_numpy_unloaded(self):
        # the library checks the mode with the other search settings
        _, report = _fresh(
            "from ncrat.errors import SpecError\n"
            "from ncrat.ncpoly import Alphabet\n"
            "from ncrat.ratexpr import parse_poly\n"
            "from ncrat.sampler import SampleDomain, falsify\n"
            "try:\n"
            "    falsify(parse_poly('X1', Alphabet.x(1)), SampleDomain('unitaries', 1), [1], 1, 1, 'x')\n"
            "except SpecError:\n"
            "    code = 2\n"
        )
        assert report["code"] == 2 and not report["numpy"]

    def test_import_ncrat_loads_every_module_but_numpy(self):
        _, report = _fresh("import ncrat\n")
        assert not report["numpy"]
        # the float modules are still imported eagerly, only numpy waits
        assert {"ncrat.sampler", "ncrat.positivity", "ncrat.ideals"} <= set(report["modules"])

    def test_sampling_commands_still_work(self):
        code, out, report = _fresh_cli(["sample", "--domain", "unitaries", "--g", "2",
                                        "--size", "2", "--seed", "5", "--json"])
        assert code == 0 and report["numpy"]
        assert len(json.loads(out)["matrices"]) == 2
        code, out, _ = _fresh_cli(["falsify", "--poly", "X1 X2 - X2 X1", "--domain", "unitaries",
                                   "--g", "2", "--sizes", "1..3", "--seed", "6", "--trials", "40"])
        assert code == 1 and "witness at size 2" in out
