import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import ncrat
from ncrat.cli import main
from ncrat.core import ExactMatrix, Scalar
from ncrat.gram import import_gram
from ncrat.ideals import builtin_ideal
from ncrat.ncpoly import word_count
from ncrat.ratexpr import parse_poly
from ncrat.series import WORD_WALK_CAP


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

    @pytest.mark.parametrize("kind, g, text", [
        ("Tprime", 2, "X1 X2 - X2 X1 + 2 Y1"),
        ("Sprime", 2, "X1 Y2 - Y2 X1"),
        ("Uprime", 2, "X11 X12 - X12 X11"),
        ("CommInv", 3, "X1 X2 - X2 X1"),
    ])
    def test_graph_witness_is_exact(self, kind, g, text):
        # the exact point reloads and checks exactly: every generator
        # vanishes there and f does not
        code, out, _ = run_cli("member", "--ideal", kind, "--g", str(g), "--poly", text,
                               "--witness", "--seed", "3", "--json")
        assert code == 1
        witness = json.loads(out)["witness"]
        point = tuple(ExactMatrix.from_json(m) for m in witness["exact_point"])
        assert [[float(x.re), float(x.im)] for p in point for x in p.entries] == \
            [e for m in witness["point"] for e in m["entries"]]
        ideal = builtin_ideal(kind, g)
        assert all(f.eval(point).is_zero() for f in ideal.generators)
        assert not parse_poly(text, ideal.alphabet).eval(point).is_zero()

    @pytest.mark.parametrize("argv, found", [
        (["falsify", "--ideal", "CommInv", "--sizes", "2",
          "--poly", "1/1000000000000000 X1 X2 - 1/1000000000000000 X2 X1"], "size 2, trial 0"),
        (["member", "--ideal", "CommInv", "--witness",
          "--poly", "1/1000000000000 X1 X2 - 1/1000000000000 X2 X1"], "size 2, trial 0"),
        (["member", "--ideal", "Tprime", "--g", "1", "--witness",
          "--poly", "1/1000000000000 X1"], "size 1, trial 0"),
    ], ids=["falsify-CommInv", "member-CommInv", "member-Tprime"])
    def test_small_exact_value_is_a_witness(self, argv, found):
        # an exact value is a witness when it is nonzero, however far
        # below the float tolerance its modulus lies, and its text line
        # gives the largest entry exactly, not a float modulus or score
        code, out, _ = run_cli(*argv, "--seed", "1")
        assert code == 1 and f"witness at {found}, largest entry = " in out
        assert "00000000000" in out and "score" not in out and "|value|" not in out

    def test_exact_value_survives_float_underflow(self):
        # 1/10^400 is below the float range: the score and the float value
        # read zero, and exact_value keeps the witness checkable
        poly = f"1/{10 ** 400} X1"
        code, out, _ = run_cli("member", "--ideal", "Tprime", "--g", "1", "--poly", poly,
                               "--witness", "--seed", "1", "--json")
        assert code == 1
        witness = json.loads(out)["witness"]
        assert witness["score"] == 0.0 and witness["value"]["entries"] == [[0.0, 0.0]]
        value = ExactMatrix.from_json(witness["exact_value"])
        assert not value.is_zero()
        point = tuple(ExactMatrix.from_json(m) for m in witness["exact_point"])
        ideal = builtin_ideal("Tprime", 1)
        assert value == parse_poly(poly, ideal.alphabet).eval(point)

    def test_exact_value_prints_exactly(self):
        # the text line gives the largest entry of an exact value as an
        # exact Scalar, where the float modulus would read 0
        poly = f"1/{10 ** 400} X1"
        argv = ("member", "--ideal", "Tprime", "--g", "1", "--poly", poly, "--witness", "--seed", "1")
        code, out, _ = run_cli(*argv)
        assert code == 1
        value = ExactMatrix.from_json(json.loads(run_cli(*argv, "--json")[1])["witness"]["exact_value"])
        (entry,) = value.entries
        assert entry and f"witness at size 1, trial 0, largest entry = {entry}\n" in out
        assert "|value|" not in out and f"/{10 ** 400}" in str(entry)

    @pytest.mark.parametrize("argv, kind", [
        (["member", "--ideal", "Tprime", "--g", "1", "--poly", f"{10 ** 400} X1", "--witness"], "Tprime"),
        (["falsify", "--ideal", "T", "--g", "1", "--poly", f"{10 ** 400} X1", "--sizes", "1"], "T"),
    ], ids=["member", "falsify"])
    def test_exact_value_above_the_float_range(self, argv, kind):
        # the floats of the value are infinite: the text line prints the
        # exact largest entry, and --json stays strict JSON, with the
        # float parts that are not finite as null
        code, out, err = run_cli(*argv, "--seed", "1")
        assert code == 1 and err == ""
        code, js, err = run_cli(*argv, "--seed", "1", "--json")
        assert code == 1 and err == ""

        def no_constants(name):
            raise ValueError(f"{name} is not JSON")

        witness = json.loads(js, parse_constant=no_constants)["witness"]
        assert witness["score"] is None
        value = ExactMatrix.from_json(witness["exact_value"])
        entry = max(value.entries, key=lambda x: x.re * x.re + x.im * x.im)
        assert f"witness at size 1, trial 0, largest entry = {entry}\n" in out
        assert None in witness["value"]["entries"][0]
        point = tuple(ExactMatrix.from_json(m) for m in witness["exact_point"])
        ideal = builtin_ideal(kind, 1)
        assert value == parse_poly(f"{10 ** 400} X1", ideal.alphabet).eval(point)

    @pytest.mark.parametrize("witness", [[], ["--witness", "--seed", "1"]], ids=["verdict", "witness"])
    @pytest.mark.parametrize("poly", ["1 - X1 X1^*", "X1 X2 - X2 X1"], ids=["member", "non-member"])
    def test_trials_below_one_are_refused(self, poly, witness):
        # the verdict takes no trials, but member refuses them with or
        # without a search, through sampler.check_search
        code, out, err = run_cli("member", "--ideal", "T", "--g", "2", "--poly", poly,
                                 "--trials", "0", *witness)
        assert (code, out, err) == (2, "", "error: trials must be at least 1, got 0\n")

    def test_star_witness_is_exact(self):
        code, out, _ = run_cli("member", "--ideal", "T", "--g", "2", "--poly", "X1 X2 - X2 X1",
                               "--witness", "--seed", "4", "--json")
        assert code == 1
        witness = json.loads(out)["witness"]
        assert "exact_point" in witness and "exact_value" in witness

    @pytest.mark.parametrize("kind, g, text", [
        ("T", 1, "X1 + X1^*"),
        ("T", 2, "X1 X2 - X2 X1"),
        ("S", 2, "X1 X1^* + X2 X2^* - 1"),
        ("S", 3, "X1 X2^* - X2^* X1"),
        ("U", 1, "X11 - 1"),
        ("U", 2, "X11 X22 - X22 X11"),
    ])
    def test_star_witness_round_trip(self, kind, g, text):
        # the exact point reloads from JSON and checks on its own: it is a
        # *-tuple on which every generator vanishes exactly, and f's
        # value there is exact_value, which is not zero
        code, out, _ = run_cli("member", "--ideal", kind, "--g", str(g), "--poly", text,
                               "--witness", "--seed", "5", "--json")
        assert code == 1
        witness = json.loads(out)["witness"]
        point = tuple(ExactMatrix.from_json(m) for m in witness["exact_point"])
        ideal = builtin_ideal(kind, g)
        assert all(f.eval(point).is_zero() for f in ideal.generators)
        value = ExactMatrix.from_json(witness["exact_value"])
        assert not value.is_zero()
        assert parse_poly(text, ideal.alphabet).eval(point) == value

    def test_negative_eigenvalue_witness_prints_its_score(self):
        # the score is how far the Hermitian part is from PSD; the largest
        # entry of an exact value says nothing about that
        code, out, _ = run_cli("falsify", "--ideal", "Tprime", "--g", "1", "--poly",
                               "-2 X1 X1 Y1 + X1", "--mode", "negative-eigenvalue", "--seed", "3",
                               "--sizes", "1..2")
        assert code == 1
        assert out.startswith("witness at size 1, trial 0, score ") and "largest entry" not in out
        code, out, _ = run_cli("falsify", "--ideal", "T", "--g", "2", "--poly", "-1 - X1 X2",
                               "--mode", "negative-eigenvalue", "--seed", "3", "--sizes", "1")
        assert code == 1 and ", score " in out and "largest entry" not in out


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

    @pytest.mark.parametrize("command, option, noun", [
        ("zero-test", "--basepoint", "base point"), ("eval", "--point", "point"),
    ])
    @pytest.mark.parametrize("value, cause", [
        ("1/0", "zero denominator in '1/0'"),
        ("", "'' is not a rational number"),
        ("abc", "'abc' is not a rational number"),
        ("1,2/0", "zero denominator in '2/0'"),
    ])
    def test_malformed_scalar_names_the_value_and_cause(self, command, option, noun, value, cause):
        text = "--expr" if command == "zero-test" else "--poly"
        code, out, err = run_cli(command, text, "X1 X2", "--g", "2", option, f"scalar:{value}")
        assert code == 2 and out == ""
        assert err == f"error: malformed {noun} 'scalar:{value}': {cause}\n"

    @pytest.mark.parametrize("value", ["2/3", "-2", "1.5", "1e-3", "+4", "07/014"])
    def test_scalar_forms_read_as_fractions(self, value):
        code, out, _ = run_cli("eval", "--expr", "X1", "--g", "1", "--point", f"scalar:{value}", "--json")
        assert code == 0
        assert json.loads(out)["value"]["entries"] == [Scalar(Fraction(value)).to_json()]

    def test_eval_calls_its_spec_a_point(self):
        code, _, err = run_cli("eval", "--poly", "X1", "--g", "1", "--point", "bogus:1")
        assert code == 2
        assert err == "error: bad point spec 'bogus:1' (use scalar:... or file:...)\n"

    def test_deep_parentheses_are_a_usage_error(self):
        text = "(" * 1000 + "X1" + ")" * 1000
        code, out, err = run_cli("zero-test", "--expr", text, "--g", "1", "--basepoint", "scalar:1")
        assert code == 2 and not out
        assert err.startswith("error: parentheses nested too deeply")

    def test_minimal_dimension_is_n_for_matrix_base_points(self, tmp_path):
        # about (E12, E21), m = 2: the compiled rep has 18 states (n = 9) and
        # the minimized one 6 states, so n = 3 on both sides of the line
        path = tmp_path / "point.json"
        path.write_text(json.dumps([E12, E21]))
        argv = ("zero-test", "--expr", "(X1*X2-X2*X1)^-1", "--g", "2", "--basepoint", f"file:{path}")
        code, out, _ = run_cli(*argv)
        assert code == 1
        assert out == "zero series: False (compiled dimension 9, minimal 3)\n"
        code, out, _ = run_cli(*argv, "--json")
        assert code == 1
        assert json.loads(out) == {"zero": False, "dimension": 9, "minimal_dimension": 3}


def _matrix(rows):
    """Exact-matrix JSON from rows of (re, im) pairs."""
    return {"rows": len(rows), "cols": len(rows[0]),
            "entries": [[str(re), str(im)] for row in rows for re, im in row]}


A_IUNIT = _matrix([[(0, 0), (0, 1)], [(0, 0), (0, 0)]])  # i * E12
E12 = _matrix([[(0, 0), (1, 0)], [(0, 0), (0, 0)]])
E21 = _matrix([[(0, 0), (0, 0)], [(1, 0), (0, 0)]])
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
        # --poly reads a polynomial, as in every other command
        code, out, err = run_cli("eval", "--poly", "X1^-1", "--g", "1", "--point", "scalar:2")
        assert (code, out) == (2, "") and "contains an inverse" in err
        code, out, _ = run_cli("eval", "--poly", "X1 X2 - 2 X2 X1", "--g", "2", "--point", "scalar:1,2")
        assert (code, out) == (0, "value = ExactMatrix([[-2]])\n")

    @pytest.mark.parametrize("text", ["X1*X2", "X1 * X2", "X1 *X2", "X1^* X2"])
    def test_product_spellings(self, text):
        code, out, _ = run_cli("eval", "--expr", text, "--g", "2", "--point", "scalar:2,3")
        assert (code, out) == (0, "value = ExactMatrix([[6]])\n")

    def test_letter_star_before_a_space_is_refused(self):
        # a point file reads the key X1* as X1's adjoint; text does not read X1* X2 as X1 X2
        code, out, err = run_cli("eval", "--expr", "X1* X2", "--g", "2", "--point", "scalar:2,3")
        assert (code, out) == (2, "") and "write X1^* for the adjoint" in err

    def test_basepoint_file_list_form(self, tmp_path):
        # entry k binds X(k+1); a starred letter takes the conjugate transpose
        path = tmp_path / "point.json"
        path.write_text(json.dumps([A_IUNIT, B_UPPER]))
        code, out, _ = run_cli("eval", "--expr", "X2 X1^*", "--g", "2",
                               "--point", f"file:{path}", "--json")
        assert code == 0
        # B (i E12)^* = B (-i E21) = [[-i, 0], [-2i, 0]]
        assert json.loads(out)["value"]["entries"] == [["0", "-1"], ["0", "0"], ["0", "-2"], ["0", "0"]]

    def test_expand_order_over_the_word_cap_is_refused_at_once(self):
        # every one of the sum_{k<=30} 3^k words is nonzero: the walk stops
        # at the cap, and nothing is listed
        start = time.process_time()
        code, out, err = run_cli("expand", "--expr", "(4 - X1 - X2 - X3)^-1", "--g", "3",
                                 "--basepoint", "scalar:0", "--order", "30")
        assert code == 2 and out == "" and "WORD_WALK_CAP" in err
        assert time.process_time() - start < 1.0
        # order 8 walks 9,841 words, under the cap
        assert word_count(3, 8, WORD_WALK_CAP) == 9841 <= WORD_WALK_CAP

    def test_expand_cap_counts_scalar_letters(self, tmp_path):
        # at a 2 x 2 base point X1 has four scalar letters: order 7 walks
        # 4,373 of its 21,845 words, under the cap, and order 10 passes it
        path = tmp_path / "point.json"
        path.write_text(json.dumps([E12]))
        code, out, _ = run_cli("expand", "--expr", "(1 + X1)^-1", "--g", "1",
                               "--basepoint", f"file:{path}", "--order", "7")
        assert code == 0 and "X1_12" in out
        code, out, err = run_cli("expand", "--expr", "(1 + X1)^-1", "--g", "1",
                                 "--basepoint", f"file:{path}", "--order", "10")
        assert code == 2 and out == "" and "over 4 scalar letters" in err

    def test_expand_walks_only_the_words_it_visits(self):
        # the walk prunes every word that no monomial of X1 X2 begins with:
        # it visits 3 words, not sum_{k<=20} 2^k
        code, out, _ = run_cli("expand", "--expr", "X1 X2", "--g", "2",
                               "--basepoint", "scalar:0", "--order", "20")
        assert (code, out) == (0, "dimension 4\n[S, X1*X2] = [X1*X2]\n")

    def test_expand_names_letters_from_the_expression_alphabet(self, tmp_path):
        code, out, _ = run_cli("expand", "--expr", "Y1^-1 + X1", "--g", "1",
                               "--basepoint", "scalar:2", "--order", "2")
        assert code == 0 and "[S, Y1] = [-1/4*Y1]" in out
        # about (E12, E21) the scalar letters of X1 and Y1 are X1_ij and Y1_ij
        path = tmp_path / "point.json"
        path.write_text(json.dumps([E12, E21]))
        code, out, _ = run_cli("expand", "--expr", "(X1*Y1 - Y1*X1)^-1", "--g", "1",
                               "--basepoint", f"file:{path}", "--order", "1")
        assert code == 0 and "Y1_21" in out and "X1_12" in out

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
        # X1* names X1's adjoint as X1^* does
        path.write_text(json.dumps({"X1": _matrix([[(2, 0)]]), "X1*": _matrix([[(5, 0)]])}))
        code, out, _ = run_cli("eval", "--expr", "X1^* - X1", "--g", "1", "--point", f"file:{path}")
        assert (code, out) == (0, "value = ExactMatrix([[3]])\n")


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

    @pytest.mark.parametrize("text", ["0", "X1 - X1"])
    def test_falsify_ideal_takes_the_zero_polynomial(self, text):
        # it vanishes at every size, so its witness size is 1
        code, out, err = run_cli("falsify", "--ideal", "T", "--g", "2", "--poly", text, "--seed", "1")
        assert (code, out, err) == (0, "no witness found\n", "")
        code, _, err = run_cli("bound", "--ideal", "T", "--g", "2", "--poly", text)
        assert code == 2 and "degree of the zero polynomial" in err

    @pytest.mark.parametrize("text, code", [("X1^* X1", 0), ("- X1^* X1", 1)])
    def test_falsify_ideal_honours_mode(self, text, code):
        # X1^* X1 is the identity on unitaries, so it is PSD there
        got, out, _ = run_cli("falsify", "--ideal", "T", "--g", "1", "--poly", text,
                              "--mode", "negative-eigenvalue", "--sizes", "1..2", "--seed", "1")
        assert got == code
        assert ("no witness found" in out) == (code == 0)

    def test_falsify_skips_numerically_singular_inverses(self):
        # X1 Y1 = 1 at every xgn point, so (X1 Y1 - 1)^-1 is defined nowhere
        code, out, _ = run_cli("falsify", "--domain", "xgn", "--g", "1", "--expr", "(X1 Y1 - 1)^-1",
                               "--sizes", "1..2", "--seed", "6", "--trials", "5")
        assert code == 0 and out == "no witness found\n"

    def test_falsify_on_a_vanishing_polynomial_skips_the_search(self):
        # the exact oracle shows that f vanishes on CommInv's zero set, so
        # none of the sizes 1..36 is sampled
        start = time.process_time()
        code, out, _ = run_cli("falsify", "--ideal", "CommInv", "--g", "3",
                               "--poly", "1 - (X1 X2 - X2 X1) X3", "--seed", "3")
        assert code == 0 and out == "no witness found\n"
        assert time.process_time() - start < 1.0

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

    def test_gram_export_over_the_cap_fails_typed(self, tmp_path):
        # 2047 basis words at g = 1, d = 10: refused before any is
        # enumerated, with exit 2 and no file written
        out_path = tmp_path / "problem.gram"
        start = time.process_time()
        code, _, err = run_cli("gram-export", "--poly", "X1", "--g", "1", "--d", "10",
                               "--out", str(out_path))
        assert time.process_time() - start < 1.0
        assert code == 2 and "GRAM_BASIS_CAP" in err and not out_path.exists()


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


ONE = {"rows": 1, "cols": 1, "entries": [["1", "0"]]}
# X1^* is bound apart from X1, which a non-star ideal refuses
NONSTAR_ADJOINT = {
    "g": 2, "generators": ["X2 - X1^* X1"], "resolved": ["X2"], "resolvent": {"X2": "X1^* X1"},
    "basepoint": {"matrices": {"X1": ONE, "X1^*": {"rows": 1, "cols": 1, "entries": [["2", "0"]]}}},
}
SPHERE1 = {
    "g": 1, "star": True, "domain_kind": "spherical", "generators": ["1 - X1^* X1"],
    "resolved": ["X1^*"], "resolvent": {"X1^*": "X1^-1"}, "basepoint": {"matrices": {"X1": ONE}},
}


class TestCustomIdealFile:
    def test_starred_letter_in_a_non_star_ideal_is_refused(self, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(NONSTAR_ADJOINT))
        code, out, err = run_cli("member", "--ideal-file", str(path), "--poly", "X1 - X1^*",
                                 "--witness", "--seed", "1")
        assert (code, out, err) == (2, "", "error: starred letters ['X1^*'] in a non-star ideal\n")

    def test_spherical_spec_at_g1(self, tmp_path):
        # one isometry of a square size is a unitary, so the unitaries bound applies
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(SPHERE1))
        code, out, _ = run_cli("bound", "--ideal-file", str(path), "--poly", "X1 - X1^*")
        assert code == 0 and "membership test size: 2\n" in out
        code, out, _ = run_cli("member", "--ideal-file", str(path), "--poly", "X1 - X1^*",
                               "--witness", "--seed", "1")
        assert code == 1 and "witness at size 1, trial 0, largest entry = 24/37i\n" in out
        code, out, _ = run_cli("member", "--ideal-file", str(path), "--poly", "X1 - X1^*",
                               "--witness", "--seed", "1", "--json")
        witness = json.loads(out)["witness"]
        point = tuple(ExactMatrix.from_json(m) for m in witness["exact_point"])
        value = ExactMatrix.from_json(witness["exact_value"])
        alphabet = builtin_ideal("T", 1).alphabet
        assert code == 1 and parse_poly("1 - X1^* X1", alphabet).eval(point).is_zero()
        assert parse_poly("X1 - X1^*", alphabet).eval(point) == value and not value.is_zero()

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

    @pytest.mark.parametrize("command", [
        ["member", "--witness"],
        ["falsify"],
    ])
    def test_letter_outside_the_decomposition(self, tmp_path, command):
        # X3 is neither bound by the base point nor resolved
        spec = {
            "g": 3, "letters": ["X1", "X2", "X3"], "generators": ["X1 X2 - 1"],
            "resolved": ["X2"], "resolvent": {"X2": "X1^-1"},
            "basepoint": {"matrices": {"X1": {"rows": 1, "cols": 1, "entries": [["1", "0"]]}}},
        }
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(command[0], "--ideal-file", str(path), "--poly", "X1 - 1",
                                 *command[1:], "--seed", "1")
        assert code == 2 and out == ""
        assert "Traceback" not in err
        assert err.startswith("error: letters ['X3'] are neither")


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_cli_lines():
    """The ``ncrat ...`` lines of the first code block under ``## CLI``."""
    with open(README) as fh:
        text = fh.read()
    block = text.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("ncrat ")]


class TestReadmeExamples:
    def test_cli_block_runs(self, tmp_path, monkeypatch):
        # the README's examples, with the files they read
        monkeypatch.chdir(tmp_path)
        (tmp_path / "point.json").write_text(json.dumps(
            [ExactMatrix.unit(2, 0, 1).to_json(), ExactMatrix.unit(2, 1, 0).to_json()]))
        (tmp_path / "cert.json").write_text(json.dumps({"polynomial": "X1^* X1", "squares": ["X1"]}))
        codes = []
        for line in _readme_cli_lines():
            code, _, err = run_cli(*shlex.split(line)[1:])
            assert "Traceback" not in err and "error" not in err, line
            codes.append(code)
        assert codes == [0, 1, 0, 0, 0, 0, 0, 1, 0, 0]


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

    def test_eval_has_no_star_rule_flag(self):
        # the base point binds every starred letter the expression uses, so
        # the evaluation has no star rule left to choose
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                main(["eval", "--expr", "X1 X1^*", "--g", "1", "--point", "scalar:2",
                      "--star-rule", "formal"])
        assert exc.value.code == 2 and "unrecognized arguments: --star-rule" in err.getvalue()

    @pytest.mark.parametrize("argv", [
        ["expand", "--expr", "X1^-1", "--g", "1", "--basepoint", "scalar:1", "--order", "-2"],
        ["gram-export", "--poly", "0", "--g", "1", "--d", "-1", "--out", "{out}"],
    ], ids=["expand", "gram-export"])
    def test_negative_word_length(self, tmp_path, argv):
        path = tmp_path / "gram.txt"
        code, out, err = run_cli(*(a.replace("{out}", str(path)) for a in argv))
        assert code == 2 and err.startswith("error:") and out == ""
        assert not path.exists()

    @pytest.mark.parametrize("poly", ["0", "X1"])
    def test_gram_export_negative_d_names_the_length(self, tmp_path, poly):
        # d is checked before deg(f - q) is compared with 2d
        code, out, err = run_cli("gram-export", "--poly", poly, "--g", "1", "--d", "-1",
                                 "--out", str(tmp_path / "gram.txt"))
        assert (code, out, err) == (2, "", "error: need a word length d >= 0, got -1\n")

    @pytest.mark.parametrize("argv, cap", [
        (["zero-test", "--expr", "X1^1000000000000 - X1^1000000000000", "--g", "1",
          "--basepoint", "scalar:1"], "EXPR_LEAF_CAP"),
        (["member", "--ideal", "T", "--g", "1", "--poly", "X1^100000"], "EXPR_LEAF_CAP"),
        (["member", "--ideal", "T", "--g", "2", "--poly", "(X1 + X2)^16"], "POLY_TERM_CAP"),
    ], ids=["zero-test-leaves", "member-leaves", "member-terms"])
    def test_over_an_expression_cap_is_refused_at_once(self, argv, cap):
        start = time.process_time()
        code, out, err = run_cli(*argv)
        assert time.process_time() - start < 1.0
        assert code == 2 and out == "" and f"(ratexpr.{cap})" in err

    @pytest.mark.parametrize("argv", [
        ["member", "--ideal-file", "{dir}", "--poly", "X1"],
        ["verify-sohs", "--cert", "{dir}", "--ideal", "T", "--g", "1"],
        ["zero-test", "--expr", "X1", "--g", "1", "--basepoint", "file:{dir}"],
        ["gram-export", "--poly", "X1^* X1", "--g", "1", "--d", "1", "--out", "{dir}"],
    ], ids=lambda argv: argv[0])
    def test_directory_path(self, tmp_path, argv):
        # reading or writing a directory is an input error, not a negative
        code, out, err = run_cli(*(a.replace("{dir}", str(tmp_path)) for a in argv))
        assert code == 2 and err.startswith("error:") and out == ""

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

    @pytest.mark.parametrize("argv, expected", [
        (["member", "--ideal", "Tprime", "--g", "2", "--poly", "X1 X2 - X2 X1 + 2 Y1",
          "--witness", "--seed", "1", "--json"], 1),
        (["member", "--ideal", "CommInv", "--g", "3", "--poly", "X1 X2 - X2 X1",
          "--witness", "--seed", "1", "--json"], 1),
        (["falsify", "--ideal", "Tprime", "--g", "2", "--poly", "X1 X2 - X2 X1 + 2 Y1",
          "--seed", "1", "--json"], 1),
        (["falsify", "--ideal", "T", "--g", "1", "--poly", "1 - X1^* X1", "--seed", "1"], 0),
        (["member", "--ideal", "T", "--g", "2", "--poly", "X1 X2 - X2 X1",
          "--witness", "--seed", "1", "--json"], 1),
        (["member", "--ideal", "S", "--g", "2", "--poly", "X1 X1^* + X2 X2^* - 1",
          "--witness", "--seed", "1", "--json"], 1),
        (["member", "--ideal", "U", "--g", "2", "--poly", "X11 X22 - X22 X11",
          "--witness", "--seed", "1", "--json"], 1),
        (["falsify", "--ideal", "S", "--g", "2", "--poly", "X1 X1^* + X2 X2^* - 1",
          "--seed", "1", "--json"], 1),
    ], ids=["member-witness-Tprime", "member-witness-CommInv", "falsify-ideal-Tprime",
            "falsify-ideal-member", "member-witness-T", "member-witness-S", "member-witness-U",
            "falsify-ideal-S"])
    def test_exact_witness_search_leaves_numpy_unloaded(self, argv, expected):
        # graph points and Cayley points are exact, and a vanishing f is
        # never searched
        code, out, report = _fresh_cli(argv)
        assert code == expected
        assert not report["numpy"]
        if expected == 1:
            assert "exact_point" in json.loads(out)["witness"]

    def test_sampling_commands_still_work(self):
        code, out, report = _fresh_cli(["sample", "--domain", "unitaries", "--g", "2",
                                        "--size", "2", "--seed", "5", "--json"])
        assert code == 0 and report["numpy"]
        assert len(json.loads(out)["matrices"]) == 2
        code, out, _ = _fresh_cli(["falsify", "--poly", "X1 X2 - X2 X1", "--domain", "unitaries",
                                   "--g", "2", "--sizes", "1..3", "--seed", "6", "--trials", "40"])
        assert code == 1 and "witness at size 2" in out
