import random
import time
from fractions import Fraction

import pytest

from ncrat.core import ExactMatrix, Scalar
from ncrat.errors import (
    AlphabetMismatch, BudgetExceeded, ConditioningFailure, DegreeTooHigh, SpecError,
)
from ncrat.ideals import builtin_ideal, zero_set_sampler
from ncrat.gram import GRAM_BASIS_CAP, export_gram, gram_constraints, import_gram, word_basis
from ncrat.ncpoly import Alphabet, Letter, NcPoly
from ncrat.positivity import SohsCertificate, positivity_probe, verify_certificate
from ncrat.ratexpr import parse_poly
from ncrat.sampler import SampleDomain, sample_point

T1 = builtin_ideal("T", 1)
AL = T1.alphabet


def random_square_poly(rng, alphabet, d):
    f = NcPoly.zero(alphabet)
    basis = word_basis(alphabet, d)
    for _ in range(rng.randint(1, 3)):
        w = rng.choice(basis)
        f = f + NcPoly.monomial(alphabet, Scalar(rng.randint(-2, 2), rng.randint(-1, 1)), w)
    return f


class TestVerifyCertificate:
    def test_single_square(self):
        f = parse_poly("X1^* X1", AL)
        cert = SohsCertificate([parse_poly("X1", AL)], NcPoly.zero(AL))
        assert verify_certificate(f, cert, T1).ok

    def test_generator_combination_via_oracle(self):
        f = parse_poly("2 - X1^*X1 - X1 X1^*", AL)
        res = verify_certificate(f, SohsCertificate([], f), T1)
        assert res.ok and res.remainder_path == "oracle"

    def test_cofactor_path(self):
        f = parse_poly("2 - X1^*X1 - X1 X1^*", AL)
        one = NcPoly.one(AL)
        cert = SohsCertificate([], f, cofactors=((one, 0, one), (one, 1, one)))
        res = verify_certificate(f, cert, T1)
        assert res.ok and res.remainder_path == "cofactors"
        bad = SohsCertificate([], f, cofactors=((one, 0, one),))
        assert not verify_certificate(f, bad, T1).ok

    @pytest.mark.parametrize("j", [2, 5, -1])
    def test_cofactor_generator_index_out_of_range(self, j):
        # T at g = 1 has generators 0 and 1; -1 must not pick the last one
        f = parse_poly("2 - X1^*X1 - X1 X1^*", AL)
        one = NcPoly.one(AL)
        cert = SohsCertificate([], f, cofactors=((one, 0, one), (one, j, one)))
        with pytest.raises(SpecError, match=f"generator {j}"):
            verify_certificate(f, cert, T1)

    def test_other_alphabet_rejected(self):
        f = parse_poly("X1^* X1", AL)
        other = Alphabet.x(2)
        with pytest.raises(AlphabetMismatch):
            verify_certificate(f, SohsCertificate([parse_poly("X1", other)], NcPoly.zero(AL)), T1)
        with pytest.raises(AlphabetMismatch):
            verify_certificate(f, SohsCertificate([parse_poly("X1", AL)], NcPoly.zero(other)), T1)

    def test_expanded_square_pass_fail(self):
        f = parse_poly("(1 - X1)^*(1 - X1)", AL)
        good = SohsCertificate([parse_poly("1 - X1", AL)], NcPoly.zero(AL))
        bad = SohsCertificate([parse_poly("1 + X1", AL)], NcPoly.zero(AL))
        assert verify_certificate(f, good, T1).ok
        assert not verify_certificate(f, bad, T1).ok

    def test_unitary_recombination_invariance(self):
        rng = random.Random(61)
        c, s = Scalar(Fraction(3, 5)), Scalar(Fraction(4, 5))
        for _ in range(10):
            p1 = random_square_poly(rng, AL, 1)
            p2 = random_square_poly(rng, AL, 1)
            f = p1.star() * p1 + p2.star() * p2
            base = SohsCertificate([p1, p2], NcPoly.zero(AL))
            rotated = SohsCertificate(
                [p1.scale(c) + p2.scale(s), p1.scale(-s) + p2.scale(c)],
                NcPoly.zero(AL),
            )
            assert verify_certificate(f, base, T1).ok
            assert verify_certificate(f, rotated, T1).ok


class TestGramProblem:
    def test_matrix_unit_case(self):
        f = parse_poly("X1^* X1", AL)
        problem = gram_constraints(f, 1)
        n = len(problem.basis)
        i1 = problem.basis_index((Letter(1, False),))
        entries = [Scalar(0)] * (n * n)
        entries[i1 * n + i1] = Scalar(1)
        assert problem.check(ExactMatrix(n, n, entries))

    def test_reference_gram_matrix(self):
        f = parse_poly("(1 - X1)^*(1 - X1)", AL)
        problem = gram_constraints(f, 1)
        n = len(problem.basis)
        i0 = problem.basis_index(())
        i1 = problem.basis_index((Letter(1, False),))
        entries = [Scalar(0)] * (n * n)
        entries[i0 * n + i0] = Scalar(1)
        entries[i0 * n + i1] = Scalar(-1)
        entries[i1 * n + i0] = Scalar(-1)
        entries[i1 * n + i1] = Scalar(1)
        G = ExactMatrix(n, n, entries)
        assert problem.check(G)
        # 2x2 principal block is PSD: trace 2, determinant 0
        assert problem.gram_of_squares([parse_poly("1 - X1", AL)]) == G

    def test_negative_constant_is_marked_infeasible(self):
        f = NcPoly.constant(AL, -1)
        problem = gram_constraints(f, 1)
        empty = next(c for c in problem.constraints if c.word == ())
        i0 = problem.basis_index(())
        assert empty.rhs == Scalar(-1)
        assert empty.pairs == ((i0, i0),)  # G[1,1] = -1 kills any PSD G

    def test_gram_correspondence_random(self):
        rng = random.Random(62)
        alph = Alphabet.x(2)
        for _ in range(10):
            squares = [random_square_poly(rng, alph, 2) for _ in range(rng.randint(1, 3))]
            f = NcPoly.zero(alph)
            for p in squares:
                f = f + p.star() * p
            problem = gram_constraints(f, 2)
            assert problem.check(problem.gram_of_squares(squares))

    def test_degree_guard(self):
        f = parse_poly("X1 X1 X1", AL)
        with pytest.raises(DegreeTooHigh):
            gram_constraints(f, 1)

    def test_budget(self):
        # the largest basis under the cap builds; one more degree is
        # refused before the basis is enumerated, however large d is
        f = parse_poly("X1", AL)
        assert len(gram_constraints(f, 7).basis) == 255 <= GRAM_BASIS_CAP
        for d in (8, 30, 10 ** 9):
            start = time.process_time()
            with pytest.raises(BudgetExceeded):
                gram_constraints(f, d)
            assert time.process_time() - start < 1.0

    def test_basis_count(self):
        for g in (1, 2):
            for d in (0, 1, 2):
                alph = Alphabet.x(g)
                expect = sum((2 * g) ** k for k in range(d + 1))
                assert len(word_basis(alph, d)) == expect


class TestExport:
    def test_roundtrip(self, tmp_path):
        f = parse_poly("(1 - X1)^*(1 - X1)", AL)
        problem = gram_constraints(f, 1)
        path = tmp_path / "problem.gram"
        export_gram(problem, str(path))
        again = import_gram(str(path))
        assert again.d == problem.d
        assert again.basis == problem.basis
        assert len(again.constraints) == len(problem.constraints)
        for a, b in zip(problem.constraints, again.constraints):
            assert a.word == b.word and a.pairs == b.pairs and a.rhs == b.rhs
        # a word token X1* reads as X1^* does
        path.write_text(path.read_text().replace("X1^*", "X1*"))
        assert import_gram(str(path)).constraints == again.constraints

    @pytest.mark.parametrize("old, new", [
        ("X1^* -1 0 2 1 X1^* 1 0 X1 1 1 0", "X1^* -1 0 2 1 X1^* 1 0 X1"),
        ("X1^* -1 0 2", "X1^* -1/x 0 2"),
        (" letters 1", ""),
        ("X1X1 0 0 1 X1^* X1 1 0", "X1X1 0 0 1 X1^*X1 X1 1 0"),
        ("letters 1", "letters 2"),
    ], ids=["truncated-line", "bad-rational", "no-letters", "word-outside-basis",
            "letters-not-the-alphabet"])
    def test_malformed_file_is_a_spec_error(self, tmp_path, old, new):
        path = tmp_path / "problem.gram"
        export_gram(gram_constraints(parse_poly("(1 - X1)^*(1 - X1)", AL), 1), str(path))
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(SpecError):
            import_gram(str(path))

    @pytest.mark.parametrize("old, new, match", [
        ("gram-problem d", "gram-problems d", "not a gram-problem file"),
        ("alphabet X1", "alphabets X1", "missing alphabet line"),
        ("X1X1 0 0 1", "X1x 0 0 1", "bad word token in 'X1x'"),
        ("X1X1 0 0 1", "X2 0 0 1", "unknown letter in 'X2'"),
        ("\nX1^*X1^* 0 0 1 X1 X1^* 1 0", "", "constraint count mismatch"),
    ], ids=["first-word", "no-alphabet-line", "bad-word-token", "letter-outside-alphabet",
            "constraint-line-missing"])
    def test_each_refusal_names_its_fault(self, tmp_path, old, new, match):
        path = tmp_path / "problem.gram"
        export_gram(gram_constraints(parse_poly("(1 - X1)^*(1 - X1)", AL), 1), str(path))
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        with pytest.raises(SpecError, match=match):
            import_gram(str(path))

    @pytest.mark.parametrize("head", ["d 0 letters 1 basis 1", "d 1 letters 1 basis 3"])
    def test_alphabet_names_must_be_letter_names(self, tmp_path, head):
        # with no word token to trip on, the name itself is refused
        path = tmp_path / "problem.gram"
        path.write_text(f"gram-problem {head} constraints 0\nalphabet x1\n")
        with pytest.raises(SpecError, match="'x1'"):
            import_gram(str(path))
        path.write_text(f"gram-problem {head} constraints 0\nalphabet X1\n")
        assert import_gram(str(path)).alphabet == Alphabet.x(1)

    def test_wrong_basis_count_fails_before_the_basis_is_built(self, tmp_path):
        # d 16 over one letter has 2^17 - 1 basis words; the header's count
        # is checked before any of them is enumerated
        path = tmp_path / "deep.gram"
        path.write_text("gram-problem d 16 letters 1 basis 3 constraints 0\nalphabet X1\n")
        start = time.process_time()
        with pytest.raises(SpecError, match="basis size mismatch"):
            import_gram(str(path))
        assert time.process_time() - start < 0.05

    def test_basis_over_the_cap_is_refused_first(self, tmp_path):
        # d 30 over one letter with the matching count, 2^31 - 1 words: the
        # count agrees with the header, and the cap refuses it before any
        # word is enumerated
        path = tmp_path / "deep.gram"
        path.write_text(f"gram-problem d 30 letters 1 basis {2 ** 31 - 1} constraints 0\nalphabet X1\n")
        start = time.process_time()
        with pytest.raises(BudgetExceeded, match="GRAM_BASIS_CAP"):
            import_gram(str(path))
        assert time.process_time() - start < 1.0

    def test_header_counts(self, tmp_path):
        f = parse_poly("X1^*X1 + X1 X1^*", AL)
        problem = gram_constraints(f, 2)
        path = tmp_path / "big.gram"
        export_gram(problem, str(path))
        head = path.read_text().splitlines()[0].split()
        assert int(head[head.index("basis") + 1]) == 1 + 2 + 4
        assert int(head[head.index("constraints") + 1]) == len(problem.constraints)

    def test_empty_constraints_only_for_f_equals_q(self):
        f = parse_poly("X1^* X1", AL)
        problem = gram_constraints(f, 1, q=f)
        assert all(c.rhs == Scalar(0) for c in problem.constraints)


class TestProbe:
    def test_square_is_positive(self):
        rep = positivity_probe(parse_poly("X1^* X1", AL),
                               SampleDomain("unitaries", 1), [1, 2, 3], 5, seed=71)
        assert abs(rep.min_eigenvalue - 1.0) <= 1e-9

    def test_identically_zero_on_unitaries(self):
        rep = positivity_probe(parse_poly("2 - X1^*X1 - X1 X1^*", AL),
                               SampleDomain("unitaries", 1), [1, 2, 3], 5, seed=72)
        assert abs(rep.min_eigenvalue) <= 1e-10

    def test_negative(self):
        rep = positivity_probe(parse_poly("- X1^* X1", AL),
                               SampleDomain("unitaries", 1), [2], 5, seed=73)
        assert rep.min_eigenvalue <= -0.99

    @pytest.mark.parametrize("sizes, trials", [([1, 2], 0), ([], 5), ([0, 1], 5)])
    def test_probe_that_cannot_sample_is_rejected(self, sizes, trials):
        with pytest.raises(SpecError):
            positivity_probe(parse_poly("X1^* X1", AL), SampleDomain("unitaries", 1),
                             sizes, trials, seed=75)

    def test_any_sampler(self):
        # a plain callable draws the same points as the SampleDomain it
        # wraps; an exact sampler is judged as falsify judges it
        f = parse_poly("(1 - X1)^*(1 - X1)", AL)
        domain = SampleDomain("unitaries", 1)
        rep = positivity_probe(f, lambda n, seed, trial: sample_point(domain, n, seed, trial),
                               [1, 2, 3], 5, seed=76)
        assert rep == positivity_probe(f, domain, [1, 2, 3], 5, seed=76)
        two = ExactMatrix.scalar(1, 2)
        rep = positivity_probe(parse_poly("- X1^* X1", AL), lambda n, seed, trial: (two,),
                               [1], 3, seed=1)
        assert (rep.min_eigenvalue, rep.size, rep.trial, rep.samples) == (-4.0, 1, 0, 3)

    @pytest.mark.parametrize("order", ["overflow-first", "overflow-last"])
    def test_nan_score_never_hides_a_number(self, order):
        # X1 = 10^200 overflows to a NaN score; X1 = 1 reads -1 in either order
        huge, one = ExactMatrix.scalar(1, 10**200), ExactMatrix.scalar(1, 1)
        points = [huge, one] if order == "overflow-first" else [one, huge]
        rep = positivity_probe(parse_poly("- X1^* X1", AL), lambda n, seed, trial: (points[trial],),
                               [1], 2, seed=1)
        assert (rep.min_eigenvalue, rep.trial, rep.samples) == (-1.0, points.index(one), 2)

    def test_nan_only_when_every_score_is_nan(self):
        huge = ExactMatrix.scalar(1, 10**200)
        rep = positivity_probe(parse_poly("- X1^* X1", AL), lambda n, seed, trial: (huge,),
                               [1], 3, seed=1)
        assert rep.min_eigenvalue != rep.min_eigenvalue
        assert (rep.size, rep.trial, rep.samples) == (1, 0, 3)

    def test_probe_leaves_a_size_without_points(self):
        # scalars commute, so CommInv has no 1 x 1 points: the probe draws
        # its values at size 2, as falsify would
        C = builtin_ideal("CommInv", 3)
        rep = positivity_probe(parse_poly("X1 X2", C.alphabet), zero_set_sampler(C), range(1, 3), 5, 1)
        assert (rep.size, rep.samples) == (2, 5)

    def test_probe_without_any_point_fails_typed(self):
        C = builtin_ideal("CommInv", 3)
        with pytest.raises(ConditioningFailure):
            positivity_probe(parse_poly("X1 X2", C.alphabet), zero_set_sampler(C), range(1, 2), 5, 1)

    def test_certificate_soundness_vs_probe(self):
        fixtures = [
            parse_poly("X1^* X1", AL),
            parse_poly("2 - X1^*X1 - X1 X1^*", AL),
            parse_poly("(1 - X1)^*(1 - X1)", AL),
        ]
        for f in fixtures:
            rep = positivity_probe(f, SampleDomain("unitaries", 1),
                                   range(1, 9), 5, seed=74)
            assert rep.min_eigenvalue >= -1e-8
