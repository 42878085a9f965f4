import random

import pytest

from ncrat.core import ExactMatrix, Scalar
from ncrat.errors import (
    BasepointMismatch,
    DimensionMismatch,
    DomainError,
    MissingLetter,
    ResolventSingular,
    SingularConstantTerm,
    SpecError,
)
from ncrat.ncpoly import Alphabet, Letter, NcPoly, words_up_to
import ncrat
from ncrat import realization, series
from ncrat.ratexpr import Add, Const, Inv, Mul, RatExpr, Var, format_expression, parse_expression
from ncrat.realization import (
    BasePoint,
    compile_expression,
    is_zero,
    minimize_scalar,
    rep_add,
    rep_const,
    rep_inv,
    rep_mul,
    rep_var,
    scalarize,
)
from ncrat.series import (
    GenPoly,
    coefficient,
    coefficient_table,
    eval_rep,
    is_zero_by_enumeration,
    scalar_alphabet,
)

from conftest import random_invertible
from fraction_closure import reference_word_value

L1, L2 = Letter(1, False), Letter(2, False)
BP1 = BasePoint.scalars([1, 2])
E12 = ExactMatrix.unit(2, 0, 1)
E21 = ExactMatrix.unit(2, 1, 0)
BP2x2 = BasePoint.from_mapping({L1: E12, L2: E21})


def compile_text(text, bp, g=2):
    return compile_expression(parse_expression(text, Alphabet.x(g)), bp)


class TestConstructors:
    def test_const(self):
        one = ExactMatrix.identity(1)
        s = rep_const(one, BP1)
        assert s.dim == 1
        assert coefficient(s, ()).entries[0][0] == NcPoly.constant(
            scalar_alphabet(1, s.letters), 1
        )
        assert coefficient(s, (L1,)).is_zero()
        assert not is_zero(s)
        assert is_zero(rep_const(ExactMatrix.zeros(1, 1), BP1))

    def test_var(self):
        s = rep_var(L1, BP1)
        assert s.dim == 2
        galph = scalar_alphabet(1, s.letters)
        assert coefficient(s, ()).entries[0][0] == NcPoly.constant(galph, 1)
        assert coefficient(s, (L1,)).entries[0][0] == NcPoly.var(galph, 1)
        assert coefficient(s, (L1, L1)).is_zero()
        assert coefficient(s, (L2,)).is_zero()

    def test_var_matrix_point(self):
        s = rep_var(L1, BP2x2)
        c0 = coefficient(s, ()).entries
        assert ExactMatrix.from_rows(
            [[c0[i][j].coeff(()) for j in range(2)] for i in range(2)]
        ) == E12

    def test_empty_base_point_rejected(self):
        with pytest.raises(SpecError, match="at least one letter"):
            BasePoint.from_mapping({})


class TestArithmeticOps:
    def test_dimensions(self):
        s1 = compile_text("X1*X2 - 1", BP1)
        s2 = compile_text("X1^-1", BP1)
        assert rep_add(s1, ExactMatrix.identity(1), s2).dim == s1.dim + s2.dim
        assert rep_mul(s1, s2).dim == s1.dim + s2.dim
        assert rep_inv(s1).dim == s1.dim + 1

    def test_basepoint_mismatch(self):
        with pytest.raises(BasepointMismatch):
            rep_add(rep_var(L1, BP1), ExactMatrix.identity(1), rep_var(L1, BasePoint.scalars([3, 3])))

    def test_add_cancellation(self):
        s = compile_text("X1*X2", BP1)
        assert is_zero(rep_add(s, ExactMatrix.scalar(1, -1), s))

    def test_add_with_zero_weight(self):
        s1 = compile_text("X1 + X2", BP1)
        s2 = compile_text("X1*X1", BP1)
        out = rep_add(s1, ExactMatrix.zeros(1, 1), s2)
        assert coefficient_table(out, 6) == coefficient_table(s1, 6)

    def test_mul_unit_law(self):
        s = compile_text("X1*X2 - X2", BP1)
        unit = rep_const(ExactMatrix.identity(1), BP1)
        assert coefficient_table(rep_mul(unit, s), 6) == coefficient_table(s, 6)

    def test_product_convolution_identity(self):
        rng = random.Random(77)
        pool = ["X1", "X2 - 1", "X1*X2", "2 + X1"]
        for _ in range(10):
            s1 = compile_text(rng.choice(pool), BP1)
            s2 = compile_text(rng.choice(pool), BP1)
            prod = rep_mul(s1, s2)
            t1 = coefficient_table(s1, 2)
            t2 = coefficient_table(s2, 2)
            tp = coefficient_table(prod, 2)
            for w in [(L1, L2), (L1, L1), (L2, L1)]:
                total = Scalar(0)
                for cut in range(3):  # the three splittings u v = w
                    u, v = w[:cut], w[cut:]
                    total = total + t1.get(u, Scalar(0)) * t2.get(v, Scalar(0))
                assert tp.get(w, Scalar(0)) == total

    def test_geometric_series_inverse(self):
        # (1 - X1)^{-1} about 0 has coefficients +1 on every power of Y1
        bp = BasePoint.scalars([0])
        s = compile_expression(parse_expression("1 - X1", 1), bp)
        inv = rep_inv(s)
        table = coefficient_table(inv, 6)
        for k in range(7):
            assert table.get(tuple([Letter(1, False)] * k)) == Scalar(1)

    def test_inverse_recursion(self):
        # [S^{-1}, w] = -sum_{uv=w, v!=w} a^{-1} [S, u] [S^{-1}, v]
        s = compile_text("1 - X1 - 2 X2 + X1*X2", BP1)
        sinv = rep_inv(s)
        a_inv = coefficient(s, ()).entries[0][0].coeff(()).inverse()
        ts = coefficient_table(s, 3)
        ti = coefficient_table(sinv, 3)
        for w in words_up_to((L1, L2), 3):
            if not w:
                continue
            total = Scalar(0)
            for cut in range(len(w)):
                u, v = w[: cut + 1], w[cut + 1 :]
                total = total - a_inv * ts.get(u, Scalar(0)) * ti.get(v, Scalar(0))
            assert ti.get(w, Scalar(0)) == total

    def test_singular_constant_term(self):
        bp = BasePoint.scalars([0])
        s = compile_expression(parse_expression("X1", 1), bp)
        with pytest.raises(SingularConstantTerm):
            rep_inv(s)

    def test_inverse_law(self):
        s = compile_text("X1", BP1)
        prod = rep_mul(s, rep_inv(s))
        assert is_zero(rep_add(prod, ExactMatrix.scalar(1, -1),
                               rep_const(ExactMatrix.identity(1), BP1)))


class TestAddCombination:
    """_add_combination is the one sparse row-times-matrix step."""

    def test_cancelled_entry_loses_its_key(self):
        row = {0: Scalar(1), 1: Scalar(2)}
        out = realization._add_combination(row, {5: Scalar(-1)}, {5: {0: Scalar(1), 2: Scalar(3)}})
        assert out is row and row == {1: Scalar(2), 2: Scalar(-3)}

    def test_index_without_a_row_is_skipped(self):
        rows = {0: {1: Scalar(2)}}
        assert realization._add_combination({}, {0: Scalar(3), 7: Scalar(5)}, rows) == {1: Scalar(6)}
        assert realization._add_combination({}, {7: Scalar(5)}, rows) == {}

    def test_dense_products(self):
        # row @ B for every row of a letter matrix, and u @ C' with rep_inv's
        # C' = [-a^-1 C, a^-1], against ExactMatrix products
        def dense(vec, n):
            return ExactMatrix(1, n, [vec.get(j, Scalar(0)) for j in range(n)])

        def sparse(mat):
            return {j: x for j, x in enumerate(mat.entries) if x}

        s = compile_text("(X1*X2 - X2*X1)^-1 + X1", BP2x2)
        c_prime = rep_inv(s).C
        b_rows, c_rows = realization._rows(s.B), realization._rows(c_prime)
        used = 0
        for a in s.A:
            for row in a.rows.values():
                u = realization._add_combination({}, row, b_rows)
                assert u == sparse(dense(row, s.states) * s.B)
                assert realization._add_combination({}, u, c_rows) == sparse(dense(u, s.m) * c_prime)
                used += bool(u)
        assert used


class TestCompile:
    def test_scalar_inverse_series(self):
        s = compile_text("X1^-1", BasePoint.scalars([1]), g=1)
        assert s.dim == 3
        table = coefficient_table(s, 8)
        for k in range(9):
            w = tuple([Letter(1, False)] * k)
            assert table.get(w) == (Scalar(1) if k % 2 == 0 else Scalar(-1))

    def test_domain_error_path(self):
        with pytest.raises(DomainError) as err:
            compile_text("X2*(X1^-1)", BasePoint.scalars([0, 1]))
        assert err.value.path == (1,)

    def test_shared_subtree_compiles_once(self, monkeypatch):
        # one node object used three times compiles to the same automaton
        # as three separate copies, with a single inverse construction
        sub = Inv(Add((Var(L1), Var(L2))))
        dag = RatExpr(Alphabet.x(2), Mul((sub, Var(L2), Add((sub, Const(Scalar(2)))), sub)))
        tree = parse_expression(format_expression(dag), dag.alphabet)  # one copy per occurrence
        assert tree.node.children[0] is not tree.node.children[3]
        calls = []

        def counting_inv(s):
            calls.append(s)
            return rep_inv(s)

        monkeypatch.setattr(realization, "rep_inv", counting_inv)
        a = compile_expression(dag, BP1)
        assert len(calls) == 1
        b = compile_expression(tree, BP1)
        assert len(calls) == 4
        assert (a.states, a.C, a.B) == (b.states, b.C, b.B)
        assert [x.rows for x in a.A] == [x.rows for x in b.A]
        assert is_zero(rep_add(a, ExactMatrix.scalar(1, -1), b))

    def test_shared_singular_subtree_reports_first_path(self):
        bad = Inv(Var(L1))  # singular at X1 = 0
        dag = RatExpr(Alphabet.x(2), Add((Var(L2), Mul((Var(L2), bad)), bad)))
        for expr in (dag, parse_expression(format_expression(dag), dag.alphabet)):
            with pytest.raises(DomainError) as err:
                compile_expression(expr, BasePoint.scalars([0, 1]))
            assert err.value.path == (1, 1)

    def test_negation_adds_no_states(self):
        assert compile_text("-X1", BP1).dim == compile_text("X1", BP1).dim
        assert is_zero(compile_text("X1 - X1", BP1))

    def test_letter_reps_bind_letters(self):
        alph = Alphabet.xy(1)
        x1, y1 = Letter(1, False), Letter(2, False)
        inverse = parse_expression("X1^-1", alph)
        bp = BasePoint.scalars([2], letters=[x1])
        y_rep = compile_expression(inverse, bp)
        expr = parse_expression("X1 Y1 - 1", alph)
        assert is_zero(compile_expression(expr, bp, {y1: y_rep}))
        assert not is_zero(compile_expression(parse_expression("Y1 X1 - 2", alph), bp, {y1: y_rep}))
        with pytest.raises(MissingLetter):
            compile_expression(expr, bp)
        other = compile_expression(inverse, BasePoint.scalars([3], letters=[x1]))
        with pytest.raises(BasepointMismatch):
            compile_expression(expr, bp, {y1: other})

    def test_commutator_inverse_constant_term(self):
        s = compile_text("(X1*X2 - X2*X1)^-1", BP2x2)
        c0 = coefficient(s, ()).entries
        vals = ExactMatrix.from_rows(
            [[c0[i][j].coeff(()) for j in range(2)] for i in range(2)]
        )
        assert vals == ExactMatrix.from_rows([[1, 0], [0, -1]])


class TestZeroTest:
    def test_inverse_cancellation(self):
        assert is_zero(compile_text("X1*X1^-1 - 1", BP1))

    def test_commutator_not_zero(self):
        assert not is_zero(compile_text("X1*X2 - X2*X1", BP2x2))

    def test_closure_equals_enumeration_small(self):
        reps = [
            rep_var(L1, BP1),
            rep_add(rep_var(L1, BP1), ExactMatrix.scalar(1, -1), rep_var(L1, BP1)),
            rep_const(ExactMatrix.zeros(2, 2), BP2x2),
            rep_var(L2, BP2x2),
        ]
        for rep in reps:
            assert rep.m * rep.dim <= 4
            assert is_zero(rep) == is_zero_by_enumeration(rep)


class TestScalarize:
    def test_m1_identification(self):
        # for m = 1 the scalar letters are the base letters themselves, and
        # the automaton is the representation itself
        s = rep_var(L1, BP1)
        assert scalarize(s) is s
        assert s.states == s.dim == 2
        assert reference_word_value(s, ()) == ExactMatrix.from_rows([[1]])
        assert reference_word_value(s, (0,)) == ExactMatrix.from_rows([[1]])
        assert reference_word_value(s, (1,)).is_zero()
        assert reference_word_value(s, (0, 0)).is_zero()

    def test_state_size(self):
        # a compiled automaton has D = m*n states, and scalar letter
        # slot*m^2 + i*m + j is the (i, j) entry of the base letter: its
        # word values are the coefficients of that letter in the
        # generalized polynomial coefficient()
        s = compile_text("(X1*X2 - X2*X1)^-1", BP2x2)
        assert s.states == s.m * s.dim
        for slot, letter in enumerate(s.letters):
            gp = coefficient(s, (letter,))
            for i in range(2):
                for j in range(2):
                    idx = slot * 4 + i * 2 + j
                    value = reference_word_value(s, (idx,))
                    for r in range(2):
                        for c in range(2):
                            assert gp.entries[r][c].coeff((Letter(idx + 1, False),)) == value[r, c]

    def test_zero_rep(self):
        s = rep_const(ExactMatrix.zeros(2, 2), BP2x2)
        assert all(a.nnz() == 0 for a in s.A)
        assert (s.C * s.B).is_zero()
        assert is_zero(s)
        assert minimize_scalar(s)[1] == 0


class TestEvalRep:
    def test_scalar_inverse(self):
        s = compile_text("X1^-1", BasePoint.scalars([1]), g=1)
        val = eval_rep(s, (ExactMatrix.from_rows([[2]]),))
        assert val == ExactMatrix.from_rows([["1/2"]])

    def test_matrix_point_value(self):
        s = compile_text("(X1*X2 - X2*X1)^-1", BP2x2)
        assert eval_rep(s, (E12, E21)) == ExactMatrix.from_rows([[1, 0], [0, -1]])

    def test_resolvent_singular(self):
        s = compile_text("X1^-1", BasePoint.scalars([1]), g=1)
        with pytest.raises(ResolventSingular):
            eval_rep(s, (ExactMatrix.zeros(1, 1),))

    def test_float_point_rejected(self):
        import numpy as np

        s = compile_text("X1^-1", BasePoint.scalars([1]), g=1)
        with pytest.raises(DimensionMismatch, match="exact matrices only"):
            eval_rep(s, (np.eye(2),))

    def test_agrees_with_tree_evaluation(self):
        rng = random.Random(31)
        exprs = ["X1^-1", "X1*X2 - X2*X1", "(1 + X1*X2)^-1 * X1"]
        hits = 0
        for text in exprs:
            e = parse_expression(text, Alphabet.x(2))
            s = compile_expression(e, BP1)
            for _ in range(20):
                size = rng.choice([1, 2])  # m and 2m for the scalar base point
                point = {L1: random_invertible(rng, size), L2: random_invertible(rng, size)}
                try:
                    direct = e.eval(point)
                except DomainError:
                    continue
                try:
                    via_rep = eval_rep(s, (point[L1], point[L2]))
                except ResolventSingular:
                    continue
                assert via_rep == direct
                hits += 1
        assert hits >= 20

    def test_agreement_about_matrix_base_point(self):
        rng = random.Random(36)
        e = parse_expression("(X1*X2 - X2*X1)^-1", Alphabet.x(2))
        s = compile_expression(e, BP2x2)
        hits = 0
        for _ in range(20):
            size = rng.choice([2, 4])  # m and 2m
            point = {L1: random_invertible(rng, size), L2: random_invertible(rng, size)}
            try:
                direct = e.eval(point)
            except DomainError:
                continue
            try:
                via_rep = eval_rep(s, (point[L1], point[L2]))
            except ResolventSingular:
                continue
            assert via_rep == direct
            hits += 1
        assert hits >= 10


class TestMinimize:
    def test_scalar_inverse_minimal(self):
        s = compile_text("X1^-1", BasePoint.scalars([1]), g=1)
        red, nmin = minimize_scalar(s)
        assert nmin == 1

    def test_zero_series(self):
        s = compile_text("X1*X1^-1 - 1", BP1)
        _, nmin = minimize_scalar(s)
        assert nmin == 0

    def test_coefficients_preserved(self):
        s = compile_text("(1 + X1*X2)^-1", BP1)
        red, nmin = minimize_scalar(s)
        assert nmin <= s.states
        rng = random.Random(32)
        for _ in range(40):
            length = rng.randint(0, 5)
            word = tuple(rng.randrange(len(s.A)) for _ in range(length))
            assert reference_word_value(s, word) == reference_word_value(red, word)

    def test_minimized_rep(self):
        # the minimized automaton is a LinRep about the same base point that
        # realizes the same series with D_min states; a zero series has no
        # states and dimension 1
        s = compile_text("(1 + X1*X2)^-1", BP1)
        small, t = minimize_scalar(s)
        assert small.states == small.dim == t < s.dim
        assert small.basepoint == s.basepoint
        assert is_zero(rep_add(s, ExactMatrix.scalar(1, -1), small))
        for bp in (BP1, BP2x2):
            zero, t = minimize_scalar(compile_text("X1 - X1", bp))
            assert (zero.states, zero.dim, t) == (0, 1, 0)
            assert is_zero(zero)
        inv, t = minimize_scalar(compile_text("(X1*X2 - X2*X1)^-1", BP2x2))
        assert (inv.states, inv.dim, t) == (6, 3, 6)
        # D_min need not be a multiple of m: E11 (Y + p) has 3 states
        odd, t = minimize_scalar(rep_mul(rep_const(ExactMatrix.unit(2, 0, 0), BP2x2), rep_var(L1, BP2x2)))
        assert (odd.states, odd.dim, t) == (3, 2, 3)

    def test_minimized_rep_feeds_every_operation(self):
        # evaluation, coefficients, products and the zero test take a
        # minimized automaton, of any number of states, and give the values
        # of the compiled one
        point = (ExactMatrix.from_rows([[1, 2], [3, 4]]), ExactMatrix.from_rows([[0, 1], [5, 1]]))
        other = compile_text("(1 + X1*X2)^-1", BP2x2)
        e11 = rep_const(ExactMatrix.unit(2, 0, 0), BP2x2)
        for s in (
            rep_mul(e11, compile_text("X1", BP2x2)),
            compile_text("(X1*X2 - X2*X1)^-1", BP2x2),
            compile_text("X1 - X1", BP2x2),
        ):
            small, _ = minimize_scalar(s)
            assert eval_rep(small, point) == eval_rep(s, point)
            for w in words_up_to((L1, L2), 2):
                assert coefficient(small, w) == coefficient(s, w)
            for prod, ref in (
                (rep_mul(small, other), rep_mul(s, other)),
                (rep_mul(other, small), rep_mul(other, s)),
            ):
                assert eval_rep(prod, point) == eval_rep(ref, point)
                assert is_zero(rep_add(prod, ExactMatrix.scalar(2, -1), ref))
            assert is_zero(small) == is_zero(s)

    def test_equivalent_expressions_same_minimum(self):
        # X1 (X2 X1)^{-1} and (X1 X2)^{-1} X1 agree as rational functions
        a = compile_text("X1*(X2*X1)^-1", BP1)
        b = compile_text("(X1*X2)^-1*X1", BP1)
        diff = rep_add(a, ExactMatrix.scalar(1, -1), b)
        assert is_zero(diff)
        _, na = minimize_scalar(a)
        _, nb = minimize_scalar(b)
        assert na == nb


class TestCoefficientLaws:
    def test_additivity_and_words(self):
        rng = random.Random(33)
        pool = ["X1", "X1*X2", "2 - X2", "X1^-1"]
        for _ in range(8):
            s1 = compile_text(rng.choice(pool), BP1)
            s2 = compile_text(rng.choice(pool), BP1)
            a = ExactMatrix.scalar(1, rng.randint(-2, 2))
            s = rep_add(s1, a, s2)
            t, t1, t2 = (coefficient_table(x, 4) for x in (s, s1, s2))
            for w in words_up_to((L1, L2), 4):
                expect = t1.get(w, Scalar(0)) + a.entries[0] * t2.get(w, Scalar(0))
                assert t.get(w, Scalar(0)) == expect


class TestGenPoly:
    def test_eval_blocks(self):
        letters = (L1,)
        galph = scalar_alphabet(2, letters)
        # the generalized polynomial "Y_1" itself: entry (i,j) is letter y_ij
        entries = tuple(
            tuple(NcPoly.var(galph, i * 2 + j + 1) for j in range(2)) for i in range(2)
        )
        gp = GenPoly(2, letters, entries)
        point = ExactMatrix.from_rows(
            [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16]]
        )
        assert gp.eval((point,)) == point

    def test_eval_needs_exact_point(self):
        letters = (L1,)
        entries = ((NcPoly.var(scalar_alphabet(1, letters), 1),),)
        with pytest.raises(DimensionMismatch):
            GenPoly(1, letters, entries).eval(([[1.0, 0.0], [0.0, 1.0]],))

    def test_degree_preserved_under_scalarization(self):
        # scalarization keeps the word-length grading: the coefficient at a
        # word of length k is homogeneous of degree k in the scalar letters
        rng = random.Random(88)
        pool = ["X1*X2*X1", "X1*X2 - X2*X1", "(X1*X2 - X2*X1)^-1"]
        for text in pool:
            s = compile_text(text, BP2x2)
            for _ in range(5):
                w = tuple(rng.choice((L1, L2)) for _ in range(rng.randint(1, 3)))
                gp = coefficient(s, w)
                if gp.is_zero():
                    continue
                assert gp.degree() == len(w)
                for row in gp.entries:
                    for p in row:
                        assert all(len(word) == len(w) for word in p.terms)

    def test_gpi_random_nonvanishing(self):
        rng = random.Random(34)
        letters = (L1, L2)
        galph = scalar_alphabet(2, letters)
        found = 0
        for _ in range(5):
            entries = tuple(
                tuple(
                    NcPoly.monomial(
                        galph,
                        rng.randint(1, 2),
                        tuple(Letter(rng.randint(1, 8), False) for _ in range(rng.randint(0, 3))),
                    )
                    for _ in range(2)
                )
                for _ in range(2)
            )
            gp = GenPoly(2, letters, entries)
            size = 2 * 2  # m * ceil((h+1)/2) with h <= 3
            for _ in range(200):
                point = tuple(
                    ExactMatrix.from_rows(
                        [[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)]
                    )
                    for _ in range(2)
                )
                if not gp.eval(point).is_zero():
                    found += 1
                    break
        assert found == 5


def test_sum_of_bimodule_terms_stays_affine():
    # S = sum_t a_t X1 b_t over many terms: an affine series, so however
    # many terms, its minimal automaton has at most 2m states, it evaluates
    # to sum_t a_t X b_t, and S - S is the zero series
    rng = random.Random(35)
    terms = []
    for _ in range(12):
        a = ExactMatrix(2, 2, [Scalar(rng.randint(-2, 2)) for _ in range(4)])
        b = ExactMatrix(2, 2, [Scalar(rng.randint(-2, 2)) for _ in range(4)])
        terms.append((a, b))
    s = rep_const(ExactMatrix.zeros(2, 2), BP2x2)
    for a, b in terms:
        term = rep_mul(rep_mul(rep_const(a, BP2x2), rep_var(L1, BP2x2)), rep_const(b, BP2x2))
        s = rep_add(s, ExactMatrix.identity(2), term)
    assert minimize_scalar(s)[1] <= 4
    for _ in range(3):
        x = random_invertible(rng, 2)
        expect = ExactMatrix.zeros(2, 2)
        for a, b in terms:
            expect = expect + a * x * b
        assert eval_rep(s, (x, E21)) == expect
    assert is_zero(rep_add(s, ExactMatrix.scalar(2, -1), s))


class TestLayout:
    def test_traced_functions_and_moved_exports(self):
        # perfbench's layer tracer looks these up in ncrat.realization by
        # name, and drops the metric of a function that has left the module
        for name in ("compile_expression", "scalarize", "scalar_rep_is_zero", "minimize_scalar"):
            assert callable(getattr(realization, name, None)), name
        # the series readers live in ncrat.series, and the package still
        # exports them
        for name in ("coefficient", "eval_rep", "GenPoly"):
            assert getattr(ncrat, name) is getattr(series, name), name
