import random
import time
from fractions import Fraction

import pytest

from ncrat.core import ExactMatrix, Scalar
from ncrat.errors import BudgetExceeded, DomainError, NotPolynomial, ParseError, SpecError, UnknownLetter
from ncrat.ncpoly import Alphabet, Letter
from ncrat import realization
from ncrat.ratexpr import (
    EXPR_LEAF_CAP,
    POLY_TERM_CAP,
    Add,
    Const,
    Inv,
    Mul,
    Neg,
    RatExpr,
    Var,
    eval_expression,
    expression_to_poly,
    format_expression,
    height,
    parse_expression,
    parse_poly,
    poly_to_expression,
    star_expression,
    substitute_letters,
)
from ncrat.realization import BasePoint, compile_expression

from conftest import random_invertible

A1 = Alphabet.x(1)
A2 = Alphabet.x(2)


class TestParsing:
    def test_single_inverse(self):
        e = parse_expression("X1^-1", A1)
        assert e.node == Inv(Var(Letter(1)))
        assert e.height() == 1

    def test_commutator_inverse_structure(self):
        e = parse_expression("(X1*X2 - X2*X1)^-1", A2)
        expected = Inv(
            Add(
                (
                    Mul((Var(Letter(1)), Var(Letter(2)))),
                    Neg(Mul((Var(Letter(2)), Var(Letter(1))))),
                )
            )
        )
        assert e.node == expected

    def test_juxtaposition_and_powers(self):
        assert parse_expression("X1 X2", A2) == parse_expression("X1*X2", A2)
        assert parse_expression("X1^3", A2).node == Mul(
            (Var(Letter(1)),) * 3
        )
        assert parse_expression("X1^0", A2).node == Const(Scalar(1))

    def test_star_postfix(self):
        e = parse_expression("(X1*X2)^*", A2)
        assert e.node == Mul((Var(Letter(2, True)), Var(Letter(1, True))))

    def test_scalar_literals(self):
        assert parse_expression("(1/2 + 1i)", A1).node == Const(
            Scalar(Fraction(1, 2), 1)
        )
        assert parse_expression("(-3)", A1).node == Const(Scalar(-3))
        assert parse_expression("(-2i)", A1).node == Const(Scalar(0, -2))
        assert parse_expression("2i", A1).node == Const(Scalar(0, 2))

    def test_errors_carry_offsets(self):
        with pytest.raises(ParseError) as err:
            parse_expression("X1 + $", A1)
        assert err.value.offset == 5
        with pytest.raises(UnknownLetter):
            parse_expression("X7", A2)
        with pytest.raises(ParseError):
            parse_expression("X1^-2", A1)
        with pytest.raises(ParseError):
            parse_expression("X1 X2)", A2)

    @pytest.mark.parametrize("text, offset", [
        ("1/0", 0), ("1/0 X1", 0), ("X1 + 2/0i", 5), ("X1^2/0", 3), ("(1 + 1/0i) X1", 5),
    ])
    def test_zero_denominator_is_a_parse_error(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse_expression(text, A1)
        assert err.value.offset == offset

    @pytest.mark.parametrize("text", ["X1* X2", "X2 X1*\tX2", "(X2 + X1*  X1)"])
    def test_letter_star_before_a_space_is_refused(self, text):
        # a file key reads X1* as X1's adjoint, so text does not read it as a product
        with pytest.raises(ParseError, match=r"write X1\^\* for the adjoint") as err:
            parse_expression(text, A2)
        assert text[err.value.offset] == "*"

    @pytest.mark.parametrize("text", ["X1*X2", "X1 * X2", "X1 *X2", "X1*(X2)", "(X1)* X2"])
    def test_other_product_spellings_parse(self, text):
        assert parse_expression(text, A2).node == Mul((Var(Letter(1)), Var(Letter(2))))

    def test_deep_parentheses_are_a_parse_error(self):
        text = "(" * 1000 + "X1" + ")" * 1000
        with pytest.raises(ParseError) as err:
            parse_expression(text, A1)
        assert 0 < err.value.offset < 1000


def random_node(rng, alphabet, depth):
    """Random trees in the image of the parser (Add/Mul with >= 2 children)."""
    kinds = ["const", "var"] if depth == 0 else ["const", "var", "add", "neg", "mul", "inv"]
    kind = rng.choice(kinds)
    if kind == "const":
        return Const(Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-2, 2)))
    if kind == "var":
        return Var(Letter(rng.randint(1, alphabet.size), rng.random() < 0.3))
    if kind == "neg":
        return Neg(random_node(rng, alphabet, depth - 1))
    if kind == "inv":
        return Inv(random_node(rng, alphabet, depth - 1))
    children = tuple(
        random_node(rng, alphabet, depth - 1) for _ in range(rng.randint(2, 3))
    )
    return Add(children) if kind == "add" else Mul(children)


class TestFormatting:
    def test_fixture_forms(self):
        assert format_expression(RatExpr(A1, Inv(Var(Letter(1))))) == "X1^-1"
        assert format_expression(RatExpr(A1, Const(Scalar(Fraction(1, 2), 1)))) == "(1/2 + 1i)"

    def test_nested_negation_roundtrip(self):
        e = RatExpr(A1, Neg(Neg(Var(Letter(1)))))
        text = format_expression(e)
        assert parse_expression(text, A1) == e

    def test_roundtrip_on_random_trees(self):
        rng = random.Random(500)
        for _ in range(500):
            e = RatExpr(A2, random_node(rng, A2, rng.randint(0, 6)))
            text = format_expression(e)
            again = parse_expression(text, A2)
            assert again == e, text

    def test_documented_example_roundtrip(self):
        alph = Alphabet.xy(2)
        e = parse_expression("X1^-1 * (1 - X2*Y2)", alph)
        assert parse_expression(format_expression(e), alph) == e


class TestEvaluation:
    def test_commutator_inverse_at_matrix_units(self):
        e = parse_expression("(X1*X2 - X2*X1)^-1", A2)
        value = e.eval((ExactMatrix.unit(2, 0, 1), ExactMatrix.unit(2, 1, 0)))
        assert value == ExactMatrix.from_rows([[1, 0], [0, -1]])

    def test_domain_error_with_path(self):
        e = parse_expression("X2*(X1^-1)", A2)
        zero = ExactMatrix.zeros(1, 1)
        one = ExactMatrix.identity(1)
        with pytest.raises(DomainError) as err:
            e.eval((zero, one))
        assert err.value.path == (1,)

    def test_numerically_singular_float_inverse(self):
        # in floats, a smallest singular value at most FLOAT_TOL * max(1,
        # largest) is outside the domain
        import numpy as np

        e = parse_expression("X1^-1", A1)
        for rows in ([[1, 1], [1, 1 + 1e-12]], [[1e12, 0], [0, 1]], [[0, 0], [0, 1]]):
            with pytest.raises(DomainError):
                e.eval((np.array(rows, dtype=complex),))
        for scale in (1e-6, 1e9):
            value = e.eval((scale * np.eye(2, dtype=complex),))
            assert np.allclose(value, np.eye(2) / scale, rtol=1e-12, atol=0)

    def test_inverse_law(self):
        rng = random.Random(42)
        e = parse_expression("X1*X1^-1", A1)
        for n in (1, 2, 3):
            m = random_invertible(rng, n)
            assert e.eval((m,)) == ExactMatrix.identity(n)

    @pytest.mark.parametrize("exact_first", [True, False], ids=["exact-first", "float-first"])
    @pytest.mark.parametrize("f", [parse_poly("X1 X2 + 3", A2), parse_expression("X1 X2^-1 + 3", A2)],
                             ids=["NcPoly", "RatExpr"])
    def test_point_mixing_exact_and_float_rejected(self, f, exact_first):
        import numpy as np

        point = (ExactMatrix.identity(2), np.eye(2))
        with pytest.raises(SpecError, match="mixes exact and float"):
            f.eval(point if exact_first else point[::-1])

    def test_shared_nodes_evaluate_once(self):
        # 64 levels of x + x as a DAG: 65 distinct nodes, 2^65 - 1 as a tree
        node = Var(Letter(1, False))
        for _ in range(64):
            node = Add((node, node))
        assert RatExpr(A1, node).eval((ExactMatrix.identity(1),)) == ExactMatrix.scalar(1, 2**64)


class TestStructure:
    def test_height(self):
        assert height(parse_expression("X1*X2 - 1", A2)) == 0
        assert height(parse_expression("X1^-1", A2)) == 1
        assert height(parse_expression("(X1 + X2^-1)^-1", A2)) == 2

    def test_substitution_resolvent_style(self):
        f = parse_expression("1 - X1^**X1", A1)
        r = parse_expression("X1^-1", A1)
        out = substitute_letters(f, {Letter(1, True): r})
        rng = random.Random(6)
        for n in (1, 2):
            m = random_invertible(rng, n)
            assert out.eval((m,)).is_zero()

    def test_substitution_identity_and_composition(self):
        e = parse_expression("X1*X2 - X2", A2)
        same = substitute_letters(e, {Letter(1): Var(Letter(1)), Letter(2): Var(Letter(2))})
        assert same == e
        double = substitute_letters(
            substitute_letters(RatExpr(A1, Var(Letter(1))), {Letter(1): Inv(Var(Letter(1)))}),
            {Letter(1): Inv(Var(Letter(1)))},
        )
        assert double.node == Inv(Inv(Var(Letter(1))))
        assert height(double) == 2

    def test_substitution_height_bound(self):
        rng = random.Random(8)
        for _ in range(50):
            e = RatExpr(A2, random_node(rng, A2, 4))
            img = {
                Letter(1): random_node(rng, A2, 3),
                Letter(2): random_node(rng, A2, 3),
            }
            out = substitute_letters(e, img)
            max_img = max(height(n) for n in img.values())
            assert height(out) <= height(e) + max_img

    def test_star_rules(self):
        e = parse_expression("X1*X2", A2)
        assert star_expression(e).node == Mul((Var(Letter(2, True)), Var(Letter(1, True))))
        e = parse_expression("X1^-1", A1)
        assert star_expression(e).node == Inv(Var(Letter(1, True)))
        rng = random.Random(9)
        for _ in range(50):
            e = RatExpr(A2, random_node(rng, A2, 4))
            assert star_expression(star_expression(e)) == e

    def test_star_evaluation_compatibility(self):
        rng = random.Random(10)
        e = parse_expression("(1 + X1*X2)^-1 * X1", A2)
        for _ in range(10):
            q = {
                Letter(1): random_invertible(rng, 2),
                Letter(2): random_invertible(rng, 2),
            }
            try:
                lhs = e.eval(q)
            except DomainError:
                continue
            qstar = {l.star: m.conjugate_transpose() for l, m in q.items()}
            rhs = star_expression(e).eval(qstar)
            assert rhs == lhs.conjugate_transpose()


def distinct_nodes(node) -> int:
    seen, stack = set(), [node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
    return len(seen)


def doubling_dag(levels: int) -> RatExpr:
    """levels of x + x: levels + 1 distinct nodes, 2^(levels + 1) - 1 as a tree."""
    node = Var(Letter(1))
    for _ in range(levels):
        node = Add((node, node))
    return RatExpr(A1, node)


class TestDagsAndDepth:
    def test_passes_visit_each_shared_node_once(self):
        dag = doubling_dag(64)
        assert distinct_nodes(dag.node) == 65
        assert dag.letters_used() == {Letter(1)}
        assert height(dag) == 0
        assert distinct_nodes(star_expression(dag).node) == 65
        assert distinct_nodes(substitute_letters(dag, {}).node) == 65
        inverted = substitute_letters(dag, {Letter(1): Inv(Var(Letter(1)))})
        assert distinct_nodes(inverted.node) == 66 and height(inverted) == 1
        assert expression_to_poly(dag) == parse_poly(f"{2**64} X1", A1)

    def test_compile_builds_each_shared_node_once(self, monkeypatch):
        # an automaton has as many states as the tree, so the DAG is small
        # enough to compile, and each level is one sum
        calls = []

        def counting_sum(reps):
            calls.append(len(reps))
            return sum_reps(reps)

        sum_reps = realization._sum
        monkeypatch.setattr(realization, "_sum", counting_sum)
        rep = compile_expression(doubling_dag(12), BasePoint.scalars([1]))
        assert calls == [2] * 12
        assert rep.states == 2**13

    def test_deep_chain_goes_through_every_pass(self):
        node = Var(Letter(1))
        for _ in range(10_000):
            node = Neg(node)
        e = RatExpr(A1, node)
        three = ExactMatrix.scalar(1, 3)
        assert e.letters_used() == {Letter(1)}
        assert height(e) == 0
        assert eval_expression(star_expression(e), (three,)) == three
        substituted = substitute_letters(e, {Letter(1): Inv(Var(Letter(1)))})
        assert height(substituted) == 1
        assert eval_expression(substituted, (three,)) == ExactMatrix.scalar(1, Fraction(1, 3))
        assert expression_to_poly(e) == parse_poly("X1", A1)
        assert compile_expression(e, BasePoint.scalars([3])).states == 2

    def test_deep_inverse_chain_reports_its_path(self):
        # 2,001 inverses of X1 - X1 are singular at the innermost one
        node = Add((Var(Letter(1)), Neg(Var(Letter(1)))))
        for _ in range(2001):
            node = Inv(node)
        with pytest.raises(DomainError) as err:
            eval_expression(RatExpr(A1, node), (ExactMatrix.identity(1),))
        assert err.value.path == (0,) * 2000


class TestPolyConversion:
    def test_inverse_free_matches_poly_eval(self):
        rng = random.Random(16)
        for _ in range(30):
            node = random_node(rng, A2, 3)

            def strip_inv(n):
                if isinstance(n, Inv):
                    return strip_inv(n.child)
                if isinstance(n, (Add, Mul)):
                    cls = type(n)
                    return cls(tuple(strip_inv(c) for c in n.children))
                if isinstance(n, Neg):
                    return Neg(strip_inv(n.child))
                return n

            e = RatExpr(A2, strip_inv(node))
            f = expression_to_poly(e)
            point = {
                Letter(1): random_invertible(rng, 2),
                Letter(2): random_invertible(rng, 2),
            }
            assert e.eval(point) == f.eval(point)

    def test_poly_roundtrip(self):
        f = parse_poly("2 - X1 X2 + 3 X2 X1 X2", A2)
        assert expression_to_poly(poly_to_expression(f)) == f

    def test_not_polynomial(self):
        with pytest.raises(NotPolynomial):
            expression_to_poly(parse_expression("X1^-1", A1))


class TestBudgets:
    @pytest.mark.parametrize("text", [
        "X1^100000000", "X1^1000000000000 - X1^1000000000000", "((X1 X2)^30)^30",
        # each power is under the cap, the expression is not
        "X1^300 X2^300",
    ])
    def test_over_the_leaf_cap_is_refused_before_unfolding(self, text):
        start = time.process_time()
        with pytest.raises(BudgetExceeded, match="EXPR_LEAF_CAP"):
            parse_expression(text, A2)
        assert time.process_time() - start < 1.0

    def test_leaf_cap_is_inclusive(self):
        assert len(parse_expression(f"X1^{EXPR_LEAF_CAP}", A1).node.children) == EXPR_LEAF_CAP
        with pytest.raises(BudgetExceeded):
            parse_expression(f"X1^{EXPR_LEAF_CAP} + 1", A1)

    def test_over_the_term_cap_is_refused_before_expanding(self):
        start = time.process_time()
        with pytest.raises(BudgetExceeded, match="POLY_TERM_CAP"):
            parse_poly("(X1 + X2)^16", A2)
        assert time.process_time() - start < 1.0
        assert len(parse_poly("(X1 + X2)^12", A2).terms) == 4096 == POLY_TERM_CAP
        # an inverse is found before the bound is compared with the cap
        with pytest.raises(NotPolynomial):
            parse_poly("(X1 + X2)^16 X1^-1", A2)

    def test_term_bound_counts_the_words_of_each_degree(self):
        # over one letter there is one word per degree: 2^150 products, 151 words
        assert len(parse_poly("(1 + X1)^150", A1).terms) == 151
