import json
import random
import time

import pytest

from ncrat.core import ExactMatrix, Scalar
from ncrat.acceptance import comminv_resolvent_rep, sprime_resolvent_rep
from ncrat.errors import (
    AlphabetMismatch,
    BudgetExceeded,
    DomainError,
    GOutOfRange,
    ResolventNotVanishing,
    SpecError,
)
from ncrat import ideals
from ncrat.ideals import (
    BUILTIN_KINDS,
    UNITARY_G_CAP,
    RRIdeal,
    builtin_ideal,
    custom_ideal,
    is_member,
    random_ideal_element,
    substitute_resolvent,
    symbolic_matrix_inverse,
    witness_size,
    zero_set_sampler,
)
from ncrat.ncpoly import Alphabet, Letter, NcPoly, words_up_to
from ncrat.ratexpr import (
    Add, Const, Inv, Mul, Neg, RatExpr, Var, eval_expression, format_expression, parse_poly,
)
from ncrat.realization import BasePoint, compile_expression, is_zero
from ncrat.series import coefficient, coefficient_table, coefficients
from ncrat.sampler import falsify


class TestBuiltins:
    def test_generator_counts(self):
        assert len(builtin_ideal("T", 2).generators) == 4
        assert len(builtin_ideal("Tprime", 3).generators) == 6
        assert len(builtin_ideal("U", 2).generators) == 8
        assert len(builtin_ideal("Uprime", 2).generators) == 8
        assert len(builtin_ideal("Sprime", 4).generators) == 1
        assert len(builtin_ideal("CommInv", 3).generators) == 1

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            builtin_ideal("Q", 2)

    def test_g_out_of_range(self):
        with pytest.raises(GOutOfRange):
            builtin_ideal("S", 1)
        with pytest.raises(GOutOfRange):
            builtin_ideal("Sprime", 1)
        with pytest.raises(GOutOfRange):
            builtin_ideal("T", 0)

    def test_star_is_derived_from_the_domain_kind(self):
        # a star ideal is one with a structured *-zero set to sample
        assert "star" not in set(RRIdeal.__slots__)
        for kind in BUILTIN_KINDS:
            ideal = builtin_ideal(kind, 3 if kind == "CommInv" else 2)
            assert ideal.star == (kind in ("T", "S", "U")) == (ideal.domain_kind is not None)

    @pytest.mark.parametrize("kind, g", [("Tprime", 0), ("Uprime", 0), ("U", -1), ("U", 10), ("Uprime", 10)])
    def test_g_range_belongs_to_the_constructor_and_the_alphabet(self, kind, g):
        # g >= 1 is checked by the ideal constructor, g <= 9 by the matrix alphabet
        with pytest.raises(GOutOfRange):
            builtin_ideal(kind, g)

    @pytest.mark.parametrize("kind, g", [("U", UNITARY_G_CAP + 1), ("U", 9), ("Uprime", 9)])
    def test_unitary_ideals_above_the_cap_are_refused_at_once(self, kind, g):
        start = time.process_time()
        with pytest.raises(BudgetExceeded, match="UNITARY_G_CAP"):
            builtin_ideal(kind, g)
        assert time.process_time() - start < 1.0

    def test_every_builtin_passes_its_construction_check(self):
        # construction re-runs the graph condition on every generator
        # through the oracle, with the resolvents compiled from their texts
        for kind, g in (
            ("Tprime", 1),
            ("Tprime", 2),
            ("Sprime", 2),
            ("Uprime", 2),
            ("CommInv", 3),
            ("T", 1),
            ("T", 2),
            ("S", 2),
            ("S", 3),
            ("U", 2),
        ):
            ideal = builtin_ideal(kind, g)
            assert ideal.generators

    def test_derived_m_n_and_resolved(self):
        # m, n and the x'' letters are derived from the base point and the
        # resolvent representations; pin them for every built-in with g <= 5,
        # U and Uprime with g <= 4
        assert not set(RRIdeal.__slots__) & {"kind", "m", "n", "resolved"}
        cases = [("CommInv", 3, 2, 3, [Letter(3, False)])]
        for g in (1, 2, 3, 4, 5):
            cells = [(i, j) for i in range(1, g + 1) for j in range(1, g + 1)]
            cases += [
                ("Tprime", g, 1, 1, [Letter(g + j, False) for j in range(1, g + 1)]),
                ("T", g, 1, 1, [Letter(j, True) for j in range(1, g + 1)]),
            ]
            if g <= 4:
                cases += [
                    ("Uprime", g, 1, g, [Letter(g * g + (i - 1) * g + j, False) for i, j in cells]),
                    ("U", g, 1, g, [Letter((i - 1) * g + j, True) for i, j in cells]),
                ]
            if g >= 2:
                cases += [("Sprime", g, 1, g + 1, [Letter(g + 1, False)]),
                          ("S", g, 1, g + 1, [Letter(1, True)])]
        for kind, g, m, n, resolved in cases:
            ideal = builtin_ideal(kind, g)
            assert (ideal.m, ideal.n, list(ideal.resolved)) == (m, n, resolved), (kind, g)

    def test_uprime_5_builds(self):
        # the largest g a test builds, about 4 s CPU
        ideal = builtin_ideal("Uprime", 5)
        cells = [(i, j) for i in range(1, 6) for j in range(1, 6)]
        assert (ideal.m, ideal.n) == (1, 5)
        assert list(ideal.resolved) == [Letter(25 + (i - 1) * 5 + j, False) for i, j in cells]


class TestSymbolicInverse:
    def test_g1(self):
        inv = symbolic_matrix_inverse(1)
        assert format_expression(inv[0][0]) == "X11^-1"

    def test_g2_schur_pattern(self):
        inv = symbolic_matrix_inverse(2)
        assert format_expression(inv[0][0]) == "(X11 - (X12*X22^-1)*X21)^-1"

    def test_defining_property(self):
        # X X^-1 = I and X^-1 X = I, exactly, about the identity
        for g in (1, 2, 3):
            alph = Alphabet.matrix(g)
            inv = symbolic_matrix_inverse(g, alph)
            x = [[Var(Letter((i - 1) * g + j, False)) for j in range(1, g + 1)] for i in range(1, g + 1)]
            bp = BasePoint.from_mapping({
                Letter((i - 1) * g + j, False): ExactMatrix.identity(1) if i == j else ExactMatrix.zeros(1, 1)
                for i in range(1, g + 1)
                for j in range(1, g + 1)
            })
            for left, right in ((x, [[e.node for e in row] for row in inv]),
                                ([[e.node for e in row] for row in inv], x)):
                for i in range(g):
                    for j in range(g):
                        terms = [Mul((left[i][k], right[k][j])) for k in range(g)]
                        if i == j:
                            terms.append(Neg(Const(Scalar(1))))
                        expr = RatExpr(alph, Add(tuple(terms)))
                        assert is_zero(compile_expression(expr, bp)), (g, i, j, left is x)

    def test_inverse_is_a_small_dag(self):
        # two recursions per block step: the off-diagonal blocks use the
        # negative of the bottom-right block instead of a third recursion
        def distinct_nodes(inv):
            seen, stack = set(), [e.node for row in inv for e in row]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(getattr(node, "children", ()))
                    if isinstance(node, (Neg, Inv)):
                        stack.append(node.child)
            return len(seen)

        assert distinct_nodes(symbolic_matrix_inverse(5)) <= 672


class TestSubstitution:
    def test_trig_generator(self):
        T1 = builtin_ideal("T", 1)
        f = parse_poly("1 - X1 X1^*", T1.alphabet)
        expr = substitute_resolvent(f, T1)
        assert "X1^-1" in format_expression(expr)
        assert is_zero(compile_expression(expr, T1.basepoint))

    def test_untouched_letters(self):
        T1 = builtin_ideal("T", 1)
        f = parse_poly("X1", T1.alphabet)
        assert format_expression(substitute_resolvent(f, T1)) == "X1"

    def test_spherical_generator_vanishes(self):
        S2 = builtin_ideal("S", 2)
        expr = substitute_resolvent(S2.generators[0], S2)
        assert is_zero(compile_expression(expr, S2.basepoint))

    def test_alphabet_mismatch(self):
        T1 = builtin_ideal("T", 1)
        with pytest.raises(AlphabetMismatch):
            substitute_resolvent(parse_poly("X1", Alphabet.x(3)), T1)


class TestMembership:
    def test_member_fixtures(self):
        T2 = builtin_ideal("T", 2)
        assert is_member(parse_poly("1 - X1 X1^*", T2.alphabet), T2).member
        assert is_member(parse_poly("X1 X1^* X1 - X1", T2.alphabet), T2).member

    def test_commutator_not_member_with_witness(self):
        T2 = builtin_ideal("T", 2)
        f = parse_poly("X1 X2 - X2 X1", T2.alphabet)
        assert not is_member(f, T2).member
        witness = falsify(f, zero_set_sampler(T2), range(1, witness_size(f, T2) + 1), 200, 99)
        assert witness is not None
        assert witness.size <= witness_size(f, T2) == 4
        # the explicit exact pair: swap and diag(1,-1)
        u1 = ExactMatrix.from_rows([[0, 1], [1, 0]])
        u2 = ExactMatrix.from_rows([[1, 0], [0, -1]])
        assert f.eval((u1, u2)) == ExactMatrix.from_rows([[0, -2], [2, 0]])

    def test_spherical_defect_not_member(self):
        S2 = builtin_ideal("S", 2)
        f = parse_poly("X1 X1^* + X2 X2^* - 1", S2.alphabet)
        assert not is_member(f, S2).member
        assert falsify(f, zero_set_sampler(S2), range(1, witness_size(f, S2) + 1), 200, 5)
        a1, a2 = ExactMatrix.unit(2, 0, 1), ExactMatrix.unit(2, 0, 0)
        star = lambda m: m.conjugate_transpose()
        assert star(a1) * a1 + star(a2) * a2 == ExactMatrix.identity(2)
        assert f.eval((a1, a2)) == ExactMatrix.from_rows([[1, 0], [0, -1]])

    def test_foreign_alphabet_is_rejected(self):
        # same number of letters as Uprime(2), other names: not a question
        # the oracle can answer
        U2 = builtin_ideal("Uprime", 2)
        f = parse_poly("X1 X5 + X2 X7 - 1", Alphabet.x(8))
        with pytest.raises(AlphabetMismatch):
            is_member(f, U2)
        with pytest.raises(AlphabetMismatch):
            U2.oracle_rep(f)

    def test_zero_polynomial_is_member(self):
        T1 = builtin_ideal("T", 1)
        assert is_member(NcPoly.zero(T1.alphabet), T1).member

    def test_ideal_closure(self):
        rng = random.Random(44)
        Tp = builtin_ideal("Tprime", 2)
        alph = Tp.alphabet
        for i in range(5):
            f = random_ideal_element(Tp, seed=300 + i, complexity=(1, 2))
            h = random_ideal_element(Tp, seed=400 + i, complexity=(1, 1))
            a = NcPoly.monomial(alph, Scalar(rng.randint(-2, 2), 1),
                                (Letter(rng.randint(1, 4), False),))
            b = NcPoly.monomial(alph, Scalar(1), (Letter(rng.randint(1, 4), False),))
            assert is_member(a * f * b + h, Tp).member

    def test_oracle_routes_agree(self):
        # the representation-level oracle and the substitute-then-compile
        # route must realize the same series, so verdicts coincide
        for kind, g in (("Tprime", 2), ("Sprime", 2), ("U", 2), ("T", 2)):
            ideal = builtin_ideal(kind, g)
            probes = [random_ideal_element(ideal, seed=s, complexity=(1, 1))
                      for s in (1, 2)]
            names = ideal.alphabet.names
            probes.append(parse_poly(f"{names[0]} {names[1]} - {names[1]} {names[0]}",
                                     ideal.alphabet))
            for f in probes:
                if f.is_zero():
                    continue
                via_reps = is_zero(ideal.oracle_rep(f))
                via_expr = is_zero(
                    compile_expression(substitute_resolvent(f, ideal), ideal.basepoint)
                )
                assert via_reps == via_expr

    def test_star_invariance(self):
        for kind in ("T", "S"):
            ideal = builtin_ideal(kind, 2)
            member = random_ideal_element(ideal, seed=7, complexity=(1, 2))
            non = parse_poly("X1 X2 - X2 X1", ideal.alphabet)
            for f in (member, non):
                if f.is_zero():
                    continue
                assert is_member(f, ideal).member == is_member(f.star(), ideal).member


class TestRandomElements:
    def test_determinism(self):
        Tp = builtin_ideal("Tprime", 2)
        assert random_ideal_element(Tp, seed=5) == random_ideal_element(Tp, seed=5)
        assert random_ideal_element(Tp, seed=5) != random_ideal_element(Tp, seed=6)

    def test_unit_cofactors_yield_a_generator(self):
        Tp = builtin_ideal("Tprime", 2)
        f = random_ideal_element(Tp, seed=1, complexity=(0, 1))
        assert f in Tp.generators

    def test_membership_of_random_elements(self):
        for kind, g in (("Tprime", 2), ("Sprime", 2), ("CommInv", 3), ("T", 2)):
            ideal = builtin_ideal(kind, g)
            for i in range(5):
                f = random_ideal_element(ideal, seed=2000 + i, complexity=(2, 2))
                if not f.is_zero():
                    assert is_member(f, ideal).member


class TestWitnessSize:
    def test_dispatch(self):
        T2 = builtin_ideal("T", 2)
        f = parse_poly("X1 X2 X1^* + X2", T2.alphabet)  # u=3, v=2
        assert witness_size(f, T2) == 6
        C = builtin_ideal("CommInv", 3)
        h = parse_poly("X1 X2 X3 - X2 X1", C.alphabet)  # u=3, v=2
        assert witness_size(h, C) == 36
        S2 = builtin_ideal("S", 2)
        k = parse_poly("X1 X2 X1^* + X2", S2.alphabet)
        assert witness_size(k, S2) == 9
        U2 = builtin_ideal("U", 2)
        p = parse_poly("X11 X12 X21^* + X22", U2.alphabet)
        assert witness_size(p, U2) == 6

    def test_spherical_g1_uses_the_unitaries_bound(self):
        # one isometry of a square size is a unitary
        ideal = custom_ideal(SPHERE1)
        f = parse_poly("X1 - X1^*", ideal.alphabet)
        assert witness_size(f, ideal) == 2 == witness_size(f, builtin_ideal("T", 1))

    def test_constant_uses_the_degree_one_size(self):
        T2 = builtin_ideal("T", 2)
        assert witness_size(NcPoly.constant(T2.alphabet, 3), T2) == 1
        C = builtin_ideal("CommInv", 3)
        one = NcPoly.one(C.alphabet)
        assert witness_size(one, C) == witness_size(parse_poly("X1", C.alphabet), C)


def graph_point_by_letter(ideal, n, seed, trial):
    """zero_set_sampler's point from the same draws, each resolvent evaluated on its own."""
    for attempt in range(20):
        rng = random.Random(f"graph/{seed}/{n}/{trial}/{attempt}")
        binding = {
            l: ExactMatrix(n, n, [Scalar(rng.randint(-3, 3), rng.randint(-3, 3))
                                  for _ in range(n * n)])
            for l in ideal.basepoint.letters
        }
        try:
            for l, expr in ideal.resolvent.items():
                binding[l] = eval_expression(expr, binding)
        except DomainError:
            continue
        return tuple(binding[Letter(i, False)] for i in range(1, ideal.alphabet.size + 1))


class TestZeroSetSampling:
    def test_graph_points_kill_generators(self):
        for kind, g in (("Tprime", 2), ("Sprime", 2), ("CommInv", 3), ("Uprime", 2)):
            ideal = builtin_ideal(kind, g)
            sampler = zero_set_sampler(ideal)
            point = sampler(3, 11, 0)
            for f in ideal.generators:
                value = f.eval(point)
                assert value.is_zero(), ideal.name

    def test_graph_point_evaluates_each_resolvent(self):
        # one walk over the shared DAG of Uprime(3)'s nine resolvents gives
        # the point that evaluating them one by one gives, from the same draws
        ideal = builtin_ideal("Uprime", 3)
        sample = zero_set_sampler(ideal)
        for n in (1, 2):
            for trial in range(4):
                assert sample(n, 9, trial) == graph_point_by_letter(ideal, n, 9, trial)

    def test_star_points_kill_generators(self):
        # exact Cayley points: every generator vanishes exactly (S needs g >= 2)
        for kind, gs in (("T", (1, 2, 3)), ("S", (2, 3)), ("U", (1, 2, 3))):
            for g in gs:
                ideal = builtin_ideal(kind, g)
                sampler = zero_set_sampler(ideal)
                for n in (1, 2, 3):
                    point = sampler(n, 11, 0)
                    assert all(isinstance(p, ExactMatrix) and p.rows == n for p in point)
                    for f in ideal.generators:
                        value = f.eval(point)
                        assert value.is_zero(), (ideal.name, n)

    def test_member_vanishes_numerically(self):
        S2 = builtin_ideal("S", 2)
        f = random_ideal_element(S2, seed=21, complexity=(1, 2))
        sampler = zero_set_sampler(S2)
        for n in (1, 2, 5):
            for trial in range(5):
                value = f.eval(sampler(n, 500, trial))
                assert value.is_zero()

    def test_star_points_are_seeded_per_draw(self):
        # one stdlib stream per (seed, size, trial): the same draw repeats,
        # and the next trial is another point
        sample = zero_set_sampler(builtin_ideal("U", 2))
        assert sample(2, 3, 0) == sample(2, 3, 0)
        assert sample(2, 3, 0) != sample(2, 3, 1)

    def test_witness_search_finds_counterexample(self):
        Tp = builtin_ideal("Tprime", 2)
        f = parse_poly("X1 X2 - X2 X1", Tp.alphabet)
        w = falsify(f, zero_set_sampler(Tp), range(1, 5), 50, 17)
        assert w is not None and w.size >= 2  # commutators vanish at size 1

    def test_comminv_search_draws_once_at_the_empty_size(self):
        # scalars commute, so CommInv has no 1 x 1 points: one failed draw
        # there moves the search on to size 2
        calls = []
        C = builtin_ideal("CommInv", 3)
        sample = zero_set_sampler(C)

        def counted(n, seed, trial):
            calls.append(n)
            return sample(n, seed, trial)

        f = parse_poly("X1 X2 - X2 X1", C.alphabet)
        assert not is_member(f, C).member
        witness = falsify(f, counted, range(1, witness_size(f, C) + 1), 200, 5)
        assert (witness.size, witness.trial) == (2, 0)
        assert calls == [1, 2]

    def test_falsify_never_flags_members(self):
        # soundness of the search itself, without the oracle in front:
        # random members vanish exactly at the Cayley points of a star
        # ideal's *-zero set and at the graph points of the other ideals
        for kind, g, members in (("T", 2, 100), ("S", 2, 100), ("U", 2, 100), ("Tprime", 2, 10),
                                 ("Sprime", 2, 10), ("Uprime", 2, 10), ("CommInv", 3, 10)):
            ideal = builtin_ideal(kind, g)
            sample = zero_set_sampler(ideal)
            for i in range(members):
                f = random_ideal_element(ideal, seed=6000 + i, complexity=(1, 1))
                if f.is_zero():
                    continue
                assert falsify(f, sample, (1, 2, 3), 5, 6000 + i) is None, (ideal.name, i)


ONE_RELATOR = {
    "name": "one-relator",
    "g": 3,
    "generators": ["X1 X2 X3 - X2 X1"],
    "resolved": ["X3"],
    "resolvent": {"X3": "X2^-1 X1^-1 X2 X1"},
    "basepoint": {
        "m": 1,
        "matrices": {
            "X1": {"rows": 1, "cols": 1, "entries": [["1", "0"]]},
            "X2": {"rows": 1, "cols": 1, "entries": [["1", "0"]]},
        },
    },
}


# X2 resolves to the zero series
ZERO_RESOLVENT = {
    "name": "zero-resolvent",
    "g": 2,
    "generators": ["X2"],
    "resolved": ["X2"],
    "resolvent": {"X2": "0"},
    "basepoint": {"m": 1, "matrices": {"X1": {"rows": 1, "cols": 1, "entries": [["1", "0"]]}}},
}


def _unit_json(i, j):
    return ExactMatrix.unit(2, i, j).to_json()


# CommInv's definition written as a spec
COMMINV = {
    "name": "CommInv",
    "g": 3,
    "generators": ["1 - (X1 X2 - X2 X1) X3"],
    "resolved": ["X3"],
    "resolvent": {"X3": "(X1*X2 - X2*X1)^-1"},
    "basepoint": {"m": 2, "matrices": {"X1": _unit_json(0, 1), "X2": _unit_json(1, 0)}},
}


def _one_by_one(value):
    return {"rows": 1, "cols": 1, "entries": [[value, "0"]]}


SPHERE1 = {
    "g": 1, "star": True, "domain_kind": "spherical", "generators": ["1 - X1^* X1"],
    "resolved": ["X1^*"], "resolvent": {"X1^*": "X1^-1"},
    "basepoint": {"matrices": {"X1": _one_by_one("1")}},
}


class TestCustomIdeals:
    def test_one_relator_roundtrip(self, tmp_path):
        path = tmp_path / "one_relator.json"
        path.write_text(json.dumps(ONE_RELATOR))
        ideal = custom_ideal(str(path))
        assert ideal.m == 1 and len(ideal.generators) == 1
        gen = ideal.generators[0]
        assert is_member(gen, ideal).member
        cof = parse_poly("X1", ideal.alphabet)
        assert is_member(cof * gen, ideal).member
        assert not is_member(cof, ideal).member

    def test_overlapping_decomposition_rejected(self):
        spec = json.loads(json.dumps(ONE_RELATOR))
        spec["basepoint"]["matrices"]["X3"] = {
            "rows": 1, "cols": 1, "entries": [["1", "0"]],
        }
        with pytest.raises(SpecError):
            custom_ideal(spec)

    def test_wrong_resolvent_rejected(self):
        spec = json.loads(json.dumps(ONE_RELATOR))
        spec["resolvent"] = {"X3": "X1^-1 X2 X1 X2^-1"}
        with pytest.raises(ResolventNotVanishing):
            custom_ideal(spec)

    def test_base_point_must_bind_the_x_prime_letters(self):
        spec = json.loads(json.dumps(ONE_RELATOR))
        del spec["basepoint"]["matrices"]["X2"]
        with pytest.raises(SpecError, match=r"base point misses x' letters \['X2'\]"):
            custom_ideal(spec)

    def test_resolvent_may_not_use_resolved_letters(self):
        spec = json.loads(json.dumps(ONE_RELATOR))
        spec["resolvent"] = {"X3": "X3 X1"}
        with pytest.raises(SpecError, match=r"resolvent of X3 uses resolved letters \['X3'\]"):
            custom_ideal(spec)

    def test_every_letter_is_in_x_prime_or_resolved(self):
        # X3 is neither: the graph sampler would have no value for it
        spec = {
            "g": 3, "letters": ["X1", "X2", "X3"], "generators": ["X1 X2 - 1"],
            "resolved": ["X2"], "resolvent": {"X2": "X1^-1"},
            "basepoint": {"matrices": {"X1": {"rows": 1, "cols": 1, "entries": [["1", "0"]]}}},
        }
        with pytest.raises(SpecError, match=r"letters \['X3'\] are neither"):
            custom_ideal(spec)

    def test_star_ideal_covers_every_adjoint(self):
        # T(2) written as a spec without X2^*: X2^* is neither in x' nor in x''
        one = {"rows": 1, "cols": 1, "entries": [["1", "0"]]}
        spec = {
            "g": 2, "star": True, "domain_kind": "unitaries",
            "generators": ["1 - X1^* X1", "1 - X1 X1^*"],
            "resolved": ["X1^*"], "resolvent": {"X1^*": "X1^-1"},
            "basepoint": {"matrices": {"X1": one, "X2": one}},
        }
        with pytest.raises(SpecError, match=r"letters \['X2\^\*'\] are neither"):
            custom_ideal(spec)
        spec["basepoint"]["matrices"]["X2^*"] = one
        ideal = custom_ideal(spec)
        assert ideal.resolved == (Letter(1, True),)
        # X1* and X2* name the adjoints as X1^* and X2^* do
        spec.update(resolved=["X1*"], resolvent={"X1*": "X1^-1"})
        spec["basepoint"]["matrices"]["X2*"] = spec["basepoint"]["matrices"].pop("X2^*")
        again = custom_ideal(spec)
        assert (again.n, again.resolved) == (ideal.n, ideal.resolved)
        assert again.basepoint == ideal.basepoint

    def test_star_spec_domain_kind_must_fit_its_generators(self, monkeypatch):
        # T(2) declared spherical: at the size-1 draw 1 - X1^* X1 is 13/58
        one = {"rows": 1, "cols": 1, "entries": [["1", "0"]]}
        spec = {
            "g": 2, "star": True, "domain_kind": "spherical",
            "generators": [f"1 - X{j}^* X{j}" for j in (1, 2)] + [f"1 - X{j} X{j}^*" for j in (1, 2)],
            "resolved": ["X1^*", "X2^*"], "resolvent": {"X1^*": "X1^-1", "X2^*": "X2^-1"},
            "basepoint": {"matrices": {"X1": one, "X2": one}},
        }
        # the check draws from _star_sampler, never from the traced sampler
        monkeypatch.setattr(ideals, "zero_set_sampler", None)
        with pytest.raises(SpecError, match=r"domain_kind 'spherical': generator 1 - X1\^\*\*X1 "):
            custom_ideal(spec)
        spec["domain_kind"] = "unitaries"
        assert custom_ideal(spec).domain_kind == "unitaries"
        # a third letter that a draw of two unitaries does not bind
        spec.update(letters=["X1", "X2", "X3"])
        spec["basepoint"]["matrices"].update(X3=one, **{"X3^*": one})
        with pytest.raises(SpecError, match="unitaries draw at g = 2 does not bind X3"):
            custom_ideal(spec)

    def test_starred_resolvent_letter_needs_a_star_ideal(self):
        spec = json.loads(json.dumps(ONE_RELATOR))
        spec["resolved"] = ["X3^*"]
        spec["resolvent"] = {"X3^*": "X1^-1 X2^-1 X1 X2"}
        with pytest.raises(SpecError, match="starred resolvent letter"):
            custom_ideal(spec)

    @pytest.mark.parametrize("generators, resolvent, starred_point", [
        (["X2 - X1^* X1"], "X1^* X1", True),
        (["X2 - X1 X1 - X1^*"], "X1 X1", False),
        (["X2 - X1 X1"], "X1 X1 + X1^* - X1^*", False),
        (["X2 - X1 X1"], "X1 X1", True),
    ], ids=["everywhere", "generator", "resolvent-text", "base-point"])
    def test_non_star_ideal_has_no_starred_letter(self, generators, resolvent, starred_point):
        # a graph point binds no starred letter, and a search would read
        # X1^* as X1's adjoint, off the zero set
        matrices = {"X1": _one_by_one("1"), **({"X1^*": _one_by_one("2")} if starred_point else {})}
        spec = {"g": 2, "generators": generators, "resolved": ["X2"], "resolvent": {"X2": resolvent},
                "basepoint": {"matrices": matrices}}
        with pytest.raises(SpecError, match=r"starred letters \['X1\^\*'\] in a non-star ideal"):
            custom_ideal(spec)

    def test_comminv_spec_matches_the_builtin(self):
        # the built-in is the same data on the same constructor
        custom, builtin = custom_ideal(COMMINV), builtin_ideal("CommInv", 3)
        assert custom.name == builtin.name and custom.alphabet == builtin.alphabet
        assert [list(f.terms.items()) for f in custom.generators] == \
            [list(f.terms.items()) for f in builtin.generators]
        assert custom.resolvent == builtin.resolvent
        assert custom.basepoint == builtin.basepoint
        assert custom.n == builtin.n == 3
        gen = builtin.generators[0]
        x1 = parse_poly("X1", builtin.alphabet)
        for f, member in ((gen, True), (x1 * gen, True), (x1, False)):
            assert is_member(f, custom).member == is_member(f, builtin).member == member
            assert witness_size(f, custom) == witness_size(f, builtin)

    def test_zero_resolvent_keeps_dimension_one(self):
        ideal = custom_ideal(ZERO_RESOLVENT)
        assert (ideal.m, ideal.n) == (1, 1)
        alph = ideal.alphabet
        for text, member in (("X2", True), ("X1 X2", True), ("X1", False)):
            assert is_member(parse_poly(text, alph), ideal).member == member, text

    def test_resolvent_undefined_at_the_base_point(self):
        spec = json.loads(json.dumps(ONE_RELATOR))
        spec["basepoint"]["matrices"]["X1"]["entries"] = [["0", "0"]]
        with pytest.raises(DomainError) as err:
            custom_ideal(spec)
        assert err.value.path == (1,)  # X1^-1 in X2^-1 X1^-1 X2 X1

    @pytest.mark.parametrize("g", [2, 3])
    def test_sprime_resolvent_is_the_worked_realization(self, g):
        ideal = builtin_ideal("Sprime", g)
        (rep,) = ideal.resolvent_reps.values()
        worked = sprime_resolvent_rep(g, ideal.basepoint)
        assert rep.dim == worked.dim == g + 1
        assert coefficient_table(rep, 6) == coefficient_table(worked, 6)

    def test_sprime_resolvent_coefficients_read_as_the_per_word_loop(self):
        # criterion 2's table of the Sprime(3) resolvent: 19,531 words of
        # five letters to length 6, of which the walk visits 29
        ideal = builtin_ideal("Sprime", 3)
        s = compile_expression(ideal.resolvent[Letter(4, False)], ideal.basepoint)
        loop = [(w, gp) for w in words_up_to(s.letters, 6)
                if not (gp := coefficient(s, w)).is_zero()]
        assert list(coefficients(s, 6).items()) == loop
        table = {w: x for w, gp in loop for x in gp.entries[0][0].terms.values()}
        assert coefficient_table(s, 6) == table
        assert table == coefficient_table(sprime_resolvent_rep(3, ideal.basepoint), 6)

    def test_comminv_resolvent_is_the_worked_realization(self):
        ideal = builtin_ideal("CommInv", 3)
        (rep,) = ideal.resolvent_reps.values()
        worked = comminv_resolvent_rep(ideal.basepoint)
        assert rep.dim == worked.dim == 3
        for w in words_up_to(ideal.basepoint.letters, 4):
            assert coefficient(rep, w) == coefficient(worked, w), w

    def test_malformed_spec(self):
        with pytest.raises(SpecError):
            custom_ideal({"name": "nope", "g": 2})
        # a letter name the parser cannot read is refused at load
        spec = json.loads(json.dumps(ONE_RELATOR))
        spec["letters"] = ["x1", "X2", "X3"]
        with pytest.raises(SpecError, match="'x1'"):
            custom_ideal(spec)

    def test_g_zero_rejected(self):
        spec = json.loads(json.dumps(ONE_RELATOR))
        spec.update(g=0, letters=["X1", "X2", "X3"])
        with pytest.raises(GOutOfRange):
            custom_ideal(spec)
