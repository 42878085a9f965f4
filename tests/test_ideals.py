import json
import random
from dataclasses import fields

import numpy as np
import pytest

from ncrat.core import ExactMatrix, Scalar
from ncrat.acceptance import comminv_resolvent_rep, sprime_resolvent_rep
from ncrat.errors import (
    AlphabetMismatch,
    DomainError,
    GOutOfRange,
    ResolventNotVanishing,
    SpecError,
)
from ncrat.ideals import (
    BUILTIN_KINDS,
    RRIdeal,
    builtin_ideal,
    custom_ideal,
    find_zero_set_witness,
    is_member,
    random_ideal_element,
    substitute_resolvent,
    symbolic_matrix_inverse,
    witness_size,
    zero_set_sampler,
)
from ncrat.ncpoly import Alphabet, Letter, NcPoly, words_up_to
from ncrat.ratexpr import format_expression, parse_poly
from ncrat.realization import coefficient, coefficient_table, compile_expression, is_zero


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
        assert "star" not in {f.name for f in fields(RRIdeal)}
        for kind in BUILTIN_KINDS:
            ideal = builtin_ideal(kind, 3 if kind == "CommInv" else 2)
            assert ideal.star == (kind in ("T", "S", "U")) == (ideal.domain_kind is not None)

    @pytest.mark.parametrize("kind, g", [("Tprime", 0), ("Uprime", 0), ("U", -1), ("U", 10), ("Uprime", 10)])
    def test_g_range_belongs_to_the_constructor_and_the_alphabet(self, kind, g):
        # g >= 1 is checked by the ideal constructor, g <= 9 by the matrix alphabet
        with pytest.raises(GOutOfRange):
            builtin_ideal(kind, g)

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
        assert not {f.name for f in fields(RRIdeal)} & {"kind", "m", "n", "resolved"}
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


class TestSymbolicInverse:
    def test_g1(self):
        inv = symbolic_matrix_inverse(1)
        assert format_expression(inv[0][0]) == "X11^-1"

    def test_g2_schur_pattern(self):
        inv = symbolic_matrix_inverse(2)
        assert format_expression(inv[0][0]) == "(X11 - (X12*X22^-1)*X21)^-1"

    def test_defining_property(self):
        for g in (1, 2):
            alph = Alphabet.matrix(g)
            inv = symbolic_matrix_inverse(g, alph)
            one = ExactMatrix.identity(1)
            zero = ExactMatrix.zeros(1, 1)
            from ncrat.realization import BasePoint

            bp = BasePoint.from_mapping(
                {
                    Letter((i - 1) * g + j, False): (one if i == j else zero)
                    for i in range(1, g + 1)
                    for j in range(1, g + 1)
                }
            )
            from ncrat.ratexpr import Add, Mul, Neg, Const, RatExpr, Var

            for i in range(1, g + 1):
                for j in range(1, g + 1):
                    terms = [
                        Mul((Var(Letter((i - 1) * g + k, False)), inv[k - 1][j - 1].node))
                        for k in range(1, g + 1)
                    ]
                    if i == j:
                        terms.append(Neg(Const(Scalar(1))))
                    expr = RatExpr(alph, Add(tuple(terms)))
                    assert is_zero(compile_expression(expr, bp)), (i, j)


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
        verdict = is_member(f, T2, find_witness=True, seed=99)
        assert not verdict.member
        assert verdict.witness is not None
        assert verdict.witness.size <= witness_size(f, T2) == 4
        # the explicit exact pair: swap and diag(1,-1)
        u1 = ExactMatrix.from_rows([[0, 1], [1, 0]])
        u2 = ExactMatrix.from_rows([[1, 0], [0, -1]])
        assert f.eval((u1, u2)) == ExactMatrix.from_rows([[0, -2], [2, 0]])

    def test_spherical_defect_not_member(self):
        S2 = builtin_ideal("S", 2)
        f = parse_poly("X1 X1^* + X2 X2^* - 1", S2.alphabet)
        verdict = is_member(f, S2, find_witness=True, seed=5)
        assert not verdict.member and verdict.witness is not None
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

    @pytest.mark.parametrize("settings", [
        {"trials": 0}, {"trials": -3}, {"tol": 0.0}, {"tol": float("inf")}, {"tol": float("nan")},
    ], ids=repr)
    @pytest.mark.parametrize("find_witness", [True, False])
    def test_search_settings_are_checked(self, settings, find_witness):
        T2 = builtin_ideal("T", 2)
        f = parse_poly("X1 X2 - X2 X1", T2.alphabet)
        with pytest.raises(SpecError):
            is_member(f, T2, find_witness=find_witness, seed=1, **settings)

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

    def test_constant_uses_the_degree_one_size(self):
        T2 = builtin_ideal("T", 2)
        assert witness_size(NcPoly.constant(T2.alphabet, 3), T2) == 1
        C = builtin_ideal("CommInv", 3)
        one = NcPoly.one(C.alphabet)
        assert witness_size(one, C) == witness_size(parse_poly("X1", C.alphabet), C)


class TestZeroSetSampling:
    def test_graph_points_kill_generators(self):
        for kind, g in (("Tprime", 2), ("Sprime", 2), ("CommInv", 3), ("Uprime", 2)):
            ideal = builtin_ideal(kind, g)
            sampler = zero_set_sampler(ideal)
            point = sampler(3, 11, 0)
            for f in ideal.generators:
                value = f.eval(point, star_rule="formal")
                assert np.max(np.abs(value)) <= 1e-8, ideal.name

    def test_star_points_kill_generators(self):
        for kind in ("T", "S", "U"):
            ideal = builtin_ideal(kind, 2)
            sampler = zero_set_sampler(ideal)
            point = sampler(4, 11, 0)
            for f in ideal.generators:
                value = f.eval(point, star_rule="adjoint")
                assert np.max(np.abs(value)) <= 1e-10, ideal.name

    def test_member_vanishes_numerically(self):
        S2 = builtin_ideal("S", 2)
        f = random_ideal_element(S2, seed=21, complexity=(1, 2))
        sampler = zero_set_sampler(S2)
        for n in (1, 2, 5):
            for trial in range(5):
                value = f.eval(sampler(n, 500, trial), star_rule="adjoint")
                assert np.max(np.abs(value)) <= 1e-10

    def test_witness_search_finds_counterexample(self):
        Tp = builtin_ideal("Tprime", 2)
        f = parse_poly("X1 X2 - X2 X1", Tp.alphabet)
        w = find_zero_set_witness(f, Tp, sizes=range(1, 5), trials=50, seed=17)
        assert w is not None and w.size >= 2  # commutators vanish at size 1

    def test_comminv_search_draws_once_at_the_empty_size(self, monkeypatch):
        # scalars commute, so CommInv has no 1 x 1 points: one failed draw
        # there moves the search on to size 2
        calls = []

        def counting_sampler(ideal):
            sample = zero_set_sampler(ideal)

            def counted(n, seed, trial):
                calls.append(n)
                return sample(n, seed, trial)
            return counted

        monkeypatch.setattr("ncrat.ideals.zero_set_sampler", counting_sampler)
        C = builtin_ideal("CommInv", 3)
        f = parse_poly("X1 X2 - X2 X1", C.alphabet)
        verdict = is_member(f, C, find_witness=True, seed=5)
        assert not verdict.member
        assert (verdict.witness.size, verdict.witness.trial) == (2, 0)
        assert calls == [1, 2]

    def test_falsify_never_flags_members(self):
        # soundness of the numeric search: 100 random members per star ideal
        for kind in ("T", "S", "U"):
            ideal = builtin_ideal(kind, 2)
            for i in range(100):
                f = random_ideal_element(ideal, seed=6000 + i, complexity=(1, 1))
                if f.is_zero():
                    continue
                w = find_zero_set_witness(f, ideal, sizes=(1, 2, 3), trials=5,
                                          seed=6000 + i)
                assert w is None, (ideal.name, i)


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
        with pytest.raises(SpecError, match="base point misses x' letters"):
            custom_ideal(spec)

    def test_starred_resolvent_letter_needs_a_star_ideal(self):
        spec = json.loads(json.dumps(ONE_RELATOR))
        spec["resolved"] = ["X3^*"]
        spec["resolvent"] = {"X3^*": "X1^-1 X2^-1 X1 X2"}
        with pytest.raises(SpecError, match="starred resolvent letter"):
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
        worked = sprime_resolvent_rep(g, ideal.basepoint, ideal.alphabet)
        assert rep.dim == worked.dim == g + 1
        assert coefficient_table(rep, 6) == coefficient_table(worked, 6)

    def test_comminv_resolvent_is_the_worked_realization(self):
        ideal = builtin_ideal("CommInv", 3)
        (rep,) = ideal.resolvent_reps.values()
        worked = comminv_resolvent_rep(ideal.basepoint, ideal.alphabet)
        assert rep.dim == worked.dim == 3
        for w in words_up_to(ideal.basepoint.letters, 4):
            assert coefficient(rep, w) == coefficient(worked, w), w

    def test_malformed_spec(self):
        with pytest.raises(SpecError):
            custom_ideal({"name": "nope", "g": 2})

    def test_g_zero_rejected(self):
        spec = json.loads(json.dumps(ONE_RELATOR))
        spec.update(g=0, letters=["X1", "X2", "X3"])
        with pytest.raises(GOutOfRange):
            custom_ideal(spec)
