"""The acceptance checks behind ``ncrat selftest`` and the test suite.

Each criterion is a callable with no arguments that runs its checks at
their one budget and returns a CriterionResult; ``@_criterion`` registers
it in ALL_CRITERIA.  The checks are assert statements, so under
``python -O`` every criterion fails without running them.  All
randomness is seeded, so every verdict is reproducible.  The paper's
fixtures live here too: the worked realizations, the exact witnesses
and the zero-divisor pair.
"""

from __future__ import annotations

import functools
import random
import sys
import time
from fractions import Fraction

from . import bounds
from .core import ONE, ExactMatrix, Scalar, Value
from .errors import GOutOfRange, SpecError
from .gram import gram_constraints
from .ideals import (
    builtin_ideal,
    is_member,
    random_ideal_element,
    witness_size,
    zero_set_sampler,
)
from .ncpoly import Alphabet, Letter, NcPoly, words_up_to
from .positivity import SohsCertificate, positivity_probe, verify_certificate
from .ratexpr import parse_expression, parse_poly
from .realization import (
    BasePoint,
    LinRep,
    automaton_rep,
    compile_expression,
    is_zero,
    minimize_scalar,
    rep_add,
    rep_const,
    rep_inv,
    rep_mul,
    rep_var,
)
from .series import GenPoly, coefficient, coefficient_table, is_zero_by_enumeration, scalar_alphabet
from .sampler import SampleDomain, _score, draws, falsify


class CriterionResult(Value):
    __slots__ = ("number", "name", "ok", "seconds", "detail")

    def __init__(self, number: int, name: str, ok: bool, seconds: float, detail: str = ""):
        self.number = number
        self.name = name
        self.ok = ok
        self.seconds = seconds
        self.detail = detail

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        msg = f" ({self.detail})" if (self.detail and not self.ok) else ""
        return f"ACCEPTANCE {self.number:2d} {self.name}: {status} [{self.seconds:.2f}s]{msg}"


def _run(number, name, limit, body) -> CriterionResult:
    if sys.flags.optimize:
        # -O strips every assert statement, and with them every check
        return CriterionResult(number, name, False, 0.0, "assert statements are off (python -O)")
    start = time.time()
    try:
        body()
        elapsed = time.time() - start
        if elapsed > limit:
            return CriterionResult(
                number, name, False, elapsed, f"time limit {limit}s exceeded"
            )
        return CriterionResult(number, name, True, elapsed)
    except AssertionError as exc:
        return CriterionResult(number, name, False, time.time() - start, str(exc))


ALL_CRITERIA = []


def _criterion(number: int, name: str, limit: float):
    """Make the decorated body criterion ``number``: a callable of the same
    name that runs it under ``_run`` with time limit ``limit`` seconds,
    appended to ALL_CRITERIA in the order of definition."""
    def register(body):
        @functools.wraps(body)
        def criterion() -> CriterionResult:
            return _run(number, name, limit, body)

        ALL_CRITERIA.append(criterion)
        return criterion

    return register


# -- shared fixtures --------------------------------------------------------

# The paper's worked realizations of the Sprime and CommInv resolvents,
# written down entry by entry; criteria 2 and 3 compare them coefficient by
# coefficient against the compiled expressions.
def _unit_row(n: int, *cols) -> ExactMatrix:
    return ExactMatrix.from_rows([[1 if q in cols else 0 for q in range(n)]])


def sprime_resolvent_rep(g: int, bp: BasePoint) -> LinRep:
    """The (g+1)-dimensional representation of X1^{-1}(1 - sum_{j>=2} X_j Y_j)
    about (1, 0, ..., 0): c = e1, b = e1 + e2, per-letter matrices
    -Y E_11 (Y the shift of X1), -X_j E_{1,j+1} and Y_j E_{j+1,2}."""
    entries = [(Letter(1, False), 0, 0, 0, 0, -1)]
    for j in range(2, g + 1):
        entries.append((Letter(j, False), 0, 0, 0, j, -1))
        entries.append((Letter(g + j, False), 0, 0, j, 1, 1))
    return automaton_rep(bp, _unit_row(g + 1, 0), entries, _unit_row(g + 1, 0, 1).transpose())


def comminv_resolvent_rep(bp: BasePoint) -> LinRep:
    """The dimension-3 representation of (X1 X2 - X2 X1)^{-1} about
    (E12, E21): c = (Q, 0, 0), b = (1, 0, 0)^T with Q = diag(1, -1), and

        A^{Y1} = [[-Y1 P2 Q + P2 Y1 Q, Y1, 0], [0,0,0], [-Y1 Q, 0, 0]]
        A^{Y2} = [[Y2 P1 Q - P1 Y2 Q, 0, -Y2], [-Y2 Q, 0, 0], [0,0,0]]

    A term a Y b in block (p, q) puts a[r, i] b[j, c] at state
    (2p + r, 2q + c) of scalar letter (Y, i, j).
    """
    one = ExactMatrix.identity(2)
    p1 = ExactMatrix.unit(2, 0, 1)
    p2 = ExactMatrix.unit(2, 1, 0)
    q = ExactMatrix.from_rows([[1, 0], [0, -1]])
    l1, l2 = Letter(1, False), Letter(2, False)
    terms = [
        (l1, 0, 0, -one, p2 * q), (l1, 0, 0, p2, q), (l1, 0, 1, one, one), (l1, 2, 0, -one, q),
        (l2, 0, 0, one, p1 * q), (l2, 0, 0, -p1, q), (l2, 0, 2, -one, one), (l2, 1, 0, -one, q),
    ]
    entries = [
        (letter, i, j, 2 * row + r, 2 * col + c, a[r, i] * b[j, c])
        for letter, row, col, a, b in terms
        for i in range(2) for j in range(2) for r in range(2) for c in range(2)
    ]
    C = ExactMatrix.from_rows([[1, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0]])
    B = ExactMatrix.from_rows([[1, 0], [0, 1]] + [[0, 0]] * 4)
    return automaton_rep(bp, C, entries, B)


def exact_unitary_commutator_witness():
    """Exact 2x2 unitaries with a nonzero commutator: the 0/1 swap and
    diag(1, -1); the commutator is [[0, -2], [2, 0]]."""
    u1 = ExactMatrix.from_rows([[0, 1], [1, 0]])
    u2 = ExactMatrix.from_rows([[1, 0], [0, -1]])
    return u1, u2


def exact_spherical_witness():
    """Exact spherical isometry pair (E12, E11): A1^*A1 + A2^*A2 = I while
    X1 X1^* + X2 X2^* - 1 evaluates to diag(1, -1)."""
    return ExactMatrix.unit(2, 0, 1), ExactMatrix.unit(2, 0, 0)


def zero_divisor_witness(m: int, n: int) -> tuple[ExactMatrix, ExactMatrix]:
    """Exact (m+n+1)-sized matrices with B^m A^n != 0, AB = 0 and
    B^{m+1} = 0 = A^{n+1}.

    A is the shift along 1 -> 2 -> ... -> n+1; B shifts n+2 -> ... -> m+n+1
    and wraps m+n+1 -> 1.  For m = 0 the wrap term would break B^{m+1} = 0,
    so B is the zero matrix there.
    """
    if m < 0 or n < 0 or m + n < 1:
        raise SpecError("need m, n >= 0 with m + n >= 1")
    size = m + n + 1
    ae = list(ExactMatrix.zeros(size, size).entries)
    for i in range(1, n + 1):
        ae[(i - 1) * size + i] = ONE
    a = ExactMatrix(size, size, ae)
    b = ExactMatrix.zeros(size, size)
    if m >= 1:
        be = list(b.entries)
        for i in range(n + 2, n + m + 1):
            be[(i - 1) * size + i] = ONE
        be[(size - 1) * size + 0] = ONE
        b = ExactMatrix(size, size, be)
    return a, b


# -- criteria ---------------------------------------------------------------


@_criterion(1, "realization arithmetic dimensions", 1.0)
def criterion_1():
    rng = random.Random(101)
    bp = BasePoint.scalars([1, 2])
    alph = Alphabet.x(2)
    pool = ["X1", "X2", "X1*X2 - 1", "2 + X1", "X1^-1", "(X1 + X2)^-1"]
    reps = [
        compile_expression(parse_expression(t, alph), bp) for t in pool
    ]
    for _ in range(20):
        s1, s2 = rng.choice(reps), rng.choice(reps)
        assert rep_add(s1, ExactMatrix.identity(1), s2).dim == s1.dim + s2.dim
        assert rep_mul(s1, s2).dim == s1.dim + s2.dim
        # every pool expression has an invertible constant term about bp
        s = rng.choice(reps)
        assert rep_inv(s).dim == s.dim + 1


@_criterion(2, "scalar-point realization examples", 10.0)
def criterion_2():
    bp = BasePoint.scalars([1])
    S = compile_expression(parse_expression("X1^-1", 1), bp)
    assert S.dim == 3, "generic compile of X1^-1 should have dimension 3"
    table = coefficient_table(S, 8)
    for k in range(9):
        w = tuple([Letter(1, False)] * k)
        expect = Scalar(1) if k % 2 == 0 else Scalar(-1)
        assert table.get(w) == expect, f"coefficient at Y^{k}"
    _, nmin = minimize_scalar(S)
    assert nmin == 1, f"n_min {nmin} != 1"

    for g in (2, 3):
        ideal = builtin_ideal("Sprime", g)
        r = ideal.resolvent[Letter(g + 1, False)]
        S = compile_expression(r, ideal.basepoint)
        P = sprime_resolvent_rep(g, ideal.basepoint)
        assert coefficient_table(S, 6) == coefficient_table(P, 6), (
            f"S' series mismatch for g={g}"
        )
        _, nmin = minimize_scalar(S)
        assert nmin <= g + 1, f"n_min {nmin} > g+1 for g={g}"


@_criterion(3, "matrix-point realization example", 10.0)
def criterion_3():
    ideal = builtin_ideal("CommInv", 3)
    expr = parse_expression("(X1*X2 - X2*X1)^-1", 2)
    e12 = ExactMatrix.unit(2, 0, 1)
    e21 = ExactMatrix.unit(2, 1, 0)
    bp = BasePoint.from_mapping({Letter(1, False): e12, Letter(2, False): e21})
    S = compile_expression(expr, bp)
    P = comminv_resolvent_rep(bp)
    c0 = coefficient(S, ())
    q = ExactMatrix.from_rows([[1, 0], [0, -1]])
    const = c0.entries
    assert all(
        const[i][j].coeff(()) == q[i, j] and len(const[i][j].terms) <= 1
        for i in range(2)
        for j in range(2)
    ), "[S,1] != diag(1,-1)"
    for w in words_up_to((Letter(1, False), Letter(2, False)), 4):
        assert coefficient(S, w) == coefficient(P, w), f"mismatch at word {w}"
    _, nmin = minimize_scalar(S)
    assert nmin <= 6, f"n_min {nmin} > 6"


@_criterion(4, "zero test vs word enumeration", 60.0)
def criterion_4():
    rng = random.Random(404)
    bp1 = BasePoint.scalars([1, 2])
    e12 = ExactMatrix.unit(2, 0, 1)
    e21 = ExactMatrix.unit(2, 1, 0)
    bp2 = BasePoint.from_mapping({Letter(1, False): e12, Letter(2, False): e21})
    l1, l2 = Letter(1, False), Letter(2, False)

    def instance():
        # random representations with m*dim <= 4, a mix of zero and not
        kind = rng.randrange(6)
        if kind == 0:
            i, j = rng.choice([(l1, l1), (l1, l2), (l2, l2)])
            return rep_add(rep_var(i, bp1), ExactMatrix.scalar(1, -1), rep_var(j, bp1))
        if kind == 1:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            return rep_add(
                rep_const(ExactMatrix.scalar(1, a), bp1),
                ExactMatrix.scalar(1, -1),
                rep_const(ExactMatrix.scalar(1, b), bp1),
            )
        if kind == 2:
            a = rng.randint(-2, 2)
            return rep_mul(
                rep_const(ExactMatrix.scalar(1, a), bp1),
                rep_var(rng.choice([l1, l2]), bp1),
            )
        if kind == 3:
            return compile_expression(parse_expression("X1^-1", 2), bp1)
        if kind == 4:
            return rep_var(rng.choice([l1, l2]), bp2)  # m=2, dim 2
        return rep_const(
            ExactMatrix.scalar(2, rng.randint(-1, 1)), bp2
        )  # m=2, dim 1

    zero_seen = nonzero_seen = 0
    for _ in range(100):
        rep = instance()
        assert rep.m * rep.dim <= 4, "instance outside the desk-scale regime"
        fast, slow = is_zero(rep), is_zero_by_enumeration(rep)
        assert fast == slow, f"closure={fast} enumeration={slow}"
        zero_seen += fast
        nonzero_seen += not fast
    assert zero_seen >= 5 and nonzero_seen >= 5, "degenerate instance mix"


@_criterion(5, "size bound formulas", 5.0)
def criterion_5():
    for u in range(1, 11):
        for v in range(1, 11):
            assert bounds.nss_bound(1, 1, u, v) == u * v
            assert bounds.nss_bound(1, 3, u, v) == -(-3 * u * v // 2)
            assert bounds.nss_bound(2, 3, u, v) == 6 * u * v
            for g in (2, 3, 4):
                assert bounds.nss_bound(1, g + 1, u, v) == -(-(g + 1) * u * v // 2)
                assert bounds.nss_bound(1, g, u, v) == -(-g * u * v // 2)
                assert bounds.star_bound("unitaries", g, u, v) == u * v
                assert bounds.star_bound("spherical", g, u, v) == -(-(g + 1) * u * v // 2)
                assert bounds.star_bound("partitioned", g, u, v) == -(-g * u * v // 2)
                assert bounds.star_bound("partitioned", g, u, v, real_case=True) == 2 * bounds.star_bound("partitioned", g, u, v)
    assert bounds.ri_bound(1, 1) == 1
    assert bounds.ri_bound(2, 3) == 6
    assert bounds.pos_size("unitaries", 1, 2) == 9
    assert bounds.pos_size("spherical", 2, 1) == 5
    assert bounds.pos_size("partitioned", 2, 1) == 9
    assert bounds.star_bound("unitaries", 2, 3, 2) == 6
    try:
        bounds.star_bound("spherical", 1, 1, 1)
        assert False, "spherical g=1 must raise"
    except GOutOfRange:
        pass


_MEMBER_IDEALS = (
    ("Tprime", 2),
    ("Sprime", 2),
    ("Sprime", 3),
    ("Uprime", 2),
    ("CommInv", 3),
    ("T", 2),
    ("S", 2),
    ("U", 2),
)


@_criterion(6, "membership oracle on built-in ideals", 300.0)
def criterion_6():
    for kind, g in _MEMBER_IDEALS:
        ideal = builtin_ideal(kind, g)
        for f in ideal.generators:
            assert is_member(f, ideal).member, f"generator of {ideal.name}"
        for i in range(100):
            f = random_ideal_element(ideal, seed=1000 + i, complexity=(2, 2))
            if f.is_zero():
                continue
            assert is_member(f, ideal).member, f"random element {i} of {ideal.name}"

    # fixed non-members with exact witnesses
    T2 = builtin_ideal("T", 2)
    f = parse_poly("X1*X2 - X2*X1", T2.alphabet)
    assert not is_member(f, T2).member
    assert _zero_set_witness(f, T2, seed=2024) is not None
    u1, u2 = exact_unitary_commutator_witness()
    for u in (u1, u2):
        assert (u * u.conjugate_transpose()) == ExactMatrix.identity(2)
    value = f.eval((u1, u2))
    assert value == ExactMatrix.from_rows([[0, -2], [2, 0]])

    S2 = builtin_ideal("S", 2)
    f = parse_poly("X1*X1^* + X2*X2^* - 1", S2.alphabet)
    assert not is_member(f, S2).member
    assert _zero_set_witness(f, S2, seed=2024) is not None
    a1, a2 = exact_spherical_witness()
    iso = a1.conjugate_transpose() * a1 + a2.conjugate_transpose() * a2
    assert iso == ExactMatrix.identity(2)
    value = f.eval((a1, a2))
    assert value == ExactMatrix.from_rows([[1, 0], [0, -1]])


def _zero_set_witness(f, ideal, seed):
    """The witness search that follows a non-member verdict: exact points
    of the zero set at the sizes up to witness_size, 200 trials each."""
    return falsify(f, zero_set_sampler(ideal), range(1, witness_size(f, ideal) + 1), 200, seed)


def _small_star_members(ideal, count, seed):
    rng = random.Random(seed)
    alph = ideal.alphabet
    scalars = [Scalar(2), Scalar(-1), Scalar(0, 1), Scalar(Fraction(1, 2))]
    out = []
    guard = 0
    while len(out) < count and guard < 20000:
        guard += 1
        mode = rng.randrange(3)
        gen = rng.choice(ideal.generators)
        if mode == 0:
            f = gen.scale(rng.choice(scalars))
        elif mode == 1:
            f = gen + rng.choice(ideal.generators).scale(rng.choice(scalars))
        else:
            l = Letter(rng.randint(1, alph.size), rng.random() < 0.5)
            mono = NcPoly.monomial(alph, rng.choice(scalars), (l,))
            f = mono * gen if rng.random() < 0.5 else gen * mono
        if f.is_zero():
            continue
        if witness_size(f, ideal) <= 12:
            out.append(f)
    assert len(out) == count, "could not build enough small members"
    return out


@_criterion(7, "numeric vanishing consistency", 300.0)
def criterion_7():
    for kind, g in (("T", 2), ("S", 2), ("U", 2)):
        ideal = builtin_ideal(kind, g)
        # the float samplers of the *-zero sets; the witness searches
        # below draw exact points
        sampler = ideal.domain
        for i, f in enumerate(_small_star_members(ideal, 20, seed=7000 + g)):
            sizes = range(1, witness_size(f, ideal) + 1)
            for *_, value in draws(f, sampler, sizes, 50, 9000 + i):
                # a NaN residual fails too
                residual = _score(value, "nonzero")
                assert residual <= 1e-10, f"{ideal.name} member {i}: residual {residual}"

    T2 = builtin_ideal("T", 2)
    f = parse_poly("X1*X2 - X2*X1", T2.alphabet)
    assert not is_member(f, T2).member
    w = _zero_set_witness(f, T2, seed=4242)
    assert w is not None and w.size <= witness_size(f, T2)

    S2 = builtin_ideal("S", 2)
    f = parse_poly("X1*X1^* + X2*X2^* - 1", S2.alphabet)
    assert not is_member(f, S2).member
    w = _zero_set_witness(f, S2, seed=4242)
    assert w is not None and w.size <= witness_size(f, S2)


@_criterion(8, "generalized polynomial identity search", 60.0)
def criterion_8():
    m, g, h = 2, 2, 3
    rng = random.Random(808)
    letters = tuple(Letter(k, False) for k in range(1, g + 1))
    galph = scalar_alphabet(m, letters)
    size = m * ((h + 1 + 1) // 2)  # m * ceil((h+1)/2)
    scalars = [Scalar(1), Scalar(-1), Scalar(2), Scalar(0, 1)]
    for _ in range(20):
        entries = []
        for _ in range(m):
            row = []
            for _ in range(m):
                p = NcPoly.zero(galph)
                for _ in range(rng.randint(1, 3)):
                    word = tuple(
                        Letter(rng.randint(1, galph.size), False)
                        for _ in range(rng.randint(0, h))
                    )
                    p = p + NcPoly.monomial(galph, rng.choice(scalars), word)
                row.append(p)
            entries.append(tuple(row))
        gp = GenPoly(m, letters, tuple(entries))
        if gp.is_zero():
            continue
        witness = None
        for trial in range(500):
            point = tuple(
                ExactMatrix.from_rows(
                    [
                        [rng.randint(-2, 2) for _ in range(size)]
                        for _ in range(size)
                    ]
                )
                for _ in range(g)
            )
            value = gp.eval(point)
            if not value.is_zero():
                witness = (trial, point)
                break
        assert witness is not None, "no nonvanishing evaluation found"


@_criterion(9, "SOHS certificate verification", 30.0)
def criterion_9():
    T1 = builtin_ideal("T", 1)
    alph = T1.alphabet
    f1 = parse_poly("X1^*X1", alph)
    c1 = SohsCertificate([parse_poly("X1", alph)], NcPoly.zero(alph))
    assert verify_certificate(f1, c1, T1).ok

    f2 = parse_poly("2 - X1^*X1 - X1*X1^*", alph)
    c2 = SohsCertificate([], f2)
    assert verify_certificate(f2, c2, T1).ok

    f3 = parse_poly("(1 - X1)^*(1 - X1)", alph)
    good = SohsCertificate([parse_poly("1 - X1", alph)], NcPoly.zero(alph))
    bad = SohsCertificate([parse_poly("1 + X1", alph)], NcPoly.zero(alph))
    assert verify_certificate(f3, good, T1).ok
    assert not verify_certificate(f3, bad, T1).ok

    problem = gram_constraints(f3, 1)
    n = len(problem.basis)
    i0 = problem.basis_index(())
    i1 = problem.basis_index((Letter(1, False),))
    entries = [Scalar(0)] * (n * n)
    entries[i0 * n + i0] = Scalar(1)
    entries[i0 * n + i1] = Scalar(-1)
    entries[i1 * n + i0] = Scalar(-1)
    entries[i1 * n + i1] = Scalar(1)
    G = ExactMatrix(n, n, entries)
    assert problem.check(G), "Gram fixture fails the constraint system"
    assert problem.check(problem.gram_of_squares(good.squares))

    domain = SampleDomain("unitaries", 1)
    for f in (f1, f2, f3):
        report = positivity_probe(f, domain, range(1, 9), trials=10, seed=99)
        assert report.min_eigenvalue >= -1e-8, f"probe broke soundness: {report}"


@_criterion(10, "zero divisor fixture relations", 1.0)
def criterion_10():
    def power(x, k):
        acc = ExactMatrix.identity(x.rows)
        for _ in range(k):
            acc = acc * x
        return acc

    for m in range(0, 5):
        for n in range(0, 5):
            if m + n == 0:
                continue
            a, b = zero_divisor_witness(m, n)
            assert a.rows == m + n + 1
            assert not (power(b, m) * power(a, n)).is_zero(), f"B^{m} A^{n} = 0 at m={m}, n={n}"
            assert (a * b).is_zero(), f"AB != 0 at m={m}, n={n}"
            assert power(b, m + 1).is_zero(), f"B^{m + 1} != 0 at m={m}, n={n}"
            assert power(a, n + 1).is_zero(), f"A^{n + 1} != 0 at m={m}, n={n}"


def run_all():
    results = []
    for crit in ALL_CRITERIA:
        res = crit()
        results.append(res)
        print(res.line())
    return results
