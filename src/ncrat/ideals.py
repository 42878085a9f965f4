"""Rationally resolvable ideals and the exact membership oracle.

An RRIdeal packages generators, a variable decomposition x = x' u x'',
rational resolvent expressions for the x'' letters, and a base point in
the domain of the resolvent.  The membership oracle decides whether
f(x', r(x')) is the zero series: it compiles f with each x'' letter bound
to a representation of its resolvent (hand-built for the built-ins,
compiled from the resolvent expression for custom ideals) and runs the
exact zero test.  For the built-in ideals this decides ideal membership
exactly.  The base point size m, the resolvent dimension n and the x''
letters are derived from the base point and the resolvent.

Built-ins:

    Tprime   (1 - X_j Y_j, 1 - Y_j X_j)         resolvent Y_j = X_j^-1
    Sprime   (X_1 Y_1 + ... + X_g Y_g - 1)      g >= 2
    Uprime   entries of XY - I, YX - I          X a g x g symbol matrix
    CommInv  (1 - (X_1 X_2 - X_2 X_1) X_3)
    T        (1 - X_j^* X_j, 1 - X_j X_j^*)     unitary tuples
    S        (1 - sum_j X_j^* X_j)              spherical isometries, g >= 2
    U        entries of X X^* - I, X^* X - I    partitioned unitaries

The construction-time invariant that every generator vanishes on the
graph of the resolvent is checked exactly for every ideal built here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache

from . import bounds as _bounds
from .core import ExactMatrix, Scalar, matrix_inverse
from .errors import (
    AlphabetMismatch,
    ConditioningFailure,
    DomainError,
    GOutOfRange,
    ResolventNotVanishing,
    SpecError,
)
from .ncpoly import Alphabet, Letter, NcPoly
from .ratexpr import (
    Add,
    Const,
    Inv,
    Mul,
    Neg,
    RatExpr,
    Var,
    eval_expression,
    parse_expression,
    poly_to_expression,
    substitute_letters,
)
from .realization import (
    BasePoint,
    LinRep,
    automaton_rep,
    compile_expression,
    is_zero,
)
from .sampler import SampleDomain, Witness, _complex_gaussian, _rng, falsify


@dataclass(frozen=True, eq=False)
class RRIdeal:
    name: str
    alphabet: Alphabet
    star: bool
    generators: tuple  # NcPoly
    resolvent: dict  # Letter -> RatExpr over x', keyed by the x'' letters
    basepoint: BasePoint  # binds exactly the x' letters
    g: int  # bound parameter (g letters / g x g symbol matrix)
    domain_kind: str | None  # structured sampling family, None = graph sampling
    resolvent_reps: dict  # Letter -> LinRep, the compiled/hand-built resolvents

    def __repr__(self):
        return f"RRIdeal({self.name}, {len(self.generators)} generators)"

    @property
    def resolved(self) -> tuple:
        """The x'' letters."""
        return tuple(self.resolvent)

    @property
    def m(self) -> int:
        """The size of the base point matrices."""
        return self.basepoint.m

    @property
    def n(self) -> int:
        """The realization dimension of the resolvent: the largest
        dimension of a resolvent representation."""
        return max((r.dim for r in self.resolvent_reps.values()), default=1)

    def oracle_rep(self, f: NcPoly) -> LinRep:
        """The representation of f(x', r(x')) used by the membership oracle:
        f compiled with each resolved letter bound to its resolvent
        representation."""
        return compile_expression(poly_to_expression(f), self.basepoint, self.resolvent_reps)


@dataclass
class MembershipVerdict:
    member: bool
    witness: Witness | None = None

    def __bool__(self):
        return self.member


BUILTIN_KINDS = ("Tprime", "Sprime", "Uprime", "CommInv", "T", "S", "U")


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def _validate(ideal: RRIdeal) -> RRIdeal:
    """Check the graph condition: every generator vanishes on Gamma(r).

    Checked through both decision routes: the resolvent expressions are
    substituted and compiled, and the oracle compiles each generator with
    the resolved letters bound to the ideal's resolvent representations.
    """
    overlap = set(ideal.resolved) & set(ideal.basepoint.letters)
    if overlap:
        raise SpecError(f"letters {sorted(overlap)} are both resolved and in x'")
    for l, expr in ideal.resolvent.items():
        bad = [u for u in expr.letters_used() if u in ideal.resolved]
        if bad:
            raise SpecError(f"resolvent of {l} uses resolved letters {bad}")
    for f in ideal.generators:
        expr = substitute_resolvent(f, ideal)
        try:
            rep = compile_expression(expr, ideal.basepoint)
        except DomainError as exc:
            raise ResolventNotVanishing(
                f"generator {f} cannot be checked: base point outside domain ({exc})"
            ) from None
        if not is_zero(rep):
            raise ResolventNotVanishing(
                f"generator {f} does not vanish on the resolvent graph"
            )
        if not is_zero(ideal.oracle_rep(f)):
            raise ResolventNotVanishing(
                f"generator {f} fails the representation-level graph check"
            )
    return ideal


def _neumann_inverse_rep(g: int, i: int, j: int, bp: BasePoint) -> LinRep:
    """Dimension-g representation of the (i, j) entry of X^{-1} about the
    identity pattern: C = e_i^T, A^{X_kl} = -E_kl (the shift of X_kl is
    X_kl - delta_kl), B = e_j."""
    entries = [
        (Letter((k - 1) * g + l, False), 0, 0, k - 1, l - 1, -1)
        for k in range(1, g + 1)
        for l in range(1, g + 1)
    ]
    return automaton_rep(bp, _unit_row(g, i - 1), entries, _unit_row(g, j - 1).transpose())


def _unit_row(n: int, *cols) -> ExactMatrix:
    return ExactMatrix.from_rows([[1 if q in cols else 0 for q in range(n)]])


def scalar_inverse_rep(letter: Letter, bp: BasePoint) -> LinRep:
    """Dimension-1 representation of letter^{-1} about its base value p:
    c = p^{-1}, A = -Y p^{-1}, b = 1 (the geometric series of (p + Y)^{-1}).
    Scalar letter (i, j) of Y has row i of A equal to -(row j of p^{-1})."""
    m = bp.m
    p_inv = matrix_inverse(bp[letter])
    entries = [
        (letter, i, j, i, k, -p_inv[j, k]) for i in range(m) for j in range(m) for k in range(m)
    ]
    return automaton_rep(bp, p_inv, entries, ExactMatrix.identity(m))


def sprime_resolvent_rep(g: int, bp: BasePoint, alphabet=None) -> LinRep:
    """The (g+1)-dimensional representation of X1^{-1}(1 - sum_{j>=2} X_j Y_j)
    about (1, 0, ..., 0): c = e1, b = e1 + e2, per-letter matrices
    -Y E_11 (Y the shift of X1), -X_j E_{1,j+1} and Y_j E_{j+1,2}."""
    entries = [(Letter(1, False), 0, 0, 0, 0, -1)]
    for j in range(2, g + 1):
        entries.append((Letter(j, False), 0, 0, 0, j, -1))
        entries.append((Letter(g + j, False), 0, 0, j, 1, 1))
    return automaton_rep(bp, _unit_row(g + 1, 0), entries, _unit_row(g + 1, 0, 1).transpose(), alphabet)


def s_resolvent_rep(g: int, bp: BasePoint, alphabet=None) -> LinRep:
    """The (g+1)-dimensional representation of (1 - sum_{j>=2} X_j^* X_j) X_1^{-1}
    about (1, 0, ..., 0): the transpose of the dual construction, with
    c = e1 + e2, b = e1, matrices -Y E_11, -X_j E_{j+1,1}, X_j^* E_{2,j+1}."""
    entries = [(Letter(1, False), 0, 0, 0, 0, -1)]
    for j in range(2, g + 1):
        entries.append((Letter(j, False), 0, 0, j, 0, -1))
        entries.append((Letter(j, True), 0, 0, 1, j, 1))
    return automaton_rep(bp, _unit_row(g + 1, 0, 1), entries, _unit_row(g + 1, 0).transpose(), alphabet)


def comminv_resolvent_rep(bp: BasePoint, alphabet=None) -> LinRep:
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
    return automaton_rep(bp, C, entries, B, alphabet)


def _letter_from_name(alphabet: Alphabet, name: str) -> Letter:
    starred = name.endswith("^*") or name.endswith("*")
    base = name[:-2] if name.endswith("^*") else (name[:-1] if name.endswith("*") else name)
    idx = alphabet.index_of(base)
    if idx is None:
        raise SpecError(f"unknown letter name {name!r}")
    return Letter(idx, starred)


# ---------------------------------------------------------------------------
# Built-in ideals
# ---------------------------------------------------------------------------


def builtin_ideal(kind: str, g: int) -> RRIdeal:
    """One of the named ideals; results are cached per (kind, g)."""
    if kind not in BUILTIN_KINDS:
        raise ValueError(f"unknown builtin ideal {kind!r}; choose from {BUILTIN_KINDS}")
    if g < 1:
        raise GOutOfRange("need g >= 1")
    if kind in ("S", "Sprime") and g < 2:
        # g = 1 would be the ideal (1 - X Y), which fails the
        # Nullstellensatz property; the oracle would overpromise.
        raise GOutOfRange(f"{kind} requires g >= 2")
    if kind in ("U", "Uprime") and g > 9:
        raise GOutOfRange("matrix letter names support g <= 9")
    return _builtin_cached(kind, g)


@lru_cache(maxsize=None)
def _builtin_cached(kind: str, g: int) -> RRIdeal:
    one = ExactMatrix.from_rows([[1]])
    zero = ExactMatrix.from_rows([[0]])

    if kind == "Tprime":
        alph = Alphabet.xy(g)
        gens = []
        for j in range(1, g + 1):
            xj = NcPoly.var(alph, j)
            yj = NcPoly.var(alph, g + j)
            gens.append(NcPoly.one(alph) - xj * yj)
            gens.append(NcPoly.one(alph) - yj * xj)
        resolvent = {
            Letter(g + j, False): RatExpr(alph, Inv(Var(Letter(j, False))))
            for j in range(1, g + 1)
        }
        bp = BasePoint.from_mapping({Letter(j, False): one for j in range(1, g + 1)})
        reps = {
            Letter(g + j, False): scalar_inverse_rep(Letter(j, False), bp)
            for j in range(1, g + 1)
        }
        return _validate(
            RRIdeal(f"Tprime(g={g})", alph, False, tuple(gens), resolvent, bp, g, None, reps)
        )

    if kind == "Sprime":
        alph = Alphabet.xy(g)
        gen = NcPoly.constant(alph, -1)
        for j in range(1, g + 1):
            gen = gen + NcPoly.var(alph, j) * NcPoly.var(alph, g + j)
        body = " - ".join(f"X{j}*Y{j}" for j in range(2, g + 1))
        r = parse_expression(f"X1^-1*(1 - {body})", alph)
        y1 = Letter(g + 1, False)
        mapping = {Letter(1, False): one}
        for j in range(2, g + 1):
            mapping[Letter(j, False)] = zero
            mapping[Letter(g + j, False)] = zero
        bp = BasePoint.from_mapping(mapping)
        return _validate(
            RRIdeal(f"Sprime(g={g})", alph, False, (gen,), {y1: r}, bp, g, None,
                    {y1: sprime_resolvent_rep(g, bp, alph)})
        )

    if kind == "Uprime":
        alph = Alphabet.matrix(g, with_y=True)
        x = lambda i, j: NcPoly.var(alph, (i - 1) * g + j)
        y = lambda i, j: NcPoly.var(alph, g * g + (i - 1) * g + j)
        gens = []
        for i in range(1, g + 1):
            for j in range(1, g + 1):
                delta = NcPoly.one(alph) if i == j else NcPoly.zero(alph)
                gens.append(sum((x(i, k) * y(k, j) for k in range(1, g + 1)),
                                NcPoly.zero(alph)) - delta)
        for i in range(1, g + 1):
            for j in range(1, g + 1):
                delta = NcPoly.one(alph) if i == j else NcPoly.zero(alph)
                gens.append(sum((y(i, k) * x(k, j) for k in range(1, g + 1)),
                                NcPoly.zero(alph)) - delta)
        inv = symbolic_matrix_inverse(g, alph)
        resolvent = {
            Letter(g * g + (i - 1) * g + j, False): inv[i - 1][j - 1]
            for i in range(1, g + 1)
            for j in range(1, g + 1)
        }
        mapping = {
            Letter((i - 1) * g + j, False): (one if i == j else zero)
            for i in range(1, g + 1)
            for j in range(1, g + 1)
        }
        bp = BasePoint.from_mapping(mapping)
        reps = {
            Letter(g * g + (i - 1) * g + j, False): _neumann_inverse_rep(g, i, j, bp)
            for i in range(1, g + 1)
            for j in range(1, g + 1)
        }
        return _validate(
            RRIdeal(f"Uprime(g={g})", alph, False, tuple(gens), resolvent, bp, g, None, reps)
        )

    if kind == "CommInv":
        alph = Alphabet.x(3)
        x1, x2, x3 = (NcPoly.var(alph, j) for j in (1, 2, 3))
        gen = NcPoly.one(alph) - (x1 * x2 - x2 * x1) * x3
        r = parse_expression("(X1*X2 - X2*X1)^-1", alph)
        e12 = ExactMatrix.unit(2, 0, 1)
        e21 = ExactMatrix.unit(2, 1, 0)
        bp = BasePoint.from_mapping({Letter(1, False): e12, Letter(2, False): e21})
        return _validate(
            RRIdeal("CommInv", alph, False, (gen,), {Letter(3, False): r}, bp, 3, None,
                    {Letter(3, False): comminv_resolvent_rep(bp, alph)})
        )

    if kind == "T":
        alph = Alphabet.x(g)
        gens = []
        for j in range(1, g + 1):
            xj = NcPoly.var(alph, j)
            xjs = NcPoly.var(alph, j, starred=True)
            gens.append(NcPoly.one(alph) - xjs * xj)
            gens.append(NcPoly.one(alph) - xj * xjs)
        resolvent = {
            Letter(j, True): RatExpr(alph, Inv(Var(Letter(j, False))))
            for j in range(1, g + 1)
        }
        bp = BasePoint.from_mapping({Letter(j, False): one for j in range(1, g + 1)})
        reps = {
            Letter(j, True): scalar_inverse_rep(Letter(j, False), bp)
            for j in range(1, g + 1)
        }
        return _validate(
            RRIdeal(f"T(g={g})", alph, True, tuple(gens), resolvent, bp, g, "unitaries", reps)
        )

    if kind == "S":
        alph = Alphabet.x(g)
        gen = NcPoly.one(alph)
        for j in range(1, g + 1):
            gen = gen - NcPoly.var(alph, j, starred=True) * NcPoly.var(alph, j)
        # X_1^* = (1 - sum_{j>=2} X_j^* X_j) X_1^-1
        inner = [Const(Scalar(1))]
        for j in range(2, g + 1):
            inner.append(Neg(Mul((Var(Letter(j, True)), Var(Letter(j, False))))))
        r = RatExpr(alph, Mul((Add(tuple(inner)), Inv(Var(Letter(1, False))))))
        x1s = Letter(1, True)
        mapping = {Letter(1, False): one}
        for j in range(2, g + 1):
            mapping[Letter(j, False)] = zero
            mapping[Letter(j, True)] = zero
        bp = BasePoint.from_mapping(mapping)
        return _validate(
            RRIdeal(f"S(g={g})", alph, True, (gen,), {x1s: r}, bp, g, "spherical",
                    {x1s: s_resolvent_rep(g, bp, alph)})
        )

    # kind == "U": nc unitary group on a g x g matrix of letters
    alph = Alphabet.matrix(g)
    x = lambda i, j: NcPoly.var(alph, (i - 1) * g + j)
    xs = lambda i, j: NcPoly.var(alph, (i - 1) * g + j, starred=True)
    gens = []
    for i in range(1, g + 1):
        for j in range(1, g + 1):
            delta = NcPoly.one(alph) if i == j else NcPoly.zero(alph)
            # (X X^*)_{ij} = sum_k X_{ik} (X_{jk})^*
            gens.append(sum((x(i, k) * xs(j, k) for k in range(1, g + 1)),
                            NcPoly.zero(alph)) - delta)
    for i in range(1, g + 1):
        for j in range(1, g + 1):
            delta = NcPoly.one(alph) if i == j else NcPoly.zero(alph)
            # (X^* X)_{ij} = sum_k (X_{ki})^* X_{kj}
            gens.append(sum((xs(k, i) * x(k, j) for k in range(1, g + 1)),
                            NcPoly.zero(alph)) - delta)
    inv = symbolic_matrix_inverse(g, alph)
    resolvent = {  # the letter (X_ij)^* resolves to (X^{-1})_{ji}
        Letter((i - 1) * g + j, True): inv[j - 1][i - 1]
        for i in range(1, g + 1)
        for j in range(1, g + 1)
    }
    mapping = {
        Letter((i - 1) * g + j, False): (one if i == j else zero)
        for i in range(1, g + 1)
        for j in range(1, g + 1)
    }
    bp = BasePoint.from_mapping(mapping)
    reps = {
        Letter((i - 1) * g + j, True): _neumann_inverse_rep(g, j, i, bp)
        for i in range(1, g + 1)
        for j in range(1, g + 1)
    }
    return _validate(
        RRIdeal(f"U(g={g})", alph, True, tuple(gens), resolvent, bp, g, "partitioned", reps)
    )


# ---------------------------------------------------------------------------
# Symbolic matrix inverse (blockwise Schur complements)
# ---------------------------------------------------------------------------


def symbolic_matrix_inverse(g: int, alphabet: Alphabet | None = None):
    """Entries of X^{-1} for a g x g matrix X of letters X11..Xgg.

    Built by recursive blockwise inversion splitting off the first row
    and column; every inverse is defined at the identity pattern.
    """
    if alphabet is None:
        alphabet = Alphabet.matrix(g)
    entries = [
        [Var(Letter((i - 1) * g + j, False)) for j in range(1, g + 1)]
        for i in range(1, g + 1)
    ]
    grid = _inv_grid(entries)
    return [[RatExpr(alphabet, node) for node in row] for row in grid]


def _mul2(a, b):
    return Mul((a, b))


def _sub2(a, b):
    return Add((a, Neg(b)))


def _mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            summands = [_mul2(a[i][k], b[k][j]) for k in range(inner)]
            row.append(summands[0] if len(summands) == 1 else Add(tuple(summands)))
        out.append(row)
    return out


def _mat_sub(a, b):
    return [[_sub2(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _inv_grid(mat):
    k = len(mat)
    if k == 1:
        return [[Inv(mat[0][0])]]
    A = mat[0][0]
    B = [mat[0][1:]]  # 1 x (k-1)
    C = [[row[0]] for row in mat[1:]]  # (k-1) x 1
    D = [row[1:] for row in mat[1:]]  # (k-1) x (k-1)
    Ainv = Inv(A)
    Dinv = _inv_grid(D)
    # (A - B D^{-1} C)^{-1}
    bdc = _mat_mul(_mat_mul(B, Dinv), C)[0][0]
    top_left = Inv(_sub2(A, bdc))
    # (C A^{-1} B - D)^{-1}
    caib = _mat_mul(_mat_mul(C, [[Ainv]]), B)
    T = _inv_grid(_mat_sub(caib, D))
    top_right = _mat_mul(_mat_mul([[Ainv]], B), T)[0]
    bottom_left = [row for row in _mat_mul(T, _mat_mul(C, [[Ainv]]))]
    bottom_right = _inv_grid(_mat_sub(D, caib))
    out = [[top_left] + top_right]
    for i in range(k - 1):
        out.append([bottom_left[i][0]] + bottom_right[i])
    return out


# ---------------------------------------------------------------------------
# Membership oracle
# ---------------------------------------------------------------------------


def substitute_resolvent(f: NcPoly, ideal: RRIdeal) -> RatExpr:
    """Replace every resolved letter of f by its resolvent expression."""
    if f.alphabet != ideal.alphabet:
        raise AlphabetMismatch(
            f"polynomial over {f.alphabet!r}, ideal over {ideal.alphabet!r}"
        )
    return substitute_letters(poly_to_expression(f), ideal.resolvent)


def is_member(
    f: NcPoly,
    ideal: RRIdeal,
    find_witness: bool = False,
    trials: int = 200,
    seed: int = 0,
    tol: float = 1e-10,
) -> MembershipVerdict:
    """Exact membership: realize f(x', r(x')) and test for the zero series.

    f is compiled with each resolved letter bound to the ideal's resolvent
    representation (RRIdeal.oracle_rep); substituting the resolvent
    expressions and compiling realizes the same series.
    With ``find_witness`` a numeric counterexample is searched for
    non-members at sizes up to witness_size(f, ideal).
    """
    if is_zero(ideal.oracle_rep(f)):
        return MembershipVerdict(True)
    witness = None
    if find_witness and f:
        limit = witness_size(f, ideal)
        witness = find_zero_set_witness(
            f, ideal, sizes=range(1, limit + 1), trials=trials, seed=seed, tol=tol
        )
    return MembershipVerdict(False, witness)


def witness_size(f: NcPoly, ideal: RRIdeal) -> int:
    """The matrix size at which vanishing on the zero set decides membership."""
    u, v = f.degree_and_terms()
    if ideal.star:
        if ideal.domain_kind == "unitaries" or (
            ideal.domain_kind == "partitioned" and ideal.g == 1
        ):
            return _bounds.star_bound("unitaries", ideal.g, u, v)
        return _bounds.star_bound(ideal.domain_kind, ideal.g, u, v)
    return _bounds.nss_bound(ideal.m, ideal.n, u, v)


def zero_set_sampler(ideal: RRIdeal):
    """A callable (n, seed, trial) -> float point tuple in alphabet order.

    Star ideals sample their structured *-zero set (unitaries, spherical
    isometries, partitioned unitaries); other ideals sample the graph of
    the resolvent: random x' and computed x'' = r(x').
    """
    import numpy as np

    if ideal.star:
        domain = SampleDomain(ideal.domain_kind, ideal.g)
        return lambda n, seed, trial: _sample_structured(domain, n, seed, trial)

    xprime = ideal.basepoint.letters
    size = ideal.alphabet.size

    def sample(n, seed, trial):
        for attempt in range(20):
            rng = _rng(seed, (trial, attempt))
            binding = {l: _complex_gaussian(rng, n, n) for l in xprime}
            try:
                for l in ideal.resolved:
                    binding[l] = eval_expression(
                        ideal.resolvent[l], binding, star_rule="formal"
                    )
            except DomainError:
                continue
            if all(np.all(np.isfinite(binding[l])) for l in binding):
                return tuple(binding[Letter(i, False)] for i in range(1, size + 1))
        raise ConditioningFailure("could not sample a graph point")

    return sample


def _sample_structured(domain: SampleDomain, n: int, seed: int, trial: int):
    from .sampler import sample_point

    return sample_point(domain, n, seed, trial)


def find_zero_set_witness(
    f: NcPoly,
    ideal: RRIdeal,
    sizes,
    trials: int = 200,
    seed: int = 0,
    tol: float = 1e-10,
) -> Witness | None:
    """Numeric search for a zero-set point where f does not vanish."""
    return falsify(f, zero_set_sampler(ideal), sizes, trials, seed, "nonzero", tol)


def random_ideal_element(
    ideal: RRIdeal, seed: int, complexity: tuple[int, int] = (2, 2)
) -> NcPoly:
    """A random two-sided combination sum_i a_i f_{j_i} b_i of generators.

    ``complexity`` = (max cofactor word length, number of terms); the
    special case (0, 1) returns a generator itself.  Deterministic in the
    seed.
    """
    max_len, nterms = complexity
    rng = random.Random(seed)
    if (max_len, nterms) == (0, 1):
        return rng.choice(ideal.generators)
    alph = ideal.alphabet
    coeff_pool = [Scalar(1), Scalar(-1), Scalar(2), Scalar(0, 1)]

    def random_word():
        length = rng.randint(0, max_len)
        word = []
        for _ in range(length):
            idx = rng.randint(1, alph.size)
            starred = ideal.star and rng.random() < 0.5
            word.append(Letter(idx, starred))
        return tuple(word)

    acc = NcPoly.zero(alph)
    for _ in range(nterms):
        gen = rng.choice(ideal.generators)
        a = NcPoly.monomial(alph, rng.choice(coeff_pool), random_word())
        b = NcPoly.monomial(alph, Scalar(1), random_word())
        acc = acc + a * gen * b
    return acc


# ---------------------------------------------------------------------------
# Custom ideals from JSON spec files
# ---------------------------------------------------------------------------


def custom_ideal(spec) -> RRIdeal:
    """Build an RRIdeal from a spec dict or a path to a JSON file.

    Schema: {"name": optional, "g", "star": optional bool,
    "domain_kind": "unitaries" | "spherical" | "partitioned" (required when
    star), "letters": optional [names], "generators": [expr],
    "resolved": [letter], "resolvent": {letter: expr},
    "basepoint": {"m": optional m, "matrices": {letter: matrix-json}}}.
    Each resolvent is compiled once about the base point; the resolvent
    dimension n is the largest of those dimensions.  A malformed file or
    spec raises SpecError.

    The oracle for a custom ideal decides vanishing on the graph of the
    resolvent (equivalently on the Zariski closure of the zero set it
    parameterizes); formal resolvability alone does not guarantee that
    this coincides with ideal membership.
    """
    try:
        if isinstance(spec, str):
            with open(spec) as fh:
                spec = json.load(fh)
        name = spec.get("name", "custom")
        g = int(spec["g"])
        star = bool(spec.get("star", False))
        domain_kind = spec.get("domain_kind") if star else None
        if star and domain_kind not in ("unitaries", "spherical", "partitioned"):
            raise SpecError(
                "a star ideal needs domain_kind unitaries, spherical or partitioned"
            )
        if "letters" in spec:
            alph = Alphabet(spec["letters"])
        else:
            alph = Alphabet.x(g)
        gens = tuple(
            _parse_poly(text, alph) for text in spec["generators"]
        )
        resolved = tuple(_letter_from_name(alph, t) for t in spec["resolved"])
        resolvent = {}
        for lname, text in spec["resolvent"].items():
            l = _letter_from_name(alph, lname)
            expr = parse_expression(text, alph)
            if lname.endswith("*") and not star:
                raise SpecError("starred resolvent letter in a non-star ideal")
            resolvent[l] = expr
        bp_spec = spec["basepoint"]
        mapping = {
            _letter_from_name(alph, lname): ExactMatrix.from_json(mj)
            for lname, mj in bp_spec["matrices"].items()
        }
        bp = BasePoint.from_mapping(mapping)
        if int(bp_spec.get("m", bp.m)) != bp.m:
            raise SpecError("declared m does not match base point matrices")
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise SpecError(f"malformed ideal spec: {exc}") from exc

    if set(resolvent) != set(resolved):
        raise SpecError("resolvent must map exactly the resolved letters")
    missing = set()
    for f in gens:
        for w in f.terms:
            for l in w:
                if l not in resolved and l not in bp.letters:
                    missing.add(l)
    if missing:
        raise SpecError(f"base point misses x' letters {sorted(missing)}")

    reps = {l: compile_expression(expr, bp) for l, expr in resolvent.items()}
    return _validate(RRIdeal(name, alph, star, gens, resolvent, bp, g, domain_kind, reps))


def _parse_poly(text: str, alph: Alphabet) -> NcPoly:
    from .ratexpr import parse_poly

    return parse_poly(text, alph)
