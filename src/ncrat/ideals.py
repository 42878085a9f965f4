"""Rationally resolvable ideals and the exact membership oracle.

An RRIdeal packages generators, a variable decomposition x = x' u x'',
rational resolvent expressions for the x'' letters, and a base point in
the domain of the resolvent.  The membership oracle decides whether
f(x', r(x')) is the zero series: it compiles f with each x'' letter bound
to the minimized compile of its resolvent expression about the base point
and runs the exact zero test.  That decides whether f vanishes on the
zero set of the ideal.  For the built-ins other than CommInv this is
ideal membership; CommInv lacks the Nullstellensatz property, and
1 - X3 (X1 X2 - X2 X1) vanishes on its zero set without lying in the
ideal.  The base point size m, the resolvent dimension n and the x''
letters are derived from the base point and the resolvent.

Built-ins (T, S and U are the *-versions of Tprime, Sprime and Uprime):

    Tprime   (1 - X_j Y_j, 1 - Y_j X_j)         resolvent Y_j = X_j^-1
    Sprime   (X_1 Y_1 + ... + X_g Y_g - 1)      g >= 2
    Uprime   entries of XY - I, YX - I          X a g x g symbol matrix
    CommInv  (1 - (X_1 X_2 - X_2 X_1) X_3)
    T        (1 - X_j^* X_j, 1 - X_j X_j^*)     unitary tuples
    S        (1 - sum_j X_j^* X_j)              spherical isometries, g >= 2
    U        entries of X X^* - I, X^* X - I    partitioned unitaries

Every ideal, built-in or read from a spec file, is built by one
constructor from the same kind of data: generator texts, resolvent texts
(for U and Uprime the symbolic inverse DAG), base point matrices.  It
makes every check on the decomposition and then checks exactly that every
generator vanishes on the graph of the resolvent.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache

from . import bounds as _bounds
from .core import ExactMatrix, Frozen, Scalar, Value
from .errors import (
    BudgetExceeded,
    ConditioningFailure,
    DomainError,
    GOutOfRange,
    MALFORMED,
    ResolventNotVanishing,
    SpecError,
)
from .ncpoly import Alphabet, Letter, NcPoly, check_same_alphabet
from .ratexpr import (
    Add,
    Inv,
    Mul,
    Neg,
    RatExpr,
    Var,
    _evaluate,
    parse_expression,
    parse_poly,
    poly_to_expression,
    substitute_letters,
)
from .realization import (
    BasePoint,
    LinRep,
    compile_expression,
    is_zero,
    minimize_scalar,
)
from .sampler import STAR_KINDS, SampleDomain, _gaussian_integer_matrix


_set = object.__setattr__


class RRIdeal(Frozen):
    """A rationally resolvable ideal, equal only to itself.

    ``generators`` are NcPolys; ``resolvent`` maps each x'' letter to a
    RatExpr over x'; ``basepoint`` binds exactly the x' letters; ``g`` is
    the bound parameter (g letters / g x g symbol matrix); ``domain_kind``
    is the structured sampling family, None for graph sampling; and
    ``resolvent_reps`` maps each x'' letter to its minimized compiled
    resolvent, a LinRep.
    """

    __slots__ = ("name", "alphabet", "generators", "resolvent", "basepoint", "g",
                 "domain_kind", "resolvent_reps")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, name: str, alphabet: Alphabet, generators: tuple, resolvent: dict,
                 basepoint: BasePoint, g: int, domain_kind: str | None, resolvent_reps: dict):
        _set(self, "name", name)
        _set(self, "alphabet", alphabet)
        _set(self, "generators", generators)
        _set(self, "resolvent", resolvent)
        _set(self, "basepoint", basepoint)
        _set(self, "g", g)
        _set(self, "domain_kind", domain_kind)
        _set(self, "resolvent_reps", resolvent_reps)

    def __repr__(self):
        return f"RRIdeal({self.name}, {len(self.generators)} generators)"

    @property
    def star(self) -> bool:
        """Whether the ideal lives in the free *-algebra; exactly the
        ideals with a structured *-zero set to sample."""
        return self.domain_kind is not None

    @property
    def domain(self) -> SampleDomain | None:
        """The structured *-zero set of a star ideal, None for the others."""
        return SampleDomain(self.domain_kind, self.g) if self.star else None

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
        representation.  f must be over the ideal's alphabet."""
        check_same_alphabet(f.alphabet, self.alphabet)
        return compile_expression(poly_to_expression(f), self.basepoint, self.resolvent_reps)


class MembershipVerdict(Value):
    __slots__ = ("member",)

    def __init__(self, member: bool):
        self.member = member

    def __bool__(self):
        return self.member


BUILTIN_KINDS = ("Tprime", "Sprime", "Uprime", "CommInv", "T", "S", "U")


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def _validate(ideal: RRIdeal) -> RRIdeal:
    """Check the graph condition: every generator vanishes on Gamma(r),
    decided by the oracle.  The resolvent representations are compiled
    from the resolvent texts, so this checks the texts."""
    for f in ideal.generators:
        if not is_zero(ideal.oracle_rep(f)):
            raise ResolventNotVanishing(
                f"generator {f} does not vanish on the resolvent graph"
            )
    return ideal


def _make_ideal(name: str, alphabet: Alphabet, g: int, generators, resolvent: dict,
                basepoint: dict, resolved=None, domain_kind: str | None = None) -> RRIdeal:
    """The one constructor of an RRIdeal, for the built-ins and spec files.

    ``generators`` are polynomial texts, ``resolvent`` maps each x'' letter
    name to an expression text or a RatExpr, ``basepoint`` maps each x'
    letter name to its matrix and ``resolved`` names the x'' letters
    (default: the resolvent's).  A star ideal names its structured *-zero
    set in ``domain_kind``.  Each resolvent is compiled about the base
    point and minimized (a resolvent undefined there raises DomainError).
    ``g`` must be at least 1 (GOutOfRange).  Every check on the
    decomposition x = x' u x'' is made here (SpecError): among them, every
    letter of the alphabet, and for a star ideal its adjoint, is in x' or
    in x''.  Then comes the graph check (ResolventNotVanishing).
    """
    if g < 1:
        raise GOutOfRange(f"need g >= 1, got {g}")
    if domain_kind not in (None, *STAR_KINDS):
        raise SpecError(f"a star ideal needs domain_kind {', '.join(STAR_KINDS)}")
    try:
        gens = tuple(parse_poly(text, alphabet) for text in generators)
        resolvent = {
            _letter_from_name(alphabet, l): r if isinstance(r, RatExpr) else parse_expression(r, alphabet)
            for l, r in resolvent.items()
        }
        resolved = (set(resolvent) if resolved is None
                    else {_letter_from_name(alphabet, l) for l in resolved})
        bp = BasePoint.from_mapping(
            {_letter_from_name(alphabet, l): mat for l, mat in basepoint.items()}
        )
    except MALFORMED as exc:
        raise SpecError(f"malformed ideal spec: {exc}") from exc

    def names(letters):
        return [alphabet.letter_name(l) for l in sorted(letters)]

    if domain_kind is None:
        if any(l.starred for l in resolvent):
            raise SpecError("starred resolvent letter in a non-star ideal")
        # the graph sampler draws only unstarred letters, and a witness
        # search reads a starred one as its partner's adjoint
        used = {l for f in gens for w in f.terms for l in w}.union(
            bp.letters, *(expr.letters_used() for expr in resolvent.values()))
        starred = [l for l in used if l.starred]
        if starred:
            raise SpecError(f"starred letters {names(starred)} in a non-star ideal")
    if set(resolvent) != resolved:
        raise SpecError("resolvent must map exactly the resolved letters")
    overlap = resolved & set(bp.letters)
    if overlap:
        raise SpecError(f"letters {names(overlap)} are both resolved and in x'")
    for l, expr in resolvent.items():
        bad = names(u for u in expr.letters_used() if u in resolved)
        if bad:
            raise SpecError(f"resolvent of {alphabet.letter_name(l)} uses resolved letters {bad}")
    missing = {
        l for f in gens for w in f.terms for l in w if l not in resolved and l not in bp.letters
    }
    if missing:
        raise SpecError(f"base point misses x' letters {names(missing)}")
    # f may use every letter, and in a star ideal every adjoint, but the
    # oracle and the graph sampler bind only the letters of x' and x''
    kinds = (False, True) if domain_kind else (False,)
    every = [Letter(i, starred) for i in range(1, alphabet.size + 1) for starred in kinds]
    outside = [l for l in every if l not in resolved and l not in bp.letters]
    if outside:
        raise SpecError(f"letters {names(outside)} are neither in the base point nor resolved")

    reps = {l: minimize_scalar(compile_expression(expr, bp))[0] for l, expr in resolvent.items()}
    return _validate(RRIdeal(name, alphabet, gens, resolvent, bp, g, domain_kind, reps))


def _letter_from_name(alphabet: Alphabet, name: str) -> Letter:
    letter = alphabet.letter(name)
    if letter is None:
        raise SpecError(f"unknown letter name {name!r}")
    return letter


# ---------------------------------------------------------------------------
# Built-in ideals
# ---------------------------------------------------------------------------


#: The largest g at which U and Uprime are built.  Cold builds, one run
#: each (Python 3.11.7, shared 2-core machine): U(5) 2.2 s CPU and 29 MB,
#: U(6) 29.6 s and 213 MB, U(7) unfinished at 600 s; Uprime(5) 1.9 s and
#: 29 MB, Uprime(6) 30.4 s and 213 MB, Uprime(7) past 2.7 GB at 250 s.
#: From g = 7 a build passes 60 s CPU and 1 GB.
UNITARY_G_CAP = 6


def builtin_ideal(kind: str, g: int) -> RRIdeal:
    """One of the named ideals; results are cached per (kind, g).

    A kind outside BUILTIN_KINDS raises SpecError; g >= 1 is checked by
    _make_ideal and g <= 9 for U and Uprime by Alphabet.matrix, both as
    GOutOfRange.  U and Uprime above UNITARY_G_CAP raise BudgetExceeded
    before any building.
    """
    if kind not in BUILTIN_KINDS:
        raise SpecError(f"unknown builtin ideal {kind!r}; choose from {BUILTIN_KINDS}")
    if kind in ("S", "Sprime") and g < 2:
        # g = 1 would be the ideal (1 - X Y), which fails the
        # Nullstellensatz property; the oracle would overpromise.
        raise GOutOfRange(f"{kind} requires g >= 2")
    if kind in ("U", "Uprime") and g > UNITARY_G_CAP:
        Alphabet.matrix(g)  # g > 9 has no letter names: GOutOfRange first
        raise BudgetExceeded(f"{kind} is built for g <= {UNITARY_G_CAP}: the build of {kind}(g={g})"
                             f" would pass 60 s CPU and 1 GB (ideals.UNITARY_G_CAP)")
    return _builtin_cached(kind, g)


@lru_cache(maxsize=None)
def _builtin_cached(kind: str, g: int) -> RRIdeal:
    """The built-ins as data for _make_ideal."""
    one, zero = ExactMatrix.identity(1), ExactMatrix.zeros(1, 1)
    js, rest = range(1, g + 1), range(2, g + 1)

    if kind in ("Tprime", "T"):
        # T is Tprime with Y_j -> X_j^*, each pair of relations listed the
        # other way round
        star = kind == "T"
        y = {j: f"X{j}^*" if star else f"Y{j}" for j in js}
        pairs = [(f"1 - X{j} {y[j]}", f"1 - {y[j]} X{j}") for j in js]
        return _make_ideal(
            f"{kind}(g={g})", Alphabet.x(g) if star else Alphabet.xy(g), g,
            generators=[text for pair in pairs for text in (pair[::-1] if star else pair)],
            resolvent={y[j]: f"X{j}^-1" for j in js},
            basepoint={f"X{j}": one for j in js},
            domain_kind="unitaries" if star else None,
        )

    if kind == "Sprime":
        body = " - ".join(f"X{j}*Y{j}" for j in rest)
        return _make_ideal(
            f"Sprime(g={g})", Alphabet.xy(g), g,
            generators=["-1 + " + " + ".join(f"X{j} Y{j}" for j in js)],
            resolvent={"Y1": f"X1^-1*(1 - {body})"},
            basepoint={"X1": one, **{f"{a}{j}": zero for j in rest for a in "XY"}},
        )

    if kind == "S":
        body = " - ".join(f"X{j}^* X{j}" for j in rest)
        return _make_ideal(
            f"S(g={g})", Alphabet.x(g), g,
            generators=["1 - " + " - ".join(f"X{j}^* X{j}" for j in js)],
            # X_1^* = (1 - sum_{j>=2} X_j^* X_j) X_1^-1
            resolvent={"X1^*": f"(1 - {body}) X1^-1"},
            basepoint={"X1": one, **{f"X{j}{s}": zero for j in rest for s in ("", "^*")}},
            domain_kind="spherical",
        )

    if kind in ("Uprime", "U"):
        # U, the nc unitary group, is Uprime with Y_ij -> X_ji^*: (XY - I)_ij
        # becomes (X X^* - I)_ij
        # and (YX - I)_ij becomes (X^* X - I)_ij
        star = kind == "U"
        alph = Alphabet.matrix(g, with_y=not star)
        cells = [(i, j) for i in js for j in js]
        y = {(i, j): f"X{j}{i}^*" if star else f"Y{i}{j}" for i, j in cells}
        delta = {(i, j): " - 1" if i == j else "" for i, j in cells}
        xy = [" + ".join(f"X{i}{k} {y[k, j]}" for k in js) + delta[i, j] for i, j in cells]
        yx = [" + ".join(f"{y[i, k]} X{k}{j}" for k in js) + delta[i, j] for i, j in cells]
        # Y_ij resolves to (X^-1)_ij; U lists its letters X_ij^* = Y_ji row by
        # row.  The inverse stays a DAG: its text would be a tree.
        order = [(j, i) if star else (i, j) for i, j in cells]
        inv = symbolic_matrix_inverse(g, alph)
        return _make_ideal(
            f"{kind}(g={g})", alph, g,
            generators=xy + yx,
            resolvent={y[c]: inv[c[0] - 1][c[1] - 1] for c in order},
            basepoint={f"X{i}{j}": one if i == j else zero for i, j in cells},
            domain_kind="partitioned" if star else None,
        )

    # kind == "CommInv"
    return _make_ideal(
        "CommInv", Alphabet.x(3), 3,
        generators=["1 - (X1 X2 - X2 X1) X3"],
        resolvent={"X3": "(X1*X2 - X2*X1)^-1"},
        basepoint={"X1": ExactMatrix.unit(2, 0, 1), "X2": ExactMatrix.unit(2, 1, 0)},
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
    if k <= 1:
        return [[Inv(row[0])] for row in mat]
    A = mat[0][0]
    B = [mat[0][1:]]  # 1 x (k-1)
    C = [[row[0]] for row in mat[1:]]  # (k-1) x 1
    D = [row[1:] for row in mat[1:]]  # (k-1) x (k-1)
    Ainv = Inv(A)
    Dinv = _inv_grid(D)
    # (A - B D^{-1} C)^{-1}
    bdc = _mat_mul(_mat_mul(B, Dinv), C)[0][0]
    top_left = Inv(_sub2(A, bdc))
    # (D - C A^{-1} B)^{-1}, and T = (C A^{-1} B - D)^{-1} is its negative
    caib = _mat_mul(_mat_mul(C, [[Ainv]]), B)
    bottom_right = _inv_grid(_mat_sub(D, caib))
    T = [[Neg(x) for x in row] for row in bottom_right]
    top_right = _mat_mul(_mat_mul([[Ainv]], B), T)[0]
    bottom_left = [row for row in _mat_mul(T, _mat_mul(C, [[Ainv]]))]
    out = [[top_left] + top_right]
    for i in range(k - 1):
        out.append([bottom_left[i][0]] + bottom_right[i])
    return out


# ---------------------------------------------------------------------------
# Membership oracle
# ---------------------------------------------------------------------------


def substitute_resolvent(f: NcPoly, ideal: RRIdeal) -> RatExpr:
    """Replace every resolved letter of f by its resolvent expression;
    f must be over the ideal's alphabet."""
    check_same_alphabet(f.alphabet, ideal.alphabet)
    return substitute_letters(poly_to_expression(f), ideal.resolvent)


def is_member(f: NcPoly, ideal: RRIdeal) -> MembershipVerdict:
    """Exact membership: realize f(x', r(x')) and test for the zero series.

    f is compiled with each resolved letter bound to the ideal's resolvent
    representation (RRIdeal.oracle_rep); substituting the resolvent
    expressions and compiling realizes the same series.  f must be over
    the ideal's alphabet (AlphabetMismatch).  The verdict only decides: a
    counterexample to a non-member is falsify(f, zero_set_sampler(ideal),
    range(1, witness_size(f, ideal) + 1), trials, seed).
    """
    return MembershipVerdict(is_zero(ideal.oracle_rep(f)))


def witness_size(f: NcPoly, ideal: RRIdeal) -> int:
    """The matrix size at which vanishing on the zero set decides membership;
    1 for the zero polynomial, which vanishes at every size."""
    if not f:
        return 1
    u, v = f.degree_and_terms()
    # A nonzero constant has degree 0.  The bounds grow with u, so the size
    # for degree 1 is also a valid test size for it.
    u = max(u, 1)
    if ideal.star:
        return _bounds.star_bound(ideal.domain.bound_kind, ideal.g, u, v)
    return _bounds.nss_bound(ideal.m, ideal.n, u, v)


def zero_set_sampler(ideal: RRIdeal):
    """A callable (n, seed, trial) -> point tuple of ExactMatrix in
    alphabet order, a point of the ideal's zero set.

    A star ideal draws from its structured *-zero set, SampleDomain.exact
    of its domain (T unitaries, S spherical, U partitioned).

    Other ideals give exact points of the graph of the resolvent, which
    is their zero set: every x' letter an n x n Gaussian-integer matrix
    drawn as SampleDomain.exact draws one, and x'' = r(x') evaluated
    exactly, all resolvents in one fold over their shared DAG.  A graph point takes up to 20
    draws of x', each from its own stdlib stream
    random.Random(f"graph/{seed}/{n}/{trial}/{attempt}").  When r is
    undefined at all of them, the sampler raises ConditioningFailure and
    sampler.draws leaves the size: the graph is then almost surely empty there
    (CommInv has no 1 x 1 points, because scalars commute).
    """
    if ideal.star:
        return ideal.domain.exact

    xprime = ideal.basepoint.letters
    size = ideal.alphabet.size
    roots = [expr.node for expr in ideal.resolvent.values()]

    def sample(n, seed, trial):
        for attempt in range(20):
            rng = random.Random(f"graph/{seed}/{n}/{trial}/{attempt}")
            binding = {l: _gaussian_integer_matrix(rng, n) for l in xprime}
            try:
                binding.update(zip(ideal.resolved, _evaluate(roots, binding, ideal.alphabet)))
            except DomainError:
                continue
            return tuple(binding[Letter(i, False)] for i in range(1, size + 1))
        raise ConditioningFailure("could not sample a graph point")

    return sample


def random_ideal_element(
    ideal: RRIdeal, seed: int, complexity: tuple[int, int] = (2, 2)
) -> NcPoly:
    """A random two-sided combination sum_i a_i f_{j_i} b_i of generators.

    ``complexity`` = (max cofactor word length, number of terms).
    Deterministic in the seed.
    """
    max_len, nterms = complexity
    rng = random.Random(seed)
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
    Each name of "letters" is X or Y and a number, and a letter Xk is
    written Xk, its adjoint Xk^* or Xk*.
    The spec is read into the data the built-ins are given as, and goes
    through the same constructor and checks.  Each resolvent is compiled
    about the base point and minimized; the resolvent dimension n is the
    largest of those dimensions.  A malformed file or spec raises
    SpecError, a resolvent undefined at the base point DomainError.  A star
    spec's generators must vanish exactly at the draws of its domain_kind
    at sizes 1 and 2, and those draws must bind every letter (SpecError).

    The oracle for a custom ideal decides vanishing on the graph of the
    resolvent (equivalently on the Zariski closure of the zero set it
    parameterizes); formal resolvability alone does not guarantee that
    this coincides with ideal membership.
    """
    try:
        if isinstance(spec, str):
            with open(spec) as fh:
                spec = json.load(fh)
        g = int(spec["g"])
        alph = Alphabet.named(spec["letters"]) if "letters" in spec else Alphabet.x(g)
        bp_spec = spec["basepoint"]
        basepoint = {
            lname: ExactMatrix.from_json(mj) for lname, mj in bp_spec["matrices"].items()
        }
        if "m" in bp_spec and any(mat.rows != int(bp_spec["m"]) for mat in basepoint.values()):
            raise SpecError("declared m does not match base point matrices")
        # a star spec without a domain kind names "None", which _make_ideal rejects
        domain_kind = str(spec.get("domain_kind")) if spec.get("star", False) else None
        parts = (spec.get("name", "custom"), alph, g, spec["generators"], spec["resolvent"],
                 basepoint, spec["resolved"], domain_kind)
    except MALFORMED as exc:
        raise SpecError(f"malformed ideal spec: {exc}") from exc
    ideal = _make_ideal(*parts)
    domain = ideal.domain
    if domain and domain.alphabet.size < alph.size:
        name = alph.letter_name(Letter(domain.alphabet.size + 1, False))
        raise SpecError(f"a {domain_kind} draw at g = {g} does not bind {name}")
    # generators that do not vanish on the domain would give witnesses off the zero
    # set; drawn outside the traced zero_set_sampler, which counts search draws only
    for n in (1, 2) if domain else ():
        point = domain.exact(n, 0, 0)
        for f in ideal.generators:
            if not f.eval(point).is_zero():
                raise SpecError(f"domain_kind {domain_kind!r}: generator {f} does not vanish"
                                " on its zero set")
    return ideal
