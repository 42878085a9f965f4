"""Sum-of-Hermitian-squares certificates: exact verification, Gram
feasibility problems, and numeric positivity probing.

A certificate for f modulo an ideal is data (p_1..p_k, q) with

    f = sum_i p_i^* p_i + q,      q in the ideal.

Verification is exact: the identity is checked in the free *-algebra,
and q is accepted either through explicit two-sided cofactors or through
the membership oracle.  No SDP solver is bundled; searching for
certificates is done externally on the exported Gram problem, whose
Hermitian PSD solutions G correspond exactly to square decompositions
via G = sum_i vec(p_i) vec(p_i)^*.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import isnan
from typing import Callable

from .core import ExactMatrix, Scalar, Value, ZERO
from .errors import MALFORMED, BudgetExceeded, ConditioningFailure, DegreeTooHigh, SpecError
from .ncpoly import Alphabet, Letter, NcPoly, grlex_key, word_count, word_star, words_up_to
from .sampler import _score, draws


class SohsCertificate(Value):
    __slots__ = ("squares", "remainder", "cofactors")

    def __init__(self, squares, remainder: NcPoly, cofactors=None):
        self.squares = tuple(squares)  # NcPoly p_i
        self.remainder = remainder  # q
        # ((a_i, generator_index, b_i), ...)
        self.cofactors = None if cofactors is None else tuple(cofactors)


class VerifyResult(Value):
    __slots__ = ("identity_ok", "remainder_path", "remainder_ok")

    def __init__(self, identity_ok: bool, remainder_path: str, remainder_ok: bool):
        self.identity_ok = identity_ok
        self.remainder_path = remainder_path  # "zero" | "cofactors" | "oracle"
        self.remainder_ok = remainder_ok

    @property
    def ok(self) -> bool:
        """The certificate holds: the identity and the remainder check."""
        return self.identity_ok and self.remainder_ok

    def __bool__(self):
        return self.ok


def verify_certificate(f: NcPoly, cert: SohsCertificate, ideal) -> VerifyResult:
    """Exact check that f = sum p_i^* p_i + q with q in the ideal.

    Returns a truthy result only when the algebra identity holds exactly
    and the remainder is certified (syntactically via cofactors when
    present, otherwise through the ideal's membership oracle).  A square or
    remainder over another alphabet than f's raises AlphabetMismatch, from
    the polynomial arithmetic.
    """
    total = NcPoly.zero(f.alphabet)
    for p in cert.squares:
        total = total + p.star() * p
    identity_ok = (f - total - cert.remainder).is_zero()

    q = cert.remainder
    if q.is_zero():
        path, remainder_ok = "zero", True
    elif cert.cofactors is not None:
        recomposed = NcPoly.zero(f.alphabet)
        for a, j, b in cert.cofactors:
            if not 0 <= j < len(ideal.generators):
                raise SpecError(
                    f"cofactor names generator {j}; the ideal's are 0..{len(ideal.generators) - 1}"
                )
            recomposed = recomposed + a * ideal.generators[j] * b
        path, remainder_ok = "cofactors", (recomposed - q).is_zero()
    else:
        from .ideals import is_member

        path, remainder_ok = "oracle", is_member(q, ideal).member
    return VerifyResult(identity_ok, path, remainder_ok)


# ---------------------------------------------------------------------------
# Gram feasibility problems
# ---------------------------------------------------------------------------


class GramConstraint(Value):
    __slots__ = ("word", "pairs", "rhs")

    def __init__(self, word: tuple, pairs: tuple, rhs: Scalar):
        self.word = word  # the target word w (of degree <= 2d)
        self.pairs = pairs  # ((row_index, col_index), ...) with basis[row]^* basis[col] = w
        self.rhs = rhs


class GramProblem(Value):
    __slots__ = ("d", "alphabet", "basis", "constraints")

    def __init__(self, d: int, alphabet: Alphabet, basis: tuple, constraints: tuple):
        self.d = d
        self.alphabet = alphabet
        self.basis = basis  # all words of degree <= d over the 2g letters, graded-lex
        self.constraints = constraints

    @property
    def g(self) -> int:
        """The number of letters."""
        return self.alphabet.size

    def basis_index(self, word) -> int:
        return self.basis.index(tuple(word))

    def check(self, G: ExactMatrix) -> bool:
        """Does the Hermitian matrix G satisfy every linear constraint?"""
        N = len(self.basis)
        if G.rows != N or G.cols != N:
            return False
        for c in self.constraints:
            acc = ZERO
            for (iu, iv) in c.pairs:
                acc = acc + G[iu, iv]
            if acc != c.rhs:
                return False
        return True

    def gram_of_squares(self, squares) -> ExactMatrix:
        """G = sum_i conj(vec(p_i)) vec(p_i)^T on the word basis."""
        N = len(self.basis)
        index = {w: i for i, w in enumerate(self.basis)}
        entries = [ZERO] * (N * N)
        for p in squares:
            vec = [ZERO] * N
            for w, cf in p.terms.items():
                vec[index[w]] = cf
            for i in range(N):
                ci = vec[i].conjugate()
                if not ci:
                    continue
                for j in range(N):
                    if vec[j]:
                        entries[i * N + j] = entries[i * N + j] + ci * vec[j]
        return ExactMatrix(N, N, entries)


#: The most basis words a Gram problem may have.  gram_constraints visits
#: every pair of basis words, so time and memory grow with the square of
#: this count: 341 words (g = 2, d = 4) take about 1.6 s and 100 MB.
GRAM_BASIS_CAP = 400


def _check_basis_budget(g: int, d: int):
    if word_count(2 * g, d, GRAM_BASIS_CAP) > GRAM_BASIS_CAP:
        raise BudgetExceeded(
            f"a Gram problem with g = {g} and d = {d} has more than"
            f" {GRAM_BASIS_CAP} basis words (positivity.GRAM_BASIS_CAP)"
        )


def word_basis(alphabet: Alphabet, d: int) -> tuple:
    """All words of degree <= d over the 2g starred/unstarred letters, in
    grlex order."""
    letters = [Letter(i, s) for i in range(1, alphabet.size + 1) for s in (False, True)]
    return tuple(words_up_to(letters, d))


def gram_constraints(f: NcPoly, d: int, q: NcPoly | None = None) -> GramProblem:
    """The linear system whose Hermitian PSD solutions are exactly the
    Gram matrices of decompositions f - q = sum p_i^* p_i with deg p_i <= d.

    A basis of more than GRAM_BASIS_CAP words raises BudgetExceeded before
    any word is enumerated."""
    if q is None:
        q = NcPoly.zero(f.alphabet)
    target = f - q
    if target and target.degree_and_terms()[0] > 2 * d:
        raise DegreeTooHigh(f"deg(f - q) exceeds 2*d = {2 * d}")
    _check_basis_budget(f.alphabet.size, d)
    basis = word_basis(f.alphabet, d)
    reachable = {}
    for iu, u in enumerate(basis):
        su = word_star(u)
        for iv, v in enumerate(basis):
            reachable.setdefault(su + v, []).append((iu, iv))
    constraints = []
    for w in sorted(reachable, key=grlex_key):
        constraints.append(
            GramConstraint(w, tuple(reachable[w]), target.coeff(w))
        )
    return GramProblem(d, f.alphabet, basis, tuple(constraints))


# ---------------------------------------------------------------------------
# Text export / import of Gram problems
# ---------------------------------------------------------------------------

_WORD_TOKEN = _re.compile(r"([XY]\d+)(\^\*)?")


def _word_to_text(alphabet: Alphabet, word) -> str:
    if not word:
        return "1"
    return "".join(alphabet.letter_name(l) for l in word)


def _word_from_text(alphabet: Alphabet, text: str):
    if text == "1":
        return ()
    out = []
    pos = 0
    while pos < len(text):
        m = _WORD_TOKEN.match(text, pos)
        if m is None:
            raise SpecError(f"bad word token in {text!r}")
        idx = alphabet.index_of(m.group(1))
        if idx is None:
            raise SpecError(f"unknown letter {m.group(1)!r}")
        out.append(Letter(idx, m.group(2) is not None))
        pos = m.end()
    return tuple(out)


def export_gram(problem: GramProblem, path: str):
    """One line per constraint: target word, rhs, then the G-entries
    (row word, column word, coefficient) taking part in it."""
    with open(path, "w") as fh:
        fh.write(
            f"gram-problem d {problem.d} letters {problem.g} "
            f"basis {len(problem.basis)} constraints {len(problem.constraints)}\n"
        )
        fh.write("alphabet " + " ".join(problem.alphabet.names) + "\n")
        for c in problem.constraints:
            parts = [
                _word_to_text(problem.alphabet, c.word),
                str(c.rhs.re),
                str(c.rhs.im),
                str(len(c.pairs)),
            ]
            for iu, iv in c.pairs:
                parts.append(_word_to_text(problem.alphabet, problem.basis[iu]))
                parts.append(_word_to_text(problem.alphabet, problem.basis[iv]))
                parts.append("1")
                parts.append("0")
            fh.write(" ".join(parts) + "\n")


def import_gram(path: str) -> GramProblem:
    """Read a file written by export_gram; a malformed one raises SpecError,
    and one whose basis has more than GRAM_BASIS_CAP words BudgetExceeded,
    before the basis is enumerated."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    try:
        head = lines[0].split()
        if head[0] != "gram-problem":
            raise SpecError("not a gram-problem file")
        d = int(head[head.index("d") + 1])
        g = int(head[head.index("letters") + 1])
        nbasis = int(head[head.index("basis") + 1])
        ncons = int(head[head.index("constraints") + 1])
        alph_line = lines[1].split()
        if alph_line[0] != "alphabet":
            raise SpecError("missing alphabet line")
        alphabet = Alphabet(alph_line[1:])
        if g != alphabet.size:
            raise SpecError(f"header gives {g} letters, the alphabet line {alphabet.size}")
        # compare the basis count with the header, then with the cap,
        # before enumerating the basis
        if word_count(2 * g, d, nbasis) != nbasis:
            raise SpecError("basis size mismatch")
        _check_basis_budget(g, d)
        basis = word_basis(alphabet, d)
        index = {w: i for i, w in enumerate(basis)}
        constraints = []
        for ln in lines[2:]:
            parts = ln.split()
            word = _word_from_text(alphabet, parts[0])
            rhs = Scalar(Fraction(parts[1]), Fraction(parts[2]))
            k = int(parts[3])
            pairs = []
            cursor = 4
            for _ in range(k):
                u = _word_from_text(alphabet, parts[cursor])
                v = _word_from_text(alphabet, parts[cursor + 1])
                pairs.append((index[u], index[v]))
                cursor += 4
            constraints.append(GramConstraint(word, tuple(pairs), rhs))
        if len(constraints) != ncons:
            raise SpecError("constraint count mismatch")
        return GramProblem(d, alphabet, basis, tuple(constraints))
    except MALFORMED as exc:
        raise SpecError(f"malformed gram-problem file: {exc}") from exc


# ---------------------------------------------------------------------------
# Numeric positivity probing
# ---------------------------------------------------------------------------


class ProbeReport(Value):
    __slots__ = ("min_eigenvalue", "size", "trial", "samples")

    def __init__(self, min_eigenvalue: float, size: int, trial: int, samples: int):
        self.min_eigenvalue = min_eigenvalue
        self.size = size
        self.trial = trial
        self.samples = samples


def positivity_probe(f: NcPoly, sample: Callable, sizes, trials: int, seed: int) -> ProbeReport:
    """Minimum eigenvalue of the Hermitian part of f over seeded samples.

    ``sample`` is a callable (n, seed, trial) -> point tuple, such as a
    SampleDomain or ideals.zero_set_sampler.  The values come from
    sampler.draws, as falsify's do, and each is judged as falsify judges
    it in negative-eigenvalue mode; ``samples`` counts them, and none at
    all raises ConditioningFailure.  A certificate for f modulo the
    matching ideal implies the reported minimum is not negative, up to
    rounding (necessary-condition probe).  A value that is not finite
    scores NaN, which never beats a number: the minimum is NaN only when
    every value is.
    """
    best = None
    count = 0
    for n, trial, _, value in draws(f, sample, sizes, trials, seed):
        lo = -_score(value, "negative-eigenvalue")
        count += 1
        if best is None or lo < best[0] or isnan(best[0]) and not isnan(lo):
            best = (lo, n, trial)
    if best is None:
        raise ConditioningFailure(f"no point drawn at sizes {list(sizes)}")
    return ProbeReport(*best, count)
