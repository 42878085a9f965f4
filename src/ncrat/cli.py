"""Command-line front end.

Subcommands: eval, expand, zero-test, member, bound, sample, falsify,
verify-sohs, gram-export, selftest.  Exit codes: 0 = success, 1 = semantic
negative (non-member, nonzero series, witness found, invalid certificate,
failed selftest), 2 = usage or input error.  ``--json`` switches stdout to
machine-readable JSON.  Randomized commands take ``--seed``; when omitted
a fresh seed is drawn and printed so runs stay reproducible (to stderr
under ``--json``, which also reports it in the JSON object).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .core import ExactMatrix, Scalar, float_to_json
from .errors import NcratError, SpecError
from .ideals import (
    BUILTIN_KINDS,
    builtin_ideal,
    custom_ideal,
    find_zero_set_witness,
    is_member,
    witness_size,
)
from .ncpoly import Alphabet, Letter, NcPoly
from .positivity import (
    SohsCertificate,
    export_gram,
    gram_constraints,
    verify_certificate,
)
from .ratexpr import parse_expression, parse_poly
from .realization import (
    BasePoint,
    coefficient,
    compile_expression,
    minimize_scalar,
)
from .sampler import SampleDomain, falsify, sample_point
from . import bounds


def _alphabet_for(args, text: str) -> Alphabet:
    """Pick the alphabet: matrix letters for partitioned domains, X/Y pairs
    when the text mentions Y letters, plain X letters otherwise."""
    g = args.g
    if getattr(args, "domain", None) == "partitioned":
        return Alphabet.matrix(g)
    if getattr(args, "domain", None) == "xgn" or "Y" in text:
        return Alphabet.xy(g)
    return Alphabet.x(g)


def _resolve_ideal(args):
    if getattr(args, "ideal_file", None):
        return custom_ideal(args.ideal_file)
    if getattr(args, "ideal", None):
        return builtin_ideal(args.ideal, args.g)
    raise NcratError("need --ideal or --ideal-file")


def _parse_basepoint(spec: str, expr) -> BasePoint:
    letters = sorted(expr.letters_used())
    if not letters:
        letters = [Letter(1, False)]
    if spec.startswith("scalar:"):
        try:
            values = [Scalar(Fraction(v)) for v in spec[len("scalar:") :].split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"malformed scalar base point {spec!r}: {exc}") from exc
        if len(values) == 1:
            return BasePoint.from_mapping(
                {l: ExactMatrix(1, 1, values) for l in letters}
            )
        mapping = {}
        for l in letters:
            if l.index > len(values):
                raise NcratError(f"scalar base point gives no value for letter {l}")
            v = values[l.index - 1]
            mapping[l] = ExactMatrix(1, 1, [v.conjugate() if l.starred else v])
        return BasePoint.from_mapping(mapping)
    if spec.startswith("file:"):
        try:
            with open(spec[len("file:") :]) as fh:
                data = json.load(fh)
            if isinstance(data, list):
                mats = [ExactMatrix.from_json(obj) for obj in data]
                mapping = {}
                for l in letters:
                    if l.index > len(mats):
                        raise NcratError(f"base point file gives no matrix for {l}")
                    m = mats[l.index - 1]
                    mapping[l] = m.conjugate_transpose() if l.starred else m
                return BasePoint.from_mapping(mapping)
            mapping = {}
            alph = expr.alphabet
            by_name = {name: ExactMatrix.from_json(obj) for name, obj in data.items()}
            for l in letters:
                name = alph.letter_name(l)
                base = alph.names[l.index - 1]
                if name in by_name:
                    mapping[l] = by_name[name]
                elif base in by_name:
                    m = by_name[base]
                    mapping[l] = m.conjugate_transpose() if l.starred else m
                else:
                    raise NcratError(f"base point file misses letter {name}")
            return BasePoint.from_mapping(mapping)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            raise SpecError(f"malformed base point file: {exc}") from exc
    raise NcratError(f"bad base point spec {spec!r} (use scalar:... or file:...)")


def _parse_sizes(spec: str) -> range:
    lo, sep, hi = spec.partition("..")
    try:
        sizes = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise SpecError(f"bad --sizes {spec!r} (use N or LO..HI)") from None
    if not sizes or sizes.start < 1:
        raise SpecError(f"--sizes {spec!r} must name sizes >= 1, lowest first")
    return sizes


def _check_search(args):
    """Reject a numeric search that could not find a witness, or that would
    report one where f vanishes."""
    if args.trials < 1:
        raise SpecError(f"--trials must be at least 1, got {args.trials}")
    if not 0 < args.tol < math.inf:
        raise SpecError(f"--tol must be a positive number, got {args.tol}")


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    import secrets

    seed = secrets.randbelow(2**32)
    # under --json, stdout carries only the JSON object
    print(f"seed: {seed}", file=sys.stderr if args.json else sys.stdout)
    return seed


def _emit(args, data: dict, human: str):
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        print(human)


def _word_text(alphabet, word):
    return "*".join(alphabet.letter_name(l) for l in word) if word else "1"


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    text = args.expr or args.poly
    expr = parse_expression(text, _alphabet_for(args, text))
    bp = _parse_basepoint(args.point, expr)
    point = {l: bp[l] for l in sorted(expr.letters_used())}
    value = expr.eval(point, star_rule=args.star_rule)
    _emit(args, {"value": value.to_json()}, f"value = {value!r}")
    return 0


def cmd_expand(args) -> int:
    expr = parse_expression(args.expr, _alphabet_for(args, args.expr))
    bp = _parse_basepoint(args.basepoint, expr)
    rep = compile_expression(expr, bp)
    alph = expr.alphabet
    words = [()]
    layer = [()]
    for _ in range(args.order):
        layer = [w + (l,) for w in layer for l in rep.letters]
        words.extend(layer)
    lines = []
    rows = []
    for w in words:
        gp = coefficient(rep, w)
        if gp.is_zero():
            continue
        body = "; ".join(", ".join(str(p) for p in row) for row in gp.entries)
        lines.append(f"[S, {_word_text(alph, w)}] = [{body}]")
        rows.append({"word": _word_text(alph, w), "entries": body})
    _emit(
        args,
        {"dimension": rep.dim, "coefficients": rows},
        f"dimension {rep.dim}\n" + "\n".join(lines),
    )
    return 0


def cmd_zero_test(args) -> int:
    expr = parse_expression(args.expr, _alphabet_for(args, args.expr))
    bp = _parse_basepoint(args.basepoint, expr)
    rep = compile_expression(expr, bp)
    # minimization stops at the empty automaton exactly when C annihilates
    # the reachable space, which is the zero verdict
    _, nmin = minimize_scalar(rep)
    zero = nmin == 0
    _emit(
        args,
        {"zero": zero, "dimension": rep.dim, "minimal_dimension": nmin},
        f"zero series: {zero} (compiled dimension {rep.dim}, minimal {nmin})",
    )
    return 0 if zero else 1


def cmd_member(args) -> int:
    _check_search(args)
    ideal = _resolve_ideal(args)
    f = parse_poly(args.poly, ideal.alphabet)
    seed = _seed(args) if args.witness else (args.seed or 0)
    verdict = is_member(
        f, ideal, find_witness=args.witness, trials=args.trials, seed=seed, tol=args.tol
    )
    data = {"ideal": ideal.name, "member": verdict.member}
    if args.witness and args.seed is None:
        data["seed"] = seed
    human = f"{args.poly!r} in {ideal.name}: member = {verdict.member}"
    if verdict.witness is not None:
        data["witness"] = verdict.witness.to_json()
        human += (
            f"\nwitness at size {verdict.witness.size}, trial {verdict.witness.trial},"
            f" |value| = {verdict.witness.score:.3g}"
        )
    _emit(args, data, human)
    return 0 if verdict.member else 1


def cmd_bound(args) -> int:
    ideal = _resolve_ideal(args)
    f = parse_poly(args.poly, ideal.alphabet)
    u, v = f.degree_and_terms()
    n = witness_size(f, ideal)
    data = {
        "ideal": ideal.name,
        "degree": u,
        "terms": v,
        "witness_size": n,
        "ri_bound": bounds.ri_bound(ideal.m, ideal.n),
    }
    lines = [
        f"polynomial degree u = {u}, terms v = {v}",
        f"membership test size: {n}",
        f"rational identity test size for the resolvent: {data['ri_bound']}",
    ]
    if ideal.star:
        d = u + 1
        p = bounds.pos_size(ideal.domain_kind, ideal.g, d)
        data["pos_size"] = p
        lines.append(
            f"positivity certificate size (d = deg+1 = {d}): {p}"
            " -- far beyond desk scale; printed only, never sampled"
        )
    _emit(args, data, "\n".join(lines))
    return 0


def cmd_sample(args) -> int:
    if args.size < 1:
        raise SpecError(f"--size must be at least 1, got {args.size}")
    if args.index < 0:
        raise SpecError(f"--index must be at least 0, got {args.index}")
    seed = _seed(args)
    domain = SampleDomain(args.domain, args.g)
    point = sample_point(domain, args.size, seed, args.index)
    data = {
        "domain": args.domain,
        "g": args.g,
        "size": args.size,
        "seed": seed,
        "matrices": [float_to_json(p) for p in point],
    }
    human = f"{len(point)} matrices of size {args.size} from {args.domain} (seed {seed})"
    _emit(args, data, human)
    return 0


def cmd_falsify(args) -> int:
    _check_search(args)
    seed = _seed(args)
    text = args.poly or args.expr
    if args.ideal or args.ideal_file:
        ideal = _resolve_ideal(args)
        f = parse_poly(text, ideal.alphabet)
        sizes = _parse_sizes(args.sizes) if args.sizes else range(1, witness_size(f, ideal) + 1)
        witness = find_zero_set_witness(f, ideal, sizes, args.trials, seed, args.tol)
    else:
        alph = _alphabet_for(args, text)
        f = parse_expression(text, alph) if args.expr else parse_poly(text, alph)
        domain = SampleDomain(args.domain, args.g)
        sizes = _parse_sizes(args.sizes) if args.sizes else range(1, 7)
        witness = falsify(f, domain, sizes, args.trials, seed, args.mode, args.tol)
    if witness is None:
        _emit(args, {"witness": None, "seed": seed}, "no witness found")
        return 0
    _emit(
        args,
        {"witness": witness.to_json(), "seed": seed},
        f"witness at size {witness.size}, trial {witness.trial}, score {witness.score:.3g}",
    )
    return 1


def cmd_verify_sohs(args) -> int:
    ideal = _resolve_ideal(args)
    alph = ideal.alphabet
    try:
        with open(args.cert) as fh:
            spec = json.load(fh)
        f = parse_poly(spec["polynomial"], alph)
        squares = [parse_poly(t, alph) for t in spec.get("squares", [])]
        remainder = (
            parse_poly(spec["remainder"], alph)
            if spec.get("remainder")
            else NcPoly.zero(alph)
        )
        cofactors = None
        if "cofactors" in spec:
            cofactors = tuple(
                (parse_poly(a, alph), int(j), parse_poly(b, alph))
                for a, j, b in spec["cofactors"]
            )
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise SpecError(f"malformed certificate: {exc}") from exc
    cert = SohsCertificate(squares, remainder, cofactors)
    result = verify_certificate(f, cert, ideal)
    data = {
        "valid": result.ok,
        "identity": result.identity_ok,
        "remainder_path": result.remainder_path,
        "remainder": result.remainder_ok,
    }
    human = (
        f"certificate valid: {result.ok} "
        f"(identity {result.identity_ok}, remainder via {result.remainder_path}:"
        f" {result.remainder_ok})"
    )
    _emit(args, data, human)
    return 0 if result.ok else 1


def cmd_gram_export(args) -> int:
    alph = _alphabet_for(args, args.poly + (args.q or ""))
    f = parse_poly(args.poly, alph)
    q = parse_poly(args.q, alph) if args.q else NcPoly.zero(alph)
    problem = gram_constraints(f, args.d, q)
    export_gram(problem, args.out)
    data = {
        "out": args.out,
        "d": problem.d,
        "basis": len(problem.basis),
        "constraints": len(problem.constraints),
    }
    _emit(
        args,
        data,
        f"wrote {args.out}: basis {len(problem.basis)}, "
        f"constraints {len(problem.constraints)}",
    )
    return 0


def cmd_selftest(args) -> int:
    from .acceptance import run_all

    results = run_all(full=not args.quick)
    passed = sum(r.ok for r in results)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p, ideal=False, rand=False):
    p.add_argument("--json", action="store_true", help="machine-readable output")
    if ideal:
        p.add_argument("--ideal", choices=BUILTIN_KINDS, help="built-in ideal")
        p.add_argument("--ideal-file", help="JSON ideal specification file")
        p.add_argument("--g", type=int, default=2, help="number of letters")
    if rand:
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--tol", type=float, default=1e-10)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ncrat",
        description="Exact calculus for noncommutative rational functions: "
        "realizations, ideal membership, size bounds, samplers, SOHS checking.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression at an exact point")
    p.add_argument("--expr")
    p.add_argument("--poly")
    p.add_argument("--g", type=int, default=2)
    p.add_argument("--point", required=True, help="scalar:v[,v...] or file:PATH")
    p.add_argument("--star-rule", choices=("adjoint", "formal"), default="adjoint")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("expand", help="series coefficients of an expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--g", type=int, default=2)
    p.add_argument("--basepoint", required=True)
    p.add_argument("--order", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("zero-test", help="is the expression the zero series?")
    p.add_argument("--expr", required=True)
    p.add_argument("--g", type=int, default=2)
    p.add_argument("--basepoint", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_zero_test)

    p = sub.add_parser("member", help="exact ideal membership")
    p.add_argument("--poly", required=True)
    p.add_argument("--witness", action="store_true", help="search a counterexample")
    _add_common(p, ideal=True, rand=True)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("bound", help="print the applicable size bounds")
    p.add_argument("--poly", required=True)
    _add_common(p, ideal=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sample", help="draw a structured random tuple")
    p.add_argument("--domain", required=True,
                   choices=("unitaries", "spherical", "partitioned", "xgn", "unrestricted"))
    p.add_argument("--g", type=int, default=2)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--index", type=int, default=0, help="trial index substream")
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("falsify", help="numeric counterexample search")
    p.add_argument("--poly")
    p.add_argument("--expr")
    p.add_argument("--domain", default="unitaries",
                   choices=("unitaries", "spherical", "partitioned", "xgn", "unrestricted"))
    p.add_argument("--sizes", help="e.g. 1..6 or 4")
    p.add_argument("--mode", choices=("nonzero", "negative-eigenvalue"),
                   default="nonzero")
    _add_common(p, ideal=True, rand=True)
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser("verify-sohs", help="check a sum-of-squares certificate")
    p.add_argument("--cert", required=True, help="certificate JSON file")
    _add_common(p, ideal=True)
    p.set_defaults(func=cmd_verify_sohs)

    p = sub.add_parser("gram-export", help="export the Gram feasibility problem")
    p.add_argument("--poly", required=True)
    p.add_argument("--q", help="known ideal part to subtract")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--g", type=int, default=1)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_gram_export)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    p.add_argument("--quick", action="store_true", help="reduced trial counts")
    p.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except NcratError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
