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
import sys
from math import lcm

from .core import ExactMatrix, FLOAT_TOL, Scalar, float_to_json
from .errors import MALFORMED, NcratError, SpecError
from .ideals import (
    BUILTIN_KINDS,
    builtin_ideal,
    custom_ideal,
    is_member,
    witness_size,
    zero_set_sampler,
)
from .ncpoly import Alphabet, Letter, NcPoly
from .positivity import SohsCertificate, verify_certificate
from .ratexpr import _bound, _point_binding, parse_expression, parse_poly, poly_to_expression
from .realization import BasePoint, compile_expression, minimize_scalar
from .sampler import DOMAIN_KINDS, FALSIFY_MODES, SampleDomain, check_search, falsify, sample_point
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


def _scalar_value(text: str, what: str, spec: str) -> Scalar:
    """A rational number of a ``scalar:`` spec, as Fraction reads it
    (``2/3``, ``-2``, ``1.5``, ``1e-3``); anything else raises SpecError
    naming the value and the cause."""
    try:
        return Scalar(text)
    except ZeroDivisionError:
        raise SpecError(f"malformed {what} {spec!r}: zero denominator in {text!r}") from None
    except ValueError:
        raise SpecError(f"malformed {what} {spec!r}: {text!r} is not a rational number") from None


def _parse_basepoint(spec: str, expr, what: str = "base point") -> BasePoint:
    """The base point ``scalar:v[,v...]`` or ``file:PATH`` on the letters
    the expression uses.  Value or matrix k binds X(k+1), and a single
    scalar binds every letter; a file may instead map letter names, as
    Alphabet.letter reads them, to matrices, ignoring names of no letter
    the expression uses.  A starred letter that the spec leaves open
    takes the adjoint of its partner.  Errors call the spec ``what``."""
    letters = sorted(expr.letters_used()) or [Letter(1, False)]
    kind, _, body = spec.partition(":")
    if kind not in ("scalar", "file"):
        raise NcratError(f"bad {what} spec {spec!r} (use scalar:... or file:...)")
    try:
        if kind == "scalar":
            mats = [ExactMatrix(1, 1, [_scalar_value(v, what, spec)]) for v in body.split(",")]
            if len(mats) == 1:
                mats *= max(l.index for l in letters)
        else:
            with open(body) as fh:
                data = json.load(fh)
            mats = [ExactMatrix.from_json(m) for m in data] if isinstance(data, list) else None
        if mats is not None:
            given = {Letter(k, False): m for k, m in enumerate(mats, 1)}
        else:
            used = {l.index for l in letters}
            given = {l: ExactMatrix.from_json(m) for name, m in data.items()
                     if (l := expr.alphabet.letter(name)) is not None and l.index in used}
    except MALFORMED as exc:
        raise SpecError(f"malformed {what} {spec!r}: {exc}") from exc
    binding = _point_binding(given)
    point = {l: _bound(binding, l) for l in letters}
    missing = [expr.alphabet.letter_name(l) for l, m in point.items() if m is None]
    if missing:
        raise NcratError(f"{what} {spec!r} gives no value for {', '.join(missing)}")
    return BasePoint.from_mapping(point)


def _parse_sizes(spec: str) -> range:
    lo, sep, hi = spec.partition("..")
    try:
        return range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise SpecError(f"bad --sizes {spec!r} (use N or LO..HI)") from None


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


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    text = args.poly if args.expr is None else args.expr
    alph = _alphabet_for(args, text)
    expr = (poly_to_expression(parse_poly(text, alph)) if args.expr is None
            else parse_expression(text, alph))
    bp = _parse_basepoint(args.point, expr, "point")
    point = {l: bp[l] for l in sorted(expr.letters_used())}
    value = expr.eval(point)
    _emit(args, {"value": value.to_json()}, f"value = {value!r}")
    return 0


def cmd_expand(args) -> int:
    from .series import coefficients

    expr = parse_expression(args.expr, _alphabet_for(args, args.expr))
    bp = _parse_basepoint(args.basepoint, expr)
    rep = compile_expression(expr, bp)
    alph = expr.alphabet
    rows = [{"word": alph.word_name(w),
             "entries": "; ".join(", ".join(map(str, row)) for row in gp.entries)}
            for w, gp in coefficients(rep, args.order, alph).items()]
    lines = [f"[S, {r['word']}] = [{r['entries']}]" for r in rows]
    _emit(args, {"dimension": rep.dim, "coefficients": rows},
          f"dimension {rep.dim}\n" + "\n".join(lines))
    return 0


def cmd_zero_test(args) -> int:
    expr = parse_expression(args.expr, _alphabet_for(args, args.expr))
    bp = _parse_basepoint(args.basepoint, expr)
    rep = compile_expression(expr, bp)
    # minimization stops at the empty automaton exactly when C annihilates
    # the reachable space, which is the zero verdict
    red, states = minimize_scalar(rep)
    zero = states == 0
    nmin = 0 if zero else red.dim
    _emit(
        args,
        {"zero": zero, "dimension": rep.dim, "minimal_dimension": nmin},
        f"zero series: {zero} (compiled dimension {rep.dim}, minimal {nmin})",
    )
    return 0 if zero else 1


def _witness_size(witness, mode: str = "nonzero") -> str:
    """How far a witness is from vanishing, as text: the float score, or
    for an exact value in nonzero mode its largest entry (by modulus)
    written exactly, which a score below the float range would show as 0.
    In negative-eigenvalue mode the score, minus the least eigenvalue of
    the Hermitian part, is printed for an exact value too: no entry of
    the value tells how far it is from PSD."""
    if mode != "nonzero" or not isinstance(witness.value, ExactMatrix):
        return f"score {witness.score:.3g}"
    # |x|^2 over a common denominator: exact, and no Fraction is made
    entries = witness.value.entries
    den = lcm(*(x.d for x in entries))
    top = max(entries, key=lambda x: (x.a * x.a + x.b * x.b) * (den // x.d) ** 2)
    return f"largest entry = {top}"


def cmd_member(args) -> int:
    ideal = _resolve_ideal(args)
    f = parse_poly(args.poly, ideal.alphabet)
    seed = _seed(args) if args.witness else None
    check_search(args.trials)
    verdict = is_member(f, ideal)
    data = {"ideal": ideal.name, "member": verdict.member}
    if args.witness and args.seed is None:
        data["seed"] = seed
    human = f"{args.poly!r} in {ideal.name}: member = {verdict.member}"
    if args.witness and not verdict.member:
        sizes = range(1, witness_size(f, ideal) + 1)
        witness = falsify(f, zero_set_sampler(ideal), sizes, args.trials, seed)
        if witness is not None:
            data["witness"] = witness.to_json()
            human += (f"\nwitness at size {witness.size}, trial {witness.trial},"
                      f" {_witness_size(witness)}")
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
    seed = _seed(args)
    text = args.poly if args.expr is None else args.expr
    if args.ideal or args.ideal_file:
        ideal = _resolve_ideal(args)
        f = parse_poly(text, ideal.alphabet)
        sizes = _parse_sizes(args.sizes) if args.sizes else range(1, witness_size(f, ideal) + 1)
        sizes = check_search(args.trials, sizes, args.tol, args.mode)
        # where f vanishes on the zero set no point can witness anything
        witness = None if is_member(f, ideal) else falsify(
            f, zero_set_sampler(ideal), sizes, args.trials, seed, args.mode, args.tol)
    else:
        alph = _alphabet_for(args, text)
        f = parse_poly(text, alph) if args.expr is None else parse_expression(text, alph)
        domain = SampleDomain(args.domain, args.g)
        sizes = _parse_sizes(args.sizes) if args.sizes else range(1, 7)
        witness = falsify(f, domain, sizes, args.trials, seed, args.mode, args.tol)
    if witness is None:
        _emit(args, {"witness": None, "seed": seed}, "no witness found")
        return 0
    _emit(
        args,
        {"witness": witness.to_json(), "seed": seed},
        f"witness at size {witness.size}, trial {witness.trial},"
        f" {_witness_size(witness, args.mode)}",
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
    except MALFORMED as exc:
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
    from .gram import export_gram, gram_constraints

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


def _add_text(p):
    """The input of eval and falsify: exactly one of --expr and --poly."""
    text = p.add_mutually_exclusive_group(required=True)
    text.add_argument("--expr")
    text.add_argument("--poly")


#: The subcommands, in the order of the usage line and the help listing.
COMMANDS = ("eval", "expand", "zero-test", "member", "bound", "sample", "falsify",
            "verify-sohs", "gram-export", "selftest")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser.  Given one of COMMANDS it builds only that
    subcommand's parser, which parses that command and prints its help and
    errors as the full parser does; otherwise it builds them all."""
    ap = argparse.ArgumentParser(
        prog="ncrat",
        description="Exact calculus for noncommutative rational functions: "
        "realizations, ideal membership, size bounds, samplers, SOHS checking.",
    )
    # the usage line lists every command, built or not
    only = command if command in COMMANDS else None
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar=None if only is None else "{" + ",".join(COMMANDS) + "}")

    def wanted(name):
        return only is None or only == name

    if wanted("eval"):
        p = sub.add_parser("eval", help="evaluate an expression at an exact point")
        _add_text(p)
        p.add_argument("--g", type=int, default=2)
        p.add_argument("--point", required=True, help="scalar:v[,v...] or file:PATH")
        _add_common(p)
        p.set_defaults(func=cmd_eval)

    if wanted("expand"):
        p = sub.add_parser("expand", help="series coefficients of an expression")
        p.add_argument("--expr", required=True)
        p.add_argument("--g", type=int, default=2)
        p.add_argument("--basepoint", required=True)
        p.add_argument("--order", type=int, default=3)
        _add_common(p)
        p.set_defaults(func=cmd_expand)

    if wanted("zero-test"):
        p = sub.add_parser("zero-test", help="is the expression the zero series?")
        p.add_argument("--expr", required=True)
        p.add_argument("--g", type=int, default=2)
        p.add_argument("--basepoint", required=True)
        _add_common(p)
        p.set_defaults(func=cmd_zero_test)

    if wanted("member"):
        p = sub.add_parser("member", help="exact ideal membership")
        p.add_argument("--poly", required=True)
        p.add_argument("--witness", action="store_true", help="search a counterexample")
        _add_common(p, ideal=True, rand=True)
        p.set_defaults(func=cmd_member)

    if wanted("bound"):
        p = sub.add_parser("bound", help="print the applicable size bounds")
        p.add_argument("--poly", required=True)
        _add_common(p, ideal=True)
        p.set_defaults(func=cmd_bound)

    if wanted("sample"):
        p = sub.add_parser("sample", help="draw a structured random tuple")
        p.add_argument("--domain", required=True,
                       choices=DOMAIN_KINDS)
        p.add_argument("--g", type=int, default=2)
        p.add_argument("--size", type=int, required=True)
        p.add_argument("--index", type=int, default=0, help="trial index substream")
        p.add_argument("--seed", type=int, default=None)
        _add_common(p)
        p.set_defaults(func=cmd_sample)

    if wanted("falsify"):
        p = sub.add_parser("falsify", help="counterexample search")
        _add_text(p)
        p.add_argument("--domain", default="unitaries",
                       choices=DOMAIN_KINDS)
        p.add_argument("--sizes", help="e.g. 1..6 or 4")
        p.add_argument("--mode", choices=FALSIFY_MODES, default="nonzero")
        p.add_argument("--tol", type=float, default=FLOAT_TOL,
                       help="float tolerance of --domain samples and --mode negative-eigenvalue")
        _add_common(p, ideal=True, rand=True)
        p.set_defaults(func=cmd_falsify)

    if wanted("verify-sohs"):
        p = sub.add_parser("verify-sohs", help="check a sum-of-squares certificate")
        p.add_argument("--cert", required=True, help="certificate JSON file")
        _add_common(p, ideal=True)
        p.set_defaults(func=cmd_verify_sohs)

    if wanted("gram-export"):
        p = sub.add_parser("gram-export", help="export the Gram feasibility problem")
        p.add_argument("--poly", required=True)
        p.add_argument("--q", help="known ideal part to subtract")
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--g", type=int, default=1)
        p.add_argument("--out", required=True)
        _add_common(p)
        p.set_defaults(func=cmd_gram_export)

    if wanted("selftest"):
        p = sub.add_parser("selftest", help="run the acceptance checks")
        p.add_argument("--quick", action="store_true", help="reduced trial counts")
        p.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command given first needs only its own parser
    ap = build_parser(argv[0] if argv else None)
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (NcratError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
