"""Checks of the answers of a run, one function per workload.

Each returns a list of error messages, empty when every answer holds.
An answer is compared with the label the corpus gave it by construction,
and the label itself is confirmed by exactcheck: members vanish at exact
points of the zero set and non-members do not, identities vanish at
random rational matrix points and perturbed ones do not, witnesses lie
on the domain and f does not vanish there.
"""

from __future__ import annotations

import json
import random

import exactcheck as ex
from corpus import generator_texts, letter_names

POINT_SIZES = (2, 3)
EXTRA_SIZES = (4, 4)  # for non-members that vanish at the first points
WITNESS_TOL = 1e-10


def _same_in_every_round(outs, name, errors):
    if any(o != outs[0] for o in outs[1:]):
        errors.append(f"{name}: the answer differs between rounds")
    return outs[0]


class ZeroSetPoints:
    """Exact checking points per built-in ideal, confirmed on the ideal's
    defining relations before use."""

    def __init__(self, seed, errors):
        self.seed, self.errors, self.points = seed, errors, {}

    def __call__(self, kind, g, sizes=POINT_SIZES):
        key = (kind, g, sizes)
        if key not in self.points:
            rng = random.Random(f"points/{self.seed}/{kind}/{g}/{sizes}")
            pts = [ex.zero_set_point(kind, g, n, rng) for n in sizes]
            for text in generator_texts(kind, g):
                poly = ex.poly_from_text(text)
                if not all(ex.poly_vanishes(poly, p) for p in pts):
                    self.errors.append(f"{kind}(g={g}): relation {text!r} fails at a checking point")
            self.points[key] = pts
        return self.points[key]

    def confirm(self, kind, g, poly, member, name):
        """A member vanishes at every point; a non-member not at some (the
        larger points are drawn only when the first ones miss)."""
        if member:
            if not all(ex.poly_vanishes(poly, p) for p in self(kind, g)):
                self.errors.append(f"{name}: labelled a member but does not vanish on the zero set")
        elif all(ex.poly_vanishes(poly, p) for sizes in (POINT_SIZES, EXTRA_SIZES)
                 for p in self(kind, g, sizes)):
            self.errors.append(f"{name}: labelled a non-member but vanishes at every checking point")


def ncpoly_terms(f, alphabet):
    """An ncrat NcPoly as exactcheck's {word: (re, im)}."""
    return {
        tuple((alphabet.names[letter.index - 1], letter.starred) for letter in word): (c.re, c.im)
        for word, c in f.terms.items()
    }


def check_member(seed, corpus, ideals, answers):
    errors = []
    points = ZeroSetPoints(seed, errors)
    for (kind, g), ideal in ideals.items():
        for f in ideal.generators:
            if not all(ex.poly_vanishes(ncpoly_terms(f, ideal.alphabet), p) for p in points(kind, g)):
                errors.append(f"{ideal.name}: ncrat's generator {f} does not vanish at a checking point")
    for i, item in enumerate(corpus):
        if i not in answers:
            continue  # the operation failed; counted in `failed`
        name = f"member item {i} ({item.kind} g={item.g}, {'member' if item.member else 'non-member'})"
        verdict = _same_in_every_round(answers[i], name, errors)
        if verdict != item.member:
            errors.append(f"{name}: is_member answered {verdict}")
        alphabet = ideals[(item.kind, item.g)].alphabet
        points.confirm(item.kind, item.g, ncpoly_terms(item.poly, alphabet), item.member, name)
    return errors


def _confirm_identity(text, zero, seed, name, errors):
    node = ex.parse(text)
    if zero:
        if not all(ex.is_zero(value) for _, value in ex.random_points(node, seed)):
            errors.append(f"{name}: labelled an identity but is nonzero at a rational matrix point")
    elif all(ex.is_zero(value) for sizes in (POINT_SIZES, EXTRA_SIZES)
             for _, value in ex.random_points(node, f"{seed}/{sizes}", sizes)):
        errors.append(f"{name}: labelled a non-identity but vanishes at every checking point")


def check_zero_test(seed, corpus, answers):
    errors = []
    for i, item in enumerate(corpus):
        if i not in answers:
            continue
        name = f"zero-test item {i} ({item.name}, {'identity' if item.zero else 'non-identity'})"
        zero, n_min = _same_in_every_round(answers[i], name, errors)
        if zero != item.zero:
            errors.append(f"{name}: is_zero answered {zero}")
        if (n_min == 0) != zero:
            errors.append(f"{name}: minimal dimension {n_min} with verdict zero={zero}")
        _confirm_identity(item.text, item.zero, f"zero-test/{seed}/{i}", name, errors)
    return errors


def check_cli(seed, corpus, answers):
    errors = []
    points = ZeroSetPoints(seed, errors)
    for i, item in enumerate(corpus):
        if i not in answers:
            continue
        name = f"cli item {i} ({item.name})"
        code, stdout = _same_in_every_round(answers[i], name, errors)
        if code != item.exit_code:
            errors.append(f"{name}: exit code {code}, expected {item.exit_code}")
        try:
            data = json.loads(stdout)
        except ValueError:
            errors.append(f"{name}: output is not JSON: {stdout[:200]!r}")
            continue
        spec = item.check
        yes = item.exit_code == 0
        kind = spec["type"]
        if kind == "member":
            if data.get("member") is not yes:
                errors.append(f"{name}: member = {data.get('member')}")
            points.confirm(spec["kind"], spec["g"], ex.poly_from_text(spec["poly"]), yes, name)
            if spec.get("witness"):
                _check_witness(data.get("witness"), spec, name, errors)
        elif kind == "zero-test":
            if data.get("zero") is not yes:
                errors.append(f"{name}: zero = {data.get('zero')}")
            if (data.get("minimal_dimension") == 0) != bool(data.get("zero")):
                errors.append(f"{name}: minimal dimension {data.get('minimal_dimension')} "
                              f"with zero = {data.get('zero')}")
            _confirm_identity(spec["expr"], yes, f"cli/{seed}/{i}", name, errors)
        elif kind == "bound":
            want = ex.poly_degree_terms(ex.poly_from_text(spec["poly"]))
            if (data.get("degree"), data.get("terms")) != want:
                errors.append(f"{name}: degree, terms = {data.get('degree')}, {data.get('terms')}; "
                              f"expected {want}")
        elif kind == "falsify":
            points.confirm(spec["kind"], spec["g"], ex.poly_from_text(spec["poly"]), yes, name)
            if yes and data.get("witness") is not None:
                errors.append(f"{name}: a witness for an identity on the domain")
            if not yes:
                _check_witness(data.get("witness"), spec, name, errors)
        elif kind == "verify-sohs":
            cert = spec["cert"]
            if data.get("valid") is not spec["valid"]:
                errors.append(f"{name}: valid = {data.get('valid')}")
            square = ex.poly_from_text(cert["squares"][0])
            total = ex.poly_add(ex.poly_mul(ex.poly_star(square), square), ex.poly_from_text(cert["remainder"]))
            if ex.poly_from_text(cert["polynomial"]) != total:
                errors.append(f"{name}: the certificate's identity does not hold")
            points.confirm("T", 2, ex.poly_from_text(cert["remainder"]), spec["valid"], name)
    return errors


def _check_witness(witness, spec, name, errors):
    if witness is None:
        errors.append(f"{name}: no witness")
        return
    for err in ex.check_witness(witness, letter_names(spec["kind"], spec["g"]),
                                generator_texts(spec["kind"], spec["g"]), spec["poly"], WITNESS_TOL):
        errors.append(f"{name}: {err}")
