"""Checks each job's output without the library.

Outputs are read back with qpoly's own reader of the canonical rendering
and checked by exact evaluation at seeded points: rational points where
the values stay small, points in GF(P) for long tame words.  Known answers
are checked where they exist: the chain's minimal polynomial is
(T-1)^(2^(n-1)), also after affine conjugation; Henon-type maps come back
Unknown; every mu is monic and vanishes pointwise; g(inv(p)) = p and
inv(g(p)) = p; a normal form is elementaries then one diagonal and agrees
with the word at each point; each witness identity holds at each point;
each cli run ends with its documented exit code.  No word is ever
recomposed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb

from qpoly import (P, Malformed, apply, derivative, det, evaluate, evaluate_mod,
                   parse_rendered, parse_rendered_map, to_mod)

POINT_VALUES = [Fraction(v) for v in (-2, -1, 1, 2, 3)] + [
    Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2)]
POINTS = 2


class OracleError(AssertionError):
    pass


def _require(ok, message):
    if not ok:
        raise OracleError(message)


def _points(job, n):
    rng = random.Random(f"points:{job['id']}")
    return [tuple(rng.choice(POINT_VALUES) for _ in range(n)) for _ in range(POINTS)]


def _mod_points(job, n):
    rng = random.Random(f"modpoints:{job['id']}")
    return [tuple(rng.randrange(P) for _ in range(n)) for _ in range(POINTS)]


def _lines(output, *keys):
    lines = output.split("\n")
    _require(len(lines) == len(keys), f"expected {len(keys)} lines, got {len(lines)}")
    out = []
    for key, line in zip(keys, lines):
        _require(line.startswith(key + ": "), f"line {line[:40]!r} lacks {key!r}")
        out.append(line[len(key) + 2:])
    return out


# ----------------------------------------------------------------------

def _check_inverse(g, inv, points):
    for p in points:
        _require(apply(g, apply(inv, p)) == p, f"g(inv(p)) != p at {p}")
        _require(apply(inv, apply(g, p)) == p, f"inv(g(p)) != p at {p}")


def _check_vanishing(g, mu, points):
    _require(mu[-1] == 1, "mu is not monic")
    for p in points:
        acc = [Fraction(0)] * len(p)
        v = p
        for a in mu:
            acc = [s + a * x for s, x in zip(acc, v)]
            v = apply(g, v)
        _require(not any(acc), f"mu(g) does not vanish at {p}")


def check_certify(job, output):
    exp = job["expect"]
    n, g = exp["n"], exp["map"]
    if exp["mu_unipotent"] == "Unknown":
        _require(output == "Unknown", "Henon-type map did not come back Unknown")
        return
    mu_text, inv_text = _lines(output, "mu", "inverse")
    mu = [Fraction(c) for c in mu_text.split(" ")]
    d = exp["mu_unipotent"]
    if d is not None:
        _require(mu == [comb(d, k) * (-1) ** (d - k) for k in range(d + 1)],
                 f"mu is not (T-1)^{d}")
    points = _points(job, n)
    _check_vanishing(g, mu, points)
    _check_inverse(g, parse_rendered_map(inv_text, n), points)


def _jacobian_at(f, p):
    n = len(p)
    return det([[evaluate(derivative(f[i], j), p) for j in range(n)] for i in range(n)])


def check_compose(job, output):
    exp = job["expect"]
    n, f, g = exp["n"], exp["f"], exp["g"]
    h_text, it_text, jac_text = _lines(output, "compose", "iterate", "jacobian")
    h, it = parse_rendered_map(h_text, n), parse_rendered_map(it_text, n)
    jac = parse_rendered(jac_text, n)
    for p in _points(job, n):
        _require(apply(h, p) == apply(f, apply(g, p)), f"compose wrong at {p}")
        _require(apply(it, p) == apply(f, apply(f, p)), f"iterate wrong at {p}")
        _require(evaluate(jac, p) == _jacobian_at(f, p), f"jacobian wrong at {p}")


# ----------------------------------------------------------------------
# tame words, evaluated in GF(P)

def _apply_generator_mod(f, v):
    v = list(v)
    if f["kind"] == "elementary":
        i = f["i"] - 1
        v[i] = (v[i] + evaluate_mod(f["g"], v)) % P
        return v
    if f["kind"] == "diagonal":
        return [to_mod(c) * x % P for c, x in zip(f["c"], v)]
    return [(sum(to_mod(a) * x for a, x in zip(row, v)) + to_mod(b)) % P
            for row, b in zip(f["A"], f["b"])]


def _apply_word_mod(factors, p):
    v = list(p)
    for f in reversed(factors):  # the rightmost factor acts first
        v = _apply_generator_mod(f, v)
    return v


def _read_normal_form(doc, n):
    """Generators from a normal-form word document; raises OracleError
    unless it is elementaries followed by exactly one diagonal."""
    _require(isinstance(doc, dict) and doc.get("n") == n, "word document has wrong n")
    factors = doc.get("factors")
    _require(isinstance(factors, list) and factors, "normal form has no factors")
    out = []
    for k, f in enumerate(factors):
        last = k == len(factors) - 1
        if last:
            _require(f.get("kind") == "diagonal", "normal form does not end in a diagonal")
            c = [Fraction(v) for v in f["c"]]
            _require(len(c) == n and all(c), "bad diagonal")
            out.append({"kind": "diagonal", "c": c})
        else:
            _require(f.get("kind") == "elementary", "a non-elementary precedes the diagonal")
            i, g = f["i"], parse_rendered(f["g"], n)
            _require(1 <= i <= n and all(m[i - 1] == 0 for m in g),
                     f"elementary in slot {i} involves x{i}")
            out.append({"kind": "elementary", "i": i, "g": g})
    return out


def _check_normal_form(job, doc, word, n):
    nf = _read_normal_form(doc, n)
    for p in _mod_points(job, n):
        _require(_apply_word_mod(nf, p) == _apply_word_mod(word, p),
                 "normal form disagrees with the word at a point")


def check_nf(job, output):
    exp = job["expect"]
    _check_normal_form(job, json.loads(output), exp["factors"], exp["n"])


# ----------------------------------------------------------------------
# witnesses: (conjugator^-1 o D o conjugator) o D^-1 = target

def _nagata():
    # (X - 2Y s - Z s^2, Y + Z s, Z) with s = Y^2 + XZ, expanded by hand
    f = Fraction
    return [
        {(1, 0, 0): f(1), (0, 3, 0): f(-2), (1, 1, 1): f(-2), (0, 4, 1): f(-1),
         (1, 2, 2): f(-2), (2, 0, 3): f(-1)},
        {(0, 1, 0): f(1), (0, 2, 1): f(1), (1, 0, 2): f(1)},
        {(0, 0, 1): f(1)},
    ]


def _elementary_map(e, n):
    f = [{tuple(int(j == i) for j in range(n)): Fraction(1)} for i in range(n)]
    f[e["i"] - 1] = {**e["g"], **f[e["i"] - 1]}
    return f


def _diagonal_entries(d, n):
    entries = []
    for i, p in enumerate(d):
        mono = tuple(int(j == i) for j in range(n))
        _require(list(p) == [mono], "witness diagonal is not diagonal")
        entries.append(p[mono])
    return entries


def check_witness(job, output, kind):
    exp = job["expect"]
    n = exp["n"]
    doc = json.loads(output)
    _require(doc.get("kind") == kind.capitalize(), f"witness kind is not {kind}")
    _require(doc.get("verified") is True, "witness not reported verified")
    maps = {}
    for key in ("target", "conjugator", "conjugator_inverse", "diagonal"):
        m = doc[key]
        _require(m.get("n") == n, f"{key} has wrong n")
        maps[key] = [parse_rendered(c, n) for c in m["coords"]]
    target = _nagata() if kind == "obs4" else _elementary_map(exp["elementary"], n)
    entries = _diagonal_entries(maps["diagonal"], n)
    if kind == "obs3":
        prod = Fraction(1)
        for c in entries:
            prod *= c
        _require(prod == 1, "Obs3 diagonal does not have determinant 1")
    conj, conj_inv = maps["conjugator"], maps["conjugator_inverse"]
    for p in _points(job, n):
        _require(apply(maps["target"], p) == apply(target, p), f"target wrong at {p}")
        _require(apply(conj, apply(conj_inv, p)) == p, "conjugator pair not inverse")
        _require(apply(conj_inv, apply(conj, p)) == p, "conjugator pair not inverse")
        v = [x / c for x, c in zip(p, entries)]
        v = apply(conj_inv, apply(maps["diagonal"], apply(conj, v)))
        _require(tuple(v) == apply(target, p), f"witness chain fails at {p}")


# ----------------------------------------------------------------------
# cli: exit code, then the content where it is a map or a normal form

def _map_doc(text, fmt, n):
    if fmt == "json":
        doc = json.loads(text)
        _require(doc.get("n") == n, "map document has wrong n")
        return [parse_rendered(c, n) for c in doc["coords"]]
    return parse_rendered_map(text.rstrip("\n"), n)


def check_cli(job, output):
    exp = job["expect"]
    code_text, _, stdout = output.partition("\n")
    codes = exp.get("codes", (exp["code"],))
    _require(int(code_text) in codes,
             f"exit code {code_text}, documented {' or '.join(map(str, codes))}")
    n, fmt = exp["n"], exp["format"]
    points = _points(job, n)
    if "map" in exp:
        got = _map_doc(stdout, fmt, n)
        for p in points:
            _require(apply(got, p) == apply(exp["map"], p), f"map wrong at {p}")
    if "jacobian_of" in exp:
        text = json.loads(stdout)["jacobian_det"] if fmt == "json" else stdout.rstrip("\n")
        jac = parse_rendered(text, n)
        for p in points:
            _require(evaluate(jac, p) == _jacobian_at(exp["jacobian_of"], p),
                     f"jacobian wrong at {p}")
    if "inverse_of" in exp:
        if fmt == "json":
            inv = _map_doc(json.dumps(json.loads(stdout)["inverse"]), "json", n)
        else:
            inv = parse_rendered_map(stdout.rstrip("\n").split("\ninverse: ")[1], n)
        _check_inverse(exp["inverse_of"], inv, points)
    if "word" in exp:
        if fmt == "json":
            doc = json.loads(stdout)
            verified = doc.pop("recomposition_verified")
        else:
            lines = stdout.rstrip("\n").split("\n")
            verified = lines[-1] == "recomposition_verified: true"
            doc = {"n": n, "factors": [json.loads(x) for x in lines[:-1]]}
        _require(verified is True, "recomposition not reported verified")
        _check_normal_form(job, doc, exp["word"], n)


CHECKS = {
    "certify": check_certify,
    "compose": check_compose,
    "nf": check_nf,
    "obs2": lambda job, out: check_witness(job, out, "obs2"),
    "obs3": lambda job, out: check_witness(job, out, "obs3"),
    "obs4": lambda job, out: check_witness(job, out, "obs4"),
    "cli": check_cli,
}


def check(job, output) -> str | None:
    """None if the output is right, else the reason it is not."""
    try:
        CHECKS[job["kind"]](job, output)
    except (OracleError, Malformed, ValueError, KeyError, TypeError,
            IndexError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"[:300]
    return None
