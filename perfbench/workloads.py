"""Seeded job lists for each workload.

Every job carries the text the library will see ("input", sent to the
worker) and what the oracle needs to check the answer ("expect", kept in
the parent process).  Generation uses only qpoly, never the library.

A job list is one pass; the class mix and sizes are fixed and the seed
only draws contents (signs, scalars, coefficients, matrices), so one pass
costs about the same for every seed.  Class counts are chosen so that the
median and the 90th percentile of job latency fall inside one class, not
on the boundary between two.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

from qpoly import compose, const, det, render, render_map, var

# ----------------------------------------------------------------------
# the mix of one pass, per workload: class -> jobs per pass

MIX = {
    "certify": {
        "chain6": 1, "conj3": 2, "chain5": 6, "chain4": 4,
        "dejonq3": 3, "dejonq4": 3, "dejonq5": 3, "henon": 50,
    },
    "compose": {"dense4": 5, "dense3": 6, "sparse5": 12, "dense2": 12},
    "tame": {
        "nf10": 38, "nf20": 2, "nf30": 8, "nf40": 1, "nf50": 1,
        "obs2": 4, "obs3": 4, "obs4": 2,
    },
    "cli": {"cli": 22, "cli-heavy": 4},
    "cli-hostile": {"cli": 22, "cli-heavy": 4, "hostile": 2},
}

# a tiny pass per workload for the smoke run of the self-test
TINY_MIX = {
    "certify": {"chain4": 1, "conj3": 1, "dejonq3": 1, "henon": 1},
    "compose": {"dense2": 1, "sparse5": 1},
    "tame": {"nf10": 1, "obs2": 1, "obs3": 1, "obs4": 1},
    "cli": {"cli": 22},
}

# sizes the workloads leave out because one job alone exceeds a run
# (as measured on this code with Python 3.11.7 and 2 CPUs, one run each;
# the benchmark does not run them)
EXCLUDED = [
    {"case": "certify: n = 4 affine-conjugated chain",
     "seconds": "77 to certify plus 385 to invert"},
    {"case": "compose: dense degree-8 maps in 3 variables at 10% density",
     "seconds": "89"},
    {"case": "tame: recomposing a 19-factor word to check a normal form",
     "seconds": "29"},
]

SCALARS = [Fraction(v) for v in (1, -1, 2, 3)] + [Fraction(1, 2)]
COEFF_POOL = [Fraction(v) for v in (-3, -2, -1, 1, 2, 3)] + [
    Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]
DIAG_POOL = [Fraction(v) for v in (-3, -2, -1, 1, 2, 3)] + [
    Fraction(1, 2), Fraction(-1, 3)]


def _monomials(n: int, d: int) -> list:
    return [m for m in itertools.product(range(d + 1), repeat=n) if sum(m) <= d]


# ----------------------------------------------------------------------
# certify: minpoly-invert jobs

def chain(n: int, rng) -> list:
    """x_i + s_i x_{i+1}^2 with signs s_i; diagonally conjugate to the
    plain chain, so its minimal polynomial is (T-1)^(2^(n-1))."""
    f = []
    for i in range(1, n):
        sq = {tuple(2 * int(j == i) for j in range(n)): rng.choice((Fraction(1), Fraction(-1)))}
        f.append({**var(n, i), **sq})
    f.append(var(n, n))
    return f


def _affine(A, b) -> list:
    n = len(A)
    out = []
    for i in range(n):
        p = const(n, b[i])
        for j in range(n):
            if A[i][j]:
                p[tuple(int(k == j) for k in range(n))] = Fraction(A[i][j])
        out.append(p)
    return out


def _inverse_matrix(A) -> list:
    n = len(A)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(A)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


# phi's linear part is a seeded signed permutation of the rows of this
# fixed matrix (det 2, so the conjugate has dense rationals), phi's
# translation is (1, 1, 1) and the chain has plain signs.  With fully
# random integer matrices, translations and chain signs the cost of one job
# spreads over 0.06-1.2 s; this way it stays within 0.29-0.59 s.
CONJ_MATRIX = [[2, 2, 0], [1, 2, 1], [1, 1, 1]]


def conjugated_chain(rng) -> list:
    """phi o chain3 o phi^-1 for phi: x -> S P M x + (1, 1, 1) with
    M = CONJ_MATRIX, P a seeded permutation and S seeded row signs."""
    n = 3
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    A = [[signs[i] * v for v in CONJ_MATRIX[perm[i]]] for i in range(n)]
    b = [Fraction(1)] * n
    Ainv = _inverse_matrix(A)
    phi = _affine(A, b)
    shift = [-sum(Ainv[i][j] * b[j] for j in range(n)) for i in range(n)]
    phi_inv = _affine(Ainv, shift)
    plain = [{**var(n, i + 1), tuple(2 * int(j == i + 1) for j in range(n)): Fraction(1)}
             for i in range(n - 1)] + [var(n, n)]
    return compose(phi, compose(plain, phi_inv))


def dejonquieres(n: int, rng, shape_rng) -> list:
    """x_i -> a_i x_i + f_i(x_{i+1}, ..., x_n), a_i in {+-1, 2, 1/2, 3},
    f_i one or two terms of degree 1 or 2 in the later variables.  The
    scalars and monomials come from shape_rng, the coefficients from rng:
    the cost of certifying depends on the shape (over 2 ms-1.5 s for
    random shapes at n = 5), so a job slot keeps its shape for every seed."""
    f = []
    for i in range(1, n + 1):
        p = {tuple(int(j == i - 1) for j in range(n)): shape_rng.choice(SCALARS)}
        later = [m for m in _monomials(n, 2)
                 if 1 <= sum(m) and all(m[j] == 0 for j in range(i))]
        for mono in shape_rng.sample(later, min(len(later), shape_rng.choice((1, 2)))):
            p[mono] = rng.choice(COEFF_POOL)
        f.append(p)
    return f


def henon(rng) -> list:
    """(x2, x1 + s x2^2 + c): degrees double, so the verdict is Unknown."""
    n = 2
    return [var(n, 2),
            {(1, 0): Fraction(1), (0, 2): rng.choice((Fraction(1), Fraction(-1), Fraction(2))),
             (0, 0): rng.choice(COEFF_POOL)}]


def _certify_job(cls: str, rng, k: int) -> tuple:
    if cls.startswith("chain"):
        n = int(cls[5:])
        g, mu = chain(n, rng), 2 ** (n - 1)
    elif cls == "conj3":
        n, g, mu = 3, conjugated_chain(rng), 4
    elif cls.startswith("dejonq"):
        n = int(cls[6:])
        g, mu = dejonquieres(n, rng, random.Random(f"{cls}:{k}")), None
    else:
        n, g, mu = 2, henon(rng), "Unknown"
    return {"n": n, "map": render_map(g)}, {"n": n, "map": g, "mu_unipotent": mu}


# ----------------------------------------------------------------------
# compose: parse two maps, compose, iterate twice, Jacobian determinant

def dense_map(n: int, profile: dict, rng, support_rng=None) -> list:
    """Per coordinate, profile[d] random monomials of each degree d, drawn
    from support_rng (default rng), with coefficients from the test
    sampler's pool drawn from rng.  A fixed degree profile keeps the size
    of every product, and so the cost of a job, steady across seeds."""
    support_rng = support_rng or rng
    monos = _monomials(n, max(profile))
    f = []
    for _ in range(n):
        chosen = []
        for d, k in sorted(profile.items()):
            chosen += support_rng.sample([m for m in monos if sum(m) == d], k)
        f.append({m: rng.choice(COEFF_POOL) for m in sorted(chosen)})
    return f


# class -> (variables, monomials per degree)
COMPOSE_SHAPES = {
    "dense4": (3, {0: 1, 1: 1, 2: 2, 3: 3, 4: 4}),
    "dense3": (3, {0: 1, 1: 2, 2: 3, 3: 4}),
    "dense2": (3, {0: 1, 1: 3, 2: 5}),
    "sparse5": (5, {0: 1, 1: 1, 2: 3}),
}


def _compose_job(cls: str, rng, k: int) -> tuple:
    n, profile = COMPOSE_SHAPES[cls]
    # A job's cost depends on which monomials its maps have: with random
    # supports one 5-variable job spreads over 30-90 ms, and the median and
    # 90th percentile of a run by 10% between seeds.  So each job slot keeps
    # one support for every seed, and the seed draws the coefficients.
    support = random.Random(f"{cls}:{k}")
    f, g = dense_map(n, profile, rng, support), dense_map(n, profile, rng, support)
    return ({"n": n, "f": render_map(f), "g": render_map(g)},
            {"n": n, "f": f, "g": g})


# ----------------------------------------------------------------------
# tame: normal forms of sampler-style words, and witnesses

def random_poly(rng, n, max_deg, max_terms, avoid=(), shape_rng=None) -> dict:
    """The test suite's sampler: monomials drawn from shape_rng (default
    rng), coefficients from rng."""
    shape_rng = shape_rng or rng
    usable = [j for j in range(n) if j + 1 not in avoid]
    terms = {}
    for _ in range(shape_rng.randint(0, max_terms)):
        mono = [0] * n
        for _ in range(shape_rng.randint(0, max_deg)):
            if usable:
                mono[shape_rng.choice(usable)] += 1
        terms[tuple(mono)] = rng.choice(COEFF_POOL)
    return terms


def random_generator(kind: str, rng, n: int = 3, shape_rng=None) -> dict:
    """One generator in exact form, from the test sampler's distribution.
    shape_rng (default rng) draws the elementary's slot and monomials and
    the affine matrix; rng draws coefficients, diagonal entries and the
    affine translation."""
    shape_rng = shape_rng or rng
    if kind == "E":
        i = shape_rng.randint(1, n)
        return {"kind": "elementary", "i": i,
                "g": random_poly(rng, n, 3, 3, avoid=(i,), shape_rng=shape_rng)}
    if kind == "D":
        return {"kind": "diagonal", "c": [rng.choice(DIAG_POOL) for _ in range(n)]}
    while True:
        A = [[Fraction(shape_rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        if det(A):
            break
    return {"kind": "affine", "A": A, "b": [Fraction(rng.randint(-5, 5)) for _ in range(n)]}


def generator_json(f: dict) -> dict:
    if f["kind"] == "elementary":
        return {"kind": "elementary", "i": f["i"], "g": render(f["g"])}
    if f["kind"] == "diagonal":
        return {"kind": "diagonal", "c": [str(v) for v in f["c"]]}
    return {"kind": "affine", "A": [[str(v) for v in r] for r in f["A"]],
            "b": [str(v) for v in f["b"]]}


def witness_elementary(rng, n: int = 3) -> dict:
    """An elementary whose addend has one term of degree 2 and one of
    degree 3: a fixed shape, so witness jobs cost the same for every seed."""
    i = rng.randint(1, n)
    others = [m for m in _monomials(n, 3) if m[i - 1] == 0]
    g = {rng.choice([m for m in others if sum(m) == d]): rng.choice(COEFF_POOL) for d in (2, 3)}
    return {"kind": "elementary", "i": i, "g": g}


# The sampler draws kinds with weights elementary 2 : diagonal 1 : affine 1.
# A fixed kind sequence with those shares keeps the cost of a word of a
# given length steady across seeds; shuffling it spreads the cost 2x.
WORD_TEMPLATE = "EEDA"


def _tame_job(cls: str, rng, k: int) -> tuple:
    n = 3
    if cls.startswith("nf"):
        length = int(cls[2:])
        kinds = (WORD_TEMPLATE * length)[:length]
        # a word slot keeps its shape for every seed (see random_generator)
        shape = random.Random(f"{cls}:{k}")
        factors = [random_generator(kind, rng, n, shape) for kind in kinds]
        text = json.dumps({"n": n, "factors": [generator_json(f) for f in factors]})
        return {"word": text}, {"n": n, "factors": factors}
    if cls == "obs4":
        return {}, {"n": n}
    e = witness_elementary(rng, n)
    inp = {"n": n, "i": e["i"], "g": render(e["g"])}
    exp = {"n": n, "elementary": e}
    if cls == "obs3":
        inp["a"] = exp["a"] = str(rng.choice((Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2))))
    return inp, exp


# ----------------------------------------------------------------------
# cli: every subcommand in both formats, as subprocesses

def _cli_jobs(rng) -> list:
    """(input, expect) pairs: input holds argv and files to write."""
    jobs = []
    a, b = (dense_map(3, {0: 1, 1: 1, 2: 2}, rng) for _ in range(2))
    e = random_generator("E", rng, 3)
    while not e["g"]:
        e = random_generator("E", rng, 3)
    elementary = [var(3, j + 1) for j in range(3)]
    elementary[e["i"] - 1] = {**e["g"], **var(3, e["i"])}
    dj = dejonquieres(3, rng, random.Random("cli:dejonq3"))
    shape = random.Random("cli:word")
    word = [random_generator(k, rng, 3, shape) for k in (WORD_TEMPLATE * 2)]
    word_text = json.dumps({"n": 3, "factors": [generator_json(f) for f in word]})
    ch = chain(3, rng)
    a_param = str(rng.choice((Fraction(2), Fraction(3), Fraction(1, 2))))
    for fmt in ("text", "json"):
        common = ["--format", fmt]
        plan = [
            (["compose", "--n", "3", "--map=" + render_map(a), "--map=" + render_map(b)],
             {}, 0, {"map": compose(a, b)}),
            (["iterate", "--n", "3", "--map=" + render_map(elementary), "--times", "3"],
             {}, 0, {"map": compose(elementary, compose(elementary, elementary))}),
            (["jacobian", "--n", "3", "--map=" + render_map(a)], {}, 0, {"jacobian_of": a}),
            (["lf-certify", "--n", "3", "--map=" + render_map(ch)], {}, 0, {}),
            (["minpoly-invert", "--n", "3", "--map=" + render_map(dj)],
             {}, 0, {"inverse_of": dj}),
            (["normal-form", "--file", "word.json"], {"word.json": word_text}, 0,
             {"word": word}),
            (["witness-obs2", "--n", "3", "--map=" + render_map(elementary)], {}, 0, {}),
            (["witness-obs3", "--n", "3", "--map=" + render_map(elementary), "--a", a_param],
             {}, 0, {}),
            (["nagata-verify"], {}, 0, {}),
            (["parse-check", "--n", "3", "--map=" + render_map(b)], {}, 0, {"map": b}),
        ]
        for argv, files, code, check in plan:
            jobs.append(({"argv": argv + common, "files": files},
                         {"n": 3, "code": code, "format": fmt, **check}))
    # documented non-zero exits are answers, not failures
    jobs.append(({"argv": ["lf-certify", "--n", "2", "--map=" + render_map(henon(rng))],
                  "files": {}}, {"n": 2, "code": 2, "format": "text"}))
    jobs.append(({"argv": ["parse-check", "--n", "3", "--map=x1 + , x2, x3"],
                  "files": {}}, {"n": 3, "code": 3, "format": "text"}))
    return jobs


def _cli_heavy_jobs(rng, count) -> list:
    """minpoly-invert on the n = 5 chain: a command whose compute time is
    larger than the interpreter's start, so that the 90th percentile of the
    cli workload falls inside a class of equal jobs, not in the noise tail
    of the light ones."""
    jobs = []
    for k in range(count):
        fmt = ("text", "json")[k % 2]
        g = chain(5, rng)
        jobs.append(({"argv": ["minpoly-invert", "--n", "5", "--map=" + render_map(g),
                               "--budget-iter", "32", "--format", fmt], "files": {}},
                     {"n": 5, "code": 0, "format": fmt, "inverse_of": g}))
    return jobs


HOSTILE = [
    # the parser recurses once per parenthesis
    ({"argv": ["parse-check", "--n", "1", "--map=" + "(" * 3000 + "x1" + ")" * 3000],
      "files": {}}, {"n": 1, "code": 3, "format": "text", "codes": (3,)}),
    # iterate has no degree budget; the Henon iterates double in degree
    ({"argv": ["iterate", "--n", "2", "--map=x2, x1 + x2^2", "--times", "30"],
      "files": {}}, {"n": 2, "code": None, "format": "text", "codes": (0, 2, 3)}),
]


# ----------------------------------------------------------------------

def kind_of(workload: str, cls: str) -> str:
    """The worker's job runner for a class."""
    if workload == "tame":
        return "nf" if cls.startswith("nf") else cls
    return "cli" if workload.startswith("cli") else workload


def build(workload: str, seed: int, mix: dict | None = None) -> list:
    """The job list of one pass: dicts with id, kind, class, input, expect."""
    rng = random.Random(f"{workload}:{seed}")
    make = {"certify": _certify_job, "compose": _compose_job, "tame": _tame_job}
    out = []
    for cls, count in (MIX[workload] if mix is None else mix).items():
        if cls == "cli":
            pairs = _cli_jobs(rng)[:count]
        elif cls == "cli-heavy":
            pairs = _cli_heavy_jobs(rng, count)
        elif cls == "hostile":
            pairs = HOSTILE[:count]
        else:
            pairs = [make[workload](cls, rng, k) for k in range(count)]
        out += [{"kind": kind_of(workload, cls), "class": cls, "input": inp, "expect": exp}
                for inp, exp in pairs]
    # one fixed interleaving of the classes for every seed, so that each
    # class meets the heap and caches left by all the others
    random.Random(f"order:{workload}").shuffle(out)
    for k, job in enumerate(out):
        job["id"] = k
    return out


def class_counts(jobs: list) -> dict:
    counts: dict = {}
    for j in jobs:
        counts[j["class"]] = counts.get(j["class"], 0) + 1
    return counts
