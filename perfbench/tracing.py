"""Spans around the library's public functions, recorded from outside.

Tracer.install() replaces each function or method in TARGETS by a wrapper
that records one span: name, parent span, job id, start, end and one count
(coefficient products for a multiplication, terms out of a composition,
entries into the dependence finder, degree of a certified minimal
polynomial).  Names imported with `from ... import` live on in other
module namespaces (locfin holds its own linear_combination and
verify_inverse_pair, witness its own verify_inverse_pair and gen_to_endo,
cli its own lf_certify and parse_map), so every polyaut module is searched
and each copy is replaced; otherwise those calls would escape the trace.

Spans stay in memory in flat arrays and are aggregated and written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

# (module, attribute or Class.method, span name, count recorded)
TARGETS = [
    ("poly", "Poly.__mul__", "poly.mul", "products"),
    ("poly", "Poly.__rmul__", "poly.mul", "products"),
    ("poly", "Poly.__add__", "poly.add", None),
    ("poly", "Poly.__radd__", "poly.add", None),
    ("poly", "Poly.substitute", "poly.substitute", None),
    ("poly", "Poly.divide_exact", "poly.divide_exact", None),
    ("endo", "Endo.compose", "endo.compose", "terms_out"),
    ("endo", "Endo.jacobian_det", "endo.jacobian_det", None),
    ("endo", "linear_combination", "endo.linear_combination", None),
    ("endo", "verify_inverse_pair", "endo.verify_inverse_pair", None),
    ("linalg", "DependenceFinder.add", "linalg.dependence_add", "entries_in"),
    ("linalg", "mat_det", "linalg.dense", None),
    ("linalg", "mat_inverse", "linalg.dense", None),
    ("locfin", "lf_certify", "locfin.lf_certify", "mu_degree"),
    ("locfin", "verify_vanishing", "locfin.verify_vanishing", None),
    ("locfin", "inverse_from_minpoly", "locfin.inverse_from_minpoly", None),
    ("tame", "normal_form", "tame.normal_form", None),
    ("tame", "push_diagonal", "tame.push_diagonal", None),
    ("tame", "affine_to_word", "tame.affine_to_word", None),
    ("tame", "gen_to_endo", "tame.gen_to_endo", None),
    ("witness", "witness_obs2", "witness.construct", None),
    ("witness", "witness_obs3", "witness.construct", None),
    ("witness", "witness_obs4", "witness.construct", None),
    ("witness", "verify_witness", "witness.verify", None),
    ("textio", "parse_map", "textio.parse", None),
    ("textio", "parse_poly", "textio.parse", None),
    ("textio", "render_map", "textio.render", None),
    ("textio", "render_poly", "textio.render", None),
]

NAMES = ["job"] + sorted({t[2] for t in TARGETS})
LOCFIN = {i for i, name in enumerate(NAMES) if name.startswith("locfin.")}
BIG_PRODUCT = 2000  # the library's switch to integer multiplication


def _products(args, result):
    a, b = args[0], args[1]
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


COUNTS = {
    "products": _products,
    "terms_out": lambda args, r: sum(len(p.terms) for p in r.coords),
    "entries_in": lambda args, r: len(args[1]),
    "mu_degree": lambda args, r: r.minimal_polynomial.degree if r.certified else 0,
    None: None,
}


class Tracer:
    def __init__(self):
        self.parent = array("q")
        self.job = array("q")
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack = [-1]
        self._job = -1
        self._restore = []

    def _open(self, name_idx: int) -> int:
        sid = len(self.name)
        self.parent.append(self._stack[-1])
        self.job.append(self._job)
        self.name.append(name_idx)
        self.start.append(0.0)
        self.end.append(0.0)
        self.count.append(0)
        self._stack.append(sid)
        return sid

    def wrap(self, fn, name: str, count=None):
        idx = NAMES.index(name)
        opened, stack, start, end, counts = (
            self._open, self._stack, self.start, self.end, self.count)

        def traced(*args, **kwargs):
            sid = opened(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                start[sid] = t0
                stack.pop()
            if count is not None:
                counts[sid] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every target, in every polyaut namespace that holds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "polyaut" or k.startswith("polyaut.")]
        for modname, attr, name, count in TARGETS:
            mod = importlib.import_module(f"polyaut.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(orig, name, COUNTS[count]))
                continue
            orig = getattr(mod, attr)
            traced = self.wrap(orig, name, COUNTS[count])
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, traced)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def run_job(self, job_id: int, fn, *args):
        """Call fn(*args) under a root span for one job."""
        self._job = job_id
        sid = self._open(0)
        self.start[sid] = perf_counter()
        try:
            return fn(*args)
        finally:
            self.end[sid] = perf_counter()
            self._stack.pop()
            self._job = -1

    def spans(self):
        """Rows (id, parent, job, name, start, end, count)."""
        return [(i, self.parent[i], self.job[i], NAMES[self.name[i]],
                 self.start[i], self.end[i], self.count[i])
                for i in range(len(self.name))]


def aggregate(rows, passes: int) -> dict:
    """Per-layer metrics from span rows (ids must precede their children's
    ids), as totals over one pass of the job list."""
    index = {r[0]: k for k, r in enumerate(rows)}
    child = [0.0] * len(rows)
    in_locfin = [False] * len(rows)
    for k, (sid, parent, _, name, t0, t1, _) in enumerate(rows):
        if parent >= 0:
            p = index[parent]
            child[p] += t1 - t0
            in_locfin[k] = in_locfin[p] or rows[p][3].startswith("locfin.")
    calls: dict = {}
    self_s: dict = {}
    total: dict = {}
    big = 0
    compose_in_locfin = 0
    for k, (_, _, _, name, t0, t1, count) in enumerate(rows):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[k]
        total[name] = total.get(name, 0) + count
        if name == "poly.mul" and count > BIG_PRODUCT:
            big += 1
        if name == "endo.compose" and in_locfin[k]:
            compose_in_locfin += 1

    def c(name):
        return calls.get(name, 0) / passes

    def s(name):
        return self_s.get(name, 0.0) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "poly.mul.calls": c("poly.mul"),
        "poly.mul.self_s": s("poly.mul"),
        "poly.mul.coeff_products": total.get("poly.mul", 0) / passes,
        "poly.mul.big_share": ratio(big, calls.get("poly.mul", 0)),
        "poly.add.calls": c("poly.add"),
        "poly.add.self_s": s("poly.add"),
        "poly.substitute.calls": c("poly.substitute"),
        "poly.substitute.self_s": s("poly.substitute"),
        "poly.divide_exact.self_s": s("poly.divide_exact"),
        "endo.compose.calls": c("endo.compose"),
        "endo.compose.self_s": s("endo.compose"),
        "endo.compose.terms_out": total.get("endo.compose", 0) / passes,
        "endo.linear_combination.self_s": s("endo.linear_combination"),
        "endo.verify_inverse_pair.calls": c("endo.verify_inverse_pair"),
        "endo.verify_inverse_pair.self_s": s("endo.verify_inverse_pair"),
        "endo.jacobian_det.self_s": s("endo.jacobian_det"),
        "linalg.dependence_add.calls": c("linalg.dependence_add"),
        "linalg.dependence_add.self_s": s("linalg.dependence_add"),
        "linalg.dependence_add.entries_in": total.get("linalg.dependence_add", 0) / passes,
        "linalg.dense.self_s": s("linalg.dense"),
        "locfin.lf_certify.self_s": s("locfin.lf_certify"),
        "locfin.verify_vanishing.self_s": s("locfin.verify_vanishing"),
        "locfin.inverse_from_minpoly.self_s": s("locfin.inverse_from_minpoly"),
        "locfin.iterate_useful_ratio": ratio(total.get("locfin.lf_certify", 0),
                                             compose_in_locfin),
        "tame.normal_form.self_s": s("tame.normal_form"),
        "tame.push_diagonal.calls": c("tame.push_diagonal"),
        "tame.push_diagonal.self_s": s("tame.push_diagonal"),
        "tame.affine_to_word.self_s": s("tame.affine_to_word"),
        "tame.gen_to_endo.self_s": s("tame.gen_to_endo"),
        "witness.construct.self_s": s("witness.construct"),
        "witness.verify.calls": c("witness.verify"),
        "witness.verify.self_s": s("witness.verify"),
        "witness.verify_per_witness": ratio(calls.get("witness.verify", 0),
                                            calls.get("witness.construct", 0)),
        "textio.parse.calls": c("textio.parse"),
        "textio.parse.self_s": s("textio.parse"),
        "textio.render.self_s": s("textio.render"),
    }
    return out
