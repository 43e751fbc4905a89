"""Self-test of the benchmark: a smoke run of every workload at tiny size,
then the oracle must reject a tampered copy of each kind of result.

    python3 perfbench/selftest.py

Exits 0 when every check holds; prints one line per check.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import oracle
import qpoly
import run
import workloads


def bump_mu(output: str) -> str:
    """Change one coefficient of mu."""
    mu, rest = output.split("\n", 1)
    coeffs = mu[len("mu: "):].split(" ")
    coeffs[0] = str(Fraction(coeffs[0]) + 1)
    return "mu: " + " ".join(coeffs) + "\n" + rest


def bump_composed(output: str) -> str:
    """Change one coefficient of the composed map."""
    first, rest = output.split("\n", 1)
    coords = first[len("compose: "):].split(", ")
    p = qpoly.parse_rendered(coords[0], len(coords))
    top = max(p)
    p[top] += 1
    if not p[top]:
        del p[top]
    coords[0] = qpoly.render(p)
    return "compose: " + ", ".join(coords) + "\n" + rest


def drop_elementary(output: str) -> str:
    """Drop the first elementary that moves something (the sampler also
    draws zero addends, whose removal changes nothing)."""
    doc = json.loads(output)
    k = next(k for k, f in enumerate(doc["factors"])
             if f["kind"] == "elementary" and f["g"] != "0")
    del doc["factors"][k]
    return json.dumps(doc)


def swap_conjugators(output: str) -> str:
    doc = json.loads(output)
    doc["conjugator"], doc["conjugator_inverse"] = doc["conjugator_inverse"], doc["conjugator"]
    return json.dumps(doc)


def wrong_exit_code(output: str) -> str:
    code, _, stdout = output.partition("\n")
    return f"{int(code) + 1}\n{stdout}"


TAMPER = {  # workload -> (class of the job to tamper, how)
    "certify": [("chain4", bump_mu), ("conj3", bump_mu)],
    "compose": [("dense2", bump_composed), ("sparse5", bump_composed)],
    "tame": [("nf10", drop_elementary), ("obs2", swap_conjugators)],
    "cli": [("cli", wrong_exit_code)],
}


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    ok = True

    def report(passed, what):
        nonlocal ok
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {what}")

    for workload, mix in workloads.TINY_MIX.items():
        jobs = workloads.build(workload, 1, mix)
        reply = run.run_worker(jobs, 0, 1, f"selftest-{workload}", 1)
        failures = run.evaluate(jobs, reply)
        report(not failures, f"{workload}: tiny run passes the oracle {failures or ''}")
        layers = reply["layers"]
        adds = layers["linalg.dependence_add.calls"]
        report((adds > 0) == (workload in ("certify", "cli")),
               f"{workload}: dependence_add calls {adds}")
        outputs = {j["class"]: (j, out) for j, out in zip(jobs, reply["outputs"])}
        for cls, tamper in TAMPER[workload]:
            job, out = outputs[cls]
            reason = oracle.check(job, tamper(out))
            report(reason is not None, f"{workload}: {tamper.__name__} on {cls} rejected: {reason}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
