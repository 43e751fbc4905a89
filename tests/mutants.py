"""Mutation gate: every certificate check fails a named test when it is broken.

Each row of MUTANTS is (file under src/polyaut, exact old text, new text,
test node ids).  For each row the script copies src/ to a temporary
directory, replaces the old text by the new one there and runs
`python -m pytest -x -q` on the row's tests against that copy.  A row
whose tests still pass is a surviving mutant: the check it breaks is not
tested.  A row whose old text is not found exactly once is stale, so a
refactor of a checked line must update the table with it.  Before the
mutants, every named test is run once against the unchanged src/, so a
test that fails for another reason cannot count as a kill.

The tests are named one by one, not by file: hypothesis can spend a minute
shrinking the failure of a whole file, and a few fast tests that reach the
check are enough to kill it.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

It prints one line per row and exits 1 if any mutant survives, any row is
stale or the unchanged tests fail, else 0.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600  # seconds for one pytest run

# (file, old text, new text, test node ids that must fail)
MUTANTS = [
    # the ten raise sites a certificate rests on, each replaced by pass
    ("endo.py",
     'raise InconsistencyError(f"iterate {j} does not have the degrees predicted for it")',
     "pass",
     ["tests/test_locfin.py::test_degree_certificate_mismatch_raises"]),
    ("locfin.py",
     'raise InconsistencyError("certified relation failed to vanish")',
     "pass",
     ["tests/test_locfin.py::test_a_relation_that_fails_to_vanish_raises"]),
    ("locfin.py",
     "raise ValueError(\n"
     '            "the vanishing polynomial has zero constant term, so no inverse can be read off it"\n'
     "        )",
     "pass",
     ["tests/test_locfin.py::test_invert_flags_zero_constant_term"]),
    ("locfin.py",
     'raise InconsistencyError("the inverse read off the minimal polynomial fails")',
     "pass",
     ["tests/test_locfin.py::test_invert_error_contract"]),
    ("tame.py",
     'raise InconsistencyError("affine expansion does not recompose to [A | b]")',
     "pass",
     ["tests/test_tame.py::test_block_check_catches_a_wrong_affine_push"]),
    ("tame.py",
     'raise InconsistencyError("push identity D o E = E~ o D failed")',
     "pass",
     ["tests/test_tame.py::test_wrong_push_makes_the_cli_exit_1"]),
    ("witness.py",
     'raise InconsistencyError(f"not a witness: {failure}")',
     "pass",
     ["tests/test_witness.py::test_verify_rejects_tampered_diagonal"]),
    ("witness.py",
     'raise VerificationError("sigma o L != sigma/4")',
     "pass",
     ["tests/test_witness.py::test_obs4_refuses_each_failed_step[semi-invariant]"]),
    ("witness.py",
     'raise VerificationError("F^-1 o L o F does not match the closed form")',
     "pass",
     ["tests/test_witness.py::test_obs4_refuses_each_failed_step[closed-form]"]),
    ("witness.py",
     'raise VerificationError("det J(F) != 1")',
     "pass",
     ["tests/test_witness.py::test_obs4_refuses_each_failed_step[jacobian]"]),
    # the finder refuses a prime that divides a denominator
    ("linalg.py",
     'raise UnluckyPrime(f"denominator {den} vanishes mod {p}")',
     "pass",
     ["tests/test_linalg.py::test_modular_finder_rejects_denominator_divisible_by_p"]),
    # exact division refuses a quotient term above its degree, which could
    # overflow a field
    ("poly.py",
     "if r or qk & high or sum((qk >> s) & mask for s in shifts) > room:",
     "if r or qk & high:",
     ["tests/test_poly.py::test_divide_exact_rejects_remainder_beyond_dividend_degree"]),
    # computation: each result divides out its content, so that equal
    # polynomials have one form
    ("poly.py",
     "g = gcd(den, *num.values())",
     "g = 1",
     ["tests/test_canonical.py::test_equal_polynomials_hash_equal"]),
    # a row swap of the determinant flips its sign
    ("poly.py",
     "scale = -scale",
     "pass",
     ["tests/test_endo.py::test_det_matches_laplace_expansion"]),
    # a packed exponent field has a spare top bit, for exact division's
    # borrow and for constants
    ("poly.py",
     "width = degree_bound.bit_length() + 1",
     "width = degree_bound.bit_length()",
     ["tests/test_poly.py::test_exponents_on_a_packing_field_boundary",
      "tests/test_poly.py::test_exact_division_on_a_packing_field_boundary"]),
    # a finder field holds 2^64 products of residues, not one residue
    ("linalg.py",
     "self._size = (2 * p.bit_length() + 64 + 7) // 8",
     "self._size = (p.bit_length() + 7) // 8",
     ["tests/test_linalg.py::test_packed_finder_carries_at_full_width"]),
    # a zero value at the point proves no degree
    ("endo.py",
     "return None if any(d != NEG_INF and not v for d, v in tops) else tuple(zip(*tops))",
     "return tuple(zip(*tops))",
     ["tests/test_locfin.py::test_compose_leading_reports_cancelling_tops"]),
    # the one-sided inverse check must compose
    ("endo.py",
     "return outer.compose(inner).is_identity()",
     "return True",
     ["tests/test_endo.py::test_verify_inverse_pair"]),
    # a transvection pushed through a diagonal takes the scalar a * c_i / c_l
    ("tame.py",
     "return i, l, Fraction(a.numerator * ci.numerator * cl.denominator,",
     "return i, l, 2 * Fraction(a.numerator * ci.numerator * cl.denominator,",
     ["tests/test_tame.py::test_normal_form_swap_then_translate"]),
    # the push check scales by the entry of the elementary's own slot
    ("tame.py",
     "!= e.g * d.c[e.i - 1]:",
     "!= e.g * d.c[0]:",
     ["tests/test_tame.py::test_push_diagonal_example"]),
    # a scaled sum drops the monomials that cancel, so that p - p is zero
    ("poly.py",
     "            if s:\n"
     "                acc[mono] = s\n"
     "            else:\n"
     "                del acc[mono]",
     "            acc[mono] = s",
     ["tests/test_poly.py::test_mixed_scalar_arithmetic", "tests/test_poly.py::test_ring_laws"]),
]


def _pytest(src: Path, tests: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT,
    )


def main() -> int:
    failures = 0
    tests = sorted({t for row in MUTANTS for t in row[3]})
    result = _pytest(ROOT / "src", tests)
    if result.returncode != 0:
        print(f"the unchanged tests fail (pytest exit {result.returncode}):")
        print(result.stdout[-2000:], result.stderr[-2000:], sep="\n")
        return 1
    for path, old, new, tests in MUTANTS:
        where = f"{path}: {old.splitlines()[0].strip()}"
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            target = src / "polyaut" / path
            text = target.read_text()
            if text.count(old) != 1:
                print(f"STALE     {where} (found {text.count(old)} times)")
                failures += 1
                continue
            target.write_text(text.replace(old, new))
            start = time.perf_counter()
            try:
                result = _pytest(src, tests)
            except subprocess.TimeoutExpired:
                print(f"TIMEOUT   {where} (no verdict in {TIMEOUT} s)")
                failures += 1
                continue
            seconds = time.perf_counter() - start
        # pytest exits 1 when a test fails; any other code is a usage error
        if result.returncode == 1:
            print(f"killed    {where} ({seconds:.1f} s)")
        else:
            label = "SURVIVED" if result.returncode == 0 else f"EXIT {result.returncode}"
            print(f"{label:9} {where}")
            print(result.stdout[-2000:], result.stderr[-2000:], sep="\n")
            failures += 1
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
