"""
Conjugation witnesses: elementaries from diagonals
==================================================

Any normal subgroup containing the diagonal maps swallows far more than
diagonals. These witnesses make that concrete: each one packages a
target map, a conjugator C, and a diagonal D so that

    (C^-1 o D o C) o D^-1 = target,

which is checkable by pure composition. Two constructions cover every
elementary map, and chaining the second yields the degree-5 map whose
tameness was open for decades.
"""

import json
from fractions import Fraction

from polyaut import render_map
from polyaut.tame import Elementary
from polyaut.textio import parse_poly
from polyaut.witness import (
    verify_witness,
    witness_obs2,
    witness_obs3,
    witness_obs4,
)

# First construction: conjugate D = (2X, Y) by the elementary E itself.
# The sandwich E^-1 o D o E lands on (2X + g, Y), and dividing out D
# leaves exactly E. Works over any ground field, but the diagonal is
# not in SL.
e = Elementary(1, parse_poly("x2^3 - x2", 2))
w2 = witness_obs2(e)
print("target     :", render_map(w2.target))
print("conjugator :", render_map(w2.conjugator))
print("diagonal   :", render_map(w2.diagonal))
print("verified   :", verify_witness(w2))

# Second construction: keep the determinant 1 by balancing a against
# 1/a on a second coordinate. The conjugator is another elementary
# whose polynomial divides each coefficient of g by a^(1+r) - 1, with
# r the relevant exponent; solvable whenever a is not a root of unity.
print()
w3 = witness_obs3(e, a=Fraction(3))
print("a = 3 conjugator:", render_map(w3.conjugator))
print("diagonal        :", render_map(w3.diagonal), " (det 1)")
print("verified        :", verify_witness(w3))

# Same witness with a different scale; the h-polynomial adapts.
w3b = witness_obs3(e, a=Fraction(5, 2))
print("a = 5/2 conjugator:", render_map(w3b.conjugator))

# The showpiece: the degree-5 automorphism equals a commutator of a
# linear diagonal-ish map with itself, via the sigma-flow structure.
# The transcript walks the five identities one at a time.
print()
w4 = witness_obs4()
for line in w4.transcript:
    print(" ", line)

# Witnesses serialize with a verified flag that is always true: a Witness
# is checked when it is made, so export renders it without checking again.
doc = w4.to_json_dict()
print()
print("JSON keys:", sorted(doc))
print("kind:", doc["kind"], " verified:", doc["verified"])
print(json.dumps(doc["diagonal"], indent=2))
