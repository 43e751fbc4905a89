"""
Exact polynomial maps from the ground up
========================================

Everything downstream rests on two objects: sparse multivariate
polynomials over Q and tuples of them acting as self-maps of affine
space. No floats anywhere; coefficients are fractions.Fraction, so every
identity printed below is exact.
"""

from fractions import Fraction

from polyaut import Endo, Poly, parse_poly, render_poly

# Polynomials can be assembled from generators or parsed from text.
x, y, z = Poly.variables(3)
sigma = y * y + x * z
print("sigma          =", render_poly(sigma))
print("sigma^2        =", render_poly(sigma * sigma))
print("parsed == built:", parse_poly("Y^2 + X*Z", 3) == sigma)

# The famous degree-5 automorphism of affine 3-space built from sigma.
# Note sigma is constant along its flow: both nontrivial coordinates
# shift X and Y by multiples of sigma itself.
f = Endo((x - 2 * y * sigma - z * sigma * sigma, y + z * sigma, z))
print()
print("F  =", f)

# Composition is substitution: (F o G) applies G first. The inverse
# flips the sign of the shift.
f_inv = Endo((x + 2 * y * sigma - z * sigma * sigma, y - z * sigma, z))
print("F o F^-1 =", f.compose(f_inv))
print("F^-1 o F =", f_inv.compose(f))

# Iterates stay degree 5: the map is a time-1 flow, so powers just
# rescale the shift. Compare the third iterate against the direct
# construction with tripled coefficients.
f3 = f.iterate(3)
expected = Endo((x - 6 * y * sigma - 9 * z * sigma * sigma, y + 3 * z * sigma, z))
print()
print("F^3 == (X - 6Y sigma - 9Z sigma^2, Y + 3Z sigma, Z):", f3 == expected)
print("degrees of F^0..F^4:", [max(p.total_degree() for p in f.iterate(m).coords) for m in range(5)])

# The Jacobian determinant of any composition of shears is constant 1,
# and partial derivatives are exact too.
print()
print("det J(F) =", render_poly(f.jacobian_det()))
print("d(sigma)/dZ =", render_poly(sigma.partial_derivative(3)))

# Arithmetic sanity: a rational scalar keeps everything in Q.
half = Fraction(1, 2) * sigma
print("1/2 * sigma =", render_poly(half))
