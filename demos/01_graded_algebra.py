"""Exact arithmetic in a free graded-commutative algebra.

Run from the repository root:

    python demos/01_graded_algebra.py
"""

from hilali import basis, dimension_series, format_element, parse_expression, universe

# A universe fixes named generators with degrees.  Even degrees behave like
# polynomial variables, odd degrees square to zero and anticommute.
uni = universe([("x1", 2), ("x2", 6), ("y1", 11), ("y2", 17), ("y3", 13)])

x1 = parse_expression("x1", uni)
y1 = parse_expression("y1", uni)
y2 = parse_expression("y2", uni)

print("x1 * x1       =", format_element(x1 * x1))
print("y2 * y1       =", format_element(y2 * y1), "   (odd factors anticommute)")
print("y1 * y1       =", format_element(y1 * y1), "     (odd squares vanish)")
print("x1 * y1       =", format_element(x1 * y1), "  (mixed factors commute)")

# Coefficients are exact rationals and like terms combine across the
# commutation moves.
e = parse_expression("3/2*x1*y1 - y1*x1", uni)
print("3/2*x1*y1 - y1*x1 =", format_element(e))

# Degreewise bases are complete, duplicate-free, and deterministically
# ordered; the generating function gives an independent count.
quadrics = universe([("x1", 2), ("x2", 2), ("x3", 2)])
print("\ndegree-4 monomials over three degree-2 generators:")
print("  ", [quadrics.format_monomial(m) for m in basis(quadrics, 4)])
print("counts via enumeration:      ",
      [len(basis(quadrics, d)) for d in range(8)])
print("counts via power series:     ", dimension_series(quadrics, 7))
