"""Quotient modules, the odd-basis search, and Tor tables.

Run from the repository root:

    python demos/03_koszul_tor_pipeline.py
"""

from hilali import (duality_pairing, format_element, halperin_basis,
                    is_regular_sequence, load_model, parse_expression,
                    tor_bounds_check, tor_table, tor_via_model_cross_check,
                    universe)

# Regular sequences are recognized through finite quotient length.  For the
# mixed-powers images, the two highest-degree ones share the branch
# x2 = -x1^3, so they are not regular; the other pairs are.
ring = universe([("x1", 2), ("x2", 6)])
P1 = parse_expression("x1^6 + x2^2", ring)
P2 = parse_expression("x1^9 + x2^3", ring)
P3 = parse_expression("x1^4*x2 + x1*x2^2", ring)
for label, pair in (("(P1, P2)", [P1, P2]), ("(P1, P3)", [P1, P3]),
                    ("(P2, P3)", [P2, P3])):
    print(f"{label} regular:", is_regular_sequence(ring, pair))

# The full pipeline on a pure elliptic model: search an odd basis whose
# first n images are regular, build the finite quotient, act by the
# remaining images, take Koszul homology.
model = load_model("corpus/all-quadrics-n3r3.model.json")
basis = halperin_basis(model, seed=0)
print(f"\nodd basis found by the '{basis.strategy}' strategy; combinations:")
for z in basis.combinations:
    print("   z =", format_element(z))
module = basis.module
print(f"quotient length {module.length}, socle degree {module.socle_degree}")

table = tor_table(module, basis.structure)
print("Tor dims by homological index:", dict(sorted(table.dims.items())),
      "| total", table.total)

print("endpoint bounds:", tor_bounds_check(module, table))
print("duality pairing:", duality_pairing(module))

# The cross-check: total cohomology equals total Tor, matching the number of
# odd factors to the homological index.
check = tor_via_model_cross_check(model, basis, table)
print("\ncross-check (q, dim H_q, dim Tor^q):", list(check.by_odd_count))
