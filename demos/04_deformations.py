"""Flat families, Tor semicontinuity, and the perturbation cascade.

Run from the repository root:

    python demos/04_deformations.py
"""

from hilali import (flatness_check, load_model, perturb_and_reduce,
                    standard_family, tor_semicontinuity_check)

model = load_model("corpus/n1r1-powers.model.json")

# The standard family deforms each regular relation P_i to P_i + t x_i; for
# this model that is the family x^2 + t x over Q[x].
family, actions = standard_family(model, seed=0)
report = flatness_check(family, samples=5, seed=0)
print("flatness:", report.verdict, "| fiber lengths:",
      [(str(xi), n) for xi, n in report.lengths])

# At t = 0 the module is local; at generic t it splits into simple points,
# and the Tor table drops from {2, 2} to the binomial row {1, 1}.
semi = tor_semicontinuity_check(family, actions, samples=4, seed=0)
print("special-fiber Tor:", semi.base_dims)
for sample in semi.samples:
    print(f"  xi = {sample.xi}: {sample.dims}  "
          f"(binomial pattern: {sample.binomial_pattern})")

# The perturbation cascade: adjoin an odd line ybar with d ybar = xi * x,
# verify the cancellation equality at each step (the doubling at xi = 0 is
# the Kunneth formula), and end on the all-odd model of dimension 2^(n+r).
cascade = perturb_and_reduce(model, samples=2, seed=0)
print(f"\ncascade on {model.name}: dim H = {cascade.dim_h}")
for step in cascade.steps:
    xis = ", ".join(str(s.xi) for s in step.samples)
    print(f"  cancel {step.x_name}: 2*{step.dim_current} = {step.dim_w_zero}"
          f" >= {step.samples[0].dim_w_xi} = dim H(next)   [xi = {xis}]")
print(f"terminal all-odd dimension: {cascade.terminal_dim}")
print(f"conclusion: 2^{cascade.n} * {cascade.dim_h} >= 2^{cascade.n + cascade.r}"
      f" and dim H >= 2^{cascade.r}:",
      "HOLDS" if cascade.passes else "FAILS")
