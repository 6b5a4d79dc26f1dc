"""
Exact flow oracle on a two-state filtering model
================================================

Build the canonical filtering model, evolve the flow exactly, and print
every limiting constant: normalized distributions, log-normalizers, the
variance increments of the transported test function, the contraction
tables of the normalized transport and the concentration constant b(n).
analyze returns the flow and the limiting variance; contraction_tables
builds the tables from the flow; transport rebuilds any single normalized
transport matrix on demand.
"""

import numpy as np

import fkbench as fk
from fkbench import zoo

np.set_printoptions(precision=5, suppress=True)

entry = zoo.build("binary_hmm")
model, f = entry.model, entry.f
print(f"model: {entry.name}, horizon {model.horizon}")
print(f"observation record: {entry.params['observations']}")
print(f"oscillation ratios r_n: {fk.validate_model(model)}")

# the flow recursion: reweight by the potential, then move through the kernel
flow = fk.analyze(model, f)
for n, eta in enumerate(flow.etas):
    print(f"eta_{n} = {eta}   log-normalizer = {flow.log_gamma1[n]:+.5f}")

print("\nvariance increments of the transported family:", flow.deltaC)
print(f"limiting variance sigma^2 = {flow.sigma_sq:.6f}")

# contraction tables: betas[p, n] is the Dobrushin coefficient of the
# row-normalized transport from time p to n, ratios[p, n] its mass ratio
tables = fk.contraction_tables(model, flow.etas)
print("\nDobrushin coefficients (rows p, columns n):")
print(np.where(np.isnan(tables.betas), 0.0, tables.betas))
print("mass ratios:")
print(np.where(np.isnan(tables.ratios), 0.0, tables.ratios))
b = [fk.concentration_b(tables, n) for n in range(model.horizon + 1)]
print("concentration constants b(n):", np.array(b))

# a self-check: transporting eta_p forward must reproduce eta_n exactly
worst = max(
    float(np.max(np.abs(
        flow.etas[p] @ fk.transport(model, flow.etas, p, n) - flow.etas[n]
    )))
    for p in range(model.horizon + 1)
    for n in range(p, model.horizon + 1)
)
print(f"\nworst transport consistency gap: {worst:.2e}")
