"""
Concentration and moment inequalities
=====================================

Compare empirical moment generating functions and scaled moments of the
particle error against their closed-form bounds.  Both comparisons are
one-sided: the theory gives inequalities, and each pass decision carries an
explicit sampling-error allowance.
"""

import fkbench as fk
from fkbench import zoo

entry = zoo.build("ring_walk")
model, f = entry.model, entry.f
tables = fk.contraction_tables(model, fk.exact_flow(model).etas)
n = model.horizon
print(f"model: {entry.name}, b({n}) = {fk.concentration_b(tables, n):.3f}")

N = 400
report = fk.concentration_experiment(model, f, N, n_reps=2000, master_seed=8)
print("\neps      empirical MGF   bound          pass")
for eps, emp, bnd, allow in zip(
    report.eps_grid, report.empirical, report.bounds, report.allowances
):
    print(f"{eps:8.4f}  {emp:12.5f}  {bnd:14.5g}  "
          f"{emp <= bnd * (1 + allow)}")
print(f"overall: {report.passed}")

moments = fk.lp_moment_experiment(model, f, N, n_reps=2000, master_seed=8)
print("\np   scaled moment   bound        pass")
for p, lhs, rhs, allow, ok in moments.rows():
    print(f"{p}   {lhs:12.5f}  {rhs:10.5f}   {ok}")
print(f"overall: {moments.passed}")

# the independent-sampling analogue with an exactly computable second moment
iid = fk.iid_moment_check([0.5, 0.5], [-0.5, 0.5], 400, 3000, master_seed=8)
print("\nindependent draws, centered coin, osc = 1:")
for p, lhs, rhs, allow, ok in iid.rows():
    note = "   (exact value 1/2)" if p == 2 else ""
    print(f"p={p}: {lhs:.4f} <= {rhs:.4f}  {ok}{note}")
