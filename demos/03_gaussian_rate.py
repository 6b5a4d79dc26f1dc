"""
Rate of the Gaussian approximation
==================================

For each population size of the fixed grid lab.N_GRID, measure the exact
ECDF sup-distance between the normalized terminal fluctuation and the
standard normal, then fit the log-log decay rate.  The classical square-root
rate shows up as a slope near -1/2.  (This demo uses a reduced replicate
count; the acceptance suite runs the full experiment.)
"""

import fkbench as fk
from fkbench import zoo

entry = zoo.build("binary_hmm")
report = fk.clt_rate_experiment(
    entry.model, entry.f, n_reps=500, master_seed=42
)
print("population sizes:", report.n_grid)
print("distances to the normal:", [round(d, 4) for d in report.distances])
print(f"fitted slope {report.slope:.3f}")
print(f"ECDF noise allowance: {report.ecdf_allowance:.4f}")
print(f"slope window {report.slope_window}: passed = {report.passed}")

# independent-draw twin: same harness, horizon zero, binomial fluctuation
twin = zoo.build("iid_reduction")
calibration = fk.clt_rate_experiment(
    twin.model, twin.f, n_reps=4000, master_seed=42
)
print("\ncalibration twin distances:", [round(d, 4) for d in calibration.distances])
print(f"calibration twin slope: {calibration.slope:.3f}")

# gnuplot-ready rate table
print("\n# N  distance  (log-log fit)")
for N, d in zip(report.n_grid, report.distances):
    print(f"{N}  {d:.6f}")
