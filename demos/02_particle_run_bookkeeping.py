"""
One particle run and its martingale bookkeeping
===============================================

Simulate a single seeded replicate and evaluate, per time step: the sampling
error increments, the realized increasing process, and the two exact
decompositions of the fluctuation field.  The decomposition residuals are
pure floating-point error on every run; no averaging is involved.

simulate runs any list of replicates as one batch: a trace holds the counts
of R runs, one row per listed replicate.  doob_terms is the one bookkeeping
pass over a trace, against the analytics analyze(model, f) that the caller
makes once: it returns the decompositions and the increasing-process
increments of every run, one row each, in one DoobSeries (the result that
simulate_replicates returns for its batch).  The list here is [0], so each
result below is row 0.
"""

import numpy as np

import fkbench as fk
from fkbench import zoo

np.set_printoptions(precision=5, suppress=True)

entry = zoo.build("binary_hmm")
model, f = entry.model, entry.f

config = fk.RunConfig(n_particles=500, seed=2024, horizon=5)
trace = fk.simulate(config, model, [0])
print(f"replicates in the trace: R = {len(trace.counts[0])}")
print("particle counts per step (rows = time):")
for n, c in enumerate(trace.counts):
    print(f"  n={n}: {c[0]}   empirical = {trace.empirical(n)[0]}")

# each step into time n starts from eta0 (n = 0) or the time-(n-1) measure
emp = [trace.empirical(n) for n in range(6)]
inc_m = np.concatenate(
    [fk.sampling_error(model, mu, emp[n], n, f.values[n])
     for n, mu in enumerate([model.eta0, *emp[:-1]])]
)
series = fk.doob_terms(trace, fk.analyze(model, f))
inc_c = series.delta_c[0]
print("\nsampling-error increments:", inc_m)
print("increasing-process increments:", inc_c)
print("realized increasing process:", np.cumsum(inc_c))
limit = fk.limiting_variance(model, fk.exact_flow(model).etas, f.values[:6])
print("limiting increments:        ", limit)

print("\nfluctuation field w_p:", series.w[0])
print("predictable part b_p: ", series.b[0])
print("martingale part l_p:  ", series.l[0])
print(f"decomposition residuals: mean {series.residual_mean[0]:.2e}, "
      f"field {series.residual_field[0]:.2e}")

# determinism: the same address always reproduces the same trace
again = fk.simulate(config, model, [0])
same = all(np.array_equal(a, b) for a, b in zip(trace.counts, again.counts))
print(f"\nsame seed, same replicate, same trace: {same}")
