"""
Path-space expansion and genealogical sampling
==============================================

The same filtering model can be run with whole trajectories as states: the
state at time n is the full path (x_0, ..., x_n), encoded as a base-2
integer, and the potentials act on the terminal coordinate.  The terminal
marginal of the path flow must reproduce the flat flow exactly, and particle
runs sample ancestral lines.
"""

import numpy as np

import fkbench as fk
from fkbench import zoo
from fkbench.zoo import path_decode, path_last_state

horizon = 5
flat = zoo.build("binary_hmm", horizon=horizon)
deep = zoo.build("path_genealogy", horizon=horizon)
print(f"flat dims: {flat.model.dims}")
print(f"path dims: {deep.model.dims}")

flat_flow = fk.exact_flow(flat.model)
deep_flow = fk.exact_flow(deep.model)
for n in range(horizon + 1):
    last = np.array([path_last_state(c, n) for c in range(2 ** (n + 1))])
    marginal = np.array([deep_flow.etas[n][last == x].sum() for x in range(2)])
    gap = np.max(np.abs(marginal - flat_flow.etas[n]))
    print(f"n={n}: terminal marginal {marginal.round(6)}  gap {gap:.2e}")

# the most likely full trajectories under the exact path flow
top = np.argsort(deep_flow.etas[horizon])[::-1][:4]
print("\nmost likely ancestral lines:")
for code in top:
    print(f"  {path_decode(int(code), horizon)}  mass {deep_flow.etas[horizon][code]:.4f}")

# a genealogical particle run: each particle carries its ancestral line
trace = fk.simulate(fk.RunConfig(2000, 3, horizon), deep.model)
counts = trace.counts[horizon][0]  # the run's row: a single run is R = 1
seen = np.argsort(counts)[::-1][:4]
print("\nmost sampled ancestral lines at the final time:")
for code in seen:
    print(f"  {path_decode(int(code), horizon)}  {counts[code]} particles")
