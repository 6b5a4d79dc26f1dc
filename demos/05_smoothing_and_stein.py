"""
Distribution-distance machinery
===============================

Two tools behind the rate analysis: the characteristic-function smoothing
bound on the sup-distance of two distribution functions, and the
perturbation inequality that controls how much a small additive term can
move a distribution away from the normal.  Both are checked numerically,
first on closed-form normal families, then on realized particle pairs.
"""

import math

import numpy as np
from scipy.special import ndtr

from fkbench import zoo
from fkbench.lab import empirical_cf, normal_cf, smoothing_bound, stein_experiment

density_sup = 1.0 / math.sqrt(2.0 * math.pi)
grid = np.linspace(-8, 8, 200_001)

print("normal shift family: bound vs true sup-distance")
for shift in (0.05, 0.2, 0.5):
    true = float(np.max(np.abs(ndtr(grid - shift) - ndtr(grid))))
    bound = smoothing_bound(normal_cf(mean=shift), normal_cf(), 40.0, density_sup)
    print(f"  shift {shift}: true {true:.5f} <= bound {bound:.5f}")

# the bound also applies to an empirical characteristic function
rng = np.random.default_rng(5)
sample = rng.normal(0.15, 1.0, size=20_000)
bound = smoothing_bound(empirical_cf(sample), normal_cf(), 3.0, density_sup)
print(f"\nempirical cf of a shifted sample: bound {bound:.4f}")

# realized particle pairs: martingale part plus predictable part equals the
# normalized fluctuation, and the predictable part must not move the
# distance by more than the inequality allows
entry = zoo.build("binary_hmm")
report = stein_experiment(entry.model, entry.spec, entry.f, 5, 500, 4000, 61)
print(f"\nrealized pairs: lhs {report.lhs:.4f} <= rhs {report.rhs:.4f} "
      f"(+ allowance {report.allowance:.4f}) -> {report.passed}")
