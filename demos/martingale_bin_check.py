"""
Conditional-mean test of the martingale property
================================================

E[X_t - X_s | X_s] should vanish for s < t.  Samples of (X_s, X_t) are
binned by the value at s and the mean increment of each bin is compared
to zero in standard-error units.  A drifted copy of the same samples is
run through the identical test as a negative control.
"""

from fakebm.analysis import martingale_bin_test
from fakebm.continuous_sim import simulate_marginal_samples
from fakebm.intervals import build_interval_system

system = build_interval_system([(0.1, 0.4), (0.6, 0.9)])
s, t = 0.5, 1.0

res = simulate_marginal_samples(system, (s, t), 8000, seed=21, dt=2e-4)
x_s, x_t = res.values[:, 0], res.values[:, 1]


def show(tag, rep):
    print(f"{tag}: worst |z| = {rep.z_max:.2f} over {len(rep.bins)} bins, "
          f"{'pass' if rep.passed else 'FAIL'}")
    for b in rep.bins[:3] + rep.bins[-3:]:
        print(f"   bin [{b.lo:+.2f}, {b.hi:+.2f}]  mean inc {b.mean_increment:+.4f} "
              f"+- {b.stderr:.4f}  (n = {b.n})")


show("martingale samples", martingale_bin_test(x_s, x_t))
print()
# add drift 0.15 t: every bin shifts by 0.15 (t - s) and the test flags it
show("drifted control", martingale_bin_test(x_s + 0.15 * s, x_t + 0.15 * t))
