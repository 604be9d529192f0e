"""
Exact marginal certification of the discrete chain
==================================================

The lattice chain mixes two particle populations: busy sites moving with
the {1/4, 1/2, 1/4} kernel (rebalanced across gaps) and frozen gap sites
that hold with a step-dependent hazard.  Evolving the joint (site, mode)
law with rational arithmetic shows the site marginal staying equal to the
lazy random walk's law at every step, with deviation exactly 0.
"""

from fakebm.discrete_chain import evolve, initial_joint, max_marginal_deviation
from fakebm.intervals import build_interval_system, lattice_project

# two active intervals, one interior gap that the lattice can resolve
system = build_interval_system([(0.1, 0.4), (0.6, 0.9)])
lattice = lattice_project(system, 8, j_max=40)

joint = initial_joint(lattice, backend="rational")
print("step   frozen mass          max |marginal - walk law|")
for step in range(1, 21):
    joint = evolve(joint, lattice)
    frozen = sum(joint.lazy.tolist())
    dev = max_marginal_deviation(joint, lattice)
    print(f"{step:4d}   {float(frozen):.15f}    {dev!r}")

# the frozen population drains monotonically but never quite empties;
# the marginal identity holds exactly the whole way
assert dev == 0
print("\ndeviation is the exact Fraction 0 at every step")
