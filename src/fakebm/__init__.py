"""Fake Brownian motion: a continuous Markov martingale with N(0, 1 + t)
marginals that is not Brownian motion.

The package has two legs.  The discrete leg builds the lattice chain (lazy
random walk plus interval-confined busy kernel) and certifies, by exact
dynamic programming, that its one-dimensional marginals match the lazy walk's
at every step.  The continuous leg simulates the scaling limit by time-
changing a Brownian driver with the occupation clock of the active set, and
the analysis layer runs the statistical checks: marginal KS tests, martingale
bin tests, boundary flux rates, the coupling experiment that exhibits the
strong-Markov failure, and the convex-order premise.
"""

from .densities import (
    GAUSSIAN,
    LOGNORMAL,
    MarginalFamily,
    check_exp_window,
    gaussian_cdf,
    gaussian_density,
    invert_survival_ratio,
    net_inflow,
    survival_ratio,
)
from .intervals import (
    IntervalSystem,
    LatticeSystem,
    build_interval_system,
    fat_cantor_intervals,
    lattice_project,
)
from .lazy_walk import (
    LazyWalkPmf,
    heat_step_residual,
    increment_pmf,
    pmf,
    pmf_value,
    ratio_check,
    scaled_marginal,
)
from .discrete_chain import (
    JointDistribution,
    busy_transition,
    evolve,
    initial_joint,
    lazy_hazard,
    run_marginal_certification,
    sample_paths,
    switch_jump,
)
from .continuous_sim import (
    SimulationResult,
    iter_fake_grid_chunks,
    simulate_exp_marginal_samples,
    simulate_marginal_samples,
)
from .analysis import (
    CouplingReport,
    FluxReport,
    KSReport,
    MartingaleBinReport,
    convex_order_check,
    coupling_experiment,
    count_interval_transitions,
    flux_experiment,
    ks_marginal_test,
    martingale_bin_test,
    potential_function,
    symmetrized_split,
    wilson_interval,
)

__version__ = "0.1.0"
