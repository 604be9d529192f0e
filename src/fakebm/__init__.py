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

Each public name is imported from its module, whose __all__ lists them;
the package itself exports only __version__.
"""

__version__ = "0.1.0"
