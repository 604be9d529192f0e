"""The frozen/busy lattice chain and exact evolution of its joint law.

States are (site, mode).  Busy particles perform the lazy walk, except that a
step into a gap is replaced by a two-point jump across it whose probabilities
keep the mean displacement zero.  Frozen particles sit still and switch to
busy with a hazard tuned so their site keeps exactly the walk's marginal
mass; at the switch they jump to the flanking active sites with the
gambler's-ruin split.  Evolving the joint law with exact rationals therefore
reproduces the walk's law site by site with zero deviation, which is what
run_marginal_certification checks.  For exact rationals on a full window
it checks this by induction instead: no kernel row lands on a gap site, so
the joint law is a function of its site marginal, and each step reduces to
one local integer identity over the binomial row C(2n, n + j).  Evolving
the joint law stays the oracle, and the path for floats, for truncated
windows and for a lattice whose induction fails.

The chain has one dense form.  Its kernel is a (3, window) band per
lattice: one column per window site, holding switch_jump's row for a gap
site and busy_transition's for an active one, as Fraction objects; the
float band is that band cast to float64.  Every column but those of the
gap and boundary sites holds the walk's row (1/4, 1/2, 1/4), so only those
are built row by row.  The induction reads its integer weights from the
Fraction band, and sample_paths its moves from the float one.  Its joint
law is a pair of arrays over the window, busy and frozen mass, of the same
element type.  The step scatters each slot's moves in one numpy operation,
right moves, then stays, then left moves: the order in which a loop over
the sources adds them, so a float step gives the same bits as that loop.
The induction adds its integer sums over the same band, in one np.add.at
per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .intervals import LatticeSystem
from .lazy_walk import _binomial_row, pmf, ratio_check

__all__ = [
    "JointDistribution",
    "busy_transition",
    "lazy_hazard",
    "switch_jump",
    "initial_joint",
    "evolve",
    "marginal",
    "max_marginal_deviation",
    "run_marginal_certification",
    "sample_paths",
]

# paths per sampler block; block b draws from the substream (seed, b)
_BLOCK = 4096


def busy_transition(lattice: LatticeSystem, i: int) -> list[tuple[int, Fraction]]:
    """Transition row of a busy particle at active site i.

    Interior sites keep the walk's (1/4, 1/2, 1/4); a side facing a gap of
    lattice length g sends 1/(4g) to the far side instead, and the remainder
    stays put.  The mean displacement of every row is zero.
    """
    if not lattice.is_active(i):
        raise ValueError(f"site {i} is not active")
    if lattice.is_active(i - 1):
        left, p_left = i - 1, Fraction(1, 4)
    else:
        left = lattice.gap_neighbors(i)[0]
        p_left = Fraction(1, 4 * (i - left))
    if lattice.is_active(i + 1):
        right, p_right = i + 1, Fraction(1, 4)
    else:
        right = lattice.gap_neighbors(i)[1]
        p_right = Fraction(1, 4 * (right - i))
    return [(left, p_left), (i, 1 - p_left - p_right), (right, p_right)]


def lazy_hazard(i: int, step: int, m: int) -> Fraction:
    """Switch probability of a frozen particle at site i during step l -> l+1.

    1 - mass(n+1, i) / mass(n, i) with n = m + l, i.e. one minus the
    reciprocal of ratio_check(n, i); positive exactly while n >= 2 i^2, which
    holds for every gap site because |i| * sqrt(2/m) < 1 forces 2 i^2 < m.
    """
    n = m + step
    if n < 2 * i * i:
        raise ValueError("hazard undefined: site mass is not yet shrinking")
    return 1 - 1 / ratio_check(n, i)


def switch_jump(lattice: LatticeSystem, i: int) -> list[tuple[int, Fraction]]:
    """Landing law of the jump at the switch: gambler's ruin across the gap."""
    left, right = lattice.gap_neighbors(i)
    if lattice.is_active(i):
        raise ValueError(f"site {i} is active; only frozen sites jump")
    span = right - left
    return [(left, Fraction(right - i, span)), (right, Fraction(i - left, span))]


@dataclass
class JointDistribution:
    """Joint law over (site, mode) at a given step, as arrays over the window.

    busy[c] and lazy[c] hold the busy and the frozen mass at site c - j_max,
    in float64 or as Fraction objects.  Busy mass sits only on active sites
    and frozen mass only on gap sites, so each column is 0 in one of them.
    """

    step: int
    backend: str
    busy: np.ndarray
    lazy: np.ndarray

    def total_mass(self):
        # a Python sum in ascending site order, as the float bits of the
        # reported mass deficit are pinned to it
        return sum(self.busy.tolist()) + sum(self.lazy.tolist())


def _zeros(shape, exact: bool) -> np.ndarray:
    """Zero masses: Fraction objects for the rational backend, else float64."""
    return np.full(shape, Fraction(0) if exact else 0.0, dtype=object if exact else float)


def _walk_law(lattice: LatticeSystem, n: int, backend: str) -> np.ndarray:
    """The walk's law pmf(n, backend) as an array over the window; the sites
    beyond the window are dropped."""
    law = pmf(n, backend)
    off = lattice.j_max
    out = _zeros(2 * off + 1, backend == "rational")
    lo, hi = max(-n, -off), min(n, off)
    out[lo + off : hi + off + 1] = law[lo + n : hi + n + 1]
    return out


def initial_joint(lattice: LatticeSystem, backend: str = "rational") -> JointDistribution:
    """Joint law at step 0: the walk's law after its m = lattice.m warm-up steps.

    Active sites start busy, gap sites start frozen.  Sites outside the
    lattice window are dropped; with the default window the lost tail mass is
    below 1e-12, and a full window (j_max >= m + steps) loses nothing.  The
    masses are the walk's law pmf(m, backend).
    """
    busy = _walk_law(lattice, lattice.m, backend)
    lazy = _zeros(busy.shape, backend == "rational")
    gaps = np.array(lattice.gap_sites, dtype=np.int64) + lattice.j_max
    busy[gaps], lazy[gaps] = lazy[gaps], busy[gaps]
    return JointDistribution(step=0, backend=backend, busy=busy, lazy=lazy)


def _band(lattice: LatticeSystem, backend: str):
    """The chain's kernel as a dense band over the window, cached per backend.

    Column c is site c - j_max and holds that site's row: switch_jump's for a
    gap site and busy_transition's for an active one.  Busy mass never sits
    on a gap site and frozen mass only does, so one band serves both.
    Returns (dest, prob, cols, gaps): dest and prob are (3, window) arrays
    whose slots 0, 1, 2 hold each row's left move, stay and right move; a
    gap site's row fills slots 0 and 2 and stays with probability 0.  prob
    holds the Fractions p, as objects, for the rational backend, and for the
    float one that band's astype(float), which is float(p).  cols is the
    busy scatter's target column of each move: dest's column, or the
    discard column window for a move that leaves the window and for every
    slot of a gap site's row, which only frozen mass takes.  gaps holds the
    ascending columns of the gap sites.
    """
    band = lattice._cache.get(("band", backend))
    if band is None:
        if backend == "rational":
            # every column starts as the walk's row; only the gap and
            # boundary sites, the keys of flanks, hold other rows
            off = lattice.j_max
            width = 2 * off + 1
            dest = np.arange(-off, off + 1) + np.arange(-1, 2)[:, None]
            prob = np.full((3, width), Fraction(1, 4), dtype=object)
            prob[1] = Fraction(1, 2)
            for j in lattice.flanks:
                if lattice.is_active(j):
                    slots, row = (0, 1, 2), busy_transition(lattice, j)
                else:
                    slots, row = (0, 2), switch_jump(lattice, j)
                    dest[1, j + off], prob[1, j + off] = j, Fraction(0)
                for s, (d, p) in zip(slots, row):
                    dest[s, j + off] = d
                    prob[s, j + off] = p
            gaps = np.array(lattice.gap_sites, dtype=np.int64) + off
            cols = np.where(np.abs(dest) <= off, dest + off, width)
            cols[:, gaps] = width
        else:
            dest, prob, cols, gaps = _band(lattice, "rational")
            prob = prob.astype(float)
        band = lattice._cache[("band", backend)] = (dest, prob, cols, gaps)
    return band


def evolve(joint: JointDistribution, lattice: LatticeSystem) -> JointDistribution:
    """One step of the exact evolution of the joint law.

    Busy mass moves by the busy rows; frozen mass sheds its hazard fraction,
    which jumps across the gap and is busy from the next step on.  Mass
    pushed beyond the lattice window is dropped (track total_mass to see it;
    a full window never drops any).

    Both backends take the same banded step over _band's table, in float64
    or in Fraction objects.  No busy row lands on a gap site, so each active
    site receives at most one move per slot; scattering the right moves,
    then the stays, then the left moves, and then each gap site's switching
    mass in ascending site order, adds every site's mass in ascending
    source order, which fixes the float bits.  Busy mass at step l lies
    within the walk's reach |j| <= m + l, so only those sources are
    scattered.
    """
    exact = joint.backend == "rational"
    dest, prob, cols, gaps = _band(lattice, joint.backend)
    off = lattice.j_max
    reach = lattice.m + joint.step
    lo, hi = max(off - reach, 0), min(off + reach + 1, 2 * off + 1)

    new = _zeros(2 * off + 2, exact)
    for s in (2, 1, 0):
        new[cols[s, lo:hi]] += prob[s, lo:hi] * joint.busy[lo:hi]

    lazy = _zeros(2 * off + 1, exact)
    for c in gaps.tolist():
        h = lazy_hazard(c - off, joint.step, lattice.m)
        switching = joint.lazy[c] * (h if exact else float(h))
        lazy[c] = joint.lazy[c] - switching
        for s in (0, 2):
            new[dest[s, c] + off] += switching * prob[s, c]
    return JointDistribution(step=joint.step + 1, backend=joint.backend, busy=new[:-1], lazy=lazy)


def marginal(joint: JointDistribution) -> np.ndarray:
    """Site marginal over the window: busy plus frozen mass per site."""
    return joint.busy + joint.lazy


def max_marginal_deviation(joint: JointDistribution, lattice: LatticeSystem):
    """Largest |site marginal - walk mass| over the lattice window, against
    the walk's law pmf(n, backend) at n = m + step."""
    law = _walk_law(lattice, lattice.m + joint.step, joint.backend)
    return max(np.abs(marginal(joint) - law).tolist())


def _proved(lattice: LatticeSystem, steps: int) -> bool:
    """Whether the first `steps` steps provably keep the walk's law.

    For a full window (j_max >= m + steps) and the rational chain.  No kernel
    row lands on a gap site (checked first), so busy mass stays on active
    sites and frozen mass on gap sites, and the joint law at step l is fixed
    by its site marginal.  If that marginal is the walk's law c_n / 4^n, with
    n = m + l and c_n = C(2n, n + .), step l -> l+1 keeps it exactly when,
    in units of 4^-(n+1):

    - at each gap site i, the frozen mass that stays, 4 c_n(i) (1 - h), is
      c_{n+1}(i), h being lazy_hazard(i, l, m);
    - at each active site d, sum_i src_i W(i, d) == K c_{n+1}(d), where src_i
      is 4 c_n(i) at an active site and the switching mass 4 c_n(i) -
      c_{n+1}(i) at a gap site, and W(i, d) = K p is the kernel row's
      probability p written as an integer over the lcm K of the rows'
      denominators.

    The sums are scattered like evolve's step, over a (3, window) band of
    the integer weights W: one np.add.at over all three slots of the active
    sources within the walk's reach, which adds every move even where two
    land on one site, and then each gap site's switching mass onto its
    flanks.  Each step is O(window) integer work; the joint law is never
    formed.
    """
    dest, prob, cols, gaps = _band(lattice, "rational")
    off = lattice.j_max
    width = 2 * off + 1
    landing = np.isin(dest, gaps - off) & (prob != 0)
    if landing.any():
        c, s = np.argwhere(landing.T)[0]
        raise ValueError(f"kernel row of site {c - off} lands on gap site {dest[s, c]}")
    scale = math.lcm(*{p.denominator for p in prob.flat})
    weights = np.array(
        [p.numerator * (scale // p.denominator) for p in prob.flat], dtype=object
    ).reshape(prob.shape)
    quad = 4 * weights  # an active source sends 4 c_n(i)
    m = lattice.m
    row = _binomial_row(m)
    for step in range(steps):
        n = m + step
        lo, hi = off - n, off + n + 1
        nxt = _binomial_row(n + 1)
        sums = np.zeros(width + 1, dtype=object)  # the last entry is discarded
        np.add.at(sums, cols[:, lo:hi], quad[:, lo:hi] * np.array(row, dtype=object))
        for c in gaps.tolist():
            i = c - off
            src, stay = 4 * row[i + n], nxt[i + n + 1]
            if src * (1 - lazy_hazard(i, step, m)) != stay:
                return False
            for s in (0, 2):
                sums[dest[s, c] + off] += (src - stay) * weights[s, c]
        want = np.zeros(width, dtype=object)
        want[lo - 1 : hi + 1] = nxt
        want[gaps] = 0
        if sums[:-1].tolist() != (scale * want).tolist():
            return False
        row = nxt
    return True


def run_marginal_certification(
    lattice: LatticeSystem, steps: int, backend: str = "rational"
) -> dict:
    """Report the worst site deviation from the walk's law over all steps.

    The rational backend certifies the marginal identity exactly (deviation
    is the Fraction 0); the float backend should stay within 1e-12 over
    hundreds of steps.  On a full window (j_max >= m + steps) the rational
    backend proves the steps by _proved's one-step identities, and a proved
    run's report is zero deviation and no lost mass.  Otherwise, and for the
    float backend, it evolves the joint law from step 0.  Either way the
    report is the one the evolution gives.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    report = {
        "m": lattice.m,
        "N": lattice.system.n_intervals,
        "steps": steps,
        "backend": backend,
    }
    if backend == "rational" and lattice.j_max >= lattice.m + steps and _proved(lattice, steps):
        return {**report, "max_abs_deviation": 0.0, "exactly_zero": True, "mass_deficit": 0.0}
    joint = initial_joint(lattice, backend)
    worst = max_marginal_deviation(joint, lattice)
    for _ in range(steps):
        joint = evolve(joint, lattice)
        dev = max_marginal_deviation(joint, lattice)
        if dev > worst:
            worst = dev
    return {
        **report,
        "max_abs_deviation": float(worst),
        "exactly_zero": worst == 0,
        "mass_deficit": float(abs(1 - joint.total_mass())),
    }


def sample_paths(lattice: LatticeSystem, horizon_steps: int, n_paths: int, seed):
    """Trajectories of many paths of the chain, steps 0 to horizon_steps.

    Returns (positions, frozen), each of shape (n_paths, horizon_steps + 1):
    the site of each path at each step and whether it is frozen there.
    Paths are simulated in blocks of _BLOCK, block b drawing from the
    substream (seed, b), so a path does not depend on how many are drawn.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if horizon_steps < 0:
        raise ValueError("horizon_steps must be >= 0")
    m = lattice.m
    if lattice.j_max < m + horizon_steps:
        raise ValueError("lattice window too small for this horizon")
    # a busy row's three outcomes, or a gap site's two landing sites with
    # P(left) = cum[0, .]
    off = lattice.j_max
    dest, prob, _, gaps = _band(lattice, "float")
    cum = np.cumsum(prob, axis=0)
    is_gap = np.zeros(2 * off + 1, dtype=bool)
    is_gap[gaps] = True
    hazards = np.zeros((horizon_steps, 2 * off + 1), dtype=float)
    for step in range(horizon_steps):
        for j in lattice.gap_sites:
            hazards[step, j + off] = float(lazy_hazard(j, step, m))
    start_cdf = np.cumsum(pmf(m, "float"))

    positions = np.empty((n_paths, horizon_steps + 1), dtype=np.int64)
    frozen = np.empty((n_paths, horizon_steps + 1), dtype=bool)
    for b_start in range(0, n_paths, _BLOCK):
        b = b_start // _BLOCK
        count = min(_BLOCK, n_paths - b_start)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        pos = np.searchsorted(start_cdf, rng.random(count), side="right") - m
        lazy = is_gap[pos + off]
        rows = slice(b_start, b_start + count)
        positions[rows, 0] = pos
        frozen[rows, 0] = lazy
        for step in range(horizon_steps):
            # a particle switching this step jumps across its gap and only
            # starts busy stepping from the next step on
            busy_before = ~lazy
            u = rng.random(count)
            idx = pos + off
            switching = lazy & (u < hazards[step, idx])
            side = rng.random(count) < cum[0, idx]
            landed = np.where(side, dest[0, idx], dest[2, idx])
            pos = np.where(switching, landed, pos)
            lazy = lazy & ~switching
            idx = pos + off
            u2 = rng.random(count)
            step_to = np.where(
                u2 < cum[0, idx],
                dest[0, idx],
                np.where(u2 < cum[1, idx], dest[1, idx], dest[2, idx]),
            )
            pos = np.where(busy_before, step_to, pos)
            positions[rows, step + 1] = pos
            frozen[rows, step + 1] = lazy
    return positions, frozen
