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

The chain's moves live in one kernel table per lattice: one row per window
site, switch_jump's for a gap site and busy_transition's for an active one,
held as Fraction rows for the rational evolve and the induction, and as
float rows for the float evolve and for sample_paths.
"""

from __future__ import annotations

import math
from collections import defaultdict
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
    """Joint law over (site, mode) at a given step, as sparse site -> mass maps."""

    step: int
    backend: str
    busy: dict
    lazy: dict

    def total_mass(self):
        return sum(self.busy.values()) + sum(self.lazy.values())


def initial_joint(lattice: LatticeSystem, backend: str = "rational") -> JointDistribution:
    """Joint law at step 0: the walk's law after its m = lattice.m warm-up steps.

    Active sites start busy, gap sites start frozen.  Sites outside the
    lattice window are dropped; with the default window the lost tail mass is
    below 1e-12, and a full window (j_max >= m + steps) loses nothing.  The
    masses are the walk's law pmf(m, backend).
    """
    m = lattice.m
    busy: dict = {}
    lazy: dict = {}
    for j, p in zip(range(-m, m + 1), pmf(m, backend)):
        if abs(j) > lattice.j_max:
            continue
        if lattice.is_active(j):
            busy[j] = p
        else:
            lazy[j] = p
    return JointDistribution(step=0, backend=backend, busy=busy, lazy=lazy)


def _kernel(lattice: LatticeSystem):
    """The chain's kernel table, built once per lattice and cached on it.

    One row per window site: switch_jump for a gap site, busy_transition for
    an active site.  Busy mass never sits on a gap site and frozen mass only
    does, so one table serves both.  Returns (rows, floats): rows[j] holds
    row j as (dest, Fraction) pairs, floats[j] the same row with each
    probability p as float(p).
    """
    table = lattice._cache.get("kernel")
    if table is None:
        rows = {
            j: busy_transition(lattice, j) if lattice.is_active(j) else switch_jump(lattice, j)
            for j in lattice.sites
        }
        floats = {j: [(dest, float(p)) for dest, p in row] for j, row in rows.items()}
        table = lattice._cache["kernel"] = (rows, floats)
    return table


def evolve(joint: JointDistribution, lattice: LatticeSystem) -> JointDistribution:
    """One step of the exact evolution of the joint law.

    Busy mass moves by the busy rows; frozen mass sheds its hazard fraction,
    which jumps across the gap and is busy from the next step on.  Mass
    pushed beyond the lattice window is dropped (track total_mass to see it;
    a full window never drops any).

    Both backends run the same loop over the kernel table, the rational one
    on its Fraction rows and the float one on its float rows; adding in a
    fixed order fixes the float bits.
    """
    exact = joint.backend == "rational"
    rows = _kernel(lattice)[0 if exact else 1]
    j_max = lattice.j_max

    new_busy: dict = defaultdict(Fraction if exact else float)
    for i, mass in joint.busy.items():
        for dest, p in rows[i]:
            if -j_max <= dest <= j_max:
                new_busy[dest] += mass * p

    new_lazy: dict = {}
    for i, mass in joint.lazy.items():
        h = lazy_hazard(i, joint.step, lattice.m)
        switching = mass * (h if exact else float(h))
        staying = mass - switching
        if staying != 0:
            new_lazy[i] = staying
        if switching != 0:
            for dest, p in rows[i]:
                new_busy[dest] += switching * p

    return JointDistribution(
        step=joint.step + 1, backend=joint.backend, busy=dict(new_busy), lazy=new_lazy
    )


def marginal(joint: JointDistribution) -> dict:
    """Site marginal: busy plus frozen mass per site."""
    out = dict(joint.busy)
    for i, mass in joint.lazy.items():
        out[i] = out.get(i, 0) + mass
    return out


def max_marginal_deviation(joint: JointDistribution, lattice: LatticeSystem):
    """Largest |site marginal - walk mass| over the lattice window, against
    the walk's law pmf(n, backend) at n = m + step."""
    n = lattice.m + joint.step
    got = marginal(joint)
    law = pmf(n, joint.backend)
    zero = worst = Fraction(0) if joint.backend == "rational" else 0.0
    for j in lattice.sites:
        dev = abs(got.get(j, zero) - (law[j + n] if -n <= j <= n else zero))
        if dev > worst:
            worst = dev
    return worst


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

    Each step is O(window) integer work; the joint law is never formed.
    """
    rows = _kernel(lattice)[0]
    scale = math.lcm(*{p.denominator for row in rows.values() for _, p in row})
    weights = {}
    for i, row in rows.items():
        for dest, _p in row:
            if not lattice.is_active(dest):
                raise ValueError(f"kernel row of site {i} lands on gap site {dest}")
        weights[i] = [(dest, p.numerator * (scale // p.denominator)) for dest, p in row]
    m = lattice.m
    off = lattice.j_max + 1  # sums[d + off]; the two ends lie past the window
    gaps = set(lattice.gap_sites)
    row = _binomial_row(m)
    for step in range(steps):
        n = m + step
        nxt = _binomial_row(n + 1)
        sums = [0] * (2 * off + 1)
        for i, c in zip(range(-n, n + 1), row):
            src = 4 * c
            if i in gaps:
                stay = nxt[i + n + 1]
                if src * (1 - lazy_hazard(i, step, m)) != stay:
                    return False
                src -= stay
            for dest, w in weights[i]:
                sums[dest + off] += src * w
        want = [0] * (2 * off + 1)
        want[off - n - 1 : off + n + 2] = [scale * c for c in nxt]
        for i in lattice.gap_sites:
            want[i + off] = 0
        if sums[1:-1] != want[1:-1]:
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
    # dense rows: a busy row's three outcomes, or a gap site's two landing
    # sites with P(left) = cum[., 0]
    off = lattice.j_max
    dest = np.zeros((2 * off + 1, 3), dtype=np.int64)
    cum = np.ones((2 * off + 1, 3), dtype=float)
    for j, row in _kernel(lattice)[1].items():
        dest[j + off, : len(row)] = [d for d, _ in row]
        cum[j + off, : len(row)] = np.cumsum([p for _, p in row])
    is_gap = np.array([not lattice.is_active(j) for j in lattice.sites])
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
            side = rng.random(count) < cum[idx, 0]
            landed = np.where(side, dest[idx, 0], dest[idx, 1])
            pos = np.where(switching, landed, pos)
            lazy = lazy & ~switching
            idx = pos + off
            u2 = rng.random(count)
            step_to = np.where(
                u2 < cum[idx, 0],
                dest[idx, 0],
                np.where(u2 < cum[idx, 1], dest[idx, 1], dest[idx, 2]),
            )
            pos = np.where(busy_before, step_to, pos)
            positions[rows, step + 1] = pos
            frozen[rows, step + 1] = lazy
    return positions, frozen
