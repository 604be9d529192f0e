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
the joint law stays the oracle, and the path for floats and for truncated
windows.

The chain's moves live in one kernel table per lattice: one row per window
site, switch_jump's for a gap site and busy_transition's for an active one,
held as integers over a common scale for the rational evolve and the
induction, and as floats for the float evolve and for sample_paths.
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
    return _walk_joint(lattice, 0, backend)


def _walk_joint(lattice: LatticeSystem, step: int, backend: str) -> JointDistribution:
    """The walk's law after m + step steps on the window, busy on active sites
    and frozen on gap sites: the chain's joint law at that step whenever its
    marginal is the walk's."""
    n = lattice.m + step
    busy: dict = {}
    lazy: dict = {}
    for j, p in zip(range(-n, n + 1), pmf(n, backend).mass):
        if abs(j) > lattice.j_max:
            continue
        if lattice.is_active(j):
            busy[j] = p
        else:
            lazy[j] = p
    return JointDistribution(step=step, backend=backend, busy=busy, lazy=lazy)


def _kernel(lattice: LatticeSystem):
    """The chain's kernel table, built once per lattice and cached on it.

    One row per window site: switch_jump for a gap site, busy_transition for
    an active site.  Busy mass never sits on a gap site and frozen mass only
    does, so one table serves both.  Returns (weights, scale, floats):
    weights[j] holds row j with each probability p as the integer p * scale,
    scale being the lcm of the rows' denominators; floats[j] holds w / scale,
    the correctly rounded value of the same rational, so float(p) bit for bit.
    """
    table = lattice._cache.get("kernel")
    if table is None:
        rows = [
            (j, busy_transition(lattice, j) if lattice.is_active(j) else switch_jump(lattice, j))
            for j in lattice.sites
        ]
        scale = math.lcm(*{p.denominator for _, row in rows for _, p in row})
        weights = {
            j: [(dest, p.numerator * (scale // p.denominator)) for dest, p in row]
            for j, row in rows
        }
        floats = {j: [(dest, w / scale) for dest, w in row] for j, row in weights.items()}
        table = lattice._cache["kernel"] = (weights, scale, floats)
    return table


def evolve(joint: JointDistribution, lattice: LatticeSystem) -> JointDistribution:
    """One step of the exact evolution of the joint law.

    Busy mass moves by the busy rows; frozen mass sheds its hazard fraction,
    which jumps across the gap and is busy from the next step on.  Mass
    pushed beyond the lattice window is dropped (track total_mass to see it;
    a full window never drops any).

    The rational backend computes the step in integers: the busy masses and
    the switching masses are written as numerators over their common
    denominator D, weighted by the kernel rows scaled to integers over their
    common scale K, summed per site, and turned into one Fraction(sum, D K)
    per site.  Every sum is the exact numerator of the same rational the
    Fraction-by-Fraction step gives, so the reduced Fractions are identical.
    The float backend adds in a fixed order, which fixes its bits.
    """
    if joint.backend == "rational":
        return _evolve_rational(joint, lattice)
    rows = _kernel(lattice)[2]
    j_max = lattice.j_max

    new_busy: dict = defaultdict(float)
    for i, mass in joint.busy.items():
        for dest, p in rows[i]:
            if -j_max <= dest <= j_max:
                new_busy[dest] += mass * p

    new_lazy: dict = {}
    for i, mass in joint.lazy.items():
        h = float(lazy_hazard(i, joint.step, lattice.m))
        switching = mass * h
        staying = mass - switching
        if staying != 0.0:
            new_lazy[i] = staying
        if switching != 0.0:
            for dest, p in rows[i]:
                new_busy[dest] += switching * p

    return JointDistribution(
        step=joint.step + 1, backend="float", busy=dict(new_busy), lazy=new_lazy
    )


def _evolve_rational(joint: JointDistribution, lattice: LatticeSystem) -> JointDistribution:
    rows, scale, _ = _kernel(lattice)
    j_max = lattice.j_max

    new_lazy: dict = {}
    switching: dict = {}
    for i, mass in joint.lazy.items():
        moving = mass * lazy_hazard(i, joint.step, lattice.m)
        staying = mass - moving
        if staying != 0:
            new_lazy[i] = staying
        if moving != 0:
            switching[i] = moving

    dens = {f.denominator for f in joint.busy.values()}
    dens.update(f.denominator for f in switching.values())
    den = math.lcm(*dens)
    lift = {d: den // d for d in dens}

    # same visiting order as the float loop, so the dict keys come out in
    # the same order
    sums: dict = {}
    for i, mass in joint.busy.items():
        a = mass.numerator * lift[mass.denominator]
        for dest, w in rows[i]:
            if -j_max <= dest <= j_max:
                sums[dest] = sums.get(dest, 0) + a * w
    for i, mass in switching.items():
        a = mass.numerator * lift[mass.denominator]
        for dest, w in rows[i]:
            sums[dest] = sums.get(dest, 0) + a * w

    den *= scale
    new_busy = {dest: Fraction(x, den) for dest, x in sums.items()}
    return JointDistribution(
        step=joint.step + 1, backend="rational", busy=new_busy, lazy=new_lazy
    )


def marginal(joint: JointDistribution) -> dict:
    """Site marginal: busy plus frozen mass per site."""
    out = dict(joint.busy)
    for i, mass in joint.lazy.items():
        out[i] = out.get(i, 0) + mass
    return out


def max_marginal_deviation(joint: JointDistribution, lattice: LatticeSystem):
    """Largest |site marginal - walk mass| over the lattice window.

    Floats compare against the float pmf at n = m + step.  Exact masses g
    are tested against the integer row C(2n, k) by g.numerator 4^n ==
    c g.denominator, and a Fraction difference is formed only at a site that
    deviates.
    """
    n = lattice.m + joint.step
    got = marginal(joint)
    if joint.backend == "rational":
        row = _binomial_row(n)
        zero = worst = Fraction(0)
        shift = 2 * n
        for j in lattice.sites:
            g = got.get(j, zero)
            c = row[j + n] if -n <= j <= n else 0
            if g.numerator << shift != c * g.denominator:
                dev = abs(g - Fraction(c, 4**n))
                if dev > worst:
                    worst = dev
        return worst
    law = pmf(n, "float").mass
    worst = 0.0
    for j in lattice.sites:
        dev = abs(got.get(j, 0.0) - (law[j + n] if -n <= j <= n else 0.0))
        if dev > worst:
            worst = dev
    return worst


def _proved_steps(lattice: LatticeSystem, steps: int) -> int:
    """How many of the first `steps` steps provably keep the walk's law.

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
      c_{n+1}(i) at a gap site, and W, K are the kernel's integer weights and
      scale.

    Returns the first step l whose identity fails, or `steps` if none does.
    Each step is O(window) integer work; the joint law is never formed.
    """
    weights, scale, _ = _kernel(lattice)
    for i, row in weights.items():
        for dest, _w in row:
            if not lattice.is_active(dest):
                raise ValueError(f"kernel row of site {i} lands on gap site {dest}")
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
                    return step
                src -= stay
            for dest, w in weights[i]:
                sums[dest + off] += src * w
        want = [0] * (2 * off + 1)
        want[off - n - 1 : off + n + 2] = [scale * c for c in nxt]
        for i in lattice.gap_sites:
            want[i + off] = 0
        if sums[1:-1] != want[1:-1]:
            return step
        row = nxt
    return steps


def run_marginal_certification(
    lattice: LatticeSystem, steps: int, backend: str = "rational"
) -> dict:
    """Report the worst site deviation from the walk's law over all steps.

    The rational backend certifies the marginal identity exactly (deviation
    is the Fraction 0); the float backend should stay within 1e-12 over
    hundreds of steps.  On a full window (j_max >= m + steps) the rational
    backend proves the steps by _proved_steps' one-step identities and
    evolves the joint law only from the first step, if any, whose identity
    fails; otherwise, and for the float backend, it evolves the joint law
    from step 0.  Either way the report is the one the evolution gives.
    """
    start = 0
    if backend == "rational" and lattice.j_max >= lattice.m + steps:
        start = _proved_steps(lattice, steps)
    joint = _walk_joint(lattice, start, backend)
    worst = max_marginal_deviation(joint, lattice)
    for _ in range(start, steps):
        joint = evolve(joint, lattice)
        dev = max_marginal_deviation(joint, lattice)
        if dev > worst:
            worst = dev
    one = Fraction(1) if backend == "rational" else 1.0
    return {
        "m": lattice.m,
        "N": lattice.system.n_intervals,
        "steps": steps,
        "backend": backend,
        "max_abs_deviation": float(worst),
        "exactly_zero": worst == 0,
        "mass_deficit": float(abs(one - joint.total_mass())),
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
    for j, row in _kernel(lattice)[2].items():
        dest[j + off, : len(row)] = [d for d, _ in row]
        cum[j + off, : len(row)] = np.cumsum([p for _, p in row])
    is_gap = np.array([not lattice.is_active(j) for j in lattice.sites])
    hazards = np.zeros((horizon_steps, 2 * off + 1), dtype=float)
    for step in range(horizon_steps):
        for j in lattice.gap_sites:
            hazards[step, j + off] = float(lazy_hazard(j, step, m))
    start_cdf = np.cumsum(pmf(m, "float").mass)

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
