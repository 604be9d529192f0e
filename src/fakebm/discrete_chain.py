"""The frozen/busy lattice chain and exact evolution of its joint law.

States are (site, mode).  Busy particles perform the lazy walk, except that a
step into a gap is replaced by a two-point jump across it whose probabilities
keep the mean displacement zero.  Frozen particles sit still and switch to
busy with a hazard tuned so their site keeps exactly the walk's marginal
mass; at the switch they jump to the flanking active sites with the
gambler's-ruin split.  Evolving the joint law with exact rationals therefore
reproduces the walk's law site by site with zero deviation, which is what
run_marginal_certification checks.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .intervals import LatticeSystem
from .lazy_walk import _binomial_row, pmf as walk_pmf

__all__ = [
    "Mode",
    "ChainState",
    "JointDistribution",
    "busy_transition",
    "lazy_hazard",
    "switch_jump",
    "initial_joint",
    "evolve",
    "marginal",
    "max_marginal_deviation",
    "run_marginal_certification",
    "sample_path",
    "sample_endpoints",
]


class Mode(Enum):
    LAZY = "lazy"
    BUSY = "busy"


@dataclass(frozen=True)
class ChainState:
    position: int
    mode: Mode


def busy_transition(lattice: LatticeSystem, i: int) -> list[tuple[int, Fraction]]:
    """Transition row of a busy particle at active site i.

    Interior sites keep the walk's (1/4, 1/2, 1/4); a side facing a gap of
    lattice length g sends 1/(4g) to the far side instead, and the remainder
    stays put.  The mean displacement of every row is zero.
    """
    if not lattice.is_active(i):
        raise ValueError(f"site {i} is not active")
    row: list[tuple[int, Fraction]] = []
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
    stay = 1 - p_left - p_right
    row.append((left, p_left))
    row.append((i, stay))
    row.append((right, p_right))
    return row


def lazy_hazard(i: int, step: int, m: int) -> Fraction:
    """Switch probability of a frozen particle at site i during step l -> l+1.

    1 - mass(m+l+1, i) / mass(m+l, i) = (n + 1 - 2 i^2) / (2 ((n+1)^2 - i^2))
    with n = m + l; positive exactly while n >= 2 i^2, which holds for every
    gap site because |i| * sqrt(2/m) < 1 forces 2 i^2 < m.
    """
    n = m + step
    if n < 2 * i * i:
        raise ValueError("hazard undefined: site mass is not yet shrinking")
    return Fraction(n + 1 - 2 * i * i, 2 * ((n + 1) ** 2 - i * i))


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


def _cast(value: Fraction, backend: str):
    return value if backend == "rational" else float(value)


def initial_joint(lattice: LatticeSystem, m: int, backend: str = "rational") -> JointDistribution:
    """Joint law at step 0: the walk's law after its m warm-up steps.

    Active sites start busy, gap sites start frozen.  Sites outside the
    lattice window are dropped; with the default window the lost tail mass is
    below 1e-12, and a full window (j_max >= m + steps) loses nothing.
    """
    law = walk_pmf(m, backend="rational")
    gap = set(lattice.gap_sites)
    busy: dict = {}
    lazy: dict = {}
    for j in law.support:
        if abs(j) > lattice.j_max:
            continue
        p = _cast(law.prob(j), backend)
        if j in gap:
            lazy[j] = p
        else:
            busy[j] = p
    return JointDistribution(step=0, backend=backend, busy=busy, lazy=lazy)


def _kernel_rows(lattice: LatticeSystem, backend: str):
    """Cached busy rows and switch rows in the requested arithmetic."""
    key = ("kernel", backend)
    rows = lattice._cache.get(key)
    if rows is None:
        gap = set(lattice.gap_sites)
        busy_rows = {}
        jump_rows = {}
        for j in lattice.sites:
            if j in gap:
                jump_rows[j] = [
                    (dest, _cast(p, backend)) for dest, p in switch_jump(lattice, j)
                ]
            else:
                busy_rows[j] = [
                    (dest, _cast(p, backend)) for dest, p in busy_transition(lattice, j)
                ]
        rows = (busy_rows, jump_rows)
        lattice._cache[key] = rows
    return rows


def _integer_kernel_rows(lattice: LatticeSystem):
    """Exact kernel rows as integer weights over one common scale, cached.

    Returns (busy_rows, jump_rows, scale): each probability p of the
    rational rows is stored as the integer p * scale, where scale is the
    least common multiple of the rows' denominators.
    """
    key = ("kernel", "integer")
    rows = lattice._cache.get(key)
    if rows is None:
        busy_rows, jump_rows = _kernel_rows(lattice, "rational")
        every_row = [*busy_rows.values(), *jump_rows.values()]
        scale = math.lcm(*{p.denominator for row in every_row for _, p in row})

        def scaled(table):
            return {
                i: [(dest, p.numerator * (scale // p.denominator)) for dest, p in row]
                for i, row in table.items()
            }

        rows = (scaled(busy_rows), scaled(jump_rows), scale)
        lattice._cache[key] = rows
    return rows


def evolve(joint: JointDistribution, lattice: LatticeSystem, m: int) -> JointDistribution:
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
        return _evolve_rational(joint, lattice, m)
    busy_rows, jump_rows = _kernel_rows(lattice, "float")
    j_max = lattice.j_max

    new_busy: dict = defaultdict(float)
    for i, mass in joint.busy.items():
        for dest, p in busy_rows[i]:
            if -j_max <= dest <= j_max:
                new_busy[dest] += mass * p

    new_lazy: dict = {}
    for i, mass in joint.lazy.items():
        h = float(lazy_hazard(i, joint.step, m))
        switching = mass * h
        staying = mass - switching
        if staying != 0.0:
            new_lazy[i] = staying
        if switching != 0.0:
            for dest, p in jump_rows[i]:
                new_busy[dest] += switching * p

    return JointDistribution(
        step=joint.step + 1, backend="float", busy=dict(new_busy), lazy=new_lazy
    )


def _evolve_rational(joint: JointDistribution, lattice: LatticeSystem, m: int) -> JointDistribution:
    busy_rows, jump_rows, scale = _integer_kernel_rows(lattice)
    j_max = lattice.j_max

    new_lazy: dict = {}
    switching: dict = {}
    for i, mass in joint.lazy.items():
        moving = mass * lazy_hazard(i, joint.step, m)
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
        for dest, w in busy_rows[i]:
            if -j_max <= dest <= j_max:
                sums[dest] = sums.get(dest, 0) + a * w
    for i, mass in switching.items():
        a = mass.numerator * lift[mass.denominator]
        for dest, w in jump_rows[i]:
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


def max_marginal_deviation(joint: JointDistribution, lattice: LatticeSystem, m: int):
    """Largest |site marginal - walk mass| over the lattice window.

    The walk masses are read off one integer row C(2n, k), n = m + step.
    Floats compare against c / 4^n, bit-identical to the float pmf.  Exact
    masses g are tested by g.numerator 4^n == c g.denominator, and a
    Fraction difference is formed only at a site that deviates.
    """
    n = m + joint.step
    row = _binomial_row(n)
    got = marginal(joint)
    if joint.backend == "rational":
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
    four_n = 4**n
    worst = 0.0
    for j in lattice.sites:
        law = row[j + n] / four_n if -n <= j <= n else 0.0
        dev = abs(got.get(j, 0.0) - law)
        if dev > worst:
            worst = dev
    return worst


def run_marginal_certification(
    lattice: LatticeSystem, steps: int, backend: str = "rational"
) -> dict:
    """Evolve the joint law and report the worst site deviation over all steps.

    The rational backend certifies the marginal identity exactly (deviation
    is the Fraction 0); the float backend should stay within 1e-12 over
    hundreds of steps.
    """
    m = lattice.m
    t0 = time.perf_counter()
    joint = initial_joint(lattice, m, backend=backend)
    worst = max_marginal_deviation(joint, lattice, m)
    for _ in range(steps):
        joint = evolve(joint, lattice, m)
        dev = max_marginal_deviation(joint, lattice, m)
        if dev > worst:
            worst = dev
    elapsed = time.perf_counter() - t0
    one = Fraction(1) if backend == "rational" else 1.0
    return {
        "m": m,
        "N": lattice.system.n_intervals,
        "steps": steps,
        "backend": backend,
        "max_abs_deviation": float(worst),
        "exactly_zero": worst == 0,
        "mass_deficit": float(abs(one - joint.total_mass())),
        "elapsed_s": elapsed,
    }


def _float_tables(lattice: LatticeSystem):
    """Dense float sampling tables over the window, cached on the lattice."""
    tables = lattice._cache.get("tables")
    if tables is None:
        busy_rows, jump_rows = _kernel_rows(lattice, "float")
        n = 2 * lattice.j_max + 1
        off = lattice.j_max
        dest = np.zeros((n, 3), dtype=np.int64)
        cum = np.ones((n, 3), dtype=float)
        for j, row in busy_rows.items():
            probs = np.array([p for _, p in row])
            dest[j + off] = [d for d, _ in row]
            cum[j + off] = np.cumsum(probs)
        jump_left = np.zeros(n, dtype=np.int64)
        jump_right = np.zeros(n, dtype=np.int64)
        p_left = np.zeros(n, dtype=float)
        for j, row in jump_rows.items():
            (dl, pl), (dr, _) = row
            jump_left[j + off] = dl
            jump_right[j + off] = dr
            p_left[j + off] = pl
        is_gap = np.zeros(n, dtype=bool)
        for j in lattice.gap_sites:
            is_gap[j + off] = True
        tables = (dest, cum, jump_left, jump_right, p_left, is_gap)
        lattice._cache["tables"] = tables
    return tables


def _initial_positions(lattice: LatticeSystem, m: int, rng, size: int) -> np.ndarray:
    law = walk_pmf(m, backend="float")
    cdf = np.cumsum(law.to_float_array())
    idx = np.searchsorted(cdf, rng.random(size), side="right")
    return idx - m


def sample_path(lattice: LatticeSystem, horizon_steps: int, seed) -> list[ChainState]:
    """One trajectory of the chain, one state per step including step 0."""
    m = lattice.m
    if lattice.j_max < m + horizon_steps:
        raise ValueError("lattice window too small for this horizon")
    rng = np.random.default_rng(seed)
    gap = set(lattice.gap_sites)
    busy_rows, jump_rows = _kernel_rows(lattice, "float")

    j = int(_initial_positions(lattice, m, rng, 1)[0])
    mode = Mode.LAZY if j in gap else Mode.BUSY
    states = [ChainState(j, mode)]
    for step in range(horizon_steps):
        if mode is Mode.LAZY:
            if rng.random() < float(lazy_hazard(j, step, m)):
                (dl, pl), (dr, _) = jump_rows[j]
                j = dl if rng.random() < pl else dr
                mode = Mode.BUSY
        else:
            u = rng.random()
            acc = 0.0
            for dest, p in busy_rows[j]:
                acc += p
                if u < acc:
                    j = dest
                    break
        states.append(ChainState(j, mode))
    return states


def sample_endpoints(
    lattice: LatticeSystem, horizon_steps: int, n_paths: int, seed, block: int = 4096
):
    """Positions and modes of many paths at the horizon step.

    Paths are simulated in fixed-size blocks, block b drawing from the
    substream (seed, b), so results do not depend on how work is scheduled.
    Returns (positions, frozen_mask).
    """
    m = lattice.m
    if lattice.j_max < m + horizon_steps:
        raise ValueError("lattice window too small for this horizon")
    dest, cum, jump_left, jump_right, p_left, is_gap = _float_tables(lattice)
    off = lattice.j_max
    hazards = np.zeros((horizon_steps, 2 * off + 1), dtype=float)
    for step in range(horizon_steps):
        for j in lattice.gap_sites:
            hazards[step, j + off] = float(lazy_hazard(j, step, m))

    positions = np.empty(n_paths, dtype=np.int64)
    frozen = np.empty(n_paths, dtype=bool)
    for b_start in range(0, n_paths, block):
        b = b_start // block
        count = min(block, n_paths - b_start)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        pos = _initial_positions(lattice, m, rng, count)
        lazy = is_gap[pos + off]
        for step in range(horizon_steps):
            # a particle switching this step jumps across its gap and only
            # starts busy stepping from the next step on
            busy_before = ~lazy
            u = rng.random(count)
            idx = pos + off
            switching = lazy & (u < hazards[step, idx])
            side = rng.random(count) < p_left[idx]
            landed = np.where(side, jump_left[idx], jump_right[idx])
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
        positions[b_start : b_start + count] = pos
        frozen[b_start : b_start + count] = lazy
    return positions, frozen
