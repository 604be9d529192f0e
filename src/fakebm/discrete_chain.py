"""The frozen/busy lattice chain and exact evolution of its joint law.

States are (site, mode).  Busy particles perform the lazy walk, except that a
step into a gap is replaced by a two-point jump across it whose probabilities
keep the mean displacement zero.  Frozen particles sit still and switch to
busy with a hazard tuned so their site keeps exactly the walk's marginal
mass; at the switch they jump to the flanking active sites with the
gambler's-ruin split.  Evolving the joint law with exact rationals therefore
reproduces the walk's law site by site with zero deviation, which is what
run_marginal_certification checks.

For exact rationals on a full window it proves every step at once from one
finite check of the kernel.  Let K be the lazy walk's kernel on Z, A the
active sites, G the gap sites and p_n the walk's law at n = m + step.
H(x, .), for x in G, is the law of the walk's first active site started
from x; by its first step H = K_GA + K_GG H, and it is gambler's ruin
across the gap, switch_jump's row.  A busy row is one walk step whose
moves into a gap go on by H: B = K_AA + K_AG H, which at a boundary site
is busy_transition's far jump of 1/(4g).  Suppose the busy mass is p_n on
A and the frozen mass p_n on G.  The hazard keeps p_{n+1} frozen on G, so
p_n - p_{n+1} switches there, and the busy mass after the step is

    p_n|_A B + (p_n - p_{n+1})|_G H.

Put in p_{n+1}|_G = p_n|_A K_AG + p_n|_G K_GG: it becomes p_n|_A K_AA +
p_n|_G (I - K_GG) H = p_n|_A K_AA + p_n|_G K_GA = p_{n+1}|_A.  No row of B
or H lands on G, so the busy mass stays on A, and the step keeps the walk's
law on all of Z.  The hazard is a probability at every n >= m because each
gap site has 2 i^2 <= m.  So if the kernel's rows equal B and H, worked
out from the gap sites alone, every step holds, and no mass leaves a window
that holds the walk's reach m + steps: lattice_project's window reaches
past x = 1, so it holds every gap's flanks too.  B and H differ from the
walk's row only at the gap sites and their neighbours, so _certified
compares those rows, as dicts, and no window-sized array.  Evolving the
joint law stays the oracle, and the path for floats, for truncated windows
and for a kernel the check rejects.

The kernel is kept only as the rows that differ from the walk's (_rows):
one (dest, p) row per gap and boundary site, switch_jump's or
busy_transition's, in Fractions; every other site's row is the walk's
(1/4, 1/2, 1/4).  The joint law is a pair of arrays over the window, busy
and frozen mass, as Fraction objects or float64.  A step moves the busy
mass by the walk's stencil over shifted slices, (busy[c-1]/4 + busy[c]/2)
+ busy[c+1]/4, recomputes the few sites where the stencil is wrong from a
small table of their inflow (_inflow), and lands the gap sites' switching
mass in one add.at, site by site.  Every site adds its inflow in the order
in which a loop over the sources adds it, right move in, stay, left move
in, so a float step gives the same bits as that loop.  The sampler looks
each path's row up among the sorted keys of _rows and takes a walk step
elsewhere, so no reader builds a window-sized kernel array.  A float
hazard is lazy_hazard's rational (A - B) / A divided once as Python ints,
and the walk's law is read over the window only (_walk_law).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add

import numpy as np

from .intervals import LatticeSystem
from .lazy_walk import _ratio_terms, pmf

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
    reciprocal of ratio_check(n, i) = A / B: (A - B) / A.  It is positive
    exactly while n >= 2 i^2, which holds for every gap site because
    |i| * sqrt(2/m) < 1 forces 2 i^2 < m.
    """
    n = m + step
    if n < 2 * i * i:
        raise ValueError("hazard undefined: site mass is not yet shrinking")
    a, b = _ratio_terms(n, i)
    return Fraction(a - b, a)


def _float_hazards(sites, step: int, m: int) -> list[float]:
    """float(lazy_hazard(i, step, m)) for each site i, bit for bit: (A - B) / A
    by Python's int true division, which rounds the same rational correctly
    once, as Fraction.__float__ does."""
    n = m + step
    return [(a - b) / a for a, b in (_ratio_terms(n, i) for i in sites)]


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
        # a left-to-right fold in ascending site order, as the float bits of
        # the reported mass deficit are pinned to it; sum() of floats is
        # compensated from Python 3.12 on, so it would move them
        return reduce(add, self.busy.tolist(), 0) + reduce(add, self.lazy.tolist(), 0)


def _zeros(shape, exact: bool) -> np.ndarray:
    """Zero masses: Fraction objects for the rational backend, else float64."""
    return np.full(shape, Fraction(0), dtype=object) if exact else np.zeros(shape)


def _walk_law(lattice: LatticeSystem, n: int, backend: str) -> np.ndarray:
    """The walk's law as an array over the window: pmf(n, backend, j_max),
    the masses of the sites |j| <= min(n, j_max) only, read from the half
    row of C(2n, .); the sites beyond the window are never computed."""
    off = lattice.j_max
    w = min(n, off)
    out = _zeros(2 * off + 1, backend == "rational")
    out[off - w : off + w + 1] = pmf(n, backend, off)
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


# the walk's row (left move, stay, right move)
_WALK = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))


def _rows(lattice: LatticeSystem) -> dict:
    """The kernel rows that differ from the walk's, cached per lattice.

    Maps each gap and boundary site, the keys of flanks, to its three
    (dest, p) moves, left, stay and right: busy_transition's row for an
    active site, and switch_jump's for a gap site with a stay of
    Fraction(0) between its two landings.  Every other site's row is the
    walk's, _WALK.
    """
    rows = lattice._cache.get("rows")
    if rows is None:
        rows = lattice._cache["rows"] = {}
        for j in lattice.flanks:
            if lattice.is_active(j):
                rows[j] = busy_transition(lattice, j)
            else:
                left, right = switch_jump(lattice, j)
                rows[j] = [left, (j, Fraction(0)), right]
    return rows


def _inflow(lattice: LatticeSystem):
    """Where the busy step differs from the walk's stencil, cached per lattice.

    The walk's stencil gives site c the busy mass (busy[c-1]/4 + busy[c]/2)
    + busy[c+1]/4.  It is wrong only at a site that a row of _rows reaches,
    or would reach as a walk row, and at the window's end sites, whose
    outer neighbour is missing; those sites keep their inflow here.  Busy
    mass never sits on a gap site, so only active sources send it, kept in
    the order a loop over the sources in ascending site order adds it; for
    the chain's own rows that is the right move in, the stay, then the left
    move in.  Shorter inflows are padded with moves of p = 0 from the site
    itself.  The gap sites' rows land the switching mass.

    Returns (cols, src, land, probs), as window columns (site + j_max):
    cols the ascending columns of those sites, src the columns of their
    sources, one row per move in order, one column per site, and land each
    gap site's left landing, then its right one, in ascending site order.
    probs maps each backend to the probabilities of src and of land:
    Fraction objects, or float(p).
    """
    table = lattice._cache.get("inflow")
    if table is None:
        rows, off = _rows(lattice), lattice.j_max
        near = {t for j, row in rows.items() for t in (j - 1, j, j + 1, *(d for d, _ in row))}
        inflow = {t: [] for t in near | {-off, off} if abs(t) <= off}
        for i in sorted({t + e for t in inflow for e in (-1, 0, 1)}):
            if abs(i) <= off and lattice.is_active(i):
                for d, p in rows.get(i, zip((i - 1, i, i + 1), _WALK)):
                    if d in inflow:
                        inflow[d].append((i, p))
        cols = sorted(inflow)
        width = max(map(len, inflow.values()))
        moves = [inflow[t] + [(t, Fraction(0))] * (width - len(inflow[t])) for t in cols]
        src, prob = np.array(moves, dtype=object).T
        landings = [rows[j][s] for j in lattice.gap_sites for s in (0, 2)]
        land, q = np.array(landings, dtype=object).reshape(-1, 2).T
        probs = {"rational": (prob, q), "float": (prob.astype(float), q.astype(float))}
        cols, src, land = (np.array(a, dtype=np.int64) + off for a in (cols, src, land))
        table = lattice._cache["inflow"] = (cols, src, land, probs)
    return table


def evolve(joint: JointDistribution, lattice: LatticeSystem) -> JointDistribution:
    """One step of the exact evolution of the joint law.

    Busy mass moves by the busy rows; frozen mass sheds its hazard fraction,
    which jumps across the gap and is busy from the next step on.  Mass
    pushed beyond the lattice window is dropped (track total_mass to see it;
    a full window never drops any).

    Both backends take the same step, in float64 or in Fraction objects:
    the walk's stencil over shifted slices, then the sites of _inflow's
    table recomputed from their inflow, and then each gap site's switching
    mass in ascending site order (one add.at over the landing sites, left
    then right per gap site).  Every site thus adds its inflow in the order
    of a loop over the sources in ascending site order, for the chain's
    rows the right move in, the stay, then the left move in, which fixes
    the float bits; a p = 0 move adds +0.0.  The step takes every site of
    the window, so a row that is not the chain's, one that jumps past the
    walk's reach or sends two moves into one site, loses no mass inside
    the window.  A float hazard is _float_hazards', which equals
    float(lazy_hazard(...)) bit for bit.
    """
    exact = joint.backend == "rational"
    cols, src, land, probs = _inflow(lattice)
    prob, q = probs[joint.backend]
    off = lattice.j_max
    busy, new = joint.busy, _zeros(2 * off + 1, exact)
    # the window's end sites are in the table
    new[1:-1] = (busy[:-2] / 4 + busy[1:-1] / 2) + busy[2:] / 4
    # a sum over the moves in order: 0 + a + b + ..., as the loop adds them
    new[cols] = sum(prob * busy[src])

    sites = lattice.gap_sites
    gaps = np.array(sites, dtype=np.int64) + off
    if exact:
        hazards = np.array([lazy_hazard(i, joint.step, lattice.m) for i in sites], dtype=object)
    else:
        hazards = np.array(_float_hazards(sites, joint.step, lattice.m))
    frozen = joint.lazy[gaps]
    switching = frozen * hazards
    lazy = _zeros(2 * off + 1, exact)
    lazy[gaps] = frozen - switching
    # add.at adds repeated targets one by one, in land's order
    np.add.at(new, land, np.repeat(switching, 2) * q)
    return JointDistribution(step=joint.step + 1, backend=joint.backend, busy=new, lazy=lazy)


def marginal(joint: JointDistribution) -> np.ndarray:
    """Site marginal over the window: busy plus frozen mass per site."""
    return joint.busy + joint.lazy


def max_marginal_deviation(joint: JointDistribution, lattice: LatticeSystem):
    """Largest |site marginal - walk mass| over the lattice window, against
    the walk's law pmf(n, backend) at n = m + step."""
    law = _walk_law(lattice, lattice.m + joint.step, joint.backend)
    dev = np.abs(marginal(joint) - law)
    # a float deviation is a Python float, so comparing it gives a bool
    return max(dev.tolist()) if joint.backend == "rational" else float(dev.max())


def _certified(lattice: LatticeSystem) -> bool:
    """Whether the kernel provably keeps the walk's law at every step.

    A finite check of _rows against the kernel worked out from gap_sites
    alone (see the module docstring for why it suffices):

    (a) no row lands on a gap site, or ValueError: the rows of _rows, and
        the walk's rows of the gap sites and their neighbours missing
        from it; no other walk row reaches a gap site;
    (b) every gap site i has 2 i^2 <= m, so lazy_hazard is a probability
        for every n >= m;
    (c) _rows holds a row for exactly the gap sites and their active
        neighbours: for a gap site, the gambler's-ruin split H across its
        gap, onto its active flanks, the sites just beyond its run of gap
        sites; for an active neighbour, B = K_AA + K_AG H, one walk step
        with each move into a gap passed on by H.  At every other site B
        is the walk's row, the row _rows leaves there.

    Destinations and probabilities are compared exactly.  The check does
    not depend on the number of steps, so it also rejects a bad row the
    walk never reaches.
    """
    rows = _rows(lattice)
    sites = lattice.gap_sites
    near = {x + d for x in sites for d in (-1, 0, 1)}
    for j in sorted(near | rows.keys()):
        for d, p in rows.get(j, zip((j - 1, j, j + 1), _WALK)):
            if not lattice.is_active(d) and p != 0:
                raise ValueError(f"kernel row of site {j} lands on gap site {d}")
    if any(2 * i * i > lattice.m for i in sites):
        return False

    # H: from x in a run of gap sites, the walk first meets the run's left
    # flank L with probability (R - x) / (R - L), else its right flank R
    ruin = {}
    for run in np.split(sites, np.flatnonzero(np.diff(sites) > 1) + 1) if sites else ():
        left, right = int(run[0]) - 1, int(run[-1]) + 1
        span = right - left
        for x in run.tolist():
            ruin[x] = [(left, Fraction(right - x, span)), (right, Fraction(x - left, span))]

    want = {x: [left, (x, Fraction(0)), right] for x, (left, right) in ruin.items()}
    for a in {x + d for x in ruin for d in (-1, 1)} - ruin.keys():
        # B(a, .): stay with 1/2, and move 1/4 to each neighbour, passed on
        # by H where the neighbour is a gap site
        row = {a: Fraction(1, 2)}
        for nb in (a - 1, a + 1):
            for d, p in ruin.get(nb, [(nb, Fraction(1))]):
                row[d] = row.get(d, 0) + p / 4
        want[a] = sorted(row.items())
    return rows == want


def run_marginal_certification(
    lattice: LatticeSystem, steps: int, backend: str = "rational"
) -> dict:
    """Report the worst site deviation from the walk's law over all steps.

    The rational backend certifies the marginal identity exactly (deviation
    is the Fraction 0); the float backend should stay within 1e-12 over
    hundreds of steps.  On a full window (j_max >= m + steps) the rational
    backend first checks the kernel's rows (_certified): if they are B =
    K_AA + K_AG H on the active sites and the gambler's-ruin split H on the
    gap sites, every step keeps the walk's law (the module docstring gives
    the argument), and the report is zero deviation and no lost mass,
    whatever the number of steps; the check compares rows and builds no
    window-sized array.  Otherwise, and for the float backend or a
    truncated window, it evolves the joint law from step 0 (evolve: the
    walk's stencil, with the few sites where it is wrong recomputed from
    _inflow's table).  Either way the report is the one the evolution
    gives: the check may reject a kernel whose bad row the walk never
    reaches, and such a run is evolved.  steps must be an integer >= 0.
    """
    if not isinstance(steps, numbers.Integral):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    report = {
        "m": lattice.m,
        "N": lattice.system.n_intervals,
        "steps": steps,
        "backend": backend,
    }
    if backend == "rational" and lattice.j_max >= lattice.m + steps and _certified(lattice):
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
    Each step looks a path's row up by its site among the sorted keys of
    _rows; every other site takes the walk's step, with cumulative
    probabilities 1/4 and 3/4.
    """
    for name, value in (("horizon_steps", horizon_steps), ("n_paths", n_paths)):
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if horizon_steps < 0:
        raise ValueError("horizon_steps must be >= 0")
    m = lattice.m
    if lattice.j_max < m + horizon_steps:
        raise ValueError("lattice window too small for this horizon")
    # one column per key of _rows, ascending, then the walk's row, which
    # every other site takes: each row's moves from its site, and P(left)
    # and P(left or stay); a gap site's row stays with p = 0, so a draw
    # picks one of its two landings.  The site j_max + 1 past the keys lies
    # beyond every path, so a site that is not a key finds column -1
    kernel = _rows(lattice)
    keys = sorted(kernel)
    sites = np.array([*keys, lattice.j_max + 1], dtype=np.int64)
    moves = [[(d - j, p) for d, p in kernel[j]] for j in keys] + [list(zip((-1, 0, 1), _WALK))]
    move, prob = np.array(moves, dtype=object).T
    move, cum = move.astype(np.int64), np.cumsum(prob.astype(float), axis=0)
    is_gap = np.isin(sites, lattice.gap_sites)
    # the hazard of each column per step; every column but a gap site's is 0
    hazard = np.zeros((horizon_steps, len(sites)))
    for step in range(horizon_steps):
        hazard[step, is_gap] = _float_hazards(lattice.gap_sites, step, m)
    start_cdf = np.cumsum(pmf(m, "float"))

    def column(pos):
        k = np.searchsorted(sites, pos)
        return np.where(sites[k] == pos, k, -1)

    def moved(pos, u):
        # the move of each path's row that its uniform u picks
        col = column(pos)
        return pos + move[(u >= cum[:2, col]).sum(axis=0), col]

    positions = np.empty((n_paths, horizon_steps + 1), dtype=np.int64)
    frozen = np.empty((n_paths, horizon_steps + 1), dtype=bool)
    for b_start in range(0, n_paths, _BLOCK):
        b = b_start // _BLOCK
        count = min(_BLOCK, n_paths - b_start)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        pos = np.searchsorted(start_cdf, rng.random(count), side="right") - m
        lazy = is_gap[column(pos)]
        rows = slice(b_start, b_start + count)
        positions[rows, 0] = pos
        frozen[rows, 0] = lazy
        for step in range(horizon_steps):
            # a particle switching this step jumps across its gap and only
            # starts busy stepping from the next step on
            switching = lazy & (rng.random(count) < hazard[step, column(pos)])
            pos = np.where(switching, moved(pos, rng.random(count)), pos)
            pos = np.where(lazy, pos, moved(pos, rng.random(count)))
            lazy = lazy & ~switching
            positions[rows, step + 1] = pos
            frozen[rows, step + 1] = lazy
    return positions, frozen
