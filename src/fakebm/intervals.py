"""Interval systems describing where particles stay busy, and their lattice images.

An interval system is a finite union of disjoint closed intervals strictly
inside a bounded gap region (by default (0, 1)).  Together with the two
unbounded pieces (-inf, lo] and [hi, inf) it forms the *active* set: wherever
the driving path sits inside it, the occupation clock runs.  The complement
inside (lo, hi) is a finite union of open *gaps* where particles may freeze.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "IntervalSystem",
    "build_interval_system",
    "fat_cantor_intervals",
    "LatticeSystem",
    "lattice_project",
]

ENDPOINT_SNAP = 1e-12


@dataclass(frozen=True)
class IntervalSystem:
    """Disjoint closed intervals inside an open domain (lo, hi).

    The active set is (-inf, lo] + the intervals + [hi, inf); everything else
    is gap.  Instances come from build_interval_system, which validates.
    """

    bounded: tuple[tuple[float, float], ...]
    domain: tuple[float, float] = (0.0, 1.0)
    _edges: np.ndarray = field(init=False, compare=False, repr=False)
    _cells: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # lo, a_1, b_1, ..., a_N, b_N, hi with every closing end (lo, b_i)
        # moved up one ulp: x is active iff searchsorted(..., "right") of x
        # is even, endpoints included
        lo, hi = self.domain
        edges = np.concatenate([[lo], self.endpoints, [hi]])
        edges[:-1:2] = np.nextafter(edges[:-1:2], math.inf)
        object.__setattr__(self, "_edges", edges)
        cells = None
        if self.n_intervals > 8:
            # the cell table of contains_many: n cells across the domain, two
            # more on each side, the outermost of which hold the far outside.
            # A cell that no edge falls in is active (1) iff an even number
            # of edges fall in lower cells (see _cell), else gap (0); a cell
            # within one cell of an edge's is near an edge (2).  At 65536
            # cells the depth-6 Cantor set's 128 edges leave 0.6% of the
            # domain near an edge, so few points need the binary search
            n = max(65536, 8 * len(edges))
            scale = n / (hi - lo)
            grid = (scale, 2.0 - lo * scale, float(n + 4))
            at = _cell(edges, *grid)
            state = (np.searchsorted(at, np.arange(n + 5)) % 2 == 0).astype(np.uint8)
            for shift in (-1, 0, 1):
                state[np.clip(at + shift, 0, n + 4)] = 2
            cells = (grid, state)
        object.__setattr__(self, "_cells", cells)

    @property
    def n_intervals(self) -> int:
        return len(self.bounded)

    @property
    def endpoints(self) -> np.ndarray:
        """Sorted flat array a_1, b_1, ..., a_N, b_N."""
        return np.array([e for iv in self.bounded for e in iv], dtype=float)

    def gaps(self) -> list[tuple[float, float]]:
        """All open gaps, including the edge gaps against the domain bounds."""
        lo, hi = self.domain
        pts = [lo] + [e for iv in self.bounded for e in iv] + [hi]
        return [(pts[i], pts[i + 1]) for i in range(0, len(pts) - 1, 2)]

    def contains(self, x: float) -> bool:
        """Whether x lies in the active set (closed intervals)."""
        return bisect_right(self._edges, x) % 2 == 0

    def contains_many(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Vectorised membership in the active set (closed intervals).

        out, if given, is a bool array of x's shape that receives the flags.
        """
        x = np.asarray(x, dtype=float)
        if out is None:
            out = np.empty(x.shape, dtype=bool)
        if self.n_intervals > 8:
            # a cell table settles all points but those near an edge, which
            # take one binary search over the edges
            grid, table = self._cells
            flat = x.ravel()
            state = table.take(_cell(flat, *grid))
            np.equal(state.reshape(x.shape), 1, out=out)
            near = np.flatnonzero(state == 2)
            if near.size:
                out.flat[near] = np.searchsorted(self._edges, flat[near], side="right") % 2 == 0
            return out
        # x is in a gap iff it has passed an odd number of edges, as in the
        # scalar contains; NaN passes none and so lies in no gap
        edges = self._edges.tolist()
        scratch = np.empty(x.shape, dtype=bool)
        np.greater_equal(x, edges[0], out=out)
        for e in edges[1:]:
            np.greater_equal(x, e, out=scratch)
            out ^= scratch
        return np.logical_not(out, out=out)


def _cell(x: np.ndarray, scale: float, offset: float, top: float) -> np.ndarray:
    """Cell trunc(x * scale + offset) of each x, clipped to [0, top].

    Each step rounds monotonically, so the cell never decreases as x grows:
    every point of a cell that no edge falls in lies between the same two
    edges.  fmax and fmin send NaN to cell 0.  Cells are int32, half the
    bytes of intp; a table never nears 2**31 cells.
    """
    v = x * scale
    v += offset
    np.fmax(v, 0.0, out=v)
    np.fmin(v, top, out=v)
    return v.astype(np.int32)


def build_interval_system(intervals, domain=(0.0, 1.0)) -> IntervalSystem:
    """Validate and sort interval endpoints into an IntervalSystem.

    Rejects empty input, inverted pairs, endpoints outside the open domain,
    and overlapping or touching intervals, naming the offending index.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise ValueError("domain must be a non-empty open interval")
    pairs = [(float(a), float(b)) for a, b in intervals]
    if not pairs:
        raise ValueError("need at least one interval")
    order = sorted(range(len(pairs)), key=lambda i: pairs[i])
    pairs = [pairs[i] for i in order]
    for i, (a, b) in enumerate(pairs):
        if not a < b:
            raise ValueError(f"interval {i} is empty or inverted: [{a}, {b}]")
        if not (lo < a and b < hi):
            raise ValueError(
                f"interval {i} = [{a}, {b}] must lie strictly inside ({lo}, {hi})"
            )
    for i in range(len(pairs) - 1):
        if not pairs[i][1] < pairs[i + 1][0]:
            raise ValueError(
                f"intervals {i} and {i + 1} overlap or touch: "
                f"{pairs[i]} vs {pairs[i + 1]}"
            )
    return IntervalSystem(bounded=tuple(pairs), domain=(lo, hi))


def fat_cantor_intervals(depth: int) -> list[tuple[float, float]]:
    """Removed middles of the Smith-Volterra-Cantor construction on [0, 1].

    Stage k removes a centred open interval of length 4^-k from each of the
    2^(k-1) intervals kept so far.  Returns the 2^depth - 1 removed intervals
    as closed [a, b] pairs, ordered left to right.  Total removed length is
    (1/2) (1 - 2^-depth), so the kept set stays fat.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > 20:
        raise ValueError("depth > 20 would enumerate over a million intervals")
    kept = [(Fraction(0), Fraction(1))]
    removed: list[tuple[Fraction, Fraction]] = []
    for k in range(1, depth + 1):
        half = Fraction(1, 2 * 4**k)
        nxt = []
        for lo, hi in kept:
            mid = (lo + hi) / 2
            removed.append((mid - half, mid + half))
            nxt.append((lo, mid - half))
            nxt.append((mid + half, hi))
        kept = nxt
    removed.sort()
    return [(float(a), float(b)) for a, b in removed]


@dataclass(frozen=True)
class LatticeSystem:
    """Projection of an IntervalSystem onto the lattice sqrt(2/m) * Z.

    Site j is active iff j * spacing lies in the active set (endpoints
    snapped at 1e-12).  gap_sites are the inactive sites, and flanks maps
    each gap site and each boundary site (an active site adjacent to a gap)
    to the nearest active sites strictly left and right of its gap(s).
    """

    system: IntervalSystem
    m: int
    j_max: int
    spacing: float
    gap_sites: tuple[int, ...]
    flanks: dict[int, tuple[int, int]]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)
    _gap: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_gap", frozenset(self.gap_sites))

    def is_active(self, j: int) -> bool:
        """Whether site j is active: any site but a gap site of the window."""
        return j not in self._gap

    def gap_neighbors(self, j: int) -> tuple[int, int]:
        """Flanking active sites of a gap or boundary site."""
        try:
            return self.flanks[j]
        except KeyError:
            raise ValueError(f"site {j} is neither a gap site nor a boundary site")

    @property
    def sites(self) -> range:
        return range(-self.j_max, self.j_max + 1)


def lattice_project(system: IntervalSystem, m: int, j_max: int | None = None) -> LatticeSystem:
    """Project an interval system onto the lattice with spacing sqrt(2/m).

    The window holds the sites -j_max..j_max.  By default j_max is
    ceil(7 sqrt(m/2)): one unit for the gap region plus six standard
    deviations of the scaled walk at time 0.  m and j_max must be integers,
    numpy's included.

    Every closed gap [b_n, a_{n+1}] between two consecutive bounded intervals
    must contain at least one lattice site; otherwise the projection cannot
    see that gap and the call fails naming it.  A gap whose only sites are
    its snapped endpoints is legal: it has lattice length 1 and no frozen
    sites, and the kernel treats it as an interior step.  The edge gaps
    against the domain bounds may always be invisible.
    """
    if system.domain != (0.0, 1.0):
        raise ValueError("lattice projection expects the unit-domain system")
    if not isinstance(m, numbers.Integral):
        raise ValueError(f"m must be an integer, got {m!r}")
    if not (j_max is None or isinstance(j_max, numbers.Integral)):
        raise ValueError(f"j_max must be an integer, got {j_max!r}")
    if m < 2:
        raise ValueError("m must be >= 2")
    spacing = math.sqrt(2.0 / m)
    if j_max is None:
        j_max = math.ceil(math.sqrt(m / 2.0) * 7.0)
    if j_max * spacing < 1.0:
        raise ValueError("j_max too small: the window must reach past x = 1")

    ends = np.concatenate(([0.0], system.endpoints, [1.0]))
    # each gap between two intervals must hold a site, up to the snap
    inner = ends[2:-2].reshape(-1, 2)
    lo_j = np.ceil((inner[:, 0] - ENDPOINT_SNAP) / spacing)
    hi_j = np.floor((inner[:, 1] + ENDPOINT_SNAP) / spacing)
    unseen = lo_j > hi_j
    if unseen.any():
        b_left, a_right = inner[unseen.argmax()].tolist()
        raise ValueError(f"m too small: no lattice point falls in the gap ({b_left}, {a_right})")

    js = np.arange(-j_max, j_max + 1)
    active = system.contains_many(js * spacing)
    # a site within the snap of an interval's end, of 0 or of 1 is active.
    # Only the site nearest to each end can be: the window holds over
    # 2 / spacing sites, so any spacing whose window fits in memory is far
    # wider than twice the snap.  The ends lie in [0, 1], inside the window
    near = np.rint(ends / spacing)
    snapped = near[np.abs(near * spacing - ends) <= ENDPOINT_SNAP]
    active[snapped.astype(np.intp) + j_max] = True

    # an active site next to a gap site; the sites past the window are active
    padded = np.concatenate(([True], active, [True]))
    boundary = active & ~(padded[:-2] & padded[2:])
    gap_sites = js[~active]
    sites = np.concatenate((gap_sites, js[boundary]))
    # each site's flanks are the nearest active sites strictly left and
    # right of it, the one site past each window end counting as active
    act = np.concatenate(([-j_max - 1], js[active], [j_max + 1]))
    left = act[np.searchsorted(act, sites, side="left") - 1]
    right = act[np.searchsorted(act, sites, side="right")]
    flanks = dict(zip(sites.tolist(), zip(left.tolist(), right.tolist())))

    return LatticeSystem(
        system=system,
        m=int(m),
        j_max=int(j_max),
        spacing=spacing,
        gap_sites=tuple(gap_sites.tolist()),
        flanks=flanks,
    )
