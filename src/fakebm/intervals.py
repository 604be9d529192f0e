"""Interval systems describing where particles stay busy, and their lattice images.

An interval system is a finite union of disjoint closed intervals strictly
inside a bounded gap region (by default (0, 1)).  Together with the two
unbounded pieces (-inf, lo] and [hi, inf) it forms the *active* set: wherever
the driving path sits inside it, the occupation clock runs.  The complement
inside (lo, hi) is a finite union of open *gaps* where particles may freeze.
"""

from __future__ import annotations

import math
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
            # within one cell of an edge's is near an edge (2)
            n = max(4096, 8 * len(edges))
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

    def contains_many(self, x: np.ndarray) -> np.ndarray:
        """Vectorised membership in the active set (closed intervals)."""
        x = np.asarray(x, dtype=float)
        if self.n_intervals > 8:
            # a cell table settles all points but those near an edge, which
            # take one binary search over the edges
            grid, table = self._cells
            flat = x.ravel()
            state = table[_cell(flat, *grid)]
            out = state == 1
            near = np.flatnonzero(state == 2)
            out[near] = np.searchsorted(self._edges, flat[near], side="right") % 2 == 0
            return out.reshape(x.shape)
        # NaN lies in no gap, as in the scalar contains and the cell table
        lo, hi = self.domain
        out = ~((x > lo) & (x < hi))
        for a, b in self.bounded:
            out |= (x >= a) & (x <= b)
        return out


def _cell(x: np.ndarray, scale: float, offset: float, top: float) -> np.ndarray:
    """Cell trunc(x * scale + offset) of each x, clipped to [0, top].

    Each step rounds monotonically, so the cell never decreases as x grows:
    every point of a cell that no edge falls in lies between the same two
    edges.  fmax and fmin send NaN to cell 0.
    """
    v = x * scale
    v += offset
    np.fmax(v, 0.0, out=v)
    np.fmin(v, top, out=v)
    return v.astype(np.intp)


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
    deviations of the scaled walk at time 0.

    Every closed gap [b_n, a_{n+1}] between two consecutive bounded intervals
    must contain at least one lattice site; otherwise the projection cannot
    see that gap and the call fails naming it.  A gap whose only sites are
    its snapped endpoints is legal: it has lattice length 1 and no frozen
    sites, and the kernel treats it as an interior step.  The edge gaps
    against the domain bounds may always be invisible.
    """
    if system.domain != (0.0, 1.0):
        raise ValueError("lattice projection expects the unit-domain system")
    if m < 2:
        raise ValueError("m must be >= 2")
    spacing = math.sqrt(2.0 / m)
    if j_max is None:
        j_max = math.ceil(math.sqrt(m / 2.0) * 7.0)
    if j_max * spacing < 1.0:
        raise ValueError("j_max too small: the window must reach past x = 1")

    js = np.arange(-j_max, j_max + 1)
    xs = js * spacing
    active = system.contains_many(xs)
    for a, b in system.bounded:
        active |= (np.abs(xs - a) <= ENDPOINT_SNAP) | (np.abs(xs - b) <= ENDPOINT_SNAP)
    active |= np.abs(xs) <= ENDPOINT_SNAP
    active |= np.abs(xs - 1.0) <= ENDPOINT_SNAP

    gap_sites = [int(j) for j, a in zip(js, active) if not a]
    for b_left, a_right in system.gaps()[1:-1]:
        lo_j = math.ceil((b_left - ENDPOINT_SNAP) / spacing)
        hi_j = math.floor((a_right + ENDPOINT_SNAP) / spacing)
        if lo_j > hi_j:
            raise ValueError(
                f"m too small: no lattice point falls in the gap "
                f"({b_left}, {a_right})"
            )

    def active_at(j: int) -> bool:
        if -j_max <= j <= j_max:
            return bool(active[j + j_max])
        return True  # beyond the window lie the unbounded active pieces

    boundary = [
        int(j) for j in js
        if active_at(j) and (not active_at(j - 1) or not active_at(j + 1))
    ]

    flanks: dict[int, tuple[int, int]] = {}
    for j in gap_sites + boundary:
        left = j - 1
        while not active_at(left):
            left -= 1
        right = j + 1
        while not active_at(right):
            right += 1
        flanks[j] = (left, right)

    return LatticeSystem(
        system=system,
        m=m,
        j_max=int(j_max),
        spacing=spacing,
        gap_sites=tuple(gap_sites),
        flanks=flanks,
    )
