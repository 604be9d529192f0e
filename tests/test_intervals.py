"""Interval systems, the fat Cantor construction, and lattice projection."""

import functools
import math

import numpy as np
import pytest

from fakebm.intervals import (
    build_interval_system,
    fat_cantor_intervals,
    lattice_project,
)

TWO_GAPS = [(0.1, 0.4), (0.6, 0.9)]


# ---------- construction and validation ----------


def test_build_sorts_intervals():
    sys_ = build_interval_system([(0.6, 0.9), (0.1, 0.4)])
    assert sys_.bounded == ((0.1, 0.4), (0.6, 0.9))


def test_build_rejects_empty():
    with pytest.raises(ValueError):
        build_interval_system([])


def test_build_rejects_inverted_pair():
    with pytest.raises(ValueError, match="empty or inverted"):
        build_interval_system([(0.4, 0.1)])


def test_build_rejects_endpoint_on_domain_boundary():
    with pytest.raises(ValueError, match="strictly inside"):
        build_interval_system([(0.0, 0.4)])


def test_build_rejects_touching_intervals():
    with pytest.raises(ValueError, match="overlap or touch"):
        build_interval_system([(0.1, 0.4), (0.4, 0.6)])


def test_gaps_include_domain_edges():
    sys_ = build_interval_system(TWO_GAPS)
    assert sys_.gaps() == [(0.0, 0.1), (0.4, 0.6), (0.9, 1.0)]


def test_gap_and_interval_lengths_partition_unit():
    sys_ = build_interval_system(fat_cantor_intervals(5))
    total = sum(b - a for a, b in sys_.bounded)
    total += sum(b - a for a, b in sys_.gaps())
    assert total == pytest.approx(1.0, abs=1e-12)


# ---------- membership ----------


def test_contains_outside_domain_is_active():
    sys_ = build_interval_system(TWO_GAPS)
    assert sys_.contains(-0.5)
    assert sys_.contains(1.5)
    assert sys_.contains(0.0)
    assert sys_.contains(1.0)


def test_contains_interval_interior_and_gap():
    sys_ = build_interval_system(TWO_GAPS)
    assert sys_.contains(0.25)
    assert sys_.contains(0.1)
    assert sys_.contains(0.4)
    assert not sys_.contains(0.5)
    assert not sys_.contains(0.05)
    assert not sys_.contains(0.95)


def _edge_points(sys_):
    # every edge, raw and as stored, with both one-ulp neighbours of each
    lo, hi = sys_.domain
    ends = np.concatenate([[lo], sys_.endpoints, [hi], sys_._edges])
    return np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])


def test_contains_many_matches_scalar_small_system():
    # two intervals: exercises the direct comparison path, against the
    # scalar binary search over the stored edges
    sys_ = build_interval_system(TWO_GAPS)
    xs = np.concatenate([np.linspace(-0.3, 1.3, 641), _edge_points(sys_)])
    mask = sys_.contains_many(xs)
    for x, m_ in zip(xs, mask):
        assert bool(m_) == sys_.contains(float(x))


def test_contains_many_matches_scalar_large_system():
    # depths 4 and 6 give 15 and 63 intervals: exercises the cell table
    for depth in (4, 6):
        sys_ = build_interval_system(fat_cantor_intervals(depth))
        rng = np.random.default_rng(7)
        xs = np.concatenate([rng.uniform(-0.2, 1.2, size=4000), _edge_points(sys_)])
        mask = sys_.contains_many(xs)
        for x, m_ in zip(xs, mask):
            assert bool(m_) == sys_.contains(float(x))


@pytest.mark.parametrize("intervals", [TWO_GAPS, fat_cantor_intervals(4), fat_cantor_intervals(6)],
                         ids=["two_gap", "cantor4", "cantor6"])
def test_contains_many_is_closed_interval_membership(intervals):
    # every endpoint, both one-ulp neighbours of each, and seeded random
    # points; two intervals take the mask path, 15 and 63 the searchsorted one
    sys_ = build_interval_system(intervals)
    lo, hi = sys_.domain
    ends = np.array([lo, *sys_.endpoints, hi])
    xs = np.concatenate([
        ends,
        np.nextafter(ends, -np.inf),
        np.nextafter(ends, np.inf),
        np.random.default_rng(11).uniform(-0.2, 1.2, size=20_000),
    ])
    expect = (xs <= lo) | (xs >= hi)
    for a, b in sys_.bounded:
        expect |= (a <= xs) & (xs <= b)
    assert np.array_equal(sys_.contains_many(xs), expect)


NON_UNIT = [(-3.5 + 1.25 * k, -3.5 + 1.25 * k + 0.4) for k in range(12)]


@pytest.mark.parametrize(
    "intervals, domain",
    [(fat_cantor_intervals(d), (0.0, 1.0)) for d in (4, 6, 9, 12)] + [(NON_UNIT, (-3.9, 12.1))],
    ids=["cantor4", "cantor6", "cantor9", "cantor12", "non_unit"],
)
def test_table_membership_matches_binary_search(intervals, domain):
    # beyond 8 intervals contains_many reads a cell table and sends points
    # near an edge to the binary search over the edges; the answer must be
    # that binary search's everywhere
    sys_ = build_interval_system(intervals, domain=domain)
    assert sys_.n_intervals > 8
    lo, hi = domain
    rng = np.random.default_rng(sys_.n_intervals)
    width = hi - lo
    xs = np.concatenate([
        _edge_points(sys_),
        [np.inf, -np.inf, 1e300, -1e300, 0.0, -0.0],
        rng.uniform(lo - 0.2 * width, hi + 0.2 * width, size=200_000),
        lo + width * (0.5 + np.cumsum(rng.normal(0.0, 0.003, size=200_000))),
    ])
    expect = np.searchsorted(sys_._edges, xs, side="right") % 2 == 0
    assert np.array_equal(sys_.contains_many(xs), expect)
    grid = xs[: 2 * (len(xs) // 2)].reshape(2, -1)
    out = sys_.contains_many(grid)
    assert out.shape == grid.shape
    assert np.array_equal(out.ravel(), expect[: grid.size])
    assert sys_.contains_many(np.float64(xs[0])).shape == ()


@pytest.mark.parametrize("intervals", [TWO_GAPS, fat_cantor_intervals(6)],
                         ids=["two_gap", "cantor6"])
def test_nan_membership_agrees_across_branches(intervals):
    # NaN lies in no gap: the scalar binary search, the mask path (two
    # intervals) and the cell table (63) all report it active
    sys_ = build_interval_system(intervals)
    assert sys_.contains(math.nan)
    xs = np.array([math.nan, math.inf, -math.inf])
    assert sys_.contains_many(xs).tolist() == [True, True, True]
    assert sys_.contains_many(np.float64(math.nan))


@pytest.mark.parametrize("intervals", [TWO_GAPS, fat_cantor_intervals(6)],
                         ids=["two_gap", "cantor6"])
def test_contains_many_equals_scalar_contains_everywhere(intervals):
    # the edge-parity passes (two intervals) and the cell table with its
    # fix-up (63) against the scalar contains: infinities, NaN, every
    # endpoint and domain end with both one-ulp neighbours, and 10^6 normal
    # draws around the domain; the out= form fills and returns its buffer
    sys_ = build_interval_system(intervals)
    ends = np.array([*sys_.domain, *sys_.endpoints])
    xs = np.concatenate([
        [math.inf, -math.inf, math.nan],
        ends,
        np.nextafter(ends, -math.inf),
        np.nextafter(ends, math.inf),
        np.random.default_rng(20).normal(0.5, 0.5, size=10**6),
    ])
    expect = np.array([sys_.contains(x) for x in xs.tolist()])
    assert np.array_equal(sys_.contains_many(xs), expect)
    out = np.ones(len(xs), dtype=bool)
    assert sys_.contains_many(xs, out=out) is out
    assert np.array_equal(out, expect)


# ---------- fat Cantor construction ----------


def test_fat_cantor_depth_one():
    assert fat_cantor_intervals(1) == [(0.375, 0.625)]


def test_fat_cantor_depth_two():
    got = fat_cantor_intervals(2)
    assert got == [(5 / 32, 7 / 32), (0.375, 0.625), (25 / 32, 27 / 32)]


def test_fat_cantor_counts_and_mass():
    for depth in (1, 2, 3, 6, 8):
        ivs = fat_cantor_intervals(depth)
        assert len(ivs) == 2**depth - 1
        total = sum(b - a for a, b in ivs)
        assert total == pytest.approx(0.5 * (1 - 0.5**depth), abs=1e-14)


def test_fat_cantor_sorted_disjoint_symmetric():
    ivs = fat_cantor_intervals(6)
    for (a, b), (c, d) in zip(ivs, ivs[1:]):
        assert a < b < c < d
    mirrored = sorted((1 - b, 1 - a) for a, b in ivs)
    assert np.allclose(mirrored, ivs, atol=1e-15)


def test_fat_cantor_frozen_set_stays_fat():
    # the kept set keeps measure >= 1/2 at any depth
    ivs = fat_cantor_intervals(12)
    assert 1.0 - sum(b - a for a, b in ivs) > 0.5


def test_fat_cantor_rejects_bad_depth():
    with pytest.raises(ValueError):
        fat_cantor_intervals(0)
    with pytest.raises(ValueError):
        fat_cantor_intervals(21)


# ---------- lattice projection ----------


def test_default_j_max_value():
    # the default window is ceil(sqrt(8/2) * 7) = 14 sites each side
    assert lattice_project(build_interval_system(TWO_GAPS), 8).j_max == 14


def test_lattice_spacing():
    sys_ = build_interval_system(TWO_GAPS)
    lat = lattice_project(sys_, 200)
    assert lat.spacing == pytest.approx(0.1, rel=1e-15)
    assert lat.m == 200


def test_lattice_gap_and_boundary_sites_m200():
    # spacing 0.1: site 5 sits at 0.5 inside the gap, sites 4 and 6 flank it
    lat = lattice_project(build_interval_system(TWO_GAPS), 200)
    assert lat.gap_sites == (5,)
    assert sorted(lat.flanks) == [4, 5, 6]
    assert lat.gap_neighbors(5) == (4, 6)
    assert lat.gap_neighbors(4) == (3, 6)
    assert lat.gap_neighbors(6) == (4, 7)


def test_lattice_length_one_gap_is_legal_and_siteless():
    # spacing 0.2: the gap (0.4, 0.6) holds only its snapped endpoints
    lat = lattice_project(build_interval_system(TWO_GAPS), 50)
    assert lat.gap_sites == ()
    assert lat.flanks == {}


def test_lattice_rejects_unseen_gap():
    # spacing 1.0 cannot see the gap (0.4, 0.6) at all
    with pytest.raises(ValueError, match="m too small"):
        lattice_project(build_interval_system(TWO_GAPS), 2)


def test_lattice_rejects_tiny_m():
    with pytest.raises(ValueError):
        lattice_project(build_interval_system(TWO_GAPS), 1)


def test_lattice_rejects_short_window():
    with pytest.raises(ValueError, match="j_max too small"):
        lattice_project(build_interval_system(TWO_GAPS), 200, j_max=5)


def test_lattice_endpoint_sites_are_active():
    # endpoint 0.4 is a lattice point at m = 50 up to float rounding
    lat = lattice_project(build_interval_system(TWO_GAPS), 50)
    assert lat.is_active(2)
    assert lat.is_active(3)


def test_lattice_site_activity_matches_membership_m8():
    sys_ = build_interval_system(TWO_GAPS)
    lat = lattice_project(sys_, 8)
    # spacing 0.5: site 1 at x = 0.5 is the lone frozen site in the window
    assert lat.gap_sites == (1,)
    assert lat.gap_neighbors(1) == (0, 2)
    assert [j for j in lat.sites if not lat.is_active(j)] == [1]


def test_gap_neighbors_rejects_interior_site():
    lat = lattice_project(build_interval_system(TWO_GAPS), 200)
    with pytest.raises(ValueError):
        lat.gap_neighbors(2)


def _listed_gap_and_boundary_sites(lat):
    """The gap and boundary sites and their flanks found site by site, as a
    reference: a site is active if it lies in the active set, within 1e-12
    of an interval's end, 0 or 1, or past the window, and a site's flanks
    are the nearest active sites strictly left and right of it."""
    ends = [0.0, 1.0, *(x for pair in lat.system.bounded for x in pair)]

    @functools.cache
    def active_at(j):
        x = j * lat.spacing
        return (
            not -lat.j_max <= j <= lat.j_max
            or lat.system.contains(x)
            or any(abs(x - e) <= 1e-12 for e in ends)
        )

    gaps = [j for j in lat.sites if not active_at(j)]
    boundary = [j for j in lat.sites if active_at(j) and not (active_at(j - 1) and active_at(j + 1))]
    flanks = {}
    for j in gaps + boundary:
        left, right = j - 1, j + 1
        while not active_at(left):
            left -= 1
        while not active_at(right):
            right += 1
        flanks[j] = (left, right)
    return gaps, boundary, flanks


# three intervals whose ends are lattice sites at m = 800, spacing SP800
SP800 = math.sqrt(2 / 800)
ON_SITES = [(2 * SP800, 6 * SP800), (9 * SP800, 12 * SP800), (15 * SP800, 17 * SP800)]


@pytest.mark.parametrize(
    "intervals, m",
    [
        (TWO_GAPS, 200),
        (fat_cantor_intervals(3), 400),
        (fat_cantor_intervals(6), 32_768),
        (fat_cantor_intervals(8), 524_288),
        (ON_SITES, 800),
    ],
    ids=["two-gap-m200", "cantor3-m400", "cantor6-m32768", "cantor8-m524288", "ends-on-sites-m800"],
)
def test_gap_and_boundary_masks_match_a_site_by_site_scan(intervals, m):
    lat = lattice_project(build_interval_system(intervals), m)
    gaps, boundary, flanks = _listed_gap_and_boundary_sites(lat)
    assert gaps and boundary
    assert lat.gap_sites == tuple(gaps)
    # flanks keeps its order: the gap sites, then the boundary sites
    assert list(lat.flanks) == gaps + boundary
    assert lat.flanks == flanks
    assert all(type(j) is int for j in lat.flanks)
    assert all(type(f) is int for pair in lat.flanks.values() for f in pair)


@pytest.mark.parametrize("m, j_max, name", [(50.5, None, "m"), (50.0, None, "m"), (50, 60.5, "j_max")])
def test_lattice_rejects_a_non_integer_m_or_j_max(m, j_max, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        lattice_project(build_interval_system(TWO_GAPS), m, j_max=j_max)


def test_lattice_takes_numpy_integers():
    sys_ = build_interval_system(TWO_GAPS)
    lat = lattice_project(sys_, np.int64(50), j_max=np.int32(60))
    assert lat == lattice_project(sys_, 50, j_max=60)
    assert type(lat.m) is int and type(lat.j_max) is int
