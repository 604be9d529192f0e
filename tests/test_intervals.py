"""Interval systems, the fat Cantor construction, and lattice projection."""

import json
import math

import numpy as np
import pytest

from fakebm.intervals import (
    IntervalSystem,
    build_interval_system,
    default_j_max,
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


def test_json_round_trip():
    sys_ = build_interval_system(TWO_GAPS)
    again = IntervalSystem.from_json(sys_.to_json())
    assert again == sys_
    # and the payload is plain JSON
    assert json.loads(sys_.to_json())[0][0] == "0.1"


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


def test_contains_many_matches_scalar_small_system():
    # two intervals: exercises the direct comparison path
    sys_ = build_interval_system(TWO_GAPS)
    xs = np.linspace(-0.3, 1.3, 641)
    mask = sys_.contains_many(xs)
    for x, m_ in zip(xs, mask):
        assert bool(m_) == sys_.contains(float(x))


def test_contains_many_matches_scalar_large_system():
    # depth 4 gives 15 intervals: exercises the searchsorted path
    sys_ = build_interval_system(fat_cantor_intervals(4))
    rng = np.random.default_rng(7)
    xs = rng.uniform(-0.2, 1.2, size=4000)
    xs = np.concatenate([xs, sys_.endpoints])  # include exact endpoints
    mask = sys_.contains_many(xs)
    for x, m_ in zip(xs, mask):
        assert bool(m_) == sys_.contains(float(x))


def test_distance_to_active_values():
    sys_ = build_interval_system(fat_cantor_intervals(1))  # [(0.375, 0.625)]
    xs = np.array([0.5, 0.3, 0.05, -2.0, 0.7])
    d = sys_.distance_to_active(xs)
    assert d[0] == 0.0
    assert d[1] == pytest.approx(0.075)  # nearer to 0.375 than to 0
    assert d[2] == pytest.approx(0.05)  # nearer to the x <= 0 active piece
    assert d[3] == 0.0
    assert d[4] == pytest.approx(0.075)  # 0.7 to 0.625


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
    # sqrt(8/2) = 2 and 1 + 6 sqrt(1) = 7, so 14
    assert default_j_max(8, 0.0) == 14


def test_lattice_spacing():
    sys_ = build_interval_system(TWO_GAPS)
    lat = lattice_project(sys_, 200)
    assert lat.spacing == pytest.approx(0.1, rel=1e-15)
    assert lat.m == 200


def test_lattice_gap_and_boundary_sites_m200():
    # spacing 0.1: site 5 sits at 0.5 inside the gap, sites 4 and 6 flank it
    lat = lattice_project(build_interval_system(TWO_GAPS), 200)
    assert lat.gap_sites == (5,)
    assert lat.boundary_sites == (4, 6)
    assert lat.gap_neighbors(5) == (4, 6)
    assert lat.gap_neighbors(4) == (3, 6)
    assert lat.gap_neighbors(6) == (4, 7)


def test_lattice_length_one_gap_is_legal_and_siteless():
    # spacing 0.2: the gap (0.4, 0.6) holds only its snapped endpoints
    lat = lattice_project(build_interval_system(TWO_GAPS), 50)
    assert lat.gap_sites == ()
    assert lat.boundary_sites == ()


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


def test_x_of_vectorized():
    lat = lattice_project(build_interval_system(TWO_GAPS), 8)
    assert np.allclose(lat.x_of(np.array([-1, 0, 2])), [-0.5, 0.0, 1.0])
