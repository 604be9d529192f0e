"""Two-mode lattice chain: kernel rows, hazards, exact DP, and the sampler."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from fakebm.discrete_chain import (
    busy_transition,
    evolve,
    initial_joint,
    lazy_hazard,
    marginal,
    max_marginal_deviation,
    run_marginal_certification,
    sample_paths,
    switch_jump,
)
from fakebm.intervals import build_interval_system, fat_cantor_intervals, lattice_project
from fakebm.lazy_walk import pmf_value

TWO_GAPS = [(0.1, 0.4), (0.6, 0.9)]


@pytest.fixture(scope="module")
def lat_m8():
    # spacing 0.5: single frozen site 1 between boundary sites 0 and 2
    return lattice_project(build_interval_system(TWO_GAPS), 8, j_max=60)


@pytest.fixture(scope="module")
def lat_ragged():
    # spacing 0.1; site 3 faces a gap of lattice length 2 on the left
    # (active flank at 1) and length 3 on the right (active flank at 6)
    sys_ = build_interval_system([(0.05, 0.15), (0.25, 0.35), (0.55, 0.95)])
    return lattice_project(sys_, 200, j_max=260)


# ---------- busy kernel ----------


def test_busy_row_interior(lat_m8):
    assert busy_transition(lat_m8, 5) == [
        (4, Fraction(1, 4)),
        (5, Fraction(1, 2)),
        (6, Fraction(1, 4)),
    ]


def test_busy_row_across_unequal_gaps(lat_ragged):
    assert busy_transition(lat_ragged, 3) == [
        (1, Fraction(1, 8)),
        (3, Fraction(19, 24)),
        (6, Fraction(1, 12)),
    ]


def test_busy_row_boundary_one_sided(lat_ragged):
    assert busy_transition(lat_ragged, 6) == [
        (3, Fraction(1, 12)),
        (6, Fraction(2, 3)),
        (7, Fraction(1, 4)),
    ]


def test_busy_row_gap_of_lattice_length_one():
    # the gap (0.4, 0.6) at spacing 0.2 holds no frozen site, so the rows
    # on its edges are plain interior rows
    lat = lattice_project(build_interval_system(TWO_GAPS), 50)
    assert busy_transition(lat, 2) == [
        (1, Fraction(1, 4)),
        (2, Fraction(1, 2)),
        (3, Fraction(1, 4)),
    ]


def test_busy_rows_are_zero_mean_laws(lat_ragged):
    for i in range(-20, 21):
        if not lat_ragged.is_active(i):
            continue
        row = busy_transition(lat_ragged, i)
        assert sum(p for _, p in row) == 1
        assert sum(dest * p for dest, p in row) == i
        assert all(p > 0 for _, p in row)


def test_busy_row_rejects_frozen_site(lat_m8):
    with pytest.raises(ValueError):
        busy_transition(lat_m8, 1)


# ---------- lazy hazard ----------


def test_lazy_hazard_known_values():
    assert lazy_hazard(1, 2, 8) == Fraction(3, 80)
    assert lazy_hazard(2, 7, 8) == Fraction(1, 63)
    # n = 8: (9 - 2) / (2 (81 - 1))
    assert lazy_hazard(1, 0, 8) == Fraction(7, 160)


def test_lazy_hazard_is_one_step_mass_loss():
    # hazard = 1 - mass(n+1, i) / mass(n, i) for the lazy walk
    for m in (8, 50):
        for step in range(0, 11):
            for i in (-2, -1, 0, 1, 2):
                n = m + step
                direct = 1 - Fraction(pmf_value(n + 1, i), 1) / pmf_value(n, i)
                assert lazy_hazard(i, step, m) == direct


def test_lazy_hazard_positive_on_gap_sites(lat_m8):
    for step in range(50):
        for i in lat_m8.gap_sites:
            h = lazy_hazard(i, step, lat_m8.m)
            assert 0 < h < 1


def test_lazy_hazard_rejects_growing_site():
    # at n = m + step < 2 i^2 the site is still gaining mass
    with pytest.raises(ValueError):
        lazy_hazard(3, 0, 8)


# ---------- switch jump ----------


def test_switch_jump_unequal_flanks(lat_ragged):
    assert switch_jump(lat_ragged, 5) == [
        (3, Fraction(1, 3)),
        (6, Fraction(2, 3)),
    ]
    assert switch_jump(lat_ragged, 4) == [
        (3, Fraction(2, 3)),
        (6, Fraction(1, 3)),
    ]


def test_switch_jump_is_martingale(lat_ragged):
    for i in lat_ragged.gap_sites:
        row = switch_jump(lat_ragged, i)
        assert sum(p for _, p in row) == 1
        assert sum(dest * p for dest, p in row) == i


def test_switch_jump_rejects_active_site(lat_m8):
    with pytest.raises(ValueError):
        switch_jump(lat_m8, 0)


# ---------- exact DP evolution ----------


def test_initial_joint_splits_modes(lat_m8):
    joint = initial_joint(lat_m8)
    assert set(joint.lazy) == {1}
    assert joint.lazy[1] == pmf_value(8, 1)
    assert joint.busy[0] == pmf_value(8, 0)
    assert joint.total_mass() == 1


def test_evolve_preserves_walk_marginal_exactly(lat_m8):
    joint = initial_joint(lat_m8)
    for _ in range(12):
        joint = evolve(joint, lat_m8)
        assert max_marginal_deviation(joint, lat_m8) == 0
        assert joint.total_mass() == 1


def test_evolve_keeps_global_mean_zero(lat_m8):
    joint = initial_joint(lat_m8)
    for _ in range(10):
        joint = evolve(joint, lat_m8)
    mean = sum(j * p for j, p in marginal(joint).items())
    assert mean == 0


def test_evolve_mode_supports_stay_disjoint(lat_m8):
    joint = initial_joint(lat_m8)
    gap = set(lat_m8.gap_sites)
    for _ in range(8):
        joint = evolve(joint, lat_m8)
        assert set(joint.lazy) <= gap
        assert not (set(joint.busy) & gap)


def test_lazy_mass_decays_but_persists(lat_m8):
    joint = initial_joint(lat_m8)
    masses = [joint.lazy[1]]
    for _ in range(15):
        joint = evolve(joint, lat_m8)
        masses.append(joint.lazy[1])
    assert all(b < a for a, b in zip(masses, masses[1:]))
    assert masses[-1] > 0


def test_float_backend_tracks_rational(lat_m8):
    jr = initial_joint(lat_m8, backend="rational")
    jf = initial_joint(lat_m8, backend="float")
    for _ in range(10):
        jr = evolve(jr, lat_m8)
        jf = evolve(jf, lat_m8)
    mr = marginal(jr)
    mf = marginal(jf)
    for j, p in mr.items():
        assert mf[j] == pytest.approx(float(p), abs=1e-14)


def reference_step(joint, lattice, m):
    """One Fraction-by-Fraction step of the joint law: the oracle for evolve."""
    busy, lazy = {}, {}
    for i, mass in joint.busy.items():
        for dest, p in busy_transition(lattice, i):
            if abs(dest) <= lattice.j_max:
                busy[dest] = busy.get(dest, Fraction(0)) + mass * p
    for i, mass in joint.lazy.items():
        moving = mass * lazy_hazard(i, joint.step, m)
        if mass != moving:
            lazy[i] = mass - moving
        if moving != 0:
            for dest, p in switch_jump(lattice, i):
                busy[dest] = busy.get(dest, Fraction(0)) + moving * p
    return busy, lazy


@pytest.mark.parametrize(
    "name, steps",
    [("lat_m8", 20), ("lat_ragged", 8), ("cantor3_m400", 8), ("truncated_m50", 120)],
)
def test_rational_evolve_matches_fraction_reference(request, name, steps):
    if name == "cantor3_m400":
        lat = lattice_project(build_interval_system(fat_cantor_intervals(3)), 400)
    elif name == "truncated_m50":
        lat = lattice_project(build_interval_system(TWO_GAPS), 50, j_max=60)
    else:
        lat = request.getfixturevalue(name)
    joint = initial_joint(lat)
    for _ in range(steps):
        nxt = evolve(joint, lat)
        busy, lazy = reference_step(joint, lat, lat.m)
        assert list(nxt.busy.items()) == list(busy.items())
        assert list(nxt.lazy.items()) == list(lazy.items())
        assert all(type(p) is Fraction for p in [*nxt.busy.values(), *nxt.lazy.values()])
        joint = nxt


def test_certification_pins_float_two_gap_values():
    lat = lattice_project(build_interval_system(TWO_GAPS), 100, j_max=400)
    report = run_marginal_certification(lat, steps=300, backend="float")
    assert report["max_abs_deviation"] == 5.204170427930421e-17
    assert report["mass_deficit"] == 8.881784197001252e-16


@pytest.mark.parametrize(
    "backend, deviation",
    [("rational", 4.134892097767776e-12), ("float", 4.134892097767777e-12)],
)
def test_certification_pins_truncated_window_deviation(backend, deviation):
    # j_max = 60 < m + steps: mass leaves the window, so the marginal falls
    # short of the walk law by a small, exactly reproducible amount
    lat = lattice_project(build_interval_system(TWO_GAPS), 50, j_max=60)
    report = run_marginal_certification(lat, steps=120, backend=backend)
    assert report["max_abs_deviation"] == deviation
    assert report["exactly_zero"] is False


def test_certification_report_exact_backend(lat_m8):
    report = run_marginal_certification(lat_m8, steps=12, backend="rational")
    assert report["exactly_zero"] is True
    assert report["max_abs_deviation"] == 0.0
    assert report["mass_deficit"] == 0.0
    assert report["m"] == 8
    assert report["N"] == 2
    assert report["steps"] == 12
    assert "elapsed_s" not in report


def test_unknown_backend_is_rejected(lat_m8):
    with pytest.raises(ValueError, match="'decimal'"):
        run_marginal_certification(lat_m8, 5, backend="decimal")
    with pytest.raises(ValueError, match="'decimal'"):
        initial_joint(lat_m8, backend="decimal")


def test_certification_report_float_backend():
    lat = lattice_project(build_interval_system(TWO_GAPS), 50, j_max=110)
    report = run_marginal_certification(lat, steps=30, backend="float")
    assert report["max_abs_deviation"] <= 1e-12
    assert report["mass_deficit"] <= 1e-12


# ---------- samplers ----------


def test_sample_path_shape_and_determinism(lat_m8):
    pos_a, frz_a = sample_paths(lat_m8, 30, 5, seed=123)
    pos_b, frz_b = sample_paths(lat_m8, 30, 5, seed=123)
    pos_c, _ = sample_paths(lat_m8, 30, 5, seed=124)
    assert pos_a.shape == frz_a.shape == (5, 31)
    assert pos_a.dtype == np.int64 and frz_a.dtype == bool
    assert np.array_equal(pos_a, pos_b)
    assert np.array_equal(frz_a, frz_b)
    assert not np.array_equal(pos_a, pos_c)


def test_sample_path_mode_and_move_legality(lat_m8):
    gap = set(lat_m8.gap_sites)
    seen_switch = False
    positions, frozen = sample_paths(lat_m8, 40, 40, seed=0)
    for pos, frz in zip(positions.tolist(), frozen.tolist()):
        assert frz[0] == (pos[0] in gap)
        for prev, cur, prev_frozen, cur_frozen in zip(pos, pos[1:], frz, frz[1:]):
            if prev_frozen:
                assert prev in gap
                if cur_frozen:
                    assert cur == prev
                else:
                    seen_switch = True
                    assert cur in lat_m8.gap_neighbors(prev)
            else:
                assert not cur_frozen
                legal = {prev - 1, prev, prev + 1}
                if prev in lat_m8.flanks:
                    legal |= set(lat_m8.gap_neighbors(prev))
                assert cur in legal
    assert seen_switch


def test_sample_path_window_guard(lat_m8):
    with pytest.raises(ValueError, match="window too small"):
        sample_paths(lat_m8, 60, 10, seed=0)


@pytest.mark.parametrize(
    "horizon, n_paths, message",
    [
        (5, 0, "n_paths must be >= 1"),
        (5, -3, "n_paths must be >= 1"),
        (-1, 10, "horizon_steps must be >= 0"),
    ],
)
def test_sample_paths_rejects_bad_sizes(lat_m8, horizon, n_paths, message):
    with pytest.raises(ValueError, match=message):
        sample_paths(lat_m8, horizon, n_paths, seed=0)


def test_sample_endpoints_deterministic_and_block_stable(lat_m8):
    pos_a, frz_a = sample_paths(lat_m8, 5, 4096 + 50, seed=99)
    pos_b, frz_b = sample_paths(lat_m8, 5, 4096 + 50, seed=99)
    assert np.array_equal(pos_a, pos_b)
    assert np.array_equal(frz_a, frz_b)
    pos_c, frz_c = sample_paths(lat_m8, 5, 4096, seed=99)
    assert np.array_equal(pos_a[:4096], pos_c)
    assert np.array_equal(frz_a[:4096], frz_c)


# sha256 of the int64 positions and bool frozen flags at the horizon, frozen
# from the earlier endpoint-only sampler; the last column of the trajectories
# must reproduce them bit for bit
ENDPOINT_DIGESTS = {
    ("lat_m8", 12, 20000, 31337): (
        "629c34e6a03533261efd1247b4a3951131ca8cd9a0794828d530533646453519",
        "e6bc4cd0748ae4f6bef866786f562b82a1507f8e1cb5b42c57201ce7f29dc733",
    ),
    ("lat_m8", 5, 4146, 99): (
        "494c7c40d7110c9332c5d15d0a085eec93b3313e5dfd6d647a1665eb34dd3225",
        "005a476e94a83b8640061662cc3e421b2120939389c753af48f280f8972ba06c",
    ),
    ("lat_ragged", 40, 5000, 5): (
        "24f9cfa064296bae763ce995f4f77880cfed7ab54e5fab27b2ec9e058ce92dd4",
        "6661daa70bfbfd3fb5bb7773535bcc7861f900b81aaa3ebc78dc5c21db195cb1",
    ),
}


@pytest.mark.parametrize("config", list(ENDPOINT_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_sample_paths_endpoints_are_pinned(request, config):
    name, horizon, n, seed = config
    pos, frozen = sample_paths(request.getfixturevalue(name), horizon, n, seed)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (pos[:, -1], frozen[:, -1]))
    assert digests == ENDPOINT_DIGESTS[config]


def test_sample_endpoints_matches_dp_marginal(lat_m8):
    n = 20000
    horizon = 12
    pos, frozen = sample_paths(lat_m8, horizon, n, seed=31337)
    pos, frozen = pos[:, -1], frozen[:, -1]
    joint = initial_joint(lat_m8, backend="float")
    for _ in range(horizon):
        joint = evolve(joint, lat_m8)
    law = marginal(joint)

    counts = {}
    for j in pos:
        counts[int(j)] = counts.get(int(j), 0) + 1
    # every observed site is in the DP support
    assert set(counts) <= {j for j, p in law.items() if p > 0}
    # z test per site with expected count >= 10, 4 sigma
    for j, p in law.items():
        if n * p < 10:
            continue
        sd = (n * p * (1 - p)) ** 0.5
        assert abs(counts.get(j, 0) - n * p) <= 4 * sd

    # frozen fraction matches the DP lazy mass
    p_lazy = sum(joint.lazy.values())
    sd = (n * p_lazy * (1 - p_lazy)) ** 0.5
    assert abs(frozen.sum() - n * p_lazy) <= 4 * sd
    # frozen particles sit on gap sites, busy ones on active sites
    assert set(pos[frozen].tolist()) <= set(lat_m8.gap_sites)
    assert not (set(pos[~frozen].tolist()) & set(lat_m8.gap_sites))
