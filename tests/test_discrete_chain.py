"""Two-mode lattice chain: kernel rows and step inflow, hazards, exact DP, and the sampler."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

import fakebm.discrete_chain as chain
from fakebm.discrete_chain import (
    _float_hazards,
    _inflow,
    _rows,
    _walk_law,
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
from fakebm.lazy_walk import pmf, pmf_value

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


@pytest.fixture(scope="module")
def lat_cantor3():
    return lattice_project(build_interval_system(fat_cantor_intervals(3)), 400)


@pytest.fixture(scope="module")
def lat_m50_window60():
    # a truncated window: the edge rows' outer moves leave it
    return lattice_project(build_interval_system(TWO_GAPS), 50, j_max=60)


@pytest.fixture(scope="module")
def lat_nogap():
    # one interval that covers the whole unit interval: no gap site, no flank
    return lattice_project(build_interval_system([(1e-13, 1 - 1e-13)]), 8, j_max=30)


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


@pytest.mark.parametrize(
    "name", ["lat_m8", "two_gap_m50", "two_gap_m200", "lat_ragged", "lat_cantor3"]
)
def test_float_hazards_are_the_rounded_fraction(request, name):
    if name.startswith("two_gap"):
        lat = lattice_project(build_interval_system(TWO_GAPS), int(name[9:]))
    else:
        lat = request.getfixturevalue(name)
    sites = list(lat.gap_sites)
    # at m = 50 no site falls in the gap (0.4, 0.6): the empty case
    assert bool(sites) == (name != "two_gap_m50")
    for step in range(2000):
        want = [float(lazy_hazard(i, step, lat.m)) for i in sites]
        assert _float_hazards(sites, step, lat.m) == want


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


# ---------- kernel rows and the step's inflow ----------


@pytest.mark.parametrize("name", ["lat_m8", "lat_ragged", "lat_cantor3", "lat_m50_window60"])
def test_step_inflow_is_the_walk_stencil_or_the_table(request, name):
    lat = request.getfixturevalue(name)
    rows = _rows(lat)
    assert list(rows) == list(lat.flanks)
    for j, row in rows.items():
        if lat.is_active(j):
            assert row == busy_transition(lat, j)
        else:
            left, right = switch_jump(lat, j)
            assert row == [left, (j, Fraction(0)), right]

    # brute force: every active source's moves into the window, in
    # ascending source order, each with its slot in the source's row
    off = lat.j_max
    inflow = {t: [] for t in lat.sites}
    for i in lat.sites:
        if lat.is_active(i):
            for s, (d, p) in enumerate(busy_transition(lat, i)):
                if abs(d) <= off:
                    inflow[d].append((s, i, p))
    cols, src, land, probs = _inflow(lat)
    (prob, q), (fprob, fq) = probs["rational"], probs["float"]
    table = {
        c - off: list(zip((src[:, k] - off).tolist(), prob[:, k].tolist()))
        for k, c in enumerate(cols.tolist())
    }
    assert fprob.tolist() == [[float(p) for p in row] for row in prob.tolist()]
    assert fq.tolist() == [float(p) for p in q.tolist()]
    # each gap site's switching mass lands on its left flank, then its right
    landings = [rows[g][s] for g in lat.gap_sites for s in (0, 2)]
    assert list(zip((land - off).tolist(), q.tolist())) == landings
    for t, moves in inflow.items():
        # source order is slot order: the right move in, the stay, the left
        # move in, at most one of each
        slots = [s for s, _, _ in moves]
        assert slots == sorted(set(slots), reverse=True)
        moves = [(i, p) for _, i, p in moves]
        if t in table:
            # padded with moves of p = 0 from the site itself
            assert table[t] == moves + [(t, Fraction(0))] * (len(src) - len(moves))
        else:
            # the window's end sites are in the table, so all three sources are
            assert moves == [(t - 1, Fraction(1, 4)), (t, Fraction(1, 2)), (t + 1, Fraction(1, 4))]


# ---------- the walk's law over the window ----------


@pytest.mark.parametrize("n", [0, 1, 2, 100, 400, 510, 511, 512, 513, 515, 537, 538, 700])
@pytest.mark.parametrize("backend", ["rational", "float"])
def test_walk_law_is_the_law_on_the_window(n, backend):
    # windows narrower than the walk's reach n, equal to it and wider
    for j_max in sorted({max(n // 2, 2), max(n, 2), n + 3}):
        lat = lattice_project(build_interval_system(TWO_GAPS), 8, j_max=j_max)
        law = _walk_law(lat, n, backend)
        assert law.shape == (2 * j_max + 1,)
        full = pmf(n, backend)
        num = Fraction if backend == "rational" else float
        want = [
            num(Fraction(math.comb(2 * n, n + j), 4**n)) if abs(j) <= n else num(0)
            for j in lat.sites
        ]
        if backend == "float":
            # c / 4^n is the correctly rounded division, as float(Fraction) is
            assert law.dtype == np.float64
            assert law.tobytes() == np.array(want).tobytes()
        else:
            assert law.dtype == object
            assert law.tolist() == want
            assert all(type(p) is Fraction for p in law.tolist())
        # the old law: the full pmf, sliced to the window
        assert law.tolist() == [full[j + n] if abs(j) <= n else num(0) for j in lat.sites]


def test_float_deviation_is_a_python_float(lat_m8):
    joint = initial_joint(lat_m8, "float")
    for _ in range(3):
        joint = evolve(joint, lat_m8)
    dev = max_marginal_deviation(joint, lat_m8)
    assert type(dev) is float
    assert type(dev == 0) is bool


# ---------- exact DP evolution ----------


def test_initial_joint_splits_modes(lat_m8):
    joint = initial_joint(lat_m8)
    off = lat_m8.j_max
    assert (np.flatnonzero(joint.lazy) - off).tolist() == [1]
    assert joint.lazy[1 + off] == pmf_value(8, 1)
    assert joint.busy[1 + off] == 0
    assert joint.busy[off] == pmf_value(8, 0)
    assert joint.busy.shape == joint.lazy.shape == (2 * off + 1,)
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
    mean = sum(j * p for j, p in zip(lat_m8.sites, marginal(joint)))
    assert mean == 0


def test_evolve_mode_supports_stay_disjoint(request):
    # busy mass is 0 on every gap column and frozen mass on every active one
    for name in ("lat_m8", "lat_ragged", "lat_cantor3"):
        lat = request.getfixturevalue(name)
        gap = np.zeros(2 * lat.j_max + 1, dtype=bool)
        gap[np.array(lat.gap_sites) + lat.j_max] = True
        for backend in ("rational", "float"):
            joint = initial_joint(lat, backend)
            for _ in range(9):
                assert not joint.busy[gap].any()
                assert not joint.lazy[~gap].any()
                assert joint.lazy[gap].all()
                joint = evolve(joint, lat)


def test_lazy_mass_decays_but_persists(lat_m8):
    joint = initial_joint(lat_m8)
    c = 1 + lat_m8.j_max
    masses = [joint.lazy[c]]
    for _ in range(15):
        joint = evolve(joint, lat_m8)
        masses.append(joint.lazy[c])
    assert all(b < a for a, b in zip(masses, masses[1:]))
    assert masses[-1] > 0


def test_float_backend_tracks_rational(lat_m8):
    jr = initial_joint(lat_m8, backend="rational")
    jf = initial_joint(lat_m8, backend="float")
    for _ in range(10):
        jr = evolve(jr, lat_m8)
        jf = evolve(jf, lat_m8)
    mf = marginal(jf).tolist()
    for p_r, p_f in zip(marginal(jr).tolist(), mf):
        assert p_f == pytest.approx(float(p_r), abs=1e-14)


def reference_step(joint, lattice, m):
    """One row-by-row step of the joint law, adding in the order of a loop
    over the sources in ascending site order: the oracle for evolve.
    Returns the new busy and frozen masses as {site: mass} over the window.
    The float backend takes each probability p as float(p) and each hazard
    h as float(h)."""
    num = (lambda p: p) if joint.backend == "rational" else float
    busy = {j: num(Fraction(0)) for j in lattice.sites}
    lazy = dict(busy)
    for i, mass in zip(lattice.sites, joint.busy.tolist()):
        if lattice.is_active(i):
            for dest, p in busy_transition(lattice, i):
                if abs(dest) <= lattice.j_max:
                    busy[dest] += mass * num(p)
    for i in lattice.gap_sites:
        frozen = joint.lazy[i + lattice.j_max]
        moving = frozen * num(lazy_hazard(i, joint.step, m))
        lazy[i] = frozen - moving
        for dest, p in switch_jump(lattice, i):
            busy[dest] += moving * num(p)
    return busy, lazy


REFERENCE_CASES = [
    ("lat_m8", 20),
    ("lat_ragged", 8),
    ("cantor3_m400", 8),
    ("truncated_m50", 120),
    ("lat_nogap", 30),
]


def assert_evolve_matches_reference(request, name, steps, backend):
    if name == "cantor3_m400":
        lat = lattice_project(build_interval_system(fat_cantor_intervals(3)), 400)
    elif name == "cantor4_m2000":
        # a full window: the walk's tails underflow to 0.0 far out
        lat = lattice_project(build_interval_system(fat_cantor_intervals(4)), 2000, j_max=2003)
    elif name == "truncated_m50":
        lat = lattice_project(build_interval_system(TWO_GAPS), 50, j_max=60)
    else:
        lat = request.getfixturevalue(name)
    kind = Fraction if backend == "rational" else float
    joint = initial_joint(lat, backend)
    for _ in range(steps):
        nxt = evolve(joint, lat)
        busy, lazy = reference_step(joint, lat, lat.m)
        assert nxt.busy.tolist() == list(busy.values())
        assert nxt.lazy.tolist() == list(lazy.values())
        assert all(type(p) is kind for p in [*nxt.busy.tolist(), *nxt.lazy.tolist()])
        joint = nxt
    return joint


@pytest.mark.parametrize("name, steps", REFERENCE_CASES)
def test_rational_evolve_matches_fraction_reference(request, name, steps):
    assert_evolve_matches_reference(request, name, steps, "rational")


@pytest.mark.parametrize("name, steps", [*REFERENCE_CASES, ("cantor4_m2000", 3)])
def test_float_evolve_matches_float_reference(request, name, steps):
    joint = assert_evolve_matches_reference(request, name, steps, "float")
    if name == "cantor4_m2000":
        # site -2003 is within the walk's reach m + 3, and its mass 4^-2003
        # underflows to 0.0
        assert joint.busy[0] == 0.0


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


def dp_report(lattice, steps, backend="rational"):
    """The certification report by evolving the joint law from step 0: the
    oracle for the rational certificate's one-step induction."""
    joint = initial_joint(lattice, backend=backend)
    worst = max_marginal_deviation(joint, lattice)
    for _ in range(steps):
        joint = evolve(joint, lattice)
        worst = max(worst, max_marginal_deviation(joint, lattice))
    return {
        "m": lattice.m,
        "N": lattice.system.n_intervals,
        "steps": steps,
        "backend": backend,
        "max_abs_deviation": float(worst),
        "exactly_zero": worst == 0,
        "mass_deficit": float(abs(1 - joint.total_mass())),
    }


@pytest.mark.parametrize(
    "name, steps", [("lat_m8", 40), ("lat_ragged", 20), ("cantor3_m400", 10)]
)
def test_induction_report_equals_dp(request, monkeypatch, name, steps):
    # full windows: j_max >= m + steps
    if name == "cantor3_m400":
        lat = lattice_project(build_interval_system(fat_cantor_intervals(3)), 400, j_max=410)
    else:
        lat = request.getfixturevalue(name)
    want = dp_report(lat, steps)
    assert want["exactly_zero"] is True

    def no_evolve(joint, lattice):
        raise AssertionError("a full window must not evolve the joint law")

    monkeypatch.setattr(chain, "evolve", no_evolve)
    assert run_marginal_certification(lat, steps, backend="rational") == want


def perturbed_lattice(site, row):
    """A fresh m = 8 two-gap lattice whose cached kernel row at the active
    site is replaced by row, given as (dest, numerator over 8) pairs for the
    left move, the stay and the right move, before the step's inflow table
    is built from the rows."""
    lat = lattice_project(build_interval_system(TWO_GAPS), 8, j_max=60)
    assert "inflow" not in lat._cache
    _rows(lat)[site] = [(d, Fraction(w, 8)) for d, w in row]
    assert sum(p for _, p in _rows(lat)[site]) == 1
    return lat


def test_evolve_keeps_every_move_of_a_row_that_is_not_the_chains():
    # site -10's left move jumps to -12, where site -11's left move lands
    # too, and past the walk's reach m + step from step 2 on; on a full
    # window no mass is lost
    lat = perturbed_lattice(-10, [(-12, 2), (-10, 4), (-9, 2)])
    joint = initial_joint(lat)
    for _ in range(12):
        joint = evolve(joint, lat)
        assert joint.total_mass() == 1


@pytest.fixture
def evolve_steps(monkeypatch):
    """The step of every joint law the certification evolves, in call order."""
    calls = []
    real_evolve = chain.evolve

    def counted(joint, lattice):
        calls.append(joint.step)
        return real_evolve(joint, lattice)

    monkeypatch.setattr(chain, "evolve", counted)
    return calls


def test_induction_detects_a_perturbed_kernel(evolve_steps):
    # site -10 first holds mass at step 2 (n = 10); the shifted weight sends
    # too much to -11, so step 2 -> 3 fails and the joint law is evolved
    # from step 0, as for any lattice the induction does not prove
    lat = perturbed_lattice(-10, [(-11, 3), (-10, 3), (-9, 2)])
    report = run_marginal_certification(lat, 12, backend="rational")
    assert evolve_steps == list(range(12))
    assert report["exactly_zero"] is False
    assert report["max_abs_deviation"] > 0
    assert report == dp_report(lat, 12)


def test_induction_rejects_a_row_landing_on_a_gap_site():
    # site 1 is the only gap site of the m = 8 lattice
    lat = perturbed_lattice(-3, [(-4, 2), (-3, 4), (1, 2)])
    with pytest.raises(ValueError, match="lands on gap site 1"):
        run_marginal_certification(lat, 12, backend="rational")


# ---------- kernel check ----------


def test_kernel_check_rejects_a_perturbed_gap_column(evolve_steps):
    # gap site 1 of the m = 8 lattice splits its switching mass 1/2, 1/2
    # between its flanks 0 and 2; a biased split is not gambler's ruin
    lat = lattice_project(build_interval_system(TWO_GAPS), 8, j_max=60)
    rows = _rows(lat)
    assert rows[1] == [(0, Fraction(1, 2)), (1, 0), (2, Fraction(1, 2))]
    rows[1] = [(0, Fraction(3, 8)), (1, Fraction(0)), (2, Fraction(5, 8))]
    assert not chain._certified(lat)
    report = run_marginal_certification(lat, 12, backend="rational")
    assert evolve_steps == list(range(12))
    assert report["exactly_zero"] is False
    assert report == dp_report(lat, 12)


def test_kernel_check_rejects_a_wrong_far_jump(evolve_steps):
    # boundary site 0 faces the gap {1}, of lattice length g = 2, so its far
    # jump to 2 has probability 1/(4g) = 1/8; here it is 1/4
    lat = perturbed_lattice(0, [(-1, 2), (0, 4), (2, 2)])
    assert not chain._certified(lat)
    report = run_marginal_certification(lat, 12, backend="rational")
    assert evolve_steps == list(range(12))
    assert report["exactly_zero"] is False
    assert report == dp_report(lat, 12)


def test_kernel_check_rejects_a_column_the_walk_never_reaches(evolve_steps):
    # 12 steps from m = 8 reach |j| <= 20: the bad column at 40 never holds
    # mass, so the evolved report is still zero, but the run is evolved
    lat = perturbed_lattice(40, [(39, 3), (40, 3), (41, 2)])
    assert not chain._certified(lat)
    report = run_marginal_certification(lat, 12, backend="rational")
    assert evolve_steps == list(range(12))
    assert report["exactly_zero"] is True
    assert report == dp_report(lat, 12)


@pytest.mark.parametrize("site, lands_from", [(1, 1), (0, 0), (2, 2)])
def test_landing_scan_reads_the_walk_row_of_a_missing_site(site, lands_from):
    # a gap site or a gap neighbour missing from the rows keeps the walk's
    # row, which stays on, or moves onto, the gap site 1
    lat = lattice_project(build_interval_system(TWO_GAPS), 8, j_max=60)
    del _rows(lat)[site]
    with pytest.raises(ValueError, match=f"row of site {lands_from} lands on gap site 1"):
        run_marginal_certification(lat, 12, backend="rational")


@pytest.fixture
def no_evolve(monkeypatch):
    def refuse(joint, lattice):
        raise AssertionError("a certified kernel must not evolve the joint law")

    monkeypatch.setattr(chain, "evolve", refuse)


def test_cantor6_at_m32768_is_certified_at_any_step_count(no_evolve):
    system = build_interval_system(fat_cantor_intervals(6))
    reports = []
    for steps in (10, 1000):
        lat = lattice_project(system, 32768, j_max=32768 + steps)
        report = run_marginal_certification(lat, steps, backend="rational")
        assert "inflow" not in lat._cache
        assert report.pop("steps") == steps
        reports.append(report)
    assert reports[0] == reports[1] == {
        "m": 32768,
        "N": 63,
        "backend": "rational",
        "max_abs_deviation": 0.0,
        "exactly_zero": True,
        "mass_deficit": 0.0,
    }


def test_cantor8_at_m524288_is_certified_on_a_full_window(no_evolve):
    # the first depth of the depth ladder's certificates: 255 gaps, and a
    # window of m + steps sites a side, as verify-discrete projects it
    lat = lattice_project(build_interval_system(fat_cantor_intervals(8)), 524288, j_max=524288 + 10)
    assert run_marginal_certification(lat, 10, backend="rational") == {
        "m": 524288,
        "N": 255,
        "steps": 10,
        "backend": "rational",
        "max_abs_deviation": 0.0,
        "exactly_zero": True,
        "mass_deficit": 0.0,
    }
    # the certificate compares rows: the step's inflow table is not built
    assert "inflow" not in lat._cache


def ragged_lattice(seed, steps):
    """A seeded interval system with 2 or 3 intervals whose endpoints fall
    between lattice sites, projected at the smallest m that keeps every gap
    site within 2 i^2 < m, plus up to 20, on a full window."""
    rng = np.random.default_rng(seed)
    site, intervals = int(rng.integers(1, 4)), []
    for _ in range(int(rng.integers(2, 4))):
        end = site + int(rng.integers(0, 3))
        intervals.append((site, end))
        site = end + int(rng.integers(2, 4))  # at least one gap site between
    m = 2 * (intervals[-1][1] + 1) ** 2 + int(rng.integers(0, 21))
    spacing = (2 / m) ** 0.5
    fracs = rng.uniform(0.1, 0.9, size=(len(intervals), 2))
    bounded = [((a - u) * spacing, (b + v) * spacing) for (a, b), (u, v) in zip(intervals, fracs)]
    return lattice_project(build_interval_system(bounded), m, j_max=m + steps)


@pytest.mark.parametrize("seed", range(20))
def test_kernel_check_passes_where_the_dp_reads_zero(seed):
    # the DP is the oracle for the argument: on lattices the check certifies,
    # the exact evolution of the joint law never leaves the walk's law
    lat = ragged_lattice(seed, 30)
    assert lat.gap_sites
    assert chain._certified(lat)
    joint = initial_joint(lat)
    worst = max_marginal_deviation(joint, lat)
    for _ in range(30):
        joint = evolve(joint, lat)
        worst = max(worst, max_marginal_deviation(joint, lat))
    assert worst == Fraction(0) and isinstance(worst, Fraction)
    assert joint.total_mass() == 1


@pytest.mark.parametrize(
    "backend, j_max, evolved, deviation, deficit",
    [
        ("rational", 170, 0, 0.0, 0.0),
        ("rational", 169, 120, 0.0, 8.929588994392773e-103),
        ("rational", 168, 120, 4.464794497196387e-103, 3.0539194360823285e-100),
        ("float", 170, 120, 4.163336342344337e-17, 2.220446049250313e-16),
        ("float", 169, 120, 4.163336342344337e-17, 2.220446049250313e-16),
        ("float", 168, 120, 4.163336342344337e-17, 2.220446049250313e-16),
    ],
    ids=[f"{b}-{j}" for b in ("rational", "float") for j in (170, 169, 168)],
)
def test_window_boundary_between_induction_and_dp(evolve_steps, backend, j_max, evolved,
                                                 deviation, deficit):
    # m + steps = 170: only the rational backend on a full window skips the
    # DP.  At 169 the mass that reaches +-170 at the last step is dropped but
    # every window site still holds the walk's mass; at 168 it is dropped a
    # step earlier and the sites +-168 fall short
    lat = lattice_project(build_interval_system(TWO_GAPS), 50, j_max=j_max)
    report = run_marginal_certification(lat, 120, backend=backend)
    assert len(evolve_steps) == evolved
    assert report["max_abs_deviation"] == deviation
    assert report["exactly_zero"] is (backend == "rational" and j_max >= 169)
    assert report["mass_deficit"] == deficit


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_certification_rejects_negative_steps(lat_m8, backend):
    with pytest.raises(ValueError, match="steps must be >= 0"):
        run_marginal_certification(lat_m8, -3, backend=backend)


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("steps", [2.5, 12.0, "12"])
def test_certification_rejects_non_integer_steps(lat_m8, backend, steps):
    # 2.5 used to certify a report of 2.5 steps, or fail in range()
    with pytest.raises(ValueError, match=f"steps must be an integer, got {steps!r}"):
        run_marginal_certification(lat_m8, steps, backend=backend)


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_certification_takes_numpy_integer_steps(lat_m8, backend):
    assert run_marginal_certification(lat_m8, np.int64(12), backend) == run_marginal_certification(
        lat_m8, 12, backend
    )


def test_rational_certification_reaches_m200_with_800_steps():
    lat = lattice_project(build_interval_system(TWO_GAPS), 200, j_max=1000)
    report = run_marginal_certification(lat, 800, backend="rational")
    assert report["exactly_zero"] is True
    assert report["max_abs_deviation"] == 0.0
    assert report["mass_deficit"] == 0.0


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
        (2.5, 5, "horizon_steps must be an integer, got 2.5"),
        (5, 2.5, "n_paths must be an integer, got 2.5"),
        (5.0, 5, "horizon_steps must be an integer, got 5.0"),
        (5, 5.0, "n_paths must be an integer, got 5.0"),
    ],
)
def test_sample_paths_rejects_bad_sizes(lat_m8, horizon, n_paths, message):
    with pytest.raises(ValueError, match=message):
        sample_paths(lat_m8, horizon, n_paths, seed=0)


def test_sample_paths_takes_numpy_integer_sizes(lat_m8):
    got = sample_paths(lat_m8, np.int64(5), np.int32(7), seed=3)
    want = sample_paths(lat_m8, 5, 7, seed=3)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


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


def assert_endpoints_match_dp(lat, horizon, n, seed):
    """Sample n paths to the horizon and z-test their endpoints against the
    float DP's marginal and frozen mass; returns the sampled paths."""
    positions, frozen_paths = sample_paths(lat, horizon, n, seed=seed)
    pos, frozen = positions[:, -1], frozen_paths[:, -1]
    joint = initial_joint(lat, backend="float")
    for _ in range(horizon):
        joint = evolve(joint, lat)
    law = dict(zip(lat.sites, marginal(joint).tolist()))

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
    p_lazy = sum(joint.lazy.tolist())
    sd = (n * p_lazy * (1 - p_lazy)) ** 0.5
    assert abs(frozen.sum() - n * p_lazy) <= 4 * sd
    # frozen particles sit on gap sites, busy ones on active sites
    assert set(pos[frozen].tolist()) <= set(lat.gap_sites)
    assert not (set(pos[~frozen].tolist()) & set(lat.gap_sites))
    return positions, frozen_paths


def test_sample_endpoints_matches_dp_marginal(lat_m8):
    assert_endpoints_match_dp(lat_m8, 12, 20000, 31337)


def test_sample_paths_without_gap_sites_take_walk_steps(lat_nogap):
    # no key of the kernel rows to look up: every site takes the walk's row
    assert not lat_nogap.gap_sites and not lat_nogap.flanks
    positions, frozen = assert_endpoints_match_dp(lat_nogap, 20, 5000, 8)
    assert not frozen.any()
    assert set(np.diff(positions).ravel().tolist()) == {-1, 0, 1}
