"""Chance-constrained feasible action sets."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import microgrid_dp as m
from conftest import small_discretization
from microgrid_dp.constraints import _REASONS, _exclusions, near_zero_halfwidth
from microgrid_dp.dynamics import ndtr as pkg_ndtr
from oracles import feasible_actions_reference, state_of


def _with_eps(cfg, eps):
    disc = dataclasses.replace(cfg.discretization, epsilon=eps)
    return dataclasses.replace(cfg, discretization=disc)


def _state_with_r(r, cfg, q=0.5, g=0.5, n=0):
    return m.State(r - m.seasonality(cfg.t_of(n), cfg.demand), q, g)


def test_halfwidth_is_half_a_z_cell(cfg_table1, grid_table1):
    half = near_zero_halfwidth(cfg_table1)
    z_points = grid_table1.z.points
    assert half == pytest.approx((z_points[1] - z_points[0]) / 2.0, abs=1e-12)
    assert half == pytest.approx(0.1255610247419798, abs=1e-12)


def test_near_zero_band_forces_wait(cfg_table1):
    half = near_zero_halfwidth(cfg_table1)
    for r in (0.0, half * 0.99, -half * 0.99):
        fs = m.feasible_actions(0, _state_with_r(r, cfg_table1), cfg_table1)
        assert tuple(fs) == (m.Action.WAIT,)
        assert set(fs.excluded) == set(m.Action) - {m.Action.WAIT}
    edge = m.feasible_actions(0, _state_with_r(half, cfg_table1), cfg_table1)
    assert m.Action.WAIT in edge
    assert len(edge) > 1


def test_surplus_side_is_charge_or_overspill(cfg_table1):
    fs = m.feasible_actions(0, _state_with_r(-1.0, cfg_table1, q=0.5), cfg_table1)
    assert set(fs) == {m.Action.OVERSPILL, m.Action.CHARGE}
    for a in (m.Action.WAIT, m.Action.DISCHARGE_FULL, m.Action.FUEL_FULL):
        assert "surplus" in fs.excluded[a]


def test_full_battery_cannot_charge(cfg_table1):
    fs = m.feasible_actions(0, _state_with_r(-1.0, cfg_table1, q=1.0), cfg_table1)
    assert tuple(fs) == (m.Action.OVERSPILL,)
    assert "> 1" in fs.excluded[m.Action.CHARGE]
    mom = m.transition_moments(0, _state_with_r(-1.0, cfg_table1, q=1.0),
                               m.Action.CHARGE, cfg_table1)
    tail = ndtr((mom.m_Q - 1.0) / math.sqrt(mom.var_Q))
    assert tail >= cfg_table1.discretization.epsilon


def test_full_battery_may_still_discharge(cfg_table1):
    fs = m.feasible_actions(0, _state_with_r(2.0, cfg_table1, q=1.0), cfg_table1)
    assert m.Action.DISCHARGE_FULL in fs
    assert m.Action.DISCHARGE_LIMITED in fs


def test_empty_battery_cannot_discharge(cfg_table1):
    fs = m.feasible_actions(0, _state_with_r(2.0, cfg_table1, q=0.0), cfg_table1)
    assert m.Action.DISCHARGE_FULL not in fs
    assert "< 0" in fs.excluded[m.Action.DISCHARGE_FULL]
    assert m.Action.DISCHARGE_LIMITED not in fs


def test_empty_tank_cannot_burn(cfg_table1):
    fs = m.feasible_actions(0, _state_with_r(2.0, cfg_table1, g=0.0), cfg_table1)
    assert m.Action.FUEL_FULL not in fs
    assert m.Action.FUEL_LIMITED not in fs


def test_wait_only_corner(cfg_table1):
    fs = m.feasible_actions(0, _state_with_r(2.0, cfg_table1, q=0.0, g=0.0),
                            cfg_table1)
    assert tuple(fs) == (m.Action.WAIT,)


def test_limited_modes_need_threshold_demand(cfg_table1):
    r_q0 = cfg_table1.battery.R_Q0
    below = m.feasible_actions(0, _state_with_r(1.0, cfg_table1), cfg_table1)
    assert m.Action.DISCHARGE_LIMITED not in below
    assert "threshold" in below.excluded[m.Action.DISCHARGE_LIMITED]
    assert m.Action.FUEL_LIMITED not in below
    at = m.feasible_actions(0, _state_with_r(r_q0, cfg_table1), cfg_table1)
    assert m.Action.DISCHARGE_LIMITED in at
    assert m.Action.FUEL_LIMITED in at


def test_positive_side_always_can_wait(cfg_table1):
    for r in (0.2, 1.0, 2.5):
        for q in (0.0, 1.0):
            for g in (0.0, 1.0):
                fs = m.feasible_actions(0, _state_with_r(r, cfg_table1, q=q, g=g),
                                        cfg_table1)
                assert m.Action.WAIT in fs
                assert len(fs) >= 1


def test_feasible_set_never_empty_random_states(cfg_table1):
    rng = np.random.default_rng(5150)
    for _ in range(200):
        x = m.State(float(rng.uniform(-2.2, 2.2)), float(rng.uniform(0, 1)),
                    float(rng.uniform(0, 1)))
        n = int(rng.integers(0, cfg_table1.discretization.steps_N))
        fs = m.feasible_actions(n, x, cfg_table1)
        ref = feasible_actions_reference(n, x, cfg_table1)
        assert (fs.actions, fs.excluded) == (ref.actions, ref.excluded)
        assert len(fs) >= 1
        assert set(fs.actions) | set(fs.excluded) == set(m.Action)
        assert not set(fs.actions) & set(fs.excluded)
        assert list(fs.actions) == sorted(fs.actions)


def test_feasible_sets_grow_with_epsilon(cfg_table1):
    rng = np.random.default_rng(22)
    cfgs = [_with_eps(cfg_table1, e) for e in (0.01, 0.05, 0.10)]
    for _ in range(100):
        x = m.State(float(rng.uniform(-2.2, 2.2)), float(rng.uniform(0, 1)),
                    float(rng.uniform(0, 1)))
        n = int(rng.integers(0, cfg_table1.discretization.steps_N))
        sets = [set(m.feasible_actions(n, x, c)) for c in cfgs]
        assert sets[0] <= sets[1] <= sets[2]
    nearly_full = _state_with_r(-1.0, cfg_table1, q=0.95)
    tight = set(m.feasible_actions(0, nearly_full, cfgs[1]))
    loose = set(m.feasible_actions(0, nearly_full, cfgs[2]))
    assert m.Action.CHARGE not in tight
    assert m.Action.CHARGE in loose


def test_knife_edge_epsilon_same_decision_on_both_routes(cfg_table1, grid_table1):
    """epsilon is set to the package's own lower tail (dynamics.ndtr) of one
    deficit state's full discharge, at a state where scipy's ndtr, which
    the scalar reference reads, rounds that tail higher. The tail is not
    below epsilon, so the move is excluded, and feasible_actions, the
    scalar reference and the mask must agree on it and on the whole step."""
    grid = grid_table1
    z, q = grid.z.points, grid.q.points
    half = near_zero_halfwidth(cfg_table1)
    n, i, j, tail = next(
        (n, i, j, float(pkg_ndtr(x)))
        for n in range(cfg_table1.discretization.steps_N)
        for i, x_row in enumerate(-np.divide(*m.q_moments(n, z[:, None], q[None, :],
                                                          m.Action.DISCHARGE_FULL, cfg_table1)))
        if m.seasonality(cfg_table1.t_of(n), cfg_table1.demand) + z[i] >= half
        for j, x in enumerate(x_row.tolist())
        if 1e-6 < pkg_ndtr(x) < 0.4 and pkg_ndtr(x) < ndtr(x))
    cfg = m.validate_config(_with_eps(cfg_table1, tail))
    mask = m.feasibility_mask(n, grid, cfg)
    x = m.State(float(z[i]), float(q[j]), 0.5)
    assert m.Action.DISCHARGE_FULL not in m.feasible_actions(n, x, cfg)
    assert not mask[m.Action.DISCHARGE_FULL, i, j].any()
    for state in range(grid.n_states):
        expect = mask[(slice(None),) + np.unravel_index(state, grid.shape)].tolist()
        for route in (m.feasible_actions, feasible_actions_reference):
            feas = route(n, state_of(grid, state), cfg)
            assert [a in feas for a in m.Action] == expect


def test_deterministic_moves_ignore_epsilon(cfg_table1):
    tight = _with_eps(cfg_table1, 0.001)
    loose = _with_eps(cfg_table1, 0.49)
    ok = _state_with_r(2.0, cfg_table1, q=0.9, g=0.9)
    bad = _state_with_r(2.0, cfg_table1, q=0.002, g=0.003)
    for cfg in (tight, loose):
        fs = m.feasible_actions(0, ok, cfg)
        assert m.Action.DISCHARGE_LIMITED in fs
        assert m.Action.FUEL_LIMITED in fs
        fs = m.feasible_actions(0, bad, cfg)
        assert m.Action.DISCHARGE_LIMITED not in fs
        assert "deterministic" in fs.excluded[m.Action.DISCHARGE_LIMITED]
        assert m.Action.FUEL_LIMITED not in fs


def test_feasible_set_container_protocol(cfg_table1):
    fs = m.feasible_actions(0, _state_with_r(2.0, cfg_table1), cfg_table1)
    assert m.Action.WAIT in fs
    assert m.Action.OVERSPILL not in fs
    assert len(fs) == len(tuple(fs))
    assert isinstance(fs.excluded[m.Action.OVERSPILL], str)


@pytest.mark.parametrize("eps", [1e-4, 0.05, 0.49])
def test_feasible_actions_match_reference_every_state(cfg_table1, eps):
    cfg = small_discretization(cfg_table1, steps=24)
    cfg = m.validate_config(_with_eps(cfg, eps))
    grid = m.build_grid(cfg)
    reasons = set()
    for n in range(cfg.discretization.steps_N):
        for state in range(grid.n_states):
            x = state_of(grid, state)
            got, ref = m.feasible_actions(n, x, cfg), feasible_actions_reference(n, x, cfg)
            assert (got.actions, got.excluded) == (ref.actions, ref.excluded), (n, state)
            reasons.update(ref.excluded.values())
    # every exclusion rule fired somewhere, the two thresholds separately
    assert len(reasons) == 8


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("axis", ["z", "q", "g"])
def test_non_finite_state_is_rejected(cfg_table1, axis, value):
    x = m.State(1.0, 0.5, 0.5)._replace(**{axis: value})
    with pytest.raises(ValueError, match=f"axis '{axis}'"):
        m.feasible_actions(3, x, cfg_table1)


def _z_at(r, mu):
    """A z with mu + z == r in floating point where one lies within a few
    ulps of r - mu, else one of those few z (mu + z then misses r by an ulp)."""
    z = r - mu
    for _ in range(4):
        if mu + z == r:
            break
        z = math.nextafter(z, math.inf if mu + z < r else -math.inf)
    return z


def _assert_codes_of_feasible_actions(codes, n, z, q, g, cfg):
    """codes = _exclusions(n, z, q, g, cfg) has the action axis followed by
    the broadcast shape of n, z, q and g, and each entry holds the code of
    feasible_actions at its step and state: the same first excluding rule
    for every action."""
    eps = cfg.discretization.epsilon
    code_of = {text.format(eps=eps, threshold=threshold): code
               for code, text in _REASONS.items()
               for threshold in (f"R_Q0 = {cfg.battery.R_Q0}", f"R_G0 = {cfg.generator.R_G0}")}
    shape = np.broadcast(n, z, q, g).shape
    assert codes.shape == (len(m.Action),) + shape
    entries = zip(*(np.broadcast_to(v, shape).ravel().tolist() for v in (n, z, q, g)))
    for e, (step, *x) in enumerate(entries):
        fs = m.feasible_actions(step, m.State(*x), cfg)
        want = [0 if a in fs else code_of[fs.excluded[a]] for a in m.Action]
        assert codes.reshape(len(m.Action), -1)[:, e].tolist() == want, (step, x)


# The residual demands at which a rule changes its verdict: both edges of the
# near-zero band, zero and the two thresholds.
_EDGES = ["band", "-band", "zero", "R_Q0", "R_G0"]
_LEVELS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
# (edge or None, ulps off it, index of the step whose mu_R places it, free z, q, g);
# the steps are table1's 0..N
_POINTS = st.tuples(st.one_of(st.none(), st.sampled_from(_EDGES)), st.integers(-1, 1),
                    st.integers(0, 3), st.floats(-3.0, 3.0), _LEVELS, _LEVELS)


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(st.integers(0, 168), min_size=1, max_size=4), as_array=st.booleans(),
       points=st.lists(_POINTS, min_size=1, max_size=8))
def test_exclusions_on_state_batches_are_feasible_actions(cfg_table1, steps, as_array, points):
    """_exclusions over 1-D batches of states, at an int step or over a step
    column (every step against every state), gives each entry the codes
    of feasible_actions at that point:
    the same first excluding rule for every action. The states sit on the
    band edges, at r = 0, at R_Q0 and R_G0 (or one ulp off them) or
    anywhere, with q and g at 0, at 1 or inside."""
    cfg = cfg_table1
    mu = cfg.constants.mu
    half = near_zero_halfwidth(cfg)
    edge = {"band": half, "-band": -half, "zero": 0.0,
            "R_Q0": cfg.battery.R_Q0, "R_G0": cfg.generator.R_G0}
    z = []
    for kind, ulps, anchor, free, _, _ in points:
        if kind is None:
            z.append(free)
            continue
        r = edge[kind] if ulps == 0 else math.nextafter(edge[kind], ulps * math.inf)
        z.append(_z_at(r, mu[steps[anchor % len(steps)]]))
    z, q, g = np.array(z), np.array([p[4] for p in points]), np.array([p[5] for p in points])
    n = np.array(steps)[:, None] if as_array else steps[0]
    _assert_codes_of_feasible_actions(_exclusions(n, z, q, g, cfg), n, z, q, g, cfg)


@pytest.mark.parametrize("n", [3, np.array([0, 1, 2]), np.array([[168], [40]])])
def test_exclusions_align_states_of_unequal_ndim(cfg_table1, grid_table1, n):
    """A float z against 3-entry q and g, a float q or g among arrays, and a
    (z, 1) column against a row of q: the steps and the states broadcast
    as numpy broadcasts any argument, so a 1-D step array pairs with the
    3-entry axis entry by entry and a step column adds a leading axis.
    Every (step, state) code is the code of feasible_actions there, and
    the lattice mask keeps the bits of the full-size states."""
    cfg = cfg_table1
    levels = np.array([0.0, 0.5, 1.0])
    cases = [(0.5, levels, levels[::-1]), (np.array([-2.5, 0.3, 2.0]), 0.0, levels),
             (np.array([[-2.5], [1.2]]), levels, 0.3)]
    for z, q, g in cases:
        _assert_codes_of_feasible_actions(_exclusions(n, z, q, g, cfg), n, z, q, g, cfg)
    full = np.broadcast_arrays(*np.ix_(grid_table1.z.points, grid_table1.q.points,
                                       grid_table1.g.points))
    mask = m.feasibility_mask(n, grid_table1, cfg)
    steps = np.reshape(n, np.shape(n) + (1, 1, 1))
    assert np.array_equal(mask, np.moveaxis(_exclusions(steps, *full, cfg), 0, np.ndim(n)) == 0)


def test_horizon_mask_build_holds_no_second_mask(cfg_table1, grid_table1):
    """The codes are compared in place, so building table1's 168-step mask
    (2.56 MB) peaks at 1.39x the mask under tracemalloc, the codes plus one
    action's temporaries; a separate boolean result peaked at 2.0x."""
    steps = np.arange(cfg_table1.discretization.steps_N)
    m.feasibility_mask(steps[:1], grid_table1, cfg_table1)  # the config's constants, once
    tracemalloc.start()
    try:
        mask = m.feasibility_mask(steps, grid_table1, cfg_table1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * mask.nbytes


def test_exclusions_over_a_step_path_table_are_feasible_actions(cfg_table1):
    """np.arange(N)[:, None] against a (step, path) table of states, the
    form a simulator's batch takes, gives every entry the codes of
    feasible_actions at its step and state."""
    cfg = cfg_table1
    n_steps = cfg.discretization.steps_N
    rng = np.random.default_rng(30)
    z = rng.normal(0.0, 1.5, (n_steps, 3)) - cfg.constants.mu[:n_steps, None]
    z[:, 0] = rng.normal(0.0, 0.05, n_steps) - cfg.constants.mu[:n_steps]  # near r = 0
    q, g = rng.uniform(0.0, 1.0, (2, n_steps, 3))
    n = np.arange(n_steps)[:, None]
    _assert_codes_of_feasible_actions(_exclusions(n, z, q, g, cfg), n, z, q, g, cfg)
