"""Chance-constrained feasible action sets."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtr

import microgrid_dp as m
from conftest import small_discretization
from microgrid_dp.constraints import near_zero_halfwidth
from microgrid_dp.dynamics import battery_law, ndtr as pkg_ndtr
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
        for i, x_row in enumerate(-np.divide(*battery_law(n, z[:, None], q[None, :], cfg_table1)))
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
