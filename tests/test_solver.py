"""Bellman recursion: terminal layer, masks, backups, and full solves."""

import dataclasses
import math

import numpy as np
import pytest

import microgrid_dp as m
from conftest import small_discretization
from microgrid_dp.solver import _stage_cost_rows, step_q_values, terminal_values
from oracles import bellman_backup, brute_force_values, feasible_actions_reference


def _zero_cost_config(cfg):
    costs = dataclasses.replace(cfg.costs, fuel_price_F0=0.0, gamma_deg=0.0,
                                k0=0.0, gamma_pen_Q=0.0, gamma_liq_Q=0.0,
                                gamma_liq_G=0.0)
    return m.validate_config(dataclasses.replace(cfg, costs=costs))


def test_terminal_values_match_scalar_costs(cfg_table1, grid_table1):
    v_n = terminal_values(cfg_table1, grid_table1)
    for state in range(0, grid_table1.n_states, 37):
        x = grid_table1.state_of(state)
        assert v_n[state] == pytest.approx(m.terminal_cost(x, cfg_table1), abs=1e-12)
    table = v_n.reshape(grid_table1.shape)
    assert (table == table[0]).all()


def test_feasibility_mask_matches_scalar_route(cfg_table1, grid_table1):
    mask = m.feasibility_mask(11, grid_table1, cfg_table1)
    assert mask.shape == (7,) + grid_table1.shape
    rng = np.random.default_rng(3)
    for state in rng.choice(grid_table1.n_states, size=60, replace=False):
        i, j, k = grid_table1.ijk(int(state))
        feas = feasible_actions_reference(11, grid_table1.state_of(int(state)), cfg_table1)
        for a in m.Action:
            assert mask[a, i, j, k] == (a in feas)


def _scalar_mask(n, grid, cfg):
    mask = np.zeros((len(m.Action), grid.n_states), dtype=bool)
    for state in range(grid.n_states):
        for a in feasible_actions_reference(n, grid.state_of(state), cfg):
            mask[a, state] = True
    return mask.reshape((len(m.Action),) + grid.shape)


def test_feasibility_mask_matches_scalar_route_every_step(cfg_table1, grid_table1):
    mismatches = 0
    for n in range(cfg_table1.discretization.steps_N):
        mask = m.feasibility_mask(n, grid_table1, cfg_table1)
        mismatches += int((mask != _scalar_mask(n, grid_table1, cfg_table1)).sum())
    assert mismatches == 0


@pytest.mark.parametrize("eps", [1e-4, 0.05, 0.49])
def test_feasibility_mask_matches_scalar_route_small_grids(cfg_table1, eps):
    # tiny and lopsided lattices, with the chance level near both ends
    for n_z, n_q, n_g in ((3, 2, 2), (5, 3, 3), (9, 20, 2)):
        cfg = small_discretization(cfg_table1, steps=24, n_z=n_z, n_q=n_q, n_g=n_g)
        cfg = m.validate_config(dataclasses.replace(cfg, discretization=dataclasses.replace(
            cfg.discretization, epsilon=eps)))
        grid = m.build_grid(cfg)
        for n in range(0, 24, 3):
            np.testing.assert_array_equal(m.feasibility_mask(n, grid, cfg),
                                          _scalar_mask(n, grid, cfg))


def test_zero_cost_model_solves_to_zero(cfg_small, grid_small):
    cfg = _zero_cost_config(cfg_small)
    values, policy = m.solve(cfg, grid_small)
    assert np.abs(values.values).max() == 0.0
    for n in range(cfg.discretization.steps_N):
        for state in range(grid_small.n_states):
            feas = m.feasible_actions(n, grid_small.state_of(state), cfg)
            assert policy.action_at(n, state) == tuple(feas)[0]


def test_scalar_backup_matches_vectorized_solve(cfg_small, grid_small, small_solution):
    values, policy, _ = small_solution
    kern = m.TransitionKernel(cfg_small, grid_small)
    for n in range(cfg_small.discretization.steps_N):
        for state in range(grid_small.n_states):
            v, a = bellman_backup(n, state, values.values[n + 1], kern, cfg_small)
            assert abs(v - values.values[n, state]) <= 1e-12
            assert a == policy.action_at(n, state)


def test_small_solution_matches_brute_force(cfg_small, grid_small, small_solution):
    values, _, _ = small_solution
    ref = brute_force_values(cfg_small, grid_small)
    assert np.abs(values.values[0] - ref).max() <= 1e-9


def test_values_never_exceed_wait_q_value(cfg_small, grid_small, small_solution):
    values, _, _ = small_solution
    kern = m.TransitionKernel(cfg_small, grid_small)
    for n in range(cfg_small.discretization.steps_N):
        q_vals = step_q_values(n, values.values[n + 1], kern)
        wait = q_vals[m.Action.WAIT].reshape(-1)
        ok = np.isfinite(wait)
        assert (values.values[n][ok] <= wait[ok] + 1e-12).all()


def test_bellman_residual_zero_on_refresh(cfg_small, grid_small, small_solution):
    values, _, _ = small_solution
    fresh = m.TransitionKernel(cfg_small, grid_small)
    for n in range(cfg_small.discretization.steps_N):
        q_vals = step_q_values(n, values.values[n + 1], fresh)
        resid = np.abs(q_vals.min(axis=0).reshape(-1) - values.values[n]).max()
        assert resid <= 1e-12


def test_policy_respects_feasibility(cfg_small, grid_small, small_solution):
    _, policy, _ = small_solution
    for n in range(cfg_small.discretization.steps_N):
        mask = m.feasibility_mask(n, grid_small, cfg_small)
        flat = mask.reshape(len(m.Action), -1)
        for state in range(grid_small.n_states):
            assert flat[policy.actions[n, state], state]


def test_table_shapes_and_action_type(cfg_small, grid_small, small_solution):
    values, policy, _ = small_solution
    steps = cfg_small.discretization.steps_N
    assert values.values.shape == (steps + 1, grid_small.n_states)
    assert policy.actions.shape == (steps, grid_small.n_states)
    a = policy.action_at(0, 0)
    assert isinstance(a, m.Action)


def test_discount_flag_changes_values(cfg_small, grid_small, small_solution):
    values, _, _ = small_solution
    flag_off = dataclasses.replace(cfg_small, bellman_discount_continuation=False)
    undiscounted, _ = m.solve(flag_off, grid_small)
    assert np.abs(undiscounted.values[0] - values.values[0]).max() > 1e-3
    rho0_costs = dataclasses.replace(cfg_small.costs, rho=0.0)
    rho0_on = dataclasses.replace(cfg_small, costs=rho0_costs)
    rho0_off = dataclasses.replace(flag_off, costs=rho0_costs)
    v_on, _ = m.solve(rho0_on, grid_small)
    v_off, _ = m.solve(rho0_off, grid_small)
    np.testing.assert_allclose(v_on.values, v_off.values, atol=1e-12)
    assert math.exp(-cfg_small.costs.rho * cfg_small.dt) < 1.0


def test_stage_cost_rows_match_scalar_cost_bit_for_bit(cfg_table1, grid_table1):
    mismatches = 0
    for n in range(cfg_table1.discretization.steps_N):
        rows = _stage_cost_rows(n, grid_table1, cfg_table1)
        scalar = np.array([[m.expected_stage_cost(n, m.State(float(z), 0.0, 0.0), a, cfg_table1)
                            for z in grid_table1.z.points] for a in m.Action])
        mismatches += int((rows != scalar).sum())
    assert mismatches == 0
