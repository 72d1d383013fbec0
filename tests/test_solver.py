"""Bellman recursion: terminal layer, masks, backups, and full solves."""

import dataclasses

import numpy as np
import pytest

import microgrid_dp as m
from conftest import small_discretization
from microgrid_dp import kernel, solver
from microgrid_dp.solver import stage_cost_rows, step_q_values, terminal_values
from oracles import bellman_backup, brute_force_values, feasible_actions_reference, state_of


def _zero_cost_config(cfg):
    costs = dataclasses.replace(cfg.costs, fuel_price_F0=0.0, gamma_deg=0.0,
                                k0=0.0, gamma_pen_Q=0.0, gamma_liq_Q=0.0,
                                gamma_liq_G=0.0)
    return m.validate_config(dataclasses.replace(cfg, costs=costs))


def test_terminal_values_match_scalar_costs(cfg_table1, grid_table1):
    v_n = terminal_values(cfg_table1, grid_table1)
    for state in range(0, grid_table1.n_states, 37):
        x = state_of(grid_table1, state)
        assert v_n[state] == pytest.approx(m.terminal_cost(x, cfg_table1), abs=1e-12)
    table = v_n.reshape(grid_table1.shape)
    assert (table == table[0]).all()


def test_feasibility_mask_matches_scalar_route(cfg_table1, grid_table1):
    mask = m.feasibility_mask(11, grid_table1, cfg_table1)
    assert mask.shape == (7,) + grid_table1.shape
    rng = np.random.default_rng(3)
    for state in rng.choice(grid_table1.n_states, size=60, replace=False):
        i, j, k = np.unravel_index(int(state), grid_table1.shape)
        feas = feasible_actions_reference(11, state_of(grid_table1, int(state)), cfg_table1)
        for a in m.Action:
            assert mask[a, i, j, k] == (a in feas)


def _scalar_mask(n, grid, cfg):
    mask = np.zeros((len(m.Action), grid.n_states), dtype=bool)
    for state in range(grid.n_states):
        for a in feasible_actions_reference(n, state_of(grid, state), cfg):
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
            feas = m.feasible_actions(n, state_of(grid_small, state), cfg)
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


def _step_layers(n, kern):
    """Step n's stage rows, feasibility mask and blocks with every row, for step_q_values."""
    return (stage_cost_rows(n, kern.grid, kern.cfg), m.feasibility_mask(n, kern.grid, kern.cfg),
            kern.battery_block(n), kern.generator_block(n))


def test_values_never_exceed_wait_q_value(cfg_small, grid_small, small_solution):
    values, _, _ = small_solution
    kern = m.TransitionKernel(cfg_small, grid_small)
    for n in range(cfg_small.discretization.steps_N):
        q_vals = step_q_values(values.values[n + 1], kern, *_step_layers(n, kern))
        wait = q_vals[m.Action.WAIT].reshape(-1)
        ok = np.isfinite(wait)
        assert (values.values[n][ok] <= wait[ok] + 1e-12).all()


def test_bellman_residual_zero_on_refresh(cfg_small, grid_small, small_solution):
    values, _, _ = small_solution
    fresh = m.TransitionKernel(cfg_small, grid_small)
    for n in range(cfg_small.discretization.steps_N):
        q_vals = step_q_values(values.values[n + 1], fresh, *_step_layers(n, fresh))
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


def test_stage_cost_rows_match_scalar_cost_bit_for_bit(cfg_table1, grid_table1):
    mismatches = 0
    for n in range(cfg_table1.discretization.steps_N):
        rows = stage_cost_rows(n, grid_table1, cfg_table1)
        scalar = np.array([[m.expected_stage_cost(n, m.State(float(z), 0.0, 0.0), a, cfg_table1)
                            for z in grid_table1.z.points] for a in m.Action])
        mismatches += int((rows != scalar).sum())
    assert mismatches == 0


@pytest.mark.parametrize("eta0, n_z, n_qg", [
    (20.0, 17, 10),     # rho_q = -0.985: Genz's high-correlation branch
    (None, 35, 20),     # a refined grid: narrower cells, wider band in cells
])
def test_band_reproduces_unbanded_lattice(cfg_table1, monkeypatch, eta0, n_z, n_qg):
    """The closed forms outside |std| < _BAND change no value beyond 1e-12
    and no action, against Genz's scheme at every lattice point."""
    cfg = small_discretization(cfg_table1, steps=4, n_z=n_z, n_q=n_qg, n_g=n_qg)
    if eta0 is not None:
        cfg = dataclasses.replace(cfg, battery=dataclasses.replace(cfg.battery, eta0=eta0))
    grid = m.build_grid(cfg)
    values, policy = m.solve(cfg, grid)
    monkeypatch.setattr(kernel, "_BAND", np.inf)
    ref_values, ref_policy = m.solve(cfg, grid)
    assert np.abs(values.values - ref_values.values).max() <= 1e-12
    np.testing.assert_array_equal(policy.actions, ref_policy.actions)


@pytest.mark.parametrize("budget", ["one step", "default", "whole horizon"])
@pytest.mark.parametrize("steps", [5, 24])
def test_solve_bits_do_not_depend_on_the_chunk_length(cfg_table1, monkeypatch, budget, steps):
    """On the table1 lattice over 5 steps (a last partial chunk at four steps
    per chunk) and over 24 steps, against the one-step solve."""
    cfg = small_discretization(cfg_table1, steps=steps, n_z=17, n_q=10, n_g=10)
    grid = m.build_grid(cfg)
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "_CHUNK_BYTES", 1)
        want_values, want_policy = m.solve(cfg, grid)
    budgets = {"one step": 1, "default": kernel._CHUNK_BYTES, "whole horizon": 1 << 40}
    monkeypatch.setattr(kernel, "_CHUNK_BYTES", budgets[budget])
    values, policy = m.solve(cfg, grid)
    assert np.array_equal(values.values, want_values.values)
    assert np.array_equal(policy.actions, want_policy.actions)


def test_table1_solve_bits_do_not_depend_on_the_chunk_length(cfg_table1, grid_table1,
                                                            table1_solution, monkeypatch):
    values, policy, _ = table1_solution
    monkeypatch.setattr(kernel, "_CHUNK_BYTES", 1)
    one_values, one_policy = m.solve(cfg_table1, grid_table1)
    assert np.array_equal(values.values, one_values.values)
    assert np.array_equal(policy.actions, one_policy.actions)


def test_solve_builds_each_chunk_once(cfg_table1, grid_table1, monkeypatch):
    """One stage-row call, one mask call, one blocks call and one build of
    each block per chunk, and one step_q_values call per step: 42 chunks of
    4 on table1."""
    calls = {}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((solver, "stage_cost_rows"), (solver, "feasibility_mask"),
                        (solver, "step_q_values"), (kernel.TransitionKernel, "blocks"),
                        (kernel.TransitionKernel, "_battery_chunk"),
                        (kernel.TransitionKernel, "_generator_chunk")):
        counted(owner, name)
    m.solve(cfg_table1, grid_table1)
    assert calls == {"stage_cost_rows": 42, "feasibility_mask": 42, "step_q_values": 168,
                     "blocks": 42, "_battery_chunk": 42, "_generator_chunk": 42}
