"""Step arrays: every step-only layer called on a 1-D array of steps gives
each step the bits of its int call, and the kernel's chunks of steps give
each step the block of a kernel that builds one step at a time."""

import dataclasses

import numpy as np
import pytest

import microgrid_dp as m
from conftest import small_discretization
from microgrid_dp import kernel
from microgrid_dp.dynamics import battery_law, generator_law
from microgrid_dp.solver import stage_cost_rows


def _with(cfg, section, **fields):
    return dataclasses.replace(cfg, **{section: dataclasses.replace(getattr(cfg, section),
                                                                    **fields)})


CASES = {
    "table1": lambda cfg: cfg,
    "eta0=20": lambda cfg: _with(cfg, "battery", eta0=20.0),
    "sigma_R=1e-9": lambda cfg: _with(cfg, "demand", sigma_R=1e-9),
    # a step at which libm's pow gives (mu - R_G0) ** 2 another last bit than the product
    "mu0_R=0.2": lambda cfg: _with(cfg, "demand", mu0_R=0.2),
    "small": small_discretization,
    "steps_N=1": lambda cfg: small_discretization(cfg, steps=1),
}


def _case(cfg_table1, name):
    cfg = CASES[name](cfg_table1)
    return cfg, m.build_grid(cfg)


def _one_step_kernel(cfg, grid, monkeypatch):
    """A kernel whose chunks hold one step: the int route of every block."""
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "_CHUNK_BYTES", 1)
        kern = m.TransitionKernel(cfg, grid)
    assert kern.chunk_steps == 1
    return kern


def test_one_case_squares_differently_from_the_product(cfg_table1):
    """The mu0_R = 0.2 case keeps its purpose: at step 37 the float route's
    (mu - R_G0) ** 2 is not (mu - R_G0) * (mu - R_G0), so a step array must
    square as the float route does to give that step its bits."""
    cfg = CASES["mu0_R=0.2"](cfg_table1)
    dev = float(cfg.constants.mu[37]) - cfg.generator.R_G0
    assert dev ** 2 != dev * dev


@pytest.mark.parametrize("name", CASES)
def test_laws_on_a_step_array_equal_the_int_calls(cfg_table1, name):
    """battery_law, generator_law and expected_stage_cost over every step
    0..N at once, on lattice axes and at one float state."""
    cfg, grid = _case(cfg_table1, name)
    steps = np.arange(cfg.discretization.steps_N + 1)
    z, q = grid.z.points[:, None], grid.q.points[None, :]
    bat = battery_law(steps, z, q, cfg)
    gen = generator_law(steps, grid.z.points, cfg)
    bat_point = battery_law(steps, 0.3, 0.6, cfg)
    assert bat[0].shape == (steps.size,) + grid.shape[:2] and bat_point[0].shape == steps.shape
    costs = {a: m.expected_stage_cost(steps, m.State(grid.z.points, 0.0, 0.0), a, cfg)
             for a in m.Action}
    costs_point = {a: m.expected_stage_cost(steps, m.State(-0.4, 0.5, 0.5), a, cfg)
                   for a in m.Action}
    for s, n in enumerate(steps.tolist()):
        for got, want in ((bat, battery_law(n, z, q, cfg)),
                          (bat_point, battery_law(n, 0.3, 0.6, cfg))):
            assert np.array_equal(got[0][s], want[0]) and np.array_equal(got[1][s], want[1])
        burn, sd_g = generator_law(n, grid.z.points, cfg)
        assert np.array_equal(gen[0][s], burn) and gen[1] == sd_g  # sd_g is state- and step-free
        for a in m.Action:
            want = m.expected_stage_cost(n, m.State(grid.z.points, 0.0, 0.0), a, cfg)
            assert np.array_equal(np.broadcast_to(costs[a], steps.shape + grid.z.points.shape)[s],
                                  np.broadcast_to(want, grid.z.points.shape)), (n, a)
            want = m.expected_stage_cost(n, m.State(-0.4, 0.5, 0.5), a, cfg)
            assert np.array_equal(np.broadcast_to(costs_point[a], steps.shape)[s], want), (n, a)


@pytest.mark.parametrize("name", CASES)
def test_rows_and_mask_on_a_step_array_equal_the_int_calls(cfg_table1, name):
    cfg, grid = _case(cfg_table1, name)
    steps = np.arange(cfg.discretization.steps_N + 1)
    rows = stage_cost_rows(steps, grid, cfg)
    mask = m.feasibility_mask(steps, grid, cfg)
    assert rows.shape == (steps.size, len(m.Action), grid.shape[0])
    assert mask.shape == (steps.size, len(m.Action)) + grid.shape
    for s, n in enumerate(steps.tolist()):
        assert np.array_equal(rows[s], stage_cost_rows(n, grid, cfg)), n
        assert np.array_equal(mask[s], m.feasibility_mask(n, grid, cfg)), n


@pytest.mark.parametrize("name", CASES)
def test_blocks_on_a_step_array_equal_one_step_builds(cfg_table1, name, monkeypatch):
    """Both blocks built for a run of steps in one pass, a last partial chunk
    of a solve and step N included, against one-step kernels."""
    cfg, grid = _case(cfg_table1, name)
    n_steps = cfg.discretization.steps_N
    one = _one_step_kernel(cfg, grid, monkeypatch)
    kern = m.TransitionKernel(cfg, grid)
    runs = [np.arange(n_steps + 1)[-3:], np.arange(min(n_steps, 2)), np.array([n_steps]),
            np.array([n_steps - 1, 0])]
    for steps in runs:
        bat, gen = kern._battery_chunk(steps), kern._generator_chunk(steps)
        assert bat.ndim == gen.ndim == 5 and len(bat) == len(gen) == steps.size
        for s, n in enumerate(steps.tolist()):
            assert np.array_equal(bat[s], one.battery_block(n)), (steps, n)
            assert np.array_equal(gen[s], one.generator_block(n)), (steps, n)


def test_chunks_cut_the_horizon_from_the_top(cfg_table1, monkeypatch):
    """Runs of chunk_steps steps from N - 1 down, a shorter last run at step
    0 and step N on its own; each step lies in exactly one run."""
    assert m.TransitionKernel(cfg_table1, m.build_grid(cfg_table1)).chunk_steps == 4
    big = small_discretization(cfg_table1, steps=24, n_z=25, n_q=15, n_g=15)
    assert m.TransitionKernel(big, m.build_grid(big)).chunk_steps == 1
    cfg = small_discretization(cfg_table1, steps=7)
    grid = m.build_grid(cfg)
    # three battery CDF lattices of (z src, q src, z edge, q edge) = (6, 4, 7, 5) floats
    monkeypatch.setattr(kernel, "_CHUNK_BYTES", 3 * 8 * 6 * 4 * 7 * 5)
    kern = m.TransitionKernel(cfg, grid)
    assert kern.chunk_steps == 3
    chunks = {n: kern.chunk_of(n).tolist() for n in range(8)}
    assert chunks == {0: [0], 1: [1, 2, 3], 2: [1, 2, 3], 3: [1, 2, 3],
                      4: [4, 5, 6], 5: [4, 5, 6], 6: [4, 5, 6], 7: [7]}


def test_blocks_in_a_random_step_order_equal_a_fresh_kernel(cfg_table1, grid_table1):
    """A kernel read in any order, step N included, returns each step's 4-D
    block, equal to the block of a kernel that has built nothing yet."""
    kern = m.TransitionKernel(cfg_table1, grid_table1)
    order = np.random.default_rng(25).permutation(cfg_table1.discretization.steps_N + 1)
    for n in order.tolist():
        fresh = m.TransitionKernel(cfg_table1, grid_table1)
        bat, gen = kern.battery_block(n), kern.generator_block(n)
        assert bat.shape == gen.shape == grid_table1.shape[:2] * 2
        assert np.array_equal(bat, fresh.battery_block(n)), n
        assert np.array_equal(gen, fresh.generator_block(n)), n


def test_baseline_wait_policy_reads_the_mask_of_every_step(cfg_small, grid_small):
    policy = m.baseline_wait_policy(cfg_small, grid_small).actions
    assert policy.dtype == np.int8
    for n in range(cfg_small.discretization.steps_N):
        surplus = m.feasibility_mask(n, grid_small, cfg_small)[m.Action.OVERSPILL].reshape(-1)
        assert np.array_equal(policy[n], np.where(surplus, m.Action.OVERSPILL, m.Action.WAIT))
