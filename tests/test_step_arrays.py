"""Step arrays: every step-only layer called on a 1-D array of steps gives
each step the bits of its int call, and the kernel's chunks of steps give
each step the block of a kernel that builds one step at a time. The
blocks that solve builds for its chunk masks give every Q-value the bits
of blocks built for every row."""

import dataclasses

import numpy as np
import pytest

import microgrid_dp as m
from conftest import small_discretization
from microgrid_dp import kernel
from microgrid_dp.dynamics import battery_law, generator_law
from microgrid_dp.solver import _TIE_TOL, stage_cost_rows, step_q_values, terminal_values


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
    # beta_R * dt = 4e-8: a chunk in which no row of either bivariate block is feasible
    "beta_R=4e-8": lambda cfg: _with(small_discretization(cfg, steps=3), "demand", beta_R=4e-8),
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
    0..N at once: a step column against lattice axes, a 1-D step array at
    one float state, and a 1-D step array paired entry by entry with 1-D
    states of its length, as numpy broadcasts any argument."""
    cfg, grid = _case(cfg_table1, name)
    steps = np.arange(cfg.discretization.steps_N + 1)
    z, q = grid.z.points[:, None], grid.q.points[None, :]
    bat = battery_law(steps[:, None, None], z, q, cfg)
    gen = generator_law(steps[:, None], grid.z.points, cfg)
    bat_point = battery_law(steps, 0.3, 0.6, cfg)
    # one state per step: z over [-3, 3], q over [0, 1]
    z_path, q_path = np.linspace(-3.0, 3.0, steps.size), np.linspace(0.0, 1.0, steps.size)
    bat_path = battery_law(steps, z_path, q_path, cfg)
    gen_path = generator_law(steps, z_path, cfg)
    assert bat[0].shape == (steps.size,) + grid.shape[:2] and bat_point[0].shape == steps.shape
    assert bat_path[0].shape == gen_path[0].shape == steps.shape
    costs = {a: m.expected_stage_cost(steps[:, None], m.State(grid.z.points, 0.0, 0.0), a, cfg)
             for a in m.Action}
    costs_point = {a: m.expected_stage_cost(steps, m.State(-0.4, 0.5, 0.5), a, cfg)
                   for a in m.Action}
    costs_path = {a: m.expected_stage_cost(steps, m.State(z_path, 0.5, 0.5), a, cfg)
                  for a in m.Action}
    for s, n in enumerate(steps.tolist()):
        for got, want in ((bat, battery_law(n, z, q, cfg)),
                          (bat_point, battery_law(n, 0.3, 0.6, cfg)),
                          (bat_path, battery_law(n, z_path[s], q_path[s], cfg))):
            assert np.array_equal(got[0][s], want[0]) and np.array_equal(got[1][s], want[1])
        burn, sd_g = generator_law(n, grid.z.points, cfg)
        assert np.array_equal(gen[0][s], burn) and gen[1] == sd_g  # sd_g is state- and step-free
        assert gen_path[0][s] == generator_law(n, z_path[s], cfg)[0]
        for a in m.Action:
            want = m.expected_stage_cost(n, m.State(grid.z.points, 0.0, 0.0), a, cfg)
            assert np.array_equal(np.broadcast_to(costs[a], steps.shape + grid.z.points.shape)[s],
                                  np.broadcast_to(want, grid.z.points.shape)), (n, a)
            want = m.expected_stage_cost(n, m.State(-0.4, 0.5, 0.5), a, cfg)
            assert np.array_equal(np.broadcast_to(costs_point[a], steps.shape)[s], want), (n, a)
            want = m.expected_stage_cost(n, m.State(z_path[s], 0.5, 0.5), a, cfg)
            assert np.array_equal(np.broadcast_to(costs_path[a], steps.shape)[s], want), (n, a)


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


def _rows_selected(mask):
    """The battery rows (step, z src, q src) and generator rows (step, z src)
    that a chunk mask selects."""
    battery = (mask[:, m.Action.CHARGE] | mask[:, m.Action.DISCHARGE_FULL]).any(axis=-1)
    return battery, mask[:, m.Action.FUEL_FULL].any(axis=(-2, -1))


@pytest.mark.parametrize("name", CASES)
def test_solve_over_mask_selected_rows_equals_every_row(cfg_table1, name):
    """solve builds only the block rows that its chunk masks select; the
    backward loop over blocks built for every row, with the same stage rows,
    masks and tie rule, gives its values and policy bit for bit."""
    cfg, grid = _case(cfg_table1, name)
    n_steps = cfg.discretization.steps_N
    values, policy = m.solve(cfg, grid)
    kern = m.TransitionKernel(cfg, grid)
    steps = np.arange(n_steps)
    stage, mask = stage_cost_rows(steps, grid, cfg), m.feasibility_mask(steps, grid, cfg)
    want = np.empty_like(values.values)
    want[n_steps] = terminal_values(cfg, grid)
    actions = np.empty_like(policy.actions)
    for n in range(n_steps - 1, -1, -1):
        q_vals = step_q_values(n, want[n + 1], kern, stage[n], mask[n])
        v_n = q_vals.min(axis=0)
        want[n] = v_n.reshape(-1)
        actions[n] = np.argmax(q_vals <= v_n[None] + _TIE_TOL, axis=0).reshape(-1)
    assert np.array_equal(values.values, want)
    assert np.array_equal(policy.actions, actions)
    if name == "beta_R=4e-8":
        chunk = kern.chunk_of(n_steps - 1)
        battery, generator = _rows_selected(m.feasibility_mask(chunk, grid, cfg))
        assert not battery.any() and not generator.any()


def test_a_chunk_built_for_a_mask_serves_only_that_mask(cfg_table1, grid_table1):
    """A masked build holds the selected rows of the full build, bit for bit,
    and 0 elsewhere, also right after a call without the mask held the
    chunk; a call without the mask then gets every row, and an all-false
    mask builds a chunk of zeros."""
    full = m.TransitionKernel(cfg_table1, grid_table1)
    kern = m.TransitionKernel(cfg_table1, grid_table1)
    chunk = kern.chunk_of(100)
    mask = m.feasibility_mask(chunk, grid_table1, cfg_table1)
    selected = _rows_selected(mask)
    assert 0 < selected[0].mean() < 1 and 0 < selected[1].mean() < 1
    for block, rows in zip(("battery_block", "generator_block"), selected):
        for s, n in enumerate(chunk.tolist()):
            whole = getattr(full, block)(n)
            masked = getattr(kern, block)(n, mask)
            assert np.array_equal(masked[rows[s]], whole[rows[s]]), (block, n)
            assert not masked[~rows[s]].any(), (block, n)
            assert np.array_equal(getattr(kern, block)(n), whole), (block, n)
    empty = np.zeros_like(mask)
    for build in (kern._battery_chunk, kern._generator_chunk):
        block = build(chunk, empty)
        assert block.shape == (chunk.size,) + grid_table1.shape[:2] * 2 and not block.any()
