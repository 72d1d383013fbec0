"""Step arrays: every step-only layer called on a 1-D array of steps gives
each step the bits of its int call, and blocks built for a chunk of steps
give each step the block of a one-step build. The blocks that solve
builds for its chunk masks give every Q-value the bits of blocks built
for every row."""

import dataclasses

import numpy as np
import pytest

import microgrid_dp as m
from conftest import small_discretization
from microgrid_dp import kernel
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


def test_one_case_squares_differently_from_the_product(cfg_table1):
    """The mu0_R = 0.2 case keeps its purpose: at step 37 the float route's
    (mu - R_G0) ** 2 is not (mu - R_G0) * (mu - R_G0), so a step array must
    square as the float route does to give that step its bits."""
    cfg = CASES["mu0_R=0.2"](cfg_table1)
    dev = float(cfg.constants.mu[37]) - cfg.generator.R_G0
    assert dev ** 2 != dev * dev


# The actions under which each axis moves by a deterministic law; sd is 0.0 there.
DETERMINISTIC = {"q": set(m.Action) - {m.Action.CHARGE, m.Action.DISCHARGE_FULL},
                 "g": set(m.Action) - {m.Action.FUEL_FULL}}


@pytest.mark.parametrize("name", CASES)
def test_laws_on_a_step_array_equal_the_int_calls(cfg_table1, name):
    """q_moments and g_moments under all seven actions, and
    expected_stage_cost, over every step 0..N at once: a step column
    against the lattice axes, a 1-D step array at one float state, and a
    1-D step array paired entry by entry with 1-D states of its length, as
    numpy broadcasts any argument. Each step's entries have the bits of
    the int call, and the sd of a deterministic law is exactly 0.0."""
    cfg, grid = _case(cfg_table1, name)
    steps = np.arange(cfg.discretization.steps_N + 1)
    z = grid.z.points[:, None]
    # one state per step: z over [-3, 3], the level over [0, 1]
    z_path, level_path = np.linspace(-3.0, 3.0, steps.size), np.linspace(0.0, 1.0, steps.size)
    for axis, moments, level in (("q", m.q_moments, grid.q.points[None, :]),
                                 ("g", m.g_moments, grid.g.points[None, :])):
        for a in m.Action:
            lattice = moments(steps[:, None, None], z, level, a, cfg)
            point = moments(steps, 0.3, 0.6, a, cfg)
            path = moments(steps, z_path, level_path, a, cfg)
            for s, n in enumerate(steps.tolist()):
                for got, want in ((lattice, moments(n, z, level, a, cfg)),
                                  (point, moments(n, 0.3, 0.6, a, cfg)),
                                  (path, moments(n, z_path[s], level_path[s], a, cfg))):
                    for got_part, want_part in zip(got, want):
                        part = np.broadcast_to(got_part, steps.shape + np.shape(want_part))[s]
                        assert part.tobytes() == np.asarray(want_part).tobytes(), (axis, a, n)
                    if a in DETERMINISTIC[axis]:
                        assert type(want[1]) is float and want[1] == 0.0, (axis, a, n)
                    else:
                        assert (np.asarray(want[1]) > 0.0).all(), (axis, a, n)
    costs = {a: m.expected_stage_cost(steps[:, None], m.State(grid.z.points, 0.0, 0.0), a, cfg)
             for a in m.Action}
    costs_point = {a: m.expected_stage_cost(steps, m.State(-0.4, 0.5, 0.5), a, cfg)
                   for a in m.Action}
    costs_path = {a: m.expected_stage_cost(steps, m.State(z_path, 0.5, 0.5), a, cfg)
                  for a in m.Action}
    for s, n in enumerate(steps.tolist()):
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
def test_blocks_on_a_step_array_equal_one_step_builds(cfg_table1, name):
    """Both blocks built for a run of steps in one pass with every row, a
    last partial chunk of a solve and step N included, against the 4-D
    one-step blocks."""
    cfg, grid = _case(cfg_table1, name)
    n_steps = cfg.discretization.steps_N
    kern = m.TransitionKernel(cfg, grid)
    runs = [np.arange(n_steps + 1)[-3:], np.arange(min(n_steps, 2)), np.array([n_steps]),
            np.array([n_steps - 1, 0])]
    for steps in runs:
        every = np.ones((steps.size, len(m.Action)) + grid.shape, dtype=bool)
        bat, gen = kern.blocks(steps, every)
        assert bat.ndim == gen.ndim == 5 and len(bat) == len(gen) == steps.size
        for s, n in enumerate(steps.tolist()):
            one_bat, one_gen = kern.battery_block(n), kern.generator_block(n)
            assert one_bat.shape == one_gen.shape == grid.shape[:2] * 2
            assert np.array_equal(bat[s], one_bat), (steps, n)
            assert np.array_equal(gen[s], one_gen), (steps, n)


def _chunks_of_a_solve(cfg, monkeypatch):
    """The steps of each TransitionKernel.blocks call that solve makes, in call order."""
    chunks = []
    blocks = kernel.TransitionKernel.blocks

    def recording(self, steps, mask):
        chunks.append(steps.tolist())
        return blocks(self, steps, mask)

    with monkeypatch.context() as patch:
        patch.setattr(kernel.TransitionKernel, "blocks", recording)
        m.solve(cfg, m.build_grid(cfg))
    return chunks


def test_solve_cuts_its_chunks_from_the_top(cfg_table1, monkeypatch):
    """solve hands the kernel runs of chunk_steps steps from N - 1 down, a
    shorter last run at step 0: 42 runs of 4 on table1."""
    assert m.TransitionKernel(cfg_table1, m.build_grid(cfg_table1)).chunk_steps == 4
    big = small_discretization(cfg_table1, steps=24, n_z=25, n_q=15, n_g=15)
    assert m.TransitionKernel(big, m.build_grid(big)).chunk_steps == 1
    assert _chunks_of_a_solve(cfg_table1, monkeypatch) == [
        list(range(stop - 4, stop)) for stop in range(168, 0, -4)]
    cfg = small_discretization(cfg_table1, steps=7)
    # three battery CDF lattices of (z src, q src, z edge, q edge) = (6, 4, 7, 5) floats
    monkeypatch.setattr(kernel, "_CHUNK_BYTES", 3 * 8 * 6 * 4 * 7 * 5)
    assert m.TransitionKernel(cfg, m.build_grid(cfg)).chunk_steps == 3
    assert _chunks_of_a_solve(cfg, monkeypatch) == [[4, 5, 6], [1, 2, 3], [0]]


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
        q_vals = step_q_values(want[n + 1], kern, stage[n], mask[n], kern.battery_block(n),
                               kern.generator_block(n))
        v_n = q_vals.min(axis=0)
        want[n] = v_n.reshape(-1)
        actions[n] = np.argmax(q_vals <= v_n[None] + _TIE_TOL, axis=0).reshape(-1)
    assert np.array_equal(values.values, want)
    assert np.array_equal(policy.actions, actions)
    if name == "beta_R=4e-8":
        chunk = np.arange(max(0, n_steps - kern.chunk_steps), n_steps)
        battery, generator = _rows_selected(m.feasibility_mask(chunk, grid, cfg))
        assert not battery.any() and not generator.any()


def test_blocks_hold_the_selected_rows_of_the_one_step_blocks(cfg_table1, grid_table1):
    """blocks builds the rows that its mask selects, bit for bit those of
    battery_block(n) / generator_block(n), and 0 elsewhere; an all-false
    mask gives zeros. The kernel keeps nothing that a call builds."""
    kern = m.TransitionKernel(cfg_table1, grid_table1)
    held = dict(vars(kern))
    chunk = np.arange(100, 100 + kern.chunk_steps)
    mask = m.feasibility_mask(chunk, grid_table1, cfg_table1)
    selected = _rows_selected(mask)
    assert 0 < selected[0].mean() < 1 and 0 < selected[1].mean() < 1
    built = kern.blocks(chunk, mask)
    for block, rows, whole in zip(built, selected, (kern.battery_block, kern.generator_block)):
        assert block.shape == (chunk.size,) + grid_table1.shape[:2] * 2
        for s, n in enumerate(chunk.tolist()):
            assert np.array_equal(block[s][rows[s]], whole(n)[rows[s]]), (whole.__name__, n)
            assert not block[s][~rows[s]].any(), (whole.__name__, n)
    for block in kern.blocks(chunk, np.zeros_like(mask)):
        assert block.shape == (chunk.size,) + grid_table1.shape[:2] * 2 and not block.any()
    assert vars(kern).keys() == held.keys()
    assert all(vars(kern)[name] is value for name, value in held.items())
