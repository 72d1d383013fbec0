"""Step arrays: every step-only layer called on a 1-D array of steps gives
each step the bits of its int call, and the rows that blocks builds for a
chunk of steps are each step's rows of a one-step build. solve, over its
whole-horizon stage rows and mask and its chunks' mask-selected rows, has
the bits of the same layers called step by step; against 4-D blocks
contracted with every row it agrees within 1e-12 with the same policy."""

import dataclasses

import numpy as np
import pytest

import microgrid_dp as m
from conftest import small_discretization
from microgrid_dp import kernel
from microgrid_dp.solver import _TIE_TOL, stage_cost_rows, step_q_values, terminal_values
from oracles import dense_q_values


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
    """Both blocks' rows built for a run of steps in one pass with every
    row, a last partial chunk of a solve and step N included: each step's
    source ids are every source in C order and its masses, bit for bit, the
    4-D one-step blocks."""
    cfg, grid = _case(cfg_table1, name)
    n_steps = cfg.discretization.steps_N
    kern = m.TransitionKernel(cfg, grid)
    runs = [np.arange(n_steps + 1)[-3:], np.arange(min(n_steps, 2)), np.array([n_steps]),
            np.array([n_steps - 1, 0])]
    for steps in runs:
        every = np.ones((steps.size, len(m.Action)) + grid.shape, dtype=bool)
        bat, gen = kern.blocks(steps, every)
        assert len(bat) == len(gen) == steps.size
        for s, n in enumerate(steps.tolist()):
            one_bat, one_gen = kern.battery_block(n), kern.generator_block(n)
            assert one_bat.shape == one_gen.shape == grid.shape[:2] * 2
            (bat_src, bat_mass), (gen_src, gen_mass) = bat[s], gen[s]
            assert np.array_equal(bat_src, np.arange(grid.shape[0] * grid.shape[1]))
            assert np.array_equal(gen_src, np.arange(grid.shape[0]))
            assert np.array_equal(bat_mass.reshape(one_bat.shape), one_bat), (steps, n)
            assert np.array_equal(gen_mass, one_gen), (steps, n)


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
    """solve builds only the block rows that its mask selects. Its values
    and policy have the bits of the backward loop over the same layers
    called one step at a time (stage rows, mask, blocks), and against the
    loop over 4-D blocks contracted with every row (oracles.dense_q_values)
    its values agree within 1e-12 and its policy is the same. A product
    over fewer rows may add in another order in BLAS, so the last bits
    may differ there."""
    cfg, grid = _case(cfg_table1, name)
    n_steps = cfg.discretization.steps_N
    values, policy = m.solve(cfg, grid)
    kern = m.TransitionKernel(cfg, grid)
    for route in ("one step at a time", "dense blocks"):
        want = np.empty_like(values.values)
        want[n_steps] = terminal_values(cfg, grid)
        actions = np.empty_like(policy.actions)
        for n in range(n_steps - 1, -1, -1):
            stage, mask = stage_cost_rows(n, grid, cfg), m.feasibility_mask(n, grid, cfg)
            if route == "dense blocks":
                q_vals = dense_q_values(want[n + 1], kern, stage, mask, kern.battery_block(n),
                                        kern.generator_block(n))
            else:
                battery, generator = kern.blocks(np.array([n]), mask[None])
                q_vals = step_q_values(want[n + 1], kern, stage, mask, battery[0], generator[0])
            v_n = q_vals.min(axis=0)
            want[n] = v_n.reshape(-1)
            actions[n] = np.argmax(q_vals <= v_n[None] + _TIE_TOL, axis=0).reshape(-1)
        if route == "dense blocks":
            assert np.abs(values.values - want).max() <= 1e-12
        else:
            assert np.array_equal(values.values, want)
        assert np.array_equal(policy.actions, actions), route
    if name == "beta_R=4e-8":
        chunk = np.arange(max(0, n_steps - kern.chunk_steps), n_steps)
        battery, generator = _rows_selected(m.feasibility_mask(chunk, grid, cfg))
        assert not battery.any() and not generator.any()


@pytest.mark.parametrize("name", CASES)
def test_step_q_values_over_rows_match_the_dense_product(cfg_table1, name):
    """At every step of solve's values, step_q_values over the rows of
    each chunk's blocks matches oracles.dense_q_values over the 4-D blocks
    within 1e-12, with +inf at the same pairs and the same tie-rule argmin.
    The beta_R = 4e-8 case has a chunk with no selected row, steps_N=1 one
    step."""
    cfg, grid = _case(cfg_table1, name)
    n_steps = cfg.discretization.steps_N
    values, _ = m.solve(cfg, grid)
    kern = m.TransitionKernel(cfg, grid)
    steps = np.arange(n_steps)
    stage, mask = stage_cost_rows(steps, grid, cfg), m.feasibility_mask(steps, grid, cfg)
    worst = 0.0
    for start in range(0, n_steps, kern.chunk_steps):
        chunk = steps[start:start + kern.chunk_steps]
        battery, generator = kern.blocks(chunk, mask[chunk])
        for s, n in enumerate(chunk.tolist()):
            v_next = values.values[n + 1]
            got = step_q_values(v_next, kern, stage[n], mask[n], battery[s], generator[s])
            want = dense_q_values(v_next, kern, stage[n], mask[n], kern.battery_block(n),
                                  kern.generator_block(n))
            assert np.array_equal(np.isinf(got), ~mask[n]), n
            worst = max(worst, float(np.abs(got[mask[n]] - want[mask[n]]).max(initial=0.0)))
            tie = [np.argmax(q <= q.min(axis=0)[None] + _TIE_TOL, axis=0) for q in (got, want)]
            assert np.array_equal(*tie), n
    assert worst <= 1e-12


def test_blocks_hold_the_selected_rows_of_the_one_step_blocks(cfg_table1, grid_table1):
    """blocks builds the rows that its mask selects and no other: each
    step's source ids are the selected ones in C order and their masses,
    bit for bit, those rows of battery_block(n) / generator_block(n); an
    all-false mask builds no row. The kernel keeps nothing that a call
    builds."""
    kern = m.TransitionKernel(cfg_table1, grid_table1)
    held = dict(vars(kern))
    chunk = np.arange(100, 100 + kern.chunk_steps)
    mask = m.feasibility_mask(chunk, grid_table1, cfg_table1)
    selected = _rows_selected(mask)
    assert 0 < selected[0].mean() < 1 and 0 < selected[1].mean() < 1
    built = kern.blocks(chunk, mask)
    for per_step, rows, whole in zip(built, selected,
                                     (kern.battery_block, kern.generator_block)):
        assert len(per_step) == chunk.size
        for (src, mass), step_rows, n in zip(per_step, rows, chunk.tolist()):
            assert np.array_equal(src, np.flatnonzero(step_rows)), (whole.__name__, n)
            sources = whole(n).reshape((-1,) + mass.shape[1:])
            assert np.array_equal(mass, sources[src]), (whole.__name__, n)
    for per_step in kern.blocks(chunk, np.zeros_like(mask)):
        assert len(per_step) == chunk.size
        assert all(src.size == 0 and len(mass) == 0 for src, mass in per_step)
    assert vars(kern).keys() == held.keys()
    assert all(vars(kern)[name] is value for name, value in held.items())
