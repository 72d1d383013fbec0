"""Scenario simulation, exact-law sampling, and the Euler moment oracle."""

import math

import numpy as np
import pytest

import microgrid_dp as m
from microgrid_dp import simulate
from microgrid_dp.constraints import near_zero_halfwidth
from microgrid_dp.dynamics import z_law
from microgrid_dp.simulate import default_initial_state
from oracles import euler_oracle, reference_path, sample_transition

STATE = m.State(1.0, 0.8, 0.9)


def test_scenario_offset_bounds():
    with pytest.raises(ValueError):
        m.Scenario("too-big", 9, (0.0, 1.6))
    with pytest.raises(ValueError):
        m.Scenario("nan", 9, (float("nan"),))
    ok = m.Scenario("edge", 9, (1.5, -1.5))
    assert ok.day_offsets == (1.5, -1.5)


def test_scenario_offset_day_mapping():
    s = m.Scenario("two-day", 9, (0.1, -0.2))
    assert s.offset_at(0.0) == 0.1
    assert s.offset_at(23.99) == 0.1
    assert s.offset_at(24.0) == -0.2
    assert s.offset_at(1e6) == -0.2
    assert m.Scenario("empty", 9, ()).offset_at(5.0) == 0.0


def test_named_scenarios_catalog():
    assert set(m.SCENARIOS) == {"neutral", "sunny-start", "overcast-break",
                                "sunny-finish", "overcast-week"}
    sids = [s.sid for s in m.SCENARIOS.values()]
    assert len(set(sids)) == len(sids)
    assert m.SCENARIOS["neutral"].day_offsets == (0.0,) * 7
    assert all(len(s.day_offsets) == 7 for s in m.SCENARIOS.values())


def test_sample_transition_matches_closed_form_moments(cfg_table1):
    n, a = 0, m.Action.DISCHARGE_FULL
    mom = m.transition_moments(n, STATE, a, cfg_table1)
    rng = np.random.default_rng(2024)
    draws = 100_000
    zs = np.empty(draws)
    qs = np.empty(draws)
    for i in range(draws):
        nxt = sample_transition(n, STATE, a, rng, cfg_table1)
        zs[i], qs[i] = nxt.z, nxt.q
    nsr = math.sqrt(draws)
    assert abs(zs.mean() - mom.m_Z) <= 3.0 * zs.std(ddof=1) / nsr
    assert abs(qs.mean() - mom.m_Q) <= 3.0 * qs.std(ddof=1) / nsr
    assert abs(zs.var(ddof=1) - mom.var_Z) <= 3.0 * mom.var_Z * math.sqrt(2.0 / draws)
    assert abs(qs.var(ddof=1) - mom.var_Q) <= 3.0 * mom.var_Q * math.sqrt(2.0 / draws)
    r = float(np.corrcoef(zs, qs)[0, 1])
    assert abs(r - mom.rho_Q) <= 3.0 * (1.0 - mom.rho_Q**2) / math.sqrt(draws - 3)


def test_wait_transition_is_deterministic_off_z(cfg_table1):
    rng = np.random.default_rng(7)
    mom = m.transition_moments(0, STATE, m.Action.WAIT, cfg_table1)
    for _ in range(50):
        nxt = sample_transition(0, STATE, m.Action.WAIT, rng, cfg_table1)
        assert nxt.q == mom.m_Q
        assert nxt.g == STATE.g


def test_z_offset_shifts_by_one_innovation_sd(cfg_table1):
    sd_z = z_law(STATE.z, cfg_table1)[1]
    base = sample_transition(0, STATE, m.Action.WAIT,
                             np.random.default_rng(11), cfg_table1)
    tilt = sample_transition(0, STATE, m.Action.WAIT,
                             np.random.default_rng(11), cfg_table1, z_offset=0.5)
    assert tilt.z - base.z == pytest.approx(0.5 * sd_z, abs=1e-12)


def _same(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def test_simulate_path_reproducible(cfg_small, grid_small, small_solution):
    _, policy, _ = small_solution
    s = m.SCENARIOS["overcast-week"]
    p1 = m.simulate_paths(policy, s, cfg_small, grid_small, [3])
    p2 = m.simulate_paths(policy, s, cfg_small, grid_small, [3])
    assert _same(p1, p2)
    p3 = m.simulate_paths(policy, s, cfg_small, grid_small, [4])
    assert not _same(p1, p3)
    p4 = m.simulate_paths(policy, s, cfg_small, grid_small, [3], base_seed=1)
    assert not _same(p1, p4)


def test_path_records_consistent(cfg_small, grid_small, small_solution):
    _, policy, _ = small_solution
    steps = cfg_small.discretization.steps_N
    batch = m.simulate_paths(policy, m.SCENARIOS["neutral"], cfg_small, grid_small, range(4))
    assert all(field.shape == (4, steps) for field in batch)
    times = np.array([cfg_small.t_of(n) for n in range(steps)])
    mu = np.array([m.seasonality(t, cfg_small.demand) for t in times])
    np.testing.assert_allclose(batch.r, mu + batch.z, rtol=0.0, atol=1e-12)
    assert ((0.0 <= batch.q) & (batch.q <= 1.0)).all()
    assert ((0.0 <= batch.g) & (batch.g <= 1.0)).all()
    assert (np.diff(batch.g, axis=1) <= 1e-15).all()
    cum = np.cumsum(np.exp(-cfg_small.costs.rho * times) * batch.stage_cost_eur, axis=1)
    np.testing.assert_allclose(batch.cum_cost_eur, cum, rtol=0.0, atol=1e-12)


def test_simulate_paths_of_an_empty_batch(cfg_small, grid_small, small_solution):
    _, policy, _ = small_solution
    batch = m.simulate_paths(policy, m.SCENARIOS["neutral"], cfg_small, grid_small, [])
    assert all(field.shape == (0, cfg_small.discretization.steps_N) for field in batch)
    assert batch.action.dtype == np.int8
    assert batch.z.dtype == np.float64


@pytest.mark.parametrize("problem", ["table1", "small"])
def test_simulate_paths_matches_reference_loop_path_by_path(problem, request):
    """A batch, its indices out of order and with gaps, holds every path's
    reference records bit for bit: each path keeps its own stream. The
    cases are every scenario from the default start and four reseeded
    ones, three of them from inner states."""
    cfg, grid = (request.getfixturevalue(f"{name}_{problem}") for name in ("cfg", "grid"))
    _, policy, _ = request.getfixturevalue(f"{problem}_solution")
    indices = [7, 0, 199, 3, 1, 42]
    cases = [(scenario, 0, None) for scenario in m.SCENARIOS.values()]
    cases += [(m.SCENARIOS[name], seed, x0)
              for name, seed, x0 in (("sunny-start", 5, None),
                                     ("sunny-start", 5, m.State(-0.4, 0.35, 0.6)),
                                     ("overcast-break", 11, m.State(-0.4, 0.35, 0.6)),
                                     ("sunny-finish", 0, m.State(0.9, 0.0, 0.05)))]
    for scenario, seed, x0 in cases:
        batch = m.simulate_paths(policy, scenario, cfg, grid, indices, base_seed=seed,
                                 initial_state=x0)
        assert batch.action.dtype == np.int8
        for row, idx in enumerate(indices):
            got = list(zip(*(field[row].tolist() for field in batch)))
            want = [(rec.z, rec.r, rec.q, rec.g, int(rec.action), rec.stage_cost_eur,
                     rec.cum_cost_eur)
                    for rec in reference_path(policy, scenario, cfg, grid, path_index=idx,
                                              base_seed=seed, initial_state=x0)]
            # repr of a float is its shortest round trip, so equal reprs are equal bits
            assert repr(got) == repr(want), (scenario.name, seed, x0, idx)


def test_simulate_paths_runs_the_stage_cost_once_per_action_present(
        cfg_table1, grid_table1, table1_solution, monkeypatch):
    """The stage cost runs after the step loop: one expected_stage_cost call
    per action a batch takes, over all its steps and paths, and none for an
    empty batch; a per-step call would make one per step and action."""
    _, policy, _ = table1_solution
    cost = simulate.expected_stage_cost
    calls = []

    def counted(k, x, a, cfg):
        calls.append(a)
        return cost(k, x, a, cfg)

    monkeypatch.setattr(simulate, "expected_stage_cost", counted)
    # 20 paths of this week, and one of them alone, take every action
    for indices, n_actions in ((range(20), len(m.Action)), ([3], len(m.Action)), ([], 0)):
        calls.clear()
        batch = m.simulate_paths(policy, m.SCENARIOS["overcast-week"], cfg_table1,
                                 grid_table1, indices)
        present = [m.Action(code) for code in np.unique(batch.action).tolist()]
        assert sorted(calls) == present and len(present) == n_actions, indices


@pytest.mark.parametrize("axis", ["z", "q", "g"])
def test_simulate_path_rejects_nan_state(axis, cfg_small, grid_small, small_solution):
    _, policy, _ = small_solution
    x0 = default_initial_state(grid_small)._replace(**{axis: float("nan")})
    with pytest.raises(ValueError, match=f"NaN on axis '{axis}'"):
        m.simulate_paths(policy, m.SCENARIOS["neutral"], cfg_small, grid_small, [0],
                         initial_state=x0)
    with pytest.raises(ValueError, match=f"NaN on axis '{axis}'"):
        m.simulate_paths(policy, m.SCENARIOS["neutral"], cfg_small, grid_small, range(5),
                         initial_state=x0)


@pytest.mark.parametrize("axis", ["z", "q", "g"])
def test_simulate_paths_rejects_a_nan_level_reached_mid_path(
        axis, cfg_small, grid_small, small_solution, monkeypatch):
    """A law that returns NaN for one path of a batch stops the batch with the
    ValueError of the axis, not a silent clamp to 0. The NaN comes from the
    law the simulator calls for the axis: z_next, which draws the z paths
    ahead of the steps, or move_levels, which moves q and g."""
    _, policy, _ = small_solution
    name = "z_next" if axis == "z" else "move_levels"
    law = getattr(simulate, name)

    def nan_in_one_path(*args):
        nxt = law(*args)
        if axis == "z":
            level = nxt.copy()
            level[0] = np.nan
            return level
        levels = [np.array(level, dtype=float) for level in nxt]
        levels["qg".index(axis)][0] = np.nan
        return tuple(levels)

    monkeypatch.setattr(simulate, name, nan_in_one_path)
    with pytest.raises(ValueError, match=f"NaN on axis '{axis}'"):
        m.simulate_paths(policy, m.SCENARIOS["neutral"], cfg_small, grid_small, range(3))


@pytest.mark.parametrize("code", [7, -1])
def test_simulate_paths_refuses_an_unknown_action_code(code, cfg_small, grid_small,
                                                       small_solution):
    """A policy whose int8 table holds a code outside the Action alphabet at
    its last step stops the batch there with ValueError, and -1 does not
    wrap round to the last action."""
    _, policy, _ = small_solution
    actions = policy.actions.copy()
    actions[-1] = code
    assert actions.dtype == np.int8
    with pytest.raises(ValueError, match="unknown action"):
        m.simulate_paths(m.PolicyTable(actions), m.SCENARIOS["neutral"], cfg_small, grid_small,
                         range(3))


def test_default_initial_state(grid_table1):
    x0 = default_initial_state(grid_table1)
    assert x0.z == float(grid_table1.z.points[-1])
    assert x0.q == 0.8 and x0.g == 1.0


def test_baseline_policy_only_waits_or_spills(cfg_small, grid_small):
    policy = m.baseline_wait_policy(cfg_small, grid_small)
    used = set(np.unique(policy.actions))
    assert used <= {int(m.Action.WAIT), int(m.Action.OVERSPILL)}
    for n in (0, cfg_small.discretization.steps_N - 1):
        mask = m.feasibility_mask(n, grid_small, cfg_small).reshape(len(m.Action), -1)
        for state in range(grid_small.n_states):
            assert mask[policy.actions[n, state], state]


def _spill_under_surplus(cfg, grid):
    # the rule as first written: overspill where mu + z <= -half, wait elsewhere
    half = near_zero_halfwidth(cfg)
    actions = np.full((cfg.discretization.steps_N, grid.n_states), int(m.Action.WAIT),
                      dtype=np.int8)
    for n in range(cfg.discretization.steps_N):
        mu = m.seasonality(cfg.t_of(n), cfg.demand)
        for i, z in enumerate(grid.z.points):
            if mu + z <= -half:
                base = grid.lin(i, 0, 0)
                actions[n, base:base + grid.q.n_points * grid.g.n_points] = int(m.Action.OVERSPILL)
    return actions


def test_baseline_policy_matches_surplus_rule(cfg_table1, grid_table1, cfg_small, grid_small):
    for cfg, grid in ((cfg_table1, grid_table1), (cfg_small, grid_small)):
        policy = m.baseline_wait_policy(cfg, grid)
        assert policy.actions.dtype == np.int8
        np.testing.assert_array_equal(policy.actions, _spill_under_surplus(cfg, grid))


def test_adverse_week_burns_stored_energy(cfg_table1, grid_table1, table1_solution):
    _, policy, _ = table1_solution
    batch = m.simulate_paths(policy, m.SCENARIOS["overcast-week"], cfg_table1, grid_table1,
                             range(5))
    assert (np.diff(batch.g, axis=1) <= 1e-15).all()
    assert np.isin(batch.action, [m.Action.DISCHARGE_FULL, m.Action.DISCHARGE_LIMITED,
                                  m.Action.FUEL_FULL, m.Action.FUEL_LIMITED]).any()


def test_euler_oracle_flags_deterministic_axes(cfg_table1):
    est = euler_oracle(0, STATE, m.Action.WAIT, paths=500,
                       inner_step=cfg_table1.dt / 100.0, cfg=cfg_table1)
    assert est.var_Q.value == 0.0 and est.var_Q.se == 0.0
    assert est.m_G.se == 0.0
    assert est.rho_Q.value == 0.0 and est.rho_G.value == 0.0
    assert est.var_Z.se > 0.0


def test_euler_oracle_matches_batt_law_cheaply(cfg_table1):
    est = euler_oracle(0, STATE, m.Action.CHARGE, paths=4000,
                       inner_step=cfg_table1.dt / 200.0, cfg=cfg_table1)
    mom = m.transition_moments(0, STATE, m.Action.CHARGE, cfg_table1)
    assert abs(est.m_Z.value - mom.m_Z) <= 3.0 * est.m_Z.se
    assert abs(est.m_Q.value - mom.m_Q) <= 3.0 * est.m_Q.se
    assert abs(est.cov_ZQ.value - mom.cov_ZQ) <= 3.0 * est.cov_ZQ.se
    assert est.m_G.value == pytest.approx(STATE.g, abs=1e-12)
    assert est.m_G.se == 0.0
