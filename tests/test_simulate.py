"""Scenario simulation, exact-law sampling, and the Euler moment oracle."""

import math

import numpy as np
import pytest

import microgrid_dp as m
from microgrid_dp.constraints import near_zero_halfwidth
from microgrid_dp.simulate import default_initial_state, sample_transition
from oracles import euler_oracle

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


def test_scenario_with_seed():
    s = m.SCENARIOS["neutral"]
    s2 = s.with_seed(42)
    assert s2.base_seed == 42 and s.base_seed == 0
    assert s2.name == s.name and s2.sid == s.sid


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
    m_z, var_z = m.z_moments(0, STATE.z, cfg_table1)
    base = sample_transition(0, STATE, m.Action.WAIT,
                             np.random.default_rng(11), cfg_table1)
    tilt = sample_transition(0, STATE, m.Action.WAIT,
                             np.random.default_rng(11), cfg_table1, z_offset=0.5)
    assert tilt.z - base.z == pytest.approx(0.5 * math.sqrt(var_z), abs=1e-12)


def test_simulate_path_reproducible(cfg_small, grid_small, small_solution):
    _, policy, _ = small_solution
    s = m.SCENARIOS["overcast-week"]
    p1 = m.simulate_path(policy, s, cfg_small, grid_small, path_index=3)
    p2 = m.simulate_path(policy, s, cfg_small, grid_small, path_index=3)
    assert p1 == p2
    p3 = m.simulate_path(policy, s, cfg_small, grid_small, path_index=4)
    assert p1 != p3
    p4 = m.simulate_path(policy, s.with_seed(1), cfg_small, grid_small, path_index=3)
    assert p1 != p4


def test_path_records_consistent(cfg_small, grid_small, small_solution):
    _, policy, _ = small_solution
    steps = cfg_small.discretization.steps_N
    for idx in range(4):
        path = m.simulate_path(policy, m.SCENARIOS["neutral"], cfg_small,
                               grid_small, path_index=idx)
        assert len(path) == steps
        cum = 0.0
        last_g = 1.0 + 1e-15
        for rec in path:
            assert rec.time_h == cfg_small.t_of(rec.step)
            assert rec.r == pytest.approx(
                m.seasonality(rec.time_h, cfg_small.demand) + rec.z, abs=1e-12)
            assert 0.0 <= rec.q <= 1.0
            assert 0.0 <= rec.g <= last_g
            last_g = rec.g
            cum += math.exp(-cfg_small.costs.rho * rec.time_h) * rec.stage_cost_eur
            assert rec.cum_cost_eur == pytest.approx(cum, abs=1e-12)


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
    discharge_seen = False
    for idx in range(5):
        path = m.simulate_path(policy, m.SCENARIOS["overcast-week"], cfg_table1,
                               grid_table1, path_index=idx)
        fuels = [rec.g for rec in path]
        assert all(b <= a + 1e-15 for a, b in zip(fuels, fuels[1:]))
        discharge_seen = discharge_seen or any(
            rec.action in (m.Action.DISCHARGE_FULL, m.Action.DISCHARGE_LIMITED,
                           m.Action.FUEL_FULL, m.Action.FUEL_LIMITED)
            for rec in path)
    assert discharge_seen


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
