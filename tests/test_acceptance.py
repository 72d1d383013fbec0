"""Acceptance gate: nine verifiable claims, one test (and one verdict line) each.

Every test prints `CRITERION <n> (<name>): PASS - <key numbers>` on success,
so a verbose run reads as a checklist. Tolerances are fixed up front:
Monte-Carlo comparisons use three standard errors, exact identities use
absolute bounds stated inline.
"""

import math
import os
import time

import numpy as np
import pytest

import microgrid_dp as m
from microgrid_dp.constraints import near_zero_halfwidth
from microgrid_dp.calibrate import self_discharge_rate
from microgrid_dp import cli
from microgrid_dp.solver import stage_cost_rows, step_q_values
from oracles import (brute_force_values, euler_oracle, mc_stage_cost, operator_cell_counts,
                     state_of, transition_row)

# the actions that move the battery, and those that burn fuel
BATTERY_ACTIONS = (m.Action.CHARGE, m.Action.DISCHARGE_LIMITED, m.Action.DISCHARGE_FULL)
GENERATOR_ACTIONS = (m.Action.FUEL_LIMITED, m.Action.FUEL_FULL)

MOMENT_FIELDS = ("m_Z", "var_Z", "m_Q", "var_Q", "m_G", "var_G",
                 "cov_ZQ", "rho_Q", "cov_ZG", "rho_G")

# representative (step, state) pairs: interior, boundary q/g, surplus and
# deficit demand, different hours of the week
SWEEP_POINTS = (
    (0, m.State(1.0, 0.8, 0.9)),
    (42, m.State(-1.5, 0.3, 1.0)),
    (85, m.State(0.5, 0.0, 0.2)),
    (127, m.State(2.1, 1.0, 0.5)),
    (166, m.State(-0.3, 0.6, 0.05)),
)


def test_criterion_1_moment_oracle_sweep(cfg_table1):
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for n, x in SWEEP_POINTS:
        # one Euler pass per sweep point: all actions share the Z stream
        emps = euler_oracle(n, x, tuple(m.Action), paths=100_000, inner_step=1e-3,
                            cfg=cfg_table1)
        for a in m.Action:
            mom = m.transition_moments(n, x, a, cfg_table1)
            for field in MOMENT_FIELDS:
                est = getattr(emps[a], field)
                closed = getattr(mom, field)
                diff = abs(closed - est.value)
                if est.se == 0.0:
                    assert diff <= 1e-6, (n, x, a.label, field, diff)
                else:
                    assert diff <= 3.0 * est.se, (n, x, a.label, field,
                                                  diff / est.se)
                    worst = max(worst, diff / est.se)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 300.0
    print(f"CRITERION 1 (moment oracle sweep): PASS - {checked} field checks "
          f"over {len(SWEEP_POINTS) * len(m.Action)} (state, action) pairs, "
          f"worst {worst:.2f} SE, {elapsed:.0f}s")


def test_criterion_2_stage_cost_oracle(cfg_table1):
    worst = 0.0
    for z in (-1.0, 0.0, 1.0):
        x = m.State(z, 0.5, 0.5)
        for a in m.Action:
            closed = m.expected_stage_cost(0, x, a, cfg_table1)
            est, se = mc_stage_cost(0, z, a, cfg_table1, paths=30_000)
            if se == 0.0:
                assert abs(closed - est) <= 1e-12, (z, a.label)
            else:
                assert abs(closed - est) <= 3.0 * se, (z, a.label,
                                                       abs(closed - est) / se)
                worst = max(worst, abs(closed - est) / se)
    print(f"CRITERION 2 (stage cost oracle): PASS - 21 branch checks at "
          f"z in {{-1, 0, 1}}, worst {worst:.2f} SE")


def test_criterion_3_kernel_normalization(cfg_table1, grid_table1):
    kern = m.TransitionKernel(cfg_table1, grid_table1)
    steps = cfg_table1.discretization.steps_N
    worst = float(np.abs(kern.z_block.sum(axis=-1) - 1.0).max())
    for n in range(steps):
        b = kern.battery_block(n).sum(axis=(-2, -1))
        g = kern.generator_block(n).sum(axis=(-2, -1))
        worst = max(worst, float(np.abs(b - 1.0).max()),
                    float(np.abs(g - 1.0).max()))
    assert worst <= 1e-9

    rng = np.random.default_rng(314)
    actions = list(m.Action)
    draws = 4000
    for _ in range(20):
        n = int(rng.integers(0, steps))
        source = int(rng.integers(0, grid_table1.n_states))
        a = actions[int(rng.integers(0, len(actions)))]
        row = transition_row(n, source, a, grid_table1, cfg_table1)
        assert abs(row.probs.sum() - 1.0) <= 1e-9
        dense = row.as_dense(grid_table1.n_states)
        counts = operator_cell_counts(n, state_of(grid_table1, source), a,
                                      cfg_table1, grid_table1, draws,
                                      seed=int(rng.integers(2**31)))
        expect = dense * draws
        tol = 3.0 * np.sqrt(np.maximum(expect * (1.0 - dense), 0.0)) + 3.0
        assert (np.abs(counts - expect) <= tol).all(), (n, source, a.label)
    print(f"CRITERION 3 (kernel normalization): PASS - every block row over "
          f"{steps} steps sums to 1 within {worst:.1e}; 20 sampled "
          f"chain-vs-operator triples agree cell-wise at 3 SE")


def test_criterion_4_small_instance_exactness(cfg_small, grid_small):
    start = time.perf_counter()
    values, _ = m.solve(cfg_small, grid_small)
    ref = brute_force_values(cfg_small, grid_small)
    gap = float(np.abs(values.values[0] - ref).max())
    elapsed = time.perf_counter() - start
    assert gap <= 1e-9
    assert elapsed <= 60.0
    shape = grid_small.shape
    print(f"CRITERION 4 (small-instance exactness): PASS - "
          f"{shape[0]}x{shape[1]}x{shape[2]} grid, N="
          f"{cfg_small.discretization.steps_N}, max |V - brute force| = "
          f"{gap:.1e}, {elapsed:.1f}s")


def test_criterion_5_printed_constants(cfg_table1, grid_table1):
    eta0 = self_discharge_rate(0.98, 96.0)
    assert f"{eta0:.5g}" == "0.00021044"

    zbar = float(grid_table1.z.points[-1])
    assert f"{zbar:.3g}" == "2.13"
    assert float(grid_table1.z.points[0]) == -zbar

    r_bar, n_r = 3.0, 17
    midpoints = [-r_bar + (k + 0.5) * (2.0 * r_bar / n_r) for k in range(n_r)]
    matches = [v for v in midpoints if round(v, 4) == 1.4118]
    assert len(matches) == 1
    assert cfg_table1.battery.R_Q0 == 1.4118
    assert cfg_table1.generator.R_G0 == 1.4118

    liq = m.terminal_cost(m.State(0.0, cfg_table1.costs.q_ref, 1.0), cfg_table1)
    assert liq == -25.0
    print(f"CRITERION 5 (printed constants): PASS - eta0 = {eta0:.5g}, "
          f"z truncation +-{zbar:.3g}, R_Q0 = R_G0 = 1.4118 (lattice midpoint "
          f"{matches[0]:.6f}), full-tank liquidation {liq} EUR")


def test_criterion_6_full_scale_solve(cfg_table1, grid_table1, table1_solution):
    values, _, elapsed = table1_solution
    assert elapsed <= 600.0
    assert np.isfinite(values.values).all()
    kern = m.TransitionKernel(cfg_table1, grid_table1)
    steps = np.arange(cfg_table1.discretization.steps_N)
    stage = stage_cost_rows(steps, grid_table1, cfg_table1)
    mask = m.feasibility_mask(steps, grid_table1, cfg_table1)
    resid = 0.0
    for n in steps.tolist():
        q_vals = step_q_values(values.values[n + 1], kern, stage[n], mask[n],
                               kern.battery_block(n), kern.generator_block(n))
        resid = max(resid, float(np.abs(
            q_vals.min(axis=0).reshape(-1) - values.values[n]).max()))
    assert resid <= 1e-10
    print(f"CRITERION 6 (full-scale solve): PASS - "
          f"{cfg_table1.discretization.steps_N} steps x "
          f"{grid_table1.n_states} states in {elapsed:.1f}s, Bellman residual "
          f"{resid:.1e}")


def test_criterion_7_value_and_policy_structure(cfg_table1, grid_table1,
                                                table1_solution):
    values, policy, _ = table1_solution
    steps = cfg_table1.discretization.steps_N
    v = values.values.reshape(steps + 1, *grid_table1.shape)

    v_n = v[steps]
    assert (v_n == v_n[0]).all()
    g_slopes = np.diff(v_n[0], axis=1)
    assert (g_slopes < 0.0).all()
    assert np.abs(g_slopes - g_slopes[0, 0]).max() <= 1e-12

    assert float(np.diff(v, axis=2).max()) <= 1e-9
    assert float(np.diff(v, axis=3).max()) <= 1e-9

    half = near_zero_halfwidth(cfg_table1)
    for n in range(steps):
        mu = m.seasonality(cfg_table1.t_of(n), cfg_table1.demand)
        for i, z in enumerate(grid_table1.z.points):
            r = mu + float(z)
            base = grid_table1.lin(i, 0, 0)
            cells = policy.actions[n, base:base + 121]
            if r <= -half:
                assert set(np.unique(cells)) <= {int(m.Action.CHARGE),
                                                 int(m.Action.OVERSPILL)}
            elif r < half:
                assert (cells == int(m.Action.WAIT)).all()
            else:
                assert policy.action_at(n, grid_table1.lin(i, 0, 0)) is m.Action.WAIT
    print("CRITERION 7 (value/policy structure): PASS - V(N) z-constant and "
          "linear decreasing in g; V non-increasing in q and g at every step; "
          "surplus cells use only charge/overspill; wait at (r>0, q=0, g=0)")


def test_criterion_8_simulation_dominance(cfg_table1, grid_table1,
                                           table1_solution):
    """Paths 0..99 of each scenario as one batch per policy. Each path draws
    from its own stream, so a batch holds the paths one-path calls give."""
    _, policy, _ = table1_solution
    wait = m.baseline_wait_policy(cfg_table1, grid_table1)
    assert not set(BATTERY_ACTIONS) & set(GENERATOR_ACTIONS)
    margins = {}
    for name, scenario in m.SCENARIOS.items():
        paths = m.simulate_paths(policy, scenario, cfg_table1, grid_table1, range(100))
        ref = m.simulate_paths(wait, scenario, cfg_table1, grid_table1, range(100))
        assert (np.diff(paths.g, axis=1) <= 0.0).all(), name  # fuel monotone per path
        assert not (np.isin(paths.action, BATTERY_ACTIONS)
                    & np.isin(paths.action, GENERATOR_ACTIONS)).any()
        charge = paths.action == m.Action.CHARGE
        assert (paths.r[charge] < 0.0).all(), (name, np.argwhere(charge & (paths.r >= 0.0)))
        diffs = ref.cum_cost_eur[:, -1] - paths.cum_cost_eur[:, -1]
        se = float(diffs.std(ddof=1)) / math.sqrt(diffs.size)
        assert diffs.mean() > 3.0 * se, name
        margins[name] = diffs.mean() / se
    lo = min(margins.values())
    print(f"CRITERION 8 (simulated dominance): PASS - 100 paths per scenario, "
          f"fuel monotone, charge only under surplus; optimal beats always-"
          f"wait by {lo:.0f}+ SE in every scenario")


def test_criterion_9_reproducible_pipeline(tmp_path):
    ini = os.path.join(os.path.dirname(__file__), "..", "configs", "table1.ini")
    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    assert cli.main(["paper-run", ini, "--out", out1]) == 0
    assert cli.main(["paper-run", ini, "--out", out2]) == 0
    csvs = sorted(f for f in os.listdir(out1) if f.endswith(".csv"))
    assert csvs == sorted(f for f in os.listdir(out2) if f.endswith(".csv"))
    assert len(csvs) >= 16
    for name in csvs:
        with open(os.path.join(out1, name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(out2, name), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2, name
    print(f"CRITERION 9 (reproducible pipeline): PASS - two seeded pipeline "
          f"runs produced {len(csvs)} byte-identical CSV files")
