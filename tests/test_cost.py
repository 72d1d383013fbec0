"""Stage and terminal costs against arithmetic, quadrature, and Monte Carlo."""

import dataclasses
import math

import pytest
from scipy.integrate import quad

import microgrid_dp as m
from microgrid_dp.dynamics import step_constants

import oracles


def _state_with_r(r, cfg, q=0.5, g=0.5):
    return m.State(r - m.seasonality(0.0, cfg.demand), q, g)


def test_discount_factors_frozen(cfg_table1):
    d = step_constants(cfg_table1)
    assert d.zeta1 == pytest.approx(0.985148881716394, abs=1e-12)
    assert d.zeta2 == pytest.approx(0.8933321630289827, abs=1e-12)
    assert d.zeta3 == pytest.approx(0.8127695471550778, abs=1e-12)


def test_discount_factors_match_quadrature(cfg_table1):
    rho = cfg_table1.costs.rho
    beta = cfg_table1.demand.beta_R
    d = step_constants(cfg_table1)
    for zeta, rate in ((d.zeta1, rho), (d.zeta2, rho + beta),
                       (d.zeta3, rho + 2.0 * beta)):
        ref, err = quad(lambda s, r=rate: math.exp(-r * s), 0.0, 1.0,
                        epsabs=1e-13)
        assert zeta == pytest.approx(ref, abs=1e-10)


def test_running_cost_branch_table(cfg_table1):
    cfg = cfg_table1
    c = cfg.costs

    sc = m.running_cost(0.0, _state_with_r(-2.0, cfg), m.Action.OVERSPILL, cfg)
    assert sc.value == 0.0

    sc = m.running_cost(0.0, _state_with_r(-2.0, cfg), m.Action.CHARGE, cfg)
    assert sc.degradation == pytest.approx(c.gamma_deg * 2.0, abs=1e-12)
    assert sc.fuel == sc.discomfort == 0.0

    sc = m.running_cost(0.0, _state_with_r(2.0, cfg), m.Action.WAIT, cfg)
    assert sc.discomfort == pytest.approx(2.3, abs=1e-12)
    assert sc.value == pytest.approx(2.3, abs=1e-12)

    sc = m.running_cost(0.0, _state_with_r(2.0, cfg), m.Action.DISCHARGE_FULL, cfg)
    assert sc.degradation == pytest.approx(c.gamma_deg * 2.0, abs=1e-12)
    assert sc.discomfort == 0.0

    r_q0 = cfg.battery.R_Q0
    sc = m.running_cost(0.0, _state_with_r(3.0, cfg), m.Action.DISCHARGE_LIMITED, cfg)
    assert sc.degradation == pytest.approx(c.gamma_deg * r_q0, abs=1e-12)
    assert sc.discomfort == pytest.approx(c.k0 * (3.0 - r_q0) ** 2, abs=1e-12)

    sc = m.running_cost(0.0, _state_with_r(3.0, cfg), m.Action.FUEL_FULL, cfg)
    assert sc.fuel == pytest.approx(1.5 * (0.5 + 0.35 * 3.0), abs=1e-12)
    assert sc.degradation == sc.discomfort == 0.0

    sc = m.running_cost(0.0, _state_with_r(3.0, cfg), m.Action.FUEL_LIMITED, cfg)
    assert sc.value == pytest.approx(2.941563063, abs=1e-9)
    assert sc.fuel == pytest.approx(1.4911949999999998, abs=1e-12)
    assert sc.discomfort == pytest.approx(1.450368063, abs=1e-9)


def test_stage_cost_components_sum():
    sc = m.StageCost(1.0, 0.25, 0.5)
    assert sc.value == pytest.approx(1.75, abs=1e-15)


def test_discomfort_vanishes_at_thresholds(cfg_table1):
    cfg = cfg_table1
    sc = m.running_cost(0.0, _state_with_r(cfg.battery.R_Q0, cfg),
                        m.Action.DISCHARGE_LIMITED, cfg)
    assert sc.discomfort == 0.0
    sc = m.running_cost(0.0, _state_with_r(cfg.generator.R_G0, cfg),
                        m.Action.FUEL_LIMITED, cfg)
    assert sc.discomfort == 0.0


def test_expected_wait_cost_closed_form_identity(cfg_table1):
    cfg = cfg_table1
    p, c = cfg.demand, cfg.costs
    d = step_constants(cfg)
    s2 = p.sigma_R**2 / (2.0 * p.beta_R)
    mu = m.seasonality(0.0, p)
    expect = c.k0 * ((mu * mu + s2) * d.zeta1 - s2 * d.zeta3)
    got = m.expected_stage_cost(0, m.State(0.0, 0.5, 0.5), m.Action.WAIT, cfg)
    assert got == pytest.approx(expect, abs=1e-12)


def test_expected_overspill_cost_is_zero(cfg_table1):
    got = m.expected_stage_cost(0, m.State(-1.0, 0.5, 0.5),
                                m.Action.OVERSPILL, cfg_table1)
    assert got == 0.0


@pytest.mark.parametrize("action", list(m.Action))
@pytest.mark.parametrize("z", [-1.0, 0.0, 1.0])
def test_expected_stage_cost_matches_path_integral(cfg_table1, action, z):
    closed = m.expected_stage_cost(0, m.State(z, 0.5, 0.5), action, cfg_table1)
    mc, se = oracles.mc_stage_cost(0, z, action, cfg_table1, paths=20_000)
    if se == 0.0:
        assert closed == pytest.approx(mc, abs=1e-12)
    else:
        assert abs(closed - mc) < 3.0 * se


def test_expected_cost_independent_of_q_g(cfg_table1):
    a = m.Action.FUEL_FULL
    ref = m.expected_stage_cost(0, m.State(0.5, 0.1, 0.1), a, cfg_table1)
    for q, g in ((0.9, 0.2), (0.0, 1.0)):
        assert m.expected_stage_cost(0, m.State(0.5, q, g), a, cfg_table1) == ref


def test_terminal_cost_frozen_values(cfg_table1):
    cfg = cfg_table1
    assert m.terminal_cost(m.State(0.0, cfg.costs.q_ref, 1.0), cfg) == pytest.approx(
        -25.0, abs=1e-12)
    got = m.terminal_cost(m.State(0.0, 0.0, 0.0), cfg)
    assert got == pytest.approx(12.377664376105855, abs=1e-9)


def test_terminal_cost_matches_simpson_oracle(cfg_table1):
    cfg = cfg_table1
    for q in (0.0, 0.25, 0.6, 0.8, 0.95, 1.0):
        expect = oracles.simpson_terminal_battery(q, cfg) - 25.0 * 0.3
        assert m.terminal_cost(m.State(0.7, q, 0.3), cfg) == pytest.approx(
            expect, abs=1e-9)


def test_terminal_cost_z_independent(cfg_table1):
    ref = m.terminal_cost(m.State(0.0, 0.3, 0.4), cfg_table1)
    for z in (-2.0, 1.5):
        assert m.terminal_cost(m.State(z, 0.3, 0.4), cfg_table1) == ref


def test_terminal_cost_monotone_in_q_and_g(cfg_table1):
    cfg = cfg_table1
    qs = [k / 20.0 for k in range(21)]
    vals = [m.terminal_cost(m.State(0.0, q, 0.5), cfg) for q in qs]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    gs = [k / 10.0 for k in range(11)]
    vals = [m.terminal_cost(m.State(0.0, 0.5, g), cfg) for g in gs]
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    assert all(d == pytest.approx(-2.5, abs=1e-10) for d in diffs)


def test_terminal_cost_liquidation_branch():
    cfg = m.default_config()
    paying = dataclasses.replace(
        cfg, costs=dataclasses.replace(cfg.costs, gamma_liq_Q=0.4))
    above = m.terminal_cost(m.State(0.0, 1.0, 0.0), paying)
    at_ref = m.terminal_cost(m.State(0.0, cfg.costs.q_ref, 0.0), paying)
    assert at_ref == 0.0
    assert above < 0.0
    with_default = m.terminal_cost(m.State(0.0, 1.0, 0.0), cfg)
    assert with_default == 0.0
