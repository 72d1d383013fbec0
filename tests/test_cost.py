"""Stage and terminal costs against arithmetic, quadrature, and Monte Carlo."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import microgrid_dp as m
from microgrid_dp.dynamics import step_constants

import oracles


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
    """The summed instantaneous rate of each action at a given residual r."""
    cfg = cfg_table1
    c = cfg.costs

    def rate(a, r):
        return oracles._integrand(a, cfg)(r)

    assert rate(m.Action.OVERSPILL, -2.0) == 0.0
    assert rate(m.Action.CHARGE, -2.0) == pytest.approx(c.gamma_deg * 2.0, abs=1e-12)
    assert rate(m.Action.WAIT, 2.0) == pytest.approx(2.3, abs=1e-12)
    assert rate(m.Action.DISCHARGE_FULL, 2.0) == pytest.approx(c.gamma_deg * 2.0, abs=1e-12)
    r_q0 = cfg.battery.R_Q0
    assert rate(m.Action.DISCHARGE_LIMITED, 3.0) == pytest.approx(
        c.gamma_deg * r_q0 + c.k0 * (3.0 - r_q0) ** 2, abs=1e-12)
    assert rate(m.Action.FUEL_FULL, 3.0) == pytest.approx(1.5 * (0.5 + 0.35 * 3.0), abs=1e-12)
    assert rate(m.Action.FUEL_LIMITED, 3.0) == pytest.approx(2.941563063, abs=1e-9)
    # fuel part alone: the rate at the threshold, where the discomfort is 0
    assert rate(m.Action.FUEL_LIMITED, cfg.generator.R_G0) == pytest.approx(
        1.4911949999999998, abs=1e-12)


def test_discomfort_vanishes_at_thresholds(cfg_table1):
    cfg = cfg_table1
    c, gen = cfg.costs, cfg.generator
    r_q0, r_g0 = cfg.battery.R_Q0, gen.R_G0
    assert oracles._integrand(m.Action.DISCHARGE_LIMITED, cfg)(r_q0) == c.gamma_deg * r_q0
    assert (oracles._integrand(m.Action.FUEL_LIMITED, cfg)(r_g0)
            == c.fuel_price_F0 * (gen.c0 + gen.c1 * r_g0))


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


@pytest.mark.parametrize("problem", ["table1", "small", "mu0_R=0.2"])
def test_stage_cost_on_a_step_column_equals_the_int_calls(problem, cfg_table1, cfg_small):
    """np.arange(N + 1)[:, None] against a (step, path) table of z, as the
    simulator passes it: every entry has the bits of the int call at its
    step, for every action. mu0_R = 0.2 has a step where libm's pow squares
    mu - R_G0 to another last bit than the product."""
    cfg = {"table1": cfg_table1, "small": cfg_small,
           "mu0_R=0.2": dataclasses.replace(
               cfg_table1, demand=dataclasses.replace(cfg_table1.demand, mu0_R=0.2))}[problem]
    steps = np.arange(cfg.discretization.steps_N + 1)[:, None]
    z = np.random.default_rng(28).normal(0.0, 1.5, (steps.size, 5))
    z[:, 0] = cfg.generator.R_G0 - cfg.constants.mu  # r = R_G0 at every step
    for a in m.Action:
        got = np.broadcast_to(m.expected_stage_cost(steps, m.State(z, 0.5, 0.5), a, cfg), z.shape)
        for n in range(steps.size):
            want = m.expected_stage_cost(n, m.State(z[n], 0.5, 0.5), a, cfg)
            assert got[n].tobytes() == np.broadcast_to(want, z[n].shape).tobytes(), (a, n)


def test_stage_cost_step_arrays_place_their_axes(cfg_table1):
    """A 2-D step array outside 0..N raises KeyError; a 1-D one still adds a
    leading step axis in front of the states."""
    n_steps = cfg_table1.discretization.steps_N
    x = m.State(np.zeros((2, 4)), 0.5, 0.5)
    for steps in ([[0], [n_steps + 1]], [[-1], [0]]):
        with pytest.raises(KeyError):
            m.expected_stage_cost(np.array(steps), x, m.Action.WAIT, cfg_table1)
    cost = m.expected_stage_cost(np.arange(3), m.State(np.zeros(4), 0.5, 0.5), m.Action.WAIT,
                                 cfg_table1)
    assert cost.shape == (3, 4)
    assert np.array_equal(cost[2], m.expected_stage_cost(2, m.State(np.zeros(4), 0.5, 0.5),
                                                         m.Action.WAIT, cfg_table1))


def test_terminal_cost_frozen_values(cfg_table1):
    cfg = cfg_table1
    assert m.terminal_cost(m.State(0.0, cfg.costs.q_ref, 1.0), cfg) == pytest.approx(
        -25.0, abs=1e-12)
    got = m.terminal_cost(m.State(0.0, 0.0, 0.0), cfg)
    assert got == pytest.approx(12.377664376105855, abs=1e-9)


def test_terminal_cost_matches_simpson_oracle(cfg_table1):
    # gamma_liq_Q = 0.4 prices the liquidation branch above q_ref, which table1 zeroes
    paying = dataclasses.replace(
        cfg_table1, costs=dataclasses.replace(cfg_table1.costs, gamma_liq_Q=0.4))
    for cfg, qs in ((cfg_table1, (0.0, 0.25, 0.6, 0.8, 0.95, 1.0)), (paying, (0.9, 1.0))):
        for q in qs:
            expect = oracles.simpson_terminal_battery(q, cfg) - 25.0 * 0.3
            assert m.terminal_cost(m.State(0.7, q, 0.3), cfg) == pytest.approx(
                expect, abs=1e-9), (cfg.costs.gamma_liq_Q, q)


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
