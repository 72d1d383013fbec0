"""The fixed tanh-sinh rule of dynamics.tanh_sinh against scipy's adaptive quad.

The package integrates the battery efficiency in the terminal cost, and
the noise integrals I_Q, J_Q and I_G (dynamics.noise_integral, their one
route), with one 449-node tanh-sinh rule. Each quantity here must agree
with the quad oracle of tests/oracles.py to 1e-13 relative.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import microgrid_dp as m
from microgrid_dp.dynamics import step_constants, tanh_sinh
from conftest import small_discretization
from oracles import quad_noise_integrals, quad_terminal_battery

REL = 1e-13
BETA_R = m.default_config().demand.beta_R


def _close(got: float, ref: float) -> bool:
    return abs(got - ref) <= REL * abs(ref)


def _replace(cfg: m.ModelConfig, section: str, **fields) -> m.ModelConfig:
    return dataclasses.replace(cfg, **{section: dataclasses.replace(getattr(cfg, section), **fields)})


def _paying(cfg: m.ModelConfig, q_ref: float) -> m.ModelConfig:
    """cfg with SoC above q_ref liquidated too, so both integrands are taken."""
    return _replace(cfg, "costs", gamma_liq_Q=0.4, q_ref=q_ref)


def test_rule_is_exact_on_low_degree_polynomials():
    assert tanh_sinh(lambda v: np.ones_like(v), 0.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert tanh_sinh(lambda v: v**3, -1.0, 2.0) == pytest.approx(3.75, rel=1e-15)
    assert tanh_sinh(lambda v: v, 0.5, 0.5) == 0.0


def test_rule_integrates_each_interval_of_an_array():
    lo = np.array([[0.0], [0.25]])
    hi = np.array([0.5, 1.0, 2.0])
    got = tanh_sinh(np.sqrt, lo, hi)
    assert got.shape == (2, 3)
    expect = (hi**1.5 - lo**1.5) / 1.5
    assert np.allclose(got, expect, rtol=1e-14, atol=0.0)


EFFICIENCIES = {
    "table1": {},
    "l_C=1.01": {"l_C": 1.01},
    "l_C=1.5": {"l_C": 1.5},
    "m_D=1.01": {"m_D": 1.01},
}


@pytest.mark.parametrize("q_ref", [0.0, 0.3, 0.8, 1.0])
@pytest.mark.parametrize("battery", EFFICIENCIES.values(), ids=EFFICIENCIES.keys())
def test_terminal_cost_matches_quad(cfg_table1, battery, q_ref):
    cfg = _paying(_replace(cfg_table1, "battery", **battery), q_ref)
    qs = [0.0, 1e-9, 0.3, 0.8, 1.0 - 1e-9, 1.0] + [k / 10.0 for k in range(11)]
    for q in qs:
        got = m.terminal_cost(m.State(0.0, q, 0.0), cfg)
        assert _close(got, quad_terminal_battery(q, cfg)), (q, got)


def test_terminal_cost_of_a_q_array_is_its_scalar_costs(cfg_table1):
    cfg = _paying(cfg_table1, 0.8)
    qs = np.linspace(0.0, 1.0, 41)
    got = m.terminal_cost(m.State(0.0, qs[:, None], np.array([0.0, 0.5])), cfg)
    assert got.shape == (41, 2)
    for row, q in zip(got, qs):
        assert list(row) == [m.terminal_cost(m.State(0.0, float(q), g), cfg) for g in (0.0, 0.5)]


@settings(max_examples=60, deadline=None)
@given(l=st.floats(1.0, 4.0), mm=st.floats(1.0, 4.0),
       q=st.floats(0.0, 1.0, allow_subnormal=False), q_ref=st.floats(0.0, 1.0, allow_subnormal=False))
def test_terminal_cost_matches_quad_for_any_exponents(l, mm, q, q_ref):
    cfg = m.default_config()
    # C1 keeps both efficiencies at most 0.95 whatever the exponents
    peak = (l / (l + mm)) ** l * (mm / (l + mm)) ** mm
    cfg = _replace(cfg, "battery", l_C=l, m_C=mm, l_D=l, m_D=mm,
                   C1_C=0.15 / peak, C1_D=0.15 / peak)
    cfg = _paying(cfg, q_ref)
    assert _close(m.terminal_cost(m.State(0.0, q, 0.0), cfg), quad_terminal_battery(q, cfg))


def _with_demand(cfg: m.ModelConfig, *, eta0: float, beta: float) -> m.ModelConfig:
    return _replace(_replace(cfg, "battery", eta0=eta0), "demand", beta_R=beta)


NOISE_CASES = {
    "table1": (m.default_config().battery.eta0, BETA_R, 1),
    "eta0=beta_R": (BETA_R, BETA_R, 1),
    "eta0=beta_R+1e-9": (BETA_R + 1e-9, BETA_R, 1),
    "eta0=beta_R-0.09": (BETA_R - 0.09, BETA_R, 1),
    "beta_R=1e-5": (0.0, 1e-5, 1),
    "beta_R=0.05": (2e-4, 0.05, 1),
    "168h,eta0=beta_R": (BETA_R, BETA_R, 168),
    "168h,beta_R=1e-4": (1e-4, 1e-4, 168),
}


@pytest.mark.parametrize("eta0, beta, dt", NOISE_CASES.values(), ids=NOISE_CASES.keys())
def test_noise_constants_match_quad(cfg_table1, eta0, beta, dt):
    cfg = _with_demand(cfg_table1, eta0=eta0, beta=beta)
    if dt != 1:  # one step over the whole week
        cfg = small_discretization(cfg, steps=1)
        cfg = _replace(cfg, "discretization", horizon_T=float(dt))
    assert cfg.dt == dt
    sc = step_constants(cfg)
    i_q, j_q, i_g = quad_noise_integrals(eta0, beta, dt)
    z_var = -math.expm1(-2.0 * beta * dt) / (2.0 * beta)
    gen, sigma = cfg.generator, cfg.demand.sigma_R
    assert _close(sc.q_sqrt_iq, math.sqrt(i_q))
    assert _close(sc.rho_q, -j_q / math.sqrt(z_var * i_q))
    assert _close(sc.sd_g, gen.c1 * sigma / gen.capacity_CG * math.sqrt(i_g))
