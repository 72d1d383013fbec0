"""Calibration helpers: self-discharge, battery sizing, degradation pricing."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri

import microgrid_dp as m
from microgrid_dp.calibrate import (DEFAULT_CHARGE_WINDOW, DEFAULT_CONFIDENCE,
                                    DEFAULT_DISCHARGE_WINDOW,
                                    _integrated_residual_moments,
                                    battery_capacity, calibration_report,
                                    check_generator_params, degradation_cost,
                                    self_discharge_rate)
from oracles import decimal_noise_integrals


def test_self_discharge_rate_value():
    eta0 = self_discharge_rate(0.98, 96.0)
    assert eta0 == pytest.approx(0.00021044486789082776, abs=1e-18)
    assert f"{eta0:.5g}" == "0.00021044"
    # the published model constant is this rate rounded to 5 significant figures
    assert m.default_config().battery.eta0 == pytest.approx(eta0, rel=5e-5)


def test_self_discharge_rate_round_trip():
    eta0 = self_discharge_rate(0.9, 48.0)
    assert math.exp(-eta0 * 48.0) == pytest.approx(0.9, abs=1e-15)


def test_self_discharge_rate_guards():
    for bad in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(ValueError):
            self_discharge_rate(bad, 96.0)
    with pytest.raises(ValueError):
        self_discharge_rate(0.98, 0.0)


def test_integrated_mean_matches_quadrature(cfg_table1):
    p = cfg_table1.demand
    for window, z1 in ((DEFAULT_CHARGE_WINDOW, 0.0), (DEFAULT_DISCHARGE_WINDOW, 0.4),
                       ((2.0, 11.5), -1.2)):
        t1, t2 = window
        mean, sd = _integrated_residual_moments(window, z1, p)
        seasonal, _ = quad(lambda t: m.seasonality(t, p), t1, t2, limit=200)
        drift = z1 * (1.0 - math.exp(-p.beta_R * (t2 - t1))) / p.beta_R
        assert mean == pytest.approx(seasonal + drift, abs=1e-9)
        assert sd > 0.0


def test_integrated_variance_small_beta_limit():
    import dataclasses
    p = dataclasses.replace(m.default_config().demand, beta_R=1e-6)
    tau = 12.0
    _, sd = _integrated_residual_moments((0.0, tau), 0.0, p)
    # as beta -> 0 the OU integral variance approaches sigma^2 tau^3 / 3
    assert sd**2 == pytest.approx(p.sigma_R**2 * tau**3 / 3.0, rel=1e-4)


@pytest.mark.parametrize("u", [1e-4, 0.0012, 0.012, 0.1, 2.4, 200.0])
def test_integrated_variance_matches_the_decimal_closed_form(cfg_table1, u):
    """The variance sigma_R^2 I_G(beta_R, tau) at u = beta_R tau is within
    1e-15 relative of the closed form 2 u - 3 + 4 e^(-u) - e^(-2 u) (over
    2 beta_R^3) taken at 50 digits, on both sides of u = 0.01, where a
    series once took over."""
    p = cfg_table1.demand
    tau = u / p.beta_R
    _, sd = _integrated_residual_moments((0.0, tau), 0.0, p)
    want = p.sigma_R**2 * decimal_noise_integrals(0.0, p.beta_R, tau).i_g
    assert abs(sd * sd - want) <= 1e-15 * want


def test_integrated_moments_rejects_bad_window(cfg_table1):
    with pytest.raises(ValueError):
        _integrated_residual_moments((18.0, 6.0), 0.0, cfg_table1.demand)


def test_battery_capacity_reproduces_config_value(cfg_table1):
    c_charge, c_discharge, c_q = battery_capacity(
        DEFAULT_CHARGE_WINDOW, DEFAULT_DISCHARGE_WINDOW, DEFAULT_CONFIDENCE,
        0.0, cfg_table1)
    assert c_charge == pytest.approx(12.136634724004592, abs=1e-9)
    assert c_discharge == pytest.approx(18.006833055598058, abs=1e-9)
    assert c_q == pytest.approx(18.006833055598058, abs=1e-9)
    assert round(c_q) == cfg_table1.battery.capacity_CQ


def test_battery_capacity_monotone_in_confidence(cfg_table1):
    caps = [battery_capacity(DEFAULT_CHARGE_WINDOW, DEFAULT_DISCHARGE_WINDOW,
                             p, 0.0, cfg_table1)[2]
            for p in (0.80, 0.90, 0.92, 0.99)]
    assert caps == sorted(caps)
    assert caps[0] < caps[-1]


def test_battery_capacity_confidence_guard(cfg_table1):
    for p in (0.5, 1.0, 0.2, -0.1):
        with pytest.raises(ValueError):
            battery_capacity(DEFAULT_CHARGE_WINDOW, DEFAULT_DISCHARGE_WINDOW,
                             p, 0.0, cfg_table1)


def test_degradation_cost_round_trip():
    rho, T0, price, max_r = 0.03, 10_000.0, 6000.0, 3.0
    gamma = degradation_cost(price, T0, rho, max_r)
    # amortization identity: gamma max|R| (e^(rho T0) - 1) / rho = P_b
    assert gamma * max_r * math.expm1(rho * T0) / rho == pytest.approx(price, rel=1e-12)
    assert degradation_cost(price, T0 / 2, rho, max_r) > gamma
    assert degradation_cost(price / 2, T0, rho, max_r) == pytest.approx(gamma / 2, rel=1e-12)


def test_degradation_cost_guards():
    for args in ((0.0, 1.0, 0.03, 3.0), (1.0, -1.0, 0.03, 3.0),
                 (1.0, 1.0, 0.0, 3.0), (1.0, 1.0, 0.03, 0.0)):
        with pytest.raises(ValueError):
            degradation_cost(*args)


def test_generator_param_ranges():
    assert check_generator_params(0.5, 0.35) == []
    assert check_generator_params(0.75, 0.5) == []
    warns = check_generator_params(1.5, 0.1)
    assert len(warns) == 2
    assert "c0" in warns[0] and "c1" in warns[1]


def test_calibration_report_defaults(cfg_table1):
    d = calibration_report(cfg_table1)
    assert set(d) == {"eta0_per_h", "C_Q_charge_kwh", "C_Q_discharge_kwh",
                      "C_Q_kwh", "gamma_deg_eur_per_kwh", "gamma_deg_source",
                      "generator_warnings", "inputs"}
    assert d["eta0_per_h"] == pytest.approx(0.00021044486789082776, abs=1e-18)
    assert d["C_Q_kwh"] == pytest.approx(18.006833055598058, abs=1e-9)
    assert d["gamma_deg_source"] == "config"
    assert d["gamma_deg_eur_per_kwh"] == cfg_table1.costs.gamma_deg
    assert d["generator_warnings"] == []
    assert d["inputs"]["confidence_p"] == DEFAULT_CONFIDENCE


def test_calibration_report_priced_battery(cfg_table1):
    d = calibration_report(cfg_table1, battery_price=6000.0,
                           battery_life_h=20_000.0, max_abs_R=3.0)
    assert d["gamma_deg_source"] == "degradation_cost"
    want = degradation_cost(6000.0, 20_000.0, cfg_table1.costs.rho, 3.0)
    assert d["gamma_deg_eur_per_kwh"] == pytest.approx(want, rel=1e-15)
    assert d["inputs"]["battery_price_eur"] == 6000.0


@pytest.mark.parametrize("given", [{"battery_price": 6000.0}, {"battery_life_h": 20_000.0}])
def test_calibration_report_refuses_half_a_priced_battery(cfg_table1, given):
    """A price without a horizon (or the reverse) cannot price the battery;
    it is an error, not a silent fall-back to the configured gamma_deg."""
    with pytest.raises(ValueError, match="go together: give both or neither"):
        calibration_report(cfg_table1, **given)


def test_confidence_quantile_matches_ndtri():
    """The standard library's normal quantile, which battery_capacity uses,
    against scipy's ndtri over (0.5, 1): within 2e-15 per unit of
    max(1, |z|) (2.7e-15 at z = 4.5 measured, 3 ulps there)."""
    p = np.concatenate((np.linspace(0.5, 1.0, 20_001)[1:-1],
                        0.5 + np.logspace(-16.0, -1.0, 100), 1.0 - np.logspace(-16.0, -1.0, 100)))
    p = p[(p > 0.5) & (p < 1.0)]
    want = ndtri(p)
    got = np.array([NormalDist().inv_cdf(v) for v in p.tolist()])
    assert (np.abs(got - want) <= 2e-15 * np.maximum(1.0, np.abs(want))).all()
