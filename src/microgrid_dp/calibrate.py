"""Parameter calibration helpers: self-discharge, battery sizing, degradation.

Battery sizing works on the integrated residual demand over a fixed daily
window: the battery must absorb (charge window) or supply (discharge
window) the integral of R with confidence p. Under the OU residual the
integral is Gaussian with a closed-form mean and the variance
sigma_R^2 I_G(beta_R, tau) over a window of length tau: the generator's
noise integral, which dynamics.noise_integral takes by its one route. The
required capacity is then a quantile expression. Window bounds,
confidence level, and the reference SoC for the efficiency factor are
declared constants tuned once to reproduce the published 18 kWh figure,
then frozen.
calibration_report returns the dict that the `calibrate` command prints,
and its signature holds the one copy of the command's defaults.
"""

from __future__ import annotations

import math
from statistics import NormalDist

from .config import ModelConfig, SeasonalOUParams, eta_charge, eta_discharge
from .dynamics import noise_integral

__all__ = [
    "DEFAULT_CHARGE_WINDOW",
    "DEFAULT_CONFIDENCE",
    "DEFAULT_DISCHARGE_WINDOW",
    "battery_capacity",
    "calibration_report",
    "check_generator_params",
    "degradation_cost",
    "self_discharge_rate",
]

# Declared sizing constants (frozen): solar day 06:00-18:00 charges the
# battery, the following night 18:00-06:00 discharges it; the capacity
# covers the windowed energy integral at 92% confidence, with the
# efficiency factor evaluated at half charge.
DEFAULT_CHARGE_WINDOW = (6.0, 18.0)
DEFAULT_DISCHARGE_WINDOW = (18.0, 30.0)
DEFAULT_CONFIDENCE = 0.92
_ETA_REFERENCE_SOC = 0.5


def self_discharge_rate(q_star: float, hours: float) -> float:
    """Rate eta0 [1/h] such that an idle battery holds a q_star fraction after `hours`."""
    if not 0.0 < q_star < 1.0:
        raise ValueError("q_star must lie in (0, 1)")
    if not hours > 0.0:
        raise ValueError("hours must be positive")
    return -math.log(q_star) / hours


def _seasonal_integral(t1: float, t2: float, p: SeasonalOUParams) -> float:
    """int_{t1}^{t2} mu_R(t) dt in closed form (sine differences)."""

    def cos_term(kappa: float, shift: float, period: float) -> float:
        w = 2.0 * math.pi / period
        return kappa / w * (math.sin(w * (t2 - shift)) - math.sin(w * (t1 - shift)))

    return (
        p.mu0_R * (t2 - t1)
        + cos_term(p.kappa1_R, p.t1_R, p.delta1)
        + cos_term(p.kappa2_R, p.t2_R, p.delta2)
    )


def _integrated_residual_moments(window: tuple[float, float], z1: float,
                                 p: SeasonalOUParams) -> tuple[float, float]:
    """Mean and std of int_window R(t) dt when Z starts the window at z1."""
    t1, t2 = window
    if t2 <= t1:
        raise ValueError(f"degenerate window {window}: end must exceed start")
    tau = t2 - t1
    beta, sigma = p.beta_R, p.sigma_R
    mean = _seasonal_integral(t1, t2, p) + z1 * (-math.expm1(-beta * tau)) / beta
    # int_0^tau ((1 - e^(-beta v)) / beta)^2 dv, the I_G of a step of length tau
    var = sigma**2 * noise_integral(0.0, beta, tau, 2)
    return mean, math.sqrt(var)


def battery_capacity(window_charge: tuple[float, float],
                     window_discharge: tuple[float, float],
                     p: float, z1: float, cfg: ModelConfig) -> tuple[float, float, float]:
    """(C_Q_charge, C_Q_discharge, C_Q) [kWh] covering both windows at confidence p.

    The discharge window needs stored energy 1/eta_D per kWh served; the
    charge window stores eta_C kWh per surplus kWh absorbed.
    """
    if not 0.5 < p < 1.0:
        raise ValueError("confidence p must lie in (0.5, 1)")
    z_p = NormalDist().inv_cdf(p)
    bat = cfg.battery
    eta_c = eta_charge(_ETA_REFERENCE_SOC, bat)
    eta_d = eta_discharge(_ETA_REFERENCE_SOC, bat)
    mean_c, sd_c = _integrated_residual_moments(window_charge, z1, cfg.demand)
    mean_d, sd_d = _integrated_residual_moments(window_discharge, z1, cfg.demand)
    c_charge = eta_c * (abs(mean_c) + z_p * sd_c)
    c_discharge = (mean_d + z_p * sd_d) / eta_d
    return c_charge, c_discharge, max(c_charge, c_discharge)


def degradation_cost(P_b: float, T0: float, rho: float, max_abs_R: float) -> float:
    """Throughput cost gamma_deg [EUR/kWh] amortizing a replacement at T0.

    gamma = rho P_b e^(-rho T0) / ((1 - e^(-rho T0)) max|R|), written with
    expm1 so very large rho*T0 degrades gracefully to 0.
    """
    if min(P_b, T0, rho, max_abs_R) <= 0.0:
        raise ValueError("all degradation inputs must be positive")
    return rho * P_b / (math.expm1(rho * T0) * max_abs_R)


def check_generator_params(c0: float, c1: float) -> list[str]:
    """Warnings when the consumption curve leaves the typical small-genset range."""
    warnings = []
    if not 0.5 <= c0 <= 1.0:
        warnings.append(f"idle consumption c0 = {c0} l/h outside typical range [0.5, 1.0]")
    if not 0.3 <= c1 <= 0.5:
        warnings.append(f"marginal consumption c1 = {c1} l/kWh outside typical range [0.3, 0.5]")
    return warnings


def calibration_report(cfg: ModelConfig,
                       q_star: float = 0.98, q_star_hours: float = 96.0,
                       window_charge: tuple[float, float] = DEFAULT_CHARGE_WINDOW,
                       window_discharge: tuple[float, float] = DEFAULT_DISCHARGE_WINDOW,
                       p: float = DEFAULT_CONFIDENCE, z1: float = 0.0,
                       battery_price: float | None = None,
                       battery_life_h: float | None = None,
                       max_abs_R: float = 3.0) -> dict:
    """Every calibration output and its inputs, as the dict `calibrate` prints; gamma_deg
    is degradation_cost's given a battery price and a replacement horizon, the configured
    value (gamma_deg_source "config") given neither; one alone is a ValueError."""
    if (battery_price is None) != (battery_life_h is None):
        raise ValueError("battery price and battery life go together: give both or neither")
    eta0 = self_discharge_rate(q_star, q_star_hours)
    c_charge, c_discharge, c_q = battery_capacity(window_charge, window_discharge, p, z1, cfg)
    if battery_price is not None:
        gamma = degradation_cost(battery_price, battery_life_h, cfg.costs.rho, max_abs_R)
        gamma_source = "degradation_cost"
    else:
        gamma = cfg.costs.gamma_deg
        gamma_source = "config"
    return {
        "eta0_per_h": eta0,
        "C_Q_charge_kwh": c_charge,
        "C_Q_discharge_kwh": c_discharge,
        "C_Q_kwh": c_q,
        "gamma_deg_eur_per_kwh": gamma,
        "gamma_deg_source": gamma_source,
        "generator_warnings": check_generator_params(cfg.generator.c0, cfg.generator.c1),
        "inputs": {
            "q_star": q_star,
            "q_star_hours": q_star_hours,
            "window_charge_h": list(window_charge),
            "window_discharge_h": list(window_discharge),
            "confidence_p": p,
            "z1_kw": z1,
            "battery_price_eur": battery_price,
            "battery_life_h": battery_life_h,
            "max_abs_R_kw": max_abs_R,
        },
    }
