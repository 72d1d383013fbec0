"""Exact one-step conditional Gaussian laws of (Z, Q, G) and the noise map.

Within one step of length Delta the seasonal mean and the battery
efficiency are frozen at the left endpoint (piecewise-constant model
parameters), which makes the joint one-step law Gaussian with the
closed-form moments implemented here. All integral kernels are written
with expm1-based helpers so they stay stable for small rates and handle
the removable singularity at eta0 = beta_R.

The scalar functions (z/q/g_moments, transition_moments) serve single
states: the simulator and the reference routes. The array laws (z_law,
battery_law, generator_law) evaluate the same moments over whole grid
lattices and are the one source the feasibility mask and the transition
blocks share, together with the state-free correlations battery_rho and
generator_rho. The deterministic branches of q_moments/g_moments (the
idle decay and the limited-mode means) take a float or an array level
alike; the kernel's Dirac target maps evaluate them over a whole axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import Action, ModelConfig, State, eta_charge, eta_discharge, seasonality

__all__ = [
    "NoiseVector",
    "TransitionMoments",
    "battery_law",
    "battery_rho",
    "cross_moments",
    "efficiency",
    "g_moments",
    "generator_law",
    "generator_rho",
    "q_moments",
    "transition_moments",
    "transition_operator",
    "z_law",
    "z_moments",
]

# Below this gap, (eta0 - beta_R) expressions switch to their analytic limits.
_SINGULAR_TOL = 1e-9


class NoiseVector(NamedTuple):
    """Independent standard normal innovations driving one step."""

    eps_Z: float
    eps_Q: float
    eps_G: float


@dataclass(frozen=True)
class TransitionMoments:
    """Conditional mean/variance/covariance of (Z', Q', G') given (x, a)."""

    m_Z: float
    var_Z: float
    m_Q: float
    var_Q: float
    m_G: float
    var_G: float
    cov_ZQ: float
    rho_Q: float
    cov_ZG: float
    rho_G: float


def _norm_cdf(x: float) -> float:
    """Standard normal CDF of a float; exactly 0 / 1 at -inf / +inf."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _phi(a: float, dt: float) -> float:
    """int_0^dt e^(-a s) ds, stable as a -> 0."""
    if abs(a) < 1e-14:
        return dt
    return -math.expm1(-a * dt) / a


def _psi(a: float, b: float, dt: float) -> float:
    """int_0^dt e^(-a (dt - s)) e^(-b s) ds = (e^(-b dt) - e^(-a dt)) / (a - b)."""
    if abs(a - b) < _SINGULAR_TOL:
        return dt * math.exp(-b * dt)
    return (math.exp(-b * dt) - math.exp(-a * dt)) / (a - b)


def _iq(eta0: float, beta: float, dt: float) -> float:
    """int_0^dt psi(eta0, beta, s)'s squared kernel: int (e^(-beta v) - e^(-eta0 v))^2-type term.

    Equals int_0^dt ((e^(-beta v) - e^(-eta0 v)) / (eta0 - beta))^2 dv with the
    analytic limit int_0^dt v^2 e^(-2 beta v) dv when eta0 = beta.
    """
    if abs(eta0 - beta) < _SINGULAR_TOL:
        bd = beta * dt
        return (2.0 - math.exp(-2.0 * bd) * (4.0 * bd * bd + 4.0 * bd + 2.0)) / (8.0 * beta**3)
    return (_phi(2.0 * beta, dt) - 2.0 * _phi(beta + eta0, dt) + _phi(2.0 * eta0, dt)) / (eta0 - beta) ** 2


def _jq(eta0: float, beta: float, dt: float) -> float:
    """int_0^dt e^(-beta v) (e^(-beta v) - e^(-eta0 v)) / (eta0 - beta) dv."""
    if abs(eta0 - beta) < _SINGULAR_TOL:
        bd = beta * dt
        return (1.0 - math.exp(-2.0 * bd) * (1.0 + 2.0 * bd)) / (4.0 * beta * beta)
    return (_phi(2.0 * beta, dt) - _phi(beta + eta0, dt)) / (eta0 - beta)


def _ig(beta: float, dt: float) -> float:
    """int_0^dt ((1 - e^(-beta v)) / beta)^2 dv."""
    return (dt - 2.0 * _phi(beta, dt) + _phi(2.0 * beta, dt)) / (beta * beta)


def _jg(beta: float, dt: float) -> float:
    """int_0^dt e^(-beta v) (1 - e^(-beta v)) / beta dv = (1 - e^(-beta dt))^2 / (2 beta^2)."""
    return (-math.expm1(-beta * dt)) ** 2 / (2.0 * beta * beta)


def z_moments(n: int, z: float, cfg: ModelConfig) -> tuple[float, float]:
    """Conditional mean and variance of Z_{n+1} given Z_n = z."""
    p = cfg.demand
    dt = cfg.dt
    m_Z = z * math.exp(-p.beta_R * dt)
    var_Z = p.sigma_R**2 * _phi(2.0 * p.beta_R, dt)
    return m_Z, var_Z


def efficiency(t: float, z: float, q: float, cfg: ModelConfig) -> float:
    """Energy-conversion factor eta_E frozen at (t, z, q).

    Charging (residual demand mu_R(t) + z <= 0) applies eta_E^C(q) to the
    stored surplus; discharging applies 1 / eta_E^D(q) to the served demand.
    """
    if seasonality(t, cfg.demand) + z <= 0.0:
        return eta_charge(q, cfg.battery)
    return 1.0 / eta_discharge(q, cfg.battery)


def q_moments(n: int, z: float, q: float, a: Action, cfg: ModelConfig) -> tuple[float, float]:
    """Conditional mean and variance of Q_{n+1} given state and action."""
    bat, p = cfg.battery, cfg.demand
    dt = cfg.dt
    decay = math.exp(-bat.eta0 * dt)
    if a in (Action.CHARGE, Action.DISCHARGE_FULL):
        t = cfg.t_of(n)
        eta = efficiency(t, z, q, cfg)
        h = z * _psi(bat.eta0, p.beta_R, dt) + seasonality(t, p) * _phi(bat.eta0, dt)
        m_Q = q * decay - (eta / bat.capacity_CQ) * h
        var_Q = (eta * p.sigma_R / bat.capacity_CQ) ** 2 * _iq(bat.eta0, p.beta_R, dt)
        return m_Q, var_Q
    if a is Action.DISCHARGE_LIMITED:
        return discharge_limited_mean(q, cfg), 0.0
    if a in Action:
        return q * decay, 0.0
    raise ValueError(f"unknown action: {a!r}")


def g_moments(n: int, z: float, g: float, a: Action, cfg: ModelConfig) -> tuple[float, float]:
    """Conditional mean and variance of G_{n+1} given state and action."""
    gen, p = cfg.generator, cfg.demand
    dt = cfg.dt
    if a is Action.FUEL_FULL:
        mu = seasonality(cfg.t_of(n), p)
        burn = gen.c0 * dt + gen.c1 * (mu * dt + z * _phi(p.beta_R, dt))
        m_G = g - burn / gen.capacity_CG
        var_G = (gen.c1 * p.sigma_R / gen.capacity_CG) ** 2 * _ig(p.beta_R, dt)
        return m_G, var_G
    if a is Action.FUEL_LIMITED:
        return fuel_limited_mean(g, cfg), 0.0
    if a in Action:
        return g, 0.0
    raise ValueError(f"unknown action: {a!r}")


def discharge_limited_mean(q, cfg: ModelConfig):
    """Deterministic Q_{n+1} under limited discharge; q a float or an array."""
    bat = cfg.battery
    dt = cfg.dt
    eta = 1.0 / eta_discharge(q, bat)
    return q * math.exp(-bat.eta0 * dt) - (eta * bat.R_Q0 / bat.capacity_CQ) * _phi(bat.eta0, dt)


def fuel_limited_mean(g, cfg: ModelConfig):
    """Deterministic G_{n+1} under the limited generator mode; g a float or an array."""
    gen = cfg.generator
    return g - (gen.c0 + gen.c1 * gen.R_G0) * cfg.dt / gen.capacity_CG


def z_law(z: np.ndarray, cfg: ModelConfig) -> tuple[np.ndarray, float]:
    """(mean array, standard deviation) of Z_{n+1} over an array of z; step-free."""
    p = cfg.demand
    return z * math.exp(-p.beta_R * cfg.dt), math.sqrt(p.sigma_R**2 * _phi(2.0 * p.beta_R, cfg.dt))


def battery_law(n: int, z: np.ndarray, q: np.ndarray, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """(mean, sd) of Q_{n+1} under charge / full discharge, broadcast over z and q.

    Both depend on the state through the frozen efficiency eta_E(t_n, z, q).
    """
    bat, p = cfg.battery, cfg.demand
    dt = cfg.dt
    mu = seasonality(cfg.t_of(n), p)
    eta = np.where(mu + z <= 0.0, eta_charge(q, bat), 1.0 / eta_discharge(q, bat))
    h = z * _psi(bat.eta0, p.beta_R, dt) + mu * _phi(bat.eta0, dt)
    m_q = q * math.exp(-bat.eta0 * dt) - (eta / bat.capacity_CQ) * h
    sd_q = eta * (p.sigma_R / bat.capacity_CQ) * math.sqrt(_iq(bat.eta0, p.beta_R, dt))
    return m_q, sd_q


def generator_law(n: int, z: np.ndarray, cfg: ModelConfig) -> tuple[np.ndarray, float]:
    """(burn, sd) of the full generator mode over an array of z: G_{n+1} ~ N(g - burn, sd^2).

    The burn depends on z only and the standard deviation on no state at
    all; the generator block exploits exactly this structure.
    """
    gen, p = cfg.generator, cfg.demand
    dt = cfg.dt
    mu = seasonality(cfg.t_of(n), p)
    burn = (gen.c0 * dt + gen.c1 * (mu * dt + z * _phi(p.beta_R, dt))) / gen.capacity_CG
    sd_g = (gen.c1 * p.sigma_R / gen.capacity_CG) * math.sqrt(_ig(p.beta_R, dt))
    return burn, sd_g


def battery_rho(cfg: ModelConfig) -> float:
    """State-free corr(Z', Q') under charge / full discharge."""
    bat, p = cfg.battery, cfg.demand
    dt = cfg.dt
    return -_jq(bat.eta0, p.beta_R, dt) / math.sqrt(_phi(2.0 * p.beta_R, dt) * _iq(bat.eta0, p.beta_R, dt))


def generator_rho(cfg: ModelConfig) -> float:
    """State-free corr(Z', G') under the full generator mode."""
    beta = cfg.demand.beta_R
    dt = cfg.dt
    return -_jg(beta, dt) / math.sqrt(_phi(2.0 * beta, dt) * _ig(beta, dt))


def cross_moments(n: int, z: float, q: float, a: Action, cfg: ModelConfig) -> tuple[float, float, float, float]:
    """(cov_ZQ, rho_Q, cov_ZG, rho_G) for the step-(n) transition.

    The state enters only through the frozen efficiency factor eta_E(t_n, z, q)
    scaling cov_ZQ; both correlations are state-free. At most one of the two
    covariances is nonzero because the battery and the generator are never
    simultaneously stochastic.
    """
    p = cfg.demand
    dt = cfg.dt
    _, var_Z = z_moments(n, z, cfg)
    sd_Z = math.sqrt(var_Z)
    if a in (Action.CHARGE, Action.DISCHARGE_FULL):
        eta = efficiency(cfg.t_of(n), z, q, cfg)
        cov_ZQ = -(eta * p.sigma_R**2 / cfg.battery.capacity_CQ) * _jq(cfg.battery.eta0, p.beta_R, dt)
        _, var_Q = q_moments(n, z, q, a, cfg)
        rho_Q = cov_ZQ / (sd_Z * math.sqrt(var_Q))
        return cov_ZQ, rho_Q, 0.0, 0.0
    if a is Action.FUEL_FULL:
        cov_ZG = -(cfg.generator.c1 * p.sigma_R**2 / cfg.generator.capacity_CG) * _jg(p.beta_R, dt)
        _, var_G = g_moments(n, z, 0.0, a, cfg)
        rho_G = cov_ZG / (sd_Z * math.sqrt(var_G))
        return 0.0, 0.0, cov_ZG, rho_G
    return 0.0, 0.0, 0.0, 0.0


def transition_moments(n: int, x: State, a: Action, cfg: ModelConfig) -> TransitionMoments:
    """All first and second conditional moments of (Z', Q', G') in one record."""
    m_Z, var_Z = z_moments(n, x.z, cfg)
    m_Q, var_Q = q_moments(n, x.z, x.q, a, cfg)
    m_G, var_G = g_moments(n, x.z, x.g, a, cfg)
    cov_ZQ, rho_Q, cov_ZG, rho_G = cross_moments(n, x.z, x.q, a, cfg)
    return TransitionMoments(m_Z, var_Z, m_Q, var_Q, m_G, var_G, cov_ZQ, rho_Q, cov_ZG, rho_G)


def transition_operator(n: int, x: State, a: Action, eps: NoiseVector, cfg: ModelConfig) -> State:
    """One exact-in-distribution step driven by three independent N(0,1) draws.

    Feasibility of the action is not checked here. The returned levels are
    not clamped to [0, 1]; callers that need physical trajectories clamp
    (the boundary states represent all overshooting levels).
    """
    mom = transition_moments(n, x, a, cfg)
    sd_Z = math.sqrt(mom.var_Z)
    z_next = mom.m_Z + sd_Z * eps.eps_Z
    q_next = mom.m_Q + math.sqrt(mom.var_Q) * (
        mom.rho_Q * eps.eps_Z + math.sqrt(1.0 - mom.rho_Q**2) * eps.eps_Q
    )
    g_next = mom.m_G + math.sqrt(mom.var_G) * (
        mom.rho_G * eps.eps_Z + math.sqrt(1.0 - mom.rho_G**2) * eps.eps_G
    )
    return State(z_next, q_next, g_next)
