"""Exact one-step conditional Gaussian laws of (Z, Q, G) and the noise map.

Within one step of length Delta the seasonal mean and the battery
efficiency are frozen at the left endpoint (piecewise-constant model
parameters), which makes the joint one-step law Gaussian with the
closed-form moments implemented here. All integral kernels are written
with expm1-based helpers so they stay stable for small rates and handle
the removable singularity at eta0 = beta_R.

Each law has one implementation, written for numpy arrays and read at a
single state by passing floats: z_law (mean and sd of Z'), battery_law
(mean and sd of Q' under charge / full discharge, through the one regime
rule efficiency), generator_law (burn and sd of G' under the full
generator mode), the state-free correlations battery_rho and
generator_rho, and the deterministic means discharge_limited_mean and
fuel_limited_mean. The feasibility mask and the transition blocks read
them over whole lattices. The scalar API (z/q/g_moments,
transition_moments) and the path sampler transition_operator read them at
a point: a variance is sd * sd, whose square root is sd again exactly in
binary64, so every route sees the same (mean, sd) and the same rho.
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

# The actions under which Q' is Gaussian (one shared law; costs and
# feasibility differ, the transition does not).
_GAUSSIAN_Q_ACTIONS = (Action.CHARGE, Action.DISCHARGE_FULL)


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
    m_Z, sd_Z = z_law(z, cfg)
    return m_Z, sd_Z * sd_Z


def efficiency(t: float, z, q, cfg: ModelConfig):
    """Energy-conversion factor eta_E frozen at (t, z, q); z and q floats or arrays.

    Charging (residual demand mu_R(t) + z <= 0) applies eta_E^C(q) to the
    stored surplus; discharging applies 1 / eta_E^D(q) to the served demand.
    Broadcasts over z and q; a scalar for float arguments.
    """
    bat = cfg.battery
    return np.where(seasonality(t, cfg.demand) + z <= 0.0,
                    eta_charge(q, bat), 1.0 / eta_discharge(q, bat))[()]


def q_moments(n: int, z: float, q: float, a: Action, cfg: ModelConfig) -> tuple[float, float]:
    """Conditional mean and variance of Q_{n+1} given state and action."""
    if a in _GAUSSIAN_Q_ACTIONS:
        m_Q, sd_Q = battery_law(n, z, q, cfg)
        return m_Q, sd_Q * sd_Q
    if a is Action.DISCHARGE_LIMITED:
        return discharge_limited_mean(q, cfg), 0.0
    if a in Action:
        return q * math.exp(-cfg.battery.eta0 * cfg.dt), 0.0
    raise ValueError(f"unknown action: {a!r}")


def g_moments(n: int, z: float, g: float, a: Action, cfg: ModelConfig) -> tuple[float, float]:
    """Conditional mean and variance of G_{n+1} given state and action."""
    if a is Action.FUEL_FULL:
        burn, sd_G = generator_law(n, z, cfg)
        return g - burn, sd_G * sd_G
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


def z_law(z, cfg: ModelConfig) -> tuple[np.ndarray, float]:
    """(mean, standard deviation) of Z_{n+1} over a float or an array of z; step-free."""
    p = cfg.demand
    return z * math.exp(-p.beta_R * cfg.dt), math.sqrt(p.sigma_R**2 * _phi(2.0 * p.beta_R, cfg.dt))


def battery_law(n: int, z, q, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """(mean, sd) of Q_{n+1} under charge / full discharge, broadcast over z and q.

    Both depend on the state through the frozen efficiency eta_E(t_n, z, q);
    scalars for float z and q.
    """
    bat, p = cfg.battery, cfg.demand
    dt = cfg.dt
    t = cfg.t_of(n)
    eta = efficiency(t, z, q, cfg)
    h = z * _psi(bat.eta0, p.beta_R, dt) + seasonality(t, p) * _phi(bat.eta0, dt)
    m_q = q * math.exp(-bat.eta0 * dt) - (eta / bat.capacity_CQ) * h
    sd_q = eta * (p.sigma_R / bat.capacity_CQ) * math.sqrt(_iq(bat.eta0, p.beta_R, dt))
    return m_q, sd_q


def generator_law(n: int, z, cfg: ModelConfig) -> tuple[np.ndarray, float]:
    """(burn, sd) of the full generator mode for a float or array z: G_{n+1} ~ N(g - burn, sd^2).

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


def transition_moments(n: int, x: State, a: Action, cfg: ModelConfig) -> TransitionMoments:
    """All first and second conditional moments of (Z', Q', G') in one record.

    Both correlations are state-free; each covariance is rho * sd_Z * sd of
    the stochastic axis. At most one of them is nonzero because the battery
    and the generator are never simultaneously stochastic.
    """
    m_Z, sd_Z = z_law(x.z, cfg)
    m_Q, var_Q = q_moments(n, x.z, x.q, a, cfg)
    m_G, var_G = g_moments(n, x.z, x.g, a, cfg)
    rho_Q = battery_rho(cfg) if a in _GAUSSIAN_Q_ACTIONS else 0.0
    rho_G = generator_rho(cfg) if a is Action.FUEL_FULL else 0.0
    return TransitionMoments(m_Z, sd_Z * sd_Z, m_Q, var_Q, m_G, var_G,
                             rho_Q * sd_Z * math.sqrt(var_Q), rho_Q,
                             rho_G * sd_Z * math.sqrt(var_G), rho_G)


def _correlated(m: float, sd: float, rho: float, eps_Z: float, eps: float) -> float:
    """m + sd * (rho eps_Z + sqrt(1 - rho^2) eps): one axis correlated with Z'."""
    return float(m + sd * (rho * eps_Z + math.sqrt(1.0 - rho * rho) * eps))


def transition_operator(n: int, x: State, a: Action, eps: NoiseVector, cfg: ModelConfig) -> State:
    """One exact-in-distribution step driven by three independent N(0,1) draws.

    Feasibility of the action is not checked here. The returned levels are
    not clamped to [0, 1]; callers that need physical trajectories clamp
    (the boundary states represent all overshooting levels).
    """
    m_Z, sd_Z = z_law(x.z, cfg)
    if a in _GAUSSIAN_Q_ACTIONS:
        m_Q, sd_Q = battery_law(n, x.z, x.q, cfg)
        q_next = _correlated(m_Q, sd_Q, battery_rho(cfg), eps.eps_Z, eps.eps_Q)
    else:
        q_next = q_moments(n, x.z, x.q, a, cfg)[0]
    if a is Action.FUEL_FULL:
        burn, sd_G = generator_law(n, x.z, cfg)
        g_next = _correlated(x.g - burn, sd_G, generator_rho(cfg), eps.eps_Z, eps.eps_G)
    else:
        g_next = g_moments(n, x.z, x.g, a, cfg)[0]
    return State(m_Z + sd_Z * eps.eps_Z, q_next, g_next)
