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

What depends on the config only (the expm1 integrals, the decay factors,
both correlations, the stage cost's discount factors) lives in
StepConstants, computed by step_constants. Every public law takes the
config and the step index, derives the constants and the seasonal mean
mu_R(t_n), and calls its private form (_z_law, _battery_law, ...), which
takes them as arguments; the path simulator computes the constants once
per path and calls the private forms directly, so both run the same
formula code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import Action, ModelConfig, State, eta_charge, eta_discharge, seasonality

__all__ = [
    "NoiseVector",
    "StepConstants",
    "TransitionMoments",
    "battery_law",
    "battery_rho",
    "efficiency",
    "g_moments",
    "generator_law",
    "generator_rho",
    "q_moments",
    "step_constants",
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


class StepConstants(NamedTuple):
    """Config-only constants of the one-step laws and of the stage cost.

    The public laws below and cost.expected_stage_cost derive them on
    every call; a caller that keeps one instance (the path simulator)
    passes it to their private forms and pays for the integrals once.
    """

    z_decay: float     # e^(-beta_R dt): E[Z'] = z z_decay
    sd_z: float        # sd of Z'
    q_decay: float     # e^(-eta0 dt): self-discharge of Q over one step
    q_psi: float       # psi(eta0, beta_R, dt): weight of z in the battery drift
    q_phi: float       # phi(eta0, dt): weight of mu_R in the battery drift
    q_noise: float     # sigma_R / C_Q
    q_sqrt_iq: float   # sqrt(I_Q); sd of Q' is (eta q_noise) q_sqrt_iq
    g_phi: float       # phi(beta_R, dt): weight of z in the generator burn
    sd_g: float        # sd of G' under the full generator mode
    rho_q: float       # corr(Z', Q') under charge / full discharge
    rho_g: float       # corr(Z', G') under the full generator mode
    zeta1: float       # discount factors int_0^dt e^(-(rho + (i-1) beta_R) s) ds
    zeta2: float
    zeta3: float
    var_z: float       # stationary variance sigma_R^2 / (2 beta_R) of Z


def step_constants(cfg: ModelConfig) -> StepConstants:
    """The step-free constants of cfg's laws and stage cost."""
    p, bat, gen = cfg.demand, cfg.battery, cfg.generator
    beta, eta0, rho = p.beta_R, bat.eta0, cfg.costs.rho
    dt = cfg.dt
    phi_2b = _phi(2.0 * beta, dt)
    iq = _iq(eta0, beta, dt)
    ig = _ig(beta, dt)
    return StepConstants(
        z_decay=math.exp(-beta * dt),
        sd_z=math.sqrt(p.sigma_R**2 * phi_2b),
        q_decay=math.exp(-eta0 * dt),
        q_psi=_psi(eta0, beta, dt),
        q_phi=_phi(eta0, dt),
        q_noise=p.sigma_R / bat.capacity_CQ,
        q_sqrt_iq=math.sqrt(iq),
        g_phi=_phi(beta, dt),
        sd_g=(gen.c1 * p.sigma_R / gen.capacity_CG) * math.sqrt(ig),
        rho_q=-_jq(eta0, beta, dt) / math.sqrt(phi_2b * iq),
        rho_g=-_jg(beta, dt) / math.sqrt(phi_2b * ig),
        zeta1=_phi(rho, dt),
        zeta2=_phi(rho + beta, dt),
        zeta3=_phi(rho + 2.0 * beta, dt),
        var_z=p.sigma_R**2 / (2.0 * beta),
    )


def _seasonal_mean(n: int, cfg: ModelConfig) -> float:
    """mu_R(t_n), the seasonal mean frozen over step n."""
    return seasonality(cfg.t_of(n), cfg.demand)


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
    return _efficiency(seasonality(t, cfg.demand), z, q, cfg)


def _efficiency(mu: float, z, q, cfg: ModelConfig):
    bat = cfg.battery
    return np.where(mu + z <= 0.0, eta_charge(q, bat), 1.0 / eta_discharge(q, bat))[()]


def q_moments(n: int, z: float, q: float, a: Action, cfg: ModelConfig) -> tuple[float, float]:
    """Conditional mean and variance of Q_{n+1} given state and action."""
    return _q_moments(_seasonal_mean(n, cfg), z, q, a, cfg, step_constants(cfg))


def _q_moments(mu: float, z: float, q: float, a: Action, cfg: ModelConfig,
               sc: StepConstants) -> tuple[float, float]:
    if a in _GAUSSIAN_Q_ACTIONS:
        m_Q, sd_Q = _battery_law(mu, z, q, cfg, sc)
        return m_Q, sd_Q * sd_Q
    if a is Action.DISCHARGE_LIMITED:
        return _discharge_limited_mean(q, cfg, sc), 0.0
    if isinstance(a, Action):
        return q * sc.q_decay, 0.0
    raise ValueError(f"unknown action: {a!r}")


def g_moments(n: int, z: float, g: float, a: Action, cfg: ModelConfig) -> tuple[float, float]:
    """Conditional mean and variance of G_{n+1} given state and action."""
    return _g_moments(_seasonal_mean(n, cfg), z, g, a, cfg, step_constants(cfg))


def _g_moments(mu: float, z: float, g: float, a: Action, cfg: ModelConfig,
               sc: StepConstants) -> tuple[float, float]:
    if a is Action.FUEL_FULL:
        burn, sd_G = _generator_law(mu, z, cfg, sc)
        return g - burn, sd_G * sd_G
    if a is Action.FUEL_LIMITED:
        return fuel_limited_mean(g, cfg), 0.0
    if isinstance(a, Action):
        return g, 0.0
    raise ValueError(f"unknown action: {a!r}")


def discharge_limited_mean(q, cfg: ModelConfig):
    """Deterministic Q_{n+1} under limited discharge; q a float or an array."""
    return _discharge_limited_mean(q, cfg, step_constants(cfg))


def _discharge_limited_mean(q, cfg: ModelConfig, sc: StepConstants):
    bat = cfg.battery
    eta = 1.0 / eta_discharge(q, bat)
    return q * sc.q_decay - (eta * bat.R_Q0 / bat.capacity_CQ) * sc.q_phi


def fuel_limited_mean(g, cfg: ModelConfig):
    """Deterministic G_{n+1} under the limited generator mode; g a float or an array."""
    gen = cfg.generator
    return g - (gen.c0 + gen.c1 * gen.R_G0) * cfg.dt / gen.capacity_CG


def z_law(z, cfg: ModelConfig) -> tuple[np.ndarray, float]:
    """(mean, standard deviation) of Z_{n+1} over a float or an array of z; step-free."""
    return _z_law(z, step_constants(cfg))


def _z_law(z, sc: StepConstants):
    return z * sc.z_decay, sc.sd_z


def battery_law(n: int, z, q, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """(mean, sd) of Q_{n+1} under charge / full discharge, broadcast over z and q.

    Both depend on the state through the frozen efficiency eta_E(t_n, z, q);
    scalars for float z and q.
    """
    return _battery_law(_seasonal_mean(n, cfg), z, q, cfg, step_constants(cfg))


def _battery_law(mu: float, z, q, cfg: ModelConfig, sc: StepConstants):
    eta = _efficiency(mu, z, q, cfg)
    h = z * sc.q_psi + mu * sc.q_phi
    m_q = q * sc.q_decay - (eta / cfg.battery.capacity_CQ) * h
    # evaluated left to right, (eta * q_noise) * q_sqrt_iq; regrouping changes the last bit
    sd_q = eta * sc.q_noise * sc.q_sqrt_iq
    return m_q, sd_q


def generator_law(n: int, z, cfg: ModelConfig) -> tuple[np.ndarray, float]:
    """(burn, sd) of the full generator mode for a float or array z: G_{n+1} ~ N(g - burn, sd^2).

    The burn depends on z only and the standard deviation on no state at
    all; the generator block exploits exactly this structure.
    """
    return _generator_law(_seasonal_mean(n, cfg), z, cfg, step_constants(cfg))


def _generator_law(mu: float, z, cfg: ModelConfig, sc: StepConstants):
    gen = cfg.generator
    dt = cfg.dt
    burn = (gen.c0 * dt + gen.c1 * (mu * dt + z * sc.g_phi)) / gen.capacity_CG
    return burn, sc.sd_g


def battery_rho(cfg: ModelConfig) -> float:
    """State-free corr(Z', Q') under charge / full discharge."""
    return step_constants(cfg).rho_q


def generator_rho(cfg: ModelConfig) -> float:
    """State-free corr(Z', G') under the full generator mode."""
    return step_constants(cfg).rho_g


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
    return _transition(_seasonal_mean(n, cfg), x, a, eps, cfg, step_constants(cfg))


def _transition(mu: float, x: State, a: Action, eps: NoiseVector, cfg: ModelConfig,
                sc: StepConstants) -> State:
    m_Z, sd_Z = _z_law(x.z, sc)
    if a in _GAUSSIAN_Q_ACTIONS:
        m_Q, sd_Q = _battery_law(mu, x.z, x.q, cfg, sc)
        q_next = _correlated(m_Q, sd_Q, sc.rho_q, eps.eps_Z, eps.eps_Q)
    else:
        q_next = _q_moments(mu, x.z, x.q, a, cfg, sc)[0]
    if a is Action.FUEL_FULL:
        burn, sd_G = _generator_law(mu, x.z, cfg, sc)
        g_next = _correlated(x.g - burn, sd_G, sc.rho_g, eps.eps_Z, eps.eps_G)
    else:
        g_next = _g_moments(mu, x.z, x.g, a, cfg, sc)[0]
    return State(m_Z + sd_Z * eps.eps_Z, q_next, g_next)
