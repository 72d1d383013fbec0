"""Exact one-step conditional Gaussian laws of (Z, Q, G) and the noise map.

Within one step of length Delta the seasonal mean and the battery
efficiency are frozen at the left endpoint (piecewise-constant model
parameters), which makes the joint one-step law Gaussian with the
closed-form moments implemented here. All integral kernels are written
with expm1-based helpers; where a closed form is a difference quotient
that cancels (a rate gap such as eta0 - beta_R, or beta_R itself, small
against 1 / Delta), the integral is taken by quadrature instead.

Each law has one implementation, written for numpy arrays and read at a
single state by passing floats: z_law (mean and sd of Z'), battery_law
(mean and sd of Q' under charge / full discharge, through the one regime
rule efficiency), generator_law (burn and sd of G' under the full
generator mode), and the deterministic means discharge_limited_mean and
fuel_limited_mean; the state-free correlations are cfg.constants.rho_q
and rho_g. The feasibility mask and the transition blocks read them
over whole lattices; the scalar API (z/q/g_moments,
transition_moments), the path sampler transition_operator and the path
simulator read them at a point. A variance is sd * sd, whose square root
is sd again exactly in binary64, so every route sees the same (mean, sd)
and the same rho.

What depends on the config only (the expm1 integrals, the decay factors,
both correlations, the stage cost's discount factors and the seasonal
mean mu_R(t_n) of every step) is a StepConstants record, built by
step_constants and kept on the config as cfg.constants, so it is derived
once per config object. Every law reads it from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from .config import Action, ModelConfig, State, eta_charge, eta_discharge, seasonality

__all__ = [
    "NoiseVector",
    "NumericalError",
    "StepConstants",
    "TransitionMoments",
    "battery_law",
    "efficiency",
    "g_moments",
    "generator_law",
    "q_moments",
    "step_constants",
    "transition_moments",
    "transition_operator",
    "z_law",
    "z_moments",
]

# Below this |rate gap| * dt, the difference quotients of _phi lose more
# than about 1e-13 relative to cancellation; the kernels switch to forms
# that do not cancel.
_CANCELLING_GAP = 0.1

# The actions under which Q' is Gaussian (one shared law; costs and
# feasibility differ, the transition does not).
_GAUSSIAN_Q_ACTIONS = (Action.CHARGE, Action.DISCHARGE_FULL)


class NumericalError(RuntimeError):
    """A numerical invariant failed (non-normalizing row, non-finite value)."""


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
    if abs(a - b) * dt < _CANCELLING_GAP:
        return math.exp(-b * dt) * _phi(a - b, dt)
    return (math.exp(-b * dt) - math.exp(-a * dt)) / (a - b)


def _kernel_quad(w: float, delta: float, dt: float, power: int) -> float:
    """int_0^dt e^(-w v) phi(delta, v)^power dv by adaptive quadrature.

    The integrand is smooth and nonnegative, so this stays accurate to
    rounding where the closed forms below cancel.
    """
    value, _ = quad(lambda v: math.exp(-w * v) * _phi(delta, v) ** power, 0.0, dt,
                    epsabs=0.0, epsrel=1e-13)
    return value


def _iq(eta0: float, beta: float, dt: float) -> float:
    """I_Q = int_0^dt ((e^(-beta v) - e^(-eta0 v)) / (eta0 - beta))^2 dv.

    The integrand is e^(-2 beta v) phi(eta0 - beta, v)^2, with the limit
    v^2 e^(-2 beta v) at eta0 = beta.
    """
    if abs(eta0 - beta) * dt < _CANCELLING_GAP:
        return _kernel_quad(2.0 * beta, eta0 - beta, dt, 2)
    return (_phi(2.0 * beta, dt) - 2.0 * _phi(beta + eta0, dt) + _phi(2.0 * eta0, dt)) / (eta0 - beta) ** 2


def _jq(eta0: float, beta: float, dt: float) -> float:
    """J_Q = int_0^dt e^(-beta v) (e^(-beta v) - e^(-eta0 v)) / (eta0 - beta) dv."""
    if abs(eta0 - beta) * dt < _CANCELLING_GAP:
        return _kernel_quad(2.0 * beta, eta0 - beta, dt, 1)
    return (_phi(2.0 * beta, dt) - _phi(beta + eta0, dt)) / (eta0 - beta)


def _ig(beta: float, dt: float) -> float:
    """I_G = int_0^dt ((1 - e^(-beta v)) / beta)^2 dv = int_0^dt phi(beta, v)^2 dv."""
    if beta * dt < _CANCELLING_GAP:
        return _kernel_quad(0.0, beta, dt, 2)
    return (dt - 2.0 * _phi(beta, dt) + _phi(2.0 * beta, dt)) / (beta * beta)


def _jg(beta: float, dt: float) -> float:
    """int_0^dt e^(-beta v) (1 - e^(-beta v)) / beta dv = (1 - e^(-beta dt))^2 / (2 beta^2)."""
    return (-math.expm1(-beta * dt)) ** 2 / (2.0 * beta * beta)


class StepConstants(NamedTuple):
    """Config-only constants of the one-step laws and of the stage cost.

    Built by step_constants and read as cfg.constants, which derives them
    once per config object. mu holds the seasonal mean of every step
    n = 0..N; looking up any other step raises KeyError, so a law called
    with a step outside the horizon fails instead of wrapping around.
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
    mu: dict[int, float]  # mu_R(t_n), the seasonal mean frozen over step n, for n = 0..N


def step_constants(cfg: ModelConfig) -> StepConstants:
    """The step-free constants of cfg's laws and stage cost, and mu_R(t_n) per step.

    Raises NumericalError if a constant is not finite or a correlation
    does not lie strictly inside (-1, 1).
    """
    p, bat, gen = cfg.demand, cfg.battery, cfg.generator
    beta, eta0, rho = p.beta_R, bat.eta0, cfg.costs.rho
    dt = cfg.dt
    try:
        phi_2b = _phi(2.0 * beta, dt)
        iq = _iq(eta0, beta, dt)
        ig = _ig(beta, dt)
        sc = StepConstants(
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
            mu={n: seasonality(cfg.t_of(n), p) for n in range(cfg.discretization.steps_N + 1)},
        )
    except (ArithmeticError, ValueError) as exc:  # overflow, 0 / 0, sqrt of a negative
        raise NumericalError(f"one-step law constants: {exc}") from None
    # every field but mu, the last one, is a float
    bad = [name for name, value in zip(sc._fields, sc[:-1]) if not math.isfinite(value)]
    bad += [name for name in ("rho_q", "rho_g") if not abs(getattr(sc, name)) < 1.0]
    if bad:
        raise NumericalError("one-step law constants out of range: "
                             + ", ".join(f"{name} = {getattr(sc, name)}" for name in bad))
    return sc


def z_moments(n: int, z: float, cfg: ModelConfig) -> tuple[float, float]:
    """Conditional mean and variance of Z_{n+1} given Z_n = z."""
    cfg.constants.mu[n]  # a step outside 0..N raises KeyError, as in every law
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
    """efficiency at the seasonal mean mu: the one regime rule."""
    bat = cfg.battery
    return np.where(mu + z <= 0.0, eta_charge(q, bat), 1.0 / eta_discharge(q, bat))[()]


def q_moments(n: int, z: float, q: float, a: Action, cfg: ModelConfig) -> tuple[float, float]:
    """Conditional mean and variance of Q_{n+1} given state and action."""
    cfg.constants.mu[n]  # KeyError for a step outside 0..N, also on the step-free branches
    if a in _GAUSSIAN_Q_ACTIONS:
        m_Q, sd_Q = battery_law(n, z, q, cfg)
        return m_Q, sd_Q * sd_Q
    if a is Action.DISCHARGE_LIMITED:
        return discharge_limited_mean(q, cfg), 0.0
    if isinstance(a, Action):
        return q * cfg.constants.q_decay, 0.0
    raise ValueError(f"unknown action: {a!r}")


def g_moments(n: int, z: float, g: float, a: Action, cfg: ModelConfig) -> tuple[float, float]:
    """Conditional mean and variance of G_{n+1} given state and action."""
    cfg.constants.mu[n]  # KeyError for a step outside 0..N, also on the step-free branches
    if a is Action.FUEL_FULL:
        burn, sd_G = generator_law(n, z, cfg)
        return g - burn, sd_G * sd_G
    if a is Action.FUEL_LIMITED:
        return fuel_limited_mean(g, cfg), 0.0
    if isinstance(a, Action):
        return g, 0.0
    raise ValueError(f"unknown action: {a!r}")


def discharge_limited_mean(q, cfg: ModelConfig):
    """Deterministic Q_{n+1} under limited discharge; q a float or an array."""
    bat, sc = cfg.battery, cfg.constants
    eta = 1.0 / eta_discharge(q, bat)
    return q * sc.q_decay - (eta * bat.R_Q0 / bat.capacity_CQ) * sc.q_phi


def fuel_limited_mean(g, cfg: ModelConfig):
    """Deterministic G_{n+1} under the limited generator mode; g a float or an array."""
    gen = cfg.generator
    return g - (gen.c0 + gen.c1 * gen.R_G0) * cfg.dt / gen.capacity_CG


def z_law(z, cfg: ModelConfig) -> tuple[np.ndarray, float]:
    """(mean, standard deviation) of Z_{n+1} over a float or an array of z; step-free."""
    sc = cfg.constants
    return z * sc.z_decay, sc.sd_z


def battery_law(n: int, z, q, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """(mean, sd) of Q_{n+1} under charge / full discharge, broadcast over z and q.

    Both depend on the state through the frozen efficiency eta_E(t_n, z, q);
    scalars for float z and q.
    """
    sc = cfg.constants
    mu = sc.mu[n]
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
    gen, sc = cfg.generator, cfg.constants
    dt = cfg.dt
    burn = (gen.c0 * dt + gen.c1 * (sc.mu[n] * dt + z * sc.g_phi)) / gen.capacity_CG
    return burn, sc.sd_g


def transition_moments(n: int, x: State, a: Action, cfg: ModelConfig) -> TransitionMoments:
    """All first and second conditional moments of (Z', Q', G') in one record.

    Both correlations are state-free; each covariance is rho * sd_Z * sd of
    the stochastic axis. At most one of them is nonzero because the battery
    and the generator are never simultaneously stochastic.
    """
    sc = cfg.constants
    m_Z, sd_Z = z_law(x.z, cfg)
    m_Q, var_Q = q_moments(n, x.z, x.q, a, cfg)
    m_G, var_G = g_moments(n, x.z, x.g, a, cfg)
    rho_Q = sc.rho_q if a in _GAUSSIAN_Q_ACTIONS else 0.0
    rho_G = sc.rho_g if a is Action.FUEL_FULL else 0.0
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
    sc = cfg.constants
    m_Z, sd_Z = z_law(x.z, cfg)
    if a in _GAUSSIAN_Q_ACTIONS:
        m_Q, sd_Q = battery_law(n, x.z, x.q, cfg)
        q_next = _correlated(m_Q, sd_Q, sc.rho_q, eps.eps_Z, eps.eps_Q)
    else:
        q_next = q_moments(n, x.z, x.q, a, cfg)[0]
    if a is Action.FUEL_FULL:
        burn, sd_G = generator_law(n, x.z, cfg)
        g_next = _correlated(x.g - burn, sd_G, sc.rho_g, eps.eps_Z, eps.eps_G)
    else:
        g_next = g_moments(n, x.z, x.g, a, cfg)[0]
    return State(m_Z + sd_Z * eps.eps_Z, q_next, g_next)
