"""Exact one-step conditional Gaussian laws of (Z, Q, G) and the noise map.

Within one step of length Delta the seasonal mean and the battery
efficiency are frozen at the left endpoint (piecewise-constant model
parameters), which makes the joint one-step law Gaussian with the
closed-form moments implemented here. The exponential integrals are
written with expm1-based helpers. The noise integrals I_Q, J_Q and I_G
have one route, noise_integral, which integrates their nonnegative
integrands by quadrature: their closed forms are difference quotients
that cancel when a rate gap such as eta0 - beta_R, or beta_R itself, is
small against 1 / Delta, and lose a few digits even where it is not.

That quadrature, and the terminal cost's integrals of the battery
efficiency, use one fixed rule: tanh_sinh, the double-exponential
(tanh-sinh) rule of Takahasi and Mori with step 2^-6 on |t| <= 3.5, 449
nodes built once at import. It integrates a smooth integrand, or one
with algebraic endpoint singularities such as q^l (1 - q)^m for a
non-integer l or m, to within a few units in the last place, and it
takes an array of intervals in one evaluation of the integrand.

The standard normal CDF of the package is ndtr: the standard library's
erfc, exact to about an ulp, applied inside |x| < NDTR_BAND, and exactly
0 or 1 beyond it. The transition kernel and the chance constraints read
it. With tanh_sinh here and the standard library's normal quantile in
calibrate, the package needs nothing beyond numpy and the standard
library.

Each law has one implementation, written for numpy arrays and read at a
single state by passing floats: z_law (mean and sd of Z'), q_moments and
g_moments (mean and sd of Q' and G' under any Action, the sd 0.0 for a
deterministic law; the Gaussian law of Q' reads the one efficiency rule
_efficiency), and the deterministic means discharge_limited_mean and
fuel_limited_mean; the state-free correlations are cfg.constants.rho_q
and rho_g. z_next is the one draw of Z'.

Every law of Q' and G' is split in two parts, one public pair.
law_drive(n, z, cfg, eps) gives the terms that read no level, over any
broadcast (step, z, noise) table, as a LawDrive: the battery drive
z q_psi + mu_R(t_n) q_phi and its charge regime mu_R(t_n) + z <= 0, the
generator burn, and each Gaussian axis's innovation
rho eps_Z + sqrt(1 - rho^2) eps, correlated with Z'. move_levels(drive,
a, q, g, cfg) adds the levels: it moves q and g under an Action or one
action code per entry. Which law moves Q' and G' under each action is
one (action, axis) table, _LAWS, and each axis has one level part that
gives the (mean, sd) of its next level under a law from the drive and
the level: _q_law and _g_law, with sd 0.0 for a deterministic law. A
Gaussian level is mean + sd * innovation, and a deterministic one is its
mean. move_levels runs each law that moves an axis once over the whole
batch, and each entry keeps its own action's level.

Everything composes the pair. q_moments and g_moments are a noise-free
drive and an axis's level part; transition_moments reads them at a
point and squares their sd for the variances; transition_operator is
z_next beside move_levels over the drive at (n, z, eps). The feasibility
mask reads q_moments under CHARGE and g_moments under FUEL_FULL over
whole lattices, and so do the transition blocks; the path simulator
builds one drive over its whole (step, path) table and calls move_levels
once per step. So every route sees the same (mean, sd) and the same rho.

What depends on the config only (the expm1 integrals, the decay factors,
both correlations, the stage cost's discount factors and the seasonal
mean mu_R(t_n) of every step) is a StepConstants record, built by
step_constants and kept on the config as cfg.constants, so it is derived
once per config object. Every law reads it from there. Its mu is a
read-only array over n = 0..N, read through seasonal_mean, which raises
KeyError for a step outside 0..N (a -1 does not wrap round to step N).

A law that takes a step n (law_drive, q_moments, g_moments and the
stage cost, and through them the blocks, the feasibility mask and the
path simulator) also takes an array of steps: a step array
broadcasts against the states as numpy broadcasts any argument. Each
step's entries have the bits of the int call, since every entry goes
through the same elementwise arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import Action, ModelConfig, State, eta_charge, eta_discharge, seasonality

__all__ = [
    "LawDrive",
    "NoiseVector",
    "NumericalError",
    "StepConstants",
    "TransitionMoments",
    "g_moments",
    "law_drive",
    "move_levels",
    "ndtr",
    "noise_integral",
    "q_moments",
    "seasonal_mean",
    "step_constants",
    "transition_moments",
    "transition_operator",
    "z_law",
    "z_next",
]

# The law that moves Q' and the one that moves G' under each action: the one
# map from actions to laws, a read-only (action, axis) table indexed by an
# Action or by an array of action codes. _GAUSSIAN is the Gaussian law of
# Q' / G', correlated with Z'; _LIMITED is discharge_limited_mean /
# fuel_limited_mean; _IDLE is self-discharge alone for Q' and no change for
# G'. Charge and full discharge share one law of Q' (their costs and
# feasibility differ).
_GAUSSIAN, _LIMITED, _IDLE = range(3)
_LAWS = np.array([  # action: (law of Q', law of G')
    (_IDLE, _IDLE),          # OVERSPILL
    (_GAUSSIAN, _IDLE),      # CHARGE
    (_IDLE, _IDLE),          # WAIT
    (_LIMITED, _IDLE),       # DISCHARGE_LIMITED
    (_GAUSSIAN, _IDLE),      # DISCHARGE_FULL
    (_IDLE, _LIMITED),       # FUEL_LIMITED
    (_IDLE, _GAUSSIAN),      # FUEL_FULL
])
_LAWS.flags.writeable = False


# Nodes t_k = k h, |k| <= 224, of the tanh-sinh rule on [-1, 1]: x_k = tanh(u_k)
# with u_k = (pi / 2) sinh(t_k). Each node is kept as its distances to the
# two endpoints over the interval length, (1 + x_k) / 2 = 1 / (1 + e^(-2 u_k))
# and (1 - x_k) / 2 = 1 / (1 + e^(2 u_k)), so that a node within 1e-23 of an
# endpoint is not rounded onto it. Per unit length of [a, b] a node weighs
# h (pi / 4) cosh(t_k) / cosh(u_k)^2, half its weight on [-1, 1], which is
# h pi cosh(t_k) times the product of the two distances.
_TS_STEP = 2.0**-6
_TS_T = np.arange(-224, 225) * _TS_STEP
_TS_U = 0.5 * math.pi * np.sinh(_TS_T)
_TS_FROM_A = 1.0 / (1.0 + np.exp(-2.0 * _TS_U))
_TS_FROM_B = 1.0 / (1.0 + np.exp(2.0 * _TS_U))
_TS_WEIGHT = _TS_STEP * math.pi * np.cosh(_TS_T) * _TS_FROM_A * _TS_FROM_B
_TS_LEFT_HALF = _TS_T < 0.0


def tanh_sinh(f, a, b):
    """int_a^b f(v) dv by the fixed tanh-sinh rule, over floats or arrays of intervals.

    a and b broadcast to the shape of the result; f is called once, on an
    array of that shape plus a trailing axis of the 449 nodes, and must
    broadcast. Nodes in the left half of an interval are placed from a,
    those in the right half from b. An empty interval (a == b) gives 0.
    """
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    span = b - a
    v = np.where(_TS_LEFT_HALF, a + span * _TS_FROM_A, b - span * _TS_FROM_B)
    return (f(v) * _TS_WEIGHT).sum(axis=-1) * span[..., 0]


# |x| at and beyond which ndtr returns exactly 0 or 1. The error there is at
# most Phi(-9) = 1.1e-19, below half an ulp of 1 (2^-53 = 1.1e-16). The
# transition kernel runs Genz's bivariate scheme inside the same band.
NDTR_BAND = 9.0
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def ndtr(x):
    """Standard normal CDF Phi(x) = erfc(-x / sqrt 2) / 2 of a float or an array.

    erfc is the standard library's, called only where |x| < NDTR_BAND;
    beyond the band the result is exactly 0 or 1, and NaN stays NaN. A
    float or a 0-d array gives a float, an array an array of its shape.
    """
    x = np.asarray(x, dtype=float)
    band = np.abs(x) < NDTR_BAND
    cdf = np.where(band, 0.0, np.heaviside(x, 0.5))
    cdf[band] = 0.5 * _ERFC(-x[band] / math.sqrt(2.0)).astype(float)
    return cdf[()]


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
    """int_0^dt e^(-a s) ds, stable as a -> 0.

    Below |a dt| = 1e-17 it is dt to within 5e-18 relative; above, a dt is
    never subnormal and the expm1 quotient keeps its precision.
    """
    if abs(a * dt) < 1e-17:
        return dt
    return -math.expm1(-a * dt) / a


def _psi(a: float, b: float, dt: float) -> float:
    """int_0^dt e^(-a (dt - s)) e^(-b s) ds = (e^(-b dt) - e^(-a dt)) / (a - b),
    taken as e^(-min(a, b) dt) phi(|a - b|, dt), which does not cancel."""
    return math.exp(-min(a, b) * dt) * _phi(abs(a - b), dt)


def noise_integral(w: float, delta: float, dt: float, power: int) -> float:
    """int_0^dt e^(-w v) phi(delta, v)^power dv by the tanh-sinh rule.

    phi(delta, v) = (1 - e^(-delta v)) / delta, or v at delta = 0. For
    w, delta >= 0 the integrand is smooth, nonnegative and bounded by
    v^power, so the rule is accurate to a few units in the last place
    and nothing overflows; step_constants passes its arguments so.
    """
    def integrand(v):
        phi = v if abs(delta * dt) < 1e-17 else -np.expm1(-delta * v) / delta  # as in _phi
        return np.exp(-w * v) * phi**power

    return float(tanh_sinh(integrand, 0.0, dt))


def _jg(beta: float, dt: float) -> float:
    """int_0^dt e^(-beta v) (1 - e^(-beta v)) / beta dv = (1 - e^(-beta dt))^2 / (2 beta^2)."""
    return (-math.expm1(-beta * dt)) ** 2 / (2.0 * beta * beta)


class StepConstants(NamedTuple):
    """Config-only constants of the one-step laws and of the stage cost.

    Built by step_constants and read as cfg.constants, which derives them
    once per config object. mu is a read-only array of the seasonal mean
    of every step n = 0..N; the laws read it through seasonal_mean, so a
    law called with a step outside the horizon raises KeyError instead of
    wrapping around.
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
    rho_q: float       # corr(Z', Q') under charge / full discharge, in (-1, 0]
    rho_g: float       # corr(Z', G') under the full generator mode, in (-1, 0]
    zeta1: float       # discount factors int_0^dt e^(-(rho + (i-1) beta_R) s) ds
    zeta2: float
    zeta3: float
    var_z: float       # stationary variance sigma_R^2 / (2 beta_R) of Z
    mu: np.ndarray     # mu_R(t_n), the seasonal mean frozen over step n, for n = 0..N


def step_constants(cfg: ModelConfig) -> StepConstants:
    """The step-free constants of cfg's laws and stage cost, and mu_R(t_n) per step.

    Higher residual demand drains the battery and burns fuel, so both
    correlations are minus a ratio of integrals with nonnegative
    integrands, and Cauchy-Schwarz keeps them above -1: rho_q and rho_g
    lie in (-1, 0], the only correlations the kernel's bivariate-normal
    scheme serves. Raises NumericalError if a constant is not finite or a
    correlation lies outside (-1, 0].
    """
    p, bat, gen = cfg.demand, cfg.battery, cfg.generator
    beta, eta0, rho = p.beta_R, bat.eta0, cfg.costs.rho
    dt = cfg.dt
    try:
        phi_2b = _phi(2.0 * beta, dt)
        # I_Q = int e^(-2 beta v) phi(eta0 - beta, v)^2 dv and J_Q the same with the
        # first power; phi(-d, v) = e^(d v) phi(d, v) moves the gap's sign into w
        low, gap = min(eta0, beta), abs(eta0 - beta)
        iq = noise_integral(2.0 * low, gap, dt, 2)
        ig = noise_integral(0.0, beta, dt, 2)
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
            rho_q=-noise_integral(beta + low, gap, dt, 1) / math.sqrt(phi_2b * iq),
            rho_g=-_jg(beta, dt) / math.sqrt(phi_2b * ig),
            zeta1=_phi(rho, dt),
            zeta2=_phi(rho + beta, dt),
            zeta3=_phi(rho + 2.0 * beta, dt),
            var_z=p.sigma_R**2 / (2.0 * beta),
            mu=np.array([seasonality(cfg.t_of(n), p)
                         for n in range(cfg.discretization.steps_N + 1)]),
        )
    except (ArithmeticError, ValueError) as exc:  # overflow, 0 / 0, sqrt of a negative
        raise NumericalError(f"one-step law constants: {exc}") from None
    # every field but mu, the last one, is a float
    bad = [name for name, value in zip(sc._fields, sc[:-1]) if not math.isfinite(value)]
    bad += [name for name in ("rho_q", "rho_g") if not -1.0 < getattr(sc, name) <= 0.0]
    if bad:
        raise NumericalError("one-step law constants out of range: "
                             + ", ".join(f"{name} = {getattr(sc, name)}" for name in bad))
    sc.mu.flags.writeable = False
    return sc


def seasonal_mean(n, cfg: ModelConfig):
    """mu_R(t_n) of step n as a float, or of each step of an array of steps in its shape.

    Every law that takes a step reads mu_R here, and a step array
    broadcasts against the states as numpy broadcasts any argument. A step
    outside 0..N, or one that is not an integer, raises KeyError; an array
    raises if any of its steps does.
    """
    mu = cfg.constants.mu
    if (type(n) is int or isinstance(n, np.integer)) and 0 <= n < mu.size:
        return mu.item(n)
    steps = np.asarray(n)
    inside = steps.dtype.kind in "iu" and ((steps >= 0) & (steps < mu.size)).all()
    if steps.ndim == 0 or not inside:
        raise KeyError(f"step {n!r} outside 0..{mu.size - 1}")
    return mu[steps]


def _efficiency(charging, q, cfg: ModelConfig):
    """Energy-conversion factor eta_E at level q in law_drive's regime charging.

    Charging (residual demand mu + z <= 0) applies eta_E^C(q) to the stored
    surplus; discharging applies 1 / eta_E^D(q) to the served demand.
    Broadcasts over charging and q; a scalar for scalars.
    """
    bat = cfg.battery
    return np.where(charging, eta_charge(q, bat), 1.0 / eta_discharge(q, bat))[()]


def _moments(axis_law, axis: int, n, z, level, a: Action, cfg: ModelConfig):
    """(mean, sd) of one axis of the next state under Action a, by axis_law; sd 0.0
    for a deterministic law.

    The one Action check of q_moments and g_moments: a that is not an
    Action raises ValueError. A step outside 0..N raises law_drive's
    KeyError, also where the axis's law is step-free.
    """
    if not isinstance(a, Action):
        raise ValueError(f"unknown action: {a!r}")
    return axis_law(_LAWS[a, axis], law_drive(n, z, cfg), level, cfg)


def q_moments(n, z, q, a: Action, cfg: ModelConfig):
    """(mean, sd) of Q_{n+1} under Action a, broadcast over n, z and q; sd 0.0 if deterministic.

    Under charge / full discharge both depend on the state through the
    frozen efficiency eta_E(t_n, z, q). Scalars for an int n and float z
    and q; a step array n broadcasts against z and q as numpy broadcasts
    any argument, so a 1-D one pairs with 1-D states entry by entry, and a
    leading step axis takes steps[:, None, None] against (z, 1) and (1, q)
    axes. An a that is not an Action raises ValueError.
    """
    return _moments(_q_law, 0, n, z, q, a, cfg)


def g_moments(n, z, g, a: Action, cfg: ModelConfig):
    """(mean, sd) of G_{n+1} under Action a, broadcast over n, z and g; sd 0.0 if deterministic.

    Under the full generator mode G_{n+1} ~ N(g - burn, sd^2): the burn
    depends on (n, z) only and the sd on no state at all, which the
    generator block exploits. An a that is not an Action raises ValueError.
    """
    return _moments(_g_law, 1, n, z, g, a, cfg)


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


def z_next(z, eps_Z, cfg: ModelConfig):
    """Z_{n+1} = m_Z + sd_Z eps_Z of z_law, driven by the standard normal eps_Z.

    The one draw of Z': transition_operator and the path simulator both
    make it here. Z' takes no action and no step, so a simulator can run a
    whole z path ahead of the actions. z and eps_Z are floats or arrays
    that broadcast.
    """
    m_Z, sd_Z = z_law(z, cfg)
    return m_Z + sd_Z * eps_Z


class LawDrive(NamedTuple):
    """The terms of the laws of Q' and G' that read no q or g level.

    law_drive builds them over any broadcast (step, z, noise) table, and
    move_levels adds the levels: the drive of the Gaussian laws, and each
    Gaussian axis's innovation, correlated with Z'. The innovations are
    None for a drive built without noise.
    """

    charging: np.ndarray              # mu_R(t_n) + z <= 0: the efficiency regime of Q'
    battery: np.ndarray               # z q_psi + mu_R(t_n) q_phi: Q' drifts by (eta / C_Q) battery
    burn: np.ndarray                  # the full generator mode's burn: G' ~ N(g - burn, sd_g^2)
    innovation_q: np.ndarray | None   # rho_q eps_Z + sqrt(1 - rho_q^2) eps_Q
    innovation_g: np.ndarray | None   # rho_g eps_Z + sqrt(1 - rho_g^2) eps_G


def law_drive(n, z, cfg: ModelConfig, eps: NoiseVector | None = None) -> LawDrive:
    """The level-free terms of the laws of Q' and G' at step n, z and, if given, noise eps.

    n, z and the fields of eps broadcast as numpy broadcasts any argument:
    an int step with floats gives scalars, and np.arange(N)[:, None]
    against a (step, path) table of z gives each entry its own step's
    terms. A step outside 0..N raises seasonal_mean's KeyError.
    """
    sc, gen = cfg.constants, cfg.generator
    dt = cfg.dt
    mu = seasonal_mean(n, cfg)
    innovations = [None, None] if eps is None else [
        rho * eps.eps_Z + math.sqrt(1.0 - rho * rho) * eps_axis
        for rho, eps_axis in ((sc.rho_q, eps.eps_Q), (sc.rho_g, eps.eps_G))]
    return LawDrive(mu + z <= 0.0, z * sc.q_psi + mu * sc.q_phi,
                    (gen.c0 * dt + gen.c1 * (mu * dt + z * sc.g_phi)) / gen.capacity_CG,
                    *innovations)


def transition_moments(n: int, x: State, a: Action, cfg: ModelConfig) -> TransitionMoments:
    """All first and second conditional moments of (Z', Q', G') in one record.

    Both correlations are state-free; each variance is the square of the
    law's sd and each covariance is rho * sd_Z * sd of the stochastic axis,
    taken from the sd itself so that it does not underflow with the
    variance. At most one covariance is nonzero because the battery and the
    generator are never simultaneously stochastic.
    """
    sc = cfg.constants
    m_Z, sd_Z = z_law(x.z, cfg)
    m_Q, sd_Q = q_moments(n, x.z, x.q, a, cfg)
    m_G, sd_G = g_moments(n, x.z, x.g, a, cfg)
    q_law, g_law = _LAWS[a]
    rho_Q = sc.rho_q if q_law == _GAUSSIAN else 0.0
    rho_G = sc.rho_g if g_law == _GAUSSIAN else 0.0
    return TransitionMoments(m_Z, sd_Z * sd_Z, m_Q, sd_Q * sd_Q, m_G, sd_G * sd_G,
                             rho_Q * sd_Z * sd_Q, rho_Q, rho_G * sd_Z * sd_G, rho_G)


def _q_law(law: int, drive: LawDrive, q, cfg: ModelConfig):
    """(mean, sd) of Q_{n+1} under one law of Q' at the drive's (n, z) and level q;
    sd is 0.0 for a deterministic law."""
    sc = cfg.constants
    if law == _GAUSSIAN:
        eta = _efficiency(drive.charging, q, cfg)
        m_q = q * sc.q_decay - (eta / cfg.battery.capacity_CQ) * drive.battery
        # evaluated left to right, (eta * q_noise) * q_sqrt_iq; regrouping changes the last bit
        return m_q, eta * sc.q_noise * sc.q_sqrt_iq
    if law == _LIMITED:
        return discharge_limited_mean(q, cfg), 0.0
    return q * sc.q_decay, 0.0


def _g_law(law: int, drive: LawDrive, g, cfg: ModelConfig):
    """(mean, sd) of G_{n+1} under one law of G' at the drive's (n, z) and level g;
    sd is 0.0 for a deterministic law."""
    if law == _GAUSSIAN:
        return g - drive.burn, cfg.constants.sd_g
    if law == _LIMITED:
        return fuel_limited_mean(g, cfg), 0.0
    return g, 0.0


def _move(axis_law, laws: np.ndarray, drive: LawDrive, level, innovation, cfg: ModelConfig):
    """One axis's next levels where entry p moves under law laws[p]: each law
    present runs once, over the whole batch, and each entry keeps the level
    of its own law (a lone law's levels are returned as they come). A
    Gaussian law's level is its mean plus its sd times the innovation, and a
    deterministic law's level is its mean as it comes (adding 0.0 times the
    innovation would turn a -0.0 level into 0.0)."""
    out = np.empty(laws.shape)  # the levels of an empty batch
    for i, law in enumerate(np.bincount(laws, minlength=3).nonzero()[0].tolist()):
        mean, sd = axis_law(law, drive, level, cfg)
        moved = mean + sd * innovation if law == _GAUSSIAN else mean
        out = np.where(laws == law, moved, out) if i else moved
    return out


def move_levels(drive: LawDrive, a, q, g, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """(Q', G') of every entry under its action, from a drive built with noise and the levels.

    a is an Action, or a 1-D integer array of Action codes with one code
    per entry of 1-D drive fields, q and g (any other a raises ValueError
    "unknown action"). Each law of Q' and of G' that a names runs once,
    over every entry, and each entry keeps the level of its own action's
    law, so it has the bits of the call with its own Action. An Action is
    the case of one law per axis. The levels are not clamped.
    """
    if isinstance(a, Action):
        laws = _LAWS[[a]]
    elif (isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind in "iu"
          and (a.size == 0 or 0 <= a.min() <= a.max() < len(Action))):
        laws = _LAWS.take(a, axis=0)
    else:
        raise ValueError(f"unknown action: {a!r}")
    return (_move(_q_law, laws[:, 0], drive, q, drive.innovation_q, cfg),
            _move(_g_law, laws[:, 1], drive, g, drive.innovation_g, cfg))


def transition_operator(n: int, x: State, a, eps: NoiseVector, cfg: ModelConfig) -> State:
    """One exact-in-distribution step driven by three independent N(0,1) draws.

    Feasibility of the action is not checked here. The returned levels are
    not clamped to [0, 1]; callers that need physical trajectories clamp
    (the boundary states represent all overshooting levels). The fields of
    x and eps may be floats or arrays of one shape, such as one entry per
    simulated path; every law broadcasts, so each entry gets the bits of
    the scalar call.

    a is an Action, or a 1-D integer array of Action codes with one code
    per entry of 1-D fields of x and eps, as move_levels takes it: Z' is
    z_next, and Q' and G' are move_levels over law_drive at (n, z, eps).
    A step outside 0..N raises KeyError whatever the laws.
    """
    return State(z_next(x.z, eps.eps_Z, cfg),
                 *move_levels(law_drive(n, x.z, cfg, eps), a, x.q, x.g, cfg))
