"""Running cost, closed-form expected discounted stage cost, terminal cost.

The instantaneous cost is piecewise in the action: fuel expenditure for
generator modes, battery degradation proportional to throughput, and a
quadratic discomfort penalty on unserved (or over-limit) residual demand.
Its discounted one-step expectation along the frozen-coefficient dynamics
has a closed form in the discount factors zeta_1..zeta_3.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy.integrate import quad

from .config import Action, ModelConfig, State, eta_charge, eta_discharge, seasonality
from .dynamics import StepConstants, step_constants

__all__ = [
    "StageCost",
    "expected_stage_cost",
    "running_cost",
    "terminal_cost",
]


@dataclass(frozen=True)
class StageCost:
    """Instantaneous cost rate [EUR/h] split into its three sources."""

    fuel: float
    degradation: float
    discomfort: float

    @property
    def value(self) -> float:
        return self.fuel + self.degradation + self.discomfort


def running_cost(t: float, x: State, a: Action, cfg: ModelConfig) -> StageCost:
    """Instantaneous cost at time t in state x under action a."""
    c = cfg.costs
    r = seasonality(t, cfg.demand) + x.z
    if a is Action.FUEL_FULL:
        return StageCost(c.fuel_price_F0 * (cfg.generator.c0 + cfg.generator.c1 * r), 0.0, 0.0)
    if a is Action.FUEL_LIMITED:
        r0 = cfg.generator.R_G0
        return StageCost(
            c.fuel_price_F0 * (cfg.generator.c0 + cfg.generator.c1 * r0),
            0.0,
            c.k0 * (r - r0) ** 2,
        )
    if a is Action.DISCHARGE_FULL:
        return StageCost(0.0, c.gamma_deg * r, 0.0)
    if a is Action.DISCHARGE_LIMITED:
        r0 = cfg.battery.R_Q0
        return StageCost(0.0, c.gamma_deg * r0, c.k0 * (r - r0) ** 2)
    if a is Action.CHARGE:
        return StageCost(0.0, c.gamma_deg * abs(r), 0.0)
    if a is Action.WAIT:
        return StageCost(0.0, 0.0, c.k0 * r**2)
    if a is Action.OVERSPILL:
        return StageCost(0.0, 0.0, 0.0)
    raise ValueError(f"unknown action: {a!r}")


def expected_stage_cost(k: int, x: State, a: Action, cfg: ModelConfig) -> float:
    """Closed-form discounted expected cost of step k: E int_0^Delta e^(-rho s) psi ds.

    Along one step the residual demand is R(s) = mu_{R,k} + Z(s) with
    E[Z(s)|z] = z e^(-beta s) and Var[Z(s)] = sigma^2/(2 beta) (1 - e^(-2 beta s)),
    so every branch reduces to a combination of zeta_1, zeta_2, zeta_3.
    The closed form is plain arithmetic in z, so x.z may also be a numpy
    array; the result then has its shape (a float for overspill).
    """
    return _expected_stage_cost(seasonality(cfg.t_of(k), cfg.demand), x.z, a, cfg,
                                step_constants(cfg))


def _expected_stage_cost(mu: float, z, a: Action, cfg: ModelConfig, sc: StepConstants):
    """expected_stage_cost at seasonal mean mu, from the config's step-free constants."""
    c = cfg.costs

    def quad_around(r0: float) -> float:
        # E int e^(-rho s) k0 (R(s) - r0)^2 ds
        return c.k0 * (
            ((mu - r0) ** 2 + sc.var_z) * sc.zeta1
            + 2.0 * (mu - r0) * z * sc.zeta2
            + (z * z - sc.var_z) * sc.zeta3
        )

    if a is Action.FUEL_FULL:
        g = cfg.generator
        return c.fuel_price_F0 * ((g.c0 + g.c1 * mu) * sc.zeta1 + g.c1 * z * sc.zeta2)
    if a is Action.FUEL_LIMITED:
        g = cfg.generator
        return c.fuel_price_F0 * (g.c0 + g.c1 * g.R_G0) * sc.zeta1 + quad_around(g.R_G0)
    if a is Action.DISCHARGE_FULL:
        return c.gamma_deg * (mu * sc.zeta1 + z * sc.zeta2)
    if a is Action.DISCHARGE_LIMITED:
        return c.gamma_deg * cfg.battery.R_Q0 * sc.zeta1 + quad_around(cfg.battery.R_Q0)
    if a is Action.CHARGE:
        # feasible only under surplus (r < 0), where |r| = -r
        return -c.gamma_deg * (mu * sc.zeta1 + z * sc.zeta2)
    if a is Action.WAIT:
        return quad_around(0.0)
    if a is Action.OVERSPILL:
        return 0.0
    raise ValueError(f"unknown action: {a!r}")


def terminal_cost(x: State, cfg: ModelConfig) -> float:
    """Terminal penalty/liquidation value [EUR] at the horizon.

    Recharging the battery up to the contractual level q_ref is penalized
    at gamma_pen_Q per kWh of grid-side energy (accounting for charging
    losses); SoC above q_ref and leftover fuel are liquidated.
    """
    c, bat = cfg.costs, cfg.battery
    q = x.q
    cost = 0.0
    if q < c.q_ref and c.gamma_pen_Q > 0.0:
        shortfall, _ = quad(lambda v: 1.0 / eta_charge(v, bat), q, c.q_ref, epsabs=1e-12, epsrel=1e-12)
        cost += c.gamma_pen_Q * bat.capacity_CQ * shortfall
    if q > c.q_ref and c.gamma_liq_Q > 0.0:
        surplus, _ = quad(lambda v: eta_discharge(v, bat), c.q_ref, q, epsabs=1e-12, epsrel=1e-12)
        cost -= c.gamma_liq_Q * bat.capacity_CQ * surplus
    cost -= c.gamma_liq_G * cfg.generator.capacity_CG * x.g
    return cost
