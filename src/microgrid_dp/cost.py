"""Closed-form expected discounted stage cost and terminal cost.

The instantaneous cost rate is piecewise in the action: fuel expenditure
for generator modes, battery degradation proportional to throughput, and
a quadratic discomfort penalty on unserved (or over-limit) residual
demand. Only its discounted one-step expectation along the
frozen-coefficient dynamics is coded; it has a closed form in the
discount factors zeta_1..zeta_3.
"""

from __future__ import annotations

import numpy as np

from .config import Action, ModelConfig, State, eta_charge, eta_discharge
from .dynamics import seasonal_mean, tanh_sinh

__all__ = ["expected_stage_cost", "terminal_cost"]

# A Python float's d ** 2 for each entry of an array: libm's pow, whose last
# bit can differ from d * d, and an OverflowError where it overflows, as in
# the float route of an int step.
_SQUARE = np.frompyfunc(lambda d: d ** 2, 1, 1)


def expected_stage_cost(k, x: State, a: Action, cfg: ModelConfig) -> float:
    """Closed-form discounted expected cost of step k: E int_0^Delta e^(-rho s) psi ds.

    Along one step the residual demand is R(s) = mu_{R,k} + Z(s) with
    E[Z(s)|z] = z e^(-beta s) and Var[Z(s)] = sigma^2/(2 beta) (1 - e^(-2 beta s)),
    so every branch reduces to a combination of zeta_1, zeta_2, zeta_3.
    The closed form is plain arithmetic in z, so x.z may also be a numpy
    array; the result then has its shape (a float for overspill). k may be
    an array of steps: a step array broadcasts against the states as numpy
    broadcasts any argument, so np.arange(N)[:, None] against a (step,
    path) table of z gives each entry its own step's cost, and a 1-D one
    pairs with a 1-D z entry by entry. Every entry has the bits of the int
    call at its step. The discount factors, the stationary variance and
    mu_{R,k} come from cfg.constants; a step k outside 0..N raises KeyError.
    """
    c, sc = cfg.costs, cfg.constants
    mu, z = seasonal_mean(k, cfg), x.z

    def quad_around(r0: float) -> float:
        # E int e^(-rho s) k0 (R(s) - r0)^2 ds
        dev = mu - r0
        return c.k0 * (
            ((dev ** 2 if isinstance(dev, float) else _SQUARE(dev).astype(float))
             + sc.var_z) * sc.zeta1
            + 2.0 * dev * z * sc.zeta2
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
    losses); SoC above q_ref and leftover fuel are liquidated. x.q and x.g
    may be floats or arrays that broadcast: each battery integral is one
    call of the tanh-sinh rule over all q, and the fuel part is linear in
    g. A float for float q and g. Both integrals always run (a zero
    coefficient adds +0.0). q must lie in [0, 1], as on the grid: above 1,
    a non-integer m_D makes the liquidation integrand NaN.
    """
    c, bat = cfg.costs, cfg.battery
    q = np.asarray(x.q, dtype=float)
    # an empty interval integrates to 0: no shortfall above q_ref, no surplus below it
    shortfall = tanh_sinh(lambda v: 1.0 / eta_charge(v, bat), np.minimum(q, c.q_ref), c.q_ref)
    surplus = tanh_sinh(lambda v: eta_discharge(v, bat), c.q_ref, np.maximum(q, c.q_ref))
    cost = (c.gamma_pen_Q * bat.capacity_CQ * shortfall
            - c.gamma_liq_Q * bat.capacity_CQ * surplus
            - c.gamma_liq_G * cfg.generator.capacity_CG * np.asarray(x.g, dtype=float))
    return cost if cost.ndim else float(cost)
