"""State- and time-dependent feasible action sets via Gaussian chance constraints.

The sign of the residual demand r_n = mu_R(t_n) + z splits the alphabet:
under surplus (r_n < 0) only overspilling or charging make sense; under
deficit only serving actions do. A level-moving action is kept only if the
next battery/fuel level respects its physical box with probability at
least 1 - epsilon (deterministic moves: exactly), with the probabilistic
check applied in the action's direction of motion: charging guards both
ends of the box, discharging and fuel burning guard depletion below 0, so
a full battery may still serve demand. Near zero residual demand (within
half a grid cell of 0) the only feasible control is to wait.

Two routes decide the same sets from the same numbers. feasible_actions
works on one state, with a reason for every excluded action;
feasibility_mask decides all states of a step at once as broadcast numpy
over the (z, q, g) lattice and is what the solver calls. Both take the
means and standard deviations from the dynamics laws (the scalar moments
read them at a point) and compare the one tail helper _box_tails with
epsilon, so they agree even where a tail probability sits exactly at
epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .config import Action, ModelConfig, State, seasonality
from .dynamics import (battery_law, discharge_limited_mean, fuel_limited_mean, g_moments,
                       generator_law, q_moments)
from .grid import StateGrid, z_truncation

__all__ = ["FeasibleSet", "feasibility_mask", "feasible_actions", "near_zero_halfwidth"]


@dataclass(frozen=True)
class FeasibleSet:
    """Feasible actions in canonical order, plus why each excluded one fell out."""

    actions: tuple[Action, ...]
    excluded: dict[Action, str] = field(default_factory=dict)

    def __contains__(self, a: Action) -> bool:
        return a in self.actions

    def __iter__(self):
        return iter(self.actions)

    def __len__(self) -> int:
        return len(self.actions)


def near_zero_halfwidth(cfg: ModelConfig) -> float:
    """Half-width of the near-zero residual-demand band: Delta_z / 2."""
    return z_truncation(cfg) / cfg.discretization.N_Z


def _box_tails(m, sd):
    """(P(next level < 0), P(next level > 1)) for N(m, sd^2), sd > 0; floats or arrays."""
    return ndtr(-m / sd), ndtr((m - 1.0) / sd)


def _box_chance(m: float, var: float, eps: float, check_upper: bool) -> str | None:
    """None if the next level stays in [0, 1] with chance >= 1 - eps, else the reason."""
    if var > 0.0:
        below, above = _box_tails(m, np.sqrt(var))
        if below >= eps:
            return f"P(next level < 0) >= {eps}"
        if check_upper and above >= eps:
            return f"P(next level > 1) >= {eps}"
        return None
    if m < 0.0:
        return "deterministic next level < 0"
    if check_upper and m > 1.0:
        return "deterministic next level > 1"
    return None


def feasible_actions(n: int, x: State, cfg: ModelConfig) -> FeasibleSet:
    """Feasible action set U(n, x); never empty."""
    eps = cfg.discretization.epsilon
    r = seasonality(cfg.t_of(n), cfg.demand) + x.z

    if abs(r) < near_zero_halfwidth(cfg):
        reason = "near-zero residual demand band"
        return FeasibleSet(
            actions=(Action.WAIT,),
            excluded={a: reason for a in Action if a is not Action.WAIT},
        )

    feasible: list[Action] = []
    excluded: dict[Action, str] = {}

    def consider(a: Action, reason: str | None) -> None:
        if reason is None:
            feasible.append(a)
        else:
            excluded[a] = reason

    if r < 0.0:
        consider(Action.OVERSPILL, None)
        m, var = q_moments(n, x.z, x.q, Action.CHARGE, cfg)
        consider(Action.CHARGE, _box_chance(m, var, eps, check_upper=True))
        for a in (Action.WAIT, Action.DISCHARGE_LIMITED, Action.DISCHARGE_FULL,
                  Action.FUEL_LIMITED, Action.FUEL_FULL):
            excluded[a] = "surplus production (r < 0)"
    else:
        excluded[Action.OVERSPILL] = "positive residual demand (r >= 0)"
        excluded[Action.CHARGE] = "positive residual demand (r >= 0)"
        consider(Action.WAIT, None)

        if r >= cfg.battery.R_Q0:
            m, var = q_moments(n, x.z, x.q, Action.DISCHARGE_LIMITED, cfg)
            consider(Action.DISCHARGE_LIMITED, _box_chance(m, var, eps, check_upper=False))
        else:
            excluded[Action.DISCHARGE_LIMITED] = f"residual demand below threshold R_Q0 = {cfg.battery.R_Q0}"
        m, var = q_moments(n, x.z, x.q, Action.DISCHARGE_FULL, cfg)
        consider(Action.DISCHARGE_FULL, _box_chance(m, var, eps, check_upper=False))

        if r >= cfg.generator.R_G0:
            m, var = g_moments(n, x.z, x.g, Action.FUEL_LIMITED, cfg)
            consider(Action.FUEL_LIMITED, _box_chance(m, var, eps, check_upper=False))
        else:
            excluded[Action.FUEL_LIMITED] = f"residual demand below threshold R_G0 = {cfg.generator.R_G0}"
        m, var = g_moments(n, x.z, x.g, Action.FUEL_FULL, cfg)
        consider(Action.FUEL_FULL, _box_chance(m, var, eps, check_upper=False))

    feasible.sort()
    return FeasibleSet(actions=tuple(feasible), excluded=excluded)


def feasibility_mask(n: int, grid: StateGrid, cfg: ModelConfig) -> np.ndarray:
    """Boolean mask (action, i, j, k): True where the action is feasible.

    The same decisions as feasible_actions at every grid state, taken for
    the whole lattice at once: the residual-demand regime depends on z
    only, the battery checks on (z, q) and the fuel checks on (z, g).
    """
    eps = cfg.discretization.epsilon
    z, q, g = grid.z.points, grid.q.points, grid.g.points
    r = seasonality(cfg.t_of(n), cfg.demand) + z
    band = np.abs(r) < near_zero_halfwidth(cfg)
    surplus = ~band & (r < 0.0)
    deficit = ~band & (r >= 0.0)
    q_below, q_above = _box_tails(*battery_law(n, z[:, None], q[None, :], cfg))
    burn, sd_g = generator_law(n, z, cfg)
    g_below, _ = _box_tails(g[None, :] - burn[:, None], sd_g)

    mask = np.zeros((len(Action),) + grid.shape, dtype=bool)
    mask[Action.OVERSPILL] = surplus[:, None, None]
    mask[Action.CHARGE] = (surplus[:, None] & (q_below < eps) & (q_above < eps))[:, :, None]
    mask[Action.WAIT] = ~surplus[:, None, None]
    q_lim_ok = ~(discharge_limited_mean(q, cfg) < 0.0)
    mask[Action.DISCHARGE_LIMITED] = ((deficit & (r >= cfg.battery.R_Q0))[:, None]
                                      & q_lim_ok[None, :])[:, :, None]
    mask[Action.DISCHARGE_FULL] = (deficit[:, None] & (q_below < eps))[:, :, None]
    g_lim_ok = ~(fuel_limited_mean(g, cfg) < 0.0)
    mask[Action.FUEL_LIMITED] = ((deficit & (r >= cfg.generator.R_G0))[:, None]
                                 & g_lim_ok[None, :])[:, None, :]
    mask[Action.FUEL_FULL] = (deficit[:, None] & (g_below < eps))[:, None, :]
    return mask
