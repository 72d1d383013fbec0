"""Truncated, discretized state space and cell (neighborhood) geometry.

Each axis carries N+1 equidistant grid points; every point owns a half-open
cell (left-open, right-closed] bounded by the midpoints to its neighbors.
On the z axis the outer cells extend to -inf / +inf (3-sigma truncation of
an unbounded residual); on the q and g axes the outer cells clamp at the
physical bounds 0 and 1, and any overshoot is attributed to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig, State

__all__ = ["Axis", "StateGrid", "build_grid", "cell_of", "neighborhood", "z_truncation"]


@dataclass(frozen=True)
class Axis:
    """One grid axis: points, interior cell boundaries, and outer bounds."""

    name: str
    points: np.ndarray  # shape (n_points,), strictly increasing, equidistant
    edges: np.ndarray   # shape (n_points - 1,), midpoints between adjacent points
    lo: float           # lower bound of the bottom cell (-inf on z, 0.0 on q/g)
    hi: float           # upper bound of the top cell (+inf on z, 1.0 on q/g)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def step(self) -> float:
        return float(self.points[1] - self.points[0])


def _make_axis(name: str, lo_point: float, hi_point: float, n_intervals: int,
               lo: float, hi: float) -> Axis:
    points = np.linspace(lo_point, hi_point, n_intervals + 1)
    edges = 0.5 * (points[:-1] + points[1:])
    return Axis(name=name, points=points, edges=edges, lo=lo, hi=hi)


@dataclass(frozen=True)
class StateGrid:
    """Product grid over (z, q, g) with a flattened index map."""

    z: Axis
    q: Axis
    g: Axis

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.z.n_points, self.q.n_points, self.g.n_points)

    @property
    def n_states(self) -> int:
        ni, nj, nk = self.shape
        return ni * nj * nk

    def lin(self, i: int, j: int, k: int) -> int:
        """Linear state id of multi-index (i, j, k)."""
        _, nj, nk = self.shape
        return (i * nj + j) * nk + k

    def ijk(self, m: int) -> tuple[int, int, int]:
        """Multi-index of linear state id m."""
        _, nj, nk = self.shape
        i, rem = divmod(m, nj * nk)
        j, k = divmod(rem, nk)
        return i, j, k

    def state_of(self, m: int) -> State:
        """Continuous representative (grid point) of linear state id m."""
        i, j, k = self.ijk(m)
        return State(float(self.z.points[i]), float(self.q.points[j]), float(self.g.points[k]))


def z_truncation(cfg: ModelConfig) -> float:
    """zbar = 3 sigma_R / sqrt(2 beta_R), the 3-sigma band of the stationary Z law."""
    return 3.0 * cfg.demand.sigma_R / math.sqrt(2.0 * cfg.demand.beta_R)


def build_grid(cfg: ModelConfig) -> StateGrid:
    """Construct the truncated state grid for a validated config.

    The z axis spans [-zbar, zbar] (see z_truncation). N_Z is odd, so
    z = 0 falls exactly between the two central grid points.
    """
    d = cfg.discretization
    zbar = z_truncation(cfg)
    return StateGrid(
        z=_make_axis("z", -zbar, zbar, d.N_Z, -math.inf, math.inf),
        q=_make_axis("q", 0.0, 1.0, d.N_Q, 0.0, 1.0),
        g=_make_axis("g", 0.0, 1.0, d.N_G, 0.0, 1.0),
    )


def neighborhood(axis: Axis, i: int) -> tuple[float, float]:
    """Half-open cell (lo, hi] owned by grid point i on the axis."""
    if not 0 <= i < axis.n_points:
        raise IndexError(f"point index {i} out of range for axis {axis.name!r}")
    lo = axis.lo if i == 0 else float(axis.edges[i - 1])
    hi = axis.hi if i == axis.n_points - 1 else float(axis.edges[i])
    return lo, hi


def _clamp01(v: float) -> float:
    """A q or g level clamped to its physical box [0, 1]."""
    return min(1.0, max(0.0, v))


def cell_of(value: float, axis: Axis) -> int:
    """Index of the cell of axis that contains value; cells are (lo, hi].

    On the q/g axes values below 0 map to index 0 and values above 1 map to
    the top index; the boundary cells represent the clamped physical states.
    A NaN value raises ValueError.
    """
    if math.isnan(value):
        raise ValueError(f"cannot locate NaN on axis {axis.name!r}")
    # first interior edge >= value owns it, since cells are (lo, hi]
    return int(np.searchsorted(axis.edges, value, side="left"))
