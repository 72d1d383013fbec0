"""Truncated, discretized state space and cell lookup.

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

from .config import ModelConfig

__all__ = ["Axis", "StateGrid", "build_grid", "cell_of", "clamp01", "z_truncation"]


@dataclass(frozen=True)
class Axis:
    """One grid axis: points and the interior cell boundaries between them."""

    name: str
    points: np.ndarray  # shape (n_points,), strictly increasing, equidistant
    edges: np.ndarray   # shape (n_points - 1,), midpoints between adjacent points

    @property
    def n_points(self) -> int:
        return len(self.points)


def _make_axis(name: str, lo_point: float, hi_point: float, n_intervals: int) -> Axis:
    points = np.linspace(lo_point, hi_point, n_intervals + 1)
    return Axis(name=name, points=points, edges=0.5 * (points[:-1] + points[1:]))


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

    def lin(self, i, j, k):
        """Row-major linear state id of (i, j, k): ints, or integer arrays that broadcast."""
        _, nj, nk = self.shape
        return (i * nj + j) * nk + k


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
        z=_make_axis("z", -zbar, zbar, d.N_Z),
        q=_make_axis("q", 0.0, 1.0, d.N_Q),
        g=_make_axis("g", 0.0, 1.0, d.N_G),
    )


def clamp01(v):
    """A q or g level, or an array of them, clamped to its physical box [0, 1].

    A NaN level stays NaN, so the next cell_of call refuses it. On a tie
    np.maximum returns its second argument: -0.0 clamps to +0.0, the bits
    a path CSV has always shown.
    """
    return np.minimum(np.maximum(v, 0.0), 1.0)


def cell_of(value, axis: Axis):
    """Index of the cell of axis that contains value; cells are (lo, hi].

    value is a float, for which the index is an int, or an array of levels,
    for which it is an integer array of the same shape. On the q/g axes
    values below 0 map to index 0 and values above 1 map to the top index;
    the boundary cells represent the clamped physical states. A NaN
    anywhere in value raises ValueError naming the axis.
    """
    levels = np.asarray(value, dtype=float)
    if np.isnan(levels).any():
        raise ValueError(f"cannot locate NaN on axis {axis.name!r}")
    # first interior edge >= value owns it, since cells are (lo, hi]
    cells = axis.edges.searchsorted(levels, side="left")
    return cells if cells.ndim else int(cells)
