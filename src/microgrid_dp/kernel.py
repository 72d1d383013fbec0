"""Per-step transition probability blocks of the discretized chain.

For each (step, source state, action) the next continuous state is
Gaussian on the stochastic axes and deterministic (Dirac) on the others,
so the probability of landing in a grid cell is a normal rectangle mass:

- charge / full discharge: bivariate (Z, Q) rectangle x Dirac on G;
- full generator: bivariate (Z, G) rectangle x Dirac on Q;
- limited modes, wait, overspill: univariate Z mass x two Diracs.

Mass overshooting the physical q/g box accumulates in the boundary cells;
the z boundary cells own the (-inf, .] and (., +inf) tails. The solver
consumes whole blocks per backward step (TransitionKernel.*_block), whose
bivariate masses come from a Gauss-Legendre bivariate-normal algorithm.
The Dirac axes need no probabilities: their target cells are step-free
maps per source level, taken once per kernel from the deterministic
branches of dynamics.q_moments/g_moments.

A block is the inclusion-exclusion of the bivariate CDF over the lattice
of cell edges. The CDF is evaluated by Genz's scheme only on interior
edges; the rows and columns of the infinite tail edges take their closed
forms (0, the univariate CDF, 1). The generator block also uses an exact
structure of its law, G' ~ N(g - burn(z), sd^2) with a state-free sd on
an equidistant g axis: every standardized g edge is a shared offset
(edge_f - point_k) shifted by burn(z_i), so one CDF lattice per z source
serves all g sources, each reading its window at f - k.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .config import Action, ModelConfig
from .dynamics import (NumericalError, battery_law, battery_rho, g_moments, generator_law,
                       generator_rho, q_moments, z_law)
from .grid import Axis, StateGrid, cell_of, clamp01

__all__ = ["NumericalError", "TransitionKernel"]

# Row mass may deviate from 1 by CDF rounding dust up to this bound; it is
# then renormalized once. Larger deviations indicate a logic bug.
_ROW_SUM_TOL = 1e-6


# Gauss-Legendre nodes/weights (half rules; mirrored around the midpoint).
_GL_RULES = (
    (0.3, np.array([0.9324695142031522, 0.6612093864662647, 0.2386191860831970]),
     np.array([0.1713244923791705, 0.3607615730481384, 0.4679139345726904])),
    (0.75, np.array([0.9815606342467191, 0.9041172563704750, 0.7699026741943050,
                     0.5873179542866171, 0.3678314989981802, 0.1252334085114692]),
     np.array([0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
               0.2031674267230659, 0.2334925365383547, 0.2491470458134029])),
    (1.0, np.array([0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
                    0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
                    0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
                    0.07652652113349733]),
     np.array([0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
               0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
               0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
               0.1527533871307259])),
)


def _gl_rule(abs_rho: float) -> tuple[np.ndarray, np.ndarray]:
    for bound, x_half, w_half in _GL_RULES:
        if abs_rho < bound or bound == 1.0:
            x = np.concatenate((1.0 - x_half, 1.0 + x_half))
            w = np.concatenate((w_half, w_half))
            return x, w
    raise AssertionError("unreachable")


def _bvn_upper(h: np.ndarray, k: np.ndarray, rho: float) -> np.ndarray:
    """P(X > h, Y > k) for standard bivariate normals with scalar correlation.

    Vectorized port of the Drezner-Wesolowsky / Genz Gauss-Legendre scheme
    (6/12/20 nodes by correlation band, with the high-|rho| tail expansion).
    Inputs must be finite; callers clip +-inf bounds to +-37 beforehand.
    """
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    if rho == 0.0:
        return ndtr(-h) * ndtr(-k)
    twopi = 2.0 * math.pi
    x, w = _gl_rule(abs(rho))

    if abs(rho) < 0.925:
        hk = h * k
        hs = 0.5 * (h * h + k * k)
        asr = 0.5 * math.asin(rho)
        sn = np.sin(asr * x)  # (nodes,)
        expo = np.multiply.outer(hk, sn)
        expo -= hs[..., None]
        expo /= 1.0 - sn**2
        # Far cells drive exponents to -1e3 and below, where exp underflows
        # through subnormals (many times slower). Terms below e^-700 move
        # the result by < 1e-300, so clamp them there.
        np.maximum(expo, -700.0, out=expo)
        bvn = np.exp(expo, out=expo) @ w
        return np.clip(bvn * asr / twopi + ndtr(-h) * ndtr(-k), 0.0, 1.0)

    # high-correlation branch
    if rho < 0.0:
        k = -k
    hk = h * k
    ass = 1.0 - rho * rho
    a = math.sqrt(ass)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 80.0
    asr0 = -0.5 * (bs / ass + hk)
    bvn = np.where(
        asr0 > -100.0,
        a * np.exp(asr0) * (1.0 - c * (bs - ass) * (1.0 - d * bs) / 3.0 + c * d * ass * ass),
        0.0,
    )
    b = np.sqrt(bs)
    sp = math.sqrt(twopi) * ndtr(-b / a)
    hk_ok = hk > -100.0  # exp(-hk/2) overflows where the term is dropped anyway
    exp_hk = np.exp(np.where(hk_ok, -0.5 * hk, 0.0))
    bvn = bvn - np.where(hk_ok, exp_hk * sp * b * (1.0 - c * bs * (1.0 - d * bs) / 3.0), 0.0)
    a_half = 0.5 * a
    xs = (a_half * x) ** 2  # (nodes,)
    asr1 = -0.5 * (bs[..., None] / xs + hk[..., None])
    sp1 = 1.0 + c[..., None] * xs * (1.0 + 5.0 * d[..., None] * xs)
    rs = np.sqrt(1.0 - xs)
    ep = np.exp(-0.5 * hk[..., None] * xs / (1.0 + rs) ** 2) / rs
    terms = np.where(asr1 > -100.0, np.exp(asr1) * (sp1 - ep), 0.0)
    bvn = (a_half * (terms @ w) - bvn) / twopi
    if rho > 0.0:
        bvn = bvn + ndtr(-np.maximum(h, k))
    else:
        low_mass = np.where(h < 0.0, ndtr(k) - ndtr(h), ndtr(-h) - ndtr(-k))
        bvn = np.where(h >= k, -bvn, low_mass - bvn)
    return np.clip(bvn, 0.0, 1.0)


def _bvn_cdf(x: np.ndarray, y: np.ndarray, rho: float) -> np.ndarray:
    """P(X <= x, Y <= y) for standard bivariate normals, scalar correlation."""
    return _bvn_upper(-x, -y, rho)


_CLIP = 37.0  # |z| beyond which the standard normal CDF is exactly 0/1 in float64


def _tail_edges(axis_edges: np.ndarray) -> np.ndarray:
    """Interior cell edges extended with infinite tails (boundary absorption)."""
    return np.concatenate(([-np.inf], axis_edges, [np.inf]))


def _std_edges(edges: np.ndarray, mean, sd) -> np.ndarray:
    """Standardize cell edges against broadcast means/sds, clipped to +-_CLIP."""
    return np.clip((edges - np.asarray(mean)[..., None]) / np.asarray(sd)[..., None], -_CLIP, _CLIP)


def _cdf_lattice(std_a: np.ndarray, std_b: np.ndarray, rho: float) -> np.ndarray:
    """Bivariate CDF over the edge lattice, tails included: shape (..., NA + 2, NB + 2).

    std_a (..., NA) and std_b (..., NB) are standardized interior edges;
    only there is the bivariate CDF evaluated. A -inf edge gives 0, a +inf
    edge the univariate CDF of the other coordinate, (+inf, +inf) gives 1.
    """
    inner = _bvn_cdf(std_a[..., :, None], std_b[..., None, :], rho)
    cdf = np.zeros(inner.shape[:-2] + (inner.shape[-2] + 2, inner.shape[-1] + 2))
    cdf[..., 1:-1, 1:-1] = inner
    cdf[..., 1:-1, -1] = ndtr(std_a)
    cdf[..., -1, 1:-1] = ndtr(std_b)
    cdf[..., -1, -1] = 1.0
    return cdf


def _lattice_masses(cdf: np.ndarray) -> np.ndarray:
    """Cell masses (..., NA + 1, NB + 1) by inclusion-exclusion over a CDF lattice."""
    return np.clip(np.diff(np.diff(cdf, axis=-1), axis=-2), 0.0, None)


def _rect_masses(std_a: np.ndarray, std_b: np.ndarray, rho: float) -> np.ndarray:
    """Cell masses (..., NA + 1, NB + 1) from standardized interior edges (..., NA), (..., NB).

    The outer cells of both axes reach to -inf / +inf.
    """
    return _lattice_masses(_cdf_lattice(std_a, std_b, rho))


def _normalize_rows(mass: np.ndarray, axes: tuple[int, ...], what: str) -> np.ndarray:
    total = mass.sum(axis=axes, keepdims=True)
    worst = float(np.abs(1.0 - total).max())
    if worst > _ROW_SUM_TOL:
        raise NumericalError(f"{what}: row mass deviates from 1 by {worst:.3e} (> {_ROW_SUM_TOL})")
    return mass / total


def _cells(levels: np.ndarray, axis: Axis) -> np.ndarray:
    """Cell index of each level, clamped to the physical box first."""
    return np.array([cell_of(clamp01(float(v)), axis) for v in levels])


class TransitionKernel:
    """Vectorized transition blocks and Dirac target maps of one (config, grid).

    The battery and generator blocks depend on the step through the
    seasonal mean, so they are recomputed per call; the solver asks for
    each once per backward step. The z block and the Dirac target maps of
    the deterministic moves are step-free and are computed once.
    """

    def __init__(self, cfg: ModelConfig, grid: StateGrid):
        self.cfg = cfg
        self.grid = grid
        self._z_block: np.ndarray | None = None
        # The deterministic branches of the moment laws ignore n and z.
        q, g = grid.q.points, grid.g.points
        self._q_idle = _cells(q_moments(0, 0.0, q, Action.WAIT, cfg)[0], grid.q)
        self._q_limited = _cells(q_moments(0, 0.0, q, Action.DISCHARGE_LIMITED, cfg)[0], grid.q)
        self._g_limited = _cells(g_moments(0, 0.0, g, Action.FUEL_LIMITED, cfg)[0], grid.g)

    # -- Dirac target maps (step-independent) --------------------------------

    def q_idle_targets(self) -> np.ndarray:
        """Target q-cell for the self-discharge-only move, per source q index."""
        return self._q_idle

    def q_limited_targets(self) -> np.ndarray:
        """Target q-cell under limited discharge, per source q index."""
        return self._q_limited

    def g_limited_targets(self) -> np.ndarray:
        """Target g-cell under the limited generator mode, per source g index."""
        return self._g_limited

    # -- Vectorized blocks ----------------------------------------------------

    def z_block(self) -> np.ndarray:
        """Univariate Z cell masses, shape (z sources, z cells); step-free."""
        if self._z_block is None:
            m, sd = z_law(self.grid.z.points, self.cfg)
            std = _std_edges(_tail_edges(self.grid.z.edges), m, sd)
            mass = np.clip(np.diff(ndtr(std), axis=-1), 0.0, None)
            self._z_block = _normalize_rows(mass, (-1,), "z rows")
        return self._z_block

    def battery_block(self, n: int) -> np.ndarray:
        """Joint (Z, Q) cell masses for charge / full discharge at step n.

        Shape (z src, q src, z cell, q cell); rows sum to 1 over the last
        two axes. The law is shared by both actions (costs and feasibility
        differ, the transition does not).
        """
        grid = self.grid
        m_z, sd_z = z_law(grid.z.points, self.cfg)
        m_q, sd_q = battery_law(n, grid.z.points[:, None], grid.q.points[None, :], self.cfg)
        std_z = _std_edges(grid.z.edges, m_z, sd_z)[:, None, :]
        std_q = _std_edges(grid.q.edges, m_q, sd_q)
        mass = _rect_masses(std_z, std_q, battery_rho(self.cfg))
        return _normalize_rows(mass, (-2, -1), f"battery block n={n}")

    def generator_block(self, n: int) -> np.ndarray:
        """Joint (Z, G) cell masses for the full generator mode at step n.

        Shape (z src, g src, z cell, g cell); rows sum to 1 over the last
        two axes. The standardized g edge f of source (i, k) is
        (edge_f - point_k + burn_i) / sd_g, and edge_f - point_k depends on
        f - k only, so each z source needs one CDF lattice over the 2 N_G
        shared offsets; g source k reads the window of offsets f - k.
        """
        grid = self.grid
        pts, edges = grid.g.points, grid.g.edges
        n_int = edges.size  # N_G interior g edges; offsets f - k run over -N_G .. N_G - 1
        m_z, sd_z = z_law(grid.z.points, self.cfg)
        burn, sd_g = generator_law(n, grid.z.points, self.cfg)
        offsets = np.concatenate((edges[0] - pts[:0:-1], edges - pts[0]))
        std_z = _std_edges(grid.z.edges, m_z, sd_z)
        std_g = _std_edges(offsets, -burn, sd_g)
        cdf = _cdf_lattice(std_z, std_g, generator_rho(self.cfg))  # (z src, z edge, offset)
        # Padded column of interior edge f (column f + 1) for source k is
        # f - k + N_G + 1; the two tail columns are shared by every source.
        cols = np.arange(n_int + 2)[None, :] - np.arange(pts.size)[:, None] + n_int
        cols[:, 0] = 0
        cols[:, -1] = 2 * n_int + 1
        mass = _lattice_masses(cdf[:, :, cols].transpose(0, 2, 1, 3))
        return _normalize_rows(mass, (-2, -1), f"generator block n={n}")
