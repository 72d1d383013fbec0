"""Per-step transition probability blocks of the discretized chain.

For each (step, source state, action) the next continuous state is
Gaussian on the stochastic axes and deterministic (Dirac) on the others,
so the probability of landing in a grid cell is a normal rectangle mass:

- charge / full discharge: bivariate (Z, Q) rectangle x Dirac on G;
- full generator: bivariate (Z, G) rectangle x Dirac on Q;
- limited modes, wait, overspill: univariate Z mass x two Diracs.

Mass overshooting the physical q/g box accumulates in the boundary cells;
the z boundary cells own the (-inf, .] and (., +inf) tails. The solver
consumes whole blocks per backward step (TransitionKernel: z_block,
battery_block(n), generator_block(n)). The Dirac axes need no
probabilities: their target cells are step-free maps per source level,
taken once per kernel from the deterministic branches of
dynamics.q_moments/g_moments.

The bivariate masses come from Genz's bivariate-normal scheme (Genz 2004,
Stat. Comput. 14:251) with one Gauss-Legendre rule, his 20-point one, at
every correlation: his 6- and 12-point rules only save time at |rho| <
0.75, a band the paper's correlations (-0.84) do not reach, and the
20-point rule is as accurate there.

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
from .dynamics import NumericalError, battery_law, g_moments, generator_law, q_moments, z_law
from .grid import Axis, StateGrid, cell_of, clamp01

__all__ = ["NumericalError", "TransitionKernel"]

# Row mass may deviate from 1 by CDF rounding dust up to this bound; it is
# then renormalized once. Larger deviations indicate a logic bug.
_ROW_SUM_TOL = 1e-6


# Genz's 20-point Gauss-Legendre rule, nodes on [0, 2] and weights summing
# to 2: his half rule mirrored around the midpoint.
_GL_HALF_X = np.array([0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
                       0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
                       0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
                       0.07652652113349733])
_GL_HALF_W = np.array([0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
                       0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
                       0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
                       0.1527533871307259])
_GL_X = np.concatenate((1.0 - _GL_HALF_X, 1.0 + _GL_HALF_X))
_GL_W = np.concatenate((_GL_HALF_W, _GL_HALF_W))


def _bvn_cdf(x: np.ndarray, y: np.ndarray, rho: float) -> np.ndarray:
    """P(X <= x, Y <= y) for standard bivariate normals with scalar correlation.

    Vectorized port of the Drezner-Wesolowsky / Genz scheme, which works
    with the upper orthant P(X > h, Y > k) at h = -x, k = -y: one 20-point
    Gauss-Legendre rule in the asin form for |rho| < 0.925, and the same
    rule in the high-|rho| tail expansion above. At rho = 0 the asin term
    is exactly 0 and the result is ndtr(x) * ndtr(y). Inputs must be
    finite; callers clip +-inf bounds to +-37 beforehand.
    """
    h = -np.asarray(x, dtype=float)
    k = -np.asarray(y, dtype=float)
    twopi = 2.0 * math.pi

    if abs(rho) < 0.925:
        hk = h * k
        hs = 0.5 * (h * h + k * k)
        asr = 0.5 * math.asin(rho)
        sn = np.sin(asr * _GL_X)  # (nodes,)
        expo = np.multiply.outer(hk, sn)
        expo -= hs[..., None]
        expo /= 1.0 - sn**2
        # Far cells drive exponents to -1e3 and below, where exp underflows
        # through subnormals (many times slower). Terms below e^-700 move
        # the result by < 1e-300, so clamp them there.
        np.maximum(expo, -700.0, out=expo)
        bvn = np.exp(expo, out=expo) @ _GL_W
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
    xs = (a_half * _GL_X) ** 2  # (nodes,)
    asr1 = -0.5 * (bs[..., None] / xs + hk[..., None])
    sp1 = 1.0 + c[..., None] * xs * (1.0 + 5.0 * d[..., None] * xs)
    rs = np.sqrt(1.0 - xs)
    ep = np.exp(-0.5 * hk[..., None] * xs / (1.0 + rs) ** 2) / rs
    terms = np.where(asr1 > -100.0, np.exp(asr1) * (sp1 - ep), 0.0)
    bvn = (a_half * (terms @ _GL_W) - bvn) / twopi
    if rho > 0.0:
        bvn = bvn + ndtr(-np.maximum(h, k))
    else:
        low_mass = np.where(h < 0.0, ndtr(k) - ndtr(h), ndtr(-h) - ndtr(-k))
        bvn = np.where(h >= k, -bvn, low_mass - bvn)
    return np.clip(bvn, 0.0, 1.0)


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

    The step-free parts are attributes computed once: z_block, the Z cell
    masses (z source, z cell), and the target cell per source level of the
    deterministic moves, q_idle (self-discharge only), q_limited (limited
    discharge) and g_limited (limited generator mode). The battery and
    generator blocks depend on the step through the seasonal mean; the
    solver asks for each once per backward step.
    """

    def __init__(self, cfg: ModelConfig, grid: StateGrid):
        self.cfg = cfg
        self.grid = grid
        m, sd = z_law(grid.z.points, cfg)
        std = _std_edges(_tail_edges(grid.z.edges), m, sd)
        mass = np.clip(np.diff(ndtr(std), axis=-1), 0.0, None)
        self.z_block = _normalize_rows(mass, (-1,), "z rows")
        # The deterministic branches of the moment laws ignore z; n = 0 is any step.
        q, g = grid.q.points, grid.g.points
        self.q_idle = _cells(q_moments(0, 0.0, q, Action.WAIT, cfg)[0], grid.q)
        self.q_limited = _cells(q_moments(0, 0.0, q, Action.DISCHARGE_LIMITED, cfg)[0], grid.q)
        self.g_limited = _cells(g_moments(0, 0.0, g, Action.FUEL_LIMITED, cfg)[0], grid.g)

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
        mass = _lattice_masses(_cdf_lattice(std_z, std_q, self.cfg.constants.rho_q))
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
        cdf = _cdf_lattice(std_z, std_g, self.cfg.constants.rho_g)  # (z src, z edge, offset)
        # Padded column of interior edge f (column f + 1) for source k is
        # f - k + N_G + 1; the two tail columns are shared by every source.
        cols = np.arange(n_int + 2)[None, :] - np.arange(pts.size)[:, None] + n_int
        cols[:, 0] = 0
        cols[:, -1] = 2 * n_int + 1
        mass = _lattice_masses(cdf[:, :, cols].transpose(0, 2, 1, 3))
        return _normalize_rows(mass, (-2, -1), f"generator block n={n}")
