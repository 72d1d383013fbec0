"""Per-step transition probability blocks of the discretized chain.

For each (step, source state, action) the next continuous state is
Gaussian on the stochastic axes and deterministic (Dirac) on the others,
so the probability of landing in a grid cell is a normal rectangle mass:

- charge / full discharge: bivariate (Z, Q) rectangle x Dirac on G;
- full generator: bivariate (Z, G) rectangle x Dirac on Q;
- limited modes, wait, overspill: univariate Z mass x two Diracs.

Mass overshooting the physical q/g box accumulates in the boundary cells;
the z boundary cells own the (-inf, .] and (., +inf) tails. The Dirac
axes need no probabilities: their target cells are step-free maps per
source level, taken once per kernel: grid.cell_of of the next levels
that the deterministic branches of dynamics.q_moments/g_moments give.
The bivariate blocks read the Gaussian (mean, sd) of the same two laws,
q_moments under charge and g_moments under the full generator mode.
cell_of puts a level below 0 or above 1 in its boundary cell.

TransitionKernel.expected_next(v, battery, generator) applies the chain to
a value table v: one np.tensordot of the z block (z src, z cell) per
gathered table, against v at the idle, limited-discharge or
idle-then-limited-generator targets; and one np.dot per bivariate block it
is given, as a (source, cell) matrix, the battery block (z src, q src,
z cell, q cell) against v over (z, q), the generator block (z src, g src,
z cell, g cell) over (z, g). Contracting z once and gathering afterwards
would add in another order and move the last bits, so each gathered table
has its own contraction.

The bivariate masses come from Genz's bivariate-normal scheme (Genz 2004,
Stat. Comput. 14:251) with one Gauss-Legendre rule, his 20-point one, at
every correlation: his 6- and 12-point rules only save time at |rho| <
0.75, a band the paper's correlations (-0.84) do not reach, and the
20-point rule is as accurate there.

A block is the inclusion-exclusion of the bivariate CDF over the lattice
of cell edges. The chain's transitions are local (Kushner & Dupuis 2001),
so most standardized edges lie far out in a tail: on table1, 78-79 % of
the battery's q edges and 95-97 % of the generator's g offsets lie beyond
|9|. Genz's scheme therefore runs only at lattice points whose two
standardized edges both lie in the band |std| < T = 9 (_BAND, the band of
dynamics.ndtr, outside which the univariate CDF is exactly 0 or 1), as one
dense slab whose rows are the columns of the in-band edges of the second
axis. Outside it the CDF takes its closed form: the univariate CDF of one
coordinate where the other edge is >= T, else 0. With correlation rho the
scheme also stops where the correlated coordinate leaves the band (the
joint band): X + Y for rho < 0 and X - Y for rho > 0, of sd
s = sqrt(2 (1 - |rho|)). At a + b <= -T s the CDF is 0, at a + b >= T s
it is Phi(a) + Phi(b) - 1, at a - b >= T s it is Phi(b) and at
b - a >= T s it is Phi(a); for example P(X > a, Y > b) <= P(X + Y > a + b).
Each closed form is off by at most Phi(-9) = 1.1e-19, below half an ulp
of 1 (2^-53 = 1.1e-16), so the bands cost less than the rounding of the
scheme itself. On table1 (rho = -0.84, s = 0.56) the joint band halves
the scheme's points: 645,646 battery and 22,985 generator points over
168 steps instead of 1,204,621 and 39,508. The infinite tail edges take
their exact closed forms (0, the univariate CDF, 1).

The univariate CDFs of the edges are computed once per edge and read
everywhere: by the closed forms, by the tail rows and columns, and by
Genz's scheme, whose univariate terms at an edge are the same values.
The standardized z edges and their CDFs do not depend on the step, so
each kernel computes them once for the z block and both bivariate blocks.

The battery and generator blocks depend on the step only through the
seasonal mean mu_R(t_n), and their laws take an array of steps: a step
array broadcasts against the states as numpy broadcasts any argument.
So blocks(steps, mask) builds both for a chunk of steps in one pass: the
chunk's steps, shaped as a leading axis, give the laws a leading step
axis, the lattice and its differences run over the chunk's (step, source)
rows, and each step's slice has the bits of a one-step build. chunk_steps
is the chunk length that the solver cuts: _CHUNK_BYTES / (bytes of one
step's battery CDF lattice) steps, at least one; four on table1 and one
from 26 x 16 x 16 up, so a big grid holds no more than one step's arrays.

blocks takes the chunk's feasibility mask and builds only the rows that a
feasible pair reads: the (step, z src, q src) battery rows where charge or
full discharge is feasible at some g, and the (step, z src) generator
lattices where the full generator mode is feasible at some (q, g), 81.5 %
and 50.5 % of them on table1. The other rows are 0, and the mask makes
their Q-values +inf. The products' output rows are independent, so every
other Q-value keeps its bits. battery_block(n) and generator_block(n)
build one step's block with every row, by the same code with an all-true
selection. The kernel keeps nothing it builds: each call builds afresh.
Genz's scheme runs on at most _GENZ_BATCH points per call, which keeps its
(20 nodes x points) temporary near 1.3 MB at any chunk length; a point's
bits do not depend on its batch.

The generator block also uses an exact structure of its law,
G' ~ N(g - burn(z), sd^2) with a state-free sd on an equidistant g axis:
every standardized g edge is a shared offset (edge_f - point_k) shifted by
burn(z_i), so one CDF lattice per z source serves all g sources. Its g
differences (lower tail, consecutive offsets, upper tail) are stacked and
z-differenced once, and each g source reads its window of them at f - k,
gathered straight into the block's (g src, z cell, g cell) memory order.
"""

from __future__ import annotations

import math

import numpy as np

from .config import Action, ModelConfig
from .dynamics import NDTR_BAND as _BAND
from .dynamics import NumericalError, g_moments, ndtr, q_moments, z_law
from .grid import StateGrid, cell_of

__all__ = ["NumericalError", "TransitionKernel"]

# Row mass may deviate from 1 by CDF rounding dust up to this bound; it is
# then renormalized once. Larger deviations indicate a logic bug.
_ROW_SUM_TOL = 1e-6

# Bytes of battery CDF lattices built in one pass; the chunk of steps whose
# blocks are built together is as long as this holds (at least one step).
# 1.5 MiB holds four steps on table1 (0.36 MB each) and one from 26 x 16 x 16
# up (1.5 MB; 4.9 MB on 36 x 21 x 21), so a big grid holds no more than
# one step's arrays. On table1 four steps took less solve time than two,
# three or eight, also with mask-selected rows. Their transient arrays are
# large enough for glibc to trim the heap top and fault it back in from
# chunk to chunk: a fresh process's first solve takes about 17,500 minor
# page faults with four steps per chunk, against 4,900 with two and
# 21,300 with eight.
_CHUNK_BYTES = 3 << 19

# Points per call of _bvn_cdf; its (20 nodes x points) temporary is then at most 1.3 MB.
_GENZ_BATCH = 8192


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


def _node_sum(terms: np.ndarray) -> np.ndarray:
    """sum_i w_i terms[i] of a (nodes, points) array, adding the nodes in order.

    terms is overwritten. A reduction over a short axis may add pairwise,
    and numpy takes that route when the points axis has length 1; adding
    the rows one by one gives every point the same bits however many
    points share the array.
    """
    terms *= _GL_W[:, None]
    total = terms[0].copy()
    for row in terms[1:]:
        total += row
    return total


def _bvn_cdf(x, y, rho: float, cdf_x, cdf_y) -> np.ndarray:
    """P(X <= x, Y <= y) for standard bivariate normals with scalar correlation.

    Vectorized port of the Drezner-Wesolowsky / Genz scheme, which works
    with the upper orthant P(X > h, Y > k) at h = -x, k = -y: one 20-point
    Gauss-Legendre rule in the asin form for |rho| < 0.925, and the same
    rule in the high-|rho| tail expansion above. cdf_x and cdf_y are the
    marginals ndtr(x) and ndtr(y), which the caller holds already; the
    scheme's univariate terms at the same arguments read them. At rho = 0
    the asin term is exactly 0 and the result is cdf_x * cdf_y. All four
    inputs broadcast; x and y must be finite (_cdf_lattice passes only
    points inside the band |std| < _BAND). The exponents are laid out as
    (nodes, points) and summed node by node, so a point's value does not
    depend on the other points evaluated with it.
    """
    x, y, cdf_x, cdf_y = np.broadcast_arrays(x, y, cdf_x, cdf_y)
    shape = x.shape
    x, y, cdf_x, cdf_y = (np.ravel(v) for v in (x, y, cdf_x, cdf_y))
    h, k = -x, -y
    twopi = 2.0 * math.pi

    if abs(rho) < 0.925:
        hk = h * k
        hs = 0.5 * (h * h + k * k)
        asr = 0.5 * math.asin(rho)
        sn = np.sin(asr * _GL_X)[:, None]  # (nodes, 1)
        expo = sn * hk
        expo -= hs
        expo /= 1.0 - sn**2
        # Far cells drive exponents to -1e3 and below, where exp underflows
        # through subnormals (many times slower). Terms below e^-700 move
        # the result by < 1e-300, so clamp them there.
        np.maximum(expo, -700.0, out=expo)
        bvn = _node_sum(np.exp(expo, out=expo))
        return np.clip(bvn * asr / twopi + cdf_x * cdf_y, 0.0, 1.0).reshape(shape)

    # high-correlation branch
    if rho < 0.0:
        k = -k  # = y, so ndtr(k) is cdf_y
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
    xs = ((a_half * _GL_X) ** 2)[:, None]  # (nodes, 1)
    asr1 = -0.5 * (bs / xs + hk)
    sp1 = 1.0 + c * xs * (1.0 + 5.0 * d * xs)
    rs = np.sqrt(1.0 - xs)
    ep = np.exp(-0.5 * hk * xs / (1.0 + rs) ** 2) / rs
    terms = np.where(asr1 > -100.0, np.exp(asr1) * (sp1 - ep), 0.0)
    bvn = (a_half * _node_sum(terms) - bvn) / twopi
    if rho > 0.0:
        # ndtr(-max(h, k)) = ndtr(min(x, y))
        bvn = bvn + np.where(x <= y, cdf_x, cdf_y)
    else:
        # ndtr(k) - ndtr(h) where h < 0, else ndtr(-h) - ndtr(-k)
        low = h < 0.0
        low_mass = np.where(low, cdf_y, cdf_x) - ndtr(np.where(low, h, -k))
        bvn = np.where(h >= k, -bvn, low_mass - bvn)
    return np.clip(bvn, 0.0, 1.0).reshape(shape)


def _std_edges(edges: np.ndarray, mean, sd) -> np.ndarray:
    """Standardize cell edges against broadcast means/sds."""
    return (edges - np.asarray(mean)[..., None]) / np.asarray(sd)[..., None]


def _cdf_lattice(std_a: np.ndarray, std_b: np.ndarray, rho: float,
                 cdf_a: np.ndarray, cdf_b: np.ndarray) -> np.ndarray:
    """Bivariate CDF over the edge lattice, tails included: shape (..., NA + 2, NB + 2).

    std_a (..., NA) and std_b (..., NB) are standardized interior edges,
    and cdf_a, cdf_b their univariate CDFs ndtr(std_a), ndtr(std_b).
    Genz's scheme runs only at lattice points where both edges lie inside
    the band |std| < _BAND and, at rho != 0, the correlated coordinate
    u = a - b (rho > 0) or a + b (rho < 0), of sd s = sqrt(2 (1 - |rho|)),
    lies inside |u| < _BAND s. Elsewhere the CDF takes its closed form to
    within Phi(-_BAND): cdf_b where std_a >= _BAND, else cdf_a where
    std_b >= _BAND, else 0; inside the marginal band, at rho > 0, cdf_b
    where u >= _BAND s and cdf_a where u <= -_BAND s, and at rho < 0,
    cdf_a + cdf_b - 1 (at least 0) where u >= _BAND s and 0 where
    u <= -_BAND s. At an out-of-band b edge that is the b axis's form
    alone (cdf_b is then 0 or 1, as cdf_a is at std_a >= _BAND), which
    fills the interior. Each in-band b edge's column over the NA a edges is
    a row of one dense (columns, NA) slab. The tail edges are exact: -inf
    gives 0, +inf the other coordinate's CDF, (+inf, +inf) gives 1.
    """
    lead = np.broadcast_shapes(std_a.shape[:-1], std_b.shape[:-1])
    n_a, n_b = std_a.shape[-1], std_b.shape[-1]
    a, ca, b, cb = (np.broadcast_to(v, lead + v.shape[-1:]).reshape(-1, v.shape[-1])  # per source
                    for v in (std_a, cdf_a, std_b, cdf_b))
    src, col = np.nonzero(np.abs(b) < _BAND)
    a, ca, b, cb = a[src], ca[src], b[src, col][:, None], cb[src, col][:, None]
    slab = np.where(a >= _BAND, cb, 0.0)
    genz = np.abs(a) < _BAND
    if rho:
        u = a - b if rho > 0.0 else a + b
        reach = _BAND * math.sqrt(2.0 * (1.0 - abs(rho)))
        high = genz & (u >= reach)
        if rho > 0.0:
            np.copyto(slab, cb, where=high)
            np.copyto(slab, ca, where=genz & (u <= -reach))
        else:
            np.copyto(slab, np.maximum(ca + cb - 1.0, 0.0), where=high)
        genz &= np.abs(u) < reach
    band = np.flatnonzero(genz)
    a, ca, b, cb, flat = a.ravel(), ca.ravel(), b.ravel(), cb.ravel(), slab.ravel()
    for first in range(0, band.size, _GENZ_BATCH):
        at = band[first:first + _GENZ_BATCH]
        row = at // n_a
        flat[at] = _bvn_cdf(a[at], b[row], rho, ca[at], cb[row])
    cdf = np.zeros(lead + (n_a + 2, n_b + 2))
    np.copyto(cdf[..., 1:-1, 1:-1], cdf_a[..., :, None], where=std_b[..., None, :] >= _BAND)
    cdf.reshape(-1, n_a + 2, n_b + 2)[src, 1:-1, col + 1] = slab
    cdf[..., 1:-1, -1] = cdf_a
    cdf[..., -1, 1:-1] = cdf_b
    cdf[..., -1, -1] = 1.0
    return cdf


def _lattice_masses(cdf: np.ndarray) -> np.ndarray:
    """Cell masses (..., NA + 1, NB + 1) by inclusion-exclusion over a CDF lattice."""
    mass = np.diff(np.diff(cdf, axis=-1), axis=-2)
    return np.clip(mass, 0.0, None, out=mass)


def _span(steps: np.ndarray) -> str:
    """'n' for one step, 'first..last' for a run of steps."""
    return f"{steps[0]}" if steps.size == 1 else f"{steps[0]}..{steps[-1]}"


def _normalize_rows(mass: np.ndarray, axes: tuple[int, ...], what: str) -> np.ndarray:
    """mass divided by its sum over axes, in place; raises if a sum is not within _ROW_SUM_TOL of 1."""
    total = mass.sum(axis=axes, keepdims=True)
    worst = float(np.abs(1.0 - total).max(initial=0.0))
    if not worst <= _ROW_SUM_TOL:  # a NaN row fails this test too
        raise NumericalError(f"{what}: row mass deviates from 1 by {worst:.3e} (> {_ROW_SUM_TOL})")
    mass /= total
    return mass


def _row_block(rows: np.ndarray, mass: np.ndarray, what: str) -> np.ndarray:
    """The masses of the selected rows, normalized, at the True entries of rows; 0 elsewhere.

    mass holds one (cells, cells) row per True entry of rows, in C order.
    """
    block = np.zeros(rows.shape + mass.shape[1:])
    block[rows] = _normalize_rows(mass, (-2, -1), what)
    return block


class TransitionKernel:
    """Vectorized transition blocks and Dirac target maps of one (config, grid).

    The step-free parts are attributes computed once: z_block, the Z cell
    masses (z source, z cell), and the target cell per source level of the
    deterministic moves, q_idle (self-discharge only), q_limited (limited
    discharge) and g_limited (limited generator mode). The battery and
    generator blocks depend on the step through the seasonal mean; blocks
    builds both for a chunk of steps and the rows that its feasibility mask
    selects, battery_block / generator_block one step's block with every
    row. Nothing is kept after __init__.
    """

    def __init__(self, cfg: ModelConfig, grid: StateGrid):
        self.cfg = cfg
        self.grid = grid
        # The standardized z edges (z source, interior edge) and their CDFs
        # are step-free; the z block and both bivariate blocks read them.
        m, sd = z_law(grid.z.points, cfg)
        self._z_std = _std_edges(grid.z.edges, m, sd)
        self._z_cdf = ndtr(self._z_std)
        mass = np.clip(np.diff(self._z_cdf, axis=-1, prepend=0.0, append=1.0), 0.0, None)
        self.z_block = _normalize_rows(mass, (-1,), "z rows")
        # The deterministic branches of the moment laws ignore z; n = 0 is any step.
        # cell_of puts a next level below 0 or above 1 in its boundary cell.
        q, g = grid.q.points, grid.g.points
        idle, limited = (q_moments(0, 0.0, q, a, cfg)[0]
                         for a in (Action.WAIT, Action.DISCHARGE_LIMITED))
        self.q_idle = cell_of(idle, grid.q)
        self.q_limited = cell_of(limited, grid.q)
        self.g_limited = cell_of(g_moments(0, 0.0, g, Action.FUEL_LIMITED, cfg)[0], grid.g)
        # Window of g source k into generator_block's stacked g differences
        # at padded offset p: lower tail p - 1, consecutive N_G + p, upper tail 2 N_G + p.
        # _g_gather indexes a (z cell, 4 N_G + 1 differences) row of them flat,
        # in the block's (g src, z cell, g cell) order.
        n_g = grid.g.edges.size
        window = np.r_[n_g, 2 * n_g + np.arange(1, n_g), 4 * n_g] - np.arange(n_g + 1)[:, None]
        self._g_gather = np.arange(grid.z.n_points)[:, None] * (4 * n_g + 1) + window[:, None, :]
        lattice = q.size * (grid.q.edges.size + 2) * grid.z.n_points * (grid.z.edges.size + 2)
        self.chunk_steps = max(1, _CHUNK_BYTES // (8 * lattice))

    def blocks(self, steps: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The battery and generator blocks of a 1-D step array, with the rows that mask selects.

        mask is the feasibility_mask of steps. The battery chunk (step,
        z src, q src, z cell, q cell) holds the (step, z src, q src) rows
        where charge or full discharge is feasible at some g; the generator
        chunk (step, z src, g src, z cell, g cell) the (step, z src) rows
        where the full generator mode is feasible at some (q, g). Every
        other row is 0.
        """
        battery = (mask[:, Action.CHARGE] | mask[:, Action.DISCHARGE_FULL]).any(axis=-1)
        generator = mask[:, Action.FUEL_FULL].any(axis=(-2, -1))
        return self._battery_chunk(steps, battery), self._generator_chunk(steps, generator)

    def battery_block(self, n: int) -> np.ndarray:
        """Joint (Z, Q) cell masses for charge / full discharge at step n.

        Shape (z src, q src, z cell, q cell); rows sum to 1 over the last
        two axes. The law is shared by both actions (costs and feasibility
        differ, the transition does not). Every row is built.
        """
        return self._battery_chunk(np.array([n]), np.ones((1,) + self.grid.shape[:2], bool))[0]

    def generator_block(self, n: int) -> np.ndarray:
        """Joint (Z, G) cell masses for the full generator mode at step n.

        Shape (z src, g src, z cell, g cell); rows sum to 1 over the last
        two axes. Every row is built.
        """
        return self._generator_chunk(np.array([n]), np.ones((1, self.grid.z.n_points), bool))[0]

    def _battery_chunk(self, steps: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """battery_block of each step of a 1-D step array: (step, z src, q src, z cell, q cell).

        Only the (step, z src, q src) rows where rows is True are built;
        the others are 0.
        """
        grid = self.grid
        m_q, sd_q = q_moments(steps[:, None, None], *np.ix_(grid.z.points, grid.q.points),
                              Action.CHARGE, self.cfg)
        z_src = np.nonzero(rows)[1]
        std_q = _std_edges(grid.q.edges, m_q[rows], sd_q[rows])
        mass = _lattice_masses(_cdf_lattice(self._z_std[z_src], std_q, self.cfg.constants.rho_q,
                                            self._z_cdf[z_src], ndtr(std_q)))
        return _row_block(rows, mass, f"battery block n={_span(steps)}")

    def _generator_chunk(self, steps: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """generator_block of each step of a 1-D step array: (step, z src, g src, z cell, g cell).

        The standardized g edge f of source (i, k) is
        (edge_f - point_k + burn_i) / sd_g, and edge_f - point_k depends on
        f - k only, so each (step, z source) needs one CDF lattice over the
        2 N_G shared offsets. Each g difference of a source is a lower tail,
        two consecutive offsets or an upper tail of that lattice; all three
        kinds are z-differenced once, and source k reads its window via
        _g_gather. Only the (step, z src) lattices where rows is True are
        built; the other rows are 0.
        """
        grid = self.grid
        pts, edges = grid.g.points, grid.g.edges
        n_int = edges.size  # N_G interior g edges; offsets f - k run over -N_G .. N_G - 1
        # The mean at g = 0 is 0.0 - burn, which is -burn but for the sign of a
        # zero burn; every offset is nonzero, so offsets - mean has the bits either way.
        m_g, sd_g = g_moments(steps[:, None], grid.z.points, 0.0, Action.FUEL_FULL, self.cfg)
        z_src = np.nonzero(rows)[1]
        offsets = np.concatenate((edges[0] - pts[:0:-1], edges - pts[0]))
        std_g = _std_edges(offsets, m_g[rows], sd_g)
        # (row, z edge, offset)
        cdf = _cdf_lattice(self._z_std[z_src], std_g, self.cfg.constants.rho_g,
                           self._z_cdf[z_src], ndtr(std_g))
        diffs = np.concatenate((cdf[..., 1:n_int + 2] - cdf[..., :1], np.diff(cdf[..., 1:-1]),
                                cdf[..., -1:] - cdf[..., n_int:-1]), axis=-1)
        mass = np.diff(diffs, axis=-2)
        np.clip(mass, 0.0, None, out=mass)
        rows_n, cells, stacked = mass.shape
        mass = np.take(mass.reshape(rows_n, cells * stacked), self._g_gather, axis=1)
        return _row_block(rows, mass, f"generator block n={_span(steps)}")

    def expected_next(self, v_next: np.ndarray, battery: np.ndarray,
                      generator: np.ndarray) -> np.ndarray:
        """E[v_next(X') | x, a] for every state and action; shape (action, i, j, k).

        v_next is the next value table over linear state ids, and battery and
        generator are the step's 4-D blocks (battery_block, generator_block,
        or a step's slice of blocks). Actions with one law share its
        contraction: overspill and wait, charge and full discharge. Where a
        block row is 0 (left out by blocks' mask), its actions read 0.
        """
        n_z, n_q, n_g = self.grid.shape
        v = v_next.reshape(self.grid.shape)
        v_idle = v[:, self.q_idle, :]
        ev = np.empty((len(Action),) + self.grid.shape)
        ev[[Action.OVERSPILL, Action.WAIT]] = np.tensordot(self.z_block, v_idle, axes=1)
        ev[Action.DISCHARGE_LIMITED] = np.tensordot(self.z_block, v[:, self.q_limited, :], axes=1)
        ev[Action.FUEL_LIMITED] = np.tensordot(self.z_block, v_idle[:, :, self.g_limited], axes=1)
        # Each block as one (source, cell) matrix against v over its (z, q) or (z, g) cells.
        battery = battery.reshape(n_z * n_q, n_z * n_q)
        ev[[Action.CHARGE, Action.DISCHARGE_FULL]] = np.dot(
            battery, v.reshape(n_z * n_q, n_g)).reshape(n_z, n_q, n_g)
        generator = generator.reshape(n_z * n_g, n_z * n_g)
        # (z src, g src, q) -> the idle q target of each q source
        v_zg = v.transpose(0, 2, 1).reshape(n_z * n_g, n_q)
        ev_gen = np.dot(generator, v_zg).reshape(n_z, n_g, n_q)
        ev[Action.FUEL_FULL] = ev_gen[:, :, self.q_idle].transpose(0, 2, 1)
        return ev
