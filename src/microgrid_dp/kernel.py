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
cell_of puts a level below 0 or above 1 in its boundary cell.

TransitionKernel.expected_next(n, v) applies the chain to a value table v:
one np.tensordot per gathered table, the z block (z src, z cell) against v
at the idle, limited-discharge or idle-then-limited-generator targets, the
battery block (z src, q src, z cell, q cell) against v over (z, q), the
generator block (z src, g src, z cell, g cell) over (z, g). Contracting z
once and gathering afterwards would add in another order and move the
last bits, so each gathered table has its own contraction.

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
coordinate where the other edge is >= T, else 0. Each is off by at most
Phi(-9) = 1.1e-19, below half an ulp of 1 (2^-53 = 1.1e-16), so the band
costs less than the rounding of the scheme itself. The infinite tail edges
take their exact closed forms (0, the univariate CDF, 1).

The univariate CDFs of the edges are computed once per edge and read
everywhere: by the closed forms, by the tail rows and columns, and by
Genz's scheme, whose univariate terms at an edge are the same values.
The standardized z edges and their CDFs do not depend on the step, so
each kernel computes them once for the z block and both bivariate blocks.

The battery and generator blocks depend on the step only through the
seasonal mean mu_R(t_n), and their laws take a 1-D array of steps, so
both are built for a chunk of steps in one pass: the laws, the lattice
and the differencing gain a leading step axis, and each step's slice has
the bits of a one-step build. A chunk holds _CHUNK_BYTES / (bytes of one
step's battery CDF lattice) steps, at least one: four on table1 and one
from 26 x 16 x 16 up, so a big grid holds no more than one step's arrays.
The chunks cut the horizon from step N - 1 down (chunk_of), the order in
which the solver walks it; the kernel keeps the last chunk of each block
and battery_block(n) / generator_block(n) return step n's view of it,
building the chunk that holds n on a miss. Genz's scheme runs on at most
_GENZ_BATCH points per call, which keeps its (20 nodes x points)
temporary near 1.3 MB at any chunk length; a point's bits do not depend
on its batch.

The generator block also uses an exact structure of its law,
G' ~ N(g - burn(z), sd^2) with a state-free sd on an equidistant g axis:
every standardized g edge is a shared offset (edge_f - point_k) shifted by
burn(z_i), so one CDF lattice per z source serves all g sources. Its g
differences (lower tail, consecutive offsets, upper tail) are stacked and
z-differenced once, and each g source reads its window of them at f - k.
"""

from __future__ import annotations

import math

import numpy as np

from .config import Action, ModelConfig
from .dynamics import NDTR_BAND as _BAND
from .dynamics import (NumericalError, battery_law, g_moments, generator_law, ndtr, q_moments,
                       seasonal_mean, z_law)
from .grid import StateGrid, cell_of

__all__ = ["NumericalError", "TransitionKernel"]

# Row mass may deviate from 1 by CDF rounding dust up to this bound; it is
# then renormalized once. Larger deviations indicate a logic bug.
_ROW_SUM_TOL = 1e-6

# Bytes of battery CDF lattices built in one pass; the chunk of steps whose
# blocks are built together is as long as this holds (at least one step).
# 1.5 MiB holds four steps on table1 (0.36 MB each) and one from 26 x 16 x 16
# up (1.5 MB; 4.9 MB on 36 x 21 x 21), so a big grid holds no more than
# one step's arrays. On table1 four steps took less solve time than two or
# three. Their transient arrays are large enough for glibc to trim the heap
# top and fault it back in from chunk to chunk: a fresh process's first
# solve takes 5,000 to 19,000 minor page faults, by allocation layout,
# against about 2,200 with one or two steps per chunk.
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
    the band |std| < _BAND; elsewhere the CDF takes its closed form to
    within Phi(-_BAND): cdf_b where std_a >= _BAND, else cdf_a where
    std_b >= _BAND, else 0. At an out-of-band b edge that is the b axis's
    form alone (cdf_b is then 0 or 1, as cdf_a is at std_a >= _BAND), which
    fills the interior. Each in-band b edge's column over the NA a edges is
    a row of one dense (columns, NA) slab: Genz at in-band a, cdf_b at
    a >= _BAND, else 0. The tail edges are exact: -inf gives 0, +inf the
    other coordinate's CDF, (+inf, +inf) gives 1.
    """
    lead = np.broadcast_shapes(std_a.shape[:-1], std_b.shape[:-1])
    n_a, n_b = std_a.shape[-1], std_b.shape[-1]
    a, ca, b, cb = (np.broadcast_to(v, lead + v.shape[-1:]).reshape(-1, v.shape[-1])  # per source
                    for v in (std_a, cdf_a, std_b, cdf_b))
    src, col = np.nonzero(np.abs(b) < _BAND)
    a, ca, b, cb = a[src], ca[src], b[src, col], cb[src, col]
    slab = np.where(a >= _BAND, cb[:, None], 0.0)
    band = np.flatnonzero(np.abs(a) < _BAND)
    a, ca, flat = a.ravel(), ca.ravel(), slab.ravel()
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
    worst = float(np.abs(1.0 - total).max())
    if not worst <= _ROW_SUM_TOL:  # a NaN row fails this test too
        raise NumericalError(f"{what}: row mass deviates from 1 by {worst:.3e} (> {_ROW_SUM_TOL})")
    mass /= total
    return mass


class TransitionKernel:
    """Vectorized transition blocks and Dirac target maps of one (config, grid).

    The step-free parts are attributes computed once: z_block, the Z cell
    masses (z source, z cell), and the target cell per source level of the
    deterministic moves, q_idle (self-discharge only), q_limited (limited
    discharge) and g_limited (limited generator mode). The battery and
    generator blocks depend on the step through the seasonal mean; each is
    built for a chunk of chunk_steps steps (chunk_of) and the last chunk
    of each is kept, so expected_next over the steps of a chunk builds it once.
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
        n_g = grid.g.edges.size
        self._g_window = np.r_[n_g, 2 * n_g + np.arange(1, n_g), 4 * n_g] - np.arange(n_g + 1)[:, None]
        lattice = q.size * (grid.q.edges.size + 2) * grid.z.n_points * (grid.z.edges.size + 2)
        self.chunk_steps = max(1, _CHUNK_BYTES // (8 * lattice))
        # (first step, stacked blocks) of the chunk each block holds
        self._held = {"battery": (0, ()), "generator": (0, ())}

    def chunk_of(self, n: int) -> np.ndarray:
        """The steps whose blocks are built with step n's, in increasing order.

        The horizon is cut into runs of chunk_steps steps from step N - 1
        down, so the last run to reach step 0 may be shorter; step N forms
        a run of its own. A step outside 0..N raises KeyError.
        """
        steps = self.cfg.discretization.steps_N
        seasonal_mean(n, self.cfg)  # KeyError outside 0..N
        stop = steps - (steps - 1 - n) // self.chunk_steps * self.chunk_steps
        return np.arange(max(0, stop - self.chunk_steps), min(stop, steps + 1))

    def _held_view(self, kind: str, n: int, build) -> np.ndarray:
        """Step n's block from the held chunk of kind, built by build(chunk_of(n)) on a miss."""
        first, blocks = self._held[kind]
        if not first <= n < first + len(blocks):
            steps = self.chunk_of(n)
            first, blocks = self._held[kind] = int(steps[0]), build(steps)
        return blocks[n - first]

    def battery_block(self, n: int) -> np.ndarray:
        """Joint (Z, Q) cell masses for charge / full discharge at step n.

        Shape (z src, q src, z cell, q cell); rows sum to 1 over the last
        two axes. The law is shared by both actions (costs and feasibility
        differ, the transition does not). A view of the held chunk.
        """
        return self._held_view("battery", n, self._battery_chunk)

    def generator_block(self, n: int) -> np.ndarray:
        """Joint (Z, G) cell masses for the full generator mode at step n.

        Shape (z src, g src, z cell, g cell); rows sum to 1 over the last
        two axes. A view of the held chunk.
        """
        return self._held_view("generator", n, self._generator_chunk)

    def _battery_chunk(self, steps: np.ndarray) -> np.ndarray:
        """battery_block of each step of a 1-D step array: (step, z src, q src, z cell, q cell)."""
        grid = self.grid
        m_q, sd_q = battery_law(steps, grid.z.points[:, None], grid.q.points[None, :], self.cfg)
        std_q = _std_edges(grid.q.edges, m_q, sd_q)
        mass = _lattice_masses(_cdf_lattice(self._z_std[:, None, :], std_q, self.cfg.constants.rho_q,
                                            self._z_cdf[:, None, :], ndtr(std_q)))
        return _normalize_rows(mass, (-2, -1), f"battery block n={_span(steps)}")

    def _generator_chunk(self, steps: np.ndarray) -> np.ndarray:
        """generator_block of each step of a 1-D step array: (step, z src, g src, z cell, g cell).

        The standardized g edge f of source (i, k) is
        (edge_f - point_k + burn_i) / sd_g, and edge_f - point_k depends on
        f - k only, so each (step, z source) needs one CDF lattice over the
        2 N_G shared offsets. Each g difference of a source is a lower tail,
        two consecutive offsets or an upper tail of that lattice; all three
        kinds are z-differenced once, and source k reads its window via _g_window.
        """
        grid = self.grid
        pts, edges = grid.g.points, grid.g.edges
        n_int = edges.size  # N_G interior g edges; offsets f - k run over -N_G .. N_G - 1
        burn, sd_g = generator_law(steps, grid.z.points, self.cfg)
        offsets = np.concatenate((edges[0] - pts[:0:-1], edges - pts[0]))
        std_g = _std_edges(offsets, -burn, sd_g)
        # (step, z src, z edge, offset)
        cdf = _cdf_lattice(self._z_std, std_g, self.cfg.constants.rho_g, self._z_cdf, ndtr(std_g))
        diffs = np.concatenate((cdf[..., 1:n_int + 2] - cdf[..., :1], np.diff(cdf[..., 1:-1]),
                                cdf[..., -1:] - cdf[..., n_int:-1]), axis=-1)
        mass = np.diff(diffs, axis=-2)
        mass = np.clip(mass, 0.0, None, out=mass)[..., self._g_window]
        return _normalize_rows(mass.swapaxes(-3, -2), (-2, -1),
                               f"generator block n={_span(steps)}")

    def expected_next(self, n: int, v_next: np.ndarray) -> np.ndarray:
        """E[v_next(X') | x, a] at step n for every state and action; shape (action, i, j, k).

        v_next is the next value table over linear state ids. Actions with
        one law share its contraction: overspill and wait, charge and full discharge.
        """
        v = v_next.reshape(self.grid.shape)
        v_idle = v[:, self.q_idle, :]
        ev = np.empty((len(Action),) + self.grid.shape)
        ev[[Action.OVERSPILL, Action.WAIT]] = np.tensordot(self.z_block, v_idle, axes=1)
        ev[Action.DISCHARGE_LIMITED] = np.tensordot(self.z_block, v[:, self.q_limited, :], axes=1)
        ev[Action.FUEL_LIMITED] = np.tensordot(self.z_block, v_idle[:, :, self.g_limited], axes=1)
        ev[[Action.CHARGE, Action.DISCHARGE_FULL]] = np.tensordot(
            self.battery_block(n), v, axes=([2, 3], [0, 1]))
        # (z src, g src, q) -> the idle q target of each q source
        ev_gen = np.tensordot(self.generator_block(n), v, axes=([2, 3], [0, 2]))
        ev[Action.FUEL_FULL] = ev_gen[:, :, self.q_idle].transpose(0, 2, 1)
        return ev
