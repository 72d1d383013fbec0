"""State grid construction, neighborhoods, and cell lookup."""

import math

import numpy as np
import pytest

import microgrid_dp as m
from microgrid_dp.grid import clamp01
from oracles import neighborhood, state_of


def test_truncation_interval(cfg_table1, grid_table1):
    p = cfg_table1.demand
    zbar = 3.0 * p.sigma_R / math.sqrt(2.0 * p.beta_R)
    assert grid_table1.z.points[-1] == pytest.approx(zbar, abs=1e-12)
    assert grid_table1.z.points[0] == pytest.approx(-zbar, abs=1e-12)
    assert zbar == pytest.approx(2.1345374206136563, abs=1e-12)
    assert float(f"{zbar:.3g}") == 2.13


def test_axis_layout(cfg_table1, grid_table1):
    g = grid_table1
    assert g.shape == (18, 11, 11)
    assert g.n_states == 2178
    assert np.allclose(g.q.points, np.linspace(0.0, 1.0, 11), atol=1e-15)
    assert np.allclose(g.g.points, np.linspace(0.0, 1.0, 11), atol=1e-15)
    assert g.q.points[1] - g.q.points[0] == pytest.approx(0.1, abs=1e-15)
    for ax in (g.z, g.q, g.g):
        diffs = np.diff(ax.points)
        assert np.all(diffs > 0)
        assert np.allclose(diffs, diffs[0], atol=1e-12)


def test_zero_residual_is_a_subinterval_midpoint(grid_table1):
    pts = grid_table1.z.points
    straddle = pts[8], pts[9]
    assert straddle[0] == pytest.approx(-straddle[1], abs=1e-12)
    assert (straddle[0] + straddle[1]) / 2.0 == pytest.approx(0.0, abs=1e-12)


def test_linear_index_bijection(grid_table1):
    g = grid_table1
    seen = set()
    for i in range(g.shape[0]):
        for j in range(g.shape[1]):
            for k in range(g.shape[2]):
                mdx = g.lin(i, j, k)
                assert np.unravel_index(mdx, g.shape) == (i, j, k)
                seen.add(mdx)
    assert seen == set(range(g.n_states))


def test_state_of_matches_axis_points(grid_table1):
    g = grid_table1
    for i, j, k in ((0, 0, 0), (0, 1, 6), (4, 1, 5), (17, 10, 10)):
        x = state_of(g, g.lin(i, j, k))
        assert x.z == g.z.points[i]
        assert x.q == g.q.points[j]
        assert x.g == g.g.points[k]


def test_neighborhood_boundary_cells(grid_table1):
    g = grid_table1
    lo, hi = neighborhood(g.z, 0)
    assert lo == -math.inf
    assert hi == pytest.approx((g.z.points[0] + g.z.points[1]) / 2.0, abs=1e-12)
    lo, hi = neighborhood(g.z, 17)
    assert hi == math.inf
    lo, hi = neighborhood(g.q, 0)
    assert lo == 0.0
    assert hi == pytest.approx(0.05, abs=1e-12)
    lo, hi = neighborhood(g.g, 10)
    assert lo == pytest.approx(0.95, abs=1e-12)
    assert hi == 1.0


def test_neighborhood_inner_cells(grid_table1):
    g = grid_table1
    for j in range(1, 10):
        lo, hi = neighborhood(g.q, j)
        assert lo == pytest.approx((g.q.points[j - 1] + g.q.points[j]) / 2, abs=1e-12)
        assert hi == pytest.approx((g.q.points[j] + g.q.points[j + 1]) / 2, abs=1e-12)


def test_neighborhoods_partition_axis(grid_table1):
    rng = np.random.default_rng(101)
    g = grid_table1
    for ax in (g.z, g.q, g.g):
        step = ax.points[1] - ax.points[0]
        span = (ax.points[0] - 2 * step, ax.points[-1] + 2 * step)
        values = rng.uniform(*span, size=10_000)
        if ax.name != "z":
            values = values[(values > 0.0) & (values <= 1.0)]
        cells = [neighborhood(ax, i) for i in range(ax.n_points)]
        for v in values:
            owners = [i for i, (lo, hi) in enumerate(cells) if lo < v <= hi]
            assert len(owners) == 1
            assert owners[0] == m.cell_of(float(v), ax)


def test_cell_of_grid_points_round_trip(grid_table1):
    g = grid_table1
    for ax in (g.z, g.q, g.g):
        for i, pt in enumerate(ax.points):
            assert m.cell_of(float(pt), ax) == i


def test_cell_of_boundary_clamps(grid_table1):
    g = grid_table1
    assert m.cell_of(-0.03, g.q) == 0
    assert m.cell_of(0.0, g.q) == 0
    assert m.cell_of(1.0, g.q) == 10
    assert m.cell_of(1.2, g.g) == 10
    assert m.cell_of(-50.0, g.z) == 0
    assert m.cell_of(50.0, g.z) == 17


def test_cell_of_edge_tie_is_right_closed(grid_table1):
    g = grid_table1
    edge = (g.q.points[3] + g.q.points[4]) / 2.0
    assert m.cell_of(edge, g.q) == 3
    assert m.cell_of(edge + 1e-12, g.q) == 4


def test_cell_of_rejects_nan(grid_table1):
    with pytest.raises(ValueError):
        m.cell_of(float("nan"), grid_table1.q)


def test_cell_of_an_array_is_the_float_rule_entry_by_entry(grid_table1):
    for ax in (grid_table1.z, grid_table1.q, grid_table1.g):
        levels = np.concatenate((ax.points, ax.edges, ax.edges + 1e-12, [-50.0, 50.0]))
        got = m.cell_of(levels.reshape(3, -1), ax)
        assert got.shape == (3, levels.size // 3)
        assert got.ravel().tolist() == [m.cell_of(float(v), ax) for v in levels]
    assert type(m.cell_of(0.3, grid_table1.q)) is int
    assert m.cell_of(np.array([]), grid_table1.q).shape == (0,)


def test_cell_of_an_array_with_a_nan_names_the_axis(grid_table1):
    with pytest.raises(ValueError, match="NaN on axis 'g'"):
        m.cell_of(np.array([0.5, 0.2, math.nan]), grid_table1.g)


CLAMPS = [(-0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (0.25, 0.25), (-1e-17, 0.0),
          (-3.0, 0.0), (1.0 + 2e-16, 1.0), (7.5, 1.0), (-math.inf, 0.0), (math.inf, 1.0)]


@pytest.mark.parametrize("value,clamped", CLAMPS)
def test_clamp01_on_a_float(value, clamped):
    got = clamp01(value)
    # repr tells +0.0 from -0.0: a clamped level is never written as -0.0
    assert repr(float(got)) == repr(clamped)


def test_clamp01_on_arrays_is_the_float_rule_entry_by_entry():
    values = np.array([v for v, _ in CLAMPS] * 5)
    got = clamp01(values)
    assert got.shape == values.shape
    assert [repr(v) for v in got.tolist()] == [repr(c) for _, c in CLAMPS] * 5


def test_clamp01_keeps_nan_for_cell_of_to_refuse(grid_table1):
    assert math.isnan(clamp01(math.nan))
    got = clamp01(np.array([0.5, math.nan, -1.0]))
    assert got[0] == 0.5 and math.isnan(got[1]) and got[2] == 0.0
    with pytest.raises(ValueError, match="NaN on axis 'q'"):
        m.cell_of(float(clamp01(math.nan)), grid_table1.q)


def test_small_grid_shape(cfg_small, grid_small):
    assert grid_small.shape == (6, 4, 4)
    assert grid_small.n_states == 96
