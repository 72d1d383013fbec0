"""State grid construction, neighborhoods, and cell lookup."""

import math

import numpy as np
import pytest

import microgrid_dp as m


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
    assert g.q.step == pytest.approx(0.1, abs=1e-15)
    for ax in (g.z, g.q, g.g):
        diffs = np.diff(ax.points)
        assert np.all(diffs > 0)
        assert np.allclose(diffs, ax.step, atol=1e-12)


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
                assert g.ijk(mdx) == (i, j, k)
                seen.add(mdx)
    assert seen == set(range(g.n_states))


def test_state_of_matches_axis_points(grid_table1):
    g = grid_table1
    for mdx in (0, 17, 500, g.n_states - 1):
        i, j, k = g.ijk(mdx)
        x = g.state_of(mdx)
        assert x.z == g.z.points[i]
        assert x.q == g.q.points[j]
        assert x.g == g.g.points[k]


def test_neighborhood_boundary_cells(grid_table1):
    g = grid_table1
    lo, hi = m.neighborhood(g.z, 0)
    assert lo == -math.inf
    assert hi == pytest.approx(g.z.points[0] + g.z.step / 2.0, abs=1e-12)
    lo, hi = m.neighborhood(g.z, 17)
    assert hi == math.inf
    lo, hi = m.neighborhood(g.q, 0)
    assert lo == 0.0
    assert hi == pytest.approx(0.05, abs=1e-12)
    lo, hi = m.neighborhood(g.g, 10)
    assert lo == pytest.approx(0.95, abs=1e-12)
    assert hi == 1.0


def test_neighborhood_inner_cells(grid_table1):
    g = grid_table1
    for j in range(1, 10):
        lo, hi = m.neighborhood(g.q, j)
        assert lo == pytest.approx((g.q.points[j - 1] + g.q.points[j]) / 2, abs=1e-12)
        assert hi == pytest.approx((g.q.points[j] + g.q.points[j + 1]) / 2, abs=1e-12)


def test_neighborhood_index_range(grid_table1):
    with pytest.raises(IndexError):
        m.neighborhood(grid_table1.q, 11)
    with pytest.raises(IndexError):
        m.neighborhood(grid_table1.q, -1)


def test_neighborhoods_partition_axis(grid_table1):
    rng = np.random.default_rng(101)
    g = grid_table1
    for ax in (g.z, g.q, g.g):
        span = (ax.points[0] - 2 * ax.step, ax.points[-1] + 2 * ax.step)
        values = rng.uniform(*span, size=10_000)
        if ax.name != "z":
            values = values[(values > 0.0) & (values <= 1.0)]
        cells = [m.neighborhood(ax, i) for i in range(ax.n_points)]
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


def test_small_grid_shape(cfg_small, grid_small):
    assert grid_small.shape == (6, 4, 4)
    assert grid_small.n_states == 96
