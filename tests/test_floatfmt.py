"""floatfmt.reprs against CPython's repr, byte for byte, also where the path
writer formats each run of repeated values once."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microgrid_dp import cli
from microgrid_dp.floatfmt import reprs


def assert_matches_repr(x: np.ndarray) -> None:
    x = np.asarray(x, dtype=np.float64)
    got = reprs(x).tolist()
    want = [repr(v).encode() for v in x.tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} of {x.size} differ, e.g. {bad[:5]}"


def ulp_neighbours(x: np.ndarray, reach: int = 3) -> np.ndarray:
    """x and the `reach` doubles on either side of every element."""
    bits = np.asarray(x, dtype=np.float64).ravel().view(np.int64)
    return np.concatenate([(bits + step).view(np.float64) for step in range(-reach, reach + 1)])


rng = np.random.default_rng(20260615)
N = 170_000

CASES = {
    # every bit pattern: NaNs, infinities, subnormals and +-0.0 among them
    "bit-patterns": np.concatenate([
        rng.integers(0, 2**64, N, dtype=np.uint64).view(np.float64),
        np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308])]),
    "log-uniform": np.exp(rng.uniform(np.log(1e-6), np.log(1e17), N)) * rng.choice([-1.0, 1.0], N),
    "normal": rng.normal(0.0, 1.0, N) * 10.0 ** rng.integers(-3, 12, N),
    "decimals": (lambda scale: np.round(rng.normal(0.0, 1e3, N) * scale) / scale)(
        10.0 ** rng.integers(0, 16, N)),
    "powers": ulp_neighbours(np.concatenate([10.0 ** np.arange(-30, 40),
                                             2.0 ** np.arange(-60, 70)]) * [[1.0], [-1.0]]),
    "switch-points": ulp_neighbours(np.array([1e-4, 1e15, 1e16, -1e-4, -1e15, -1e16]), 200),
    # the 16-digit candidate is >= 2**53 for leading digits >= 9.007199254740992
    "leading-9": 9.007199254740992 * 10.0 ** rng.integers(-4, 15, N)
    * (1.0 + rng.uniform(-1e-3, 0.11, N)),
    # dyadic rationals M / 2**t: exact ties between candidates at 15, 16 and 17 digits
    "halfway": (rng.integers(2**20, 2**53, N) / 2.0 ** rng.integers(1, 40, N)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reprs_matches_repr(name):
    assert_matches_repr(CASES[name])


def test_cases_cover_a_million_values():
    assert sum(x.size for x in CASES.values()) >= 10**6


def test_reprs_of_empty_array():
    out = reprs(np.array([]))
    assert out.shape == (0,) and out.tolist() == []


def test_reprs_takes_lists_and_strided_views_and_refuses_2d():
    assert reprs([0.1, -2.0, 1e300]).tolist() == [b"0.1", b"-2.0", b"1e+300"]
    assert_matches_repr(np.linspace(-3.0, 3.0, 41)[::3])
    with pytest.raises(ValueError, match="1-D"):
        reprs(np.zeros((2, 2)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=40))
def test_reprs_matches_repr_on_any_floats(values):
    assert_matches_repr(np.array(values, dtype=np.float64))


# Runs of one value, up to twice a path's length, so that many cross from
# one path's last step into the next path's first; 0.0 and -0.0 and the
# NaNs and infinities are drawn often.
_RUN_VALUES = st.sampled_from([0.0, -0.0, 1.0, 0.1, 1e-5, 5e-324, np.nan, -np.inf]) | st.floats(
    allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def _path_columns(draw):
    paths, steps = draw(st.integers(0, 5)), draw(st.integers(1, 40))
    values = []
    while len(values) < paths * steps:
        values += [draw(_RUN_VALUES)] * draw(st.integers(1, 2 * steps))
    return np.array(values[:paths * steps], dtype=np.float64).reshape(paths, steps)


def _assert_runs_match_reprs(values: np.ndarray) -> None:
    got = cli._reprs_by_run(values)
    assert got.shape == values.shape
    assert got.ravel().tolist() == reprs(values.ravel()).tolist()


@settings(max_examples=300, deadline=None)
@given(_path_columns())
def test_reprs_by_run_is_reprs_of_every_entry(values):
    _assert_runs_match_reprs(values)


@pytest.mark.parametrize("values", [
    np.zeros((0, 168)),                                  # no paths
    np.array([[0.5], [0.5], [-0.0], [0.0]]),             # one step: every path a run of one
    np.array([[0.0, -0.0, -0.0, 0.0], [0.0, 0.0, -0.0, -0.0]]),  # zeros of both signs
    np.full((3, 168), 0.25),                             # one value across three paths
    np.repeat([[1.0, 2.0], [2.0, 3.0]], 84, axis=1),     # 84-step runs; path 1 starts on 2.0
], ids=["no-paths", "one-step", "signed-zeros", "one-value", "long-runs"])
def test_reprs_by_run_edge_cases(values):
    _assert_runs_match_reprs(values)
