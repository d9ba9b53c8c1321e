"""Kernel contracts: both algorithms, one answer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bandstack._kernels import nearest_indices_fast, nearest_indices_scan
from helpers import nearest_search_literal


def _grid(n_out, span):
    return np.linspace(0.0, span, n_out)


def test_exact_midpoint_ties_resolve_upward():
    grid = _grid(7, 12.0)  # exact step 2.0: 0, 2, ..., 12
    targets = np.array([3.0, 5.0, 4.0, 11.0, 0.0, 12.0])
    want = np.array([2, 3, 2, 6, 0, 6])
    assert np.array_equal(nearest_indices_scan(targets, grid), want)
    assert np.array_equal(nearest_indices_fast(targets, grid, 2.0), want)


def test_ulp_neighbourhood_of_midpoints():
    rng = np.random.default_rng(0)
    for n_out in (2, 3, 17, 64):
        span = float(rng.uniform(0.5, 2000.0))
        grid = _grid(n_out, span)
        step = span / (n_out - 1)
        mids = (grid[:-1] + grid[1:]) / 2.0
        targets = np.concatenate([
            mids,
            np.nextafter(mids, -np.inf),
            np.nextafter(mids, np.inf),
            grid,
            np.nextafter(grid, np.inf),
        ])
        scan = nearest_indices_scan(targets, grid)
        fast = nearest_indices_fast(targets, grid, step)
        assert np.array_equal(scan, fast)
        assert np.array_equal(scan, nearest_search_literal(targets, grid))


@settings(max_examples=150, deadline=None)
@given(
    n_out=st.integers(min_value=2, max_value=128),
    span=st.floats(min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_fast_equals_scan_property(n_out, span, seed):
    grid = _grid(n_out, span)
    step = span / (n_out - 1)
    rng = np.random.default_rng(seed)
    targets = rng.uniform(0.0, span, size=32)
    scan = nearest_indices_scan(targets, grid)
    fast = nearest_indices_fast(targets, grid, step)
    assert np.array_equal(scan, fast)
