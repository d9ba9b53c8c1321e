"""Kernel contracts: the scan, the integer quotient and the literal search agree."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bandstack.mapping import stack_fast
from bandstack.model import output_length
from helpers import nearest_indices_scan, nearest_search_literal, stack_oracle


def _grid(n_out, span):
    return np.linspace(0.0, span, n_out)


def test_exact_midpoint_ties_resolve_upward():
    grid = _grid(7, 12.0)  # exact step 2.0: 0, 2, ..., 12
    targets = np.array([3.0, 5.0, 4.0, 11.0, 0.0, 12.0])
    want = np.array([2, 3, 2, 6, 0, 6])
    assert np.array_equal(nearest_indices_scan(targets, grid), want)
    # targets 0, 1, 2 on the grid 0, 2, 4: the dyadic tie at 1 goes up
    assert np.array_equal(stack_fast(1, 3, 4.0, 4.0, 0), [0, 1, 1])


def test_ulp_neighbourhood_of_midpoints():
    rng = np.random.default_rng(0)
    for n_out in (2, 3, 17, 64):
        span = float(rng.uniform(0.5, 2000.0))
        grid = _grid(n_out, span)
        mids = (grid[:-1] + grid[1:]) / 2.0
        targets = np.concatenate([
            mids,
            np.nextafter(mids, -np.inf),
            np.nextafter(mids, np.inf),
            grid,
            np.nextafter(grid, np.inf),
        ])
        scan = nearest_indices_scan(targets, grid)
        assert np.array_equal(scan, nearest_search_literal(targets, grid))


@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=8),
    n=st.integers(min_value=2, max_value=64),
    n_out=st.integers(min_value=2, max_value=256),
    source_rate=st.floats(min_value=1e-3, max_value=1e6),
    frac=st.floats(min_value=-0.45, max_value=0.45),
)
def test_fast_equals_scan_property(p, n, n_out, source_rate, frac):
    # T * F_s = n_out + frac: the duration and the output length need not be
    # integral
    target_rate = (n_out + frac) * source_rate / n
    assert output_length(n, source_rate, target_rate) == n_out
    for band in range(p):
        fast = stack_fast(p, n, source_rate, target_rate, band)
        assert np.array_equal(fast, stack_oracle(p, n, source_rate, target_rate, band))
