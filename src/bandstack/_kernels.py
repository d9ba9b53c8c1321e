"""Brute-force nearest-bin scan for the mapping stage, in numpy.

The reference behind ``mapping.stack_oracle`` and the benchmark baseline;
``mapping.stack_fast`` reproduces its float comparisons bit for bit. Among
equal |grid[k] - f| the LARGEST k wins, as in a scan updating on ``<=``.
"""

from __future__ import annotations

import numpy as np


def active_lane() -> str:
    """Name of the kernel implementation in use, reported by benchmarks."""
    return "python"


def nearest_indices_scan(targets: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Brute-force reference: scan every grid point for every target.

    O(len(targets) * len(grid)).
    """
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    grid = np.ascontiguousarray(grid, dtype=np.float64)
    m = grid.shape[0]
    rev = np.ascontiguousarray(grid[::-1])
    scratch = np.empty(m)
    out = np.empty(targets.shape[0], dtype=np.int64)
    for j, f in enumerate(targets):
        # argmin returns the first minimum; scanning the reversed grid makes
        # that the last (largest-k) minimum of the original.
        np.subtract(rev, f, out=scratch)
        np.abs(scratch, out=scratch)
        out[j] = (m - 1) - int(np.argmin(scratch))
    return out
