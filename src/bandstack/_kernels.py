"""Nearest-bin search kernels for the mapping stage, in numpy.

Both kernels receive the same precomputed float64 target/grid arrays and
apply the same comparison rule, so their assignments are bitwise identical;
only speed differs.

Tie rule everywhere: among equal |grid[k] - f| the LARGEST k wins (a scan
that updates on ``<=`` lets later candidates overwrite earlier ones).
"""

from __future__ import annotations

import numpy as np


def active_lane() -> str:
    """Name of the kernel implementation in use, reported by benchmarks."""
    return "python"


def nearest_indices_scan(targets: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Brute-force reference: scan every grid point for every target.

    O(len(targets) * len(grid)); exists as the behavioral oracle for
    nearest_indices_fast and for the benchmark baseline.
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


def nearest_indices_fast(targets: np.ndarray, grid: np.ndarray, step: float) -> np.ndarray:
    """Closed-form nearest index on a uniform grid, O(1) per target.

    The integer guess floor(f/step + 0.5) can be off by one ulp-level
    rounding against the actual linspace values, so a +/-2 window around it
    is re-checked with the exact scan comparison. That keeps the result
    bitwise identical to nearest_indices_scan while never touching more
    than 5 grid points per target.
    """
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    grid = np.ascontiguousarray(grid, dtype=np.float64)
    m = grid.shape[0]
    guess = np.floor(targets / step + 0.5).astype(np.int64)
    best_d = np.full(targets.shape[0], np.inf)
    out = np.zeros(targets.shape[0], dtype=np.int64)
    for offset in range(-2, 3):
        k = np.clip(guess + offset, 0, m - 1)
        d = np.abs(grid[k] - targets)
        take = d <= best_d
        best_d[take] = d[take]
        out[take] = k[take]
    return out
