"""Stretch-and-stack index mapping between source spectra and the wideband grid.

Geometry: the wideband budget F_s is split into p bands of width
f_band = F_s / (2p), so the occupied spectrum ends at F_s/2 and the upper
half stays free for Hermitian mirroring. Each channel's n source bins live on
the inclusive grid k * f_s/(n-1), 0..f_s; band b shifts that grid by
b * f_band and compresses it by f_band/f_s, then every stretched frequency is
assigned to the nearest destination bin of linspace(0, F_s, n_out).

Two interchangeable per-band assignment paths exist:

  * ``stack_oracle`` - scans all n_out destination bins per source bin, the
    obvious O(n * n_out) search. Kept as the behavioral reference.
  * ``stack_fast`` - closed-form O(1)-per-bin index computation with a small
    exact re-check window; bitwise-identical output, orders of magnitude
    faster (see bandstack.bench).

``build_band_plan`` runs the fast kernel once over all p * n stretched
frequencies and stores the result as one (p, n) matrix; row b equals
``stack_fast(..., b)``. The layout depends only on the configuration, never
on the samples, so plans are memoised: the plan of the most recent
configuration is kept, and every caller with an equal configuration gets
the same shared ``BandPlan``. Sharing is safe because a plan is a frozen
dataclass whose arrays are read-only views of read-only arrays, which numpy
refuses to make writable again. One entry suffices because encode followed
by decode of one record needs a single live configuration, while a kept
plan that never repeats (a stream whose length changes every record) is
only held memory.

Nearest-bin ties (a stretched frequency exactly midway between two grid
points) resolve to the larger index in both paths.

Collisions: adjacent bands share their boundary frequency because the source
grid spans 0..f_s inclusive, so for p >= 2 some destination bins are always
written twice (later band wins). What decides invertibility is whether any
channel's *informative* bins (the lower spectral half; the rest is conjugate
redundancy for real channels) get clobbered; the plan computes that exactly
and reports it as ``lossless``, alongside the coarse rate-floor predicate
F_s >= p * f_s (necessary, not sufficient).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from bandstack._kernels import nearest_indices_fast, nearest_indices_scan
from bandstack.model import (
    MODE_STRICT_LOSSLESS,
    BandPlan,
    CollisionError,
    InfeasibleError,
    StackedSpectrum,
    TransformConfig,
    ValidationError,
    destination_grid,
    output_length,
)


def source_frequencies(n_samples: int, source_rate_hz: float) -> np.ndarray:
    """Inclusive source grid: k * f_s/(n-1) for k = 0..n-1, spanning 0..f_s."""
    if n_samples < 2:
        raise ValidationError("need at least 2 samples")
    return np.arange(n_samples, dtype=np.float64) * (source_rate_hz / (n_samples - 1))


def stretched_frequencies(n_samples: int, source_rate_hz: float,
                          band_width_hz: float, band_index) -> np.ndarray:
    """Source grid compressed into band ``band_index``: l_f + freq * (f_band/f_s).

    A column of band indices, shape (k, 1), gives one row per band.
    """
    offset = band_index * band_width_hz
    ratio = band_width_hz / source_rate_hz
    return offset + source_frequencies(n_samples, source_rate_hz) * ratio


def _band_geometry(p, n_samples, source_rate_hz, target_rate_hz, band_index):
    """Stretched source frequencies of one band, the destination grid and its step."""
    if not 0 <= band_index < p:
        raise ValidationError(f"band index {band_index} out of range for p={p}")
    n_out = output_length(n_samples, source_rate_hz, target_rate_hz)
    band_width = target_rate_hz / (2 * p)
    targets = stretched_frequencies(n_samples, source_rate_hz, band_width, band_index)
    grid = destination_grid(n_out, target_rate_hz)
    return targets, grid, target_rate_hz / (n_out - 1)


def stack_oracle(p: int, n_samples: int, source_rate_hz: float,
                 target_rate_hz: float, band_index: int) -> np.ndarray:
    """Assignment for one band by exhaustive nearest-frequency search."""
    targets, grid, _ = _band_geometry(p, n_samples, source_rate_hz, target_rate_hz,
                                      band_index)
    return nearest_indices_scan(targets, grid)


def stack_fast(p: int, n_samples: int, source_rate_hz: float,
               target_rate_hz: float, band_index: int) -> np.ndarray:
    """Assignment for one band in O(n); bitwise-equal to stack_oracle."""
    return nearest_indices_fast(
        *_band_geometry(p, n_samples, source_rate_hz, target_rate_hz, band_index))


def _collision_analysis(assignments, n_out):
    """Count multiply-written bins and check the informative half survives.

    Writes happen band-major, source-bin ascending; numpy fancy assignment
    reproduces that overwrite order. A plan is lossless iff every (band,
    j <= n//2) write is the final writer of its destination bin.
    """
    p, n = assignments.shape
    flat = assignments.ravel()
    collision_count = int((np.bincount(flat, minlength=n_out) > 1).sum())

    writes = np.arange(p * n)
    final_writer = np.empty(n_out, dtype=np.int64)
    final_writer[flat] = writes
    low = n // 2 + 1
    survives = final_writer[assignments[:, :low]] == writes.reshape(p, n)[:, :low]
    if survives.all():
        return collision_count, True, None
    b, j = np.argwhere(~survives)[0]
    return collision_count, False, (int(b), int(j))


_PLAN_CACHE_SIZE = 1


def build_band_plan(p: int, n_samples: int, source_rate_hz: float,
                    config: TransformConfig) -> BandPlan:
    """Compute the full mapping for one configuration (fast path throughout).

    In strict-lossless mode configurations below the rate floor
    F_s >= p * f_s are refused outright; actual collision damage is enforced
    later, at stacking time.

    Plans are memoised on (p, n, f_s, config) in a cache of one entry, so
    repeated calls with one configuration return the same read-only plan
    object. Errors are not cached: a refused configuration raises on every
    call.
    """
    if p != config.channel_count:
        raise ValidationError(f"config is for {config.channel_count} channels, got p={p}")
    if n_samples < 2:
        raise ValidationError("need at least 2 samples per channel")
    if source_rate_hz <= 0:
        raise ValidationError("source rate must be positive")
    return _build_band_plan(int(p), int(n_samples), float(source_rate_hz), config)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _build_band_plan(p: int, n_samples: int, source_rate_hz: float,
                     config: TransformConfig) -> BandPlan:
    target = config.target_rate_hz
    rate_feasible = bool(target >= p * source_rate_hz)
    if config.mode == MODE_STRICT_LOSSLESS and not rate_feasible:
        raise InfeasibleError(
            f"strict-lossless requires F_s >= p*f_s = {p * source_rate_hz:g} Hz, "
            f"got F_s = {target:g} Hz")
    n_out = output_length(n_samples, source_rate_hz, target)
    if n_out < 2:
        raise ValidationError(f"output length {n_out} is too short (need >= 2 samples)")

    band_width = target / (2 * p)
    targets = stretched_frequencies(n_samples, source_rate_hz, band_width,
                                    np.arange(p)[:, None])
    assignments = nearest_indices_fast(targets, destination_grid(n_out, target),
                                       target / (n_out - 1))
    collision_count, lossless, first_destructive = _collision_analysis(assignments, n_out)

    return BandPlan(
        p=p,
        n_samples=n_samples,
        source_rate_hz=source_rate_hz,
        target_rate_hz=target,
        n_out=n_out,
        band_width_hz=band_width,
        band_offsets_hz=np.arange(p, dtype=np.float64) * band_width,
        alpha=band_width / source_rate_hz,
        assignments=assignments,
        collision_count=collision_count,
        rate_feasible=rate_feasible,
        lossless=lossless,
        first_destructive=first_destructive,
        mode=config.mode,
        stacking_order=config.stacking_order,
    )


def apply_stacking(spectra, plan: BandPlan) -> StackedSpectrum:
    """Write every channel's spectrum into its band of the wideband spectrum.

    ``spectra`` holds channel c's n bins in row c: a (p, n) array or a
    sequence of p ChannelSpectrum. Bands are filled bottom-up; within a band,
    source bins ascend; later writes overwrite earlier ones.
    ``plan.stacking_order[b]`` picks which channel occupies band b.
    Strict-lossless mode refuses any plan whose collisions would destroy
    channel content.
    """
    try:
        rows = spectra if isinstance(spectra, np.ndarray) else [s.bins for s in spectra]
        bins = np.asarray(rows, dtype=np.complex128)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"spectra must be {plan.p} rows of {plan.n_samples} bins: a (p, n) array "
            f"or a sequence of ChannelSpectrum") from exc
    if bins.ndim != 2 or bins.shape[0] != plan.p:
        raise ValidationError(f"plan is for {plan.p} channels, got {len(bins)} spectra")
    if bins.shape[1] != plan.n_samples:
        raise ValidationError(
            f"spectra have {bins.shape[1]} bins, plan expects {plan.n_samples}")
    if plan.mode == MODE_STRICT_LOSSLESS and not plan.lossless:
        b, j = plan.first_destructive
        raise CollisionError(
            f"strict-lossless stacking impossible: channel {plan.stacking_order[b] + 1} "
            f"source bin {j} is overwritten at destination bin {plan.assignments[b][j]} "
            f"(collision_count={plan.collision_count})")

    out = np.zeros(plan.n_out, dtype=np.complex128)
    out[plan.assignments.ravel()] = bins[list(plan.stacking_order)].ravel()
    return StackedSpectrum(out, plan.target_rate_hz)
