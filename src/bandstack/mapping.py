"""Stretch-and-stack index mapping between source spectra and the wideband grid.

Geometry: the wideband budget F_s is split into p bands of width
f_band = F_s / (2p), so the occupied spectrum ends at F_s/2 and the upper
half stays free for Hermitian mirroring. Each channel's n source bins live on
the inclusive grid k * f_s/(n-1), 0..f_s; band b shifts that grid by
b * f_band and compresses it by f_band/f_s, then every stretched frequency is
assigned to the nearest destination bin of linspace(0, F_s, n_out). Exactly,
that bin is the integer quotient round_half_up(m (n_out-1) / (2p(n-1))) with
m = b(n-1) + k; ties go to the larger bin unless float rounding decides.

Two per-band assignment paths, both checked by ``_band_geometry``:

  * ``stack_oracle`` - scans all n_out float grid points per float
    stretched frequency, O(n * n_out). Kept as the behavioral reference.
  * ``stack_fast`` - the int64 quotient, O(1) per bin, with the scan's float
    comparison kept at the few bins where rounding decides; bitwise-equal,
    orders of magnitude faster (see bandstack.bench).

``build_band_plan`` runs ``stack_fast`` once over a column of all p bands
and stores one (p, n) matrix. Decode rebuilds the plan from the sidecar, so
the assignments are part of the file format. The layout depends only on the
configuration, never on the samples, so the plan of the most recent
configuration is kept and shared by every caller with an equal one. That
is safe because a plan is a frozen dataclass whose arrays are read-only
views of read-only arrays, which numpy refuses to make writable again. One
entry suffices because encode followed by decode of one record needs a
single live configuration; a plan that never repeats is only held memory.

Collisions: adjacent bands share their boundary frequency because the source
grid spans 0..f_s inclusive, so for p >= 2 some destination bins are always
written twice (later band wins). What decides invertibility is whether any
channel's *informative* bins (the lower spectral half; the rest is conjugate
redundancy for real channels) get clobbered; the plan computes that exactly
and reports it as ``lossless``, alongside the coarse rate-floor predicate
F_s >= p * f_s (necessary, not sufficient).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from bandstack._kernels import nearest_indices_scan
from bandstack.model import (
    MODE_STRICT_LOSSLESS,
    BandPlan,
    CollisionError,
    InfeasibleError,
    StackedSpectrum,
    TransformConfig,
    ValidationError,
    check_counts,
    check_rate,
    destination_grid,
    output_length,
)

_MAX_N_OUT = 2**48  # keeps the float rounding of stack_fast below half a bin
_TINY = np.finfo(np.float64).tiny


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
    """Check a configuration for one band or a (k, 1) column of bands and
    return n_out and the band width. Refuses what would overflow the int64
    arithmetic of ``stack_fast`` or void its float error bound."""
    p, n_samples = check_counts(p, n_samples)
    source_rate_hz = check_rate("source rate", source_rate_hz)
    target_rate_hz = check_rate("target rate", target_rate_hz)
    try:
        n_out = output_length(n_samples, source_rate_hz, target_rate_hz)
    except OverflowError:  # T * F_s is infinite
        n_out = math.inf
    if not 2 <= n_out <= _MAX_N_OUT:
        raise ValidationError(f"output length {n_out:.6g} is outside 2..{_MAX_N_OUT}")
    den = 2 * p * (n_samples - 1)
    if den * n_out > np.iinfo(np.int64).max:
        raise ValidationError(f"index arithmetic overflows int64: 2p(n-1)*n_out = {den * n_out}")
    if min(source_rate_hz / (n_samples - 1), target_rate_hz / max(den, n_out)) < _TINY:
        raise ValidationError(f"rates {source_rate_hz!r} and {target_rate_hz!r} Hz "
                              f"give grid steps below the normal float range")
    bands = np.asarray(band_index)
    outside = (bands < 0) | (bands >= p)
    if outside.any():
        raise ValidationError(f"band index {bands[outside][0]} out of range for p={p}")
    return n_out, target_rate_hz / (2 * p)


def stack_oracle(p: int, n_samples: int, source_rate_hz: float,
                 target_rate_hz: float, band_index: int) -> np.ndarray:
    """Assignment for one band by exhaustive nearest-frequency search."""
    n_out, band_width = _band_geometry(p, n_samples, source_rate_hz,
                                       target_rate_hz, band_index)
    targets = stretched_frequencies(n_samples, source_rate_hz, band_width, band_index)
    return nearest_indices_scan(targets, destination_grid(n_out, target_rate_hz))


def stack_fast(p: int, n_samples: int, source_rate_hz: float,
               target_rate_hz: float, band_index) -> np.ndarray:
    """Assignment for one band, or one row per band for a (k, 1) column;
    bitwise-equal to stack_oracle.

    With den = 2p(n-1) and m = b(n-1) + k, bin k of band b lies x =
    m (n_out-1)/den grid steps up; q, r = divmod(2m(n_out-1) + den, 2 den),
    all below den * n_out, give q = round_half_up(x) and 2x - (2q-1) = r/den.

    Error bound: the scan's float target is x s (1 + e), s = F_s/(n_out-1),
    |e| <= 6.01u (six roundings, u = 2**-53), and its grid point j is
    j s (1 + e_j), |e_j| <= 2.01u (the last point, F_s, borders a midpoint
    only at n_out = 2, where it equals fl(1 * s)). Near the midpoint of
    bins j and j+1 both distances are exact (Sterbenz), so the scan takes
    j+1 iff (2x - 2j - 1) + E >= 0 with |E| <= 2x 6.01u + (2j+1) 2.01u
    < (2j+1) 2**-49 <= (n_out+1) 2**-49. Bins farther from a midpoint thus
    get q from both rules. The rest, min(r, 2 den - r) <= den (n_out+1)
    2**-48 (twice the bound), are the exact ties (r = 0) and, once den *
    n_out reaches 2**48, a few near-ties: as n_out <= 2**48 keeps |E| under
    a quarter bin, the scan's comparison of the two bins around their
    midpoint decides them.
    """
    n_out, band_width = _band_geometry(p, n_samples, source_rate_hz,
                                       target_rate_hz, band_index)
    den = 2 * p * (n_samples - 1)
    bands, bins = np.broadcast_arrays(np.asarray(band_index, np.int64), np.arange(n_samples))
    # Two named temporaries leave a hole below q, the long-lived plan, that fits
    # encode's arrays (one cost wide64-complex ~1,600 page faults per request).
    m = bands * (n_samples - 1) + bins
    num = 2 * (n_out - 1) * m + den
    q, r = np.divmod(num, 2 * den)
    limit = (den * (n_out + 1)) >> 48
    near = (r <= limit) | (r >= 2 * den - limit)
    if near.any():
        # the scan's float target, grid and <= at the two bins around the midpoint
        b, k, lower = bands[near], bins[near], q[near] - (r[near] <= limit)
        t = b * band_width + (k * (source_rate_hz / (n_samples - 1))) * (
            band_width / source_rate_hz)
        step = target_rate_hz / (n_out - 1)
        q[near] = lower + (np.abs((lower + 1) * step - t) <= np.abs(lower * step - t))
    return q


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
    return _build_band_plan(*check_counts(p, n_samples),
                            check_rate("source rate", source_rate_hz), config)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _build_band_plan(p: int, n_samples: int, source_rate_hz: float,
                     config: TransformConfig) -> BandPlan:
    target = config.target_rate_hz
    rate_feasible = bool(target >= p * source_rate_hz)
    if config.mode == MODE_STRICT_LOSSLESS and not rate_feasible:
        raise InfeasibleError(
            f"strict-lossless requires F_s >= p*f_s = {p * source_rate_hz:g} Hz, "
            f"got F_s = {target:g} Hz")
    n_out, band_width = _band_geometry(p, n_samples, source_rate_hz, target, 0)
    assignments = stack_fast(p, n_samples, source_rate_hz, target, np.arange(p)[:, None])
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
    _refuse_destructive(plan)
    out = np.zeros(plan.n_out, dtype=np.complex128)
    _stack_into(out, bins[list(plan.stacking_order)], plan)
    return StackedSpectrum(out, plan.target_rate_hz)


def _refuse_destructive(plan: BandPlan) -> None:
    """Strict-lossless mode refuses a plan whose collisions destroy content."""
    if plan.mode == MODE_STRICT_LOSSLESS and not plan.lossless:
        b, j = plan.first_destructive
        raise CollisionError(
            f"strict-lossless stacking impossible: channel {plan.stacking_order[b] + 1} "
            f"source bin {j} is overwritten at destination bin {plan.assignments[b][j]} "
            f"(collision_count={plan.collision_count})")


def _stack_into(out: np.ndarray, spectra: np.ndarray, plan: BandPlan) -> None:
    """Scatter band-ordered (p, n) ``spectra`` into the wideband bins ``out``.

    Writes run band-major, source bins ascending, and the last writer of a
    bin wins. Every assignment is at most n_out//2 (the top band ends at
    F_s/2), so ``out`` may hold only the lower n_out//2 + 1 bins.
    """
    out[plan.assignments.ravel()] = spectra.ravel()
