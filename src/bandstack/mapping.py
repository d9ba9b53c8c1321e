"""Stretch-and-stack index mapping between source spectra and the wideband grid.

Geometry: the wideband budget F_s is split into p bands of width
f_band = F_s / (2p), so the occupied spectrum ends at F_s/2 and the upper
half stays free for Hermitian mirroring. Each channel's n source bins live on
the inclusive grid k * f_s/(n-1), 0..f_s; band b shifts that grid by
b * f_band and compresses it by f_band/f_s, then every stretched frequency is
assigned to the nearest destination bin of linspace(0, F_s, n_out). Exactly,
that bin is the integer quotient round_half_up(m (n_out-1) / (2p(n-1))) with
m = b(n-1) + k; ties go to the larger bin unless float rounding decides.

One per-band assignment kernel, ``stack_fast``, computes that contract:
the nearest bin of linspace(0, F_s, n_out) to the float stretched frequency,
the larger bin winning ties. It takes the int64 quotient, O(1) per bin, and
repeats the float comparison only at the few bins where rounding decides. A
scan of every grid point per source bin computes the same contract in
O(n * n_out); the tests keep that scan (tests/helpers.py) and check
``stack_fast`` against it bit for bit (acceptance criterion C2 and
tests/test_kernels.py). ``model.check_geometry`` bounds the configurations
where the quotient is exact.

``build_band_plan`` runs ``stack_fast`` once over a column of all p bands
and stores one (p, n) matrix. Decode rebuilds the plan from the sidecar, so
the assignments are part of the file format. From the final writer of each
bin the plan also derives encode's source map (``BandPlan.source`` and
``sign``, about 9 bytes per bin up to n_out/2), so encode gathers every
wideband bin once from the channel rfft instead of replaying the writes,
and decode's gather index in channel order (``BandPlan.decode_index``, 8
bytes per informative channel bin), so decode inverts straight into the
channels it returns.
The layout depends only on the configuration, never on the samples, so the
plan of the most recent configuration is kept and shared by every caller
with an equal one. That is safe because a plan is a frozen dataclass whose
arrays are read-only views of read-only arrays, which numpy refuses to make
writable again. One entry suffices because encode followed by decode of
one record needs a single live configuration; a plan that never repeats is
only held memory.

Collisions: adjacent bands share their boundary frequency because the source
grid spans 0..f_s inclusive, so for p >= 2 some destination bins are always
written twice (later band wins). What decides invertibility is whether any
channel's *informative* bins (the lower spectral half; the rest is conjugate
redundancy for real channels) get clobbered; one replay of the writes over
the n_out//2 + 1 bins the bands reach computes that exactly, with the source
map, and the plan reports it as ``lossless``,
alongside the coarse rate-floor predicate F_s >= p * f_s (necessary, not
sufficient). In strict-lossless mode ``build_band_plan`` refuses a
configuration that fails either, so no lossy strict plan exists.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from bandstack.model import (
    MODE_STRICT_LOSSLESS,
    BandPlan,
    CollisionError,
    InfeasibleError,
    StackedSpectrum,
    TransformConfig,
    ValidationError,
    check_array,
    check_counts,
    check_geometry,
    check_rate,
    check_type,
)


def stack_fast(p: int, n_samples: int, source_rate_hz: float,
               target_rate_hz: float, band_index) -> np.ndarray:
    """Assignment for one band, or one row per band for a (k, 1) column of
    integer band indices in 0..p-1: the nearest bin of linspace(0, F_s,
    n_out) to each float stretched frequency, the larger bin on a tie, as a
    scan of every grid point comparing with <= finds it.

    With den = 2p(n-1) and m = b(n-1) + k, bin k of band b lies x =
    m (n_out-1)/den grid steps up; q, r = divmod(2m(n_out-1) + den, 2 den),
    all below den * n_out, give q = round_half_up(x) and 2x - (2q-1) = r/den.
    (r is taken as num - 2 den q, exact in int64: ``np.divmod`` is over ten
    times slower than ``np.floor_divide`` by a scalar.)

    Error bound: the scan's float target is x s (1 + e), s = F_s/(n_out-1),
    |e| <= 6.01u (six roundings, u = 2**-53), and its grid point j is
    j s (1 + e_j), |e_j| <= 2.01u (the last point, F_s, borders a midpoint
    only at n_out = 2, where it equals fl(1 * s)). Near the midpoint of
    bins j and j+1 both distances are exact (Sterbenz), so the scan takes
    j+1 iff (2x - 2j - 1) + E >= 0 with |E| <= 2x 6.01u + (2j+1) 2.01u
    < (2j+1) 2**-49 <= (n_out+1) 2**-49. Bins farther from a midpoint thus
    get q from both rules. The rest, min(r, 2 den - r) <= den (n_out+1)
    2**-48 (twice the bound), are the exact ties (r = 0) and, once den *
    n_out reaches 2**48, a few near-ties: as n_out <= 2**48 (enforced by
    ``model.check_geometry``) keeps |E| under a quarter bin, the scan's
    comparison of the two bins around their midpoint decides them.
    """
    n_out = check_geometry(p, n_samples, source_rate_hz, target_rate_hz)
    bands = np.asarray(band_index)
    bad = bands if bands.dtype.kind not in "iu" else bands[(bands < 0) | (bands >= p)]
    if bad.size:
        raise ValidationError(f"band index {bad.flat[0]} is not an integer in 0..{p - 1}")
    band_width = float(target_rate_hz) / (2 * p)
    den = 2 * p * (n_samples - 1)
    bands, bins = np.broadcast_arrays(np.asarray(band_index, np.int64), np.arange(n_samples))
    # Two named temporaries leave a hole below q, the long-lived plan, that fits
    # encode's arrays (one cost wide64-complex ~1,600 page faults per request).
    m = bands * (n_samples - 1) + bins
    num = 2 * (n_out - 1) * m + den
    q = np.floor_divide(num, 2 * den)
    r = np.multiply(q, 2 * den)
    np.subtract(num, r, out=r)
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


def _replay_writes(assignments, stacking_order, source, sign):
    """Replay the writes once: return (collision_count, first_destructive)
    and fill encode's gather map ``source`` and ``sign``.

    Writes happen band-major, source-bin ascending, all below len(source) =
    n_out//2 + 1; numpy fancy assignment reproduces that overwrite order and
    leaves each bin's final writer, the write index b*n + j or p*n where
    nothing writes. A plan is lossless iff every (band, j < h = n//2 + 1)
    write is the final writer of its destination bin.

    Write b*n + j puts channel c = stacking_order[b]'s bin j in place, which
    for j >= h is conj(rfft[c, n - j]); its source is c*h + j or c*h + (n - j)
    in the flattened channel-order rfft. Both maps are tables over the p*n
    writes, gathered at the final writers; the unwritten marker p*n indexes
    one more entry, the zero after the p*h rfft bins.
    """
    p, n = assignments.shape
    h = n // 2 + 1
    flat = assignments.ravel()
    collision_count = int((np.bincount(flat, minlength=len(source)) > 1).sum())
    writes = np.arange(p * n)
    final_writer = np.full(len(source), p * n)
    final_writer[flat] = writes
    lost = final_writer[assignments[:, :h]] != writes.reshape(p, n)[:, :h]
    first_destructive = tuple(map(int, np.argwhere(lost)[0])) if lost.any() else None
    del writes, lost  # freed before the tables below are allocated

    rfft_bin = np.arange(n)
    rfft_bin[h:] = n - rfft_bin[h:]
    by_write = np.empty(p * n + 1, dtype=np.intp)
    np.add(np.multiply(stacking_order, h)[:, None], rfft_bin, out=by_write[:-1].reshape(p, n))
    by_write[-1] = p * h
    np.take(by_write, final_writer, out=source, mode="clip")
    sign_by_write = np.ones(p * n + 1, dtype=np.int8)
    sign_by_write[:-1].reshape(p, n)[:, h:] = -1
    np.take(sign_by_write, final_writer, out=sign, mode="clip")
    return collision_count, first_destructive


_PLAN_CACHE_SIZE = 1


def build_band_plan(p: int, n_samples: int, source_rate_hz: float,
                    config: TransformConfig) -> BandPlan:
    """Compute the full mapping for one configuration (fast path throughout).

    Strict-lossless mode is enforced here and nowhere else: a configuration
    below the rate floor F_s >= p * f_s raises InfeasibleError, and one whose
    stacking destroys channel content raises CollisionError, so every
    strict plan that exists is lossless.

    Plans are memoised on (p, n, f_s, config) in a cache of one entry, so
    repeated calls with one configuration return the same read-only plan
    object. Errors are not cached: a refused configuration raises on every
    call.
    """
    check_type("config", config, TransformConfig)
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
    n_out = check_geometry(p, n_samples, source_rate_hz, target)
    band_width = target / (2 * p)
    # The source map and decode index live as long as the plan. Allocated
    # before the temporaries below, they leave no hole under them (the map,
    # allocated after them, cost wide64-complex 2-4 ms per encode and 1-3 ms
    # per decode).
    n_bins = n_out // 2 + 1
    source = np.empty(n_bins, dtype=np.intp)
    sign = np.empty(n_bins, dtype=np.int8)
    decode_index = np.empty((p, n_samples // 2 + 1), dtype=np.intp)
    assignments = stack_fast(p, n_samples, source_rate_hz, target, np.arange(p)[:, None])
    collision_count, first_destructive = _replay_writes(
        assignments, config.stacking_order, source, sign)
    if config.mode == MODE_STRICT_LOSSLESS and first_destructive is not None:
        b, j = first_destructive
        raise CollisionError(
            f"strict-lossless stacking impossible: channel {config.stacking_order[b] + 1} "
            f"source bin {j} is overwritten at destination bin {assignments[b, j]} "
            f"(collision_count={collision_count})")
    # Row c of decode's gather reads band argsort(order)[c], channel c's band.
    np.take(assignments[:, :decode_index.shape[1]], np.argsort(config.stacking_order),
            axis=0, out=decode_index, mode="clip")

    return BandPlan(
        p=p, n_samples=n_samples, source_rate_hz=source_rate_hz, target_rate_hz=target,
        n_out=n_out, band_width_hz=band_width,
        band_offsets_hz=np.arange(p, dtype=np.float64) * band_width,
        alpha=band_width / source_rate_hz, assignments=assignments,
        collision_count=collision_count, rate_feasible=rate_feasible,
        first_destructive=first_destructive, source=source, sign=sign,
        decode_index=decode_index, mode=config.mode, stacking_order=config.stacking_order)


def apply_stacking(spectra, plan: BandPlan) -> StackedSpectrum:
    """Write every channel's spectrum into its band of the wideband spectrum.

    ``spectra`` holds channel c's n bins in row c: a (p, n) array, or a list
    or tuple of p ChannelSpectrum. Bands are filled bottom-up; within a band,
    source bins ascend; later writes overwrite earlier ones.
    ``plan.stacking_order[b]`` picks which channel occupies band b.
    """
    if isinstance(spectra, (list, tuple)):
        spectra = [getattr(s, "bins", s) for s in spectra]
    bins = check_array("spectrum bins", spectra, 2, np.complex128)
    if bins.shape[0] != plan.p:
        raise ValidationError(f"plan is for {plan.p} channels, got {len(bins)} spectra")
    if bins.shape[1] != plan.n_samples:
        raise ValidationError(
            f"spectra have {bins.shape[1]} bins, plan expects {plan.n_samples}")
    # The literal scatter: the last writer of a bin wins.
    out = np.zeros(plan.n_out, dtype=np.complex128)
    out[plan.assignments.ravel()] = bins[list(plan.stacking_order)].ravel()
    return StackedSpectrum(out, plan.target_rate_hz)

