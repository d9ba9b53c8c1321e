"""End-to-end encode and decode pipelines.

Encode: band plan -> one ``rfft`` of all channels -> one gather of the
wideband bins -> the inverse FFT of the wideband spectrum. The channels are
real, so each band's full n-bin spectrum is its channel's rfft bins plus
their conjugate mirror above n/2. Later bands overwrite shared bins, and the
plan has resolved that once: its source map names, for every wideband bin up
to n_out/2, the rfft bin written there last and whether it is a mirrored
(conjugated) one. So stacking reads each wideband bin once. Three modes:

  * ``paper-complex`` - the stacked n_out-bin spectrum is inverted as-is;
    the output waveform is complex (stored as two planes on disk, not
    playable).
  * ``real-hermitian`` (default) - every band lies below F_s/2, so the
    spectra are stacked straight into the n_out//2 + 1 bins that ``irfft``
    reads. Their interior bins are halved and the result is inverted as the
    lower half of a conjugate-symmetric spectrum, so the waveform is real
    and equals the real part of the paper-complex output. This is the
    audio-export mode.
  * ``strict-lossless`` - real output like real-hermitian, but refuses any
    configuration whose stacking would destroy channel content. The refusal
    comes from building the plan, so encode, decode and roundtrip_report
    raise it before any transform, and a strict plan is always lossless.

Decode transforms the waveform once, into the wideband spectrum's bins
0..n_out/2 (the gathers read no others), with the interior bins doubled. In
the real modes that undoes encode's halving; in paper-complex the spectrum
is one-sided, so the real plane carries each interior bin at half weight.
It then gathers the channels' informative lower-half bins, one block of
channels at a time, and inverts each block in one batched real inverse FFT,
which restores the mirror half by conjugate symmetry. The upper-half reads
would be wrong anyway: adjacent bands structurally overwrite each other's
boundary bin, and only the redundant conjugate copy is lost there.

Amplitude scale: stored samples are peak-normalized to at most 0.9 by an
exact power of two recorded in the provenance, so descaling at decode is
bit-exact and WAV export never clips.

The wideband FFTs and decode's channel inverses run in ``bandstack._fft``,
on this thread and one shared worker thread, and its length rule puts the
long paper-complex ones on four quarter-length FFTs. Encode stacks into, and
decode transforms into, its held spectrum of at most 16*n_out bytes per
thread. Beside it, each call allocates the arrays below, and the signal or
record adopts and locks the one it returns instead of copying it, so that
array is fresh, read-only and never shares the held spectrum.

  * encode - the channels' p*(n//2 + 1) complex rfft bins, freed before
    the inverse, and one block at a time of the plan's read-only source
    map, which ``np.take`` copies because it cannot write it; then the
    samples it returns: in the real modes the ``irfft`` output, scaled in
    place; in paper-complex one scaled copy of the held spectrum (after the
    n_out magnitudes that find its peak), or on the quarter path the four
    quarters interleaved, with no n_out temporary.
  * decode - the (p, n) channels it returns, which the batched ``irfft``
    writes directly, block by block, and on each of its two threads one
    block's complex gather of its channels' n//2 + 1 bins at a time
    (``spectrum.block_rows``: at most half of 1 MiB, so each thread takes
    15 of 30 channels of n = 10000 in three blocks of 5), and nothing of
    n_out size on the quarter path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from bandstack import spectrum
from bandstack._fft import invert_rows, wideband_forward, wideband_inverse
from bandstack.mapping import build_band_plan
from bandstack.model import (
    MODE_PAPER_COMPLEX,
    BandPlan,
    CollisionWarning,
    DecodeError,
    MultiChannelRecord,
    TransformConfig,
    ValidationError,
    WidebandSignal,
    adopt,
    check_type,
    validate_record,
)
from bandstack.sidecar import SidecarHeader


def _normalization_scale(peak: float) -> float:
    """Smallest power of two that brings ``peak`` to at most 0.9."""
    if peak == 0.0:
        return 1.0
    k = math.ceil(math.log2(peak / 0.9))
    k = min(max(k, -1022), 1023)
    scale = 2.0 ** k
    if peak / scale > 0.9 and k < 1023:
        scale *= 2.0
    return scale


def _stack_spectrum(channels: np.ndarray, plan: BandPlan, lower: np.ndarray) -> None:
    """Write bins 0..n_out/2 of the stacked wideband spectrum of ``channels``
    into ``lower``; every band lies below F_s/2, so no other bin is written.

    One gather through the plan's source map reads every bin from the
    channel-order rfft bins (and, for bins no band writes, the zero after
    them); the sign then conjugates the mirror-half bins.
    """
    p, n = channels.shape
    h = n // 2 + 1
    bins = np.empty(p * h + 1, dtype=np.complex128)
    np.fft.rfft(channels, axis=1, out=bins[:-1].reshape(p, h))
    bins[-1] = 0
    # mode="clip" writes straight into ``lower``; "raise" buffers a copy.
    # np.take needs a writeable index, so it copies the locked ``plan.source``;
    # gathering in blocks keeps each copy to at most BLOCK_BYTES.
    step = max(1, spectrum.BLOCK_BYTES // plan.source.itemsize)
    for a in range(0, lower.shape[0], step):
        np.take(bins, plan.source[a:a + step], out=lower[a:a + step], mode="clip")
    # Times -1 negates exactly, so this matches np.conjugate bit for bit.
    np.multiply(lower.imag, plan.sign, out=lower.imag)


def encode(record: MultiChannelRecord, config: TransformConfig) -> WidebandSignal:
    """Transform a multichannel record into one wideband waveform."""
    validate_record(record)
    plan = build_band_plan(record.p, record.n_samples, record.sample_rate_hz, config)
    if not plan.lossless:
        warnings.warn(
            f"{plan.collision_count} destination bins are written more than once and "
            f"channel content is destroyed; reconstruction will be lossy "
            f"(rate floor F_s >= p*f_s is "
            f"{'met but not sufficient here' if plan.rate_feasible else 'violated'})",
            CollisionWarning, stacklevel=2)

    # A finite record can still overflow the FFTs; that only ever makes the
    # peak non-finite, so the peak is the one check.
    with np.errstate(over="ignore", invalid="ignore"):
        peak, scaled = wideband_inverse(plan.n_out, config.mode == MODE_PAPER_COMPLEX,
                                        lambda out: _stack_spectrum(record.channels, plan, out))
    if not math.isfinite(peak):
        raise ValidationError("the record's spectrum overflows float64; scale the "
                              "channels down before encoding")
    scale = _normalization_scale(peak)
    provenance = SidecarHeader(
        p=record.p, n_samples=record.n_samples, source_rate_hz=record.sample_rate_hz,
        target_rate_hz=config.target_rate_hz, mode=config.mode,
        stacking_order=config.stacking_order, scale=scale,
        collision_count=plan.collision_count, channel_names=record.channel_names)
    return adopt(WidebandSignal, scaled(scale), config.target_rate_hz, provenance)


def decode(signal: WidebandSignal) -> MultiChannelRecord:
    """Reconstruct the original channels from a wideband signal."""
    check_type("signal", signal, WidebandSignal)
    prov = signal.provenance
    config = TransformConfig(prov.target_rate_hz, prov.p, prov.mode, prov.stacking_order)
    plan = build_band_plan(prov.p, prov.n_samples, prov.source_rate_hz, config)
    if plan.collision_count != prov.collision_count:
        raise DecodeError(
            f"provenance says collision_count={prov.collision_count} but its "
            f"configuration gives {plan.collision_count}")
    if signal.is_complex != (prov.mode == MODE_PAPER_COMPLEX):
        kind = "complex" if signal.is_complex else "real"
        raise DecodeError(f"{kind} samples with mode {prov.mode!r}: mode mismatch")

    # A huge scale can overflow a tampered signal's samples, FFTs or edge
    # sums. What reaches the channels makes them non-finite, and the record's
    # own finiteness check catches that, so a good signal pays no extra pass.
    # The header has checked every other field the record checks.
    with np.errstate(over="ignore", invalid="ignore"):
        raw = wideband_forward(signal.samples, prov.scale)
        # The gather is in channel order, so each block's inverse writes its
        # channels straight into their rows of the array the record adopts.
        channels = np.empty((prov.p, prov.n_samples), dtype=np.float64)
        invert_rows(raw, plan.decode_index, channels)
    try:
        return adopt(MultiChannelRecord, channels, prov.source_rate_hz, prov.channel_names)
    except ValidationError as exc:
        raise DecodeError(
            f"the wideband spectrum overflows float64 at scale "
            f"2**{math.log2(prov.scale):.0f}; the samples do not fit their sidecar") from exc


@dataclass(frozen=True)
class RoundtripReport:
    """Measured encode->decode fidelity for one record and configuration."""

    max_abs_error: float  # relative to the record's peak amplitude
    per_channel_rmse: tuple[float, ...]
    collision_count: int
    mode: str
    rate_feasible: bool
    lossless: bool
    n_out: int

    def to_dict(self) -> dict:
        return {**asdict(self), "per_channel_rmse": list(self.per_channel_rmse)}


def roundtrip_report(record: MultiChannelRecord, config: TransformConfig) -> RoundtripReport:
    """Encode, decode, and measure the damage. Lossy configurations are
    measured, never refused (strict-mode failures still propagate)."""
    signal = encode(record, config)  # checks the arguments first
    plan = build_band_plan(record.p, record.n_samples, record.sample_rate_hz, config)
    decoded = decode(signal)
    diff = np.abs(decoded.channels - record.channels)
    peak = float(np.abs(record.channels).max())
    max_err = float(diff.max())
    if peak > 0:
        max_err /= peak
    rmse = tuple(float(v) for v in np.sqrt((diff ** 2).mean(axis=1)))
    return RoundtripReport(
        max_abs_error=max_err, per_channel_rmse=rmse, collision_count=plan.collision_count,
        mode=config.mode, rate_feasible=plan.rate_feasible, lossless=plan.lossless,
        n_out=plan.n_out)
