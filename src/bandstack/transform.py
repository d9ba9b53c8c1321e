"""End-to-end encode and decode pipelines.

Encode: band plan -> one ``rfft`` of all channels -> stacking -> one
inverse FFT of the wideband spectrum. The channels are real, so each band's
full n-bin spectrum is its channel's rfft bins (copied in band order) plus
their conjugate mirror above n/2. Three modes:

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
    configuration whose stacking would destroy channel content.

Decode transforms the waveform once (``rfft`` in the real modes, whose
gathers never read above bin n_out/2; a full FFT in paper-complex). In the
real modes it undoes encode's halving by doubling the interior bins of that
wideband spectrum (DC and Nyquist carry factor 1). It then gathers every
channel's informative lower-half bins at once and inverts them in one
batched real inverse FFT, which restores the mirror half by conjugate
symmetry. The upper-half reads would be wrong anyway: adjacent
bands structurally overwrite each other's boundary bin, and only the
redundant conjugate copy is lost there.

Amplitude scale: stored samples are peak-normalized to at most 0.9 by an
exact power of two recorded in the provenance, so descaling at decode is
bit-exact and WAV export never clips.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from bandstack.mapping import _refuse_destructive, _stack_into, build_band_plan
from bandstack.model import (
    MODE_PAPER_COMPLEX,
    MODE_STRICT_LOSSLESS,
    CollisionWarning,
    DecodeError,
    MultiChannelRecord,
    TransformConfig,
    ValidationError,
    WidebandSignal,
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


def encode(record: MultiChannelRecord, config: TransformConfig) -> WidebandSignal:
    """Transform a multichannel record into one wideband waveform."""
    validate_record(record)
    plan = build_band_plan(record.p, record.n_samples, record.sample_rate_hz, config)
    if not plan.lossless and config.mode != MODE_STRICT_LOSSLESS:
        warnings.warn(
            f"{plan.collision_count} destination bins are written more than once and "
            f"channel content is destroyed; reconstruction will be lossy "
            f"(rate floor F_s >= p*f_s is "
            f"{'met but not sufficient here' if plan.rate_feasible else 'violated'})",
            CollisionWarning, stacklevel=2)

    _refuse_destructive(plan)

    # A finite record can still overflow the FFTs; that only ever makes the
    # peak non-finite, so the peak is the one check.
    n, n_out = record.n_samples, plan.n_out
    complex_mode = config.mode == MODE_PAPER_COMPLEX
    with np.errstate(over="ignore", invalid="ignore"):
        # The channels are real, so each band's n-bin spectrum is its
        # channel's rfft bins in band order, then their conjugate mirror.
        # ``spectra`` is allocated before the rfft output so that freeing
        # the latter leaves no hole below it (the other order raised
        # wide64-complex peak RSS by 3.7 MB).
        spectra = np.empty((record.p, n), dtype=np.complex128)
        half = np.fft.rfft(record.channels, axis=1)
        h = half.shape[1]
        np.take(half, plan.stacking_order, axis=0, out=spectra[:, :h], mode="clip")
        del half
        np.conjugate(spectra[:, (n + 1) // 2 - 1:0:-1], out=spectra[:, h:])
        # Every band lies below F_s/2, so the real modes stack straight into
        # the n_out//2 + 1 bins that irfft reads.
        stacked = np.zeros(n_out if complex_mode else n_out // 2 + 1, dtype=np.complex128)
        _stack_into(stacked, spectra, plan)
        del spectra
        if complex_mode:
            samples = np.fft.ifft(stacked)
        else:
            # Halving the interior makes the real inverse equal the real part
            # of the complex one, which is what decode's doubling assumes.
            stacked[1:(n_out + 1) // 2] *= 0.5
            samples = np.fft.irfft(stacked, n_out)
        peak = float(np.abs(samples).max())
    if not math.isfinite(peak):
        raise ValidationError("the record's spectrum overflows float64; scale the "
                              "channels down before encoding")
    scale = _normalization_scale(peak)
    provenance = SidecarHeader(
        p=record.p,
        n_samples=record.n_samples,
        source_rate_hz=record.sample_rate_hz,
        target_rate_hz=config.target_rate_hz,
        mode=config.mode,
        stacking_order=config.stacking_order,
        scale=scale,
        collision_count=plan.collision_count,
        channel_names=record.channel_names,
    )
    return WidebandSignal(samples / scale, config.target_rate_hz, provenance)


def decode(signal: WidebandSignal) -> MultiChannelRecord:
    """Reconstruct the original channels from a wideband signal."""
    prov = signal.provenance
    config = TransformConfig(
        target_rate_hz=prov.target_rate_hz,
        channel_count=prov.p,
        mode=prov.mode,
        stacking_order=prov.stacking_order,
    )
    plan = build_band_plan(prov.p, prov.n_samples, prov.source_rate_hz, config)
    if plan.collision_count != prov.collision_count:
        raise DecodeError(
            f"provenance says collision_count={prov.collision_count} but its "
            f"configuration gives {plan.collision_count}")
    _refuse_destructive(plan)
    if signal.is_complex != (prov.mode == MODE_PAPER_COMPLEX):
        kind = "complex" if signal.is_complex else "real"
        raise DecodeError(f"{kind} samples with mode {prov.mode!r}: mode mismatch")

    # A huge scale can overflow a tampered signal's samples or its FFTs,
    # which only ever makes the channels non-finite. The record's own
    # finiteness check catches that, so a good signal pays for no extra pass.
    with np.errstate(over="ignore", invalid="ignore"):
        raw_samples = signal.samples * prov.scale
        if prov.mode == MODE_PAPER_COMPLEX:
            raw = np.fft.fft(raw_samples)
        else:
            # Only bins <= n_out/2 are read, which is exactly what rfft
            # returns. Encode halved the interior bins; DC and (even n_out)
            # Nyquist it left alone.
            raw = np.fft.rfft(raw_samples)
            raw[1:(plan.n_out + 1) // 2] *= 2.0
        n = prov.n_samples
        lower = raw[plan.assignments[:, :n // 2 + 1]]
        channels = np.empty((prov.p, n), dtype=np.float64)
        channels[list(plan.stacking_order)] = np.fft.irfft(lower, n, axis=1)
    try:
        return MultiChannelRecord(channels, prov.source_rate_hz, prov.channel_names)
    except ValidationError as exc:
        if np.isfinite(channels).all():
            raise
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
    plan = build_band_plan(record.p, record.n_samples, record.sample_rate_hz, config)
    signal = encode(record, config)
    decoded = decode(signal)
    diff = np.abs(decoded.channels - record.channels)
    peak = float(np.abs(record.channels).max())
    max_err = float(diff.max())
    if peak > 0:
        max_err /= peak
    rmse = tuple(float(v) for v in np.sqrt((diff ** 2).mean(axis=1)))
    return RoundtripReport(
        max_abs_error=max_err,
        per_channel_rmse=rmse,
        collision_count=plan.collision_count,
        mode=config.mode,
        rate_feasible=plan.rate_feasible,
        lossless=plan.lossless,
        n_out=plan.n_out,
    )
