"""End-to-end encode and decode pipelines.

Encode: band plan -> one forward FFT of all channels -> stacking -> one
inverse FFT of the wideband spectrum. Three modes:

  * ``paper-complex`` - the stacked spectrum is inverted as-is; the output
    waveform is complex (stored as two planes on disk, not playable).
  * ``real-hermitian`` (default) - the occupied half of the stacked spectrum
    is halved at interior bins and inverted as the lower half of a
    conjugate-symmetric spectrum, so the waveform is real and equals the
    real part of the paper-complex output. Decoding undoes the halving by
    doubling interior reads (DC and Nyquist carry factor 1). This is the
    audio-export mode.
  * ``strict-lossless`` - real output like real-hermitian, but refuses any
    configuration whose stacking would destroy channel content.

Decode transforms the waveform once (``rfft`` in the real modes, whose
gathers never read above bin n_out/2; a full FFT in paper-complex), gathers
every channel's informative lower-half bins at once and inverts them in one
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
from dataclasses import dataclass

import numpy as np

from bandstack.mapping import apply_stacking, build_band_plan
from bandstack.model import (
    MODE_PAPER_COMPLEX,
    MODE_STRICT_LOSSLESS,
    CollisionError,
    CollisionWarning,
    DecodeError,
    MultiChannelRecord,
    TransformConfig,
    ValidationError,
    WidebandSignal,
    validate_record,
)
from bandstack.sidecar import SidecarHeader
from bandstack.spectrum import inverse_fft


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
    if record.p != config.channel_count:
        raise ValidationError(
            f"config is for {config.channel_count} channels, record has {record.p}")
    plan = build_band_plan(record.p, record.n_samples, record.sample_rate_hz, config)
    if not plan.lossless and config.mode != MODE_STRICT_LOSSLESS:
        warnings.warn(
            f"{plan.collision_count} destination bins are written more than once and "
            f"channel content is destroyed; reconstruction will be lossy "
            f"(rate floor F_s >= p*f_s is "
            f"{'met but not sufficient here' if plan.rate_feasible else 'violated'})",
            CollisionWarning, stacklevel=2)

    stacked = apply_stacking(np.fft.fft(record.channels, axis=1), plan)

    if config.mode == MODE_PAPER_COMPLEX:
        samples = inverse_fft(stacked.bins)
    else:
        # Halving the interior bins makes the real inverse equal the real
        # part of the complex one, which is what decode's doubling assumes.
        lower = stacked.bins[:plan.n_out // 2 + 1].copy()
        lower[1:(plan.n_out + 1) // 2] *= 0.5
        samples = np.fft.irfft(lower, plan.n_out)

    scale = _normalization_scale(float(np.abs(samples).max()))
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
    if prov.mode == MODE_STRICT_LOSSLESS and not plan.lossless:
        b, j = plan.first_destructive
        raise CollisionError(
            f"provenance claims strict-lossless but channel "
            f"{plan.stacking_order[b] + 1} bin {j} is overwritten; refusing to decode")
    if signal.is_complex and prov.mode != MODE_PAPER_COMPLEX:
        raise DecodeError(f"complex samples with mode {prov.mode!r}: mode mismatch")

    raw_samples = signal.samples * prov.scale
    # The scale can overflow a tampered signal, so check before the FFT.
    if not np.isfinite(raw_samples).all():
        raise ValidationError("non-finite dft input")
    if prov.mode == MODE_PAPER_COMPLEX:
        raw = np.fft.fft(raw_samples)
    else:
        # Only bins <= n_out/2 are read, which is exactly what rfft returns.
        raw = np.fft.rfft(raw_samples)
    n = prov.n_samples
    n_out = plan.n_out
    idx = plan.assignments[:, :n // 2 + 1]
    lower = raw[idx]
    if prov.mode != MODE_PAPER_COMPLEX:
        # Interior bins were halved by the Hermitian fold; DC and (even
        # n_out) Nyquist were not.
        edge = (idx == 0) | ((n_out % 2 == 0) & (idx == n_out // 2))
        lower[~edge] *= 2.0

    channels = np.empty((prov.p, n), dtype=np.float64)
    channels[list(plan.stacking_order)] = np.fft.irfft(lower, n, axis=1)
    return MultiChannelRecord(channels, prov.source_rate_hz, prov.channel_names)


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
        return {
            "max_abs_error": self.max_abs_error,
            "per_channel_rmse": list(self.per_channel_rmse),
            "collision_count": self.collision_count,
            "mode": self.mode,
            "rate_feasible": self.rate_feasible,
            "lossless": self.lossless,
            "n_out": self.n_out,
        }


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
