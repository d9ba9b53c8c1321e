"""End-to-end encode and decode pipelines.

Encode: band plan -> one ``rfft`` of all channels -> one gather of the
wideband bins -> one inverse FFT of the wideband spectrum. The channels are
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

Decode transforms the waveform once, with one ``rfft`` of its real plane
(the gathers never read above bin n_out/2), and doubles that wideband
spectrum's interior bins. In the real modes that undoes encode's halving. In
paper-complex the spectrum S is one-sided, so bin k of the real plane,
(S[k] + conj(S[-k])) / 2, is S[k] / 2 inside but only Re S[k] at DC and
Nyquist, their own mirrors; decode takes those two bins from direct sums of
the complex samples instead. It then gathers the channels' informative
lower-half bins, one block of about 1 MiB of channels at a time, and inverts
each block in one batched real inverse FFT, which restores the mirror half
by conjugate symmetry. The upper-half reads
would be wrong anyway: adjacent bands structurally overwrite each other's
boundary bin, and only the redundant conjugate copy is lost there.

Amplitude scale: stored samples are peak-normalized to at most 0.9 by an
exact power of two recorded in the provenance, so descaling at decode is
bit-exact and WAV export never clips.

Scratch: encode stacks and (in paper-complex) inverts in place in one held
complex spectrum, and decode transforms into it. Each thread keeps one, of
n_out bins in paper-complex and n_out//2 + 1 in the real modes, so at most
16*n_out bytes; it is replaced when n_out or the mode changes its length.
Beside it, each call allocates:

  * encode - the channels' p*(n//2 + 1) complex rfft bins and the copy of
    the plan's read-only source map that ``np.take`` makes for its gather
    (8*(n_out//2 + 1) bytes), both freed before the inverse, then the
    samples it returns: in the real modes the ``irfft`` output, scaled in
    place; in paper-complex one scaled copy of the held spectrum (after the
    n_out magnitudes that find its peak).
  * decode - the (p, n) channels it returns, which the batched ``irfft``
    writes directly, block by block, and one block's complex gather of its
    channels' n//2 + 1 bins at a time (``spectrum.block_rows``: at most
    1 MiB, so 30 channels of n = 10000 go in three blocks of 10).

The signal and the record adopt those arrays and lock them instead of
copying, so every array encode or decode returns is fresh, read-only and
never shares the held spectrum.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import asdict, dataclass

import numpy as np

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
    validate_record,
)
from bandstack.sidecar import SidecarHeader
from bandstack.spectrum import block_rows


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


_scratch = threading.local()


def _wideband_buffer(n_out: int, complex_mode: bool) -> np.ndarray:
    """This thread's complex scratch spectrum: n_out bins in paper-complex
    mode, n_out//2 + 1 in the real modes. Like the plan cache it holds one
    entry, and the old array is freed before a new size is allocated."""
    size = n_out if complex_mode else n_out // 2 + 1
    buffer = getattr(_scratch, "buffer", None)
    if buffer is None or buffer.shape[0] != size:
        del buffer
        _scratch.buffer = None
        _scratch.buffer = buffer = np.empty(size, dtype=np.complex128)
    return buffer


def _stack_spectrum(channels: np.ndarray, plan: BandPlan, stacked: np.ndarray) -> None:
    """Write the stacked wideband spectrum of ``channels`` into ``stacked``.

    One gather through the plan's source map reads every bin from the
    channel-order rfft bins (and, for bins no band writes, the zero after
    them); the sign then conjugates the mirror-half bins. Every band lies
    below F_s/2, so ``stacked`` may hold only the lower n_out//2 + 1 bins;
    bins above them are zeroed.
    """
    p, n = channels.shape
    h = n // 2 + 1
    bins = np.empty(p * h + 1, dtype=np.complex128)
    np.fft.rfft(channels, axis=1, out=bins[:-1].reshape(p, h))
    bins[-1] = 0
    lower = stacked[:plan.n_out // 2 + 1]
    # mode="clip" writes straight into ``lower``; "raise" buffers a copy.
    # np.take needs a writeable index, so it still copies the locked
    # ``plan.source`` on every call: 8*(n_out//2 + 1) bytes, freed on return.
    np.take(bins, plan.source, out=lower, mode="clip")
    # Times -1 negates exactly, so this matches np.conjugate bit for bit.
    np.multiply(lower.imag, plan.sign, out=lower.imag)
    stacked[lower.shape[0]:] = 0


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
    n_out = plan.n_out
    complex_mode = config.mode == MODE_PAPER_COMPLEX
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = _wideband_buffer(n_out, complex_mode)
        _stack_spectrum(record.channels, plan, stacked)
        if complex_mode:
            np.fft.ifft(stacked, out=stacked)
            peak = float(np.abs(stacked).max())
        else:
            # Halving the interior makes the real inverse equal the real part
            # of the complex one, which is what decode's doubling assumes.
            stacked[1:(n_out + 1) // 2] *= 0.5
            samples = np.fft.irfft(stacked, n_out)
            peak = float(max(samples.max(), -samples.min()))
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
    if complex_mode:
        samples = np.divide(stacked, scale)  # the one fresh copy of the held buffer
    else:
        samples /= scale
    return WidebandSignal._adopt(samples, config.target_rate_hz, provenance)


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
    if signal.is_complex != (prov.mode == MODE_PAPER_COMPLEX):
        kind = "complex" if signal.is_complex else "real"
        raise DecodeError(f"{kind} samples with mode {prov.mode!r}: mode mismatch")

    # A huge scale can overflow a tampered signal's samples, FFTs or edge
    # sums. What reaches the channels makes them non-finite, and the record's
    # own finiteness check catches that, so a good signal pays no extra pass.
    with np.errstate(over="ignore", invalid="ignore"):
        # Only bins <= n_out/2 are read, which is exactly what rfft returns.
        # The scale is a power of two, so applying it after the transform
        # gives the same bits as before it, unless a product is subnormal
        # (then after is the more accurate).
        s = signal.samples
        raw = _wideband_buffer(plan.n_out, signal.is_complex)[:plan.n_out // 2 + 1]
        np.fft.rfft(s.real, out=raw)
        raw[1:(plan.n_out + 1) // 2] *= 2.0
        raw *= prov.scale
        if signal.is_complex:
            # The real plane keeps only the real part of DC and Nyquist.
            raw[0] = s.sum() * prov.scale
            if plan.n_out % 2 == 0:
                raw[-1] = (s[::2].sum() - s[1::2].sum()) * prov.scale
        # The gather is in channel order, so each block's inverse writes its
        # channels straight into their rows of the array the record adopts.
        channels = np.empty((prov.p, prov.n_samples), dtype=np.float64)
        rows = block_rows(16 * plan.decode_index.shape[1], prov.p)
        for a in range(0, prov.p, rows):
            np.fft.irfft(raw[plan.decode_index[a:a + rows]], prov.n_samples, axis=1,
                         out=channels[a:a + rows])
    try:
        return MultiChannelRecord._adopt(channels, prov.source_rate_hz, prov.channel_names)
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
