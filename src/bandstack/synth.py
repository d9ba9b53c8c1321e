"""Deterministic synthetic records for tests and demos.

Two generators: pure cosine mixtures placed per channel, and white noise
masked in the frequency domain to one of the EEG bands. Noise comes from
numpy's Philox counter-based generator, so a fixed seed reproduces the same
record on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bandstack.features import EEG_BANDS
from bandstack.model import MultiChannelRecord, ValidationError


def make_tones(p: int, n_samples: int, sample_rate_hz: float,
               tones) -> MultiChannelRecord:
    """Cosine mixture record: ``tones[i]`` lists (freq_hz, amplitude, phase)
    for channel i. Channels with an empty list stay zero.
    """
    if p < 1 or n_samples < 2:
        raise ValidationError("need p >= 1 and n_samples >= 2")
    tones = list(tones)
    if len(tones) != p:
        raise ValidationError(f"tone table has {len(tones)} entries for p={p} channels")
    nyquist = sample_rate_hz / 2.0
    t = np.arange(n_samples) / sample_rate_hz
    channels = np.zeros((p, n_samples))
    for i, entries in enumerate(tones):
        for freq, amplitude, phase in entries:
            if not freq < nyquist:
                raise ValidationError(
                    f"channel {i}: tone at {freq} Hz is not below Nyquist ({nyquist} Hz)")
            channels[i] += amplitude * np.cos(2.0 * np.pi * freq * t + phase)
    return MultiChannelRecord(channels, sample_rate_hz)


@dataclass(frozen=True)
class BandNoise:
    """Band-limited noise record plus whether the band was Nyquist-truncated."""

    record: MultiChannelRecord
    truncated: bool


def make_bandnoise(p: int, n_samples: int, sample_rate_hz: float,
                   band: str, seed: int = 0) -> BandNoise:
    """White noise masked to one EEG band (plus its conjugate mirror).

    A band reaching above Nyquist is truncated there and flagged; a band
    starting at or above Nyquist is an error.
    """
    if band not in EEG_BANDS:
        raise ValidationError(f"unknown band {band!r}; expected one of {sorted(EEG_BANDS)}")
    if p < 1 or n_samples < 2:
        raise ValidationError("need p >= 1 and n_samples >= 2")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    lo, hi = EEG_BANDS[band]
    nyquist = sample_rate_hz / 2.0
    if lo >= nyquist:
        raise ValidationError(
            f"band {band} ({lo}-{hi} Hz) lies entirely above Nyquist ({nyquist} Hz)")
    truncated = hi > nyquist
    hi_eff = min(hi, nyquist)

    n = n_samples
    freqs = np.arange(n) * (sample_rate_hz / (n - 1))
    keep = (freqs >= lo) & (freqs < hi_eff)
    mask = keep.copy()
    mirror = (n - np.nonzero(keep)[0]) % n
    mask[mirror] = True  # conjugate half keeps the waveform real

    rng = np.random.Generator(np.random.Philox(seed))
    white = rng.standard_normal((p, n))
    channels = np.fft.ifft(np.where(mask, np.fft.fft(white, axis=1), 0.0), axis=1).real
    return BandNoise(MultiChannelRecord(channels, sample_rate_hz), truncated)
