"""Deterministic synthetic records for tests and demos.

Two generators: pure cosine mixtures placed per channel, and white noise
masked in the frequency domain to one of the EEG bands. Noise comes from
numpy's Philox counter-based generator, so a fixed seed reproduces the same
record on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bandstack.features import EEG_BANDS
from bandstack.model import (
    MultiChannelRecord,
    ValidationError,
    check_array,
    check_counts,
    check_integer,
    check_rate,
    source_frequencies,
)


def _as_list(name: str, items) -> list:
    try:
        return list(items)
    except TypeError as exc:
        raise ValidationError(f"{name} must be a list, got {items!r}") from exc


def make_tones(p: int, n_samples: int, sample_rate_hz: float,
               tones) -> MultiChannelRecord:
    """Cosine mixture record: ``tones[i]`` lists (freq_hz, amplitude, phase)
    for channel i. Channels with an empty list stay zero.
    """
    p, n_samples = check_counts(p, n_samples)
    tones = _as_list("tone table", tones)
    if len(tones) != p:
        raise ValidationError(f"tone table has {len(tones)} entries for p={p} channels")
    sample_rate_hz = check_rate("sample rate", sample_rate_hz)
    nyquist = sample_rate_hz / 2.0
    t = np.arange(n_samples) / sample_rate_hz
    channels = np.zeros((p, n_samples))
    for i, entries in enumerate(tones):
        for tone in _as_list(f"channel {i} tone list", entries):
            tone = check_array(f"channel {i} tone", tone, 1)
            if tone.shape != (3,):
                raise ValidationError(f"channel {i}: a tone is (frequency, amplitude, "
                                      f"phase), got {tone.shape[0]} fields")
            freq, amplitude, phase = tone.tolist()
            for name, v in (("frequency", freq), ("amplitude", amplitude), ("phase", phase)):
                if not math.isfinite(v):
                    raise ValidationError(f"channel {i}: tone {name} is not finite: {v!r}")
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
    if not isinstance(band, str) or band not in EEG_BANDS:
        raise ValidationError(f"unknown band {band!r}; expected one of {sorted(EEG_BANDS)}")
    p, n = check_counts(p, n_samples)
    if check_integer("seed", seed) < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    sample_rate_hz = check_rate("sample rate", sample_rate_hz)
    lo, hi = EEG_BANDS[band]
    nyquist = sample_rate_hz / 2.0
    if lo >= nyquist:
        raise ValidationError(
            f"band {band} ({lo}-{hi} Hz) lies entirely above Nyquist ({nyquist} Hz)")
    truncated = hi > nyquist
    hi_eff = min(hi, nyquist)

    freqs = source_frequencies(n, sample_rate_hz)
    keep = (freqs >= lo) & (freqs < hi_eff)
    mask = keep.copy()
    mirror = (n - np.nonzero(keep)[0]) % n
    mask[mirror] = True  # conjugate half keeps the waveform real

    rng = np.random.Generator(np.random.Philox(seed))
    white = rng.standard_normal((p, n))
    channels = np.fft.ifft(np.where(mask, np.fft.fft(white, axis=1), 0.0), axis=1).real
    return BandNoise(MultiChannelRecord(channels, sample_rate_hz), truncated)
