"""Seeded input records for the benchmark, independent of bandstack.synth.

Every channel is band-limited Gaussian noise (the EEG range 0.5-45 Hz, unit
variance) plus one marker tone whose frequency rises with the channel index.
The markers sit between 15% and 43% of the source rate, above the noise
band, so after stacking each one lands in the informative lower half of its
channel's band, clear of the noise. A marker is placed half-way between two
source DFT bins: its energy spreads over neighbouring bins, so some of it
survives even the lossy 16 kHz stacking, where only about one source bin in
four keeps its destination bin.

A record depends only on (seed, request index), never on timing, so the same
seed gives the same inputs on every run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

NOISE_BAND_HZ = (0.5, 45.0)
MARKER_AMPLITUDE = 2.0
_GOLDEN = (5 ** 0.5 - 1) / 2


def request_rng(seed: int, request: int) -> np.random.Generator:
    return np.random.default_rng([seed, request])


def marker_hz(p: int, n: int, rate_hz: float) -> np.ndarray:
    """Marker tone frequency of each channel (half a source bin off-grid)."""
    return rate_hz * (0.15 + 0.28 * np.arange(p) / p) + 0.5 * rate_hz / n


def channels(rng: np.random.Generator, p: int, n: int, rate_hz: float) -> np.ndarray:
    """A (p, n) float64 array: band-limited noise plus one marker per channel."""
    spectrum = np.fft.rfft(rng.standard_normal((p, n)), axis=1)
    freqs = np.fft.rfftfreq(n, d=1.0 / rate_hz)
    lo, hi = NOISE_BAND_HZ
    spectrum[:, (freqs < lo) | (freqs >= hi)] = 0.0
    noise = np.fft.irfft(spectrum, n=n, axis=1)
    noise /= noise.std(axis=1, keepdims=True)
    t = np.arange(n) / rate_hz
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(p, 1))
    tones = np.sin(2.0 * np.pi * marker_hz(p, n, rate_hz)[:, None] * t + phase)
    return noise + MARKER_AMPLITUDE * tones


def spread_length(request: int, lo: int, hi: int) -> int:
    """A length in lo..hi for one request.

    Lengths follow a golden-ratio sequence, so any stretch of requests covers
    the range evenly and no length repeats for thousands of requests. The
    sequence does not depend on the seed: DFT cost varies up to fivefold with
    the factorization of the length, and a seeded mix of lengths would make a
    run's median depend on its seed. The seed still sets every sample.
    """
    return lo + int(((request * _GOLDEN) % 1.0) * (hi - lo + 1))


def write_csv(path: Path, data: np.ndarray, rate_hz: float) -> None:
    """Write channels as CSV columns with a rate comment, values in shortest repr."""
    lines = [f"# rate_hz={rate_hz!r}"]
    lines.extend(",".join(map(repr, row)) for row in data.T.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path: Path) -> np.ndarray:
    """Read a CSV of channel columns back as a (p, n) array."""
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2).T
