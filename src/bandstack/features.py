"""Feature extraction: magnitude spectrograms and EEG-band energy summaries.

Each feature is one batched pass. The spectrogram is a Hann-windowed
magnitude STFT of the wideband waveform: one ``rfft`` over a strided view of
all frames. The frame count follows 1 + floor((L - window)/hop); some
toolkits do not emit the final frame, so ``paper_shape=True`` drops it
(turning the reference configuration's 513 x 622 into 513 x 621).

Band energies integrate |spectrum|^2 over the classic EEG bands on the
inclusive bin grid k * f_s/(n-1): one ``rfft`` over all channels, one sum per
band over its contiguous bin range. sigma and beta overlap and are reported
independently. Bands are clipped at Nyquist; one starting at or above is absent.
"""

from __future__ import annotations

import numpy as np

from bandstack.model import (
    MultiChannelRecord,
    ValidationError,
    WidebandSignal,
    source_frequencies,
    validate_record,
)

# name -> (low_hz, high_hz), half-open [low, high)
EEG_BANDS = {
    "delta": (0.5, 4.0),
    "theta": (4.0, 8.0),
    "alpha": (8.0, 12.0),
    "sigma": (12.0, 16.0),
    "beta": (12.0, 30.0),
    "gamma": (30.0, 100.0),
}

_LOG_FLOOR = 1e-12


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window (the STFT variant, endpoint excluded)."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frame_count(n_samples: int, window_samples: int, overlap_samples: int,
                paper_shape: bool = False) -> int:
    hop = window_samples - overlap_samples
    frames = 1 + (n_samples - window_samples) // hop
    if paper_shape:
        frames -= 1
    return frames


def stft_magnitude(samples: np.ndarray, window_samples: int, overlap_samples: int,
                   paper_shape: bool = False, log: bool = False) -> np.ndarray:
    """Magnitude STFT of a real vector: (window//2 + 1) x frames.

    ``log=True`` returns dB (20*log10, floored at -240 dB).
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError("stft input must be a vector")
    if window_samples < 1 or window_samples > x.shape[0]:
        raise ValidationError(
            f"window of {window_samples} samples does not fit a signal of {x.shape[0]}")
    if not 0 <= overlap_samples < window_samples:
        raise ValidationError(
            f"overlap must satisfy 0 <= overlap < window, got {overlap_samples}")
    hop = window_samples - overlap_samples
    frames = frame_count(x.shape[0], window_samples, overlap_samples, paper_shape)
    if frames < 1:
        raise ValidationError("no frames left (signal too short for this window/overlap)")
    segments = (np.lib.stride_tricks.sliding_window_view(x, window_samples)[::hop][:frames]
                * hann_window(window_samples))
    mag = np.abs(np.fft.rfft(segments, axis=1)).T
    if log:
        return 20.0 * np.log10(np.maximum(mag, _LOG_FLOOR))
    return mag


def spectrogram(signal: WidebandSignal, window_samples: int, overlap_samples: int,
                paper_shape: bool = False, log: bool = False) -> np.ndarray:
    """Spectrogram of a real-mode wideband signal (frequency rows x frames)."""
    if signal.is_complex:
        raise ValidationError("spectrogram needs a real-mode signal "
                              "(paper-complex output is not a waveform)")
    return stft_magnitude(signal.samples, window_samples, overlap_samples,
                          paper_shape=paper_shape, log=log)


def spectrogram_meta(window_samples: int, overlap_samples: int,
                     paper_shape: bool, log: bool) -> dict:
    """Provenance entries recorded next to an exported spectrogram."""
    return {
        "feature": "spectrogram",
        "window_samples": window_samples,
        "overlap_samples": overlap_samples,
        "window_fn": "hann-periodic",
        "scale": "log-magnitude-db" if log else "magnitude",
        "paper_shape": paper_shape,
    }


def band_energies(record: MultiChannelRecord) -> list[dict[str, float]]:
    """Spectral energy per EEG band, one dict per channel.

    Energy is sum |E[k]|^2 over bins whose grid frequency falls in
    [low, min(high, f_s/2)); bands starting at or above Nyquist are absent
    from the dict. Mirror-half bins never contribute. Values match a
    per-channel full-FFT sum to 1e-12 of the channel's largest band energy
    (only the rounding differs); a zero channel gives exact zeros.
    """
    validate_record(record)
    nyquist = record.sample_rate_hz / 2.0
    freqs = source_frequencies(record.n_samples, record.sample_rate_hz)
    ranges = {name: np.searchsorted(freqs, (lo, min(hi, nyquist)))
              for name, (lo, hi) in EEG_BANDS.items() if lo < nyquist}
    top = max((b for _, b in ranges.values()), default=0)
    power = np.abs(np.fft.rfft(record.channels, axis=1)[:, :top]) ** 2
    energies = np.zeros((record.p, len(ranges)))
    for j, (a, b) in enumerate(ranges.values()):
        energies[:, j] = power[:, a:b].sum(axis=1)
    return [dict(zip(ranges, row)) for row in energies.tolist()]
