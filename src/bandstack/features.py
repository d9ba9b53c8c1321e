"""Feature extraction: magnitude spectrograms and EEG-band energy summaries.

The spectrogram is a Hann-windowed magnitude STFT of the wideband waveform.
The frame count follows 1 + floor((L - window)/hop); some toolkits do not
emit the final frame, so ``paper_shape=True`` drops it (turning the
reference configuration's 513 x 622 into 513 x 621). Its input must be a
real vector of numbers (``model.check_array``); complex input is refused.

The STFT streams its frames through two block buffers of about
``spectrum.BLOCK_BYTES`` (1 MiB) together, at most 64 frames at window 1024
(the reference configuration's 621 frames: nine blocks of 63, one of 54): it
windows a block's frames into one, ``rfft``-s them into the other and writes
their magnitudes, dB scale included, straight into the result. So a call
holds its result and the block buffers, whatever the length of its input.
``rfft`` transforms each frame on its own, so the block size changes no value.

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
    check_array,
    check_integer,
    check_type,
    source_frequencies,
    validate_record,
)
from bandstack.spectrum import block_rows

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
    if not 0 <= overlap_samples < window_samples:
        raise ValidationError(
            f"overlap must satisfy 0 <= overlap < window, got {overlap_samples}")
    hop = window_samples - overlap_samples
    frames = 1 + (n_samples - window_samples) // hop
    if paper_shape:
        frames -= 1
    return frames


def stft_magnitude(samples: np.ndarray, window_samples: int, overlap_samples: int,
                   paper_shape: bool = False, log: bool = False) -> np.ndarray:
    """Magnitude STFT of a real vector: (window//2 + 1) x frames.

    ``log=True`` returns dB (20*log10, floored at -240 dB). The result is the
    transpose of a C-ordered (frames, window//2 + 1) array.
    """
    window_samples = check_integer("window_samples", window_samples)
    overlap_samples = check_integer("overlap_samples", overlap_samples)
    x = check_array("samples", samples, 1)
    if window_samples < 1 or window_samples > x.shape[0]:
        raise ValidationError(
            f"window of {window_samples} samples does not fit a signal of {x.shape[0]}")
    hop = window_samples - overlap_samples
    frames = frame_count(x.shape[0], window_samples, overlap_samples, paper_shape)
    if frames < 1:
        raise ValidationError("no frames left (signal too short for this window/overlap)")
    framed = np.lib.stride_tricks.sliding_window_view(x, window_samples)[::hop]
    hann = hann_window(window_samples)
    bins = window_samples // 2 + 1
    # A frame takes its windowed samples (8 bytes each) and its window//2 + 1
    # complex bins (16 bytes each): about 16 bytes a sample.
    rows = block_rows(16 * window_samples, frames)
    segments = np.empty((rows, window_samples))
    spectra = np.empty((rows, bins), dtype=np.complex128)
    mag = np.empty((frames, bins))
    for a in range(0, frames, rows):
        b = min(a + rows, frames)
        seg, spec, out = segments[:b - a], spectra[:b - a], mag[a:b]
        np.multiply(framed[a:b], hann, out=seg)
        np.fft.rfft(seg, axis=1, out=spec)
        np.abs(spec, out=out)
        if log:
            np.maximum(out, _LOG_FLOOR, out=out)
            np.log10(out, out=out)
            out *= 20.0
    return mag.T


def spectrogram(signal: WidebandSignal, window_samples: int, overlap_samples: int,
                paper_shape: bool = False, log: bool = False) -> np.ndarray:
    """Spectrogram of a real-mode wideband signal (frequency rows x frames)."""
    check_type("signal", signal, WidebandSignal)
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
