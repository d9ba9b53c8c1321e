"""Forward/inverse DFT with the codec's fixed normalization, plus Hermitian helpers.

Convention (load-bearing, do not change): the forward transform is the plain
unnormalized sum X[k] = sum_n x[n] exp(-2j*pi*k*n/N); the inverse carries the
1/M factor. numpy.fft implements exactly this pair, so round-trip constants
are 1 and no wrapper scaling is needed. Arbitrary lengths are supported
exactly; nothing here ever zero-pads.

encode and decode transform all channels in one batched numpy call per
direction: encode takes one ``rfft`` of the real channels and gathers the
wideband bins from it (conjugating the mirrored ones), decode one ``rfft``
of the waveform's real plane in every mode (paper-complex adds two edge
sums); encode inverts with ``irfft`` (``ifft`` in paper-complex) and
decode's channels come back through one ``irfft``. ``forward_fft`` and
``hermitian_extend`` are the one-channel reference path: the tests and the
benchmark's replay check (perfbench/workloads.py) compare encode and decode
against it.
"""

from __future__ import annotations

import numpy as np

from bandstack.model import ChannelSpectrum, ValidationError


def dft(x: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT of a real or complex vector."""
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] < 2:
        raise ValidationError(f"dft input must be a vector of length >= 2, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValidationError("non-finite dft input")
    return np.fft.fft(x)


def forward_fft(channel: np.ndarray, source_rate_hz: float = 1.0) -> ChannelSpectrum:
    """Transform one real channel; bins satisfy conjugate symmetry."""
    x = np.asarray(channel, dtype=np.float64)
    return ChannelSpectrum(dft(x), source_rate_hz, real_source=True)


def inverse_fft(bins: np.ndarray) -> np.ndarray:
    """1/M-normalized inverse DFT; exact inverse of the forward sum."""
    b = np.asarray(bins, dtype=np.complex128)
    if b.ndim != 1 or b.shape[0] < 2:
        raise ValidationError(f"inverse_fft input must be a vector of length >= 2, got {b.shape}")
    if not np.isfinite(b).all():
        raise ValidationError("non-finite inverse_fft input")
    return np.fft.ifft(b)


def hermitian_extend(lower: np.ndarray) -> np.ndarray:
    """Mirror a lower-half spectrum into full conjugate symmetry.

    Input bins above M/2 must be zero. Output keeps bins k <= M/2, fills
    bin M-k with conj(bin k), and forces the DC (and Nyquist, for even M)
    bins real by dropping their imaginary parts, so the inverse transform
    of the result is real to machine precision.
    """
    b = np.asarray(lower, dtype=np.complex128)
    if b.ndim != 1 or b.shape[0] < 2:
        raise ValidationError(f"hermitian_extend needs a vector of length >= 2, got {b.shape}")
    m = b.shape[0]
    half = m // 2
    upper_start = half + 1
    if np.any(b[upper_start:] != 0):
        k = upper_start + int(np.argmax(b[upper_start:] != 0))
        raise ValidationError(
            f"hermitian_extend requires zero bins above index {half}, found bin {k} nonzero")
    out = b.copy()
    out[0] = out[0].real
    if m % 2 == 0:
        out[half] = out[half].real
        out[upper_start:] = np.conj(out[half - 1:0:-1])
    else:
        out[upper_start:] = np.conj(out[half:0:-1])
    return out
