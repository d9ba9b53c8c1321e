"""Forward/inverse DFT with the codec's fixed normalization, plus Hermitian helpers.

Convention (load-bearing, do not change): the forward transform is the plain
unnormalized sum X[k] = sum_n x[n] exp(-2j*pi*k*n/N); the inverse carries the
1/M factor. numpy.fft implements exactly this pair, so round-trip constants
are 1 and no wrapper scaling is needed. Arbitrary lengths are supported
exactly; nothing here ever zero-pads.

Encode and decode (transform.py, and _fft.py for their wideband FFTs)
call numpy.fft directly. Batches that would need a large temporary stream
their rows through blocks of about ``BLOCK_BYTES`` (``block_rows``):
decode's gather and the STFT's frames. Encode's gather, the radix-4 steps
of both quarter paths, the inverse's peak search and the twiddle pass of
the real modes' split walk their bins in blocks of it too; which lengths
take a quarter path or the split does not depend on it.
``rfft`` and ``irfft`` transform each row on its own, so the block size
changes no value. ``forward_fft`` and ``hermitian_extend`` are the
one-channel reference path: the tests and the benchmark's replay check
(perfbench/workloads.py) compare encode and decode against it. Every input
goes through ``model.check_array``; ``forward_fft`` refuses complex values.
"""

from __future__ import annotations

import numpy as np

from bandstack.model import ChannelSpectrum, ValidationError, check_array, check_finite

# Bytes of temporaries one block of rows may take. For the STFT at 160000
# samples, window 1024, blocks of 256 KiB to 1 MiB ran within 6% of each
# other in a bare loop; 128 KiB and 4 MiB took about 40% longer.
BLOCK_BYTES = 1 << 20


def block_rows(row_bytes: int, rows: int) -> int:
    """Rows per block for ``rows`` rows of ``row_bytes`` temporaries each:
    the fewest blocks of at most ``BLOCK_BYTES``, split evenly, because a
    short last block made decode's batched ``irfft`` about 5% slower."""
    blocks = -(-rows // max(1, BLOCK_BYTES // row_bytes))
    return -(-rows // blocks)


def dft(x: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT of a real or complex vector."""
    x = check_array("x", x, 1, None)
    if x.shape[0] < 2:
        raise ValidationError(f"dft input must be a vector of length >= 2, got {x.shape}")
    check_finite(x, "non-finite dft input")
    return np.fft.fft(x)


def forward_fft(channel: np.ndarray, source_rate_hz: float = 1.0) -> ChannelSpectrum:
    """Transform one real channel; bins satisfy conjugate symmetry."""
    return ChannelSpectrum(dft(check_array("channel", channel, 1)), source_rate_hz)


def inverse_fft(bins: np.ndarray) -> np.ndarray:
    """1/M-normalized inverse DFT; exact inverse of the forward sum."""
    b = check_array("bins", bins, 1, np.complex128)
    if b.shape[0] < 2:
        raise ValidationError(f"inverse_fft input must be a vector of length >= 2, got {b.shape}")
    check_finite(b, "non-finite inverse_fft input")
    return np.fft.ifft(b)


def hermitian_extend(lower: np.ndarray) -> np.ndarray:
    """Mirror a lower-half spectrum into full conjugate symmetry.

    Input bins above M/2 must be zero. Output keeps bins k <= M/2, fills
    bin M-k with conj(bin k), and forces the DC (and Nyquist, for even M)
    bins real by dropping their imaginary parts, so the inverse transform
    of the result is real to machine precision.
    """
    b = check_array("lower", lower, 1, np.complex128)
    if b.shape[0] < 2:
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
