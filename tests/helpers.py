"""Independent reference implementations used as test oracles.

Nothing here may call into the code paths it checks: the DFT oracle is the
direct quadratic sum (no FFT), the nearest-bin oracle is a literal
scan-every-candidate loop, the band assignment oracle (``stack_oracle``) is
the float scan of every grid point that the integer-quotient kernel
``mapping.stack_fast`` replaced and must match bit for bit (``c8_timings``
times the two side by side), the stacking and collision oracles are the
plain overwrite loop, the real-mode fold is a per-bin loop, the decode
oracle is the masked-doubling gather that decode replaced (and, for
paper-complex, the direct DFT of the real plane with direct edge sums), the CSV reader
and writer are the cell-by-cell loops that the block versions replaced, and
the feature oracles are the per-channel band loop and the fancy-index STFT
gather that the batched features replaced, and the band-noise oracle is the
per-channel loop that the batched generator replaced. Expected values in the
test modules were computed with these.
"""

from __future__ import annotations

import csv
import time

import numpy as np


def direct_dft(x) -> np.ndarray:
    """O(n^2) forward DFT by the definition sum.

    The phase k*n*2*pi/N is reduced modulo N in exact integer arithmetic
    first (an identity, exp is 2*pi-periodic); without it the oracle itself
    drifts by ~1e-12 at n = 10000.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    idx = np.arange(n, dtype=np.int64)
    out = np.empty(n, dtype=np.complex128)
    for k in range(n):
        out[k] = (x * np.exp((-2j * np.pi / n) * ((k * idx) % n))).sum()
    return out


def direct_idft(bins) -> np.ndarray:
    """O(n^2) inverse DFT: 1/n-normalized positive-exponent sum."""
    bins = np.asarray(bins, dtype=np.complex128)
    n = bins.shape[0]
    idx = np.arange(n, dtype=np.int64)
    out = np.empty(n, dtype=np.complex128)
    for t in range(n):
        out[t] = (bins * np.exp((2j * np.pi / n) * ((idx * t) % n))).sum() / n
    return out


def nearest_search_literal(targets, grid) -> np.ndarray:
    """Scan every grid point per target; on distance ties the later (larger)
    index wins because the update condition is <=."""
    out = np.empty(len(targets), dtype=np.int64)
    for j, f in enumerate(targets):
        best = float("inf")
        best_k = -1
        for k in range(len(grid)):
            d = abs(grid[k] - f)
            if d <= best:
                best = d
                best_k = k
        out[j] = best_k
    return out


def nearest_indices_scan(targets, grid) -> np.ndarray:
    """Scan every grid point for every target, O(len(targets) * len(grid));
    among equal |grid[k] - f| the largest k wins, as in a scan updating on <=."""
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    grid = np.ascontiguousarray(grid, dtype=np.float64)
    m = grid.shape[0]
    rev = np.ascontiguousarray(grid[::-1])
    scratch = np.empty(m)
    out = np.empty(targets.shape[0], dtype=np.int64)
    for j, f in enumerate(targets):
        # argmin returns the first minimum; scanning the reversed grid makes
        # that the last (largest-k) minimum of the original.
        np.subtract(rev, f, out=scratch)
        np.abs(scratch, out=scratch)
        out[j] = (m - 1) - int(np.argmin(scratch))
    return out


def stretched_frequencies(n_samples, source_rate_hz, band_width_hz, band_index) -> np.ndarray:
    """Source grid compressed into band ``band_index``: l_f + freq * (f_band/f_s),
    with the source grid k * f_s/(n-1) as ``model.source_frequencies`` computes it.

    A column of band indices, shape (k, 1), gives one row per band.
    """
    offset = band_index * band_width_hz
    ratio = band_width_hz / source_rate_hz
    return offset + (np.arange(n_samples) * (source_rate_hz / (n_samples - 1))) * ratio


def stack_oracle(p, n_samples, source_rate_hz, target_rate_hz, band_index) -> np.ndarray:
    """Assignment for one band by the float scan, over the configurations
    (``model.check_geometry``) and band indices that ``stack_fast`` accepts,
    refused with the same messages."""
    from bandstack.model import ValidationError, check_geometry, destination_grid

    n_out = check_geometry(p, n_samples, source_rate_hz, target_rate_hz)
    bands = np.asarray(band_index)
    bad = bands if bands.dtype.kind not in "iu" else bands[(bands < 0) | (bands >= p)]
    if bad.size:
        raise ValidationError(f"band index {bad.flat[0]} is not an integer in 0..{p - 1}")
    band_width = float(target_rate_hz) / (2 * p)
    targets = stretched_frequencies(n_samples, source_rate_hz, band_width, band_index)
    return nearest_indices_scan(targets, destination_grid(n_out, target_rate_hz))


def c8_timings(p, n_samples, source_rate_hz, target_rate_hz, bands):
    """Time ``stack_fast`` and then the scan over the same bands: (fast
    seconds, scan seconds, whether every band's assignments are identical)."""
    from bandstack.mapping import stack_fast

    got, seconds = {}, {}
    for algo, fn in (("fast", stack_fast), ("scan", stack_oracle)):
        start = time.perf_counter()
        got[algo] = [fn(p, n_samples, source_rate_hz, target_rate_hz, b) for b in bands]
        seconds[algo] = time.perf_counter() - start
    return seconds["fast"], seconds["scan"], all(map(np.array_equal, got["fast"], got["scan"]))


def stack_literal(all_bins, assignments, n_out) -> np.ndarray:
    """Overwrite-semantics stacking: bands bottom-up, source bins ascending."""
    stacked = np.zeros(n_out, dtype=np.complex128)
    for bins, idx in zip(all_bins, assignments):
        for j in range(len(idx)):
            stacked[idx[j]] = bins[j]
    return stacked


def hermitian_fold_literal(stacked) -> np.ndarray:
    """Real-mode fold of a stacked spectrum whose bins above n_out/2 are
    empty: interior bins k halved and mirrored to n_out - k as conjugates,
    DC and (even n_out) Nyquist kept at their real parts."""
    m = len(stacked)
    out = np.zeros(m, dtype=np.complex128)
    out[0] = stacked[0].real
    for k in range(1, (m + 1) // 2):
        out[k] = stacked[k] / 2
        out[m - k] = np.conj(stacked[k] / 2)
    if m % 2 == 0:
        out[m // 2] = stacked[m // 2].real
    return out


def decode_masked_literal(signal, plan) -> np.ndarray:
    """Decode's channels as computed before the doubling moved onto the
    wideband spectrum: gather, then double every gathered bin that is
    neither wideband DC nor (even n_out) Nyquist through a boolean mask."""
    prov = signal.provenance
    complex_mode = prov.mode == "paper-complex"
    raw_samples = signal.samples * prov.scale
    raw = np.fft.fft(raw_samples) if complex_mode else np.fft.rfft(raw_samples)
    n, n_out = prov.n_samples, plan.n_out
    idx = plan.assignments[:, :n // 2 + 1]
    lower = raw[idx]
    if not complex_mode:
        edge = (idx == 0) | ((n_out % 2 == 0) & (idx == n_out // 2))
        lower[~edge] *= 2.0
    channels = np.empty((prov.p, n), dtype=np.float64)
    channels[list(plan.stacking_order)] = np.fft.irfft(lower, n, axis=1)
    return channels


def decode_real_plane_literal(signal, plan) -> np.ndarray:
    """Paper-complex decode's channels from the real plane alone: the direct
    DFT of the scaled real plane up to bin n_out/2, interior bins doubled,
    DC and (even n_out) Nyquist taken from direct sums of the complex
    samples, then the gather and the real inverse."""
    prov = signal.provenance
    s = np.asarray(signal.samples, dtype=np.complex128)
    n, n_out = prov.n_samples, plan.n_out
    raw = direct_dft(s.real * prov.scale)[:n_out // 2 + 1]
    raw[1:(n_out + 1) // 2] *= 2.0
    raw[0] = sum(complex(v) for v in s) * prov.scale
    if n_out % 2 == 0:
        raw[n_out // 2] = sum(complex(v) * (-1) ** t for t, v in enumerate(s)) * prov.scale
    channels = np.empty((prov.p, n), dtype=np.float64)
    channels[list(plan.stacking_order)] = np.fft.irfft(raw[plan.assignments[:, :n // 2 + 1]],
                                                       n, axis=1)
    return channels


def collisions_literal(assignments, n_out):
    """Per-band overwrite loop: (collision_count, lossless, first_destructive).

    Bands write bottom-up and source bins ascend, so the last write to a
    destination bin wins. A plan is lossless iff every informative write
    (source bin j <= n//2) is the last writer of its bin; the first one that
    is not, in write order, is ``first_destructive`` as (band, j).
    """
    writes = np.zeros(n_out, dtype=np.int64)
    last_writer = {}
    for b, idx in enumerate(assignments):
        for j, k in enumerate(idx):
            writes[k] += 1
            last_writer[int(k)] = (b, j)
    collision_count = int((writes > 1).sum())
    for b, idx in enumerate(assignments):
        for j in range(len(idx) // 2 + 1):
            if last_writer[int(idx[j])] != (b, j):
                return collision_count, False, (b, j)
    return collision_count, True, None


def stft_magnitude_literal(x, window, overlap, paper_shape=False, log=False) -> np.ndarray:
    """Frame-gather STFT: one (frames, window) fancy index into x, the
    periodic Hann window, one rfft; (window//2 + 1) x frames."""
    x = np.asarray(x, dtype=np.float64)
    hop = window - overlap
    frames = 1 + (x.shape[0] - window) // hop - int(paper_shape)
    idx = hop * np.arange(frames)[:, None] + np.arange(window)[None, :]
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)
    mag = np.abs(np.fft.rfft(x[idx] * hann, axis=1)).T
    return 20.0 * np.log10(np.maximum(mag, 1e-12)) if log else mag


def band_energies_literal(record):
    """Per-channel full FFT, one boolean mask per band over the inclusive
    grid k*f_s/(n-1), clipped at Nyquist; bands from Nyquist up absent."""
    from bandstack.features import EEG_BANDS

    nyquist = record.sample_rate_hz / 2.0
    n = record.n_samples
    freqs = np.arange(n) * (record.sample_rate_hz / (n - 1))
    out = []
    for channel in record.channels:
        power = np.abs(np.fft.fft(channel)) ** 2
        energies = {}
        for name, (lo, hi) in EEG_BANDS.items():
            if lo >= nyquist:
                continue
            mask = (freqs >= lo) & (freqs < min(hi, nyquist))
            energies[name] = float(power[mask].sum())
        out.append(energies)
    return out


def bandnoise_literal(p, n, rate, band, seed) -> np.ndarray:
    """make_bandnoise's channels by the per-channel loop: Philox white
    noise, one FFT per channel masked to the band (clipped at Nyquist) and
    its conjugate mirror, one inverse FFT per channel, real part."""
    from bandstack.features import EEG_BANDS

    lo, hi = EEG_BANDS[band]
    freqs = np.arange(n) * (rate / (n - 1))
    keep = (freqs >= lo) & (freqs < min(hi, rate / 2.0))
    mask = keep.copy()
    mask[(n - np.nonzero(keep)[0]) % n] = True
    white = np.random.Generator(np.random.Philox(seed)).standard_normal((p, n))
    channels = np.empty_like(white)
    for i in range(p):
        channels[i] = np.fft.ifft(np.where(mask, np.fft.fft(white[i]), 0.0)).real
    return channels


def read_csv_record_literal(path, rate_hz=None):
    """The cell-by-cell CSV record reader that the block reader replaced:
    one csv.reader and one float() per cell, errors raised in file order."""
    from bandstack.model import FormatError, MultiChannelRecord

    names = None
    rows = []
    file_rate = None
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                body = stripped.lstrip("#").strip()
                if body.startswith("rate_hz="):
                    try:
                        file_rate = float(body.split("=", 1)[1])
                    except ValueError as exc:
                        raise FormatError(f"{path}: bad rate comment on line {lineno}") from exc
                continue
            cells = next(csv.reader([line]))
            cells = [c.strip() for c in cells]
            if not rows and names is None:
                try:
                    rows.append([float(c) for c in cells])
                except ValueError:
                    names = tuple(cells)
                continue
            parsed = []
            for col, c in enumerate(cells, start=1):
                try:
                    parsed.append(float(c))
                except ValueError as exc:
                    raise FormatError(
                        f"{path}: non-numeric value {c!r} at line {lineno}, column {col}"
                    ) from exc
            rows.append(parsed)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise FormatError(f"{path}: inconsistent column counts {sorted(widths)}")
    rate = rate_hz if rate_hz is not None else file_rate
    if rate is None:
        raise FormatError(f"{path}: sample rate not given (pass rate_hz or add a "
                          f"'# rate_hz=...' comment)")
    data = np.asarray(rows, dtype=np.float64).T
    return MultiChannelRecord(data, rate, channel_names=names)


def write_csv_record_literal(record, path) -> None:
    """The line-by-line CSV record writer that the block writer replaced."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# rate_hz={record.sample_rate_hz!r}\n")
        if record.channel_names:
            fh.write(",".join(record.channel_names) + "\n")
        for row in record.channels.T:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_outcome(read):
    """What ``read()`` made of a file: the record's exact bytes, rate and
    names, or its error as (type, message)."""
    try:
        rec = read()
    except Exception as exc:  # the outcome under comparison, errors included
        return type(exc), str(exc)
    return rec.channels.tobytes(), rec.sample_rate_hz, rec.channel_names


def csv_rows_literal(matrix) -> str:
    """One line of shortest-repr cells per matrix row, formatted cell by cell."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in matrix)


def rel_max_err(got, want) -> float:
    """max |got - want| relative to the peak magnitude of ``want``."""
    got = np.asarray(got)
    want = np.asarray(want)
    err = float(np.abs(got - want).max())
    peak = float(np.abs(want).max())
    return err / peak if peak > 0 else err


def random_record(rng, p, n, rate):
    from bandstack.model import MultiChannelRecord

    return MultiChannelRecord(rng.standard_normal((p, n)), rate)
