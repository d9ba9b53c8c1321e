"""Acceptance gate: the eight release criteria, one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines alongside pytest's own verdicts. Criterion 8 times the
brute-force mapping baseline on five bands of the reference configuration
and takes about ten seconds by design.
"""

import time
import warnings

import numpy as np
import pytest

from bandstack._kernels import nearest_indices_scan
from bandstack.bench import run_mapping_benchmark
from bandstack.features import EEG_BANDS, band_energies, spectrogram
from bandstack.mapping import (
    build_band_plan,
    destination_grid,
    stack_fast,
    stack_oracle,
    stretched_frequencies,
)
from bandstack.model import (
    MODE_PAPER_COMPLEX,
    MODE_REAL_HERMITIAN,
    MODE_STRICT_LOSSLESS,
    CollisionWarning,
    MultiChannelRecord,
    TransformConfig,
    output_length,
)
from bandstack.synth import make_bandnoise, make_tones
from bandstack.transform import decode, encode
from bandstack import io as bio
from helpers import (
    direct_dft,
    nearest_search_literal,
    random_record,
    rel_max_err,
    stack_literal,
)


def _report(num, label, ok):
    print(f"\n[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {label}"


def test_c1_roundtrip_losslessness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    combos = [(p, n, f_s)
              for p in (1, 2, 4, 8)
              for n in (16, 64, 250, 1000)
              for f_s in (32.0, 250.0)]
    cases = [(p, n, f_s, (2 if i < len(combos) else 4) * p * f_s)
             for i, (p, n, f_s) in enumerate(combos[i % len(combos)]
                                             for i in range(50))]
    modes = (MODE_REAL_HERMITIAN, MODE_PAPER_COMPLEX, MODE_STRICT_LOSSLESS)
    worst = 0.0
    for i, (p, n, f_s, target) in enumerate(cases):
        assert target >= p * f_s
        n_out = output_length(n, f_s, target)
        assert n_out * f_s == n * target  # T * F_s is integral
        rec = random_record(rng, p, n, f_s)
        cfg = TransformConfig(target, p, mode=modes[i % 3])
        worst = max(worst, rel_max_err(decode(encode(rec, cfg)).channels, rec.channels))
    elapsed = time.perf_counter() - start
    _report(1, f"50-record round trip, max rel err {worst:.3g}, {elapsed:.1f}s",
            worst < 1e-9 and elapsed < 30.0)


def test_c2_oracle_equivalence():
    start = time.perf_counter()
    exhaustive = 0
    for n in range(2, 33):
        for n_out in range(2, 65):
            for p in range(1, 5):
                for band in range(p):
                    # f_s = n gives T = 1 s, so n_out equals the target rate
                    fast = stack_fast(p, n, float(n), float(n_out), band)
                    scan = stack_oracle(p, n, float(n), float(n_out), band)
                    assert np.array_equal(fast, scan), (n, n_out, p, band)
                    exhaustive += 1

    # Exact rational ties (a stretched frequency midway between two grid
    # points) are the bins the float rounding of target and grid decides.
    rng = np.random.default_rng(7)
    configs = ties = 0
    while ties < 10_000:
        p, n, n_out = (int(v) for v in rng.integers((1, 2, 2), (9, 65, 513)))
        f_s = float(rng.uniform(1e-2, 1e5))
        F_s = n_out * f_s / n
        if output_length(n, f_s, F_s) != n_out:
            continue
        configs += 1
        den = 2 * p * (n - 1)
        m = np.arange(p)[:, None] * (n - 1) + np.arange(n)
        tied = (2 * m * (n_out - 1) + den) % (2 * den) == 0
        grid = destination_grid(n_out, F_s)
        for band in np.flatnonzero(tied.any(axis=1)):
            bins = tied[band]
            targets = stretched_frequencies(n, f_s, F_s / (2 * p), int(band))[bins]
            scan = nearest_indices_scan(targets, grid)
            fast = stack_fast(p, n, f_s, F_s, int(band))[bins]
            assert np.array_equal(fast, scan), (p, n, f_s, F_s, band)
            if n_out <= 48:
                assert np.array_equal(scan, nearest_search_literal(targets, grid))
            ties += int(bins.sum())
    elapsed = time.perf_counter() - start
    _report(2, f"{exhaustive} exhaustive cases + {ties} exact ties from {configs} "
               f"random configurations, {elapsed:.1f}s", elapsed < 60.0)


def test_c3_reference_configuration_plan():
    plan = build_band_plan(30, 10000, 1000.0, TransformConfig(16000.0, 30))
    band_ok = abs(plan.band_width_hz - 800.0 / 3.0) < 1e-9
    top_end = plan.band_offsets_hz[-1] + plan.band_width_hz
    top_ok = abs(top_end - 8000.0) < 1e-9  # F_s / 2
    ok = (band_ok and plan.n_out == 160000 and top_ok
          and plan.collision_count > 0 and not plan.rate_feasible)
    _report(3, f"f_band={plan.band_width_hz:.6f} Hz, n_out={plan.n_out}, "
               f"top band ends {top_end:.3f} Hz, collisions={plan.collision_count}, "
               f"rate floor met={plan.rate_feasible}", ok)


def test_c4_spectrogram_shape():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    rec = random_record(rng, 30, 10000, 1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CollisionWarning)
        sig = encode(rec, TransformConfig(16000.0, 30))
    trimmed = spectrogram(sig, 1024, 768, paper_shape=True)
    natural = spectrogram(sig, 1024, 768)
    elapsed = time.perf_counter() - start
    _report(4, f"spectrogram {trimmed.shape[0]}x{trimmed.shape[1]} with the trimmed "
               f"frame count ({natural.shape[1]} untrimmed), {elapsed:.1f}s",
            trimmed.shape == (513, 621) and natural.shape == (513, 622)
            and elapsed < 5.0)


def test_c5_band_placement_of_a_tone():
    p, n, f_s, target = 6, 1000, 250.0, 16000.0
    tone_hz = 10.0
    cfg = TransformConfig(target, p)
    plan = build_band_plan(p, n, f_s, cfg)
    results = []
    for channel in (0, p // 2 - 1, p - 1):  # channels 1, p/2, p (1-based)
        tones = [[] for _ in range(p)]
        tones[channel] = [(tone_hz, 1.0, 0.0)]
        sig = encode(make_tones(p, n, f_s, tones), cfg)
        mag = np.abs(np.fft.fft(sig.samples))
        band = plan.stacking_order.index(channel)
        predicted_hz = plan.band_offsets_hz[band] + tone_hz * (plan.band_width_hz / f_s)
        predicted_bin = int(np.argmin(np.abs(plan.dest_grid - predicted_hz)))
        # search the band's informative half (its upper half holds the mirror image)
        lo = int(plan.assignments[band][0])
        hi = int(plan.assignments[band][n // 2])
        measured_bin = lo + int(np.argmax(mag[lo:hi + 1]))
        results.append(abs(measured_bin - predicted_bin))
    _report(5, f"tone peak offsets from prediction (bins): {results}",
            all(d <= 1 for d in results))


def test_c6_dft_against_direct_oracle():
    from bandstack.transform import _stack_spectrum

    def stacking_error(x):
        # encode's FFT path at p = 1, against the literal stacking of the
        # direct DFT, over the n_out//2 + 1 bins the real modes invert
        plan = build_band_plan(1, len(x), 1.0, TransformConfig(4.0, 1))
        stacked = np.empty(plan.n_out // 2 + 1, dtype=np.complex128)
        _stack_spectrum(x[None, :], plan, stacked)
        want = stack_literal([direct_dft(x)], plan.assignments, plan.n_out)
        return rel_max_err(stacked, want[:stacked.shape[0]])

    rng = np.random.default_rng(6)
    lengths = list(rng.integers(2, 257, size=99)) + [250]
    worst = 0.0
    for n in lengths:
        worst = max(worst, stacking_error(rng.standard_normal(int(n))))
    for n in (1000, 10000):  # the non-power-of-two sizes real recordings have
        worst = max(worst, stacking_error(rng.standard_normal(n)))
    _report(6, f"{len(lengths) + 2} random vectors, max rel err {worst:.3g}",
            worst < 1e-12)


def test_c7_feature_export_and_band_concentration(tmp_path):
    rng = np.random.default_rng(77)
    rec = random_record(rng, 4, 512, 256.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CollisionWarning)
        sig = encode(rec, TransformConfig(2048.0, 4))
    matrix = spectrogram(sig, 64, 48)
    exact = []
    for fmt, name in (("raw-f64", "m.f64"), ("csv", "m.csv")):
        path = tmp_path / name
        bio.write_matrix(matrix, path, format=fmt)
        back, _ = bio.read_matrix(path, format=fmt)
        exact.append(np.array_equal(back, matrix))

    f_s, n = 250.0, 1000
    concentrations = {}
    for i, band in enumerate(EEG_BANDS):
        noise = make_bandnoise(2, n, f_s, band, seed=100 + i)
        energies = band_energies(noise.record)
        for ch, channel in enumerate(noise.record.channels):
            power = np.abs(np.fft.fft(channel)) ** 2
            freqs = np.arange(n) * (f_s / (n - 1))
            lower_total = power[freqs < f_s / 2].sum()
            ratio = energies[ch][band] / lower_total
            concentrations[band] = min(concentrations.get(band, 1.0), ratio)
    ok = all(exact) and all(v >= 0.99 for v in concentrations.values())
    summary = ", ".join(f"{b}={v:.4f}" for b, v in concentrations.items())
    _report(7, f"matrix export bit-exact={all(exact)}; band concentration {summary}", ok)


# Both paths cost the same per band, so the scan/fast ratio on a fixed set
# of bands (the edges, the middle and two between) is the ratio of the full
# 30-band plan at a sixth of the scan time.
C8_BANDS = (0, 7, 15, 22, 29)


def test_c8_fast_path_speedup():
    report = run_mapping_benchmark(bands=C8_BANDS)
    speedup = report.speedup
    scan_s = report.seconds["scan"]
    fast_s = report.seconds["fast"]
    _report(8, f"{len(C8_BANDS)} of the reference plan's 30 bands: "
               f"scan {scan_s:.1f}s, fast {fast_s * 1000:.1f}ms, speedup {speedup:,.0f}x",
            speedup >= 100.0 and report.assignments_equal)
