"""Encode/decode pipeline: round trips, mode relations, lossy accounting."""

import dataclasses
import hashlib
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from bandstack.mapping import apply_stacking, build_band_plan
from bandstack.model import (
    MODE_PAPER_COMPLEX,
    MODE_REAL_HERMITIAN,
    MODE_STRICT_LOSSLESS,
    CollisionError,
    CollisionWarning,
    DecodeError,
    InfeasibleError,
    MultiChannelRecord,
    TransformConfig,
    ValidationError,
    WidebandSignal,
)
from bandstack import _fft, spectrum, transform
from bandstack.spectrum import forward_fft
from bandstack.transform import _stack_spectrum, decode, encode, roundtrip_report
from helpers import (
    decode_masked_literal,
    decode_real_plane_literal,
    direct_dft,
    direct_idft,
    hermitian_fold_literal,
    random_record,
    one_rfft_spectrum,
    rel_max_err,
    serial_in_parallel,
    stack_literal,
)


def _cfg(p, F_s, mode=MODE_REAL_HERMITIAN, order=None):
    return TransformConfig(F_s, p, mode=mode, stacking_order=order)


@pytest.mark.parametrize("mode", [MODE_PAPER_COMPLEX, MODE_REAL_HERMITIAN,
                                  MODE_STRICT_LOSSLESS])
@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_roundtrip_identity(mode, p):
    rng = np.random.default_rng(p)
    rec = random_record(rng, p, 64, 32.0)
    sig = encode(rec, _cfg(p, 2 * p * 32.0, mode=mode))
    back = decode(sig)
    assert rel_max_err(back.channels, rec.channels) < 1e-9
    assert back.sample_rate_hz == rec.sample_rate_hz
    assert back.p == rec.p


def test_strict_feasible_example():
    # p=4, N=64, f_s=32, F_s=256 meets the rate floor and round-trips exactly
    rng = np.random.default_rng(42)
    rec = random_record(rng, 4, 64, 32.0)
    sig = encode(rec, _cfg(4, 256.0, mode=MODE_STRICT_LOSSLESS))
    assert rel_max_err(decode(sig).channels, rec.channels) < 1e-9


def test_zero_record_encodes_to_zero_signal():
    rec = MultiChannelRecord(np.zeros((3, 50)), 100.0)
    sig = encode(rec, _cfg(3, 600.0))
    assert sig.n_out == 300
    assert np.all(sig.samples == 0)
    assert sig.provenance.scale == 1.0
    back = decode(sig)
    assert np.all(back.channels == 0)


def test_zero_record_at_reference_size():
    rec = MultiChannelRecord(np.zeros((30, 10000)), 1000.0)
    with pytest.warns(CollisionWarning):  # lossy rates, but zero in is zero out
        sig = encode(rec, _cfg(30, 16000.0))
    assert sig.n_out == 160000
    assert np.all(sig.samples == 0)


def test_output_length_matches_rate_ratio():
    rng = np.random.default_rng(0)
    rec = random_record(rng, 2, 250, 250.0)
    sig = encode(rec, _cfg(2, 2000.0))
    assert sig.n_out == 2000  # T = 1 s at 2 kHz


def test_samples_are_peak_normalized_by_a_power_of_two():
    rng = np.random.default_rng(8)
    rec = MultiChannelRecord(1e6 * rng.standard_normal((2, 64)), 32.0)
    sig = encode(rec, _cfg(2, 128.0))
    peak = np.abs(sig.samples).max()
    assert 0 < peak <= 0.9
    assert float(np.log2(sig.provenance.scale)).is_integer()
    # descaling is exact: stored * scale / scale == stored bit for bit
    assert np.array_equal(sig.denormalized() / sig.provenance.scale, sig.samples)


def test_encode_linearity_paper_complex():
    rng = np.random.default_rng(13)
    cfg = _cfg(2, 128.0, mode=MODE_PAPER_COMPLEX)
    x = rng.standard_normal((2, 64))
    y = rng.standard_normal((2, 64))
    a, b = 2.5, -1.25
    sx = encode(MultiChannelRecord(x, 32.0), cfg).denormalized()
    sy = encode(MultiChannelRecord(y, 32.0), cfg).denormalized()
    sxy = encode(MultiChannelRecord(a * x + b * y, 32.0), cfg).denormalized()
    assert rel_max_err(sxy, a * sx + b * sy) < 1e-9


def test_real_mode_equals_real_part_of_complex_mode():
    rng = np.random.default_rng(21)
    rec = random_record(rng, 3, 40, 20.0)
    real = encode(rec, _cfg(3, 3 * 2 * 20.0, mode=MODE_REAL_HERMITIAN)).denormalized()
    cplx = encode(rec, _cfg(3, 3 * 2 * 20.0, mode=MODE_PAPER_COMPLEX)).denormalized()
    assert rel_max_err(real, cplx.real) < 1e-12


def test_band_isolation():
    # zeroing one channel blanks exactly its band; other bands' interiors
    # are written with bit-identical values
    p, n, f_s, F_s = 3, 32, 16.0, 96.0
    rng = np.random.default_rng(31)
    data = rng.standard_normal((p, n))
    cfg = _cfg(p, F_s)
    plan = build_band_plan(p, n, f_s, cfg)

    def stacked(channels):
        spectra = [forward_fft(c, f_s) for c in channels]
        return apply_stacking(spectra, plan).bins

    full = stacked(data)
    muted = data.copy()
    muted[1] = 0.0
    partial = stacked(muted)
    for b in range(p):
        interior = plan.assignments[b][1:-1]  # boundary bins are shared
        if b == 1:
            assert np.all(partial[interior] == 0)
        else:
            assert np.array_equal(partial[interior], full[interior])


def test_stacking_order_roundtrip_and_equivalence():
    rng = np.random.default_rng(17)
    rec = random_record(rng, 4, 64, 32.0)
    identity = roundtrip_report(rec, _cfg(4, 256.0))
    reverse = roundtrip_report(rec, _cfg(4, 256.0, order=(3, 2, 1, 0)))
    assert identity.max_abs_error < 1e-9
    assert reverse.max_abs_error < 1e-9
    # the permutation is recorded and inverted, so channels come back home
    sig = encode(rec, _cfg(4, 256.0, order=(2, 0, 3, 1)))
    assert sig.provenance.stacking_order == (2, 0, 3, 1)
    back = decode(sig)
    assert rel_max_err(back.channels, rec.channels) < 1e-9


def test_lossy_configuration_warns_and_measures():
    rng = np.random.default_rng(5)
    rec = random_record(rng, 4, 100, 100.0)
    cfg = _cfg(4, 400.0)  # rate floor met, spacing halved: destructive
    with pytest.warns(CollisionWarning):
        report = roundtrip_report(rec, cfg)
    assert report.collision_count > 0
    assert report.rate_feasible
    assert not report.lossless
    assert report.max_abs_error > 1e-6


def test_undersized_target_rate_is_lossy_but_proceeds():
    rng = np.random.default_rng(55)
    rec = random_record(rng, 6, 200, 100.0)
    cfg = _cfg(6, 320.0)  # below the rate floor, like the 30ch/16kHz setup
    with pytest.warns(CollisionWarning):
        report = roundtrip_report(rec, cfg)
    assert not report.rate_feasible
    assert report.collision_count > 0
    assert report.max_abs_error > 1e-6


def test_single_channel_at_twice_rate_is_exact():
    rng = np.random.default_rng(2)
    rec = random_record(rng, 1, 64, 32.0)
    report = roundtrip_report(rec, _cfg(1, 64.0))
    assert report.rate_feasible
    assert report.max_abs_error < 1e-9


def test_zero_record_report_is_zero_error():
    rec = MultiChannelRecord(np.zeros((2, 32)), 16.0)
    report = roundtrip_report(rec, _cfg(2, 64.0))
    assert report.max_abs_error == 0.0
    assert report.per_channel_rmse == (0.0, 0.0)


def test_strict_mode_raises_on_destructive_collisions():
    rng = np.random.default_rng(3)
    rec = random_record(rng, 4, 100, 100.0)
    with pytest.raises(CollisionError):
        encode(rec, _cfg(4, 400.0, mode=MODE_STRICT_LOSSLESS))
    with pytest.raises(InfeasibleError):
        encode(rec, _cfg(4, 399.0, mode=MODE_STRICT_LOSSLESS))


def test_config_channel_count_must_match_record():
    rec = MultiChannelRecord(np.zeros((2, 16)), 8.0)
    with pytest.raises(ValidationError, match="channels"):
        encode(rec, _cfg(3, 64.0))


def test_decode_rejects_mode_mismatch():
    rng = np.random.default_rng(1)
    rec = random_record(rng, 1, 16, 8.0)
    sig = encode(rec, _cfg(1, 32.0, mode=MODE_PAPER_COMPLEX))
    forged = WidebandSignal(
        sig.samples,
        sig.rate_hz,
        dataclasses.replace(sig.provenance, mode=MODE_REAL_HERMITIAN),
    )
    with pytest.raises(DecodeError, match="mode"):
        decode(forged)


def test_decode_rejects_real_samples_under_paper_complex():
    rng = np.random.default_rng(1)
    rec = random_record(rng, 1, 16, 8.0)
    sig = encode(rec, _cfg(1, 32.0, mode=MODE_PAPER_COMPLEX))
    forged = WidebandSignal(sig.samples.real, sig.rate_hz, sig.provenance)
    with pytest.raises(DecodeError,
                       match="real samples with mode 'paper-complex': mode mismatch"):
        decode(forged)


# (p, n, n_out) with f_s = n, so n_out is also F_s: n odd and even, n_out odd
# and even, the lossless 2p(n-1) and up, the lossy p*n and up. At n = 2 the
# top band's informative bin 1 lands on wideband Nyquist, n_out//2.
_LITERAL_SHAPES = sorted({(p, n, n_out)
                          for p in (1, 2, 5)
                          for n in (2, 16, 17)
                          for n_out in (2 * p * (n - 1), 2 * p * (n - 1) + 1,
                                        p * n, p * n + 1)})
_MODES = (MODE_PAPER_COMPLEX, MODE_REAL_HERMITIAN, MODE_STRICT_LOSSLESS)


def _literal_case(p, n, n_out, mode):
    rng = np.random.default_rng(p * 1000 + n_out)
    rec = random_record(rng, p, n, float(n))
    order = tuple(int(c) for c in rng.permutation(p))
    cfg = _cfg(p, float(n_out), mode=mode, order=order)
    # the real-hermitian twin has the same geometry and is never refused as lossy
    twin = dataclasses.replace(cfg, mode=MODE_REAL_HERMITIAN)
    return rec, cfg, build_band_plan(p, n, float(n), twin)


def test_literal_shapes_cover_lossy_and_lossless_plans():
    plans = [_literal_case(p, n, n_out, MODE_REAL_HERMITIAN)[2]
             for p, n, n_out in _LITERAL_SHAPES]
    assert {plan.lossless for plan in plans} == {True, False}
    assert {plan.n_out % 2 for plan in plans} == {0, 1}
    assert any(plan.stacking_order != tuple(range(plan.p)) for plan in plans)


@pytest.mark.parametrize("mode", _MODES)
@pytest.mark.parametrize("p,n,n_out", _LITERAL_SHAPES)
def test_encode_matches_the_literal_pipeline(p, n, n_out, mode):
    rec, cfg, plan = _literal_case(p, n, n_out, mode)
    if mode == MODE_STRICT_LOSSLESS and not plan.lossless:
        with pytest.raises(CollisionError) as refused:
            encode(rec, cfg)
        with pytest.raises(CollisionError) as plan_refused:
            build_band_plan(p, n, float(n), cfg)
        assert str(refused.value) == str(plan_refused.value)
        assert str(refused.value).startswith("strict-lossless stacking impossible: channel ")
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CollisionWarning)
        sig = encode(rec, cfg)
    spectra = [direct_dft(ch) for ch in rec.channels]
    stacked = stack_literal([spectra[c] for c in plan.stacking_order],
                            plan.assignments, plan.n_out)
    if mode == MODE_PAPER_COMPLEX:
        want = direct_idft(stacked)
    else:
        assert not stacked[n_out // 2 + 1:].any()
        want = direct_idft(hermitian_fold_literal(stacked)).real
    assert sig.samples.dtype == want.dtype
    assert rel_max_err(sig.denormalized(), want) < 1e-12


@pytest.mark.parametrize("mode", _MODES)
@pytest.mark.parametrize("p,n,n_out", _LITERAL_SHAPES)
def test_decode_matches_the_masked_gather_bitwise(p, n, n_out, mode):
    rec, cfg, plan = _literal_case(p, n, n_out, mode)
    if mode == MODE_STRICT_LOSSLESS and not plan.lossless:
        # a lossy strict-lossless configuration has no plan to decode with
        mode = MODE_REAL_HERMITIAN
        rec, cfg, plan = _literal_case(p, n, n_out, mode)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CollisionWarning)
        sig = encode(rec, cfg)
    rng = np.random.default_rng(n_out)
    noise = rng.standard_normal(n_out)
    if mode == MODE_PAPER_COMPLEX:
        noise = noise + 1j * rng.standard_normal(n_out)
    for signal in (sig, WidebandSignal(noise, sig.rate_hz, sig.provenance)):
        got = decode(signal).channels
        if mode == MODE_PAPER_COMPLEX:
            # paper-complex decode reads the real plane and two edge sums, so
            # complex noise (not one-sided) has its own oracle, and the FFT
            # and the direct DFT round differently
            assert rel_max_err(got, decode_real_plane_literal(signal, plan)) < 1e-12
        else:
            want = decode_masked_literal(signal, plan)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", _MODES)
@pytest.mark.parametrize("p", [1, 2, 7])
@pytest.mark.parametrize("block_rows", [None, 1, 2])
def test_decode_on_two_threads_matches_the_oracles(p, mode, block_rows, monkeypatch):
    # p=1 leaves the worker only the edge sums, 2 splits evenly and 7 gives
    # this thread 4 channels and the worker 3; blocks of 1 or 2 channels a
    # thread (16 bins, 256 bytes a channel) also split each half
    n = 30
    if block_rows is not None:
        monkeypatch.setattr(spectrum, "BLOCK_BYTES", 2 * 256 * block_rows)
    for n_out in (2 * p * (n - 1), 2 * p * (n - 1) + 1, p * n + 1):
        rec, cfg, plan = _literal_case(p, n, n_out, mode)
        if mode == MODE_STRICT_LOSSLESS and not plan.lossless:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CollisionWarning)
            sig = encode(rec, cfg)
        rng = np.random.default_rng([p, n_out])
        noise = rng.standard_normal(n_out)
        if mode == MODE_PAPER_COMPLEX:
            noise = noise + 1j * rng.standard_normal(n_out)
        for signal in (sig, WidebandSignal(noise, sig.rate_hz, sig.provenance)):
            got = decode(signal).channels
            if mode == MODE_PAPER_COMPLEX:
                assert rel_max_err(got, decode_real_plane_literal(signal, plan)) < 1e-12
            else:
                assert got.tobytes() == decode_masked_literal(signal, plan).tobytes()


# _LITERAL_SHAPES plus larger (p, n), each lossless at 2p(n-1), 2p(n-1)+1 and
# 4x (a long empty gap above the bands), lossy at p*n and 0.3x, and tiny at
# n_out 2 and 3
_SWEEP_SHAPES = sorted(set(_LITERAL_SHAPES) | {
    (p, n, n_out)
    for p, n in ((1, 250), (3, 7), (4, 101), (7, 64), (8, 250))
    for n_out in (2 * p * (n - 1), 2 * p * (n - 1) + 1, p * n,
                  int(0.3 * 2 * p * (n - 1)), 4 * 2 * p * (n - 1) + 1, 2, 3)})


def test_sweep_shapes_cover_lossy_lossless_tiny_and_both_parities():
    plans = [_literal_case(p, n, n_out, MODE_PAPER_COMPLEX)[2]
             for p, n, n_out in _SWEEP_SHAPES]
    assert {plan.lossless for plan in plans} == {True, False}
    assert {plan.n_out % 2 for plan in plans} == {0, 1}
    assert {2, 3} <= {plan.n_out for plan in plans}
    assert max(plan.p * plan.n_samples for plan in plans) == 8 * 250


@pytest.mark.parametrize("p,n,n_out", _SWEEP_SHAPES)
def test_paper_complex_decode_matches_the_full_fft_decode(p, n, n_out):
    rec, cfg, plan = _literal_case(p, n, n_out, MODE_PAPER_COMPLEX)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CollisionWarning)
        sig = encode(rec, cfg)
    got = decode(sig).channels
    assert rel_max_err(got, decode_masked_literal(sig, plan)) < 1e-12


def test_decode_rejects_wrong_collision_count():
    rng = np.random.default_rng(1)
    rec = random_record(rng, 2, 16, 8.0)
    sig = encode(rec, _cfg(2, 32.0))
    forged = WidebandSignal(
        sig.samples,
        sig.rate_hz,
        dataclasses.replace(sig.provenance, collision_count=999),
    )
    with pytest.raises(DecodeError, match="collision_count=999"):
        decode(forged)


def test_decode_refuses_a_lossy_plan_labelled_strict():
    # F_s = p*f_s meets the rate floor, but this plan is lossy
    rec = random_record(np.random.default_rng(1), 2, 16, 8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CollisionWarning)
        sig = encode(rec, _cfg(2, 16.0))
    assert not build_band_plan(2, 16, 8.0, _cfg(2, 16.0)).lossless
    forged = WidebandSignal(
        sig.samples,
        sig.rate_hz,
        dataclasses.replace(sig.provenance, mode=MODE_STRICT_LOSSLESS),
    )
    with pytest.raises(CollisionError, match="strict-lossless"):
        decode(forged)


@pytest.mark.parametrize("mode", [MODE_REAL_HERMITIAN, MODE_PAPER_COMPLEX])
def test_decode_rejects_overflowing_scale(mode):
    # a tampered file: a stored sample of 3 with the largest legal scale
    rec = random_record(np.random.default_rng(1), 2, 16, 8.0)
    sig = encode(rec, _cfg(2, 32.0, mode=mode))
    samples = sig.samples.copy()
    samples[0] = 3.0
    forged = WidebandSignal(
        samples,
        sig.rate_hz,
        dataclasses.replace(sig.provenance, scale=2.0 ** 1023),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning may escape
        with pytest.raises(DecodeError, match=r"wideband spectrum overflows .* 2\*\*1023"):
            decode(forged)


@pytest.mark.parametrize("mode", [MODE_REAL_HERMITIAN, MODE_PAPER_COMPLEX])
def test_decode_blames_the_spectrum_when_its_fft_overflows(mode):
    # a tampered file whose scaled samples are finite (1.8 * 2**1023 < max
    # float64) but whose spectrum sums past the float64 range
    rec = random_record(np.random.default_rng(1), 2, 16, 8.0)
    sig = encode(rec, _cfg(2, 32.0, mode=mode))
    forged = WidebandSignal(
        np.full_like(sig.samples, 1.8 + 1.8j if sig.is_complex else 1.8),
        sig.rate_hz,
        dataclasses.replace(sig.provenance, scale=2.0 ** 1023),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning may escape
        with pytest.raises(DecodeError, match=r"wideband spectrum overflows .* 2\*\*1023"):
            decode(forged)


@pytest.mark.parametrize("target_rate", [1.0, 1.5])
def test_decode_blames_the_spectrum_when_an_edge_sum_overflows(target_rate):
    # a paper-complex file with a zero real plane: its rfft is finite, but
    # the complex DC sum of 1.8j per sample at the largest legal scale is not.
    # n_out is 2 (with a Nyquist bin) or 3 (without), so channel bins above
    # DC read wideband DC; channel DC alone would drop the imaginary part.
    rec = random_record(np.random.default_rng(1), 2, 16, 8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CollisionWarning)
        sig = encode(rec, _cfg(2, target_rate, mode=MODE_PAPER_COMPLEX))
    forged = WidebandSignal(
        np.full_like(sig.samples, 1.8j),
        sig.rate_hz,
        dataclasses.replace(sig.provenance, scale=2.0 ** 1023),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning may escape
        with pytest.raises(DecodeError, match=r"wideband spectrum overflows .* 2\*\*1023"):
            decode(forged)


@pytest.mark.parametrize("mode", [MODE_REAL_HERMITIAN, MODE_PAPER_COMPLEX])
def test_encode_rejects_a_record_whose_spectrum_overflows(mode):
    # every sample is finite, but the channel FFT sums past the float64 range
    rec = MultiChannelRecord(np.full((2, 64), 1.5e308), 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning may escape
        with pytest.raises(ValidationError, match="spectrum overflows float64"):
            encode(rec, _cfg(2, 40.0, mode=mode))


# (p, n, f_s, F_s) for the encode gather, mostly with f_s = n so that n_out is
# F_s: n odd and even; lossless at n_out = 2p(n-1) and 2p(n-1)+1, 4x above it,
# lossy at p*n and 0.3x; n_out 2 and 3; and both float-tie plans of p=30,
# n=4, n_out=178, the second of which has a band boundary that is not
# monotone (band 10's first bin lands below band 9's last).
_GATHER_SHAPES = sorted({
    (p, n, float(n), float(n_out))
    for p, n in ((1, 2), (1, 9), (3, 7), (4, 16), (5, 17), (8, 64))
    for n_out in (2 * p * (n - 1), 2 * p * (n - 1) + 1, 4 * 2 * p * (n - 1),
                  4 * 2 * p * (n - 1) + 1, p * n, max(2, int(0.3 * 2 * p * (n - 1))), 2, 3)
} | {(30, 4, 4.0, 178.0), (30, 4, 250.0, 11125.0)})


def test_gather_shapes_cover_lossy_lossless_tiny_both_parities_and_a_tie():
    plans = [build_band_plan(p, n, f_s, _cfg(p, F_s)) for p, n, f_s, F_s in _GATHER_SHAPES]
    assert {plan.lossless for plan in plans} == {True, False}
    assert {(plan.n_samples % 2, plan.n_out % 2) for plan in plans} == {
        (0, 0), (0, 1), (1, 0), (1, 1)}
    assert {2, 3} <= {plan.n_out for plan in plans}
    assert any((np.diff(plan.assignments.ravel()) < 0).any() for plan in plans)


@pytest.mark.parametrize("order_kind", ["identity", "reversed", "random"])
@pytest.mark.parametrize("p,n,f_s,F_s", _GATHER_SHAPES)
def test_encode_gather_equals_the_literal_scatter_bitwise(p, n, f_s, F_s, order_kind):
    rng = np.random.default_rng([p, n, int(F_s)])
    channels = rng.standard_normal((p, n))
    order = {"identity": tuple(range(p)), "reversed": tuple(range(p))[::-1],
             "random": tuple(int(c) for c in rng.permutation(p))}[order_kind]
    half = np.fft.rfft(channels, axis=1)
    two_sided = np.concatenate([half, np.conj(half[:, n - half.shape[1]:0:-1])], axis=1)
    plan = build_band_plan(p, n, f_s, _cfg(p, F_s))
    n_out = plan.n_out
    want = stack_literal(two_sided[list(order)], plan.assignments, n_out)
    assert not want[n_out // 2 + 1:].any()
    for mode in _MODES:
        try:
            plan = build_band_plan(p, n, f_s, _cfg(p, F_s, mode, order))
        except InfeasibleError:  # strict-lossless below the rate floor
            continue
        got = np.full(n_out // 2 + 1, complex(np.nan, np.nan))  # every bin must be written
        _stack_spectrum(channels, plan, got)
        assert got.tobytes() == want[:n_out // 2 + 1].tobytes(), (mode, order)


def test_roundtrip_nonintegral_duration_product():
    # T*F_s = 12.5 rounds to 12; the residual is reported, not hidden
    rec = MultiChannelRecord(np.random.default_rng(4).standard_normal((1, 5)), 2.0)
    sig = encode(rec, _cfg(1, 5.0))
    assert sig.n_out == 12
    assert sig.provenance.rate_residual == pytest.approx(0.5)


# Seeded lossless configurations with both n_out parities, a permuted band
# order in every case, and channel amplitudes across the normal float64 range.
_PIN_SHAPES = ((3, 16, 90), (3, 16, 91), (5, 9, 80), (5, 9, 81), (4, 33, 256), (4, 33, 257))
_PIN_AMPLITUDES = (1e-280, 1e-7, 1.0, 1e7, 1e280)
# sha256 of the encoded samples, sidecars and decoded channels of the cases
# below. Any change to the rounding of either pipeline changes it.
_PIN_DIGEST = "0a80882af42bf30f5efdb25f2f005e2515ae4de8ddbe3b743669f162d221a0b2"


def test_encode_and_decode_are_bitwise_pinned():
    digest = hashlib.sha256()
    for (p, n, n_out), amplitude, mode in itertools.product(
            _PIN_SHAPES, _PIN_AMPLITUDES, _MODES):
        rng = np.random.default_rng([p, n_out, _PIN_AMPLITUDES.index(amplitude)])
        rec = MultiChannelRecord(amplitude * rng.standard_normal((p, n)), float(n))
        order = tuple(int(c) for c in rng.permutation(p))
        sig = encode(rec, _cfg(p, float(n_out), mode=mode, order=order))
        noise = rng.standard_normal(n_out)
        if mode == MODE_PAPER_COMPLEX:
            noise = noise + 1j * rng.standard_normal(n_out)
        digest.update(sig.samples.tobytes())
        digest.update(sig.provenance.to_json().encode())
        for signal in (sig, WidebandSignal(noise, sig.rate_hz, sig.provenance)):
            digest.update(decode(signal).channels.tobytes())
    assert digest.hexdigest() == _PIN_DIGEST


@pytest.mark.parametrize("mode", _MODES)
def test_decode_blocks_change_no_bit(mode, monkeypatch):
    # p=7, n=40: 21 bins, 336 bytes a channel's gather. Blocks of 1, 2 and 3
    # channels (the last one short) against all 7 in one block.
    rng = np.random.default_rng(7)
    rec = MultiChannelRecord(rng.standard_normal((7, 40)), 40.0)
    sig = encode(rec, _cfg(7, 560.0, mode=mode, order=tuple(rng.permutation(7).tolist())))
    noise = rng.standard_normal(sig.n_out)
    if mode == MODE_PAPER_COMPLEX:
        noise = noise + 1j * rng.standard_normal(sig.n_out)
    signals = (sig, WidebandSignal(noise, sig.rate_hz, sig.provenance))
    want = [decode(s).channels.tobytes() for s in signals]
    for rows in (1, 2, 3):
        monkeypatch.setattr(spectrum, "BLOCK_BYTES", rows * 336)
        assert [decode(s).channels.tobytes() for s in signals] == want, rows


def test_decode_holds_its_channels_and_one_block():
    # the eeg16k shape: 30 channels of 10000 samples at 1 kHz into 16 kHz
    rec = MultiChannelRecord(np.random.default_rng(14).standard_normal((30, 10000)), 1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CollisionWarning)
        sig = encode(rec, _cfg(30, 16000.0))
    decode(sig)  # builds the plan and this thread's scratch
    tracemalloc.start()
    try:
        back = decode(sig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= back.channels.nbytes + spectrum.BLOCK_BYTES + 2 ** 18


def test_encode_gather_copies_at_most_one_block_of_the_source_map():
    # p=1, n=16 into n_out = 2**21: the source map is 8 MiB of indices that
    # np.take copies because the plan keeps them read-only
    plan = build_band_plan(1, 16, 16.0, _cfg(1, float(2 ** 21)))
    assert plan.source.nbytes > 8 * spectrum.BLOCK_BYTES
    channels = np.random.default_rng(5).standard_normal((1, 16))
    stacked = np.empty(plan.n_out // 2 + 1, dtype=np.complex128)
    _stack_spectrum(channels, plan, stacked)
    want = stacked.tobytes()
    tracemalloc.start()
    try:
        _stack_spectrum(channels, plan, stacked)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stacked.tobytes() == want
    assert peak <= spectrum.BLOCK_BYTES + 2 ** 16


# (p, n, n_out) for paper-complex encode's quarter path: n odd and even, one
# plan whose Nyquist bin is empty, and one of several butterfly blocks.
_QUARTER_SHAPES = ((3, 16, 96), (3, 17, 100), (5, 9, 84), (5, 9, 80), (2, 8, 28),
                   (8, 64, 1024))


def _quarter_case(p, n, n_out):
    rng = np.random.default_rng([p, n, n_out])
    rec = MultiChannelRecord(rng.standard_normal((p, n)), float(n))
    order = tuple(int(c) for c in rng.permutation(p))
    return rec, _cfg(p, float(n_out), mode=MODE_PAPER_COMPLEX, order=order)


def _one_ifft(rec, config):
    """Paper-complex encode's spectrum, stacked and inverted in one ``ifft``."""
    plan = build_band_plan(rec.p, rec.n_samples, rec.sample_rate_hz, config)
    stacked = np.zeros(plan.n_out, dtype=np.complex128)
    _stack_spectrum(rec.channels, plan, stacked[:plan.n_out // 2 + 1])
    return stacked, np.fft.ifft(stacked)


def test_quarter_shapes_cover_both_parities_and_the_nyquist_bin():
    nyquist = set()
    for p, n, n_out in _QUARTER_SHAPES:
        stacked, _ = _one_ifft(*_quarter_case(p, n, n_out))
        nyquist.add(bool(stacked[n_out // 2] != 0))
    assert nyquist == {True, False}
    assert {n % 2 for _, n, _ in _QUARTER_SHAPES} == {0, 1}
    assert all(n_out % 4 == 0 for *_, n_out in _QUARTER_SHAPES)


@pytest.mark.parametrize("bytes_per_bin", [None, 2, 16])  # None: blocks of one bin
@pytest.mark.parametrize("p,n,n_out", _QUARTER_SHAPES)
def test_quarter_inverse_matches_one_ifft(p, n, n_out, bytes_per_bin, monkeypatch):
    rec, config = _quarter_case(p, n, n_out)
    _, want = _one_ifft(rec, config)
    monkeypatch.setitem(_fft._QUARTERS, "inverse", (4, n_out))
    monkeypatch.setattr(spectrum, "BLOCK_BYTES", bytes_per_bin * n_out if bytes_per_bin else 64)
    assert _fft._quartered("inverse", n_out)
    sig = encode(rec, config)
    got = sig.samples * sig.provenance.scale  # a power of two: exact
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert sig.provenance.scale == transform._normalization_scale(np.abs(want).max())
    with monkeypatch.context() as serial:  # both halves on this thread
        serial.setattr(_fft, "_in_parallel", serial_in_parallel())
        assert encode(rec, config).samples.tobytes() == sig.samples.tobytes()
    assert rel_max_err(decode(sig).channels, rec.channels) < 1e-9


@pytest.mark.parametrize("p,n,n_out,threshold", [
    (3, 16, 90, 64), (3, 16, 91, 64), (3, 17, 102, 64),  # n_out % 4 != 0
    (4, 16, 120, 121),  # one short of the threshold
    (8, 64, 1024, None),  # below the default threshold
])
def test_one_ifft_outside_the_quarter_path(p, n, n_out, threshold, monkeypatch):
    rec, config = _quarter_case(p, n, n_out)
    _, want = _one_ifft(rec, config)
    if threshold is not None:
        monkeypatch.setitem(_fft._QUARTERS, "inverse", (4, threshold))
    assert not _fft._quartered("inverse", n_out)
    sig = encode(rec, config)
    assert sig.samples.tobytes() == np.divide(want, sig.provenance.scale).tobytes()


def test_quarter_path_rejects_a_record_whose_spectrum_overflows(monkeypatch):
    rec = MultiChannelRecord(np.full((2, 64), 1.5e308), 10.0)
    config = _cfg(2, 40.0, mode=MODE_PAPER_COMPLEX)  # n_out = 256
    monkeypatch.setitem(_fft._QUARTERS, "inverse", (4, 256))
    monkeypatch.setattr(spectrum, "BLOCK_BYTES", 256)
    assert _fft._quartered("inverse", 256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # none may escape, from either thread
        with pytest.raises(ValidationError, match="spectrum overflows float64"):
            encode(rec, config)


def test_quarter_path_passes_on_a_nan_peak_from_either_thread(monkeypatch):
    # max(1.0, nan) is 1.0 in Python, so a NaN peak after a finite one
    # would be dropped by the wrong combination
    rec, config = _quarter_case(8, 64, 1024)
    monkeypatch.setitem(_fft._QUARTERS, "inverse", (4, 1024))
    monkeypatch.setattr(spectrum, "BLOCK_BYTES", 2048)
    invert = _fft._invert_quarters
    for nan_quarter in range(4):
        def poisoned(quarters, nan_quarter=nan_quarter):
            peaks = invert(quarters)
            return peaks + [np.nan] if nan_quarter in [r for _, r in quarters] else peaks
        monkeypatch.setattr(_fft, "_invert_quarters", poisoned)
        with pytest.raises(ValidationError, match="spectrum overflows float64"):
            encode(rec, config)


# (p, n, n_out) for paper-complex decode's quarter path, n_out a multiple of
# 8: p = 1, 2 and 7, n odd and even, at the lossless length and above it,
# and the smallest length the quarter layout fits (n_out = 32).
_DECODE_QUARTER_SHAPES = ((1, 16, 32), (1, 9, 40), (2, 16, 64), (2, 9, 96), (7, 30, 408),
                          (7, 31, 840), (7, 64, 1024))


def _one_rfft_decode(signal):
    """Paper-complex decode with its spectrum from one ``rfft``."""
    prov = signal.provenance
    plan = build_band_plan(prov.p, prov.n_samples, prov.source_rate_hz, _cfg(
        prov.p, prov.target_rate_hz, prov.mode, prov.stacking_order))
    raw = one_rfft_spectrum(signal.samples, prov.scale)
    return np.fft.irfft(raw[plan.decode_index], prov.n_samples, axis=1)


def _decode_quarter_signals(p, n, n_out):
    """An encoded record in a permuted order, complex noise, and noise with
    neither DC nor Nyquist content."""
    rng = np.random.default_rng([p, n, n_out])
    rec = MultiChannelRecord(rng.standard_normal((p, n)), float(n))
    order = tuple(int(c) for c in rng.permutation(p))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CollisionWarning)
        sig = encode(rec, _cfg(p, float(n_out), MODE_PAPER_COMPLEX, order))
    noise = rng.standard_normal(n_out) + 1j * rng.standard_normal(n_out)
    spectrum_ = np.fft.fft(noise)
    spectrum_[[0, n_out // 2]] = 0
    return [sig] + [WidebandSignal(x, sig.rate_hz, sig.provenance)
                    for x in (noise, np.fft.ifft(spectrum_))]


def test_decode_quarter_shapes_cover_the_edges_and_both_parities():
    sums = set()
    for shape in _DECODE_QUARTER_SHAPES:
        for sig in _decode_quarter_signals(*shape):
            s = sig.samples
            sums.add((abs(s.sum()) > 1e-9, abs(s[::2].sum() - s[1::2].sum()) > 1e-9))
    assert sums == {(True, True), (False, False), (True, False)}
    assert {n % 2 for _, n, _ in _DECODE_QUARTER_SHAPES} == {0, 1}
    assert {p for p, _, _ in _DECODE_QUARTER_SHAPES} == {1, 2, 7}
    assert all(n_out % 8 == 0 for *_, n_out in _DECODE_QUARTER_SHAPES)


@pytest.mark.parametrize("block_bytes", [64, 576, 4096, None])  # 64: blocks of one bin
@pytest.mark.parametrize("p,n,n_out", _DECODE_QUARTER_SHAPES)
def test_decode_quarters_match_one_rfft(p, n, n_out, block_bytes, monkeypatch):
    monkeypatch.setitem(_fft._QUARTERS, "forward", (8, 32))
    if block_bytes is not None:
        monkeypatch.setattr(spectrum, "BLOCK_BYTES", block_bytes)
    assert _fft._quartered("forward", n_out)
    for sig in _decode_quarter_signals(p, n, n_out):
        s, scale = sig.samples, sig.provenance.scale
        want = one_rfft_spectrum(s, scale)
        x = np.full(n_out, complex(np.nan, np.nan))  # every bin must be written
        dc, nyquist = _fft._real_plane_in_quarters(s, x, scale)
        got = x[:n_out // 2 + 1]
        got[0], got[-1] = dc * scale, nyquist * scale
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        channels = decode(sig).channels
        want_channels = _one_rfft_decode(sig)
        assert rel_max_err(channels, want_channels) < 1e-13
        with monkeypatch.context() as serial:  # both halves on this thread
            serial.setattr(_fft, "_in_parallel", serial_in_parallel())
            assert decode(sig).channels.tobytes() == channels.tobytes()


@pytest.mark.parametrize("p,n,n_out,threshold", [
    (3, 16, 100, 96), (3, 16, 102, 96), (3, 17, 101, 96),  # n_out % 8 != 0
    (4, 16, 120, 128),  # a multiple of 8 one short of the threshold
    (4, 64, 2 ** 17, None),  # below the default threshold
])
def test_one_rfft_outside_the_decode_quarter_path(p, n, n_out, threshold, monkeypatch):
    if threshold is not None:
        monkeypatch.setitem(_fft._QUARTERS, "forward", (8, threshold))
    assert not _fft._quartered("forward", n_out)
    for sig in _decode_quarter_signals(p, n, n_out):
        assert decode(sig).channels.tobytes() == _one_rfft_decode(sig).tobytes()


def test_decode_quarters_are_fixed_by_the_length_alone(monkeypatch):
    # a block size cannot move a length on or off either quarter path
    lengths = (560, 2 ** 15, 65540, 2 ** 17, 2 ** 17 + 2, 2 ** 18, 983040)
    for block_bytes in (64, 336, 2 ** 30):
        monkeypatch.setattr(spectrum, "BLOCK_BYTES", block_bytes)
        assert [_fft._quartered("forward", n) for n in lengths] == [
            False, False, False, False, False, True, True]
        assert [_fft._quartered("inverse", n) for n in lengths] == [
            False, False, True, True, False, True, True]


def test_decode_quarters_reject_an_overflowing_scale(monkeypatch):
    # a tampered file: a stored sample of 3 with the largest legal scale
    monkeypatch.setitem(_fft._QUARTERS, "forward", (8, 64))
    sig = _decode_quarter_signals(2, 16, 64)[0]
    samples = sig.samples.copy()
    samples[0] = 3.0
    forged = WidebandSignal(samples, sig.rate_hz,
                            dataclasses.replace(sig.provenance, scale=2.0 ** 1023))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # none may escape, from either thread
        with pytest.raises(DecodeError, match=r"wideband spectrum overflows .* 2\*\*1023"):
            decode(forged)


def test_decode_quarters_double_apart_at_the_largest_scale(monkeypatch):
    # 2 * 2**1023 overflows, but a small enough spectrum times 2**1024 does
    # not: the quarter path decodes it like one rfft, zero bins included
    monkeypatch.setitem(_fft._QUARTERS, "forward", (8, 64))
    sig = _decode_quarter_signals(2, 16, 64)[0]
    forged = WidebandSignal(sig.samples * 2.0 ** -40, sig.rate_hz,
                            dataclasses.replace(sig.provenance, scale=2.0 ** 1023))
    want = _one_rfft_decode(forged)
    assert np.isfinite(want).all()
    assert rel_max_err(decode(forged).channels, want) < 1e-13


def test_quarter_decode_holds_its_channels_and_one_block():
    # n_out = 2**18 at the default threshold: no n_out array beside the
    # held spectrum, and at most half a block of temporaries per thread
    rec = MultiChannelRecord(np.random.default_rng(18).standard_normal((4, 1024)), 1024.0)
    sig = encode(rec, _cfg(4, float(2 ** 18), MODE_PAPER_COMPLEX))
    assert _fft._quartered("forward", sig.n_out)
    decode(sig)  # builds the plan and this thread's scratch
    tracemalloc.start()
    try:
        back = decode(sig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rel_max_err(back.channels, rec.channels) < 1e-9
    assert peak <= back.channels.nbytes + spectrum.BLOCK_BYTES + 2 ** 18


# Paper-complex lengths at the default thresholds: both quarter paths at
# 2**18, encode's quarters beside decode's one rfft at 65,536 and 65,540
# (n_out % 8 == 4), and neither at the odd 262,145.
_QUARTER_PIN_LENGTHS = (2 ** 18, 65536, 65540, 262145)
# sha256 of the encoded samples, sidecars and decoded channels (encoded and
# noise signals) of those lengths, then of _QUARTER_SHAPES and
# _DECODE_QUARTER_SHAPES with both thresholds forced low.
_QUARTER_PIN_DIGEST = "ad0e178f8f1ed1931c2d385cf044e403f54fd13db6a92b13ce695180a906eac1"


def _pin_quarter_case(digest, p, n, n_out):
    rng = np.random.default_rng([p, n, n_out])
    rec = MultiChannelRecord(rng.standard_normal((p, n)), float(n))
    order = tuple(int(c) for c in rng.permutation(p))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CollisionWarning)
        sig = encode(rec, _cfg(p, float(n_out), MODE_PAPER_COMPLEX, order))
    noise = rng.standard_normal(n_out) + 1j * rng.standard_normal(n_out)
    digest.update(sig.samples.tobytes())
    digest.update(sig.provenance.to_json().encode())
    for signal in (sig, WidebandSignal(noise, sig.rate_hz, sig.provenance)):
        digest.update(decode(signal).channels.tobytes())


def test_quarter_paths_are_bitwise_pinned(monkeypatch):
    digest = hashlib.sha256()
    for n_out in _QUARTER_PIN_LENGTHS:
        _pin_quarter_case(digest, 4, 1024, n_out)
    # Every shape with n_out % 4 == 0 on encode's quarter path, every one
    # with n_out % 8 == 0 on decode's, and blocks of 448 bytes.
    monkeypatch.setitem(_fft._QUARTERS, "inverse", (4, 28))
    monkeypatch.setitem(_fft._QUARTERS, "forward", (8, 32))
    monkeypatch.setattr(spectrum, "BLOCK_BYTES", 448)
    for shape in _QUARTER_SHAPES + _DECODE_QUARTER_SHAPES:
        _pin_quarter_case(digest, *shape)
    assert digest.hexdigest() == _QUARTER_PIN_DIGEST


# (p, n, F_s / f_s) whose n_out takes the real modes' split at the default
# rule: n a prime, twice and four times that prime (n_out = 16*1009, 32*1009
# and 64*1009), and the odd n_out = 5 * 2003.
_SPLIT_RECORDS = ((2, 1009, 16), (2, 2018, 16), (3, 4036, 16), (2, 2003, 5))
_REAL_MODES = (MODE_REAL_HERMITIAN, MODE_STRICT_LOSSLESS)


def _split_case(p, n, ratio, mode):
    rng = np.random.default_rng([p, n, ratio])
    rec = MultiChannelRecord(rng.standard_normal((p, n)), float(n))
    return rng, rec, _cfg(p, float(ratio * n), mode)


def test_the_benchmark_and_pinned_lengths_stay_off_the_split():
    # wide64-complex's and eeg16k-model-feed's n_out, then the pinned ones
    lengths = ((983_040, 160_000) + tuple(n_out for _, _, n_out in _PIN_SHAPES)
               + _QUARTER_PIN_LENGTHS)
    assert [n_out for n_out in lengths if _fft._split(n_out)] == []


@pytest.mark.parametrize("mode", _REAL_MODES)
@pytest.mark.parametrize("p, n, ratio", _SPLIT_RECORDS)
def test_split_lengths_round_trip_like_one_fft(p, n, ratio, mode, monkeypatch):
    _, rec, config = _split_case(p, n, ratio, mode)
    sig = encode(rec, config)
    assert _fft._split(sig.n_out)
    back = decode(sig)
    assert rel_max_err(back.channels, rec.channels) < 1e-9
    monkeypatch.setattr(_fft, "_SPLIT", (4, 500, float("inf")))  # one FFT each way
    one = encode(rec, config)
    assert one.provenance == sig.provenance
    assert np.abs(sig.samples - one.samples).max() <= 1e-14 * np.abs(one.samples).max()
    want = decode(sig).channels
    assert np.abs(back.channels - want).max() <= 1e-14 * np.abs(want).max()


def test_split_decode_holds_its_channels_one_array_and_one_block():
    # beside this thread's scratch: the (a, b//2 + 1) array of row rffts and
    # at most half a block of twiddles on each thread
    p, n, ratio = _SPLIT_RECORDS[2]
    _, rec, config = _split_case(p, n, ratio, MODE_REAL_HERMITIAN)
    sig = encode(rec, config)
    a, b = _fft._split(sig.n_out)
    decode(sig)  # builds the plan and this thread's scratch
    tracemalloc.start()
    try:
        back = decode(sig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rel_max_err(back.channels, rec.channels) < 1e-9
    assert peak <= back.channels.nbytes + 16 * a * (b // 2 + 1) + spectrum.BLOCK_BYTES + 2 ** 16


# sha256 of the encoded samples, sidecars and decoded channels (encoded and
# noise signals) of _SPLIT_RECORDS in both real modes.
_SPLIT_PIN_DIGEST = "133a8708dbdfe32d3b5f04963b7c246640fc00781573fe5d0d24de7f37710985"


def test_the_split_is_bitwise_pinned():
    digest = hashlib.sha256()
    for (p, n, ratio), mode in itertools.product(_SPLIT_RECORDS, _REAL_MODES):
        rng, rec, config = _split_case(p, n, ratio, mode)
        sig = encode(rec, config)
        noise = rng.standard_normal(sig.n_out)
        digest.update(sig.samples.tobytes())
        digest.update(sig.provenance.to_json().encode())
        for signal in (sig, WidebandSignal(noise, sig.rate_hz, sig.provenance)):
            digest.update(decode(signal).channels.tobytes())
    assert digest.hexdigest() == _SPLIT_PIN_DIGEST
