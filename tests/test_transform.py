"""Encode/decode pipeline: round trips, mode relations, lossy accounting."""

import dataclasses

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
from bandstack.spectrum import forward_fft
from bandstack.transform import decode, encode, roundtrip_report
from helpers import random_record, rel_max_err


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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
    with pytest.raises(ValidationError, match="non-finite dft input"):
        decode(forged)


def test_roundtrip_nonintegral_duration_product():
    # T*F_s = 12.5 rounds to 12; the residual is reported, not hidden
    rec = MultiChannelRecord(np.random.default_rng(4).standard_normal((1, 5)), 2.0)
    sig = encode(rec, _cfg(1, 5.0))
    assert sig.n_out == 12
    assert sig.provenance.rate_residual == pytest.approx(0.5)
