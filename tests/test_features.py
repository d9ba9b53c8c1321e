"""Spectrogram and band-energy contracts."""

import tracemalloc

import numpy as np
import pytest

from bandstack.features import (
    EEG_BANDS,
    band_energies,
    frame_count,
    spectrogram,
    stft_magnitude,
)
from bandstack.model import (
    MODE_PAPER_COMPLEX,
    MultiChannelRecord,
    TransformConfig,
    ValidationError,
)
from bandstack.spectrum import BLOCK_BYTES
from bandstack.transform import encode
from helpers import band_energies_literal, direct_dft, stft_magnitude_literal


def test_frame_count_formula():
    assert frame_count(160000, 1024, 768) == 622
    assert frame_count(160000, 1024, 768, paper_shape=True) == 621
    assert frame_count(64, 64, 0) == 1
    assert frame_count(100, 16, 8) == 11


def test_stft_shape_and_rows():
    x = np.random.default_rng(0).standard_normal(512)
    m = stft_magnitude(x, 64, 48)
    assert m.shape == (33, 1 + (512 - 64) // 16)
    m2 = stft_magnitude(x, 64, 48, paper_shape=True)
    assert m2.shape == (33, (512 - 64) // 16)


def test_zero_signal_gives_zero_matrix():
    m = stft_magnitude(np.zeros(256), 32, 16)
    assert np.all(m == 0)


def test_tone_hits_expected_frequency_row():
    # 32 Hz tone at 256 Hz rate, window 64: row = 32 / (256/64) = 8
    rate, n, freq, window = 256.0, 2048, 32.0, 64
    t = np.arange(n) / rate
    x = np.cos(2 * np.pi * freq * t)
    m = stft_magnitude(x, window, 0)
    assert np.all(m.argmax(axis=0) == 8)


def test_kilohertz_tone_at_audio_rate():
    # 1 kHz at 16 kHz with a 1024 window: row = 1000 / (16000/1024) = 64
    rate, window, hop_frames = 16000.0, 1024, 6
    n = window + 256 * hop_frames
    x = np.cos(2 * np.pi * 1000.0 * np.arange(n) / rate)
    m = stft_magnitude(x, window, 768)
    assert np.all(m.argmax(axis=0) == 64)


def test_stft_row_matches_direct_dft_of_frame():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(96)
    m = stft_magnitude(x, 32, 0)
    from bandstack.features import hann_window
    frame = x[32:64] * hann_window(32)
    want = np.abs(direct_dft(frame))[:17]
    assert np.allclose(m[:, 1], want, rtol=1e-10)


def test_magnitude_scales_linearly():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(300)
    a = -3.5
    m1 = stft_magnitude(x, 64, 32)
    m2 = stft_magnitude(a * x, 64, 32)
    assert np.allclose(m2, abs(a) * m1, rtol=1e-12)


def test_time_shift_by_one_hop_shifts_columns():
    rng = np.random.default_rng(2)
    hop = 16
    x = rng.standard_normal(400)
    shifted = np.concatenate([np.zeros(hop), x])
    m = stft_magnitude(x, 64, 64 - hop)
    ms = stft_magnitude(shifted, 64, 64 - hop)
    cols = min(m.shape[1], ms.shape[1] - 1)
    assert np.allclose(ms[:, 1:1 + cols], m[:, :cols], rtol=1e-6)


def test_log_scale():
    x = np.ones(128)
    lin = stft_magnitude(x, 32, 0)
    db = stft_magnitude(x, 32, 0, log=True)
    assert np.allclose(db, 20 * np.log10(np.maximum(lin, 1e-12)))


def test_window_validation():
    x = np.zeros(64)
    with pytest.raises(ValidationError, match="window"):
        stft_magnitude(x, 128, 0)
    with pytest.raises(ValidationError, match="overlap"):
        stft_magnitude(x, 32, 32)
    with pytest.raises(ValidationError, match="window_samples must be an integer.*1024.0"):
        stft_magnitude(np.zeros(2048), 1024.0, 768)
    with pytest.raises(ValidationError, match="overlap_samples must be an integer.*63.5"):
        stft_magnitude(x, 64, 63.5)
    rec = MultiChannelRecord(np.random.default_rng(3).standard_normal((1, 64)), 32.0)
    sig = encode(rec, TransformConfig(64.0, 1))
    with pytest.raises(ValidationError, match="window_samples must be an integer"):
        spectrogram(sig, "16", 8)
    with pytest.raises(ValidationError, match="overlap_samples must be an integer"):
        spectrogram(sig, 16, 8.0)
    assert spectrogram(sig, np.int64(16), np.int32(8)).shape == (9, 15)


def test_spectrogram_rejects_complex_mode():
    rec = MultiChannelRecord(np.random.default_rng(3).standard_normal((1, 64)), 32.0)
    sig = encode(rec, TransformConfig(64.0, 1, mode=MODE_PAPER_COMPLEX))
    with pytest.raises(ValidationError, match="real-mode"):
        spectrogram(sig, 16, 8)


def test_spectrogram_of_encoded_signal():
    rec = MultiChannelRecord(np.random.default_rng(5).standard_normal((2, 128)), 32.0)
    sig = encode(rec, TransformConfig(128.0, 2))
    m = spectrogram(sig, 64, 48)
    assert m.shape == (33, 1 + (sig.n_out - 64) // 16)


def _tone_record(freq, rate=250.0, n=250):
    t = np.arange(n) / rate
    return MultiChannelRecord(np.cos(2 * np.pi * freq * t)[None, :], rate)


def test_six_hertz_tone_is_theta_dominant():
    energies = band_energies(_tone_record(6.0))[0]
    total = sum(energies.values())
    assert energies["theta"] / total > 0.99


def test_ten_hertz_tone_is_alpha_dominant():
    energies = band_energies(_tone_record(10.0))[0]
    total = sum(energies.values())
    assert energies["alpha"] / total > 0.99


def test_zero_channel_has_zero_energies():
    rec = MultiChannelRecord(np.zeros((2, 100)), 250.0)
    for energies in band_energies(rec):
        assert all(v == 0.0 for v in energies.values())


def test_all_bands_present_above_200hz():
    rec = MultiChannelRecord(np.random.default_rng(6).standard_normal((1, 64)), 250.0)
    assert set(band_energies(rec)[0]) == set(EEG_BANDS)


def test_bands_above_nyquist_absent():
    rec = MultiChannelRecord(np.random.default_rng(7).standard_normal((1, 64)), 60.0)
    energies = band_energies(rec)[0]
    assert "gamma" not in energies  # 30-100 Hz starts at Nyquist for 60 Hz rate
    assert "beta" in energies  # 12-30 Hz is (partially) below Nyquist


def test_band_energy_bounded_by_parseval_total():
    rng = np.random.default_rng(8)
    rec = MultiChannelRecord(rng.standard_normal((1, 128)), 250.0)
    total = float((np.abs(np.fft.fft(rec.channels[0])) ** 2).sum())
    for value in band_energies(rec)[0].values():
        assert value <= total + 1e-9


def test_sigma_beta_overlap_reported_independently():
    energies = band_energies(_tone_record(14.0))[0]
    # 14 Hz lies in both sigma (12-16) and beta (12-30)
    assert energies["sigma"] > 0
    assert energies["beta"] >= energies["sigma"] * 0.999


def _frames_to_length(frames, window, overlap):
    return window + (frames - 1) * (window - overlap)


_BLOCK = BLOCK_BYTES // (16 * 1024)  # most frames a block holds at window 1024


@pytest.mark.parametrize("length, window, overlap, paper_shape, log", [
    (512, 64, 48, False, False),
    (300, 32, 0, False, False),  # hop = window
    (257, 257, 100, False, False),  # window = len(x): one frame
    (1001, 128, 77, False, False),  # odd length and hop
    (2000, 256, 192, True, False),
    (777, 64, 31, False, True),
    (160000, 1024, 768, True, False),  # the reference configuration
    (_frames_to_length(_BLOCK, 1024, 768), 1024, 768, False, False),  # one block
    (_frames_to_length(_BLOCK + 1, 1024, 768), 1024, 768, False, False),
    (_frames_to_length(_BLOCK + 2, 1024, 768), 1024, 768, True, False),  # one block + 1 after the drop
    (_frames_to_length(3 * _BLOCK + 5, 1024, 1000), 1024, 1000, False, True),
])
def test_stft_equals_frame_gather_oracle(length, window, overlap, paper_shape, log):
    x = np.random.default_rng(length).standard_normal(length)
    got = stft_magnitude(x, window, overlap, paper_shape=paper_shape, log=log)
    assert np.array_equal(got, stft_magnitude_literal(x, window, overlap, paper_shape, log))


def test_stft_of_strided_input_equals_oracle():
    rng = np.random.default_rng(9)
    x = (rng.standard_normal(999) + 1j * rng.standard_normal(999)).real
    assert not x.flags.c_contiguous
    assert np.array_equal(stft_magnitude(x, 100, 37), stft_magnitude_literal(x, 100, 37))


@pytest.mark.parametrize("log", [False, True])
def test_stft_holds_its_output_and_one_block(log):
    # the reference configuration: the output plus about 1 MiB of block buffers
    x = np.random.default_rng(12).standard_normal(160000)
    stft_magnitude(x, 1024, 768, paper_shape=True, log=log)
    tracemalloc.start()
    try:
        m = stft_magnitude(x, 1024, 768, paper_shape=True, log=log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.shape == (513, 621)
    assert peak <= m.nbytes + 2 * 2 ** 20


@pytest.mark.parametrize("p, n, rate", [
    (3, 2, 250.0), (2, 3, 250.0), (4, 512, 256.0), (3, 101, 250.0),
    (1, 64, 60.0),  # gamma starts at Nyquist: absent
    (2, 200, 150.0),  # gamma clipped at Nyquist
    (30, 10000, 1000.0),
])
def test_band_energies_match_per_channel_oracle(p, n, rate):
    data = np.random.default_rng(p * n).standard_normal((p, n))
    data[-1] = 0.0
    rec = MultiChannelRecord(data, rate)
    got = band_energies(rec)
    want = band_energies_literal(rec)
    assert len(got) == p
    for g, w in zip(got, want):
        assert list(g) == list(w)
        peak = max(w.values())
        assert all(abs(g[k] - w[k]) <= 1e-12 * peak for k in w)
    assert all(v == 0.0 for v in got[-1].values())


def test_band_energies_all_bands_absent():
    rec = MultiChannelRecord(np.random.default_rng(10).standard_normal((3, 50)), 1.0)
    assert band_energies(rec) == [{}, {}, {}]
    assert band_energies_literal(rec) == [{}, {}, {}]


def test_band_energies_recheck_a_mutated_record():
    rec = MultiChannelRecord(np.random.default_rng(11).standard_normal((2, 64)), 250.0)
    rec.channels.base.setflags(write=True)  # the locked view's owner
    rec.channels.base[1, 5] = np.nan
    with pytest.raises(ValidationError, match="non-finite sample at channel 1, index 5"):
        band_energies(rec)


@pytest.mark.parametrize("overlap", [10, 11])
def test_frame_count_refuses_an_overlap_that_leaves_no_hop(overlap):
    with pytest.raises(ValidationError, match="overlap must satisfy 0 <= overlap < window"):
        frame_count(100, 10, overlap)
