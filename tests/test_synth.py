"""Synthetic generator contracts: determinism, band placement, truncation."""

import numpy as np
import pytest

from bandstack.features import EEG_BANDS, band_energies
from bandstack.mapping import build_band_plan
from bandstack.model import MultiChannelRecord, TransformConfig, ValidationError, validate_record
from bandstack.synth import make_bandnoise, make_tones
from bandstack.transform import encode
from helpers import bandnoise_literal


def test_alpha_tone_is_alpha_dominant():
    rec = make_tones(1, 250, 250.0, [[(10.0, 1.0, 0.0)]])
    energies = band_energies(rec)[0]
    assert energies["alpha"] / sum(energies.values()) > 0.99


def test_empty_tone_table_gives_zero_record():
    rec = make_tones(2, 100, 250.0, [[], []])
    assert np.all(rec.channels == 0)
    validate_record(rec)


def test_tone_above_nyquist_rejected():
    with pytest.raises(ValidationError, match="Nyquist"):
        make_tones(1, 100, 250.0, [[(125.0, 1.0, 0.0)]])


def test_tones_are_deterministic():
    spec = [[(10.0, 1.0, 0.5), (40.0, 0.25, 0.0)], [(3.0, 2.0, 1.0)]]
    a = make_tones(2, 500, 250.0, spec)
    b = make_tones(2, 500, 250.0, spec)
    assert np.array_equal(a.channels, b.channels)


def test_two_channel_tones_land_at_plan_predicted_bins():
    p, n, f_s, F_s = 2, 250, 250.0, 1000.0
    rec = make_tones(p, n, f_s, [[(10.0, 1.0, 0.0)], [(25.0, 1.0, 0.0)]])
    cfg = TransformConfig(F_s, p)
    plan = build_band_plan(p, n, f_s, cfg)
    sig = encode(rec, cfg)
    mag = np.abs(np.fft.fft(sig.samples))
    for band, tone in ((0, 10.0), (1, 25.0)):
        source_bin = int(tone * n / f_s)  # tones are bin-exact by construction
        row = plan.assignments[band]
        # each half of the band holds one copy of the tone: the informative
        # peak and its conjugate mirror, of equal magnitude up to rounding
        for half, want in ((row[:n // 2 + 1], row[source_bin]),
                           (row[n // 2 + 1:], row[n - source_bin])):
            lo, hi = half.min(), half.max()
            assert lo + int(np.argmax(mag[lo:hi + 1])) == want


def test_bandnoise_concentrates_in_band():
    noise = make_bandnoise(2, 1000, 250.0, "delta", seed=7)
    assert not noise.truncated
    for energies in band_energies(noise.record):
        assert energies["delta"] / sum(energies.values()) >= 0.99


def test_bandnoise_deterministic_under_fixed_seed():
    a = make_bandnoise(3, 256, 250.0, "theta", seed=123)
    b = make_bandnoise(3, 256, 250.0, "theta", seed=123)
    assert np.array_equal(a.record.channels, b.record.channels)
    c = make_bandnoise(3, 256, 250.0, "theta", seed=124)
    assert not np.array_equal(a.record.channels, c.record.channels)


def test_bandnoise_equals_the_per_channel_loop():
    for p in (1, 3, 8):
        for n in (2, 3, 16, 255, 1000):
            for rate in (60.0, 250.0):
                for band in ("delta", "alpha", "beta", "gamma"):
                    if EEG_BANDS[band][0] >= rate / 2:
                        continue
                    got = make_bandnoise(p, n, rate, band, seed=p + n).record.channels
                    want = bandnoise_literal(p, n, rate, band, seed=p + n)
                    assert got.tobytes() == want.tobytes(), (p, n, rate, band)


def test_gamma_at_150hz_is_truncated_not_rejected():
    noise = make_bandnoise(1, 512, 150.0, "gamma", seed=1)
    assert noise.truncated
    validate_record(noise.record)
    power = np.abs(np.fft.fft(noise.record.channels[0])) ** 2
    freqs = np.arange(512) * (150.0 / 511)
    # everything below the band's low edge must be empty
    assert power[(freqs < 30.0)].sum() < 1e-18 * power.sum()


def test_band_entirely_above_nyquist_rejected():
    with pytest.raises(ValidationError, match="above Nyquist"):
        make_bandnoise(1, 128, 60.0, "gamma")  # 30-100 Hz vs 30 Hz Nyquist


def test_unknown_band_rejected():
    with pytest.raises(ValidationError, match="unknown band"):
        make_bandnoise(1, 128, 250.0, "zeta")


def test_generated_records_validate():
    validate_record(make_bandnoise(2, 300, 250.0, "beta", seed=3).record)
    validate_record(make_tones(1, 300, 250.0, [[(5.0, 1.0, 0.0)]]))


@pytest.mark.parametrize("rate", [0.0, -5.0, float("nan"), float("inf")])
def test_generators_refuse_a_bad_rate_before_any_arithmetic(rate):
    # RuntimeWarnings are errors under pytest, so a division by the rate
    # before the check would fail here too
    with pytest.raises(ValidationError, match=f"sample rate .* got {rate!r} Hz"):
        make_tones(1, 8, rate, [[(1.0, 1.0, 0.0)]])
    with pytest.raises(ValidationError, match=f"sample rate .* got {rate!r} Hz"):
        make_bandnoise(1, 8, rate, "alpha")


@pytest.mark.parametrize("tone, name", [
    ((float("-inf"), 1.0, 0.0), "frequency"),
    ((float("nan"), 1.0, 0.0), "frequency"),
    ((5.0, float("inf"), 0.0), "amplitude"),
    ((5.0, 1.0, float("nan")), "phase"),
])
def test_non_finite_tone_fields_are_refused_by_name(tone, name):
    with pytest.raises(ValidationError, match=f"tone {name} is not finite"):
        make_tones(1, 64, 250.0, [[tone]])


@pytest.mark.parametrize("call, name", [
    (lambda: make_bandnoise(1, 64, 250.0, "alpha", seed=1.5), "seed"),
    (lambda: make_bandnoise(1, 64, 250.0, "alpha", seed="1"), "seed"),
    (lambda: make_bandnoise(1, 64, 250.0, "alpha", seed=None), "seed"),
    (lambda: make_bandnoise(1, 64, 250.0, ["alpha"]), "band"),
    (lambda: make_tones(1, 64, 250.0, [[(5.0, 1.0)]]), "tone"),
    (lambda: make_tones(1, 64, 250.0, [[(5.0, "1", 0.0)]]), "tone"),
], ids=["seed-float", "seed-str", "seed-None", "band-list", "tone-two-fields",
        "tone-str-amplitude"])
def test_generators_refuse_malformed_arguments_by_name(call, name):
    with pytest.raises(ValidationError, match=name):
        call()
