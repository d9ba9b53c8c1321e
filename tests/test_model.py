"""Domain-type invariants: nothing invalid can be constructed."""

import tracemalloc

import numpy as np
import pytest

from bandstack.model import (
    ChannelSpectrum,
    MultiChannelRecord,
    TransformConfig,
    ValidationError,
    WidebandSignal,
    output_length,
    validate_record,
)
from bandstack.sidecar import SidecarHeader


def test_valid_record_paper_shape():
    rec = MultiChannelRecord(np.zeros((30, 10000)), 1000.0)
    validate_record(rec)
    assert rec.p == 30 and rec.n_samples == 10000
    assert rec.duration_s == 10.0


def test_ragged_channels_rejected():
    with pytest.raises(ValidationError, match="ragged"):
        MultiChannelRecord([np.zeros(8), np.zeros(9)], 10.0)


def test_degenerate_single_channel_ok():
    rec = MultiChannelRecord(np.zeros((1, 4)), 4.0)
    validate_record(rec)
    assert rec.p == 1


def test_non_finite_sample_names_position():
    data = np.zeros((2, 5))
    data[1, 3] = np.nan
    with pytest.raises(ValidationError, match="channel 1, index 3"):
        MultiChannelRecord(data, 10.0)


def test_validate_record_checks_in_place():
    rec = MultiChannelRecord(np.zeros((4, 100_000)), 10.0)
    tracemalloc.start()
    try:
        validate_record(rec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rec.channels.nbytes // 100
    # a record whose array was made writable and changed afterwards
    rec.channels.setflags(write=True)
    rec.channels[1, 3] = np.inf
    with pytest.raises(ValidationError, match="non-finite sample at channel 1, index 3"):
        validate_record(rec)


def test_bad_rate_rejected():
    with pytest.raises(ValidationError, match="rate"):
        MultiChannelRecord(np.zeros((1, 4)), 0.0)
    with pytest.raises(ValidationError, match="rate"):
        MultiChannelRecord(np.zeros((1, 4)), -5.0)


def test_too_short_channel_rejected():
    with pytest.raises(ValidationError, match="at least 2"):
        MultiChannelRecord(np.zeros((1, 1)), 10.0)


def test_record_is_immutable():
    rec = MultiChannelRecord(np.zeros((1, 4)), 4.0)
    with pytest.raises(ValueError):
        rec.channels[0, 0] = 1.0


def test_duration_roundtrips_to_sample_count():
    for n, rate in [(10, 3.0), (10000, 1000.0), (250, 32.0), (7, 0.3)]:
        rec = MultiChannelRecord(np.zeros((1, n)), rate)
        assert round(rec.duration_s * rec.sample_rate_hz) == n


def test_channel_names_length_checked():
    with pytest.raises(ValidationError, match="names"):
        MultiChannelRecord(np.zeros((2, 4)), 4.0, channel_names=("only-one",))


def test_spectrum_symmetry_enforced_for_real_sources():
    bins = np.fft.fft(np.array([1.0, 2.0, 3.0, 4.0]))
    spec = ChannelSpectrum(bins, 4.0, real_source=True)
    assert spec.n == 4
    broken = bins.copy()
    broken[1] += 1.0  # breaks conjugate pairing with bin 3
    with pytest.raises(ValidationError, match="conjugate"):
        ChannelSpectrum(broken, 4.0, real_source=True)
    ChannelSpectrum(broken, 4.0)  # unconstrained spectra may be asymmetric


def test_bin_frequency_grid_is_inclusive():
    spec = ChannelSpectrum(np.fft.fft(np.zeros(5) + 1.0), 40.0, real_source=True)
    assert spec.bin_frequency(0) == 0.0
    assert spec.bin_frequency(4) == pytest.approx(40.0)  # grid spans 0..rate
    assert spec.bin_frequency(1) == pytest.approx(10.0)


def test_config_validates_mode_and_order():
    with pytest.raises(ValidationError, match="mode"):
        TransformConfig(100.0, 2, mode="loud")
    with pytest.raises(ValidationError, match="permutation"):
        TransformConfig(100.0, 3, stacking_order=(0, 0, 2))
    cfg = TransformConfig(100.0, 3)
    assert cfg.stacking_order == (0, 1, 2)
    cfg = TransformConfig(100.0, 3, stacking_order=(2, 1, 0))
    assert cfg.stacking_order == (2, 1, 0)


def test_output_length_matches_integer_products():
    assert output_length(10000, 1000.0, 16000.0) == 160000
    assert output_length(4, 4.0, 8.0) == 8
    assert output_length(5, 10.0, 100.0) == 50


@pytest.mark.parametrize("field, value", [
    ("p", 0),
    ("n_samples", 1),
    ("source_rate_hz", 0.0),
    ("target_rate_hz", np.inf),
    ("scale", -1.0),
    ("scale", 3.0),
    ("scale", np.nan),
    ("stacking_order", (0, 0)),
    ("mode", "lossy"),
    ("channel_names", (1, 2)),
    ("channel_names", ("a",)),
])
def test_sidecar_header_invariants(field, value):
    good = dict(p=2, n_samples=4, source_rate_hz=4.0, target_rate_hz=16.0,
                mode="real-hermitian", stacking_order=(1, 0), scale=0.5,
                collision_count=1, channel_names=("a", "b"))
    SidecarHeader(**good)
    with pytest.raises(ValidationError, match=field):
        SidecarHeader(**{**good, field: value})


def test_wideband_signal_checks_provenance_length():
    prov = SidecarHeader(p=1, n_samples=4, source_rate_hz=4.0, target_rate_hz=8.0,
                         mode="real-hermitian", stacking_order=(0,), scale=1.0,
                         collision_count=0)
    WidebandSignal(np.zeros(8), 8.0, prov)
    with pytest.raises(ValidationError, match="provenance says 8"):
        WidebandSignal(np.zeros(9), 8.0, prov)
    with pytest.raises(ValidationError, match="finite"):
        WidebandSignal(np.full(8, np.inf), 8.0, prov)


def test_wideband_signal_rate_must_match_provenance():
    prov = SidecarHeader(p=1, n_samples=4, source_rate_hz=4.0, target_rate_hz=8.0,
                         mode="real-hermitian", stacking_order=(0,), scale=1.0,
                         collision_count=0)
    with pytest.raises(ValidationError, match="provenance says 8.0 Hz, got rate_hz=4.0"):
        WidebandSignal(np.zeros(8), 4.0, prov)
