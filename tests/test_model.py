"""Domain-type invariants: nothing invalid can be constructed."""

import re
import tracemalloc

import numpy as np
import pytest

from bandstack.mapping import build_band_plan, stack_fast, stack_oracle
from bandstack.model import (
    ChannelSpectrum,
    MultiChannelRecord,
    StackedSpectrum,
    TransformConfig,
    ValidationError,
    WidebandSignal,
    output_length,
    validate_record,
)
from bandstack.sidecar import SidecarHeader
from bandstack.synth import make_bandnoise, make_tones


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


# Every constructor and function that takes a rate, a count, a mode or a band
# order, with the rest of a good configuration (p=3, n=8, f_s=8 Hz, F_s=48 Hz):
# field -> {caller: (call with the field set to v, the field's name in the
# message, a good v)}
def _mutated_record(v):
    rec = MultiChannelRecord(np.zeros((3, 8)), 8.0)
    object.__setattr__(rec, "sample_rate_hz", v)
    return validate_record(rec)


def _header(**fields):
    return SidecarHeader(**{**dict(p=3, n_samples=8, source_rate_hz=8.0, target_rate_hz=48.0,
                                   mode="real-hermitian", stacking_order=(2, 0, 1),
                                   scale=0.5, collision_count=2), **fields})


_CALLERS = {
    "rate": {
        "MultiChannelRecord": (lambda v: MultiChannelRecord(np.zeros((3, 8)), v),
                               "sample_rate_hz", 8.0),
        "validate_record": (_mutated_record, "sample_rate_hz", 8.0),
        "ChannelSpectrum": (lambda v: ChannelSpectrum(np.ones(8), v), "source_rate_hz", 8.0),
        "StackedSpectrum": (lambda v: StackedSpectrum(np.ones(48), v), "rate_hz", 48.0),
        "TransformConfig": (lambda v: TransformConfig(v, 3), "target_rate_hz", 48.0),
        "WidebandSignal": (lambda v: WidebandSignal(np.zeros(48), v, _header()),
                           "rate_hz", 48.0),
        "SidecarHeader-source": (lambda v: _header(source_rate_hz=v), "source_rate_hz", 8.0),
        "SidecarHeader-target": (lambda v: _header(target_rate_hz=v), "target_rate_hz", 48.0),
        "build_band_plan": (lambda v: build_band_plan(3, 8, v, TransformConfig(48.0, 3)),
                            "source rate", 8.0),
        "stack_fast-source": (lambda v: stack_fast(3, 8, v, 48.0, 0), "source rate", 8.0),
        "stack_fast-target": (lambda v: stack_fast(3, 8, 8.0, v, 0), "target rate", 48.0),
        "stack_oracle-source": (lambda v: stack_oracle(3, 8, v, 48.0, 0), "source rate", 8.0),
        "stack_oracle-target": (lambda v: stack_oracle(3, 8, 8.0, v, 0), "target rate", 48.0),
        "make_tones": (lambda v: make_tones(3, 8, v, [[]] * 3), "sample rate", 8.0),
        "make_bandnoise": (lambda v: make_bandnoise(3, 8, v, "alpha"), "sample rate", 250.0),
    },
    "count": {
        "TransformConfig": (lambda v: TransformConfig(48.0, v), "p=", 3),
        "SidecarHeader-p": (lambda v: _header(p=v), "p=", 3),
        "SidecarHeader-n": (lambda v: _header(n_samples=v), "n_samples=", 8),
        "build_band_plan": (lambda v: build_band_plan(3, v, 8.0, TransformConfig(48.0, 3)),
                            "n_samples=", 8),
        "stack_fast-p": (lambda v: stack_fast(v, 8, 8.0, 48.0, 0), "p=", 3),
        "stack_fast-n": (lambda v: stack_fast(3, v, 8.0, 48.0, 0), "n_samples=", 8),
        "stack_oracle-p": (lambda v: stack_oracle(v, 8, 8.0, 48.0, 0), "p=", 3),
        "stack_oracle-n": (lambda v: stack_oracle(3, v, 8.0, 48.0, 0), "n_samples=", 8),
        "make_tones-p": (lambda v: make_tones(v, 8, 8.0, [[]] * 3), "p=", 3),
        "make_tones-n": (lambda v: make_tones(3, v, 8.0, [[]] * 3), "n_samples=", 8),
        "make_bandnoise-p": (lambda v: make_bandnoise(v, 8, 250.0, "alpha"), "p=", 3),
        "make_bandnoise-n": (lambda v: make_bandnoise(3, v, 250.0, "alpha"), "n_samples=", 8),
    },
    "mode": {
        "TransformConfig": (lambda v: TransformConfig(48.0, 3, mode=v), "mode",
                            "real-hermitian"),
        "SidecarHeader": (lambda v: _header(mode=v), "mode", "real-hermitian"),
    },
    "order": {
        "TransformConfig": (lambda v: TransformConfig(48.0, 3, stacking_order=v),
                            "stacking_order", (2, 0, 1)),
        "SidecarHeader": (lambda v: _header(stacking_order=v), "stacking_order", (2, 0, 1)),
    },
}
_BAD_VALUES = {
    "rate": [0, 0.0, -1, -1.0, float("nan"), float("inf"), -float("inf"), "abc", "100",
             None, 1j, 2**1024],
    "count": [0, -1, float("nan"), float("inf"), "abc", None, 2.5, 3.0],
    "mode": ["loud", "", None, 0, ["real-hermitian"]],
    "order": [(0, 1, 2.7), (0, 1, 2.0), ("0", 1, 2), (0, 0, 1), (0, 1), (0, 1, 2, 3),
              (1, 2, 3), (-1, 0, 1), 3],
}


@pytest.mark.parametrize("call, name, value", [
    pytest.param(call, name, value, id=f"{field}-{caller}-{str(value)[:12]}")
    for field, callers in _CALLERS.items()
    for caller, (call, name, _) in callers.items()
    for value in _BAD_VALUES[field]])
def test_each_bad_field_value_is_refused_by_name(call, name, value):
    with pytest.raises(ValidationError, match=re.escape(name)):
        call(value)


def test_table_callers_accept_their_good_value():
    for callers in _CALLERS.values():
        for call, _, good in callers.values():
            call(good)


def test_a_short_order_is_refused_before_a_list_of_p_integers_is_built():
    # 2**60 integers could not be allocated: the lengths are compared first.
    # (2**60, 2, 2 Hz, 2 Hz) passes the geometry check, so the order decides.
    with pytest.raises(ValidationError, match="stacking_order"):
        TransformConfig(48.0, 2**60, stacking_order=(0, 1))
    with pytest.raises(ValidationError, match="stacking_order"):
        _header(p=2**60, n_samples=2, source_rate_hz=2.0, target_rate_hz=2.0)


def test_checked_fields_are_stored_as_plain_numbers():
    cfg = TransformConfig(np.float32(48.0), np.int64(3), stacking_order=np.array([2, 0, 1]))
    assert type(cfg.target_rate_hz) is float and cfg.stacking_order == (2, 0, 1)
    assert all(type(i) is int for i in cfg.stacking_order)
    assert type(MultiChannelRecord(np.zeros((1, 2)), 8).sample_rate_hz) is float
    assert type(StackedSpectrum(np.ones(4), np.int64(8)).rate_hz) is float
