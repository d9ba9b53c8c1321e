"""Domain-type invariants: nothing invalid can be constructed."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandstack import io as bio
from bandstack.features import stft_magnitude
from bandstack.mapping import apply_stacking, build_band_plan, stack_fast
from bandstack.model import (
    MODES,
    ChannelSpectrum,
    FormatError,
    MultiChannelRecord,
    StackedSpectrum,
    TransformConfig,
    ValidationError,
    WidebandSignal,
    check_array,
    check_geometry,
    destination_grid,
    output_length,
    source_frequencies,
    validate_record,
)
from bandstack.sidecar import WIDEBAND_FORMATS, SidecarHeader, read_sidecar
from bandstack.spectrum import dft, forward_fft, hermitian_extend, inverse_fft
from bandstack.synth import make_bandnoise, make_tones
from helpers import stack_oracle


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
    # a record whose array's owner was made writable and changed afterwards
    rec.channels.base.setflags(write=True)
    rec.channels.base[1, 3] = np.inf
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


@pytest.mark.parametrize("make", [lambda b: ChannelSpectrum(b, 4.0),
                                  lambda b: StackedSpectrum(b, 4.0)],
                         ids=["ChannelSpectrum", "StackedSpectrum"])
def test_spectrum_types_leave_the_callers_array_writable(make):
    bins = np.ones(4, dtype=np.complex128)
    spectrum = make(bins)
    assert bins.flags.writeable and not spectrum.bins.flags.writeable
    bins[0] = 2.0
    assert spectrum.bins[0] == 1.0


def test_bin_frequency_grid_is_inclusive():
    spec = ChannelSpectrum(np.fft.fft(np.zeros(5) + 1.0), 40.0)
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


@pytest.mark.parametrize("names, tail", [
    (None, ''),
    (("Fz", "C\u00e9"), ',\n  "channel_names": [\n    "Fz",\n    "C\\u00e9"\n  ]'),
])
def test_sidecar_header_json_is_pinned_and_round_trips(names, tail):
    header = SidecarHeader(p=2, n_samples=4, source_rate_hz=4.0, target_rate_hz=16.0,
                           mode="real-hermitian", stacking_order=(1, 0), scale=0.5,
                           collision_count=1, data_format="wav-f32", channel_names=names)
    text = header.to_json()
    assert text == (
        '{\n  "format_version": 1,\n  "kind": "wideband",\n  "p": 2,\n  "n_samples": 4,'
        '\n  "source_rate_hz": 4.0,\n  "target_rate_hz": 16.0,\n  "mode": "real-hermitian",'
        '\n  "stacking_order": [\n    2,\n    1\n  ],\n  "scale": 0.5,'
        '\n  "collision_count": 1,\n  "data_format": "wav-f32"' + tail + '\n}\n')
    assert SidecarHeader.from_payload(read_sidecar(text, "wideband")) == header


_GOOD_HEADER = dict(p=2, n_samples=4, source_rate_hz=4.0, target_rate_hz=16.0,
                    mode="real-hermitian", stacking_order=(1, 0), scale=0.5,
                    collision_count=1)


@st.composite
def _header_fields(draw):
    """SidecarHeader keyword arguments: good ones, with up to two fields bad."""
    p = draw(st.integers(1, 3))
    source = draw(st.sampled_from([1.0, 4.0, 250.0, 3]))
    fields = dict(
        p=p, n_samples=draw(st.integers(2, 40)), source_rate_hz=source,
        target_rate_hz=source * draw(st.floats(1.0, 64.0)), mode=draw(st.sampled_from(MODES)),
        stacking_order=draw(st.permutations(range(p))),
        scale=2.0 ** draw(st.integers(-1074, 1023)), collision_count=draw(st.integers(0, 10)),
        data_format=draw(st.sampled_from(WIDEBAND_FORMATS)),
        channel_names=draw(st.none() | st.lists(st.text(max_size=3), min_size=p, max_size=p)))
    bad = {
        "p": [0, True, float(p), str(p), np.int64(p)],
        "n_samples": [1, True, 4.0, np.int64(4)],
        "source_rate_hz": [0.0, -1.0, np.nan, "4", None],
        "target_rate_hz": [np.inf, 0, True, 1e-300],
        "mode": ["lossy", 0, None],
        "stacking_order": [[0] * p, "0", None, list(range(1, p + 1))],
        "scale": [1, 2**60, True, 3.0, -0.5, 0.0, np.nan, np.inf, "1", None, 2**1100],
        "collision_count": [-1, True, 1.0, None, np.int64(1)],
        "data_format": ["mp3", None, 1],
        "channel_names": ["abc"[:p], [1] * p, [None] * p, 7, ["a"] * (p + 1), ("a",) * p],
    }
    for name in draw(st.sets(st.sampled_from(sorted(bad)), max_size=2)):
        fields[name] = draw(st.sampled_from(bad[name]))
    return fields


@settings(derandomize=True, max_examples=400, deadline=None)
@given(fields=_header_fields())
@example(fields={**_GOOD_HEADER, "collision_count": -1})
@example(fields={**_GOOD_HEADER, "scale": True})
@example(fields={**_GOOD_HEADER, "data_format": "mp3"})
@example(fields={**_GOOD_HEADER, "channel_names": "ab"})
def test_every_header_that_builds_reads_back_from_its_json_unchanged(fields):
    try:
        header = SidecarHeader(**fields)
    except ValidationError:
        return
    assert SidecarHeader.from_payload(read_sidecar(header.to_json(), "wideband")) == header


@pytest.mark.parametrize("field, value", [("collision_count", -1), ("scale", True),
                                          ("data_format", "mp3"), ("collision_count", 1.0)])
def test_header_and_reader_refuse_a_bad_field_in_the_same_words(field, value):
    with pytest.raises(ValidationError) as in_memory:
        SidecarHeader(**{**_GOOD_HEADER, field: value})
    payload = json.loads(SidecarHeader(**_GOOD_HEADER).to_json())
    with pytest.raises(FormatError) as from_file:
        read_sidecar(json.dumps({**payload, field: value}))
    assert str(in_memory.value) == str(from_file.value)


@pytest.mark.parametrize("names", ["ab", ("a", 2), 7],
                         ids=["bare-string", "non-string-entry", "non-iterable"])
def test_record_refuses_names_that_are_not_p_strings(names):
    with pytest.raises(ValidationError, match="^channel_names must be None or 2 strings"):
        MultiChannelRecord(np.zeros((2, 4)), 4.0, channel_names=names)
    assert MultiChannelRecord(np.zeros((2, 4)), 4.0, ["a", "b"]).channel_names == ("a", "b")


def test_a_record_without_channels_is_refused():
    with pytest.raises(ValidationError, match=r"\(p, n\) channel array, got shape \(0, 4\)"):
        MultiChannelRecord(np.zeros((0, 4)), 4.0)


@pytest.mark.parametrize("call, words", [
    (lambda: dft([1.0]), "length >= 2"),
    (lambda: inverse_fft([1.0]), "length >= 2"),
    (lambda: hermitian_extend([1.0]), "length >= 2"),
    (lambda: StackedSpectrum([1.0], 4.0), ">= 2 bins"),
    (lambda: WidebandSignal([0.0], 48.0, _header()), ">= 2 samples"),
], ids=["dft", "inverse_fft", "hermitian_extend", "StackedSpectrum", "WidebandSignal"])
def test_vectors_shorter_than_two_are_refused(call, words):
    with pytest.raises(ValidationError, match=re.escape(words)):
        call()


def test_a_sidecar_that_is_a_json_array_is_refused():
    with pytest.raises(FormatError, match="must be a JSON object"):
        read_sidecar("[]")


def test_wideband_signal_checks_provenance_length():
    prov = SidecarHeader(p=1, n_samples=4, source_rate_hz=4.0, target_rate_hz=8.0,
                         mode="real-hermitian", stacking_order=(0,), scale=1.0,
                         collision_count=0)
    WidebandSignal(np.zeros(8), 8.0, prov)
    with pytest.raises(ValidationError, match="provenance says 8"):
        WidebandSignal(np.zeros(9), 8.0, prov)
    with pytest.raises(ValidationError, match="finite"):
        WidebandSignal(np.full(8, np.inf), 8.0, prov)


@pytest.mark.parametrize("provenance", [{"n_out": 8}, "x", None], ids=["dict", "str", "none"])
def test_wideband_signal_refuses_provenance_that_is_not_a_header(provenance):
    with pytest.raises(ValidationError,
                       match="^provenance must be a SidecarHeader, got (dict|str|NoneType)$"):
        WidebandSignal(np.zeros(8), 8.0, provenance)


def test_wideband_signal_rate_must_match_provenance():
    prov = SidecarHeader(p=1, n_samples=4, source_rate_hz=4.0, target_rate_hz=8.0,
                         mode="real-hermitian", stacking_order=(0,), scale=1.0,
                         collision_count=0)
    with pytest.raises(ValidationError, match="provenance says 8.0 Hz, got rate_hz=4.0"):
        WidebandSignal(np.zeros(8), 4.0, prov)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                 complex(1.0, -np.inf)])
def test_wideband_signal_and_spectrum_refuse_any_non_finite_part(bad):
    prov = _header(p=1, n_samples=4, source_rate_hz=4.0, target_rate_hz=8.0,
                   stacking_order=(0,), collision_count=0)
    values = np.zeros(8, dtype=type(bad))
    values[5] = bad
    with pytest.raises(ValidationError, match="^non-finite wideband sample$"):
        WidebandSignal(values, 8.0, prov)
    with pytest.raises(ValidationError, match="^non-finite spectrum bin$"):
        ChannelSpectrum(values, 4.0)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_wideband_signal_checks_finiteness_without_a_mask(dtype):
    n = 100_000
    prov = _header(p=1, n_samples=n // 2, source_rate_hz=4.0, target_rate_hz=8.0,
                   stacking_order=(0,), collision_count=0)
    samples = np.ones(n, dtype=dtype)
    tracemalloc.start()
    try:
        WidebandSignal(samples, 8.0, prov)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # its own copy, and no n-element finiteness mask beside it
    assert peak < samples.nbytes * 1.01


# Every constructor and function that takes a rate, a count, a mode or a band
# order, and the tests' scan oracle, which must refuse what stack_fast refuses,
# with the rest of a good configuration (p=3, n=8, f_s=8 Hz, F_s=48 Hz):
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
        "output_length-source": (lambda v: output_length(8, v, 48.0), "source_rate_hz", 8.0),
        "output_length-target": (lambda v: output_length(8, 8.0, v), "target_rate_hz", 48.0),
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
        "output_length": (lambda v: output_length(v, 8.0, 48.0), "n_samples=", 8),
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


def test_check_geometry_returns_the_output_length():
    assert check_geometry(30, 10000, 1000.0, 16000.0) == 160000


# Each entry point used to answer these (or raise outside ValidationError).
@pytest.mark.parametrize("call", [
    pytest.param(lambda: output_length(2, 1e-300, 1e300), id="output_length-infinite"),
    pytest.param(lambda: destination_grid(2.5, 8.0), id="destination_grid-fractional"),
    pytest.param(lambda: source_frequencies(2.5, 1.0), id="source_frequencies-fractional"),
    pytest.param(lambda: stack_fast(2, 8, 8.0, 48.0, 1.5), id="stack_fast-fractional-band"),
])
def test_geometry_entry_points_refuse_with_validation_error(call):
    with pytest.raises(ValidationError):
        call()


# Every public entry point that takes numbers, as (call with v, the argument's
# name, v's ndim, whether it takes complex values); ``d`` is a scratch folder.
_ARRAY_ENTRY_POINTS = {
    "MultiChannelRecord": (lambda v, d: MultiChannelRecord(v, 8.0), "channels", 2, False),
    "WidebandSignal": (lambda v, d: WidebandSignal(v, 48.0, _header()), "samples", 1, True),
    "ChannelSpectrum": (lambda v, d: ChannelSpectrum(v, 8.0), "bins", 1, True),
    "StackedSpectrum": (lambda v, d: StackedSpectrum(v, 8.0), "bins", 1, True),
    "stft_magnitude": (lambda v, d: stft_magnitude(v, 2, 0), "samples", 1, False),
    "write_wav_f32": (lambda v, d: bio.write_wav_f32(d / "x.wav", v, 8.0), "samples", 1, False),
    "write_matrix": (lambda v, d: bio.write_matrix(v, d / "m.csv"), "matrix", 2, False),
    "dft": (lambda v, d: dft(v), "x", 1, True),
    "forward_fft": (lambda v, d: forward_fft(v), "channel", 1, False),
    "inverse_fft": (lambda v, d: inverse_fft(v), "bins", 1, True),
    "hermitian_extend": (lambda v, d: hermitian_extend(v), "lower", 1, True),
    "apply_stacking": (
        lambda v, d: apply_stacking(v, build_band_plan(2, 2, 4.0, TransformConfig(16.0, 2))),
        "spectrum bins", 2, True),
}

# bad input -> its row for a 1-D entry point (2-D ones get two such rows)
_BAD_ROWS = {
    "complex": [1.0, 2j],
    "strings": ["1", "2"],
    "None": [1.0, None],
}


def _bad_inputs():
    for entry, (_, name, ndim, takes_complex) in _ARRAY_ENTRY_POINTS.items():
        for case, row in _BAD_ROWS.items():
            if not (case == "complex" and takes_complex):
                yield pytest.param(entry, row if ndim == 1 else [row, row], name,
                                   id=f"{entry}-{case}")
        yield pytest.param(entry, [[1.0, 2.0], [3.0]], name, id=f"{entry}-ragged")
        wrong = [[1.0, 2.0], [3.0, 4.0]] if ndim == 1 else [1.0, 2.0]
        yield pytest.param(entry, wrong, name, id=f"{entry}-wrong-ndim")


@pytest.mark.parametrize("entry, values, name", _bad_inputs())
def test_array_entry_points_refuse_what_is_not_their_array_of_numbers(
        entry, values, name, tmp_path):
    call = _ARRAY_ENTRY_POINTS[entry][0]
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} must "):
        call(values, tmp_path)
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} must "):
        call(np.array(values, dtype=object), tmp_path)
    assert not any(tmp_path.iterdir())  # a refused writer writes nothing


def test_check_array_converts_numbers_and_copies_only_to_convert():
    a = np.arange(6.0).reshape(2, 3).T
    assert check_array("a", a, 2) is a
    assert check_array("a", [[True, 2], [3, 4.5]], 2).dtype == np.float64
    assert check_array("a", np.ones(3, np.float32), 1, np.complex128).dtype == np.complex128
    assert check_array("a", [1, 2j], 1, None).dtype == np.complex128
    assert check_array("a", np.arange(3), 1, None).dtype == np.float64


@pytest.mark.parametrize("make", [
    lambda: MultiChannelRecord(np.zeros((2, 4)), 4.0).channels,
    lambda: MultiChannelRecord(np.zeros((4, 2)).T, 4.0).channels,
    lambda: MultiChannelRecord([[1, 2], [3, 4]], 4.0).channels,
    lambda: WidebandSignal(np.zeros(48), 48.0, _header()).samples,
    lambda: WidebandSignal(np.zeros(48, dtype=complex), 48.0, _header()).samples,
    lambda: ChannelSpectrum(np.zeros(4), 4.0).bins,
    lambda: StackedSpectrum(np.zeros(4, dtype=complex), 4.0).bins,
], ids=["record", "record-transposed", "record-list", "signal", "signal-complex",
        "ChannelSpectrum", "StackedSpectrum"])
def test_constructor_arrays_cannot_be_unlocked(make):
    array = make()
    assert array.flags.c_contiguous
    with pytest.raises(ValueError):
        array.setflags(write=True)


def test_a_transposed_record_is_copied_once():
    a = np.random.default_rng(5).standard_normal((100_000, 4))
    tracemalloc.start()
    try:
        rec = MultiChannelRecord(a.T, 8.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(rec.channels, a.T)
    assert peak <= 1.1 * a.nbytes
