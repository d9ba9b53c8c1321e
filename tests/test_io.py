"""File format contracts: CSV, raw-f64, WAV, sidecars, matrices."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from bandstack import io as bio
from bandstack.cli import main
from bandstack.model import (
    MODE_PAPER_COMPLEX,
    FormatError,
    MultiChannelRecord,
    TransformConfig,
    ValidationError,
)
from bandstack.transform import decode, encode
from helpers import random_record, rel_max_err


def test_csv_roundtrip_with_names_and_rate_comment(tmp_path):
    path = tmp_path / "rec.csv"
    rec = MultiChannelRecord(np.array([[1.0, 2.5, -3.25], [0.0, 0.125, 7.0]]),
                             100.0, channel_names=("Fp1", "Cz"))
    bio.write_multichannel(rec, path)
    back = bio.read_multichannel(path)
    assert np.array_equal(back.channels, rec.channels)
    assert back.sample_rate_hz == 100.0
    assert back.channel_names == ("Fp1", "Cz")


def test_csv_rate_flag_and_missing_rate(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1,2,3\n4,5,6\n7,8,9\n0,0,0\n")
    rec = bio.read_multichannel(path, rate_hz=100.0)
    assert rec.p == 3 and rec.n_samples == 4
    with pytest.raises(FormatError, match="rate"):
        bio.read_multichannel(path)


def test_csv_full_precision_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    rec = MultiChannelRecord(rng.standard_normal((3, 17)), 123.456)
    path = tmp_path / "prec.csv"
    bio.write_multichannel(rec, path)
    back = bio.read_multichannel(path)
    assert np.array_equal(back.channels, rec.channels)  # repr round trip is exact
    assert back.sample_rate_hz == rec.sample_rate_hz


def test_csv_nonnumeric_cell_names_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(FormatError, match="line 2, column 2"):
        bio.read_multichannel(path, rate_hz=10.0)


def test_csv_ragged_columns_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(FormatError, match="column counts"):
        bio.read_multichannel(path, rate_hz=10.0)


def test_raw_record_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    rec = MultiChannelRecord(rng.standard_normal((30, 100)), 1000.0)
    path = tmp_path / "rec.f64"
    bio.write_multichannel(rec, path, format="raw-f64")
    back = bio.read_multichannel(path)
    assert np.array_equal(back.channels, rec.channels)
    assert back.sample_rate_hz == 1000.0


def test_raw_record_at_reference_dimensions(tmp_path):
    rng = np.random.default_rng(2)
    rec = MultiChannelRecord(rng.standard_normal((30, 10000)), 1000.0)
    path = tmp_path / "eeg.f64"
    bio.write_multichannel(rec, path, format="raw-f64")
    assert path.stat().st_size == 30 * 10000 * 8
    back = bio.read_multichannel(path)
    assert back.p == 30 and back.n_samples == 10000
    assert np.array_equal(back.channels, rec.channels)


def test_raw_record_dimension_mismatch(tmp_path):
    rec = MultiChannelRecord(np.zeros((2, 8)), 10.0)
    path = tmp_path / "rec.f64"
    bio.write_multichannel(rec, path, format="raw-f64")
    path.write_bytes(path.read_bytes()[:-8])  # drop one double
    with pytest.raises(FormatError, match="expected 2\\*8=16 doubles, found 15"):
        bio.read_multichannel(path)


GOLDEN_SAMPLES = [0.0, 0.5, -0.5, 0.25]


def _golden_wav_bytes():
    # byte-level construction, independent of the writer under test
    data = b"".join(struct.pack("<f", v) for v in GOLDEN_SAMPLES)
    body = b"WAVE"
    body += b"fmt " + struct.pack("<I", 16)
    body += struct.pack("<HHIIHH", 3, 1, 8000, 32000, 4, 32)
    body += b"fact" + struct.pack("<I", 4) + struct.pack("<I", 4)
    body += b"data" + struct.pack("<I", 16) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_wav_golden_bytes(tmp_path):
    path = tmp_path / "golden.wav"
    bio.write_wav_f32(path, np.array(GOLDEN_SAMPLES), 8000.0)
    assert path.read_bytes() == _golden_wav_bytes()


def test_wav_readable_by_scipy(tmp_path):
    wavfile = pytest.importorskip("scipy.io.wavfile")
    path = tmp_path / "x.wav"
    bio.write_wav_f32(path, np.array(GOLDEN_SAMPLES), 8000.0)
    rate, data = wavfile.read(path)
    assert rate == 8000
    assert data.dtype == np.float32
    assert np.array_equal(data.astype(np.float64), GOLDEN_SAMPLES)


def test_wav_roundtrip_exact_for_f32_values(tmp_path):
    path = tmp_path / "y.wav"
    bio.write_wav_f32(path, np.array(GOLDEN_SAMPLES), 16000.0)
    rate, back = bio.read_wav_f32(path)
    assert rate == 16000
    assert np.array_equal(back, GOLDEN_SAMPLES)


def test_wav_data_chunk_size_at_reference_length(tmp_path):
    # 160000 float32 samples -> a 640000-byte data chunk
    path = tmp_path / "wide.wav"
    bio.write_wav_f32(path, np.zeros(160000), 16000.0)
    blob = path.read_bytes()
    pos = blob.index(b"data")
    (size,) = struct.unpack_from("<I", blob, pos + 4)
    assert size == 640000
    rate, back = bio.read_wav_f32(path)
    assert rate == 16000 and back.shape == (160000,)


def test_wav_over_4_gib_rejected(tmp_path):
    # 2**30 samples need a 4 GiB data chunk; the view allocates nothing, and
    # the writer packs the header before it converts any sample
    path = tmp_path / "huge.wav"
    with pytest.raises(ValidationError, match="4 GiB"):
        bio.write_wav_f32(path, np.broadcast_to(np.float64(0.0), (2**30,)), 16000.0)
    assert not path.exists()


def test_wav_size_limit_boundary():
    # the RIFF size field holds 48 + 4n; 2**30 - 13 samples is the longest
    # that fits in 32 bits
    header = bio._wav_header(2**30 - 13, 16000)
    assert len(header) == 56
    assert struct.unpack_from("<I", header, 4) == (2**32 - 4,)
    assert struct.unpack_from("<I", header, 52) == (2**32 - 52,)
    with pytest.raises(ValidationError, match="4 GiB"):
        bio._wav_header(2**30 - 12, 16000)


def test_wav_rejects_non_float_format(tmp_path):
    blob = bytearray(_golden_wav_bytes())
    blob[20:22] = struct.pack("<H", 1)  # PCM tag
    path = tmp_path / "pcm.wav"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="IEEE float32"):
        bio.read_wav_f32(path)


def test_wav_short_fmt_chunk_rejected(tmp_path):
    _, sig = _encode_small()
    path = tmp_path / "wide.wav"
    bio.write_wideband(sig, path)
    blob = path.read_bytes()
    # the writer's fmt chunk sits at byte 12 with a 16-byte body; keep 8
    path.write_bytes(blob[:12] + b"fmt " + struct.pack("<I", 8) + blob[20:28] + blob[36:])
    with pytest.raises(FormatError, match="fmt chunk is 8 bytes"):
        bio.read_wav_f32(path)
    assert main(["decode", str(path), str(tmp_path / "back.csv")]) == 2


def _encode_small(mode="real-hermitian", seed=2):
    rng = np.random.default_rng(seed)
    rec = random_record(rng, 3, 40, 32.0)
    sig = encode(rec, TransformConfig(192.0, 3, mode=mode))
    return rec, sig


def test_wideband_raw_roundtrip_bitwise(tmp_path):
    _, sig = _encode_small()
    path = tmp_path / "wide.f64"
    bio.write_wideband(sig, path)
    back = bio.read_wideband(path)
    assert np.array_equal(back.samples, sig.samples)
    assert back.provenance == dataclasses.replace(sig.provenance, data_format="raw-f64")


def test_wideband_complex_two_planes(tmp_path):
    _, sig = _encode_small(mode=MODE_PAPER_COMPLEX)
    path = tmp_path / "wide.f64"
    bio.write_wideband(sig, path)
    raw = np.fromfile(path, dtype="<f8")
    assert raw.size == 2 * sig.n_out
    assert np.array_equal(raw[:sig.n_out], sig.samples.real)
    assert np.array_equal(raw[sig.n_out:], sig.samples.imag)
    back = bio.read_wideband(path)
    assert np.array_equal(back.samples, sig.samples)


def test_complex_mode_refuses_wav(tmp_path):
    _, sig = _encode_small(mode=MODE_PAPER_COMPLEX)
    with pytest.raises(ValidationError, match="not playable"):
        bio.write_wideband(sig, tmp_path / "no.wav", format="wav-f32")


def test_wav_wideband_quantization_bound(tmp_path):
    rec, sig = _encode_small()
    path = tmp_path / "wide.wav"
    bio.write_wideband(sig, path)
    back = bio.read_wideband(path)
    bound = 2.0 ** -23 * np.abs(sig.samples).max() * 2.0
    assert np.abs(back.samples - sig.samples).max() <= bound


def test_full_chain_through_files(tmp_path):
    rec, sig = _encode_small()
    raw_path = tmp_path / "c.f64"
    wav_path = tmp_path / "c.wav"
    bio.write_wideband(sig, raw_path)
    bio.write_wideband(sig, wav_path)
    exact = decode(bio.read_wideband(raw_path))
    lossy = decode(bio.read_wideband(wav_path))
    assert rel_max_err(exact.channels, rec.channels) < 1e-9
    assert rel_max_err(lossy.channels, rec.channels) < 1e-6  # f32 floor ~1e-7


def test_missing_sidecar_rejected(tmp_path):
    _, sig = _encode_small()
    path = tmp_path / "wide.f64"
    bio.write_wideband(sig, path)
    (tmp_path / "wide.f64.sidecar").unlink()
    with pytest.raises(FormatError, match="missing sidecar"):
        bio.read_wideband(path)


def test_unknown_sidecar_field_rejected(tmp_path):
    _, sig = _encode_small()
    path = tmp_path / "wide.f64"
    bio.write_wideband(sig, path)
    sc = tmp_path / "wide.f64.sidecar"
    text = sc.read_text().replace('"kind": "wideband"',
                                  '"kind": "wideband", "surprise": 1')
    sc.write_text(text)
    with pytest.raises(FormatError, match="surprise"):
        bio.read_wideband(path)


@pytest.mark.parametrize("kind, field, value", [
    ("wideband", "source_rate_hz", "x"),
    ("wideband", "source_rate_hz", 0),
    ("wideband", "target_rate_hz", float("inf")),
    ("wideband", "collision_count", -1),
    ("wideband", "scale", -1),
    ("wideband", "channel_names", 5),
    ("wideband", "channel_names", [1, 2, 3]),
    ("record", "source_rate_hz", "x"),
    ("record", "source_rate_hz", float("nan")),
    ("record", "n_samples", -8),
    ("record", "channel_names", 5),
    ("matrix", "rows", "x"),
    ("matrix", "cols", float("inf")),
    ("matrix", "rows", -1),
    ("matrix", "meta", ["feature"]),
])
def test_bad_sidecar_field_rejected(tmp_path, capsys, kind, field, value):
    path = tmp_path / "a.f64"
    if kind == "wideband":
        bio.write_wideband(_encode_small()[1], path)
        read, argv = bio.read_wideband, ["decode", str(path), str(tmp_path / "o.csv")]
    elif kind == "record":
        bio.write_multichannel(MultiChannelRecord(np.zeros((2, 8)), 10.0), path)
        read, argv = bio.read_multichannel, ["encode", str(path), str(tmp_path / "o.f64"),
                                             "--target-rate", "40"]
    else:
        bio.write_matrix(np.zeros((2, 3)), path)
        read, argv = bio.read_matrix, ["info", str(path)]
    sc = tmp_path / "a.f64.sidecar"
    payload = json.loads(sc.read_text())
    assert payload["kind"] == kind
    payload[field] = value
    sc.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match=field):
        read(path)
    assert main(argv) == 2
    assert field in capsys.readouterr().err


def test_future_version_rejected(tmp_path):
    _, sig = _encode_small()
    path = tmp_path / "wide.f64"
    bio.write_wideband(sig, path)
    sc = tmp_path / "wide.f64.sidecar"
    sc.write_text(sc.read_text().replace('"format_version": 1', '"format_version": 99'))
    with pytest.raises(FormatError, match="format_version 99"):
        bio.read_wideband(path)


def test_truncated_wideband_rejected(tmp_path):
    _, sig = _encode_small()
    path = tmp_path / "wide.f64"
    bio.write_wideband(sig, path)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(FormatError, match="doubles"):
        bio.read_wideband(path)


def test_sidecar_scale_survives_bit_exactly(tmp_path):
    rng = np.random.default_rng(6)
    rec = MultiChannelRecord(7.3e-5 * rng.standard_normal((2, 32)), 16.0)
    sig = encode(rec, TransformConfig(64.0, 2))
    path = tmp_path / "s.f64"
    bio.write_wideband(sig, path)
    back = bio.read_wideband(path)
    assert back.provenance.scale == sig.provenance.scale


@pytest.mark.parametrize("fmt", ["csv", "raw-f64"])
def test_matrix_roundtrip(tmp_path, fmt):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((9, 13))
    path = tmp_path / ("m.csv" if fmt == "csv" else "m.f64")
    bio.write_matrix(m, path, format=fmt, meta={"feature": "test"})
    back, meta = bio.read_matrix(path, format=fmt)
    assert np.array_equal(back, m)
    assert meta.get("feature") == "test"


def test_matrix_paper_shape_roundtrip(tmp_path):
    m = np.zeros((513, 621))
    path = tmp_path / "spec.f64"
    bio.write_matrix(m, path)
    back, _ = bio.read_matrix(path)
    assert back.shape == (513, 621)


def test_matrix_one_by_one(tmp_path):
    path = tmp_path / "tiny.csv"
    bio.write_matrix(np.array([[0.0]]), path)
    back, _ = bio.read_matrix(path)
    assert back.shape == (1, 1) and back[0, 0] == 0.0


@pytest.mark.parametrize("comment", ["# rows=two cols=2", "# rows=2"])
def test_matrix_bad_dimension_comment_rejected(tmp_path, comment):
    path = tmp_path / "m.csv"
    path.write_text(f"{comment}\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(FormatError, match="dimension comment"):
        bio.read_matrix(path)


def test_matrix_rejects_nan(tmp_path):
    with pytest.raises(ValidationError, match="non-finite"):
        bio.write_matrix(np.array([[np.nan]]), tmp_path / "bad.csv")


def test_wav_rate_sidecar_mismatch(tmp_path):
    _, sig = _encode_small()
    path = tmp_path / "wide.wav"
    bio.write_wideband(sig, path)
    sc = tmp_path / "wide.wav.sidecar"
    sc.write_text(sc.read_text().replace('"target_rate_hz": 192.0',
                                         '"target_rate_hz": 200.0'))
    with pytest.raises(FormatError, match="disagrees"):
        bio.read_wideband(path)
