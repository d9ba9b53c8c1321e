"""File format contracts: CSV, raw-f64, WAV, sidecars, matrices."""

import csv
import dataclasses
import json
import os
import struct
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from bandstack import io as bio
from bandstack.cli import main
from bandstack.features import spectrogram
from bandstack.mapping import build_band_plan
from bandstack.model import (
    MODE_PAPER_COMPLEX,
    FormatError,
    MultiChannelRecord,
    TransformConfig,
    ValidationError,
    WidebandSignal,
)
from bandstack.transform import decode, encode, roundtrip_report
from helpers import (
    csv_rows_literal,
    random_record,
    read_csv_record_literal,
    read_outcome,
    rel_max_err,
    write_csv_record_literal,
)


def test_csv_roundtrip_with_names_and_rate_comment(tmp_path):
    path = tmp_path / "rec.csv"
    rec = MultiChannelRecord(np.array([[1.0, 2.5, -3.25], [0.0, 0.125, 7.0]]),
                             100.0, channel_names=("Fp1", "Cz"))
    bio.write_multichannel(rec, path)
    back = bio.read_multichannel(path)
    assert np.array_equal(back.channels, rec.channels)
    assert back.sample_rate_hz == 100.0
    assert back.channel_names == ("Fp1", "Cz")


@pytest.mark.parametrize("names", [
    ("1", "2"),  # all numbers: a bare row would read as data
    ("a,b", "c"),
    (" x", '"q"'),
    ("#a", "b\nc"),
    ("",),
])
def test_csv_channel_names_round_trip(tmp_path, names):
    path = tmp_path / "rec.csv"
    rec = MultiChannelRecord(np.arange(3.0 * len(names)).reshape(len(names), 3), 10.0,
                             channel_names=names)
    bio.write_multichannel(rec, path)
    back = bio.read_multichannel(path)
    assert back.channel_names == names
    assert np.array_equal(back.channels, rec.channels)


def test_csv_plain_channel_names_keep_a_bare_header_row(tmp_path):
    # names the header row already gives back are written as before
    path = tmp_path / "rec.csv"
    names = ("Fp1", "a#b", 'c"d', "")
    bio.write_multichannel(MultiChannelRecord(np.zeros((4, 2)), 10.0, channel_names=names),
                           path)
    assert path.read_text().splitlines()[1] == 'Fp1,a#b,c"d,'
    assert bio.read_multichannel(path).channel_names == names


@pytest.mark.parametrize("text, message", [
    ('# channel_names=["a", 1]\n1,2\n', "bad channel_names comment on line 1"),
    ("# channel_names=[\n1,2\n", "bad channel_names comment on line 1"),
    ('# channel_names=["a", "b"]\nx,y\n1,2\n', "both"),
])
def test_csv_channel_names_comment_rejects(tmp_path, text, message):
    path = tmp_path / "rec.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=message):
        bio.read_multichannel(path, rate_hz=10.0)


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


BLOCK = bio._BLOCK_ROWS


def _numbered_rows(n_rows, p=3):
    return [",".join(f"{r}.{c}" for c in range(p)) for r in range(n_rows)]


def test_csv_block_reader_matches_literal(tmp_path):
    # Every reading rule at once, over more than two blocks: a names header,
    # comments (a second rate comment wins) and blank lines between data
    # rows, quoted cells, whitespace around cells, odd spellings, CRLF.
    rng = np.random.default_rng(5)
    values = rng.standard_normal((2 * BLOCK + 300, 3)) * 10.0 ** rng.integers(-300, 300, (1, 3))
    spellings = [repr, lambda v: f'"{v!r}"  ', lambda v: f"  {v!r}\t", lambda v: f"{v:.17e}"]
    lines = ["# rate_hz=100.0", ' Fp1 ,"C,z",  O2 ']
    for r, row in enumerate(values.tolist()):
        lines.append(",".join(spellings[(r + c) % 4](v) for c, v in enumerate(row)))
        if r % 97 == 0:
            lines += ["", "# a note", "   "]
        if r == BLOCK + 5:
            lines.append("# rate_hz=250.0")
    lines += ["1_0,.5,-0.0", "1e-400,5e-324,-1e300", "\u0661\u0662,+.5e+3,\u00a02"]
    path = tmp_path / "rec.csv"
    path.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n")
    want = read_outcome(lambda: read_csv_record_literal(path))
    assert len(want[0]) == 8 * 3 * (2 * BLOCK + 303)  # every data row, as float64
    assert want[1:] == (250.0, ("Fp1", "C,z", "O2"))
    assert read_outcome(lambda: bio.read_multichannel(path)) == want


@pytest.mark.parametrize("quoted, parses", [
    ({10: '"1.5",2,"3', BLOCK + 20: '4,5,"6'}, True),
    # across lines, '1,2,"3' + '"' would read as one good row '1,2,"3\n"'
    ({10: '1,2,"3', 11: '"'}, False),
])
def test_csv_quote_running_across_lines_matches_literal(tmp_path, quoted, parses):
    # the reference parses each line alone, so an unclosed quote ends at
    # its line; one csv.reader over a block would run it into the next
    lines = _numbered_rows(BLOCK + 50)
    for r, line in quoted.items():
        lines[r] = line
    path = tmp_path / "q.csv"
    path.write_text("\n".join(lines) + "\n")
    want = read_outcome(lambda: read_csv_record_literal(path, 10.0))
    assert isinstance(want[0], bytes) == parses
    assert read_outcome(lambda: bio.read_multichannel(path, rate_hz=10.0)) == want


def _bad_cell_in_second_block(lines):
    lines[BLOCK + 10] = "1,oops,3"


def _ragged_across_boundary(lines):
    for r in range(BLOCK, len(lines)):
        lines[r] = lines[r].rsplit(",", 1)[0]


def _ragged_at_boundary(lines):
    lines[BLOCK] = "1,2"


def _bad_cell_before_ragged(lines):
    lines[7] = "1,2,x y"
    lines[BLOCK + 3] = "1,2,3,4"


def _ragged_before_bad_cell(lines):
    lines[7] = "1,2"
    lines[BLOCK + 3] = "1,,3"


def _bad_rate_after_bad_cell(lines):
    lines[20] = "1,2,?"
    lines[30] = "# rate_hz=fast"


def _bad_rate_before_bad_cell(lines):
    lines[20] = "# rate_hz=fast"
    lines[30] = "1,2,?"


def _bad_rate_after_ragged(lines):
    lines[20] = "1,2"
    lines[BLOCK + 30] = "# rate_hz=fast"


def _header_only(lines):
    del lines[1:]
    lines[0] = "a,b,c"


@pytest.mark.parametrize("damage", [
    _bad_cell_in_second_block, _ragged_across_boundary, _ragged_at_boundary,
    _bad_cell_before_ragged, _ragged_before_bad_cell, _bad_rate_after_bad_cell,
    _bad_rate_before_bad_cell, _bad_rate_after_ragged, _header_only,
])
def test_csv_block_reader_errors_match_literal(tmp_path, damage):
    lines = _numbered_rows(2 * BLOCK + 40)
    damage(lines)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    want = read_outcome(lambda: read_csv_record_literal(path, 10.0))
    assert want[0] is FormatError
    assert read_outcome(lambda: bio.read_multichannel(path, rate_hz=10.0)) == want


def test_csv_block_writer_bytes_match_literal(tmp_path):
    rng = np.random.default_rng(6)
    channels = rng.standard_normal((4, 2 * BLOCK + 77))
    channels[:, :5] = [[-0.0], [5e-324], [1.7976931348623157e308], [0.1]]
    for names in (None, ("a", "b", "c", "d")):
        rec = MultiChannelRecord(channels, 1000.0 / 3.0, channel_names=names)
        bio.write_multichannel(rec, tmp_path / "new.csv")
        write_csv_record_literal(rec, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_csv_non_utf8_record_is_a_format_error(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"# rate_hz=10\n1,2\n3,\xff\n")
    with pytest.raises(FormatError, match="not UTF-8"):
        bio.read_multichannel(path)


def test_csv_unreadable_cell_is_a_format_error(tmp_path):
    # a cell past the csv module's field size limit used to escape as csv.Error
    path = tmp_path / "huge.csv"
    path.write_text("1,2\n3," + "4" * 200_000 + "\n")
    with pytest.raises(FormatError, match="unreadable CSV at line 2"):
        bio.read_multichannel(path, rate_hz=10.0)


def test_csv_lone_surrogate_names_round_trip(tmp_path):
    # UTF-8 cannot encode a lone surrogate, so the name goes to the JSON
    # comment, which escapes it as ASCII
    path = tmp_path / "rec.csv"
    names = ("\ud800", "b")
    rec = MultiChannelRecord(np.arange(6.0).reshape(2, 3), 10.0, channel_names=names)
    bio.write_multichannel(rec, path)
    assert path.read_text(encoding="utf-8").splitlines()[1] == \
        '# channel_names=["\\ud800", "b"]'
    back = bio.read_multichannel(path)
    assert back.channel_names == names
    assert np.array_equal(back.channels, rec.channels)


# Files with rows that numpy's C reader refuses (and so are read as before)
# or reads only as ``float`` does; a plain first row keeps them from being
# read as a header.
FAST_PATH_EDGES = {
    "underscore": "0,0\n1_0,2\n",
    "arabic_digit": "0,0\n\u0661,2\n",
    "quoted": '0,0\n"1.5",2\n',
    "trailing_comma": "0,0\n1,2,\n",
    "empty_cell": "0,0,0\n1,,2\n",
    "hash_in_row": "0,0\n1,#2\n",
    "hash_after_cell": "0,0\n3,4#5\n",
    "nul": "0,0\n1,\x002\n",
    "ragged": "0,0\n1\n5,6\n",
    "cr": "0,0\r1,2\r3,4\r",
    "crlf": "0,0\r\n1,2\r\n3,4\r\n",
    "padding": "0,0\n 1 ,\xa02\xa0\n\t3,\u20284 \n",
    "negative_zero": "0,0\n-0.0,0.0\n0.0,-0.0\n",
    "single_column": "1\n-0.0\n2.5\n",
}


@pytest.mark.parametrize("block", [1, BLOCK])
@pytest.mark.parametrize("case", sorted(FAST_PATH_EDGES))
def test_csv_fast_path_edges_read_like_the_literal_reader(tmp_path, case, block, monkeypatch):
    path = tmp_path / "edge.csv"
    path.write_bytes(FAST_PATH_EDGES[case].encode("utf-8"))
    want = read_outcome(lambda: read_csv_record_literal(path, 10.0))
    monkeypatch.setattr(bio, "_BLOCK_ROWS", block)
    assert read_outcome(lambda: bio.read_multichannel(path, rate_hz=10.0)) == want


def _matrix_outcome(path):
    try:
        m, meta = bio.read_matrix(path)
    except Exception as exc:  # the outcome under comparison, errors included
        return type(exc), str(exc)
    return m.tobytes(), m.shape, meta


@pytest.mark.parametrize("case", sorted(FAST_PATH_EDGES))
def test_matrix_fast_path_edges_read_like_the_cell_reader(tmp_path, case):
    # the reader with numpy's C reader refusing every block is the one
    # that read matrices before it
    path = tmp_path / "edge.csv"
    path.write_bytes(("# feature=x\n" + FAST_PATH_EDGES[case]).encode("utf-8"))
    with mock.patch.object(bio.np, "loadtxt", side_effect=ValueError):
        want = _matrix_outcome(path)
    assert _matrix_outcome(path) == want


def test_csv_numeric_blocks_skip_the_cell_splitter(tmp_path):
    # only the header check splits a line; every block of plain numbers,
    # whitespace and all, goes through numpy's C reader
    rng = np.random.default_rng(7)
    rec = MultiChannelRecord(rng.standard_normal((3, 2 * BLOCK + 9)), 10.0)
    path = tmp_path / "plain.csv"
    bio.write_multichannel(rec, path)
    path.write_text(path.read_text().replace(",", " ,\t"))
    with mock.patch.object(bio._csv, "reader", wraps=csv.reader) as reader:
        back = bio.read_multichannel(path)
    assert reader.call_count == 1
    assert back.channels.tobytes() == rec.channels.tobytes()


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


@pytest.mark.parametrize("names", [["a"], [], ["a", "b", "c"]])
def test_raw_record_sidecar_with_the_wrong_number_of_names_is_refused(tmp_path, names):
    path = tmp_path / "rec.f64"
    bio.write_multichannel(MultiChannelRecord(np.zeros((2, 4)), 10.0), path, format="raw-f64")
    sidecar = json.loads((tmp_path / "rec.f64.sidecar").read_text())
    (tmp_path / "rec.f64.sidecar").write_text(json.dumps({**sidecar, "channel_names": names}))
    with pytest.raises(FormatError) as refused:
        bio.read_multichannel(path)
    assert str(refused.value) == (f"{bio.sidecar_path(path)}: {len(names)} channel_names "
                                  f"for p=2 channels")


def test_raw_record_padded_far_past_its_sidecar_is_refused_unread(tmp_path):
    rec = MultiChannelRecord(np.zeros((2, 32)), 10.0)
    path = tmp_path / "rec.f64"
    bio.write_multichannel(rec, path, format="raw-f64")
    with open(path, "ab") as fh:
        fh.write(bytes(40 * 2**20))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="expected 2\\*32=64 doubles, found 5242944$"):
            bio.read_multichannel(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_raw_record_read_holds_one_copy_of_the_channels(tmp_path):
    # the record adopts the array the file is read into instead of copying it
    rec = MultiChannelRecord(np.random.default_rng(4).standard_normal((8, 15000)), 250.0)
    path = tmp_path / "rec.f64"
    bio.write_multichannel(rec, path, format="raw-f64")
    tracemalloc.start()
    try:
        back = bio.read_multichannel(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.channels, rec.channels)
    assert peak <= 1.1 * rec.channels.nbytes


def test_raw_record_with_stray_bytes_rejected(tmp_path):
    rec = MultiChannelRecord(np.zeros((2, 8)), 10.0)
    path = tmp_path / "rec.f64"
    bio.write_multichannel(rec, path, format="raw-f64")
    with open(path, "ab") as fh:
        fh.write(b"abc")
    with pytest.raises(FormatError, match="expected 2\\*8=16 doubles, found 16 and 3 stray"):
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


def test_wav_read_holds_the_file_once(tmp_path):
    # the file's bytes (4 per sample) and the float64 result (8 per sample);
    # a copy of the data chunk would add 4 more
    n = 1_000_000
    path = tmp_path / "long.wav"
    bio.write_wav_f32(path, np.random.default_rng(3).standard_normal(n), 8000.0)
    tracemalloc.start()
    try:
        rate, back = bio.read_wav_f32(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rate == 8000 and back.shape == (n,)
    assert peak < 13 * n


def test_wav_over_4_gib_rejected(tmp_path):
    # 2**30 samples need a 4 GiB data chunk; the view allocates nothing, and
    # the writer packs the header before it converts any sample
    path = tmp_path / "huge.wav"
    with pytest.raises(ValidationError, match="4 GiB"):
        bio.write_wav_f32(path, np.broadcast_to(np.float64(0.0), (2**30,)), 16000.0)
    assert not path.exists()


@pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -8000.0])
def test_wav_writer_refuses_a_bad_rate_before_rounding(tmp_path, rate):
    path = tmp_path / "bad.wav"
    with pytest.raises(ValidationError, match="rate_hz must be positive and finite"):
        bio.write_wav_f32(path, np.zeros(4), rate)
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


@pytest.mark.parametrize("edit, message", [
    # the fmt chunk's channel count sits at byte 22
    pytest.param(lambda blob: blob[:22] + struct.pack("<H", 2) + blob[24:],
                 "need mono, got 2 channels", id="stereo"),
    # the data chunk starts at byte 48, after the fmt and fact chunks
    pytest.param(lambda blob: blob[:48], "missing fmt or data chunk", id="no-data"),
])
def test_malformed_wav_under_a_valid_sidecar_exits_2(tmp_path, capsys, edit, message):
    _, sig = _encode_small()
    path = tmp_path / "wide.wav"
    bio.write_wideband(sig, path)
    path.write_bytes(edit(path.read_bytes()))
    assert main(["decode", str(path), str(tmp_path / "back.csv")]) == 2
    assert message in capsys.readouterr().err


def test_csv_matrix_dimension_comment_must_match_its_data(tmp_path):
    path = tmp_path / "m.csv"
    bio.write_matrix(np.ones((2, 3)), path)
    path.write_text(path.read_text().replace("# rows=2 cols=3", "# rows=3 cols=3"))
    with pytest.raises(FormatError, match=r"header says \(3, 3\), data is \(2, 3\)"):
        bio.read_matrix(path)


def test_sidecar_number_beyond_the_float_range_exits_2(tmp_path, capsys):
    _, sig = _encode_small()
    path = tmp_path / "wide.f64"
    bio.write_wideband(sig, path)
    sidecar = tmp_path / "wide.f64.sidecar"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "scale": 10**400}))
    assert main(["info", str(path)]) == 2
    assert "field 'scale' must be a finite number" in capsys.readouterr().err


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
    samples = sig.samples.copy()
    samples[:2] = complex(-0.0, 0.5), complex(0.25, -0.0)
    sig = WidebandSignal(samples, sig.rate_hz, sig.provenance)
    path = tmp_path / "wide.f64"
    bio.write_wideband(sig, path)
    raw = np.fromfile(path, dtype="<f8")
    assert raw.size == 2 * sig.n_out
    assert np.array_equal(raw[:sig.n_out], sig.samples.real)
    assert np.array_equal(raw[sig.n_out:], sig.samples.imag)
    back = bio.read_wideband(path)
    assert np.array_equal(back.samples, sig.samples)
    # array_equal takes -0.0 for 0.0; the bytes tell them apart
    assert back.samples.tobytes() == sig.samples.tobytes()


def test_paper_complex_header_is_refused_in_wav(tmp_path, capsys):
    _, sig = _encode_small()
    forged = WidebandSignal(sig.samples, sig.rate_hz,
                            dataclasses.replace(sig.provenance, mode=MODE_PAPER_COMPLEX))
    with pytest.raises(ValidationError, match="paper-complex signals cannot live in WAV"):
        bio.write_wideband(forged, tmp_path / "no.wav")
    assert not list(tmp_path.glob("no.wav*"))
    path = tmp_path / "wide.wav"
    bio.write_wideband(sig, path)
    sidecar = tmp_path / "wide.wav.sidecar"
    sidecar.write_text(sidecar.read_text().replace('"real-hermitian"', '"paper-complex"'))
    for argv in (["info", str(path)], ["decode", str(path), str(tmp_path / "back.csv")]):
        assert main(argv) == 2
        assert "paper-complex signals cannot live in WAV" in capsys.readouterr().err


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


def test_sidecar_with_a_huge_channel_count_is_rejected_cheaply(tmp_path):
    # a tampered p must not cost memory in proportion to p before it is refused
    path = tmp_path / "wide.f64"
    bio.write_wideband(_encode_small()[1], path)
    sc = tmp_path / "wide.f64.sidecar"
    sc.write_text(sc.read_text().replace('"p": 3', '"p": 1000000'))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="stacking_order"):
            bio.read_wideband(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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
    # 513 x 621 (the paper's spectrogram shape) spans more than one CSV block
    rng = np.random.default_rng(3)
    m = rng.standard_normal((513, 621))
    path = tmp_path / ("m.csv" if fmt == "csv" else "m.f64")
    bio.write_matrix(m, path, format=fmt, meta={"feature": "test"})
    back, meta = bio.read_matrix(path, format=fmt)
    assert np.array_equal(back, m)
    assert meta.get("feature") == "test"
    if fmt == "csv":
        header = "# rows=513 cols=621\n# feature=test\n"
        assert path.read_text() == header + csv_rows_literal(m)


@pytest.mark.parametrize("meta", [
    {"note": "a\nb"},
    {"note": "a\rb"},
    {"rows=1 cols": "3"},
    {"rows": "3"},
    {"k=x": "v"},
    {" k ": "v"},
    {"k": "v "},
    {"k": "\tv"},
    {"k": "\udcff"},
])
def test_matrix_meta_csv_cannot_give_back_is_refused(tmp_path, meta):
    m = np.ones((1, 3))
    path = tmp_path / "m.csv"
    with pytest.raises(ValidationError, match="meta entry"):
        bio.write_matrix(m, path, meta=meta)
    assert not path.exists()
    # raw-f64 keeps its meta in the JSON sidecar, which takes any string
    bio.write_matrix(m, tmp_path / "m.f64", meta=meta)
    assert bio.read_matrix(tmp_path / "m.f64")[1] == meta


def test_matrix_meta_csv_gives_back_what_it_accepts(tmp_path):
    meta = {"k": "x=y", "#a": "b\tc", "": "", "rowsx": "é", "window": 8}
    path = tmp_path / "m.csv"
    bio.write_matrix(np.ones((1, 3)), path, meta=meta)
    assert bio.read_matrix(path)[1] == {k: str(v) for k, v in meta.items()}


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


@pytest.mark.parametrize("text, message", [
    ("1,2\n3\n", "ragged or empty matrix"),  # once a bare numpy ValueError
    ("# rows=1 cols=1\n", "ragged or empty matrix"),
    ("1,2\n3,x\n", "bad matrix row at line 2"),
    ("1,2\n3,x\n# rows=z\n", "bad matrix row at line 2"),
])
def test_matrix_csv_rejects(tmp_path, text, message):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=message):
        bio.read_matrix(path)


def test_matrix_non_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"# rows=1 cols=2\n1.0,\xfe\n")
    with pytest.raises(FormatError, match="not UTF-8"):
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


def test_csv_record_read_copies_the_channels_once(tmp_path):
    # the parsed (n, p) table and the record's C-order copy of its transpose;
    # a second copy of the channels would reach 3x
    rec = random_record(np.random.default_rng(12), 8, 15000, 250.0)
    path = tmp_path / "rec.csv"
    bio.write_multichannel(rec, path)
    tracemalloc.start()
    try:
        back = bio.read_multichannel(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.channels, rec.channels)
    assert peak <= 2.5 * rec.channels.nbytes


@pytest.mark.parametrize("name", ["wide.wav", "wide.f64"])
def test_wideband_read_adopts_the_array_it_builds(tmp_path, name):
    # WAV: the file's bytes (4 per sample) and the float64 samples (8 per
    # sample); raw-f64: the samples alone. A copy would add 8 per sample.
    sig = encode(random_record(np.random.default_rng(13), 8, 15000, 250.0),
                 TransformConfig(4000.0, 8))
    assert sig.n_out == 240_000
    path = tmp_path / name
    bio.write_wideband(sig, path)
    tracemalloc.start()
    try:
        back = bio.read_wideband(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.n_out == sig.n_out and not back.samples.flags.writeable
    assert peak <= 1.6 * 8 * sig.n_out


_RECORD = MultiChannelRecord(np.zeros((2, 4)), 4.0)
_CONFIG = TransformConfig(16.0, 2)


@pytest.mark.parametrize("call, name", [
    (lambda path: bio.write_multichannel(np.zeros((2, 4)), path), "record"),
    (lambda path: bio.write_multichannel(_RECORD.channels, path, format="raw-f64"), "record"),
    (lambda path: bio.write_wideband(np.zeros(16), path), "signal"),
    (lambda path: encode(np.zeros((2, 4)), _CONFIG), "record"),
    (lambda path: encode(_RECORD, {"target_rate_hz": 16.0}), "config"),
    (lambda path: decode(np.zeros(16)), "signal"),
    (lambda path: spectrogram(np.zeros(16), 4, 2), "signal"),
    (lambda path: roundtrip_report(np.zeros((2, 4)), _CONFIG), "record"),
    (lambda path: roundtrip_report(_RECORD, None), "config"),
    (lambda path: build_band_plan(2, 4, 4.0, (16.0, 2)), "config"),
], ids=["write_multichannel-csv", "write_multichannel-raw", "write_wideband", "encode-record",
        "encode-config", "decode", "spectrogram", "roundtrip_report-record",
        "roundtrip_report-config", "build_band_plan"])
def test_a_container_or_config_of_the_wrong_type_is_refused_by_name(tmp_path, call, name):
    path = tmp_path / "keep.csv"
    path.write_text("keep\n")
    with pytest.raises(ValidationError, match=f"^{name} must be a [A-Z]"):
        call(path)
    assert path.read_text() == "keep\n"  # nothing is opened before the check
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_raw_records_are_read_from_a_fifo(tmp_path):
    rec = random_record(np.random.default_rng(3), 2, 6, 8.0)
    bio.write_multichannel(rec, tmp_path / "rec.f64", format="raw-f64")
    fifo = tmp_path / "fifo.f64"
    os.mkfifo(fifo)
    os.replace(tmp_path / "rec.f64.sidecar", bio.sidecar_path(fifo))
    data = (tmp_path / "rec.f64").read_bytes()
    for blob in (data, data[:-3]):
        writer = threading.Thread(target=fifo.write_bytes, args=(blob,), daemon=True)
        writer.start()
        try:
            if blob is data:
                back = bio.read_multichannel(fifo, format="raw-f64")
                assert np.array_equal(back.channels, rec.channels)
            else:
                with pytest.raises(FormatError, match="expected 2\\*6=12 doubles, found 11 "
                                                      "and 5 stray bytes"):
                    bio.read_multichannel(fifo, format="raw-f64")
        finally:
            # a reader that failed before opening the FIFO would leave the writer blocked
            fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
            writer.join(10)
            os.close(fd)
        assert not writer.is_alive()
