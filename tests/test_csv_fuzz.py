"""Fuzzed CSV records: the block reader and writer against their cell-by-cell
references, and the CLI's exit codes on malformed files."""

import contextlib
import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bandstack import io as bio
from bandstack.cli import main
from bandstack.model import BandstackError, FormatError, MultiChannelRecord
from helpers import read_csv_record_literal, read_outcome, write_csv_record_literal

# Block sizes of 1-3 rows put block boundaries inside every small file.
BLOCK_SIZES = st.sampled_from([1, 2, 3, bio._BLOCK_ROWS])

CELLS = st.one_of(
    st.sampled_from(["0", "1.5", "-0.0", " 2.5 ", '"3"', '"4', '5"', '"', '""', "nan",
                     "inf", "-inf", "1e400", "1_0", "١", "x", "", "\x00", "1\x00",
                     "Fp1"]),
    st.text(max_size=4),
)
LINES = st.one_of(
    st.lists(CELLS, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", "   ", "# note", "# rate_hz=250", "# rate_hz=x", "#rate_hz=1e3"]),
)


@st.composite
def csv_files(draw):
    """Bytes of a CSV record file: rows of odd cells, comments and blank
    lines, maybe truncated, maybe with a byte that is not UTF-8."""
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    blob = eol.join(draw(st.lists(LINES, max_size=10))).encode("utf-8")
    if draw(st.booleans()):
        blob = blob[:draw(st.integers(0, len(blob)))]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(blob)))
        blob = blob[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + blob[at:]
    return blob


@settings(derandomize=True, max_examples=300, deadline=None)
@given(blob=csv_files(), rate=st.sampled_from([None, 250.0]), block=BLOCK_SIZES)
# a bad cell, then a file that ends inside a UTF-8 character: the cell's error
# comes first, as it does in file order
@example(blob=b"# rate_hz=250\n1,2\n3,oops\n5,6\n\xc3", rate=None, block=bio._BLOCK_ROWS)
# a cell past the csv module's field size limit, which numpy's C reader
# would read as inf: it stays a format error
@example(blob=b"1,2\n3," + b"4" * 200_000 + b"\n", rate=250.0, block=bio._BLOCK_ROWS)
def test_fuzzed_csv_reads_like_the_literal_reader(blob, rate, block):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rec.csv"
        path.write_bytes(blob)
        want = read_outcome(lambda: read_csv_record_literal(path, rate))
        with mock.patch.object(bio, "_BLOCK_ROWS", block):
            got = read_outcome(lambda: bio.read_multichannel(path, rate_hz=rate))
    if isinstance(got[0], type):
        assert issubclass(got[0], (BandstackError, OSError)), got
    if want[0] in (UnicodeDecodeError, csv.Error):
        # the reference let these escape; they are format errors now
        assert got[0] is FormatError, got
    else:
        assert got == want


@settings(derandomize=True, max_examples=100, deadline=None)
@given(blob=csv_files(), rate=st.sampled_from([None, 250.0]), block=BLOCK_SIZES)
def test_fuzzed_csv_encode_exits_with_a_documented_code(blob, rate, block):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rec.csv"
        path.write_bytes(blob)
        argv = ["encode", str(path), str(Path(tmp) / "out.wav"), "--target-rate", "2000"]
        if rate is not None:
            argv += ["--rate", repr(rate)]
        with mock.patch.object(bio, "_BLOCK_ROWS", block), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    assert rc in (0, 1, 2, 3)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    channels=st.integers(1, 3).flatmap(lambda p: st.integers(2, 9).flatmap(
        lambda n: arrays(np.float64, (p, n),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))),
    names=st.booleans(),
    block=BLOCK_SIZES,
)
def test_fuzzed_records_write_like_the_literal_writer(channels, names, block):
    rec = MultiChannelRecord(channels, 250.0,
                             channel_names=tuple(f"c{i}" for i in range(len(channels)))
                             if names else None)
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        with mock.patch.object(bio, "_BLOCK_ROWS", block):
            bio.write_multichannel(rec, new)
            back = bio.read_multichannel(new)
        write_csv_record_literal(rec, old)
        assert new.read_bytes() == old.read_bytes()
    assert back.channels.tobytes() == rec.channels.tobytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(names=st.integers(1, 3).flatmap(
    lambda p: st.lists(st.one_of(st.text(max_size=6), st.sampled_from(
        ["1", " nan", "#", '"', ",", "\r\n", "Fp1"])), min_size=p, max_size=p)))
def test_fuzzed_channel_names_round_trip(names):
    rec = MultiChannelRecord(np.zeros((len(names), 2)), 250.0, channel_names=names)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rec.csv"
        bio.write_multichannel(rec, path)
        back = bio.read_multichannel(path)
    assert back.channel_names == rec.channel_names
    assert back.channels.tobytes() == rec.channels.tobytes()
