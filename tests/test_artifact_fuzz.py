"""Fuzzed artifacts: sidecars with odd, missing or extra fields, and damaged
raw-f64 and WAV data, read through the library and through ``bandstack
decode`` and ``info``. Every outcome must be a value, a BandstackError or an
OSError, and every exit code a documented one."""

import contextlib
import io
import json
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandstack import io as bio
from bandstack.cli import main
from bandstack.model import BandstackError, FormatError, MultiChannelRecord, TransformConfig
from bandstack.transform import decode, encode


def _build_artifacts():
    """name -> (kind, data bytes, sidecar payload) for one small file of each
    kind and layout."""
    rec = MultiChannelRecord(np.random.default_rng(0).standard_normal((2, 16)), 8.0,
                             channel_names=("a", "b"))
    made = {}
    with tempfile.TemporaryDirectory() as tmp:
        def keep(name, kind, write):
            path = Path(tmp) / name
            write(path)
            made[name] = (kind, path.read_bytes(),
                          json.loads(Path(bio.sidecar_path(path)).read_text()))

        for name, mode in (("strict.wav", "strict-lossless"), ("real.f64", "real-hermitian"),
                           ("complex.f64", "paper-complex")):
            signal = encode(rec, TransformConfig(32.0, 2, mode=mode))
            keep(name, "wideband", lambda path: bio.write_wideband(signal, path))
        keep("record.f64", "record", lambda path: bio.write_multichannel(rec, path))
        keep("matrix.f64", "matrix",
             lambda path: bio.write_matrix(np.ones((3, 4)), path, meta={"window": 8}))
    return made


ARTIFACTS = _build_artifacts()

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 200),
    st.sampled_from([2**31, 2**53 + 1, 2**63, 10**400, 1e308, 5e-324, -0.0, 0.5]),
    st.floats(), st.text(max_size=6),
    st.lists(st.integers(-2, 4), max_size=4), st.lists(st.text(max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.one_of(st.text(max_size=3), st.integers()),
                    max_size=2),
)


@st.composite
def sidecar_edits(draw):
    """(artifact name, sidecar bytes) with one field set, deleted or added,
    or the JSON text cut short or given a byte that is not UTF-8."""
    name = draw(st.sampled_from(sorted(ARTIFACTS)))
    payload = dict(ARTIFACTS[name][2])
    field = draw(st.sampled_from(sorted(payload) + ["surprise"]))
    action = draw(st.sampled_from(["set", "delete", "cut"]))
    if action == "set":
        payload[field] = draw(JSON_VALUES)
    elif action == "delete":
        payload.pop(field, None)
    blob = json.dumps(payload, indent=2).encode()
    if action == "cut":
        blob = blob[:draw(st.integers(0, len(blob)))] + draw(st.sampled_from([b"", b"\xff"]))
    return name, blob


@st.composite
def damaged_data(draw):
    """(artifact name, data bytes) cut short, extended, or with bytes or
    whole samples or size fields overwritten; a WAV header is hit often."""
    name = draw(st.sampled_from(sorted(ARTIFACTS)))
    data = bytearray(ARTIFACTS[name][1])
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["cut", "append", "byte", "sample", "size"]))
        at = draw(st.one_of(st.integers(0, 59), st.integers(0, max(len(data) - 1, 0))))
        if action == "cut":
            del data[at:]
        elif action == "append":
            data += draw(st.binary(min_size=1, max_size=9))
        elif action == "byte" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif action == "sample":
            wav = name.endswith(".wav")
            value = draw(st.sampled_from([float("nan"), float("inf"), -0.0,
                                          3e38 if wav else 1e308]))
            packed = struct.pack("<f" if wav else "<d", value)
            data[at:at + len(packed)] = packed
        elif action == "size":  # the RIFF, fmt, fact and data size fields of a WAV
            at = draw(st.sampled_from([4, 16, 40, 52]))
            size = draw(st.one_of(st.integers(0, len(data)), st.integers(0, 2**32 - 1)))
            data[at:at + 4] = struct.pack("<I", size)
    return name, bytes(data)


def _outcome_is_clean(name, data, sidecar):
    """Read the artifact in the library and through the CLI; every error must
    be a BandstackError or an OSError and every exit code in {0, 1, 2, 3}, and
    ``info`` must refuse a sidecar that the library read refuses."""
    kind = ARTIFACTS[name][0]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        Path(bio.sidecar_path(path)).write_bytes(sidecar)
        read = {"wideband": lambda: decode(bio.read_wideband(path)),
                "record": lambda: bio.read_multichannel(path),
                "matrix": lambda: bio.read_matrix(path)}[kind]
        argvs = [["info", str(path)]]
        if kind == "wideband":
            argvs.append(["decode", str(path), str(Path(tmp) / "out.csv")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning is a failure too
            try:
                read()
                refused = None
            except (BandstackError, OSError) as exc:
                refused = exc
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes = [main(argv) for argv in argvs]
    assert set(codes) <= {0, 1, 2, 3}, codes
    if codes[0] == 0:
        assert not (isinstance(refused, FormatError)
                    and bio.sidecar_path(path) in str(refused)), refused


@settings(derandomize=True, max_examples=200, deadline=None)
@given(edit=sidecar_edits())
# one channel name for p = 2: the record read refused it and info printed it
@example(edit=("record.f64", json.dumps({**ARTIFACTS["record.f64"][2],
                                         "channel_names": ["a"]}, indent=2).encode()))
def test_fuzzed_sidecars_fail_cleanly(edit):
    name, sidecar = edit
    _outcome_is_clean(name, ARTIFACTS[name][1], sidecar)


_WAV = ARTIFACTS["strict.wav"][1]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(damage=damaged_data())
# a WAV data chunk of 255 bytes, not a whole number of float32 samples (its
# size field is at byte 52); the samples were read without a check
@example(damage=("strict.wav", _WAV[:52] + struct.pack("<I", 255) + _WAV[56:]))
def test_fuzzed_data_files_fail_cleanly(damage):
    name, data = damage
    _outcome_is_clean(name, data, json.dumps(ARTIFACTS[name][2], indent=2).encode())
