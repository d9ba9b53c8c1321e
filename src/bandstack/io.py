"""File formats: CSV and raw-f64 records, WAV/raw wideband signals, matrices.

Every binary artifact travels with a JSON sidecar (``<data>.sidecar``) that
carries the dimensions and, for wideband signals, the full decode provenance.
All kinds share one format resolver, one raw-f64 reader/writer pair and one
sidecar writer, whose text ``sidecar.sidecar_text`` builds. ``write_wav_f32``
and ``write_matrix`` refuse complex input (``model.check_array``) rather than
write its real part. Formats:

  * CSV records - UTF-8, one column per channel, optional ``# rate_hz=...``
    comment and optional channel names: a header row, or a
    ``# channel_names=`` JSON list where a header row would be misread or
    UTF-8 cannot encode a name.
  * raw-f64 - little-endian IEEE-754 doubles in C order: channel-major
    records, row-major matrices, and one plane (real) or two planes (real
    then imaginary) of wideband samples; bit-exact round trips.
  * WAV - RIFF/WAVE, format 3 (IEEE float), mono, 32-bit, for real-mode
    wideband signals only. The f32 narrowing is the only loss on this path.

CSV text is read and written a block of rows at a time, which bounds the
memory a file's text takes. numpy's C text reader parses a block of plain
numbers in one call; a block it refuses (quoted cells, say) is read cell by
cell, with the same values and messages. Reading rules: ``#`` comment lines
and blank lines may appear anywhere; a record's first data line is a header
of channel names unless every cell is a number; record cells may be quoted
(``"1.5"``, ``"C,z"``); whitespace around a cell is ignored; text that is
not UTF-8 is a FormatError (CLI exit code 2). Errors come in file order,
also when a file ends inside a UTF-8 character. Values are written as the
shortest repr that round-trips, so the output bytes depend only on the
values, and they re-read bit-exactly.
"""

from __future__ import annotations

import csv as _csv
import json
import math
import os
import re
import struct
from dataclasses import replace
from typing import Optional

import numpy as np

from bandstack.model import (
    MODE_PAPER_COMPLEX,
    FormatError,
    MultiChannelRecord,
    ValidationError,
    WidebandSignal,
    adopt,
    check_array,
    check_finite,
    check_rate,
    check_type,
)
from bandstack.sidecar import WIDEBAND_FORMATS, SidecarHeader, read_sidecar, sidecar_text

__all__ = [
    "SidecarHeader",
    "read_multichannel", "write_multichannel",
    "read_wideband", "write_wideband",
    "read_matrix", "write_matrix",
    "read_wav_f32", "write_wav_f32",
    "sidecar_path", "read_sidecar_file",
]

RECORD_FORMATS = ("csv", "raw-f64")  # records and matrices
# artifact kind -> (its formats, the file suffix that selects the first one)
_FORMATS = {"record": (RECORD_FORMATS, ".csv"), "matrix": (RECORD_FORMATS, ".csv"),
            "wideband": (WIDEBAND_FORMATS, ".wav")}


def _resolve_format(path, fmt: Optional[str], kind: str) -> str:
    """The format of a ``kind`` file: ``fmt`` if it is one of the kind's
    formats; when None, the one the file's suffix selects, else raw-f64."""
    formats, suffix = _FORMATS[kind]
    if fmt is None:
        return formats[0] if os.fspath(path).lower().endswith(suffix) else "raw-f64"
    if fmt not in formats:
        raise ValidationError(f"unknown {kind} format {fmt!r}; expected one of {formats}")
    return fmt


def sidecar_path(path) -> str:
    return os.fspath(path) + ".sidecar"


def _write_sidecar(path, text: str) -> None:
    with open(sidecar_path(path), "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_raw(path, array: np.ndarray) -> None:
    """Write the raw-f64 layout: little-endian doubles in C order."""
    np.asarray(array, dtype="<f8").tofile(path)


def _read_raw(path, shape: tuple[int, ...]) -> np.ndarray:
    """Read a raw-f64 file that must hold exactly ``shape`` doubles. A regular
    file's size is checked before any of it is read, and the file is read
    into an array of ``shape`` that owns its data, so a record or signal can
    adopt it without a copy."""
    size = math.prod(shape)
    found = os.path.getsize(path) if os.path.isfile(path) else None
    if found is None:  # not a regular file (a FIFO, say), which np.fromfile cannot seek
        with open(path, "rb") as fh:
            blob = fh.read()
        found = len(blob)
        data = np.frombuffer(blob, "<f8", found // 8).copy()
    elif found == 8 * size:
        data = np.empty(shape, dtype="<f8")
        with open(path, "rb") as fh:
            found = fh.readinto(data)
    if found != 8 * size:
        want = "*".join(map(str, shape)) + (f"={size}" if len(shape) > 1 else "")
        stray = f" and {found % 8} stray bytes" if found % 8 else ""
        raise FormatError(f"{path}: expected {want} doubles, found {found // 8}{stray}")
    return data if data.shape == shape else data.reshape(shape)


def _read_sidecar(path, kind=None) -> dict:
    sc = sidecar_path(path)
    if not os.path.exists(sc):
        raise FormatError(f"missing sidecar {sc}")
    with open(sc, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"sidecar {sc} is not UTF-8 text: {exc}") from exc
    return read_sidecar(text, kind)


def read_sidecar_file(path) -> dict:
    """Parse and check a sidecar (given its own path or the data file's path)."""
    payload = _read_sidecar(os.fspath(path).removesuffix(".sidecar"))
    if payload["kind"] == "wideband":
        SidecarHeader.from_payload(payload)  # its invariants span several fields
    return payload


# ---------------------------------------------------------------------------
# CSV text, shared by records and matrices

_BLOCK_ROWS = 2048  # rows parsed or formatted per step; bounds the text held at once


def _csv_blocks(path, fh, on_comment):
    """Yield ``(lines, linenos)`` blocks of up to _BLOCK_ROWS data lines.

    Blank lines are skipped and ``on_comment(lineno, body)`` sees each ``#``
    line. An error it raises, or text that is not UTF-8, comes after the
    block before it, so errors surface in file order.
    """
    lines, linenos, error = [], [], None
    try:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if stripped.startswith("#"):
                on_comment(lineno, stripped.lstrip("#").strip())
            elif stripped:
                lines.append(line)
                linenos.append(lineno)
                if len(lines) == _BLOCK_ROWS:
                    yield lines, linenos
                    lines, linenos = [], []
    except (UnicodeDecodeError, FormatError) as exc:  # raised after the pending block
        error = exc
    if lines:
        yield lines, linenos
    if isinstance(error, UnicodeDecodeError):
        raise FormatError(f"{path}: not UTF-8 text ({error.reason})") from error
    if error is not None:
        raise error


def _header_of(cells: list[str]) -> Optional[tuple[str, ...]]:
    """The channel names a record's first data line gives: its cells, unless
    every one is a number."""
    for c in cells:
        try:
            float(c)
        except ValueError:
            return tuple(cells)
    return None


def _parse_block(lines) -> Optional[np.ndarray]:
    """A block of data lines as a (rows, cols) array, or None for the caller
    to scan cell by cell.

    numpy's C reader strips the whitespace ``str.strip`` does and converts
    with the parser ``float`` uses. What it refuses (quotes, ``1_0``,
    non-ASCII digits, empty cells, NUL, ragged rows) returns None. Lines
    past the csv field size limit skip it: it would read an over-long cell
    as inf, where ``csv`` raises.
    """
    if max(map(len, lines)) <= _csv.field_size_limit():
        try:
            block = np.loadtxt(lines, delimiter=",", dtype=np.float64, comments=None,
                               quotechar=None, ndmin=2)
            if block.shape[0] == len(lines):
                return block
        except ValueError:
            pass
    return None


def _read_csv_table(path, on_comment, split, bad_cell, header=False):
    """Parse a CSV file's data lines; returns (names, data, widths).

    Each block is parsed whole by ``_parse_block``, numpy's C reader, if it
    holds only plain numbers. A block it refuses is scanned cell by cell:
    ``split`` turns a line into its cells, each read with ``float``, which
    raises ``bad_cell`` (a message template) for the first bad cell and
    collects the row widths. ``widths`` holds every row width seen;
    ``data`` is the (rows, cols) array if there is only one. With
    ``header``, a first data line that is not all numbers gives ``names``.
    """
    def cells(line, lineno):
        try:
            return [c.strip() for c in next(iter(split([line])))]
        except _csv.Error as exc:
            raise FormatError(f"{path}: unreadable CSV at line {lineno}: {exc}") from exc

    names, blocks, widths = None, [], set()
    with open(path, newline="", encoding="utf-8") as fh:
        for i, (lines, linenos) in enumerate(_csv_blocks(path, fh, on_comment)):
            if header and i == 0:
                names = _header_of(cells(lines[0], linenos[0]))
                if names is not None:
                    del lines[0], linenos[0]
                    if not lines:
                        continue
            block = _parse_block(lines)
            if block is not None:
                blocks.append(block)
                widths.add(block.shape[1])
                continue
            rows = []
            for lineno, line in zip(linenos, lines):
                row = []
                for col, cell in enumerate(cells(line, lineno), start=1):
                    try:
                        row.append(float(cell))
                    except ValueError as exc:
                        raise FormatError(bad_cell.format(
                            path=path, cell=cell, line=lineno, col=col)) from exc
                rows.append(row)
                widths.add(len(row))
            if len(widths) == 1:
                blocks.append(np.array(rows, dtype=np.float64))
    return names, (np.concatenate(blocks) if len(widths) == 1 else None), widths


def _write_csv_rows(fh, rows: np.ndarray) -> None:
    """Write a 2-D array as lines of shortest round-trip reprs, one block
    of rows per ``write``. Each block is formatted column by column and
    zipped into rows, so no Python loop runs per row."""
    for start in range(0, rows.shape[0], _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        columns = [map(repr, column) for column in block.T.tolist()]
        lines = map(",".join, zip(*columns)) if columns else [""] * block.shape[0]
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# multichannel records

def read_multichannel(path, format: Optional[str] = None,
                      rate_hz: Optional[float] = None) -> MultiChannelRecord:
    """Load a record from CSV or raw-f64 (+ sidecar).

    For CSV the sample rate comes from ``rate_hz`` or a ``# rate_hz=...``
    comment; raw-f64 takes everything from the sidecar.
    """
    if _resolve_format(path, format, "record") == "csv":
        return _read_csv_record(path, rate_hz)
    payload = _read_sidecar(path, "record")
    names = payload.get("channel_names")
    if names is not None and len(names) != payload["p"]:
        raise FormatError(f"{sidecar_path(path)}: {len(names)} channel_names for "
                          f"p={payload['p']} channels")
    return adopt(MultiChannelRecord, _read_raw(path, (payload["p"], payload["n_samples"])),
                 payload["source_rate_hz"], names)


def _read_csv_record(path, rate_hz):
    file_rate = None
    comment_names = None

    def on_comment(lineno, body):
        nonlocal file_rate, comment_names
        if body.startswith("rate_hz="):
            try:
                file_rate = float(body.split("=", 1)[1])
            except ValueError as exc:
                raise FormatError(f"{path}: bad rate comment on line {lineno}") from exc
        elif body.startswith("channel_names="):
            try:
                comment_names = json.loads(body.split("=", 1)[1])
            except (ValueError, RecursionError):
                comment_names = None
            if not (isinstance(comment_names, list)
                    and all(isinstance(name, str) for name in comment_names)):
                raise FormatError(f"{path}: bad channel_names comment on line {lineno}, "
                                  f"expected a JSON list of strings")

    names, data, widths = _read_csv_table(
        path, on_comment, _csv.reader,
        "{path}: non-numeric value {cell!r} at line {line}, column {col}", header=True)
    if comment_names is not None:
        if names is not None:
            raise FormatError(f"{path}: channel names given by both a "
                              f"'# channel_names=' comment and a header row")
        names = tuple(comment_names)
    if not widths:
        raise FormatError(f"{path}: no data rows")
    if data is None:
        raise FormatError(f"{path}: inconsistent column counts {sorted(widths)}")
    rate = rate_hz if rate_hz is not None else file_rate
    if rate is None:
        raise FormatError(f"{path}: sample rate not given (pass rate_hz or add a "
                          f"'# rate_hz=...' comment)")
    return MultiChannelRecord(data.T, rate, channel_names=names)  # columns are channels


def _one_line(text: str) -> bool:
    """Whether ``text`` reads back as one line of UTF-8 text: the readers split
    at \\n and \\r, and UTF-8 cannot encode a lone surrogate."""
    return re.search("[\n\r\ud800-\udfff]", text) is None


def _header_names(row: str) -> Optional[tuple[str, ...]]:
    """The names the reader takes from ``row`` as a record's first data line,
    or None if it would read it as data, a comment, a blank or several lines,
    or if UTF-8 cannot encode it (a lone surrogate, which JSON escapes)."""
    if not _one_line(row) or row.strip()[:1] in ("", "#"):
        return None
    try:
        return _header_of([c.strip() for c in next(_csv.reader([row]))])
    except _csv.Error:
        return None


def write_multichannel(record: MultiChannelRecord, path,
                       format: Optional[str] = None) -> None:
    """Write a record as CSV (self-describing) or raw-f64 + sidecar."""
    check_type("record", record, MultiChannelRecord)
    if _resolve_format(path, format, "record") == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# rate_hz={record.sample_rate_hz!r}\n")
            if record.channel_names:
                row = ",".join(record.channel_names)
                if _header_names(row) != record.channel_names:
                    row = f"# channel_names={json.dumps(list(record.channel_names))}"
                fh.write(row + "\n")
            _write_csv_rows(fh, record.channels.T)
        return
    _write_raw(path, record.channels)
    _write_sidecar(path, sidecar_text("record", {
        "p": record.p, "n_samples": record.n_samples,
        "source_rate_hz": record.sample_rate_hz,
        "channel_names": list(record.channel_names) if record.channel_names else None}))


# ---------------------------------------------------------------------------
# WAV (RIFF/WAVE, IEEE float32, mono)

_WAV_MAX_RATE = (2**32 - 1) // 4  # the byte-rate field holds rate * 4 in 32 bits


def _wav_header(n_samples: int, rate: int) -> bytes:
    """Every byte of a mono float32 WAV that precedes its n samples.

    The RIFF size field counts the 48 header bytes after it plus 4 bytes per
    sample and is an unsigned 32-bit integer, so longer data is refused.
    """
    data_size = 4 * n_samples
    if 48 + data_size > 2**32 - 1:
        raise ValidationError(
            f"{n_samples} samples do not fit a WAV file (4 GiB limit); "
            f"use the raw-f64 format")
    return (b"RIFF" + struct.pack("<I", 48 + data_size) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, rate, rate * 4, 4, 32)
            + b"fact" + struct.pack("<II", 4, n_samples)
            + b"data" + struct.pack("<I", data_size))


def write_wav_f32(path, samples: np.ndarray, rate_hz: float) -> None:
    """Write a mono float32 WAV (format tag 3) with a fact chunk."""
    samples = check_array("samples", samples, 1)
    rate = int(round(check_rate("rate_hz", rate_hz)))
    if not 0 < rate <= _WAV_MAX_RATE:
        raise ValidationError(f"WAV sample rate must round to an integer in "
                              f"1..{_WAV_MAX_RATE} Hz, got {rate_hz}")
    # The header (and its size check) comes before any conversion of the data.
    header = _wav_header(samples.shape[0], rate)
    data = samples.astype("<f4")
    with open(path, "wb") as fh:
        fh.write(header)
        data.tofile(fh)


def read_wav_f32(path) -> tuple[int, np.ndarray]:
    """Read a mono float32 WAV; returns (rate, float64 samples)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")
    view = memoryview(blob)  # chunks are slices of it, not copies
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(blob):
        cid = blob[pos:pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        chunk = view[pos + 8:pos + 8 + size]
        if len(chunk) < size:
            raise FormatError(f"{path}: truncated {cid!r} chunk")
        if cid == b"fmt ":
            if size < 16:
                raise FormatError(f"{path}: fmt chunk is {size} bytes, need at least 16")
            fmt = struct.unpack_from("<HHIIHH", chunk, 0)
        elif cid == b"data":
            data = chunk
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise FormatError(f"{path}: missing fmt or data chunk")
    tag, channels, rate, _byterate, _block, bits = fmt
    if tag != 3 or bits != 32:
        raise FormatError(f"{path}: need IEEE float32 (format 3/32-bit), "
                          f"got format {tag}/{bits}-bit")
    if channels != 1:
        raise FormatError(f"{path}: need mono, got {channels} channels")
    if len(data) % 4:
        raise FormatError(f"{path}: data chunk size {len(data)} is not a multiple of 4")
    samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
    return rate, samples


# ---------------------------------------------------------------------------
# wideband signals

def write_wideband(signal: WidebandSignal, path, format: Optional[str] = None) -> None:
    """Persist a wideband signal plus its mandatory sidecar.

    wav-f32 is for real-mode signals (complex output is not playable);
    raw-f64 keeps complex signals as two planes (real then imaginary) and is
    bit-exact.
    """
    check_type("signal", signal, WidebandSignal)
    fmt = _resolve_format(path, format, "wideband")
    samples = signal.samples
    if fmt == "wav-f32" and signal.is_complex:
        raise ValidationError(
            "complex-mode signal cannot be exported as WAV (not playable); use raw-f64")
    sidecar = replace(signal.provenance, data_format=fmt).to_json()  # checked before any write
    if fmt == "raw-f64":
        _write_raw(path, np.stack([samples.real, samples.imag]) if signal.is_complex
                   else samples)
    else:
        write_wav_f32(path, samples, signal.rate_hz)
    _write_sidecar(path, sidecar)


def read_wideband(path) -> WidebandSignal:
    """Reload a wideband signal; raw-f64 is bit-exact, wav-f32 carries only
    the f32 quantization (~1e-7 relative). The signal adopts the array the
    read builds instead of copying it."""
    header = SidecarHeader.from_payload(_read_sidecar(path, "wideband"))
    n_out = header.n_out
    if header.data_format == "wav-f32":  # never paper-complex
        rate, samples = read_wav_f32(path)
        if rate != int(round(header.target_rate_hz)):
            raise FormatError(f"{path}: WAV rate {rate} disagrees with sidecar "
                              f"target_rate_hz {header.target_rate_hz}")
        if samples.shape[0] != n_out:
            raise FormatError(f"{path}: expected {n_out} samples, found {samples.shape[0]}")
    elif header.mode == MODE_PAPER_COMPLEX:
        samples = np.empty(n_out, dtype=np.complex128)  # keeps -0.0 in both planes
        samples.real, samples.imag = _read_raw(path, (2, n_out))
    else:
        samples = _read_raw(path, (n_out,))
    return adopt(WidebandSignal, samples, header.target_rate_hz, header)


# ---------------------------------------------------------------------------
# matrices

def write_matrix(matrix: np.ndarray, path, format: Optional[str] = None,
                 meta: Optional[dict] = None) -> None:
    """Write a 2-D real matrix row-major, with dimensions in the header/sidecar.

    ``meta`` (string keys and values) records how the matrix was produced,
    e.g. spectrogram window settings. CSV refuses an entry that its reader
    would not give back unchanged.
    """
    m = check_array("matrix", matrix, 2)
    check_finite(m, "non-finite matrix entry at ({}, {})")
    meta = {str(k): str(v) for k, v in (meta or {}).items()}
    if _resolve_format(path, format, "matrix") == "csv":
        comments = _csv_meta_text(meta)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# rows={m.shape[0]} cols={m.shape[1]}\n{comments}")
            _write_csv_rows(fh, m)
        return
    _write_raw(path, m)
    _write_sidecar(path, sidecar_text("matrix", {
        "rows": m.shape[0], "cols": m.shape[1], "meta": meta or None}))


def _csv_meta_text(meta: dict) -> str:
    """The ``# key=value`` lines of a CSV matrix's meta, refusing an entry
    read_matrix would not give back: it strips both sides of the first ``=``
    and takes ``rows=`` as the dimension comment."""
    for key, value in meta.items():
        if key == "rows" or "=" in key or not all(
                _one_line(s) and s == s.strip() for s in (key, value)):
            raise ValidationError(f"CSV matrix meta entry {key!r}: {value!r} would not read "
                                  f"back unchanged (raw-f64 keeps any string)")
    return "".join(f"# {k}={v}\n" for k, v in meta.items())


def read_matrix(path, format: Optional[str] = None) -> tuple[np.ndarray, dict]:
    """Read a matrix written by write_matrix; returns (matrix, meta)."""
    if _resolve_format(path, format, "matrix") == "csv":
        meta = {}
        declared = None

        def on_comment(lineno, body):
            nonlocal declared
            if body.startswith("rows="):
                try:
                    parts = dict(kv.split("=", 1) for kv in body.split())
                    declared = (int(parts["rows"]), int(parts["cols"]))
                except (KeyError, ValueError) as exc:
                    raise FormatError(f"{path}: bad dimension comment on line {lineno}, "
                                      f"expected '# rows=R cols=C'") from exc
            elif "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()

        _, m, _ = _read_csv_table(path, on_comment,
                                  lambda lines: [line.split(",") for line in lines],
                                  "{path}: bad matrix row at line {line}")
        if m is None:
            raise FormatError(f"{path}: ragged or empty matrix")
        if declared is not None and declared != m.shape:
            raise FormatError(f"{path}: header says {declared}, data is {m.shape}")
        return m, meta
    payload = _read_sidecar(path, "matrix")
    return _read_raw(path, (payload["rows"], payload["cols"])), dict(payload.get("meta", {}))
