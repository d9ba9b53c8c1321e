"""File formats: CSV and raw-f64 records, WAV/raw wideband signals, matrices.

Every binary artifact travels with a JSON sidecar (``<data>.sidecar``) that
carries the dimensions and, for wideband signals, the full decode provenance.
Formats:

  * CSV records - UTF-8, one column per channel, optional ``# rate_hz=...``
    comment and optional header row of channel names.
  * raw-f64 - little-endian IEEE-754 doubles, channel-major (records) or
    row-major (matrices); bit-exact round trips.
  * WAV - RIFF/WAVE, format 3 (IEEE float), mono, 32-bit, for real-mode
    wideband signals only. The f32 narrowing is the only loss on this path.

Sample values in CSV are written with shortest round-trip repr, so they also
re-read bit-exactly.
"""

from __future__ import annotations

import csv as _csv
import json
import os
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
)
from bandstack.sidecar import FORMAT_VERSION, WIDEBAND_FORMATS, SidecarHeader, read_sidecar

__all__ = [
    "SidecarHeader",
    "read_multichannel", "write_multichannel",
    "read_wideband", "write_wideband",
    "read_matrix", "write_matrix",
    "read_wav_f32", "write_wav_f32",
    "sidecar_path", "read_sidecar_file",
]

RECORD_FORMATS = ("csv", "raw-f64")
MATRIX_FORMATS = ("csv", "raw-f64")


def sidecar_path(path) -> str:
    return os.fspath(path) + ".sidecar"


def _write_sidecar(path, payload: dict) -> None:
    with open(sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


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
    p = os.fspath(path)
    if p.endswith(".sidecar"):
        p = p[: -len(".sidecar")]
    payload = _read_sidecar(p)
    if payload["kind"] == "wideband":
        SidecarHeader.from_payload(payload)  # its invariants span several fields
    return payload


# ---------------------------------------------------------------------------
# multichannel records

def _infer_record_format(path) -> str:
    return "csv" if os.fspath(path).lower().endswith(".csv") else "raw-f64"


def read_multichannel(path, format: Optional[str] = None,
                      rate_hz: Optional[float] = None) -> MultiChannelRecord:
    """Load a record from CSV or raw-f64 (+ sidecar).

    For CSV the sample rate comes from ``rate_hz`` or a ``# rate_hz=...``
    comment; raw-f64 takes everything from the sidecar.
    """
    fmt = format or _infer_record_format(path)
    if fmt == "csv":
        return _read_csv_record(path, rate_hz)
    if fmt == "raw-f64":
        return _read_raw_record(path)
    raise ValidationError(f"unknown record format {fmt!r}; expected one of {RECORD_FORMATS}")


def _read_csv_record(path, rate_hz):
    names = None
    rows = []
    file_rate = None
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                body = stripped.lstrip("#").strip()
                if body.startswith("rate_hz="):
                    try:
                        file_rate = float(body.split("=", 1)[1])
                    except ValueError as exc:
                        raise FormatError(f"{path}: bad rate comment on line {lineno}") from exc
                continue
            cells = next(_csv.reader([line]))
            cells = [c.strip() for c in cells]
            if not rows and names is None:
                try:
                    rows.append([float(c) for c in cells])
                except ValueError:
                    names = tuple(cells)
                continue
            parsed = []
            for col, c in enumerate(cells, start=1):
                try:
                    parsed.append(float(c))
                except ValueError as exc:
                    raise FormatError(
                        f"{path}: non-numeric value {c!r} at line {lineno}, column {col}"
                    ) from exc
            rows.append(parsed)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise FormatError(f"{path}: inconsistent column counts {sorted(widths)}")
    rate = rate_hz if rate_hz is not None else file_rate
    if rate is None:
        raise FormatError(f"{path}: sample rate not given (pass rate_hz or add a "
                          f"'# rate_hz=...' comment)")
    data = np.asarray(rows, dtype=np.float64).T  # columns are channels
    return MultiChannelRecord(data, rate, channel_names=names)


def _read_raw_record(path):
    payload = _read_sidecar(path, "record")
    p, n = payload["p"], payload["n_samples"]
    rate = float(payload["source_rate_hz"])
    names = payload.get("channel_names")
    data = np.fromfile(path, dtype="<f8")
    if data.size != p * n:
        raise FormatError(f"{path}: expected {p}*{n}={p * n} doubles, found {data.size}")
    return MultiChannelRecord(data.reshape(p, n), rate,
                              channel_names=tuple(names) if names else None)


def write_multichannel(record: MultiChannelRecord, path,
                       format: Optional[str] = None) -> None:
    """Write a record as CSV (self-describing) or raw-f64 + sidecar."""
    fmt = format or _infer_record_format(path)
    if fmt == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# rate_hz={record.sample_rate_hz!r}\n")
            if record.channel_names:
                fh.write(",".join(record.channel_names) + "\n")
            for row in record.channels.T:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        return
    if fmt == "raw-f64":
        record.channels.astype("<f8").tofile(path)
        payload = {
            "format_version": FORMAT_VERSION,
            "kind": "record",
            "p": record.p,
            "n_samples": record.n_samples,
            "source_rate_hz": record.sample_rate_hz,
        }
        if record.channel_names:
            payload["channel_names"] = list(record.channel_names)
        _write_sidecar(path, payload)
        return
    raise ValidationError(f"unknown record format {fmt!r}; expected one of {RECORD_FORMATS}")


# ---------------------------------------------------------------------------
# WAV (RIFF/WAVE, IEEE float32, mono)

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
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValidationError("WAV writer takes a mono sample vector")
    rate = int(round(rate_hz))
    if rate <= 0:
        raise ValidationError(f"WAV sample rate must round to a positive integer, got {rate_hz}")
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
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(blob):
        cid = blob[pos:pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        chunk = blob[pos + 8:pos + 8 + size]
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
    samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
    return rate, samples


# ---------------------------------------------------------------------------
# wideband signals

def _infer_wideband_format(path) -> str:
    return "wav-f32" if os.fspath(path).lower().endswith(".wav") else "raw-f64"


def write_wideband(signal: WidebandSignal, path, format: Optional[str] = None) -> None:
    """Persist a wideband signal plus its mandatory sidecar.

    wav-f32 is for real-mode signals (complex output is not playable);
    raw-f64 keeps complex signals as two planes (real then imaginary) and is
    bit-exact.
    """
    fmt = format or _infer_wideband_format(path)
    if fmt not in WIDEBAND_FORMATS:
        raise ValidationError(f"unknown wideband format {fmt!r}; "
                              f"expected one of {WIDEBAND_FORMATS}")
    if fmt == "wav-f32":
        if signal.is_complex:
            raise ValidationError(
                "complex-mode signal cannot be exported as WAV (not playable); "
                "use raw-f64")
        write_wav_f32(path, signal.samples, signal.rate_hz)
    else:
        if signal.is_complex:
            planes = np.concatenate([signal.samples.real, signal.samples.imag])
        else:
            planes = signal.samples
        planes.astype("<f8").tofile(path)
    header = replace(signal.provenance, data_format=fmt)
    with open(sidecar_path(path), "w", encoding="utf-8") as fh:
        fh.write(header.to_json())


def read_wideband(path) -> WidebandSignal:
    """Reload a wideband signal; raw-f64 is bit-exact, wav-f32 carries only
    the f32 quantization (~1e-7 relative)."""
    header = SidecarHeader.from_payload(_read_sidecar(path, "wideband"))
    n_out = header.n_out
    if header.data_format == "wav-f32":
        if header.mode == MODE_PAPER_COMPLEX:
            raise FormatError(f"{path}: paper-complex signals cannot live in WAV")
        rate, samples = read_wav_f32(path)
        if rate != int(round(header.target_rate_hz)):
            raise FormatError(f"{path}: WAV rate {rate} disagrees with sidecar "
                              f"target_rate_hz {header.target_rate_hz}")
        if samples.shape[0] != n_out:
            raise FormatError(f"{path}: expected {n_out} samples, found {samples.shape[0]}")
    else:
        data = np.fromfile(path, dtype="<f8")
        if header.mode == MODE_PAPER_COMPLEX:
            if data.size != 2 * n_out:
                raise FormatError(f"{path}: expected {2 * n_out} doubles (two planes), "
                                  f"found {data.size}")
            samples = data[:n_out] + 1j * data[n_out:]
        else:
            if data.size != n_out:
                raise FormatError(f"{path}: expected {n_out} doubles, found {data.size}")
            samples = data
    return WidebandSignal(samples, header.target_rate_hz, header)


# ---------------------------------------------------------------------------
# matrices

def _infer_matrix_format(path) -> str:
    return "csv" if os.fspath(path).lower().endswith(".csv") else "raw-f64"


def write_matrix(matrix: np.ndarray, path, format: Optional[str] = None,
                 meta: Optional[dict] = None) -> None:
    """Write a 2-D real matrix row-major, with dimensions in the header/sidecar.

    ``meta`` (string keys and values) records how the matrix was produced,
    e.g. spectrogram window settings.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValidationError(f"matrix must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        bad = np.argwhere(~np.isfinite(m))[0]
        raise ValidationError(f"non-finite matrix entry at {tuple(int(v) for v in bad)}")
    fmt = format or _infer_matrix_format(path)
    if fmt == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# rows={m.shape[0]} cols={m.shape[1]}\n")
            for key, value in (meta or {}).items():
                fh.write(f"# {key}={value}\n")
            for row in m:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        return
    if fmt == "raw-f64":
        m.astype("<f8").tofile(path)
        payload = {
            "format_version": FORMAT_VERSION,
            "kind": "matrix",
            "rows": m.shape[0],
            "cols": m.shape[1],
        }
        if meta:
            payload["meta"] = {str(k): str(v) for k, v in meta.items()}
        _write_sidecar(path, payload)
        return
    raise ValidationError(f"unknown matrix format {fmt!r}; expected one of {MATRIX_FORMATS}")


def read_matrix(path, format: Optional[str] = None) -> tuple[np.ndarray, dict]:
    """Read a matrix written by write_matrix; returns (matrix, meta)."""
    fmt = format or _infer_matrix_format(path)
    if fmt == "csv":
        rows = []
        meta = {}
        declared = None
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped:
                    continue
                if stripped.startswith("#"):
                    body = stripped.lstrip("#").strip()
                    if "=" in body:
                        if body.startswith("rows="):
                            try:
                                parts = dict(kv.split("=", 1) for kv in body.split())
                                declared = (int(parts["rows"]), int(parts["cols"]))
                            except (KeyError, ValueError) as exc:
                                raise FormatError(
                                    f"{path}: bad dimension comment on line {lineno}, "
                                    f"expected '# rows=R cols=C'") from exc
                        else:
                            key, value = body.split("=", 1)
                            meta[key.strip()] = value.strip()
                    continue
                try:
                    rows.append([float(c) for c in stripped.split(",")])
                except ValueError as exc:
                    raise FormatError(f"{path}: bad matrix row at line {lineno}") from exc
        m = np.asarray(rows, dtype=np.float64)
        if m.ndim != 2:
            raise FormatError(f"{path}: ragged or empty matrix")
        if declared is not None and declared != m.shape:
            raise FormatError(f"{path}: header says {declared}, data is {m.shape}")
        return m, meta
    if fmt == "raw-f64":
        payload = _read_sidecar(path, "matrix")
        rows, cols = payload["rows"], payload["cols"]
        data = np.fromfile(path, dtype="<f8")
        if data.size != rows * cols:
            raise FormatError(f"{path}: expected {rows}x{cols}={rows * cols} doubles, "
                              f"found {data.size}")
        return data.reshape(rows, cols), dict(payload.get("meta", {}))
    raise ValidationError(f"unknown matrix format {fmt!r}; expected one of {MATRIX_FORMATS}")
