"""Sidecars: the JSON files that describe every binary artifact.

A wideband waveform alone cannot be decoded: the channel count, source rate,
sample count, mode, band order and amplitude scale are not recoverable from
samples. SidecarHeader carries them. In memory it doubles as the provenance
object embedded in every WidebandSignal; on disk it is a small JSON file next
to the data (``<data>.sidecar``). Raw records and matrices have sidecars too,
holding only their dimensions.

Every sidecar kind (wideband, record, matrix) is written by one builder,
sidecar_text, which stamps the format version and kind, and read by one
strict reader, read_sidecar. Floats survive bit-exactly (shortest-repr round
trip); unknown keys, unsupported versions and fields of the wrong type or
range are rejected rather than ignored or coerced, so a future or tampered
writer cannot silently feed this reader. A SidecarHeader passes the reader's
field checks when it is built, so every header reads back from its own JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from bandstack.model import (
    MODE_PAPER_COMPLEX,
    FormatError,
    ValidationError,
    check_geometry,
    check_mode,
    check_names,
    check_order,
    check_rate,
    output_length,
)

FORMAT_VERSION = 1
WIDEBAND_FORMATS = ("wav-f32", "raw-f64")


def _is_number(v) -> bool:
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _count(minimum: int):
    return (lambda v: type(v) is int and v >= minimum), f"an integer >= {minimum}"


_RATE = (lambda v: _is_number(v) and v > 0), "a finite number > 0"
_NUMBER = _is_number, "a finite number"
_TEXT = (lambda v: isinstance(v, str)), "a string"
_TEXTS = (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
          "a list of strings")
_INTEGERS = (lambda v: isinstance(v, list) and all(type(i) is int for i in v),
             "a list of integers")
_TEXT_MAP = (lambda v: isinstance(v, dict) and all(isinstance(s, str) for s in v.values()),
             "an object of strings")

# kind -> (required fields, optional fields); each field maps to (check, wanted)
_FIELDS = {
    "wideband": ({"p": _count(1), "n_samples": _count(2), "source_rate_hz": _RATE,
                  "target_rate_hz": _RATE, "mode": _TEXT, "stacking_order": _INTEGERS,
                  "scale": _NUMBER, "collision_count": _count(0),
                  "data_format": ((lambda v: v in WIDEBAND_FORMATS),
                                  f"one of {WIDEBAND_FORMATS}")},
                 {"channel_names": _TEXTS}),
    "record": ({"p": _count(1), "n_samples": _count(2), "source_rate_hz": _RATE},
               {"channel_names": _TEXTS}),
    "matrix": ({"rows": _count(0), "cols": _count(0)}, {"meta": _TEXT_MAP}),
}


def sidecar_text(kind: str, fields: dict) -> str:
    """The JSON text of one sidecar of ``kind``: the format version and kind,
    then ``fields`` in their order, leaving out those that are None."""
    payload = {"format_version": FORMAT_VERSION, "kind": kind}
    payload.update((name, value) for name, value in fields.items() if value is not None)
    return json.dumps(payload, indent=2) + "\n"


def _check_fields(kind: str, fields: dict, error: type = FormatError) -> None:
    """Raise ``error`` for unknown or missing fields of a ``kind`` sidecar and
    for any of the wrong type or range (the version and kind are not checked)."""
    required, optional = _FIELDS[kind]
    unknown = set(fields) - {"format_version", "kind"} - set(required) - set(optional)
    if unknown:
        raise error(f"unknown {kind} sidecar fields {sorted(unknown)}; refusing to guess")
    missing = set(required) - set(fields)
    if missing:
        raise error(f"{kind} sidecar is missing fields {sorted(missing)}")
    for name, (ok, wanted) in {**required, **optional}.items():
        if name in fields and not ok(fields[name]):
            raise error(f"{kind} sidecar field {name!r} must be {wanted}, "
                        f"got {fields[name]!r}")


def read_sidecar(text: str, kind: Optional[str] = None) -> dict:
    """Parse and check one sidecar of ``kind`` (any known kind when None).

    Returns the JSON payload as written. Raises FormatError for bad JSON,
    another version or kind, unknown or missing fields, and any field of the
    wrong type or range. A wideband payload's cross-field invariants are
    checked by SidecarHeader.from_payload.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"sidecar is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError("sidecar must be a JSON object")
    version = payload.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(f"unsupported sidecar format_version {version!r} "
                          f"(this reader understands {FORMAT_VERSION})")
    found = payload.get("kind")
    if not isinstance(found, str) or found not in _FIELDS or kind not in (None, found):
        raise FormatError(f"expected a {kind or ' or '.join(_FIELDS)} sidecar, "
                          f"got kind={found!r}")
    _check_fields(found, payload)
    return payload


@dataclass(frozen=True)
class SidecarHeader:
    """Provenance of one wideband signal; sufficient input for decode.

    ``stacking_order`` is stored 0-based in memory and 1-based in the JSON
    file (the file is a user-facing surface). ``data_format`` records how the
    companion data file is laid out ("wav-f32" or "raw-f64"); for an
    in-memory signal that has not been written yet it defaults to "raw-f64".
    """

    p: int
    n_samples: int
    source_rate_hz: float
    target_rate_hz: float
    mode: str
    stacking_order: tuple[int, ...]
    scale: float
    collision_count: int
    data_format: str = "raw-f64"
    channel_names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        for name in ("source_rate_hz", "target_rate_hz"):
            object.__setattr__(self, name, check_rate(name, getattr(self, name)))
        # the configuration decode would refuse is refused here, when it is read
        check_geometry(self.p, self.n_samples, self.source_rate_hz, self.target_rate_hz)
        object.__setattr__(self, "stacking_order", check_order(self.stacking_order, self.p))
        object.__setattr__(self, "channel_names", check_names(self.channel_names, self.p))
        check_mode(self.mode)
        # what to_json would write must pass the reader's own field checks
        _check_fields("wideband", self._fields(), ValidationError)
        if math.frexp(self.scale)[0] != 0.5:  # finite and positive already
            raise ValidationError(f"scale must be a finite positive power of two, "
                                  f"got {self.scale!r}")
        object.__setattr__(self, "scale", float(self.scale))
        if self.mode == MODE_PAPER_COMPLEX and self.data_format == "wav-f32":
            raise ValidationError("paper-complex signals cannot live in WAV")

    @property
    def n_out(self) -> int:
        return output_length(self.n_samples, self.source_rate_hz, self.target_rate_hz)

    @property
    def rate_residual(self) -> float:
        """How far T * F_s was from an integer before rounding (0 when exact)."""
        exact = (self.n_samples / self.source_rate_hz) * self.target_rate_hz
        return exact - self.n_out

    def _fields(self) -> dict:
        """The fields that are not None, as the JSON file holds them."""
        fields = {name: value for name, value in vars(self).items() if value is not None}
        fields["stacking_order"] = [i + 1 for i in self.stacking_order]
        if self.channel_names is not None:
            fields["channel_names"] = list(self.channel_names)
        return fields

    def to_json(self) -> str:
        return sidecar_text("wideband", self._fields())

    @classmethod
    def from_payload(cls, payload: dict) -> "SidecarHeader":
        """Header from a payload that read_sidecar accepted as kind wideband."""
        fields = {k: v for k, v in payload.items() if k not in ("format_version", "kind")}
        fields["stacking_order"] = [i - 1 for i in fields["stacking_order"]]
        try:
            return cls(**fields)
        except ValidationError as exc:
            raise FormatError(f"inconsistent wideband sidecar: {exc}") from exc
