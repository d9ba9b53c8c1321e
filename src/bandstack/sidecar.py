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
writer cannot silently feed this reader.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from bandstack.mapping import _band_geometry
from bandstack.model import (
    FormatError,
    ValidationError,
    check_mode,
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
    required, optional = _FIELDS[found]
    unknown = set(payload) - {"format_version", "kind"} - set(required) - set(optional)
    if unknown:
        raise FormatError(f"unknown {found} sidecar fields {sorted(unknown)}; "
                          f"refusing to guess")
    missing = set(required) - set(payload)
    if missing:
        raise FormatError(f"{found} sidecar is missing fields {sorted(missing)}")
    for name, (ok, wanted) in {**required, **optional}.items():
        if name in payload and not ok(payload[name]):
            raise FormatError(f"{found} sidecar field {name!r} must be {wanted}, "
                              f"got {payload[name]!r}")
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
    channel_names: Optional[tuple[str, ...]] = None
    data_format: str = "raw-f64"

    def __post_init__(self):
        for name in ("source_rate_hz", "target_rate_hz"):
            object.__setattr__(self, name, check_rate(name, getattr(self, name)))
        # the configuration decode would refuse is refused here, when it is read
        _band_geometry(self.p, self.n_samples, self.source_rate_hz, self.target_rate_hz, 0)
        scale = self.scale
        if not (math.isfinite(scale) and scale > 0 and math.frexp(scale)[0] == 0.5):
            raise ValidationError(f"scale must be a finite positive power of two, "
                                  f"got {scale!r}")
        object.__setattr__(self, "stacking_order", check_order(self.stacking_order, self.p))
        check_mode(self.mode)
        names = self.channel_names
        if names is not None and (len(names) != self.p
                                  or not all(isinstance(n, str) for n in names)):
            raise ValidationError(f"channel_names must be None or {self.p} strings, "
                                  f"got {names!r}")

    @property
    def n_out(self) -> int:
        return output_length(self.n_samples, self.source_rate_hz, self.target_rate_hz)

    @property
    def rate_residual(self) -> float:
        """How far T * F_s was from an integer before rounding (0 when exact)."""
        exact = (self.n_samples / self.source_rate_hz) * self.target_rate_hz
        return exact - self.n_out

    def to_json(self) -> str:
        return sidecar_text("wideband", {
            "p": self.p,
            "n_samples": self.n_samples,
            "source_rate_hz": self.source_rate_hz,
            "target_rate_hz": self.target_rate_hz,
            "mode": self.mode,
            "stacking_order": [i + 1 for i in self.stacking_order],
            "scale": self.scale,
            "collision_count": self.collision_count,
            "data_format": self.data_format,
            "channel_names": None if self.channel_names is None else list(self.channel_names),
        })

    @classmethod
    def from_payload(cls, payload: dict) -> "SidecarHeader":
        """Header from a payload that read_sidecar accepted as kind wideband."""
        names = payload.get("channel_names")
        try:
            return cls(
                p=payload["p"],
                n_samples=payload["n_samples"],
                source_rate_hz=payload["source_rate_hz"],
                target_rate_hz=payload["target_rate_hz"],
                mode=payload["mode"],
                stacking_order=tuple(i - 1 for i in payload["stacking_order"]),
                scale=float(payload["scale"]),
                collision_count=payload["collision_count"],
                channel_names=tuple(names) if names is not None else None,
                data_format=payload["data_format"],
            )
        except ValidationError as exc:
            raise FormatError(f"inconsistent wideband sidecar: {exc}") from exc
