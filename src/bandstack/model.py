"""Domain types for the band-stacking codec.

Everything downstream (mapping, transform, io, features) speaks in terms of
these containers. All of them are immutable, so they can be shared freely
across threads, and all but BandPlan (built by mapping.build_band_plan) check
their fields on construction. Each configuration field has one checker here
(``check_rate``, ``check_counts``, ``check_mode``, ``check_order``, and for a
whole configuration ``check_geometry``), which every caller that takes it calls.
Other integers have ``check_integer``, and arrays of numbers ``check_array``,
which constructors follow with one C-order copy that they lock.

Conventions: channel and band indices are 0-based everywhere in this library;
the CLI and file sidecars use 1-based channel numbering and say so.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

MODE_PAPER_COMPLEX = "paper-complex"
MODE_REAL_HERMITIAN = "real-hermitian"
MODE_STRICT_LOSSLESS = "strict-lossless"
MODES = (MODE_PAPER_COMPLEX, MODE_REAL_HERMITIAN, MODE_STRICT_LOSSLESS)


class BandstackError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BandstackError):
    """Input data or parameters violate a documented invariant."""


class FormatError(BandstackError):
    """A file or sidecar could not be parsed, or its version is unsupported."""


class InfeasibleError(BandstackError):
    """Strict-lossless mode was requested for a configuration that cannot
    round-trip exactly."""


class CollisionError(InfeasibleError):
    """Strict-lossless mode was requested for a configuration whose stacking
    overwrites channel content at a destination-bin collision; raised when
    its plan is built."""


class DecodeError(BandstackError):
    """Decoding failed: the provenance contradicts itself (its collision_count
    differs from the plan of its own configuration) or the samples (complex
    samples under a real mode, or samples that at the provenance's scale, or
    in their spectrum, overflow float64)."""


class CollisionWarning(UserWarning):
    """Emitted when a lossy configuration is encoded anyway (non-strict modes)."""


def check_rate(name: str, rate) -> float:
    """``rate`` as a float, if it is a positive and finite number."""
    try:
        value = math.nan if isinstance(rate, (str, bytes)) else float(rate)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be positive and finite, got {rate!r} Hz")
    return value


def check_counts(p, n_samples=2) -> tuple[int, int]:
    """(p, n_samples) as ints, if they are integers p >= 1 and n >= 2."""
    try:
        counts = operator.index(p), operator.index(n_samples)
    except TypeError:
        counts = (0, 0)
    if counts[0] < 1 or counts[1] < 2:
        raise ValidationError(f"need p >= 1 and n >= 2 samples, got p={p!r}, "
                              f"n_samples={n_samples!r}")
    return counts


def check_integer(name: str, value) -> int:
    """``value`` as an int, if it is an integer (``operator.index`` takes it)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def check_mode(mode) -> None:
    """Refuse a mode that is not one of MODES."""
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")


def check_order(order, p: int) -> tuple[int, ...]:
    """``order`` as a tuple of ints, if it is a permutation of 0..p-1. The
    lengths are compared first, so a huge p builds no list of p integers."""
    try:
        entries = tuple(map(operator.index, order))
    except TypeError:
        entries = None
    if entries is None or len(entries) != p or sorted(entries) != list(range(p)):
        raise ValidationError(f"stacking_order must be a permutation of 0..{p - 1} "
                              f"(0-based), got {order!r}")
    return entries


def check_array(name: str, values, ndim: int, dtype=np.float64) -> np.ndarray:
    """``values`` as an ``ndim``-D array of numbers, copied only to convert:
    float64 takes bool, int and float; complex128 also complex; None keeps
    complex input complex128 and makes the rest float64. Ragged nesting, str
    or object values (a None entry) and complex where reals are wanted are refused."""
    try:
        array = np.asarray(values)
    except ValueError:  # numpy's refusal of ragged nesting
        raise ValidationError(f"{name} must be a {ndim}-D array of numbers, "
                              f"got ragged nesting") from None
    kind = array.dtype.kind
    if kind not in "biufc":
        raise ValidationError(f"{name} must hold numbers, got {array.dtype} values")
    if dtype is None:
        dtype = np.complex128 if kind == "c" else np.float64
    if kind == "c" and dtype != np.complex128:
        raise ValidationError(f"{name} must be real, got complex values")
    if array.ndim != ndim:
        raise ValidationError(f"{name} must be a {ndim}-D array, got shape {array.shape}")
    return array.astype(dtype, copy=False)


_MAX_N_OUT = 2**48  # keeps the float rounding of mapping.stack_fast below half a bin
_TINY = np.finfo(np.float64).tiny


def check_geometry(p, n_samples, source_rate_hz, target_rate_hz) -> int:
    """n_out of a configuration whose band plan is exact: checked counts and
    rates, 2 <= n_out <= 2**48, 2p(n-1)*n_out in int64, normal grid steps."""
    p, n_samples = check_counts(p, n_samples)
    source_rate_hz = check_rate("source rate", source_rate_hz)
    target_rate_hz = check_rate("target rate", target_rate_hz)
    n_out = output_length(n_samples, source_rate_hz, target_rate_hz)
    if not 2 <= n_out <= _MAX_N_OUT:
        raise ValidationError(f"output length {n_out:.6g} is outside 2..{_MAX_N_OUT}")
    den = 2 * p * (n_samples - 1)
    if den * n_out > np.iinfo(np.int64).max:
        raise ValidationError(f"index arithmetic overflows int64: 2p(n-1)*n_out = {den * n_out}")
    if min(source_rate_hz / (n_samples - 1), target_rate_hz / max(den, n_out)) < _TINY:
        raise ValidationError(f"rates {source_rate_hz!r} and {target_rate_hz!r} Hz "
                              f"give grid steps below the normal float range")
    return n_out


def output_length(n_samples: int, source_rate_hz: float, target_rate_hz: float) -> int:
    """Number of wideband samples: round(T * F_s) with T = n / f_s.

    Equals the integer product whenever T * F_s is integral; rounds
    half-to-even otherwise (the residual is exposed as
    ``SidecarHeader.rate_residual``).
    """
    duration_s = check_counts(1, n_samples)[1] / check_rate("source_rate_hz", source_rate_hz)
    length = duration_s * check_rate("target_rate_hz", target_rate_hz)
    if not math.isfinite(length):
        raise ValidationError(f"output length {length:.6g} is not finite")
    return int(round(length))


def destination_grid(n_out: int, target_rate_hz: float) -> np.ndarray:
    """Wideband grid: n_out evenly spaced values over [0, F_s] inclusive."""
    if not (isinstance(n_out, (int, np.integer)) and n_out >= 2):
        raise ValidationError(f"destination grid needs an integer >= 2 points, got {n_out!r}")
    return np.linspace(0.0, check_rate("target_rate_hz", target_rate_hz), n_out)


def source_frequencies(n_samples: int, source_rate_hz: float) -> np.ndarray:
    """Inclusive source grid: k * f_s/(n-1) for k = 0..n-1, spanning 0..f_s."""
    n_samples = check_counts(1, n_samples)[1]
    step = check_rate("source_rate_hz", source_rate_hz) / (n_samples - 1)
    return np.arange(n_samples, dtype=np.float64) * step


def _as_locked(a: np.ndarray) -> np.ndarray:
    """Read-only view of a read-only array that owns its data.

    numpy lets an owning array, or a view of a writable one, be made
    writable again with ``setflags``; a view of a read-only owner cannot be.
    An array that does not own its data is copied first.
    """
    owner = np.ascontiguousarray(a)
    if not owner.flags.owndata:
        owner = owner.copy()
    owner.setflags(write=False)
    return owner.view()


@dataclass(frozen=True)
class MultiChannelRecord:
    """p synchronized real-valued channels of n_samples each, at a common rate.

    ``channels`` is a (p, n_samples) float64 array. All channels must have the
    same length (>= 2) and contain only finite values.
    """

    channels: np.ndarray
    sample_rate_hz: float
    channel_names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        self._settle(np.array(check_array("channels", self.channels, 2), order="C"))

    @classmethod
    def _adopt(cls, channels: np.ndarray, sample_rate_hz: float,
               channel_names=None) -> "MultiChannelRecord":
        """A record that takes ownership of ``channels``, a fresh C-contiguous
        float64 (p, n) array no one else writes: checked as the constructor
        checks it, but locked instead of copied."""
        record = object.__new__(cls)
        object.__setattr__(record, "sample_rate_hz", sample_rate_hz)
        object.__setattr__(record, "channel_names", channel_names)
        record._settle(channels)
        return record

    def _settle(self, rows: np.ndarray) -> None:
        """Check and lock fresh C-contiguous float64 rows, then the other fields."""
        _check_channels(rows)
        object.__setattr__(self, "channels", _as_locked(rows))
        object.__setattr__(self, "sample_rate_hz",
                           check_rate("sample_rate_hz", self.sample_rate_hz))
        if self.channel_names is not None:
            names = tuple(str(n) for n in self.channel_names)
            if len(names) != rows.shape[0]:
                raise ValidationError(
                    f"{len(names)} channel names for {rows.shape[0]} channels")
            object.__setattr__(self, "channel_names", names)

    @property
    def p(self) -> int:
        return self.channels.shape[0]

    @property
    def n_samples(self) -> int:
        return self.channels.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


def _all_finite(values: np.ndarray) -> bool:
    """No NaN or infinity in a float64 array. min and max propagate NaN and
    reach any infinity, and allocate nothing."""
    return bool(np.isfinite(values.min()) and np.isfinite(values.max()))


def _check_channels(rows: np.ndarray) -> None:
    """Check a float64 channel array's shape and values without copying it."""
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValidationError(f"expected a (p, n) channel array, got shape {rows.shape}")
    if rows.shape[1] < 2:
        raise ValidationError(f"channels must hold at least 2 samples, got {rows.shape[1]}")
    if not _all_finite(rows):
        ch, idx = np.argwhere(~np.isfinite(rows))[0]
        raise ValidationError(f"non-finite sample at channel {ch}, index {idx}")


def validate_record(record: MultiChannelRecord) -> None:
    """Re-check every MultiChannelRecord invariant; raise ValidationError if any fails.

    Construction already validates, so this only guards records whose arrays
    were mutated through a non-owning view. The channel array is checked in
    place.
    """
    if not isinstance(record, MultiChannelRecord):
        raise ValidationError(f"expected MultiChannelRecord, got {type(record).__name__}")
    _check_channels(record.channels)
    check_rate("sample_rate_hz", record.sample_rate_hz)


@dataclass(frozen=True)
class ChannelSpectrum:
    """Complex DFT of one channel: n bins spanning 0..source_rate_hz.

    Bin k sits at frequency ``k * source_rate_hz / (n - 1)``, the stretch
    grid used by the mapping stage, which spans the full rate inclusively.
    """

    bins: np.ndarray
    source_rate_hz: float

    def __post_init__(self):
        bins = np.array(check_array("bins", self.bins, 1, np.complex128), order="C")
        if bins.shape[0] < 2:
            raise ValidationError(f"spectrum needs >= 2 bins, got shape {bins.shape}")
        if not _all_finite(bins.view(np.float64)):  # contiguous after the copy
            raise ValidationError("non-finite spectrum bin")
        object.__setattr__(self, "bins", _as_locked(bins))
        object.__setattr__(self, "source_rate_hz",
                           check_rate("source_rate_hz", self.source_rate_hz))

    @property
    def n(self) -> int:
        return self.bins.shape[0]

    def bin_frequency(self, k) -> np.ndarray:
        """Frequency in Hz of bin ``k`` on the 0..rate inclusive grid."""
        return np.asarray(k) * (self.source_rate_hz / (self.n - 1))


@dataclass(frozen=True)
class TransformConfig:
    """Knobs for one encode: target rate, channel count, mode, band order.

    ``stacking_order[b]`` names the (0-based) channel placed in band ``b``;
    bands are always written bottom-up, so the permutation decides which
    channel lands where, not the write sequence. Identity when omitted.
    """

    target_rate_hz: float
    channel_count: int
    mode: str = MODE_REAL_HERMITIAN
    stacking_order: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        check_mode(self.mode)
        p, _ = check_counts(self.channel_count)
        object.__setattr__(self, "target_rate_hz",
                           check_rate("target_rate_hz", self.target_rate_hz))
        order = self.stacking_order
        object.__setattr__(self, "stacking_order",
                           tuple(range(p)) if order is None else check_order(order, p))


@dataclass(frozen=True)
class BandPlan:
    """The computed stretch-and-stack mapping for one configuration.

    ``assignments`` is a read-only (p, n_samples) int64 matrix: row b maps
    band b's source bins to destination indices on ``dest_grid`` (which
    channel occupies band b is decided by ``stacking_order``; the geometry is
    identical for every occupant). ``dest_grid`` is derived from ``n_out``
    and ``target_rate_hz`` on each access rather than stored.

    Collision accounting distinguishes two facts:
      * ``collision_count`` - destination bins written more than once, total.
        Adjacent bands always share their boundary frequency (the source grid
        spans 0..f_s inclusive), so this is >= p-1 for p >= 2.
      * ``lossless`` - True iff ``first_destructive``, the first (band, bin)
        write of an informative lower-half bin that its destination bin does
        not keep, is None: exactly when decoding is exact for real channels
        (the mirror half is reconstructed by conjugate symmetry).
    ``rate_feasible`` is the coarse rate-floor predicate F_s >= p * f_s; it is
    necessary for losslessness but not sufficient (see README).

    Encode's source map covers the n_out//2 + 1 bins that the bands reach
    (every assignment is at most n_out//2), about 9 bytes per bin:
      * ``source`` - intp; bin k's value is read from index ``source[k]`` of
        the channels' rfft bins in channel order, (p, n//2 + 1) flattened,
        with one zero appended at index p*(n//2 + 1) for the bins that no
        band writes.
      * ``sign`` - int8, -1 where the final writer of bin k is a mirror-half
        source bin j >= n//2 + 1, whose value is conj(rfft[c, n - j]), else +1.

    Decode's gather index is ``decode_index``, a contiguous (p, n//2 + 1) intp
    matrix: row c lists the wideband bins that hold channel c's informative
    rfft bins, ``assignments[argsort(stacking_order), :n//2 + 1]``. It is
    8*p*(n//2 + 1) bytes: 1.2 MB at p=30, n=10000 and 2.0 MB at p=64, n=7680.

    ``mapping.build_band_plan`` memoises plans and hands the same instance to
    every caller with an equal configuration; that is safe only because the
    dataclass is frozen and every array is locked (see ``_as_locked``).
    """

    p: int
    n_samples: int
    source_rate_hz: float
    target_rate_hz: float
    n_out: int
    band_width_hz: float
    band_offsets_hz: np.ndarray
    alpha: float
    assignments: np.ndarray
    collision_count: int
    rate_feasible: bool
    first_destructive: Optional[tuple[int, int]]
    source: np.ndarray
    sign: np.ndarray
    decode_index: np.ndarray
    mode: str = MODE_REAL_HERMITIAN
    stacking_order: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for name in ("band_offsets_hz", "assignments", "source", "sign", "decode_index"):
            object.__setattr__(self, name, _as_locked(getattr(self, name)))

    @property
    def lossless(self) -> bool:
        return self.first_destructive is None

    @property
    def dest_grid(self) -> np.ndarray:
        return destination_grid(self.n_out, self.target_rate_hz)

    @property
    def grid_step_hz(self) -> float:
        return self.target_rate_hz / (self.n_out - 1)


@dataclass(frozen=True)
class StackedSpectrum:
    """Wideband complex spectrum after stacking: n_out bins spanning 0..rate."""

    bins: np.ndarray
    rate_hz: float

    def __post_init__(self):
        bins = np.array(check_array("bins", self.bins, 1, np.complex128), order="C")
        if bins.shape[0] < 2:
            raise ValidationError(f"stacked spectrum needs >= 2 bins, got shape {bins.shape}")
        object.__setattr__(self, "rate_hz", check_rate("rate_hz", self.rate_hz))
        object.__setattr__(self, "bins", _as_locked(bins))

    @property
    def n_out(self) -> int:
        return self.bins.shape[0]


@dataclass(frozen=True)
class WidebandSignal:
    """Single-channel output waveform plus everything needed to invert it.

    ``samples`` is float64 in the real modes and complex128 in paper-complex
    mode. The stored samples are peak-normalized by ``provenance.scale`` (an
    exact power of two); multiply by the scale to recover raw amplitudes.
    ``rate_hz`` must equal ``provenance.target_rate_hz``.
    """

    samples: np.ndarray
    rate_hz: float
    provenance: "SidecarHeader"

    def __post_init__(self):
        self._settle(np.array(check_array("samples", self.samples, 1, None), order="C"))

    @classmethod
    def _adopt(cls, samples: np.ndarray, rate_hz: float,
               provenance: "SidecarHeader") -> "WidebandSignal":
        """A signal that takes ownership of ``samples``, a fresh contiguous
        float64 or complex128 array no one else writes: checked as the
        constructor checks it, but locked instead of copied."""
        signal = object.__new__(cls)
        object.__setattr__(signal, "rate_hz", rate_hz)
        object.__setattr__(signal, "provenance", provenance)
        signal._settle(samples)
        return signal

    def _settle(self, samples: np.ndarray) -> None:
        """Check a fresh contiguous float64 or complex128 sample vector that
        no one else writes and the other fields, then store it locked."""
        if samples.shape[0] < 2:
            raise ValidationError(f"wideband signal needs >= 2 samples, got {samples.shape}")
        if not _all_finite(samples.view(np.float64)):
            raise ValidationError("non-finite wideband sample")
        if self.provenance is None:
            raise ValidationError("wideband signal requires provenance")
        if self.provenance.n_out != samples.shape[0]:
            raise ValidationError(
                f"provenance says {self.provenance.n_out} samples, got {samples.shape[0]}")
        rate_hz = check_rate("rate_hz", self.rate_hz)
        if rate_hz != self.provenance.target_rate_hz:
            raise ValidationError(f"provenance says {self.provenance.target_rate_hz!r} Hz, "
                                  f"got rate_hz={rate_hz!r}")
        object.__setattr__(self, "samples", _as_locked(samples))
        object.__setattr__(self, "rate_hz", rate_hz)

    @property
    def n_out(self) -> int:
        return self.samples.shape[0]

    @property
    def is_complex(self) -> bool:
        return self.samples.dtype.kind == "c"

    def denormalized(self) -> np.ndarray:
        """Samples with the provenance scale multiplied back in (exact: the
        scale is a power of two)."""
        return self.samples * self.provenance.scale


