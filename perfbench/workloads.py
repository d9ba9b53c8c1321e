"""The benchmark's workloads: one request each, its output checks, and the
layer replay of the traced run.

A request is the work a user waits for. ``request`` times it and returns the
outputs; it calls ``between`` after encode, outside its timing, where the
runner times the host-speed kernel (hostspeed.py). ``check`` validates the
outputs outside the timed spans. In the traced run ``replay`` then calls,
on the same inputs, the public functions that the request used internally,
each in its own span, and proves the replay did the same work by reproducing
the request's outputs.

Layers that a workload's request does not call (features and the file path
for the in-memory workloads) are replayed on the request's data as well, so
every per-layer metric is measured on every workload; README.md says where
each layer is on the request path.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
from bandstack import cli
from bandstack import io as bio
from bandstack.features import band_energies, spectrogram
from bandstack.mapping import apply_stacking, build_band_plan, stack_fast
from bandstack.model import (
    MODE_PAPER_COMPLEX,
    MODE_REAL_HERMITIAN,
    MODE_STRICT_LOSSLESS,
    MultiChannelRecord,
    TransformConfig,
    WidebandSignal,
)
from bandstack.spectrum import dft, forward_fft, hermitian_extend, inverse_fft
from bandstack.transform import decode, encode

WINDOW, OVERLAP = 1024, 768
# The replayed layers must reproduce the request's samples this closely.
REPLAY_TOLERANCE = 1e-12
# Round trips through float64 FFTs only.
LOSSLESS_TOLERANCE = 1e-9
# float32 WAV: 2**-24 relative per stored sample, summed over a channel's bins
# by the decode; measured errors stay below 5e-8.
F32_WAV_TOLERANCE = 1e-7

LAYER_SPANS = (
    "mapping.build_band_plan", "mapping.stack_fast", "mapping.apply_stacking",
    "spectrum.forward_fft", "spectrum.wideband_inverse", "spectrum.wideband_dft",
    "spectrum.channel_inverse", "features.spectrogram", "features.band_energies",
    "io.read_multichannel", "io.write_multichannel", "io.write_wideband",
    "io.read_wideband",
)
_FILE_IO_SPANS = ("io.read_multichannel", "io.write_wideband", "io.read_wideband",
                  "io.write_multichannel")


@dataclass
class Timing:
    encode_s: float
    decode_s: float
    rest_s: float  # the request after ``between``: decode, and features if any

    @property
    def request_s(self) -> float:
        return self.encode_s + self.rest_s


def spectrogram_frames(n_out: int) -> int:
    """Frames of the paper-shape spectrogram (the final frame dropped)."""
    return (n_out - WINDOW) // (WINDOW - OVERLAP)


def rel_error(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| over the peak magnitude of ``want``."""
    return float(np.abs(got - want).max() / np.abs(want).max())


def run_cli(argv: list[str]) -> int:
    """``cli.main`` in this process, with its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _file_bytes(*paths: Path) -> int:
    """Sizes of data files plus the sidecars that exist next to them."""
    total = 0
    for path in paths:
        total += path.stat().st_size
        sidecar = Path(bio.sidecar_path(path))
        if sidecar.exists():
            total += sidecar.stat().st_size
    return total


class Workload:
    """Shared plumbing; subclasses define the request and its checks."""

    name: str
    p: int
    rate_hz: float
    target_hz: float
    mode: str
    features_in_request = False
    reference = "numpy-fft"  # the hostspeed kernel whose work resembles the request's

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.config = TransformConfig(self.target_hz, self.p, mode=self.mode)

    def make_record(self, request: int, n: int) -> MultiChannelRecord:
        rng = inputs.request_rng(self.seed, request)
        return MultiChannelRecord(inputs.channels(rng, self.p, n, self.rate_hz),
                                  self.rate_hz)

    def fft_points(self, n: int, n_out: int) -> int:
        """DFT points one request transforms: p channel spectra and one
        wideband inverse to encode, the reverse to decode, plus the features."""
        points = 2 * (self.p * n + n_out)
        if self.features_in_request:
            points += spectrogram_frames(n_out) * WINDOW + self.p * n
        return points

    def plan_counts(self, n: int) -> dict[str, float]:
        plan = build_band_plan(self.p, n, self.rate_hz, self.config)
        plan_bytes = (sum(a.nbytes for a in plan.assignments) + plan.dest_grid.nbytes
                      + plan.band_offsets_hz.nbytes)
        return {
            "mapping.n_out": plan.n_out,
            "mapping.collision_count": plan.collision_count,
            "mapping.plan_bytes": plan_bytes,
            "spectrum.fft_points": self.fft_points(n, plan.n_out),
        }

    def prepare(self, first: int, count: int) -> None:
        """Nothing to write ahead: in-memory inputs are made per request."""

    def discard_input(self, inp) -> None:
        """In-memory inputs need no clean-up."""


def replay_transform(sp, record: MultiChannelRecord, config: TransformConfig,
                     signal: WidebandSignal, received: WidebandSignal,
                     decoded: MultiChannelRecord) -> list[str]:
    """Replay encode(record) and decode(received) layer by layer.

    ``signal`` is what encode returned and ``decoded`` what decode returned
    for ``received`` (the signal as the decoder got it: after a WAV round
    trip on the file path). Returns the replay-check failures.
    """
    p, n, rate = record.p, record.n_samples, record.sample_rate_hz
    complex_mode = config.mode == MODE_PAPER_COMPLEX
    problems = []

    # The assignment kernel on its own; build_band_plan runs it inside.
    with sp.span("mapping.stack_fast"):
        for band in range(p):
            stack_fast(p, n, rate, config.target_rate_hz, band)
    with sp.span("replay.encode"):
        with sp.span("mapping.build_band_plan"):
            plan = build_band_plan(p, n, rate, config)
        with sp.span("spectrum.forward_fft"):
            spectra = [forward_fft(channel, rate) for channel in record.channels]
        with sp.span("mapping.apply_stacking"):
            stacked = apply_stacking(spectra, plan)
        if complex_mode:
            with sp.span("spectrum.wideband_inverse"):
                wave = inverse_fft(stacked.bins)
        else:
            lower = stacked.bins.copy()
            lower[1:(plan.n_out + 1) // 2] *= 0.5
            with sp.span("spectrum.wideband_inverse"):
                wave = inverse_fft(hermitian_extend(lower)).real
    err = rel_error(wave, signal.denormalized())
    if err > REPLAY_TOLERANCE:
        problems.append(f"encode replay differs from encode by {err:.3g}")

    with sp.span("replay.decode"):
        with sp.span("mapping.build_band_plan"):
            plan = build_band_plan(p, n, rate, config)
        raw_samples = received.samples * received.provenance.scale
        with sp.span("spectrum.wideband_dft"):
            raw = dft(raw_samples)
        half = n // 2
        n_out = plan.n_out
        lowers = np.zeros((p, n), dtype=np.complex128)
        for band in range(p):
            idx = plan.assignments[band][:half + 1]
            vals = raw[idx]
            if not complex_mode:
                edge = (idx == 0) | ((n_out % 2 == 0) & (idx == n_out // 2))
                vals = vals * np.where(edge, 1.0, 2.0)
            lowers[band, :half + 1] = vals
        with sp.span("spectrum.channel_inverse"):
            waves = [inverse_fft(hermitian_extend(lower)) for lower in lowers]
    channels = np.empty((p, n))
    for band, w in enumerate(waves):
        channels[plan.stacking_order[band]] = w.real
    err = rel_error(channels, decoded.channels)
    if err > REPLAY_TOLERANCE:
        problems.append(f"decode replay differs from decode by {err:.3g}")
    return problems


def replay_features(sp, signal: WidebandSignal, record: MultiChannelRecord) -> None:
    """Features of a request that does not compute them itself.

    A paper-complex signal is not a waveform; its real part is the
    real-hermitian waveform of the same record, which is what gets analysed.
    """
    if signal.is_complex:
        signal = WidebandSignal(signal.samples.real, signal.rate_hz, signal.provenance)
    with sp.span("features.spectrogram"):
        spectrogram(signal, WINDOW, OVERLAP, paper_shape=True)
    with sp.span("features.band_energies"):
        band_energies(record)


class MemoryWorkload(Workload):
    """encode -> [features] -> decode on in-memory arrays, fixed size."""

    n: int
    max_error: float | None  # round-trip bound; None for a lossy configuration

    def make_input(self, request: int) -> MultiChannelRecord:
        return self.make_record(request, self.n)

    def request(self, record, sp, between):
        t0 = perf_counter()
        with sp.span("transform.encode"):
            signal = encode(record, self.config)
        t1 = perf_counter()
        between()
        t2 = perf_counter()
        spec = energies = None
        if self.features_in_request:
            with sp.span("features.spectrogram"):
                spec = spectrogram(signal, WINDOW, OVERLAP, paper_shape=True)
            with sp.span("features.band_energies"):
                energies = band_energies(record)
        t3 = perf_counter()
        with sp.span("transform.decode"):
            decoded = decode(signal)
        t4 = perf_counter()
        return Timing(t1 - t0, t4 - t3, t4 - t2), (signal, decoded, spec, energies)

    def check(self, record, out) -> tuple[float, list[str]]:
        signal, decoded, spec, energies = out
        problems = []
        if decoded.channels.shape != record.channels.shape:
            return math.inf, [f"decoded shape {decoded.channels.shape}"]
        err = rel_error(decoded.channels, record.channels)
        if self.max_error is not None and not err < self.max_error:
            problems.append(f"round-trip error {err:.3g} >= {self.max_error:g}")
        if self.features_in_request:
            problems += self.check_features(record, signal.n_out, spec, energies)
        return err, problems

    def check_features(self, record, n_out, spec, energies) -> list[str]:
        if spec.shape != (WINDOW // 2 + 1, spectrogram_frames(n_out)):
            return [f"spectrogram shape {spec.shape}"]
        if len(energies) != self.p or not all(
                np.isfinite(list(e.values())).all() for e in energies):
            return ["band energies missing or not finite"]
        # Channel c occupies band c (identity order). Its marker must be the
        # strongest row of the band's informative lower half, found within
        # one row of where the stretch puts it. The band's first two rows
        # hold the noise and the previous band's mirror edge, so the search
        # starts after them.
        mean = spec.mean(axis=1)
        row_hz = self.target_hz / WINDOW
        band_hz = self.target_hz / (2 * self.p)
        n = record.n_samples
        stretch = band_hz / self.rate_hz * n / (n - 1)
        problems = []
        for c, tone in enumerate(inputs.marker_hz(self.p, n, self.rate_hz)):
            lo = math.ceil(c * band_hz / row_hz) + 2
            hi = math.floor((c + 0.5) * band_hz / row_hz)
            expected = (c * band_hz + tone * stretch) / row_hz
            peak = lo + int(np.argmax(mean[lo:hi + 1]))
            if abs(peak - expected) > 1:
                problems.append(f"channel {c + 1} marker at row {peak}, "
                                f"expected {expected:.1f}")
        return problems

    def replay(self, record, out, sp) -> list[str]:
        signal, decoded, _spec, _energies = out
        problems = replay_transform(sp, record, self.config, signal, signal, decoded)
        if not self.features_in_request:
            replay_features(sp, signal, record)
        # The file path on the same data, in bit-exact binary record files.
        raw_in = self.work / "in.f64"
        wide = self.work / ("wide.f64" if signal.is_complex else "wide.wav")
        raw_out = self.work / "out.f64"
        bio.write_multichannel(record, raw_in, format="raw-f64")
        with sp.span("cli.encode"):
            rc_enc = run_cli(["encode", str(raw_in), str(wide),
                              "--target-rate", repr(self.target_hz), "--mode", self.mode])
        with sp.span("cli.decode"):
            rc_dec = run_cli(["decode", str(wide), str(raw_out)])
        if (rc_enc, rc_dec) != (0, 0):
            problems.append(f"cli exit codes {rc_enc}, {rc_dec}")
        copy_wide = self.work / ("copy-" + wide.name)
        with sp.span("io.read_multichannel"):
            bio.read_multichannel(raw_in)
        with sp.span("io.write_wideband"):
            bio.write_wideband(signal, copy_wide)
        with sp.span("io.read_wideband"):
            bio.read_wideband(copy_wide)
        with sp.span("io.write_multichannel"):
            bio.write_multichannel(decoded, self.work / "copy-out.f64")
        self.io_counts = {"io.bytes_read": _file_bytes(raw_in, wide),
                          "io.bytes_written": _file_bytes(wide, raw_out)}
        return problems

    def counts(self) -> dict[str, float]:
        return {**self.plan_counts(self.n), **self.io_counts}


class FilesWorkload(Workload):
    """CSV -> WAV+sidecar -> CSV through cli.main, n varying per request."""

    name = "files-csv-wav"
    p = 8
    rate_hz = 250.0
    target_hz = 4000.0
    mode = MODE_STRICT_LOSSLESS
    n_range = (12000, 18000)
    reference = "text-and-fft"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.wav = work / "wide.wav"
        self.out_csv = work / "out.csv"

    def length(self, request: int) -> int:
        if request == 0:  # the warm-up, also run by every set-up probe
            return sum(self.n_range) // 2
        return inputs.spread_length(request, *self.n_range)

    def csv_path(self, request: int) -> Path:
        return self.work / f"in-{request}.csv"

    def write_input(self, request: int) -> None:
        record = self.make_record(request, self.length(request))
        inputs.write_csv(self.csv_path(request), record.channels, self.rate_hz)

    def prepare(self, first: int, count: int) -> None:
        """Write the input CSVs of requests first..first+count-1 ahead of time."""
        for request in range(first, first + count):
            self.write_input(request)

    def make_input(self, request: int) -> tuple[int, Path]:
        path = self.csv_path(request)
        if not path.exists():
            self.write_input(request)
        return request, path

    def request(self, inp, sp, between):
        _request, path = inp
        t0 = perf_counter()
        with sp.span("cli.encode"):
            rc_enc = run_cli(["encode", str(path), str(self.wav),
                              "--target-rate", repr(self.target_hz), "--mode", self.mode])
        t1 = perf_counter()
        between()
        t2 = perf_counter()
        with sp.span("cli.decode"):
            rc_dec = run_cli(["decode", str(self.wav), str(self.out_csv)])
        t3 = perf_counter()
        return Timing(t1 - t0, t3 - t2, t3 - t2), (rc_enc, rc_dec)

    def check(self, inp, out) -> tuple[float, list[str]]:
        if out != (0, 0):
            return math.inf, [f"cli exit codes {out}"]
        request, _path = inp
        original = self.make_record(request, self.length(request)).channels
        decoded = inputs.read_csv(self.out_csv)
        if decoded.shape != original.shape:
            return math.inf, [f"decoded shape {decoded.shape}, want {original.shape}"]
        err = rel_error(decoded, original)
        if not err < F32_WAV_TOLERANCE:
            return err, [f"round-trip error {err:.3g} >= {F32_WAV_TOLERANCE:g}"]
        return err, []

    def replay(self, inp, out, sp) -> list[str]:
        _request, path = inp
        copy_wav = self.work / "copy-wide.wav"
        with sp.span("io.read_multichannel"):
            record = bio.read_multichannel(path)
        with sp.span("transform.encode"):
            signal = encode(record, self.config)
        with sp.span("io.write_wideband"):
            bio.write_wideband(signal, copy_wav)
        with sp.span("io.read_wideband"):
            received = bio.read_wideband(copy_wav)
        with sp.span("transform.decode"):
            decoded = decode(received)
        with sp.span("io.write_multichannel"):
            bio.write_multichannel(decoded, self.work / "copy-out.csv")
        problems = replay_transform(sp, record, self.config, signal, received, decoded)
        replay_features(sp, received, decoded)
        self.io_counts = {"io.bytes_read": _file_bytes(path, self.wav),
                          "io.bytes_written": _file_bytes(self.wav, self.out_csv)}
        self.last_n = record.n_samples
        return problems

    def counts(self) -> dict[str, float]:
        return {**self.plan_counts(self.last_n), **self.io_counts}

    def discard_input(self, inp) -> None:
        inp[1].unlink()


class Eeg16kModelFeed(MemoryWorkload):
    name = "eeg16k-model-feed"
    p, n, rate_hz, target_hz = 30, 10000, 1000.0, 16000.0
    mode = MODE_REAL_HERMITIAN
    features_in_request = True
    max_error = None  # lossy by design: far below the rate floor


class Wide64Complex(MemoryWorkload):
    name = "wide64-complex"
    p, n, rate_hz, target_hz = 64, 7680, 256.0, 32768.0
    mode = MODE_PAPER_COMPLEX
    max_error = LOSSLESS_TOLERANCE


WORKLOADS = {w.name: w for w in (Eeg16kModelFeed, Wide64Complex, FilesWorkload)}


def layer_metrics(seconds: dict[str, float], children: dict[str, float]) -> dict[str, float]:
    """Per-layer milliseconds of one traced request.

    ``seconds`` totals each span name; ``children`` totals the child spans
    of each parent name (the replayed layers under replay.encode/decode).
    """
    ms = {f"{name}_ms": 1e3 * seconds.get(name, 0.0) for name in LAYER_SPANS}
    ms["transform.encode_self_ms"] = 1e3 * (
        seconds["transform.encode"] - children["replay.encode"])
    ms["transform.decode_self_ms"] = 1e3 * (
        seconds["transform.decode"] - children["replay.decode"])
    inner = sum(seconds[name] for name in _FILE_IO_SPANS) \
        + seconds["transform.encode"] + seconds["transform.decode"]
    ms["cli.self_ms"] = 1e3 * (seconds["cli.encode"] + seconds["cli.decode"] - inner)
    return ms

