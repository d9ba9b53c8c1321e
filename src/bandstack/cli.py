"""Command-line interface.

Subcommands: encode, decode, verify, spectrogram, synth, info.
Channel numbering on this surface is 1-based. Exit codes are a stable
contract: 0 success, 1 I/O failure or out of memory, 2 validation/format
failure (also used when `verify` exceeds its error threshold), 3 infeasible
strict-lossless configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from functools import lru_cache

from bandstack import io as bio
from bandstack.features import spectrogram, spectrogram_meta
from bandstack.mapping import build_band_plan
from bandstack.model import (
    MODE_REAL_HERMITIAN,
    MODES,
    CollisionWarning,
    DecodeError,
    FormatError,
    InfeasibleError,
    TransformConfig,
    ValidationError,
)
from bandstack.synth import make_bandnoise, make_tones
from bandstack.transform import decode, encode, roundtrip_report

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3


def _parse_order(spec: str, p: int):
    if spec in (None, "", "identity"):
        return None
    if spec == "reverse":
        return tuple(reversed(range(p)))
    try:
        numbers = [int(tok) for tok in spec.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad --order {spec!r}: expected 'identity', 'reverse' or a "
                              f"comma-separated 1-based permutation") from exc
    # Checked here, in the user's own 1-based numbers; the library speaks 0-based.
    if sorted(numbers) != list(range(1, p + 1)):
        raise ValidationError(f"bad --order {spec!r}: stacking_order must be a permutation "
                              f"of 1..{p} (1-based), one number per channel")
    return tuple(k - 1 for k in numbers)


def _record_and_config(args):
    """The input record of encode or verify, and the configuration its flags give."""
    record = bio.read_multichannel(args.input, format=args.input_format, rate_hz=args.rate)
    return record, TransformConfig(args.target_rate, record.p, args.mode,
                                   _parse_order(args.order, record.p))


def _print_summary(plan) -> None:
    print(f"plan: p={plan.p} n={plan.n_samples} f_s={plan.source_rate_hz:g} Hz "
          f"F_s={plan.target_rate_hz:g} Hz mode={plan.mode}")
    print(f"  f_band={plan.band_width_hz:.6g} Hz  n_out={plan.n_out}  "
          f"collision_count={plan.collision_count}")
    print(f"  lossless feasible (F_s >= p*f_s): {'yes' if plan.rate_feasible else 'no'}  "
          f"exact inversion: {'yes' if plan.lossless else 'no'}")


def cmd_encode(args) -> int:
    record, config = _record_and_config(args)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CollisionWarning)
        signal = encode(record, config)
    # encode built this plan, so this is a cache hit
    plan = build_band_plan(record.p, record.n_samples, record.sample_rate_hz, config)
    _print_summary(plan)
    bio.write_wideband(signal, args.output, format=args.wideband_format)
    print(f"wrote {args.output} (+ {bio.sidecar_path(args.output)})")
    return EXIT_OK


def cmd_decode(args) -> int:
    signal = bio.read_wideband(args.input)
    record = decode(signal)
    bio.write_multichannel(record, args.output, format=args.output_format)
    print(f"decoded {record.p} channels x {record.n_samples} samples "
          f"@ {record.sample_rate_hz:g} Hz -> {args.output}")
    if args.compare:
        original = bio.read_multichannel(args.compare, rate_hz=record.sample_rate_hz)
        if original.channels.shape != record.channels.shape:
            raise ValidationError(
                f"--compare shape {original.channels.shape} does not match "
                f"decoded {record.channels.shape}")
        import numpy as np
        rmse = np.sqrt(((original.channels - record.channels) ** 2).mean(axis=1))
        for i, v in enumerate(rmse, start=1):
            print(f"  channel {i} rmse: {v:.6g}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if not args.threshold >= 0:  # NaN too
        raise ValidationError(f"bad --threshold {args.threshold!r}: expected a number >= 0")
    record, config = _record_and_config(args)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CollisionWarning)
        report = roundtrip_report(record, config)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"max_abs_error (relative): {report.max_abs_error:.6g}")
        for i, v in enumerate(report.per_channel_rmse, start=1):
            print(f"  channel {i} rmse: {v:.6g}")
        print(f"collision_count: {report.collision_count}")
        print(f"mode: {report.mode}  rate feasible (F_s >= p*f_s): "
              f"{'yes' if report.rate_feasible else 'no'}  "
              f"exact inversion: {'yes' if report.lossless else 'no'}")
    if report.max_abs_error < args.threshold:
        return EXIT_OK
    print(f"error {report.max_abs_error:.6g} exceeds threshold {args.threshold:g}",
          file=sys.stderr)
    return EXIT_VALIDATION


def cmd_spectrogram(args) -> int:
    signal = bio.read_wideband(args.input)
    matrix = spectrogram(signal, args.window, args.overlap,
                         paper_shape=args.paper_shape, log=args.log)
    meta = spectrogram_meta(args.window, args.overlap, args.paper_shape, args.log)
    bio.write_matrix(matrix, args.output, format=args.matrix_format, meta=meta)
    print(f"{matrix.shape[0]} x {matrix.shape[1]}")
    return EXIT_OK


def _parse_tones(spec: str, p: int):
    tones = [[] for _ in range(p)]
    for part in spec.split(","):
        fields = part.split(":")
        if len(fields) not in (2, 3, 4):
            raise ValidationError(f"bad tone {part!r}: expected CH:FREQ[:AMP[:PHASE]]")
        try:
            ch = int(fields[0]) - 1
            freq = float(fields[1])
            amp = float(fields[2]) if len(fields) > 2 else 1.0
            phase = float(fields[3]) if len(fields) > 3 else 0.0
        except ValueError as exc:
            raise ValidationError(f"bad tone {part!r}: CH must be an integer and "
                                  f"FREQ[:AMP[:PHASE]] numbers") from exc
        if not 0 <= ch < p:
            raise ValidationError(f"tone channel {fields[0]} out of range 1..{p}")
        tones[ch].append((freq, amp, phase))
    return tones


def cmd_synth(args) -> int:
    if (args.band is None) == (args.tones is None):
        raise ValidationError("pass exactly one of --band or --tones")
    if args.band is not None:
        noise = make_bandnoise(args.channels, args.samples, args.rate,
                               args.band, seed=args.seed)
        record = noise.record
        if noise.truncated:
            print(f"note: band {args.band} truncated at Nyquist "
                  f"({args.rate / 2:g} Hz)")
    else:
        record = make_tones(args.channels, args.samples, args.rate,
                            _parse_tones(args.tones, args.channels))
    bio.write_multichannel(record, args.output, format=args.output_format)
    print(f"wrote {record.p} channels x {record.n_samples} samples "
          f"@ {record.sample_rate_hz:g} Hz -> {args.output}")
    return EXIT_OK


def cmd_info(args) -> int:
    payload = bio.read_sidecar_file(args.path)
    for key in sorted(payload):
        print(f"{key}: {payload[key]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandstack",
        description="Reversible multichannel-to-single-channel spectral codec.")
    sub = parser.add_subparsers(dest="command", required=True)

    # the record and configuration flags that encode and verify share
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--rate", type=float, default=None,
                        help="source sample rate in Hz (CSV without a rate comment)")
    shared.add_argument("--target-rate", type=float, required=True,
                        help="wideband sample rate F_s in Hz")
    shared.add_argument("--mode", choices=MODES, default=MODE_REAL_HERMITIAN)
    shared.add_argument("--order", default="identity",
                        help="'identity', 'reverse', or a 1-based permutation like 3,1,2")
    shared.add_argument("--input-format", choices=bio.RECORD_FORMATS, default=None)

    enc = sub.add_parser("encode", parents=[shared],
                         help="stack a multichannel record into one waveform")
    enc.add_argument("input")
    enc.add_argument("output")
    enc.add_argument("--wideband-format", choices=bio.WIDEBAND_FORMATS, default=None)
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="recover the channels from a wideband file")
    dec.add_argument("input")
    dec.add_argument("output")
    dec.add_argument("--compare", default=None,
                     help="original record (CSV/raw) to report per-channel RMSE against")
    dec.add_argument("--output-format", choices=bio.RECORD_FORMATS, default=None)
    dec.set_defaults(func=cmd_decode)

    ver = sub.add_parser("verify", parents=[shared],
                         help="measure encode->decode fidelity of a record")
    ver.add_argument("input")
    ver.add_argument("--threshold", type=float, default=1e-9,
                     help="relative max-abs error below which exit code is 0")
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=cmd_verify)

    spec = sub.add_parser("spectrogram", help="magnitude STFT of a wideband file")
    spec.add_argument("input")
    spec.add_argument("output")
    spec.add_argument("--window", type=int, default=1024)
    spec.add_argument("--overlap", type=int, default=768)
    spec.add_argument("--paper-shape", action="store_true",
                      help="drop the final frame (some toolkits do)")
    spec.add_argument("--log", action="store_true", help="log-magnitude (dB)")
    spec.add_argument("--matrix-format", choices=bio.RECORD_FORMATS, default=None)
    spec.set_defaults(func=cmd_spectrogram)

    syn = sub.add_parser("synth", help="generate a deterministic synthetic record")
    syn.add_argument("output")
    syn.add_argument("--channels", "-p", type=int, default=1)
    syn.add_argument("--samples", "-n", type=int, default=1000)
    syn.add_argument("--rate", type=float, default=250.0)
    syn.add_argument("--band", default=None,
                     help="EEG band name for masked noise (delta..gamma)")
    syn.add_argument("--tones", default=None,
                     help="comma-separated CH:FREQ[:AMP[:PHASE]] entries (1-based channel)")
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--output-format", choices=bio.RECORD_FORMATS, default=None)
    syn.set_defaults(func=cmd_synth)

    info = sub.add_parser("info", help="print the sidecar of an artifact file")
    info.add_argument("path")
    info.set_defaults(func=cmd_info)

    return parser


_parser = lru_cache(maxsize=1)(build_parser)  # ~1.3 ms to build: main builds it once, lazily


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValidationError, FormatError, DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
