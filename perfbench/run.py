"""bandstack benchmark: one closed-loop caller, one workload per run.

    python3 perfbench/run.py --workload eeg16k-model-feed [--seed 0] [--seconds S] [--trace 0]

Run from anywhere: the program under test is imported from ``src/`` of the
checkout that holds this file, and the run refuses to start without it.
Requests run back to back in this process, each on a fresh record made from
(seed, request index), for ``--seconds`` of wall time (default: the
``run_seconds`` of BENCHMARK.json). Every output is checked outside the timed
spans. One untimed warm-up request comes first.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json. Every
time among them is scaled to a nominal host speed: a fixed reference kernel
(hostspeed.py) is timed between requests and between the encode and the rest
of each request, and each part's time is multiplied by the kernel's nominal
over the mean of the kernel times just before and after it. The unscaled
wall times are printed too, on comment lines. Set-up time is measured in
fresh processes started at evenly spaced points of the loop: from their
start to the end of their warm-up request, scaled the same way, the median
of several. ``--trace 1`` alternates untraced and traced requests. A traced
request records spans around its end-to-end calls, then replays each layer
(see workloads.py) and reports the per-layer metrics; its tracing overhead
is the traced minus the untraced request time.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The lines above it show every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# One compute thread: a BLAS pool of one thread per core would measure the
# scheduler. Set before numpy is imported; set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hostspeed import Reference  # noqa: E402 (imports numpy)
from spans import NoSpans, Spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
MAX_REPORTED_FAILURES = 5


def import_program():
    """Import bandstack from this checkout's src/, never from elsewhere."""
    package = SRC / "bandstack"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a bandstack checkout")
    sys.path.insert(0, str(SRC))
    import bandstack

    if Path(bandstack.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported bandstack from {bandstack.__file__}, not {package}")
    return bandstack


def parse_args(names, run_seconds):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: run the warm-up request, report, exit")
    return parser.parse_args()


def git_rev() -> str:
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def warm_up(wl, inp, spans=None) -> float:
    """Request 0: untimed; fills import-time and first-call caches. With
    ``spans`` it is traced and replayed too, which sets the workload's counts.
    Returns the seconds it took, checks included."""
    start = perf_counter()
    _timing, out = wl.request(inp, spans or NoSpans(), lambda: None)
    problems = wl.check(inp, out)[1]
    if spans is not None:
        problems += wl.replay(inp, out, spans)
    wl.discard_input(inp)
    if problems:
        raise RuntimeError(f"warm-up request failed its checks: {problems}")
    return perf_counter() - start


def setup_probe(wl) -> None:
    """Child side of the set-up measurement: the parent times this process
    and subtracts the input generation reported here."""
    start = perf_counter()
    inp = wl.make_input(0)
    gen_s = perf_counter() - start
    warm_up(wl, inp)
    print(json.dumps({"gen_s": gen_s}), flush=True)


def measure_setup(args, reference: Reference) -> float:
    """Seconds from the start of a fresh process to the end of its warm-up
    request, minus the probe's own input generation, scaled to the nominal
    host by the reference kernel timed before and after the probe."""
    before = reference.time()
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    start = perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    scale = reference.scale(before, reference.time())
    return (ready - start - json.loads(line)["gen_s"]) * scale


@dataclass
class Loop:
    plain: list = field(default_factory=list)   # Timing of untraced requests
    after: list = field(default_factory=list)   # kernel_s index after each of them
    kernel_s: list = field(default_factory=list)  # reference kernel times, in order
    traced: dict = field(default_factory=dict)  # request id -> Timing
    errors: list = field(default_factory=list)  # round-trip error per ok request
    setup_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_requests(wl, seconds: float, reference: Reference, spans=None,
                 probe=None) -> Loop:
    """Closed loop for ``seconds``; with ``spans``, every other request is traced.

    ``reference`` is timed after each probe and, outside the request
    timing, before each request, after its encode and after the request;
    the times give the requests' host-speed scales.

    ``probe``, when given, runs SETUP_PROBES times at evenly spaced points of
    the loop, so that its samples see the machine as the requests do; the
    loop is extended by the time the probes take.
    """
    loop = Loop()
    no_spans = NoSpans()
    start = perf_counter()
    paused = 0.0
    request = 1

    def time_kernel():
        loop.kernel_s.append(reference.time())

    time_kernel()
    while True:
        active = perf_counter() - start - paused
        if probe and len(loop.setup_s) < SETUP_PROBES \
                and active >= len(loop.setup_s) * seconds / SETUP_PROBES:
            pause = perf_counter()
            loop.setup_s.append(probe())
            time_kernel()
            paused += perf_counter() - pause
            continue
        done = loop.plain and (spans is None or loop.traced)
        if active >= seconds and (done or loop.failed):
            return loop
        tracing = spans is not None and request % 2 == 1
        sp = spans if tracing else no_spans
        inp = wl.make_input(request)
        loop.attempted += 1
        try:
            if tracing:
                spans.begin_request(request)
            with sp.span("request"):
                timing, out = wl.request(inp, sp, time_kernel)
            time_kernel()
            err, problems = wl.check(inp, out)
            if tracing:
                problems += wl.replay(inp, out, spans)
        except Exception as exc:  # a failing request is counted; the run goes on
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            wl.discard_input(inp)
        if problems:
            loop.failed += 1
            if loop.failed <= MAX_REPORTED_FAILURES:
                print(f"request {request} failed: {'; '.join(problems)}", file=sys.stderr)
        else:
            loop.errors.append(err)
            if tracing:
                loop.traced[request] = timing
            else:
                loop.plain.append(timing)
                loop.after.append(len(loop.kernel_s) - 1)
        request += 1


def scaled_timings(loop: Loop, reference: Reference) -> list:
    """The untraced requests' times on the nominal host: encode scaled by the
    kernels before and after it, the rest by the kernels after encode and
    after the request."""
    from workloads import Timing

    k = loop.kernel_s
    timings = []
    for t, i in zip(loop.plain, loop.after):
        first = reference.scale(k[i - 2], k[i - 1])
        rest = reference.scale(k[i - 1], k[i])
        timings.append(Timing(t.encode_s * first, t.decode_s * rest, t.rest_s * rest))
    return timings


def end_to_end_values(loop: Loop, timings: list) -> dict[str, float]:
    """The end-to-end metrics of ``timings``, one per untraced request."""
    import numpy as np

    request_s = np.array([t.request_s for t in timings])
    values = {"setup_s": statistics.median(loop.setup_s),
              "records_per_s": len(request_s) / request_s.sum()}
    for part in ("request", "encode", "decode"):
        ms = 1e3 * np.array([getattr(t, f"{part}_s") for t in timings])
        values[f"{part}_ms_p50"] = float(np.percentile(ms, 50))
        values[f"{part}_ms_p90"] = float(np.percentile(ms, 90))
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["error_rate"] = loop.failed / loop.attempted
    values["max_rel_error"] = max(loop.errors)
    return values


def layer_values(loop: Loop, spans: Spans, counts: dict) -> dict[str, float]:
    from workloads import layer_metrics

    per_request = [layer_metrics(*spans.totals(r)) for r in loop.traced]
    values = {name: statistics.median(row[name] for row in per_request)
              for name in per_request[0]}
    values.update(counts)
    values["trace.overhead_ms"] = 1e3 * (
        statistics.median(t.request_s for t in loop.traced.values())
        - statistics.median(t.request_s for t in loop.plain))
    return values


def main() -> int:
    bandstack = import_program()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import warnings

    import numpy as np
    import workloads
    from bandstack._kernels import active_lane
    from bandstack.model import CollisionWarning

    args = parse_args(sorted(workloads.WORKLOADS), benchmark["run_seconds"])
    # eeg16k-model-feed is lossy on purpose; encode warns on every call.
    warnings.simplefilter("ignore", CollisionWarning)
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        if args.setup_probe:
            setup_probe(wl)
            return 0
        spans = Spans() if args.trace else None
        if spans:
            spans.begin_request(0)
        warm_s = warm_up(wl, wl.make_input(0), spans)
        counts = wl.counts() if spans else {}
        wl.prepare(1, math.ceil(args.seconds / warm_s) + 2)
        reference = Reference(wl.reference)
        probe = None if spans else (lambda: measure_setup(args, reference))
        loop = run_requests(wl, args.seconds, reference, spans, probe)
    finally:
        shutil.rmtree(work)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if not loop.plain or (spans and not loop.traced):
        sys.exit("error: too many requests failed; no metrics to report")

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"bandstack {bandstack.__version__}, git {git_rev()}, kernel lane "
          f"{active_lane()}, numpy {np.__version__}, python "
          f"{platform.python_version()}, nproc {os.cpu_count()}")
    print(f"# requests: {loop.attempted} attempted, {loop.failed} failed, "
          f"{len(loop.plain)} untraced and {len(loop.traced)} traced ok")
    if spans:
        key = "per_layer"
        values = layer_values(loop, spans, counts)
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        spans.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        key = "end_to_end"
        timings = scaled_timings(loop, reference)
        values = end_to_end_values(loop, timings)
        wall = end_to_end_values(loop, loop.plain)
        print(f"# times scaled to a host where the {wl.reference} kernel takes "
              f"{1e3 * reference.kernel.nominal_s:g} ms; median kernel "
              f"{1e3 * statistics.median(loop.kernel_s):.4g} ms; unscaled wall times:")
        for name in ("records_per_s", "request_ms_p50", "encode_ms_p50", "decode_ms_p50"):
            print(f"#   {name:<30} {wall[name]:>16.6g}")
        print("# error_rate and max_rel_error are per-request checks, not gated metrics")
    units = {m["name"]: m["unit"] for m in benchmark[key]}
    for name, value in values.items():
        print(f"{name:<32} {value:>16.6g} {units.get(name, '1')}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
