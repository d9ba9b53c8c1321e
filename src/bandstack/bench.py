"""Benchmark harness: brute-force scan vs closed-form mapping.

Times how long the numpy kernels take to produce the complete band
assignment two ways (the exhaustive nearest-frequency scan and the
O(1)-per-bin fast path) and cross-checks that both runs produced identical
indices. The default size is the 30-channel / 10000-sample / 1 kHz-source /
16 kHz-target configuration, where the scan visits p * n * n_out ~ 5e10 grid
points; expect it to take on the order of a minute.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from bandstack._kernels import active_lane, nearest_indices_fast, nearest_indices_scan
from bandstack.mapping import destination_grid, stretched_frequencies
from bandstack.model import ValidationError, output_length


@dataclass
class BenchReport:
    p: int
    n_samples: int
    source_rate_hz: float
    target_rate_hz: float
    n_out: int
    bands: tuple[int, ...]
    seconds: dict = field(default_factory=dict)  # (lane, algorithm) -> wall seconds
    speedup: dict = field(default_factory=dict)  # lane -> scan/fast ratio
    assignments_equal: bool = True
    active_lane: str = ""

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n_samples": self.n_samples,
            "source_rate_hz": self.source_rate_hz,
            "target_rate_hz": self.target_rate_hz,
            "n_out": self.n_out,
            "bands": list(self.bands),
            "seconds": {f"{lane}/{algo}": s for (lane, algo), s in self.seconds.items()},
            "speedup": dict(self.speedup),
            "assignments_equal": self.assignments_equal,
            "active_lane": self.active_lane,
        }

    def format_table(self) -> str:
        lines = [
            f"mapping benchmark: p={self.p} n={self.n_samples} "
            f"f_s={self.source_rate_hz:g} F_s={self.target_rate_hz:g} "
            f"n_out={self.n_out} bands={len(self.bands)}",
            f"{'lane':<8} {'algorithm':<12} {'seconds':>12}",
        ]
        for (lane, algo), s in self.seconds.items():
            lines.append(f"{lane:<8} {algo:<12} {s:>12.6f}")
        for lane, ratio in self.speedup.items():
            lines.append(f"{lane:<8} fast is {ratio:,.0f}x faster than the scan")
        lines.append(f"assignments identical across all runs: {self.assignments_equal}")
        return "\n".join(lines)


def run_mapping_benchmark(p: int = 30, n_samples: int = 10000,
                          source_rate_hz: float = 1000.0,
                          target_rate_hz: float = 16000.0,
                          bands=None, include_scan: bool = True) -> BenchReport:
    """Time both mapping algorithms over the same band set.

    ``bands`` restricts which bands are computed (default: all p).
    """
    if bands is None:
        bands = tuple(range(p))
    else:
        bands = tuple(int(b) for b in bands)
        if any(not 0 <= b < p for b in bands):
            raise ValidationError(f"band indices must lie in 0..{p - 1}, got {bands}")

    n_out = output_length(n_samples, source_rate_hz, target_rate_hz)
    band_width = target_rate_hz / (2 * p)
    grid = destination_grid(n_out, target_rate_hz)
    step = target_rate_hz / (n_out - 1)
    targets = [stretched_frequencies(n_samples, source_rate_hz, band_width, b)
               for b in bands]

    lane = active_lane()
    report = BenchReport(p=p, n_samples=n_samples, source_rate_hz=source_rate_hz,
                         target_rate_hz=target_rate_hz, n_out=n_out, bands=bands,
                         active_lane=lane)
    algos = [("fast", lambda t: nearest_indices_fast(t, grid, step))]
    if include_scan:
        algos.append(("scan", lambda t: nearest_indices_scan(t, grid)))
    reference = None
    for algo, fn in algos:
        start = time.perf_counter()
        got = [fn(t) for t in targets]
        report.seconds[(lane, algo)] = time.perf_counter() - start
        if reference is None:
            reference = got
        elif not all(np.array_equal(a, b) for a, b in zip(reference, got)):
            report.assignments_equal = False
    if include_scan:
        fast = report.seconds[(lane, "fast")]
        scan = report.seconds[(lane, "scan")]
        report.speedup[lane] = scan / fast if fast > 0 else float("inf")
    return report
