"""Benchmark harness: brute-force scan vs closed-form mapping.

Times how long the numpy kernels take to produce the band assignment two
ways (the exhaustive nearest-frequency scan and the O(1)-per-bin fast path)
over the same precomputed targets, and cross-checks that both runs produced
identical indices. The default size is the 30-channel / 10000-sample /
1 kHz-source / 16 kHz-target configuration, where the scan visits
p * n * n_out ~ 5e10 grid points; expect it to take on the order of a
minute for all 30 bands.

In ``BenchReport.to_dict`` (``bandstack bench --json``), ``seconds`` is keyed
by algorithm ("fast", and "scan" unless skipped) and ``speedup`` is scan over
fast seconds, or None without the scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from bandstack._kernels import nearest_indices_fast, nearest_indices_scan
from bandstack.mapping import _band_geometry


@dataclass
class BenchReport:
    p: int
    n_samples: int
    source_rate_hz: float
    target_rate_hz: float
    n_out: int
    bands: tuple[int, ...]
    seconds: dict = field(default_factory=dict)  # algorithm -> wall seconds
    speedup: Optional[float] = None  # scan/fast ratio; None without the scan
    assignments_equal: bool = True

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n_samples": self.n_samples,
            "source_rate_hz": self.source_rate_hz,
            "target_rate_hz": self.target_rate_hz,
            "n_out": self.n_out,
            "bands": list(self.bands),
            "seconds": dict(self.seconds),
            "speedup": self.speedup,
            "assignments_equal": self.assignments_equal,
        }

    def format_table(self) -> str:
        lines = [
            f"mapping benchmark: p={self.p} n={self.n_samples} "
            f"f_s={self.source_rate_hz:g} F_s={self.target_rate_hz:g} "
            f"n_out={self.n_out} bands={len(self.bands)}",
            f"{'algorithm':<12} {'seconds':>12}",
        ]
        for algo, s in self.seconds.items():
            lines.append(f"{algo:<12} {s:>12.6f}")
        if self.speedup is not None:
            lines.append(f"fast is {self.speedup:,.0f}x faster than the scan")
        lines.append(f"assignments identical across all runs: {self.assignments_equal}")
        return "\n".join(lines)


def run_mapping_benchmark(p: int = 30, n_samples: int = 10000,
                          source_rate_hz: float = 1000.0,
                          target_rate_hz: float = 16000.0,
                          bands=None, include_scan: bool = True) -> BenchReport:
    """Time both mapping algorithms over the same band set.

    ``bands`` restricts which bands are computed (default: all p).
    """
    bands = tuple(range(p)) if bands is None else tuple(int(b) for b in bands)
    n_out, _, targets, grid, step = _band_geometry(
        p, n_samples, source_rate_hz, target_rate_hz,
        np.array(bands, dtype=np.int64)[:, None])

    report = BenchReport(p=p, n_samples=n_samples, source_rate_hz=source_rate_hz,
                         target_rate_hz=target_rate_hz, n_out=n_out, bands=bands)
    algos = [("fast", lambda t: nearest_indices_fast(t, grid, step))]
    if include_scan:
        algos.append(("scan", lambda t: nearest_indices_scan(t, grid)))
    reference = None
    for algo, fn in algos:
        start = time.perf_counter()
        got = [fn(t) for t in targets]
        report.seconds[algo] = time.perf_counter() - start
        if reference is None:
            reference = got
        elif not all(np.array_equal(a, b) for a, b in zip(reference, got)):
            report.assignments_equal = False
    if include_scan:
        fast, scan = report.seconds["fast"], report.seconds["scan"]
        report.speedup = scan / fast if fast > 0 else float("inf")
    return report
