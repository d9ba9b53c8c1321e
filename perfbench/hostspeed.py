"""Host-speed reference kernels: fixed work, timed between requests.

The benchmark runs on shared hosts whose speed swings by half within seconds
and drifts between runs, because neighbours contend for memory bandwidth and
caches. A request's wall time therefore says as much about the host as about
bandstack. A reference kernel is a fixed piece of work that imports nothing
from bandstack. It runs between two requests and between a request's encode
and the rest, and each part's time is scaled by ``nominal_s`` over the mean
of the kernel times just before and just after it. The result reads as the
part's time on a host where the kernel takes ``nominal_s``: a change to
bandstack moves it in full, a change in host speed cancels out to the extent
that the kernel and the request slow alike. Host speed changes within a
second: scaling whole requests, or by medians over wider windows of kernel
times, tracked it worse.

Each workload names the kernel whose work resembles its own: ``numpy-fft``
(long real and complex FFTs and array arithmetic) for the in-memory
workloads, ``text-and-fft`` (formatting floats to text and parsing them back,
then the FFT kernel) for the CSV file path. ``nominal_s`` is about the
kernel's time between requests on the 2-vCPU VM the benchmark was tuned on,
so scaled times read close to that VM's wall times. Kernel outputs are
allocated once, so the kernel measures compute and memory speed, not the
allocator state a request leaves behind.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_SEED = 20241217  # fixed: the kernel's work never depends on the workload seed


class NumpyFft:
    name = "numpy-fft"
    nominal_s = 0.018
    passes = 3

    def __init__(self):
        rng = np.random.default_rng(_SEED)
        self.real = rng.standard_normal(1 << 17)
        self.complex = rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)
        self.spectrum = np.empty(self.real.size // 2 + 1, complex)
        self.back = np.empty_like(self.real)
        self.bins = np.empty_like(self.complex)
        self.wave = np.empty_like(self.complex)

    def work(self) -> float:
        for _ in range(self.passes):
            np.fft.rfft(self.real, out=self.spectrum)
            self.spectrum *= 0.5
            np.fft.irfft(self.spectrum, n=self.real.size, out=self.back)
            np.fft.fft(self.complex, out=self.bins)
            self.bins *= 0.5
            np.fft.ifft(self.bins, out=self.wave)
        return float(self.back[0] + self.wave[0].real)


class TextAndFft(NumpyFft):
    name = "text-and-fft"
    nominal_s = 0.022
    passes = 1

    def __init__(self):
        super().__init__()
        self.rows = np.random.default_rng(_SEED).standard_normal((1500, 8)).tolist()

    def work(self) -> float:
        text = "\n".join(",".join(map(repr, row)) for row in self.rows)
        total = sum(float(v) for line in text.splitlines() for v in line.split(","))
        return total + super().work()


KERNELS = {k.name: k for k in (NumpyFft, TextAndFft)}


class Reference:
    """Times one kernel and turns kernel times into host-speed scales: the
    factor that takes a wall time measured beside them to the nominal host."""

    def __init__(self, name: str):
        self.kernel = KERNELS[name]()
        for _ in range(3):  # FFT plan caches, allocator pools
            self.kernel.work()

    def time(self) -> float:
        start = perf_counter()
        self.kernel.work()
        return perf_counter() - start

    def scale(self, before_s: float, after_s: float) -> float:
        return self.kernel.nominal_s / (0.5 * (before_s + after_s))
