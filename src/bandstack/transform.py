"""End-to-end encode and decode pipelines.

Encode: band plan -> one ``rfft`` of all channels -> one gather of the
wideband bins -> the inverse FFT of the wideband spectrum. The channels are
real, so each band's full n-bin spectrum is its channel's rfft bins plus
their conjugate mirror above n/2. Later bands overwrite shared bins, and the
plan has resolved that once: its source map names, for every wideband bin up
to n_out/2, the rfft bin written there last and whether it is a mirrored
(conjugated) one. So stacking reads each wideband bin once. Three modes:

  * ``paper-complex`` - the stacked n_out-bin spectrum is inverted as-is;
    the output waveform is complex (stored as two planes on disk, not
    playable). The spectrum is zero above n_out/2, so where n_out is a
    multiple of 4 and 16*n_out fills a block (``spectrum.BLOCK_BYTES``),
    one radix-4 decimation-in-time step (``_butterfly``) splits the inverse
    into four n_out/4-point ``ifft``s, which stay in cache where the full
    one does not, and whose outputs interleave into the waveform.
  * ``real-hermitian`` (default) - every band lies below F_s/2, so the
    spectra are stacked straight into the n_out//2 + 1 bins that ``irfft``
    reads. Their interior bins are halved and the result is inverted as the
    lower half of a conjugate-symmetric spectrum, so the waveform is real
    and equals the real part of the paper-complex output. This is the
    audio-export mode.
  * ``strict-lossless`` - real output like real-hermitian, but refuses any
    configuration whose stacking would destroy channel content. The refusal
    comes from building the plan, so encode, decode and roundtrip_report
    raise it before any transform, and a strict plan is always lossless.

Decode transforms the waveform once, with one ``rfft`` of its real plane
(the gathers never read above bin n_out/2), and doubles that wideband
spectrum's interior bins. In the real modes that undoes encode's halving. In
paper-complex the spectrum S is one-sided, so bin k of the real plane,
(S[k] + conj(S[-k])) / 2, is S[k] / 2 inside but only Re S[k] at DC and
Nyquist, their own mirrors; decode takes those two bins from direct sums of
the complex samples instead. It then gathers the channels' informative
lower-half bins, one block of channels at a time, and inverts each block in
one batched real inverse FFT, which restores the mirror half by conjugate
symmetry. The upper-half reads would be wrong anyway: adjacent bands
structurally overwrite each other's boundary bin, and only the redundant
conjugate copy is lost there.

In paper-complex, where n_out is a multiple of 8 and at least 262,144
(``_decodes_in_quarters``), that ``rfft`` runs as four n_out/4-point
``rfft``s of the real plane's samples r, r+4, r+8, ... (r = 0..3), which
stay in cache where the full one does not. One radix-4 decimation-in-time
step (``_combine``), the forward twin of encode's, builds the lower
n_out/2 + 1 bins from them, and its one product by 2*scale (a power of two)
doubles and scales them exactly. The edge sums are made per quarter: DC is
the sum of the four, Nyquist the alternating sum.

Independent work runs on two threads: the calling one and one worker
thread that every encode and decode in the process shares. In decode the
worker takes the paper-complex edge sums while the caller runs the
``rfft``, or on the quarter path the ``rfft``s and sums of quarters 2 and 3
and then the upper half of the radix-4 step while the caller does quarters
0 and 1 and the lower half; then it takes the second half of the channels'
gathers and inverses while the caller does the first half. On paper-complex encode's quarter path it
takes the second half of the radix-4 step, then the inverses, peaks and
samples of quarters 2 and 3 while the caller does quarters 0 and 1. Each
thread's block of temporaries is at most half of ``BLOCK_BYTES`` (1 MiB), so
the two together hold no more than one block. They run the same numpy
calls on the same data, so every output bit is the one a single thread
would give. The worker starts on first use, runs its work in the caller's
``contextvars`` context (numpy's ``errstate`` lives there), and is
forgotten in a forked child, whose copy of it is gone. A caller whose half
of the work ends before the worker has picked up the other half (the worker
may be busy with another thread's call) runs that half itself, and no
caller returns or raises before its other half is over.

Amplitude scale: stored samples are peak-normalized to at most 0.9 by an
exact power of two recorded in the provenance, so descaling at decode is
bit-exact and WAV export never clips.

Scratch: encode stacks and (in paper-complex) inverts in place in one held
complex spectrum, and decode transforms into it. Each thread keeps one, of
n_out bins in paper-complex and n_out//2 + 1 in the real modes, so at most
16*n_out bytes; it is replaced when n_out or the mode changes its length.
Beside it, each call allocates:

  * encode - the channels' p*(n//2 + 1) complex rfft bins, freed before
    the inverse, and one block at a time of the plan's read-only source
    map, which ``np.take`` copies because it cannot write it; then the
    samples it returns: in the real modes the ``irfft`` output, scaled in
    place; in paper-complex one scaled copy of the held spectrum (after the
    n_out magnitudes that find its peak), or on the quarter path the four
    quarters interleaved, with no n_out temporary: the radix-4 step's
    twiddles and the peaks' magnitudes come in blocks of at most half of
    ``BLOCK_BYTES`` per thread.
  * decode - the (p, n) channels it returns, which the batched ``irfft``
    writes directly, block by block, and on each of its two threads one
    block's complex gather of its channels' n//2 + 1 bins at a time
    (``spectrum.block_rows``: at most half of 1 MiB, so each thread takes
    15 of 30 channels of n = 10000 in three blocks of 5). On the quarter
    path nothing of n_out size: the four quarter spectra lie in the held
    spectrum's upper half, which decode never reads, and the radix-4 step's
    twiddles and sums come in blocks of at most half of ``BLOCK_BYTES`` per
    thread.

The signal and the record adopt those arrays and lock them instead of
copying, so every array encode or decode returns is fresh, read-only and
never shares the held spectrum.
"""

from __future__ import annotations

import cmath
import contextvars
import functools
import math
import os
import queue
import threading
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from bandstack import spectrum
from bandstack.mapping import build_band_plan
from bandstack.model import (
    MODE_PAPER_COMPLEX,
    BandPlan,
    CollisionWarning,
    DecodeError,
    MultiChannelRecord,
    TransformConfig,
    ValidationError,
    WidebandSignal,
    adopt,
    check_type,
    validate_record,
)
from bandstack.sidecar import SidecarHeader


def _normalization_scale(peak: float) -> float:
    """Smallest power of two that brings ``peak`` to at most 0.9."""
    if peak == 0.0:
        return 1.0
    k = math.ceil(math.log2(peak / 0.9))
    k = min(max(k, -1022), 1023)
    scale = 2.0 ** k
    if peak / scale > 0.9 and k < 1023:
        scale *= 2.0
    return scale


_scratch = threading.local()


def _wideband_buffer(n_out: int, complex_mode: bool) -> np.ndarray:
    """This thread's complex scratch spectrum: n_out bins in paper-complex
    mode, n_out//2 + 1 in the real modes. Like the plan cache it holds one
    entry, and the old array is freed before a new size is allocated.
    Paper-complex decode reads only the lower n_out//2 + 1 bins; on its
    quarter path the upper half holds the quarter spectra
    (``_quarter_bins``).

    Allocating the spectrum per call instead is simpler but costs memory
    through glibc's heap layout: three such variants raised the benchmark's
    wide64-complex peak RSS from 128.0 MB to 139.2, 146.6 and 150.5 MB
    (medians of four alternating 10 s pairs per variant)."""
    size = n_out if complex_mode else n_out // 2 + 1
    buffer = getattr(_scratch, "buffer", None)
    if buffer is None or buffer.shape[0] != size:
        del buffer
        _scratch.buffer = None
        _scratch.buffer = buffer = np.empty(size, dtype=np.complex128)
    return buffer


# The worker thread takes _Handoff slots from this queue; the queue is None
# until the first call that splits its work starts the thread.
_worker_lock = threading.Lock()
_worker_tasks = None
_slots = threading.local()


def _forget_worker() -> None:
    """A forked child has no worker thread, whatever its parent had, and
    the lock may have been held by a thread the child does not have."""
    global _worker_lock, _worker_tasks
    _worker_lock, _worker_tasks = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


class _Handoff:
    """The slot through which one calling thread hands work to the worker,
    reused by all its calls. ``claim`` is free only while work waits in the
    slot, and whichever thread takes it runs the work. ``busy`` is held from
    the hand-off until the work is over.

    A future per call is simpler, but its locks are small mallocs on the
    calling thread. On the benchmark's eeg16k workload (2-vCPU VM) they
    moved glibc's heap top enough that the arena was trimmed between
    requests and encode page-faulted its rfft bins again: encode_ms_p90
    rose 9%."""

    def __init__(self):
        self.claim, self.busy = threading.Lock(), threading.Lock()
        self.claim.acquire()
        self.work = self.result = self.error = None

    def run(self) -> None:
        try:
            self.result = self.work()
        except BaseException as exc:  # the caller raises it; the worker lives on
            self.error = exc
        finally:
            self.work = None


def _serve(tasks: queue.SimpleQueue) -> None:
    while True:
        slot = tasks.get()
        if slot.claim.acquire(blocking=False):  # else its caller took it back
            slot.run()
            slot.busy.release()


def _in_parallel(own, other):
    """Run ``other()`` on the worker thread while this thread runs ``own()``,
    and return what ``other`` returns or raise what it raises.

    ``other`` runs in a copy of this thread's context. If the worker has not
    started it by the time ``own`` is done, this thread runs it instead. If
    ``own`` raises, ``other`` is dropped or waited for first."""
    global _worker_tasks
    with _worker_lock:
        if _worker_tasks is None:
            _worker_tasks = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(_worker_tasks,), daemon=True,
                             name="bandstack-worker").start()
        tasks = _worker_tasks
    slot = getattr(_slots, "slot", None)
    if slot is None:
        slot = _slots.slot = _Handoff()
    slot.busy.acquire()  # waits only while an interrupted call's work still runs
    slot.work = functools.partial(contextvars.copy_context().run, other)
    slot.result = slot.error = None
    slot.claim.release()
    tasks.put(slot)
    own_done = False
    try:
        own()
        own_done = True
    finally:
        if not slot.claim.acquire(blocking=False):
            slot.busy.acquire()  # the worker has it: wait until it is over
        elif own_done:
            slot.run()
        else:
            slot.work = None
        slot.busy.release()
    if slot.error is not None:
        raise slot.error
    return slot.result


def _invert_rows(raw: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
    """Gather ``raw`` through each row of ``index`` and inverse-transform it
    into the same row of ``out``, in blocks of at most half of BLOCK_BYTES,
    since two threads run this at once."""
    rows = spectrum.block_rows(2 * 16 * index.shape[1], index.shape[0])
    for a in range(0, index.shape[0], rows):
        np.fft.irfft(raw[index[a:a + rows]], out.shape[1], axis=1, out=out[a:a + rows])


def _stack_spectrum(channels: np.ndarray, plan: BandPlan, stacked: np.ndarray) -> None:
    """Write the stacked wideband spectrum of ``channels`` into ``stacked``.

    One gather through the plan's source map reads every bin from the
    channel-order rfft bins (and, for bins no band writes, the zero after
    them); the sign then conjugates the mirror-half bins. Every band lies
    below F_s/2, so ``stacked`` may hold only the lower n_out//2 + 1 bins;
    bins above them are zeroed.
    """
    p, n = channels.shape
    h = n // 2 + 1
    bins = np.empty(p * h + 1, dtype=np.complex128)
    np.fft.rfft(channels, axis=1, out=bins[:-1].reshape(p, h))
    bins[-1] = 0
    lower = stacked[:plan.n_out // 2 + 1]
    # mode="clip" writes straight into ``lower``; "raise" buffers a copy.
    # np.take needs a writeable index, so it copies the locked ``plan.source``;
    # gathering in blocks keeps each copy to at most BLOCK_BYTES.
    step = max(1, spectrum.BLOCK_BYTES // plan.source.itemsize)
    for a in range(0, lower.shape[0], step):
        np.take(bins, plan.source[a:a + step], out=lower[a:a + step], mode="clip")
    # Times -1 negates exactly, so this matches np.conjugate bit for bit.
    np.multiply(lower.imag, plan.sign, out=lower.imag)
    stacked[lower.shape[0]:] = 0


def _in_quarters(n_out: int) -> bool:
    """Whether encode inverts a paper-complex spectrum of n_out bins as four
    quarter-length FFTs: where the spectrum fills a block or more. An
    8-channel encode on a 2-vCPU VM took 2.75 against 3.86 ms that way at
    n_out = 65,536, but 1.11 against 0.95 ms at 16,384; at 32,768 the
    quarters won by 12% in one measurement and lost in another."""
    return n_out % 4 == 0 and 16 * n_out >= spectrum.BLOCK_BYTES


def _twiddle_blocks(n: int, start: int, stop: int, m: int, sign: int):
    """Yield (j0, j1, w^j for j0 <= j < j1) over start..stop in blocks of at
    most m bins, with w = exp(sign*2*pi*i/n). Every block's twiddles are one
    table of w^l (l < m) times the block's offset w^j0, written into one
    array that the next block overwrites, so the table and the twiddles are
    two temporaries of m bins."""
    angle = np.arange(m) * (sign * 2 * math.pi / n)
    table = np.empty(m, dtype=np.complex128)
    np.cos(angle, out=table.real)
    np.sin(angle, out=table.imag)
    del angle
    w = np.empty(m, dtype=np.complex128)
    for j0 in range(start, stop, m):
        j1 = min(j0 + m, stop)
        yield j0, j1, np.multiply(table[:j1 - j0], cmath.exp(sign * 2j * math.pi * j0 / n),
                                  out=w[:j1 - j0])


def _butterfly(s: np.ndarray, start: int, stop: int) -> None:
    """One radix-4 decimation-in-time step over bins start..stop of each
    quarter of the one-sided spectrum ``s``, in place.

    With q = n_out/4, a = s[j], b = s[j+q] and w = exp(2*pi*i/n_out), the
    inverse FFT of ``s`` at 4t + r is a quarter of the q-point inverse FFT of
    Q_r[j] = w^(rj) (a + i^r b) at t, because ``s`` is zero above n_out/2.
    Q0 = a + b lands where b was and Q1 where a was, so each bin is read
    before it is written; Q2 and Q3 fill the upper half. The Nyquist bin
    s[2q], which Q2[0] overwrites, is the caller's to add.

    Two threads run this at once, so each block's four temporaries (the
    twiddle table, the block's twiddles and two more) take at most half of
    BLOCK_BYTES."""
    n = s.shape[0]
    q = n // 4
    m = max(1, min(stop - start, spectrum.BLOCK_BYTES // (2 * 4 * 16)))
    for j0, j1, w in _twiddle_blocks(n, start, stop, m, 1):
        a, b = s[j0:j1], s[q + j0:q + j1]
        q2, q3 = s[2 * q + j0:2 * q + j1], s[3 * q + j0:3 * q + j1]
        ib = b * 1j
        ww = w * w
        np.multiply(np.subtract(a, b, out=q2), ww, out=q2)
        np.multiply(np.subtract(a, ib, out=q3), np.multiply(ww, w, out=ww), out=q3)
        np.add(a, b, out=b)
        np.multiply(np.add(a, ib, out=a), w, out=a)


def _invert_quarters(quarters) -> list:
    """Inverse-FFT each (Q_r, r) of ``quarters`` in place and return the
    peak magnitude of each of its blocks, whose magnitudes take half of
    BLOCK_BYTES."""
    m = max(1, spectrum.BLOCK_BYTES // 16)
    peaks = []
    for x, _ in quarters:
        np.fft.ifft(x, out=x)
        peaks.extend(np.abs(x[a:a + m]).max() for a in range(0, x.shape[0], m))
    return peaks


def _interleave(quarters, factor: float, samples: np.ndarray) -> None:
    """Write each inverted (Q_r, r) of ``quarters``, times ``factor``, to
    ``samples[r::4]``."""
    for x, r in quarters:
        np.multiply(x, factor, out=samples[r::4])


# Decode's quarter path starts where the samples (16*n_out bytes) fill four
# blocks of the default size. It is fixed at import, unlike the blocks: a
# block size that moved it would change the bits a decode gives.
_DECODE_QUARTERS_BYTES = 4 * spectrum.BLOCK_BYTES


def _decodes_in_quarters(n_out: int) -> bool:
    """Whether decode transforms a paper-complex real plane of n_out
    samples as four quarter-length ``rfft``s: where n_out is a multiple of 8
    and 16*n_out >= ``_DECODE_QUARTERS_BYTES`` (n_out >= 262,144).

    Decode's front end (the plane's spectrum, doubled and scaled, and the
    two edge sums) timed in a bare loop on a 2-vCPU Xeon VM, quarters over
    one ``rfft``: the range of the ratio of medians over four runs of 21 or
    41 alternating rounds, half of them with the caches flushed before each
    call, and two more runs of 61 rounds at 131,072 and 786,432:

        n_out       quarters / one rfft
        65,536      0.98 - 1.14
        131,072     0.77 - 1.36
        262,144     0.59 - 0.77
        524,288     0.62 - 0.90
        786,432     0.72 - 1.22
        983,040     0.82 - 0.90
        1,048,576   0.83 - 0.92
    """
    return n_out % 8 == 0 and 16 * n_out >= _DECODE_QUARTERS_BYTES


def _quarter_bins(x: np.ndarray) -> tuple:
    """Where decode's quarter path holds Y_r, the q/2 + 1 ``rfft`` bins of
    the real plane's samples r, r+4, r+8, ..., in its n_out-bin buffer
    ``x`` (q = n_out/4): Y0 where the lower bins of the plane's spectrum
    are written, Y1 to Y3 in the upper half, which decode does not read.
    They fit where q >= 8 (n_out >= 32)."""
    q = x.shape[0] // 4
    h = q // 2 + 1
    return (x[:h],) + tuple(x[2 * q + 1 + k * h:2 * q + 1 + (k + 1) * h] for k in range(3))


def _combine(x: np.ndarray, start: int, stop: int, factor: float) -> None:
    """Bins j, q - j, q + j and 2q - j of the real plane's spectrum, for
    start <= j < stop, from the quarter spectra ``_quarter_bins(x)``, times
    ``factor``, into ``x``.

    With q = n_out/4, w = exp(-2*pi*i/n_out), A = Y0[j], B = w^j Y1[j],
    C = w^2j Y2[j] and D = w^3j Y3[j] (one radix-4 decimation-in-time step):
    X[j] = A+B+C+D, X[q+j] = A-iB-C+iD, X[q-j] = conj(A+iB-C-iD) and
    X[2q-j] = conj(A-B+C-D). Each block reads its A before writing, and no
    other block writes there, so j = 0..q/2 yields bins 0..2q in place.

    Two threads run this at once, so each block's six temporaries (the
    twiddle table, the block's twiddles and four more) take at most half of
    BLOCK_BYTES."""
    n = x.shape[0]
    q = n // 4
    y0, y1, y2, y3 = _quarter_bins(x)
    m = max(1, min(stop - start, spectrum.BLOCK_BYTES // (2 * 6 * 16)))
    work = np.empty((4, m), dtype=np.complex128)
    for j0, j1, w in _twiddle_blocks(n, start, stop, m, -1):
        b, ww, c, plus = work[:, :j1 - j0]
        np.multiply(y1[j0:j1], w, out=b)
        np.multiply(y2[j0:j1], np.multiply(w, w, out=ww), out=c)
        d = np.multiply(y3[j0:j1], np.multiply(ww, w, out=ww), out=ww)
        a = y0[j0:j1]
        np.add(a, c, out=plus)
        minus = np.subtract(a, c, out=c)
        r = np.add(b, d, out=w)
        it = np.multiply(np.subtract(b, d, out=d), 1j, out=b)
        for v in (plus, minus, r, it):
            np.multiply(v, factor, out=v)
        np.add(plus, r, out=x[j0:j1])
        np.subtract(minus, it, out=x[q + j0:q + j1])
        np.conjugate(np.add(minus, it, out=minus), out=x[q - j0:q - j1:-1])
        np.conjugate(np.subtract(plus, r, out=plus), out=x[2 * q - j0:2 * q - j1:-1])


def _real_plane_in_quarters(s: np.ndarray, x: np.ndarray, scale: float) -> tuple:
    """Decode's quarter path: the ``rfft`` of ``s.real`` into the lower
    n_out//2 + 1 bins of ``x``, interior bins doubled and all times
    ``scale``, and the complex sums of ``s`` for DC and Nyquist.

    This thread transforms and sums quarters 0 and 1 while the worker does
    2 and 3; then each combines half of the bins."""
    ys = _quarter_bins(x)

    def quarters(rs):
        sums = []
        for r in rs:
            np.fft.rfft(s.real[r::4], out=ys[r])
            sums.append(s[r::4].sum())
        return sums

    own = []
    other = _in_parallel(lambda: own.extend(quarters((0, 1))), lambda: quarters((2, 3)))
    s0, s1, s2, s3 = own + other
    # 2*scale is a power of two, so one product doubles and scales exactly;
    # it overflows only at scale 2**1023, where the doubling is a pass of its own.
    folded = scale < 2.0 ** 1023
    factor = 2.0 * scale if folded else scale
    q = x.shape[0] // 4
    _in_parallel(lambda: _combine(x, 0, q // 4, factor),
                 lambda: _combine(x, q // 4, q // 2 + 1, factor))
    if not folded:
        x[:2 * q + 1] *= 2.0
    # (-1)^k is (-1)^r at k = 4t + r.
    return (s0 + s1) + (s2 + s3), (s0 - s1) + (s2 - s3)


def encode(record: MultiChannelRecord, config: TransformConfig) -> WidebandSignal:
    """Transform a multichannel record into one wideband waveform."""
    validate_record(record)
    plan = build_band_plan(record.p, record.n_samples, record.sample_rate_hz, config)
    if not plan.lossless:
        warnings.warn(
            f"{plan.collision_count} destination bins are written more than once and "
            f"channel content is destroyed; reconstruction will be lossy "
            f"(rate floor F_s >= p*f_s is "
            f"{'met but not sufficient here' if plan.rate_feasible else 'violated'})",
            CollisionWarning, stacklevel=2)

    # A finite record can still overflow the FFTs; that only ever makes the
    # peak non-finite, so the peak is the one check.
    n_out = plan.n_out
    complex_mode = config.mode == MODE_PAPER_COMPLEX
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = _wideband_buffer(n_out, complex_mode)
        quartered = complex_mode and _in_quarters(n_out)
        # The butterfly reads nothing above n_out/2, so those bins stay stale.
        _stack_spectrum(record.channels, plan, stacked[:n_out // 2 + 1] if quartered else stacked)
        if quartered:
            q = n_out // 4
            nyquist = stacked[2 * q]
            _in_parallel(lambda: _butterfly(stacked, 0, q // 2),
                         lambda: _butterfly(stacked, q // 2, q))
            # This thread takes Q0 and Q1, the worker Q2 and Q3.
            own = ((stacked[q:2 * q], 0), (stacked[:q], 1))
            other = ((stacked[2 * q:3 * q], 2), (stacked[3 * q:], 3))
            for x, r in own + other:
                x[0] += nyquist if r % 2 == 0 else -nyquist
            own_peaks = []
            other_peaks = _in_parallel(lambda: own_peaks.extend(_invert_quarters(own)),
                                       lambda: _invert_quarters(other))
            # np.max, unlike max(), passes a NaN peak on. The quarters hold
            # four times their samples.
            peak = 0.25 * float(np.max(own_peaks + other_peaks))
        elif complex_mode:
            np.fft.ifft(stacked, out=stacked)
            peak = float(np.abs(stacked).max())
        else:
            # Halving the interior makes the real inverse equal the real part
            # of the complex one, which is what decode's doubling assumes.
            stacked[1:(n_out + 1) // 2] *= 0.5
            samples = np.fft.irfft(stacked, n_out)
            peak = float(max(samples.max(), -samples.min()))
    if not math.isfinite(peak):
        raise ValidationError("the record's spectrum overflows float64; scale the "
                              "channels down before encoding")
    scale = _normalization_scale(peak)
    provenance = SidecarHeader(
        p=record.p, n_samples=record.n_samples, source_rate_hz=record.sample_rate_hz,
        target_rate_hz=config.target_rate_hz, mode=config.mode,
        stacking_order=config.stacking_order, scale=scale,
        collision_count=plan.collision_count, channel_names=record.channel_names)
    if quartered:
        # 0.25 / scale is a power of two, so one product scales exactly.
        samples = np.empty(n_out, dtype=np.complex128)
        _in_parallel(lambda: _interleave(own, 0.25 / scale, samples),
                     lambda: _interleave(other, 0.25 / scale, samples))
    elif complex_mode:
        samples = np.divide(stacked, scale)  # the one fresh copy of the held buffer
    else:
        samples /= scale
    return adopt(WidebandSignal, samples, config.target_rate_hz, provenance)


def decode(signal: WidebandSignal) -> MultiChannelRecord:
    """Reconstruct the original channels from a wideband signal."""
    check_type("signal", signal, WidebandSignal)
    prov = signal.provenance
    config = TransformConfig(prov.target_rate_hz, prov.p, prov.mode, prov.stacking_order)
    plan = build_band_plan(prov.p, prov.n_samples, prov.source_rate_hz, config)
    if plan.collision_count != prov.collision_count:
        raise DecodeError(
            f"provenance says collision_count={prov.collision_count} but its "
            f"configuration gives {plan.collision_count}")
    if signal.is_complex != (prov.mode == MODE_PAPER_COMPLEX):
        kind = "complex" if signal.is_complex else "real"
        raise DecodeError(f"{kind} samples with mode {prov.mode!r}: mode mismatch")

    # A huge scale can overflow a tampered signal's samples, FFTs or edge
    # sums. What reaches the channels makes them non-finite, and the record's
    # own finiteness check catches that, so a good signal pays no extra pass.
    # The header has checked every other field the record checks.
    with np.errstate(over="ignore", invalid="ignore"):
        # Only bins <= n_out/2 are read, which is exactly what rfft returns.
        # The scale is a power of two, so applying it after the transform
        # gives the same bits as before it, unless a product is subnormal
        # (then after is the more accurate).
        s, n_out = signal.samples, plan.n_out
        buffer = _wideband_buffer(n_out, signal.is_complex)
        raw = buffer[:n_out // 2 + 1]

        def real_plane():
            np.fft.rfft(s.real, out=raw)
            raw[1:(n_out + 1) // 2] *= 2.0
            np.multiply(raw, prov.scale, out=raw)

        if signal.is_complex and _decodes_in_quarters(n_out):
            dc, nyquist = _real_plane_in_quarters(s, buffer, prov.scale)
        elif signal.is_complex:
            # The real plane keeps only the real part of DC and Nyquist; the
            # worker sums the complex samples for them meanwhile.
            dc, nyquist = _in_parallel(real_plane, lambda: (
                s.sum(), s[::2].sum() - s[1::2].sum() if n_out % 2 == 0 else None))
        else:
            real_plane()
        if signal.is_complex:
            raw[0] = dc * prov.scale
            if nyquist is not None:
                raw[-1] = nyquist * prov.scale
        # The gather is in channel order, so each block's inverse writes its
        # channels straight into their rows of the array the record adopts.
        # This thread takes the first half of the channels, the worker the rest.
        channels = np.empty((prov.p, prov.n_samples), dtype=np.float64)
        index, mid = plan.decode_index, prov.p - prov.p // 2
        if mid == prov.p:  # one channel: nothing to split
            _invert_rows(raw, index, channels)
        else:
            _in_parallel(lambda: _invert_rows(raw, index[:mid], channels[:mid]),
                         lambda: _invert_rows(raw, index[mid:], channels[mid:]))
    try:
        return adopt(MultiChannelRecord, channels, prov.source_rate_hz, prov.channel_names)
    except ValidationError as exc:
        raise DecodeError(
            f"the wideband spectrum overflows float64 at scale "
            f"2**{math.log2(prov.scale):.0f}; the samples do not fit their sidecar") from exc


@dataclass(frozen=True)
class RoundtripReport:
    """Measured encode->decode fidelity for one record and configuration."""

    max_abs_error: float  # relative to the record's peak amplitude
    per_channel_rmse: tuple[float, ...]
    collision_count: int
    mode: str
    rate_feasible: bool
    lossless: bool
    n_out: int

    def to_dict(self) -> dict:
        return {**asdict(self), "per_channel_rmse": list(self.per_channel_rmse)}


def roundtrip_report(record: MultiChannelRecord, config: TransformConfig) -> RoundtripReport:
    """Encode, decode, and measure the damage. Lossy configurations are
    measured, never refused (strict-mode failures still propagate)."""
    signal = encode(record, config)  # checks the arguments first
    plan = build_band_plan(record.p, record.n_samples, record.sample_rate_hz, config)
    decoded = decode(signal)
    diff = np.abs(decoded.channels - record.channels)
    peak = float(np.abs(record.channels).max())
    max_err = float(diff.max())
    if peak > 0:
        max_err /= peak
    rmse = tuple(float(v) for v in np.sqrt((diff ** 2).mean(axis=1)))
    return RoundtripReport(
        max_abs_error=max_err, per_channel_rmse=rmse, collision_count=plan.collision_count,
        mode=config.mode, rate_feasible=plan.rate_feasible, lossless=plan.lossless,
        n_out=plan.n_out)
