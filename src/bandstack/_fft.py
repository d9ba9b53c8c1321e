"""The wideband FFTs of encode and decode, on two threads.

``wideband_inverse`` turns the spectrum encode stacks into the wideband
waveform, ``wideband_forward`` turns a waveform into the bins 0..n_out/2
decode reads, both in all three modes, and ``invert_rows`` runs decode's
batched channel inverses.

Length rule. A paper-complex spectrum is zero above n_out/2, so one
radix-4 decimation-in-time step splits its inverse (``_butterfly``) and
its real plane's forward transform (``_combine``) into four n_out/4-point
FFTs, which stay in cache where the full one does not. Each direction takes
its quarter path where the table's rule says, and one FFT everywhere else
in paper-complex. The rule depends on n_out alone and is fixed at
import (``_QUARTERS``), so no block size moves a length on or off a quarter
path and changes its bits. The times are of the quarters over the one FFT
on a 2-vCPU VM: inverse, a whole 8-channel encode in a bare loop (six
alternating rounds); forward, decode's front end (the plane's spectrum,
doubled and scaled, and the edge sums) in a bare loop, range of the ratio
of medians over 4 to 6 runs of 21 to 61 alternating rounds, half of them
with the caches flushed:

                inverse (encode)        forward (decode)
    rule        n_out % 4 == 0 and      n_out % 8 == 0 and
                n_out >= 65,536         n_out >= 262,144
    n_out       quarters / one ifft     quarters / one rfft
    16,384      1.17
    32,768      0.88 (>1 in a rerun)
    65,536      0.71  (quarters)        0.98 - 1.14
    131,072     0.70                    0.77 - 1.36
    262,144                             0.59 - 0.77  (quarters)
    524,288                             0.62 - 0.90
    786,432                             0.72 - 1.22
    983,040     0.64 *                  0.82 - 0.90
    1,048,576                           0.83 - 0.92

    * the benchmark's wide64-complex encode_ms_p50, 30.09 against 47.08 ms.

786,432 stays on the forward quarter path although the quarters lost in
two of its six runs (the quarter ``rfft`` of 196,608 points may be a slow
pocketfft length there): no workload runs that length.

The real modes split lengths with a large prime factor instead, where
pocketfft runs Bluestein's algorithm over the whole length: about 2*n_out
points of scratch, out of cache. With n_out = a*b, a its 2*3*5-smooth part,
the rule (``_SPLIT``) is a >= 4, a prime factor of b above 500 and
n_out >= 8,000. There each direction runs a FFTs of b points (row r holds
samples r, r+a, r+2a, ...), one twiddle pass and b//2 + 1 FFTs of a points
(``_split_rfft``, ``_split_irfft``; Bailey's four-step split), and its
output differs from the one FFT only in rounding (below 1e-14 of the peak).
The rule, too, depends on n_out alone, and a smooth length is classified
once 2, 3 and 5 are divided out. Times in ms, one FFT / split, of the bare
transform on a 2-vCPU VM (medians of 9 alternating rounds):

    n_out       a x b         rfft          irfft
    4,036       4 x 1,009     0.36 / 0.30   0.38 / 0.36   below the floor
    8,012       4 x 2,003     1.03 / 0.59   0.98 / 0.76
    32,048      16 x 2,003    2.65 / 1.32   2.63 / 1.41
    250,004     4 x 62,501    45.7 / 21.5   46.2 / 24.7
    250,064     16 x 15,629   48.2 / 12.8   47.0 / 15.1
    250,080     480 x 521     49.5 / 8.5    47.4 / 10.1
    1,000,016   16 x 62,501   229 / 57.6    228 / 65.8
    250,006     2 x 125,003   49.1 / 46.9   49.3 / 50.7   a < 4
    237,216     96 x 2,471    9.8 / 8.5     9.1 / 8.8     largest prime 353
    214,608     48 x 4,471    7.3 / 8.0     7.0 / 7.8     largest prime 263
    197,024     32 x 6,157    5.1 / 5.6     4.9 / 5.9     largest prime 131

Across 39 of the files-csv-wav workload's lengths (n_out = 16*n, n from
12,000 to 18,000 in steps of 157), the 22 with a prime factor above 500 ran
the split in 0.20 to 0.49 of the one FFT's time, each way, and the 15 whose
largest prime was 263 or less in 0.89 to 2.08. At a = 512 the split also won
at primes from 251 to 491 (pocketfft's direct passes grow with the prime),
but the rule leaves them alone.

Threads. Independent work runs on the calling thread and one worker thread
that every encode and decode in the process shares (``_in_parallel``): the
worker takes the second half of each radix-4 step and quarters 2 and 3 on
the quarter paths, the paper-complex edge sums beside one ``rfft``, the
second half of the rows and of the columns of the real-mode split, and the
second half of the channels in ``invert_rows``. (On the shared 2-vCPU VM
of the split's table, the split ran as fast on one CPU as on two: its gain
is the factorisation's.) Each thread's block of
temporaries is at most half of ``spectrum.BLOCK_BYTES`` (read at call time),
so the two together hold no more than one block. They run the same numpy
calls on the same data, so every output bit is the one a single thread
would give. The worker starts on first use and is forgotten in a forked
child, whose copy of it is gone.
"""

from __future__ import annotations

import cmath
import contextvars
import functools
import math
import os
import queue
import threading

import numpy as np

from bandstack import spectrum

# The quarter paths' length rule: direction -> (divisor, least n_out).
_QUARTERS = {"inverse": (4, 65_536), "forward": (8, 262_144)}


def _quartered(direction: str, n_out: int) -> bool:
    divisor, least = _QUARTERS[direction]
    return n_out % divisor == 0 and n_out >= least


# The split's length rule: (least a, least largest prime factor of b, least
# n_out), with n_out = a*b and a its 2*3*5-smooth part.
_SPLIT = (4, 500, 8_000)


def _split(n_out: int):
    """(a, b) where the real-mode wideband FFTs of n_out points run as a
    b-point FFTs and b a-point FFTs (``_split_rfft``, ``_split_irfft``),
    else None."""
    least_a, least_prime, least_n = _SPLIT
    b = n_out
    for f in (2, 3, 5):
        while b % f == 0:
            b //= f
    a = n_out // b
    if a < least_a or n_out < least_n or b <= least_prime:
        return None
    rest = b
    for f in range(7, least_prime + 1, 2):  # every prime up to least_prime
        while rest % f == 0:
            rest //= f
        if rest == 1 or f * f > rest:
            break
    return (a, b) if rest > least_prime else None


_held = threading.local()


def _scratch_spectrum(n_out: int, complex_mode: bool) -> np.ndarray:
    """This thread's complex scratch spectrum: n_out bins in paper-complex
    mode, n_out//2 + 1 in the real modes. Like the plan cache it holds one
    entry, and the old array is freed before a new size is allocated. Bins
    0..n_out/2 hold the stack or the transform; the paper-complex upper half
    is the quarter paths' room (``_butterfly``, ``_quarter_bins``), so they
    allocate nothing of n_out size beside the samples encode returns.

    Allocating the spectrum per call instead is simpler but costs memory
    through glibc's heap layout: three such variants raised the benchmark's
    wide64-complex peak RSS from 128.0 MB to 139.2, 146.6 and 150.5 MB
    (medians of four alternating 10 s pairs per variant)."""
    size = n_out if complex_mode else n_out // 2 + 1
    buffer = getattr(_held, "buffer", None)
    if buffer is None or buffer.shape[0] != size:
        del buffer
        _held.buffer = None
        _held.buffer = buffer = np.empty(size, dtype=np.complex128)
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
    the hand-off until the work is over, and ``in_use`` is true while a call
    on the slot's thread has not returned.

    A future per call is simpler, but its locks are small mallocs on the
    calling thread. On the benchmark's eeg16k workload (2-vCPU VM) they
    moved glibc's heap top enough that the arena was trimmed between
    requests and encode page-faulted its rfft bins again: encode_ms_p90
    rose 9%."""

    def __init__(self):
        self.claim, self.busy = threading.Lock(), threading.Lock()
        self.claim.acquire()
        self.work = self.result = self.error = None
        self.in_use = False

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


def _in_parallel(own, other) -> tuple:
    """Run ``other()`` on the worker thread while this thread runs ``own()``,
    and return ``(own(), other())`` or raise what either raises.

    ``other`` runs in a copy of this thread's context, where numpy keeps its
    ``errstate``. If the worker has not started it by the time ``own`` is
    done, this thread runs it instead; if ``own`` raises, ``other`` is
    dropped or waited for first. A call made from inside ``own`` or
    ``other`` on this thread, whose slot is in use, runs both parts here."""
    global _worker_tasks
    slot = getattr(_slots, "slot", None)
    if slot is None:
        slot = _slots.slot = _Handoff()
    elif slot.in_use:
        return own(), other()
    with _worker_lock:
        if _worker_tasks is None:
            _worker_tasks = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(_worker_tasks,), daemon=True,
                             name="bandstack-worker").start()
        tasks = _worker_tasks
    slot.busy.acquire()  # waits only while an interrupted call's work still runs
    slot.work = functools.partial(contextvars.copy_context().run, other)
    slot.result = slot.error = None
    slot.claim.release()
    tasks.put(slot)
    slot.in_use = True
    own_done = False
    try:
        result = own()
        own_done = True
    finally:
        if not slot.claim.acquire(blocking=False):
            slot.busy.acquire()  # the worker has it: wait until it is over
        elif own_done:
            slot.run()
        else:
            slot.work = None
        slot.in_use = False
        slot.busy.release()
    if slot.error is not None:
        raise slot.error
    return result, slot.result


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


def _twiddle_columns(n: int, rows: int, start: int, stop: int, m: int, sign: int):
    """Yield (j0, j1, w^(r*j) for r < rows and j0 <= j < j1) over columns
    start..stop in blocks of at most m, with w = exp(sign*2*pi*i/n): one
    table of w^(r*l) (l < m) times each block's column of w^(r*j0), written
    into one array that the next block overwrites. The exponents r*j stay
    below n, so each angle is one rounding of an exact integer. (The quarter
    paths' ``_twiddle_blocks`` takes its offsets from ``cmath.exp``;
    folding it into this one would change their bits.)"""
    r = np.arange(rows)
    step = sign * 2 * math.pi / n
    table = np.empty((rows, m), dtype=np.complex128)
    angle = np.multiply.outer(r, np.arange(m)) * step
    np.cos(angle, out=table.real)
    np.sin(angle, out=table.imag)
    del angle
    w = np.empty((rows, m), dtype=np.complex128)
    offset = np.empty((rows, 1), dtype=np.complex128)
    for j0 in range(start, stop, m):
        j1 = min(j0 + m, stop)
        angle = (r * j0)[:, None] * step
        np.cos(angle, out=offset.real)
        np.sin(angle, out=offset.imag)
        yield j0, j1, np.multiply(table[:, :j1 - j0], offset, out=w[:, :j1 - j0])


def _split_columns(y: np.ndarray, start: int, stop: int, n: int, inverse: bool) -> None:
    """Columns start..stop of the split's (a, b//2 + 1) array ``y``, in
    place: forward, times w^(r*k1) (w = exp(-2*pi*i/n)) and then an a-point
    ``fft`` of each column; inverse, an a-point ``ifft`` of each column and
    then times conj(w)^(r*k1). Each block's twiddle table and twiddles take
    at most half of BLOCK_BYTES, or one column each where a column is more."""
    a = y.shape[0]
    m = max(1, min(stop - start, spectrum.BLOCK_BYTES // (2 * 2 * 16 * a)))
    for j0, j1, w in _twiddle_columns(n, a, start, stop, m, 1 if inverse else -1):
        block = y[:, j0:j1]
        if inverse:
            np.fft.ifft(block, axis=0, out=block)
        np.multiply(block, w, out=block)
        if not inverse:
            np.fft.fft(block, axis=0, out=block)


def _split_rfft(x: np.ndarray, out: np.ndarray, a: int, b: int) -> None:
    """The ``rfft`` of the n = a*b real samples ``x`` into ``out``: row r of
    an (a, b//2 + 1) array gets the ``rfft`` of samples r, r+a, r+2a, ...;
    ``_split_columns`` turns column k1 into X[k1 + b*k2] (k2 < a); and bins
    0..n/2 are read from it, those with k1 > b/2 as conj(X[n - k]). This
    thread takes the first half of the rows and of the columns, the worker
    the rest."""
    n = a * b
    h1 = b // 2 + 1
    y = np.empty((a, h1), dtype=np.complex128)
    rows = x.reshape(b, a).T
    mid = a - a // 2
    _in_parallel(lambda: np.fft.rfft(rows[:mid], axis=1, out=y[:mid]),
                 lambda: np.fft.rfft(rows[mid:], axis=1, out=y[mid:]))
    _in_parallel(lambda: _split_columns(y, 0, h1 // 2, n, False),
                 lambda: _split_columns(y, h1 // 2, h1, n, False))
    # b is odd, so X[k1 + b*k2] for k1 = h1..b-1 is conj(y[a-1-k2, b-k1]),
    # b - k1 running from b//2 down to 1. Rows k2 < a//2 are whole; the rest
    # of bins 0..n/2 is one bin (a even) or h1 (a odd) of row a//2.
    d = a // 2
    whole = out[:d * b].reshape(d, b)
    whole[:, :h1] = y[:d]
    np.conjugate(y[::-1][:d, b // 2:0:-1], out=whole[:, h1:])
    tail = out[d * b:]
    tail[:] = y[d, :tail.shape[0]]


def _split_irfft(s: np.ndarray, a: int, b: int) -> np.ndarray:
    """The ``irfft`` of the one-sided spectrum ``s`` of n = a*b points, the
    imaginary parts of its DC and Nyquist bins dropped (in ``s``, as
    ``irfft`` drops them): column k1 <= b/2 of an (a, b//2 + 1) array gets
    S[k1 + b*k2] for k2 < a, the upper half conj(S[n - k]);
    ``_split_columns`` inverts each column and applies the conjugate
    twiddles; and row r's ``irfft`` of b points gives samples r, r+a, r+2a,
    .... This thread takes the first half of the columns and of the rows,
    the worker the rest."""
    n = a * b
    h1 = b // 2 + 1
    s[0] = s[0].real
    if n % 2 == 0:
        s[-1] = s[-1].real
    windows = np.lib.stride_tricks.sliding_window_view(s, h1)
    # Rows k2 < (a+1)//2 are direct: S[b*k2 + k1]. Row a - j (j = a//2..1)
    # is conj(S[b*j - k1]), the window from b*j - b//2 = b*(j-1) + h1 reversed.
    direct = windows[::b][:(a + 1) // 2]
    mirrored = windows[h1::b][:a // 2][::-1, ::-1]
    y = np.empty((a, h1), dtype=np.complex128)

    def columns(start, stop):
        y[:direct.shape[0], start:stop] = direct[:, start:stop]
        np.conjugate(mirrored[:, start:stop], out=y[direct.shape[0]:, start:stop])
        _split_columns(y, start, stop, n, True)

    _in_parallel(lambda: columns(0, h1 // 2), lambda: columns(h1 // 2, h1))
    samples = np.empty(n)
    rows = samples.reshape(b, a).T
    mid = a - a // 2
    _in_parallel(lambda: np.fft.irfft(y[:mid], b, axis=1, out=rows[:mid]),
                 lambda: np.fft.irfft(y[mid:], b, axis=1, out=rows[mid:]))
    return samples


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


def wideband_inverse(n_out: int, complex_mode: bool, stack) -> tuple:
    """The wideband waveform of the n_out-bin spectrum that ``stack`` writes:
    ``stack(lower)`` writes bins 0..n_out/2 into ``lower``, a view of this
    thread's scratch spectrum, and every bin above them is zero.

    Returns the peak magnitude and ``scaled``, called once with the scale
    chosen from the peak: ``scaled(scale)`` returns the waveform divided by
    ``scale``, a power of two, in a fresh array apart from the scratch."""
    s = _scratch_spectrum(n_out, complex_mode)
    stack(s[:n_out // 2 + 1])
    if not complex_mode:
        # Halving the interior makes the real inverse equal the real part
        # of the complex one, which is what decode's doubling assumes.
        s[1:(n_out + 1) // 2] *= 0.5
        split = _split(n_out)
        samples = _split_irfft(s, *split) if split else np.fft.irfft(s, n_out)
        return (float(max(samples.max(), -samples.min())),
                lambda scale: np.divide(samples, scale, out=samples))
    if not _quartered("inverse", n_out):
        s[n_out // 2 + 1:] = 0
        np.fft.ifft(s, out=s)
        return float(np.abs(s).max()), lambda scale: np.divide(s, scale)
    # The butterfly reads nothing above n_out/2, so those bins stay stale.
    q = n_out // 4
    nyquist = s[2 * q]
    _in_parallel(lambda: _butterfly(s, 0, q // 2), lambda: _butterfly(s, q // 2, q))
    # This thread takes Q0 and Q1, the worker Q2 and Q3.
    own = ((s[q:2 * q], 0), (s[:q], 1))
    other = ((s[2 * q:3 * q], 2), (s[3 * q:], 3))
    for x, r in own + other:
        x[0] += nyquist if r % 2 == 0 else -nyquist
    own_peaks, other_peaks = _in_parallel(lambda: _invert_quarters(own),
                                          lambda: _invert_quarters(other))

    def scaled(scale):
        samples = np.empty(n_out, dtype=np.complex128)

        def interleave(quarters):
            # 0.25 / scale is a power of two, so one product scales exactly.
            for x, r in quarters:
                np.multiply(x, 0.25 / scale, out=samples[r::4])

        _in_parallel(lambda: interleave(own), lambda: interleave(other))
        return samples

    # np.max, unlike max(), passes a NaN peak on. The quarters hold four
    # times their samples.
    return 0.25 * float(np.max(own_peaks + other_peaks)), scaled


def _quarter_bins(x: np.ndarray) -> tuple:
    """Where the forward quarter path holds Y_r, the q/2 + 1 ``rfft`` bins of
    the real plane's samples r, r+4, r+8, ..., in its n_out-bin buffer
    ``x`` (q = n_out/4): Y0 where the lower bins of the plane's spectrum
    are written, Y1 to Y3 in the upper half. They fit where q >= 8
    (n_out >= 32)."""
    q = x.shape[0] // 4
    h = q // 2 + 1
    return (x[:h],) + tuple(x[2 * q + 1 + k * h:2 * q + 1 + (k + 1) * h] for k in range(3))


def _combine(x: np.ndarray, start: int, stop: int, factor: float) -> None:
    """Bins j, q - j, q + j and 2q - j of the real plane's spectrum, for
    start <= j < stop, from the quarter spectra ``_quarter_bins(x)``, times
    ``factor``, into ``x``.

    With q = n_out/4, w = exp(-2*pi*i/n_out), A = Y0[j], B = w^j Y1[j],
    C = w^2j Y2[j] and D = w^3j Y3[j] (one radix-4 decimation-in-time step,
    the forward twin of ``_butterfly``): X[j] = A+B+C+D, X[q+j] = A-iB-C+iD,
    X[q-j] = conj(A+iB-C-iD) and X[2q-j] = conj(A-B+C-D). Each block reads
    its A before writing, and no other block writes there, so j = 0..q/2
    yields bins 0..2q in place.

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
    """The forward quarter path: the ``rfft`` of ``s.real`` into the lower
    n_out//2 + 1 bins of ``x``, interior bins doubled and all times
    ``scale``, and the complex sums of ``s`` for DC and Nyquist. This thread
    takes quarters 0 and 1, the worker 2 and 3, and each combines half."""
    ys = _quarter_bins(x)

    def quarter(r):
        np.fft.rfft(s.real[r::4], out=ys[r])
        return s[r::4].sum()

    (s0, s1), (s2, s3) = _in_parallel(lambda: (quarter(0), quarter(1)),
                                      lambda: (quarter(2), quarter(3)))
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


def wideband_forward(s: np.ndarray, scale: float) -> np.ndarray:
    """Bins 0..n_out/2 of the spectrum of the n_out samples ``s``, interior
    bins doubled and all times ``scale`` (a power of two), in this thread's
    scratch spectrum.

    The bins are those of the real plane's ``rfft``. The scale applied after
    the transform gives the same bits as before it, unless a product is
    subnormal (then after is the more accurate). Complex ``s`` (paper-complex)
    has a one-sided spectrum S, so the plane's bin k, (S[k] + conj(S[-k])) / 2,
    is S[k] / 2 inside but only Re S[k] at DC and Nyquist, their own mirrors;
    those two bins come from sums of the complex samples instead."""
    n_out = s.shape[0]
    complex_mode = s.dtype.kind == "c"
    x = _scratch_spectrum(n_out, complex_mode)
    raw = x[:n_out // 2 + 1]

    def real_plane():
        split = None if complex_mode else _split(n_out)
        if split:
            _split_rfft(s, raw, *split)
        else:
            np.fft.rfft(s.real, out=raw)
        raw[1:(n_out + 1) // 2] *= 2.0
        np.multiply(raw, scale, out=raw)

    if not complex_mode:
        real_plane()
        return raw
    if _quartered("forward", n_out):
        dc, nyquist = _real_plane_in_quarters(s, x, scale)
    else:  # the worker sums the complex samples meanwhile
        _, (dc, nyquist) = _in_parallel(real_plane, lambda: (
            s.sum(), s[::2].sum() - s[1::2].sum() if n_out % 2 == 0 else None))
    raw[0] = dc * scale
    if nyquist is not None:
        raw[-1] = nyquist * scale
    return raw


def invert_rows(raw: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
    """Gather ``raw`` through each row of ``index`` and write its real
    inverse FFT, of ``out.shape[1]`` samples, into the same row of ``out``:
    the first ceil(rows/2) rows on this thread, the rest on the worker. Each
    thread inverts its rows in blocks of at most half of BLOCK_BYTES."""
    def rows(index, out):  # each thread's own views, so no block spills over
        step = spectrum.block_rows(2 * 16 * index.shape[1], index.shape[0])
        for a in range(0, index.shape[0], step):
            np.fft.irfft(raw[index[a:a + step]], out.shape[1], axis=1, out=out[a:a + step])

    mid = index.shape[0] - index.shape[0] // 2
    if mid == index.shape[0]:  # one row: nothing to split
        rows(index, out)
    else:
        _in_parallel(lambda: rows(index[:mid], out[:mid]), lambda: rows(index[mid:], out[mid:]))
