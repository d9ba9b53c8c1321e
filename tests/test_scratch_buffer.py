"""The per-thread scratch spectrum of encode and decode, and their one
worker thread: memory, threads and forks."""

import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from bandstack.model import (
    MODE_PAPER_COMPLEX,
    MODE_REAL_HERMITIAN,
    MODE_STRICT_LOSSLESS,
    MODES,
    MultiChannelRecord,
    TransformConfig,
)
from bandstack import _fft, spectrum
from bandstack._fft import _in_parallel
from bandstack.transform import decode, encode
from helpers import serial_in_parallel

# p=4, n=1024 at 1024 Hz into 65536 Hz: n_out = 65536 = 2 * 8*p*n, so the
# wideband arrays dwarf the channel ones.
_P, _N, _RATE, _TARGET = 4, 1024, 1024.0, 65536.0


def _record(seed=0):
    rng = np.random.default_rng(seed)
    return MultiChannelRecord(rng.standard_normal((_P, _N)), _RATE)


def _traced_peak(fn):
    """Peak traced bytes while ``fn`` runs in a fresh thread, which starts
    with no scratch spectrum of its own; returns (peak, fn's result)."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()))
    tracemalloc.start()
    try:
        thread.start()
        thread.join(timeout=60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not thread.is_alive()
    return peak, result[0]


def test_paper_complex_encode_holds_two_wideband_arrays_at_most():
    # the scratch spectrum is allocated inside the traced call, and the
    # returned signal's samples are the only other n_out array
    cfg = TransformConfig(_TARGET, _P, mode=MODE_PAPER_COMPLEX)
    rec = _record()
    encode(rec, cfg)  # builds and caches the plan outside the trace
    peak, sig = _traced_peak(lambda: encode(rec, cfg))
    assert sig.n_out == 65536
    assert peak <= 2.5 * 16 * sig.n_out


def test_a_new_length_frees_the_old_scratch_before_allocating():
    def switch_lengths():
        old = _fft._scratch_spectrum(2 ** 17, True).nbytes
        tracemalloc.reset_peak()
        new = _fft._scratch_spectrum(2 ** 15, False).nbytes
        return old, new, tracemalloc.get_traced_memory()[0]

    peak, (old, new, current) = _traced_peak(switch_lengths)
    assert current < old  # the thread holds only the new buffer
    assert peak < old + new


def test_returned_arrays_never_share_the_scratch():
    for mode in (MODE_PAPER_COMPLEX, MODE_REAL_HERMITIAN):
        cfg = TransformConfig(_TARGET, _P, mode=mode)
        first = encode(_record(1), cfg)
        decoded = decode(first)
        samples, channels = first.samples.copy(), decoded.channels.copy()
        decode(encode(_record(2), cfg))
        assert first.samples.tobytes() == samples.tobytes()
        assert decoded.channels.tobytes() == channels.tobytes()


def test_decode_allocates_no_scaled_wideband_copy():
    # real mode in a fresh thread: the half-length scratch is 8*n_out bytes
    cfg = TransformConfig(_TARGET, _P, mode=MODE_REAL_HERMITIAN)
    sig = encode(_record(), cfg)
    peak, _ = _traced_peak(lambda: decode(sig))
    assert peak <= 1.6 * 8 * sig.n_out


def test_paper_complex_decode_reuses_the_encode_scratch():
    cfg = TransformConfig(_TARGET, _P, mode=MODE_PAPER_COMPLEX)
    rec = _record()
    encode(rec, cfg)

    def encode_then_traced_decode():
        sig = encode(rec, cfg)
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        decode(sig)
        return tracemalloc.get_traced_memory()[1] - base, sig.n_out

    _, (peak, n_out) = _traced_peak(encode_then_traced_decode)
    assert peak <= 0.6 * 8 * n_out


# p=8, n=4096 at 1024 Hz into 16384 Hz: n_out = 65536 = 2*p*n, so one (p, n)
# channel array weighs half the real-mode scratch and the FFT temporaries and
# copies of the channels show against it.
_CH_P, _CH_N, _CH_RATE, _CH_TARGET = 8, 4096, 1024.0, 16384.0


def _channel_heavy_record():
    rng = np.random.default_rng(3)
    return MultiChannelRecord(rng.standard_normal((_CH_P, _CH_N)), _CH_RATE)


def test_real_decode_allocates_its_gather_and_the_returned_channels_only():
    # beside the half-length scratch: the (p, n//2 + 1) complex gather, about
    # one (p, n) float array, and the channels, which the inverse FFT writes
    # and the record keeps (an inverse scattered into a third array that the
    # record then copies peaks at three)
    cfg = TransformConfig(_CH_TARGET, _CH_P, mode=MODE_REAL_HERMITIAN)
    sig = encode(_channel_heavy_record(), cfg)  # builds and caches the plan
    peak, decoded = _traced_peak(lambda: decode(sig))
    assert decoded.channels.shape == (_CH_P, _CH_N)
    assert peak <= 8 * sig.n_out + 2.5 * decoded.channels.nbytes


def test_real_encode_returns_its_inverse_without_copying_it():
    # the half-length scratch and the returned samples; the channels' rfft
    # bins are freed before the inverse allocates them
    cfg = TransformConfig(_CH_TARGET, _CH_P, mode=MODE_REAL_HERMITIAN)
    rec = _channel_heavy_record()
    encode(rec, cfg)
    peak, sig = _traced_peak(lambda: encode(rec, cfg))
    assert sig.samples.nbytes == 8 * sig.n_out
    assert peak <= 8 * sig.n_out + 1.5 * sig.samples.nbytes


@pytest.mark.parametrize("mode", MODES)
def test_returned_arrays_are_locked_and_never_the_scratch(mode):
    cfg = TransformConfig(_TARGET, _P, mode=mode)
    sig = encode(_record(), cfg)
    decoded = decode(sig)
    scratch = _fft._scratch_spectrum(sig.n_out, sig.is_complex)
    for array in (sig.samples, decoded.channels):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="WRITEABLE"):
            array.setflags(write=True)
        assert not np.shares_memory(array, scratch)


# Four configurations whose scratch lengths all differ (n_out and mode), so
# threads that shared one buffer would overwrite each other's spectra.
_THREAD_CASES = (
    (3, 64, 400.0, MODE_PAPER_COMPLEX),
    (3, 64, 401.0, MODE_REAL_HERMITIAN),
    (2, 48, 200.0, MODE_PAPER_COMPLEX),
    (2, 48, 257.0, MODE_STRICT_LOSSLESS),
)


def _roundtrip_bytes(case, record):
    p, _, target, mode = case
    sig = encode(record, TransformConfig(target, p, mode=mode))
    return sig.samples.tobytes() + decode(sig).channels.tobytes()


def test_concurrent_encode_decode_matches_serial_bytes():
    records = [MultiChannelRecord(np.random.default_rng(i).standard_normal((p, n)), float(n))
               for i, (p, n, _, _) in enumerate(_THREAD_CASES)]
    want = [_roundtrip_bytes(case, rec) for case, rec in zip(_THREAD_CASES, records)]
    mismatches, finished = [], []

    def worker(start):
        for call in range(200):
            k = (start + call) % len(_THREAD_CASES)
            if _roundtrip_bytes(_THREAD_CASES[k], records[k]) != want[k]:
                mismatches.append((start, call))
        finished.append(start)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the pipelines
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(finished) == [0, 1, 2, 3]
    assert mismatches == []


# Decodes that split their channels unevenly (p=7: 4 and 3) in every mode.
_DECODE_CASES = (
    (7, 64, 1000.0, MODE_PAPER_COMPLEX),
    (7, 64, 1001.0, MODE_REAL_HERMITIAN),
    (7, 65, 7 * 2 * 64, MODE_STRICT_LOSSLESS),
    (2, 48, 200.0, MODE_PAPER_COMPLEX),
)


def _decode_signals():
    signals = []
    for i, (p, n, target, mode) in enumerate(_DECODE_CASES):
        rec = MultiChannelRecord(np.random.default_rng(i).standard_normal((p, n)), float(n))
        signals.append(encode(rec, TransformConfig(target, p, mode=mode)))
    return signals


def _worker_threads():
    return [t for t in threading.enumerate() if t.name == "bandstack-worker"]


def _four_threads_like_one(call, inputs, monkeypatch):
    """Four threads run ``call`` on ``inputs`` 100 times each, in turn, and
    get the bytes it gives with both halves of its work on one thread."""
    with monkeypatch.context() as serial:  # both halves on this thread, one after the other
        serial.setattr(_fft, "_in_parallel", serial_in_parallel())
        want = [call(x) for x in inputs]
    mismatches, finished = [], []

    def worker(start):
        for i in range(100):
            k = (start + i) % len(inputs)
            if call(inputs[k]) != want[k]:
                mismatches.append((start, i))
        finished.append(start)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(finished) == [0, 1, 2, 3]
    assert mismatches == []
    assert len(_worker_threads()) == 1  # one worker, whatever the number of callers


def test_four_threads_decode_like_one(monkeypatch):
    # paper-complex n_out 1000 (a multiple of 8) and 200 off decode's quarter
    # path, and 1024 on it, with a lower threshold and blocks of a few bins
    monkeypatch.setitem(_fft._QUARTERS, "forward", (8, 1024))
    monkeypatch.setattr(spectrum, "BLOCK_BYTES", 1024)
    rec = MultiChannelRecord(np.random.default_rng(9).standard_normal((5, 64)), 64.0)
    quartered = encode(rec, TransformConfig(1024.0, 5, mode=MODE_PAPER_COMPLEX))
    signals = _decode_signals() + [quartered]
    assert [_fft._quartered("forward", s.n_out) for s in signals if s.is_complex] == [
        False, False, True]
    _four_threads_like_one(lambda s: decode(s).channels.tobytes(), signals, monkeypatch)


def test_four_threads_encode_like_one(monkeypatch):
    # paper-complex on the quarter path (n_out 96, 28 and 1024) and off it
    # (n_out 90), and one real mode, all with blocks of a few bins
    monkeypatch.setitem(_fft._QUARTERS, "inverse", (4, 16))
    monkeypatch.setattr(spectrum, "BLOCK_BYTES", 256)
    inputs = []
    for i, (p, n, target, mode) in enumerate((
            (3, 16, 96.0, MODE_PAPER_COMPLEX), (2, 8, 28.0, MODE_PAPER_COMPLEX),
            (8, 64, 1024.0, MODE_PAPER_COMPLEX), (3, 16, 90.0, MODE_PAPER_COMPLEX),
            (3, 16, 96.0, MODE_REAL_HERMITIAN))):
        rec = MultiChannelRecord(np.random.default_rng(i).standard_normal((p, n)), float(n))
        inputs.append((rec, TransformConfig(target, p, mode=mode)))
    assert [_fft._quartered("inverse", int(c.target_rate_hz)) for _, c in inputs[:4]] == [
        True, True, True, False]
    _four_threads_like_one(lambda x: encode(*x).samples.tobytes(), inputs, monkeypatch)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_decodes_after_its_parent_has():
    # the child inherits the parent's record of a worker thread, but not
    # the thread: its decode must neither wait on that thread nor queue
    # work for it, but start a worker of its own
    sig = _decode_signals()[0]
    want = decode(sig).channels.tobytes()
    assert _worker_threads()
    with warnings.catch_warnings():  # Python 3.12 warns about forking with threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 3
        try:
            signal.alarm(10)
            same = decode(sig).channels.tobytes() == want
            code = 0 if same and _worker_threads() else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's decode did not finish within 5 s")
    assert os.waitstatus_to_exitcode(status) == 0


def _on_the_worker(work):
    """What ``work`` returns as the worker's half of ``_in_parallel``, with
    this thread's half waiting until the worker has started it, so the
    worker (not this thread) runs it."""
    started = threading.Event()

    def other():
        started.set()
        return work()

    return _in_parallel(lambda: started.wait(10) or pytest.fail("worker idle"), other)[1]


def test_an_exception_in_the_workers_half_reaches_the_caller():
    error = KeyError("the worker's half")

    def work():
        raise error

    with pytest.raises(KeyError) as raised:
        _on_the_worker(work)
    assert raised.value is error
    assert _on_the_worker(lambda: 5) == 5  # the worker lives on


def test_the_workers_half_runs_in_the_callers_context():
    with np.errstate(over="raise", invalid="ignore"):
        name, err = _on_the_worker(lambda: (threading.current_thread().name, np.geterr()))
    assert name == "bandstack-worker"
    assert (err["over"], err["invalid"]) == ("raise", "ignore")


def test_the_caller_raises_only_after_the_workers_half_is_over():
    started, finished = threading.Event(), threading.Event()

    def other():
        started.set()
        time.sleep(0.2)
        finished.set()

    def own():
        assert started.wait(10)
        raise ValueError("this thread's half")

    with pytest.raises(ValueError, match="this thread's half"):
        _in_parallel(own, other)
    assert finished.is_set()


def test_a_busy_worker_leaves_the_other_half_to_the_caller():
    # another thread's work holds the worker, so this thread's calls take
    # their other halves back: run after its own half, or dropped when it raises
    occupied, release = threading.Event(), threading.Event()
    blocker = threading.Thread(target=_on_the_worker,
                               args=(lambda: occupied.set() or release.wait(10),))
    blocker.start()
    ran = []

    def own_raises():
        raise ValueError("this thread's half")

    try:
        assert occupied.wait(10)
        assert _in_parallel(lambda: 6, lambda: ran.append("run") or 7) == (6, 7)
        with pytest.raises(ValueError):
            _in_parallel(own_raises, lambda: ran.append("dropped"))
    finally:
        release.set()
        blocker.join(timeout=10)
    assert not blocker.is_alive()
    assert ran == ["run"]
    assert _on_the_worker(lambda: 5) == 5  # the worker skips the taken-back entries
    assert ran == ["run"]
