"""The wideband FFTs of bandstack._fft against numpy.fft, on arrays alone:
lengths on both sides of each quarter path's threshold, the largest scale,
and the worker thread's hand-offs."""

import numpy as np
import pytest

from bandstack import _fft
from bandstack._fft import invert_rows, wideband_forward, wideband_inverse

# n_out -> whether the inverse takes its quarter path at the default rule:
# multiples of 4 each side of 65,536, a multiple of 2 above it, and the
# forward threshold's lengths.
_INVERSE_LENGTHS = {65532: False, 65536: True, 65538: False, 65540: True,
                    262144: True, 262145: False}
# The same for the forward transform: 65,540 (n_out % 8 == 4) beside the
# inverse's quarters, multiples of 8 each side of 262,144, 262,140 and
# 262,148 (n_out % 8 == 4) and the odd 262,145.
_FORWARD_LENGTHS = {65540: False, 262136: False, 262140: False, 262144: True,
                    262145: False, 262148: False, 262152: True}


def test_the_lengths_fall_each_side_of_the_rule():
    assert {n: _fft._quartered("inverse", n) for n in _INVERSE_LENGTHS} == _INVERSE_LENGTHS
    assert {n: _fft._quartered("forward", n) for n in _FORWARD_LENGTHS} == _FORWARD_LENGTHS


def _one_sided(n_out, seed):
    """Random bins 0..n_out/2 of a spectrum, the rest of it zero."""
    rng = np.random.default_rng([n_out, seed])
    full = np.zeros(n_out, dtype=np.complex128)
    h = n_out // 2 + 1
    full[:h] = rng.standard_normal(h) + 1j * rng.standard_normal(h)
    return full


def _inverse(full, complex_mode, scale):
    """wideband_inverse of the n_out-bin spectrum ``full``, stacked into
    this thread's scratch with NaN in every bin above n_out/2."""
    n_out = full.shape[0]
    s = _fft._scratch_spectrum(n_out, complex_mode)
    s[:] = complex(np.nan, np.nan)

    def stack(lower):
        assert lower.shape == (n_out // 2 + 1,) and np.shares_memory(lower, s)
        lower[:] = full[:n_out // 2 + 1]

    peak, scaled = wideband_inverse(n_out, complex_mode, stack)
    samples = scaled(scale)
    assert not np.shares_memory(samples, s)
    return peak, samples


@pytest.mark.parametrize("n_out", sorted(_INVERSE_LENGTHS))
def test_paper_complex_inverse_matches_one_ifft(n_out):
    full = _one_sided(n_out, 0)
    want = np.fft.ifft(full)
    scale = 2.0 ** -3
    peak, samples = _inverse(full, True, scale)
    if _INVERSE_LENGTHS[n_out]:
        assert abs(peak - np.abs(want).max()) <= 1e-14 * np.abs(want).max()
        assert np.abs(samples * scale - want).max() <= 1e-14 * np.abs(want).max()
    else:
        assert peak == float(np.abs(want).max())
        assert samples.tobytes() == np.divide(want, scale).tobytes()


@pytest.mark.parametrize("n_out", sorted(_INVERSE_LENGTHS))
def test_real_inverse_matches_one_irfft(n_out):
    full = _one_sided(n_out, 1)
    halved = full[:n_out // 2 + 1].copy()
    halved[1:(n_out + 1) // 2] *= 0.5
    want = np.fft.irfft(halved, n_out)
    peak, samples = _inverse(full, False, 4.0)
    assert peak == float(np.abs(want).max())
    assert samples.dtype == np.float64
    assert samples.tobytes() == np.divide(want, 4.0).tobytes()


def _one_rfft(s, scale):
    """Bins 0..n_out/2 of one ``rfft`` of the real plane of ``s``, interior
    doubled, then times ``scale``; for complex ``s``, DC and Nyquist from
    sums of the complex samples."""
    n_out = s.shape[0]
    raw = np.fft.rfft(s.real)
    raw[1:(n_out + 1) // 2] *= 2.0
    raw *= scale
    if s.dtype.kind == "c":
        raw[0] = s.sum() * scale
        if n_out % 2 == 0:
            raw[-1] = (s[::2].sum() - s[1::2].sum()) * scale
    return raw


def _forward(s, scale):
    """wideband_forward of ``s``, with NaN in its scratch before the call."""
    _fft._scratch_spectrum(s.shape[0], s.dtype.kind == "c")[:] = complex(np.nan, np.nan)
    return wideband_forward(s, scale)


def _noise(n_out, complex_mode, seed=0):
    rng = np.random.default_rng([n_out, seed])
    s = rng.standard_normal(n_out)
    return s + 1j * rng.standard_normal(n_out) if complex_mode else s


@pytest.mark.parametrize("scale", [2.0 ** -20, 1.0, 2.0 ** 1023])
@pytest.mark.parametrize("n_out", sorted(_FORWARD_LENGTHS))
def test_paper_complex_forward_matches_one_rfft(n_out, scale):
    # at 2**1023, where 2*scale overflows, samples of 2**-40 stay finite
    s = _noise(n_out, True) * (2.0 ** -40 if scale == 2.0 ** 1023 else 1.0)
    want = _one_rfft(s, scale)
    with np.errstate(over="raise"):
        got = _forward(s, scale)
    assert got.shape == (n_out // 2 + 1,)
    assert np.isfinite(want).all()
    if _FORWARD_LENGTHS[n_out]:
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_out", sorted(_FORWARD_LENGTHS))
def test_real_forward_matches_one_rfft(n_out):
    s = _noise(n_out, False)
    assert _forward(s, 2.0 ** -5).tobytes() == _one_rfft(s, 2.0 ** -5).tobytes()


@pytest.mark.parametrize("p", [1, 2, 7])
def test_invert_rows_matches_one_batched_irfft(p):
    rng = np.random.default_rng(p)
    n = 1001
    raw = rng.standard_normal(40000) + 1j * rng.standard_normal(40000)
    index = rng.integers(0, raw.shape[0], size=(p, n // 2 + 1))
    out = np.full((p, n), np.nan)
    invert_rows(raw, index, out)
    assert out.tobytes() == np.fft.irfft(raw[index], n, axis=1).tobytes()


# (rows, rows per block): each thread's share, 3 of 5 or 6 and 7 of 14, is
# no multiple of its evenly split blocks (2 + 1 and 4 + 3 rows).
@pytest.mark.parametrize("p, block", [(5, 2), (6, 2), (14, 6)])
def test_invert_rows_inverts_each_row_once(p, block, monkeypatch):
    rng = np.random.default_rng([p, block])
    n = 100
    raw = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    index = rng.integers(0, raw.shape[0], size=(p, n // 2 + 1))
    want = np.fft.irfft(raw[index], n, axis=1)
    monkeypatch.setattr(_fft.spectrum, "BLOCK_BYTES", block * 2 * 16 * index.shape[1])
    out = np.full((p, n), np.nan)
    invert_rows(raw, index, out)  # on two threads
    assert out.tobytes() == want.tobytes()

    written = []
    irfft = np.fft.irfft

    def counted(a, n, axis, out):
        first = (out.ctypes.data - whole.ctypes.data) // whole.strides[0]
        written.extend(range(first, first + out.shape[0]))
        assert a.shape[0] == out.shape[0] <= block
        return irfft(a, n, axis=axis, out=out)

    whole = np.full((p, n), np.nan)
    monkeypatch.setattr(_fft, "_in_parallel", _serial("own first", []))
    monkeypatch.setattr(np.fft, "irfft", counted)
    invert_rows(raw, index, whole)
    monkeypatch.undo()
    assert written == list(range(p))
    assert whole.tobytes() == want.tobytes()


def _serial(order, handoffs):
    """A stand-in for ``_fft._in_parallel`` that runs both halves on this
    thread, in ``order``, and counts its calls in ``handoffs``."""
    def in_parallel(own, other):
        handoffs.append(order)
        if order == "own first":
            return own(), other()
        theirs = other()
        return own(), theirs
    return in_parallel


def _every_call():
    """(name, call) for each entry point on each of its paths; each call
    returns the bytes of its output."""
    calls = []
    for n_out in (65540, 65536, 262144):
        full = _one_sided(n_out, 2)
        calls.append((f"inverse {n_out}",
                      lambda full=full: _inverse(full, True, 0.5)[1].tobytes()))
        s = _noise(n_out, True, 3)
        calls.append((f"forward {n_out}", lambda s=s: _forward(s, 2.0).tobytes()))
    rng = np.random.default_rng(4)
    raw = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    index = rng.integers(0, 300, size=(7, 51))
    calls.append(("invert_rows", lambda: _rows(raw, index)))
    return calls


def _rows(raw, index):
    out = np.empty((index.shape[0], 100))
    invert_rows(raw, index, out)
    return out.tobytes()


# Hand-offs per call: the inverse's quarter path splits its butterfly, its
# inverses and its samples; the forward quarter path its quarter rffts and
# its combine; the forward's one rfft its edge sums; invert_rows its rows.
_HANDOFFS = {"inverse 65540": 3, "forward 65540": 1, "inverse 65536": 3,
             "forward 65536": 1, "inverse 262144": 3, "forward 262144": 2,
             "invert_rows": 1}


@pytest.mark.parametrize("order", ["own first", "other first"])
def test_one_thread_gives_the_bytes_of_two(order, monkeypatch):
    calls = _every_call()
    want = {name: call() for name, call in calls}
    for name, call in calls:
        handoffs = []
        with monkeypatch.context() as serial:
            serial.setattr(_fft, "_in_parallel", _serial(order, handoffs))
            got = call()
        assert len(handoffs) == _HANDOFFS[name], name
        assert got == want[name], name
