"""Mapping contracts: grids, oracle/fast equivalence, stacking semantics."""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from bandstack import mapping
from bandstack.mapping import (
    apply_stacking,
    build_band_plan,
    stack_fast,
)
from bandstack.model import (
    ChannelSpectrum,
    CollisionError,
    InfeasibleError,
    TransformConfig,
    ValidationError,
    destination_grid,
    output_length,
    source_frequencies,
)
from bandstack.transform import roundtrip_report
from helpers import (
    collisions_literal,
    nearest_search_literal,
    random_record,
    stack_literal,
    stack_oracle,
    stretched_frequencies,
)


def _plan(p, n, f_s, F_s, mode="real-hermitian", order=None):
    cfg = TransformConfig(F_s, p, mode=mode, stacking_order=order)
    return build_band_plan(p, n, f_s, cfg)


def test_source_grid_is_inclusive():
    assert np.allclose(source_frequencies(4, 4.0), [0, 4 / 3, 8 / 3, 4])
    assert source_frequencies(5, 40.0)[-1] == pytest.approx(40.0)


def test_unit_stretch_single_channel():
    # p=1, f_s=4, F_s=8: f_band = 4, the band covers 0..4 with ratio 1
    plan = _plan(1, 4, 4.0, 8.0)
    assert plan.band_width_hz == 4.0
    assert plan.alpha == 1.0
    assert np.allclose(plan.dest_grid, np.linspace(0, 8, 8))
    assert np.allclose(stretched_frequencies(4, 4.0, 4.0, 0), [0, 4 / 3, 8 / 3, 4])


def test_paper_configuration_plan():
    plan = _plan(30, 10000, 1000.0, 16000.0)
    assert plan.band_width_hz == pytest.approx(800.0 / 3.0, rel=1e-12)
    assert plan.band_offsets_hz[0] == 0.0
    assert plan.band_offsets_hz[29] == pytest.approx(7733.333333333, rel=1e-9)
    top_end = plan.band_offsets_hz[29] + plan.band_width_hz
    assert top_end == pytest.approx(8000.0, rel=1e-12)  # F_s / 2
    assert plan.n_out == 160000
    assert plan.collision_count > 0
    assert not plan.rate_feasible  # 16000 < 30 * 1000
    assert not plan.lossless


def test_oracle_matches_independent_literal_search():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        n_out = int(rng.integers(2, 40))
        p = int(rng.integers(1, 4))
        f_s, F_s = float(n), float(n_out)  # T = 1 s keeps n_out exact
        band = int(rng.integers(0, p))
        got = stack_oracle(p, n, f_s, F_s, band)
        targets = stretched_frequencies(n, f_s, F_s / (2 * p), band)
        want = nearest_search_literal(targets, destination_grid(n_out, F_s))
        assert np.array_equal(got, want)


def test_oracle_exact_hit_and_small_instance():
    # N=7 sources onto 23 destination bins (T = 1 s)
    got = stack_oracle(1, 7, 7.0, 23.0, 0)
    want = nearest_search_literal(
        stretched_frequencies(7, 7.0, 11.5, 0), destination_grid(23, 23.0))
    assert np.array_equal(got, want)
    assert got[0] == 0  # f_stretch 0 is an exact grid hit


def test_fast_equals_oracle_fractional_duration():
    # T = 0.5 s: n_out (50) is not a multiple of n
    for band in range(2):
        fast = stack_fast(2, 5, 10.0, 100.0, band)
        scan = stack_oracle(2, 5, 10.0, 100.0, band)
        assert np.array_equal(fast, scan)
        targets = stretched_frequencies(5, 10.0, 25.0, band)
        assert np.array_equal(scan, nearest_search_literal(targets, destination_grid(50, 100.0)))


def test_fast_equals_oracle_sweep():
    # build_band_plan computes all bands in one pass, so its rows and its
    # collision analysis are pinned here too
    for p in (1, 2, 3):
        for n in (2, 3, 5, 9, 17):
            for n_out in (2, 3, 8, 31, 64):
                plan = _plan(p, n, float(n), float(n_out))
                for b in range(p):
                    fast = stack_fast(p, n, float(n), float(n_out), b)
                    scan = stack_oracle(p, n, float(n), float(n_out), b)
                    assert np.array_equal(fast, scan), (p, n, n_out, b)
                    assert np.array_equal(plan.assignments[b], scan), (p, n, n_out, b)
                got = (plan.collision_count, plan.lossless, plan.first_destructive)
                assert got == collisions_literal(plan.assignments, n_out), (p, n, n_out)


# Plans over a fixed sweep, the three benchmark configurations and the tie
# example below. Decode rebuilds the plan from the sidecar, so this digest
# must never change: a different plan would misread every existing file.
GOLDEN_CONFIGS = [
    (p, n, f_s, ratio * p * f_s)
    for p, n, f_s, ratio in itertools.product(
        (1, 2, 3, 5, 8, 13, 30), (2, 3, 4, 5, 7, 9, 12, 16, 33, 100, 257, 1000),
        (4.0, 250.0, 1000.0), (0.37, 0.5, 2 / 3, 1.0, 1.25, 1.5, 2.0, 3.7))
] + [
    (30, 10000, 1000.0, 16000.0), (64, 7680, 256.0, 32768.0), (8, 15000, 250.0, 4000.0),
    (30, 4, 4.0, 178.0), (30, 4, 250.0, 11125.0),
]
GOLDEN_DIGEST = "b0b91171c4f132243d8df1beec6ff59b66236da6b8da3fdeb8b57848d118244f"


def test_plans_match_the_golden_digest():
    digest = hashlib.sha256()
    for p, n, f_s, F_s in GOLDEN_CONFIGS:
        try:
            plan = _plan(p, n, f_s, F_s)
        except ValidationError:
            digest.update(b"refused")
            continue
        digest.update(plan.assignments.tobytes())
        digest.update(repr((plan.n_out, plan.collision_count, plan.lossless,
                            plan.first_destructive)).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_exact_ties_follow_the_float_rounding():
    # (9,3), (10,0) and (29,3) of p=30, n=4, n_out=178 lie exactly midway
    # between two grid points; the rounding of their float targets, which
    # depends on the rates, picks the bin
    low = _plan(30, 4, 4.0, 178.0)
    high = _plan(30, 4, 250.0, 11125.0)
    assert low.n_out == high.n_out == 178
    assert (low.assignments[10, 0], low.assignments[29, 3]) == (30, 88)
    assert (high.assignments[10, 0], high.assignments[29, 3]) == (29, 89)
    assert (low.first_destructive, high.first_destructive) == ((10, 0), (9, 2))


def test_near_ties_on_a_long_record():
    # 2p(n-1) * n_out > 2**49, so bins within r = 2 of a midpoint are
    # re-decided too: band 19 holds one at r = 2, band 63 an exact tie
    p, n, f_s, F_s = 64, 200000, 256.0, 32768.0
    n_out, den = 25_600_000, 2 * p * (n - 1)
    grid = destination_grid(n_out, F_s)
    rng = np.random.default_rng(5)
    for band, closest in ((19, 2), (63, 0)):
        fast = stack_fast(p, n, f_s, F_s, band)
        r = (2 * (band * (n - 1) + np.arange(n)) * (n_out - 1) + den) % (2 * den)
        distance = np.minimum(r, 2 * den - r)
        assert distance.min() == closest
        bins = np.union1d(np.flatnonzero(distance <= den // 1000),
                          rng.choice(n, 200, replace=False))
        targets = stretched_frequencies(n, f_s, F_s / (2 * p), band)[bins]
        for k, t in zip(bins, targets):
            lo = fast[k] - 3
            assert lo + nearest_search_literal([t], grid[lo:lo + 7])[0] == fast[k], (band, k)


def test_a_near_tie_is_decided_by_the_float_rounding():
    # Source bin 86408 of band 6 lies 1/den grid steps above the midpoint
    # below bin q (r = 2), yet its float target rounds under that midpoint,
    # so the scan takes q - 1. No grid of n_out ~ 2**37.6 points fits in memory: the
    # scan runs on a window of points computed as linspace computes them.
    p, n, f_s, F_s, band, k = 7, 183542, 568.5397087977499, 644658743.9153991, 6, 86408
    n_out, den = output_length(n, f_s, F_s), 2 * p * (n - 1)
    q, r = divmod(2 * (band * (n - 1) + k) * (n_out - 1) + den, 2 * den)
    assert r == 2
    step = F_s / (n_out - 1)
    assert np.array_equal(destination_grid(1001, F_s)[:-1], np.arange(1000) * (F_s / 1000))
    target = stretched_frequencies(n, f_s, F_s / (2 * p), band)[k]
    window = np.arange(q - 3, q + 4)
    assert window[nearest_search_literal([target], window * step)[0]] == q - 1
    assert stack_fast(p, n, f_s, F_s, band)[k] == q - 1


def test_every_assignment_is_in_the_half_spectrum_irfft_reads():
    # The real modes stack into only bins 0..n_out//2, so the top band's end
    # at F_s/2 must never round past that bin.
    for n in range(2, 33):
        for n_out in range(2, 65):
            for p in range(1, 5):
                plan = _plan(p, n, float(n), float(n_out))
                assert plan.assignments.max() <= n_out // 2, (p, n, n_out)
    for p, n, f_s, F_s in [(30, 10000, 1000.0, 16000.0), (64, 7680, 256.0, 32768.0),
                           (8, 15000, 250.0, 4000.0), (8, 12001, 250.0, 4000.0)]:
        plan = _plan(p, n, f_s, F_s)
        assert plan.assignments.max() <= plan.n_out // 2, (p, n, f_s, F_s)


def test_collisions_and_source_map_on_the_c2_grid():
    # The analysis runs over the n_out//2 + 1 bins the assignments reach; the
    # literal loop over all n_out bins must agree. The source map's sentinel,
    # the zero after the p*(n//2 + 1) rfft bins, marks exactly the bins that
    # no band writes, and only written bins can carry the mirror sign.
    for n in range(2, 33):
        for n_out in range(2, 65):
            for p in range(1, 5):
                plan = _plan(p, n, float(n), float(n_out), order=tuple(range(p))[::-1])
                got = (plan.collision_count, plan.lossless, plan.first_destructive)
                assert got == collisions_literal(plan.assignments, n_out), (p, n, n_out)
                assert plan.source.shape == plan.sign.shape == (n_out // 2 + 1,)
                assert (plan.source.dtype, plan.sign.dtype) == (np.intp, np.int8)
                written = np.zeros(n_out // 2 + 1, dtype=bool)
                written[plan.assignments] = True
                sentinel = p * (n // 2 + 1)
                assert np.array_equal(plan.source == sentinel, ~written), (p, n, n_out)
                assert plan.source.max() <= sentinel
                assert set(np.unique(plan.sign)) <= {-1, 1}
                assert (plan.sign[~written] == 1).all()


def test_source_map_is_shared_through_the_plan_cache():
    rec = random_record(np.random.default_rng(2), 3, 17, 25.0)
    plan = _plan(3, 17, 25.0, 150.0, order=(1, 2, 0))
    source, sign = plan.source, plan.sign
    roundtrip_report(rec, TransformConfig(150.0, 3, stacking_order=(1, 2, 0)))
    again = _plan(3, 17, 25.0, 150.0, order=(1, 2, 0))
    assert again is plan
    assert again.source is source and again.sign is sign


def test_assignment_monotone_and_band_contained():
    for p, n, f_s, F_s in [(1, 16, 32.0, 64.0), (4, 25, 10.0, 120.0),
                           (3, 40, 250.0, 1000.0), (2, 5, 10.0, 100.0)]:
        plan = _plan(p, n, f_s, F_s)
        for b, idx in enumerate(plan.assignments):
            assert (np.diff(idx) >= 0).all()
            freqs = plan.dest_grid[idx]
            low = plan.band_offsets_hz[b]
            high = low + plan.band_width_hz
            assert freqs.min() >= low - plan.grid_step_hz
            assert freqs.max() <= high + plan.grid_step_hz
            assert freqs.max() <= F_s / 2 + plan.grid_step_hz


def test_plan_is_deterministic():
    a = _plan(3, 17, 25.0, 150.0)
    mapping._build_band_plan.cache_clear()
    b = _plan(3, 17, 25.0, 150.0)
    assert all(np.array_equal(x, y) for x, y in zip(a.assignments, b.assignments))
    assert np.array_equal(a.dest_grid, b.dest_grid)
    assert a.collision_count == b.collision_count


def test_adjacent_bands_share_boundary_bin():
    # the source grid spans 0..f_s inclusive, so band b's top frequency
    # equals band b+1's bottom; the shared bin is a structural collision
    plan = _plan(2, 8, 4.0, 16.0)
    assert plan.assignments[0][-1] == plan.assignments[1][0]
    assert plan.collision_count >= 1
    assert plan.lossless  # only the redundant mirror bin is overwritten


def test_rate_floor_is_not_sufficient():
    # F_s = p*f_s satisfies the rate floor yet halves the per-bin spacing,
    # so interior bins collide and content is destroyed
    plan = _plan(2, 16, 8.0, 16.0)
    assert plan.rate_feasible
    assert not plan.lossless


def test_strict_mode_refuses_below_rate_floor():
    with pytest.raises(InfeasibleError, match=r"F_s >= p\*f_s = 30000"):
        _plan(30, 10000, 1000.0, 16000.0, mode="strict-lossless")


def test_strict_refusal_is_not_cached():
    for _ in range(2):
        with pytest.raises(InfeasibleError, match=r"F_s >= p\*f_s = 40"):
            _plan(4, 100, 10.0, 39.0, mode="strict-lossless")
    for _ in range(2):
        with pytest.raises(CollisionError, match="channel 1 source bin 1"):
            _plan(2, 2, 4.0, 16.0, mode="strict-lossless")


def test_plan_cache_shares_equal_configurations():
    mapping._build_band_plan.cache_clear()
    plan = _plan(3, 17, 25.0, 150.0)
    assert _plan(3, 17, 25.0, 150.0) is plan
    # numpy integers and integral rates are the same configuration
    cfg = TransformConfig(150, np.int64(3))
    assert build_band_plan(np.int64(3), np.int32(17), 25, cfg) is plan
    info = mapping._build_band_plan.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("change", [
    {"mode": "paper-complex"},
    {"order": (2, 0, 1)},
    {"n": 18},
    {"f_s": 24.0},
    {"F_s": 140.0},
])
def test_plan_cache_keeps_configurations_apart(change):
    base = dict(p=3, n=17, f_s=25.0, F_s=150.0)
    first = _plan(**base)
    args = {**base, **change}
    cached = _plan(**args)
    assert cached is not first
    mapping._build_band_plan.cache_clear()
    fresh = _plan(**args)
    assert cached is not fresh
    assert np.array_equal(cached.assignments, fresh.assignments)
    assert (cached.collision_count, cached.lossless, cached.first_destructive) == (
        fresh.collision_count, fresh.lossless, fresh.first_destructive)
    assert (cached.mode, cached.stacking_order) == (fresh.mode, fresh.stacking_order)


def test_cached_plan_is_read_only():
    plan = _plan(3, 17, 25.0, 150.0)
    assert _plan(3, 17, 25.0, 150.0) is plan
    with pytest.raises(ValueError, match="read-only"):
        plan.assignments[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        plan.band_offsets_hz[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        plan.source[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        plan.sign[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        plan.decode_index[0, 0] = 1
    # nor can the arrays be unlocked again
    for array in (plan.assignments, plan.band_offsets_hz, plan.source, plan.sign,
                  plan.decode_index):
        with pytest.raises(ValueError, match="WRITEABLE"):
            array.setflags(write=True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.collision_count = 0


@pytest.mark.parametrize("p, n, f_s, F_s", [(5, 17, 25.0, 310.0), (4, 64, 50.0, 333.0),
                                          (7, 10, 10.0, 41.0)])
def test_decode_index_gathers_each_channels_band_in_channel_order(p, n, f_s, F_s):
    rng = np.random.default_rng(p * n)
    for order in (None, tuple(reversed(range(p))), tuple(map(int, rng.permutation(p)))):
        plan = _plan(p, n, f_s, F_s, order=order)
        want = plan.assignments[np.argsort(plan.stacking_order), :n // 2 + 1]
        assert plan.decode_index.dtype == np.intp
        assert plan.decode_index.flags.c_contiguous
        assert np.array_equal(plan.decode_index, want)
        for band, channel in enumerate(plan.stacking_order):
            assert np.array_equal(plan.decode_index[channel], plan.assignments[band, :n // 2 + 1])


def test_plan_cache_is_bounded():
    for n in range(10, 30):
        _plan(2, n, 10.0, 60.0)
    info = mapping._build_band_plan.cache_info()
    assert info.maxsize == 1
    assert info.currsize == 1


def test_roundtrip_report_builds_one_plan():
    rec = random_record(np.random.default_rng(3), 3, 23, 25.0)
    mapping._build_band_plan.cache_clear()
    report = roundtrip_report(rec, TransformConfig(150.0, 3))
    info = mapping._build_band_plan.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert report.max_abs_error < 1e-9


def test_plan_rejects_tiny_output():
    with pytest.raises(ValidationError, match="output length"):
        _plan(1, 2, 1000.0, 0.001)


def test_plan_rejects_channel_count_mismatch():
    with pytest.raises(ValidationError, match="channels"):
        build_band_plan(3, 16, 10.0, TransformConfig(100.0, 2))


@pytest.mark.parametrize("args, message", [
    ((2, 8, 0.0, 16.0, 0), "source rate"),
    ((2, 8, float("nan"), 16.0, 0), "source rate"),
    ((2, 8, 8.0, float("inf"), 0), "target rate"),
    ((0, 8, 8.0, 16.0, 0), "p >= 1"),
    ((2, 1, 8.0, 16.0, 0), "n >= 2"),
    ((2, 8, 8.0, 1e300, 0), r"output length 1e\+300"),
    ((2, 8, 1e-300, 1e300, 0), "output length inf"),
    ((2, 8, 8.0, 16.0, 2), "band index 2"),
    ((2, 8, 8.0, 16.0, -1), "band index -1"),
    ((2, 8, 8.0, 2.0**49, 0), r"output length 5\.6295e\+14"),
    ((64, 1001, 1.0, 1e14 / 1001, 0), "overflows int64"),
    ((2, 2, 2e-308, 4e-308, 0), "normal float range"),
])
@pytest.mark.parametrize("path", [stack_fast, stack_oracle])
def test_band_paths_check_their_arguments(path, args, message):
    with pytest.raises(ValidationError, match=message):
        path(*args)


def test_plan_rejects_nan_source_rate():
    with pytest.raises(ValidationError, match="source rate"):
        _plan(2, 8, float("nan"), 16.0)


def test_stacking_single_entry_transfer():
    plan = _plan(1, 4, 4.0, 8.0)
    bins = np.zeros(4, dtype=complex)
    bins[0] = 7.0
    stacked = apply_stacking([ChannelSpectrum(bins, 4.0)], plan)
    expected = np.zeros(8, dtype=complex)
    expected[plan.assignments[0][0]] = 7.0
    assert np.array_equal(stacked.bins, expected)


def test_stacking_disjoint_bands_land_intact():
    # content zeroed at the shared boundary bins makes the bands disjoint
    p, n, f_s, F_s = 2, 16, 4.0, 16.0
    plan = _plan(p, n, f_s, F_s)
    rng = np.random.default_rng(5)
    spectra = []
    for _ in range(p):
        bins = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        bins[0] = bins[-1] = 0.0
        spectra.append(ChannelSpectrum(bins, f_s))
    stacked = apply_stacking(spectra, plan)
    covered = np.zeros(plan.n_out, dtype=bool)
    for b in range(p):
        idx = plan.assignments[b]
        assert np.array_equal(stacked.bins[idx[1:-1]], spectra[b].bins[1:-1])
        covered[idx] = True
    assert np.all(stacked.bins[~covered] == 0)


def test_stacking_matches_literal_overwrite_loop():
    # a lossy configuration exercises genuine within-band overwrites
    p, n, f_s, F_s = 2, 9, 10.0, 30.0
    plan = _plan(p, n, f_s, F_s)
    rng = np.random.default_rng(9)
    all_bins = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    spectra = [ChannelSpectrum(b, f_s) for b in all_bins]
    stacked = apply_stacking(spectra, plan)
    want = stack_literal(all_bins, plan.assignments, plan.n_out)
    assert np.array_equal(stacked.bins, want)


def test_stacking_order_permutes_band_occupants():
    p, n, f_s, F_s = 2, 8, 4.0, 16.0
    plan = _plan(p, n, f_s, F_s, order=(1, 0))
    a = ChannelSpectrum(np.full(n, 1.0 + 0j), f_s)
    b = ChannelSpectrum(np.full(n, 2.0 + 0j), f_s)
    stacked = apply_stacking([a, b], plan)
    # band 0 (low) now carries channel 1's constant 2.0
    low_idx = plan.assignments[0][1:-1]
    high_idx = plan.assignments[1][1:-1]
    assert np.all(stacked.bins[low_idx] == 2.0)
    assert np.all(stacked.bins[high_idx] == 1.0)


def test_strict_mode_refuses_destructive_collisions():
    # rate floor met, but n=2 makes each channel's self-mirror Nyquist bin
    # informative, and the band boundary clobbers it
    plan = _plan(2, 2, 4.0, 16.0)
    assert plan.rate_feasible and not plan.lossless
    with pytest.raises(CollisionError, match="channel 1"):
        _plan(2, 2, 4.0, 16.0, mode="strict-lossless")


def test_spectra_shape_validation():
    plan = _plan(2, 8, 4.0, 16.0)
    good = ChannelSpectrum(np.zeros(8, dtype=complex), 4.0)
    with pytest.raises(ValidationError, match="2 channels"):
        apply_stacking([good], plan)
    with pytest.raises(ValidationError, match="bins"):
        apply_stacking([good, ChannelSpectrum(np.zeros(9, dtype=complex), 4.0)], plan)
