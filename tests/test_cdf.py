"""Tests for empirical CDF estimation, queries, standardization, averaging."""

import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdfmatch import (EmpiricalCdf, Volume, average_cdfs, build_cdf,
                      cdf_value, ks_distance, quantile, zscore_standardize)
from cdfmatch import cdf as cdf_module
from cdfmatch.cdf import IntensityIndex, SortedForeground, _cpu_threads, _in_ranges, _parts
from cdfmatch.errors import (AllBackground, DegenerateConstant, EmptyInput,
                             OutOfRange)

from conftest import cdf_from_samples, stored_volume, volume_from_values


class TestVolume:
    def test_voxel_count_must_match_dims(self):
        with pytest.raises(ValueError):
            Volume((2, 2, 2), np.zeros(7))

    @pytest.mark.parametrize("dims", [(4, 1), (4, 0, 1), (4, 1, 1, 1), (-4, -1, 1)])
    def test_dims_must_be_three_positive_integers(self, dims):
        # the length first, then each entry's floor, by the count rule
        message = ("dims must be three positive integers" if len(dims) != 3
                   else f"dims must be at least 1, got {next(d for d in dims if d < 1)}")
        with pytest.raises(ValueError, match=message):
            Volume(dims, np.zeros(4))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            volume_from_values([1.0, np.nan, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rejects_non_finite_past_the_first_block(self, bad, dtype):
        # the check runs 64k voxels at a time; the last block is a partial one
        values = np.random.default_rng(2).normal(100.0, 10.0, 3 * 65536 + 9)
        values[2 * 65536 + 7] = bad
        with pytest.raises(ValueError, match="finite"):
            stored_volume(values, dtype)

    def test_immutable_voxels(self):
        vol = volume_from_values([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            vol.voxels[0] = 9.0

    def test_foreground_excludes_background(self):
        vol = volume_from_values([0.0, 1.0, 0.0, 2.0])
        assert vol.foreground().tolist() == [1.0, 2.0]


def reference_cdf(values, background, exclude_background, grid_size):
    """build_cdf's curve from np.unique's distinct values and counts: (xs, ps, n).

    Every distinct value is a knot when at most ``grid_size`` are distinct;
    otherwise the knots are the values that hold ranks
    ``floor(i * (n - 1) / (grid_size - 1))``, read off the sorted samples.
    """
    values = np.asarray(values, dtype=np.float64)
    if exclude_background:
        values = values[values != np.float64(background)]
    distinct, counts = np.unique(values, return_counts=True)
    n = int(counts.sum())
    cum = np.cumsum(counts)
    p = (cum - (counts - 1) / 2.0) / n
    p[-1] = 1.0
    if distinct.size > grid_size:
        holder = np.repeat(np.arange(distinct.size), counts)  # each sorted sample's value
        knots = np.unique(holder[np.arange(grid_size) * (n - 1) // (grid_size - 1)])
        distinct, p = distinct[knots], p[knots]
    return distinct, p, n


_knot_caps = st.sampled_from((2, 16, 1024)) | st.integers(2, 300)


def assert_cdf_is_reference(cdf, values, background, exclude_background, grid_size):
    xs, ps, n = reference_cdf(values, background, exclude_background, grid_size)
    assert cdf.xs.tobytes() == xs.tobytes()
    assert cdf.ps.tobytes() == ps.tobytes()
    assert cdf.n_samples == n


class TestIntensityIndex:
    # three blocks of the dense count plus a partial one
    N = 3 * 65536 + 5

    @pytest.mark.parametrize("hot_pixel", [False, True])
    def test_integer_volume_gathers_back_exactly(self, hot_pixel):
        values = np.random.default_rng(3).integers(-300, 700, self.N).astype(np.float64)
        values[::7] = 5.0  # background
        if hot_pixel:
            values[12345] = 2.0 ** 40  # range past the voxel count: sorted
        vol = volume_from_values(values, background=5.0)
        index = IntensityIndex.of(vol)
        assert index.inverse.dtype == np.uint16 and index.levels.size <= vol.n_voxels
        assert index.to_volume().voxels.tobytes() == vol.voxels.tobytes()
        used = index.counts > 0
        expected = np.unique(vol.voxels, return_counts=True)
        assert np.array_equal(index.levels[used], expected[0])
        assert np.array_equal(index.counts[used], expected[1])
        for exclude in (True, False):
            assert_cdf_is_reference(build_cdf(index, exclude, grid_size=257),
                                    vol.voxels, 5.0, exclude, grid_size=257)

    @pytest.mark.parametrize("dtype, bulk, hot, size", [
        (np.int16, (-500, 500), (-32768, 32767), 3 * 8192 + 5),  # the widest range, across 0
        (np.uint16, (1000, 4000), (1000, 65535), 2 * 8192 + 1),
        (np.uint8, (3, 200), (3, 255), 200)])
    def test_sparse_integer_rows_are_each_voxels_level(self, dtype, bulk, hot, size):
        # a range at least the voxel count keeps only the levels some voxel holds
        values = np.random.default_rng(8).integers(*bulk, size)
        values[[7, size - 2]] = hot
        vol = stored_volume(values, dtype)
        index = IntensityIndex.of(vol)
        levels, counts = np.unique(vol.voxels, return_counts=True)
        assert index.levels.tobytes() == levels.astype(np.float64).tobytes()
        assert np.array_equal(index.counts, counts)
        assert index.inverse.dtype == np.min_scalar_type(levels.size - 1)
        assert np.array_equal(index.inverse, np.searchsorted(levels, vol.voxels))
        assert index.to_volume().voxels.tobytes() == vol.voxels.astype(np.float64).tobytes()

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2 ** 16), dtype=st.sampled_from((np.uint8, np.uint16)),
           size=st.integers(65536 + 1, 3 * 65536 + 7), low=st.integers(0, 3000),
           span=st.integers(1, 5000))
    def test_voxels_as_rows_count_like_the_row_array_index(self, seed, dtype, size,
                                                           low, span):
        top = np.iinfo(dtype).max
        values = np.random.default_rng(seed).integers(min(low, top - 1),
                                                      min(low + span, top) + 1, size)
        vol = stored_volume(values, dtype)
        index = IntensityIndex.of(vol)
        # the voxels are the rows of a table from 0: no row array
        assert index.inverse is vol.voxels and not index.inverse.flags.writeable
        assert index.levels[0] == 0.0 and index.levels.size == values.max() + 1
        rows = IntensityIndex.of(volume_from_values(values))  # float64: a row array
        assert rows.inverse is not None and rows.levels[0] == values.min()
        used, used_rows = index.counts > 0, rows.counts > 0
        assert np.array_equal(index.levels[used], rows.levels[used_rows])
        assert np.array_equal(index.counts[used], rows.counts[used_rows])
        assert np.array_equal(index.to_volume().voxels, values)

    @pytest.mark.parametrize("exclude", [True, False])
    def test_levels_mapped_out_of_order_still_give_the_reference_cdf(self, exclude):
        values = np.random.default_rng(5).integers(-300, 700, self.N).astype(np.float64)
        index = IntensityIndex.of(volume_from_values(values, background=4.0))
        mapped = replace(index, levels=np.abs(index.levels) % 37)  # unsorted, merged
        assert_cdf_is_reference(build_cdf(mapped, exclude, grid_size=100),
                                mapped.to_volume().voxels, 4.0, exclude, grid_size=100)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 16), n_levels=st.integers(2, 40),
           size=st.integers(2, 3000), grid_size=_knot_caps)
    def test_level_table_and_its_voxels_give_the_same_cdf(self, seed, n_levels,
                                                          size, grid_size):
        # halving frequencies leave the top levels a voxel or two, which
        # evenly spaced ranks skip when the knot cap would keep them all
        rng = np.random.default_rng(seed)
        weights = 0.5 ** np.arange(n_levels)
        values = rng.choice(n_levels, size, p=weights / weights.sum()).astype(np.float64)
        assume(np.unique(values).size > 1)
        index = IntensityIndex.of(volume_from_values(values, background=-1.0))
        mapped = index.map_foreground(lambda x: x / 3.0 + 0.25)  # voxels sort one by one
        voxels = mapped.to_volume()
        assert IntensityIndex.of(voxels).counts is None
        cdf = build_cdf(mapped, grid_size=grid_size)
        from_voxels = build_cdf(voxels, grid_size=grid_size)
        assert cdf.xs.tobytes() == from_voxels.xs.tobytes()
        assert cdf.ps.tobytes() == from_voxels.ps.tobytes()
        assert_cdf_is_reference(cdf, voxels.voxels, -1.0, True, grid_size)

    @pytest.mark.parametrize("hot_pixel", [False, True])
    def test_non_integer_voxel_past_the_probe_keeps_one_level_per_voxel(self, hot_pixel):
        values = np.random.default_rng(4).integers(0, 4000, self.N).astype(np.float64)
        values[2 * 65536 + 1] += 0.5  # off the probe's stride, in a later block
        if hot_pixel:
            values[12345] = 2.0 ** 40
        vol = volume_from_values(values)
        index = IntensityIndex.of(vol)
        assert index.inverse is None and index.counts is None
        assert index.to_volume().voxels.tobytes() == vol.voxels.tobytes()

    def test_sorted_foreground_is_the_foreground_ascending(self):
        values = np.random.default_rng(6).normal(800.0, 200.0, self.N)
        values[::5] = 0.0
        vol = stored_volume(values, np.float32)
        index = IntensityIndex.of(vol)
        fg = index.sorted_foreground()
        kept = index.levels[index.levels != 0.0]
        assert fg.values.dtype == np.float32 and not fg.values.flags.writeable
        assert fg.values.tobytes() == np.sort(kept).tobytes()
        assert fg.cum is None and fg.n_voxels == kept.size
        assert fg.background_value == vol.background_value
        # read as it is, the sorted foreground gives the volume's CDF
        for grid_size in (2, 1024):
            a, b = build_cdf(fg, grid_size=grid_size), build_cdf(index, grid_size=grid_size)
            assert a.xs.tobytes() == b.xs.tobytes() and a.ps.tobytes() == b.ps.tobytes()
            assert a.n_samples == b.n_samples == kept.size
        # the z-score takes its statistics from the sorted samples, whichever
        # form it is given, so the samples go through the same map as the voxels
        z, z_fg = zscore_standardize(vol), zscore_standardize(fg)
        assert z_fg.background_value == fg.background_value and z_fg.values is fg.values
        assert z_fg.store(z_fg.values).tobytes() == np.sort(z.foreground()).tobytes()
        # a level table keeps its used foreground levels, ascending, and counts
        counted = np.rint(values)
        table = IntensityIndex.of(stored_volume(counted, np.uint16))
        for exclude in (True, False):
            fg = table.sorted_foreground(exclude)
            used = (table.counts > 0) & ((table.levels != 0.0) | (not exclude))
            assert fg.values.tobytes() == table.levels[used].tobytes()
            assert fg.cum.tolist() == [0, *np.cumsum(table.counts[used]).tolist()]
            assert fg.n_voxels == (np.count_nonzero(counted) if exclude else counted.size)

    def test_foreground_mapped_onto_background_moves_just_above_it(self):
        index = IntensityIndex.of(volume_from_values([0.0, 1.0, 2.0, 3.0, 4.0]))
        mapped = index.map_foreground(lambda x: x - 2.0)
        assert mapped.to_volume().voxels.tolist() == [0.0, -1.0, 5e-324, 1.0, 2.0]


class TestSplitPasses:
    """A large volume counts its levels and gathers its output in one range
    per thread; lowering the floor and the block makes a small volume split."""

    def test_cpu_threads_fall_back_to_the_cpu_count(self, monkeypatch):
        # a platform without an affinity call counts its CPUs
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _cpu_threads() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _cpu_threads() == 1

    def test_only_a_volume_past_the_floor_splits(self, monkeypatch):
        monkeypatch.setattr(cdf_module, "_cpu_threads", lambda: 3)
        floor = cdf_module._SPLIT
        assert floor == 1 << 20
        assert _parts(floor - 1, 4) == _parts(floor - 1, None) == 1
        assert _parts(floor, 4) == 4 and _parts(floor, None) == 3
        for threads, message in ((0, "threads must be at least 1, got 0"),
                                 (2.0, "threads must be an integer")):
            with pytest.raises(ValueError, match=message):
                _parts(floor - 1, threads)

    def test_ranges_are_whole_steps_in_order_the_first_on_this_thread(self):
        seen = _in_ranges(lambda start, stop: (start, stop, threading.get_ident()), 73, 7, 4)
        assert [(start, stop) for start, stop, _ in seen] == [(0, 21), (21, 42), (42, 63),
                                                              (63, 73)]
        idents = [ident for _, _, ident in seen]
        assert idents[0] == threading.get_ident() and threading.get_ident() not in idents[1:]
        assert _in_ranges(lambda start, stop: (start, stop), 73, 7, 1) == [(0, 73)]
        assert _in_ranges(lambda start, stop: (start, stop), 7, 7, 4) == [(0, 7)]

    def test_an_exception_in_a_later_range_reaches_the_caller(self):
        def work(start, stop):
            if start == 20:
                raise OSError("the third range failed")
            return stop - start

        with pytest.raises(OSError, match="the third range failed"):
            _in_ranges(work, 40, 10, 4)
        assert _in_ranges(work, 20, 10, 4) == [10, 10]

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 16), dtype=st.sampled_from((np.uint8, np.uint16, np.int16)),
           size=st.integers(1, 400), span=st.integers(1, 40))
    def test_counts_and_voxels_do_not_depend_on_the_thread_count(self, seed, dtype,
                                                                 size, span):
        # u8 and u16 split the count and the gather, i16 the gather alone;
        # up to 5 ranges on 16-voxel blocks, more ranges than CPUs, with the
        # interpreter switching threads as often as it can
        low = -20 if dtype is np.int16 else 0
        vol = stored_volume(np.random.default_rng(seed).integers(low, low + span, size), dtype)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cdf_module, "_SPLIT", 0)
                patch.setattr(cdf_module, "_BLOCK", 16)
                serial = IntensityIndex.of(vol, threads=1)
                voxels = serial.to_volume(threads=1).voxels
                for threads in range(2, 6):
                    index = IntensityIndex.of(vol, threads=threads)
                    assert index.levels.tobytes() == serial.levels.tobytes()
                    assert np.array_equal(index.counts, serial.counts)
                    assert index.to_volume(threads).voxels.tobytes() == voxels.tobytes()
        finally:
            sys.setswitchinterval(interval)
        assert voxels.tobytes() == vol.voxels.astype(voxels.dtype).tobytes()


@st.composite
def _cdf_inputs(draw):
    """(values, background): float32 or float64 values covering ties,
    two-level images, spread values, integer levels (dense and sorted
    tables) and negative ranges, with the background on a voxel, one float64
    step above one, or anywhere."""
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    # signed zeros compare equal, and which one a sort puts first is not
    # specified, so a volume holding both may start its grid at either
    floats = st.floats(-1e6, 1e6, width=32 if dtype is np.float32 else 64).map(
        lambda x: x + 0.0)
    kind = draw(st.sampled_from(("spread", "ties", "two_levels", "integers")))
    if kind == "spread":
        values = draw(st.lists(floats, min_size=1, max_size=300))
    else:
        levels = st.integers(-3000, 3000).map(float) if kind == "integers" else floats
        size = 2 if kind == "two_levels" else draw(st.integers(1, 8))
        pool = draw(st.lists(levels, min_size=size, max_size=size, unique=True))
        values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=300))
    on_voxel = draw(st.sampled_from(values))
    background = draw(st.sampled_from((on_voxel, float(np.nextafter(on_voxel, np.inf)),
                                       draw(floats))))
    return np.array(values, dtype=dtype), background


class TestRankKnotCdf:
    @settings(max_examples=300)
    @given(inputs=_cdf_inputs(), exclude=st.booleans(),
           grid_size=st.sampled_from((2, 3, 1024)) | st.integers(2, 600))
    def test_equals_the_full_histogram_reference(self, inputs, exclude, grid_size):
        values, background = inputs
        vol = stored_volume(values, values.dtype, background)
        kept = vol.voxels.astype(np.float64)
        if exclude:
            kept = kept[kept != np.float64(background)]
        if kept.size == 0:
            with pytest.raises(AllBackground):
                build_cdf(vol, exclude, grid_size)
        elif np.unique(kept).size == 1:
            with pytest.raises(DegenerateConstant):
                build_cdf(vol, exclude, grid_size)
        else:
            assert_cdf_is_reference(build_cdf(vol, exclude, grid_size),
                                    vol.voxels, background, exclude, grid_size)

    def test_float32_voxels_are_knots_as_stored(self):
        # 1/3 rounds up to float32: the knot is the stored value, and its
        # six voxels count as lying at it, not above it
        third = np.float32(1 / 3)
        assert float(third) > 1 / 3
        values = np.array([0.0, 0.1, 0.32] + [third] * 6 + [1.0], dtype=np.float32)
        vol = stored_volume(values, np.float32, background=-1.0)
        cdf = build_cdf(vol, grid_size=4)
        assert float(third) in cdf.xs.tolist()
        assert_cdf_is_reference(cdf, values, -1.0, True, 4)

    def test_float32_background_compares_in_float64(self):
        # 0.1 is not a float32: voxels stored as 0.1f are foreground
        vol = stored_volume([0.1] * 8 + [1.0, 2.0], np.float32, background=0.1)
        assert build_cdf(vol).n_samples == 10
        assert vol.foreground().size == 10
        assert vol.foreground().dtype == np.float64


def assert_knots_follow_the_data(cdf, kept, grid_size):
    """Every knot is one of the ``kept`` values, and adjacent knots are at
    most one rank step apart plus their own voxels' share.

    With n samples the knots sit at ranks floor(i * (n - 1) / (grid_size - 1)),
    which step by at most s = ceil((n - 1) / (grid_size - 1)); with every
    distinct value a knot the step is 1 <= s.  A knot v holding c_v samples,
    b_v of them below it, has n * p = b_v + (c_v + 1) / 2.  If u is the
    knot before v, some rank at or below last(u) holds u and the next one
    holds v, at or above first(v); so first(v) - last(u) <= s, and
        n * (p_v - p_u) <= s + (c_u + c_v) / 2 - 1,
    at most s + c_max - 1: one rank step plus the largest level's share.
    The maximum's probability is pinned to 1, (c_v - 1) / 2 ranks above its
    averaged rank, so the last gap may be that much wider.
    """
    distinct, counts = np.unique(kept, return_counts=True)
    n = kept.size
    assert cdf.n_samples == n
    at = np.minimum(np.searchsorted(distinct, cdf.xs), distinct.size - 1)
    assert np.array_equal(distinct[at], cdf.xs)
    c = counts[at]
    ranks = np.round(2 * n * cdf.ps) / 2  # n * p, a whole or half number
    step = -(-(n - 1) // (grid_size - 1))
    bound = step + (c[:-1] + c[1:]) / 2 - 1
    bound[-1] += (c[-1] - 1) / 2
    assert (np.diff(ranks) <= bound).all()


class TestRankKnotsFollowTheData:
    """Outliers and heavy tails: an evenly spaced intensity grid leaves the
    bulk of such data a handful of knots, rank knots do not."""

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 16), size=st.integers(200, 4000),
           stored=st.sampled_from(("u16", "f32", "f64")), grid_size=_knot_caps)
    def test_one_spike_voxel(self, seed, size, stored, grid_size):
        rng = np.random.default_rng(seed)
        values = rng.normal(300.0, 60.0, size).clip(1.0, None)
        if stored == "u16":
            values = np.rint(values)
        values[rng.integers(size)] = 65535.0 if stored == "u16" else 2.0 ** 40
        vol = stored_volume(values, {"u16": np.uint16, "f32": np.float32,
                                     "f64": np.float64}[stored])
        kept = vol.foreground()
        assert_knots_follow_the_data(build_cdf(vol, grid_size=grid_size), kept, grid_size)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 16), size=st.integers(200, 4000),
           outlier=st.sampled_from((65535.0, 1e6, -5e4)), grid_size=_knot_caps)
    def test_z_scored_cohort_member_with_one_outlier(self, seed, size, outlier,
                                                     grid_size):
        rng = np.random.default_rng(seed)
        values = np.rint(rng.normal(800.0, 150.0, size))
        values[rng.integers(size)] = outlier
        values[rng.random(size) < 0.2] = 0.0
        assume((values != 0.0).sum() > 1)
        vol = volume_from_values(values)
        kept = zscore_standardize(vol).foreground()
        member = zscore_standardize(IntensityIndex.of(vol).sorted_foreground())
        assert member.cum is not None  # a level table, read through the z-score
        assert_knots_follow_the_data(build_cdf(member, grid_size=grid_size),
                                     kept, grid_size)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 16), size=st.integers(200, 4000),
           sigma=st.floats(2.0, 5.0), grid_size=_knot_caps)
    def test_heavy_tailed_volume(self, seed, size, sigma, grid_size):
        values = np.random.default_rng(seed).lognormal(0.0, sigma, size)
        vol = stored_volume(values, np.float32)
        kept = vol.foreground()
        assert_knots_follow_the_data(build_cdf(vol, grid_size=grid_size), kept, grid_size)


@st.composite
def _mapped_views(draw):
    """(index, fn, dtype, q_range): a volume drawn from a small pool (ties,
    duplicates) or spread out, stored as float32 or, with integer values, as
    float32 or u16 (a level table), and a map that never descends, bit for
    bit: a slope of at least 0 times the value plus a non-decreasing
    staircase.  A flat first stair at the background lands values on it,
    and a staircase with few steps merges knots."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 4000))
    pool = rng.normal(500.0, 300.0, draw(st.sampled_from((1, 2, 7, 60)) | st.just(n)))
    stored = draw(st.sampled_from(("f32", "integer f32", "u16")))
    if stored != "f32":
        pool = np.rint(np.abs(pool))
    values = rng.choice(pool.astype(np.float32), n)
    dtype, q_range = draw(st.sampled_from((("f32", None), ("float64", None),
                                          ("f32", (1.0, 4095.0)), ("u16", (0.0, 4095.0)),
                                          ("u16", (0.0, 255.0)))))
    # an integer dtype must hold the background, a float one may hold any
    background = draw(st.sampled_from((0.0, 255.0) if "u16" in (dtype, stored)
                                      else (0.0, 255.0, float(values[0]))))
    values[rng.random(n) < 0.1] = background
    index = IntensityIndex.of(stored_volume(
        values, np.uint16 if stored == "u16" else np.float32, background))
    slope = draw(st.sampled_from((0.0, 1e-3, 1.0, 3.7)))
    cuts = np.sort(rng.normal(500.0, 300.0, draw(st.integers(0, 30))))
    stairs = rng.exponential(200.0, cuts.size + 1) * (rng.random(cuts.size + 1) < 0.7)
    stairs[0] = draw(st.sampled_from((background, 100.0)))
    stairs = np.cumsum(stairs)

    def fn(x):
        x = x.astype(np.float64)
        return slope * x + stairs[np.searchsorted(cuts, x, "right")]

    return index, fn, dtype, q_range


def _cdf_or_error(build):
    try:
        return build()
    except (AllBackground, DegenerateConstant) as exc:
        return type(exc)


class TestThrough:
    """A sorted foreground read through a map that never descends, at its rank
    knots alone, gives the curve of the mapped values bit for bit."""

    @settings(max_examples=300)
    @given(drawn=_mapped_views(), grid_size=_knot_caps)
    def test_knot_read_equals_the_cdf_of_the_mapped_values(self, drawn, grid_size):
        index, fn, dtype, q_range = drawn
        fg = index.sorted_foreground()
        assume(fg.values.size > 0)
        mapped = index.map_foreground(fn, dtype, q_range)
        expected = _cdf_or_error(lambda: build_cdf(mapped.to_volume(), grid_size=grid_size))
        got = _cdf_or_error(lambda: build_cdf(fg.through(fn, dtype, q_range),
                                              grid_size=grid_size))
        if isinstance(expected, type):
            assert got is expected
            return
        assert got.xs.tobytes() == expected.xs.tobytes()
        assert got.ps.tobytes() == expected.ps.tobytes()
        assert got.n_samples == expected.n_samples == fg.n_voxels

    @pytest.mark.parametrize("merged", [False, True])
    def test_distinct_knots_map_only_the_bisection(self, merged):
        values = np.random.default_rng(8).normal(800.0, 200.0, 200_000)
        values[::5] = 0.0
        index = IntensityIndex.of(stored_volume(values, np.float32))
        fg = index.sorted_foreground()
        sizes = []

        def fn(x):
            sizes.append(x.size)
            y = x.astype(np.float64) * 2.0 - 5.0
            return np.floor(y / 500.0) if merged else y

        cdf = build_cdf(fg.through(fn, "f32"))
        read = list(sizes)
        mapped = build_cdf(index.map_foreground(fn, "f32").to_volume())
        assert cdf.ps.tobytes() == mapped.ps.tobytes()
        assert cdf.xs.tobytes() == mapped.xs.tobytes()
        # distinct knots: the 1,024 knot values, then two values per knot
        # and round of the bisection, ~157 ranks wide here; merged knots:
        # every sample, 64k at a time
        if merged:
            assert read[0] == 1024 and sum(read[1:]) == fg.values.size
            assert max(read[1:]) == 65536
        else:
            assert read[0] == 1024 and max(read[1:]) <= 2 * 1023 and len(read) <= 1 + 9


class TestEmpiricalCdfValidation:
    def test_requires_strictly_increasing_xs(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([1.0, 1.0, 2.0], [0.2, 0.5, 1.0])

    def test_requires_non_decreasing_ps(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([1.0, 2.0, 3.0], [0.5, 0.4, 1.0])

    def test_last_probability_must_be_one(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([1.0, 2.0], [0.2, 0.9999])
        EmpiricalCdf([1.0, 2.0], [0.2, 1.0 - 1e-13])  # within tolerance

    @pytest.mark.parametrize("xs, ps", [([1.0, 2.0, np.inf], [0.2, 0.5, 1.0]),
                                        ([1.0, 2.0, 3.0], [0.2, np.nan, 1.0]),
                                        ([1.0, 2.0, 3.0], [0.2, 0.5, np.nan])])
    def test_requires_finite_knots(self, xs, ps):
        with pytest.raises(ValueError, match="finite"):
            EmpiricalCdf(xs, ps)


def _three_levels():
    return volume_from_values([1.0, 2.0, 3.0])


class TestValueChecks:
    """Each argument and knot check raises ValueError with its own message."""

    @pytest.mark.parametrize("call, message", [
        (lambda: build_cdf(_three_levels(), grid_size=1), "grid_size must be at least 2"),
        (lambda: build_cdf(IntensityIndex.of(_three_levels()).sorted_foreground()
                           .through(lambda x: x * 2.0), grid_size=0),
         "grid_size must be at least 2"),
        (lambda: average_cdfs([build_cdf(_three_levels())], grid_size=1),
         "grid_size must be at least 2"),
        (lambda: build_cdf(_three_levels(), grid_size=3.5), "grid_size must be an integer"),
        (lambda: average_cdfs([build_cdf(_three_levels())], grid_size=True),
         "grid_size must be an integer"),
        (lambda: EmpiricalCdf([1.0], [1.0]), "at least two knots"),
        (lambda: EmpiricalCdf([1.0, 2.0, 3.0], [0.5, 1.0]), "same length"),
        (lambda: EmpiricalCdf([1.0, 2.0], [-0.5, 1.0]), "non-negative"),
    ], ids=["build-cdf-grid", "build-cdf-through-grid", "average-cdfs-grid",
            "build-cdf-fractional-grid", "average-cdfs-bool-grid",
            "one-knot", "unequal-lengths", "negative-probability"])
    def test_rejects_with_its_own_message(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestBuildCdf:
    def test_uniform_ranks_on_four_points(self):
        vol = volume_from_values([1.0, 2.0, 3.0, 4.0], background=-1.0)
        cdf = build_cdf(vol, exclude_background=False, grid_size=4)
        assert cdf.xs.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert cdf.ps.tolist() == [0.25, 0.5, 0.75, 1.0]
        assert cdf.n_samples == 4

    def test_all_background_raises(self):
        vol = volume_from_values([0.0, 0.0, 0.0])
        with pytest.raises(AllBackground):
            build_cdf(vol, exclude_background=True)

    def test_single_intensity_raises(self):
        vol = volume_from_values([5.0, 5.0, 5.0])
        with pytest.raises(DegenerateConstant):
            build_cdf(vol, exclude_background=True)

    def test_background_never_widens_the_range(self):
        vol = volume_from_values([0.0, 10.0, 12.0, 14.0])
        cdf = build_cdf(vol, exclude_background=True)
        assert cdf.xs[0] == 10.0 and cdf.xs[-1] == 14.0

    def test_lognormal_median_against_rank_oracle(self):
        rng = np.random.default_rng(12345)
        samples = rng.lognormal(0.3, 0.7, 100_000)
        median = float(np.exp(0.3))
        # independent oracle: sorted-sample rank fraction at the median
        oracle = np.searchsorted(np.sort(samples), median, side="right") / samples.size
        cdf = cdf_from_samples(samples)
        got = cdf_value(cdf, median)
        assert abs(got - oracle) < 0.01
        assert abs(got - 0.5) < 0.01

    def test_tied_values_get_averaged_ranks(self):
        # value 2 appears twice: averaged rank (2 + 3)/2 of 4 -> p = 0.625
        vol = volume_from_values([1.0, 2.0, 2.0, 3.0], background=-1.0)
        cdf = build_cdf(vol, exclude_background=False, grid_size=3)
        assert cdf.ps.tolist() == [0.25, 0.625, 1.0]

    def test_deterministic(self):
        vol = volume_from_values(np.random.default_rng(1).normal(5, 2, 4000))
        a = build_cdf(vol)
        b = build_cdf(vol)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ps, b.ps)


class TestQuantile:
    @pytest.fixture()
    def four_point(self):
        return build_cdf(volume_from_values([1.0, 2.0, 3.0, 4.0], background=-1),
                         exclude_background=False, grid_size=4)

    def test_exact_grid_point(self, four_point):
        assert quantile(four_point, 0.5) == 2.0

    def test_maximum(self, four_point):
        assert quantile(four_point, 1.0) == 4.0

    def test_linear_interpolation(self, four_point):
        # between (2, 0.5) and (3, 0.75)
        assert quantile(four_point, 0.625) == pytest.approx(2.5, abs=1e-12)

    def test_clamps_below_first_probability(self, four_point):
        assert quantile(four_point, 0.01) == 1.0

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.0000001, 2.0])
    def test_out_of_range(self, four_point, p):
        with pytest.raises(OutOfRange):
            quantile(four_point, p)

    def test_vectorized(self, four_point):
        out = quantile(four_point, np.array([0.25, 0.625, 1.0]))
        assert np.allclose(out, [1.0, 2.5, 4.0])


class TestCdfValue:
    @pytest.fixture()
    def four_point(self):
        return build_cdf(volume_from_values([1.0, 2.0, 3.0, 4.0], background=-1),
                         exclude_background=False, grid_size=4)

    def test_grid_endpoint(self, four_point):
        assert cdf_value(four_point, 1.0) == 0.25

    def test_saturates_above(self, four_point):
        assert cdf_value(four_point, 1e9) == 1.0

    def test_zero_below_ramp(self, four_point):
        assert cdf_value(four_point, -5.0) == 0.0

    def test_interpolation_inverse_of_quantile(self, four_point):
        assert cdf_value(four_point, 2.5) == pytest.approx(0.625, abs=1e-12)

    def test_monotone_in_x(self, four_point):
        xs = np.linspace(-1, 6, 300)
        vals = cdf_value(four_point, xs)
        assert (np.diff(vals) >= 0).all()


class TestRoundTripInvariants:
    def test_quantile_hits_grid_nodes(self):
        cdf = cdf_from_samples(np.random.default_rng(7).normal(0, 1, 5000),
                               grid_size=257)
        rising = np.diff(cdf.ps) > 0
        idx = np.where(np.concatenate([rising, [True]])
                       & np.concatenate([[True], rising]))[0]
        got = quantile(cdf, cdf.ps[idx])
        assert np.allclose(got, cdf.xs[idx], rtol=0, atol=1e-9)

    def test_quantile_of_cdf_value_round_trips(self):
        cdf = cdf_from_samples(np.random.default_rng(8).lognormal(0, 0.5, 20000))
        step = cdf.xs[1] - cdf.xs[0]
        xs = np.linspace(cdf.xs[0], cdf.xs[-1], 500)
        back = quantile(cdf, np.maximum(cdf_value(cdf, xs), 1e-300))
        assert np.abs(back - xs).max() <= step + 1e-9


def reference_zscore(vol: Volume) -> np.ndarray:
    """zscore_standardize per voxel: ``(x - fg.mean()) / fg.std()``, ``fg``
    the float64 foreground sorted ascending, every other voxel copied."""
    out = vol.voxels.astype(np.float64)
    mask = out != np.float64(vol.background_value)
    fg = np.sort(out[mask])
    out[mask] = (out[mask] - fg.mean()) / fg.std()
    return out


@st.composite
def _zscore_volumes(draw):
    """Volumes of every index kind: dense u16 tables over several 64k blocks
    of voxels, a sorted table (one hot pixel), integer-valued float64 with a
    table over several 64k blocks of levels, and f32 (no table)."""
    kind = draw(st.sampled_from(("u16", "hot_pixel", "float64", "f32")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "u16":
        lo = draw(st.integers(0, 60000))
        values = rng.integers(lo, lo + draw(st.integers(2, 65535 - lo)), 3 * 65536 + 7)
        dtype = np.uint16
    elif kind == "hot_pixel":
        values = rng.integers(0, 3000, draw(st.integers(300, 5000)))
        values[draw(st.integers(0, values.size - 1))] = 65535
        dtype = np.uint16
    elif kind == "float64":
        lo = draw(st.integers(-10 ** 6, 10 ** 6))
        values = rng.integers(lo, lo + 3 * 65536, 4 * 65536 + 3)
        dtype = np.float64
    else:
        size = draw(st.integers(3, 70000))
        values = rng.normal(draw(st.floats(-1e3, 1e3)), 100.0, size).astype(np.float32)
        dtype = np.float32
    background = float(values[draw(st.integers(0, values.size - 1))])
    values[rng.random(values.size) < draw(st.floats(0.0, 0.5))] = background
    return stored_volume(values, dtype, background)


class TestZscore:
    @settings(max_examples=40)
    @given(vol=_zscore_volumes())
    def test_volume_and_index_agree_with_the_per_voxel_reference(self, vol):
        assume(np.unique(vol.foreground()).size > 1)
        index = IntensityIndex.of(vol)
        expected = reference_zscore(vol)
        from_index = zscore_standardize(index.sorted_foreground())
        from_volume = zscore_standardize(vol)
        assert isinstance(from_index, SortedForeground)
        assert from_index.background_value == vol.background_value
        got = from_volume.voxels
        # the sorted samples through the z-score are the z-scored foreground, sorted
        z = from_index.store(from_index.values)
        if from_index.cum is not None:
            z = np.repeat(z, np.diff(from_index.cum))
        assert z.tobytes() == np.sort(from_volume.foreground()).tobytes()
        if index.counts is None:
            assert got.tobytes() == expected.tobytes()
        else:
            assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())
        background = vol.voxels == np.float64(vol.background_value)
        assert (got[background] == vol.background_value).all()

    def test_level_at_the_mean_stays_foreground(self):
        # the foreground mean is the level 2, which z-scores onto the
        # background value 0.0
        out = zscore_standardize(Volume((4, 1, 1), [0, 1, 2, 3]))
        assert build_cdf(out).n_samples == 3

    def test_two_point_symmetry(self):
        vol = volume_from_values([2.0, 4.0])
        out = zscore_standardize(vol)
        assert out.voxels.tolist() == [-1.0, 1.0]

    def test_background_left_alone(self):
        vol = volume_from_values([0.0, 2.0, 4.0, 0.0])
        out = zscore_standardize(vol)
        assert out.voxels[0] == 0.0 and out.voxels[3] == 0.0
        assert out.voxels[1] == -1.0 and out.voxels[2] == 1.0

    def test_moments_on_gaussian_sample(self):
        rng = np.random.default_rng(99)
        vol = volume_from_values(rng.normal(5, 3, 50_000))
        fg = zscore_standardize(vol).foreground()
        assert abs(fg.mean()) < 1e-9
        assert abs(fg.std() - 1.0) < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(100)
        vol = volume_from_values(rng.normal(5, 3, 10_000))
        once = zscore_standardize(vol)
        twice = zscore_standardize(once)
        assert np.abs(twice.voxels - once.voxels).max() < 1e-9

    def test_constant_foreground_raises(self):
        with pytest.raises(DegenerateConstant):
            zscore_standardize(volume_from_values([3.0, 3.0, 3.0]))

    def test_all_background_raises(self):
        with pytest.raises(AllBackground):
            zscore_standardize(volume_from_values([0.0, 0.0, 0.0]))


class TestAverageCdfs:
    def test_average_of_one_is_identity(self):
        # the average's grid spans the union of the supports evenly, so the
        # average of one CDF is that curve read on the even grid
        cdf = cdf_from_samples(np.random.default_rng(3).normal(0, 1, 2000))
        avg = average_cdfs([cdf])
        assert np.array_equal(avg.xs, np.linspace(*cdf.support, 1024))
        assert np.allclose(avg.ps, cdf_value(cdf, avg.xs), atol=1e-12)

    def test_two_steps_average_to_half_plateau(self):
        h = 1e-9
        step0 = EmpiricalCdf([-h, 0.0], [0.0, 1.0])
        step2 = EmpiricalCdf([2.0 - h, 2.0], [0.0, 1.0])
        avg = average_cdfs([step0, step2], grid_size=1001)
        for x in (0.25, 0.5, 1.0, 1.5, 1.75):
            assert cdf_value(avg, x) == pytest.approx(0.5, abs=1e-9)
        assert cdf_value(avg, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_mean_lies_inside_envelope(self):
        cdfs = [cdf_from_samples(
            np.random.default_rng(s).normal(s * 0.1, 1 + 0.05 * s, 3000))
            for s in range(9)]
        avg = average_cdfs(cdfs)
        stack = np.stack([cdf_value(c, avg.xs) for c in cdfs])
        assert (avg.ps >= stack.min(axis=0) - 1e-9).all()
        assert (avg.ps <= stack.max(axis=0) + 1e-9).all()

    def test_permutation_invariant_bitwise(self):
        cdfs = [cdf_from_samples(np.random.default_rng(s).lognormal(0, 0.4, 2500))
                for s in range(5)]
        a = average_cdfs(cdfs)
        b = average_cdfs(cdfs[::-1])
        c = average_cdfs([cdfs[2], cdfs[0], cdfs[4], cdfs[1], cdfs[3]])
        assert np.array_equal(a.ps, b.ps) and np.array_equal(a.ps, c.ps)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.xs, c.xs)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            average_cdfs([])


class TestKsDistance:
    def test_identical_cdfs_have_zero_distance(self):
        cdf = cdf_from_samples(np.random.default_rng(5).normal(0, 1, 2000))
        assert ks_distance(cdf, cdf) == 0.0

    def test_disjoint_supports_have_distance_one(self):
        a = EmpiricalCdf([0.0, 1.0], [0.0, 1.0])
        b = EmpiricalCdf([10.0, 11.0], [0.0, 1.0])
        assert ks_distance(a, b) == 1.0

    def test_symmetric(self):
        a = cdf_from_samples(np.random.default_rng(6).normal(0, 1, 3000))
        b = cdf_from_samples(np.random.default_rng(7).normal(0.3, 1.2, 3000))
        assert ks_distance(a, b) == ks_distance(b, a)

    def test_matches_dense_grid_evaluation(self):
        a = cdf_from_samples(np.random.default_rng(8).normal(0, 1, 3000))
        b = cdf_from_samples(np.random.default_rng(9).normal(0.5, 0.8, 3000))
        dense = np.linspace(-6, 6, 200_001)
        brute = np.abs(np.asarray(cdf_value(a, dense))
                       - np.asarray(cdf_value(b, dense))).max()
        assert ks_distance(a, b) >= brute - 1e-12
