"""Tests for template construction and JSON persistence."""

import itertools
import json
import os
import threading
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdfmatch import (ControlPoints, TemplateCdf, Volume, average_cdfs, build_cdf,
                      build_template, fit_template_to_controls, generate_synthetic,
                      harmonize, load_template, lut_ds, quantile, save_template,
                      zscore_standardize)
from cdfmatch import template as template_module
from cdfmatch.cdf import DTYPES, IntensityIndex, SortedForeground
from cdfmatch.errors import (BadTailSpec, EmptyCohort, EmptyInput, Infeasible, IoError,
                             SchemaMismatch)
from cdfmatch.pipeline import TAIL_SQUEEZE_GATE
from cdfmatch.template import DEFAULT_CONTROLS, Provenance, template_tails

from conftest import scanner_cohort, stored_volume, t2_spec


class TestControlPoints:
    def test_percentile_order_enforced(self):
        with pytest.raises(ValueError):
            ControlPoints((0.5, 500.0), (0.1, 1650.0), (0.99, 3300.0))

    @pytest.mark.parametrize("t", [(1650.0, 500.0, 3300.0), (500.0, 1650.0, float("inf")),
                                   (float("-inf"), 1650.0, 3300.0),
                                   (500.0, float("nan"), 3300.0)])
    def test_intensity_order_enforced(self, t):
        with pytest.raises(ValueError):
            ControlPoints((0.1, t[0]), (0.5, t[1]), (0.99, t[2]))

    def test_named_accessors(self):
        c = DEFAULT_CONTROLS
        assert (c.p_B, c.t_B) == (0.1, 500.0)
        assert (c.p_M, c.t_M) == (0.5, 1650.0)
        assert (c.p_T, c.t_T) == (0.99, 3300.0)
        assert c.span == 2800.0

    def test_dict_round_trip(self):
        c = ControlPoints((0.2, 10.0), (0.6, 20.0), (0.95, 40.0))
        assert ControlPoints.from_dict(c.to_dict()) == c


def _mirrored(rng, n: int, centre: int, scale: float) -> np.ndarray:
    """Positive integer samples whose mean is exactly the level ``centre``."""
    x = np.clip(np.rint(rng.normal(centre, scale, n)), 1, 2 * centre - 1)
    return np.concatenate([x, 2 * centre - x, [centre] * 5])


def _volume(fg: np.ndarray, n_background: int) -> Volume:
    values = np.concatenate([fg, np.zeros(n_background)])
    return Volume((values.size, 1, 1), values)


@st.composite
def _integer_cohorts(draw):
    """Three small integer volumes: one whose foreground mean is one of its
    levels, one with a hot pixel (its level table is sorted, not dense) and
    one plain, each with some background."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(200, 3000))
    centre = draw(st.integers(50, 500))
    at_mean = _mirrored(rng, n, centre, draw(st.floats(5.0, centre / 4)))
    hot = np.rint(rng.gamma(draw(st.floats(2.0, 8.0)), draw(st.floats(10.0, 40.0)), n)) + 1
    hot[draw(st.integers(0, n - 1))] = hot.max() + 2 * n + draw(st.integers(0, 2000))
    plain = np.rint(rng.normal(draw(st.floats(100.0, 1000.0)), draw(st.floats(5.0, 100.0)), n))
    return [_volume(fg, draw(st.integers(1, 100))) for fg in (at_mean, hot, plain)]


# the values each stored dtype holds in these tests; float members hold
# multiples of a binary fraction (a table when it is 1, voxel by voxel
# otherwise), so a level can sit exactly at the foreground mean
_MEMBER_RANGES = {"u8": (0, 255), "u16": (0, 65535), "i16": (-32768, 32767),
                  "f32": (-10 ** 6, 10 ** 6), "float64": (-10 ** 9, 10 ** 9)}
_MEMBER_KINDS = ("mean_level", "hot_voxel", "negative", "ties", "two_levels", "many")


@st.composite
def _member_volumes(draw):
    """One cohort member per stored dtype and shape: a level at the
    foreground mean (it z-scores onto the background 0.0), a hot voxel at the
    dtype's top, a negative range, a few tied levels, two levels, or more
    distinct values than the knot cap (unrounded noise for float dtypes);
    background voxels are shuffled in among the foreground."""
    dtype = draw(st.sampled_from(sorted(_MEMBER_RANGES)))
    kind = draw(st.sampled_from(_MEMBER_KINDS))
    lo, hi = _MEMBER_RANGES[dtype]
    assume(kind != "negative" or lo < 0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.one_of(st.integers(50, 3000), st.just(70_001)))
    step = 1.0 if dtype in ("u8", "u16", "i16") else draw(st.sampled_from((1.0, 0.5, 0.25)))
    top = min(hi, 100_000) / step  # in steps
    if kind == "mean_level":
        centre = draw(st.integers(10, int(top) // 2))
        fg = _mirrored(rng, n, centre, draw(st.floats(1.0, centre / 4)))
    elif kind == "negative":
        fg = -np.clip(np.rint(rng.normal(top / 4, top / 16, n)), 1, top)
    elif kind == "ties":
        fg = rng.choice(rng.integers(1, top, draw(st.integers(2, 6))), n)
    elif kind == "two_levels":
        fg = rng.choice(np.array([1.0, draw(st.integers(2, int(top)))]), n)
        fg[:2] = (1.0, fg.max())
    else:
        fg = np.clip(np.rint(rng.normal(top / 2, top / 8, n)), 1, top)
    fg = fg * step
    if kind == "many" and dtype in ("f32", "float64"):
        fg = rng.normal(top * step / 2, top * step / 8, n)
    if kind == "hot_voxel":
        fg[draw(st.integers(0, n - 1))] = hi
    values = np.concatenate([fg, np.zeros(draw(st.integers(0, n)))])
    return stored_volume(rng.permutation(values), np.dtype(DTYPES.get(dtype, dtype)))


class TestMemberCdf:
    @settings(max_examples=150)
    @given(vol=_member_volumes(), grid_size=st.integers(2, 64))
    def test_one_sort_equals_z_scoring_every_voxel(self, vol, grid_size):
        fg = vol.foreground()
        assume(np.unique(fg).size > 1)
        got = template_module._member_cdf(vol, grid_size)
        want = build_cdf(zscore_standardize(vol), grid_size=grid_size)
        assert (got.xs.tobytes(), got.ps.tobytes()) == (want.xs.tobytes(), want.ps.tobytes())
        # no foreground voxel merged into the background
        assert got.n_samples == want.n_samples == fg.size

    @settings(max_examples=60)
    @given(vol=_member_volumes(), seed=st.integers(0, 2 ** 32 - 1))
    def test_voxel_order_never_changes_the_member_cdf(self, vol, seed):
        # the z-score's mean and std come from the sorted foreground, so a
        # member's curve depends on its foreground values, not their layout
        assume(np.unique(vol.foreground()).size > 1)
        shuffled = stored_volume(np.random.default_rng(seed).permutation(vol.voxels),
                                 vol.voxels.dtype, vol.background_value)
        a, b = (template_module._member_cdf(v, 1024) for v in (vol, shuffled))
        assert (a.xs.tobytes(), a.ps.tobytes()) == (b.xs.tobytes(), b.ps.tobytes())
        assert a.n_samples == b.n_samples

    @pytest.mark.parametrize("kind", ["f32", "u16", "voxel_at_mean", "merged_knots"])
    def test_equals_the_cdf_of_the_z_scored_volume(self, kind):
        rng = np.random.default_rng(17)
        if kind == "voxel_at_mean":
            # half-integers keep the member off the level table; 60.5 is its mean
            fg = _mirrored(rng, 40_000, 121, 20.0) / 2
        elif kind == "merged_knots":
            fg = rng.choice(rng.normal(800.0, 200.0, 9), 200_000)  # 9 levels, 1,024 knots
        else:
            fg = rng.normal(800.0, 200.0, 200_000).clip(1.0, None)
        if kind == "u16":
            fg = np.rint(fg)
        values = rng.permutation(np.concatenate([fg, np.zeros(fg.size // 4)]))
        vol = stored_volume(values, np.uint16 if kind == "u16" else np.float32)
        assert (IntensityIndex.of(vol).counts is None) == (kind != "u16")
        got = template_module._member_cdf(vol, 1024)
        want = build_cdf(zscore_standardize(vol))
        assert (got.xs.tobytes(), got.ps.tobytes()) == (want.xs.tobytes(), want.ps.tobytes())
        assert got.n_samples == want.n_samples == fg.size
        if kind == "voxel_at_mean":
            assert np.nextafter(0.0, 1.0) in got.xs
        if kind == "merged_knots":
            assert got.xs.size == 9

    def test_level_at_the_mean_moves_off_the_background(self):
        # half-integers keep the f32 member off the level table; the level
        # 60.5 is the foreground mean, z-scored exactly onto 0.0
        fg = _mirrored(np.random.default_rng(5), 400, 121, 20.0) / 2
        vol = stored_volume(np.concatenate([fg, np.zeros(50)]), np.float32)
        assert IntensityIndex.of(vol).counts is None
        cdf = template_module._member_cdf(vol, 1024)
        assert cdf.n_samples == fg.size
        assert 0.0 not in cdf.xs and np.nextafter(0.0, 1.0) in cdf.xs


class TestBuildTemplate:
    def test_published_configuration(self, template_12bit):
        t = template_12bit
        lo, hi = t.cdf.support
        assert lo >= 1.0 and hi <= 4095.0
        assert quantile(t.cdf, 0.5) == pytest.approx(1650.0, abs=16.0)

    def test_control_point_fidelity(self, template_12bit):
        t = template_12bit
        tol = 0.005 * t.controls.span
        for p, target in (t.controls.pi_B, t.controls.pi_M, t.controls.pi_T):
            assert abs(quantile(t.cdf, p) - target) <= tol

    def test_inherits_cdf_invariants(self, template_12bit):
        cdf = template_12bit.cdf
        assert (np.diff(cdf.xs) > 0).all()
        assert (np.diff(cdf.ps) >= 0).all()
        assert abs(cdf.ps[-1] - 1.0) <= 1e-12

    def test_single_volume_cohort(self):
        vol = generate_synthetic(t2_spec(400))
        t = build_template([vol])
        assert t.provenance.cohort_size == 1
        lo, hi = t.cdf.support
        assert lo >= 1.0 and hi <= 4095.0

    def test_identical_volumes_match_single_volume(self):
        vol = generate_synthetic(t2_spec(401))
        one = build_template([vol])
        three = build_template([vol, vol, vol])
        assert np.abs(one.cdf.xs - three.cdf.xs).max() < 1e-9
        assert np.abs(one.cdf.ps - three.cdf.ps).max() < 1e-9

    @settings(max_examples=25)
    @given(cohort=_integer_cohorts())
    def test_permutation_invariant_bitwise(self, cohort):
        docs = {json.dumps(build_template(list(order)).to_dict(), sort_keys=True)
                for order in itertools.permutations(cohort)}
        assert len(docs) == 1

    def test_member_level_at_its_mean_is_kept(self):
        # the level 250 is the foreground mean, so it z-scores onto the
        # background value 0.0 and must still count as foreground
        fg = _mirrored(np.random.default_rng(7), 2000, 250, 40.0)
        vol = _volume(fg, n_background=300)
        assert build_template([vol]).cdf.n_samples == fg.size

    def test_tails_squeeze_like_harmonize(self):
        # both tails fire; the template grid must be bent by exactly the
        # TailSpec harmonize builds from the recorded source extremes
        cohort = scanner_cohort(3, seed0=420)
        t = build_template(cohort)
        avg = average_cdfs([build_cdf(zscore_standardize(v)) for v in cohort])
        params = fit_template_to_controls(avg, t.controls).params
        v_min, v_max = (float(lut_ds(x, params)) for x in avg.support)
        tails = template_tails(t.controls, t.clip, v_min, v_max, TAIL_SQUEEZE_GATE,
                               t.provenance)
        assert tails.enabled_top and tails.enabled_bottom
        assert (tails.v_max, tails.v_min) == (t.provenance.tail_source_max,
                                              t.provenance.tail_source_min)
        assert t.cdf.xs.tobytes() == tails.apply(lut_ds(avg.xs, params)).tobytes()

    def test_empty_cohort(self):
        with pytest.raises(EmptyCohort):
            build_template([])
        with pytest.raises(EmptyCohort):
            build_template(vol for vol in [])

    def test_pool_size_falls_back_to_the_cpu_count(self, monkeypatch):
        # a platform without an affinity call sizes the pool by its CPUs
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert template_module._pool_size() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert template_module._pool_size() == 1

    def test_thread_count_never_changes_the_template(self, monkeypatch):
        cohort = scanner_cohort(5, seed0=480)
        cohort += [Volume(v.dims, np.rint(v.voxels), v.channel, v.background_value)
                   for v in scanner_cohort(2, seed0=485)]
        docs = set()
        for threads in (1, 4):
            monkeypatch.setattr(template_module, "_pool_size", lambda: threads)
            docs.add(json.dumps(build_template(cohort).to_dict(), sort_keys=True))
        assert len(docs) == 1

    def test_members_are_read_as_threads_take_them(self, monkeypatch):
        # a generator's members are read one at a time and dropped once
        # mapped: beyond the running and the one waiting, at most one just
        # mapped and one just read are alive
        threads = 2
        monkeypatch.setattr(template_module, "_pool_size", lambda: threads)
        sources = scanner_cohort(8, seed0=490)
        refs, seen = [], []

        def fresh(vol):
            member = Volume(vol.dims, vol.voxels.copy(), vol.channel, vol.background_value)
            refs.append(weakref.ref(member))
            seen.append(sum(ref() is not None for ref in refs))
            return member

        streamed = build_template(fresh(vol) for vol in sources)
        assert len(seen) == len(sources)
        assert max(seen) <= threads + 2
        assert streamed.to_dict() == build_template(sources).to_dict()

    @pytest.mark.parametrize("later", ["map", "read"])
    def test_first_failure_in_cohort_order_is_raised(self, monkeypatch, later):
        # the third member fails only after a later member has failed to be
        # mapped or read, and its error is still the one raised
        monkeypatch.setattr(template_module, "_pool_size", lambda: 4)
        original = template_module._member_cdf
        later_failed = threading.Event()

        def member_cdf(vol, grid_size):
            if not isinstance(vol, str):
                return original(vol, grid_size)
            if vol == "first failure":
                assert later_failed.wait(timeout=10)
            later_failed.set()
            raise EmptyInput(vol)

        def cohort():
            yield from scanner_cohort(2, seed0=500)
            yield "first failure"
            if later == "read":
                later_failed.set()
                raise IoError("later failure")
            yield "later failure"
            yield from scanner_cohort(1, seed0=502)

        monkeypatch.setattr(template_module, "_member_cdf", member_cdf)
        with pytest.raises(EmptyInput, match="first failure"):
            build_template(cohort())

    def test_clip_must_leave_room_for_tails(self):
        vol = generate_synthetic(t2_spec(402))
        with pytest.raises(BadTailSpec):
            build_template([vol], clip=(600.0, 4095.0))  # inside t_B

    def test_no_clip_skips_tails(self):
        cohort = scanner_cohort(3, seed0=430)
        t = build_template(cohort, clip=None)
        assert t.clip is None
        assert t.provenance.tail_source_max is None

    def test_hot_pixel_cohort_fails_as_infeasible(self):
        # Each member's own CDF follows its bulk (rank knots), but two
        # things still tie the template to the hot voxels.  average_cdfs
        # reads the members on an even grid over the union support, which
        # the hot voxels stretch: the median lands at 1600.02, not 1650,
        # with or without a clip range.  And the top tail's source range
        # reaches the hottest z-scored voxel (about 3.1e5), so a build that
        # got past the average would squeeze every image's top tail over it.
        cohort = []
        for i in range(3):
            vol = generate_synthetic(t2_spec(440 + i))
            voxels = np.rint(vol.voxels)
            voxels[0] = 65535.0
            cohort.append(Volume(vol.dims, voxels, vol.channel, vol.background_value))
        with pytest.raises(Infeasible, match="misses control point"):
            build_template(cohort)

    def test_integer_cohort_members_reach_build_cdf_as_level_tables(self, monkeypatch):
        seen = []
        original = template_module.build_cdf

        def spy(vol, *args, **kwargs):
            seen.append(vol)
            return original(vol, *args, **kwargs)

        monkeypatch.setattr(template_module, "build_cdf", spy)
        cohort = [Volume(v.dims, np.rint(v.voxels), v.channel, v.background_value)
                  for v in scanner_cohort(3, seed0=450)]
        build_template(cohort)
        assert len(seen) == len(cohort)
        for fg in seen:
            # counted samples read through the z-score, never z-scored voxel by voxel
            assert isinstance(fg, SortedForeground) and fg.store is not None
            assert fg.cum is not None
        # the pool's threads reach build_cdf in any order: each record pairs
        # with its member by its sample and level counts
        assert sorted((fg.n_voxels, fg.values.size) for fg in seen) == sorted(
            (member.foreground().size, np.unique(member.foreground()).size)
            for member in cohort)

    @pytest.mark.parametrize("kwargs", [{"grid_size": 1}, {"grid_size": 64.0},
                                        {"grid_size": True}, {"channel": 5}],
                             ids=["grid-size-1", "grid-size-float", "grid-size-bool",
                                  "channel-int"])
    def test_arguments_are_checked_before_any_member_is_read(self, kwargs):
        # a member that is no volume fails only once it is read
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            build_template([object()], **kwargs)

    def test_numpy_grid_size_builds_the_plain_int_template(self):
        cohort = scanner_cohort(2, seed0=470)
        plain = build_template(cohort, grid_size=256)
        assert type(plain.provenance.cohort_size) is int
        numpy = build_template(cohort, grid_size=np.int64(256))
        assert json.dumps(numpy.to_dict()) == json.dumps(plain.to_dict())

    def test_channel_label_priority(self):
        vol = generate_synthetic(t2_spec(403, channel="FLAIR"))
        assert build_template([vol]).channel == "FLAIR"
        assert build_template([vol], channel="T2").channel == "T2"


class TestTemplateCdfValidation:
    def test_rejects_curve_missing_its_controls(self, template_12bit):
        wrong = ControlPoints((0.1, 500.0), (0.5, 2500.0), (0.99, 3300.0))
        with pytest.raises(ValueError):
            TemplateCdf(template_12bit.cdf, wrong, clip=None)

    @pytest.mark.parametrize("clip", [(1.0, 4000.0), (1.0, float("inf")),
                                      (float("nan"), 4095.0)])
    def test_rejects_support_outside_clip(self, template_12bit, clip):
        with pytest.raises(ValueError):
            TemplateCdf(template_12bit.cdf, template_12bit.controls, clip=clip)


class TestPersistence:
    def test_round_trip_is_bitwise(self, template_12bit, tmp_path):
        path = tmp_path / "t2.template.json"
        save_template(template_12bit, path)
        loaded = load_template(path)
        assert np.array_equal(loaded.cdf.xs, template_12bit.cdf.xs)
        assert np.array_equal(loaded.cdf.ps, template_12bit.cdf.ps)
        assert loaded.cdf.n_samples == template_12bit.cdf.n_samples
        assert loaded.controls == template_12bit.controls
        assert loaded.clip == template_12bit.clip
        assert loaded.channel == template_12bit.channel
        assert loaded.provenance == template_12bit.provenance

    def test_wrong_schema_version(self, template_12bit, tmp_path):
        path = tmp_path / "t2.template.json"
        save_template(template_12bit, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch):
            load_template(path)

    def test_not_json_raises_schema_mismatch(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        with pytest.raises(SchemaMismatch):
            load_template(path)

    def test_null_tail_source_means_not_recorded(self, template_12bit):
        doc = template_12bit.to_dict()
        doc["provenance"]["tail_source_max"] = None
        loaded = TemplateCdf.from_dict(doc)
        tails = template_tails(loaded.controls, loaded.clip, 0.0, 9000.0, 0.0,
                               loaded.provenance)
        assert tails.enabled_top and tails.v_max == 9000.0

    @pytest.mark.parametrize("value", [[1.0], "1.0", {}, False])
    def test_non_numeric_tail_source_is_schema_mismatch(self, template_12bit, value):
        doc = template_12bit.to_dict()
        doc["provenance"]["tail_source_min"] = value
        with pytest.raises(SchemaMismatch, match="tail_source_min"):
            TemplateCdf.from_dict(doc)

    @pytest.mark.parametrize("key, value", [("cohort_size", "many"), ("cohort_size", 2.0),
                                            ("cohort_size", True), ("cohort_size", 0),
                                            ("cohort_size", -3), ("config_hash", 5)])
    def test_provenance_field_of_the_wrong_kind_names_the_file(self, template_12bit,
                                                               tmp_path, key, value):
        doc = template_12bit.to_dict()
        doc["provenance"][key] = value
        path = tmp_path / "odd.template.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch, match=f"odd.template.json.*{key}"):
            load_template(path)

    def test_provenance_leaves_out_what_was_not_recorded(self, template_12bit):
        assert Provenance().to_dict() == {}
        recorded = template_12bit.provenance
        assert Provenance.from_dict(recorded.to_dict()) == recorded
        assert Provenance(cohort_size=3).to_dict() == {"cohort_size": 3}

    def test_missing_file_is_io_error(self, tmp_path):
        from cdfmatch.errors import IoError
        with pytest.raises(IoError):
            load_template(tmp_path / "absent.json")

    def test_reloaded_template_harmonizes_identically(self, template_12bit,
                                                      tmp_path):
        path = tmp_path / "t2.template.json"
        save_template(template_12bit, path)
        loaded = load_template(path)
        probe = generate_synthetic(t2_spec(505))
        out_a, entry_a = harmonize(probe, template_12bit)
        out_b, entry_b = harmonize(probe, loaded)
        assert np.array_equal(out_a.voxels, out_b.voxels)
        assert entry_a.fit.params == entry_b.fit.params
        assert entry_a.post_ks == entry_b.post_ks
