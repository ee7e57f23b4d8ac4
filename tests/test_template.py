"""Tests for template construction and JSON persistence."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfmatch import (ControlPoints, TemplateCdf, Volume, average_cdfs, build_cdf,
                      build_template, fit_template_to_controls, generate_synthetic,
                      harmonize, load_template, lut_ds, quantile, save_template,
                      zscore_standardize)
from cdfmatch import template as template_module
from cdfmatch.cdf import IntensityIndex
from cdfmatch.errors import BadTailSpec, EmptyCohort, Infeasible, SchemaMismatch
from cdfmatch.pipeline import TAIL_SQUEEZE_GATE
from cdfmatch.template import DEFAULT_CONTROLS, template_tails

from conftest import scanner_cohort, t2_spec


class TestControlPoints:
    def test_percentile_order_enforced(self):
        with pytest.raises(ValueError):
            ControlPoints((0.5, 500.0), (0.1, 1650.0), (0.99, 3300.0))

    def test_intensity_order_enforced(self):
        with pytest.raises(ValueError):
            ControlPoints((0.1, 1650.0), (0.5, 500.0), (0.99, 3300.0))

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
        assert t.provenance["cohort_size"] == 1
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
        assert (tails.v_max, tails.v_min) == (t.provenance["tail_source_max"],
                                              t.provenance["tail_source_min"])
        assert t.cdf.xs.tobytes() == tails.apply(lut_ds(avg.xs, params)).tobytes()

    def test_empty_cohort(self):
        with pytest.raises(EmptyCohort):
            build_template([])

    def test_clip_must_leave_room_for_tails(self):
        vol = generate_synthetic(t2_spec(402))
        with pytest.raises(BadTailSpec):
            build_template([vol], clip=(600.0, 4095.0))  # inside t_B

    def test_no_clip_skips_tails(self):
        cohort = scanner_cohort(3, seed0=430)
        t = build_template(cohort, clip=None)
        assert t.clip is None
        assert "tail_source_max" not in t.provenance

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
            cohort.append(vol.with_voxels(voxels))
        with pytest.raises(Infeasible, match="misses control point"):
            build_template(cohort)

    def test_integer_cohort_members_reach_build_cdf_as_level_tables(self, monkeypatch):
        seen = []
        original = template_module.build_cdf

        def spy(vol, *args, **kwargs):
            seen.append(vol)
            return original(vol, *args, **kwargs)

        monkeypatch.setattr(template_module, "build_cdf", spy)
        cohort = [v.with_voxels(np.rint(v.voxels)) for v in scanner_cohort(3, seed0=450)]
        build_template(cohort)
        assert len(seen) == len(cohort)
        for vol, member in zip(seen, cohort):
            assert isinstance(vol, IntensityIndex)
            assert vol.counts is not None
            assert vol.counts.sum() == member.n_voxels

    def test_channel_label_priority(self):
        vol = generate_synthetic(t2_spec(403, channel="FLAIR"))
        assert build_template([vol]).channel == "FLAIR"
        assert build_template([vol], channel="T2").channel == "T2"


class TestTemplateCdfValidation:
    def test_rejects_curve_missing_its_controls(self, template_12bit):
        wrong = ControlPoints((0.1, 500.0), (0.5, 2500.0), (0.99, 3300.0))
        with pytest.raises(ValueError):
            TemplateCdf(template_12bit.cdf, wrong, clip=None)

    def test_rejects_support_outside_clip(self, template_12bit):
        with pytest.raises(ValueError):
            TemplateCdf(template_12bit.cdf, template_12bit.controls,
                        clip=(1.0, 4000.0))


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
