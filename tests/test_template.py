"""Tests for template construction and JSON persistence."""

import json

import numpy as np
import pytest

from cdfmatch import (ControlPoints, TemplateCdf, build_template,
                      generate_synthetic, harmonize, load_template, quantile,
                      save_template)
from cdfmatch import template as template_module
from cdfmatch.cdf import IntensityIndex
from cdfmatch.errors import BadTailSpec, EmptyCohort, Infeasible, SchemaMismatch
from cdfmatch.template import DEFAULT_CONTROLS

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

    def test_permutation_invariant_bitwise(self):
        cohort = scanner_cohort(5, seed0=420)
        a = build_template(cohort)
        b = build_template(cohort[::-1])
        assert np.array_equal(a.cdf.xs, b.cdf.xs)
        assert np.array_equal(a.cdf.ps, b.cdf.ps)

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
