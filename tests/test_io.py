"""Tests for volume files, synthetic generation, CSV/JSON artifacts, SVG plots."""

import errno
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cdfmatch import (EmpiricalCdf, LesionSpec, MixtureComponent, ScannerEffect,
                      SynthSpec, Volume, build_cdf, emit_cdf_plot, emit_lut_plot,
                      generate_synthetic, ks_distance, load_lut, read_cdf_csv,
                      read_volume, save_lut, save_template, write_cdf_csv,
                      write_lut_csv, write_volume)
from cdfmatch.errors import (BadSpec, EmptyInput, HeaderMismatch, IoError,
                             Overflow, SchemaMismatch)
from cdfmatch.io import csv_text
from cdfmatch.transform import DualScaleParams, PivotTriple, TailSpec, compose_lut

from conftest import cdf_from_samples, t2_spec, volume_from_values


class TestVolumeFiles:
    def test_f32_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.random(4 * 3 * 2).astype(np.float32).astype(np.float64)
        vol = Volume((4, 3, 2), values, channel="T2", background_value=0.0)
        path = tmp_path / "vol.raw"
        write_volume(vol, path, dtype="f32")
        back = read_volume(path)
        assert np.array_equal(back.voxels, vol.voxels)
        assert back.dims == vol.dims
        assert back.channel == "T2"
        assert back.background_value == 0.0

    def test_twelve_bit_u16_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        values = np.rint(rng.uniform(1, 4095, 60))
        vol = volume_from_values(values, channel="T2")
        path = tmp_path / "vol.raw"
        write_volume(vol, path, dtype="u16")
        back = read_volume(path)
        assert back.voxels.min() >= 1.0 and back.voxels.max() <= 4095.0
        assert np.array_equal(back.voxels, vol.voxels)

    def test_integer_write_rounds_half_even(self, tmp_path):
        vol = volume_from_values([0.5, 1.5, 2.5, 3.5], background=-1.0)
        path = tmp_path / "vol.raw"
        write_volume(vol, path, dtype="u8")
        assert read_volume(path).voxels.tolist() == [0.0, 2.0, 2.0, 4.0]

    def test_corrupt_header_leaves_payload_untouched(self, tmp_path):
        vol = volume_from_values([1.0, 2.0, 3.0])
        path = tmp_path / "vol.raw"
        write_volume(vol, path, dtype="f32")
        (tmp_path / "vol.raw.json").write_text("{not json")
        with pytest.raises(HeaderMismatch):
            read_volume(path)

    def test_payload_length_mismatch_rejected(self, tmp_path):
        vol = volume_from_values([1.0, 2.0, 3.0, 4.0])
        path = tmp_path / "vol.raw"
        write_volume(vol, path, dtype="f32")
        payload = path.read_bytes()
        path.write_bytes(payload[:-2])
        with pytest.raises(HeaderMismatch):
            read_volume(path)

    def test_missing_header_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            read_volume(tmp_path / "absent.raw")

    def test_bad_dims_in_header(self, tmp_path):
        vol = volume_from_values([1.0, 2.0])
        path = tmp_path / "vol.raw"
        write_volume(vol, path, dtype="f32")
        header = json.loads((tmp_path / "vol.raw.json").read_text())
        header["dims"] = [2, 0, 1]
        (tmp_path / "vol.raw.json").write_text(json.dumps(header))
        with pytest.raises(HeaderMismatch):
            read_volume(path)

    @pytest.mark.parametrize("field, text", [
        ("background_value", "true"),
        ("background_value", "false"),
        ("background_value", "NaN"),
        ("background_value", "Infinity"),
        ("background_value", "-Infinity"),
        pytest.param("background_value", "1" + "0" * 400, id="background_value-1e400"),
        ("dims", "[true, 2, 1]"),
        ("dims", "[2, 1, true]"),
    ])
    def test_bool_and_non_finite_header_values_rejected(self, tmp_path, field, text):
        # json reads each of these, and Python takes true for the int 1
        path = tmp_path / "vol.raw"
        write_volume(volume_from_values([1.0, 2.0]), path, dtype="f32")
        header = json.loads((tmp_path / "vol.raw.json").read_text())
        header[field] = "@"
        (tmp_path / "vol.raw.json").write_text(json.dumps(header).replace('"@"', text))
        with pytest.raises(HeaderMismatch, match=field):
            read_volume(path)

    @pytest.mark.parametrize("field, value, match", [
        ("dtype", "f64", "unsupported dtype"),
        ("endianness", "big", "unsupported endianness"),
        ("dims", [2, 1], "bad dims"),
        ("channel", 5, "bad channel"),
    ])
    def test_header_outside_the_format_rejected(self, tmp_path, field, value, match):
        path = tmp_path / "vol.raw"
        write_volume(volume_from_values([1.0, 2.0]), path, dtype="f32")
        header = json.loads((tmp_path / "vol.raw.json").read_text())
        header[field] = value
        (tmp_path / "vol.raw.json").write_text(json.dumps(header))
        with pytest.raises(HeaderMismatch, match=match):
            read_volume(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_voxel_is_io_error_naming_the_file(self, tmp_path, value):
        path = tmp_path / "vol.raw"
        write_volume(volume_from_values([1.0, 2.0, 3.0]), path, dtype="f32")
        path.write_bytes(np.array([1.0, value, 3.0], dtype="<f4").tobytes())
        with pytest.raises(IoError, match="vol.raw.*finite"):
            read_volume(path)

    def test_unreadable_payload_is_io_error_naming_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "vol.raw"
        write_volume(volume_from_values([1.0, 2.0, 3.0]), path, dtype="f32")

        def fail(*args, **kwargs):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(np, "fromfile", fail)
        with pytest.raises(IoError, match="vol.raw.*Input/output error"):
            read_volume(path)

    def test_interrupted_payload_write_keeps_previous_pair(self, tmp_path, monkeypatch):
        path = tmp_path / "vol.raw"
        write_volume(volume_from_values(np.arange(1.0, 61.0), channel="T2"),
                     path, dtype="u16")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        original = Path.write_bytes

        def fail_partway(self, data):
            original(self, bytes(memoryview(data))[:7])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_bytes", fail_partway)
        with pytest.raises(IoError):
            write_volume(Volume((5, 4, 2), np.arange(40.0), channel="T1"),
                         path, dtype="u16")
        # the old payload and header are intact and no temporary file is left
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_written_pair_removes_nothing(self, tmp_path, monkeypatch):
        # both temporaries were moved in, so there is nothing to clean up
        unlinked = []
        monkeypatch.setattr(Path, "unlink", lambda self, **kw: unlinked.append(self))
        write_volume(volume_from_values(np.arange(1.0, 61.0)), tmp_path / "vol.raw")
        assert unlinked == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vol.raw", "vol.raw.json"]

    def test_failed_second_replace_leaves_no_temporary(self, tmp_path):
        # the payload is moved in, then the header cannot replace a directory
        (tmp_path / "vol.raw.json").mkdir()
        with pytest.raises(IoError, match="cannot write volume to .*vol.raw.json"):
            write_volume(volume_from_values(np.arange(1.0, 61.0)), tmp_path / "vol.raw")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vol.raw", "vol.raw.json"]
        assert (tmp_path / "vol.raw.json").is_dir()

    def test_overflow_raises_without_clamp(self, tmp_path):
        vol = volume_from_values([10.0, 70_000.0])
        with pytest.raises(Overflow):
            write_volume(vol, tmp_path / "vol.raw", dtype="u16")

    def test_unknown_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_volume(volume_from_values([1.0, 2.0]), tmp_path / "v.raw",
                         dtype="f64")

    def test_f32_overflow_detected(self, tmp_path):
        vol = volume_from_values([1.0, 1e300])
        with pytest.raises(Overflow):
            write_volume(vol, tmp_path / "v.raw", dtype="f32")


class TestSynthSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(BadSpec):
            SynthSpec(components=(MixtureComponent("gaussian", 0.5, 1.0, 1.0),))

    def test_unknown_kind_rejected(self):
        with pytest.raises(BadSpec):
            SynthSpec(components=(MixtureComponent("cauchy", 1.0, 1.0, 1.0),))

    def test_scanner_gain_must_be_positive(self):
        with pytest.raises(BadSpec):
            t2_spec(1, scanner=ScannerEffect(gain=0.0))

    def test_lesion_fraction_bounded(self):
        with pytest.raises(BadSpec):
            t2_spec(1, lesions=LesionSpec(count=1, boost=2.0, volume_fraction=1.5))

    @pytest.mark.parametrize("make, match", [
        (lambda: MixtureComponent("gaussian", 0.0, 1.0, 1.0), "weights and scales"),
        (lambda: MixtureComponent("gaussian", -0.5, 1.0, 1.0), "weights and scales"),
        (lambda: ScannerEffect(tail_weight=0.0), "tail_weight"),
        (lambda: LesionSpec(count=-1), "lesion count must be at least 0, got -1"),
        (lambda: LesionSpec(boost=0.0), "lesion boost must be positive"),
        (lambda: SynthSpec(components=()), "at least one"),
        (lambda: replace(t2_spec(1), background_fraction=1.0), "background fraction"),
        (lambda: replace(t2_spec(1), background_fraction=-0.1), "background fraction"),
        (lambda: replace(t2_spec(1), dims=(4, 1)), "dims must be three positive integers"),
        (lambda: replace(t2_spec(1), dims=(4, 0, 1)), "dims must be at least 1, got 0"),
    ], ids=["weight-zero", "weight-negative", "tail-weight-zero", "lesion-count-negative",
            "lesion-boost-zero", "no-components", "background-one", "background-negative",
            "dims-two", "dims-zero"])
    def test_each_range_check(self, make, match):
        with pytest.raises(BadSpec, match=match):
            make()

    def test_dict_round_trip(self):
        spec = t2_spec(9, scanner=ScannerEffect(gain=1.5, offset=2.0, gamma=1.1,
                                                tail_weight=0.8),
                       lesions=LesionSpec(count=2, boost=2.5, volume_fraction=0.03))
        again = SynthSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_malformed_dict(self):
        with pytest.raises(BadSpec):
            SynthSpec.from_dict({"components": [{"kind": "gaussian"}]})


class TestGenerateSynthetic:
    def test_seed_reproducibility_is_bitwise(self):
        a = generate_synthetic(t2_spec(42))
        b = generate_synthetic(t2_spec(42))
        assert np.array_equal(a.voxels, b.voxels)

    def test_different_seeds_differ(self):
        a = generate_synthetic(t2_spec(42))
        b = generate_synthetic(t2_spec(43))
        assert not np.array_equal(a.voxels, b.voxels)

    def test_identity_effect_matches_analytic_mean(self):
        spec = SynthSpec(components=(MixtureComponent("lognormal", 0.7, 1.0, 0.5),
                                     MixtureComponent("gaussian", 0.3, 8.0, 2.0)),
                         dims=(24, 24, 24), seed=5)
        vol = generate_synthetic(spec)
        mean = 0.7 * math.exp(1.0 + 0.5 ** 2 / 2) + 0.3 * 8.0
        second = 0.7 * math.exp(2.0 + 2 * 0.5 ** 2) + 0.3 * (8.0 ** 2 + 2.0 ** 2)
        se = math.sqrt((second - mean ** 2) / vol.n_voxels)
        assert abs(vol.voxels.mean() - mean) < 3 * se

    def test_gain_only_pair_scales_quantiles_exactly(self):
        v1 = generate_synthetic(t2_spec(42, scanner=ScannerEffect(gain=1.0)))
        v2 = generate_synthetic(t2_spec(42, scanner=ScannerEffect(gain=2.0)))
        ps = np.linspace(0.01, 0.99, 99)
        assert np.array_equal(np.quantile(v2.voxels, ps),
                              2.0 * np.quantile(v1.voxels, ps))

    def test_lesions_shift_the_distribution(self):
        clean = generate_synthetic(t2_spec(90))
        lesioned = generate_synthetic(
            t2_spec(90, lesions=LesionSpec(count=3, boost=3.0,
                                           volume_fraction=0.05)))
        ks = ks_distance(build_cdf(clean, False), build_cdf(lesioned, False))
        assert ks > 0.02
        assert lesioned.voxels.max() > clean.voxels.max()

    def test_lesions_are_spatially_contiguous(self):
        spec = t2_spec(91, lesions=LesionSpec(count=1, boost=4.0,
                                              volume_fraction=0.04))
        clean = generate_synthetic(t2_spec(91))
        lesioned = generate_synthetic(spec)
        changed = np.where(lesioned.voxels != clean.voxels)[0]
        nx, ny, _ = spec.dims
        pts = np.stack([changed % nx, (changed // nx) % ny,
                        changed // (nx * ny)], axis=1)
        center = pts.mean(axis=0)
        radius = (3 * 0.04 * clean.n_voxels / (4 * math.pi)) ** (1 / 3)
        dist = np.sqrt(((pts - center) ** 2).sum(axis=1))
        assert dist.max() <= radius + 1.0

    def test_background_slab(self):
        spec = SynthSpec(components=t2_spec(0).components, dims=(10, 10, 10),
                         background_fraction=0.3, seed=12)
        vol = generate_synthetic(spec)
        assert (vol.voxels[:300] == 0.0).all()
        assert (vol.voxels[300:] != 0.0).all()

    def test_summary_statistics_stable_across_seeds(self):
        means = [generate_synthetic(t2_spec(seed)).voxels.mean()
                 for seed in range(20)]
        spread = np.std(means)
        assert spread < 0.05 * np.mean(means)


class TestCdfCsv:
    def test_round_trip(self, tmp_path):
        cdf = cdf_from_samples(np.random.default_rng(3).normal(10, 2, 5000),
                               grid_size=257)
        path = tmp_path / "cdf.csv"
        write_cdf_csv(cdf, path)
        back = read_cdf_csv(path)
        assert np.array_equal(back.xs, cdf.xs)
        assert np.array_equal(back.ps, cdf.ps)

    def test_header_line_present(self, tmp_path):
        cdf = cdf_from_samples(np.random.default_rng(4).normal(0, 1, 100),
                               grid_size=16)
        path = tmp_path / "cdf.csv"
        write_cdf_csv(cdf, path)
        first = path.read_text().splitlines()[0]
        assert first == "intensity,cumulative_probability"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "cdf.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(SchemaMismatch):
            read_cdf_csv(path)

    @pytest.mark.parametrize("row", ["2.0", "abc,0.5", "2.0,0.5,7"],
                             ids=["short-row", "not-a-number", "long-row"])
    def test_bad_row_names_the_file_and_line(self, tmp_path, row):
        path = tmp_path / "cdf.csv"
        path.write_text(f"intensity,cumulative_probability\n1.0,0.2\n{row}\n3.0,1.0\n")
        with pytest.raises(SchemaMismatch, match=r"cdf\.csv line 3"):
            read_cdf_csv(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "cdf.csv"
        path.write_text("intensity,cumulative_probability\n1.0,0.25\n\n  \n2.0,1.0\n\n")
        cdf = read_cdf_csv(path)
        assert cdf.xs.tolist() == [1.0, 2.0] and cdf.ps.tolist() == [0.25, 1.0]

    def test_unreadable_path_is_an_io_error(self, tmp_path):
        with pytest.raises(IoError, match="cannot read CDF CSV"):
            read_cdf_csv(tmp_path)  # a directory

    def test_descending_curve_names_the_file(self, tmp_path):
        path = tmp_path / "cdf.csv"
        path.write_text("intensity,cumulative_probability\n2.0,0.5\n1.0,1.0\n")
        with pytest.raises(SchemaMismatch, match=r"cdf\.csv.*strictly increasing"):
            read_cdf_csv(path)


class TestCsvText:
    def test_numbers_none_and_labels(self):
        rows = [("plain", np.float32(0.1), None, 3), ('a, "b"', 1e-300, 2.5, np.int64(7))]
        assert csv_text(("label", "x", "y", "n"), rows) == (
            'label,x,y,n\n'
            'plain,0.10000000149011612,,3.0\n'
            '"a, ""b""",1e-300,2.5,7.0\n')

    def test_no_rows_is_the_header(self):
        assert csv_text(("input", "output"), []) == "input,output\n"


class TestLutJson:
    def _lut(self):
        params = DualScaleParams(1.2, 0.8, 1650.0, PivotTriple(500.0, 1650.0, 3300.0))
        tails = TailSpec(v_T=3300.0, v_max=6000.0, v_clipT=4095.0,
                         v_B=500.0, v_min=-200.0, v_clipB=1.0,
                         enabled_top=True, enabled_bottom=True)
        return compose_lut(params, tails, (-400.0, 6100.0), clip=(1.0, 4095.0))

    def test_round_trip(self, tmp_path):
        lut = self._lut()
        path = tmp_path / "map.lut.json"
        save_lut(lut, path)
        back = load_lut(path)
        grid = np.linspace(-400.0, 6100.0, 1000)
        assert np.array_equal(np.asarray(lut.apply(grid)),
                              np.asarray(back.apply(grid)))

    def test_interrupted_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "map.lut.json"
        save_lut(self._lut(), path)
        before = path.read_bytes()
        original = Path.write_text

        def fail_partway(self, text):
            original(self, text[:10])
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(Path, "write_text", fail_partway)
        params = DualScaleParams(1.0, 1.0, 1650.0, PivotTriple(500.0, 1650.0, 3300.0))
        with pytest.raises(IoError):
            save_lut(compose_lut(params, TailSpec(), (0.0, 4000.0)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("edit", [
        {"tails": {"v_B": 3400.0}},                        # BadTailSpec: v_B > v_T
        {"tails": {"enabled_top": "false"}},               # BadTailSpec: not a bool
        {"params": {"sigma_B": 20.0, "sigma_T": 0.05}},    # NonMonotone: 400 > rho*
        {"params": {"sigma_B": 9.0, "sigma_T": 1.0}},      # NonMonotone: 9 > rho*
        {"params": {"sigma_B": math.nan}},                 # non-finite fields
        {"params": {"gamma": math.inf}},
        {"params": {"pivots": {"v_B": -math.inf, "v_M": 1650.0, "v_T": 3300.0}}},
        {"tails": {"v_clipT": math.inf}},
        {"domain": [-400.0, math.inf]},
        {"hard_clamp": [1.0, math.nan]},
        {"params": {"ratio_cap": 500.0}},                  # the old per-LUT cap: unknown key
    ])
    def test_lut_failing_its_own_checks_names_the_file(self, tmp_path, edit):
        path = tmp_path / "map.lut.json"
        save_lut(self._lut(), path)
        doc = json.loads(path.read_text())
        for key, fields in edit.items():
            doc[key] = {**doc[key], **fields} if isinstance(fields, dict) else fields
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch, match="map.lut.json"):
            load_lut(path)

    def test_clip_key_is_refused_naming_hard_clamp(self, tmp_path):
        path = tmp_path / "map.lut.json"
        save_lut(self._lut(), path)
        doc = json.loads(path.read_text())
        doc["clip"] = doc.pop("hard_clamp")
        path.write_text(json.dumps(doc))
        # the record's field is hard_clamp, so "clip" is an unknown key
        with pytest.raises(SchemaMismatch,
                           match="map.lut.json.*unexpected keyword argument 'clip'"):
            load_lut(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "map.lut.json"
        save_lut(self._lut(), path)
        doc = json.loads(path.read_text())
        doc["version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch):
            load_lut(path)


class TestPlots:
    def test_single_curve_polyline_matches_grid(self, tmp_path):
        cdf = cdf_from_samples(np.random.default_rng(5).normal(0, 1, 2000),
                               grid_size=300)
        path = tmp_path / "cdf.svg"
        emit_cdf_plot([("one", cdf)], path)
        svg = path.read_text()
        assert svg.count("<polyline") == 1
        points = svg.split('points="')[1].split('"')[0].split()
        assert len(points) == 300

    def test_ten_curves_ten_polylines(self, tmp_path, template_12bit):
        curves = [(f"c{i}",
                   cdf_from_samples(np.random.default_rng(i).normal(i, 1, 500),
                                    grid_size=64))
                  for i in range(9)]
        curves.append(("template", template_12bit.cdf))
        path = tmp_path / "many.svg"
        emit_cdf_plot(curves, path)
        assert path.read_text().count("<polyline") == 10

    def test_companion_csv_reconstructs_curves(self, tmp_path):
        cdf = cdf_from_samples(np.random.default_rng(6).normal(0, 1, 2000),
                               grid_size=128)
        path = tmp_path / "cdf.svg"
        emit_cdf_plot([("one", cdf)], path)
        rows = (tmp_path / "cdf.svg.csv").read_text().splitlines()
        assert rows[0] == "label,intensity,cumulative_probability"
        xs = np.array([float(r.split(",")[1]) for r in rows[1:]])
        ps = np.array([float(r.split(",")[2]) for r in rows[1:]])
        assert np.array_equal(xs, cdf.xs)
        assert np.array_equal(ps, cdf.ps)

    def test_markers_rendered(self, tmp_path, template_12bit):
        path = tmp_path / "tpl.svg"
        c = template_12bit.controls
        emit_cdf_plot([("template", template_12bit.cdf)], path,
                      markers=[(c.t_B, c.p_B, "bottom"), (c.t_M, c.p_M, "middle"),
                               (c.t_T, c.p_T, "top")])
        assert path.read_text().count("<circle") == 3

    def test_flat_curve_plots_at_the_bottom_edge(self, tmp_path):
        # every probability is 1, so the y range is widened to one unit
        path = tmp_path / "flat.svg"
        emit_cdf_plot([("flat", EmpiricalCdf([1.0, 2.0], [1.0, 1.0]))], path)
        points = path.read_text().split('points="')[1].split('"')[0].split()
        assert points == ["72.00,432.00", "704.00,432.00"]

    def test_empty_list_writes_nothing(self, tmp_path):
        path = tmp_path / "none.svg"
        with pytest.raises(EmptyInput):
            emit_cdf_plot([], path)
        assert not path.exists()
        assert not (tmp_path / "none.svg.csv").exists()

    def test_emission_is_byte_deterministic(self, tmp_path):
        cdf = cdf_from_samples(np.random.default_rng(7).normal(0, 1, 1000),
                               grid_size=90)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_cdf_plot([("x", cdf)], a, title="t")
        emit_cdf_plot([("x", cdf)], b, title="t")
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.svg.csv").read_bytes() == (tmp_path / "b.svg.csv").read_bytes()

    def test_lut_plot_and_csv(self, tmp_path):
        params = DualScaleParams(1.0, 1.0, 1650.0, PivotTriple(500.0, 1650.0, 3300.0))
        lut = compose_lut(params, TailSpec(), (0.0, 4000.0))
        path = tmp_path / "map.svg"
        emit_lut_plot(lut, path, points=128)
        assert path.read_text().count("<polyline") == 1
        rows = (tmp_path / "map.svg.csv").read_text().splitlines()
        assert rows[0] == "input,output"
        assert len(rows) == 129

    def test_labels_are_escaped(self, tmp_path):
        cdf = cdf_from_samples(np.random.default_rng(8).normal(0, 1, 500),
                               grid_size=32)
        path = tmp_path / "esc.svg"
        emit_cdf_plot([("a<b&c", cdf)], path)
        text = path.read_text()
        assert "a&lt;b&amp;c" in text

    def test_companion_csv_quotes_labels(self, tmp_path):
        cdf = cdf_from_samples(np.random.default_rng(9).normal(0, 1, 500),
                               grid_size=4)
        path = tmp_path / "q.svg"
        emit_cdf_plot([('a,"b"', cdf)], path)
        rows = (tmp_path / "q.svg.csv").read_text().splitlines()
        assert rows[1] == f'"a,""b""",{float(cdf.xs[0])!r},{float(cdf.ps[0])!r}'


def _lut_k(k):
    params = DualScaleParams(1.0 + k, 1.0, 1650.0, PivotTriple(500.0, 1650.0, 3300.0))
    return compose_lut(params, TailSpec(), (0.0, 4000.0))


def _cdf_k(k):
    return cdf_from_samples(np.random.default_rng(k).normal(k, 1, 500), grid_size=50)


# (label in the error, files per artifact, writer of version k of the artifact)
WRITERS = {
    "volume": ("volume", 2, lambda path, k, tpl: write_volume(
        volume_from_values(np.arange(1.0, 61.0) + k, channel="T2"), path, dtype="u16")),
    "lut": ("LUT", 1, lambda path, k, tpl: save_lut(_lut_k(k), path)),
    "template": ("template", 1, lambda path, k, tpl: save_template(
        replace(tpl, channel=f"T{k}"), path)),
    "cdf_csv": ("CDF CSV", 1, lambda path, k, tpl: write_cdf_csv(_cdf_k(k), path)),
    "lut_csv": ("LUT CSV", 1, lambda path, k, tpl: write_lut_csv(_lut_k(k), path)),
    "cdf_plot": ("plot", 2, lambda path, k, tpl: emit_cdf_plot([("c", _cdf_k(k))], path)),
    "lut_plot": ("LUT plot", 2, lambda path, k, tpl: emit_lut_plot(_lut_k(k), path)),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_interrupted_write_keeps_previous_files(kind, tmp_path, monkeypatch,
                                                template_12bit):
    label, n_files, write = WRITERS[kind]
    path = tmp_path / "artifact"
    write(path, 0, template_12bit)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert len(before) == n_files
    calls = []

    def fail_on_last_file(original):
        def write_partly(self, data):
            calls.append(self)
            if len(calls) < n_files:
                return original(self, data)
            original(self, data[:7])
            raise OSError(errno.ENOSPC, "No space left on device")
        return write_partly

    monkeypatch.setattr(Path, "write_text", fail_on_last_file(Path.write_text))
    monkeypatch.setattr(Path, "write_bytes", fail_on_last_file(Path.write_bytes))
    with pytest.raises(IoError, match=f"cannot write {label} to "):
        write(path, 1, template_12bit)
    assert len(calls) == n_files
    # the previous files are intact and no temporary file is left
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
