"""End-to-end tests of the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from cdfmatch import (Volume, cli, generate_synthetic, load_lut, read_volume,
                      write_volume)
from cdfmatch.cli import run
from cdfmatch.template import TEMPLATE_SCHEMA_VERSION

from conftest import T2_COMPONENTS, scanner_effect, t2_spec


def synth_spec_doc(seed: int, effect=None) -> dict:
    effect = effect or scanner_effect(seed % 9)
    return {
        "components": [c.to_dict() for c in T2_COMPONENTS],
        "dims": [16, 16, 16],
        "scanner": effect.to_dict(),
        "channel": "T2",
        "seed": seed,
    }


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Nine synthetic volumes plus a built template, via the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw"
    raw.mkdir()
    for i in range(9):
        spec_path = root / f"spec{i}.json"
        spec_path.write_text(json.dumps(synth_spec_doc(100 + i, scanner_effect(i))))
        code = run(["synth", "--spec", str(spec_path),
                    "--out", str(raw / f"vol{i}.raw")])
        assert code == 0
    template = root / "t2.template.json"
    inputs = [str(p) for p in sorted(raw.glob("*.raw"))]
    code = run(["template", "build", "--channel", "T2",
                "--out", str(template)] + inputs)
    assert code == 0
    return root


class TestUsage:
    def test_no_arguments_prints_usage(self, capsys):
        assert run([]) == 64
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, capsys):
        assert run(["synth", "--bogus"]) == 64

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 64

    def test_template_without_build(self):
        assert run(["template"]) == 64

    def test_version_exits_zero(self, capsys):
        assert run(["--version"]) == 0
        out = capsys.readouterr().out
        assert "cdfmatch" in out and "config schema" in out
        assert f"template schema {TEMPLATE_SCHEMA_VERSION}" in out

    @pytest.mark.parametrize("make_dir", [True, False], ids=["empty-directory", "missing"])
    def test_harmonize_input_without_volumes(self, workspace, tmp_path, capsys, make_dir):
        src = tmp_path / "inputs"
        if make_dir:
            src.mkdir()
        assert run(["harmonize", "--template", str(workspace / "t2.template.json"),
                    "--in", str(src), "--out", str(tmp_path / "out")]) == 64
        err = capsys.readouterr().err
        assert str(src) in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_input_file(self, tmp_path):
        assert run(["harmonize", "--template", str(tmp_path / "no.json"),
                    "--in", str(tmp_path), "--out", str(tmp_path / "o")]) in (1, 64)


class TestTemplateCommand:
    def test_unreachable_controls_fail_without_traceback(self, tmp_path, capsys):
        # one hot pixel per volume stretches the CDF grid past the controls
        inputs = []
        for i in range(3):
            vol = generate_synthetic(t2_spec(440 + i))
            voxels = np.rint(vol.voxels)
            voxels[0] = 65535.0
            path = tmp_path / f"hot{i}.raw"
            write_volume(Volume(vol.dims, voxels, vol.channel, vol.background_value), path,
                         dtype="u16")
            inputs.append(str(path))
        out = tmp_path / "t.json"
        assert run(["template", "build", "--out", str(out)] + inputs) == 1
        err = capsys.readouterr().err
        assert "cdfmatch: cannot build a template" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestSynth:
    def test_writes_volume_and_header(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(synth_spec_doc(7)))
        out = tmp_path / "vol.raw"
        assert run(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        vol = read_volume(out)
        assert vol.dims == (16, 16, 16)
        assert vol.channel == "T2"

    def test_seed_flag_overrides_spec(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(synth_spec_doc(7)))
        run(["synth", "--spec", str(spec), "--out", str(tmp_path / "a.raw")])
        run(["synth", "--spec", str(spec), "--seed", "8",
             "--out", str(tmp_path / "b.raw")])
        a = read_volume(tmp_path / "a.raw")
        b = read_volume(tmp_path / "b.raw")
        assert not np.array_equal(a.voxels, b.voxels)

    @pytest.mark.parametrize("edit, flags, field", [
        (lambda doc: doc.update(seed="abc"), [], "seed"),
        (lambda doc: doc.update(dims=["x", 8, 8]), [], "dims"),
        (lambda doc: doc["components"][0].update(weight=float("nan")), [], "weight"),
        (lambda doc: doc["components"][0].update(loc=float("nan")), [], "loc"),
        (lambda doc: doc["components"][0].update(scale=float("inf")), [], "scale"),
        (lambda doc: None, ["--seed", "-1"], "seed"),
        (lambda doc: doc["components"][2].update(loc=800.0), [], "overflow"),
    ], ids=["seed-string", "dims-string", "weight-nan", "loc-nan", "scale-inf",
            "seed-flag-negative", "lognormal-overflow"])
    def test_invalid_spec_field_exits_1_naming_it(self, tmp_path, capsys, edit, flags,
                                                  field):
        doc = synth_spec_doc(7)
        edit(doc)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))  # NaN and Infinity as JSON writes them
        out = tmp_path / "x.raw"
        assert run(["synth", "--spec", str(spec), "--out", str(out)] + flags) == 1
        err = capsys.readouterr().err
        assert "cdfmatch" in err and field in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_spec_is_usage_error(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("{broken")
        assert run(["synth", "--spec", str(spec),
                    "--out", str(tmp_path / "x.raw")]) == 64


class TestHarmonizeCommand:
    def test_full_pipeline_report(self, workspace, tmp_path):
        out_dir = tmp_path / "harmonized"
        report = tmp_path / "report.json"
        code = run(["harmonize", "--template", str(workspace / "t2.template.json"),
                    "--in", str(workspace / "raw"), "--out", str(out_dir),
                    "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert len(doc["items"]) == 9
        assert doc["failures"] == []
        assert all(item["fit"]["converged"] for item in doc["items"])
        assert all("lut" in item for item in doc["items"])
        assert doc["config"]["controls"]["pi_M"] == [0.5, 1650.0]
        assert len(list(out_dir.glob("*.raw"))) == 9
        # each output carries a metadata sidecar embedding its fit
        meta = json.loads((out_dir / "vol0.meta.json").read_text())
        assert meta["fit"]["converged"] is True
        assert meta["lut_file"] == "vol0.lut.json"
        assert meta["lut"]["hard_clamp"] == [1.0, 4095.0]

    def test_twelve_bit_outputs_reread_in_range(self, workspace, tmp_path):
        out_dir = tmp_path / "bits12"
        code = run(["harmonize", "--template", str(workspace / "t2.template.json"),
                    "--in", str(workspace / "raw"), "--out", str(out_dir),
                    "--bits", "12"])
        assert code == 0
        for path in sorted(out_dir.glob("*.raw")):
            vol = read_volume(path)
            fg = vol.foreground()
            assert fg.min() >= 1.0 and fg.max() <= 4095.0
            assert np.array_equal(fg, np.rint(fg))

    def test_runs_are_bitwise_identical(self, workspace, tmp_path):
        args = lambda out, rep: ["harmonize", "--template",
                                 str(workspace / "t2.template.json"),
                                 "--in", str(workspace / "raw"),
                                 "--out", str(out), "--report", str(rep),
                                 "--bits", "12"]
        out1, rep1 = tmp_path / "o1", tmp_path / "r1.json"
        out2, rep2 = tmp_path / "o2", tmp_path / "r2.json"
        assert run(args(out1, rep1)) == 0
        assert run(args(out2, rep2)) == 0
        assert rep1.read_bytes() == rep2.read_bytes()
        for p1 in sorted(out1.iterdir()):
            p2 = out2 / p1.name
            assert p1.read_bytes() == p2.read_bytes(), p1.name

    def test_workers_do_not_change_outputs(self, workspace, tmp_path):
        tpl = str(workspace / "t2.template.json")
        for workers in ("1", "4"):
            assert run(["harmonize", "--template", tpl, "--in", str(workspace / "raw"),
                        "--out", str(tmp_path / f"w{workers}"),
                        "--report", str(tmp_path / f"r{workers}.json"),
                        "--workers", workers]) == 0
        base, multi = tmp_path / "w1", tmp_path / "w4"
        names = sorted(p.name for p in base.iterdir())
        assert names == sorted(p.name for p in multi.iterdir())
        assert len(names) == 9 * 4  # payload, header, LUT and meta per item
        for name in names:
            assert (base / name).read_bytes() == (multi / name).read_bytes(), name
        # the report echoes the worker count and is otherwise identical
        rep1 = (tmp_path / "r1.json").read_text()
        rep4 = (tmp_path / "r4.json").read_text()
        assert rep4.count('"workers": 4') == 1
        assert rep4.replace('"workers": 4', '"workers": 1') == rep1

    @pytest.mark.parametrize("workers, threads", [(1, 6), (2, 3), (4, 1), (8, 1)])
    def test_workers_share_the_cpus(self, workspace, tmp_path, monkeypatch, workers,
                                    threads):
        # each item splits its large passes over its worker's share of the CPUs
        monkeypatch.setattr(cli, "_cpu_threads", lambda: 6)
        seen, harmonize = [], cli.harmonize

        def spy(*args, **kwargs):
            seen.append(kwargs["threads"])
            return harmonize(*args, **kwargs)

        monkeypatch.setattr(cli, "harmonize", spy)
        assert run(["harmonize", "--template", str(workspace / "t2.template.json"),
                    "--in", str(workspace / "raw"), "--out", str(tmp_path / "out"),
                    "--workers", str(workers)]) == 0
        assert seen == [threads] * 9

    def test_best_effort_continues_past_bad_volume(self, workspace, tmp_path):
        raw = tmp_path / "mixed"
        raw.mkdir()
        for src in sorted((workspace / "raw").glob("vol0.raw*")):
            (raw / src.name).write_bytes(src.read_bytes())
        # a volume whose payload disagrees with its header
        bad = raw / "bad.raw"
        bad.write_bytes(b"\x00" * 10)
        (raw / "bad.raw.json").write_text(json.dumps(
            {"dims": [16, 16, 16], "dtype": "f32", "channel": "T2",
             "background_value": 0.0, "endianness": "little"}))
        out_dir = tmp_path / "out"
        report = tmp_path / "rep.json"
        tpl = str(workspace / "t2.template.json")
        strict = run(["harmonize", "--template", tpl, "--in", str(raw),
                      "--out", str(out_dir), "--report", str(report)])
        assert strict == 1
        # bad.raw comes first, so a strict run starts no later input
        assert not list(out_dir.glob("vol0.*"))
        doc = json.loads(report.read_text())
        assert doc["items"] == []
        assert [f["input"] for f in doc["failures"]] == ["bad.raw"]
        code = run(["harmonize", "--template", tpl, "--in", str(raw),
                    "--out", str(out_dir), "--report", str(report),
                    "--best-effort"])
        assert code == 2
        doc = json.loads(report.read_text())
        assert len(doc["items"]) == 1
        assert len(doc["failures"]) == 1
        assert doc["failures"][0]["input"] == "bad.raw"

    @pytest.mark.parametrize("background", ["true", "NaN", "Infinity"])
    def test_bool_or_non_finite_background_exits_1(self, workspace, tmp_path, capsys,
                                                   background):
        raw = tmp_path / "raw"
        raw.mkdir()
        for suffix in (".raw", ".raw.json"):
            src = workspace / "raw" / f"vol0{suffix}"
            (raw / f"vol0{suffix}").write_bytes(src.read_bytes())
        header = json.loads((raw / "vol0.raw.json").read_text())
        header["background_value"] = "@"
        (raw / "vol0.raw.json").write_text(json.dumps(header).replace('"@"', background))
        code = run(["harmonize", "--template", str(workspace / "t2.template.json"),
                    "--in", str(raw), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "bad background_value" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*.raw"))

    def test_best_effort_pool_keeps_input_order(self, workspace, tmp_path):
        raw = tmp_path / "mixed"
        raw.mkdir()
        header = json.dumps({"dims": [16, 16, 16], "dtype": "f32", "channel": "T2",
                             "background_value": 0.0, "endianness": "little"})
        for name in ("a", "c"):
            (raw / f"{name}.raw").write_bytes(b"\x00" * 10)
            (raw / f"{name}.raw.json").write_text(header)
        for i, name in enumerate(("b", "d", "e")):
            for suffix in (".raw", ".raw.json"):
                src = workspace / "raw" / f"vol{i}{suffix}"
                (raw / f"{name}{suffix}").write_bytes(src.read_bytes())
        report = tmp_path / "rep.json"
        code = run(["harmonize", "--template", str(workspace / "t2.template.json"),
                    "--in", str(raw), "--out", str(tmp_path / "out"),
                    "--report", str(report), "--best-effort", "--workers", "2"])
        assert code == 2
        doc = json.loads(report.read_text())
        assert [item["input"] for item in doc["items"]] == ["b.raw", "d.raw", "e.raw"]
        assert [f["input"] for f in doc["failures"]] == ["a.raw", "c.raw"]

    @pytest.mark.parametrize("best_effort", [True, False])
    def test_unconverged_fit_fails_the_item_but_writes_it(self, workspace, tmp_path,
                                                          monkeypatch, best_effort):
        # the workspace volumes' tails fire, so each fit refines; no refining
        # step allowed leaves every such fit unconverged
        monkeypatch.setattr("cdfmatch.fit._REFINE_STEPS", 0)
        raw = tmp_path / "raw"
        raw.mkdir()
        names = ["vol0.raw", "vol1.raw"]
        for name in names:
            for src in (workspace / "raw").glob(f"{name}*"):  # payload and header
                (raw / src.name).write_bytes(src.read_bytes())
        out_dir, report = tmp_path / "out", tmp_path / "rep.json"
        code = run(["harmonize", "--template", str(workspace / "t2.template.json"),
                    "--in", str(raw), "--out", str(out_dir), "--report", str(report)]
                   + ["--best-effort"] * best_effort)
        # a strict run starts no item after its first failure, vol0
        written = names if best_effort else names[:1]
        for name in names:
            stem = name[:-len(".raw")]
            for output in (name, f"{name}.json", f"{stem}.lut.json", f"{stem}.meta.json"):
                assert (out_dir / output).is_file() == (name in written)
        assert code == (2 if best_effort else 1)
        doc = json.loads(report.read_text())
        assert [item["input"] for item in doc["items"]] == written
        assert not any(item["fit"]["converged"] for item in doc["items"])
        assert doc["failures"] == [{"input": name, "error": f"fit did not converge for {name}"}
                                   for name in written]

    def test_missing_report_directory_is_usage_error(self, workspace, tmp_path,
                                                     capsys):
        out_dir = tmp_path / "out"
        assert run(["harmonize", "--template", str(workspace / "t2.template.json"),
                    "--in", str(workspace / "raw"), "--out", str(out_dir),
                    "--report", str(tmp_path / "nodir" / "r.json")]) == 64
        assert "does not exist" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unwritable_report_is_io_error(self, workspace, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.mkdir()  # a directory where the report file should go
        assert run(["harmonize", "--template", str(workspace / "t2.template.json"),
                    "--in", str(workspace / "raw"), "--out", str(tmp_path / "out"),
                    "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert "cdfmatch: cannot write report" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, config", [
        (["--workers", "0"], None),
        (["--workers", "-3"], None),
        (["--grid-size", "0"], None),
        (["--grid-size", "1"], None),
        (["--grid-size", "1", "--best-effort"], None),
        ([], {"workers": 0}),
        ([], {"grid_size": 1}),
    ])
    def test_out_of_range_workers_and_grid_size(self, workspace, tmp_path, capsys,
                                                flags, config):
        if config is not None:
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps(config))
            flags = flags + ["--config", str(cfg)]
        out_dir = tmp_path / "out"
        assert run(["harmonize", "--template", str(workspace / "t2.template.json"),
                    "--in", str(workspace / "raw"), "--out", str(out_dir)]
                   + flags) == 64
        assert "must be at least" in capsys.readouterr().err
        assert not out_dir.exists()


    @pytest.mark.parametrize("bits", ["0", "-3", "17"])
    def test_bits_outside_1_to_16_is_usage_error(self, workspace, tmp_path, capsys, bits):
        out_dir, report = tmp_path / "out", tmp_path / "report.json"
        assert run(["harmonize", "--template", str(workspace / "t2.template.json"),
                    "--in", str(workspace / "raw"), "--out", str(out_dir),
                    "--report", str(report), "--bits", bits]) == 64
        assert "bits must lie in 1..16" in capsys.readouterr().err
        assert not out_dir.exists() and not report.exists()

    def test_integer_dtype_without_bits_keeps_foreground_off_background(
            self, workspace, tmp_path):
        # unclipped low controls map the darkest voxels around 0, which an
        # i16 output used to round onto the background
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"controls": {"pi_B": [0.1, 20.0], "pi_M": [0.5, 60.0],
                                                "pi_T": [0.99, 140.0]}}))
        template = tmp_path / "low.template.json"
        inputs = [str(p) for p in sorted((workspace / "raw").glob("*.raw"))]
        assert run(["template", "build", "--clip", "none", "--config", str(cfg),
                    "--out", str(template)] + inputs) == 0
        out_dir = tmp_path / "out"
        assert run(["harmonize", "--template", str(template), "--in", str(workspace / "raw"),
                    "--out", str(out_dir), "--dtype", "i16"]) == 0
        near_zero = 0
        for path in inputs:
            vol = read_volume(path)
            out = read_volume(out_dir / Path(path).name)
            lut = load_lut(out_dir / (Path(path).stem + ".lut.json"))
            fg = vol.voxels != np.float64(vol.background_value)
            near_zero += int((np.abs(np.asarray(lut.apply(vol.voxels[fg]))) < 0.5).sum())
            assert out.voxels.dtype == np.int16
            assert (out.voxels[fg] != 0).all()
        assert near_zero > 0

    # the 12-bit template clips to [1, 4095]: 8 bits cannot hold that range
    # and u8 cannot hold its top end, so both fail before any item runs
    @pytest.mark.parametrize("flags, message", [
        (["--bits", "8"], "more than 256 levels"),
        (["--bits", "12", "--dtype", "u8"], "values [1, 4095] do not fit u8"),
    ])
    def test_bits_that_cannot_hold_the_clip_range_is_usage_error(
            self, workspace, tmp_path, capsys, monkeypatch, flags, message):
        monkeypatch.setattr(cli, "harmonize", None)  # any item run would fail
        out_dir, report = tmp_path / "out", tmp_path / "report.json"
        assert run(["harmonize", "--template", str(workspace / "t2.template.json"),
                    "--in", str(workspace / "raw"), "--out", str(out_dir),
                    "--report", str(report)] + flags) == 64
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out_dir.exists() and not report.exists()


class TestNonFiniteVoxels:
    """An f32 input holding a NaN or +/-inf voxel fails as its own item,
    named in the message, and never ends a run with a traceback."""

    @staticmethod
    def _inputs(workspace, root, value):
        # vol0 as it is, and vol1 with one voxel replaced by ``value``
        root.mkdir()
        for src in (workspace / "raw").glob("vol0.raw*"):
            (root / src.name).write_bytes(src.read_bytes())
        voxels = read_volume(workspace / "raw" / "vol1.raw").voxels.copy()
        voxels[100] = value
        (root / "bad.raw").write_bytes(voxels.astype("<f4").tobytes())
        (root / "bad.raw.json").write_bytes((workspace / "raw" / "vol1.raw.json").read_bytes())
        return root

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_best_effort_writes_the_good_item_and_lists_the_bad_one(
            self, workspace, tmp_path, capsys, value):
        raw = self._inputs(workspace, tmp_path / "raw", value)
        out_dir, report = tmp_path / "out", tmp_path / "rep.json"
        assert run(["harmonize", "--template", str(workspace / "t2.template.json"),
                    "--in", str(raw), "--out", str(out_dir), "--report", str(report),
                    "--best-effort"]) == 2
        doc = json.loads(report.read_text())
        assert [item["input"] for item in doc["items"]] == ["vol0.raw"]
        assert [f["input"] for f in doc["failures"]] == ["bad.raw"]
        assert "bad.raw" in doc["failures"][0]["error"]
        assert "finite" in doc["failures"][0]["error"]
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "vol0.lut.json", "vol0.meta.json", "vol0.raw", "vol0.raw.json"]
        assert "Traceback" not in capsys.readouterr().err

    def test_each_command_exits_1_naming_the_file(self, workspace, tmp_path, capsys):
        raw = self._inputs(workspace, tmp_path / "raw", np.nan)
        bad = str(raw / "bad.raw")
        runs = [["harmonize", "--template", str(workspace / "t2.template.json"),
                 "--in", str(raw), "--out", str(tmp_path / "out")],
                ["inspect", "--cdf", bad, "--out", str(tmp_path / "cdf.csv")],
                ["template", "build", "--out", str(tmp_path / "t.json"),
                 str(raw / "vol0.raw"), bad]]
        for argv in runs:
            assert run(argv) == 1, argv
            err = capsys.readouterr().err
            assert "bad.raw" in err and "finite" in err
            assert "Traceback" not in err
        assert not (tmp_path / "cdf.csv").exists() and not (tmp_path / "t.json").exists()


class TestInspect:
    def test_cdf_csv_and_plot(self, workspace, tmp_path):
        out = tmp_path / "cdf.csv"
        plot = tmp_path / "cdf.svg"
        code = run(["inspect", "--cdf", str(workspace / "raw" / "vol0.raw"),
                    "--out", str(out), "--plot", str(plot)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "intensity,cumulative_probability"
        assert len(lines) == 1 + 1024
        assert "<svg" in plot.read_text()

    def test_grid_size_flag_controls_rows(self, workspace, tmp_path):
        out = tmp_path / "cdf.csv"
        code = run(["inspect", "--cdf", str(workspace / "raw" / "vol0.raw"),
                    "--out", str(out), "--grid-size", "256"])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 256

    def test_lut_inspection(self, workspace, tmp_path):
        harmonized = tmp_path / "h"
        run(["harmonize", "--template", str(workspace / "t2.template.json"),
             "--in", str(workspace / "raw" / "vol0.raw"),
             "--out", str(harmonized)])
        lut_path = harmonized / "vol0.lut.json"
        out = tmp_path / "map.csv"
        plot = tmp_path / "map.svg"
        code = run(["inspect", "--lut", str(lut_path), "--out", str(out),
                    "--plot", str(plot), "--points", "64"])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "input,output"
        assert len(rows) == 65
        outputs = [float(r.split(",")[1]) for r in rows[1:]]
        assert outputs == sorted(outputs)
        assert out.read_bytes() == (tmp_path / "map.svg.csv").read_bytes()
        assert run(["inspect", "--lut", str(lut_path), "--out", str(out),
                    "--points", "1"]) == 64

    def test_background_is_a_knot_only_without_exclusion(self, workspace, tmp_path):
        vol = read_volume(workspace / "raw" / "vol0.raw")
        values = vol.voxels.astype(np.float64)
        values[::7] = 0.0
        path = tmp_path / "with_background.raw"
        write_volume(Volume(vol.dims, values, vol.channel, vol.background_value), path, "f32")
        first = {}
        for flag in ("--exclude-background", "--no-exclude-background"):
            out = tmp_path / f"{flag}.csv"
            assert run(["inspect", "--cdf", str(path), "--out", str(out), flag]) == 0
            first[flag] = float(out.read_text().splitlines()[1].split(",")[0])
        assert first["--no-exclude-background"] == 0.0
        assert first["--exclude-background"] == values[values != 0.0].min() > 0.0

    def test_inspection_is_deterministic(self, workspace, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for plot in (a, b):
            run(["inspect", "--cdf", str(workspace / "raw" / "vol1.raw"),
                 "--out", str(tmp_path / f"{plot.stem}.csv"), "--plot", str(plot)])
        assert a.read_bytes() == b.read_bytes()


class TestEval:
    def test_metrics_table(self, workspace, tmp_path):
        out = tmp_path / "metrics.csv"
        code = run(["eval", "--template", str(workspace / "t2.template.json"),
                    "--in", str(workspace / "raw"), "--methods",
                    "percentile_stretch,zscore,cdf_match", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("method,mean_pairwise_ks,mean_ks_to_template,"
                            "mean_range_utilization")
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert set(rows) == {"percentile_stretch", "zscore", "cdf_match"}
        assert float(rows["cdf_match"][1]) < float(rows["percentile_stretch"][1])
        assert float(rows["cdf_match"][1]) < float(rows["zscore"][1])
        assert rows["zscore"][2] == ""

    def test_all_background_volume_exits_1(self, workspace, tmp_path, capsys):
        # the percentile stretch runs first and has no foreground to anchor on
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        write_volume(read_volume(workspace / "raw" / "vol0.raw"), in_dir / "vol0.raw", "u16")
        write_volume(Volume((8, 8, 8), np.zeros(512), channel="T2"), in_dir / "empty.raw",
                     "u16")
        assert run(["eval", "--template", str(workspace / "t2.template.json"),
                    "--in", str(in_dir), "--out", str(tmp_path / "m.csv")]) == 1
        err = capsys.readouterr().err
        assert "every voxel equals the background value" in err
        assert "Traceback" not in err

    def test_unknown_method(self, workspace, tmp_path):
        assert run(["eval", "--template", str(workspace / "t2.template.json"),
                    "--in", str(workspace / "raw"), "--methods", "magic",
                    "--out", str(tmp_path / "m.csv")]) == 64

    @pytest.mark.parametrize("name", ["stretch", "cdf"])
    def test_a_method_takes_only_the_name_the_table_prints(self, workspace, tmp_path,
                                                           capsys, name):
        out = tmp_path / "m.csv"
        assert run(["eval", "--template", str(workspace / "t2.template.json"),
                    "--in", str(workspace / "raw"), "--methods", f"zscore,{name}",
                    "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert "percentile_stretch, zscore, cdf_match" in err
        assert not out.exists()


class TestOutputPaths:
    @pytest.mark.parametrize("command", [
        ["template", "build", "--out", "{missing}/t.json", "{raw}/vol0.raw", "{raw}/vol1.raw"],
        ["eval", "--template", "{template}", "--in", "{raw}", "--out", "{missing}/m.csv"],
        ["inspect", "--cdf", "{raw}/vol0.raw", "--out", "{missing}/cdf.csv"],
        ["inspect", "--cdf", "{raw}/vol0.raw", "--out", "{tmp}/cdf.csv",
         "--plot", "{missing}/cdf.svg"],
        ["synth", "--spec", "{tmp}/spec.json", "--out", "{missing}/v.raw"],
    ], ids=["template", "eval", "inspect-out", "inspect-plot", "synth"])
    def test_missing_output_directory_is_usage_error(self, workspace, tmp_path, capsys,
                                                     command):
        (tmp_path / "spec.json").write_text(json.dumps(synth_spec_doc(7)))
        names = {"missing": tmp_path / "nodir", "raw": workspace / "raw",
                 "template": workspace / "t2.template.json", "tmp": tmp_path}
        before = sorted(p.name for p in tmp_path.iterdir())
        assert run([arg.format(**names) for arg in command]) == 64
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == before


class TestFlagsOnlyWhereRead:
    # --workers sizes harmonize's thread pool; synth reads no config at all
    @pytest.mark.parametrize("command, code", [
        (["template", "build", "--out", "{tmp}/t.json", "{raw}/vol0.raw", "{raw}/vol1.raw",
          "--workers", "2"], 64),
        (["inspect", "--cdf", "{raw}/vol0.raw", "--out", "{tmp}/c.csv", "--workers", "2"], 64),
        (["eval", "--template", "{template}", "--in", "{raw}", "--out", "{tmp}/m.csv",
          "--workers", "2"], 64),
        (["synth", "--spec", "{tmp}/spec.json", "--out", "{tmp}/v.raw", "--workers", "2"], 64),
        (["synth", "--spec", "{tmp}/spec.json", "--out", "{tmp}/v.raw",
          "--grid-size", "64"], 64),
        (["synth", "--spec", "{tmp}/spec.json", "--out", "{tmp}/v.raw",
          "--config", "{tmp}/config.json"], 64),
        (["harmonize", "--template", "{template}", "--in", "{raw}", "--out", "{tmp}/h",
          "--workers", "2"], 0),
        # the control points come from the config file only
        (["template", "build", "--controls", "{tmp}/config.json", "--out", "{tmp}/t.json",
          "{raw}/vol0.raw"], 64),
    ], ids=["template-workers", "inspect-workers", "eval-workers", "synth-workers",
            "synth-grid-size", "synth-config", "harmonize-workers", "template-controls"])
    def test_flag_accepted_only_by_commands_that_read_it(self, workspace, tmp_path,
                                                         command, code):
        (tmp_path / "spec.json").write_text(json.dumps(synth_spec_doc(7)))
        (tmp_path / "config.json").write_text(json.dumps({"grid_size": 64}))
        names = {"raw": workspace / "raw", "template": workspace / "t2.template.json",
                 "tmp": tmp_path}
        assert run([arg.format(**names) for arg in command]) == code


class TestMalformedFiles:
    @pytest.mark.parametrize("kind, edit", [
        ("template", lambda doc: doc.pop("cdf")),
        ("template", lambda doc: doc.update(cdf={"xs": [2, 1], "ps": [0.5, 1.0]})),
        ("template", lambda doc: doc.update(clip=[1.0])),
        ("template", lambda doc: doc.update(clip=[1.0, 4095.0, 5000.0])),
        ("lut", lambda doc: doc.update(params={})),
        ("lut", lambda doc: doc.update(domain=[1.0])),
        ("lut", lambda doc: doc.update(domain=[doc["domain"][0], doc["domain"][1], 1e9])),
        ("lut", lambda doc: doc.update(hard_clamp=[1.0])),
        ("lut", lambda doc: doc.update(hard_clamp=[1.0, 4095.0, 5000.0])),
    ], ids=["template-without-cdf", "template-decreasing-xs", "template-clip-one-number",
            "template-clip-three-numbers", "lut-without-sigma", "lut-domain-one-number",
            "lut-domain-three-numbers", "lut-clamp-one-number", "lut-clamp-three-numbers"])
    def test_malformed_json_exits_1_naming_the_file(self, workspace, tmp_path, capsys,
                                                     kind, edit):
        bad = tmp_path / "bad.json"
        if kind == "lut":
            assert run(["harmonize", "--template", str(workspace / "t2.template.json"),
                        "--in", str(workspace / "raw" / "vol0.raw"),
                        "--out", str(tmp_path / "lut")]) == 0
            doc = json.loads((tmp_path / "lut" / "vol0.lut.json").read_text())
            command = ["inspect", "--lut", str(bad), "--out", str(tmp_path / "m.csv")]
        else:
            doc = json.loads((workspace / "t2.template.json").read_text())
            command = ["harmonize", "--template", str(bad), "--in", str(workspace / "raw"),
                       "--out", str(tmp_path / "out")]
        edit(doc)
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(command) == 1
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, at, value", [("ps", 5, float("nan")),
                                                  ("xs", -1, float("inf"))])
    def test_non_finite_template_knot_exits_1(self, workspace, tmp_path, capsys, field,
                                              at, value):
        # an unclipped template: a clip range would reject an infinite knot
        # for lying outside it, and no clip check sees a NaN probability
        template = tmp_path / "unclipped.template.json"
        assert run(["template", "build", "--channel", "T2", "--clip", "none",
                    "--out", str(template)]
                   + [str(workspace / "raw" / f"vol{i}.raw") for i in range(3)]) == 0
        doc = json.loads(template.read_text())
        doc["cdf"][field][at] = value  # written as NaN or Infinity, which json reads
        bad = tmp_path / "bad.template.json"
        bad.write_text(json.dumps(doc))
        assert run(["harmonize", "--template", str(bad), "--in", str(workspace / "raw"),
                    "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "bad.template.json" in err and "finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [[15631.1], "15631.1", True, float("inf")])
    def test_non_numeric_tail_source_exits_1(self, workspace, tmp_path, capsys, value):
        doc = json.loads((workspace / "t2.template.json").read_text())
        doc["provenance"]["tail_source_max"] = value
        bad = tmp_path / "bad.template.json"
        bad.write_text(json.dumps(doc))
        assert run(["harmonize", "--template", str(bad), "--in", str(workspace / "raw"),
                    "--out", str(tmp_path / "out"), "--best-effort"]) == 1
        err = capsys.readouterr().err
        assert "tail_source_max" in err
        assert "Traceback" not in err

    def test_negative_template_sample_count_exits_1(self, workspace, tmp_path, capsys):
        doc = json.loads((workspace / "t2.template.json").read_text())
        doc["cdf"]["n_samples"] = -1
        bad = tmp_path / "bad.template.json"
        bad.write_text(json.dumps(doc))
        assert run(["harmonize", "--template", str(bad), "--in", str(workspace / "raw"),
                    "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "bad.template.json" in err and "n_samples must be at least 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_crossed_tails_in_a_lut_exit_1(self, workspace, tmp_path, capsys):
        run(["harmonize", "--template", str(workspace / "t2.template.json"),
             "--in", str(workspace / "raw"), "--out", str(tmp_path / "out")])
        doc = json.loads(next((tmp_path / "out").glob("*.lut.json")).read_text())
        # both tails on, each valid alone, the bottom one starting above the top
        doc["tails"].update(v_T=3300.0, v_max=5418.0, v_clipT=4095.0, v_B=3400.0,
                            v_min=5.0, v_clipB=1.0, enabled_top=True, enabled_bottom=True)
        bad = tmp_path / "crossed.lut.json"
        bad.write_text(json.dumps(doc))
        assert run(["inspect", "--lut", str(bad), "--out", str(tmp_path / "m.csv")]) == 1
        err = capsys.readouterr().err
        assert "v_B < v_T" in err and "crossed.lut.json" in err
        assert "Traceback" not in err

    def test_non_finite_lut_field_exits_1(self, workspace, tmp_path, capsys):
        run(["harmonize", "--template", str(workspace / "t2.template.json"),
             "--in", str(workspace / "raw"), "--out", str(tmp_path / "out")])
        doc = json.loads(next((tmp_path / "out").glob("*.lut.json")).read_text())
        doc["params"]["sigma_B"] = float("nan")  # written as NaN, which json reads
        bad = tmp_path / "nan.lut.json"
        bad.write_text(json.dumps(doc))
        assert run(["inspect", "--lut", str(bad), "--out", str(tmp_path / "m.csv")]) == 1
        err = capsys.readouterr().err
        assert "nan.lut.json" in err and "finite" in err
        assert "Traceback" not in err


class TestConfigPrecedence:
    @pytest.mark.parametrize("key, value", [("loss", "huber_quantile"),
                                            ("huber_delta", 0.05),
                                            ("max_iters", 500), ("tol", 1e-6)])
    def test_removed_fit_keys_are_usage_errors(self, workspace, tmp_path, capsys,
                                               key, value):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"fit": {key: value}}))
        out_dir = tmp_path / "out"
        assert run(["harmonize", "--template", str(workspace / "t2.template.json"),
                    "--in", str(workspace / "raw"), "--out", str(out_dir),
                    "--config", str(cfg)]) == 64
        err = capsys.readouterr().err
        assert "malformed config file" in err and key in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("config, field", [
        ({"clip": [5]}, "clip"),
        ({"clip": "1:4095"}, "clip"),
        ({"clip": [1, "x"]}, "clip"),
        ({"clip": [1.0, 4095.0, 5000.0]}, "clip"),
        ({"fit": {"sigma_bounds": [1]}}, "sigma_bounds"),
        ({"fit": {"sigma_bounds": [0.05, 20.0, 30.0]}}, "sigma_bounds"),
        ({"fit": {"sigma_bounds": [0.0, 20.0]}}, "sigma_bounds"),
        ({"fit": {"sigma_bounds": [-1.0, 20.0]}}, "sigma_bounds"),
        ({"fit": {"percentile_grid": [0.1, None, 0.9]}}, "percentile_grid"),
        ({"grid_size": 2.9}, "grid_size"),
        ({"workers": True}, "workers"),
        ({"log_level": "verbose"}, "log_level"),
    ], ids=["clip-one-number", "clip-string", "clip-not-a-number", "clip-three-numbers",
            "sigma-bounds-one-number", "sigma-bounds-three-numbers", "sigma-bounds-lo-zero",
            "sigma-bounds-lo-negative", "grid-null-point",
            "grid-size-fraction", "workers-bool", "log-level-unknown"])
    def test_malformed_config_value_exits_64_naming_it(self, workspace, tmp_path, capsys,
                                                       config, field):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "t.json"
        assert run(["template", "build", "--channel", "T2", "--out", str(out),
                    "--config", str(cfg), str(workspace / "raw" / "vol0.raw")]) == 64
        err = capsys.readouterr().err
        assert "malformed config file" in err and field in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_ratio_cap_above_rho_star_is_usage_error(self, workspace, tmp_path, capsys):
        # past rho* = 8.7577 the dual scaling descends, so no fit may return it
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"fit": {"ratio_cap": 20.0}}))
        out = tmp_path / "t.json"
        assert run(["template", "build", "--channel", "T2", "--out", str(out),
                    "--config", str(cfg), str(workspace / "raw" / "vol0.raw")]) == 64
        err = capsys.readouterr().err
        assert "rho* = 8.7577" in err and "ratio_cap" in err
        assert not out.exists()

    def test_flags_beat_file_beats_defaults(self, workspace, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"grid_size": 512}))
        vol = str(workspace / "raw" / "vol0.raw")

        default_csv = tmp_path / "d.csv"
        run(["inspect", "--cdf", vol, "--out", str(default_csv)])
        assert len(default_csv.read_text().splitlines()) == 1 + 1024

        file_csv = tmp_path / "f.csv"
        run(["inspect", "--cdf", vol, "--out", str(file_csv),
             "--config", str(cfg)])
        assert len(file_csv.read_text().splitlines()) == 1 + 512

        flag_csv = tmp_path / "g.csv"
        run(["inspect", "--cdf", vol, "--out", str(flag_csv),
             "--config", str(cfg), "--grid-size", "128"])
        assert len(flag_csv.read_text().splitlines()) == 1 + 128

    def test_config_controls_flow_into_template_build(self, workspace, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "controls": {"pi_B": [0.1, 200.0], "pi_M": [0.5, 500.0],
                         "pi_T": [0.99, 900.0]},
            "clip": [1.0, 1023.0]}))
        out = tmp_path / "small.template.json"
        inputs = [str(p) for p in sorted((workspace / "raw").glob("*.raw"))]
        code = run(["template", "build", "--channel", "T2", "--config", str(cfg),
                    "--out", str(out)] + inputs)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["controls"]["pi_M"] == [0.5, 500.0]
        assert doc["clip"] == [1.0, 1023.0]

    def test_clip_flag_beats_config_file(self, workspace, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "controls": {"pi_B": [0.1, 200.0], "pi_M": [0.5, 500.0],
                         "pi_T": [0.99, 900.0]},
            "clip": [1.0, 1023.0]}))
        out = tmp_path / "t.template.json"
        inputs = [str(p) for p in sorted((workspace / "raw").glob("*.raw"))]
        code = run(["template", "build", "--config", str(cfg), "--clip", "1:1300",
                    "--out", str(out)] + inputs)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["controls"]["pi_M"] == [0.5, 500.0]
        assert doc["clip"] == [1.0, 1300.0]

    @pytest.mark.parametrize("clip", ["nonsense", "1:inf", "4095:1"])
    def test_bad_clip_flag(self, workspace, tmp_path, capsys, clip):
        inputs = [str(p) for p in sorted((workspace / "raw").glob("*.raw"))]
        assert run(["template", "build", "--clip", clip,
                    "--out", str(tmp_path / "t.json")] + inputs) == 64
        assert "clip must look like" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--clip", "0:2000"],
                                      ["--clip", "600:4095"]], ids=["top", "bottom"])
    def test_clip_without_room_exits_64_before_reading_a_volume(self, tmp_path, capsys,
                                                                 args):
        # the volume does not exist: reading it first would exit 1, not 64
        out = tmp_path / "t.json"
        assert run(["template", "build", "--out", str(out), *args,
                    str(tmp_path / "absent.raw")]) == 64
        assert "must leave room outside the control intensities" in capsys.readouterr().err
        assert not out.exists()

    def test_config_clip_without_room_exits_64(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"clip": [1.0, 1023.0]}))  # the default t_T is 3300
        assert run(["template", "build", "--config", str(cfg), "--out",
                    str(tmp_path / "t.json"), str(tmp_path / "absent.raw")]) == 64
        err = capsys.readouterr().err
        assert "malformed config file" in err and "must leave room" in err
