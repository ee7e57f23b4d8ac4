"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from cdfmatch import Volume, cli, generate_synthetic, read_volume, write_volume
from cdfmatch.cli import run

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
            write_volume(vol.with_voxels(voxels), path, dtype="u16")
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
                      "--out", str(out_dir)])
        assert strict == 1
        code = run(["harmonize", "--template", tpl, "--in", str(raw),
                    "--out", str(out_dir), "--report", str(report),
                    "--best-effort"])
        assert code == 2
        doc = json.loads(report.read_text())
        assert len(doc["items"]) == 1
        assert len(doc["failures"]) == 1
        assert doc["failures"][0]["input"] == "bad.raw"

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
                    "stretch,zscore,cdf", "--out", str(out)])
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
        assert "no foreground" in err
        assert "Traceback" not in err

    def test_unknown_method(self, workspace, tmp_path):
        assert run(["eval", "--template", str(workspace / "t2.template.json"),
                    "--in", str(workspace / "raw"), "--methods", "magic",
                    "--out", str(tmp_path / "m.csv")]) == 64


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
    ], ids=["template-workers", "inspect-workers", "eval-workers", "synth-workers",
            "synth-grid-size", "synth-config", "harmonize-workers"])
    def test_flag_accepted_only_by_commands_that_read_it(self, workspace, tmp_path,
                                                         command, code):
        (tmp_path / "spec.json").write_text(json.dumps(synth_spec_doc(7)))
        (tmp_path / "config.json").write_text(json.dumps({"grid_size": 64}))
        names = {"raw": workspace / "raw", "template": workspace / "t2.template.json",
                 "tmp": tmp_path}
        assert run([arg.format(**names) for arg in command]) == code


class TestMalformedFiles:
    @pytest.mark.parametrize("kind", ["template-without-cdf", "template-decreasing-xs",
                                      "lut-without-sigma"])
    def test_malformed_json_exits_1_naming_the_file(self, workspace, tmp_path, capsys,
                                                     kind):
        bad = tmp_path / "bad.json"
        if kind == "lut-without-sigma":
            bad.write_text(json.dumps({"version": 1, "params": {}}))
            command = ["inspect", "--lut", str(bad), "--out", str(tmp_path / "m.csv")]
        else:
            doc = json.loads((workspace / "t2.template.json").read_text())
            if kind == "template-without-cdf":
                del doc["cdf"]
            else:
                doc["cdf"] = {"xs": [2, 1], "ps": [0.5, 1.0]}
            bad.write_text(json.dumps(doc))
            command = ["harmonize", "--template", str(bad), "--in", str(workspace / "raw"),
                       "--out", str(tmp_path / "out")]
        assert run(command) == 1
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [[15631.1], "15631.1", True])
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
        assert "v_B < v_T" in err
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

    def test_controls_flag_beats_config_file(self, workspace, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "controls": {"pi_B": [0.1, 200.0], "pi_M": [0.5, 500.0],
                         "pi_T": [0.99, 900.0]}}))
        controls = tmp_path / "controls.json"
        controls.write_text(json.dumps({"pi_B": [0.1, 300.0],
                                        "pi_M": [0.5, 600.0],
                                        "pi_T": [0.99, 1000.0]}))
        out = tmp_path / "t.template.json"
        inputs = [str(p) for p in sorted((workspace / "raw").glob("*.raw"))]
        code = run(["template", "build", "--config", str(cfg),
                    "--controls", str(controls), "--clip", "1:1300",
                    "--out", str(out)] + inputs)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["controls"]["pi_M"] == [0.5, 600.0]
        assert doc["clip"] == [1.0, 1300.0]

    def test_bad_clip_flag(self, workspace, tmp_path):
        inputs = [str(p) for p in sorted((workspace / "raw").glob("*.raw"))]
        assert run(["template", "build", "--clip", "nonsense",
                    "--out", str(tmp_path / "t.json")] + inputs) == 64
