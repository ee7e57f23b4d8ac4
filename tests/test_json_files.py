"""One reader for every JSON file, and records that take exactly their keys.

Every JSON file the program reads (a config, template, LUT, synthetic-spec
or volume-header file) goes through ``io.read_json``: a file that cannot be
read, is not valid JSON or holds no JSON object is refused with that
reader's error, naming the file.  Each record's ``from_dict`` is the
inverse of its ``to_dict``: it takes the keys ``to_dict`` writes, and an
unknown key is refused, naming the key, also in a template's provenance.
"""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdfmatch import (ControlPoints, DualScaleParams, EmpiricalCdf, FitConfig,
                      IntensityLut, LesionSpec, MixtureComponent, PivotTriple,
                      ScannerEffect, SynthSpec, TailSpec, TemplateCdf, Volume,
                      load_lut, read_volume, save_lut, write_volume)
from cdfmatch.cli import LOG_LEVELS, AppConfig, run
from cdfmatch.errors import BadSpec, HeaderMismatch, IoError, SchemaMismatch
from cdfmatch.template import Provenance, load_template, save_template
from cdfmatch.transform import MONOTONE_RATIO

from conftest import T2_COMPONENTS, scanner_cohort, volume_from_values

SPEC = {"components": [c.to_dict() for c in T2_COMPONENTS], "dims": [8, 8, 8],
        "channel": "T2", "seed": 3}


def _lut() -> IntensityLut:
    params = DualScaleParams(2.0, 0.5, 1650.0, PivotTriple(500.0, 1650.0, 3300.0))
    tails = TailSpec(v_T=3300.0, v_max=5418.0, v_clipT=4095.0, enabled_top=True)
    return IntensityLut(params, tails, (0.0, 6000.0), hard_clamp=(1.0, 4095.0))


@pytest.fixture(scope="module")
def files(tmp_path_factory, template_12bit):
    """A valid file of each kind, and three volumes to build templates from."""
    root = tmp_path_factory.mktemp("json")
    for i, vol in enumerate(scanner_cohort(3, dims=(16, 16, 16))):
        write_volume(vol, root / f"vol{i}.raw")
    save_template(template_12bit, root / "t.template.json")
    save_lut(_lut(), root / "m.lut.json")
    (root / "config.json").write_text(json.dumps({"grid_size": 256}))
    (root / "spec.json").write_text(json.dumps(SPEC))
    return root


def _template_build(path, files):
    return run(["template", "build", "--channel", "T2", "--config", str(path),
                "--out", str(path.parent / "out.template.json"), str(files / "vol0.raw")])


def _synth(path, files):
    return run(["synth", "--spec", str(path), "--out", str(path.parent / "out.raw")])


def _header(path, files):
    # the volume's payload sits beside its header, which is the file edited
    return read_volume(str(path)[:-len(".json")])


# each file kind: a valid file, how to read one, and what refuses a file
# that cannot be read, that is not a JSON object, and that holds an unknown key
READERS = {
    "header": ("vol0.raw.json", _header, (IoError, HeaderMismatch, HeaderMismatch)),
    "lut": ("m.lut.json", lambda path, files: load_lut(path),
            (IoError, SchemaMismatch, SchemaMismatch)),
    "template": ("t.template.json", lambda path, files: load_template(path),
                 (IoError, SchemaMismatch, SchemaMismatch)),
    "config": ("config.json", _template_build, (64, 64, 64)),
    "spec": ("spec.json", _synth, (64, 64, 1)),  # a bad field is BadSpec, exit 1
}
CASES = {"missing": 0, "invalid-json": 1, "json-list": 1, "unknown-key": 2}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", READERS)
def test_every_reader_refuses_a_bad_file_naming_it(tmp_path, files, capsys, kind, case):
    name, read, refusals = READERS[kind]
    path = tmp_path / name
    if kind == "header":
        (tmp_path / "vol0.raw").write_bytes((files / "vol0.raw").read_bytes())
    if case == "invalid-json":
        path.write_text("{broken")
    elif case == "json-list":
        path.write_text("[1, 2]")
    elif case == "unknown-key":
        doc = json.loads((files / name).read_text())
        path.write_text(json.dumps({**doc, "bogus": 1}))
    refusal = refusals[CASES[case]]
    named = "bogus" if case == "unknown-key" else str(path)
    if isinstance(refusal, int):
        assert read(path, files) == refusal
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
    else:
        with pytest.raises(refusal, match=re.escape(named)):
            read(path, files)


# ---------------------------------------------------------------------------
# every record is the inverse of its to_dict


def _same(a, b) -> bool:
    """Field-by-field equality of records, arrays compared element by element."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _increasing(n, lo, hi):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n, unique=True).map(sorted)


_spans = st.floats(1.0, 1e4)
_controls = st.builds(lambda ps, ts: ControlPoints(*zip(ps, ts)),
                      _increasing(3, 0.001, 0.999), _increasing(3, -1e4, 1e4))
_pivots = _increasing(3, -1e4, 1e4).map(lambda v: PivotTriple(*v))
_params = st.builds(DualScaleParams, st.floats(0.5, 4.0), st.floats(0.5, 4.0),
                    st.floats(-1e4, 1e4), _pivots)
_tails = st.builds(lambda b, t, spans, top, bottom: TailSpec(
    v_T=t, v_max=t + spans[0], v_clipT=t + spans[1], v_B=b, v_min=b - spans[2],
    v_clipB=b - spans[3], enabled_top=top, enabled_bottom=bottom),
    st.floats(-1e4, 0.0), st.floats(1.0, 1e4), st.lists(_spans, min_size=4, max_size=4),
    st.booleans(), st.booleans())
_intervals = _increasing(2, -1e6, 1e6).map(tuple)
_luts = st.builds(IntensityLut, _params, _tails, _intervals, st.none() | _intervals)
_fit_configs = st.builds(
    FitConfig, st.lists(st.floats(0.001, 0.999), min_size=3, max_size=12,
                        unique=True).map(sorted),
    _increasing(2, 0.01, 100.0).map(tuple), st.floats(1.001, MONOTONE_RATIO))


@st.composite
def _templates(draw):
    controls = draw(_controls)
    below, above = draw(_spans), draw(_spans)
    xs = [controls.t_B - below, controls.t_B, controls.t_M, controls.t_T,
          controls.t_T + above]
    cdf = EmpiricalCdf(xs, [0.0, controls.p_B, controls.p_M, controls.p_T, 1.0],
                       n_samples=draw(st.integers(0, 10 ** 6)))
    clip = draw(st.none() | st.just((xs[0] - 1.0, xs[-1] + 1.0)))
    provenance = Provenance(cohort_size=draw(st.integers(1, 50)),
                            tail_source_max=draw(st.none() | st.floats(-1e4, 1e4)))
    return TemplateCdf(cdf, controls, clip, draw(st.text(max_size=8)), provenance)


_components = st.builds(lambda w, kinds, locs, scales: tuple(
    MixtureComponent(kind, weight, loc, scale)
    for kind, weight, loc, scale in zip(kinds, (w, 1.0 - w), locs, scales)),
    st.floats(0.1, 0.9), st.lists(st.sampled_from(["gaussian", "lognormal"]), min_size=2,
                                  max_size=2),
    st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
    st.lists(st.floats(0.1, 3.0), min_size=2, max_size=2))
_specs = st.builds(
    SynthSpec, _components, st.tuples(*[st.integers(1, 64)] * 3),
    st.builds(ScannerEffect, st.floats(0.1, 3.0), st.floats(-100.0, 100.0),
              st.floats(0.5, 2.0), st.floats(0.1, 3.0)),
    st.builds(LesionSpec, st.integers(0, 5), st.floats(0.5, 4.0), st.floats(0.0, 0.5)),
    st.floats(0.0, 0.9), st.text(max_size=8), st.integers(0, 2 ** 32))
# the clip range leaves room outside the control intensities
_app_configs = st.builds(
    lambda controls, room, *rest: AppConfig(
        controls, room and (controls.t_B - room[0], controls.t_T + room[1]), *rest),
    _controls, st.none() | st.tuples(_spans, _spans), st.integers(2, 4096), _fit_configs,
    st.integers(1, 16), st.sampled_from(LOG_LEVELS))

RECORDS = {"ControlPoints": _controls, "PivotTriple": _pivots, "DualScaleParams": _params,
           "TailSpec": _tails, "IntensityLut": _luts, "FitConfig": _fit_configs,
           "TemplateCdf": _templates(), "SynthSpec": _specs, "AppConfig": _app_configs}


def _blocks(doc, path=()):
    """Path to each JSON object in ``doc`` that is read key by key: the
    document, its nested objects (a template's provenance among them) and
    the objects in its lists."""
    if isinstance(doc, dict):
        yield path
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _blocks(value, path + (key,))


@pytest.mark.parametrize("name", RECORDS)
@given(data=st.data())
def test_from_dict_inverts_to_dict_and_refuses_any_other_key(name, data):
    record = data.draw(RECORDS[name])
    doc = json.loads(json.dumps(record.to_dict()))  # what a file holds
    assert _same(type(record).from_dict(doc), record)
    for path in _blocks(doc):
        edited = json.loads(json.dumps(doc))
        target = edited
        for key in path:
            target = target[key]
        target["bogus"] = 1
        with pytest.raises((TypeError, BadSpec, SchemaMismatch), match="bogus"):
            type(record).from_dict(edited)


# ---------------------------------------------------------------------------
# the cases that once loaded silently


def test_misspelled_config_keys_exit_64(files, tmp_path, capsys):
    config = tmp_path / "app.json"
    config.write_text(json.dumps({"grid_sise": 1, "wrokers": 0, "bogus": True}))
    out = tmp_path / "t.json"
    assert run(["template", "build", "--config", str(config), "--out", str(out)]
               + [str(files / f"vol{i}.raw") for i in range(3)]) == 64
    err = capsys.readouterr().err
    assert "malformed config file" in err and "grid_sise" in err
    assert not out.exists()


def test_misspelled_spec_keys_exit_1(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, "lesion": {"count": 2, "boost": 2.0,
                                                   "volume_fraction": 0.05},
                                "seeed": 4}))
    out = tmp_path / "x.raw"
    assert run(["synth", "--spec", str(spec), "--out", str(out)]) == 1
    assert "lesion" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit", [{"version": 1.0}, {"extra": 1}, {"version": True}],
                         ids=["version-float", "extra-key", "version-true"])
def test_template_refuses_a_float_version_or_extra_key(files, tmp_path, edit):
    doc = json.loads((files / "t.template.json").read_text())
    path = tmp_path / "t.template.json"
    path.write_text(json.dumps({**doc, **edit}))
    with pytest.raises(SchemaMismatch, match=re.escape(str(path))):
        load_template(path)


@pytest.mark.parametrize("version", [True, 1.0, "1", None])
def test_lut_refuses_a_version_that_is_no_integer(files, tmp_path, version):
    doc = json.loads((files / "m.lut.json").read_text())
    path = tmp_path / "m.lut.json"
    path.write_text(json.dumps({**doc, "version": version}))
    with pytest.raises(SchemaMismatch, match="version"):
        load_lut(path)


@pytest.mark.parametrize("version", [True, 1.0])
def test_config_refuses_a_version_that_is_no_integer(files, tmp_path, capsys, version):
    config = tmp_path / "app.json"
    config.write_text(json.dumps({"version": version}))
    assert run(["template", "build", "--config", str(config),
                "--out", str(tmp_path / "t.json"), str(files / "vol0.raw")]) == 64
    assert "version must be an integer" in capsys.readouterr().err


def test_version_2_keeps_each_unsupported_message(files, tmp_path, capsys):
    config = tmp_path / "app.json"
    config.write_text(json.dumps({"version": 2}))
    assert run(["template", "build", "--config", str(config),
                "--out", str(tmp_path / "t.json"), str(files / "vol0.raw")]) == 64
    assert "unsupported config schema version 2" in capsys.readouterr().err
    lut = tmp_path / "m.lut.json"
    lut.write_text(json.dumps({**json.loads((files / "m.lut.json").read_text()),
                               "version": 2}))
    with pytest.raises(SchemaMismatch, match="unsupported LUT schema"):
        load_lut(lut)
    template = tmp_path / "t.template.json"
    template.write_text(json.dumps({**json.loads((files / "t.template.json").read_text()),
                                    "version": 2}))
    with pytest.raises(SchemaMismatch, match="expected template schema 1, got 2"):
        load_template(template)


def test_a_spec_channel_that_is_no_string_writes_no_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, "channel": 5}))
    out = tmp_path / "x.raw"
    assert run(["synth", "--spec", str(spec), "--out", str(out)]) == 1
    assert "channel must be a string" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "x.raw.json").exists()
    with pytest.raises(BadSpec, match="channel"):
        SynthSpec.from_dict({**SPEC, "channel": None})


@pytest.mark.parametrize("kwargs", [{"channel": 5}, {"channel": None},
                                    {"voxels": ["1", "2"]}, {"voxels": [True, False]},
                                    {"voxels": np.array([1, 0], dtype=bool)},
                                    {"voxels": [None, 1.0]}],
                         ids=["channel-int", "channel-none", "voxel-strings",
                              "voxel-bools", "voxel-bool-array", "voxel-none"])
def test_volume_refuses_a_channel_or_voxels_of_the_wrong_kind(kwargs):
    args = {"dims": (2, 1, 1), "voxels": [1.0, 2.0], **kwargs}
    with pytest.raises(ValueError):
        Volume(**args)


@pytest.mark.parametrize("voxels", [
    [1, 2], [1.5, -2.25], np.array([7, 65535], dtype=np.uint16),
    np.array([-3, 300], dtype=np.int16), np.array([0.1, 3e38], dtype=np.float32),
    np.array([2 ** 53 + 1, -1], dtype=np.int64), np.array([0.1, 1e-310]),
])
def test_numeric_voxels_are_stored_as_float64_bit_for_bit(voxels):
    expected = np.array(voxels, dtype=np.float64)
    vol = Volume((2, 1, 1), voxels)
    assert vol.voxels.dtype == np.float64
    assert vol.voxels.tobytes() == expected.tobytes()


def test_a_report_config_echo_rebuilds_the_same_template(files, tmp_path):
    inputs = [str(files / f"vol{i}.raw") for i in range(3)]
    first = tmp_path / "first.template.json"
    assert run(["template", "build", "--channel", "T2", "--grid-size", "256",
                "--out", str(first)] + inputs) == 0
    report = tmp_path / "report.json"
    assert run(["harmonize", "--template", str(first), "--in", inputs[0],
                "--out", str(tmp_path / "out"), "--grid-size", "256",
                "--report", str(report)]) == 0
    config = tmp_path / "echo.json"
    config.write_text(json.dumps(json.loads(report.read_text())["config"]))
    again = tmp_path / "again.template.json"
    assert run(["template", "build", "--channel", "T2", "--config", str(config),
                "--out", str(again)] + inputs) == 0
    assert again.read_bytes() == first.read_bytes()


def test_a_volume_header_holds_exactly_the_keys_written(files, tmp_path):
    write_volume(volume_from_values([1.0, 2.0], channel="T2"), tmp_path / "v.raw")
    header = json.loads((tmp_path / "v.raw.json").read_text())
    assert sorted(header) == ["background_value", "channel", "dims", "dtype", "endianness"]
    for optional in ("channel", "background_value"):
        doc = {key: value for key, value in header.items() if key != optional}
        (tmp_path / "v.raw.json").write_text(json.dumps(doc))
        read_volume(tmp_path / "v.raw")


def test_template_provenance_refuses_an_unknown_key(files, tmp_path):
    doc = json.loads((files / "t.template.json").read_text())
    path = tmp_path / "t.template.json"
    for key in ("tail_source_mx", "bogus"):
        path.write_text(json.dumps({**doc, "provenance": {**doc["provenance"], key: 1.0}}))
        with pytest.raises(SchemaMismatch, match=key):
            load_template(path)


def test_numpy_numbers_become_plain_json_numbers():
    doc = json.loads(json.dumps(AppConfig(grid_size=np.int64(64),
                                          workers=np.int64(2)).to_dict()))
    assert (doc["grid_size"], doc["workers"]) == (64, 2)
    components = (MixtureComponent("gaussian", np.float32(0.5), np.float64(1.0), 2),
                  MixtureComponent("lognormal", 0.5, np.float32(1.5), np.float32(0.25)))
    spec = SynthSpec(components, dims=np.array([2, 3, 4]), seed=np.uint8(7),
                     lesions=LesionSpec(np.int64(1), np.float32(2.0), 0.125))
    doc = json.loads(json.dumps(spec.to_dict()))
    assert doc["components"][0] == {"kind": "gaussian", "weight": 0.5, "loc": 1.0,
                                    "scale": 2.0}
    assert doc["components"][1]["scale"] == 0.25
    assert (doc["dims"], doc["seed"], doc["lesions"]["count"]) == ([2, 3, 4], 7, 1)
    numbers = [c[k] for c in doc["components"] for k in ("weight", "loc", "scale")]
    assert all(type(v) is float for v in numbers)
    assert type(doc["seed"]) is int and all(type(d) is int for d in doc["dims"])


@pytest.mark.parametrize("voxels", [[1, True], (2.0, False), [[1, 2], [3, np.True_]]],
                         ids=["list", "tuple", "nested"])
def test_volume_refuses_a_bool_inside_a_list_or_tuple(voxels):
    with pytest.raises(ValueError, match="bool"):
        Volume((np.size(voxels), 1, 1), voxels)
