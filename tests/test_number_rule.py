"""One number rule at every reader.

A number in a config (its control points too), template, LUT,
synthetic-spec or volume header file is an int or a float that a float
holds finitely: a string, a bool, NaN, +/-Infinity or an integer past the
float range is refused, each reader with its own error type or exit code.
A count is an integer at least its floor, and one rule says so for all.
A valid file of each kind loads to a record that holds exactly what the
file says.
"""

import copy
import json
import math

import numpy as np
import pytest

from cdfmatch import (DualScaleParams, EmpiricalCdf, PivotTriple, SynthSpec, TailSpec,
                      Volume, compose_lut, load_lut, read_volume, save_lut, write_lut_csv,
                      write_volume)
from cdfmatch.cdf import whole_number
from cdfmatch.cli import _resolve_config, build_parser, run
from cdfmatch.errors import BadSpec, HeaderMismatch, SchemaMismatch
from cdfmatch.template import load_template, save_template

from conftest import T2_COMPONENTS, volume_from_values

# what json reads where a number belongs and none of which is one
NOT_NUMBERS = {"string": "5", "true": True, "nan": math.nan, "infinity": math.inf,
               "1e400": 10 ** 400}

CONTROLS = {"pi_B": [0.1, 500.0], "pi_M": [0.5, 1650.0], "pi_T": [0.99, 3300.0]}
CONFIG = {"controls": CONTROLS, "clip": [1.0, 4095.0], "grid_size": 512,
          "fit": {"percentile_grid": [0.1, 0.25, 0.5, 0.75, 0.9],
                  "sigma_bounds": [0.05, 20.0], "ratio_cap": 4.0},
          "workers": 2, "log_level": "info"}
SPEC = {"components": [c.to_dict() for c in T2_COMPONENTS], "dims": [8, 8, 8],
        "scanner": {"gain": 1.3, "offset": 10.0, "gamma": 0.95, "tail_weight": 1.2},
        "lesions": {"count": 2, "boost": 2.5, "volume_fraction": 0.03},
        "background_fraction": 0.1, "channel": "T2", "seed": 7}


def _lut_doc() -> dict:
    params = DualScaleParams(2.0, 0.5, 1650.0, PivotTriple(500.0, 1650.0, 3300.0))
    tails = TailSpec(v_T=3300.0, v_max=5418.0, v_clipT=4095.0, enabled_top=True)
    return {"version": 1, **compose_lut(params, tails, (0.0, 6000.0),
                                        clip=(1.0, 4095.0)).to_dict()}


def _edited(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _as_json(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def _template_build(tmp_path, doc: dict) -> int:
    """Exit code of ``template build`` given a config file, which is read
    before any volume, so the cohort need not exist."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    return run(["template", "build", "--channel", "T2", "--out", str(tmp_path / "t.json"),
                "--config", str(path), str(tmp_path / "absent.raw")])


def _load_json(tmp_path, reader, doc: dict):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    return reader(path)


def _read_header(tmp_path, header: dict):
    path = tmp_path / "vol.raw"
    write_volume(volume_from_values([1.0, 2.0, 3.0, 4.0], channel="T2"), path, dtype="f32")
    (tmp_path / "vol.raw.json").write_text(json.dumps(header))
    return read_volume(path)


@pytest.fixture(scope="module")
def valid_docs(template_12bit):
    """A valid document of each file kind, by the kind's name."""
    header = {"dims": [4, 1, 1], "dtype": "f32", "channel": "T2",
              "background_value": 0.5, "endianness": "little"}
    return {"config": CONFIG, "controls": CONTROLS, "template": template_12bit.to_dict(),
            "lut": _lut_doc(), "spec": SPEC, "header": header}


# each file kind: how its reader runs on a document and what it refuses with
READERS = {
    "config": (_template_build, 64),
    # the control points, read from a config file's "controls" key
    "controls": (lambda tmp, doc: _template_build(tmp, {"controls": doc}), 64),
    "template": (lambda tmp, doc: _load_json(tmp, load_template, doc), SchemaMismatch),
    "lut": (lambda tmp, doc: _load_json(tmp, load_lut, doc), SchemaMismatch),
    "spec": (lambda tmp, doc: SynthSpec.from_dict(doc), BadSpec),
    "header": (_read_header, HeaderMismatch),
}

FIELDS = [
    ("config", ("grid_size",)),
    ("config", ("fit", "percentile_grid", 2)),
    ("config", ("fit", "ratio_cap")),
    ("config", ("fit", "sigma_bounds", 1)),
    ("config", ("controls", "pi_B", 0)),
    ("config", ("workers",)),
    ("controls", ("pi_M", 1)),
    ("template", ("cdf", "xs", 5)),
    ("template", ("cdf", "ps", 5)),
    ("template", ("cdf", "n_samples")),
    ("template", ("controls", "pi_T", 0)),
    ("template", ("provenance", "tail_source_max")),
    ("template", ("clip", 0)),
    ("lut", ("params", "sigma_B")),
    ("lut", ("params", "pivots", "v_M")),
    ("lut", ("tails", "v_T")),
    ("lut", ("domain", 0)),
    ("lut", ("hard_clamp", 1)),
    ("spec", ("components", 0, "loc")),
    ("spec", ("scanner", "gain")),
    ("spec", ("lesions", "count")),
    ("spec", ("lesions", "volume_fraction")),
    ("spec", ("background_fraction",)),
    ("spec", ("dims", 0)),
    ("spec", ("seed",)),
    ("header", ("dims", 0)),
    ("header", ("background_value",)),
]


def _refuses(tmp_path, kind: str, doc: dict) -> None:
    read, refusal = READERS[kind]
    if isinstance(refusal, int):
        assert read(tmp_path, doc) == refusal
    else:
        with pytest.raises(refusal):
            read(tmp_path, doc)


@pytest.mark.parametrize("value", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
@pytest.mark.parametrize("kind, path", FIELDS,
                         ids=[f"{kind}-{'.'.join(map(str, path))}" for kind, path in FIELDS])
def test_every_reader_refuses_what_is_no_number(tmp_path, valid_docs, kind, path, value):
    _refuses(tmp_path, kind, _edited(valid_docs[kind], path, value))


@pytest.mark.parametrize("kind, path, value", [
    ("controls", ("pi_T",), [True, 3300]),
    ("config", ("controls", "pi_T"), [True, 3300]),
    ("template", ("controls", "pi_T"), [True, 3300]),
    ("controls", ("pi_B",), ["0.1", "500"]),
    ("controls", ("pi_B",), [0.1, 500.0, 7.0]),
    ("controls", ("pi_B",), 0.1),
    ("template", ("cdf", "n_samples"), "7"),
    ("template", ("cdf", "n_samples"), 7.5),
    ("template", ("channel",), 5),
    ("template", ("channel",), None),
    ("lut", ("params", "sigma_B"), "1.0"),
    ("lut", ("params", "pivots", "v_M"), True),
    ("config", ("fit", "percentile_grid"), ["0.1", "0.5", "0.9"]),
    ("config", ("grid_size",), 512.0),
    ("spec", ("dims",), [8.0, 8, 8]),
    ("header", ("dims",), [4.0, 1, 1]),
])
def test_coercions_that_once_loaded_are_refused(tmp_path, valid_docs, kind, path, value):
    _refuses(tmp_path, kind, _edited(valid_docs[kind], path, value))


@pytest.mark.parametrize("field, value", [("xs", "strings"), ("ps", "strings"),
                                          ("xs", "bools")])
def test_a_template_curve_of_strings_or_bools_is_refused(tmp_path, valid_docs, field, value):
    doc = copy.deepcopy(valid_docs["template"])
    knots = doc["cdf"][field]
    doc["cdf"][field] = ([str(v) for v in knots] if value == "strings"
                         else [v > knots[0] for v in knots])
    _refuses(tmp_path, "template", doc)


# each count a file holds, one below its floor
BELOW_FLOOR = [
    ("config", ("grid_size",), 1),
    ("config", ("workers",), 0),
    ("template", ("cdf", "n_samples"), -1),
    ("template", ("provenance", "cohort_size"), 0),
    ("spec", ("lesions", "count"), -1),
    ("spec", ("seed",), -1),
    ("spec", ("dims", 1), 0),
    ("header", ("dims", 1), 0),
]


@pytest.mark.parametrize("kind, path, value", BELOW_FLOOR,
                         ids=[f"{kind}-{'.'.join(map(str, path))}"
                              for kind, path, _ in BELOW_FLOOR])
def test_every_reader_refuses_a_count_below_its_floor(tmp_path, valid_docs, capsys,
                                                      kind, path, value):
    read, refusal = READERS[kind]
    doc = _edited(valid_docs[kind], path, value)
    if isinstance(refusal, int):
        assert read(tmp_path, doc) == refusal
        message = capsys.readouterr().err
    else:
        with pytest.raises(refusal) as caught:
            read(tmp_path, doc)
        message = str(caught.value)
    name = [key for key in path if isinstance(key, str)][-1]  # a list entry: its list's name
    assert f"{name} must be at least {value + 1}, got {value}" in message


def test_whole_number_decides_the_floor():
    assert whole_number(np.int64(2), "k", least=2) == 2
    assert type(whole_number(np.int64(2), "k", least=2)) is int
    assert whole_number(-5, "k") == -5  # no floor unless one is given
    with pytest.raises(BadSpec, match=r"^k must be at least 2, got 1$"):
        whole_number(np.int64(1), "k", BadSpec, least=2)
    with pytest.raises(ValueError, match="k must be an integer"):
        whole_number(3.0, "k", least=2)  # the integer check comes first


def test_a_curve_with_a_negative_sample_count_is_refused():
    assert EmpiricalCdf([1.0, 2.0], [0.5, 1.0], n_samples=0).n_samples == 0
    with pytest.raises(ValueError, match="n_samples must be at least 0, got -1"):
        EmpiricalCdf([1.0, 2.0], [0.5, 1.0], n_samples=-1)


@pytest.mark.parametrize("points, message", [(3.0, "points must be an integer"),
                                             (True, "points must be an integer"),
                                             (1, "points must be at least 2, got 1")])
def test_a_lut_sample_count_follows_the_count_rule(tmp_path, valid_docs, points, message):
    lut = _load_json(tmp_path, load_lut, valid_docs["lut"])
    with pytest.raises(ValueError, match=message):
        write_lut_csv(lut, tmp_path / "m.csv", points=points)
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("args", [
    (("4", 1, 1), np.zeros(4), "", 0.0),
    ((4, 1, 1), np.zeros(4), "", "0"),
    ((4.7, 1, 1), np.zeros(4), "", 0.0),
    ((4, 1, True), np.zeros(4), "", 0.0),
    ((4, 1, 1), np.zeros(4), "", np.bool_(False)),
    ((4, 1, 1), np.zeros(4), "", 10 ** 400),
])
def test_volume_refuses_what_is_no_number(args):
    with pytest.raises(ValueError):
        Volume(*args)


def test_valid_files_load_exactly(tmp_path, valid_docs):
    args = build_parser().parse_args(["template", "build", "--out", "t.json",
                                      "--config", str(tmp_path / "in.json"), "v.raw"])
    (tmp_path / "in.json").write_text(json.dumps(CONFIG))
    assert _as_json(_resolve_config(args).to_dict()) == _as_json({"version": 1, **CONFIG})

    template = _load_json(tmp_path, load_template, valid_docs["template"])
    assert _as_json(template.to_dict()) == _as_json(valid_docs["template"])
    path = tmp_path / "t.template.json"
    save_template(template, path)
    assert json.loads(path.read_text()) == valid_docs["template"]

    lut = _load_json(tmp_path, load_lut, valid_docs["lut"])
    path = tmp_path / "m.lut.json"
    save_lut(lut, path)
    assert _as_json(json.loads(path.read_text())) == _as_json(valid_docs["lut"])

    assert _as_json(SynthSpec.from_dict(SPEC).to_dict()) == _as_json(SPEC)

    vol = _read_header(tmp_path, valid_docs["header"])
    assert (vol.dims, vol.channel, vol.background_value) == ((4, 1, 1), "T2", 0.5)
    assert all(type(d) is int for d in vol.dims)
    assert vol.voxels.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_integers_where_floats_belong_load_as_floats(tmp_path, valid_docs):
    # a JSON integer is a number: 500 is 500.0
    doc = _edited(CONTROLS, ("pi_B", 1), 500)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"controls": doc}))
    args = build_parser().parse_args(["template", "build", "--out", "t.json",
                                      "--config", str(path), "v.raw"])
    controls = _resolve_config(args).controls
    assert controls.pi_B == (0.1, 500.0) and type(controls.t_B) is float
    lut = _load_json(tmp_path, load_lut, _edited(valid_docs["lut"], ("domain", 0), 0))
    assert lut.domain == (0.0, 6000.0) and type(lut.domain[0]) is float
