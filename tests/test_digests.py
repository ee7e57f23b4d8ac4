"""Byte identity of every artifact, checked against a committed list.

Small templates are built from synthetic cohorts (f32 members; u16 members
with one hot voxel), and f32, i16 and u16 inputs are harmonized against
each, one f32 input large enough that its voxels map through the
interpolated table.  ``inspect`` then dumps a CDF (of a volume whose channel
label holds a comma and quotes) and a LUT, each with its plot, and ``eval``
compares the methods on a cohort.  The sha256 of every file the commands
write (payloads, headers, templates, LUTs, metadata sidecars, reports, CSVs,
SVGs and their companion CSVs) must equal the list in ``digests.json``.
Floating-point results may differ between NumPy or SciPy releases, so the
list records the versions it was made with, and the test is skipped under
any other.  A change that moves an artifact on purpose
regenerates the list with ``PYTHONPATH=src python tests/test_digests.py``
and says which digests moved and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from cdfmatch import Volume, read_volume, write_volume
from cdfmatch.cli import run
from cdfmatch.transform import TABLE_MIN_VOXELS

from conftest import T2_COMPONENTS, scanner_effect

DIGESTS = Path(__file__).with_name("digests.json")


def _spec(seed: int, dims=(16, 16, 16), channel="T2") -> dict:
    return {"components": [c.to_dict() for c in T2_COMPONENTS], "dims": list(dims),
            "scanner": scanner_effect(seed % 9).to_dict(), "channel": channel, "seed": seed}


def _synth(root: Path, out: Path, seed: int, dtype: str, dims=(16, 16, 16),
           channel="T2") -> None:
    spec = root / f"spec{seed}.json"
    spec.write_text(json.dumps(_spec(seed, dims, channel)))
    assert run(["synth", "--spec", str(spec), "--dtype", dtype, "--out", str(out)]) == 0


def build_artifacts(root: Path) -> dict[str, str]:
    """Write every artifact under ``root``; the sha256 of each file by its
    path relative to ``root``."""
    f32, u16, inputs, bits = (root / name for name in ("f32", "u16", "in", "in12"))
    for folder in (f32, u16, inputs, bits):
        folder.mkdir()
    for i in range(3):
        _synth(root, f32 / f"m{i}.raw", 10 + i, "f32")
        _synth(root, u16 / f"m{i}.raw", 20 + i, "u16")
    hot = read_volume(u16 / "m0.raw")
    voxels = hot.voxels.copy()
    voxels[0] = 65535
    write_volume(Volume(hot.dims, voxels, hot.channel, hot.background_value), u16 / "m0.raw",
                 dtype="u16")
    _synth(root, inputs / "small_f32.raw", 30, "f32")
    _synth(root, inputs / "large_f32.raw", 31, "f32", dims=(128, 128, 64))
    assert read_volume(inputs / "large_f32.raw").n_voxels >= TABLE_MIN_VOXELS
    _synth(root, inputs / "small_i16.raw", 32, "i16")
    _synth(root, bits / "small_u16.raw", 33, "u16")

    for cohort in (f32, u16):
        template = root / f"{cohort.name}.template.json"
        members = [str(p) for p in sorted(cohort.glob("*.raw"))]
        assert run(["template", "build", "--out", str(template)] + members) == 0
        for src, flags in ((inputs, []), (bits, ["--bits", "12"])):
            out = root / f"{cohort.name}-{src.name}"
            assert run(["harmonize", "--template", str(template), "--in", str(src),
                        "--out", str(out), "--report", str(root / f"{out.name}.report.json")]
                       + flags) == 0

    tables = root / "tables"
    tables.mkdir()
    _synth(root, tables / "label.raw", 34, "f32", channel='T2, "fast"')
    assert run(["inspect", "--cdf", str(tables / "label.raw"), "--out", str(tables / "cdf.csv"),
                "--plot", str(tables / "cdf.svg")]) == 0
    assert run(["inspect", "--lut", str(root / "f32-in" / "small_f32.lut.json"),
                "--out", str(tables / "lut.csv"), "--plot", str(tables / "lut.svg")]) == 0
    assert run(["eval", "--template", str(root / "f32.template.json"), "--in", str(f32),
                "--out", str(tables / "metrics.csv")]) == 0
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def test_every_artifact_matches_the_committed_digests(tmp_path):
    doc = json.loads(DIGESTS.read_text())
    recorded = {name: doc[name] for name in _versions()}
    if recorded != _versions():
        pytest.skip(f"digests were made with numpy {recorded['numpy']} and scipy "
                    f"{recorded['scipy']}; this is numpy {np.__version__} and scipy "
                    f"{scipy.__version__}")
    got = build_artifacts(tmp_path)
    moved = sorted(name for name in doc["sha256"] if got.get(name) != doc["sha256"][name])
    assert got.keys() == doc["sha256"].keys()
    assert not moved, f"artifacts that moved: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = build_artifacts(Path(tmp))
    DIGESTS.write_text(json.dumps({**_versions(), "sha256": digests}, indent=1,
                                  sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
