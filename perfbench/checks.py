"""Correctness checks and artifact fingerprints for one ``cdfmatch harmonize`` call."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

DTYPES = {"u8": np.dtype("<u1"), "u16": np.dtype("<u2"),
           "i16": np.dtype("<i2"), "f32": np.dtype("<f4")}


def read_raw(path: Path) -> tuple[np.ndarray, dict]:
    header = json.loads(Path(str(path) + ".json").read_text())
    return np.fromfile(path, dtype=DTYPES[header["dtype"]]), header


def item_files(out_dir: Path, stem: str) -> list[Path]:
    """Every artifact the CLI writes for one input: volume, header, LUT, meta."""
    return [out_dir / f"{stem}.raw", out_dir / f"{stem}.raw.json",
            out_dir / f"{stem}.lut.json", out_dir / f"{stem}.meta.json"]


def _sha256(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def digests(out_dir: Path, report: Path, stems) -> dict:
    """Per-item digests of every artifact, plus the report's; None if absent."""
    doc = {}
    for stem in stems:
        files = item_files(out_dir, stem)
        doc[stem] = _sha256(files) if all(p.is_file() for p in files) else None
    doc["report.json"] = _sha256([report]) if report.is_file() else None
    return doc


def _volume_problem(inp: np.ndarray, out: np.ndarray, bg: float, clip,
                    bits) -> str | None:
    if out.shape != inp.shape:
        return "output voxel count differs from the input"
    background = inp == bg
    if (out[background] != bg).any():
        return "background voxels changed"
    x, y = inp[~background], out[~background].astype(np.float64)
    if clip is not None and ((y < clip[0]).any() or (y > clip[1]).any()):
        return f"foreground outside the clip range {clip}"
    if bits is not None and (y != np.rint(y)).any():
        return "non-integer output under --bits"
    # stable argsort of integer keys is a radix sort
    order = np.argsort(x, kind="stable" if x.dtype.kind in "ui" else None)
    if (np.diff(y[order]) < 0).any():
        return "output decreases where the input increases"
    return None


def check_call(in_dir: Path, out_dir: Path, report: Path, stems, rc: int,
               clip, bits) -> dict[str, str]:
    """Return {item stem: reason} for every item that fails a check.

    An item fails when the report lists it under ``failures``, when one of
    its artifacts is missing, or when its output volume breaks an invariant:
    background untouched, foreground inside the clip range, integers under
    ``--bits``, and output non-decreasing in the input.  A non-zero exit
    code that no listed failure explains fails every item.
    """
    failed: dict[str, str] = {}
    listed = []
    if report.is_file():
        doc = json.loads(report.read_text())
        listed = [f["input"] for f in doc.get("failures", [])]
        for name in listed:
            failed[Path(name).stem] = "listed in the report's failures"
    if rc != 0 and not listed:
        return {stem: f"exit code {rc}" for stem in stems}
    if not report.is_file():
        return {stem: "report.json missing" for stem in stems}
    for stem in stems:
        if stem in failed:
            continue
        absent = [p.name for p in item_files(out_dir, stem) if not p.is_file()]
        if absent:
            failed[stem] = f"missing {', '.join(absent)}"
            continue
        inp, header = read_raw(in_dir / f"{stem}.raw")
        out, _ = read_raw(out_dir / f"{stem}.raw")
        problem = _volume_problem(inp, out, float(header["background_value"]),
                                  clip, bits)
        if problem:
            failed[stem] = problem
    return failed


def report_counts(report: Path) -> dict:
    """Counts read from report.json that must repeat exactly for one seed."""
    doc = json.loads(report.read_text())
    items = doc["items"]
    return {"items": len(items),
            "failures": len(doc["failures"]),
            "fit_iterations": sum(int(i["fit"]["iterations"]) for i in items),
            "tails_fired": sum(bool(i["lut"]["tails"]["enabled_top"]
                                    or i["lut"]["tails"]["enabled_bottom"])
                               for i in items)}


def post_ks(report: Path) -> list[float]:
    return [float(i["post_ks"]) for i in json.loads(report.read_text())["items"]]


def dir_bytes(paths) -> int:
    return sum(p.stat().st_size for p in paths if p.is_file())
