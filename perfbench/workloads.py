"""Seeded synthetic workloads for the benchmark, written as raw volumes.

The generator is self-contained (numpy only) so that the inputs a commit is
measured on never depend on the code under test.  Each workload has its own
training cohort and input directory; both are drawn from ``--seed`` and
cached on disk, keyed by workload and seed.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import DTYPES

# bump when the generator changes, so stale caches are rebuilt
GENERATOR_VERSION = 2
# seeds kept per workload; older entries are evicted to bound disk use
CACHE_KEEP = 2

# the README's T2-like mixture: two tissue modes plus a heavy bright tail
# (kind, weight, loc, scale); lognormal loc/scale describe the underlying normal
T2_MIXTURE = (("gaussian", 0.45, 120.0, 30.0),
              ("gaussian", 0.45, 230.0, 50.0),
              ("lognormal", 0.10, 5.6, 0.5))
BACKGROUND_FRACTION = 0.2
COHORT_SIZE = 16
COHORT_DIMS = (128, 128, 128)
HOT_PIXEL_VALUE = 65535


@dataclass(frozen=True)
class Workload:
    name: str
    family: str          # inputs of one family share their random draws
    dims: tuple[int, int, int]
    n_items: int
    dtype: str           # storage dtype of cohort and inputs
    bits: int | None     # ``--bits`` passed to ``cdfmatch harmonize``
    workers: int         # ``--workers`` passed to ``cdfmatch harmonize``
    hot_pixel_every: int = 0  # every k-th item gets one voxel at 65535

    def harmonize_flags(self) -> list[str]:
        flags = ["--workers", str(self.workers)]
        if self.bits is not None:
            flags += ["--bits", str(self.bits)]
        return flags


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("large_u16", family="large", dims=(256, 256, 128), n_items=4,
             dtype="u16", bits=12, workers=1),
    Workload("large_f32", family="large", dims=(256, 256, 128), n_items=4,
             dtype="f32", bits=None, workers=1),
    Workload("small_many", family="small", dims=(32, 32, 32), n_items=96,
             dtype="u16", bits=12, workers=2, hot_pixel_every=8),
)}


def _scanner(i: int, role: str) -> tuple[float, float, float, float]:
    """Deterministic per-item scanner (gain, offset, gamma, tail weight).

    Only the sampling noise depends on the seed, so quality metrics vary
    little from seed to seed while every item still looks like a different
    scanner.
    """
    if role == "cohort":
        return (0.7 * 1.04 ** i, 8.0 * (i % 5), 0.92 + 0.02 * (i % 6),
                0.7 + 0.1 * (i % 6))
    return (0.6 + 0.08 * (i % 8), 10.0 * (i % 5), 0.9 + 0.03 * (i % 7),
            0.6 + 0.15 * (i % 6))


def synth_volume(seed: int, family: str, role: str, i: int, dims) -> np.ndarray:
    """One volume as float64 voxels (x fastest), background 0, foreground >= 1."""
    key = [seed, zlib.crc32(family.encode()), zlib.crc32(role.encode()), i]
    rng = np.random.default_rng(key)
    n = int(np.prod(dims))
    gain, offset, gamma, tail = _scanner(i, role)
    weights = np.array([c[1] for c in T2_MIXTURE])
    weights[-1] *= tail
    weights /= weights.sum()
    u = rng.random(n)
    comp = sum((u >= edge).astype(np.int8) for edge in np.cumsum(weights)[:-1])
    locs = np.array([c[2] for c in T2_MIXTURE])
    scales = np.array([c[3] for c in T2_MIXTURE])
    x = locs[comp] + scales[comp] * rng.standard_normal(n)
    lognormal = comp == len(T2_MIXTURE) - 1
    x[lognormal] = np.exp(x[lognormal])
    x = gain * np.power(np.maximum(x, 0.0), gamma) + offset
    # keep the foreground strictly apart from the background value
    x = np.maximum(x, 1.0)
    x[:int(round(BACKGROUND_FRACTION * n))] = 0.0
    return x


def _write_raw(path: Path, voxels: np.ndarray, dims, dtype: str) -> None:
    header = {"background_value": 0.0, "channel": "T2", "dims": list(dims),
              "dtype": dtype, "endianness": "little"}
    Path(str(path) + ".json").write_text(json.dumps(header, sort_keys=True) + "\n")
    with open(path, "wb") as fh:
        voxels.astype(DTYPES[dtype]).tofile(fh)
        fh.flush()
        # flush now, so the kernel's writeback of fresh inputs does not land
        # in the timed region later
        os.fsync(fh.fileno())


def _store(x: np.ndarray, dtype: str) -> np.ndarray:
    if dtype == "u16":
        return np.clip(np.rint(x), 0, 65534)
    return x.astype(np.float32)


def distinct_levels(data: Path, manifest: dict) -> list[int]:
    """Distinct foreground values per input; computed once, then cached."""
    if "distinct_levels" not in manifest:
        counts = []
        for name in manifest["inputs"]:
            x = np.fromfile(data / "inputs" / name, dtype=DTYPES[manifest["dtype"]])
            counts.append(int(np.unique(x[x != 0]).size))
        manifest["distinct_levels"] = counts
        write_manifest(data, manifest)
    return manifest["distinct_levels"]


def write_manifest(data: Path, manifest: dict) -> None:
    tmp = data / f".manifest.json.tmp{os.getpid()}"
    tmp.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    os.replace(tmp, data / "manifest.json")


def _generate(w: Workload, seed: int, dest: Path) -> dict:
    cohort_dir, input_dir = dest / "cohort", dest / "inputs"
    cohort_dir.mkdir(parents=True)
    input_dir.mkdir()
    cohort = []
    for i in range(COHORT_SIZE):
        x = _store(synth_volume(seed, "cohort", "cohort", i, COHORT_DIMS), w.dtype)
        path = cohort_dir / f"train{i:02d}.raw"
        _write_raw(path, x, COHORT_DIMS, w.dtype)
        cohort.append(path.name)
    inputs, voxels = [], 0
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    for i in range(w.n_items):
        x = _store(synth_volume(seed, w.family, "input", i, w.dims), w.dtype)
        if w.hot_pixel_every and i % w.hot_pixel_every == 0:
            fg = np.flatnonzero(x)
            x[fg[rng.integers(fg.size)]] = HOT_PIXEL_VALUE
        path = input_dir / f"item{i:03d}.raw"
        _write_raw(path, x, w.dims, w.dtype)
        inputs.append(path.name)
        voxels += x.size
    return {"generator_version": GENERATOR_VERSION, "workload": w.name,
            "seed": seed, "dtype": w.dtype, "cohort": cohort, "inputs": inputs,
            "input_voxels": voxels}


def prepare(w: Workload, seed: int, cache_root: Path) -> tuple[Path, dict, bool]:
    """Return (directory, manifest, cache hit) for a workload and seed.

    The manifest records how long generation took in ``gen_s``.  Entries
    are written to a temporary directory and renamed, so an interrupted run
    never leaves a half-written entry behind.
    """
    base = cache_root / w.name
    dest = base / f"seed-{seed}"
    manifest_path = dest / "manifest.json"
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("generator_version") == GENERATOR_VERSION:
            os.utime(manifest_path)
            return dest, manifest, True
    base.mkdir(parents=True, exist_ok=True)
    tmp = base / f".tmp-seed-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    started = time.perf_counter()
    manifest = _generate(w, seed, tmp)
    manifest["gen_s"] = time.perf_counter() - started
    write_manifest(tmp, manifest)
    shutil.rmtree(dest, ignore_errors=True)
    os.replace(tmp, dest)
    _evict(base, keep=dest)
    return dest, manifest, False


def _evict(base: Path, keep: Path) -> None:
    entries = [p for p in base.glob("seed-*") if p != keep]
    entries.sort(key=lambda p: (p / "manifest.json").stat().st_mtime
                 if (p / "manifest.json").exists() else 0.0)
    for stale in entries[:max(0, len(entries) - (CACHE_KEEP - 1))]:
        shutil.rmtree(stale, ignore_errors=True)
