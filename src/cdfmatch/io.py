"""Volume and artifact I/O: raw volumes, CSV/JSON artifacts, SVG plots,
and seeded synthetic volume generation.

All emissions are byte-deterministic: no timestamps, fixed float formatting,
fixed palettes.  Volumes use a custom raw + JSON-sidecar format so files stay
bit-exact and dependency-free.
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from .cdf import DTYPES, EmpiricalCdf, Record, Volume, finite_number, store_as, whole_number
from .errors import (BadSpec, BadTailSpec, EmptyInput, HeaderMismatch, IoError,
                     NonMonotone, SchemaMismatch)
from .transform import IntensityLut

LUT_SCHEMA_VERSION = 1

_CDF_CSV_HEADER = ("intensity", "cumulative_probability")

# the keys write_volume writes into a header; channel and background_value
# may be absent
_HEADER_KEYS = {"dims", "dtype", "channel", "background_value", "endianness"}


def _header_path(path) -> Path:
    return Path(str(path) + ".json")


def write_files(label: str, *files) -> Path:
    """Write each ``(path, data)`` pair, ``data`` being text or bytes, as one
    artifact and return the first path.

    Every file is staged beside its target and then all are moved in back to
    back with ``os.replace``, so an interrupted write leaves the previous
    files in place and no temporary file behind.  An ``OSError`` becomes
    ``IoError`` naming ``label`` and the file that failed.
    """
    staged, moved = [], 0
    try:
        for path, data in files:
            path = Path(path)
            tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
            staged.append((tmp, path))
            if isinstance(data, str):
                tmp.write_text(data)
            else:
                tmp.write_bytes(data)
        for tmp, path in staged:
            os.replace(tmp, path)
            moved += 1
    except OSError as exc:
        raise IoError(f"cannot write {label} to {path}: {exc}") from exc
    finally:
        for tmp, _ in staged[moved:]:
            tmp.unlink(missing_ok=True)
    return Path(files[0][0])


def write_volume(vol: Volume, path, dtype: str = "f32") -> Path:
    """Write voxels as a little-endian raw payload plus a JSON header sidecar.

    Voxels already stored in ``dtype`` (as ``harmonize`` returns them) are
    written as they are; others are converted by :func:`cdf.store_as`, so
    integer dtypes round to the nearest integer first and values outside the
    target dtype raise Overflow.
    """
    if dtype not in DTYPES:
        raise ValueError(f"unknown dtype {dtype!r}, expected one of {sorted(DTYPES)}")
    payload = store_as(vol.voxels, dtype)
    header = {"dims": list(vol.dims), "dtype": dtype, "channel": vol.channel,
              "background_value": vol.background_value, "endianness": "little"}
    return write_files("volume", (path, memoryview(payload)),
                       (_header_path(path), json.dumps(header, sort_keys=True) + "\n"))


def write_json(path, label: str, doc: dict) -> Path:
    """Write ``doc`` as indented JSON with sorted keys, the one writer of every
    JSON artifact but the volume header (:func:`write_files`, ``label``)."""
    return write_files(label, (path, json.dumps(doc, sort_keys=True, indent=1) + "\n"))


def read_json(path, what: str, error) -> dict:
    """The JSON object in the file at ``path``, the one decoder of every JSON
    file the program reads.  Raises IoError when the file cannot be read and
    ``error`` when it is not valid JSON or holds no JSON object; each message
    names ``what`` and the file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return doc


def read_volume(path) -> Volume:
    """Read a volume written by :func:`write_volume`.

    The voxels keep the stored dtype (u8, u16, i16 or f32).  The header is
    validated before any payload byte is interpreted; a payload whose length
    disagrees with the header raises HeaderMismatch, and one that cannot be
    read or holds a NaN or +/-inf voxel IoError naming the file.
    """
    path = Path(path)
    header = read_json(_header_path(path), "volume header", HeaderMismatch)
    unknown = set(header) - _HEADER_KEYS
    if unknown:
        raise HeaderMismatch(f"volume header for {path} holds unknown keys {sorted(unknown)}")

    dims = header.get("dims")
    if not isinstance(dims, list) or len(dims) != 3:
        raise HeaderMismatch(f"bad dims in header: {dims!r}")
    dims = tuple(whole_number(d, "dims", HeaderMismatch, least=1) for d in dims)
    dtype = header.get("dtype")
    if dtype not in DTYPES:
        raise HeaderMismatch(f"unsupported dtype in header: {dtype!r}")
    if header.get("endianness") != "little":
        raise HeaderMismatch(f"unsupported endianness: {header.get('endianness')!r}")
    value = header.get("background_value", 0.0)
    background = finite_number(value, "background_value",
                               lambda _: HeaderMismatch(f"bad background_value: {value!r}"))
    channel = header.get("channel", "")
    if not isinstance(channel, str):
        raise HeaderMismatch(f"bad channel label: {channel!r}")

    dt = DTYPES[dtype]
    expected = dims[0] * dims[1] * dims[2] * dt.itemsize
    try:
        actual = os.path.getsize(path)
        if actual != expected:
            raise HeaderMismatch(
                f"payload is {actual} bytes but the header implies {expected}")
        return Volume._owning(dims, np.fromfile(path, dtype=dt), channel, background)
    except (OSError, ValueError) as exc:
        raise IoError(f"cannot read volume payload {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# synthetic volumes


def _spec_numbers(record, label: str, names) -> None:
    """Store each named field of a synthetic-spec record as the plain number
    :func:`finite_number` returns, BadSpec otherwise."""
    for name in names:
        object.__setattr__(record, name, finite_number(getattr(record, name),
                                                       f"{label} {name}", BadSpec))


@dataclass(frozen=True)
class MixtureComponent(Record):
    """One base-distribution component.

    For ``lognormal`` the parameters are the mean/std of the underlying
    normal; for ``gaussian`` they are the mean/std of the values themselves.
    """

    kind: str
    weight: float
    loc: float
    scale: float

    def __post_init__(self):
        if self.kind not in ("lognormal", "gaussian"):
            raise BadSpec(f"unknown component kind {self.kind!r}")
        _spec_numbers(self, "component", ("weight", "loc", "scale"))
        if self.weight <= 0.0 or self.scale <= 0.0:
            raise BadSpec("component weights and scales must be positive")


@dataclass(frozen=True)
class ScannerEffect(Record):
    """Per-scanner distortion: x -> gain * x**gamma + offset.

    ``tail_weight`` multiplies the weight of the last mixture component
    (by convention, the heavy-tail one) before sampling.
    """

    gain: float = 1.0
    offset: float = 0.0
    gamma: float = 1.0
    tail_weight: float = 1.0

    def __post_init__(self):
        _spec_numbers(self, "scanner", ("gain", "offset", "gamma", "tail_weight"))
        if self.gain <= 0.0 or self.gamma <= 0.0:
            raise BadSpec("scanner gain and gamma must be positive")
        if self.tail_weight <= 0.0:
            raise BadSpec("tail_weight must be positive")


@dataclass(frozen=True)
class LesionSpec(Record):
    """Spherical high-intensity blobs: how many, how bright, how big."""

    count: int = 0
    boost: float = 1.0
    volume_fraction: float = 0.0

    def __post_init__(self):
        _spec_numbers(self, "lesion", ("boost", "volume_fraction"))
        object.__setattr__(self, "count", whole_number(self.count, "lesion count", BadSpec,
                                                         least=0))
        if self.boost <= 0.0:
            raise BadSpec("lesion boost must be positive")
        if not 0.0 <= self.volume_fraction < 1.0:
            raise BadSpec("lesion volume fraction must lie in [0, 1)")


@dataclass(frozen=True)
class SynthSpec(Record):
    """Recipe for a reproducible synthetic volume."""

    components: tuple[MixtureComponent, ...]
    dims: tuple[int, int, int] = (24, 24, 24)
    scanner: ScannerEffect = field(default_factory=ScannerEffect)
    lesions: LesionSpec = field(default_factory=LesionSpec)
    background_fraction: float = 0.0
    channel: str = "synthetic"
    seed: int = 0

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise BadSpec("at least one mixture component is required")
        if abs(sum(c.weight for c in comps) - 1.0) > 1e-9:
            raise BadSpec("component weights must sum to 1")
        object.__setattr__(self, "components", comps)
        if len(self.dims) != 3:
            raise BadSpec(f"dims must be three positive integers, got {self.dims!r}")
        object.__setattr__(self, "dims", tuple(whole_number(d, "dims", BadSpec, least=1)
                                               for d in self.dims))
        object.__setattr__(self, "background_fraction", finite_number(
            self.background_fraction, "background fraction", BadSpec))
        if not 0.0 <= self.background_fraction < 1.0:
            raise BadSpec("background fraction must lie in [0, 1)")
        object.__setattr__(self, "seed", whole_number(self.seed, "seed", BadSpec, least=0))
        if not isinstance(self.channel, str):
            raise BadSpec(f"channel must be a string, got {self.channel!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "SynthSpec":
        try:
            return super().from_dict(doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise BadSpec(f"malformed synthetic spec: {exc}") from exc


def generate_synthetic(spec: SynthSpec) -> Volume:
    """Sample the base mixture, inject lesion blobs, apply the scanner effect.

    Bitwise reproducible for a fixed seed.  Two specs differing only in the
    scanner gain/offset consume identical random streams, so their voxels
    are exact affine images of each other.
    """
    rng = np.random.default_rng(spec.seed)
    nx, ny, nz = spec.dims
    n = nx * ny * nz

    weights = np.array([c.weight for c in spec.components], dtype=np.float64)
    weights[-1] *= spec.scanner.tail_weight
    weights /= weights.sum()
    assignment = rng.choice(len(spec.components), size=n, p=weights)
    x = np.zeros(n, dtype=np.float64)
    for i, comp in enumerate(spec.components):
        mask = assignment == i
        k = int(mask.sum())
        if comp.kind == "lognormal":
            x[mask] = rng.lognormal(comp.loc, comp.scale, k)
        else:
            x[mask] = rng.normal(comp.loc, comp.scale, k)

    lesions = spec.lesions
    if lesions.count > 0 and lesions.volume_fraction > 0.0:
        radius = ((3.0 * lesions.volume_fraction * n)
                  / (4.0 * math.pi * lesions.count)) ** (1.0 / 3.0)
        centers = rng.uniform(low=0.0, high=[nx, ny, nz], size=(lesions.count, 3))
        idx = np.arange(n)
        pts = np.stack([idx % nx, (idx // nx) % ny, idx // (nx * ny)], axis=1) + 0.5
        blob = np.zeros(n, dtype=bool)
        for center in centers:
            blob |= ((pts - center) ** 2).sum(axis=1) <= radius * radius
        x[blob] *= lesions.boost

    x = np.maximum(x, 0.0)  # the gamma warp needs non-negative input
    sc = spec.scanner
    x = sc.gain * np.power(x, sc.gamma) + sc.offset
    if spec.background_fraction > 0.0:
        k = int(round(spec.background_fraction * n))
        x[:k] = 0.0
    try:
        return Volume(spec.dims, x, channel=spec.channel, background_value=0.0)
    except ValueError as exc:  # finite fields whose draws overflow
        raise BadSpec(f"spec values overflow: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV and JSON artifacts


def csv_text(header, rows) -> str:
    """The one CSV form of every table the program writes: a header row, then
    ``rows``, each number the ``repr`` of its float, None an empty field and
    a label quoted by the ``csv`` module where it needs quotes."""
    table = StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([value if value is None or isinstance(value, str) else repr(float(value))
                      for value in row] for row in rows)
    return table.getvalue()


def write_cdf_csv(cdf: EmpiricalCdf, path) -> Path:
    """Write a CDF as two-column CSV (intensity, cumulative_probability)."""
    return write_files("CDF CSV", (path, csv_text(_CDF_CSV_HEADER, zip(cdf.xs, cdf.ps))))


def read_cdf_csv(path) -> EmpiricalCdf:
    """Read a CDF written by :func:`write_cdf_csv` (sample count is lost)."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read CDF CSV from {path}: {exc}") from exc
    if not lines or lines[0].strip() != ",".join(_CDF_CSV_HEADER):
        raise SchemaMismatch(f"{path} is not a CDF CSV (bad header)")
    xs, ps = [], []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            x, p = (float(v) for v in line.split(","))
        except ValueError as exc:
            raise SchemaMismatch(f"{path} line {number}: expected two numbers, "
                                 f"got {line!r}") from exc
        xs.append(x)
        ps.append(p)
    try:
        return EmpiricalCdf(xs, ps, n_samples=0)
    except ValueError as exc:
        raise SchemaMismatch(f"malformed CDF CSV {path}: {exc}") from exc


def save_lut(lut: IntensityLut, path) -> Path:
    """Write a composed mapping as JSON for audit and later inspection."""
    return write_json(path, "LUT", {"version": LUT_SCHEMA_VERSION, **lut.to_dict()})


def load_lut(path) -> IntensityLut:
    """Read a mapping written by :func:`save_lut`."""
    doc = read_json(path, "LUT", SchemaMismatch)
    try:
        version = whole_number(doc.pop("version", None), "LUT version")
        if version != LUT_SCHEMA_VERSION:
            raise SchemaMismatch(f"unsupported LUT schema in {path}")
        return IntensityLut.from_dict(doc)
    except (KeyError, TypeError, ValueError, BadTailSpec, NonMonotone) as exc:
        raise SchemaMismatch(f"malformed LUT file {path}: {exc!r}") from exc


def _sample_lut(lut: IntensityLut, points: int) -> tuple[np.ndarray, np.ndarray, str]:
    """The mapping at ``points`` even steps over its domain, also as CSV."""
    xs = np.linspace(lut.domain[0], lut.domain[1], whole_number(points, "points", least=2))
    ys = np.asarray(lut.apply(xs))
    return xs, ys, csv_text(("input", "output"), zip(xs, ys))


def write_lut_csv(lut: IntensityLut, path, points: int = 512) -> Path:
    """Write a mapping at ``points`` evenly spaced inputs across its domain
    as two-column CSV (input, output)."""
    return write_files("LUT CSV", (path, _sample_lut(lut, points)[2]))


# ---------------------------------------------------------------------------
# SVG emission

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
            "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _render_line_svg(series, title: str, x_label: str, y_label: str, markers=()) -> str:
    """Render labeled (xs, ys) series as a standalone SVG line chart."""
    width, height = 720, 480
    ml, mr, mt, mb = 72, 16, 40, 48
    pw, ph = width - ml - mr, height - mt - mb

    x_lo = min(float(xs[0]) for _, xs, _ in series)
    x_hi = max(float(xs[-1]) for _, xs, _ in series)
    y_lo = min(float(np.min(ys)) for _, _, ys in series)
    y_hi = max(float(np.max(ys)) for _, _, ys in series)
    if markers:
        x_lo = min([x_lo] + [m[0] for m in markers])
        x_hi = max([x_hi] + [m[0] for m in markers])
        y_lo = min([y_lo] + [m[1] for m in markers])
        y_hi = max([y_hi] + [m[1] for m in markers])
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="15">{escape(title)}</text>')
    parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#333333" stroke-width="1"/>')
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(tx):.2f}" y1="{mt + ph}" x2="{px(tx):.2f}" '
                     f'y2="{mt + ph + 4}" stroke="#333333"/>')
        parts.append(f'<text x="{px(tx):.2f}" y="{mt + ph + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tx:.6g}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{ml - 4}" y1="{py(ty):.2f}" x2="{ml}" '
                     f'y2="{py(ty):.2f}" stroke="#333333"/>')
        parts.append(f'<text x="{ml - 8}" y="{py(ty) + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{ty:.6g}</text>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 10}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">{escape(x_label)}</text>')
    parts.append(f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{escape(y_label)}</text>')

    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}"
                          for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
                     f'points="{points}"><title>{escape(str(label))}</title></polyline>')
    for mx, my, mlabel in markers:
        parts.append(f'<circle cx="{px(mx):.2f}" cy="{py(my):.2f}" r="3.5" '
                     f'fill="#000000"/>')
        parts.append(f'<text x="{px(mx) + 6:.2f}" y="{py(my) - 6:.2f}" '
                     f'font-family="sans-serif" font-size="11">{escape(str(mlabel))}</text>')
    for i, (label, _, _) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        ly = mt + 14 + 16 * i
        parts.append(f'<line x1="{ml + pw - 130}" y1="{ly - 4}" x2="{ml + pw - 106}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw - 100}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{escape(str(label))}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _companion_csv_path(path) -> Path:
    return Path(str(path) + ".csv")


def emit_cdf_plot(cdfs, path, title: str = "", markers=()) -> Path:
    """Write labeled CDF curves as a standalone SVG plus a companion CSV.

    ``cdfs`` is a sequence of (label, EmpiricalCdf); ``markers`` is an
    optional sequence of (intensity, probability, label) dots.  Emission is
    byte-deterministic for identical inputs.
    """
    cdfs = list(cdfs)
    if not cdfs:
        raise EmptyInput("no curves to plot")
    series = [(label, cdf.xs, cdf.ps) for label, cdf in cdfs]
    svg = _render_line_svg(series, title, "intensity", "cumulative probability", markers)
    table = csv_text(("label",) + _CDF_CSV_HEADER,
                     ((str(label), x, p) for label, xs, ps in series for x, p in zip(xs, ps)))
    return write_files("plot", (path, svg), (_companion_csv_path(path), table))


def emit_lut_plot(lut: IntensityLut, path, points: int = 512, title: str = "") -> Path:
    """Write a LUT mapping as an SVG line plot plus an (input, output) CSV."""
    xs, ys, table = _sample_lut(lut, points)
    svg = _render_line_svg([("mapping", xs, ys)], title, "input intensity", "mapped intensity")
    return write_files("LUT plot", (path, svg), (_companion_csv_path(path), table))
