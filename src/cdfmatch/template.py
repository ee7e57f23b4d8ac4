"""Per-channel template CDF construction and JSON persistence.

A template is built from a training cohort in four steps: z-score every
volume, average the per-volume CDFs, anchor the average to three
(percentile, intensity) control points via the dual-scaling fit, and squeeze
the tails into the clip range when one is requested.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cdf import (DEFAULT_GRID_SIZE, EmpiricalCdf, IntensityIndex, average_cdfs,
                  build_cdf, quantile, zscore_standardize)
from .errors import (BadTailSpec, EmptyCohort, Infeasible, IoError, NonMonotone,
                     SchemaMismatch)
from .fit import FitConfig, fit_template_to_controls
from .io import write_files
from .transform import TailSpec, lut_ds

TEMPLATE_SCHEMA_VERSION = 1

CONTROL_FIDELITY_FRACTION = 0.005


@dataclass(frozen=True)
class ControlPoints:
    """Three (percentile, intensity) anchors the template must pass through."""

    pi_B: tuple[float, float]
    pi_M: tuple[float, float]
    pi_T: tuple[float, float]

    def __post_init__(self):
        for name in ("pi_B", "pi_M", "pi_T"):
            p, t = getattr(self, name)
            object.__setattr__(self, name, (float(p), float(t)))
        if not (0.0 < self.p_B < self.p_M < self.p_T <= 1.0):
            raise ValueError(
                f"percentiles must satisfy 0 < p_B < p_M < p_T <= 1, got "
                f"({self.p_B}, {self.p_M}, {self.p_T})")
        if not (self.t_B < self.t_M < self.t_T):
            raise ValueError(
                f"intensities must satisfy t_B < t_M < t_T, got "
                f"({self.t_B}, {self.t_M}, {self.t_T})")

    @property
    def p_B(self) -> float:
        return self.pi_B[0]

    @property
    def t_B(self) -> float:
        return self.pi_B[1]

    @property
    def p_M(self) -> float:
        return self.pi_M[0]

    @property
    def t_M(self) -> float:
        return self.pi_M[1]

    @property
    def p_T(self) -> float:
        return self.pi_T[0]

    @property
    def t_T(self) -> float:
        return self.pi_T[1]

    @property
    def span(self) -> float:
        return self.t_T - self.t_B

    def to_dict(self) -> dict:
        return {"pi_B": list(self.pi_B), "pi_M": list(self.pi_M),
                "pi_T": list(self.pi_T)}

    @classmethod
    def from_dict(cls, doc: dict) -> "ControlPoints":
        return cls(tuple(doc["pi_B"]), tuple(doc["pi_M"]), tuple(doc["pi_T"]))


# intensities of the published 12-bit configuration; percentile first
DEFAULT_CONTROLS = ControlPoints(pi_B=(0.1, 500.0), pi_M=(0.5, 1650.0),
                                 pi_T=(0.99, 3300.0))
DEFAULT_CLIP = (1.0, 4095.0)


@dataclass(frozen=True)
class TemplateCdf:
    """Target CDF with its anchors, optional clip range, and provenance."""

    cdf: EmpiricalCdf
    controls: ControlPoints
    clip: tuple[float, float] | None = None
    channel: str = ""
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.clip is not None:
            lo, hi = (float(self.clip[0]), float(self.clip[1]))
            if not lo < hi:
                raise ValueError(f"clip range must be increasing, got {self.clip!r}")
            object.__setattr__(self, "clip", (lo, hi))
            if self.cdf.xs[0] < lo or self.cdf.xs[-1] > hi:
                raise ValueError("template support extends beyond its clip range")
        tol = CONTROL_FIDELITY_FRACTION * self.controls.span
        for p, t in (self.controls.pi_B, self.controls.pi_M, self.controls.pi_T):
            got = quantile(self.cdf, p)
            if abs(got - t) > tol:
                raise ValueError(
                    f"template misses control point ({p}, {t}): quantile is {got:.6g}")

    def to_dict(self) -> dict:
        return {"version": TEMPLATE_SCHEMA_VERSION,
                "channel": self.channel,
                "controls": self.controls.to_dict(),
                "clip": list(self.clip) if self.clip is not None else None,
                "cdf": {"xs": self.cdf.xs.tolist(), "ps": self.cdf.ps.tolist(),
                        "n_samples": self.cdf.n_samples},
                "provenance": dict(self.provenance)}

    @classmethod
    def from_dict(cls, doc: dict) -> "TemplateCdf":
        if doc.get("version") != TEMPLATE_SCHEMA_VERSION:
            raise SchemaMismatch(
                f"expected template schema {TEMPLATE_SCHEMA_VERSION}, "
                f"got {doc.get('version')!r}")
        cdf_doc = doc["cdf"]
        cdf = EmpiricalCdf(np.array(cdf_doc["xs"]), np.array(cdf_doc["ps"]),
                           n_samples=cdf_doc.get("n_samples", 0))
        clip = tuple(doc["clip"]) if doc.get("clip") is not None else None
        provenance = dict(doc.get("provenance", {}))
        for key in ("tail_source_max", "tail_source_min"):  # null: not recorded
            value = provenance.get(key)
            if value is not None and type(value) not in (int, float):  # no bool subclass
                raise SchemaMismatch(f"provenance {key} must be a number or null, got {value!r}")
        return cls(cdf, ControlPoints.from_dict(doc["controls"]), clip,
                   doc.get("channel", ""), provenance)


def config_hash(payload: dict) -> str:
    """Short stable digest of a JSON-able configuration, for provenance."""
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def template_tails(controls: ControlPoints, clip: tuple[float, float] | None,
                   v_min: float, v_max: float, gate: float,
                   provenance: dict) -> TailSpec:
    """Tails squeezing a dual-scaled support [v_min, v_max] into ``clip``: the
    one firing rule for the template and every image.  A tail fires when the
    support overshoots its clip bound by more than ``gate`` times the room
    between that bound and its control intensity, and bends over the source
    extreme recorded in ``provenance`` or, when none is (absent or None),
    over the support's own."""
    if clip is None:
        return TailSpec.disabled()
    lo, hi = clip
    src_max = provenance.get("tail_source_max")
    src_min = provenance.get("tail_source_min")
    return TailSpec(v_T=controls.t_T, v_max=v_max if src_max is None else src_max, v_clipT=hi,
                    v_B=controls.t_B, v_min=v_min if src_min is None else src_min, v_clipB=lo,
                    enabled_top=v_max - hi > gate * (hi - controls.t_T),
                    enabled_bottom=lo - v_min > gate * (controls.t_B - lo))


def build_template(cohort, controls: ControlPoints = DEFAULT_CONTROLS,
                   clip: tuple[float, float] | None = DEFAULT_CLIP,
                   config: FitConfig | None = None,
                   grid_size: int = DEFAULT_GRID_SIZE,
                   channel: str | None = None) -> TemplateCdf:
    """Build a TemplateCdf from a training cohort.

    Pipeline: z-score each volume, estimate each CDF, average them, fit the
    average to the control points, map the grid through the fitted
    dual-scaling, then shrink the tails toward the clip bounds when a clip
    range is given.  Deterministic and invariant to cohort ordering.
    """
    cohort = list(cohort)
    if not cohort:
        raise EmptyCohort("cannot build a template from an empty cohort")
    config = config or FitConfig()
    if clip is not None:
        lo, hi = (float(clip[0]), float(clip[1]))
        if not (lo < controls.t_B and controls.t_T < hi):
            raise BadTailSpec(
                f"clip range {clip!r} must leave room outside the control "
                f"intensities ({controls.t_B}, {controls.t_T})")
        clip = (lo, hi)

    cdfs = [build_cdf(zscore_standardize(IntensityIndex.of(v)), exclude_background=True,
                      grid_size=grid_size) for v in cohort]
    avg = average_cdfs(cdfs, grid_size=grid_size)
    fit = fit_template_to_controls(avg, controls, config)

    xs = np.asarray(lut_ds(avg.xs, fit.params))
    if (np.diff(xs) <= 0).any():
        raise NonMonotone("fitted template parameters are not monotone over the grid")
    provenance = {
        "cohort_size": len(cohort),
        "config_hash": config_hash({"controls": controls.to_dict(),
                                    "clip": list(clip) if clip else None,
                                    "grid_size": grid_size,
                                    "fit": config.to_dict()}),
    }
    # squeeze a tail whenever the fitted support overshoots its bound (gate
    # 0); the pre-squeeze extremes are recorded so harmonized images are
    # bent by the same TailSpec
    tails = template_tails(controls, clip, float(xs[0]), float(xs[-1]), 0.0, {})
    if tails.enabled_top:
        provenance["tail_source_max"] = tails.v_max
    if tails.enabled_bottom:
        provenance["tail_source_min"] = tails.v_min
    xs = tails.apply(xs)

    if channel is None:
        channel = cohort[0].channel
    template_cdf = EmpiricalCdf(xs, avg.ps, n_samples=avg.n_samples)
    try:
        return TemplateCdf(template_cdf, controls, clip, channel, provenance)
    except ValueError as exc:
        raise Infeasible(f"cannot build a template from this cohort: {exc}") from exc


def save_template(template: TemplateCdf, path) -> Path:
    """Write a template as schema-v1 JSON; floats round-trip exactly."""
    return write_files("template",
                       (path, json.dumps(template.to_dict(), sort_keys=True, indent=1) + "\n"))


def load_template(path) -> TemplateCdf:
    """Read a template written by :func:`save_template`."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise IoError(f"cannot read template from {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"{path} is not a template JSON file: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaMismatch(f"{path} is not a template JSON object")
    try:
        return TemplateCdf.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatch(f"malformed template file {path}: {exc!r}") from exc
