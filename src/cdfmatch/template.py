"""Per-channel template CDF construction and JSON persistence.

A template is built from a training cohort in four steps: z-score every
volume, average the per-volume CDFs, anchor the average to three
(percentile, intensity) control points via the dual-scaling fit, and squeeze
the tails into the clip range when one is requested.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .cdf import (DEFAULT_GRID_SIZE, EmpiricalCdf, IntensityIndex, Record, _json,
                  average_cdfs, build_cdf, finite_interval, finite_number, quantile,
                  whole_number, zscore_standardize)
from .errors import BadTailSpec, EmptyCohort, Infeasible, SchemaMismatch
from .fit import FitConfig, fit_template_to_controls
from .io import read_json, write_json
from .transform import TailSpec, lut_ds

TEMPLATE_SCHEMA_VERSION = 1

CONTROL_FIDELITY_FRACTION = 0.005


@dataclass(frozen=True)
class ControlPoints(Record):
    """Three (percentile, intensity) anchors the template must pass through."""

    pi_B: tuple[float, float]
    pi_M: tuple[float, float]
    pi_T: tuple[float, float]

    def __post_init__(self):
        for name in ("pi_B", "pi_M", "pi_T"):
            p, t = getattr(self, name)
            object.__setattr__(self, name, (finite_number(p, name), finite_number(t, name)))
        if not (0.0 < self.p_B < self.p_M < self.p_T <= 1.0):
            raise ValueError(
                f"percentiles must satisfy 0 < p_B < p_M < p_T <= 1, got "
                f"({self.p_B}, {self.p_M}, {self.p_T})")
        if not self.t_B < self.t_M < self.t_T:
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

    def check_clip(self, clip: tuple[float, float], error=BadTailSpec) -> None:
        """Raise ``error`` unless the clip range (lo, hi) leaves room outside
        the control intensities, lo < t_B and t_T < hi, for the tails."""
        if not (clip[0] < self.t_B and self.t_T < clip[1]):
            raise error(f"clip range {clip!r} must leave room outside the control "
                        f"intensities ({self.t_B}, {self.t_T})")


# intensities of the published 12-bit configuration; percentile first
DEFAULT_CONTROLS = ControlPoints(pi_B=(0.1, 500.0), pi_M=(0.5, 1650.0),
                                 pi_T=(0.99, 3300.0))
DEFAULT_CLIP = (1.0, 4095.0)


@dataclass(frozen=True)
class Provenance(Record):
    """Where a template came from: the cohort size, the digest of the build
    configuration, and the dual-scaled extreme each fired tail bends over.
    A field is None when it was not recorded (a tail that did not fire), and
    its key is then left out of the file."""

    cohort_size: int | None = None
    config_hash: str | None = None
    tail_source_max: float | None = None
    tail_source_min: float | None = None

    def __post_init__(self):
        if not isinstance(self.config_hash, (str, type(None))):
            raise SchemaMismatch(
                f"provenance config_hash must be a string, got {self.config_hash!r}")
        for name, number in (("cohort_size", partial(whole_number, least=1)),
                             ("tail_source_max", finite_number),
                             ("tail_source_min", finite_number)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, number(getattr(self, name),
                                                      f"provenance {name}", SchemaMismatch))

    def to_dict(self) -> dict:
        return {key: value for key, value in super().to_dict().items() if value is not None}


@dataclass(frozen=True)
class TemplateCdf(Record):
    """Target CDF with its anchors, optional clip range, and provenance."""

    cdf: EmpiricalCdf
    controls: ControlPoints
    clip: tuple[float, float] | None = None
    channel: str = ""
    provenance: Provenance = field(default_factory=Provenance)

    def __post_init__(self):
        if not isinstance(self.channel, str):
            raise ValueError(f"channel must be a string, got {self.channel!r}")
        if self.clip is not None:
            lo, hi = finite_interval(self.clip, "clip range")
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
        return {"version": TEMPLATE_SCHEMA_VERSION, **super().to_dict()}

    @classmethod
    def from_dict(cls, doc: dict) -> "TemplateCdf":
        fields = {**doc}
        version = whole_number(fields.pop("version", None), "template version", SchemaMismatch)
        if version != TEMPLATE_SCHEMA_VERSION:
            raise SchemaMismatch(
                f"expected template schema {TEMPLATE_SCHEMA_VERSION}, got {version!r}")
        return super().from_dict(fields)


def config_hash(payload: dict) -> str:
    """Short stable digest of a configuration, its values JSON values or
    records (in their JSON form), for provenance."""
    blob = json.dumps(_json(payload), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def template_tails(controls: ControlPoints, clip: tuple[float, float] | None,
                   v_min: float, v_max: float, gate: float,
                   provenance: Provenance) -> TailSpec:
    """Tails squeezing a dual-scaled support [v_min, v_max] into ``clip``: the
    one firing rule for the template and every image.  A tail fires when the
    support overshoots its clip bound by more than ``gate`` times the room
    between that bound and its control intensity, and bends over the source
    extreme recorded in ``provenance`` or, when none is, over the support's
    own."""
    if clip is None:
        return TailSpec()
    lo, hi = clip
    src_max, src_min = provenance.tail_source_max, provenance.tail_source_min
    return TailSpec(v_T=controls.t_T, v_max=v_max if src_max is None else src_max, v_clipT=hi,
                    v_B=controls.t_B, v_min=v_min if src_min is None else src_min, v_clipB=lo,
                    enabled_top=v_max - hi > gate * (hi - controls.t_T),
                    enabled_bottom=lo - v_min > gate * (controls.t_B - lo))


def _member_cdf(vol, grid_size: int) -> EmpiricalCdf:
    """The CDF of one z-scored cohort member, from one sort of its foreground
    in the stored dtype: the z-score never descends, so the curve reads the
    sorted foreground through it at the rank knots (a level table maps its
    levels), and the member is never z-scored voxel by voxel."""
    return build_cdf(zscore_standardize(IntensityIndex.of(vol).sorted_foreground()),
                     grid_size=grid_size)


def _pool_size() -> int:
    """Threads for the cohort: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _member_cdfs(cohort, grid_size: int) -> tuple[list[EmpiricalCdf], str]:
    """Each member's CDF, in cohort order, and the first member's channel.

    Members are taken from ``cohort`` on this thread, one more only when
    at most one waits beyond the running ones, so a generator reads each
    just before a thread can take it, and no member is held once its CDF is
    made.  Results are read in cohort order: the error raised is the first
    failure in that order, whichever thread failed first."""
    threads = _pool_size()
    cdfs, pending, channel = [], deque(), None
    members = iter(cohort)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        while True:
            try:
                vol = next(members)
            except StopIteration:
                break
            except Exception:
                for future in pending:  # a member before the unreadable one fails first
                    future.result()
                raise
            channel = vol.channel if channel is None else channel
            pending.append(pool.submit(_member_cdf, vol, grid_size))
            del vol  # its work item holds it until its CDF is made
            if len(pending) > threads:
                cdfs.append(pending.popleft().result())
        cdfs.extend(future.result() for future in pending)
    if not cdfs:
        raise EmptyCohort("cannot build a template from an empty cohort")
    return cdfs, channel


def build_template(cohort, controls: ControlPoints = DEFAULT_CONTROLS,
                   clip: tuple[float, float] | None = DEFAULT_CLIP,
                   config: FitConfig | None = None,
                   grid_size: int = DEFAULT_GRID_SIZE,
                   channel: str | None = None) -> TemplateCdf:
    """Build a TemplateCdf from a training cohort, any iterable of volumes.

    Pipeline: z-score each volume and estimate its CDF (one sort of its
    foreground in the stored dtype), average them, fit the average to the
    control points, map the grid through the fitted dual-scaling, then shrink
    the tails toward the clip bounds when a clip range is given.  Members
    are mapped on a thread pool, one thread per CPU the process may run on,
    and taken from ``cohort`` only as a thread nears free, so a generator
    that reads them (``(read_volume(p) for p in paths)``) holds a few at a
    time, never the whole cohort.  Deterministic and invariant to cohort
    ordering, to the order of each member's voxels and to the thread count.
    """
    grid_size = whole_number(grid_size, "grid_size", least=2)
    if channel is not None and not isinstance(channel, str):
        raise ValueError(f"channel must be a string, got {channel!r}")
    config = config or FitConfig()
    if clip is not None:
        clip = finite_interval(clip, "clip range")
        controls.check_clip(clip)

    cdfs, first_channel = _member_cdfs(cohort, grid_size)
    avg = average_cdfs(cdfs, grid_size=grid_size)
    fit = fit_template_to_controls(avg, controls, config)

    xs = np.asarray(lut_ds(avg.xs, fit.params))
    # squeeze a tail whenever the fitted support overshoots its bound (gate
    # 0); the pre-squeeze extremes are recorded so harmonized images are
    # bent by the same TailSpec
    tails = template_tails(controls, clip, float(xs[0]), float(xs[-1]), 0.0, Provenance())
    provenance = Provenance(
        cohort_size=len(cdfs),
        config_hash=config_hash({"controls": controls, "clip": clip,
                                 "grid_size": grid_size, "fit": config}),
        tail_source_max=tails.v_max if tails.enabled_top else None,
        tail_source_min=tails.v_min if tails.enabled_bottom else None)
    xs = tails.apply(xs)

    channel = first_channel if channel is None else channel
    try:
        return TemplateCdf(EmpiricalCdf(xs, avg.ps, n_samples=avg.n_samples),
                           controls, clip, channel, provenance)
    except ValueError as exc:
        raise Infeasible(f"cannot build a template from this cohort: {exc}") from exc


def save_template(template: TemplateCdf, path) -> Path:
    """Write a template as schema-v1 JSON; floats round-trip exactly."""
    return write_json(path, "template", template.to_dict())


def load_template(path) -> TemplateCdf:
    """Read a template written by :func:`save_template`."""
    doc = read_json(path, "template", SchemaMismatch)
    try:
        return TemplateCdf.from_dict(doc)
    except (KeyError, TypeError, ValueError, SchemaMismatch) as exc:
        raise SchemaMismatch(f"malformed template file {path}: {exc!r}") from exc
