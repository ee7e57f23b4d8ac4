"""Single-volume harmonization and the baseline comparison harness.

The per-volume recipe is: estimate the image CDF, fit the dual-scaling
parameters against the template, compose the monotone mapping (with tail
shrinking toward the clip range), and apply it voxel-wise.  Reports carry the
fit, pre/post KS distances to the template, and a config hash; serialized
reports omit wall time so identical runs stay bitwise identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .cdf import (DEFAULT_GRID_SIZE, IntensityIndex, Volume, build_cdf,
                  ks_distance, zscore_standardize)
from .errors import AllBackground, DegenerateConstant, EmptyInput
from .fit import FitConfig, FitResult, fit_cdf
from .template import TemplateCdf, config_hash, template_tails
from .transform import IntensityLut, apply_lut, compose_lut, lut_ds

METHOD_PERCENTILE_STRETCH = "percentile_stretch"
METHOD_ZSCORE = "zscore"
METHOD_CDF_MATCH = "cdf_match"
ALL_METHODS = (METHOD_PERCENTILE_STRETCH, METHOD_ZSCORE, METHOD_CDF_MATCH)


@dataclass(frozen=True)
class HarmonizeOptions:
    """Per-run knobs for the harmonization pipeline."""

    fit: FitConfig = field(default_factory=FitConfig)
    grid_size: int = DEFAULT_GRID_SIZE
    bits: int | None = None

    def __post_init__(self):
        # the integer output dtypes are at most 16 bits wide
        if self.bits is not None and not 1 <= self.bits <= 16:
            raise ValueError(f"bits must lie in 1..16, got {self.bits}")

    def to_dict(self) -> dict:
        return {"fit": self.fit.to_dict(),
                "grid_size": int(self.grid_size),
                "bits": self.bits}

    def hash(self) -> str:
        return config_hash(self.to_dict())


@dataclass(frozen=True)
class ChannelReport:
    """Per-channel outcome: fit, KS distances, composed mapping, timing."""

    channel: str
    fit: FitResult
    pre_ks: float
    post_ks: float
    lut: IntensityLut
    wall_time_s: float

    def to_dict(self, include_timing: bool = False) -> dict:
        # timing stays out of serialized artifacts so reruns compare bitwise
        doc = {"channel": self.channel, "fit": self.fit.to_dict(),
               "pre_ks": self.pre_ks, "post_ks": self.post_ks,
               "lut": self.lut.to_dict()}
        if include_timing:
            doc["wall_time_s"] = self.wall_time_s
        return doc


# erf tail shrinking is built for long overshoots; below this fraction of
# the tail target range the hard clamp handles the sliver instead, which
# distorts proportionately while the erf squeeze would bend the whole tail
TAIL_SQUEEZE_GATE = 0.05


def quantization_range(template: TemplateCdf, bits: int) -> tuple[float, float]:
    """The interval ``bits``-deep output is rounded into: the template clip
    range when it has one, else 0..2^bits-1.  Raises ValueError when the
    interval holds more than 2^bits integers."""
    lo, hi = template.clip if template.clip is not None else (0.0, float(2 ** bits - 1))
    if np.rint(hi) - np.rint(lo) > 2 ** bits - 1:
        raise ValueError(f"cannot quantize the clip range [{lo:g}, {hi:g}] to "
                         f"{bits} bits: it holds more than {2 ** bits} levels")
    return lo, hi


def _quantize(index: IntensityIndex, lo: float, hi: float) -> IntensityIndex:
    bg = index.background_value
    levels = np.rint(np.clip(index.levels, lo, hi))  # ties round to even
    # a foreground level rounded onto the background value would become
    # background; the next level away keeps the output non-decreasing
    levels[levels == bg] = bg + 1.0 if bg + 1.0 <= hi else bg - 1.0
    levels[index.levels == bg] = bg
    return index.with_levels(levels)


def harmonize(vol: Volume, template: TemplateCdf,
              options: HarmonizeOptions | None = None) -> tuple[Volume, ChannelReport]:
    """Harmonize one volume against a template.

    Steps: foreground CDF -> parameter fit -> composed monotone LUT (tails
    toward the template clip range, when it has one) -> voxel-wise mapping
    with background copied through -> optional integer quantization.  Every
    stage works on the volume's intensity index, so an integer-valued volume
    is mapped once per intensity level and gathered into voxels at the end.
    Never emits a non-monotone mapping: composition fails loudly instead.
    """
    options = options or HarmonizeOptions()
    started = time.perf_counter()
    if options.bits is not None:
        q_range = quantization_range(template, options.bits)
    index = IntensityIndex.of(vol)
    image_cdf = build_cdf(index, grid_size=options.grid_size)
    pre_ks = ks_distance(image_cdf, template.cdf)
    fit = fit_cdf(image_cdf, template, options.fit)
    domain = image_cdf.support
    # the template's recorded source ranges bend every image as they bent
    # the template; the gate lets already-conforming data pass through
    v_min, v_max = (float(lut_ds(x, fit.params)) for x in domain)
    tails = template_tails(template.controls, template.clip, v_min, v_max,
                           TAIL_SQUEEZE_GATE, template.provenance)
    if tails.enabled_top or tails.enabled_bottom:
        # refine against the composed map so the squeeze does not push
        # already-matched quantiles away from the template
        fit = fit_cdf(image_cdf, template, options.fit, tails=tails)
    lut = compose_lut(fit.params, tails, domain, clip=template.clip)
    mapped = apply_lut(index, lut)
    if options.bits is not None:
        mapped = _quantize(mapped, *q_range)
    post_cdf = build_cdf(mapped, grid_size=options.grid_size)
    post_ks = ks_distance(post_cdf, template.cdf)
    out = mapped.to_volume()
    entry = ChannelReport(vol.channel, fit, pre_ks, post_ks, lut,
                          wall_time_s=time.perf_counter() - started)
    return out, entry


# ---------------------------------------------------------------------------
# baseline methods and the comparison harness


def percentile_stretch(vol: Volume, target: tuple[float, float],
                       lo_p: float = 0.01, hi_p: float = 0.99) -> Volume:
    """Affine map of the [Q(lo_p), Q(hi_p)] foreground span onto ``target``.

    Values beyond the anchor percentiles clamp to the target ends; background
    voxels pass through unchanged.  Raises AllBackground when there is no
    foreground.
    """
    fg = vol.foreground()
    if fg.size == 0:
        raise AllBackground("no foreground voxels to stretch")
    q_lo, q_hi = np.quantile(fg, [lo_p, hi_p])
    if q_hi <= q_lo:
        raise DegenerateConstant("percentile anchors collapse")
    t_lo, t_hi = (float(target[0]), float(target[1]))
    scale = (t_hi - t_lo) / (q_hi - q_lo)
    return IntensityIndex.of(vol).map_foreground(
        lambda x: np.clip(t_lo + (x.astype(np.float64) - q_lo) * scale,
                          t_lo, t_hi)).to_volume()


@dataclass(frozen=True)
class MethodMetrics:
    """One row of the comparison table."""

    method: str
    mean_pairwise_ks: float
    mean_ks_to_template: float | None
    mean_range_utilization: float

    def to_dict(self) -> dict:
        return {"method": self.method,
                "mean_pairwise_ks": self.mean_pairwise_ks,
                "mean_ks_to_template": self.mean_ks_to_template,
                "mean_range_utilization": self.mean_range_utilization}


def _stretch_target(template: TemplateCdf) -> tuple[float, float]:
    return template.clip if template.clip is not None else template.cdf.support


def _apply_method(vol: Volume, method: str, template: TemplateCdf,
                  options: HarmonizeOptions) -> Volume:
    if method == METHOD_PERCENTILE_STRETCH:
        return percentile_stretch(vol, _stretch_target(template))
    if method == METHOD_ZSCORE:
        return zscore_standardize(vol)
    if method == METHOD_CDF_MATCH:
        return harmonize(vol, template, options)[0]
    raise ValueError(f"unknown method {method!r}, expected one of {ALL_METHODS}")


def _range_utilization(vol: Volume) -> float:
    fg = vol.foreground()
    full = float(fg.max() - fg.min())
    if full == 0.0:
        return 0.0
    q_lo, q_hi = np.quantile(fg, [0.01, 0.99])
    return float((q_hi - q_lo) / full)


def evaluate_cohort(volumes, template: TemplateCdf, methods=ALL_METHODS,
                    options: HarmonizeOptions | None = None) -> list[MethodMetrics]:
    """Compare harmonization methods on a cohort.

    For each method: harmonize every volume, then report the mean pairwise KS
    distance between the harmonized CDFs, the mean KS distance to the
    template (CDF matching only), and the mean bulk range utilization
    (Q99 - Q01 over the full output span).
    """
    volumes = list(volumes)
    if len(volumes) < 2:
        raise EmptyInput("cohort evaluation needs at least two volumes")
    options = options or HarmonizeOptions()
    rows = []
    for method in methods:
        outs = [_apply_method(v, method, template, options) for v in volumes]
        cdfs = [build_cdf(o, grid_size=options.grid_size) for o in outs]
        pairs = [ks_distance(cdfs[i], cdfs[j])
                 for i in range(len(cdfs)) for j in range(i + 1, len(cdfs))]
        ks_to_template = None
        if method == METHOD_CDF_MATCH:
            ks_to_template = float(np.mean([ks_distance(c, template.cdf)
                                            for c in cdfs]))
        rows.append(MethodMetrics(
            method=method,
            mean_pairwise_ks=float(np.mean(pairs)),
            mean_ks_to_template=ks_to_template,
            mean_range_utilization=float(np.mean([_range_utilization(o)
                                                  for o in outs]))))
    return rows
