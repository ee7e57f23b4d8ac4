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

from .cdf import (DEFAULT_GRID_SIZE, DTYPES, EmpiricalCdf, IntensityIndex, Record, Volume,
                  build_cdf, ks_distance, quantile, whole_number, zscore_standardize)
from .errors import EmptyInput
from .fit import FitConfig, FitResult, fit_cdf
from .template import TemplateCdf, config_hash, template_tails
from .transform import IntensityLut, apply_lut, compose_lut, lut_ds, voxel_table

METHOD_PERCENTILE_STRETCH = "percentile_stretch"
METHOD_ZSCORE = "zscore"
METHOD_CDF_MATCH = "cdf_match"
ALL_METHODS = (METHOD_PERCENTILE_STRETCH, METHOD_ZSCORE, METHOD_CDF_MATCH)


@dataclass(frozen=True)
class HarmonizeOptions(Record):
    """Per-run knobs for the harmonization pipeline.

    ``dtype`` is the output dtype (u8, u16, i16 or f32) harmonized volumes
    come back in; None means u16 under ``bits``, else f32.
    """

    fit: FitConfig = field(default_factory=FitConfig)
    grid_size: int = DEFAULT_GRID_SIZE
    bits: int | None = None
    dtype: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "grid_size", whole_number(self.grid_size, "grid_size", least=2))
        if self.bits is not None:
            object.__setattr__(self, "bits", whole_number(self.bits, "bits"))
            if not 1 <= self.bits <= 16:  # the integer output dtypes are at most 16 bits wide
                raise ValueError(f"bits must lie in 1..16, got {self.bits}")
        if self.dtype is None:
            object.__setattr__(self, "dtype", "u16" if self.bits is not None else "f32")
        if self.dtype not in DTYPES:
            raise ValueError(f"unknown dtype {self.dtype!r}, expected one of {sorted(DTYPES)}")

    def hash(self) -> str:
        return config_hash(self.to_dict())


@dataclass(frozen=True)
class ChannelReport(Record):
    """Per-channel outcome: fit, KS distances, composed mapping, timing."""

    channel: str
    fit: FitResult
    pre_ks: float
    post_ks: float
    lut: IntensityLut
    wall_time_s: float

    def to_dict(self, include_timing: bool = False) -> dict:
        # timing stays out of serialized artifacts so reruns compare bitwise
        doc = super().to_dict()
        if not include_timing:
            del doc["wall_time_s"]
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


def harmonize(vol: Volume, template: TemplateCdf,
              options: HarmonizeOptions | None = None) -> tuple[Volume, ChannelReport]:
    """Harmonize one volume against a template.

    Steps: foreground CDF -> parameter fit -> composed monotone LUT (tails
    toward the template clip range, when it has one) -> voxel-wise mapping
    with background copied through, optionally quantized, stored in
    ``options.dtype``.  Every stage works on the volume's intensity index, so
    an integer-valued volume is mapped and stored once per intensity level
    and gathered into voxels at the end.  The post-CDF is taken over the
    values as stored; the output's ``background_value`` is the background as
    ``options.dtype`` stores it.  Never emits a non-monotone mapping: the
    fit holds the scale ratio to ``MONOTONE_RATIO``.

    The pre-CDF reads the foreground sorted once
    (:meth:`IntensityIndex.sorted_foreground`).  A volume that maps through
    the interpolated table (:func:`voxel_table`), which never descends, reads
    its post-CDF off those samples through the stored map, at their rank
    knots, and drops them before the mapping.  Any other volume takes it
    from the output: the exact map's erf may step down by one ulp.
    """
    options = options or HarmonizeOptions()
    started = time.perf_counter()
    q_range = None
    if options.bits is not None:
        q_range = quantization_range(template, options.bits)
    index = IntensityIndex.of(vol)
    fg = index.sorted_foreground()
    image_cdf = build_cdf(fg, grid_size=options.grid_size)
    pre_ks = ks_distance(image_cdf, template.cdf)
    fit = fit_cdf(image_cdf, template, options.fit)
    domain = image_cdf.support
    # the template's recorded source ranges bend every image as they bent
    # the template; the gate lets already-conforming data pass through
    v_min, v_max = (float(v) for v in lut_ds(np.array(domain), fit.params))
    tails = template_tails(template.controls, template.clip, v_min, v_max,
                           TAIL_SQUEEZE_GATE, template.provenance)
    if tails.enabled_top or tails.enabled_bottom:
        # refine against the composed map so the squeeze does not push
        # already-matched quantiles away from the template
        fit = fit_cdf(image_cdf, template, options.fit, tails=tails)
    lut = compose_lut(fit.params, tails, domain, clip=template.clip)
    table = voxel_table(lut, index, options.dtype, q_range)
    post_cdf = None
    if table is not None:
        post_cdf = build_cdf(fg.through(table, options.dtype, q_range),
                             grid_size=options.grid_size)
    del fg  # a sorted copy of the foreground, not to be held through the mapping
    mapped = apply_lut(index, lut, options.dtype, q_range, fn=table or lut.apply)
    del table  # nor the table through the gather
    if post_cdf is None:
        post_cdf = build_cdf(mapped, grid_size=options.grid_size)
    post_ks = ks_distance(post_cdf, template.cdf)
    out = mapped.to_volume()
    entry = ChannelReport(vol.channel, fit, pre_ks, post_ks, lut,
                          wall_time_s=time.perf_counter() - started)
    return out, entry


# ---------------------------------------------------------------------------
# baseline methods and the comparison harness


def percentile_stretch(vol: Volume, target: tuple[float, float]) -> Volume:
    """Affine map of the [Q(0.01), Q(0.99)] foreground span onto ``target``.

    The anchors are :func:`quantile` of the foreground's rank-knot CDF at
    ``DEFAULT_GRID_SIZE``, the percentiles every stage reads.  Values beyond
    them clamp to the target ends; background voxels pass through unchanged.
    Raises AllBackground when there is no foreground and DegenerateConstant
    when it holds one intensity.
    """
    index = IntensityIndex.of(vol)
    q_lo, q_hi = quantile(build_cdf(index), [0.01, 0.99])
    t_lo, t_hi = (float(target[0]), float(target[1]))
    scale = (t_hi - t_lo) / (q_hi - q_lo)
    return index.map_foreground(
        lambda x: np.clip(t_lo + (x.astype(np.float64) - q_lo) * scale,
                          t_lo, t_hi)).to_volume()


@dataclass(frozen=True)
class MethodMetrics(Record):
    """One row of the comparison table."""

    method: str
    mean_pairwise_ks: float
    mean_ks_to_template: float | None
    mean_range_utilization: float


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


def _range_utilization(cdf: EmpiricalCdf) -> float:
    """Q99 - Q01 over the foreground's span, its first and last knot."""
    q_lo, q_hi = quantile(cdf, [0.01, 0.99])
    return float((q_hi - q_lo) / (cdf.xs[-1] - cdf.xs[0]))


def evaluate_cohort(volumes, template: TemplateCdf, methods=ALL_METHODS,
                    options: HarmonizeOptions | None = None) -> list[MethodMetrics]:
    """Compare harmonization methods on a cohort.

    For each method: harmonize every volume, then report the mean pairwise KS
    distance between the harmonized CDFs, the mean KS distance to the
    template (CDF matching only), and the mean bulk range utilization
    (Q99 - Q01 over the full output span).  Every metric reads the rank-knot
    CDF of each output, its percentiles included (:func:`quantile`); an
    output is dropped once its CDF is built.
    """
    volumes = list(volumes)
    if len(volumes) < 2:
        raise EmptyInput("cohort evaluation needs at least two volumes")
    options = options or HarmonizeOptions()
    rows = []
    for method in methods:
        cdfs = [build_cdf(_apply_method(v, method, template, options),
                          grid_size=options.grid_size) for v in volumes]
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
            mean_range_utilization=float(np.mean([_range_utilization(c)
                                                  for c in cdfs]))))
    return rows
