"""CDF-matching image intensity harmonization.

Builds a template CDF from a training cohort, then harmonizes new images by
elastically fitting their empirical CDF to the template with a constrained
dual-scaling transform and erf-based tail shrinking.
"""

__version__ = "0.1.0"

from . import errors
from .cdf import (DEFAULT_GRID_SIZE, EmpiricalCdf, Volume, average_cdfs,
                  build_cdf, cdf_value, ks_distance, quantile,
                  zscore_standardize)
from .fit import FitConfig, FitResult, fit_cdf, fit_template_to_controls
from .io import (LesionSpec, MixtureComponent, ScannerEffect, SynthSpec,
                 emit_cdf_plot, emit_lut_plot, generate_synthetic, load_lut,
                 read_cdf_csv, read_volume, save_lut, write_cdf_csv,
                 write_lut_csv, write_volume)
from .pipeline import (ALL_METHODS, METHOD_CDF_MATCH,
                       METHOD_PERCENTILE_STRETCH, METHOD_ZSCORE,
                       ChannelReport, HarmonizeOptions, MethodMetrics,
                       evaluate_cohort, harmonize, percentile_stretch)
from .template import (DEFAULT_CLIP, DEFAULT_CONTROLS, ControlPoints,
                       Provenance, TemplateCdf, build_template, load_template,
                       save_template)
from .transform import (DualScaleParams, IntensityLut, PivotTriple, TailSpec,
                        apply_lut, blend, compose_lut, lut_bottom_tail,
                        lut_ds, lut_top_tail, sigma_blend)

__all__ = [
    "__version__", "errors",
    "Volume", "EmpiricalCdf", "DEFAULT_GRID_SIZE",
    "build_cdf", "quantile", "cdf_value", "zscore_standardize",
    "average_cdfs", "ks_distance",
    "PivotTriple", "DualScaleParams", "TailSpec", "IntensityLut",
    "blend", "sigma_blend", "lut_ds", "lut_top_tail", "lut_bottom_tail",
    "compose_lut", "apply_lut",
    "FitConfig", "FitResult", "fit_cdf", "fit_template_to_controls",
    "ControlPoints", "Provenance", "TemplateCdf", "build_template", "save_template",
    "load_template", "DEFAULT_CONTROLS", "DEFAULT_CLIP",
    "HarmonizeOptions", "ChannelReport", "MethodMetrics", "harmonize",
    "evaluate_cohort", "percentile_stretch",
    "METHOD_PERCENTILE_STRETCH", "METHOD_ZSCORE", "METHOD_CDF_MATCH",
    "ALL_METHODS",
    "SynthSpec", "MixtureComponent", "ScannerEffect", "LesionSpec",
    "generate_synthetic", "read_volume", "write_volume",
    "emit_cdf_plot", "emit_lut_plot", "write_cdf_csv", "read_cdf_csv",
    "write_lut_csv", "save_lut", "load_lut",
]
