"""Constrained curve fitting that aligns an image CDF with a template CDF.

Residuals live in the quantile domain: intensities at matched percentiles
are compared, which keeps the objective smooth in the three parameters
(two scale factors and a shift).  Scale-factor bounds and the ratio cap act
on normalized factors (sigma divided by the overall control-span slope), so
the same defaults work for inputs of any intensity range and the fit stays
equivariant under input gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy.optimize import lsq_linear, minimize

from .cdf import EmpiricalCdf, quantile
from .errors import DegenerateCdf, Infeasible
from .transform import DualScaleParams, PivotTriple, TailSpec, blend

if TYPE_CHECKING:  # pragma: no cover
    from .template import ControlPoints, TemplateCdf

LOSS_L2_QUANTILE = "l2_quantile"
LOSS_HUBER_QUANTILE = "huber_quantile"
_LOSSES = (LOSS_L2_QUANTILE, LOSS_HUBER_QUANTILE)

_RATIO_PENALTY = 1e6


def _default_percentile_grid() -> np.ndarray:
    grid = np.linspace(0.01, 0.99, 99)
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the quantile-domain fit.

    ``tol`` is the relative convergence tolerance of the simplex search
    (xatol on the normalized parameters, tol**2 as fatol on the normalized
    objective).  ``huber_delta`` is the Huber corner in units of the template
    control span and only matters for the huber loss.
    """

    percentile_grid: np.ndarray = field(default_factory=_default_percentile_grid)
    sigma_bounds: tuple[float, float] = (0.05, 20.0)
    ratio_cap: float = 20.0
    max_iters: int = 500
    tol: float = 1e-6
    loss: str = LOSS_L2_QUANTILE
    huber_delta: float = 0.05

    def __post_init__(self):
        grid = np.array(self.percentile_grid, dtype=np.float64)
        grid.flags.writeable = False
        if grid.size < 3 or (np.diff(grid) <= 0).any():
            raise ValueError("percentile_grid must be strictly increasing with >= 3 points")
        if grid[0] <= 0.0 or grid[-1] >= 1.0:
            raise ValueError("percentile_grid must lie strictly inside (0, 1)")
        object.__setattr__(self, "percentile_grid", grid)
        lo, hi = (float(self.sigma_bounds[0]), float(self.sigma_bounds[1]))
        if not 0.0 < lo < hi:
            raise ValueError(f"sigma_bounds must satisfy 0 < lo < hi, got {self.sigma_bounds!r}")
        object.__setattr__(self, "sigma_bounds", (lo, hi))
        if self.ratio_cap <= 1.0:
            raise ValueError("ratio_cap must exceed 1")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.loss not in _LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}, expected one of {_LOSSES}")

    def to_dict(self) -> dict:
        return {"percentile_grid": [float(p) for p in self.percentile_grid],
                "sigma_bounds": list(self.sigma_bounds),
                "ratio_cap": float(self.ratio_cap),
                "max_iters": int(self.max_iters),
                "tol": float(self.tol),
                "loss": self.loss,
                "huber_delta": float(self.huber_delta)}

    @classmethod
    def from_dict(cls, doc: dict) -> "FitConfig":
        kwargs = dict(doc)
        if "percentile_grid" in kwargs:
            kwargs["percentile_grid"] = np.array(kwargs["percentile_grid"], dtype=np.float64)
        if "sigma_bounds" in kwargs:
            kwargs["sigma_bounds"] = tuple(kwargs["sigma_bounds"])
        return cls(**kwargs)


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit: parameters, RMS quantile mismatch, bookkeeping."""

    params: DualScaleParams
    residual: float
    iterations: int
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "iterations", int(self.iterations))
        object.__setattr__(self, "converged", bool(self.converged))
        if self.residual < 0.0:
            raise ValueError("residual cannot be negative")

    def to_dict(self) -> dict:
        return {"params": self.params.to_dict(), "residual": self.residual,
                "iterations": self.iterations, "converged": self.converged}


def _control_percentiles(controls: "ControlPoints") -> np.ndarray:
    return np.array([controls.p_B, controls.p_M, controls.p_T], dtype=np.float64)


def _image_pivots(image_cdf: EmpiricalCdf, ctrl_ps: np.ndarray) -> PivotTriple:
    # pivot rule: the image's own quantiles at the control percentiles, so
    # the blending ramp covers the same distribution mass as the template's
    v = np.asarray(quantile(image_cdf, ctrl_ps))
    if not (v[0] < v[1] < v[2]):
        raise DegenerateCdf(
            f"image quantiles at the control percentiles collapse: {v.tolist()}")
    return PivotTriple(v[0], v[1], v[2])


def fit_cdf(image_cdf: EmpiricalCdf, template: "TemplateCdf",
            config: FitConfig | None = None, tails: TailSpec | None = None,
            initial: DualScaleParams | None = None) -> FitResult:
    """Find (sigma_B, sigma_T, gamma) aligning image quantiles with the template.

    Minimizes the configured loss of ``lut_ds(Q_image(p)) - Q_template(p)``
    over the percentile grid with a bounded Nelder-Mead simplex over
    (log sigma_B, log sigma_T, gamma).  Deterministic for identical inputs;
    when the iteration cap is hit the best parameters are still returned
    with ``converged`` set to False.

    When ``tails`` is given the prediction runs through the tail-shrinking
    maps, so the optimum accounts for the squeeze the pipeline will apply;
    ``initial`` adds a warm-start candidate (used by that refinement pass).
    """
    config = config or FitConfig()
    ctrl_ps = _control_percentiles(template.controls)
    pivots = _image_pivots(image_cdf, ctrl_ps)
    anchors = np.asarray(quantile(template.cdf, ctrl_ps))
    span = float(anchors[2] - anchors[0])
    if span <= 0.0:
        raise DegenerateCdf("template quantiles at the control percentiles collapse")

    grid = config.percentile_grid
    qi = np.asarray(quantile(image_cdf, grid))
    qt = np.asarray(quantile(template.cdf, grid))
    b = np.asarray(blend(qi, pivots))
    dq = qi - pivots.v_M
    sigma_ref = span / (pivots.v_T - pivots.v_B)
    lo, hi = config.sigma_bounds
    log_lo, log_hi = np.log(lo), np.log(hi)
    log_cap = np.log(config.ratio_cap)

    def predicted(theta: np.ndarray) -> np.ndarray:
        s_b = sigma_ref * np.exp(theta[0])
        s_t = sigma_ref * np.exp(theta[1])
        gamma = anchors[1] + theta[2] * span
        y = dq * (s_t + b * (s_b - s_t)) + gamma
        return y if tails is None else tails.apply(y)

    def objective(theta: np.ndarray) -> float:
        r = (predicted(theta) - qt) / span
        if config.loss == LOSS_L2_QUANTILE:
            val = float(np.mean(r * r))
        else:
            d = config.huber_delta
            a = np.abs(r)
            val = float(np.mean(np.where(a <= d, 0.5 * r * r, d * (a - 0.5 * d))))
        excess = abs(theta[0] - theta[1]) - log_cap
        if excess > 0.0:
            val += _RATIO_PENALTY * excess * excess
        return val

    def clip_theta(theta: np.ndarray) -> np.ndarray:
        theta = theta.copy()
        theta[0] = np.clip(theta[0], log_lo, log_hi)
        theta[1] = np.clip(theta[1], log_lo, log_hi)
        diff = theta[0] - theta[1]
        if abs(diff) > log_cap:
            mid = 0.5 * (theta[0] + theta[1])
            half = 0.5 * log_cap * np.sign(diff)
            theta[0] = np.clip(mid + half, log_lo, log_hi)
            theta[1] = np.clip(mid - half, log_lo, log_hi)
        return theta

    # two-point slope start: match the B->M and M->T quantile spans
    slope_b = (anchors[1] - anchors[0]) / (pivots.v_M - pivots.v_B)
    slope_t = (anchors[2] - anchors[1]) / (pivots.v_T - pivots.v_M)
    theta_two = clip_theta(np.array([
        np.log(np.clip(slope_b / sigma_ref, lo, hi)),
        np.log(np.clip(slope_t / sigma_ref, lo, hi)),
        0.0]))
    theta_uniform = np.zeros(3)
    theta_start = theta_two
    if initial is not None:
        theta_start = clip_theta(np.array([
            np.log(np.clip(initial.sigma_B / sigma_ref, lo, hi)),
            np.log(np.clip(initial.sigma_T / sigma_ref, lo, hi)),
            (initial.gamma - anchors[1]) / span]))

    res = minimize(objective, theta_start, method="Nelder-Mead",
                   bounds=[(log_lo, log_hi), (log_lo, log_hi), (-100.0, 100.0)],
                   options={"maxiter": config.max_iters,
                            "maxfev": 8 * config.max_iters,
                            "xatol": config.tol,
                            "fatol": config.tol ** 2})

    candidates = [clip_theta(np.asarray(res.x, dtype=np.float64)), theta_start,
                  theta_two, theta_uniform]
    # tie-break on flat objectives: prefer the vector closest to uniform scaling
    best = min(candidates,
               key=lambda t: (objective(t), float(np.dot(t, t))))

    s_b = float(sigma_ref * np.exp(best[0]))
    s_t = float(sigma_ref * np.exp(best[1]))
    gamma = float(anchors[1] + best[2] * span)
    params = DualScaleParams(s_b, s_t, gamma, pivots, ratio_cap=config.ratio_cap)
    residual = float(np.sqrt(np.mean((predicted(best) - qt) ** 2)))
    return FitResult(params, residual, iterations=int(res.nit),
                     converged=bool(res.success))


def fit_template_to_controls(avg_cdf: EmpiricalCdf, controls: "ControlPoints",
                             config: FitConfig | None = None) -> FitResult:
    """Solve the three-anchor system ``lut_ds(Q(p_i)) = t_i``.

    The shift is pinned exactly by the middle anchor (gamma = t_M because the
    middle pivot sits at Q(p_M)); the two scale factors come from a bounded
    2x2 linear least-squares solve in normalized units.  Raises Infeasible
    when no in-bounds solution reproduces the anchors.
    """
    config = config or FitConfig()
    ctrl_ps = _control_percentiles(controls)
    pivots = _image_pivots(avg_cdf, ctrl_ps)
    t = np.array([controls.t_B, controls.t_M, controls.t_T], dtype=np.float64)
    gamma = float(t[1])
    span = float(t[2] - t[0])
    sigma_ref = span / (pivots.v_T - pivots.v_B)

    b_bot = float(blend(pivots.v_B, pivots))
    b_top = float(blend(pivots.v_T, pivots))
    a_mat = np.array([
        [b_bot * (pivots.v_B - pivots.v_M), (1.0 - b_bot) * (pivots.v_B - pivots.v_M)],
        [b_top * (pivots.v_T - pivots.v_M), (1.0 - b_top) * (pivots.v_T - pivots.v_M)],
    ]) * sigma_ref
    rhs = np.array([t[0] - t[1], t[2] - t[1]])

    sol = lsq_linear(a_mat, rhs, bounds=config.sigma_bounds, method="bvls")
    sigma_hat = np.asarray(sol.x, dtype=np.float64)
    sigma = sigma_ref * sigma_hat
    ratio = float(sigma.max() / sigma.min())
    if ratio > config.ratio_cap * (1.0 + 1e-12):
        raise Infeasible(
            f"control points demand a scale ratio of {ratio:.3g} "
            f"(cap {config.ratio_cap:.3g})")
    misfit = a_mat @ sigma_hat - rhs
    if float(np.abs(misfit).max()) > 1e-6 * span:
        raise Infeasible(
            "control intensities are not reachable within the scale bounds "
            f"(worst anchor misfit {float(np.abs(misfit).max()):.4g})")

    params = DualScaleParams(float(sigma[0]), float(sigma[1]), gamma, pivots,
                             ratio_cap=config.ratio_cap)
    residual = float(np.sqrt(np.mean(np.concatenate([misfit, [0.0]]) ** 2)))
    return FitResult(params, residual, iterations=int(getattr(sol, "nit", 1) or 1),
                     converged=True)
