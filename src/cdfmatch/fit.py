"""Constrained curve fitting that aligns an image CDF with a template CDF.

Residuals live in the quantile domain: intensities at matched percentiles
are compared, so the prediction is linear in the three parameters (two
scale factors and a shift) and the fit is a bounded linear least-squares
solve, refined by Gauss-Newton when tails bend it.  Scale-factor bounds
and the ratio cap act on normalized factors (sigma divided by the overall
control-span slope), so the same defaults work for inputs of any intensity
range and the fit stays equivariant under input gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .cdf import EmpiricalCdf, Record, finite_array, finite_interval, finite_number, quantile
from .errors import DegenerateCdf, Infeasible
from .transform import MONOTONE_RATIO, DualScaleParams, PivotTriple, TailSpec, blend

if TYPE_CHECKING:  # pragma: no cover
    from .template import ControlPoints, TemplateCdf

# Gauss-Newton refinement of the tailed fit: at most _REFINE_STEPS steps,
# each halved at most _HALVINGS times; it settles once a step lowers the
# squared residual by no more than _REFINE_RTOL of it
_REFINE_STEPS = 500
_HALVINGS = 40
_REFINE_RTOL = 1e-12


def _default_percentile_grid() -> np.ndarray:
    grid = np.linspace(0.01, 0.99, 99)
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class FitConfig(Record):
    """Knobs for the quantile-domain fit: the percentile grid the quantiles
    are compared on, bounds on the normalized scale factors, and the cap on
    their ratio, in (1, ``MONOTONE_RATIO``], past which the map decreases."""

    percentile_grid: np.ndarray = field(default_factory=_default_percentile_grid)
    sigma_bounds: tuple[float, float] = (0.05, 20.0)
    ratio_cap: float = MONOTONE_RATIO

    def __post_init__(self):
        grid = finite_array(self.percentile_grid, "percentile_grid")
        if grid.size < 3 or (np.diff(grid) <= 0).any():
            raise ValueError("percentile_grid must be strictly increasing with >= 3 points")
        if grid[0] <= 0.0 or grid[-1] >= 1.0:
            raise ValueError("percentile_grid must lie strictly inside (0, 1)")
        object.__setattr__(self, "percentile_grid", grid)
        lo, hi = finite_interval(self.sigma_bounds, "sigma_bounds")
        if lo <= 0.0:
            raise ValueError(f"sigma_bounds must satisfy 0 < lo < hi, got {self.sigma_bounds!r}")
        object.__setattr__(self, "sigma_bounds", (lo, hi))
        outside = ValueError(f"ratio_cap must lie in (1, rho* = {MONOTONE_RATIO!r}], the "
                             f"largest monotone scale ratio; got {self.ratio_cap!r}")
        cap = finite_number(self.ratio_cap, "ratio_cap", lambda _: outside)
        if not 1.0 < cap <= MONOTONE_RATIO:
            raise outside
        object.__setattr__(self, "ratio_cap", cap)


@dataclass(frozen=True)
class FitResult(Record):
    """Outcome of one fit: parameters, RMS quantile mismatch, bookkeeping."""

    params: DualScaleParams
    residual: float
    iterations: int
    converged: bool


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


def _design(q: np.ndarray, pivots: PivotTriple) -> np.ndarray:
    """Rows ``[dq * b, dq * (1 - b), 1]`` (``dq`` in pivot spans): with sigma =
    sigma_ref * u and gamma = a + g * span, ``lut_ds(q) = a + span * rows @ (u_B,
    u_T, g)``, and the rows are free of the input's gain and offset."""
    q = np.asarray(q, dtype=np.float64)
    b = np.asarray(blend(q, pivots))
    dq = (q - pivots.v_M) / (pivots.v_T - pivots.v_B)
    return np.column_stack([dq * b, dq * (1.0 - b), np.ones_like(dq)])


def _solve(m: np.ndarray, rhs: np.ndarray, config: FitConfig) -> np.ndarray:
    """Least-squares ``m @ x ~ rhs`` where ``x[:2]`` = (u_B, u_T) lie inside
    ``config.sigma_bounds`` with their ratio at most ``config.ratio_cap``, and
    ``x[2:]`` (the columns ``m[:, 2:]``, possibly none) are free.

    The problem is convex: when the unconstrained optimum leaves the feasible
    polygon, the box cut by the cap faces u_B = cap * u_T and u_T = cap * u_B,
    an optimum lies on one of its six edges, taken in order, each one solve in
    the position t along it (clamped to the edge) and the free columns.
    """
    (lo, hi), cap = config.sigma_bounds, config.ratio_cap
    x = np.linalg.lstsq(m, rhs, rcond=None)[0]
    if lo <= min(x[0], x[1]) and max(x[0], x[1]) <= min(hi, cap * min(x[0], x[1])):
        return x
    far, near = min(cap * lo, hi), max(hi / cap, lo)  # a cap face that misses the box is a point
    corners = np.array([(lo, lo), (far, lo), (hi, near), (hi, hi), (near, hi), (lo, far)])
    points = []
    for a, b in zip(corners, np.roll(corners, -1, axis=0)):
        edge = np.column_stack([m[:, :2] @ (b - a), m[:, 2:]])
        t, *z = np.linalg.lstsq(edge, rhs - m[:, :2] @ a, rcond=None)[0]
        u = np.clip(a + min(max(t, 0.0), 1.0) * (b - a), lo, hi)
        if not 0.0 <= t <= 1.0:
            z = np.linalg.lstsq(m[:, 2:], rhs - m[:, :2] @ u, rcond=None)[0]
        points.append(np.concatenate((u, z)))
    return min(points, key=lambda p: float(np.sum((m @ p - rhs) ** 2)))


def _refine(x: np.ndarray, m: np.ndarray, target: np.ndarray, tails: TailSpec, anchor: float,
            span: float, config: FitConfig) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Gauss-Newton from ``x`` on ``(tails.apply(y) - anchor) / span ~ target``,
    where ``y = anchor + span * (m @ x)``.  A trial evaluates the tailed
    values alone; each step is :func:`_solve` on the rows of ``m`` scaled by
    the tails' slope at the point the last step accepted, halved until it
    lowers the residual and then for as long as halving lowers it further.
    Returns the point, its residual, the steps taken and whether they settled
    within ``_REFINE_STEPS``."""
    def trial(x):
        y = anchor + span * (m @ x)
        r = (tails.apply(y) - anchor) / span - target
        return float(np.sum(r ** 2)), x, r, y

    cost, x, r, y = trial(x)
    for taken in range(_REFINE_STEPS):
        jac = tails.slope(y)[:, None] * m
        step = _solve(jac, jac @ x - r, config) - x
        best = trial(x + step)
        for _ in range(_HALVINGS):
            # halving while it helps also damps the zigzag the tails' kinks cause
            step *= 0.5
            half = trial(x + step)
            if best[0] < cost and half[0] >= best[0]:
                break
            best = half
        if best[0] >= cost:
            return x, r, taken, True  # no step along this direction lowers the residual
        settled = cost - best[0] <= _REFINE_RTOL * cost
        cost, x, r, y = best
        if settled:
            return x, r, taken + 1, True
    return x, r, _REFINE_STEPS, False


def fit_cdf(image_cdf: EmpiricalCdf, template: "TemplateCdf",
            config: FitConfig | None = None,
            tails: TailSpec | None = None) -> FitResult:
    """Find (sigma_B, sigma_T, gamma) aligning image quantiles with the template.

    Least squares on ``lut_ds(Q_image(p)) - Q_template(p)`` over the
    percentile grid, which is linear in the parameters: one bounded solve
    gives the exact optimum and ``iterations`` is 0.  With ``tails`` the
    prediction runs through the tail-shrinking maps, as the pipeline will
    apply them; Gauss-Newton steps from the untailed optimum refine it,
    ``iterations`` counts them, and ``converged`` is False only when they
    hit their cap.
    """
    config = config or FitConfig()
    ctrl_ps = _control_percentiles(template.controls)
    pivots = _image_pivots(image_cdf, ctrl_ps)
    anchors = np.asarray(quantile(template.cdf, ctrl_ps))
    span = float(anchors[2] - anchors[0])

    grid = config.percentile_grid
    qi = np.asarray(quantile(image_cdf, grid))
    target = (np.asarray(quantile(template.cdf, grid)) - anchors[1]) / span
    m = _design(qi, pivots)
    x = _solve(m, target, config)
    r, steps, converged = m @ x - target, 0, True
    if tails is not None:
        x, r, steps, converged = _refine(x, m, target, tails, anchors[1], span, config)

    sigma_ref = span / (pivots.v_T - pivots.v_B)
    params = DualScaleParams(sigma_ref * x[0], sigma_ref * x[1],
                             anchors[1] + x[2] * span, pivots)
    residual = span * float(np.sqrt(np.mean(r ** 2)))
    return FitResult(params, residual, iterations=steps, converged=converged)


def fit_template_to_controls(avg_cdf: EmpiricalCdf, controls: "ControlPoints",
                             config: FitConfig | None = None) -> FitResult:
    """Solve the three-anchor system ``lut_ds(Q(p_i)) = t_i``.

    The shift is pinned exactly by the middle anchor (gamma = t_M because the
    middle pivot sits at Q(p_M)); the two scale factors come from the bounded,
    capped solve :func:`fit_cdf` uses, on the two outer anchors' rows.  Raises
    Infeasible when its optimum misses an anchor by more than 1e-6 of the
    control span: no solution inside the bounds and the cap reproduces them.
    """
    config = config or FitConfig()
    pivots = _image_pivots(avg_cdf, _control_percentiles(controls))
    span = controls.span
    target = np.array([controls.t_B - controls.t_M, controls.t_T - controls.t_M]) / span
    m = _design([pivots.v_B, pivots.v_T], pivots)[:, :2]
    u = _solve(m, target, config)
    r = m @ u - target
    misfit = float(np.abs(r).max())
    if misfit > 1e-6:
        raise Infeasible(
            "control intensities are not reachable within the scale bounds and "
            f"ratio cap (worst anchor misfit {misfit * span:.4g})")
    sigma_ref = span / (pivots.v_T - pivots.v_B)
    params = DualScaleParams(sigma_ref * u[0], sigma_ref * u[1], controls.t_M, pivots)
    residual = span * float(np.sqrt(np.sum(r ** 2) / 3.0))  # the middle anchor is exact
    return FitResult(params, residual, iterations=0, converged=True)
