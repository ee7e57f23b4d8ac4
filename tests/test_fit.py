"""Tests for the constrained quantile-domain curve fit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import erf
from scipy.stats import norm

from cdfmatch import (ControlPoints, DualScaleParams, EmpiricalCdf, FitConfig,
                      PivotTriple, TailSpec, TemplateCdf, blend, fit_cdf,
                      fit_template_to_controls, lut_ds, quantile)
from cdfmatch.errors import DegenerateCdf, Infeasible
from cdfmatch.fit import _solve
from cdfmatch.transform import MONOTONE_RATIO

from conftest import cdf_from_samples

CONTROL_PS = (0.1, 0.5, 0.99)
EQUIVARIANCE_BASE = np.random.default_rng(61).lognormal(0.4, 0.5, 25_000)
S3_CONTROLS = ControlPoints((0.1, 500.0), (0.5, 1650.0), (0.99, 3300.0))


def template_around(cdf: EmpiricalCdf) -> TemplateCdf:
    """Wrap a CDF as a fit target anchored at its own control quantiles."""
    controls = ControlPoints(*[(p, float(quantile(cdf, p))) for p in CONTROL_PS])
    return TemplateCdf(cdf, controls, clip=None)


def standard_normal_cdf(grid_size: int = 4001) -> EmpiricalCdf:
    xs = np.linspace(-5.0, 5.0, grid_size)
    ps = norm.cdf(xs)
    return EmpiricalCdf(xs, ps / ps[-1])


def quantile_objective(image_cdf, template, params, grid):
    qi = np.asarray(quantile(image_cdf, grid))
    qt = np.asarray(quantile(template.cdf, grid))
    span = quantile(template.cdf, 0.99) - quantile(template.cdf, 0.1)
    r = (np.asarray(lut_ds(qi, params)) - qt) / span
    return float(np.mean(r * r))


class TestFitConfig:
    def test_grid_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            FitConfig(percentile_grid=np.array([0.1, 0.1, 0.5]))

    def test_grid_must_stay_inside_unit_interval(self):
        with pytest.raises(ValueError):
            FitConfig(percentile_grid=np.array([0.0, 0.5, 0.9]))

    @pytest.mark.parametrize("cap", [1.0, 0.5, MONOTONE_RATIO * (1.0 + 1e-15), 20.0,
                                     float("nan")])
    def test_ratio_cap_must_lie_in_one_to_rho_star(self, cap):
        with pytest.raises(ValueError, match="rho\\*"):
            FitConfig(ratio_cap=cap)

    def test_default_cap_is_rho_star(self):
        assert FitConfig().ratio_cap == MONOTONE_RATIO
        assert FitConfig(ratio_cap=MONOTONE_RATIO).to_dict()["ratio_cap"] == MONOTONE_RATIO

    def test_round_trips_through_dict(self):
        cfg = FitConfig(sigma_bounds=(0.1, 10.0), ratio_cap=5.0)
        again = FitConfig.from_dict(cfg.to_dict())
        assert again.sigma_bounds == cfg.sigma_bounds
        assert again.ratio_cap == cfg.ratio_cap
        assert np.array_equal(again.percentile_grid, cfg.percentile_grid)


class TestFitCdf:
    def test_self_fit_returns_identity(self, template_12bit):
        result = fit_cdf(template_12bit.cdf, template_12bit)
        span = template_12bit.controls.span
        assert result.params.sigma_B == pytest.approx(1.0, abs=0.02)
        assert result.params.sigma_T == pytest.approx(1.0, abs=0.02)
        assert result.params.gamma == pytest.approx(template_12bit.controls.t_M,
                                                    abs=0.005 * span)
        assert result.residual < 0.005 * span
        assert result.converged

    def test_synthetic_round_trip_recovers_parameters(self):
        rng = np.random.default_rng(55)
        src = rng.lognormal(0.4, 0.6, 30_000)
        src_cdf = cdf_from_samples(src)
        pivots = PivotTriple(*[float(quantile(src_cdf, p)) for p in CONTROL_PS])
        true = DualScaleParams(1.4, 0.7, 1650.0, pivots)
        target_cdf = cdf_from_samples(np.asarray(lut_ds(src, true)))
        fit = fit_cdf(src_cdf, template_around(target_cdf))
        assert fit.params.sigma_B == pytest.approx(1.4, rel=0.02)
        assert fit.params.sigma_T == pytest.approx(0.7, rel=0.02)
        assert fit.params.gamma == pytest.approx(1650.0, rel=0.02)

    def test_bimodal_image_converges_with_residual(self, template_12bit):
        rng = np.random.default_rng(77)
        values = np.concatenate([rng.normal(80.0, 10.0, 8000),
                                 rng.normal(300.0, 35.0, 8000)])
        fit = fit_cdf(cdf_from_samples(values), template_12bit)
        assert fit.converged
        assert fit.residual > 0.0

    def test_degenerate_image_quantiles_raise(self, template_12bit):
        # nearly all mass below the support start: the 0.1 and 0.5 quantiles
        # both clamp to the same intensity
        flat = EmpiricalCdf([0.0, 1.0, 2.0], [0.999, 0.999, 1.0])
        with pytest.raises(DegenerateCdf):
            fit_cdf(flat, template_12bit)

    def test_deterministic_bitwise(self, template_12bit):
        image = cdf_from_samples(np.random.default_rng(5).lognormal(0.3, 0.5, 20_000))
        a = fit_cdf(image, template_12bit)
        b = fit_cdf(image, template_12bit)
        assert a.params == b.params
        assert a.residual == b.residual
        assert a.iterations == b.iterations

    def test_never_worse_than_uniform_scaling_start(self, template_12bit):
        grid = FitConfig().percentile_grid
        rng = np.random.default_rng(31)
        image = cdf_from_samples(rng.lognormal(0.1, 0.9, 20_000))
        fit = fit_cdf(image, template_12bit)
        pivots = PivotTriple(*[float(quantile(image, p)) for p in CONTROL_PS])
        anchors = [float(quantile(template_12bit.cdf, p)) for p in CONTROL_PS]
        sigma_ref = (anchors[2] - anchors[0]) / (pivots.v_T - pivots.v_B)
        uniform = DualScaleParams(sigma_ref, sigma_ref, anchors[1], pivots)
        assert (quantile_objective(image, template_12bit, fit.params, grid)
                <= quantile_objective(image, template_12bit, uniform, grid) + 1e-15)

    def test_scale_equivariance(self, template_12bit):
        rng = np.random.default_rng(61)
        base = rng.lognormal(0.4, 0.5, 25_000)
        grid = np.linspace(0.05, 0.95, 46)
        span = template_12bit.controls.span
        ref_fit = fit_cdf(cdf_from_samples(base), template_12bit)
        mapped_ref = np.asarray(lut_ds(
            np.asarray(quantile(cdf_from_samples(base), grid)), ref_fit.params))
        for a in (0.25, 4.0):
            scaled_cdf = cdf_from_samples(a * base)
            fit = fit_cdf(scaled_cdf, template_12bit)
            assert fit.params.sigma_B == pytest.approx(ref_fit.params.sigma_B / a,
                                                       rel=1e-3)
            assert fit.params.sigma_T == pytest.approx(ref_fit.params.sigma_T / a,
                                                       rel=1e-3)
            mapped = np.asarray(lut_ds(
                np.asarray(quantile(scaled_cdf, grid)), fit.params))
            assert np.abs(mapped - mapped_ref).max() < 1e-3 * span

    def test_shift_equivariance(self, template_12bit):
        rng = np.random.default_rng(62)
        base = rng.lognormal(0.4, 0.5, 25_000)
        grid = np.linspace(0.05, 0.95, 46)
        span = template_12bit.controls.span
        ref_fit = fit_cdf(cdf_from_samples(base), template_12bit)
        mapped_ref = np.asarray(lut_ds(
            np.asarray(quantile(cdf_from_samples(base), grid)), ref_fit.params))
        for c in (-1000.0, 1000.0):
            shifted_cdf = cdf_from_samples(base + c)
            fit = fit_cdf(shifted_cdf, template_12bit)
            mapped = np.asarray(lut_ds(
                np.asarray(quantile(shifted_cdf, grid)), fit.params))
            assert np.abs(mapped - mapped_ref).max() < 1e-3 * span

    @given(gain=st.floats(0.1, 10.0), offset=st.floats(-1000.0, 1000.0))
    @settings(max_examples=30)
    def test_gain_and_offset_equivariance(self, template_12bit, gain, offset):
        # the fit is solved in units free of input gain and offset, so an
        # affine copy of the input gets the same mapping up to rounding
        grid = np.linspace(0.05, 0.95, 46)
        span = template_12bit.controls.span
        ref_cdf = cdf_from_samples(EQUIVARIANCE_BASE)
        ref_fit = fit_cdf(ref_cdf, template_12bit)
        mapped_ref = np.asarray(lut_ds(np.asarray(quantile(ref_cdf, grid)), ref_fit.params))
        moved_cdf = cdf_from_samples(gain * EQUIVARIANCE_BASE + offset)
        fit = fit_cdf(moved_cdf, template_12bit)
        assert fit.params.sigma_B == pytest.approx(ref_fit.params.sigma_B / gain, rel=1e-9)
        assert fit.params.sigma_T == pytest.approx(ref_fit.params.sigma_T / gain, rel=1e-9)
        mapped = np.asarray(lut_ds(np.asarray(quantile(moved_cdf, grid)), fit.params))
        assert np.abs(mapped - mapped_ref).max() <= 1e-9 * span

    @pytest.mark.parametrize("case", range(5))
    def test_randomized_round_trips(self, case):
        rng = np.random.default_rng(2000 + case)
        src = rng.lognormal(0.4, 0.6, 30_000)
        src_cdf = cdf_from_samples(src)
        pivots = PivotTriple(*[float(quantile(src_cdf, p)) for p in CONTROL_PS])
        true = DualScaleParams(float(rng.uniform(500, 1400)),
                               float(rng.uniform(500, 1400)),
                               float(rng.uniform(1400, 1900)), pivots)
        target_cdf = cdf_from_samples(np.asarray(lut_ds(src, true)))
        fit = fit_cdf(src_cdf, template_around(target_cdf))
        assert fit.params.sigma_B == pytest.approx(true.sigma_B, rel=0.02)
        assert fit.params.sigma_T == pytest.approx(true.sigma_T, rel=0.02)
        assert fit.params.gamma == pytest.approx(true.gamma, rel=0.02)

    def test_untailed_fit_takes_no_refine_steps(self, template_12bit):
        image = cdf_from_samples(np.random.default_rng(5).lognormal(0.3, 0.5, 20_000))
        fit = fit_cdf(image, template_12bit)
        assert fit.iterations == 0
        assert fit.converged

    def test_ratio_above_the_cap_lands_on_the_cap(self):
        rng = np.random.default_rng(89)
        src = rng.lognormal(0.4, 0.6, 30_000)
        src_cdf = cdf_from_samples(src)
        pivots = PivotTriple(*[float(quantile(src_cdf, p)) for p in CONTROL_PS])
        for sigma_B, sigma_T in ((3.0, 0.5), (0.5, 3.0)):
            true = DualScaleParams(sigma_B, sigma_T, 1600.0, pivots)
            target = template_around(cdf_from_samples(np.asarray(lut_ds(src, true))))
            fit = fit_cdf(src_cdf, target, FitConfig(ratio_cap=2.0))
            ratio = fit.params.sigma_B / fit.params.sigma_T
            expected = 2.0 if sigma_B > sigma_T else 0.5
            assert ratio == pytest.approx(expected, rel=1e-12)

    @given(shape=st.floats(0.3, 1.0), seed=st.integers(0, 2 ** 32 - 1),
           top=st.booleans(), bottom=st.booleans(),
           top_start=st.integers(50, 90), bottom_start=st.integers(5, 45))
    @settings(max_examples=30)
    def test_tailed_fit_never_worse_than_the_untailed_optimum(
            self, template_12bit, shape, seed, top, bottom, top_start, bottom_start):
        grid = FitConfig().percentile_grid
        image = cdf_from_samples(np.random.default_rng(seed).lognormal(0.5, shape, 20_000))
        qi = np.asarray(quantile(image, grid))
        qt = np.asarray(quantile(template_12bit.cdf, grid))
        # tails that start inside the grid's quantile range, so they bend the fit
        tails = TailSpec(v_T=qt[top_start], v_max=qt[-1] + 2000.0,
                         v_clipT=qt[top_start + 8], v_B=qt[bottom_start],
                         v_min=qt[0] - 500.0, v_clipB=qt[bottom_start - 4],
                         enabled_top=top, enabled_bottom=bottom)
        plain = fit_cdf(image, template_12bit)
        pushed = tails.apply(np.asarray(lut_ds(qi, plain.params)))
        untailed_residual = float(np.sqrt(np.mean((pushed - qt) ** 2)))
        fit = fit_cdf(image, template_12bit, tails=tails)
        assert fit.converged
        assert fit.residual <= untailed_residual * (1.0 + 1e-12)

    def test_tailed_fit_evaluates_each_point_once_and_one_slope_per_step(
            self, template_12bit, monkeypatch):
        # a trial evaluates the tailed values alone, and a step reads the slope
        # at the point the last step accepted: one slope per step and one at
        # the start, and no point is evaluated again once the refine settles
        calls = []
        for name in ("apply", "slope"):
            def counted(self, y, method=getattr(TailSpec, name), name=name):
                calls.append((name, np.array(y, dtype=np.float64).tobytes()))
                return method(self, y)

            monkeypatch.setattr(TailSpec, name, counted)
        grid = FitConfig().percentile_grid
        image = cdf_from_samples(np.random.default_rng(97).lognormal(0.5, 0.6, 20_000))
        qt = np.asarray(quantile(template_12bit.cdf, grid))
        tails = TailSpec(v_T=qt[70], v_max=qt[-1] + 2000.0, v_clipT=qt[78], v_B=qt[20],
                         v_min=qt[0] - 500.0, v_clipB=qt[16],
                         enabled_top=True, enabled_bottom=True)
        fit = fit_cdf(image, template_12bit, tails=tails)
        slopes = [y for name, y in calls if name == "slope"]
        trials = [y for name, y in calls if name == "apply"]
        assert fit.converged and fit.iterations >= 2
        assert len(slopes) <= fit.iterations + 1
        assert set(slopes) <= set(trials)
        # the last call is a trial, and no trial repeats a point: the refined
        # point is never scored again
        assert calls[-1][0] == "apply"
        assert len(set(trials)) == len(trials)


def _reference_solve(m, rhs, lo, hi, cap):
    """SLSQP on the same problem with both cap faces as inequality
    constraints, best of three starts; the columns past the two scale
    factors are free.  Its points are projected onto the box and the cap
    first, so the cost returned is that of a feasible point."""
    free = m.shape[1] - 2
    cons = [{"type": "ineq", "fun": lambda x: cap * x[1] - x[0],
             "jac": lambda x: np.array([-1.0, cap] + [0.0] * free)},
            {"type": "ineq", "fun": lambda x: cap * x[0] - x[1],
             "jac": lambda x: np.array([cap, -1.0] + [0.0] * free)}]
    costs = []
    for u in (1.0, lo, hi / cap):
        x = minimize(lambda x: float(np.sum((m @ x - rhs) ** 2)),
                     np.array([u, u] + [0.0] * free),
                     jac=lambda x: 2.0 * m.T @ (m @ x - rhs), method="SLSQP",
                     bounds=[(lo, hi), (lo, hi)] + [(None, None)] * free, constraints=cons,
                     options={"ftol": 1e-15, "maxiter": 500}).x
        x[:2] = np.clip(x[:2], lo, hi)
        big = int(x[1] > x[0])
        x[big] = min(x[big], cap * x[1 - big])
        costs.append(float(np.sum((m @ x - rhs) ** 2)))
    return min(costs)


@st.composite
def _capped_systems(draw):
    """A least-squares system in (u_B, u_T) and, unless it has the anchor
    fit's shape, a free shift g, whose unconstrained optimum may break the
    ratio cap on either side, stay inside it, or leave the box.  Two kinds
    of draw put the true point anywhere, since no cap face need hold their
    optimum: the two scale columns equal (rank-deficient), and a box the
    cap never cuts (cap * lo >= hi), whose polygon has edges shrunk to
    points."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cap = draw(st.sampled_from([2.0, MONOTONE_RATIO]))
    kind = draw(st.sampled_from(["plain", "equal columns", "narrow box"]))
    lo, hi = (0.8, 1.5) if kind == "narrow box" else (0.05, 20.0)
    free = draw(st.sampled_from([0, 1]))
    n = draw(st.integers(5, 99)) if free else draw(st.integers(2, 9))
    if draw(st.booleans()):
        # the fit's own structure: dq times the blend weight and its complement
        dq = np.sort(rng.uniform(-0.6, 0.6, n))
        b = 0.5 * (1.0 - erf(2.0 * dq / rng.uniform(0.3, 1.0)))
        m = np.column_stack([dq * b, dq * (1.0 - b), np.ones(n)])
    else:
        m = np.column_stack([rng.normal(size=(n, 2)), np.ones(n)])
    if kind == "equal columns":
        m[:, 1] = m[:, 0]
    face = "anywhere"
    if kind == "plain":
        face = draw(st.sampled_from(["B", "T", "inside", "anywhere"]))
    if face == "anywhere":
        u = np.exp(rng.uniform(np.log(lo) - 1.0, np.log(hi) + 1.0, 2))
    else:
        ratio = cap * rng.uniform(1.2, 4.0) if face != "inside" else rng.uniform(1.0, cap)
        small = rng.uniform(2.0 * lo, 0.5 * hi / ratio)
        u = np.array([ratio * small, small] if face != "T" else [small, ratio * small])
    x_true = np.array([u[0], u[1], rng.normal()])[:2 + free]
    m = m[:, :2 + free]
    noise = draw(st.sampled_from([0.0, 0.01, 0.3]))
    rhs = m @ x_true + noise * rng.normal(size=n)
    return m, rhs, lo, hi, cap, face, noise


class TestBoundedSolve:
    @given(system=_capped_systems())
    @settings(max_examples=300)
    def test_never_worse_than_slsqp_and_always_feasible(self, system):
        m, rhs, lo, hi, cap, face, noise = system
        x = _solve(m, rhs, FitConfig(sigma_bounds=(lo, hi), ratio_cap=cap))
        assert lo <= x[0] <= hi and lo <= x[1] <= hi
        assert max(x[0], x[1]) <= cap * min(x[0], x[1]) * (1.0 + 1e-12)
        cost = float(np.sum((m @ x - rhs) ** 2))
        reference = _reference_solve(m, rhs, lo, hi, cap)
        # an exact fit leaves only rounding, so an absolute floor scaled by
        # the right-hand side stands in for the relative bound there
        assert cost <= reference * (1.0 + 1e-9) + 1e-24 * float(rhs @ rhs)
        if face in ("B", "T") and noise == 0.0:
            # the exact fit breaks the cap, so the optimum sits on its face
            big, small = (x[0], x[1]) if face == "B" else (x[1], x[0])
            assert big == pytest.approx(cap * small, rel=1e-12)


class TestFitTemplateToControls:
    def test_fixed_point_when_curve_passes_through_controls(self, template_12bit):
        result = fit_template_to_controls(template_12bit.cdf,
                                          template_12bit.controls)
        assert result.params.sigma_B == pytest.approx(1.0, abs=0.02)
        assert result.params.sigma_T == pytest.approx(1.0, abs=0.02)
        assert result.params.gamma == template_12bit.controls.t_M
        assert result.residual < 1e-6 * template_12bit.controls.span

    def test_standard_normal_with_published_controls(self):
        result = fit_template_to_controls(standard_normal_cdf(), S3_CONTROLS)
        # two-point slope oracle on exact normal quantiles
        sigma_b_oracle = (1650.0 - 500.0) / (norm.ppf(0.5) - norm.ppf(0.1))
        sigma_t_oracle = (3300.0 - 1650.0) / (norm.ppf(0.99) - norm.ppf(0.5))
        assert sigma_b_oracle == pytest.approx(897.3, abs=0.5)
        assert sigma_t_oracle == pytest.approx(709.3, abs=0.5)
        assert result.params.sigma_B == pytest.approx(sigma_b_oracle, rel=0.01)
        assert result.params.sigma_T == pytest.approx(sigma_t_oracle, rel=0.01)
        assert result.params.gamma == 1650.0
        assert result.converged

    def test_anchor_residuals_vanish(self):
        result = fit_template_to_controls(standard_normal_cdf(), S3_CONTROLS)
        fitted = [float(lut_ds(quantile(standard_normal_cdf(), p), result.params))
                  for p in CONTROL_PS]
        targets = [500.0, 1650.0, 3300.0]
        span = S3_CONTROLS.span
        assert max(abs(f - t) for f, t in zip(fitted, targets)) < 1e-6 * span

    def test_unreachable_controls_are_infeasible(self):
        controls = ControlPoints((0.1, 100.0), (0.5, 101.0), (0.99, 3300.0))
        with pytest.raises(Infeasible):
            fit_template_to_controls(standard_normal_cdf(), controls)

    def test_ratio_cap_violation_is_infeasible(self):
        # feasible within wide bounds, but the demanded ratio (~126) breaks
        # the default cap
        controls = ControlPoints((0.1, 1000.0), (0.5, 1010.0), (0.99, 3300.0))
        cfg = FitConfig(sigma_bounds=(1e-4, 1e4))
        with pytest.raises(Infeasible):
            fit_template_to_controls(standard_normal_cdf(), controls, cfg)

    def test_blend_constants_match_the_transform(self):
        # anchor equations reuse the transform's own blend values
        pivots = PivotTriple(-1.2816, 0.0, 2.3263)
        assert blend(pivots.v_B, pivots) == pytest.approx(0.99766, abs=1e-4)
        assert blend(pivots.v_T, pivots) == pytest.approx(0.00234, abs=1e-4)

    def test_degenerate_average_cdf_raises(self):
        flat = EmpiricalCdf([0.0, 1.0, 2.0], [0.999, 0.999, 1.0])
        with pytest.raises(DegenerateCdf):
            fit_template_to_controls(flat, S3_CONTROLS)

    def test_deterministic_bitwise_template_fit(self):
        a = fit_template_to_controls(standard_normal_cdf(), S3_CONTROLS)
        b = fit_template_to_controls(standard_normal_cdf(), S3_CONTROLS)
        assert a.params == b.params and a.residual == b.residual
