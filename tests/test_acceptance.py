"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
under a plain run pytest shows them for failing criteria only.
"""

import json
import math
from pathlib import Path

import numpy as np

from cdfmatch import (DualScaleParams, EmpiricalCdf, PivotTriple, TailSpec,
                      blend, build_cdf, compose_lut, emit_cdf_plot, fit_cdf,
                      generate_synthetic, harmonize, ks_distance,
                      lut_bottom_tail, lut_ds, lut_top_tail, quantile,
                      zscore_standardize)
from cdfmatch.cli import run

from conftest import (T2_COMPONENTS, cdf_from_samples, scanner_cohort,
                      scanner_effect, t2_spec)


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_01_formula_fidelity():
    pivots = PivotTriple(100.0, 250.0, 400.0)
    exact_half = blend(pivots.v_M, pivots) == 0.5
    closed_form = 1.0 - (math.erf(-2.0) + 1.0) / 2.0
    bottom_ok = abs(blend(pivots.v_B, pivots) - closed_form) < 1e-9
    # erf plateau stated as (-0.995, 0.995): erf(2) = 0.99532...
    range_ok = abs(math.erf(2.0) - 0.9953) < 1e-3
    report(1, "sigmoidal blend hits 0.5 at the middle pivot and the erf(2) "
              "closed form at the bottom pivot",
           exact_half and bottom_ok and range_ok,
           f"blend(v_B)={blend(pivots.v_B, pivots):.7f}")


def test_criterion_02_uniform_scaling_degeneracy():
    rng = np.random.default_rng(202)
    pivots = PivotTriple(10.0, 60.0, 200.0)
    params = DualScaleParams(3.7, 3.7, 44.0, pivots)
    xs = rng.uniform(-500.0, 700.0, 10_000)
    got = np.asarray(lut_ds(xs, params))
    want = (xs - 60.0) * 3.7 + 44.0
    err = float(np.abs(got - want).max() / max(1.0, np.abs(want).max()))
    report(2, "equal scale factors reduce the dual-scaling map to the affine "
              "map within 1e-12 over 10^4 points", err < 1e-12, f"rel err {err:.2e}")


def test_criterion_03_tail_containment():
    v_t, v_max, v_clip_t = 3300.0, 5418.0, 4095.0
    v_b, v_min, v_clip_b = 500.0, 5.0, 1.0
    params = DualScaleParams(1.0, 1.0, 1650.0, PivotTriple(v_b, 1650.0, v_t))
    tails = TailSpec(v_T=v_t, v_max=v_max, v_clipT=v_clip_t,
                     v_B=v_b, v_min=v_min, v_clipB=v_clip_b,
                     enabled_top=True, enabled_bottom=True)
    lut = compose_lut(params, tails, (v_min, v_max), clip=(v_clip_b, v_clip_t))
    grid = np.linspace(v_min, v_max, 4096)
    mapped = np.asarray(lut.apply(grid))
    contained = mapped.min() >= v_clip_b and mapped.max() <= v_clip_t
    monotone = (np.diff(mapped) >= 0).all()
    r_t = v_clip_t - v_t
    expected_top = v_clip_t - r_t * (1.0 - math.erf(2.0))
    top_value = float(lut_top_tail(v_max, v_t, v_max, v_clip_t))
    top_ok = abs(top_value - expected_top) <= 0.005 * abs(expected_top)
    report(3, "published 12-bit configuration maps source range (5, 5418) "
              "into [1, 4095] monotonically",
           contained and monotone and top_ok,
           f"top value {top_value:.2f} vs {expected_top:.2f}")


def test_criterion_04_reflection_identity():
    v_b, v_min, v_clip_b, v_max = 500.0, 5.0, 1.0, 5418.0
    xs = np.linspace(-800.0, v_max, 4096)
    direct = np.asarray(lut_bottom_tail(xs, v_b, v_min, v_clip_b))
    composed = v_max - np.asarray(lut_top_tail(v_max - xs, v_max - v_b,
                                               v_max - v_min, v_max - v_clip_b))
    rel = float((np.abs(direct - composed)
                 / np.maximum(np.abs(composed), 1.0)).max())
    report(4, "bottom tail equals the reflected top-tail composition at 4096 "
              "points within 1e-9 relative", rel < 1e-9, f"max rel {rel:.2e}")


def test_criterion_05_parameter_recovery():
    control_ps = (0.1, 0.5, 0.99)
    successes = 0
    for case in range(50):
        rng = np.random.default_rng(1000 + case)
        src = rng.lognormal(0.4, 0.6, 30_000)
        src_cdf = cdf_from_samples(src)
        pivots = PivotTriple(*[float(quantile(src_cdf, p)) for p in control_ps])
        true = DualScaleParams(float(rng.uniform(500, 1400)),
                               float(rng.uniform(500, 1400)),
                               float(rng.uniform(1400, 1900)), pivots)
        target_cdf = cdf_from_samples(np.asarray(lut_ds(src, true)))
        from cdfmatch import ControlPoints, TemplateCdf
        controls = ControlPoints(*[(p, float(quantile(target_cdf, p)))
                                   for p in control_ps])
        fitted = fit_cdf(src_cdf, TemplateCdf(target_cdf, controls, clip=None))
        p = fitted.params
        errs = (abs(p.sigma_B - true.sigma_B) / true.sigma_B,
                abs(p.sigma_T - true.sigma_T) / true.sigma_T,
                abs(p.gamma - true.gamma) / abs(true.gamma))
        successes += max(errs) <= 0.02
    report(5, "50 fixed-seed synthetic round-trips recover the parameters "
              "within 2% relative in at least 95% of cases",
           successes >= 48, f"{successes}/50 within 2%")


def test_criterion_06_workflow_reproduction(template_12bit, tmp_path):
    cohort = scanner_cohort(9)
    raw_cdfs = [(f"raw{i}", build_cdf(v)) for i, v in enumerate(cohort)]
    z_cdfs = [(f"z{i}", build_cdf(zscore_standardize(v)))
              for i, v in enumerate(cohort)]
    harmonized = [harmonize(v, template_12bit)[0] for v in cohort]
    harm_cdfs = [(f"h{i}", build_cdf(v)) for i, v in enumerate(harmonized)]

    c = template_12bit.controls
    emit_cdf_plot(raw_cdfs, tmp_path / "panel_a_raw.svg",
                  style={"title": "raw CDFs"})
    emit_cdf_plot(z_cdfs, tmp_path / "panel_b_zscore.svg",
                  style={"title": "z-scored CDFs"})
    emit_cdf_plot([("template", template_12bit.cdf)],
                  tmp_path / "panel_c_template.svg",
                  style={"title": "fitted template"},
                  markers=[(c.t_B, c.p_B, "bottom"), (c.t_M, c.p_M, "middle"),
                           (c.t_T, c.p_T, "top")])
    emit_cdf_plot(harm_cdfs + [("template", template_12bit.cdf)],
                  tmp_path / "panel_d_harmonized.svg",
                  style={"title": "harmonized CDFs"})
    panels = ["panel_a_raw", "panel_b_zscore", "panel_c_template",
              "panel_d_harmonized"]
    files_ok = all((tmp_path / f"{p}.svg").exists()
                   and (tmp_path / f"{p}.svg.csv").exists() for p in panels)

    # recompute the deviations from the emitted CSV, not from memory
    rows = (tmp_path / "panel_d_harmonized.svg.csv").read_text().splitlines()[1:]
    curves: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        label, x, p = row.split(",")
        curves.setdefault(label, []).append((float(x), float(p)))
    tpl_pairs = np.array(curves.pop("template"))
    tpl = EmpiricalCdf(tpl_pairs[:, 0], tpl_pairs[:, 1])
    distances = []
    for pairs in curves.values():
        arr = np.array(pairs)
        distances.append(ks_distance(EmpiricalCdf(arr[:, 0], arr[:, 1]), tpl))
    close = max(distances) <= 0.05
    not_identical = min(distances) > 0.0
    report(6, "nine heterogeneous volumes emit the 4-panel workflow artifacts "
              "and harmonize to within KS 0.05 of the template without "
              "collapsing onto it",
           files_ok and close and not_identical,
           f"KS range [{min(distances):.4f}, {max(distances):.4f}]")


def test_criterion_07_baseline_comparison(template_12bit):
    from cdfmatch import (METHOD_CDF_MATCH, METHOD_PERCENTILE_STRETCH,
                          METHOD_ZSCORE, evaluate_cohort)
    cohort = scanner_cohort(20, seed0=300)
    rows = {r.method: r for r in evaluate_cohort(cohort, template_12bit)}
    cdf_ks = rows[METHOD_CDF_MATCH].mean_pairwise_ks
    stretch_ks = rows[METHOD_PERCENTILE_STRETCH].mean_pairwise_ks
    zscore_ks = rows[METHOD_ZSCORE].mean_pairwise_ks
    ordering = cdf_ks < stretch_ks and cdf_ks < zscore_ks
    heavy_tail = all(zscore_standardize(v).foreground().max() > 5.0
                     for v in cohort[:5])
    report(7, "on a 20-volume multi-scanner cohort CDF matching beats "
              "percentile stretch and z-score on mean pairwise KS, and "
              "z-score keeps its heavy tail",
           ordering and heavy_tail,
           f"cdf {cdf_ks:.4f} < stretch {stretch_ks:.4f}, zscore {zscore_ks:.4f}")


def test_criterion_08_end_to_end_invariances(template_12bit):
    grid = np.linspace(0.01, 0.99, 99)
    clip_span = 4095.0 - 1.0
    base = generate_synthetic(t2_spec(777, scanner=scanner_effect(3)))
    out0, _ = harmonize(base, template_12bit)
    q0 = np.asarray(quantile(build_cdf(out0), grid))
    worst = 0.0
    for a, c in ((0.25, 0.0), (4.0, 0.0), (1.0, -1000.0), (1.0, 1000.0)):
        out, _ = harmonize(base.with_voxels(a * base.voxels + c), template_12bit)
        q = np.asarray(quantile(build_cdf(out), grid))
        worst = max(worst, float(np.abs(q - q0).max()))
    invariant = worst < 0.01 * clip_span

    once, _ = harmonize(base, template_12bit)
    _, second = harmonize(once, template_12bit)
    sig = second.fit.params
    idempotent = (abs(sig.sigma_B - 1.0) <= 0.02
                  and abs(sig.sigma_T - 1.0) <= 0.02)
    report(8, "gain x0.25..x4 and offset +-1000 move harmonized quantiles by "
              "under 1% of the clip span, and a second harmonization refits "
              "sigma within 2% of 1",
           invariant and idempotent,
           f"worst quantile shift {100 * worst / clip_span:.3f}%, "
           f"refit sigmas ({sig.sigma_B:.4f}, {sig.sigma_T:.4f})")


def test_criterion_09_pipeline_determinism(tmp_path):
    def one_run(root: Path) -> dict[str, bytes]:
        root.mkdir()
        raw = root / "raw"
        raw.mkdir()
        for i in range(4):
            spec = root / f"spec{i}.json"
            spec.write_text(json.dumps({
                "components": [c.to_dict() for c in T2_COMPONENTS],
                "dims": [16, 16, 16],
                "scanner": scanner_effect(i).to_dict(),
                "channel": "T2", "seed": 100 + i}))
            assert run(["synth", "--spec", str(spec),
                        "--out", str(raw / f"vol{i}.raw")]) == 0
        template = root / "t2.template.json"
        inputs = [str(p) for p in sorted(raw.glob("*.raw"))]
        assert run(["template", "build", "--channel", "T2", "--out",
                    str(template)] + inputs) == 0
        out = root / "harmonized"
        assert run(["harmonize", "--template", str(template), "--in", str(raw),
                    "--out", str(out), "--report", str(root / "report.json"),
                    "--bits", "12"]) == 0
        assert run(["inspect", "--cdf", str(out / "vol0.raw"),
                    "--out", str(root / "cdf.csv"),
                    "--plot", str(root / "cdf.svg")]) == 0
        assert run(["eval", "--template", str(template), "--in", str(raw),
                    "--out", str(root / "metrics.csv")]) == 0
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    first = one_run(tmp_path / "run1")
    second = one_run(tmp_path / "run2")
    same_names = set(first) == set(second)
    diffs = [name for name in first if first[name] != second.get(name)]
    report(9, "two consecutive full pipeline runs produce bitwise-identical "
              "volumes, reports, CSVs, and SVGs",
           same_names and not diffs,
           f"{len(first)} artifacts compared" + (f", diffs: {diffs}" if diffs else ""))


def test_criterion_10_template_control_fidelity(template_12bit):
    c = template_12bit.controls
    tol = 0.005 * c.span
    errors = {p: abs(float(quantile(template_12bit.cdf, p)) - t)
              for p, t in (c.pi_B, c.pi_M, c.pi_T)}
    report(10, "template built with the published controls places all three "
               "quantiles within 0.5% of the control span",
           max(errors.values()) <= tol,
           ", ".join(f"p={p}: err {e:.2f}" for p, e in errors.items()))
