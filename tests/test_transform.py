"""Tests for the blending, dual-scaling, and tail-shrinking transforms."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from cdfmatch import (DualScaleParams, PivotTriple, TailSpec, apply_lut,
                      blend, compose_lut, lut_bottom_tail, lut_ds,
                      lut_top_tail, sigma_blend)
from cdfmatch.cdf import IntensityIndex
from cdfmatch.errors import BadTailSpec, NonMonotone
from cdfmatch.transform import IntensityLut

from conftest import stored_volume, volume_from_values

PIVOTS = PivotTriple(0.0, 50.0, 100.0)


_coords = st.floats(-5000.0, 5000.0)
_gaps = st.floats(0.01, 3000.0)


@st.composite
def _inputs(draw, anchors, width):
    """A scalar, a 0-d array, an empty array, or a float64 or float32 array
    of each anchor, its float neighbours and 500 random values spread over
    ``width`` either side of the anchors."""
    near = [v for a in anchors for v in (np.nextafter(a, -np.inf), a, np.nextafter(a, np.inf))]
    shape = draw(st.sampled_from(["scalar", "0-d", "empty", "float64", "float32"]))
    if shape == "scalar":
        return float(draw(st.sampled_from(near)))
    if shape == "0-d":
        return np.array(draw(st.sampled_from(near)))
    if shape == "empty":
        return np.empty(0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spread = rng.uniform(min(anchors) - width, max(anchors) + width, 500)
    values = np.concatenate([near, spread])
    return values.astype(np.float32) if shape == "float32" else values


class TestPivotTriple:
    def test_requires_strict_order(self):
        with pytest.raises(ValueError):
            PivotTriple(1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            PivotTriple(3.0, 2.0, 1.0)


class TestDualScaleParams:
    def test_rejects_non_positive_scales(self):
        with pytest.raises(ValueError):
            DualScaleParams(0.0, 1.0, 0.0, PIVOTS)

    def test_enforces_ratio_cap(self):
        with pytest.raises(ValueError):
            DualScaleParams(20.0, 0.5, 0.0, PIVOTS)  # ratio 40 > default 20
        DualScaleParams(20.0, 0.5, 0.0, PIVOTS, ratio_cap=50.0)


class TestBlend:
    def test_half_at_middle_pivot(self):
        assert blend(50.0, PIVOTS) == 0.5

    def test_bottom_pivot_matches_closed_form(self):
        expected = 1.0 - (math.erf(-2.0) + 1.0) / 2.0
        assert blend(0.0, PIVOTS) == pytest.approx(expected, abs=1e-9)
        # value reported alongside the erf range (-0.995, 0.995)
        assert blend(0.0, PIVOTS) == pytest.approx(0.99765, abs=1e-4)

    def test_top_pivot_is_complement_by_erf_oddness(self):
        assert blend(100.0, PIVOTS) == pytest.approx(1.0 - blend(0.0, PIVOTS),
                                                     abs=1e-12)
        assert blend(100.0, PIVOTS) == pytest.approx(0.00235, abs=1e-4)

    def test_strictly_decreasing_and_bounded(self):
        # within the non-saturated band erf is strictly monotone in floats
        xs = np.linspace(-75.0, 175.0, 2001)
        vals = np.asarray(blend(xs, PIVOTS))
        assert (np.diff(vals) < 0).all()
        assert (vals > 0).all() and (vals < 1).all()

    def test_saturates_monotonically_far_outside(self):
        xs = np.linspace(-5000.0, 5000.0, 2001)
        vals = np.asarray(blend(xs, PIVOTS))
        assert (np.diff(vals) <= 0).all()
        assert (vals >= 0).all() and (vals <= 1).all()

    def test_asymmetric_pivots_keep_endpoint_values(self):
        pivots = PivotTriple(10.0, 12.0, 400.0)
        assert blend(12.0, pivots) == 0.5
        assert blend(10.0, pivots) == pytest.approx(blend(0.0, PIVOTS), abs=1e-12)
        assert blend(400.0, pivots) == pytest.approx(blend(100.0, PIVOTS), abs=1e-12)


class TestSigmaBlend:
    def test_equal_factors_blend_exactly(self):
        params = DualScaleParams(2.5, 2.5, 0.0, PIVOTS)
        xs = np.linspace(-100, 200, 101)
        assert (np.asarray(sigma_blend(xs, params)) == 2.5).all()

    def test_midpoint_is_exact_average(self):
        params = DualScaleParams(1.0, 3.0, 0.0, PIVOTS)
        assert sigma_blend(50.0, params) == 2.0

    def test_bottom_pivot_value(self):
        params = DualScaleParams(1.0, 3.0, 0.0, PIVOTS)
        # 0.99765 * 1 + 0.00235 * 3
        assert sigma_blend(0.0, params) == pytest.approx(1.0047, abs=1e-3)

    def test_bounded_by_the_two_factors(self):
        params = DualScaleParams(0.5, 4.0, 0.0, PIVOTS)
        xs = np.linspace(-500, 500, 4001)
        vals = np.asarray(sigma_blend(xs, params))
        assert (vals >= 0.5).all() and (vals <= 4.0).all()
        inside = np.asarray(sigma_blend(np.linspace(-75, 175, 1001), params))
        assert (inside > 0.5).all() and (inside < 4.0).all()


class TestLutDs:
    def test_middle_pivot_maps_to_gamma_exactly(self):
        params = DualScaleParams(1.7, 0.3, 123.456, PIVOTS, ratio_cap=20.0)
        assert lut_ds(50.0, params) == 123.456

    def test_equal_scales_reduce_to_affine(self):
        params = DualScaleParams(2.0, 2.0, 100.0, PivotTriple(0.0, 10.0, 20.0))
        assert lut_ds(15.0, params) == 110.0
        rng = np.random.default_rng(11)
        xs = rng.uniform(-100, 100, 10_000)
        got = np.asarray(lut_ds(xs, params))
        want = (xs - 10.0) * 2.0 + 100.0
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    def test_blended_value_at_top_pivot(self):
        # oracle from the definition: (100 - 50) * sigma(100) with
        # sigma(100) = beta * 1 + (1 - beta) * 2, beta = 1 - (erf(2) + 1) / 2
        params = DualScaleParams(1.0, 2.0, 0.0, PIVOTS)
        beta = 1.0 - (math.erf(2.0) + 1.0) / 2.0
        expected = 50.0 * (beta * 1.0 + (1.0 - beta) * 2.0)
        assert expected == pytest.approx(99.883, abs=0.001)
        assert lut_ds(100.0, params) == pytest.approx(expected, abs=0.05)


class TestTopTail:
    def test_identity_at_tail_start(self):
        assert lut_top_tail(3300.0, 3300.0, 5418.0, 4095.0) == 3300.0

    def test_identity_below_tail_start(self):
        assert lut_top_tail(1234.5, 3300.0, 5418.0, 4095.0) == 1234.5

    def test_published_twelve_bit_configuration(self):
        # 3300 + 795 * erf(2) at the source maximum
        expected = 3300.0 + 795.0 * math.erf(2.0)
        got = lut_top_tail(5418.0, 3300.0, 5418.0, 4095.0)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(4091.3, abs=0.5)

    def test_halfway_point_uses_erf_of_one(self):
        v_t, v_max, v_clip = 100.0, 300.0, 180.0
        r_t = v_clip - v_t
        got = lut_top_tail(v_t + (v_max - v_t) / 2.0, v_t, v_max, v_clip)
        assert got == pytest.approx(v_t + r_t * math.erf(1.0), abs=1e-3 * r_t)

    def test_output_never_exceeds_the_asymptote(self):
        xs = np.linspace(3300.0, 50_000.0, 5000)
        out = np.asarray(lut_top_tail(xs, 3300.0, 5418.0, 4095.0))
        assert (out <= 4095.0).all()
        assert (np.diff(out) >= 0).all()
        # strictly inside until erf saturates in floats
        near = np.asarray(lut_top_tail(np.linspace(3300.0, 8000.0, 2000),
                                       3300.0, 5418.0, 4095.0))
        assert (near < 4095.0).all()
        assert (np.diff(near) > 0).all()

    def test_bad_ordering_raises(self):
        with pytest.raises(BadTailSpec):
            lut_top_tail(1.0, 3300.0, 3300.0, 4095.0)
        with pytest.raises(BadTailSpec):
            lut_top_tail(1.0, 3300.0, 5418.0, 3300.0)


class TestBottomTail:
    def test_identity_at_tail_start(self):
        assert lut_bottom_tail(500.0, 500.0, 5.0, 1.0) == 500.0

    def test_identity_above_tail_start(self):
        assert lut_bottom_tail(777.0, 500.0, 5.0, 1.0) == 777.0

    def test_published_bottom_configuration(self):
        # 500 - 499 * erf(2) at the source minimum
        expected = 500.0 - 499.0 * math.erf(2.0)
        got = lut_bottom_tail(5.0, 500.0, 5.0, 1.0)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(3.33, abs=0.05)

    def test_reflection_identity(self):
        v_b, v_min, v_clip_b, v_max = 500.0, 5.0, 1.0, 5418.0
        xs = np.linspace(-200.0, 5418.0, 4096)
        direct = np.asarray(lut_bottom_tail(xs, v_b, v_min, v_clip_b))
        composed = v_max - np.asarray(lut_top_tail(
            v_max - xs, v_max - v_b, v_max - v_min, v_max - v_clip_b))
        scale = np.maximum(np.abs(composed), 1.0)
        assert (np.abs(direct - composed) <= 1e-9 * scale).all()

    @given(data=st.data(), v_B=_coords, source=_gaps, target=_gaps,
           v_max=st.floats(-1e5, 1e5))
    @settings(max_examples=200)
    def test_reflection_constant_cancels(self, data, v_B, source, target, v_max):
        # reflecting about any v_max, applying the top tail and reflecting
        # back gives the direct bottom tail, up to the rounding of the
        # reflections: each is off by a few ulps of the values it subtracts,
        # and the erf passes such an error on times at most 2.26 r_T / r_S
        v_min, v_clip_b = v_B - source, v_B - target
        xs = np.asarray(data.draw(_inputs((v_B,), source)), dtype=np.float64)
        direct = np.asarray(lut_bottom_tail(xs, v_B, v_min, v_clip_b))
        composed = v_max - np.asarray(lut_top_tail(
            v_max - xs, v_max - v_B, v_max - v_min, v_max - v_clip_b))
        magnitude = abs(v_max) + np.abs(xs) + abs(v_B) + abs(v_min) + abs(v_clip_b)
        bound = 64.0 * np.finfo(np.float64).eps * (1.0 + target / source) * magnitude
        assert (np.abs(direct - composed) <= bound).all()

    def test_output_stays_above_clip(self):
        xs = np.linspace(-10_000.0, 500.0, 5000)
        out = np.asarray(lut_bottom_tail(xs, 500.0, 5.0, 1.0))
        assert (out >= 1.0).all()
        assert (np.diff(out) >= 0).all()
        near = np.asarray(lut_bottom_tail(np.linspace(-600.0, 500.0, 2000),
                                          500.0, 5.0, 1.0))
        assert (near > 1.0).all()
        assert (np.diff(near) > 0).all()

    def test_bad_ordering_raises(self):
        with pytest.raises(BadTailSpec):
            lut_bottom_tail(1.0, 500.0, 500.0, 1.0)
        with pytest.raises(BadTailSpec):
            lut_bottom_tail(1.0, 500.0, 5.0, 500.0)


# the tails of the benchmark's template at seed 1: the published controls
# and clip range with the recorded source extremes
_BENCH_TOP = (3300.0, 15631.115524036193, 4095.0)
_BENCH_BOTTOM = (500.0, -1344.7018326392426, 1.0)


class TestFarSideIdentity:
    # past its start a tail bends; on the far side it must hand every value
    # back unchanged, bit for bit, and so must the two tails together
    # between their starts
    @given(data=st.data(), drawn=st.booleans(), start=_coords, middle=_gaps,
           source=_gaps, target=_gaps)
    @settings(max_examples=200)
    def test_each_tail_is_the_identity_on_its_far_side(self, data, drawn, start, middle,
                                                       source, target):
        top, bottom = _BENCH_TOP, _BENCH_BOTTOM
        if drawn:
            top = (start + middle, start + middle + source, start + middle + target)
            bottom = (start, start - source, start - target)
        v_T, v_B = top[0], bottom[0]

        def strictly_between(lo, hi):
            values = st.floats(lo, hi, exclude_min=True, exclude_max=True)
            return np.array(data.draw(st.lists(values, min_size=1, max_size=50)))

        below_top = strictly_between(-1e6, v_T)
        assert lut_top_tail(below_top, *top).tobytes() == below_top.tobytes()
        above_bottom = strictly_between(v_B, 1e6)
        assert lut_bottom_tail(above_bottom, *bottom).tobytes() == above_bottom.tobytes()
        between = strictly_between(v_B, v_T)
        both = TailSpec(*top, *bottom, enabled_top=True, enabled_bottom=True)
        assert both.apply(between).tobytes() == between.tobytes()


def _identity_params(pivots=PivotTriple(500.0, 1650.0, 3300.0)):
    return DualScaleParams(1.0, 1.0, pivots.v_M, pivots)


def _twelve_bit_tails(v_min=5.0, v_max=5418.0):
    return TailSpec(v_T=3300.0, v_max=v_max, v_clipT=4095.0,
                    v_B=500.0, v_min=v_min, v_clipB=1.0,
                    enabled_top=True, enabled_bottom=True)


class TestComposeLut:
    def test_disabled_tails_match_lut_ds_pointwise(self):
        params = DualScaleParams(1.3, 0.8, 1650.0, PivotTriple(500.0, 1650.0, 3300.0))
        lut = compose_lut(params, TailSpec.disabled(), (0.0, 4000.0))
        grid = np.linspace(0.0, 4000.0, 4096)
        assert np.array_equal(np.asarray(lut.apply(grid)),
                              np.asarray(lut_ds(grid, params)))

    def test_twelve_bit_configuration_contains_outputs(self):
        lut = compose_lut(_identity_params(), _twelve_bit_tails(),
                          (5.0, 5418.0), clip=(1.0, 4095.0))
        grid = np.linspace(5.0, 5418.0, 4096)
        out = np.asarray(lut.apply(grid))
        assert out.min() >= 1.0 * (1.0 - 1e-9)
        assert out.max() <= 4095.0
        assert (np.diff(out) >= 0).all()

    def test_mapped_grid_is_sorted(self):
        params = DualScaleParams(2.0, 0.5, 1650.0, PivotTriple(500.0, 1650.0, 3300.0))
        lut = compose_lut(params, _twelve_bit_tails(-500.0, 8000.0),
                          (-1000.0, 9000.0), clip=(1.0, 4095.0))
        out = np.asarray(lut.apply(np.linspace(-1000.0, 9000.0, 4096)))
        assert (np.sort(out) == out).all()

    def test_non_monotone_parameters_fail_loudly(self):
        bad = DualScaleParams(20.0, 0.05, 0.0, PIVOTS, ratio_cap=500.0)
        with pytest.raises(NonMonotone):
            compose_lut(bad, TailSpec.disabled(), (0.0, 100.0))

    def test_tail_spec_orderings_validated(self):
        with pytest.raises(BadTailSpec):
            TailSpec(v_T=3300.0, v_max=3000.0, v_clipT=4095.0, enabled_top=True)
        with pytest.raises(BadTailSpec):
            TailSpec(v_B=500.0, v_min=600.0, v_clipB=1.0, enabled_bottom=True)

    @pytest.mark.parametrize("v_B", [3300.0, 3400.0])
    def test_two_tails_must_not_overlap(self, v_B):
        # each side is valid alone; together they need v_B < v_T
        with pytest.raises(BadTailSpec, match="v_B < v_T"):
            replace(_twelve_bit_tails(), v_B=v_B)
        assert replace(_twelve_bit_tails(), v_B=v_B, enabled_top=False).enabled_bottom

    def test_json_round_trip(self):
        lut = compose_lut(_identity_params(), _twelve_bit_tails(),
                          (5.0, 5418.0), clip=(1.0, 4095.0))
        other = type(lut).from_dict(lut.to_dict())
        grid = np.linspace(5.0, 5418.0, 512)
        assert np.array_equal(np.asarray(lut.apply(grid)),
                              np.asarray(other.apply(grid)))


class TestApplyLut:
    def test_identity_lut_preserves_values(self):
        rng = np.random.default_rng(21)
        vol = volume_from_values(rng.uniform(600.0, 3200.0, 500))
        lut = compose_lut(_identity_params(), TailSpec.disabled(), (500.0, 3300.0))
        out = apply_lut(vol, lut)
        assert np.abs(out.voxels - vol.voxels).max() < 1e-9

    def test_constant_foreground_maps_pointwise(self):
        vol = volume_from_values([0.0, 700.0, 700.0, 700.0])
        params = DualScaleParams(1.5, 0.9, 1650.0, PivotTriple(500.0, 1650.0, 3300.0))
        lut = compose_lut(params, TailSpec.disabled(), (500.0, 3300.0))
        out = apply_lut(vol, lut)
        expected = lut.apply(700.0)
        assert (out.voxels[1:] == expected).all()

    def test_twelve_bit_range_and_background(self):
        rng = np.random.default_rng(31)
        values = rng.lognormal(6.5, 0.8, 2000)
        values[:100] = 0.0
        vol = volume_from_values(values)
        lut = compose_lut(_identity_params(),
                          _twelve_bit_tails(v_min=float(values[100:].min()),
                                            v_max=float(values.max())),
                          (float(values[100:].min()), float(values.max())),
                          clip=(1.0, 4095.0))
        out = apply_lut(vol, lut)
        fg = out.voxels[vol.voxels != 0.0]
        assert fg.min() >= 1.0 - 1e-9 and fg.max() <= 4095.0
        assert (out.voxels[vol.voxels == 0.0] == 0.0).all()
        assert out.dims == vol.dims

    def test_out_of_domain_values_clamp(self):
        vol = volume_from_values([100.0, 5000.0])
        lut = compose_lut(_identity_params(), TailSpec.disabled(), (500.0, 3300.0))
        out = apply_lut(vol, lut)
        assert out.voxels[0] == lut.apply(500.0)
        assert out.voxels[1] == lut.apply(3300.0)

    # one level, a block short of full, exactly full, one over, two blocks plus
    @pytest.mark.parametrize("n_levels", [1, 65535, 65536, 65537, 2 * 65536 + 3])
    @pytest.mark.parametrize("kind", ["integer", "float64", "float32"])
    def test_blocks_equal_one_pass_over_the_whole_array(self, n_levels, kind):
        values = np.random.default_rng(n_levels).permutation(n_levels).astype(np.float64)
        if kind != "integer":
            values += 0.5
        background = float(values[n_levels // 2])
        dtype = np.float32 if kind == "float32" else np.float64
        vol = stored_volume(values, dtype, background)
        assert IntensityIndex.of(vol).levels.size == n_levels
        lo, w = -1.0, n_levels + 2.0
        pivots = PivotTriple(lo + 0.2 * w, lo + 0.5 * w, lo + 0.8 * w)
        tails = TailSpec(v_T=lo + 0.8 * w, v_max=lo + w, v_clipT=lo + 0.9 * w,
                         v_B=lo + 0.2 * w, v_min=lo, v_clipB=lo + 0.1 * w,
                         enabled_top=True, enabled_bottom=True)
        lut = compose_lut(DualScaleParams(1.2, 0.9, pivots.v_M, pivots), tails,
                          (lo, lo + w), clip=(lo + 0.1 * w, lo + 0.9 * w))
        expected = np.asarray(lut.apply(vol.voxels.astype(np.float64)))
        expected[vol.voxels == background] = background
        assert apply_lut(vol, lut).voxels.tobytes() == expected.tobytes()

    # a dense integer table over several blocks, and an f32 volume whose
    # levels are its voxels; both with tails that fire on each side
    @pytest.mark.parametrize("kind", ["integer", "float32"])
    def test_background_levels_are_never_mapped(self, monkeypatch, kind):
        rng = np.random.default_rng(43)
        n = 3 * 65536 + 11
        if kind == "integer":
            values, dtype = rng.integers(0, 2 * 65536, n), np.float64
        else:
            values, dtype = rng.uniform(-500.0, 6000.0, n), np.float32
        values[rng.random(n) < 0.2] = 0.0
        vol = stored_volume(values, dtype, background=0.0)
        assert (IntensityIndex.of(vol).inverse is not None) == (kind == "integer")
        lut = compose_lut(_identity_params(), _twelve_bit_tails(-500.0, 2.0 * 65536),
                          (-500.0, 2.0 * 65536), clip=(1.0, 4095.0))
        seen = []
        mapping = IntensityLut.apply

        def spy(self, x):
            seen.append(np.array(x))
            return mapping(self, x)

        monkeypatch.setattr(IntensityLut, "apply", spy)
        apply_lut(vol, lut)
        levels = IntensityIndex.of(vol).levels
        assert len(seen) > 1
        assert np.concatenate(seen).tobytes() == levels[levels != 0.0].tobytes()


# Reference forms of the transforms: every branch evaluated on every value
# and one picked by np.where, the tails applied one after the other.  The
# library evaluates each erf only where its result is kept and writes both
# tails in one pass; these references pin that to the same bits.

def _ref_blend(x, p):
    xv = np.asarray(x, dtype=np.float64)
    xbar = np.where(xv <= p.v_M,
                    2.0 * (xv - p.v_M) / (p.v_M - p.v_B),
                    2.0 * (xv - p.v_M) / (p.v_T - p.v_M))
    return 1.0 - 0.5 * (erf(xbar) + 1.0)


def _ref_top_tail(x, v_T, v_max, v_clipT):
    xv = np.asarray(x, dtype=np.float64)
    shrunk = v_T + (v_clipT - v_T) * erf(2.0 * (xv - v_T) / (v_max - v_T))
    return np.where(xv < v_T, xv, shrunk)


def _ref_bottom_tail(x, v_B, v_min, v_clipB):
    xv = np.asarray(x, dtype=np.float64)
    shrunk = v_B - (v_B - v_clipB) * erf(2.0 * (v_B - xv) / (v_B - v_min))
    return np.where(xv > v_B, xv, shrunk)


def _ref_lut_apply(lut, x):
    xv = np.clip(np.asarray(x, dtype=np.float64), lut.domain[0], lut.domain[1])
    p, t = lut.params, lut.tails
    sigma = p.sigma_T + _ref_blend(xv, p.pivots) * (p.sigma_B - p.sigma_T)
    y = (xv - p.pivots.v_M) * sigma + p.gamma
    if t.enabled_top:
        y = _ref_top_tail(y, t.v_T, t.v_max, t.v_clipT)
    if t.enabled_bottom:
        y = _ref_bottom_tail(y, t.v_B, t.v_min, t.v_clipB)
    return y if lut.clip is None else np.clip(y, lut.clip[0], lut.clip[1])


def _same_bits(got, ref, x):
    if np.ndim(x) == 0:
        assert type(got) is float
    assert np.asarray(got, dtype=np.float64).tobytes() == np.asarray(ref).tobytes()


class TestTailSlope:
    @pytest.mark.parametrize("top, bottom", [(True, False), (False, True),
                                             (True, True), (False, False)])
    def test_matches_central_differences_of_apply(self, top, bottom):
        tails = replace(_twelve_bit_tails(), enabled_top=top, enabled_bottom=bottom)
        y = np.linspace(-1000.0, 7000.0, 4001)
        # the slope jumps at each tail's start, where differences straddle it
        y = y[(np.abs(y - tails.v_T) > 1.0) & (np.abs(y - tails.v_B) > 1.0)]
        h = 1e-3
        central = (tails.apply(y + h) - tails.apply(y - h)) / (2.0 * h)
        slope = tails.slope(y)
        assert np.allclose(slope, central, rtol=1e-6, atol=1e-9)
        if not (top or bottom):
            assert (slope == 1.0).all()
        else:
            assert (slope < 1.0).any()


class TestBitwiseReference:
    @given(data=st.data(), v_B=_coords, gap_lo=_gaps, gap_hi=_gaps)
    @settings(max_examples=200)
    def test_blend(self, data, v_B, gap_lo, gap_hi):
        pivots = PivotTriple(v_B, v_B + gap_lo, v_B + gap_lo + gap_hi)
        x = data.draw(_inputs((pivots.v_B, pivots.v_M, pivots.v_T), gap_lo + gap_hi))
        _same_bits(blend(x, pivots), _ref_blend(x, pivots), x)

    @given(data=st.data(), start=_coords, source=_gaps, target=_gaps)
    @settings(max_examples=200)
    def test_tails(self, data, start, source, target):
        x = data.draw(_inputs((start,), source))
        top = (start, start + source, start + target)
        _same_bits(lut_top_tail(x, *top), _ref_top_tail(x, *top), x)
        bottom = (start, start - source, start - target)
        _same_bits(lut_bottom_tail(x, *bottom), _ref_bottom_tail(x, *bottom), x)

    @given(data=st.data(), v_B=_coords, gap_lo=_gaps, gap_hi=_gaps,
           sigma_B=st.floats(0.5, 1.0), sigma_T=st.floats(0.5, 1.0),
           top=st.booleans(), bottom=st.booleans(), clipped=st.booleans())
    @settings(max_examples=200)
    def test_intensity_lut_apply(self, data, v_B, gap_lo, gap_hi, sigma_B, sigma_T,
                                 top, bottom, clipped):
        # a scale ratio of at most 2 keeps the dual scaling monotone
        pivots = PivotTriple(v_B, v_B + gap_lo, v_B + gap_lo + gap_hi)
        params = DualScaleParams(sigma_B, sigma_T, pivots.v_M, pivots)
        lo, hi = pivots.v_B - gap_lo, pivots.v_T + gap_hi
        v_min, v_max = float(lut_ds(lo, params)), float(lut_ds(hi, params))
        t_B, t_T = float(lut_ds(pivots.v_B, params)), float(lut_ds(pivots.v_T, params))
        tails = TailSpec(v_T=t_T, v_max=v_max, v_clipT=(t_T + v_max) / 2,
                         v_B=t_B, v_min=v_min, v_clipB=(t_B + v_min) / 2,
                         enabled_top=top, enabled_bottom=bottom)
        lut = compose_lut(params, tails, (lo, hi),
                          clip=(tails.v_clipB, tails.v_clipT) if clipped else None)
        x = data.draw(_inputs((lo, pivots.v_B, pivots.v_M, pivots.v_T, hi), gap_lo + gap_hi))
        _same_bits(lut.apply(x), _ref_lut_apply(lut, x), x)
