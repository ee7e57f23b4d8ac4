"""Tests for the blending, dual-scaling, and tail-shrinking transforms."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from cdfmatch import (DualScaleParams, PivotTriple, TailSpec, apply_lut,
                      blend, compose_lut, lut_bottom_tail, lut_ds,
                      lut_top_tail, read_volume, sigma_blend, write_volume)
from cdfmatch.cdf import IntensityIndex
from cdfmatch.errors import BadTailSpec, NonMonotone
from cdfmatch import transform
from cdfmatch.transform import MONOTONE_RATIO, TABLE_TOLERANCE, IntensityLut

from conftest import float32_read_rounding, stored_volume, volume_from_values

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
    @pytest.mark.parametrize("pivots", [(1.0, 1.0, 2.0), (3.0, 2.0, 1.0),
                                        (-math.inf, 0.0, 1.0), (0.0, 1.0, math.inf),
                                        (0.0, math.nan, 1.0)])
    def test_requires_finite_strict_order(self, pivots):
        with pytest.raises(ValueError):
            PivotTriple(*pivots)


class TestDualScaleParams:
    @pytest.mark.parametrize("fields", [(0.0, 1.0, 0.0), (1.0, -1.0, 0.0),
                                        (math.nan, 1.0, 0.0), (1.0, math.inf, 0.0),
                                        (1.0, 1.0, math.inf), (1.0, 1.0, math.nan)])
    def test_rejects_non_positive_or_non_finite_fields(self, fields):
        with pytest.raises(ValueError):
            DualScaleParams(*fields, PIVOTS)

    def test_enforces_ratio_cap(self):
        # the cap is rho* = 1 - 1/h(1), h(t) = (1 - erf t)/2 - t exp(-t^2)/sqrt(pi)
        h1 = (1.0 - math.erf(1.0)) / 2.0 - math.exp(-1.0) / math.sqrt(math.pi)
        assert h1 == pytest.approx(-0.128904, abs=1e-6)
        assert MONOTONE_RATIO == 1.0 - 1.0 / h1 == pytest.approx(8.757702, abs=1e-6)
        for big, small in ((8.75, 1.0), (1.0, 8.75), (MONOTONE_RATIO, 1.0),
                           (1.0, MONOTONE_RATIO)):
            DualScaleParams(big, small, 0.0, PIVOTS)
        for big, small in ((8.76, 1.0), (1.0, 8.76), (20.0, 0.5)):
            with pytest.raises(NonMonotone, match="scale ratio"):
                DualScaleParams(big, small, 0.0, PIVOTS)

    def test_a_per_lut_cap_in_a_file_is_refused(self):
        params = DualScaleParams(1.7, 0.3, 123.456, PIVOTS)
        assert "ratio_cap" not in params.to_dict()
        with pytest.raises(TypeError, match="ratio_cap"):
            DualScaleParams.from_dict({**params.to_dict(), "ratio_cap": 20.0})


def _dual_scaling(x, sigma_B, sigma_T, gamma, pivots):
    """:func:`lut_ds`'s formula, for scale factors DualScaleParams may reject."""
    return (x - pivots.v_M) * (sigma_T + (sigma_B - sigma_T) * blend(x, pivots)) + gamma


class TestMonotoneRatio:
    """``d lut_ds/dx = sigma_T + (sigma_B - sigma_T) h(t)`` above v_M, mirrored
    below it, and h is extreme at t = +1 and t = -1: a scale ratio of at most
    MONOTONE_RATIO certifies a map that never descends, and past it the map
    descends at t = +1 when sigma_B is the larger factor, at t = -1 when
    sigma_T is."""

    @given(delta=st.floats(1e-3, 1.0, exclude_max=True), above=st.booleans(),
           bottom_larger=st.booleans(), v_B=_coords, gap_lo=st.floats(1.0, 2000.0),
           skew=st.floats(0.2, 5.0), small=st.floats(0.05, 20.0),
           gamma=st.floats(-1000.0, 1000.0))
    @settings(max_examples=200)
    def test_the_ratio_certifies_exactly_the_maps_that_never_descend(
            self, delta, above, bottom_larger, v_B, gap_lo, skew, small, gamma):
        gap_hi = gap_lo * skew
        pivots = PivotTriple(v_B, v_B + gap_lo, v_B + gap_lo + gap_hi)
        scaled = small * MONOTONE_RATIO * (1.0 + delta if above else 1.0 - delta)
        sigma_B, sigma_T = (scaled, small) if bottom_larger else (small, scaled)
        t = np.linspace(-4.0, 4.0, (1 << 16) + 1)
        x = pivots.v_M + t * np.where(t < 0.0, gap_lo, gap_hi) / 2.0
        ratio = max(sigma_B, sigma_T) / min(sigma_B, sigma_T)
        # the constructor's slack is 1e-12, far inside the draws' 1e-3
        if ratio <= MONOTONE_RATIO:
            y = lut_ds(x, DualScaleParams(sigma_B, sigma_T, gamma, pivots))
            # erf steps down by an ulp here and there: the map, by a few of its output
            assert np.diff(y).min() >= -4.0 * np.spacing(np.abs(y).max())
            return
        with pytest.raises(NonMonotone):
            DualScaleParams(sigma_B, sigma_T, gamma, pivots)
        y = _dual_scaling(x, sigma_B, sigma_T, gamma, pivots)
        rise = np.diff(y)
        assert rise.min() < -16.0 * np.spacing(np.abs(y).max())
        steepest = 0.5 * (t[:-1] + t[1:])[np.argmin(rise)]
        assert steepest == pytest.approx(1.0 if sigma_B > sigma_T else -1.0, abs=1e-3)


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
        params = DualScaleParams(1.7, 0.3, 123.456, PIVOTS)
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
        lut = compose_lut(params, TailSpec(), (0.0, 4000.0))
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

    @pytest.mark.parametrize("interval", [[1.0], [1.0, 2.0, 3.0], "12", (True, 2.0),
                                          ("1", 2.0), (1.0, math.inf), (2.0, 1.0), 5.0])
    @pytest.mark.parametrize("field", ["domain", "clip"])
    def test_intervals_are_two_finite_increasing_numbers(self, field, interval):
        domain, clip = ((interval, None) if field == "domain" else ((0.0, 4000.0), interval))
        with pytest.raises(ValueError, match="two finite, increasing numbers"):
            compose_lut(_identity_params(), TailSpec(), domain, clip=clip)

    def test_numpy_intervals_are_accepted(self):
        lut = compose_lut(_identity_params(), TailSpec(), np.array([0.0, 4000.0]),
                          clip=(np.float32(1.0), np.int64(4095)))
        assert lut.domain == (0.0, 4000.0) and lut.hard_clamp == (1.0, 4095.0)
        assert all(type(v) is float for v in lut.domain + lut.hard_clamp)

    @pytest.mark.parametrize("bottom_larger", [True, False])
    def test_non_monotone_parameters_fail_loudly(self, bottom_larger):
        # pivots 100/200/300 over the domain 0-400: 8.75 maps, 8.76 would
        # descend and raises before any LUT is built
        pivots = PivotTriple(100.0, 200.0, 300.0)

        def lut(ratio):
            sigmas = (ratio, 1.0) if bottom_larger else (1.0, ratio)
            return compose_lut(DualScaleParams(*sigmas, 0.0, pivots), TailSpec(),
                               (0.0, 400.0))

        out = lut(8.75).apply(np.linspace(0.0, 400.0, 1 << 20))
        assert (np.diff(out) >= 0.0).all()
        with pytest.raises(NonMonotone):
            lut(8.76)

    @pytest.mark.parametrize("domain, clip", [((0.0, math.inf), None),
                                              ((math.nan, 1.0), None),
                                              ((0.0, 1.0), (-math.inf, 1.0)),
                                              ((0.0, 1.0), (0.0, math.nan))])
    def test_domain_and_clip_must_be_finite(self, domain, clip):
        with pytest.raises(ValueError):
            compose_lut(_identity_params(), TailSpec(), domain, clip=clip)

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

    @pytest.mark.parametrize("name", ["v_T", "v_max", "v_clipB", "v_min"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_fields_must_be_finite(self, name, value):
        with pytest.raises(BadTailSpec, match=name):
            replace(_twelve_bit_tails(), **{name: value})

    @pytest.mark.parametrize("flag", ["false", "no", 0, 1, None])
    def test_enable_flags_must_be_bools(self, flag):
        # "false" is truthy: read by truthiness it would turn the tail on
        doc = _twelve_bit_tails().to_dict()
        for name in ("enabled_top", "enabled_bottom"):
            with pytest.raises(BadTailSpec, match=name):
                TailSpec.from_dict({**doc, name: flag})

    def test_numpy_bool_flags_serialize_as_json_bools(self):
        tails = replace(_twelve_bit_tails(), enabled_top=np.bool_(True),
                        enabled_bottom=np.bool_(False))
        doc = json.loads(json.dumps(tails.to_dict()))
        assert doc["enabled_top"] is True and doc["enabled_bottom"] is False
        assert TailSpec.from_dict(doc) == tails

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
        lut = compose_lut(_identity_params(), TailSpec(), (500.0, 3300.0))
        out = apply_lut(vol, lut)
        assert np.abs(out.voxels - vol.voxels).max() < 1e-9

    def test_constant_foreground_maps_pointwise(self):
        vol = volume_from_values([0.0, 700.0, 700.0, 700.0])
        params = DualScaleParams(1.5, 0.9, 1650.0, PivotTriple(500.0, 1650.0, 3300.0))
        lut = compose_lut(params, TailSpec(), (500.0, 3300.0))
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
        lut = compose_lut(_identity_params(), TailSpec(), (500.0, 3300.0))
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
        index = IntensityIndex.of(vol)
        mapped = index.levels != 0.0
        if kind == "integer":  # levels no voxel holds are skipped too
            assert (index.counts == 0).any()
            mapped &= index.counts > 0
        assert len(seen) > 1
        assert np.concatenate(seen).tobytes() == index.levels[mapped].tobytes()


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
    return y if lut.hard_clamp is None else np.clip(y, lut.hard_clamp[0], lut.hard_clamp[1])


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


_UNEVEN = DualScaleParams(1.3, 0.8, 1650.0, PivotTriple(500.0, 1650.0, 3300.0))
_TWELVE_BIT_LUT = compose_lut(_UNEVEN, _twelve_bit_tails(-1500.0, 8000.0), (-1000.0, 6000.0),
                              clip=(1.0, 4095.0))
# each public transform as a function of its input alone; the tails fire on
# both sides of [-2000, 9000] and the LUT clamps, squeezes and clips it
_TRANSFORMS = {
    "blend": lambda x: blend(x, _UNEVEN.pivots),
    "sigma_blend": lambda x: sigma_blend(x, _UNEVEN),
    "lut_ds": lambda x: lut_ds(x, _UNEVEN),
    "lut_top_tail": lambda x: lut_top_tail(x, 3300.0, 8000.0, 4095.0),
    "lut_bottom_tail": lambda x: lut_bottom_tail(x, 500.0, -1500.0, 1.0),
    "TailSpec.apply": _twelve_bit_tails(-1500.0, 8000.0).apply,
    "TailSpec.apply (disabled)": TailSpec().apply,
    "TailSpec.slope": _twelve_bit_tails(-1500.0, 8000.0).slope,
    "IntensityLut.apply": _TWELVE_BIT_LUT.apply,
    "IntensityLut.interpolant": _TWELVE_BIT_LUT.interpolant(1024),
}


class TestInputsUntouched:
    """Each transform evaluates into buffers it allocated itself: it never
    writes into, nor returns, the caller's array."""

    @pytest.mark.parametrize("name", sorted(_TRANSFORMS))
    @pytest.mark.parametrize("writeable", [False, True])
    def test_input_array_is_left_as_it_was(self, name, writeable):
        x = np.linspace(-2000.0, 9000.0, 3 * 4096 + 1)
        arg = x.copy()
        arg.flags.writeable = writeable
        out = _TRANSFORMS[name](arg)
        assert arg.tobytes() == x.tobytes()
        assert out.shape == x.shape and not np.shares_memory(out, arg)

    @pytest.mark.parametrize("name", sorted(_TRANSFORMS))
    def test_fortran_ordered_array_maps_like_its_c_ordered_copy(self, name):
        x = np.asfortranarray(np.linspace(-2000.0, 9000.0, 4096).reshape(64, 64))
        got = _TRANSFORMS[name](x)
        assert got.shape == x.shape
        assert got.tobytes() == _TRANSFORMS[name](np.ascontiguousarray(x)).tobytes()

    @pytest.mark.parametrize("name", sorted(set(_TRANSFORMS) - {
        "TailSpec.apply", "TailSpec.apply (disabled)", "TailSpec.slope"}))
    def test_scalars_and_0d_arrays_give_python_floats(self, name):
        for x in (-1800.0, 1650.0, 3300.0, 8500.0):
            arg = np.array(x)
            arg.flags.writeable = False
            got = _TRANSFORMS[name](arg)
            assert type(got) is float and type(_TRANSFORMS[name](x)) is float
            assert got == _TRANSFORMS[name](np.array([x]))[0]

    def test_apply_lut_leaves_a_read_only_f32_volume_untouched(self, tmp_path):
        values = np.random.default_rng(4).normal(1650.0, 900.0, 70_000)
        values[::7] = 0.0
        write_volume(volume_from_values(values), tmp_path / "v.raw", dtype="f32")
        vol = read_volume(tmp_path / "v.raw")
        before = vol.voxels.tobytes()
        assert vol.voxels.dtype == np.float32 and not vol.voxels.flags.writeable
        lut = compose_lut(_UNEVEN, _twelve_bit_tails(-1500.0, 8000.0), (-1000.0, 6000.0))
        for dtype in ("float64", "f32"):
            out = apply_lut(vol, lut, dtype)
            assert not np.shares_memory(out.voxels, vol.voxels)
        assert vol.voxels.tobytes() == before


@st.composite
def _table_luts(draw):
    """An IntensityLut over random DualScaleParams (scale ratio up to
    MONOTONE_RATIO either way), the domain reaching past either outer
    pivot, far past it or stopping inside it, each tail on or off and the
    clip on or off; with the tail starts it squeezes from."""
    v_B = draw(st.floats(-3000.0, 3000.0))
    gap_lo = draw(st.floats(1.0, 2000.0))
    gap_hi = gap_lo * draw(st.floats(0.2, 5.0))
    pivots = PivotTriple(v_B, v_B + gap_lo, v_B + gap_lo + gap_hi)
    sigma_T = draw(st.floats(0.05, 20.0))
    ratio = draw(st.floats(1.0 / MONOTONE_RATIO, MONOTONE_RATIO))
    # gamma 0 puts an output zero crossing at v_M, inside every domain drawn
    gamma = draw(st.one_of(st.just(0.0), st.floats(-1000.0, 1000.0)))
    params = DualScaleParams(sigma_T * ratio, sigma_T, gamma, pivots)
    # a domain many pivot gaps wide needs more than the fewest nodes
    reach = draw(st.sampled_from((3.0, 3000.0)))
    domain = (pivots.v_B - draw(st.floats(-0.9, reach)) * gap_lo,
              pivots.v_T + draw(st.floats(-0.9, reach)) * gap_hi)
    y_lo, y_hi = lut_ds(np.array(domain), params)
    assume(y_lo < y_hi)
    width = y_hi - y_lo
    top, bottom = draw(st.booleans()), draw(st.booleans())
    fields = {"enabled_top": top, "enabled_bottom": bottom}
    if top:
        start = y_lo + draw(st.floats(0.35, 0.95)) * width
        v_max = y_hi + draw(st.floats(0.0, 1.0)) * (y_hi - start)
        fields.update(v_T=start, v_max=v_max,
                      v_clipT=start + draw(st.floats(0.05, 1.5)) * (v_max - start))
    if bottom:
        start = y_lo + draw(st.floats(0.05, 0.3)) * width
        v_min = y_lo - draw(st.floats(0.0, 1.0)) * (start - y_lo)
        fields.update(v_B=start, v_min=v_min,
                      v_clipB=start - draw(st.floats(0.05, 1.5)) * (start - v_min))
    clip = None
    if draw(st.booleans()):
        clip = (y_lo + draw(st.floats(-0.1, 0.2)) * width,
                y_hi - draw(st.floats(-0.1, 0.2)) * width)
    lut = compose_lut(params, TailSpec(**fields), domain, clip=clip)
    starts = [fields[name] for name in ("v_T", "v_B") if name in fields]
    return lut, starts


def _preimage(lut, y):
    """The largest float x in the domain with lut_ds(x) < y, by bisection."""
    lo, hi = lut.domain
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if lut_ds(mid, lut.params) < y else (lo, mid)
    return lo


def _neighbours(x, k=3, dtype=np.float64):
    """Each of ``x`` in ``dtype`` and its ``k`` neighbours there on each side."""
    out = [np.asarray(x, dtype=dtype)]
    for direction in (-np.inf, np.inf):
        step = out[0]
        for _ in range(k):
            step = np.nextafter(step, out[0].dtype.type(direction))
            out.append(step)
    return np.concatenate([o.reshape(-1) for o in out])


# rounding on top of the stated bound, in float64 ulps of the largest output
_TABLE_ROUNDING_ULPS = 8


class TestTableInterpolant:
    @given(data=st.data())
    @settings(max_examples=60)
    def test_within_the_stated_bound_and_never_descending(self, data):
        lut, starts = data.draw(_table_luts())
        nodes = lut.table_nodes(1 << 20)
        assume(nodes is not None)
        # the node count is the smallest power of two that meets the target
        # share of the output span
        lo, hi = lut.domain
        span = (lut.hard_clamp[1] - lut.hard_clamp[0] if lut.hard_clamp is not None
                else lut.apply(hi) - lut.apply(lo))
        assert nodes & (nodes - 1) == 0
        assert lut.table_bound(nodes) <= TABLE_TOLERANCE * span
        assert nodes == 2 or lut.table_bound(nodes // 2) > TABLE_TOLERANCE * span
        assert lut.table_nodes(nodes - 1) is None
        interpolate = lut.interpolant(nodes)
        h = 1.0 / interpolate.scale
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        cells = rng.integers(0, nodes - 1, 200)
        v_M = lut.params.pivots.v_M
        # each tail's stretch where erf bends most, at t = 1/sqrt(2), as
        # preimages in x, and the cells either side of every kink
        bends = [_preimage(lut, start + r_S / (2.0 * math.sqrt(2.0)))
                 for start, r_S, _ in lut.tails._ranges()]
        near = np.concatenate([np.arange(-3, 4), np.arange(-3, 3) + 0.5]) * h
        kinks = [x for x, *_ in lut._kinks]
        x = np.concatenate([
            _neighbours([lo, hi, v_M] + [_preimage(lut, s) for s in starts] + kinks),
            _neighbours(interpolate.origin + cells * h),  # cell boundaries
            interpolate.origin + (cells + 0.5) * h,  # cell middles
            v_M + h * np.linspace(-2.0, 2.0, 101),  # where the bound is attained
            (np.array(bends + kinks)[:, None] + near).reshape(-1),
            rng.uniform(lo, hi, 2000),
            [lo - 1.0, lo - 1e6, hi + 1.0, hi + 1e6],  # clamped
        ])
        got, exact = interpolate(x), np.asarray(lut.apply(x))
        rounding = _TABLE_ROUNDING_ULPS * np.spacing(np.abs(exact).max())
        assert np.abs(got - exact).max() <= lut.table_bound(nodes) + rounding
        # tails on or off, sorted inputs map to sorted outputs bit for bit
        assert (np.diff(got[np.argsort(x, kind="stable")]) >= 0.0).all()
        # and no value passes the least and greatest the table reads
        low, high = interpolate.bounds
        assert low == got.min() and high == got.max()

    @given(data=st.data())
    @settings(max_examples=60)
    def test_the_float32_read_within_its_bound_and_never_descending(self, data):
        lut, starts = data.draw(_table_luts())
        # an f32 volume's own support: domain ends that float32 holds; the
        # bound is stated for those, the order and the bounds for any
        held = data.draw(st.booleans())
        if held:
            lo, hi = (float(np.float32(v)) for v in lut.domain)
            assume(lo < hi)
            lut = replace(lut, domain=(lo, hi))
        lo, hi = lut.domain
        nodes = lut.table_nodes(1 << 20)
        assume(nodes is not None)
        interpolate = lut.interpolant(nodes, np.float32)
        assert interpolate.table.dtype == interpolate.rise.dtype == np.float32
        h = 1.0 / interpolate.scale
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        cells = rng.integers(0, nodes - 1, 200)
        kinks = [x for x, *_ in lut._kinks]
        x = np.concatenate([
            _neighbours([lo, hi, lut.params.pivots.v_M] + kinks
                        + [_preimage(lut, s) for s in starts], dtype=np.float32),
            _neighbours(interpolate.origin + cells * h, dtype=np.float32),  # cell boundaries
            rng.uniform(lo, hi, 2000).astype(np.float32),
            np.array([lo - 1.0, lo - 1e6, hi + 1.0, hi + 1e6, -3e38, 3e38],
                     dtype=np.float32),  # clamped
        ])
        got, exact = interpolate(x), np.asarray(lut.apply(x))
        assert got.dtype == np.float32
        rounding = _TABLE_ROUNDING_ULPS * np.spacing(np.abs(exact).max())
        bound = lut.table_bound(nodes) + rounding + float32_read_rounding(interpolate)
        assert not held or np.abs(got - exact).max() <= bound
        # sorted inputs map to sorted outputs bit for bit, also where the
        # output crosses 0, and no value passes the least and greatest it reads
        assert (np.diff(got[np.argsort(x, kind="stable")]) >= 0.0).all()
        low, high = interpolate.bounds
        assert low == got.min() and high == got.max()

    @given(data=st.data(), cells=st.integers(4, 12),
           top=st.sampled_from(["tail", "clip", "none"]),
           bottom=st.sampled_from(["tail", "clip", "none"]))
    @settings(max_examples=80)
    def test_a_node_sits_on_each_kink(self, data, cells, top, bottom):
        # a tail start or a clip end the untailed side reaches, on each side,
        # at a random point inside a cell of the grid anchored at lo
        v_B = data.draw(st.floats(-3000.0, 3000.0))
        gap_lo = data.draw(st.floats(1.0, 2000.0))
        gap_hi = gap_lo * data.draw(st.floats(0.2, 5.0))
        pivots = PivotTriple(v_B, v_B + gap_lo, v_B + gap_lo + gap_hi)
        sigma_T = data.draw(st.floats(0.05, 20.0))
        # away from rho*, lut_ds is steep enough to place each kink to an ulp
        ratio = data.draw(st.floats(0.25, 4.0))
        params = DualScaleParams(sigma_T * ratio, sigma_T,
                                 data.draw(st.floats(-1000.0, 1000.0)), pivots)
        lo = pivots.v_B - data.draw(st.floats(0.0, 3.0)) * gap_lo
        hi = pivots.v_T + data.draw(st.floats(0.0, 3.0)) * gap_hi
        nodes = 1 << cells
        h = (hi - lo) / (nodes - 1)
        x_B, x_T = (lo + (np.floor(share * (nodes - 1)) + data.draw(st.floats(0.05, 0.95))) * h
                    for share in (data.draw(st.floats(0.05, 0.4)),
                                  data.draw(st.floats(0.6, 0.95))))
        y_lo, y_B, y_T, y_hi = lut_ds(np.array([lo, x_B, x_T, hi]), params)
        assume(y_lo < y_B < y_T < y_hi)
        far = 100.0 * (y_hi - y_lo)  # a clip end no side reaches
        fields, clip = {}, [y_lo - far, y_hi + far]
        if top == "tail":
            fields.update(v_T=y_T, v_max=y_hi + data.draw(st.floats(0.0, 1.0)) * (y_hi - y_T),
                          v_clipT=y_T + data.draw(st.floats(0.05, 1.0)) * (y_hi - y_T),
                          enabled_top=True)
            clip[1] = fields["v_clipT"]
        elif top == "clip":
            clip[1] = y_T
        if bottom == "tail":
            fields.update(v_B=y_B, v_min=y_lo - data.draw(st.floats(0.0, 1.0)) * (y_B - y_lo),
                          v_clipB=y_B - data.draw(st.floats(0.05, 1.0)) * (y_B - y_lo),
                          enabled_bottom=True)
            clip[0] = fields["v_clipB"]
        elif bottom == "clip":
            clip[0] = y_B
        clipped = "clip" in (top, bottom) or data.draw(st.booleans())
        lut = compose_lut(params, TailSpec(**fields), (lo, hi),
                          clip=tuple(clip) if clipped else None)
        kinks = [x for x, side in ((x_B, bottom), (x_T, top)) if side != "none"]
        interpolate = lut.interpolant(nodes)
        step = 1.0 / interpolate.scale
        # a kink is placed to within the float steps of lut_ds near it
        ulps = 8.0 * (np.spacing(max(abs(lo), abs(hi)))
                      + np.spacing(np.abs([y_B, y_T]).max()) / (0.5 * min(params.sigma_B,
                                                                           sigma_T)))
        for kink in kinks:
            node = interpolate.origin + round((kink - interpolate.origin) / step) * step
            assert abs(node - kink) <= ulps
        # any other kink in the domain is where erf saturates and the clip
        # takes over: no step of the slope to speak of
        others = [jump for x, jump, _ in lut._kinks
                  if lo <= x <= hi and all(abs(x - k) > ulps for k in kinks)]
        assert all(jump <= 1e-9 * sigma_T * max(1.0, ratio) for jump in others)
        x = np.concatenate([_neighbours(kinks)] + [
            k + step * np.array([-1.5, -0.5, 0.5, 1.5]) for k in kinks] + [
            np.linspace(lo, hi, 4001), [lo - 1.0, hi + 1.0]])
        x = np.sort(x)
        got, exact = interpolate(x), np.asarray(lut.apply(x))
        rounding = _TABLE_ROUNDING_ULPS * np.spacing(np.abs(exact).max())
        assert np.abs(got - exact).max() <= lut.table_bound(nodes) + rounding
        assert (np.diff(got) >= 0.0).all()

    def test_a_kink_off_its_node_would_break_the_bound(self):
        # the top tail starts at lut_ds(1000.3), 0.3 of a cell past a node
        # of the grid anchored at lo: anchored, the table meets the bound; on
        # that unanchored grid the slope's step costs ~0.3 * 0.7 of it
        params = DualScaleParams(1.0, 1.0, 0.0, PivotTriple(-100.0, 0.0, 100.0))
        tails = TailSpec(v_T=1000.3, v_max=2000.0, v_clipT=1100.0, enabled_top=True)
        lut = compose_lut(params, tails, (0.0, 2000.0))
        (kink, jump, _), = lut._kinks
        assert kink == 1000.3
        assert jump == pytest.approx(1.0 - 4.0 / math.sqrt(math.pi) * 99.7 / 999.7)
        nodes = 2001  # one node per unit on [0, 2000] without the kink
        interpolate = lut.interpolant(nodes)
        assert (kink - interpolate.origin) * interpolate.scale == pytest.approx(
            round((kink - interpolate.origin) * interpolate.scale), abs=1e-9)
        x = np.linspace(999.0, 1002.0, 3001)
        error = np.abs(interpolate(x) - lut.apply(x)).max()
        assert error <= lut.table_bound(nodes) < 1e-4
        unanchored = np.interp(x, np.arange(2001.0), lut.apply(np.arange(2001.0)))
        assert np.abs(unanchored - lut.apply(x)).max() > 0.9 * jump * 0.3 * 0.7

    def test_bound_is_attained_at_the_middle_pivot(self):
        lut = compose_lut(_UNEVEN, TailSpec(), (-1000.0, 6000.0))
        nodes = 1 << 12
        h = 7000.0 / (nodes - 1)
        x = 1650.0 + h * np.linspace(-1.0, 1.0, 2001)
        error = np.abs(lut.interpolant(nodes)(x) - lut.apply(x)).max()
        assert 0.99 * lut.table_bound(nodes) <= error <= lut.table_bound(nodes)

    def test_a_tail_bends_the_bound_by_the_chain_rule(self):
        # the top tail starts at lut_ds(v_M) = 1650, where lut_ds bends most:
        # on the tail f'' = S''(g) g'^2 + S'(g) g'', S' at most its start's
        # 4 r_T / (sqrt(pi) r_S), |S''| at most |r_T| (2/r_S)^2 max|erf''|,
        # g' at most (sigma_B + sigma_T)/2 there and |g''| at most its value
        # at v_M, which also bounds the identity's piece
        tails = TailSpec(v_T=1650.0, v_max=2000.0, v_clipT=3000.0, enabled_top=True)
        lut = compose_lut(_UNEVEN, tails, (-1000.0, 6000.0))
        (kink, *_), = lut._kinks
        assert kink == pytest.approx(1650.0, abs=1e-9)
        erf_bend = 2.0 * math.sqrt(2.0) * math.exp(-0.5) / math.sqrt(math.pi)
        g_bend = 4.0 * 0.5 / (math.sqrt(math.pi) * 1150.0)
        curvature = (1350.0 * (2.0 / 350.0) ** 2 * erf_bend * 1.05 ** 2
                     + 4.0 / math.sqrt(math.pi) * 1350.0 / 350.0 * g_bend)
        for nodes in (1 << 10, 1 << 14):
            interpolate = lut.interpolant(nodes)
            h = 1.0 / interpolate.scale
            assert lut.table_bound(nodes) == pytest.approx(h * h / 8.0 * curvature, rel=1e-6)
            x = np.linspace(1650.0, 2200.0, 200001)
            exact = lut.apply(x)
            error = np.abs(interpolate(x) - exact).max()
            rounding = _TABLE_ROUNDING_ULPS * np.spacing(np.abs(exact).max())
            assert 0.5 * lut.table_bound(nodes) <= error <= lut.table_bound(nodes) + rounding

    def test_a_node_below_the_one_before_reads_as_flat(self, monkeypatch):
        # erf rounds an ulp down here and there between neighbouring floats;
        # should a tail's node land below the one before (here by far more,
        # so that the output would show it), the table must still never
        # descend.  Equal scale factors give the blend's erf no weight.
        def stepping_erf(t, out=None):
            values = erf(t, out=out)
            if values.size > 1:
                k = values.size // 2
                values[k] = values[k - 1] * (1.0 - 1e-6)
            return values

        params = DualScaleParams(1.0, 1.0, 0.0, PivotTriple(-100.0, 0.0, 100.0))
        tails = TailSpec(v_T=50.0, v_max=150.0, v_clipT=120.0, enabled_top=True)
        lut = compose_lut(params, tails, (-200.0, 200.0))
        nodes = lut.table_nodes(1 << 20)
        monkeypatch.setattr(transform, "erf", stepping_erf)
        interpolate = lut.interpolant(nodes)
        monkeypatch.undo()
        # the stepped node is the middle one of those past the start
        middle = (50.0 + 200.0) / 2.0
        h = 1.0 / interpolate.scale
        x = np.concatenate([np.linspace(-200.0, 200.0, 40001),
                            middle + h * np.linspace(-4.0, 4.0, 4001)])
        got = interpolate(np.sort(x))
        assert (np.diff(got) >= 0.0).all()
        assert got.max() == interpolate.bounds[1]

    def test_a_table_past_the_limit_keeps_the_exact_map(self):
        # a tail that bends over one unit needs ~2M nodes for the target
        params = DualScaleParams(1.0, 1.0, 0.0, PivotTriple(-100.0, 0.0, 100.0))
        tails = TailSpec(v_T=50.0, v_max=51.0, v_clipT=120.0, enabled_top=True)
        lut = compose_lut(params, tails, (-200.0, 200.0))
        nodes = lut.table_nodes(1 << 30)
        assert nodes > 2 and lut.table_nodes(nodes) == nodes
        assert lut.table_nodes(nodes - 1) is None
        index = IntensityIndex.of(volume_from_values(
            np.linspace(-200.0, 200.0, transform.TABLE_MIN_VOXELS)))
        assert transform.voxel_table(lut, index) is None  # 4 voxels per node
        assert index.n_voxels // transform.TABLE_VOXELS_PER_NODE < nodes

    @pytest.mark.parametrize("side", ["top", "bottom"])
    def test_tail_bound_is_attained_where_erf_bends_most(self, side):
        # lut_ds is the identity, read exactly from its table: the tail's
        # curvature is the whole error, largest at t = 1/sqrt(2)
        params = DualScaleParams(1.0, 1.0, 0.0, PivotTriple(-100.0, 0.0, 100.0))
        tails = (TailSpec(v_T=50.0, v_max=150.0, v_clipT=120.0, enabled_top=True)
                 if side == "top" else
                 TailSpec(v_B=-50.0, v_min=-150.0, v_clipB=-120.0, enabled_bottom=True))
        lut = compose_lut(params, tails, (-200.0, 200.0))
        nodes = lut.table_nodes(1 << 30)
        (start, r_S, _), = tails._ranges()
        bound = lut.table_bound(nodes)
        assert bound > 0.0
        interpolate = lut.interpolant(nodes)
        h = 1.0 / interpolate.scale
        bend = math.floor((start + r_S / (2.0 * math.sqrt(2.0)) - interpolate.origin) / h)
        x = interpolate.origin + (bend + np.arange(-20, 21) + 0.5) * h  # cell middles
        exact = lut.apply(x)
        error = np.abs(interpolate(x) - exact).max()
        rounding = _TABLE_ROUNDING_ULPS * np.spacing(np.abs(exact).max())
        assert 0.99 * bound <= error <= bound + rounding

    def test_constant_scale_needs_the_fewest_nodes(self):
        lut = compose_lut(DualScaleParams(1.2, 1.2, 10.0, PIVOTS), TailSpec(),
                          (-50.0, 150.0))
        assert lut.table_bound(2) == 0.0
        assert lut.table_nodes(1 << 30) == 2
        assert lut.table_nodes(1) is None
        x = np.linspace(-60.0, 160.0, 1001)
        np.testing.assert_allclose(lut.interpolant(2)(x), lut.apply(x), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bottom_larger", [True, False])
    def test_a_ratio_of_exactly_rho_star_never_descends(self, bottom_larger):
        # lut_ds's slope touches 0 at t = +1 (sigma_B the larger, on the top
        # span) or t = -1 (sigma_T, on the bottom span), 501 above or below
        # v_M; with these pivots, a pair of 2^18 nodes next to it descends
        # by rounding in float64, which the table reads as flat
        pivots = PivotTriple(*((0.0, 1.0, 1003.0) if bottom_larger else (0.0, 1002.0, 1003.0)))
        sigmas = (MONOTONE_RATIO, 1.0) if bottom_larger else (1.0, MONOTONE_RATIO)
        lut = compose_lut(DualScaleParams(*sigmas, 0.0, pivots), TailSpec(),
                          (0.0, 1003.0))
        nodes = 1 << 18
        flat = pivots.v_M + (501.0 if bottom_larger else -501.0)
        h = 1003.0 / (nodes - 1)
        rng = np.random.default_rng(17)
        x = np.sort(np.concatenate([
            flat + h * np.linspace(-50.0, 50.0, 20001),
            _neighbours(np.round(flat / h + np.arange(-50, 51)) * h),  # cell boundaries
            np.linspace(0.0, 1003.0, 20001), rng.uniform(0.0, 1003.0, 20000)]))
        got, exact = lut.interpolant(nodes)(x), lut.apply(x)
        assert (np.diff(got) >= 0.0).all()
        rounding = _TABLE_ROUNDING_ULPS * np.spacing(np.abs(exact).max())
        assert np.abs(got - exact).max() <= lut.table_bound(nodes) + rounding
