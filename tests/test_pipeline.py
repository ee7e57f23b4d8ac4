"""Tests for the harmonization pipeline and the baseline harness."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfmatch import (METHOD_CDF_MATCH, METHOD_PERCENTILE_STRETCH,
                      METHOD_ZSCORE, HarmonizeOptions, Volume, apply_lut,
                      build_cdf, evaluate_cohort, generate_synthetic, harmonize,
                      ks_distance, percentile_stretch, quantile, read_volume,
                      write_volume, zscore_standardize)
from cdfmatch.cdf import DTYPES, IntensityIndex, SortedForeground, check_fits
from cdfmatch.errors import (AllBackground, DegenerateCdf, DegenerateConstant,
                             EmptyInput, Overflow)
from cdfmatch.pipeline import quantization_range
from cdfmatch.template import ControlPoints, build_template
from cdfmatch.transform import TABLE_TOLERANCE, TABLE_VOXELS_PER_NODE, voxel_table

from conftest import (float32_read_rounding, sample_from_cdf, scanner_cohort,
                      scanner_effect, stored_volume, t2_spec, volume_from_values)


class TestHarmonize:
    def test_template_self_sample_improves_ks(self, template_12bit):
        values = sample_from_cdf(template_12bit.cdf, 24 ** 3, seed=7)
        vol = volume_from_values(values, channel="T2")
        out, entry = harmonize(vol, template_12bit)
        assert entry.post_ks < entry.pre_ks
        assert entry.post_ks < 0.02

    def test_near_idempotence(self, template_12bit):
        vol = generate_synthetic(t2_spec(600, scanner=scanner_effect(2)))
        once, _ = harmonize(vol, template_12bit)
        _, second = harmonize(once, template_12bit)
        span = template_12bit.controls.span
        assert second.fit.params.sigma_B == pytest.approx(1.0, abs=0.02)
        assert second.fit.params.sigma_T == pytest.approx(1.0, abs=0.02)
        assert abs(second.fit.params.gamma
                   - template_12bit.controls.t_M) <= 0.005 * span

    def test_heterogeneous_cohort_clusters_around_template(self, template_12bit):
        cohort = scanner_cohort(9)
        for vol in cohort:
            _, entry = harmonize(vol, template_12bit)
            assert entry.post_ks <= 0.05
            assert entry.post_ks > 0.0  # small local deviations persist
            assert entry.post_ks < entry.pre_ks

    def test_output_contained_in_clip_range(self, template_12bit):
        vol = generate_synthetic(t2_spec(601, scanner=scanner_effect(5)))
        out, _ = harmonize(vol, template_12bit)
        fg = out.foreground()
        assert fg.min() >= 1.0 and fg.max() <= 4095.0

    def test_background_count_preserved(self, template_12bit):
        spec = t2_spec(602)
        spec = type(spec)(components=spec.components, dims=spec.dims,
                          scanner=spec.scanner, lesions=spec.lesions,
                          background_fraction=0.25, channel="T2", seed=602)
        vol = generate_synthetic(spec)
        n_bg = int((vol.voxels == 0.0).sum())
        assert n_bg > 0
        out, _ = harmonize(vol, template_12bit)
        assert int((out.voxels == 0.0).sum()) == n_bg

    def test_quantization_produces_integers_in_range(self, template_12bit):
        vol = generate_synthetic(t2_spec(603))
        out, _ = harmonize(vol, template_12bit, HarmonizeOptions(bits=12))
        fg = out.foreground()
        assert np.array_equal(fg, np.rint(fg))
        assert fg.min() >= 1.0 and fg.max() <= 4095.0

    def test_report_entry_is_serializable_and_stable(self, template_12bit):
        vol = generate_synthetic(t2_spec(605))
        _, a = harmonize(vol, template_12bit)
        _, b = harmonize(vol, template_12bit)
        assert a.to_dict() == b.to_dict()  # timing excluded by default
        assert "wall_time_s" in a.to_dict(include_timing=True)


class TestStoredDtypes:
    """A volume read in its stored dtype harmonizes exactly like its float64 copy."""

    # (file dtype, stored values from T2-like voxels v, header background)
    CASES = {
        "u8": (lambda v: np.clip(np.rint(0.4 * v), 1, 255), 0.0),
        "u16": (lambda v: np.rint(v), 0.0),
        "i16": (lambda v: np.rint(v) - 600.0, -1024.0),
        "f32": (lambda v: v, 0.0),
        # 0.1 is not a float32: the voxels stored as 0.1f are foreground
        "f32_background_0.1": (lambda v: np.where(np.arange(v.size) % 5 == 0, 0.1, v), 0.1),
    }

    @staticmethod
    def _stored_and_copy(tmp_path, case, seed):
        stored, background = TestStoredDtypes.CASES[case]
        dtype = case.split("_")[0]
        base = generate_synthetic(t2_spec(seed, dims=(20, 20, 20)))
        values = np.array(stored(base.voxels))
        values[:values.size // 6] = background
        path = tmp_path / f"{case}-{seed}.raw"
        write_volume(Volume(base.dims, values, "T2", background), path, dtype=dtype)
        vol = read_volume(path)
        copy = Volume(vol.dims, vol.voxels, vol.channel, vol.background_value)
        assert vol.voxels.dtype.name == {"u8": "uint8", "u16": "uint16", "i16": "int16",
                                         "f32": "float32"}[dtype]
        assert copy.voxels.dtype == np.float64
        return vol, copy

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_stage_equals_the_float64_copy(self, template_12bit, tmp_path, case):
        vol, copy = self._stored_and_copy(tmp_path, case, 1201)
        if case == "f32_background_0.1":
            assert build_cdf(vol).n_samples == vol.n_voxels
        for exclude in (True, False):
            a, b = build_cdf(vol, exclude), build_cdf(copy, exclude)
            assert (a.xs.tobytes(), a.ps.tobytes(), a.n_samples) == \
                (b.xs.tobytes(), b.ps.tobytes(), b.n_samples)
        for bits in (None, 12):
            # u16, the default under bits, cannot hold the -1024 background;
            # f32, the default without bits, can
            dtype = "i16" if case == "i16" and bits is not None else None
            options = HarmonizeOptions(bits=bits, dtype=dtype)
            out_a, entry_a = harmonize(vol, template_12bit, options)
            out_b, entry_b = harmonize(copy, template_12bit, options)
            assert out_a.voxels.dtype == DTYPES[options.dtype]
            assert out_a.voxels.tobytes() == out_b.voxels.tobytes()
            assert entry_a.to_dict() == entry_b.to_dict()
            # and the float64 mapping, before any cast, bit for bit
            q_range = None if bits is None else quantization_range(template_12bit, bits)
            assert (apply_lut(vol, entry_a.lut, q_range=q_range).voxels.tobytes()
                    == apply_lut(copy, entry_b.lut, q_range=q_range).voxels.tobytes())
        for baseline in (zscore_standardize,
                         lambda v: percentile_stretch(v, (1.0, 4095.0))):
            out_a, out_b = baseline(vol), baseline(copy)
            assert out_a.voxels.dtype == np.float64
            assert out_a.voxels.tobytes() == out_b.voxels.tobytes()
        other, other_copy = self._stored_and_copy(tmp_path, case, 1202)
        rows_a = evaluate_cohort([vol, other], template_12bit)
        rows_b = evaluate_cohort([copy, other_copy], template_12bit)
        assert [r.to_dict() for r in rows_a] == [r.to_dict() for r in rows_b]


def reference_stretch(vol: Volume, target, lo_p=0.01, hi_p=0.99) -> np.ndarray:
    """percentile_stretch per voxel: the clipped affine map of the float64
    foreground, anchored on the rank-knot CDF's quantiles, every other voxel
    copied."""
    out = vol.voxels.astype(np.float64)
    mask = out != np.float64(vol.background_value)
    fg = out[mask]
    q_lo, q_hi = quantile(build_cdf(vol), [lo_p, hi_p])
    t_lo, t_hi = target
    out[mask] = np.clip(t_lo + (fg - q_lo) * ((t_hi - t_lo) / (q_hi - q_lo)), t_lo, t_hi)
    return out


@st.composite
def _stretch_inputs(draw):
    """A u16 or f32 volume of 3 to 600 voxels, some of them background,
    whose foreground holds at least two intensities."""
    dtype = draw(st.sampled_from((np.uint16, np.float32)))
    elements = (st.integers(1, 65535) if dtype is np.uint16
                else st.floats(-1e6, 1e6, width=32).filter(lambda v: v != 0.0))
    fg = draw(st.lists(elements, min_size=2, max_size=500).filter(
        lambda values: len(set(values)) > 1))
    n_bg = draw(st.integers(1, 100))
    values = np.array(fg + [0] * n_bg, dtype=np.float64)
    order = draw(st.permutations(range(values.size)))
    return stored_volume(values[order], dtype)


class TestPercentileStretch:
    # a dense u16 table, a sorted one (one hot pixel) and an f32 volume,
    # each over several 64k blocks of voxels
    @pytest.mark.parametrize("kind", ["u16", "hot_pixel", "f32"])
    def test_equals_the_per_voxel_formula_byte_for_byte(self, kind):
        rng = np.random.default_rng(61)
        n = 3 * 65536 + 5
        if kind == "f32":
            values, dtype = rng.normal(900.0, 300.0, n), np.float32
        else:
            values, dtype = rng.integers(0, 4096, n), np.uint16
            if kind == "hot_pixel":
                values = values[:4000]
                values[17] = 65535
        values[rng.random(values.size) < 0.2] = 0.0
        vol = stored_volume(values, dtype)
        assert (IntensityIndex.of(vol).counts is None) == (kind == "f32")
        out = percentile_stretch(vol, (1.0, 4095.0))
        assert out.voxels.tobytes() == reference_stretch(vol, (1.0, 4095.0)).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(vol=_stretch_inputs(), seed=st.integers(0, 2 ** 32 - 1))
    def test_monotone_background_kept_in_target_and_order_free(self, vol, seed):
        target = (1.0, 4095.0)
        out = percentile_stretch(vol, target)
        x, y = vol.voxels.astype(np.float64), out.voxels
        background = x == 0.0
        assert (y[background] == 0.0).all()
        fg_in, fg_out = x[~background], y[~background]
        assert fg_out.min() >= target[0] and fg_out.max() <= target[1]
        order = np.argsort(fg_in, kind="stable")
        assert np.diff(fg_out[order]).min() >= 0.0
        perm = np.random.default_rng(seed).permutation(vol.n_voxels)
        shuffled = percentile_stretch(stored_volume(vol.voxels[perm], vol.voxels.dtype),
                                      target)
        assert shuffled.voxels.tobytes() == y[perm].tobytes()


class TestClipModes:
    def test_unclipped_template_skips_tails(self, template_unclipped):
        vol = generate_synthetic(t2_spec(961, scanner=scanner_effect(4)))
        out, entry = harmonize(vol, template_unclipped)
        assert not entry.lut.tails.enabled_top
        assert not entry.lut.tails.enabled_bottom
        assert entry.lut.hard_clamp is None
        assert entry.post_ks < 0.05

    def test_quantized_foreground_never_becomes_background(self, template_unclipped):
        # the unclipped 12-bit range starts at the background value, and the
        # template's low tail maps the darkest voxels below 0.5
        from dataclasses import replace
        spec = replace(t2_spec(964, scanner=scanner_effect(1)), background_fraction=0.2)
        vol = generate_synthetic(spec)
        out, entry = harmonize(vol, template_unclipped, HarmonizeOptions(bits=12))
        assert entry.lut.apply(entry.lut.domain[0]) < 0.5
        assert int((out.voxels == 0.0).sum()) == int((vol.voxels == 0.0).sum())
        assert out.foreground().min() == 1.0


class TestBackgroundProperties:
    @settings(max_examples=30)
    @given(gain=st.floats(0.25, 4.0), offset=st.floats(-200.0, 200.0),
           background_fraction=st.floats(0.0, 0.6), clipped=st.booleans())
    def test_quantized_background_untouched_and_monotone(
            self, template_12bit, template_unclipped, gain, offset,
            background_fraction, clipped):
        template = template_12bit if clipped else template_unclipped
        base = generate_synthetic(t2_spec(970, dims=(16, 16, 16))).voxels
        values = gain * base + offset
        values[:int(background_fraction * values.size)] = 0.0
        vol = volume_from_values(values, channel="T2")
        out, _ = harmonize(vol, template, HarmonizeOptions(bits=12))
        background = vol.voxels == 0.0
        assert int((out.voxels == 0.0).sum()) == int(background.sum())
        fg_in, fg_out = vol.voxels[~background], out.voxels[~background]
        assert (fg_out != 0.0).all()
        order = np.argsort(fg_in, kind="stable")
        assert np.diff(fg_out[order]).min() >= 0.0


def _per_voxel_reference(vol, lut, template, bits):
    """harmonize's mapping evaluated voxel by voxel, in float64: the LUT on
    every voxel, background copied, then the quantize rule.  This is what
    harmonize returned before it stored its output in the output dtype."""
    bg = vol.background_value
    out = np.asarray(lut.apply(vol.voxels), dtype=np.float64)
    out[vol.voxels == np.float64(bg)] = bg
    if bits is None:
        return out
    lo, hi = template.clip if template.clip is not None else (0.0, 2.0 ** bits - 1)
    q = np.rint(np.clip(out, lo, hi))
    q[q == bg] = bg + 1.0 if bg + 1.0 <= hi else bg - 1.0
    q[out == bg] = bg
    return q


def _stored_reference(vol, lut, template, bits, dtype):
    """The float64 reference as ``write_volume`` stores it in ``dtype``
    (rounded for an integer dtype), plus the one background rule: a
    foreground voxel stored as the background moves one step away, to the
    next integer on an integer dtype or under ``bits`` (down when up passes
    the top), else to the next float32 above."""
    ref = _per_voxel_reference(vol, lut, template, bits)
    dt = DTYPES[dtype]
    stored = np.rint(ref).astype(dt) if dt.kind in "ui" else ref.astype(dt)
    bg = stored.dtype.type(np.rint(vol.background_value) if dt.kind in "ui"
                           else vol.background_value)
    merged = (vol.voxels != np.float64(vol.background_value)) & (stored == bg)
    if dt.kind in "ui" or bits is not None:
        top = np.iinfo(dt).max if bits is None else quantization_range(template, bits)[1]
        stored[merged] = float(bg) + 1.0 if float(bg) + 1.0 <= top else float(bg) - 1.0
    else:
        stored[merged] = np.nextafter(bg, np.float32(np.inf))
    return stored


_INDEX_BASE = generate_synthetic(t2_spec(975, dims=(32, 16, 16))).voxels
_INTEGER_KINDS = ("integer", "hot_pixel", "two_voxels", "integer_float")


@st.composite
def _indexed_volumes(draw, kind):
    """Volumes on each side of the intensity index: integer-valued (i16-like
    negative ranges, a hot pixel past the voxel count, 2-voxel foregrounds,
    integer values stored as f32) and not integer-valued."""
    gain = draw(st.floats(0.25, 8.0))
    offset = draw(st.floats(-3000.0, 3000.0))
    background = float(draw(st.integers(-50, 50)))
    n_bg = int(draw(st.floats(0.0, 0.5)) * _INDEX_BASE.size)
    values = gain * _INDEX_BASE + offset
    if kind != "float":
        values = np.rint(values)
    if kind == "integer_float":
        values = values.astype(np.float32).astype(np.float64)
    if kind == "hot_pixel":
        values[draw(st.integers(n_bg, values.size - 1))] = values.max() + 40000.0
    if kind == "nearly_integer":
        # an odd position: the strided probe passes, the full check fails
        values[2 * draw(st.integers(n_bg // 2, values.size // 2 - 1)) + 1] += 0.5
    values[:n_bg] = background
    if kind == "two_voxels":
        values[:] = background
        values[[3, 4001]] = background + np.array([draw(st.integers(1, 900)),
                                                   draw(st.integers(-900, -1))])
    return volume_from_values(values, channel="T2", background=background)


class TestIntensityIndexIsExact:
    @pytest.mark.parametrize("kind", _INTEGER_KINDS + ("float", "nearly_integer"))
    @settings(max_examples=12)
    @given(data=st.data(), bits=st.sampled_from((None, 12)), clipped=st.booleans())
    def test_harmonize_matches_per_voxel_reference(
            self, template_12bit, template_unclipped, kind, data, bits, clipped):
        vol = data.draw(_indexed_volumes(kind))
        template = template_12bit if clipped else template_unclipped
        index = IntensityIndex.of(vol)
        assert (index.inverse is not None) == (kind in _INTEGER_KINDS)
        if kind == "hot_pixel":
            assert np.ptp(vol.voxels) >= vol.n_voxels  # the sort-based index
        # the drawn background may be negative: i16 holds it and 12-bit levels
        options = HarmonizeOptions(bits=bits, dtype="f32" if bits is None else "i16")
        if kind == "two_voxels":
            # two levels collapse the control quantiles; the mapping stage
            # alone is still checked, with another volume's LUT
            with pytest.raises(DegenerateCdf):
                harmonize(vol, template, options)
            lut = harmonize(volume_from_values(_INDEX_BASE), template)[1].lut
            assert (apply_lut(vol, lut).voxels.tobytes()
                    == _per_voxel_reference(vol, lut, template, None).tobytes())
            return
        out, entry = harmonize(vol, template, options)
        expected = _stored_reference(vol, entry.lut, template, bits, options.dtype)
        assert out.voxels.tobytes() == expected.tobytes()
        # mapped per level in float64, the output is the per-voxel one bit for bit
        q_range = None if bits is None else quantization_range(template, bits)
        assert (apply_lut(vol, entry.lut, q_range=q_range).voxels.tobytes()
                == _per_voxel_reference(vol, entry.lut, template, bits).tobytes())
        post_cdf = build_cdf(out, grid_size=options.grid_size)
        assert entry.post_ks == ks_distance(post_cdf, template.cdf)

    def test_integer_voxels_past_two_to_the_53_map_voxel_by_voxel(self, template_12bit):
        # float64 no longer holds every integer there, so no level table is
        # built: the index keeps one level per voxel and still maps exactly
        values = np.rint(_INDEX_BASE)
        values[[17, 4000]] = (2.0 ** 54, -(2.0 ** 53) - 2.0)
        vol = volume_from_values(values)
        index = IntensityIndex.of(vol)
        assert index.inverse is None and index.counts is None
        lut = harmonize(volume_from_values(_INDEX_BASE), template_12bit)[1].lut
        out = apply_lut(vol, lut)
        assert out.voxels.tobytes() == _per_voxel_reference(vol, lut, template_12bit,
                                                            None).tobytes()
        assert out.voxels[17] == lut.apply(lut.domain[1])

    @pytest.mark.parametrize("values, error", [
        ([3.0] * 40, AllBackground),
        ([3.0] * 20 + [-7.0] * 20, DegenerateConstant),
        ([3.0] * 20 + [-7.5] * 20, DegenerateConstant),
        ([3.0] * 39 + [65535.0], DegenerateConstant),
    ])
    def test_empty_and_single_level_foregrounds_raise(self, template_12bit,
                                                      values, error):
        vol = volume_from_values(values, background=3.0)
        with pytest.raises(error):
            harmonize(vol, template_12bit, HarmonizeOptions(bits=12))


# low 8-bit-like controls: unclipped, they map the darkest voxels around 0,
# where an integer output rounds them onto the background
_LOW_CONTROLS = ControlPoints((0.1, 20.0), (0.5, 60.0), (0.99, 140.0))


@pytest.fixture(scope="module")
def low_templates():
    cohort = scanner_cohort(3, seed0=960)
    return {"unclipped": build_template(cohort, controls=_LOW_CONTROLS, clip=None),
            "clipped": build_template(cohort, controls=_LOW_CONTROLS, clip=(1.0, 250.0))}


# three 64k blocks plus a partial one, for the blocked count and gather
_PAYLOAD_BASE = generate_synthetic(t2_spec(990, dims=(65, 64, 48))).voxels


@st.composite
def _stored_inputs(draw, kind):
    """A volume as read_volume returns it: u16 holding 0 (its voxels are
    their own rows), u16 above 0 (a table from 0 with unused levels), u16
    with a hot pixel (the sorted table), i16 with negatives, or f32."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    values = draw(st.floats(0.3, 6.0)) * _PAYLOAD_BASE
    background = 0.0
    if kind == "u16_above_0":
        values = values + draw(st.floats(1.0, 900.0))  # no voxel at 0
    if kind == "hot_pixel":
        values = values[:60000]  # fewer voxels than the hot value
    if kind == "i16_negative":
        values = values - draw(st.floats(200.0, 2000.0))
        background = draw(st.sampled_from((0.0, -1024.0)))
    if kind != "f32":
        values = np.rint(values)
    if kind != "u16_above_0":
        values[rng.random(values.size) < draw(st.floats(0.0, 0.4))] = background
    if kind == "hot_pixel":
        values[draw(st.integers(0, values.size - 1))] = 65535.0
    dtype = {"i16_negative": np.int16, "f32": np.float32}.get(kind, np.uint16)
    return stored_volume(values, dtype, background)


class TestOutputDtype:
    """harmonize stores its output in the output dtype, and the file holds
    what the float64 output used to become in write_volume."""

    @pytest.mark.parametrize("kind", ["u16_from_0", "u16_above_0", "hot_pixel",
                                      "i16_negative", "f32"])
    @pytest.mark.parametrize("dtype", sorted(DTYPES))
    @pytest.mark.parametrize("bits", [None, 12])
    @settings(max_examples=4)
    @given(data=st.data(), clipped=st.booleans())
    def test_payload_equals_the_float64_path_unless_it_merged_into_background(
            self, low_templates, tmp_path_factory, kind, dtype, bits, data, clipped):
        vol = data.draw(_stored_inputs(kind))
        own_rows = IntensityIndex.of(vol).inverse is vol.voxels
        assert own_rows == (kind in ("u16_from_0", "u16_above_0"))
        template = low_templates["clipped" if clipped else "unclipped"]
        lut = harmonize(vol, template, HarmonizeOptions(bits=bits, dtype="f32"))[1].lut
        # the float64 path: per-voxel float64 output, then write_volume's rint/astype
        old = Volume(vol.dims, _per_voxel_reference(vol, lut, template, bits),
                     vol.channel, vol.background_value)
        path = tmp_path_factory.mktemp("payload")
        bg = vol.background_value
        integer = DTYPES[dtype].kind in "ui"
        try:
            write_volume(old, path / "old.raw", dtype)
            # the output dtype must hold the background value, even when no
            # voxel is background
            check_fits(dtype, bg, bg)
        except Overflow:
            with pytest.raises(Overflow):
                harmonize(vol, template, HarmonizeOptions(bits=bits, dtype=dtype))
            return
        out, entry = harmonize(vol, template, HarmonizeOptions(bits=bits, dtype=dtype))
        assert out.voxels.dtype == DTYPES[dtype] and entry.lut == lut
        write_volume(out, path / "new.raw", dtype)
        assert ((path / "new.raw.json").read_bytes()
                == (path / "old.raw.json").read_bytes())
        old_payload = np.fromfile(path / "old.raw", dtype=DTYPES[dtype])
        new_payload = np.fromfile(path / "new.raw", dtype=DTYPES[dtype])
        stored_bg = DTYPES[dtype].type(np.rint(bg) if integer else bg)
        fg = vol.voxels != np.float64(bg)
        merged = fg & (old_payload == stored_bg)
        assert new_payload[~merged].tobytes() == old_payload[~merged].tobytes()
        # no foreground voxel is stored as the background; those the float64
        # path merged into it moved one step away
        assert (new_payload[fg] != stored_bg).all()
        if integer or bits is not None:
            step = np.abs(new_payload[merged].astype(np.float64) - float(stored_bg))
            assert (step == 1.0).all()
        else:
            assert (new_payload[merged] == np.nextafter(stored_bg, np.float32(np.inf))).all()

    def test_integer_output_without_bits_keeps_foreground_off_background(
            self, low_templates, tmp_path):
        # 32,000 foreground voxels; the darkest map into (-0.5, 0.5), which
        # write_volume used to round onto the background 0
        vol = generate_synthetic(t2_spec(964, dims=(40, 40, 20), scanner=scanner_effect(1)))
        template = low_templates["unclipped"]
        out, entry = harmonize(vol, template, HarmonizeOptions(dtype="i16"))
        near_zero = np.abs(np.asarray(entry.lut.apply(vol.voxels))) < 0.5
        assert near_zero.sum() > 0
        write_volume(out, tmp_path / "out.raw", "i16")
        back = read_volume(tmp_path / "out.raw")
        assert (back.voxels != 0).all()
        assert (back.voxels[near_zero] == 1).all()

    def test_float32_post_ks_is_the_ks_of_the_stored_foreground(self, template_12bit):
        # 0.1 is not a float32: voxels stored as 0.1f are foreground, and the
        # output stores background as 0.1f, which no foreground voxel equals
        values = generate_synthetic(t2_spec(1201, dims=(20, 20, 20))).voxels.copy()
        values[np.arange(values.size) % 5 == 0] = 0.1
        vol = stored_volume(values, np.float32, background=0.1)
        out, entry = harmonize(vol, template_12bit)
        assert out.voxels.dtype == np.float32
        assert out.background_value == float(np.float32(0.1))
        assert (out.voxels != np.float32(0.1)).all()
        stored = build_cdf(volume_from_values(out.voxels), exclude_background=False)
        assert entry.post_ks == ks_distance(stored, template_12bit.cdf)
        as_float64 = volume_from_values(entry.lut.apply(vol.voxels))
        float64_ks = ks_distance(build_cdf(as_float64, exclude_background=False),
                                 template_12bit.cdf)
        assert abs(entry.post_ks - float64_ks) <= 1e-6

    def test_dtype_defaults_to_u16_under_bits_else_f32(self):
        assert HarmonizeOptions().dtype == "f32"
        assert HarmonizeOptions(bits=12).dtype == "u16"
        assert HarmonizeOptions(bits=12, dtype="i16").dtype == "i16"
        assert HarmonizeOptions(dtype="f32").hash() == HarmonizeOptions().hash()
        assert HarmonizeOptions(dtype="i16").hash() != HarmonizeOptions().hash()
        with pytest.raises(ValueError, match="dtype"):
            HarmonizeOptions(dtype="f64")


class TestTablePath:
    """A float volume with enough voxels per table node maps through the
    interpolated table: within its stated bound of the exact map."""

    @pytest.fixture(scope="class")
    def large_f32(self):
        # 1.2M voxels, over the 2^20 of the fewest table nodes; a fifth background
        values = generate_synthetic(t2_spec(1300, dims=(112, 112, 96),
                                            scanner=scanner_effect(2))).voxels.copy()
        values[np.random.default_rng(1300).random(values.size) < 0.2] = 0.0
        return stored_volume(values, np.float32)

    @pytest.mark.parametrize("clipped", [True, False])
    def test_payload_within_the_bound_of_the_exact_map(self, template_12bit,
                                                       template_unclipped, large_f32,
                                                       clipped, monkeypatch):
        import cdfmatch.pipeline as pipeline
        vol = large_f32
        template = template_12bit if clipped else template_unclipped
        cdfs = []

        def keeping(source, **kwargs):
            cdfs.append((source, build_cdf(source, **kwargs)))
            return cdfs[-1][1]

        monkeypatch.setattr(pipeline, "build_cdf", keeping)
        out, entry = harmonize(vol, template)
        monkeypatch.undo()
        lut = entry.lut
        nodes = lut.table_nodes(vol.n_voxels // TABLE_VOXELS_PER_NODE)
        assert nodes is not None
        table = voxel_table(lut, IntensityIndex.of(vol), "f32")
        assert table.table.dtype == np.float32 and table.table.size <= nodes
        expected = _stored_reference(vol, lut, template, None, "f32")
        fg = vol.voxels != np.float32(vol.background_value)
        # f32 voxels read a float32 table: a value moves by at most the
        # table's bound and the rounding the float32 read states, from the
        # exact map, which the reference rounds half an ulp to float32
        gap = np.abs(out.voxels.astype(np.float64) - expected.astype(np.float64))
        bound = (lut.table_bound(nodes) + float32_read_rounding(table)
                 + 8 * np.spacing(np.abs(expected.astype(np.float64)).max()))
        assert (gap <= bound + 0.5 * np.spacing(np.abs(expected))).all()
        assert np.count_nonzero(out.voxels != expected) > 0
        # background untouched, foreground off it and non-decreasing in the input
        assert (~fg).any() and (out.voxels[~fg] == np.float32(vol.background_value)).all()
        assert (out.voxels[fg] != np.float32(vol.background_value)).all()
        order = np.argsort(vol.voxels[fg], kind="stable")
        assert (np.diff(out.voxels[fg][order]) >= 0.0).all()
        post_cdf = build_cdf(out, grid_size=HarmonizeOptions().grid_size)
        assert entry.post_ks == ks_distance(post_cdf, template.cdf)
        # the post-CDF harmonize read at the rank knots, before the mapping,
        # is the stored output's, bit for bit
        (sorted_fg, pre), (mapped, post) = cdfs
        assert isinstance(sorted_fg, SortedForeground) and sorted_fg.store is None
        assert sorted_fg.background_value == vol.background_value
        assert isinstance(mapped, SortedForeground) and mapped.store is not None
        assert mapped.values is sorted_fg.values
        assert post.xs.tobytes() == post_cdf.xs.tobytes()
        assert post.ps.tobytes() == post_cdf.ps.tobytes()
        assert post.n_samples == post_cdf.n_samples == np.count_nonzero(fg)
        assert entry.pre_ks == ks_distance(pre, template.cdf)
        again, _ = harmonize(vol, template)
        assert again.voxels.tobytes() == out.voxels.tobytes()

    @pytest.mark.parametrize("clipped, parent_peak", [(True, 1.77), (False, 1.55)])
    def test_the_table_takes_the_nodes_its_bound_needs(self, template_12bit,
                                                       template_unclipped, large_f32,
                                                       clipped, parent_peak):
        # sized from its bound, not from a 2^18-node floor: 2^17 nodes
        # (clipped) and 2^16 (unclipped) meet the target on this volume, so
        # the table no longer weighs as much as the payload
        template = template_12bit if clipped else template_unclipped
        harmonize(large_f32, template)  # warm
        gc.collect()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out, entry = harmonize(large_f32, template)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        nodes = entry.lut.table_nodes(large_f32.n_voxels // TABLE_VOXELS_PER_NODE)
        assert nodes == (1 << 17 if clipped else 1 << 16)
        assert entry.lut.table_bound(nodes // 2) > TABLE_TOLERANCE * (
            4094.0 if clipped else np.ptp(entry.lut.apply(np.array(entry.lut.domain))))
        # measured 1.49 and 1.35 payloads with a float32 table and read; 1.77
        # and 1.55 with a float64 one, 2.27 and 2.20 with 2^18 nodes and
        # per-tail tables
        assert peak <= parent_peak * out.voxels.nbytes

    @pytest.mark.parametrize("dtype, bits", [("u16", 12), ("f32", None)])
    def test_checks_settled_once_still_move_colliding_voxels(self, template_unclipped,
                                                             large_f32, dtype, bits):
        # the unclipped template maps part of the foreground below 0.5, so the
        # table's range spans the background 0: under --bits 12, ~15k
        # foreground voxels round onto it and must move to 1
        index = IntensityIndex.of(large_f32)
        _, entry = harmonize(large_f32, template_unclipped, HarmonizeOptions(bits=bits))
        table = voxel_table(entry.lut, index)
        assert table is not None and table.bounds[0] < 0.0 < table.bounds[1]
        q_range = None if bits is None else quantization_range(template_unclipped, bits)
        out = apply_lut(index, entry.lut, dtype, q_range, fn=table).levels
        # the same table with no bounds is checked block by block
        blockwise = apply_lut(index, entry.lut, dtype, q_range, fn=lambda x: table(x)).levels
        assert out.tobytes() == blockwise.tobytes()
        fg = large_f32.voxels != 0.0
        assert (out[~fg] == 0).all() and (out[fg] != 0).all()
        if bits is not None:
            landing = np.rint(np.clip(table(large_f32.voxels[fg]), *q_range)) == 0.0
            assert landing.sum() > 10_000 and (out[fg][landing] == 1).all()

    def test_integer_output_keeps_the_float64_read(self, template_unclipped, large_f32):
        # under --bits a float32 ulp could flip a level: the table stays
        # float64 and reads as it did before the float32 read, byte for byte
        q_range = quantization_range(template_unclipped, 12)
        out, entry = harmonize(large_f32, template_unclipped, HarmonizeOptions(bits=12))
        index = IntensityIndex.of(large_f32)
        table = voxel_table(entry.lut, index, "u16", q_range)
        assert table.table.dtype == table.rise.dtype == np.float64

        def float64_read(x):
            u = np.subtract(x, table.origin, dtype=np.float64)
            np.clip(u, table.domain[0] - table.origin, table.domain[1] - table.origin, out=u)
            u *= table.scale
            cell = u.astype(np.intp)
            u -= cell
            return np.take(table.rise, cell, mode="clip") * u + np.take(table.table, cell,
                                                                        mode="clip")

        assert table(large_f32.voxels).tobytes() == float64_read(large_f32.voxels).tobytes()
        reference = apply_lut(index, entry.lut, "u16", q_range, fn=float64_read).to_volume()
        assert out.voxels.tobytes() == reference.voxels.tobytes()

    @pytest.mark.parametrize("clipped", [True, False])
    def test_a_table_past_the_output_dtype_raises_overflow(self, template_12bit,
                                                           template_unclipped, large_f32,
                                                           clipped):
        # the table's extremes, ~6 to ~4093 or ~-999 to ~12333, do not fit u8
        template = template_12bit if clipped else template_unclipped
        with pytest.raises(Overflow, match="u8"):
            harmonize(large_f32, template, HarmonizeOptions(dtype="u8"))

    def test_peak_memory_holds_no_sorted_copy_through_the_mapping(self, template_12bit):
        # 4.1M voxels, a fifth background: a payload large enough next to the
        # 2^18-node table that a sorted copy of the foreground would show
        values = generate_synthetic(t2_spec(1301, dims=(160, 160, 160),
                                            scanner=scanner_effect(2))).voxels.copy()
        values[np.random.default_rng(1301).random(values.size) < 0.2] = 0.0
        vol = stored_volume(values, np.float32)
        del values
        gc.collect()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out, _ = harmonize(vol, template_12bit)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        # measured 1.14 payloads: the output, the table and one block's
        # temporaries; sorting the output for the post-CDF took 2.05
        assert peak <= 1.7 * out.voxels.nbytes


class TestStagesStayVisible:
    @pytest.mark.parametrize("integer", [True, False])
    def test_harmonize_calls_each_stage_by_its_pipeline_name(
            self, template_12bit, monkeypatch, integer):
        import cdfmatch.pipeline as pipeline
        calls = {"build_cdf": 0, "apply_lut": 0}

        def counting(name):
            original = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(pipeline, name, counting(name))
        vol = generate_synthetic(t2_spec(980))
        if integer:
            vol = Volume(vol.dims, np.rint(vol.voxels), vol.channel, vol.background_value)
        assert (IntensityIndex.of(vol).inverse is not None) == integer
        harmonize(vol, template_12bit, HarmonizeOptions(bits=12))
        assert calls == {"build_cdf": 2, "apply_lut": 1}


@pytest.mark.parametrize("bits", [0, -3, 17])
def test_bits_outside_1_to_16_rejected(bits):
    with pytest.raises(ValueError, match="bits"):
        HarmonizeOptions(bits=bits)


@pytest.mark.parametrize("field, value", [
    ("bits", 12.5), ("bits", True), ("bits", 12.0), ("bits", "12"),
    ("grid_size", 1), ("grid_size", 0), ("grid_size", 256.0), ("grid_size", True),
    ("grid_size", "256"),
])
def test_options_hold_integers_in_range(field, value):
    # True would quantize to 1 bit; grid_size 1 would fail only inside build_cdf
    with pytest.raises(ValueError, match=field):
        HarmonizeOptions(**{field: value})


def test_quantization_range_must_fit_the_bit_depth(template_12bit, template_unclipped):
    assert quantization_range(template_12bit, 12) == (1.0, 4095.0)
    assert quantization_range(template_unclipped, 8) == (0.0, 255.0)
    with pytest.raises(ValueError, match="more than 256 levels"):
        quantization_range(template_12bit, 8)
    # harmonize applies the same rule before it maps anything
    vol = generate_synthetic(t2_spec(610, dims=(8, 8, 8)))
    with pytest.raises(ValueError, match="more than 2048 levels"):
        harmonize(vol, template_12bit, HarmonizeOptions(bits=11))


class TestRealisticRegimes:
    def test_quantized_volumes_with_background(self):
        from dataclasses import replace

        from cdfmatch import Volume, build_template
        volumes = []
        for i in range(5):
            spec = replace(t2_spec(1500 + i, scanner=scanner_effect(i)),
                           background_fraction=0.3)
            raw = generate_synthetic(spec)
            volumes.append(Volume(raw.dims, np.rint(raw.voxels), channel="T2"))
        template = build_template(volumes)
        vol = volumes[0]
        out, entry = harmonize(vol, template, HarmonizeOptions(bits=12))
        n_bg = int((vol.voxels == 0.0).sum())
        assert int((out.voxels == 0.0).sum()) == n_bg
        fg = out.foreground()
        assert fg.min() >= 1.0 and fg.max() <= 4095.0
        assert entry.post_ks < 0.05

    def test_hundredfold_gain_spread_converges(self):
        from cdfmatch import ScannerEffect, build_template
        volumes = [generate_synthetic(
            t2_spec(1600 + i, scanner=ScannerEffect(gain=0.1 * 10 ** (i / 2),
                                                    offset=5.0 * i)))
            for i in range(5)]
        template = build_template(volumes)
        for vol in volumes:
            _, entry = harmonize(vol, template)
            assert entry.fit.converged
            assert entry.post_ks < 0.05


class TestInvariances:
    def test_gain_and_offset_change_little(self, template_12bit):
        grid = np.linspace(0.01, 0.99, 99)
        clip_span = 4095.0 - 1.0
        base = generate_synthetic(t2_spec(777, scanner=scanner_effect(3)))
        out0, _ = harmonize(base, template_12bit)
        q0 = np.asarray(quantile(build_cdf(out0), grid))
        for a, c in ((0.25, 0.0), (4.0, 0.0), (1.0, -1000.0), (1.0, 1000.0)):
            perturbed = Volume(base.dims, a * base.voxels + c, base.channel, base.background_value)
            out, _ = harmonize(perturbed, template_12bit)
            q = np.asarray(quantile(build_cdf(out), grid))
            assert np.abs(q - q0).max() < 0.01 * clip_span


class TestBaselines:
    def test_percentile_stretch_hits_target_range(self):
        vol = generate_synthetic(t2_spec(910))
        out = percentile_stretch(vol, (1.0, 4095.0))
        fg = out.foreground()
        assert fg.min() >= 1.0 and fg.max() <= 4095.0
        assert quantile(build_cdf(out), 0.5) > 1.0

    def test_zscore_heavy_tail_signature(self):
        vol = generate_synthetic(t2_spec(911))
        fg = zscore_standardize(vol).foreground()
        assert fg.max() > 5.0
        assert np.mean(np.abs(fg) < 1.0) > 0.5

    def test_stretch_degenerate_anchors(self):
        from cdfmatch.errors import DegenerateConstant
        vol = volume_from_values([0.0] + [7.0] * 100)
        with pytest.raises(DegenerateConstant):
            percentile_stretch(vol, (1.0, 4095.0))


class TestEvaluateCohort:
    def test_identical_volumes_have_zero_pairwise_distance(self, template_12bit):
        vol = generate_synthetic(t2_spec(920))
        rows = evaluate_cohort([vol, vol, vol], template_12bit)
        for row in rows:
            assert row.mean_pairwise_ks == 0.0

    def test_cdf_match_beats_both_baselines(self, template_12bit):
        cohort = scanner_cohort(6, seed0=930)
        rows = {r.method: r for r in evaluate_cohort(cohort, template_12bit)}
        cdf_row = rows[METHOD_CDF_MATCH]
        assert cdf_row.mean_pairwise_ks < rows[METHOD_PERCENTILE_STRETCH].mean_pairwise_ks
        assert cdf_row.mean_pairwise_ks < rows[METHOD_ZSCORE].mean_pairwise_ks
        assert cdf_row.mean_ks_to_template is not None
        assert rows[METHOD_ZSCORE].mean_ks_to_template is None

    def test_needs_at_least_two_volumes(self, template_12bit):
        with pytest.raises(EmptyInput):
            evaluate_cohort([generate_synthetic(t2_spec(940))], template_12bit)

    def test_unknown_method_rejected(self, template_12bit):
        cohort = scanner_cohort(2, seed0=950)
        with pytest.raises(ValueError):
            evaluate_cohort(cohort, template_12bit, methods=("nope",))
