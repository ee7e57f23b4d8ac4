"""Closed-form monotone intensity transforms.

The elastic mapping is a smooth dual-scaling: intensities below and above a
middle pivot are scaled by two different factors that are blended through a
sigmoid (erf), plus a uniform shift.  Extreme values are optionally squeezed
into a clip range by erf-based tail shrinking.  Everything here is a pure
function of immutable parameter records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import erf

from .cdf import (IntensityIndex, Record, Volume, _dtype, _match_scalar,
                  finite_interval, finite_number)
from .errors import BadTailSpec, NonMonotone


def _ramp(t: float) -> float:
    """lut_ds's slope above v_M is sigma_T + (sigma_B - sigma_T) h(2 (x - v_M) /
    (v_T - v_M)), mirrored below: h falls from 1/2 at 0, least at 1, to 0."""
    return (1.0 - math.erf(t)) / 2.0 - t * math.exp(-t * t) / math.sqrt(math.pi)


MONOTONE_RATIO = 1.0 - 1.0 / _ramp(1.0)
# the interpolated table's error target, as a share of the output span
TABLE_TOLERANCE = 2.0 ** -28
# a table node costs ~60-80 ns to build and a foreground voxel mapped through
# the float32 read saves ~28-38 ns (2^17-2^18 nodes, float32 voxels, a shared
# 2-core VM), so a volume takes the table only with at least this many
# voxels per node
TABLE_VOXELS_PER_NODE = 4
# volumes under 2^20 voxels, where the table would save ~20 ms at most, keep
# the exact map and its output bit for bit
TABLE_MIN_VOXELS = 1 << 20
# max |erf''(t)|, at t = 1/sqrt(2)
ERF_CURVATURE = 2.0 * math.sqrt(2.0) * math.exp(-0.5) / math.sqrt(math.pi)


@dataclass(frozen=True)
class PivotTriple(Record):
    """Finite intensities (v_B < v_M < v_T) anchoring the blending ramp."""

    v_B: float
    v_M: float
    v_T: float

    def __post_init__(self):
        for name in ("v_B", "v_M", "v_T"):
            object.__setattr__(self, name, finite_number(getattr(self, name), name))
        if not self.v_B < self.v_M < self.v_T:
            raise ValueError(f"pivots must satisfy v_B < v_M < v_T, got "
                             f"({self.v_B}, {self.v_M}, {self.v_T})")


@dataclass(frozen=True)
class DualScaleParams(Record):
    """Fitted dual-scaling parameters: two scale factors and a shift.

    ``sigma_B`` acts on the bottom half of the intensity range, ``sigma_T``
    on the top half; ``gamma`` shifts the result uniformly.  All are finite,
    the factors positive, and their ratio at most ``MONOTONE_RATIO``, which
    makes :func:`lut_ds` monotone on the whole line (else NonMonotone).
    """

    sigma_B: float
    sigma_T: float
    gamma: float
    pivots: PivotTriple

    def __post_init__(self):
        for name in ("sigma_B", "sigma_T", "gamma"):
            object.__setattr__(self, name, finite_number(getattr(self, name), name))
        if not min(self.sigma_B, self.sigma_T) > 0.0:
            raise ValueError(f"scale factors must be positive, got {self.sigma_B}, {self.sigma_T}")
        ratio = max(self.sigma_B, self.sigma_T) / min(self.sigma_B, self.sigma_T)
        if not ratio <= MONOTONE_RATIO * (1.0 + 1e-12):  # slack: the fit's rounding
            raise NonMonotone(f"scale ratio {ratio:.6g} exceeds {MONOTONE_RATIO:.6g}, "
                              f"past which the dual scaling decreases")


@dataclass(frozen=True)
class TailSpec(Record):
    """Where each tail starts, the observed extremes, and the clip targets.

    Intensities here live in post-dual-scaling coordinates: tail shrinking
    runs after the dual-scaling map.  Past its start, an enabled side maps y
    to ``start + r_T * erf(2 (y - start) / r_S)``, ranges signed upward for
    the top (``r_S = v_max - v_T``, ``r_T = v_clipT - v_T``) and downward for
    the bottom (``v_min - v_B``, ``v_clipB - v_B``); elsewhere the identity.
    Every field is finite; a disabled side ignores its values.
    """

    v_T: float = 0.0
    v_max: float = 0.0
    v_clipT: float = 0.0
    v_B: float = 0.0
    v_min: float = 0.0
    v_clipB: float = 0.0
    enabled_top: bool = False
    enabled_bottom: bool = False

    def __post_init__(self):
        for name in ("v_T", "v_max", "v_clipT", "v_B", "v_min", "v_clipB"):
            object.__setattr__(self, name, finite_number(getattr(self, name), name, BadTailSpec))
        for name in ("enabled_top", "enabled_bottom"):
            # a string such as "false" would be truthy: only real bools count
            flag = getattr(self, name)
            if not isinstance(flag, (bool, np.bool_)):
                raise BadTailSpec(f"{name} must be a bool, got {flag!r}")
            object.__setattr__(self, name, bool(flag))
        if self.enabled_top and not (self.v_T < self.v_clipT and self.v_T < self.v_max):
            raise BadTailSpec(
                f"top tail needs v_T < v_clipT and v_T < v_max, got "
                f"v_T={self.v_T}, v_clipT={self.v_clipT}, v_max={self.v_max}")
        if self.enabled_bottom and not (self.v_clipB < self.v_B and self.v_min < self.v_B):
            raise BadTailSpec(
                f"bottom tail needs v_clipB < v_B and v_min < v_B, got "
                f"v_B={self.v_B}, v_clipB={self.v_clipB}, v_min={self.v_min}")
        if self.enabled_top and self.enabled_bottom and not self.v_B < self.v_T:
            raise BadTailSpec(
                f"two tails need v_B < v_T, got v_B={self.v_B}, v_T={self.v_T}")

    def _ranges(self) -> list:
        """(start, r_S, r_T) of each enabled side, ranges signed away from
        the start."""
        sides = []
        if self.enabled_top:
            sides.append((self.v_T, self.v_max - self.v_T, self.v_clipT - self.v_T))
        if self.enabled_bottom:
            sides.append((self.v_B, self.v_min - self.v_B, self.v_clipB - self.v_B))
        return sides

    def _sides(self, y: np.ndarray) -> list:
        # each enabled side of the 1-D ``y`` as (indices of the values past its
        # start, start, r_S, r_T), all found before any value is written; the
        # start itself and NaN take the erf branch, which keeps them
        return [(np.flatnonzero(~(y < start) if r_S > 0 else ~(y > start)),
                 start, r_S, r_T) for start, r_S, r_T in self._ranges()]

    def _squeeze(self, y: np.ndarray) -> np.ndarray:
        """:meth:`apply` on a 1-D float64 buffer the caller owns, in place."""
        for past, start, r_S, r_T in self._sides(y):
            t = y[past]
            t -= start
            t *= 2.0
            t /= r_S
            erf(t, out=t)
            t *= r_T
            t += start
            y[past] = t
        return y

    def apply(self, y) -> np.ndarray:
        """Squeeze the enabled tails into a new array; their ranges are
        disjoint, so one pass writes both."""
        out = self._squeeze(np.array(y, dtype=np.float64).reshape(-1))
        return out.reshape(np.shape(y))

    def slope(self, y) -> np.ndarray:
        """Derivative of :meth:`apply` at ``y``, exact away from the tail starts:
        erf's Gaussian derivative past a start, the identity's 1 before it."""
        flat = _flat(y)
        out = np.ones_like(flat)
        for past, start, r_S, r_T in self._sides(flat):
            out[past] = ((4.0 / np.sqrt(np.pi)) * (r_T / r_S)
                         * np.exp(-(2.0 * (flat[past] - start) / r_S) ** 2))
        return out.reshape(np.shape(y))


def _flat(x) -> np.ndarray:
    """``x`` as a 1-D float64 array, to be read only: it may be the caller's."""
    return np.asarray(x, dtype=np.float64).reshape(-1)


def _shaped(out: np.ndarray, like) -> "float | np.ndarray":
    """A 1-D result in the shape of the input ``like``; a float for a scalar."""
    return _match_scalar(out.reshape(np.shape(like)), like)


def _accumulate(table: np.ndarray) -> np.ndarray:
    """Rebuild ``table`` in place from its first node and its rises, the
    last 0, and return them, all in ``table``'s dtype: ``table[i + 1]`` is
    ``table[i] + rise[i]`` rounded to it, so ``table[i] + f * rise[i]``
    never passes ``table[i + 1]`` for ``f < 1``.  A node below one before it
    (erf's rounding, or a scale ratio near ``MONOTONE_RATIO``) takes the
    larger value: a running maximum."""
    np.maximum.accumulate(table, out=table)
    rise = np.diff(table, append=table[-1])
    table[1:] = rise[:-1]
    np.cumsum(table, out=table)
    return rise


def _crossing(f, level: float, a: float, b: float) -> "float | None":
    """The least float in [a, b] at which the non-decreasing map ``f`` (of
    an array) reaches ``level``, by a 256-way search; None when none does."""
    low, high = f(np.array([a, b]))
    if not level <= high:
        return None
    if level <= low:
        return a
    while np.nextafter(a, b) < b:
        xs = np.linspace(a, b, 257)
        first = int(np.argmax(f(xs) >= level))  # f(xs[0]) < level <= f(xs[-1])
        a, b = float(xs[first - 1]), float(xs[first])
    return b


def _ds_extremes(params: "DualScaleParams", a: float, b: float) -> tuple:
    """The largest slope and size of second derivative of :func:`lut_ds` on
    [a, b]: with ``t = 2 (x - v_M) / s``, ``s`` the pivot span on x's side,
    ``sigma_T + (sigma_B - sigma_T) h(t)`` (:func:`_ramp`, mirrored below) and
    ``|sigma_B - sigma_T| 4 / (sqrt(pi) s) e^{-t^2} |t^2 - 1|``, which peaks
    at |t| = sqrt(2) past 1: each side's ends, 1 and sqrt(2) decide."""
    pivots, diff = params.pivots, params.sigma_B - params.sigma_T
    slope = bend = 0.0
    for sign, span, base in ((1.0, pivots.v_T - pivots.v_M, params.sigma_T),
                             (-1.0, pivots.v_M - pivots.v_B, params.sigma_B)):
        ends = sorted(sign * (x - pivots.v_M) for x in (a, b))
        if ends[1] < 0.0:  # [a, b] lies on the other side
            continue
        t0, t1 = (2.0 * max(e, 0.0) / span for e in ends)
        ts = [t0, t1] + [t for t in (1.0, math.sqrt(2.0)) if t0 < t < t1]
        slope = max([slope] + [base + sign * diff * _ramp(t) for t in ts])
        bend = max([bend] + [abs(diff) * 4.0 / (math.sqrt(math.pi) * span)
                             * math.exp(-t * t) * abs(t * t - 1.0) for t in ts])
    return slope, bend


@dataclass(frozen=True, eq=False)
class LutTable:
    """:meth:`IntensityLut.apply` read from its table, every step in the
    table's dtype: each value clamps to ``domain``, splits into its cell
    ``i`` of the nodes ``1 / scale`` apart from ``origin`` and its exact
    fraction ``f``, and maps to ``table[i] + f * rise[i]``; ``table[i + 1]``
    is ``table[i] + rise[i]`` rounded to the dtype (:func:`_accumulate`),
    so it never descends, bit for bit, also across cells.

    A float64 table reads within :meth:`IntensityLut.table_bound` of
    ``apply``, and a few float64 ulps.  A float32 table, read on float32
    values with float32 domain ends (an f32 volume's own support), is within::

        table_bound + ulp(M) + E + 2^-24 D + 4.001 2^-24 max_i (i + 2) rise[i]

    of it, ``M`` the largest |value| the table holds, ``D`` its largest
    rise and ``ulp`` the float32 spacing.  Each node rounds once to float32
    (ulp(M) / 2), and the multiply-add rounds by ulp(M) / 2 and 2^-24 D.
    ``E`` is what the running sum drifts from the nodes.  A rise is exact,
    and so the sum keeps every node, wherever neighbouring nodes lie within
    2x of each other (Sterbenz's lemma), which holds in every cell when no
    node is under D in size: then E = 0.  Else it fails in the cell where
    the output crosses 0 and in cells where it more than doubles (or
    halves), by ulp(2 D) / 2 or less each and geometrically less from one
    to the next, 2.5 ulp(2 D) in all, and the drift then rounds onto each
    coarser binade the sum climbs into, which adds at most 1.5 ulp(M): E
    <= 1.5 ulp(M) + 2.5 ulp(2 D).  Last, the offset from the start, the
    scale, their product and the shift (:attr:`_frame`) each round by at
    most 2^-24 of the cell position, which stays under i + 2 while a read
    touches cell ``i``, where the table rises by ``rise[i]`` per cell.
    """

    origin: float
    scale: float
    domain: tuple[float, float]
    table: np.ndarray
    rise: np.ndarray

    @cached_property
    def _frame(self) -> tuple:
        """``(start, clamp, scale, shift)`` in the table's dtype: a value's
        offset from ``start``, clamped to ``clamp`` and scaled, less
        ``shift`` is its cell position.  ``start`` is the origin when the
        dtype holds it (``shift`` 0), else the domain's low end as the dtype
        holds it, and ``shift`` the origin's offset from that end in cells:
        under one when the dtype holds the end, and else at most half the
        cells between the end and the next value of the dtype, so that only
        the end itself reads before cell 0."""
        dt = self.table.dtype.type
        lo, hi = dt(self.domain[0]), dt(self.domain[1])
        start = dt(self.origin) if float(dt(self.origin)) == self.origin else lo
        return (start, (lo - start, hi - start), dt(self.scale),
                dt((self.origin - float(start)) * self.scale))

    def __call__(self, x) -> "float | np.ndarray":
        start, clamp, scale, shift = self._frame
        u = np.subtract(x, start, dtype=self.table.dtype).reshape(-1)
        np.clip(u, *clamp, out=u)
        u *= scale
        if shift:
            u -= shift
        cell = np.trunc(u)  # the floor, or 0 just below cell 0 (:attr:`_frame`)
        u -= cell
        cell = cell.astype(np.intp)
        y = np.take(self.rise, cell, mode="clip")  # the last rise is 0
        y *= u
        y += np.take(self.table, cell, out=u, mode="clip")
        return _shaped(y, x)

    @property
    def bounds(self) -> tuple[float, float]:
        """The least and greatest value it returns: its values at the domain ends."""
        return tuple(float(v) for v in self(np.array(self.domain)))


def _weight(d: np.ndarray, pivots: PivotTriple) -> np.ndarray:
    """:func:`blend` at ``v_M + d``, for the 1-D float64 offsets ``d`` from
    the middle pivot, in a new buffer.  Each span is picked by a 2-entry take
    on the ``d <= 0`` mask, which has no branch to mispredict, and every step
    runs in place, in the reference order."""
    spans = np.empty_like(d)
    np.take(np.array([pivots.v_T - pivots.v_M, pivots.v_M - pivots.v_B]),
            d <= 0.0, out=spans, mode="clip")
    out = np.multiply(d, 2.0)
    out /= spans
    erf(out, out=out)
    out += 1.0
    out *= 0.5
    return np.subtract(1.0, out, out=out)


def _sigma(d: np.ndarray, params: "DualScaleParams") -> np.ndarray:
    """:func:`sigma_blend` at ``v_M + d`` in a new buffer."""
    out = _weight(d, params.pivots)
    out *= params.sigma_B - params.sigma_T
    out += params.sigma_T
    return out


def _offset_scale(d: np.ndarray, params: "DualScaleParams") -> np.ndarray:
    """:func:`lut_ds` at ``v_M + d``, for the 1-D float64 offsets ``d`` from
    the middle pivot, in place."""
    d *= _sigma(d, params)
    d += params.gamma
    return d


def blend(x, pivots: PivotTriple) -> "float | np.ndarray":
    """Sigmoidal blending weight: near 1 at the bottom pivot, near 0 at the top.

    ``x`` is mapped piecewise-linearly through (v_B, -2), (v_M, 0), (v_T, 2),
    with the end segments extended linearly beyond the pivots, and folded
    through erf: ``beta = 1 - (erf(xbar) + 1) / 2``.  Decreasing in x with
    values in [0, 1] (strictly, until erf saturates in floats far outside the
    ramp); exactly 0.5 at the middle pivot.
    """
    return _shaped(_weight(np.subtract(_flat(x), pivots.v_M), pivots), x)


def sigma_blend(x, params: DualScaleParams) -> "float | np.ndarray":
    """Point-wise scale factor blending sigma_B into sigma_T across the ramp.

    Equals ``beta(x) * sigma_B + (1 - beta(x)) * sigma_T``; written in the
    algebraically equivalent offset form so equal factors blend exactly.
    """
    return _shaped(_sigma(np.subtract(_flat(x), params.pivots.v_M), params), x)


def lut_ds(x, params: DualScaleParams) -> "float | np.ndarray":
    """Dual-scaling intensity map: ``(x - v_M) * sigma(x) + gamma``."""
    return _shaped(_offset_scale(np.subtract(_flat(x), params.pivots.v_M), params), x)


def lut_top_tail(x, v_T: float, v_max: float, v_clipT: float) -> "float | np.ndarray":
    """Squeeze intensities above ``v_T`` toward the top clip value.

    For x >= v_T the map is ``v_T + r_T * erf(2 (x - v_T) / r_S)`` with
    source range ``r_S = v_max - v_T`` and target range
    ``r_T = v_clipT - v_T``; below v_T it is the identity.  Monotone,
    continuous at the join, and bounded above by ``v_T + r_T``.
    """
    tail = TailSpec(v_T=v_T, v_max=v_max, v_clipT=v_clipT, enabled_top=True)
    return _match_scalar(tail.apply(x), x)


def lut_bottom_tail(x, v_B: float, v_min: float, v_clipB: float) -> "float | np.ndarray":
    """Mirror of the top tail: squeeze intensities below ``v_B``.

    For x <= v_B the map is ``v_B - r_T * erf(2 (v_B - x) / r_S)`` with
    ``r_S = v_B - v_min`` and ``r_T = v_B - v_clipB``, the identity above:
    the top tail reflected about any constant, which cancels.
    """
    tail = TailSpec(v_B=v_B, v_min=v_min, v_clipB=v_clipB, enabled_bottom=True)
    return _match_scalar(tail.apply(x), x)


@dataclass(frozen=True)
class IntensityLut(Record):
    """Composed mapping, monotone by construction (each step is): tail
    shrinking after dual scaling.

    Inputs are clamped to the finite ``domain`` before mapping; enabled tails
    squeeze the mapped extremes, and a final ``hard_clamp`` to a finite clip
    range (when set) keeps every output inside it as belt and braces.
    """

    params: DualScaleParams
    tails: TailSpec
    domain: tuple[float, float]
    hard_clamp: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "domain", finite_interval(self.domain, "domain"))
        if self.hard_clamp is not None:
            object.__setattr__(self, "hard_clamp", finite_interval(self.hard_clamp, "clip range"))

    def apply(self, x) -> "float | np.ndarray":
        """Map intensities through the composed transform (scalar or array).

        Non-decreasing up to an ulp: scipy's erf, which the tails evaluate,
        steps down by one here and there between neighbouring floats (the
        :meth:`interpolant` never does)."""
        y = np.array(x, dtype=np.float64).reshape(-1)  # a copy: x is never written
        np.clip(y, self.domain[0], self.domain[1], out=y)
        y -= self.params.pivots.v_M
        return _shaped(self._squeeze(_offset_scale(y, self.params)), x)

    def _squeeze(self, y: np.ndarray) -> np.ndarray:
        """The tails, then the clip, on the caller's dual-scaled ``y``, in place."""
        self.tails._squeeze(y)
        if self.hard_clamp is not None:
            np.clip(y, *self.hard_clamp, out=y)
        return y

    @cached_property
    def _kinks(self) -> tuple:
        """``(x, jump, tail)`` of each kink of :meth:`apply` without the
        domain clamp, in order, searched a domain width past either end: an
        enabled tail's start (``tail`` its ``(r_S, r_T)``; no step where the
        clip holds it) and where the clip starts to hold; ``jump`` is the slope's step."""
        a, b = 2.0 * self.domain[0] - self.domain[1], 2.0 * self.domain[1] - self.domain[0]
        kinks = []
        for start, r_S, r_T in self.tails._ranges():
            x = _crossing(lambda v: lut_ds(v, self.params), start, a, b)
            free = self.hard_clamp is None or self.hard_clamp[0] < start < self.hard_clamp[1]
            kinks.append((x, free * abs(4.0 / math.sqrt(math.pi) * r_T / r_S - 1.0), (r_S, r_T)))
        for end in self.hard_clamp or ():
            x = _crossing(lambda v: self.tails.apply(lut_ds(v, self.params)), end, a, b)
            kinks.append((x, float(self.tails.slope(lut_ds(x, self.params))), None))
        return tuple(sorted(((x, _ds_extremes(self.params, x, x)[0] * step, tail)
                             for x, step, tail in kinks if x is not None), key=lambda k: k[0]))

    def _grid(self, nodes: int) -> "tuple | None":
        """``(anchor, first, h, count)``: at most ``nodes`` nodes ``h = (x_2 -
        x_1) / m`` apart over the domain, node ``first`` at ``anchor`` = x_1,
        x_1 and x_2 the domain's two kinks with the largest steps, a lone
        kink and the farther end, or the ends; None when no ``m`` fits."""
        lo, hi = self.domain
        jumps = {x: jump for x, jump, _ in self._kinks if lo <= x <= hi}
        inside = sorted(sorted(jumps, key=jumps.get, reverse=True)[:2])
        if len(inside) == 1:
            inside = [lo] + inside if inside[0] - lo >= hi - inside[0] else inside + [hi]
        p, q = (inside[0], inside[-1]) if len(inside) > 1 else (lo, hi)
        for m in range(math.floor((nodes - 1) * (q - p) / (hi - lo)), 0, -1):
            h = (q - p) / m
            first = math.ceil((p - lo) / h)
            count = first + m + math.ceil((hi - q) / h) + 1
            if count <= nodes:
                return p, first, h, count
        return None

    def table_bound(self, nodes: int) -> float:
        """Bound on ``|interpolant(nodes)(x) - apply(x)|`` in exact
        arithmetic (inf when no grid fits), rounding aside::

            h^2 / 8 * max|f''|  +  sum over kinks of jump * d

        On each piece between kinks ``f = S(g)``, ``g`` = :func:`lut_ds`,
        ``S`` the identity or a tail (or the clip's constant, bounded as
        they are): ``f'' = S''(g) g'^2 + S'(g) g''``, with a tail's ``|S''|
        <= |r_T| (2 / r_S)^2 ERF_CURVATURE``, ``S'`` at most its start's and
        ``g'``, ``|g''|`` by :func:`_ds_extremes`.  ``d`` is a kink's float
        distance to its nearest node: a few ulps when the grid holds it."""
        grid = self._grid(nodes)
        if grid is None:
            return math.inf
        anchor, first, h, count = grid
        reach = (anchor - first * h, anchor + (count - 1 - first) * h)
        inside = [kink for kink in self._kinks if reach[0] <= kink[0] <= reach[1]]
        edges = [reach[0]] + [x for x, *_ in inside] + [reach[1]]
        curvature = 0.0
        for a, b in zip(edges, edges[1:]):
            slope, bend = _ds_extremes(self.params, a, b)
            for x, _, (r_S, r_T) in (k for k in self._kinks if k[2] is not None):
                if a >= x if r_S > 0 else b <= x:  # past the tail's start
                    bend = (abs(r_T) * (2.0 / r_S) ** 2 * ERF_CURVATURE * slope * slope
                            + 4.0 / math.sqrt(math.pi) * r_T / r_S * bend)
            curvature = max(curvature, bend)
        ulp = 4.0 * np.spacing(max(abs(reach[0]), abs(reach[1]), abs(self.params.pivots.v_M)))
        return h * h / 8.0 * curvature + sum(
            jump * (abs(anchor + round((x - anchor) / h) * h - x) + ulp) for x, jump, _ in inside)

    def table_nodes(self, limit: int) -> "int | None":
        """The smallest power of two of nodes, at most ``limit``, whose
        :meth:`table_bound` is at most ``TABLE_TOLERANCE`` of the output
        span (the clip span, else ``apply(hi) - apply(lo)``); None when no
        such count is."""
        if self.hard_clamp is not None:
            span = self.hard_clamp[1] - self.hard_clamp[0]
        else:
            bottom, top = self.apply(np.array(self.domain))
            span = top - bottom
        nodes = 2
        while nodes <= limit and not self.table_bound(nodes) <= TABLE_TOLERANCE * span:
            nodes *= 2
        return nodes if nodes <= limit else None

    def interpolant(self, nodes: int, dtype=np.float64) -> LutTable:
        """:meth:`apply` read from one table of the whole composed map
        (:class:`LutTable`, in ``dtype``), within :meth:`table_bound` of it
        and the rounding the table states: the nodes of :meth:`_grid` hold
        :meth:`apply` without the domain clamp (nodes past the domain keep
        the smooth extension), evaluated in float64 and accumulated in
        ``dtype`` from their rises (:func:`_accumulate`)."""
        anchor, first, h, count = self._grid(nodes)
        # positions as offsets from v_M, built from the anchor: its node is
        # exact, and each rounds at the scale of the domain, not of 0
        offsets = np.arange(-first, count - first, dtype=np.float64)
        offsets *= h
        offsets += anchor - self.params.pivots.v_M
        table = self._squeeze(_offset_scale(offsets, self.params)).astype(dtype, copy=False)
        return LutTable(anchor - first * h, 1.0 / h, self.domain, table, _accumulate(table))


def compose_lut(params: DualScaleParams, tails: TailSpec,
                domain: tuple[float, float],
                clip: tuple[float, float] | None = None) -> IntensityLut:
    """Build the composed mapping ``tail(lut_ds(x))`` over ``domain``.

    Monotone by construction: ``params`` and ``tails`` checked their scale
    ratio and orderings when made.  Raises ValueError for a domain or clip
    range that is not a finite, increasing interval.
    """
    return IntensityLut(params, tails, domain, hard_clamp=clip)


def voxel_table(lut: IntensityLut, index: IntensityIndex, dtype: str = "float64",
                q_range: tuple[float, float] | None = None) -> "LutTable | None":
    """The :meth:`IntensityLut.interpolant` that ``index``'s voxels map
    through into ``dtype``, rounded into ``q_range`` when set, or None for
    the exact map: a float volume (a per-voxel index) of
    ``TABLE_MIN_VOXELS`` or more takes it, when it has
    ``TABLE_VOXELS_PER_NODE`` voxels per node; a level table maps exactly.
    The table is float32 when f32 voxels go to an f32 output unrounded,
    which stores no more than float32 holds, else float64: rounding to
    integers would turn its ulps into level flips."""
    if index.counts is not None or index.n_voxels < TABLE_MIN_VOXELS:
        return None
    nodes = lut.table_nodes(index.n_voxels // TABLE_VOXELS_PER_NODE)
    if nodes is None:
        return None
    f32 = q_range is None and index.levels.dtype == np.float32 and _dtype(dtype) == np.float32
    return lut.interpolant(nodes, np.float32 if f32 else np.float64)


def apply_lut(vol: "Volume | IntensityIndex", lut: IntensityLut, dtype: str = "float64",
              q_range: tuple[float, float] | None = None,
              fn=None) -> "Volume | IntensityIndex":
    """Voxel-wise application of a composed mapping, stored in ``dtype``.

    Values outside the LUT domain clamp to the domain ends before mapping;
    background voxels are copied through untouched.  The mapping runs once
    per foreground level (:meth:`IntensityIndex.map_foreground`, which also
    rounds into ``q_range`` and keeps foreground off the background) and one
    gather builds the output; given an index, returns it mapped, ungathered.

    ``fn`` is the element-wise map: :meth:`IntensityLut.apply` or the
    :func:`voxel_table` of this volume, ``dtype`` and ``q_range``, within
    ``TABLE_TOLERANCE`` of the output span of it and the rounding it
    states; None takes that table, else ``apply``.
    """
    index = IntensityIndex.of(vol)
    fn = fn or voxel_table(lut, index, dtype, q_range) or lut.apply
    out = index.map_foreground(fn, dtype, q_range)
    return out if isinstance(vol, IntensityIndex) else out.to_volume()
