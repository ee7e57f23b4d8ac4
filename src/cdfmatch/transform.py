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

import numpy as np
from scipy.special import erf

from .cdf import IntensityIndex, Volume, _match_scalar
from .errors import BadTailSpec, NonMonotone

# lut_ds's slope above v_M is sigma_T + (sigma_B - sigma_T) h(2 (x - v_M) / (v_T - v_M))
# with h(t) = (1 - erf t)/2 - t exp(-t^2)/sqrt(pi), least at 1; mirrored below
MONOTONE_RATIO = 1.0 - 1.0 / ((1.0 - math.erf(1.0)) / 2.0
                              - math.exp(-1.0) / math.sqrt(math.pi))
# the interpolated table's error target, as a share of the output span
TABLE_TOLERANCE = 2.0 ** -28
# a table node costs ~45-50 ns to build and a foreground voxel mapped through
# the table saves ~20 ns (2^18 nodes, float32 voxels, a shared 2-core VM), so
# a volume takes the table only with at least this many voxels per node
TABLE_VOXELS_PER_NODE = 4
# the fewest table nodes: volumes under 2^20 voxels, where the table would
# save ~10 ms at most, keep the exact map and its output bit for bit
TABLE_MIN_NODES = 1 << 18
# max |erf''(t)|, at t = 1/sqrt(2)
ERF_CURVATURE = 2.0 * math.sqrt(2.0) * math.exp(-0.5) / math.sqrt(math.pi)


@dataclass(frozen=True)
class PivotTriple:
    """Finite intensities (v_B < v_M < v_T) anchoring the blending ramp."""

    v_B: float
    v_M: float
    v_T: float

    def __post_init__(self):
        object.__setattr__(self, "v_B", float(self.v_B))
        object.__setattr__(self, "v_M", float(self.v_M))
        object.__setattr__(self, "v_T", float(self.v_T))
        if not -math.inf < self.v_B < self.v_M < self.v_T < math.inf:
            raise ValueError(
                f"pivots must be finite with v_B < v_M < v_T, got "
                f"({self.v_B}, {self.v_M}, {self.v_T})")

    def to_dict(self) -> dict:
        return {"v_B": self.v_B, "v_M": self.v_M, "v_T": self.v_T}

    @classmethod
    def from_dict(cls, doc: dict) -> "PivotTriple":
        return cls(doc["v_B"], doc["v_M"], doc["v_T"])


@dataclass(frozen=True)
class DualScaleParams:
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
        object.__setattr__(self, "sigma_B", float(self.sigma_B))
        object.__setattr__(self, "sigma_T", float(self.sigma_T))
        object.__setattr__(self, "gamma", float(self.gamma))
        if not (0.0 < self.sigma_B < math.inf and 0.0 < self.sigma_T < math.inf
                and math.isfinite(self.gamma)):
            raise ValueError(f"scale factors must be positive and finite and gamma finite, "
                             f"got ({self.sigma_B}, {self.sigma_T}, {self.gamma})")
        ratio = max(self.sigma_B, self.sigma_T) / min(self.sigma_B, self.sigma_T)
        if not ratio <= MONOTONE_RATIO * (1.0 + 1e-12):  # slack: the fit's rounding
            raise NonMonotone(f"scale ratio {ratio:.6g} exceeds {MONOTONE_RATIO:.6g}, "
                              f"past which the dual scaling decreases")

    def to_dict(self) -> dict:
        return {"sigma_B": self.sigma_B, "sigma_T": self.sigma_T,
                "gamma": self.gamma, "pivots": self.pivots.to_dict()}

    @classmethod
    def from_dict(cls, doc: dict) -> "DualScaleParams":
        return cls(doc["sigma_B"], doc["sigma_T"], doc["gamma"],
                   PivotTriple.from_dict(doc["pivots"]))


@dataclass(frozen=True)
class TailSpec:
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
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise BadTailSpec(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
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

    @classmethod
    def disabled(cls) -> "TailSpec":
        return cls()

    def to_dict(self) -> dict:
        return {"v_T": self.v_T, "v_max": self.v_max, "v_clipT": self.v_clipT,
                "v_B": self.v_B, "v_min": self.v_min, "v_clipB": self.v_clipB,
                "enabled_top": self.enabled_top,
                "enabled_bottom": self.enabled_bottom}

    @classmethod
    def from_dict(cls, doc: dict) -> "TailSpec":
        return cls(**doc)

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

    def max_slope(self) -> float:
        """The largest slope of :meth:`apply`: 1 on the identity, and
        ``4 r_T / (sqrt(pi) r_S)`` at an enabled side's start."""
        return max([1.0] + [4.0 / math.sqrt(math.pi) * r_T / r_S
                            for _, r_S, r_T in self._ranges()])

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


def _read_table(u: np.ndarray, scale: float, table: np.ndarray,
                rise: np.ndarray) -> np.ndarray:
    """``table`` read at the non-negative offsets ``u`` from its first node,
    ``1 / scale`` apart: cell ``i`` and exact fraction ``f`` map to
    ``table[i] + f * rise[i]``, in a new buffer; ``u`` is used up.  The
    last rise is 0, so an offset at or past the last node reads that node."""
    u *= scale
    cell = u.astype(np.intp)  # u >= 0: truncation is the floor
    u -= cell
    y = np.take(rise, cell, mode="clip")
    y *= u
    y += np.take(table, cell, out=u, mode="clip")
    return y


def _tail_bound(reach: float, r_S: float, r_T: float, nodes: int) -> float:
    """Bound on the error of a tail's table of ``nodes`` nodes over ``reach``
    past its start: the second derivative of ``r_T erf(2 d / r_S)`` is at most
    ``|r_T| (2 / r_S)^2 ERF_CURVATURE`` in size, so linear interpolation
    between nodes ``h_y`` apart errs by at most::

        h_y^2 / 8 * |r_T| (2 / r_S)^2 * ERF_CURVATURE
    """
    h_y = reach / (nodes - 1)
    return h_y * h_y / 8.0 * abs(r_T) * (2.0 / r_S) ** 2 * ERF_CURVATURE


def _tail_nodes(reach: float, r_S: float, r_T: float, share: float) -> int:
    """The fewest nodes whose :func:`_tail_bound` is at most ``share``."""
    h_y = math.sqrt(8.0 * share / (abs(r_T) * (2.0 / r_S) ** 2 * ERF_CURVATURE))
    nodes = max(2, math.ceil(reach / h_y) + 1)
    while _tail_bound(reach, r_S, r_T, nodes) > share:  # the square root's rounding
        nodes += 1
    return nodes


def _accumulate(table: np.ndarray) -> np.ndarray:
    """Rebuild ``table`` in place from its first node and its rises, the
    last 0, and return them: ``table[i + 1]`` is exactly ``table[i] +
    rise[i]``.  A rise below 0, rounding where erf saturates or where a
    scale ratio near ``MONOTONE_RATIO`` flattens ``lut_ds``, counts as 0."""
    rise = np.maximum(np.diff(table, append=table[-1]), 0.0)
    table[1:] = rise[:-1]
    np.cumsum(table, out=table)
    return rise


def _tail_table(start: float, r_S: float, r_T: float, reach: float, nodes: int):
    """One side of :meth:`TailSpec.apply` read from a table of ``nodes``
    nodes over the distances ``d`` in [0, reach] past ``start``, the first
    node exactly at it: ``|r_T| erf(2 d / |r_S|)``, accumulated from its
    rises (:func:`_accumulate`), as the dual scaling's table is.  Returns
    the squeeze, which maps the values of ``y`` past ``start`` in place to
    ``start +/- table(d)``: never descending, also at the start, where the
    identity ends."""
    table = erf(np.linspace(0.0, 2.0 * reach / abs(r_S), nodes))
    table *= abs(r_T)
    rise = _accumulate(table)
    scale = (nodes - 1) / reach
    top = r_S > 0

    def squeeze(y: np.ndarray) -> None:
        past = np.flatnonzero(y >= start if top else y <= start)
        d = y[past]
        if top:
            d -= start
        else:
            np.subtract(start, d, out=d)
        t = _read_table(d, scale, table, rise)
        y[past] = np.add(start, t, out=t) if top else np.subtract(start, t, out=t)

    return squeeze


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


def _dual_scale(xv: np.ndarray, params: "DualScaleParams",
                out: np.ndarray | None = None) -> np.ndarray:
    """:func:`lut_ds` of the 1-D float64 ``xv`` into ``out``: a new buffer
    when None, else one the caller owns, which may be ``xv`` itself."""
    return _offset_scale(np.subtract(xv, params.pivots.v_M, out=out), params)


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
    return _shaped(_dual_scale(_flat(x), params), x)


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
class IntensityLut:
    """Composed mapping, monotone by construction (each step is): tail
    shrinking after dual scaling.

    Inputs are clamped to the finite ``domain`` before mapping; enabled tails
    squeeze the mapped extremes, and a final hard clamp to the finite
    ``clip`` (when set) keeps every output inside the clip range as belt and
    braces.
    """

    params: DualScaleParams
    tails: TailSpec
    domain: tuple[float, float]
    clip: tuple[float, float] | None = None

    def __post_init__(self):
        lo, hi = (float(self.domain[0]), float(self.domain[1]))
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"domain must be a finite, non-empty interval, got {self.domain!r}")
        object.__setattr__(self, "domain", (lo, hi))
        if self.clip is not None:
            c_lo, c_hi = (float(self.clip[0]), float(self.clip[1]))
            if not -math.inf < c_lo < c_hi < math.inf:
                raise ValueError(f"clip range must be finite and increasing, got {self.clip!r}")
            object.__setattr__(self, "clip", (c_lo, c_hi))

    def apply(self, x) -> "float | np.ndarray":
        """Map intensities through the composed transform (scalar or array).

        Non-decreasing up to an ulp: scipy's erf, which the tails evaluate,
        steps down by one here and there between neighbouring floats (the
        :meth:`interpolant` never does)."""
        y = np.array(x, dtype=np.float64).reshape(-1)  # a copy: x is never written
        np.clip(y, self.domain[0], self.domain[1], out=y)
        self.tails._squeeze(_dual_scale(y, self.params, out=y))
        if self.clip is not None:
            np.clip(y, self.clip[0], self.clip[1], out=y)
        return _shaped(y, x)

    def _tail_reaches(self) -> list:
        """(start, r_S, r_T, reach) of each enabled tail that the dual scaling
        of the domain passes: its table spans ``reach`` past the start, to
        ``lut_ds`` of the domain end on that side but no further than
        ``3 |r_S|``, where erf(6) rounds to 1 and the squeeze is flat."""
        y_lo, y_hi = _dual_scale(np.array(self.domain), self.params)
        sides = []
        for start, r_S, r_T in self.tails._ranges():
            reach = min(y_hi - start if r_S > 0 else start - y_lo, 3.0 * abs(r_S))
            if reach > 0.0:
                sides.append((start, r_S, r_T, reach))
        return sides

    def table_bound(self, nodes: int, tails: tuple) -> float:
        """Bound on ``|interpolant(nodes, tails)(x) - apply(x)|`` in exact
        arithmetic, ``tails`` as :meth:`table_nodes` sizes them.

        :func:`lut_ds` is C1, and its second derivative
        ``(sigma_B - sigma_T) 4 / (sqrt(pi) s) exp(-t^2) (t^2 - 1)``, with
        ``t = 2 (x - v_M) / s`` and ``s`` the pivot span on x's side of v_M,
        is largest in size at v_M.  Linear interpolation between nodes ``h``
        apart is within ``h^2 / 8`` of that maximum, and the tails and the
        clip stretch an error by at most :meth:`TailSpec.max_slope` (a tail's
        table, the chords of a concave map, is no steeper than its start)::

            h^2 / 8 * 4 |sigma_B - sigma_T| / (sqrt(pi) min(v_M - v_B, v_T - v_M)) * L

        Each tail's own table adds its :func:`_tail_bound`.  The first term
        is attained at v_M; rounding adds a few ulps of the output.
        """
        p, pivots = self.params, self.params.pivots
        h = (self.domain[1] - self.domain[0]) / (nodes - 1)
        curvature = (4.0 * abs(p.sigma_B - p.sigma_T)
                     / (math.sqrt(math.pi) * min(pivots.v_M - pivots.v_B,
                                                 pivots.v_T - pivots.v_M)))
        return (h * h / 8.0 * curvature * self.tails.max_slope()
                + sum(_tail_bound(reach, r_S, r_T, n) for _, r_S, r_T, reach, n in tails))

    def table_nodes(self, limit: int) -> "tuple[int, tuple] | None":
        """The table's size as ``(nodes, tails)``, or None when it would take
        more than ``limit`` nodes in any one table.

        ``nodes`` is the smallest power of two, from ``TABLE_MIN_NODES`` up,
        whose dual-scaling term of :meth:`table_bound` is at most
        ``TABLE_TOLERANCE`` of the output span (the clip span, else
        ``apply(hi) - apply(lo)``).  ``tails`` holds ``(start, r_S, r_T,
        reach, nodes)`` of each of :meth:`_tail_reaches`, each with the
        fewest nodes that keep its term within an even share of what the
        dual scaling leaves of that target."""
        if self.clip is not None:
            span = self.clip[1] - self.clip[0]
        else:
            bottom, top = self.apply(np.array(self.domain))
            span = top - bottom
        target = TABLE_TOLERANCE * span
        nodes = TABLE_MIN_NODES
        while nodes <= limit and not self.table_bound(nodes, ()) <= target:
            nodes *= 2
        if nodes > limit:
            return None
        sides = self._tail_reaches()
        if not sides:
            return nodes, ()
        share = (target - self.table_bound(nodes, ())) / len(sides)
        if not share > 0.0:
            return None
        tails = tuple((start, r_S, r_T, reach, _tail_nodes(reach, r_S, r_T, share))
                      for start, r_S, r_T, reach in sides)
        return None if any(n > limit for *_, n in tails) else (nodes, tails)

    def interpolant(self, nodes: int, tails: tuple):
        """:meth:`apply` read from tables, sized as :meth:`table_nodes` sizes
        them: a function of an array, within :meth:`table_bound` of it and
        never descending, bit for bit.

        The table holds ``lut_ds`` at ``nodes`` evenly spaced points of the
        domain, accumulated from its rises (:func:`_accumulate`), so that
        ``table[i + 1]`` is exactly ``table[i] + rise[i]``.  Each value clamps
        to the domain, is split into its cell ``i`` and its exact fraction ``f`` of it, and maps
        to ``table[i] + f * rise[i]``, which never descends, also across
        cells.  Each enabled tail then reads its own table the same way
        (:func:`_tail_table`), and the clip runs as in :meth:`apply`.
        """
        lo, hi = self.domain
        scale = (nodes - 1) / (hi - lo)
        # node i sits where a value's cell coordinate (x - lo) * scale is i:
        # taken as an offset from v_M, its position rounds at the scale of
        # the domain's width, not of its distance from 0
        offsets = np.arange(nodes, dtype=np.float64)
        offsets /= scale
        offsets += lo - self.params.pivots.v_M
        table = _offset_scale(offsets, self.params)
        # a value at hi is in the last node's cell, whose rise is 0
        rise = _accumulate(table)
        squeezes = [_tail_table(*side) for side in tails]

        def interpolate(x) -> "float | np.ndarray":
            u = np.subtract(x, lo, dtype=np.float64).reshape(-1)
            np.clip(u, 0.0, hi - lo, out=u)  # x clamped to the domain
            y = _read_table(u, scale, table, rise)
            # each side maps its values onto its own side of its start, and
            # the sides are disjoint, so one after the other writes both
            for squeeze in squeezes:
                squeeze(y)
            if self.clip is not None:
                np.clip(y, self.clip[0], self.clip[1], out=y)
            return _shaped(y, x)

        return interpolate

    def to_dict(self) -> dict:
        return {"params": self.params.to_dict(), "tails": self.tails.to_dict(),
                "domain": list(self.domain),
                "hard_clamp": list(self.clip) if self.clip is not None else None}

    @classmethod
    def from_dict(cls, doc: dict) -> "IntensityLut":
        clamp = doc.get("hard_clamp")
        return cls(DualScaleParams.from_dict(doc["params"]),
                   TailSpec.from_dict(doc["tails"]),
                   tuple(doc["domain"]),
                   clip=tuple(clamp) if clamp is not None else None)


def compose_lut(params: DualScaleParams, tails: TailSpec,
                domain: tuple[float, float],
                clip: tuple[float, float] | None = None) -> IntensityLut:
    """Build the composed mapping ``tail(lut_ds(x))`` over ``domain``.

    Monotone by construction: ``params`` and ``tails`` checked their scale
    ratio and orderings when made.  Raises ValueError for a domain or clip
    range that is not a finite, increasing interval.
    """
    return IntensityLut(params, tails, domain, clip=clip)


def voxel_table(lut: IntensityLut, index: IntensityIndex):
    """The :meth:`IntensityLut.interpolant` that ``index``'s voxels map
    through, or None for the exact map: a per-voxel index (a float volume)
    with at least ``TABLE_VOXELS_PER_NODE`` voxels per node of
    :meth:`IntensityLut.table_nodes` takes the table; a level table maps
    exactly."""
    if index.counts is not None:
        return None
    size = lut.table_nodes(index.n_voxels // TABLE_VOXELS_PER_NODE)
    return None if size is None else lut.interpolant(*size)


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
    table :func:`voxel_table` built for this volume, within
    :meth:`IntensityLut.table_bound` (at most ``TABLE_TOLERANCE`` of the
    output span) of ``apply``, plus rounding.  None takes
    ``voxel_table(lut, index)``, else ``apply``; a table built here is freed
    on return.
    """
    index = IntensityIndex.of(vol)
    fn = fn or voxel_table(lut, index) or lut.apply
    out = index.map_foreground(fn, dtype, q_range)
    return out if isinstance(vol, IntensityIndex) else out.to_volume()
