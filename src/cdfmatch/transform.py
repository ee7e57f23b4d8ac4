"""Closed-form monotone intensity transforms.

The elastic mapping is a smooth dual-scaling: intensities below and above a
middle pivot are scaled by two different factors that are blended through a
sigmoid (erf), plus a uniform shift.  Extreme values are optionally squeezed
into a clip range by erf-based tail shrinking.  Everything here is a pure
function of immutable parameter records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .cdf import IntensityIndex, Volume, _match_scalar
from .errors import BadTailSpec, NonMonotone

DEFAULT_RATIO_CAP = 20.0
VERIFY_GRID_SIZE = 4096


@dataclass(frozen=True)
class PivotTriple:
    """Intensities (v_B < v_M < v_T) anchoring the blending ramp."""

    v_B: float
    v_M: float
    v_T: float

    def __post_init__(self):
        object.__setattr__(self, "v_B", float(self.v_B))
        object.__setattr__(self, "v_M", float(self.v_M))
        object.__setattr__(self, "v_T", float(self.v_T))
        if not (self.v_B < self.v_M < self.v_T):
            raise ValueError(
                f"pivots must satisfy v_B < v_M < v_T, got "
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
    on the top half; ``gamma`` shifts the result uniformly.  The ratio of the
    two factors is capped so the mapping stays close to monotone.
    """

    sigma_B: float
    sigma_T: float
    gamma: float
    pivots: PivotTriple
    ratio_cap: float = DEFAULT_RATIO_CAP

    def __post_init__(self):
        object.__setattr__(self, "sigma_B", float(self.sigma_B))
        object.__setattr__(self, "sigma_T", float(self.sigma_T))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "ratio_cap", float(self.ratio_cap))
        if self.sigma_B <= 0.0 or self.sigma_T <= 0.0:
            raise ValueError("scale factors must be positive")
        ratio = max(self.sigma_B, self.sigma_T) / min(self.sigma_B, self.sigma_T)
        if ratio > self.ratio_cap * (1.0 + 1e-12):
            raise ValueError(
                f"scale ratio {ratio:.3g} exceeds the cap {self.ratio_cap:.3g}")

    def to_dict(self) -> dict:
        return {"sigma_B": self.sigma_B, "sigma_T": self.sigma_T,
                "gamma": self.gamma, "pivots": self.pivots.to_dict(),
                "ratio_cap": self.ratio_cap}

    @classmethod
    def from_dict(cls, doc: dict) -> "DualScaleParams":
        return cls(doc["sigma_B"], doc["sigma_T"], doc["gamma"],
                   PivotTriple.from_dict(doc["pivots"]),
                   doc.get("ratio_cap", DEFAULT_RATIO_CAP))


@dataclass(frozen=True)
class TailSpec:
    """Where each tail starts, the observed extremes, and the clip targets.

    Intensities here live in post-dual-scaling coordinates: tail shrinking
    runs after the dual-scaling map.  Past its start, an enabled side maps y
    to ``start + r_T * erf(2 (y - start) / r_S)``, ranges signed upward for
    the top (``r_S = v_max - v_T``, ``r_T = v_clipT - v_T``) and downward for
    the bottom (``v_min - v_B``, ``v_clipB - v_B``); elsewhere the identity.
    A disabled side ignores its fields.
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
            object.__setattr__(self, name, float(getattr(self, name)))
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

    def _sides(self, y: np.ndarray):
        # each enabled side as (values past its start, start, r_S, r_T); the
        # start itself and NaN take the erf branch, which keeps them
        if self.enabled_top:
            yield ~(y < self.v_T), self.v_T, self.v_max - self.v_T, self.v_clipT - self.v_T
        if self.enabled_bottom:
            yield ~(y > self.v_B), self.v_B, self.v_min - self.v_B, self.v_clipB - self.v_B

    def apply(self, y) -> np.ndarray:
        """Squeeze the enabled tails; their ranges are disjoint, so one pass writes both."""
        y = np.asarray(y, dtype=np.float64)
        if not (self.enabled_top or self.enabled_bottom):
            return y
        out = y.copy()
        for past, start, r_S, r_T in self._sides(y):
            out[past] = start + r_T * erf(2.0 * (y[past] - start) / r_S)
        return out

    def slope(self, y) -> np.ndarray:
        """Derivative of :meth:`apply` at ``y``, exact away from the tail starts:
        erf's Gaussian derivative past a start, the identity's 1 before it."""
        y = np.asarray(y, dtype=np.float64)
        out = np.ones_like(y)
        for past, start, r_S, r_T in self._sides(y):
            out[past] = ((4.0 / np.sqrt(np.pi)) * (r_T / r_S)
                         * np.exp(-(2.0 * (y[past] - start) / r_S) ** 2))
        return out


def blend(x, pivots: PivotTriple) -> "float | np.ndarray":
    """Sigmoidal blending weight: near 1 at the bottom pivot, near 0 at the top.

    ``x`` is mapped piecewise-linearly through (v_B, -2), (v_M, 0), (v_T, 2),
    with the end segments extended linearly beyond the pivots, and folded
    through erf: ``beta = 1 - (erf(xbar) + 1) / 2``.  Decreasing in x with
    values in [0, 1] (strictly, until erf saturates in floats far outside the
    ramp); exactly 0.5 at the middle pivot.
    """
    xv = np.asarray(x, dtype=np.float64)
    lo_span = pivots.v_M - pivots.v_B
    hi_span = pivots.v_T - pivots.v_M
    xbar = 2.0 * (xv - pivots.v_M)
    xbar /= np.where(xv <= pivots.v_M, lo_span, hi_span)
    out = 1.0 - 0.5 * (erf(xbar) + 1.0)
    return _match_scalar(out, x)


def sigma_blend(x, params: DualScaleParams) -> "float | np.ndarray":
    """Point-wise scale factor blending sigma_B into sigma_T across the ramp.

    Equals ``beta(x) * sigma_B + (1 - beta(x)) * sigma_T``; written in the
    algebraically equivalent offset form so equal factors blend exactly.
    """
    b = blend(x, params.pivots)
    out = params.sigma_T + np.asarray(b) * (params.sigma_B - params.sigma_T)
    return _match_scalar(out, x)


def lut_ds(x, params: DualScaleParams) -> "float | np.ndarray":
    """Dual-scaling intensity map: ``(x - v_M) * sigma(x) + gamma``."""
    xv = np.asarray(x, dtype=np.float64)
    out = (xv - params.pivots.v_M) * np.asarray(sigma_blend(xv, params)) + params.gamma
    return _match_scalar(out, x)


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
    """Composed monotone mapping: tail shrinking after dual scaling.

    Inputs are clamped to ``domain`` before mapping; enabled tails squeeze
    the mapped extremes, and a final hard clamp to ``clip`` (when set) keeps
    every output inside the clip range as belt and braces.  Construction
    verifies monotonicity on a dense grid and fails rather than returning a
    non-monotone map.
    """

    params: DualScaleParams
    tails: TailSpec
    domain: tuple[float, float]
    clip: tuple[float, float] | None = None

    def __post_init__(self):
        lo, hi = (float(self.domain[0]), float(self.domain[1]))
        if not lo < hi:
            raise ValueError(f"domain must be a non-empty interval, got {self.domain!r}")
        object.__setattr__(self, "domain", (lo, hi))
        if self.clip is not None:
            c_lo, c_hi = (float(self.clip[0]), float(self.clip[1]))
            if not c_lo < c_hi:
                raise ValueError(f"clip range must be increasing, got {self.clip!r}")
            object.__setattr__(self, "clip", (c_lo, c_hi))
        grid = np.linspace(lo, hi, VERIFY_GRID_SIZE)
        mapped = self.apply(grid)
        scale = max(1.0, float(np.abs(mapped).max()))
        if np.diff(mapped).min() < -1e-9 * scale:
            raise NonMonotone(
                "composed mapping decreases on its verification grid "
                f"(sigma_B={self.params.sigma_B:.4g}, sigma_T={self.params.sigma_T:.4g})")

    def apply(self, x) -> "float | np.ndarray":
        """Map intensities through the composed transform (scalar or array)."""
        xv = np.clip(np.asarray(x, dtype=np.float64), self.domain[0], self.domain[1])
        y = self.tails.apply(np.asarray(lut_ds(xv, self.params)))
        if self.clip is not None:
            y = np.clip(y, self.clip[0], self.clip[1])
        return _match_scalar(y, x)

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

    Raises NonMonotone when the fitted parameters produce a decreasing map
    and BadTailSpec when the tail orderings are violated.
    """
    return IntensityLut(params, tails, domain, clip=clip)


def apply_lut(vol: "Volume | IntensityIndex", lut: IntensityLut) -> "Volume | IntensityIndex":
    """Voxel-wise application of a composed mapping.

    Values outside the LUT domain clamp to the domain ends before mapping;
    background voxels are copied through untouched.  The mapping runs once
    per foreground level (:meth:`IntensityIndex.map_foreground`) and one
    gather builds the output; given an index, returns it mapped, ungathered.
    """
    out = IntensityIndex.of(vol).map_foreground(lut.apply)
    return out if isinstance(vol, IntensityIndex) else out.to_volume()
