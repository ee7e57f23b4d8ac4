"""Empirical CDF estimation, standardization, averaging, and queries.

CDFs are stored as piecewise-linear curves: strictly increasing intensity
knots ``xs`` with cumulative probabilities ``ps``.  Linear
interpolation keeps the forward evaluation and the quantile function
closed-form, monotone, and mutually inverse on the knots.
"""

from __future__ import annotations

import functools
import math
import os
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (AllBackground, DegenerateConstant, EmptyInput, OutOfRange,
                     Overflow)

DEFAULT_GRID_SIZE = 1024

# the dtypes a volume file stores, by the names its header uses
DTYPES = {
    "u8": np.dtype("<u1"),
    "u16": np.dtype("<u2"),
    "i16": np.dtype("<i2"),
    "f32": np.dtype("<f4"),
}


def finite_number(value, name: str, error=ValueError) -> float:
    """``value`` as a float: an int or a float, Python's or NumPy's, that a float
    holds finitely; a bool (JSON ``true``), a string, None, NaN, +/-inf or an int
    past the float range raises ``error`` (a type, or any callable from the message
    to an exception).  Every number a record holds passes here or :func:`whole_number`."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise error(f"{name} must be a finite number, got {value!r}")


def whole_number(value, name: str, error=ValueError, least: int | None = None) -> int:
    """``value`` as an int: a :func:`finite_number` that is an int, Python's
    or NumPy's (a float, even 4.0, is none), and at least ``least`` when
    given; ``error`` as there.  Every count's floor is decided here."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    finite_number(value, name, error)  # an int past the float range is none
    number = int(value)
    if least is not None and number < least:
        raise error(f"{name} must be at least {least}, got {number!r}")
    return number


def finite_interval(value, name: str) -> tuple[float, float]:
    """``value`` as ``(lo, hi)``: a list, tuple or array of two
    :func:`finite_number` values with lo < hi; ValueError otherwise."""
    message = f"{name} must be two finite, increasing numbers, got {value!r}"
    pair = tuple(value) if isinstance(value, (list, tuple, np.ndarray)) else ()
    if len(pair) == 2:
        lo, hi = (finite_number(v, name, lambda _: ValueError(message)) for v in pair)
        if lo < hi:
            return lo, hi
    raise ValueError(message)


def finite_array(values, name: str) -> np.ndarray:
    """``values``, a sequence or an array, as a read-only 1-D float64 array
    of :func:`finite_number` values, else ValueError: floats, and a float
    array, in one vectorised pass, any other element one by one."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind == "f"):
        values = list(values)
        for value in values:
            if type(value) is not float:
                finite_number(value, name)
    arr = _readonly(values)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite (no NaN/Inf)")
    return arr


class Record:
    """The JSON codec of every frozen dataclass the program writes or reads.

    A record's JSON object is its fields by name: a nested record becomes its
    own object, a tuple or list a list, an array its ``tolist()``.
    :meth:`from_dict` is the exact inverse: it builds each nested record (and
    each record in a ``tuple[R, ...]`` field) from its field type, then calls
    ``cls(**doc)``, so an unknown key raises TypeError naming the key.  A
    record whose file differs from its fields overrides the pair.
    """

    def to_dict(self) -> dict:
        return {name: _json(getattr(self, name)) for name in _fields(type(self))[0]}

    @classmethod
    def from_dict(cls, doc: dict):
        doc = dict(doc)
        for name, (record, many) in _fields(cls)[1].items():
            if name in doc:
                doc[name] = (tuple(map(record.from_dict, doc[name])) if many
                             else record.from_dict(doc[name]))
        return cls(**doc)


def _json(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_json(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _json(v) for key, v in value.items()}
    return value


@functools.cache
def _fields(cls) -> tuple:
    """The names of a record type's fields, and ``{field: (record type,
    whether a tuple of them)}`` of those that hold records, from its type
    hints: resolved once per class."""
    nested = {}
    for name, hint in typing.get_type_hints(cls).items():
        many = typing.get_origin(hint) is tuple
        kind = typing.get_args(hint)[0] if many else hint
        if isinstance(kind, type) and issubclass(kind, Record):
            nested[name] = (kind, many)
    return tuple(f.name for f in fields(cls)), nested


def _readonly(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype).ravel()
    arr.flags.writeable = False
    return arr


def _match_scalar(out: np.ndarray, like) -> "float | np.ndarray":
    if np.isscalar(like) or np.ndim(like) == 0:
        return float(out)
    return out


def _dtype(name: str) -> np.dtype:
    """A DTYPES name or a NumPy dtype name as a dtype."""
    return np.dtype(DTYPES.get(name, name))


def check_fits(dtype: str, lo: float, hi: float) -> None:
    """Raise Overflow unless values in [lo, hi] fit ``dtype`` (a DTYPES name
    or a NumPy dtype name); integer dtypes hold the values rounded to the
    nearest integer."""
    dt = _dtype(dtype)
    if dt.kind in "ui":
        # rint is monotone, so rounding the extremes decides the range
        info = np.iinfo(dt)
        if np.rint(lo) < info.min or np.rint(hi) > info.max:
            raise Overflow(f"values [{lo:.6g}, {hi:.6g}] do not fit {dtype}")
    else:
        limit = float(np.finfo(dt).max)
        if max(-lo, hi) > limit:
            raise Overflow(f"values exceed the {dtype} range (+/-{limit:.4g})")


def store_as(values: np.ndarray, dtype: str) -> np.ndarray:
    """``values`` stored in ``dtype`` (a DTYPES name or a NumPy dtype name),
    rounded to the nearest integer first for an integer dtype; returned as
    they are when already stored there.  Raises Overflow when they do not
    fit; it never clamps."""
    if values.size and values.dtype != _dtype(dtype):
        check_fits(dtype, float(values.min()), float(values.max()))
    return _cast(values, _dtype(dtype))


def _cast(values: np.ndarray, dt: np.dtype) -> np.ndarray:
    """:func:`store_as` of values known to fit ``dt``."""
    if values.dtype == dt or dt.kind not in "ui":
        return values.astype(dt, copy=False)
    return np.rint(values, out=np.empty(values.shape, dtype=dt), casting="unsafe")


def _foreground_mask(values: np.ndarray, background: float) -> np.ndarray:
    """Mask of ``values`` that differ from ``background``, compared in float64.

    NumPy compares a Python float with float32 data in float32, where a
    background of 0.1 would swallow every voxel stored as 0.1f; a float64
    scalar keeps the comparison in float64 for every stored dtype.  A
    background that a float dtype holds exactly is compared in that dtype,
    which gives the same mask without converting every value.
    """
    bg = np.float64(background)
    if values.dtype.kind == "f":
        with np.errstate(over="ignore"):  # past the dtype's range: held as inf
            stored = values.dtype.type(bg)
        if stored == bg:
            bg = stored
    return values != bg


@dataclass(frozen=True)
class Volume:
    """Scalar 2D/3D image with a reserved background value.

    Voxels are stored flat in x-fastest order; ``dims`` is (nx, ny, nz)
    with nz = 1 for 2D images.  The constructor takes integer or float
    voxels (strings and bools raise ValueError) and stores float64; a volume
    read from a file keeps the file's dtype.  Instances are immutable and
    safe to share.
    """

    dims: tuple[int, int, int]
    voxels: np.ndarray
    channel: str = ""
    background_value: float = 0.0

    def __post_init__(self):
        if isinstance(self.voxels, (list, tuple)) and any(  # NumPy makes [1, True] ints
                isinstance(v, (bool, np.bool_)) for v in np.array(self.voxels, dtype=object).flat):
            raise ValueError("voxels must be integers or floats, got a bool")
        voxels = np.asarray(self.voxels)
        if voxels.dtype.kind not in "uif":  # strings and bools are no intensities
            raise ValueError(f"voxels must be integers or floats, got dtype {voxels.dtype}")
        self._store(_readonly(voxels))

    @classmethod
    def _owning(cls, dims, voxels: np.ndarray, channel: str,
                background_value: float) -> "Volume":
        """Volume around a new array that no caller holds, in its own dtype
        (u8, u16, i16, f32 or float64): no copy, no conversion."""
        vol = object.__new__(cls)
        object.__setattr__(vol, "dims", dims)
        object.__setattr__(vol, "channel", channel)
        object.__setattr__(vol, "background_value", background_value)
        voxels.flags.writeable = False
        vol._store(voxels.ravel())
        return vol

    def _store(self, vox: np.ndarray) -> None:
        if len(self.dims) != 3:
            raise ValueError(f"dims must be three positive integers, got {self.dims!r}")
        dims = tuple(whole_number(d, "dims", least=1) for d in self.dims)
        n = dims[0] * dims[1] * dims[2]
        if vox.size != n:
            raise ValueError(f"expected {n} voxels for dims {dims}, got {vox.size}")
        if vox.dtype.kind == "f" and not all(np.isfinite(vox[start:start + _BLOCK]).all()
                                             for start in range(0, n, _BLOCK)):
            raise ValueError("voxels must be finite (no NaN/Inf)")
        if not isinstance(self.channel, str):
            raise ValueError(f"channel must be a string, got {self.channel!r}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "voxels", vox)
        object.__setattr__(self, "background_value",
                           finite_number(self.background_value, "background_value"))

    @property
    def n_voxels(self) -> int:
        return self.voxels.size

    def foreground(self) -> np.ndarray:
        """Voxel values that differ from the background value, as float64."""
        fg = self.voxels[_foreground_mask(self.voxels, self.background_value)]
        return fg.astype(np.float64, copy=False)


# floats hold every integer up to 2**53 exactly
_EXACT_INTEGER = 2.0 ** 53
# values sampled before a full pass (the integer check, the ascending check),
# so most inputs that fail it fail fast
_PROBE = 4096
# voxels per step of a blocked pass (the dense count, the LUT): small
# enough that each step's temporaries stay in cache
_BLOCK = 1 << 16
# voxels per step of a sparse integer volume's row gather, whose int32
# offsets are a temporary the size of the step
_GATHER = 1 << 13
# voxels below which a volume counts its levels and gathers its output on
# one thread, whatever the CPUs: starting a range's thread costs ~0.1 ms,
# and at this size the serial count takes ~2 ms (2-vCPU Xeon VM)
_SPLIT = 1 << 20


def _cpu_threads() -> int:
    """Threads this process may use: one per CPU it may run on.  The template
    pool and the split of a large volume's passes both take their count here."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _parts(size: int, threads: int | None) -> int:
    """How many ranges a pass over ``size`` voxels runs in: one below
    ``_SPLIT``, else ``threads`` (at least 1), by default :func:`_cpu_threads`."""
    if threads is not None:
        threads = whole_number(threads, "threads", least=1)
    if size < _SPLIT:
        return 1
    return _cpu_threads() if threads is None else threads


def _in_ranges(work, size: int, step: int, parts: int) -> list:
    """``work(start, stop)`` over [0, ``size``) cut into at most ``parts``
    contiguous ranges of whole ``step``s, and its results in range order.
    The first range runs on this thread, the rest each on a short-lived
    thread of its own.  Every result is read, so an exception raised in any
    range reaches the caller."""
    if parts <= 1 or size <= step:
        return [work(0, size)]
    per = step * -(-size // (step * parts))
    ranges = [(start, min(start + per, size)) for start in range(0, size, per)]
    with ThreadPoolExecutor(max_workers=len(ranges) - 1) as pool:
        rest = [pool.submit(work, start, stop) for start, stop in ranges[1:]]
        return [work(*ranges[0])] + [future.result() for future in rest]


def _integer_levels(vox: np.ndarray, threads: int | None = None):
    """Levels, their voxel counts and each voxel's row, for integer-valued
    voxels; None for any other volume.

    A value range smaller than the voxel count gets a dense table, one level
    per integer from the minimum to the maximum, some of them unused, counted
    block by block.  u8 and u16 voxels below the voxel count are their own
    rows in a table that starts at 0, so no row array is built, and a large
    volume of them is counted in :func:`_parts` ranges of ``threads``, each
    into its own table, summed at the end.  A wider
    range (a hot pixel in a small volume) sorts instead, so the level table
    never outgrows the volume.  Its rows come from a table over the range for
    an integer dtype, whose range is at most 65,536 values, and from a binary
    search for integer-valued floats, whose range no table bounds.
    """
    if vox.dtype.kind == "u" and vox.dtype.itemsize <= 2:
        size = int(vox.max()) + 1
        if size <= vox.size:
            step = max(_BLOCK, size)  # a block's bincount costs step + size

            def count(start: int, stop: int) -> np.ndarray:
                counts = np.zeros(size, dtype=np.int64)
                for at in range(start, stop, step):
                    counts += np.bincount(vox[at:min(at + step, stop)], minlength=size)
                return counts

            counts = sum(_in_ranges(count, vox.size, step, _parts(vox.size, threads)))
            return np.arange(size, dtype=np.float64), counts, vox
    probe = vox[::max(1, vox.size // _PROBE)]
    if (np.rint(probe) != probe).any():
        return None
    lo, hi = float(vox.min()), float(vox.max())
    if lo < -_EXACT_INTEGER or hi > _EXACT_INTEGER:
        return None
    if hi - lo >= vox.size:
        levels, counts = np.unique(vox, return_counts=True)
        if (np.rint(levels) != levels).any():
            return None
        row_type = np.min_scalar_type(levels.size - 1)
        if vox.dtype.kind == "f":
            # search in the stored dtype: float64 levels would convert every voxel
            rows = np.searchsorted(levels, vox).astype(row_type)
        else:  # u8, u16 or i16: each level's row at its offset from lo
            table = np.zeros(int(hi - lo) + 1, dtype=row_type)
            table[levels.astype(np.int32) - int(lo)] = np.arange(levels.size)
            rows = np.empty(vox.size, dtype=row_type)
            for start in range(0, vox.size, _GATHER):
                offsets = vox[start:start + _GATHER].astype(np.int32)  # i16 - lo may pass 32767
                offsets -= int(lo)
                np.take(table, offsets, out=rows[start:start + _GATHER])
        return levels.astype(np.float64), counts, rows
    size = int(hi - lo) + 1
    counts = np.zeros(size, dtype=np.int64)
    rows = np.empty(vox.size, dtype=np.min_scalar_type(size - 1))
    step = max(_BLOCK, size)  # a block's bincount costs step + size
    for start in range(0, vox.size, step):
        block = vox[start:start + step]
        ints = block.astype(np.int64)
        if not np.array_equal(ints, block):
            return None
        ints -= int(lo)
        counts += np.bincount(ints, minlength=size)
        rows[start:start + step] = ints
    return lo + np.arange(size, dtype=np.float64), counts, rows


def _stored_map(fn, dtype: str, q_range: tuple[float, float] | None,
               background: float):
    """The element-wise map from foreground levels to the values ``dtype``
    stores, and the background as ``dtype`` stores it.

    A level goes through ``fn``, then, with ``q_range`` = (lo, hi), is
    clipped into it and rounded to an integer (ties to even), then stored in
    ``dtype`` (:func:`store_as`).  A value that lands on the stored
    background moves one step away, which keeps the levels' order: to the
    next integer on an integer dtype or under ``q_range`` (up, unless that
    passes ``hi`` or the dtype's top), else to the next float above.  So the
    map never descends where ``fn`` does not.  When ``fn`` carries ``bounds``,
    its least and greatest value (a ``LutTable`` does), those two stored settle
    once, not per call, whether all fit and whether any can land on the background.
    """
    dt = _dtype(dtype)
    stored_bg = store_as(np.array([background]), dtype)[0]
    if dt.kind in "ui" or q_range is not None:
        top = q_range[1] if q_range is not None else np.iinfo(dt).max
        up = float(stored_bg) + 1.0
        step = up if up <= top else float(stored_bg) - 1.0
    else:
        step = np.nextafter(stored_bg, dt.type(np.inf))

    def rounded(values: np.ndarray) -> np.ndarray:  # ties round to even
        return values if q_range is None else np.rint(np.clip(values, *q_range))

    cast, collides = (lambda values: store_as(values, dtype)), True
    if getattr(fn, "bounds", None) is not None:
        low, high = store_as(rounded(np.array(fn.bounds, dtype=np.float64)), dtype)
        cast, collides = (lambda values: _cast(values, dt)), low <= stored_bg <= high

    def store(levels: np.ndarray) -> np.ndarray:
        values = cast(rounded(fn(levels)))
        if collides:
            values[values == stored_bg] = step
        return values

    return store, stored_bg


@dataclass(frozen=True)
class IntensityIndex:
    """A volume's intensities as a table of levels plus each voxel's row in it.

    For an integer-valued volume ``levels`` holds each intensity once, as
    float64, ``counts`` how many voxels have it (a level may be unused) and
    ``inverse`` every voxel's row, in the narrowest unsigned dtype that fits;
    u8 and u16 voxels are their own rows (``inverse`` is the read-only voxels)
    when the table from 0 to their maximum is no longer than the volume.  Any
    other volume keeps one level per voxel, in the stored dtype, with
    ``counts`` and ``inverse`` None.  Intensity maps are element-wise, so a
    stage maps ``levels`` alone and :meth:`to_volume` gathers once at the end.
    """

    dims: tuple[int, int, int]
    levels: np.ndarray
    counts: np.ndarray | None
    inverse: np.ndarray | None
    channel: str = ""
    background_value: float = 0.0

    @classmethod
    def of(cls, vol: "Volume | IntensityIndex", threads: int | None = None) -> "IntensityIndex":
        """Index of a volume; an index is returned as it is.  A large u8 or
        u16 volume counts its levels on ``threads`` threads, by default one
        per CPU the process may run on (:func:`_cpu_threads`)."""
        if isinstance(vol, IntensityIndex):
            return vol
        levels, counts, inverse = (_integer_levels(vol.voxels, threads)
                                   or (vol.voxels, None, None))
        return cls(vol.dims, levels, counts, inverse, vol.channel, vol.background_value)

    @property
    def n_voxels(self) -> int:
        return (self.levels if self.inverse is None else self.inverse).size

    def sorted_foreground(self, exclude_background: bool = True) -> "SortedForeground":
        """The samples a CDF reads, ascending: the foreground levels (every
        level, with ``exclude_background`` False) that some voxel holds,
        counted for a level table, else voxel by voxel in the stored dtype.
        They are a masked copy, frozen after one pass checks their order
        (:meth:`of` builds a table ascending); a descent sorts them once."""
        levels, counts = self.levels, self.counts
        keep = (_foreground_mask(levels, self.background_value) if exclude_background
                else np.ones(levels.size, dtype=bool))
        if counts is not None:
            keep &= counts > 0
            counts = counts[keep]
        values = levels[keep]
        del keep  # a mask the size of the volume, not to be held through the sort
        if not _ascending(values):
            if counts is None:
                values.sort()  # the masked copy, in place
            else:  # sorting keeps equal mapped levels side by side
                order = np.argsort(values)
                values, counts = values[order], counts[order]
        values.flags.writeable = False
        cum = None if counts is None else np.concatenate(([0], np.cumsum(counts)))
        return SortedForeground(values, cum, self.background_value)

    def map_foreground(self, fn, dtype: str = "float64",
                       q_range: tuple[float, float] | None = None) -> "IntensityIndex":
        """Each foreground level that some voxel holds, mapped through
        :func:`_stored_map` of ``fn`` (stored dtype in, a new float64 array out;
        its input may be a view of ``levels``, never to be written), 64k at a
        time.  A table's unused levels are left as background, which no voxel
        reads.  Background levels keep the background value as ``dtype``
        stores it, which becomes the mapped index's ``background_value`` (0.1
        becomes 0.1f, 0.5 becomes 0 in an integer dtype).
        """
        store, stored_bg = _stored_map(fn, dtype, q_range, self.background_value)
        mapped = np.empty(self.levels.size, dtype=_dtype(dtype))
        for start in range(0, mapped.size, _BLOCK):
            levels, block = self.levels[start:start + _BLOCK], mapped[start:start + _BLOCK]
            fg = _foreground_mask(levels, self.background_value)
            if self.counts is not None:
                fg &= self.counts[start:start + _BLOCK] > 0
            if fg.all():  # no background in this block: no masked copies
                fg = slice(None)
            else:
                block.fill(stored_bg)
            block[fg] = store(levels[fg])
        return replace(self, levels=mapped, background_value=float(stored_bg))

    def to_volume(self, threads: int | None = None) -> Volume:
        """The volume these levels describe, built by one gather in the
        levels' dtype, 64k voxels at a time.  A large volume gathers in
        :func:`_parts` ranges of ``threads`` (by default one per CPU the
        process may run on), each into its own slice of the output, in
        steps of 64k over the range count, so the index temporaries in
        flight stay at one 64k step's worth."""
        voxels = self.levels
        if self.inverse is not None:
            voxels = np.empty(self.inverse.size, dtype=self.levels.dtype)
            parts = _parts(voxels.size, threads)
            step = _BLOCK // parts

            def gather(start: int, stop: int) -> None:
                for at in range(start, stop, step):
                    end = min(at + step, stop)
                    np.take(self.levels, self.inverse[at:end], out=voxels[at:end], mode="clip")

            _in_ranges(gather, voxels.size, step, parts)
        return Volume._owning(self.dims, voxels, self.channel, self.background_value)


@dataclass(frozen=True)
class SortedForeground:
    """A volume's foreground as every rank statistic reads it: ``values``, the
    included samples, ascending and read-only in their stored dtype; ``cum``,
    None for one sample per value, else a level table's cumulative counts
    with a leading 0; the volume's ``background_value``; and ``store``, when
    set, the :func:`_stored_map` the samples are read through (:meth:`through`).
    """

    values: np.ndarray
    cum: np.ndarray | None
    background_value: float
    store: object = None

    @property
    def n_voxels(self) -> int:
        return self.values.size if self.cum is None else int(self.cum[-1])

    def through(self, fn, dtype: str = "float64",
                q_range: tuple[float, float] | None = None) -> "SortedForeground":
        """These unmapped samples, each read through :func:`_stored_map` of
        ``fn``, ``dtype`` and ``q_range`` as a mapped foreground level is
        stored, by :func:`build_cdf` at the rank knots.
        ``fn`` must never descend, bit for bit, so the mapped samples ascend."""
        store, _ = _stored_map(fn, dtype, q_range, self.background_value)
        return replace(self, store=store)


@dataclass(frozen=True)
class EmpiricalCdf(Record):
    """Monotone piecewise-linear CDF of one image or channel.

    ``xs`` is strictly increasing, ``ps`` is non-decreasing with the last
    entry exactly 1; ``n_samples`` records how many foreground voxels the
    curve was estimated from (0 when unknown, e.g. after CSV import).
    """

    xs: np.ndarray
    ps: np.ndarray
    n_samples: int = 0

    def __post_init__(self):
        xs = finite_array(self.xs, "xs")
        ps = finite_array(self.ps, "ps")
        if xs.size < 2:
            raise ValueError("a CDF needs at least two knots")
        if ps.shape != xs.shape:
            raise ValueError("xs and ps must have the same length")
        if not (np.diff(xs) > 0).all():
            raise ValueError("xs must be strictly increasing")
        if (np.diff(ps) < 0).any():
            raise ValueError("ps must be non-decreasing")
        if ps[0] < 0.0:
            raise ValueError("probabilities must be non-negative")
        if abs(ps[-1] - 1.0) > 1e-12:
            raise ValueError(f"last probability must equal 1, got {ps[-1]!r}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ps", ps)
        object.__setattr__(self, "n_samples", whole_number(self.n_samples, "n_samples", least=0))

    @property
    def support(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])


def build_cdf(vol: "Volume | IntensityIndex | SortedForeground",
              exclude_background: bool = True,
              grid_size: int = DEFAULT_GRID_SIZE) -> EmpiricalCdf:
    """Estimate the empirical CDF of a volume by sorted-rank interpolation.

    Repeated intensities get averaged ranks, so the curve is well defined on
    heavily quantized inputs; the probability at the maximum is pinned to 1.
    The knots are data values: every distinct value when at most
    ``grid_size`` are distinct, else the values that hold ``grid_size``
    evenly spaced ranks (the minimum and the maximum among them), so an
    outlier costs no more than its own voxels' share of the curve.  They
    depend on the sorted samples alone, so a level table and its voxels give
    the same curve.  Deterministic for identical input.
    ``vol`` is a Volume, its IntensityIndex (an integer-valued volume is
    counted per level, any other sorted voxel by voxel in its stored dtype)
    or its :meth:`IntensityIndex.sorted_foreground`, read through its
    ``store`` when one is set, else as it is.

    The store never descends, so each knot is the store of the sample at
    its rank.  When per-voxel samples give distinct knots, the samples at
    most a knot (or below it) are a prefix, whose length one vectorised
    bisection finds between the ranks of knots j and j + 1 (below: j - 1
    and j), two samples per knot a round.  When ties merge knots, whether
    every distinct value fits the grid depends on the samples between them,
    and counted levels may merge: then every sample is read, through the
    store 64k at a time, in its order (which the store keeps).

    Raises AllBackground when exclusion empties the volume and
    DegenerateConstant when fewer than two distinct intensities remain.
    """
    whole_number(grid_size, "grid_size", least=2)
    fg = (vol if isinstance(vol, SortedForeground)
          else IntensityIndex.of(vol).sorted_foreground(exclude_background))
    _check_spread(fg.values)
    values, cum, n = fg.values, fg.cum, fg.n_voxels
    store = fg.store or (lambda samples: samples)
    ranks = np.arange(grid_size) * (n - 1) // (grid_size - 1)
    knots = store(values[ranks if cum is None else np.searchsorted(cum, ranks, "right") - 1])
    _check_spread(knots)
    if cum is None and (knots[1:] > knots[:-1]).all():
        # the count at most knot j (j < last) and the count below knot j + 1,
        # each the first rank in [ranks[j] + 1, ranks[j + 1]] past the knot
        lo = np.tile(ranks[:-1] + 1, 2)
        hi = np.tile(ranks[1:], 2)
        keys = np.concatenate((knots[:-1], knots[1:]))
        strict = np.arange(keys.size) >= grid_size - 1
        while (active := np.flatnonzero(lo < hi)).size:
            mid = (lo[active] + hi[active]) // 2
            got, key = store(values[mid]), keys[active]
            inside = np.where(strict[active], got < key, got <= key)
            lo[active] = np.where(inside, mid + 1, lo[active])
            hi[active] = np.where(inside, hi[active], mid)
        through = np.append(lo[:grid_size - 1], n)
        before = np.insert(lo[grid_size - 1:], 0, 0)
    else:
        if fg.store is not None:
            mapped = np.empty(values.size, dtype=knots.dtype)
            for start in range(0, values.size, _BLOCK):
                mapped[start:start + _BLOCK] = store(values[start:start + _BLOCK])
            values = mapped
        knots = knots[_first_of_each(knots)]
        if knots.size < grid_size:  # ties merged knots: every value may fit
            first = _first_of_each(values)
            if np.count_nonzero(first) <= grid_size:
                knots = values[first]
        through = np.searchsorted(values, knots, "right")
        before = np.searchsorted(values, knots, "left")
        if cum is not None:
            through, before = cum[through], cum[before]
    # each knot at the averaged rank of its samples
    ps = (through - (through - before - 1) / 2.0) / n
    ps[-1] = 1.0
    return EmpiricalCdf(knots.astype(np.float64), ps, n_samples=n)


def _check_spread(values: np.ndarray) -> None:
    """Raise unless sorted ``values`` hold two distinct intensities."""
    if values.size == 0:
        raise AllBackground("every voxel equals the background value")
    if values[0] == values[-1]:
        raise DegenerateConstant(f"single distinct intensity {float(values[0])!r}")


def _ascending(values: np.ndarray) -> bool:
    """Whether ``values`` never descend; a strided probe settles most
    unsorted arrays before the full pass."""
    probe = values[::max(1, values.size // _PROBE)]
    return bool((probe[1:] >= probe[:-1]).all() and (values[1:] >= values[:-1]).all())


def _first_of_each(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``values`` that differ from the one before."""
    return np.concatenate(([True], values[1:] != values[:-1]))


def quantile(cdf: EmpiricalCdf, p) -> "float | np.ndarray":
    """Piecewise-linear inverse of the CDF.

    Accepts a scalar or array of probabilities in (0, 1]; probabilities below
    the first knot probability clamp to the lowest intensity.
    """
    p_arr = np.asarray(p, dtype=np.float64)
    if (p_arr <= 0.0).any() or (p_arr > 1.0).any():
        raise OutOfRange(f"probabilities must lie in (0, 1], got {p!r}")
    out = np.interp(p_arr, cdf.ps, cdf.xs)
    return _match_scalar(out, p)


def cdf_value(cdf: EmpiricalCdf, x) -> "float | np.ndarray":
    """Forward CDF evaluation at intensity ``x`` (scalar or array).

    Below the support the curve ramps linearly to 0 over a span as wide as
    its first knot gap, which rank knots leave uneven; above the support it
    saturates at 1.
    """
    xs_ext = np.concatenate(([_ramp_knot(cdf)], cdf.xs))
    ps_ext = np.concatenate(([0.0], cdf.ps))
    out = np.interp(np.asarray(x, dtype=np.float64), xs_ext, ps_ext)
    return _match_scalar(out, x)


def _ramp_knot(cdf: EmpiricalCdf) -> float:
    """Where the curve below the support reaches 0: one first knot gap down."""
    return cdf.xs[0] - (cdf.xs[1] - cdf.xs[0])


def zscore_standardize(vol: "Volume | SortedForeground") -> "Volume | SortedForeground":
    """Standardize foreground to mean 0 and population std 1.

    Statistics are float64 over the sorted foreground, a counted level
    standing for its voxels, so they depend on the foreground's values alone,
    not on the voxels' order; background keeps its value.  Idempotent up to
    rounding.  A :class:`SortedForeground` comes back read through the
    z-score, which never descends (:meth:`SortedForeground.through`); a
    Volume is sorted first and its index mapped through the same z-score.
    """
    index = None if isinstance(vol, SortedForeground) else IntensityIndex.of(vol)
    fg = vol if index is None else index.sorted_foreground()
    if (n := fg.n_voxels) == 0:
        raise AllBackground("no foreground voxels to standardize")
    if fg.cum is None:  # values.std() in place on a float64 copy: the same bits
        values = fg.values.astype(np.float64)
        mean = float(values.mean())
        values -= mean
        np.square(values, out=values)
        std = math.sqrt(float(values.sum()) / n)
    else:  # fsum rounds each weighted sum once, in any order
        weights = np.diff(fg.cum)
        mean = math.fsum(weights * fg.values) / n
        std = math.sqrt(math.fsum(weights * (fg.values - mean) ** 2) / n)
    if std == 0.0:
        raise DegenerateConstant("foreground standard deviation is zero")

    def standardize(x):
        z = np.subtract(x, mean, dtype=np.float64)
        z /= std
        return z

    if index is None:
        return vol.through(standardize)
    return index.map_foreground(standardize).to_volume()


def average_cdfs(cdfs, grid_size: int = DEFAULT_GRID_SIZE) -> EmpiricalCdf:
    """Equal-weight pointwise mean of CDFs on a shared intensity grid.

    The grid spans the union of the input supports; the result is monotone
    and renormalized so its last probability is exactly 1.
    """
    cdfs = list(cdfs)
    if not cdfs:
        raise EmptyInput("average_cdfs needs at least one CDF")
    whole_number(grid_size, "grid_size", least=2)
    lo = min(float(c.xs[0]) for c in cdfs)
    hi = max(float(c.xs[-1]) for c in cdfs)
    xs = np.linspace(lo, hi, grid_size)
    stack = np.stack([cdf_value(c, xs) for c in cdfs])
    # canonical summation order keeps the mean bitwise invariant to the
    # ordering of the input list
    stack = np.sort(stack, axis=0)
    ps = stack.mean(axis=0)
    ps = np.maximum.accumulate(ps)
    ps = ps / ps[-1]
    return EmpiricalCdf(xs, ps, n_samples=sum(c.n_samples for c in cdfs))


def ks_distance(a: EmpiricalCdf, b: EmpiricalCdf) -> float:
    """Kolmogorov-Smirnov distance between two piecewise-linear CDFs.

    Both curves are piecewise linear, so the maximum vertical gap is attained
    at a knot (including the ramp knot below each support).
    """
    knots = np.unique(np.concatenate([a.xs, b.xs, [_ramp_knot(a), _ramp_knot(b)]]))
    return float(np.abs(cdf_value(a, knots) - cdf_value(b, knots)).max())
