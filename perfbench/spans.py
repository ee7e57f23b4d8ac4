"""In-memory span tracing around the public functions of each cdfmatch layer.

Functions are wrapped where their caller looks them up (for example
``cdfmatch.pipeline.apply_lut``), so no source file of the program changes.
Each span records its name, start, end, parent and the item it belongs to;
spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

# (module the caller lives in, attribute the caller looks up, span name)
HARMONIZE_HOOKS = (
    ("cdfmatch.cli", "_capture", "cli.item"),
    ("cdfmatch.cli", "read_volume", "io.read_volume"),
    ("cdfmatch.cli", "harmonize", "pipeline.harmonize"),
    ("cdfmatch.cli", "write_volume", "io.write_volume"),
    ("cdfmatch.cli", "save_lut", "io.save_lut"),
    ("cdfmatch.pipeline", "build_cdf", "cdf.build_cdf"),
    ("cdfmatch.pipeline", "ks_distance", "cdf.ks_distance"),
    ("cdfmatch.pipeline", "fit_cdf", "fit.fit_cdf"),
    ("cdfmatch.pipeline", "compose_lut", "transform.compose_lut"),
    ("cdfmatch.pipeline", "apply_lut", "transform.apply_lut"),
)
SETUP_HOOKS = (
    ("cdfmatch.cli", "read_volume", "io.read_volume"),
    ("cdfmatch.cli", "build_template", "template.build_template"),
    ("cdfmatch.cli", "save_template", "template.save_template"),
    ("cdfmatch.template", "zscore_standardize", "cdf.zscore_standardize"),
    ("cdfmatch.template", "build_cdf", "cdf.build_cdf"),
    ("cdfmatch.template", "average_cdfs", "cdf.average_cdfs"),
    ("cdfmatch.template", "fit_template_to_controls", "fit.fit_template_to_controls"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    item: str | None
    seq: int            # 0 for the first call of this name within its item
    n_voxels: int = 0   # voxels of the Volume argument, when there is one
    nbytes: int = 0     # bytes of the file read or written, from its size


class Tracer:
    """Collects spans from any thread; one instance per traced call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        self._seq: dict[tuple[str | None, str], int] = {}

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.item = None
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, item: str | None = None, root: bool = False):
        stack = self._stack()
        if item is not None:
            self._local.item = item
        item = self._local.item
        with self._lock:
            span_id = next(self._ids)
            seq = self._seq.get((item, name), 0)
            self._seq[(item, name)] = seq + 1
        # worker threads start with an empty stack: their parent is the root
        parent = stack[-1] if stack else self._root
        if root:
            self._root = span_id
        record = Span(span_id, name, 0.0, 0.0, parent, item, seq)
        stack.append(span_id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if root:
                self._root = None
            if name == "cli.item":
                self._local.item = None
            with self._lock:
                self.spans.append(record)

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            item = Path(args[1]).stem if name == "cli.item" else None
            with tracer.span(name, item=item) as record:
                result = fn(*args, **kwargs)
            record.n_voxels = _voxels(args) or _voxels((result,))
            if name in ("io.read_volume", "io.write_volume", "io.save_lut"):
                path = args[0] if name == "io.read_volume" else args[1]
                record.nbytes = _file_bytes(path)
            return result

        return traced

    @contextlib.contextmanager
    def instrument(self, hooks):
        """Wrap every hook for the duration of the block; note absent ones."""
        patched = []
        try:
            for module_name, attr, name in hooks:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(original, name))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


def _voxels(args) -> int:
    for arg in args:
        n = getattr(arg, "n_voxels", None)
        if isinstance(n, int):
            return n
    return 0


def _file_bytes(path) -> int:
    """Payload plus header sidecar for volumes, the file alone otherwise."""
    path = Path(path)
    total = path.stat().st_size if path.exists() else 0
    sidecar = Path(str(path) + ".json")
    if path.suffix == ".raw" and sidecar.exists():
        total += sidecar.stat().st_size
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of it its children cover.

    Children of one span may overlap when they run on worker threads, so
    the covered part is the length of the union of their intervals.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def write_spans(path: Path, calls: list[list[Span]]) -> None:
    """Write spans as JSON lines, one call after another."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "w") as fh:
        for call, spans in enumerate(calls):
            for s in sorted(spans, key=lambda s: s.start):
                fh.write(json.dumps({"call": call, **asdict(s)}, sort_keys=True) + "\n")
    os.replace(tmp, path)
