"""Command-line interface.

Subcommands: ``template build``, ``harmonize``, ``synth``, ``inspect``,
``eval``.  The run configuration is one record, :class:`AppConfig`: the
built-in defaults, replaced by a JSON config file's values, replaced by
command-line flags.  The file holds exactly the keys ``AppConfig.to_dict``
writes; the record checks every value, whichever source set it, and any
fault in the config file is a usage error (exit 64).  The effective
configuration is echoed into every report, and that echo is a valid config
file.  Diagnostics go to stderr; machine-readable outputs go to files only.
"""

from __future__ import annotations

import argparse
import logging
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import __version__
from .cdf import (DEFAULT_GRID_SIZE, DTYPES, Record, build_cdf, check_fits,
                  finite_interval, whole_number)
from .errors import CdfMatchError, IoError, Overflow, UsageError
from .fit import FitConfig
from .io import (SynthSpec, csv_text, emit_cdf_plot, emit_lut_plot, generate_synthetic,
                 load_lut, read_json, read_volume, save_lut, write_cdf_csv,
                 write_files, write_json, write_lut_csv, write_volume)
from .pipeline import (ALL_METHODS, HarmonizeOptions, MethodMetrics, evaluate_cohort,
                       harmonize, quantization_range)
from .template import (DEFAULT_CLIP, DEFAULT_CONTROLS, TEMPLATE_SCHEMA_VERSION,
                       ControlPoints, build_template, load_template, save_template)


CONFIG_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARTIAL = 2
EXIT_USAGE = 64

LOG_LEVELS = ("debug", "info", "warning", "error")

log = logging.getLogger("cdfmatch")


def _capture(fn, path):
    """Run one item: ``fn(path)``, its ``(item, error)``, or ``(None, message)``
    when a fault stops the item before its files are all written."""
    try:
        return fn(path)
    except (CdfMatchError, OSError) as exc:
        return None, str(exc)


@dataclass(frozen=True)
class AppConfig(Record):
    """Effective run configuration (defaults < config file < flags)."""

    controls: ControlPoints = DEFAULT_CONTROLS
    clip: tuple[float, float] | None = DEFAULT_CLIP
    grid_size: int = DEFAULT_GRID_SIZE
    fit: FitConfig = field(default_factory=FitConfig)
    workers: int = 1
    log_level: str = "info"

    def __post_init__(self):
        if self.clip is not None:
            object.__setattr__(self, "clip", finite_interval(self.clip, "clip"))
            self.controls.check_clip(self.clip, ValueError)
        for name, least in (("grid_size", 2), ("workers", 1)):
            object.__setattr__(self, name, whole_number(getattr(self, name), name, least=least))
        if self.log_level not in LOG_LEVELS:
            raise ValueError(f"log_level must be one of {', '.join(LOG_LEVELS)}, "
                             f"got {self.log_level!r}")

    def to_dict(self) -> dict:
        return {"version": CONFIG_SCHEMA_VERSION, **super().to_dict()}

    @classmethod
    def from_dict(cls, doc: dict) -> "AppConfig":
        fields = {**doc}
        version = whole_number(fields.pop("version", CONFIG_SCHEMA_VERSION), "version")
        if version != CONFIG_SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema version {version!r}")
        return super().from_dict(fields)


def _parse_clip(text: str) -> tuple[float, float] | None:
    if text.lower() == "none":
        return None
    try:
        lo, hi = text.split(":")
        return finite_interval((float(lo), float(hi)), "clip")
    except ValueError as exc:
        raise UsageError(f"clip must look like 'LO:HI' or 'none', got {text!r}") from exc


def _read_record(path, what: str, from_dict):
    """``from_dict`` of the JSON object in the file at ``path``; any failure
    is a UsageError naming the file."""
    try:
        return from_dict(read_json(path, what, UsageError))
    except IoError as exc:
        raise UsageError(str(exc)) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed {what} {path}: {exc}") from exc


def _resolve_config(args) -> AppConfig:
    config = getattr(args, "config", None)
    cfg = _read_record(config, "config file", AppConfig.from_dict) if config else AppConfig()
    flags = {name: getattr(args, name) for name in ("grid_size", "workers", "log_level")
             if getattr(args, name, None) is not None}
    if getattr(args, "clip", None):
        flags["clip"] = _parse_clip(args.clip)
    try:
        cfg = replace(cfg, **flags)  # flags win over file values
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # the config file may lower or raise verbosity; flags already applied
    log.setLevel(getattr(logging, cfg.log_level.upper()))
    return cfg


def _discover_inputs(spec: str) -> list[Path]:
    path = Path(spec)
    if path.is_dir():
        found = sorted(path.glob("*.raw"))
        if not found:
            raise UsageError(f"no .raw volumes found in {path}")
        return found
    if path.is_file():
        return [path]
    raise UsageError(f"input {spec!r} is neither a file nor a directory")


def _check_output_files(*paths) -> None:
    """Reject an output file whose directory is missing before any work
    starts, rather than failing at the write once the work is done."""
    for path in paths:
        if path is not None and not Path(path).parent.is_dir():
            raise UsageError(f"directory {Path(path).parent} for {path} does not exist")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_template(args) -> int:
    if args.template_cmd != "build":
        raise UsageError("usage: cdfmatch template build ...")
    _check_output_files(args.out)
    cfg = _resolve_config(args)
    # a generator: each member is read just before a thread can map it
    cohort = (read_volume(p) for p in args.inputs)
    template = build_template(cohort, controls=cfg.controls, clip=cfg.clip,
                              config=cfg.fit, grid_size=cfg.grid_size,
                              channel=args.channel)
    save_template(template, args.out)
    log.info("wrote template for channel %r from %d volumes to %s",
             template.channel, template.provenance.cohort_size, args.out)
    return EXIT_OK


def _cmd_harmonize(args) -> int:
    _check_output_files(args.report)
    cfg = _resolve_config(args)
    template = load_template(args.template)
    try:
        options = HarmonizeOptions(fit=cfg.fit, grid_size=cfg.grid_size, bits=args.bits,
                                   dtype=args.dtype)
        if args.bits is not None:
            check_fits(options.dtype, *quantization_range(template, args.bits))
    except (ValueError, Overflow) as exc:
        raise UsageError(f"--bits {args.bits}: {exc}") from exc
    inputs = _discover_inputs(args.input)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def process(path: Path) -> tuple[dict, str | None]:
        vol = read_volume(path)
        out_vol, entry = harmonize(vol, template, options)
        out_path = out_dir / path.name
        write_volume(out_vol, out_path, dtype=options.dtype)
        lut_path = out_dir / (path.stem + ".lut.json")
        save_lut(entry.lut, lut_path)
        log.info("harmonized %s: pre-KS %.4f -> post-KS %.4f (%.2fs)",
                 path.name, entry.pre_ks, entry.post_ks, entry.wall_time_s)
        item = {"input": path.name, "output": out_path.name,
                "lut_file": lut_path.name}
        item.update(entry.to_dict())
        write_json(out_dir / (path.stem + ".meta.json"), "metadata", item)
        error = None if entry.fit.converged else f"fit did not converge for {path.name}"
        return item, error

    stop = threading.Event()

    def attempt(path: Path) -> tuple[dict | None, str | None]:
        if stop.is_set():
            return None, None  # a strict run starts no item after a failure
        item, error = _capture(process, path)
        if error is not None and not args.best_effort:
            stop.set()
        return item, error

    items, failures = [], []
    # one worker is the serial case; results merge in input order
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        outcomes = list(pool.map(attempt, inputs))

    for path, (item, error) in zip(inputs, outcomes):
        if item is not None:
            items.append(item)
        if error is not None:
            failures.append({"input": path.name, "error": error})
            if args.best_effort:
                log.warning("continuing past %s: %s", path.name, error)
            else:
                log.error("failed on %s: %s", path.name, error)

    if args.report:
        report = {"version": 1, "config": cfg.to_dict(),
                  "config_hash": options.hash(), "items": items,
                  "failures": failures}
        write_json(args.report, "report", report)
    if failures and not args.best_effort:
        return EXIT_FAILURE
    return EXIT_PARTIAL if failures else EXIT_OK


def _cmd_synth(args) -> int:
    _check_output_files(args.out)
    # a spec that is no JSON object is a usage error, a bad field BadSpec
    spec = SynthSpec.from_dict(_read_record(args.spec, "synth spec", dict))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    vol = generate_synthetic(spec)
    write_volume(vol, args.out, dtype=args.dtype)
    log.info("wrote synthetic volume %s (dims %s, seed %d)", args.out,
             spec.dims, spec.seed)
    return EXIT_OK


def _cmd_inspect(args) -> int:
    _check_output_files(args.out, args.plot)
    cfg = _resolve_config(args)
    if args.cdf:
        vol = read_volume(args.cdf)
        cdf = build_cdf(vol, exclude_background=args.exclude_background,
                        grid_size=cfg.grid_size)
        write_cdf_csv(cdf, args.out)
        if args.plot:
            label = vol.channel or Path(args.cdf).stem
            emit_cdf_plot([(label, cdf)], args.plot, title=f"CDF of {Path(args.cdf).name}")
    else:
        whole_number(args.points, "--points", UsageError, least=2)
        lut = load_lut(args.lut)
        write_lut_csv(lut, args.out, args.points)
        if args.plot:
            emit_lut_plot(lut, args.plot, points=args.points,
                          title=f"Mapping {Path(args.lut).name}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    _check_output_files(args.out)
    cfg = _resolve_config(args)
    template = load_template(args.template)
    options = HarmonizeOptions(fit=cfg.fit, grid_size=cfg.grid_size)
    methods = [name.strip() for name in args.methods.split(",")]
    for name in methods:
        if name not in ALL_METHODS:
            raise UsageError(f"unknown method {name!r}; choose from {', '.join(ALL_METHODS)}")
    volumes = [read_volume(p) for p in _discover_inputs(args.input)]
    rows = evaluate_cohort(volumes, template, methods=methods, options=options)
    header = [f.name for f in fields(MethodMetrics)]
    table = csv_text(header, ([getattr(row, name) for name in header] for row in rows))
    write_files("metrics CSV", (args.out, table))
    log.info("wrote metrics for %d methods to %s", len(rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with the usage-failure code (64)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser):
    parser.add_argument("--config", help="JSON config file with shared defaults")
    parser.add_argument("--grid-size", type=int, help="most knots per CDF (at least 2)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cdfmatch",
                     description="CDF-matching image intensity harmonization")
    parser.add_argument(
        "--version", action="version",
        version=f"cdfmatch {__version__} (config schema {CONFIG_SCHEMA_VERSION}, "
                f"template schema {TEMPLATE_SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="command")

    p_template = sub.add_parser("template", help="template CDF operations")
    tsub = p_template.add_subparsers(dest="template_cmd")
    p_build = tsub.add_parser("build", help="build a template from a cohort")
    p_build.add_argument("--channel", help="channel label for the template")
    p_build.add_argument("--clip", help="clip range 'LO:HI' or 'none'")
    p_build.add_argument("--out", required=True, help="output template JSON")
    p_build.add_argument("inputs", nargs="+", help="training volumes (.raw)")
    _add_config_flags(p_build)
    p_build.set_defaults(func=_cmd_template)
    p_template.set_defaults(func=_cmd_template, template_cmd=None)

    p_harm = sub.add_parser("harmonize", help="harmonize volumes against a template")
    p_harm.add_argument("--template", required=True, help="template JSON file")
    p_harm.add_argument("--in", dest="input", required=True,
                        help="input volume or directory of .raw volumes")
    p_harm.add_argument("--out", required=True, help="output directory")
    p_harm.add_argument("--report", help="write a JSON report here")
    p_harm.add_argument("--bits", type=int, help="quantize outputs to this bit depth (1-16)")
    p_harm.add_argument("--best-effort", action="store_true",
                        help="continue past per-item failures (exit 2)")
    p_harm.add_argument("--dtype", choices=list(DTYPES),
                        help="output dtype (default: u16 with --bits, else f32)")
    p_harm.add_argument("--workers", type=int, help="worker threads for batches (at least 1)")
    _add_config_flags(p_harm)
    p_harm.set_defaults(func=_cmd_harmonize)

    p_synth = sub.add_parser("synth", help="generate a synthetic volume")
    p_synth.add_argument("--spec", required=True, help="synthetic spec JSON")
    p_synth.add_argument("--seed", type=int, help="override the spec seed")
    p_synth.add_argument("--out", required=True, help="output volume path")
    p_synth.add_argument("--dtype", default="f32", choices=list(DTYPES))
    p_synth.set_defaults(func=_cmd_synth)

    p_inspect = sub.add_parser("inspect", help="dump a CDF or LUT as CSV/SVG")
    group = p_inspect.add_mutually_exclusive_group(required=True)
    group.add_argument("--cdf", help="volume whose CDF to inspect")
    group.add_argument("--lut", help="LUT JSON to inspect")
    p_inspect.add_argument("--out", required=True, help="output CSV path")
    p_inspect.add_argument("--plot", help="also write an SVG plot here")
    p_inspect.add_argument("--points", type=int, default=512,
                           help="LUT sample count")
    p_inspect.add_argument("--exclude-background",
                           action=argparse.BooleanOptionalAction, default=True)
    _add_config_flags(p_inspect)
    p_inspect.set_defaults(func=_cmd_inspect)

    p_eval = sub.add_parser("eval", help="compare harmonization methods")
    p_eval.add_argument("--template", required=True)
    p_eval.add_argument("--in", dest="input", required=True,
                        help="directory of .raw volumes (or one file)")
    p_eval.add_argument("--methods", default=",".join(ALL_METHODS),
                        help=f"comma-separated subset of {','.join(ALL_METHODS)}")
    p_eval.add_argument("--out", required=True, help="output metrics CSV")
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    for command in (p_build, p_harm, p_synth, p_inspect, p_eval):
        command.add_argument("--log-level", choices=LOG_LEVELS,
                             help="diagnostic verbosity (stderr)")
    return parser


def run(argv=None) -> int:
    """Entry point returning a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    level = getattr(args, "log_level", None) or "info"
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level.upper()),
                        format="%(levelname)s %(name)s: %(message)s", force=True)
    try:
        return int(args.func(args))
    except UsageError as exc:
        print(f"cdfmatch: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CdfMatchError as exc:
        log.error("%s", exc)
        return EXIT_FAILURE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
