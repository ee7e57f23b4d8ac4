"""Benchmark ``cdfmatch template build`` and ``cdfmatch harmonize`` end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload large_u16 --seed 1 --seconds 24 --trace 0

The CLI runs in this process on the checkout's ``src/``.  Set-up is
``template build`` over the workload's training cohort; the timed region is
one ``harmonize`` call over the workload's input directory, repeated for
``--seconds``.  Every call's artifacts are checked and fingerprinted.  With
``--trace 1`` the calls alternate between traced and untraced, and the
per-layer metrics come from spans recorded around each layer's functions.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans as trace  # noqa: E402
from workloads import WORKLOADS, distinct_levels, prepare  # noqa: E402

SETUP_REPS = 3       # template builds per untraced run; setup_s is their median
MIN_CALLS = 3        # harmonize calls per run, even when --seconds is short
REF_REPS = 5
REF_SIZE = 1 << 20


def _import_program():
    """Import cdfmatch from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "cdfmatch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cdfmatch sources under {src}")
    sys.path.insert(0, str(src))
    import cdfmatch
    from cdfmatch import cli
    if Path(cdfmatch.__file__).resolve().parent != (src / "cdfmatch").resolve():
        raise SystemExit("perfbench: cdfmatch was imported from outside the checkout")
    return cdfmatch, cli


def _code_hash() -> str:
    """Hash of the program and benchmark sources; keys cross-run expectations."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*.py")):
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def reference_kernel_ms() -> float:
    """Median time of a fixed numpy sort; tracks the machine, not the program."""
    import numpy as np
    data = np.random.default_rng(0).random(REF_SIZE)
    times = []
    for _ in range(REF_REPS):
        started = time.perf_counter()
        np.sort(data)
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def _run_cli(cli, argv) -> tuple[int, float, float, str]:
    """One in-process CLI call: (exit code, wall s, process CPU s, stderr)."""
    gc.collect()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        cpu = os.times()
        started = time.perf_counter()
        try:
            rc = cli.run(argv)
        except Exception:  # the CLI process would die here with exit code 1
            traceback.print_exc()
            rc = 1
        wall = time.perf_counter() - started
        after = os.times()
    return rc, wall, after.user - cpu.user + after.system - cpu.system, err.getvalue()


class Bench:
    """State of one benchmark run: inputs, template, calls, failures."""

    def __init__(self, workload, seed: int, seconds: float, traced: bool):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.cm, self.cli = _import_program()
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first: dict | None = None
        self.post_ks: list[float] = []
        self.counts: dict = {}
        self.template_digest: str | None = None

    def note(self, problem: str) -> None:
        self.problems.append(problem)
        print(f"perfbench: {problem}", file=sys.stderr)

    # -- set-up ---------------------------------------------------------------

    def prepare(self) -> None:
        self.data, self.manifest, self.cache_hit = prepare(self.w, self.seed,
                                                           STATE / "cache")
        self.gen_s = float(self.manifest["gen_s"])
        self.in_dir = self.data / "inputs"
        self.stems = [Path(n).stem for n in self.manifest["inputs"]]
        self.work = STATE / "work" / self.w.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.template = self.work / "template.json"
        self.out_dir = self.work / "out"
        self.report = self.work / "report.json"

    def build_template(self, tracer=None) -> float:
        cohort = [str(self.data / "cohort" / n) for n in self.manifest["cohort"]]
        argv = ["template", "build", "--channel", "T2", "--out", str(self.template)] + cohort
        self.template.unlink(missing_ok=True)
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.instrument(trace.SETUP_HOOKS))
                stack.enter_context(tracer.span("cli.template", root=True))
            rc, wall, _, err = _run_cli(self.cli, argv)
        if rc != 0 or not self.template.is_file():
            raise SystemExit(f"perfbench: template build failed ({rc}):\n{err}")
        digest = hashlib.sha256(self.template.read_bytes()).hexdigest()
        if self.template_digest not in (None, digest):
            self.note("template bytes differ between builds")
        self.template_digest = digest
        return wall

    def peak_mib(self) -> float:
        """tracemalloc peak of one library harmonize() of the first volume."""
        cm = self.cm
        template = cm.load_template(self.template)
        vol = cm.read_volume(self.in_dir / f"{self.stems[0]}.raw")
        options = cm.HarmonizeOptions(bits=self.w.bits)
        gc.collect()
        tracemalloc.start()
        try:
            result = cm.harmonize(vol, template, options)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del result
        return peak / 2 ** 20

    # -- timed calls ------------------------------------------------------------

    def harmonize(self, tracer=None) -> dict:
        """One ``cdfmatch harmonize`` call over the input directory, checked."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.report.unlink(missing_ok=True)
        argv = ["harmonize", "--template", str(self.template), "--in", str(self.in_dir),
                "--out", str(self.out_dir), "--report", str(self.report),
                "--best-effort"] + self.w.harmonize_flags()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.instrument(trace.HARMONIZE_HOOKS))
                stack.enter_context(tracer.span("cli.harmonize", root=True))
            rc, wall, cpu, err = _run_cli(self.cli, argv)
        call = {"wall": wall, "cpu": cpu, "rc": rc, "traced": tracer is not None,
                "digests": checks.digests(self.out_dir, self.report, self.stems)}
        if self.first is None:
            # the full invariant checks run once; later calls must reproduce
            # the same bytes, which the digests verify
            clip = json.loads(self.template.read_text())["clip"]
            failed = checks.check_call(self.in_dir, self.out_dir, self.report,
                                       self.stems, rc, clip, self.w.bits)
            for stem, reason in sorted(failed.items()):
                self.note(f"{stem}: {reason}")
            if failed and rc != 0:
                sys.stderr.write(err[-2000:])
            call["failed"] = set(failed)
            self.first = call
            if self.report.is_file():
                self.post_ks = checks.post_ks(self.report)
                self.counts = self._counts()
        else:
            differ = {k for k, v in call["digests"].items()
                      if v != self.first["digests"][k]}
            if differ:
                self.note(f"artifacts differ from the first call: {sorted(differ)[:5]}")
            call["failed"] = set(self.stems) if "report.json" in differ else \
                (set(self.first["failed"]) | differ)
        self.attempted += len(self.stems)
        self.failed += len(call["failed"])
        return call

    def _counts(self) -> dict:
        counts = checks.report_counts(self.report)
        inputs = [self.in_dir / f"{s}.raw{ext}" for s in self.stems for ext in ("", ".json")]
        outputs = [p for s in self.stems for p in checks.item_files(self.out_dir, s)]
        counts.update(input_voxels=int(self.manifest["input_voxels"]),
                      bytes_read=checks.dir_bytes(inputs),
                      bytes_written=checks.dir_bytes(outputs + [self.report]))
        return counts

    def measure(self) -> list[dict]:
        """Repeat harmonize calls for --seconds; traced runs alternate T, U, T..."""
        calls, started = [], time.perf_counter()
        while True:
            tracer = trace.Tracer() if self.traced and len(calls) % 2 == 0 else None
            call = self.harmonize(tracer)
            call["tracer"] = tracer
            calls.append(call)
            elapsed = time.perf_counter() - started
            typical = statistics.median(c["wall"] for c in calls)
            if len(calls) >= MIN_CALLS and elapsed + typical > self.seconds:
                return calls

    # -- cross-run expectations ------------------------------------------------

    def check_expectations(self, counts: dict) -> None:
        """Artifacts and counts must repeat across runs of one seed and code."""
        path = self.data / f"expect-{_code_hash()}.json"
        mine = {"template": self.template_digest, "digests": self.first["digests"],
                "counts": counts}
        if path.is_file():
            seen = json.loads(path.read_text())
            if seen["template"] != mine["template"]:
                self.note("template differs from an earlier run of this seed")
            differ = {k for k, v in mine["digests"].items() if seen["digests"].get(k) != v}
            if differ:
                self.note(f"artifacts differ from an earlier run: {sorted(differ)[:5]}")
                self.failed += len(set(self.stems) & differ) or len(self.stems)
            for key in sorted(set(seen["counts"]) & set(counts)):
                if seen["counts"][key] != counts[key]:
                    self.note(f"count {key} was {seen['counts'][key]}, now {counts[key]}")
            merged = {**seen["counts"], **counts}
            if merged != seen["counts"]:
                path.write_text(json.dumps({**seen, "counts": merged}, sort_keys=True, indent=1))
        else:
            tmp = path.with_name(path.name + f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(mine, sort_keys=True, indent=1))
            os.replace(tmp, path)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def harmonize_layers(spans, items: int) -> dict:
    """Per-layer numbers of one traced harmonize call (ms per item)."""
    selfs = trace.self_times(spans)

    def total(name, seq=None, own=False):
        hit = [s for s in spans if s.name == name and (seq is None or s.seq == seq)]
        if not hit:
            return None
        return sum(selfs[s.id] if own else s.end - s.start for s in hit)

    def per_item(value):
        return None if value is None else value * 1e3 / items

    def rate(name):
        hit = [s for s in spans if s.name == name]
        busy = sum(s.end - s.start for s in hit)
        return sum(s.n_voxels for s in hit) / busy / 1e6 if hit and busy else None

    def nbytes(*names):
        hit = [s for s in spans if s.name in names]
        return sum(s.nbytes for s in hit) if hit else None

    root = [s for s in spans if s.name == "cli.harmonize"]
    item_self = total("cli.item", own=True)
    refines = [s for s in spans if s.name == "fit.fit_cdf" and s.seq == 1]
    fits = [s for s in spans if s.name == "fit.fit_cdf"]
    return {
        "io.read_volume.ms": per_item(total("io.read_volume")),
        "io.write_volume.ms": per_item(total("io.write_volume")),
        "io.save_lut.ms": per_item(total("io.save_lut")),
        "io.bytes_read": nbytes("io.read_volume"),
        "io.bytes_written": nbytes("io.write_volume", "io.save_lut"),
        "cli.self_ms": per_item(selfs[root[0].id] + item_self
                                if root and item_self is not None else None),
        "cdf.build_cdf.pre_ms": per_item(total("cdf.build_cdf", seq=0)),
        "cdf.build_cdf.post_ms": per_item(total("cdf.build_cdf", seq=1)),
        "cdf.build_cdf.mvox_per_s": rate("cdf.build_cdf"),
        "cdf.ks_distance.ms": per_item(total("cdf.ks_distance")),
        "fit.fit_cdf.fit_ms": per_item(total("fit.fit_cdf", seq=0)),
        "fit.fit_cdf.refine_ms": per_item(total("fit.fit_cdf", seq=1)),
        "fit.refine_ratio": len(refines) / items if fits else None,
        "transform.compose_lut.ms": per_item(total("transform.compose_lut")),
        "transform.apply_lut.ms": per_item(total("transform.apply_lut")),
        "transform.apply_lut.mvox_per_s": rate("transform.apply_lut"),
        "pipeline.harmonize.ms": per_item(total("pipeline.harmonize")),
        "pipeline.harmonize.self_ms": per_item(total("pipeline.harmonize", own=True)),
    }


def setup_layers(spans) -> dict:
    """Per-layer numbers of one traced template build (ms per build)."""
    selfs = trace.self_times(spans)

    def total(name, own=False):
        hit = [s for s in spans if s.name == name]
        return sum(selfs[s.id] if own else s.end - s.start for s in hit) * 1e3 if hit else None

    return {
        "template.build_template.ms": total("template.build_template"),
        "template.build_template.self_ms": total("template.build_template", own=True),
        "io.read_volume.cohort_ms": total("io.read_volume"),
        "cdf.zscore_standardize.ms": total("cdf.zscore_standardize"),
        "cdf.build_cdf.cohort_ms": total("cdf.build_cdf"),
        "cdf.average_cdfs.ms": total("cdf.average_cdfs"),
        "fit.fit_template_to_controls.ms": total("fit.fit_template_to_controls"),
        "template.save_template.ms": total("template.save_template"),
    }


def accounting_gaps(spans) -> list[str]:
    """Items whose span self times do not add up to the item wall within 5%."""
    selfs = trace.self_times(spans)
    gaps = []
    for item in (s for s in spans if s.name == "cli.item"):
        wall = item.end - item.start
        summed = sum(selfs[s.id] for s in spans if s.item == item.item)
        if min(selfs[s.id] for s in spans if s.item == item.item) < -1e-6 \
                or abs(summed - wall) > 0.05 * wall:
            gaps.append(f"{item.item}: spans add to {summed:.4f}s of {wall:.4f}s")
    return gaps


STAGES = (  # (label, metric), in pipeline order, for the stage table
    ("read", "io.read_volume.ms"), ("cdf (pre)", "cdf.build_cdf.pre_ms"),
    ("ks (pre+post)", "cdf.ks_distance.ms"), ("fit", "fit.fit_cdf.fit_ms"),
    ("refine", "fit.fit_cdf.refine_ms"), ("compose", "transform.compose_lut.ms"),
    ("apply", "transform.apply_lut.ms"),
    ("quantize + glue", "pipeline.harmonize.self_ms"),
    ("post-cdf", "cdf.build_cdf.post_ms"), ("write", "io.write_volume.ms"),
    ("save_lut", "io.save_lut.ms"), ("cli (meta, report, load)", "cli.self_ms"),
)


def stage_table(layers: dict) -> str:
    stages = [(label, layers.get(key)) for label, key in STAGES]
    whole = sum(v for _, v in stages if v is not None)
    lines = ["| stage | ms/item | share |", "|---|---|---|"]
    for label, v in stages:
        lines.append(f"| {label} | {'missing' if v is None else f'{v:.2f}'} | "
                     f"{'-' if v is None else f'{100 * v / whole:.1f}%'} |")
    lines.append(f"| total | {whole:.2f} | 100% |")
    return "\n".join(lines)


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def traced_layers(bench: Bench, calls: list[dict], setup_spans, ref_ms: float) -> dict:
    """Per-layer metrics: medians over the traced calls, plus set-up and counts."""
    n_items = len(bench.stems)
    traced = [c for c in calls if c["traced"]]
    per_call = [harmonize_layers(c["tracer"].spans, n_items) for c in traced]
    layers = {key: _median(pc[key] for pc in per_call) for key in per_call[0]}
    for key in ("io.bytes_read", "io.bytes_written", "fit.refine_ratio"):
        if len({pc[key] for pc in per_call}) > 1:
            bench.note(f"count {key} changed between traced calls")
        layers[key] = per_call[0][key]
    for c in traced:
        for gap in accounting_gaps(c["tracer"].spans):
            bench.note(f"unaccounted item time, {gap}")
    counts = bench.counts
    counts.update(refine_passes=round((layers["fit.refine_ratio"] or 0) * n_items),
                  span_bytes_read=layers["io.bytes_read"],
                  span_bytes_written=layers["io.bytes_written"])
    layers.update(setup_layers(setup_spans))
    layers.update({
        "cdf.distinct_levels": statistics.median(distinct_levels(bench.data, bench.manifest)),
        "fit.iterations": counts.get("fit_iterations"),
        "transform.tails_fired": (counts["tails_fired"] / n_items
                                  if "tails_fired" in counts else None),
        "trace.overhead_ratio": (statistics.median(c["wall"] for c in calls if not c["traced"])
                                 / statistics.median(c["wall"] for c in traced)),
        "gen.seconds": bench.gen_s, "ref.sort_ms": ref_ms,
        "run.items": n_items, "run.input_voxels": bench.manifest["input_voxels"],
    })
    return layers


def run(args) -> dict:
    w = WORKLOADS[args.workload]
    bench = Bench(w, args.seed, args.seconds, bool(args.trace))
    phases, mark = {}, time.perf_counter()

    def phase(name):
        nonlocal mark
        now = time.perf_counter()
        phases[name] = round(now - mark, 3)
        mark = now

    bench.prepare()
    phase("prepare")
    ref_ms = reference_kernel_ms()
    setup = [bench.build_template() for _ in range(1 if bench.traced else SETUP_REPS)]
    setup_tracer = trace.Tracer()
    if bench.traced:
        bench.build_template(setup_tracer)
    phase("setup")
    peak = bench.peak_mib()  # untimed, and warms the pipeline up
    phase("peak")
    calls = bench.measure()
    phase("measure")

    layers, missing = {}, []
    if bench.traced:
        layers = traced_layers(bench, calls, setup_tracer.spans, ref_ms)
        missing = sorted({m for c in calls if c["traced"] for m in c["tracer"].missing}
                         | set(setup_tracer.missing))
        for m in missing:  # a refactor may move a layer; its metrics read null
            print(f"perfbench: hook target {m} no longer exists", file=sys.stderr)
        trace.write_spans(STATE / "traces" / f"{w.name}-seed{args.seed}.jsonl",
                          [c["tracer"].spans for c in calls if c["traced"]]
                          + [setup_tracer.spans])
        print(f"perfbench: {w.name} seed {args.seed} traced stage table\n"
              f"{stage_table(layers)}", file=sys.stderr)
    bench.check_expectations(bench.counts)
    phase("finish")

    ks = bench.post_ks or [None]
    plain = [c for c in calls if not c["traced"]]
    e2e = {"mvox_per_s": bench.manifest["input_voxels"] / 1e6
           / statistics.median(c["wall"] for c in plain),
           "setup_s": statistics.median(setup),
           "peak_mib": peak,
           "post_ks_p50": _median(ks), "post_ks_max": max(ks) if ks[0] is not None else None,
           "ok_ratio": 1.0 - bench.failed / bench.attempted}
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "calls": [round(c["wall"], 6) for c in calls],
              "calls_cpu": [round(c["cpu"], 3) for c in calls],
              "traced_calls": [c["traced"] for c in calls],
              "setup_runs": setup, "gen_s": bench.gen_s, "cache_hit": bench.cache_hit,
              "ref_sort_ms": ref_ms, "counts": bench.counts, "end_to_end": e2e,
              "per_layer": layers, "missing_hooks": missing,
              "problems": bench.problems, "phases_s": phases}
    runs = STATE / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, sort_keys=True, indent=1) + "\n")
    print(f"perfbench: {w.name} seed {args.seed}: calls {record['calls']} "
          f"setup {[round(s, 4) for s in setup]} gen {bench.gen_s:.2f}s "
          f"(cache {'hit' if bench.cache_hit else 'miss'}) ref sort {ref_ms:.3f} ms "
          f"phases {phases}", file=sys.stderr)
    shutil.rmtree(bench.work, ignore_errors=True)

    values = layers if bench.traced else e2e
    units = declared_units("per_layer" if bench.traced else "end_to_end")
    if set(values) != set(units):
        bench.note(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {k: {"value": values.get(k), "unit": u} for k, u in units.items()}
    return {"correct": not bench.problems and bench.failed == 0,
            "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    result = run(parser.parse_args(argv))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
