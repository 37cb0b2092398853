"""End-to-end benchmark of the ecir CLI pipeline.

    python3 perfbench/run.py --workload dense_pipeline --seed 557 --seconds 30 --trace 0

Generates the workload's scene from ``--seed`` (see ``workloads.py``), then
runs the real CLI in-process through ``ecir.cli.main`` over the chain
simulate -> fit -> render -> eval -> edi -> refine -> voxelize, then repeats
the stages until ``--seconds`` are used. Every call's outputs are hashed and
must match the first call; the first call's outputs are checked for
correctness.

Stage times are medians over a stage's calls; ``pipeline_s`` is their sum,
and ``pipeline_ref_s`` is that sum rescaled by a reference kernel timed in
the same run (see ``reference_kernel``), which removes most of the
run-to-run drift of a shared machine. Every measured value is printed by
name with its unit. The last stdout line is one JSON object holding, with
``--trace 0``, the end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` half the time goes to untraced
calls and the rest to passes with every layer function wrapped
(``tracing.py``), and it holds the per-layer metrics. The full record
(environment, regime, output sha256, per-stage layer metrics, spans) is
written under ``.bench_runs/``. Exits nonzero when any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zipfile
from pathlib import Path

import numpy as np

import workloads as wl
from tracing import CALL_METRICS, CHUNK, LAYER_METRICS, TIME_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
THREADS = 2
STAGES = ("simulate", "fit", "render", "eval", "edi", "refine", "voxelize")
MAP_ROWS_STAGES = ("fit", "render", "eval")  # the stages whose work goes through map_rows
IMPORT_REPEATS = 9
MIN_STAGE_S = 0.5  # a turn repeats a short stage until its calls add up to this
DENSE_PSNR_FLOOR_DB = 50.0
# Typical time of reference_kernel on the 2-vCPU machine the benchmark was
# defined on. It only fixes the unit of pipeline_ref_s.
REFERENCE_KERNEL_S = 0.03

OUTPUTS = {
    "simulate": ["sim"],
    "fit": ["polys.npz"],
    "render": ["pred"],
    "eval": ["report.txt", "report.csv"],
    "edi": ["edi"],
    "refine": ["refined"],
    "voxelize": ["hist.h32"],
}


def _malloc_trim():
    """glibc's ``malloc_trim``, or a no-op where the C library has none."""
    try:
        return ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError):
        return lambda pad: 0


RELEASE_FREE_MEMORY = _malloc_trim()


def reference_kernel() -> float:
    """Wall time of a fixed mix of interpreter and numpy work: a gauge of machine speed.

    On a shared machine the speed of every stage drifts together by tens of
    percent from one minute to the next; the kernel, timed before every turn,
    measures that drift so ``pipeline_ref_s`` can remove it.
    """
    start = time.perf_counter()
    text = " ".join(repr(i * 1.000001) for i in range(20_000))
    total = sum(float(tok) for tok in text.split())
    a = np.arange(1_000_000, dtype=np.float64)
    total += float(np.sqrt(a * 1.5 + 2.0).sum())
    return time.perf_counter() - start


class Abort(Exception):
    """A stage failed, so the stages after it have no inputs."""


def stage_argv(w: wl.Workload, d: Path, threads: int) -> dict[str, list[str]]:
    manifest = d / "sim" / "manifest.json"
    c, t = repr(w.c), str(threads)
    argv = {
        "simulate": ["simulate", "--video", d / "video", "--out", d / "sim", "--exposure-ms", "120",
                     "--c-plus", c, "--c-minus", repr(-w.c), "--threads", t],
        "fit": ["fit", "--manifest", manifest, "--gt-video", d / "video", "--n", str(wl.KEYPOINTS),
                "--threads", t, "--out", d / "polys.npz"],
        "render": ["render", "--polys", d / "polys.npz", "--count", str(w.frames), "--threads", t,
                   "--out", d / "pred"],
        "eval": ["eval", "--pred", d / "pred", "--gt", d / "gt", "--threads", t,
                 "--report", d / "report.txt"],
        "edi": ["edi", "--manifest", manifest, "--c", c, "--count", str(w.frames), "--out", d / "edi"],
        "refine": ["refine", "--frames", d / "pred", "--manifest", manifest, "--c", c, "--lambda", "1",
                   *w.refine_args, "--out", d / "refined"],
        "voxelize": ["voxelize", "--manifest", manifest, "--bins", str(wl.BINS), "--out", d / "hist.h32"],
    }
    return {k: [str(a) for a in v] for k, v in argv.items()}


def file_digest(path: Path) -> str:
    if path.suffix == ".npz":
        # np.savez stamps each zip member with the wall clock; hash the members
        h = hashlib.sha256()
        with zipfile.ZipFile(path) as z:
            for info in z.infolist():
                h.update(info.filename.encode() + b"\0" + z.read(info))
        return "members:" + h.hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest(workdir: Path, names: list[str]) -> dict[str, str]:
    out = {}
    for name in names:
        path = workdir / name
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for p in files:
            out[str(p.relative_to(workdir))] = file_digest(p)
    return out


class Pipeline:
    """Runs and checks CLI calls for one workload in one work directory."""

    def __init__(self, workload: wl.Workload, workdir: Path, cli, metrics):
        self.w = workload
        self.dir = workdir
        self.cli = cli
        self.metrics = metrics
        self.argv = {t: stage_argv(workload, workdir, t) for t in (1, THREADS)}
        self.samples = {s: [] for s in STAGES}
        self.reference: list[float] = []
        self.first: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.quality: dict = {}
        self.regime: dict = {}
        self.polarity_sum = None

    def call(self, stage: str, threads: int = THREADS) -> float:
        argv = self.argv[threads][stage]
        out, err = io.StringIO(), io.StringIO()
        # every call starts from a collected, trimmed heap, as a fresh CLI
        # process would, so memory left by earlier calls does not carry over
        gc.collect()
        RELEASE_FREE_MEMORY(0)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising call is a counted failure, not a crash
            code = f"raised {exc!r}"
        wall = time.perf_counter() - start
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit {code}: {err.getvalue().strip()[-300:]}")
        else:
            got = digest(self.dir, OUTPUTS[stage])
            if stage not in self.first:
                self.first[stage] = got
                problems += self.check_first(stage)
            elif got != self.first[stage]:
                changed = sorted(k for k in set(got) | set(self.first[stage])
                                 if got.get(k) != self.first[stage].get(k))
                problems.append(f"output bytes differ from the first call: {changed[:5]}")
        if problems:
            self.failures.append({"stage": stage, "threads": threads, "problems": problems})
            raise Abort(f"{stage}: {problems[0]}")
        return wall

    def check_first(self, stage: str) -> list[str]:
        d, w = self.dir, self.w
        if stage == "simulate":
            events = wl.read_events(d / "sim" / "events.txt")
            self.polarity_sum = float(events["p"].sum())
            self.regime = wl.regime_stats(w, events, d / "sim" / "events.txt")
            return w.check_regime(self.regime)
        if stage == "eval":
            report = dict(line.split("=", 1) for line in (d / "report.txt").read_text().splitlines())
            self.quality["psnr_db"] = float(report["psnr_mean"])
            if w.name == "dense_pipeline" and not self.quality["psnr_db"] > DENSE_PSNR_FLOOR_DB:
                return [f"psnr_mean {self.quality['psnr_db']:.2f} dB is not above {DENSE_PSNR_FLOOR_DB}"]
            return []
        if stage in ("edi", "refine"):
            frames = wl.read_frames(d / ("edi" if stage == "edi" else "refined"))
            gt = wl.read_frames(d / "gt")
            if frames.shape != gt.shape:
                return [f"{stage} wrote {frames.shape} frames, GT is {gt.shape}"]
            if not np.all(np.isfinite(frames)):
                return [f"{stage} frames are not finite"]
            if stage == "refine" and (frames.min() < 0.0 or frames.max() > 1.0):
                return ["refine frames leave [0, 1]"]
            self.quality[f"{stage}_psnr_db"] = float(
                np.mean([self.metrics.psnr(f, g) for f, g in zip(frames, gt)])
            )
            return []
        if stage == "voxelize":
            hist = wl.read_histogram(d / "hist.h32")
            total, expected = float(hist.sum()), self.polarity_sum
            if hist.shape[0] != wl.BINS or total != expected:
                return [f"histogram {hist.shape} sums to {total}, polarities sum to {expected}"]
        return []

    def run_stage(self, stage: str, deadline: float | None = None, min_calls: int = 1) -> None:
        """One turn: call a stage, and again while its calls add up to less than MIN_STAGE_S."""
        self.reference.append(reference_kernel())
        calls = [self.call(stage)]
        while sum(calls) < MIN_STAGE_S or len(calls) < min_calls:
            if deadline is not None and time.perf_counter() > deadline:
                break
            calls.append(self.call(stage))
        self.samples[stage].extend(calls)

    def traced_pass(self, tracer: Tracer, index: int) -> dict:
        walls = {}
        for stage in STAGES:
            tracer.stage = (index, stage)
            walls[stage] = self.call(stage)
        tracer.stage = None
        return walls


def measure_import(repeats: int) -> list[float]:
    """Wall time of ``import ecir.cli`` in fresh interpreters (first run discarded)."""
    code = (
        "import time; t = time.perf_counter(); import ecir.cli; d = time.perf_counter() - t; "
        "import ecir; print(ecir.__file__); print(repr(d))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for i in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        where, seconds = done.stdout.split()[-2:]
        if not Path(where).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"imported ecir from {where}, not from {SRC}")
        if i:
            times.append(float(seconds))
    return times


def openblas_info() -> dict:
    names = [
        ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
        ("openblas_get_num_threads64_", "openblas_get_config64_"),
        ("openblas_get_num_threads", "openblas_get_config"),
    ]
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for threads_fn, config_fn in names:
            if hasattr(lib, threads_fn):
                getattr(lib, threads_fn).restype = ctypes.c_int
                getattr(lib, config_fn).restype = ctypes.c_char_p
                return {
                    "library": Path(lib_path).name,
                    "config": getattr(lib, config_fn)().decode(),
                    "threads": getattr(lib, threads_fn)(),
                }
    return {"library": None}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas_info(),
        "threads_flag": THREADS,
        "ECIR_THREADS": os.environ.get("ECIR_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def load_program():
    if not (SRC / "ecir" / "cli.py").is_file():
        raise FileNotFoundError(f"no program sources at {SRC / 'ecir'}")
    sys.path.insert(0, str(SRC))
    import ecir.cli
    import ecir.metrics

    if not Path(ecir.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported ecir from {ecir.cli.__file__}, not from {SRC}")
    return ecir.cli, ecir.metrics


def traced_metrics(pipe: Pipeline, tracer: Tracer, traced: list[dict], speedup: dict) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced passes) and the per-stage breakdown."""
    names = LAYER_METRICS
    per_stage = {s: [] for s in STAGES}
    totals = []
    for index, walls in enumerate(traced):
        pass_total = dict.fromkeys(names, 0.0)
        capacity = busy = 0.0
        for stage in STAGES:
            m = tracer.stage_metrics((index, stage), walls[stage])
            per_stage[stage].append(m)
            for name in names:
                if name != "parallel.busy_ratio":
                    pass_total[name] += m[name]
            capacity += tracer.threads.get((index, stage), 0.0)
            busy += m["parallel.busy_ratio"] * tracer.threads.get((index, stage), 0.0)
        pass_total["parallel.busy_ratio"] = busy / capacity if capacity else 0.0
        totals.append(pass_total)
    out = {name: statistics.median(t[name] for t in totals) for name in names}
    untraced = {s: statistics.median(pipe.samples[s]) for s in STAGES}
    for stage in STAGES:
        traced_median = statistics.median(w[stage] for w in traced)
        out[f"{stage}.coverage"] = statistics.median(m["coverage"] for m in per_stage[stage])
        out[f"{stage}.cli_self_s"] = statistics.median(m["cli.self_s"] for m in per_stage[stage])
        out[f"{stage}.trace_overhead_s"] = traced_median - untraced[stage]
    out["parallel.speedup"] = sum(speedup[s][1] for s in MAP_ROWS_STAGES) / sum(
        speedup[s][2] for s in MAP_ROWS_STAGES
    )
    breakdown = {
        stage: {
            "untraced_median_s": untraced[stage],
            "traced_s": [w[stage] for w in traced],
            "layers": {k: statistics.median(m[k] for m in per_stage[stage]) for k in per_stage[stage][0]},
        }
        for stage in STAGES
    }
    return out, breakdown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = wl.WORKLOADS[args.workload]
    try:
        cli, metrics_mod = load_program()
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    setup = measure_import(IMPORT_REPEATS)
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": {"name": workload.name, "why": workload.why, "seed": args.seed},
        "environment": environment(),
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_import_s": setup,
    }
    pipe = None
    try:
        wl.generate(workload, args.seed, workdir)
        pipe = Pipeline(workload, workdir, cli, metrics_mod)
        result = run(pipe, args, record)
    except Abort as exc:
        result = {}
        record["aborted"] = str(exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = pipe.attempted if pipe else 0
    failed = len(pipe.failures) if pipe else 1
    record["workload"]["regime"] = pipe.regime if pipe else {}
    record["outputs_sha256"] = pipe.first if pipe else {}
    record["failures"] = pipe.failures if pipe else []
    record["stage_samples_s"] = pipe.samples if pipe else {}
    record["reference_kernel_s"] = pipe.reference if pipe else []

    values = dict(result)
    values["setup_s"] = statistics.median(setup)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if pipe:
        values.update(pipe.quality)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    kinds = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(kinds) - set(values))
    if missing and not failed:
        failed = 1
        record["failures"].append({"stage": None, "problems": [f"metrics not measured: {missing}"]})
    record["error_rate"] = failed / max(attempted, 1)
    record["metrics"] = values
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RUNS / f"{name}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    for stage, info in record.get("layers", {}).get("stages", {}).items():
        layers = ", ".join(f"{k}={v:.4g}" for k, v in info["layers"].items() if v)
        print(f"[{stage}] untraced {info['untraced_median_s']:.4f} s: {layers}")
    for m in sorted(values):
        print(f"{m:32s} {values[m]:14.6f} {units.get(m, '')}")
    print(f"{'error_rate':32s} {record['error_rate']:14.6f} ratio")
    for failure in record["failures"]:
        print(f"FAILED {failure['stage']}: {'; '.join(failure['problems'])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in kinds.items() if m in values},
    }))
    return 0 if failed == 0 else 1


def run(pipe: Pipeline, args, record: dict) -> dict:
    """Measure one workload for ``args.seconds``; return every metric it measured."""
    start = time.perf_counter()
    deadline = start + args.seconds
    # untraced calls; a traced run gives them half the time and traces the rest
    untraced_end = start + (args.seconds / 2 if args.trace else args.seconds)
    # pass 0 makes every stage's first outputs, in chain order; eval runs twice
    # so its report's byte stability is always checked
    for stage in STAGES:
        pipe.run_stage(stage, min_calls=2 if stage == "eval" else 1)
    # then give turns to the stage with the fewest turns so far, cheapest first,
    # while its turn is expected to end in time: every stage's samples spread
    # over the whole run, and the stages cut by the deadline are the costly ones
    turns = dict.fromkeys(STAGES, 1)
    while True:
        left = untraced_end - time.perf_counter()
        cost = {s: max(statistics.median(pipe.samples[s]), MIN_STAGE_S) for s in STAGES}
        fitting = [s for s in STAGES if cost[s] <= left]
        if not fitting:
            break
        stage = min(fitting, key=lambda s: (turns[s], cost[s]))
        pipe.run_stage(stage, deadline=untraced_end)
        turns[stage] += 1
    record["turns"] = turns
    values = {f"{s}_s": statistics.median(pipe.samples[s]) for s in STAGES}
    values["pipeline_s"] = sum(values[f"{s}_s"] for s in STAGES)
    values["reference_kernel_s"] = statistics.median(pipe.reference)
    values["pipeline_ref_s"] = values["pipeline_s"] * REFERENCE_KERNEL_S / values["reference_kernel_s"]
    if not args.trace:
        return values

    tracer = Tracer()
    required = {n for names in TIME_METRICS.values() for n in names} | set(CALL_METRICS.values())
    tracer.install(sorted(required - {CHUNK}))
    traced = []
    try:
        while True:
            t0 = time.perf_counter()
            traced.append(pipe.traced_pass(tracer, len(traced)))
            if time.perf_counter() + (time.perf_counter() - t0) > deadline:
                break
    finally:
        not_restored = tracer.uninstall()
    if not_restored:
        pipe.failures.append({"stage": None, "problems": [f"not restored: {not_restored}"]})
    record["traced_passes"] = len(traced)
    speedup = {}
    for stage in MAP_ROWS_STAGES:
        one = pipe.call(stage, threads=1)
        two = values[f"{stage}_s"]
        speedup[stage] = (one / two, one, two)
    layer_values, breakdown = traced_metrics(pipe, tracer, traced, speedup)
    record["layers"] = {
        "wrapped": tracer.wrapped,
        "absent": tracer.absent,
        "hook_errors": tracer.hook_errors,
        "stages": breakdown,
        "speedup_threads1_over_threads2": {s: v[0] for s, v in speedup.items()},
        "self_time_s": tracer.self_times(),
    }
    spans_path = RUNS / f"{pipe.w.name}-seed{args.seed}-trace1-spans.json"
    spans_path.write_text(json.dumps({
        "fields": ["id", "name", "start", "end", "parent", "pass", "stage"],
        "spans": [[*s[:5], *s[5]] for s in tracer.spans],
    }))
    return {**values, **layer_values}


if __name__ == "__main__":
    sys.exit(main())
