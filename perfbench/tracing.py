"""Per-layer tracing from outside the program.

``Tracer.install`` wraps every public function of the ``ecir`` layer modules
and rebinds the wrapper wherever an ``ecir`` module namespace holds the
original object, so calls made through ``from .x import f`` bindings, module
attributes and the package namespace are all seen. ``Tracer.uninstall``
restores every binding and checks that each holds the original again.

Spans (id, name, start, end, parent, stage) are kept in memory. Span stacks
are thread-local because ``map_rows`` runs chunks on worker threads; a
chunk's span names its ``map_rows`` span as parent explicitly.
"""

from __future__ import annotations

import inspect
import itertools
import os
import sys
import threading
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter as _clock

import numpy as np

# layer name -> module; cli is the stage itself and types holds no work
LAYERS = {
    "io": "ecir.io",
    "keypoints": "ecir.keypoints",
    "simulation": "ecir.simulation",
    "fitting": "ecir.fitting",
    "representation": "ecir.representation",
    "refinement": "ecir.refinement",
    "metrics": "ecir.metrics",
    "parallel": "ecir._parallel",
}

CHUNK = "parallel.chunk"

# metric -> functions whose outermost spans are summed
TIME_METRICS = {
    "io.read_events_s": ["io.read_events"],
    "io.load_manifest_s": ["io.load_manifest"],
    "io.write_events_s": ["io.write_events"],
    "io.read_frames_s": ["io.read_frame", "io.read_video_dir", "io.read_f32", "io.read_pgm"],
    "io.write_frames_s": ["io.write_video_dir", "io.write_frame", "io.write_f32", "io.write_pgm"],
    "io.polys_s": ["io.save_polys", "io.load_polys"],
    "keypoints.grid_s": ["keypoints.keypoint_grid"],
    "keypoints.select_s": ["keypoints.select_keypoints"],
    "simulation.simulate_events_s": ["simulation.simulate_events"],
    "simulation.synthesize_blur_s": ["simulation.synthesize_blur"],
    "simulation.signed_count_s": ["simulation.signed_count_between"],
    "simulation.voxelize_s": ["simulation.voxelize"],
    "fitting.fit_polys_s": ["fitting.fit_polys"],
    "fitting.edi_video_s": ["fitting.edi_video", "fitting.edi_reconstruct"],
    "representation.horner_s": ["representation.horner"],
    "refinement.surrogate_s": ["refinement.surrogate_residuals"],
    "refinement.tridiag_s": ["refinement.tridiagonal_solve"],
    "refinement.descend_s": ["refinement.descend"],
    "metrics.ssim_s": ["metrics.ssim"],
    "metrics.mse_psnr_s": ["metrics.mse", "metrics.psnr"],
    "parallel.map_rows_s": ["parallel.map_rows"],
}

# metric -> function whose spans are counted
CALL_METRICS = {
    "io.read_events_calls": "io.read_events",
    "keypoints.select_calls": "keypoints.select_keypoints",
    "simulation.signed_count_calls": "simulation.signed_count_between",
    "representation.horner_calls": "representation.horner",
    "refinement.gd_iterations": "refinement.gradient",
    "metrics.ssim_calls": "metrics.ssim",
    "parallel.chunks": CHUNK,
}

# counters summed by the hooks below
COUNTER_METRICS = [
    "io.events_parsed",
    "io.bytes_read",
    "io.bytes_written",
    "keypoints.pixels_with_events",
    "simulation.events_emitted",
    "simulation.events_scanned",
    "fitting.fit_warning",
    "representation.horner_madds",
]

# metric -> (numerator counter, denominator counter)
RATIO_METRICS = {
    "keypoints.snapped_ratio": ("keypoints.snapped", "keypoints.snap_slots"),
    "refinement.objective_ratio": ("refinement.objective_after", "refinement.objective_before"),
}

LAYER_METRICS = [*TIME_METRICS, *CALL_METRICS, *COUNTER_METRICS, *RATIO_METRICS,
                 "parallel.busy_ratio", "cli.self_s"]

def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError):
        return 0


def _after_read_events(add, a, result):
    add("io.events_parsed", len(result))
    add("io.bytes_read", _size(a["path"]))


def _after_write_events(add, a, result):
    add("io.bytes_written", _size(a["path"]))


def _after_read_file(add, a, result):
    add("io.bytes_read", _size(a["path"]))


def _after_write_file(add, a, result):
    add("io.bytes_written", _size(a["path"]))


def _after_save_polys(add, a, result):
    path = str(a["path"])
    add("io.bytes_written", _size(path if path.endswith(".npz") else path + ".npz"))


def _after_read_video_dir(add, a, result):
    add("io.bytes_read", _size(Path(a["path"]) / "timestamps.txt"))


def _after_write_video_dir(add, a, result):
    add("io.bytes_written", _size(Path(a["path"]) / "timestamps.txt"))


def _after_keypoint_grid(add, a, grid):
    events = a["events"]
    if len(events) == 0:
        return
    w = grid.shape[1]
    ids = events.y.astype(np.int64) * w + events.x
    touched = np.unique(ids)
    n = grid.shape[2]
    kp = grid.reshape(-1, n)[touched]
    # a keypoint is snapped when it equals one of its own pixel's event times
    snapped = np.isin(
        (np.repeat(touched, n) + 1j * kp.ravel()), ids + 1j * events.t
    )
    add("keypoints.pixels_with_events", touched.shape[0])
    add("keypoints.snapped", int(np.count_nonzero(snapped)))
    add("keypoints.snap_slots", n * touched.shape[0])


def _after_simulate_events(add, a, result):
    add("simulation.events_emitted", len(result))


def _after_signed_count(add, a, result):
    t = a["events"].t
    lo = np.searchsorted(t, a["t_a"], side="right")
    hi = np.searchsorted(t, a["t_b"], side="right")
    add("simulation.events_scanned", int(max(hi - lo, 0)))


def _after_fit_polys(add, a, grid):
    add("fitting.fit_warning", int(bool(grid.fit_warning)))


def _after_horner(add, a, result):
    coeffs = np.asarray(a["coeffs"])
    add("representation.horner_madds", coeffs.shape[-1] * int(np.asarray(result).size))


def _objective_hook(objective):
    def after(add, a, frames):
        problem = a["problem"]
        add("refinement.objective_before", objective(problem, problem.initial))
        add("refinement.objective_after", objective(problem, frames))

    return after


class Tracer:
    """Spans and counters for one traced run; install wraps, uninstall restores."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict = defaultdict(float)
        self.threads: dict = defaultdict(float)  # stage -> sum of map_rows wall x threads
        self.hook_s: dict = defaultdict(float)  # stage -> hook time outside every span
        self.hook_errors: list[str] = []
        self.stage = None
        self.wrapped: dict[str, list[str]] = {}
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._bindings: list[tuple] = []  # (module, attribute, original)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value) -> None:
        with self._lock:
            self.counters[(self.stage, name)] += float(value)

    def _span(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.stage))

    def _run_hook(self, hook, signature, args, kwargs, result) -> None:
        start = _clock()
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(self.add, bound.arguments, result)
        except Exception:  # a hook must never change the program's outcome
            self.hook_errors.append(traceback.format_exc(limit=2))
        if not self._stack():  # inside a span the hook's time is already covered
            with self._lock:
                self.hook_s[self.stage] += _clock() - start

    def wrap(self, name: str, fn, hook=None):
        signature = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            result = tracer._span(name, fn, args, kwargs)
            if hook is not None:
                tracer._run_hook(hook, signature, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_map_rows(self, fn):
        """Like ``wrap``, and also spans each chunk, on whichever thread runs it."""
        signature = inspect.signature(fn)
        work_param = next(iter(signature.parameters))
        tracer = self

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            work = bound.arguments[work_param]
            parent_box = []

            def chunk(rows):
                return tracer._span(CHUNK, work, (rows,), {}, parent=parent_box[0])

            def run():
                parent_box.append(tracer._stack()[-1])
                bound.arguments[work_param] = chunk
                return fn(*bound.args, **bound.kwargs)

            start = _clock()
            result = tracer._span("parallel.map_rows", run, (), {})
            with tracer._lock:
                tracer.threads[tracer.stage] += (_clock() - start) * max(
                    1, int(bound.arguments.get("threads", 1))
                )
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self, required: list[str]) -> None:
        """Wrap every public function of each layer module.

        ``required`` names functions the metrics use; those not found are
        listed in ``absent`` and their metrics read zero.
        """
        import ecir  # noqa: F401  (loads every layer module)

        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "ecir" or n.startswith("ecir.")]
        hooks = self._hooks()
        replacements = {}
        for layer, module_name in LAYERS.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module_name or id(obj) in replacements:
                    continue
                name = f"{layer}.{attr}"
                if name == "parallel.map_rows":
                    traced = self.wrap_map_rows(obj)
                else:
                    traced = self.wrap(name, obj, hooks.get(name))
                replacements[id(obj)] = (name, obj, traced)
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                entry = replacements.get(id(obj))
                if entry is None or entry[1] is not obj:
                    continue
                name, original, traced = entry
                setattr(module, attr, traced)
                self._bindings.append((module, attr, original))
                self.wrapped.setdefault(name, []).append(f"{module.__name__}.{attr}")
        found = {entry[0] for entry in replacements.values()}
        self.absent = sorted(set(required) - found)

    def uninstall(self) -> list[str]:
        """Restore every binding; return those that do not hold the original."""
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        return [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._bindings
            if getattr(module, attr, None) is not original
        ]

    def _hooks(self) -> dict:
        from ecir import refinement

        objective_after = _objective_hook(refinement.objective)
        return {
            "io.read_events": _after_read_events,
            "io.write_events": _after_write_events,
            "io.read_f32": _after_read_file,
            "io.read_pgm": _after_read_file,
            "io.load_polys": _after_read_file,
            "io.load_manifest": _after_read_file,
            "io.read_histogram": _after_read_file,
            "io.read_video_dir": _after_read_video_dir,
            "io.write_f32": _after_write_file,
            "io.write_pgm": _after_write_file,
            "io.write_histogram": _after_write_file,
            "io.save_polys": _after_save_polys,
            "io.write_video_dir": _after_write_video_dir,
            "keypoints.keypoint_grid": _after_keypoint_grid,
            "simulation.simulate_events": _after_simulate_events,
            "simulation.signed_count_between": _after_signed_count,
            "fitting.fit_polys": _after_fit_polys,
            "representation.horner": _after_horner,
            "refinement.descend": objective_after,
            "refinement.tridiagonal_solve": objective_after,
        }

    # -- reduction -----------------------------------------------------------

    def stage_metrics(self, stage, wall: float) -> dict:
        """Per-layer metrics of one traced stage call with wall time ``wall``."""
        spans = [s for s in self.spans if s[5] == stage]
        wall -= self.hook_s.get(stage, 0.0)
        by_id = {s[0]: s for s in spans}

        def outermost(names):
            total = 0.0
            for sid, name, start, end, parent, _ in spans:
                if name not in names:
                    continue
                p = parent
                while p is not None and p in by_id and by_id[p][1] not in names:
                    p = by_id[p][4]
                if p is None or p not in by_id:
                    total += end - start
            return total

        out = {m: outermost(set(names)) for m, names in TIME_METRICS.items()}
        for m, name in CALL_METRICS.items():
            out[m] = float(sum(1 for s in spans if s[1] == name))
        for m in COUNTER_METRICS:
            out[m] = self.counters.get((stage, m), 0.0)
        for m, (num, den) in RATIO_METRICS.items():
            d = self.counters.get((stage, den), 0.0)
            out[m] = self.counters.get((stage, num), 0.0) / d if d else 0.0
        busy = sum(s[3] - s[2] for s in spans if s[1] == CHUNK)
        capacity = self.threads.get(stage, 0.0)
        out["parallel.busy_ratio"] = busy / capacity if capacity else 0.0
        covered = union_length([(s[2], s[3]) for s in spans])
        out["cli.self_s"] = max(wall - covered, 0.0)
        out["coverage"] = covered / wall if wall else 0.0
        return out

    def self_times(self) -> dict:
        """Per-function self time: span duration minus the union of its children."""
        children = defaultdict(list)
        for s in self.spans:
            if s[4] is not None:
                children[s[4]].append((s[2], s[3]))
        totals = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            inner = [(max(a, start), min(b, end)) for a, b in children.get(sid, [])]
            totals[name] += (end - start) - union_length(inner)
        return dict(sorted(totals.items()))


def union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        elif b > cur_end:
            cur_end = b
    if cur_end is not None:
        total += cur_end - cur_start
    return total
