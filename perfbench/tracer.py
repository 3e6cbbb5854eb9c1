"""Span tracing for the benchmark's traced runs.

The tracer wraps every public function of the rgbdnav layer modules at the
place its callers look it up: the module globals of every rgbdnav module
that names it. ``src/`` is never edited; patching is undone after each
traced op. Each call records one span (function, parent span, start, end)
in flat in-memory arrays, which :meth:`Tracer.save` writes out at exit.

Observers count work at the same boundaries (pixels scanned, points kept,
merges, ...). They run after the call's span has closed, inside a span of
their own named ``trace.observe``, so their cost is reported as the
``trace`` layer instead of inflating the caller's self time.

A span's self time is its duration minus the durations of its direct child
spans. Per op, the self times of all spans plus the time no span covers sum
exactly to the op's wall time.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "rgbdnav"
LAYERS = ("oracle", "scene_io", "masks", "projection", "fusion", "evaluation", "navsim", "cli")
OBSERVE = "trace.observe"

# Functions whose self time (`<name>_s`) is a per-layer metric.
SELF_TIMED = (
    "oracle.render_depth",
    "oracle.render_gt_detections",
    "oracle.make_synthetic_scene",
    "oracle.populate_detections",
    "scene_io.load_scene",
    "scene_io.read_pgm",
    "scene_io.load_gt_instances",
    "scene_io.write_gt_instances",
    "scene_io.write_instances",
    "scene_io.write_cloud_ply",
    "scene_io.load_instances",
    "scene_io.read_cloud_ply",
    "masks.erode_mask",
    "masks.isolate_depth",
    "masks.zscore_filter",
    "projection.reconstruct_object",
    "projection.back_project",
    "projection.to_world",
    "fusion.merge_instances",
    "fusion.voxel_downsample",
    "evaluation.evaluate_scene",
    "evaluation.instance_iou",
    "navsim.rangefinder_scan",
    "navsim.apf_step",
    "navsim.clearance",
    "navsim.odometry_update",
    "navsim.save_trajectory",
)
# Functions whose call count (`<name>_calls`) is a per-layer metric.
COUNTED = (
    "scene_io.load_scene",
    "projection.reconstruct_object",
    "fusion.iou_3d",
    "evaluation.instance_iou",
)
# Work counters filled by the observers below, with their unit and direction.
COUNTERS = {
    "oracle.gt_points": ("count", "lower"),
    "scene_io.bytes_written": ("bytes", "lower"),
    "masks.mask_pixels": ("count", "lower"),
    "masks.pixels_scanned": ("count", "lower"),
    "masks.zscore_rejected": ("count", "lower"),
    "projection.dropped": ("count", "lower"),
    "projection.points_out": ("count", "lower"),
    "fusion.merges": ("count", "lower"),
    "fusion.instances_in": ("count", "lower"),
    "fusion.instances_out": ("count", "lower"),
    "fusion.points_in": ("count", "lower"),
    "fusion.points_out": ("count", "lower"),
    "evaluation.predictions": ("count", "lower"),
    "evaluation.gt_voxelizations": ("count", "lower"),
    "navsim.steps": ("count", "lower"),
    "navsim.episodes": ("count", "lower"),
    "trace.observer_errors": ("count", "lower"),
}
# Ratios: name -> (numerator counter, denominator counter, direction).
RATIOS = {
    "masks.footprint_ratio": ("masks.mask_pixels", "masks.pixels_scanned", "higher"),
    "fusion.dedup_ratio": ("fusion.points_out", "fusion.points_in", "higher"),
    "evaluation.gt_voxelizations_per_gt": ("evaluation.gt_voxelizations", "_gt_evaluated", "lower"),
    "evaluation.map": ("_map", "_evaluations", "higher"),
    "evaluation.map50": ("_map50", "_evaluations", "higher"),
    "evaluation.map25": ("_map25", "_evaluations", "higher"),
    "navsim.reached_ratio": ("_reached", "navsim.episodes", "higher"),
}
SUMMARY = {
    "trace.op_s": ("s", "lower"),
    "trace.untraced_op_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.self_s": ("s", "lower"),
    "trace.uncovered_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.absent_functions": ("count", "lower"),
}

# Which end-to-end metric each layer's numbers should move, and on which workload.
SHOULD_MOVE = {
    "oracle": "op_s on synth_detect_eval; setup_s on synth_detect_eval and detect_eval",
    "scene_io": "op_s on synth_detect_eval and detect_eval",
    "masks": "op_s on detect_eval",
    "projection": "op_s and items_per_s (views) on detect_eval",
    "fusion": "op_s on detect_eval",
    "evaluation": "op_s on detect_eval",
    "navsim": "items_per_s (steps) on navsim only",
    "cli": "op_s on every workload",
}
NO_WAIT_NOTE = (
    "every layer runs single-threaded in one process and nothing queues, "
    "so no layer has a waiting time; none is reported"
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run emits, in output order."""
    spec = [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    spec += [(f"{name}_s", "s", "lower") for name in SELF_TIMED]
    spec += [(f"{name}_calls", "count", "lower") for name in COUNTED]
    spec += [(name, unit, better) for name, (unit, better) in COUNTERS.items()]
    spec += [(name, "ratio", better) for name, (_, _, better) in RATIOS.items()]
    spec += [(name, unit, better) for name, (unit, better) in SUMMARY.items()]
    return spec


# ---------------------------------------------------------------------------
# Observers: (tracer, bound arguments, result) -> None
# ---------------------------------------------------------------------------

def _obs_erode_mask(t, a, result):
    bitmap = a["mask"].bitmap
    t.count("masks.mask_pixels", int(np.count_nonzero(bitmap)))
    t.count("masks.pixels_scanned", int(bitmap.size))


def _obs_zscore_filter(t, a, result):
    t.count("masks.zscore_rejected", len(a["depths"]) - len(result))


def _obs_reconstruct_object(t, a, result):
    if result is None:
        t.count("projection.dropped", 1)
    else:
        t.count("projection.points_out", int(result[0].points.shape[0]))


def _obs_voxel_downsample(t, a, result):
    t.count("fusion.merges", 1)
    t.count("fusion.points_in", int(np.asarray(a["points"]).reshape(-1, 3).shape[0]))
    t.count("fusion.points_out", int(result.shape[0]))


def _obs_merge_instances(t, a, result):
    t.count("fusion.instances_in", sum(len(v) for v in a["views"]))
    t.count("fusion.instances_out", len(result))


def _obs_load_gt_instances(t, a, result):
    t.gt_arrays = [g.points for g in result]


def _obs_instance_iou(t, a, result):
    if any(a["gt"].points is p for p in t.gt_arrays):
        t.count("evaluation.gt_voxelizations", 1)


def _obs_evaluate_scene(t, a, result):
    t.count("evaluation.predictions", len(a["pred"]))
    t.count("_gt_evaluated", len(a["gt"]))
    t.count("_evaluations", 1)
    t.count("_map", result.map)
    t.count("_map50", result.map50)
    t.count("_map25", result.map25)


def _obs_write_gt_instances(t, a, result):
    t.count("oracle.gt_points", sum(int(g.points.shape[0]) for g in a["instances"]))


def _obs_run_navigation(t, a, result):
    t.count("navsim.steps", len(result.times) - 1)
    t.count("navsim.episodes", 1)
    t.count("_reached", int(result.outcome == "reached"))


OBSERVERS = {
    "masks.erode_mask": _obs_erode_mask,
    "masks.zscore_filter": _obs_zscore_filter,
    "projection.reconstruct_object": _obs_reconstruct_object,
    "fusion.voxel_downsample": _obs_voxel_downsample,
    "fusion.merge_instances": _obs_merge_instances,
    "scene_io.load_gt_instances": _obs_load_gt_instances,
    "evaluation.instance_iou": _obs_instance_iou,
    "evaluation.evaluate_scene": _obs_evaluate_scene,
    "scene_io.write_gt_instances": _obs_write_gt_instances,
    "navsim.run_navigation": _obs_run_navigation,
}


def _written_bytes(t, name, a):
    """Bytes on disk under the path arguments of an outermost scene_io writer."""
    if not name.startswith("scene_io.write_"):
        return
    if any(t.names[t.fn[i]].startswith("scene_io.write_") for i in t.stack[1:]):
        return  # an enclosing writer counts the whole tree
    total = 0
    for value in a.values():
        if isinstance(value, (str, Path)):
            p = Path(value)
            if p.is_file():
                total += p.stat().st_size
            elif p.is_dir():
                total += sum(f.stat().st_size for f in p.rglob("*") if f.is_file())
    t.count("scene_io.bytes_written", total)


def _voxelizes_gt(t, name, a):
    """A voxel primitive called directly on a ground-truth point array."""
    layer, _, func = name.partition(".")
    if layer in ("evaluation", "fusion") and "voxel" in func and t.gt_arrays:
        first = next(iter(a.values()), None)
        if any(first is p for p in t.gt_arrays):
            t.count("evaluation.gt_voxelizations", 1)


class Tracer:
    """Records spans of the rgbdnav layer functions while installed."""

    def __init__(self):
        self.names: list[str] = [OBSERVE]
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.gt_arrays: list = []
        self.ops: list[tuple[int, int, int, int]] = []  # first span, end span, t0, t1
        self._patches: list[tuple[object, str, object]] = []
        self.targets = self._find_targets()
        self.wrappers = {fn: self._wrap(fn, name) for fn, name in self.targets.items()}

    def _find_targets(self) -> dict:
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    targets[obj] = f"{layer}.{attr}"
        return targets

    def absent(self) -> list[str]:
        """Expected functions the package no longer defines."""
        present = set(self.targets.values())
        expected = set(SELF_TIMED) | set(COUNTED) | set(OBSERVERS)
        return sorted(expected - present)

    def count(self, key: str, n: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.partition(".")[0] != PACKAGE:
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self.wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, self.wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        observer = OBSERVERS.get(name)
        layer, _, func = name.partition(".")
        needs_args = (
            observer is not None
            or func.startswith("write_") and layer == "scene_io"
            or "voxel" in func and layer in ("evaluation", "fusion")
        )
        signature = inspect.signature(fn)
        fns, parents, starts, ends, stack = self.fn, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns

        def observe(args, kwargs, result):
            idx = len(fns)
            fns.append(0)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0)
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                if observer is not None:
                    observer(self, a, result)
                _written_bytes(self, name, a)
                _voxelizes_gt(self, name, a)
            except (TypeError, AttributeError, KeyError, ValueError, OSError):
                self.count("trace.observer_errors", 1)
            ends[idx] = clock()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if needs_args:
                observe(args, kwargs, result)
            return result

        return traced

    # -- ops ------------------------------------------------------------------

    def begin_op(self) -> tuple[int, int]:
        self.install()
        return len(self.fn), time.perf_counter_ns()

    def end_op(self, token: tuple[int, int]) -> None:
        t1 = time.perf_counter_ns()
        self.uninstall()
        first, t0 = token
        self.ops.append((first, len(self.fn), t0, t1))

    # -- results --------------------------------------------------------------

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the span arrays (a live view would block further appends)."""
        return (
            np.frombuffer(self.fn, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.int64).copy(),
            np.frombuffer(self.end, dtype=np.int64).copy(),
        )

    def _self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        _, parent, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - child, dur, parent

    def summary(self, untraced_op_s: list[float]) -> dict[str, float]:
        """Per-layer metrics as totals per traced op (means over traced ops)."""
        n_ops = len(self.ops)
        fn = self._arrays()[0]
        self_ns, dur, parent = self._self_times()
        names = self.names
        by_fn_self = np.bincount(fn, weights=self_ns, minlength=len(names)) / 1e9 / n_ops
        by_fn_calls = np.bincount(fn, minlength=len(names)) / n_ops
        self_of = dict(zip(names, by_fn_self))
        calls_of = dict(zip(names, by_fn_calls))

        op_ns = sum(t1 - t0 for _, _, t0, t1 in self.ops)
        top = parent < 0
        uncovered_s = (op_ns - float(dur[top].sum())) / 1e9 / n_ops
        traced_op_s = op_ns / 1e9 / n_ops

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_of.items() if k.startswith(layer + "."))
        for name in SELF_TIMED:
            out[f"{name}_s"] = self_of.get(name, 0.0)
        for name in COUNTED:
            out[f"{name}_calls"] = calls_of.get(name, 0.0)
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0) / n_ops
        for name, (num, den, _) in RATIOS.items():
            d = self.counters.get(den, 0)
            out[name] = self.counters.get(num, 0) / d if d else 0.0
        untraced = float(np.mean(untraced_op_s)) if untraced_op_s else float("nan")
        out.update({
            "trace.op_s": traced_op_s,
            "trace.untraced_op_s": untraced,
            "trace.overhead_s": traced_op_s - untraced,
            "trace.self_s": self_of.get(OBSERVE, 0.0),
            "trace.uncovered_s": uncovered_s,
            "trace.spans": len(fn) / n_ops,
            "trace.absent_functions": float(len(self.absent())),
        })
        return out

    def save(self, path: Path, meta: dict) -> None:
        """Write every recorded span plus the name table and run metadata."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fn, parent, start, end = self._arrays()
        np.savez(
            path,
            fn=fn,
            parent=parent,
            start_ns=start,
            end_ns=end,
            ops=np.array(self.ops, dtype=np.int64).reshape(-1, 4),
            names=np.array(self.names),
            meta=np.array(json.dumps(meta)),
        )
