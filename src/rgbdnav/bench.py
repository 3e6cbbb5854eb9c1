"""Wall-clock timing of the scene-to-instances pipeline.

Times :func:`fusion.run_scene` (the one-pass box-local reconstruction of
every detection, then cross-view fusion), single-threaded, once per
repeat. Scenes are loaded up front so file I/O stays out of the clock, and
there is no learned detector or segmenter in this artifact, so the figures
are a geometry-only lower bound for any full pipeline built on top.
"""
from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass

from .fusion import run_scene
from .scene_io import SceneView
from .types import PipelineConfig


@dataclass(frozen=True)
class BenchRow:
    secs_scene: float
    secs_view: float


def time_scene(views: list[SceneView], config: PipelineConfig, repeats: int = 1) -> list[BenchRow]:
    """Time reconstruct+fuse over all loaded views of a scene, one row per repeat."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    rows = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_scene(views, config)
        secs = time.perf_counter() - t0
        rows.append(BenchRow(secs, secs / len(views)))
    return rows


def hardware_summary() -> str:
    cpu = platform.processor() or platform.machine() or "unknown cpu"
    return f"{cpu}, {os.cpu_count()} logical cores, {platform.system()} {platform.release()}"


def format_bench_table(rows: list[BenchRow], n_views: int) -> str:
    lines = [
        f"# reconstruct+fuse timing over {n_views} view(s), single-threaded; file I/O and detector excluded",
        f"# hardware: {hardware_summary()}",
        f"{'run':>4} {'secs/scene':>12} {'secs/view':>12}",
    ]
    for i, r in enumerate(rows):
        lines.append(f"{i:>4d} {r.secs_scene:>12.4f} {r.secs_view:>12.5f}")
    if len(rows) > 1:
        n = len(rows)
        lines.append(
            f"{'mean':>4} {sum(r.secs_scene for r in rows) / n:>12.4f}"
            f" {sum(r.secs_view for r in rows) / n:>12.5f}"
        )
    return "\n".join(lines) + "\n"
