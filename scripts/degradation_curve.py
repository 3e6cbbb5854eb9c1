#!/usr/bin/env python3
"""Sweep oracle detection drop probability and print the resulting mAP curve.

The default scene is synthesized once per drop rate, into the same directory;
its ground truth is loaded once, since detection noise leaves it unchanged.
"""
import argparse
import tempfile
from pathlib import Path

from rgbdnav import evaluation, fusion, oracle, scene_io
from rgbdnav.types import PipelineConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--views", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--drops", type=float, nargs="+", default=[0.0, 0.25, 0.5, 0.75, 0.9])
    args = parser.parse_args()

    scene_dir = Path(tempfile.mkdtemp(prefix="degradation_")) / "scene"
    print(f"synthesizing fixture scene in {scene_dir}")
    gt = None
    print(f"{'drop_prob':>10} {'mAP':>8} {'mAP50':>8} {'mAP25':>8}")
    for drop in args.drops:
        oracle.make_synthetic_scene(
            oracle.default_box_layout(),
            oracle.default_trajectory(args.views),
            oracle.default_intrinsics(),
            scene_dir,
            oracle.PerturbationConfig(seed=args.seed, drop_prob=drop),
        )
        if gt is None:
            gt = scene_io.load_gt_instances(scene_dir)
        instances, _ = fusion.run_scene(scene_io.iter_views(scene_dir), PipelineConfig())
        pred = [evaluation.KeyedPrediction.of(c) for c in instances]
        report = evaluation.evaluate([(pred, gt)])
        print(f"{drop:>10.2f} {100 * report.map:>8.1f} {100 * report.map50:>8.1f} {100 * report.map25:>8.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
