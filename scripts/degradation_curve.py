#!/usr/bin/env python3
"""Sweep oracle detection drop probability and print the resulting mAP curve."""
import argparse
import tempfile
from pathlib import Path

from rgbdnav import evaluation, fusion, oracle, scene_io
from rgbdnav.types import EVAL_VOXEL_SIZE, GroundTruth, PipelineConfig


def run_once(scene_dir: Path, gt: list[GroundTruth], drop: float, seed: int) -> evaluation.EvalReport:
    oracle.populate_detections(scene_dir, oracle.PerturbationConfig(seed=seed, drop_prob=drop))
    instances, _ = fusion.run_scene(scene_io.iter_views(scene_dir), PipelineConfig())
    pred = [evaluation.KeyedPrediction.of(c, EVAL_VOXEL_SIZE) for c in instances]
    return evaluation.evaluate([(pred, gt)], EVAL_VOXEL_SIZE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scene", help="existing synthetic scene dir (default: generate a fresh one)")
    parser.add_argument("--views", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--drops", type=float, nargs="+", default=[0.0, 0.25, 0.5, 0.75, 0.9])
    args = parser.parse_args()

    if args.scene:
        scene_dir = Path(args.scene)
    else:
        scene_dir = Path(tempfile.mkdtemp(prefix="degradation_")) / "scene"
        print(f"generating fixture scene in {scene_dir}")
        oracle.make_synthetic_scene(
            oracle.default_box_layout(),
            oracle.default_trajectory(args.views),
            oracle.default_intrinsics(),
            scene_dir,
        )

    gt = scene_io.load_gt_instances(scene_dir, EVAL_VOXEL_SIZE)  # detections change with the drop rate; GT does not
    print(f"{'drop_prob':>10} {'mAP':>8} {'mAP50':>8} {'mAP25':>8}")
    for drop in args.drops:
        report = run_once(scene_dir, gt, drop, args.seed)
        print(f"{drop:>10.2f} {100 * report.map:>8.1f} {100 * report.map50:>8.1f} {100 * report.map25:>8.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
