#!/usr/bin/env python3
"""Generate a 640x480 five-object scene and time it with `rgbdnav bench`."""
import argparse
import tempfile
from pathlib import Path

import numpy as np

from rgbdnav import cli, oracle
from rgbdnav.types import Box3D

FIVE_BOXES = [
    oracle.LabeledBox("box_a", Box3D(np.array([-0.9, -0.6, 0.0]), np.array([-0.4, -0.15, 0.4]))),
    oracle.LabeledBox("box_b", Box3D(np.array([0.3, -0.5, 0.0]), np.array([0.8, -0.05, 0.42]))),
    oracle.LabeledBox("box_c", Box3D(np.array([-0.25, 0.45, 0.0]), np.array([0.25, 0.95, 0.38]))),
    oracle.LabeledBox("box_d", Box3D(np.array([-0.15, -0.25, 0.0]), np.array([0.2, 0.1, 0.45]))),
    oracle.LabeledBox("box_e", Box3D(np.array([-1.0, 0.35, 0.0]), np.array([-0.55, 0.8, 0.35]))),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scene", help="existing scene dir (default: generate one)")
    parser.add_argument("--views", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    if args.scene:
        scene_dir = Path(args.scene)
    else:
        scene_dir = Path(tempfile.mkdtemp(prefix="bench_")) / "scene"
        print(f"generating {args.views}-view 640x480 scene in {scene_dir}")
        oracle.make_synthetic_scene(
            FIVE_BOXES,
            oracle.default_trajectory(args.views),
            oracle.default_intrinsics(640, 480, 580.0),
            scene_dir,
        )
        oracle.populate_detections(scene_dir)

    return cli.main(["bench", str(scene_dir), "--repeats", str(args.repeats)])


if __name__ == "__main__":
    raise SystemExit(main())
