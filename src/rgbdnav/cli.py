"""Command-line entry point.

Subcommands:
  detect  run the geometry pipeline on a scene, write clouds + boxes
  eval    score predicted instances against ground truth (mAP/mAP50/mAP25)
  bench   time reconstruct+fuse of a scene, single-threaded, file I/O excluded
  synth   generate a synthetic scene with oracle detections
  navsim  run the potential-field navigation simulator

Any flag can also come from a '--config FILE' line 'key = value', the value as
typed after the flag ('start = 1 2 3'); flags given on the command line win.
The perturbation.txt that synth writes is a valid synth --config.
"""
from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import bench, evaluation, fusion, navsim, oracle, scene_io
from .types import Box3D, PipelineConfig, check_voxel_size

logger = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rgbdnav", description=__doc__.split("\n\n")[0])
    parser.add_argument("--verbose", action="store_true", help="log per-stage details")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="reconstruct per-object clouds and 3D boxes from a scene")
    p.add_argument("scene_dir")
    p.add_argument("out_dir")
    p.add_argument("--config", help="key = value file supplying flag defaults")
    p.add_argument("--tau", type=float, default=2.0, help="z-score threshold (default 2.0)")
    p.add_argument("--voxel-size", type=float, default=0.02, help="dedup voxel size in meters")
    p.add_argument("--merge-threshold", type=float, default=0.8, help="same-class box IoU for merging")
    p.add_argument("--kernel-size", type=int, default=3, help="erosion structuring element side")

    p = sub.add_parser("eval", help="evaluate predicted instances against ground truth")
    p.add_argument("dirs", nargs="+", metavar="PRED_DIR GT_DIR",
                   help="one or more PRED_DIR GT_DIR pairs; multiple pairs are macro-averaged")
    p.add_argument("--config", help="key = value file supplying flag defaults")
    p.add_argument("--voxel-size", type=float, default=0.02)
    p.add_argument("--out", help="report path (default: first PRED_DIR/eval_report.txt)")

    p = sub.add_parser("bench", help="time reconstruct+fuse of a loaded scene")
    p.add_argument("scene_dir")
    p.add_argument("--config", help="key = value file supplying flag defaults")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--tau", type=float, default=2.0)

    p = sub.add_parser("synth", help="write a synthetic scene with oracle detections")
    p.add_argument("out_dir")
    p.add_argument("--config", help="key = value file supplying flag defaults")
    p.add_argument("--views", type=int, default=20)
    p.add_argument("--width", type=int, default=416)
    p.add_argument("--height", type=int, default=312)
    p.add_argument("--focal", type=float, default=420.0)
    p.add_argument("--boxes", help="file of 'label xmin ymin zmin xmax ymax zmax' lines")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--drop-prob", type=float, default=0.0)
    p.add_argument("--box-jitter-px", type=int, default=0)
    p.add_argument("--mask-erode-px", type=int, default=0)
    p.add_argument("--score-sigma", type=float, default=0.0)

    p = sub.add_parser("navsim", help="run the navigation simulator and export the trajectory")
    p.add_argument("out_traj", help="output CSV trajectory path")
    p.add_argument("--config", help="key = value file supplying flag defaults")
    p.add_argument("--world", help="world file (see navsim.save_world)")
    p.add_argument("--scenario", choices=sorted(navsim.SCENARIOS), help="built-in fixture world")
    p.add_argument("--start", type=float, nargs=3, metavar=("X", "Y", "THETA"),
                   default=(0.0, 0.0, 0.0), help="start pose when --world is used")
    p.add_argument("--max-steps", type=int, default=4000)
    p.add_argument("--robot-radius", type=float, default=0.4)
    return parser


def _parse_with_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    # Each config line becomes the flag a user would type, placed right after
    # the subcommand: flags given later win, and argparse validates the values.
    pre, _ = parser.parse_known_args(argv)
    if pre.config:
        sub = parser._subparsers._group_actions[0].choices[pre.command]  # type: ignore[union-attr]
        try:
            values = scene_io.read_key_values(pre.config)
        except scene_io.SceneError as e:
            sub.error(f"--config: {e}")
        tokens = []
        for action in sub._actions:
            if action.dest in values and action.option_strings and action.nargs != 0:
                flag, value = action.option_strings[0], values[action.dest]
                tokens += [flag, *value.split()] if action.nargs else [f"{flag}={value}"]
        at = argv.index(pre.command) + 1
        argv = argv[:at] + tokens + argv[at:]
    return parser.parse_args(argv)


def cmd_detect(args) -> int:
    try:
        config = PipelineConfig(
            tau=args.tau,
            kernel_size=args.kernel_size,
            merge_threshold=args.merge_threshold,
            voxel_size=args.voxel_size,
        )
    except ValueError as e:
        print(f"rgbdnav detect: invalid flag: {e}", file=sys.stderr)
        return 2
    try:
        instances, stats = fusion.run_scene(scene_io.iter_views(args.scene_dir), config)
    except (scene_io.SceneError, ValueError) as e:
        print(f"rgbdnav detect: {e}", file=sys.stderr)
        return 1
    out_dir = Path(args.out_dir)
    scene_io.write_instances(instances, out_dir)
    print(f"views:          {stats.views}")
    print(f"detections in:  {stats.detections}")
    print(f"dropped:        {stats.dropped}")
    print(f"instances out:  {len(instances)}")
    print(f"wrote {out_dir / 'boxes.json'} and {len(instances)} cloud file(s)")
    return 0


def cmd_eval(args) -> int:
    if len(args.dirs) % 2:
        print("rgbdnav eval: directories must come in PRED_DIR GT_DIR pairs", file=sys.stderr)
        return 2
    try:
        check_voxel_size(args.voxel_size)
    except ValueError as e:
        print(f"rgbdnav eval: invalid flag: {e}", file=sys.stderr)
        return 2
    pairs = [(args.dirs[i], args.dirs[i + 1]) for i in range(0, len(args.dirs), 2)]
    reports = []
    for pred_dir, gt_dir in pairs:
        try:
            pred = scene_io.load_instances(pred_dir)
            gt = scene_io.load_gt_instances(Path(gt_dir))
        except (scene_io.SceneError, ValueError) as e:
            print(f"rgbdnav eval: {e}", file=sys.stderr)
            return 1
        vocabulary = {g.label for g in gt}
        unknown = sorted({c.label for c in pred} - vocabulary)
        if unknown:
            print(
                f"rgbdnav eval: predictions in {pred_dir} use labels outside the "
                f"ground-truth vocabulary: {', '.join(unknown)}",
                file=sys.stderr,
            )
            return 1
        if not gt:
            print(f"rgbdnav eval: {gt_dir} holds no ground-truth instances", file=sys.stderr)
            return 1
        try:
            reports.append(evaluation.evaluate_scene(pred, gt, args.voxel_size))
        except ValueError as e:  # a voxel grid too fine for the scene's extent
            print(f"rgbdnav eval: {e}", file=sys.stderr)
            return 1
    report = evaluation.macro_average(reports)
    text = evaluation.format_report(report, args.voxel_size)
    print(text, end="")
    out = Path(args.out) if args.out else Path(pairs[0][0]) / "eval_report.txt"
    out.write_text(text)
    print(f"report written to {out}")
    return 0


def cmd_bench(args) -> int:
    if args.repeats < 1:
        print("rgbdnav bench: --repeats must be >= 1", file=sys.stderr)
        return 2
    try:
        config = PipelineConfig(tau=args.tau)
    except ValueError as e:
        print(f"rgbdnav bench: invalid flag: {e}", file=sys.stderr)
        return 2
    try:
        views = scene_io.load_scene(args.scene_dir)
    except scene_io.SceneError as e:
        print(f"rgbdnav bench: {e}", file=sys.stderr)
        return 1
    rows = bench.time_scene(views, config, repeats=args.repeats)
    print(bench.format_bench_table(rows, len(views)), end="")
    return 0


def _labeled_box(line: str) -> oracle.LabeledBox:
    label, *coords = line.split()
    if len(coords) != 6:
        raise ValueError("expected 'label xmin ymin zmin xmax ymax zmax'")
    values = [float(v) for v in coords]
    return oracle.LabeledBox(label, Box3D(np.array(values[:3]), np.array(values[3:])))


def cmd_synth(args) -> int:
    if args.views < 1:
        print("rgbdnav synth: --views must be >= 1", file=sys.stderr)
        return 2
    try:
        boxes = scene_io.read_records(args.boxes, _labeled_box) if args.boxes else oracle.default_box_layout()
        noise = oracle.PerturbationConfig(
            seed=args.seed,
            box_jitter_px=args.box_jitter_px,
            mask_erode_px=args.mask_erode_px,
            drop_prob=args.drop_prob,
            score_sigma=args.score_sigma,
        )
        intr = oracle.default_intrinsics(args.width, args.height, args.focal)
    except (scene_io.SceneError, ValueError) as e:
        print(f"rgbdnav synth: {e}", file=sys.stderr)
        return 2
    trajectory = oracle.default_trajectory(args.views)
    try:
        oracle.make_synthetic_scene(boxes, trajectory, intr, args.out_dir)
        written = oracle.populate_detections(args.out_dir, noise)
    except (ValueError, scene_io.SceneError) as e:
        print(f"rgbdnav synth: {e}", file=sys.stderr)
        return 1
    noise.to_file(Path(args.out_dir) / "perturbation.txt")
    print(f"wrote scene with {args.views} view(s), {len(boxes)} object(s), "
          f"{written} detection(s) to {args.out_dir}")
    return 0


def cmd_navsim(args) -> int:
    if args.world and args.scenario:
        print("rgbdnav navsim: give either --world or --scenario, not both", file=sys.stderr)
        return 2
    if args.world:
        try:
            world = navsim.load_world(args.world)
            x, y, theta = args.start
            start = navsim.RobotState(np.array([x, y]), theta)
        except (scene_io.SceneError, ValueError) as e:
            print(f"rgbdnav navsim: {e}", file=sys.stderr)
            return 1
    else:
        scenario = args.scenario or "open"
        world, start = navsim.SCENARIOS[scenario]()
    try:
        traj = navsim.run_navigation(world, start, max_steps=args.max_steps, robot_radius=args.robot_radius)
    except ValueError as e:  # the step limit or robot radius, checked before the first step
        print(f"rgbdnav navsim: invalid flag: {e}", file=sys.stderr)
        return 2
    navsim.save_trajectory(traj, args.out_traj)
    print(
        f"outcome: {traj.outcome} after {len(traj.times) - 1} step(s), "
        f"path {traj.path_length:.2f} m, min clearance {traj.min_clearance:.3f} m"
    )
    print(f"trajectory written to {args.out_traj}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = _parse_with_config(parser, list(sys.argv[1:] if argv is None else argv))
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    handlers = {
        "detect": cmd_detect,
        "eval": cmd_eval,
        "bench": cmd_bench,
        "synth": cmd_synth,
        "navsim": cmd_navsim,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
