"""Command-line entry point.

Subcommands:
  detect  run the geometry pipeline on a scene, write clouds + boxes
  eval    score predicted instances against ground truth (mAP/mAP50/mAP25)
  synth   generate a synthetic scene with oracle detections
  navsim  run the potential-field navigation simulator

Any flag can also come from a '--config FILE' line 'key = value', the value as
typed after the flag ('start = 1 2 3'); flags given on the command line win.
The perturbation.txt that synth writes is a valid synth --config.

Exit status: 0 on success; 1 for bad input or a file that cannot be read or
written; 2 for a bad flag. Subcommands raise; main prints the one line
'rgbdnav <cmd>: <message>' to stderr and picks the status.
"""
from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import evaluation, fusion, navsim, oracle, scene_io
from .types import Box3D, PipelineConfig


class UsageError(Exception):
    """A flag or argument the command cannot run with (exit status 2)."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rgbdnav", description=__doc__.split("\n\n")[0])
    parser.add_argument("--verbose", action="store_true", help="log per-stage details")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="reconstruct per-object clouds and 3D boxes from a scene")
    p.add_argument("scene_dir")
    p.add_argument("out_dir")
    p.add_argument("--config", help="key = value file supplying flag defaults")
    defaults = PipelineConfig()
    p.add_argument("--tau", type=float, default=defaults.tau, help="z-score threshold (default %(default)s)")
    p.add_argument("--merge-threshold", type=float, default=defaults.merge_threshold,
                   help="same-class box IoU above which instances merge; the fused instances "
                        "are the same for any view order (default %(default)s)")
    p.add_argument("--kernel-size", type=int, default=defaults.kernel_size,
                   help="side of the square erosion kernel, in pixels (default %(default)s)")

    p = sub.add_parser("eval", help="evaluate predicted instances against ground truth")
    p.add_argument("dirs", nargs="+", metavar="PRED_DIR GT_DIR",
                   help="one or more PRED_DIR GT_DIR pairs; AP is pooled over the pairs")
    p.add_argument("--config", help="key = value file supplying flag defaults")
    p.add_argument("--out", help="report path (default: first PRED_DIR/eval_report.txt)")

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
                   help="start pose; needs --world (default 0 0 0)")
    p.add_argument("--max-steps", type=int, default=navsim.MAX_STEPS)
    p.add_argument("--robot-radius", type=float, default=navsim.ROBOT_RADIUS)
    return parser


def _parse_with_config(parser: argparse.ArgumentParser, argv: list[str], pre) -> argparse.Namespace:
    # ``pre`` is ``parser.parse_known_args(argv)[0]``. Each config line becomes
    # the flag a user would type, placed right after the subcommand: flags
    # given later win, and argparse validates the values. An unreadable config
    # file raises SceneLayoutError (exit 1); a line that is not 'key = value'
    # is a bad flag (exit 2).
    if pre.config:
        sub = parser._subparsers._group_actions[0].choices[pre.command]  # type: ignore[union-attr]
        try:
            values = scene_io.read_key_values(pre.config)
        except scene_io.SceneValidationError as e:
            sub.error(f"--config: {e}")
        tokens = []
        for action in sub._actions:
            if action.dest in values and action.option_strings and action.nargs != 0:
                flag, value = action.option_strings[0], values[action.dest]
                tokens += [flag, *value.split()] if action.nargs else [f"{flag}={value}"]
        at = argv.index(pre.command) + 1
        argv = argv[:at] + tokens + argv[at:]
    return parser.parse_args(argv)


def _flag(build, *args, **kwargs):
    """``build(*args, **kwargs)``, a ValueError raised as an invalid-flag UsageError."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        raise UsageError(f"invalid flag: {e}") from e


def cmd_detect(args) -> int:
    config = _flag(
        PipelineConfig,
        tau=args.tau,
        kernel_size=args.kernel_size,
        merge_threshold=args.merge_threshold,
    )
    instances, stats = fusion.run_scene(scene_io.iter_views(args.scene_dir), config)
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
        raise UsageError("directories must come in PRED_DIR GT_DIR pairs")
    pairs = [(args.dirs[i], args.dirs[i + 1]) for i in range(0, len(args.dirs), 2)]
    used: dict[str, set[str]] = {}  # PRED_DIR -> the labels its predictions use
    vocabulary: set[str] = set()  # the ground-truth labels of all scenes

    def read_scene(pred_dir: str, gt_dir: str):
        # each prediction is keyed as it is read: no cloud's points are held while ground truth is keyed
        pred = [evaluation.KeyedPrediction.of(c) for c in scene_io.iter_instances(pred_dir)]
        gt = scene_io.load_gt_instances(Path(gt_dir))
        used.setdefault(pred_dir, set()).update(p.label for p in pred)
        vocabulary.update(g.label for g in gt)
        return pred, gt

    # scenes are read one at a time, as the scorer reaches them
    report = evaluation.evaluate((read_scene(p, g) for p, g in pairs))
    unknown = set().union(*used.values()) - vocabulary  # labels no scene's ground truth holds
    if unknown:
        raise scene_io.SceneError(
            f"predictions in {', '.join(d for d, labels in used.items() if labels & unknown)} use labels "
            f"outside the ground-truth vocabulary: {', '.join(sorted(unknown))}"
        )
    text = evaluation.format_report(report)
    out = Path(args.out) if args.out else Path(pairs[0][0]) / "eval_report.txt"
    out.write_text(text)
    print(text, end="")
    print(f"report written to {out}")
    return 0


def _labeled_box(line: str) -> oracle.LabeledBox:
    label, *coords = line.split()
    if len(coords) != 6:
        raise ValueError("expected 'label xmin ymin zmin xmax ymax zmax'")
    values = [float(v) for v in coords]
    return oracle.LabeledBox(label, Box3D(np.array(values[:3]), np.array(values[3:])))


def cmd_synth(args) -> int:
    if args.views < 1:
        raise UsageError("--views must be >= 1")
    # a --boxes file that cannot be read or parsed is bad input (exit 1), like navsim --world
    boxes = scene_io.read_records(args.boxes, _labeled_box) if args.boxes else oracle.default_box_layout()
    try:
        noise = oracle.PerturbationConfig(
            seed=args.seed,
            box_jitter_px=args.box_jitter_px,
            mask_erode_px=args.mask_erode_px,
            drop_prob=args.drop_prob,
            score_sigma=args.score_sigma,
        )
        intr = oracle.default_intrinsics(args.width, args.height, args.focal)
    except ValueError as e:
        raise UsageError(str(e)) from e
    written = oracle.make_synthetic_scene(boxes, oracle.default_trajectory(args.views), intr, args.out_dir, noise)
    noise.to_file(Path(args.out_dir) / "perturbation.txt")
    print(f"wrote scene with {args.views} view(s), {len(boxes)} object(s), "
          f"{written} detection(s) to {args.out_dir}")
    return 0


def cmd_navsim(args) -> int:
    if args.world and args.scenario:
        raise UsageError("give either --world or --scenario, not both")
    if args.start is not None and not args.world:
        raise UsageError("--start needs --world")
    if args.world:
        world = navsim.load_world(args.world)
        x, y, theta = args.start or (0.0, 0.0, 0.0)
        start = navsim.RobotState(np.array([x, y]), theta)
    else:
        world, start = navsim.SCENARIOS[args.scenario or "open"]()
    # run_navigation checks the step limit and robot radius before its first step
    traj = _flag(navsim.run_navigation, world, start, max_steps=args.max_steps, robot_radius=args.robot_radius)
    navsim.save_trajectory(traj, args.out_traj)
    print(
        f"outcome: {traj.outcome} after {len(traj.times) - 1} step(s), "
        f"path {traj.path_length:.2f} m, min clearance {traj.min_clearance:.3f} m"
    )
    print(f"trajectory written to {args.out_traj}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = parser.parse_known_args(argv)[0]
    handlers = {
        "detect": cmd_detect,
        "eval": cmd_eval,
        "synth": cmd_synth,
        "navsim": cmd_navsim,
    }
    try:
        args = _parse_with_config(parser, argv, pre)
        logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
        return handlers[args.command](args)
    except (UsageError, scene_io.SceneError, ValueError, OSError) as e:
        print(f"rgbdnav {pre.command}: {e}", file=sys.stderr)
        return 2 if isinstance(e, UsageError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
