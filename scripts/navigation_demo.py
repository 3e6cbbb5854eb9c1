#!/usr/bin/env python3
"""Run the three navigation fixture scenarios and export their trajectories."""
import argparse
from pathlib import Path

from rgbdnav import navsim


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", nargs="?", default="nav_runs")
    parser.add_argument("--max-steps", type=int, default=navsim.MAX_STEPS)
    parser.add_argument("--robot-radius", type=float, default=navsim.ROBOT_RADIUS)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, make in navsim.SCENARIOS.items():
        world, start = make()
        traj = navsim.run_navigation(
            world, start, max_steps=args.max_steps, robot_radius=args.robot_radius
        )
        navsim.save_world(world, out_dir / f"{name}.world.txt")
        navsim.save_trajectory(traj, out_dir / f"{name}.traj.csv")
        print(
            f"{name:>8}: {traj.outcome} in {len(traj.times) - 1} steps, "
            f"path {traj.path_length:.2f} m, min clearance {traj.min_clearance:.3f} m"
        )
    print(f"trajectories written to {out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
