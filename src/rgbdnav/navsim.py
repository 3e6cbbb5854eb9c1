"""Planar differential-drive navigation with a potential-field controller.

The robot is a unicycle driven through left/right wheel encoder ticks. A
simulated rangefinder fan feeds repulsive forces; the target (typically a
detected 3D box centroid projected to the ground plane) provides the
attraction. Steering is proportional to the force direction in the robot
frame; linear speed saturates with the clearance to the nearest obstacle
and gates to zero when the force points more than 90 degrees off heading.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import scene_io
from .types import Box3D

_TWO_PI = 2.0 * math.pi


def _finite_point(xy, name: str) -> np.ndarray:
    """A ground-plane point as a float64 2-vector; a NaN or infinite coordinate raises ValueError."""
    p = np.asarray(xy, dtype=np.float64).reshape(2)
    if not (math.isfinite(p[0]) and math.isfinite(p[1])):
        raise ValueError(f"{name} must be finite, got ({p[0]}, {p[1]})")
    return p


@dataclass(frozen=True)
class Circle:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _finite_point(self.center, "circle centre"))
        if not self.radius > 0:
            raise ValueError(f"circle radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Segment:
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _finite_point(self.a, "segment end"))
        object.__setattr__(self, "b", _finite_point(self.b, "segment end"))


Obstacle = Circle | Segment


@dataclass(frozen=True)
class RobotState:
    """Planar pose plus drivetrain constants (meters, radians, encoder ticks)."""

    position: np.ndarray
    heading: float
    wheel_radius: float = 0.17
    wheel_base: float = 0.60
    tick_per_rev: int = 4096

    def __post_init__(self):
        object.__setattr__(self, "position", _finite_point(self.position, "robot position"))
        if not math.isfinite(self.heading):
            raise ValueError(f"robot heading must be finite, got {self.heading}")
        if not (self.wheel_radius > 0 and self.wheel_base > 0 and self.tick_per_rev > 0):
            raise ValueError("wheel_radius, wheel_base and tick_per_rev must be positive")


@dataclass(frozen=True)
class WorldModel2D:
    """Obstacles plus a single navigation target on the ground plane."""

    obstacles: list[Obstacle]
    target: np.ndarray
    goal_radius: float = 0.3

    def __post_init__(self):
        object.__setattr__(self, "target", _finite_point(self.target, "target"))
        if not self.goal_radius > 0:
            raise ValueError(f"goal_radius must be positive, got {self.goal_radius}")
        if clearance(self, self.target) <= 0.0:
            raise ValueError("target lies inside an obstacle")


@dataclass(frozen=True)
class ApfConfig:
    """Potential-field gains and limits; everything here is tunable and positive."""

    repulse_gain: float = 0.12
    repulse_range: float = 1.5
    attract_gain: float = 1.0
    v_max: float = 0.5
    d_safe: float = 0.8
    omega_gain: float = 1.5
    dt: float = 0.05

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class ScanConfig:
    """Rangefinder fan geometry. max_range should exceed repulse_range, or
    out-of-range rays (reported at max_range) would repel like phantom walls."""

    fov: float = 1.5 * math.pi
    n_rays: int = 61
    max_range: float = 4.0

    def __post_init__(self):
        if not self.n_rays >= 1:
            raise ValueError("n_rays must be >= 1")
        if not (0 < self.fov <= _TWO_PI and self.max_range > 0):
            raise ValueError("fov must be in (0, 2*pi] and max_range positive")


@dataclass
class Trajectory:
    """Per-step simulation record plus the run outcome."""

    times: np.ndarray
    poses: np.ndarray  # rows (x, y, heading)
    commands: np.ndarray  # rows (v, omega)
    d_min: np.ndarray
    outcome: str  # reached | timeout | collision
    min_clearance: float

    @property
    def path_length(self) -> float:
        steps = np.diff(self.poses[:, :2], axis=0)
        return float(np.sum(np.hypot(steps[:, 0], steps[:, 1])))


def wrap_angle(a: float) -> float:
    """Wrap to [-pi, pi)."""
    return (a + math.pi) % _TWO_PI - math.pi


def box_ground_target(box: Box3D) -> np.ndarray:
    """Project a detected box centroid onto the ground plane (drop z)."""
    return box.center[:2].copy()


# ---------------------------------------------------------------------------
# Kinematics
# ---------------------------------------------------------------------------

def odometry_update(state: RobotState, dticks_left: float, dticks_right: float) -> RobotState:
    """Advance the pose from encoder increments using the exact arc model.

    Wheel arc length is 2*pi*wheel_radius*dticks/tick_per_rev. Equal wheel
    arcs move straight; otherwise the pose follows the circular arc of the
    unicycle with constant curvature over the interval.
    """
    s_l = _TWO_PI * state.wheel_radius * dticks_left / state.tick_per_rev
    s_r = _TWO_PI * state.wheel_radius * dticks_right / state.tick_per_rev
    dtheta = (s_r - s_l) / state.wheel_base
    s = 0.5 * (s_l + s_r)
    theta = state.heading
    if dtheta == 0.0:
        delta = np.array([s * math.cos(theta), s * math.sin(theta)])
    else:
        rc = s / dtheta
        delta = np.array(
            [rc * (math.sin(theta + dtheta) - math.sin(theta)),
             rc * (math.cos(theta) - math.cos(theta + dtheta))]
        )
    return replace(state, position=state.position + delta, heading=theta + dtheta)


def ticks_for_motion(state: RobotState, v: float, omega: float, dt: float) -> tuple[float, float]:
    """Encoder increments equivalent to driving at (v, omega) for dt seconds."""
    s_l = (v - 0.5 * omega * state.wheel_base) * dt
    s_r = (v + 0.5 * omega * state.wheel_base) * dt
    per_meter = state.tick_per_rev / (_TWO_PI * state.wheel_radius)
    return s_l * per_meter, s_r * per_meter


# ---------------------------------------------------------------------------
# Sensing
# ---------------------------------------------------------------------------

def ray_offsets(fov: float, n_rays: int) -> np.ndarray:
    """Ray angles relative to the heading; a single ray points straight ahead."""
    if n_rays == 1:
        return np.zeros(1)
    return np.linspace(-fov / 2.0, fov / 2.0, n_rays)


def _ray_circle(origin: np.ndarray, dirs: np.ndarray, c: Circle) -> np.ndarray:
    """Nearest positive ray parameter per direction, inf when missed."""
    oc = c.center - origin
    b = dirs @ oc  # projection of center onto each ray
    disc = b * b - (oc @ oc - c.radius * c.radius)
    out = np.full(dirs.shape[0], np.inf)
    ok = disc >= 0
    root = np.sqrt(np.maximum(disc, 0.0))
    t_near = b - root
    t_far = b + root
    t = np.where(t_near > 0, t_near, t_far)
    hit = ok & (t > 0)
    out[hit] = t[hit]
    return out


def _ray_segment(origin: np.ndarray, dirs: np.ndarray, seg: Segment) -> np.ndarray:
    e = seg.b - seg.a
    ao = seg.a - origin
    denom = dirs[:, 0] * e[1] - dirs[:, 1] * e[0]
    out = np.full(dirs.shape[0], np.inf)
    ok = np.abs(denom) > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ao[0] * e[1] - ao[1] * e[0]) / denom
        s = (ao[0] * dirs[:, 1] - ao[1] * dirs[:, 0]) / denom
    hit = ok & (t > 0) & (s >= 0.0) & (s <= 1.0)
    out[hit] = t[hit]
    return out


def rangefinder_scan(
    state: RobotState, world: WorldModel2D, fov: float, n_rays: int, max_range: float
) -> np.ndarray:
    """Nearest obstacle distance along each ray of the fan, capped at max_range."""
    if n_rays < 1:
        raise ValueError("n_rays must be >= 1")
    angles = state.heading + ray_offsets(fov, n_rays)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    ranges = np.full(n_rays, max_range)
    for obs in world.obstacles:
        if isinstance(obs, Circle):
            t = _ray_circle(state.position, dirs, obs)
        else:
            t = _ray_segment(state.position, dirs, obs)
        ranges = np.minimum(ranges, t)
    return np.minimum(ranges, max_range)


def point_obstacle_distance(point: np.ndarray, obs: Obstacle) -> float:
    """Signed-ish clearance: distance from a point to the obstacle boundary."""
    p = np.asarray(point, dtype=np.float64)
    if isinstance(obs, Circle):
        return float(np.linalg.norm(p - obs.center) - obs.radius)
    e = obs.b - obs.a
    denom = float(e @ e)
    t = 0.0 if denom == 0 else float(np.clip((p - obs.a) @ e / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (obs.a + t * e)))


def clearance(world: WorldModel2D, point: np.ndarray) -> float:
    """Distance from a point to the nearest obstacle boundary (inf when empty)."""
    if not world.obstacles:
        return math.inf
    return min(point_obstacle_distance(point, o) for o in world.obstacles)


# ---------------------------------------------------------------------------
# Control
# ---------------------------------------------------------------------------

def apf_step(
    state: RobotState,
    scan: np.ndarray,
    world: WorldModel2D,
    cfg: ApfConfig = ApfConfig(),
    scan_cfg: ScanConfig = ScanConfig(),
) -> tuple[float, float]:
    """One potential-field control step: returns (v, omega).

    The force sums a unit attraction toward the target with repulsions of
    magnitude repulse_gain * max(0, 1/r - 1/repulse_range) pointing back
    along each in-range ray. omega is proportional to the force bearing in
    the robot frame; v saturates at v_max, scales with the nearest scan
    range inside d_safe, and is zero while the bearing exceeds 90 degrees.
    """
    to_target = world.target - state.position
    dist = float(np.linalg.norm(to_target))
    force = np.zeros(2) if dist == 0 else cfg.attract_gain * to_target / dist
    angles = state.heading + ray_offsets(scan_cfg.fov, len(scan))
    near = scan < cfg.repulse_range
    if near.any():
        mag = cfg.repulse_gain * (1.0 / scan[near] - 1.0 / cfg.repulse_range)
        force -= np.array(
            [np.sum(mag * np.cos(angles[near])), np.sum(mag * np.sin(angles[near]))]
        )
    if force[0] == 0.0 and force[1] == 0.0:
        err = 0.0  # balanced field: hold heading
    else:
        err = wrap_angle(math.atan2(force[1], force[0]) - state.heading)
    omega = cfg.omega_gain * err
    d_min = float(np.min(scan))
    v = 0.0 if abs(err) > math.pi / 2 else cfg.v_max * min(1.0, d_min / cfg.d_safe)
    return v, omega


def run_navigation(
    world: WorldModel2D,
    start: RobotState,
    cfg: ApfConfig = ApfConfig(),
    max_steps: int = 4000,
    robot_radius: float = 0.4,
    scan_cfg: ScanConfig = ScanConfig(),
) -> Trajectory:
    """Integrate the controller until the goal, a collision, or the step limit.

    Commands are turned into wheel-tick increments and integrated with the
    exact arc model, so the simulated platform and the odometry share one
    forward model.
    """
    if not max_steps > 0:
        raise ValueError(f"max_steps must be positive, got {max_steps}")
    if not robot_radius > 0:
        raise ValueError(f"robot_radius must be positive, got {robot_radius}")
    state = start
    times = [0.0]
    poses = [(state.position[0], state.position[1], state.heading)]
    commands = [(0.0, 0.0)]
    d_mins = [clearance(world, state.position)]
    min_clear = d_mins[0]
    outcome = "timeout"
    for step in range(1, max_steps + 1):
        if float(np.linalg.norm(world.target - state.position)) <= world.goal_radius:
            outcome = "reached"
            break
        scan = rangefinder_scan(state, world, scan_cfg.fov, scan_cfg.n_rays, scan_cfg.max_range)
        v, omega = apf_step(state, scan, world, cfg, scan_cfg)
        ticks_l, ticks_r = ticks_for_motion(state, v, omega, cfg.dt)
        state = odometry_update(state, ticks_l, ticks_r)
        clear = clearance(world, state.position)
        min_clear = min(min_clear, clear)
        times.append(step * cfg.dt)
        poses.append((state.position[0], state.position[1], state.heading))
        commands.append((v, omega))
        d_mins.append(float(np.min(scan)))
        if clear < robot_radius:
            outcome = "collision"
            break
    else:
        if float(np.linalg.norm(world.target - state.position)) <= world.goal_radius:
            outcome = "reached"
    return Trajectory(
        np.array(times), np.array(poses), np.array(commands), np.array(d_mins), outcome, min_clear
    )


# ---------------------------------------------------------------------------
# World files and trajectory export
# ---------------------------------------------------------------------------

def save_world(world: WorldModel2D, path: Path) -> None:
    lines = [
        f"target {world.target[0]:.9g} {world.target[1]:.9g}",
        f"goal_radius {world.goal_radius:.9g}",
    ]
    for obs in world.obstacles:
        if isinstance(obs, Circle):
            lines.append(f"circle {obs.center[0]:.9g} {obs.center[1]:.9g} {obs.radius:.9g}")
        else:
            lines.append(
                f"segment {obs.a[0]:.9g} {obs.a[1]:.9g} {obs.b[0]:.9g} {obs.b[1]:.9g}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def _world_entry(line: str) -> tuple[str, object]:
    kind, *vals = line.split()
    nums = [float(v) for v in vals]
    if kind == "target" and len(nums) == 2:
        return kind, np.array(nums)
    if kind == "goal_radius" and len(nums) == 1:
        return kind, nums[0]
    if kind == "circle" and len(nums) == 3:
        return kind, Circle(np.array(nums[:2]), nums[2])
    if kind == "segment" and len(nums) == 4:
        return kind, Segment(np.array(nums[:2]), np.array(nums[2:]))
    raise ValueError(f"unrecognized world entry {line!r}")


def load_world(path: Path) -> WorldModel2D:
    """Read a :func:`save_world` file: the last target and goal_radius win, obstacles keep order."""
    entries = scene_io.read_records(path, _world_entry)
    last = dict(entries)
    if "target" not in last:
        raise ValueError(f"{path}: world file declares no target")
    obstacles = [value for kind, value in entries if kind in ("circle", "segment")]
    try:
        return WorldModel2D(obstacles, last["target"], last.get("goal_radius", 0.3))
    except ValueError as e:
        raise scene_io.SceneValidationError(f"{path}: {e}") from e


def save_trajectory(traj: Trajectory, path: Path) -> None:
    """Write per-step rows 't x y theta v omega d_min' as CSV for plotting."""
    lines = [
        f"# outcome={traj.outcome} min_clearance={traj.min_clearance:.6g}",
        "t,x,y,theta,v,omega,d_min",
    ]
    for i in range(len(traj.times)):
        x, y, theta = traj.poses[i]
        v, omega = traj.commands[i]
        lines.append(
            f"{traj.times[i]:.6g},{x:.6g},{y:.6g},{theta:.6g},{v:.6g},{omega:.6g},{traj.d_min[i]:.6g}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Fixture worlds
# ---------------------------------------------------------------------------

def _room_walls(half: float = 4.0) -> list[Obstacle]:
    c = half
    return [
        Segment((-c, -c), (c, -c)),
        Segment((c, -c), (c, c)),
        Segment((c, c), (-c, c)),
        Segment((-c, c), (-c, -c)),
    ]


def scenario_open() -> tuple[WorldModel2D, RobotState]:
    """Free straight-line approach to a target 3 m ahead."""
    world = WorldModel2D([], np.array([3.0, 0.0]))
    return world, RobotState(np.zeros(2), 0.0)


def scenario_column() -> tuple[WorldModel2D, RobotState]:
    """A central column sits just off the start-target line and must be skirted."""
    world = WorldModel2D(
        _room_walls() + [Circle((0.0, 0.0), 0.3)], np.array([2.5, -0.05])
    )
    return world, RobotState(np.array([-2.5, 0.05]), 0.0)


def scenario_offset_target() -> tuple[WorldModel2D, RobotState]:
    """Same column, target displaced to the side of the room."""
    world = WorldModel2D(
        _room_walls() + [Circle((0.0, 0.0), 0.3)], np.array([2.5, -1.5])
    )
    return world, RobotState(np.array([-2.5, 0.0]), 0.0)


SCENARIOS = {
    "open": scenario_open,
    "column": scenario_column,
    "offset": scenario_offset_target,
}


def sample_clear_world(
    seed: int,
    robot_radius: float = 0.4,
    cfg: ApfConfig = ApfConfig(),
    n_obstacles: int = 3,
) -> tuple[WorldModel2D, RobotState]:
    """Random circle field with every passage at least 2*(robot_radius + d_safe) wide.

    Start is the origin heading +x; the target sits 7-8 m away. Obstacles
    keep the stated clearance margin from each other, the start, and the
    target, which is the precondition under which the controller is
    expected to stay collision-free.
    """
    rng = np.random.default_rng(seed)
    margin = 2.0 * (robot_radius + cfg.d_safe)
    start = np.zeros(2)
    target = np.array([rng.uniform(7.0, 8.0), rng.uniform(-1.0, 1.0)])
    circles: list[Circle] = []
    attempts = 0
    while len(circles) < n_obstacles and attempts < 500:
        attempts += 1
        c = np.array([rng.uniform(1.5, 6.0), rng.uniform(-2.0, 2.0)])
        r = rng.uniform(0.25, 0.45)
        cand = Circle(c, r)
        if point_obstacle_distance(start, cand) < margin:
            continue
        if point_obstacle_distance(target, cand) < margin:
            continue
        if any(
            np.linalg.norm(c - other.center) - r - other.radius < margin for other in circles
        ):
            continue
        circles.append(cand)
    world = WorldModel2D(list(circles), target)
    return world, RobotState(start, 0.0)
