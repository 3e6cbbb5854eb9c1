"""Planar differential-drive navigation with a potential-field controller.

The robot is a unicycle driven through left/right wheel encoder ticks. A
simulated rangefinder fan feeds repulsive forces; the target (typically a
detected 3D box centroid projected to the ground plane) provides the
attraction. Steering is proportional to the force direction in the robot
frame; linear speed saturates with the clearance to the nearest obstacle
and gates to zero when the force points more than 90 degrees off heading.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import scene_io
from .types import Box3D

_TWO_PI = 2.0 * math.pi


def _finite_point(xy, name: str) -> np.ndarray:
    """A ground-plane point as a read-only float64 2-vector copy; a NaN or
    infinite coordinate raises ValueError."""
    p = np.array(xy, dtype=np.float64).reshape(2)
    x, y = p.tolist()
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"{name} must be finite, got ({x}, {y})")
    p.setflags(write=False)
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


class ObstacleArrays(NamedTuple):
    """A world's obstacles as arrays, circles first, then segments.

    Row i of ``starts``/``edges``/``radii`` is the set of points within
    ``radii[i]`` of the segment ``starts[i] + [0, 1] * edges[i]``: a circle
    is a zero-length edge, a segment has radius 0. ``rows`` holds the same
    numbers as Python floats, one tuple per obstacle, with 1 / |edge|^2
    (0 for a zero-length edge) before the radius: over a few rows, a loop
    of float arithmetic costs less than a dozen numpy calls.
    """

    starts: np.ndarray  # (n, 2) circle centres, then segment starts
    edges: np.ndarray  # (n, 2) zero for circles, b - a for segments
    radii: np.ndarray  # (n,) circle radius, 0 for segments
    n_circles: int
    rows: tuple[tuple[float, float, float, float, float, float], ...]  # (sx, sy, ex, ey, inv_len2, radius)


@dataclass(frozen=True)
class WorldModel2D:
    """Obstacles plus a single navigation target on the ground plane.

    The obstacles are kept as a tuple of frozen records with read-only
    coordinates, so :attr:`geometry`, built on first use, never goes stale.
    """

    obstacles: tuple[Obstacle, ...]
    target: np.ndarray
    goal_radius: float = 0.3

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(self, "target", _finite_point(self.target, "target"))
        if not self.goal_radius > 0:
            raise ValueError(f"goal_radius must be positive, got {self.goal_radius}")
        if clearance(self, self.target) <= 0.0:
            raise ValueError("target lies inside an obstacle")

    @functools.cached_property
    def geometry(self) -> ObstacleArrays:
        """The obstacles as arrays, built once per world."""
        circles = [o for o in self.obstacles if isinstance(o, Circle)]
        segments = [o for o in self.obstacles if isinstance(o, Segment)]
        starts = np.array([c.center for c in circles] + [seg.a for seg in segments]).reshape(-1, 2)
        edges = np.array([np.zeros(2) for _ in circles] + [seg.b - seg.a for seg in segments]).reshape(-1, 2)
        len2 = (edges * edges).sum(axis=1)
        inv_len2 = np.divide(1.0, len2, out=np.zeros_like(len2), where=len2 > 0)
        radii = np.array([c.radius for c in circles] + [0.0] * len(segments))
        for a in (starts, edges, radii):
            a.setflags(write=False)
        rows = tuple(map(tuple, np.column_stack([starts, edges, inv_len2, radii]).tolist()))
        return ObstacleArrays(starts, edges, radii, len(circles), rows)


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
    x, y = state.position.tolist()
    if dtheta == 0.0:
        x += s * math.cos(theta)
        y += s * math.sin(theta)
    else:
        rc = s / dtheta
        x += rc * (math.sin(theta + dtheta) - math.sin(theta))
        y += rc * (math.cos(theta) - math.cos(theta + dtheta))
    return RobotState((x, y), theta + dtheta, state.wheel_radius, state.wheel_base, state.tick_per_rev)


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


@functools.lru_cache(maxsize=16)
def _fan(fov: float, n_rays: int) -> np.ndarray:
    """Unit ray directions in the robot frame, shape (2, n_rays): rows cos, sin."""
    offsets = ray_offsets(fov, n_rays)
    fan = np.stack([np.cos(offsets), np.sin(offsets)])
    fan.setflags(write=False)
    return fan


# v @ _CROSS @ fan[:, k] is the 2D cross product of ray direction k with v.
_CROSS = np.array(((0.0, -1.0), (1.0, 0.0)))


def rangefinder_scan(
    state: RobotState, world: WorldModel2D, fov: float, n_rays: int, max_range: float
) -> np.ndarray:
    """Nearest obstacle distance along each ray of the fan, capped at max_range.

    The obstacles (``world.geometry``, built once per world) are rotated into
    the robot frame, where the fan's directions are fixed, and every circle,
    then every segment, is ray-tested against the whole fan in one
    broadcast. A hit distance does not change under rotation; against a
    per-obstacle test in the world frame the ranges agree to rounding
    (within 1e-9 m), except on rays that graze an obstacle exactly.
    """
    if n_rays < 1:
        raise ValueError("n_rays must be >= 1")
    g = world.geometry
    n = g.n_circles
    fan = _fan(fov, n_rays)
    c, s = math.cos(state.heading), math.sin(state.heading)
    rot = np.array(((c, -s), (s, c)))  # v @ rot: world-frame row vector v in the robot frame
    ranges = np.full(n_rays, max_range)
    if n:
        oc = g.starts[:n] - state.position
        b = oc @ rot @ fan  # (circle, ray): the centre's projection on the ray
        q = (oc * oc).sum(axis=1) - g.radii[:n] ** 2
        disc = b * b - q[:, None]
        root = np.sqrt(np.maximum(disc, 0.0))
        t_near = b - root
        t = np.where(t_near > 0, t_near, b + root)  # from inside, the far crossing
        np.minimum.reduce(t, axis=0, out=ranges, where=(disc >= 0) & (t > 0), initial=max_range)
    if len(g.radii) > n:
        ao = g.starts[n:] - state.position
        e = g.edges[n:]
        # (segment, ray) cross products d x e, ao x e and ao x d
        d_x_e = e @ rot @ _CROSS @ fan
        ao_x_e = (e @ _CROSS * ao).sum(axis=1)[:, None]
        ao_x_d = -(ao @ rot @ _CROSS @ fan)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = ao_x_e / d_x_e
            u = ao_x_d / d_x_e
        hit = (np.abs(d_x_e) > 1e-12) & (t > 0) & (u >= 0.0) & (u <= 1.0)
        np.minimum(ranges, np.minimum.reduce(t, axis=0, where=hit, initial=max_range), out=ranges)
    return ranges


def clearance(world: WorldModel2D, point: np.ndarray) -> float:
    """Distance from a point to the nearest obstacle boundary (inf when empty).

    The least, over ``world.geometry.rows``, of the distance to the
    obstacle's edge (a point for a circle) minus its radius, in Python
    floats: the call runs once per step on a handful of obstacles.
    """
    x, y = np.asarray(point, dtype=np.float64).tolist()
    nearest = math.inf
    for sx, sy, ex, ey, inv_len2, radius in world.geometry.rows:
        dx, dy = x - sx, y - sy
        t = min(max((dx * ex + dy * ey) * inv_len2, 0.0), 1.0)
        nearest = min(nearest, math.hypot(dx - t * ex, dy - t * ey) - radius)
    return nearest


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
    along each in-range ray. It is summed in the robot frame, over the same
    fan as :func:`rangefinder_scan`; against a world-frame sum only the
    rounding differs (episodes keep their outcome and step count, final
    poses agree within 1e-8 m). omega is proportional to the force bearing;
    v saturates at v_max, scales with the nearest scan range inside d_safe,
    and is zero while the bearing exceeds 90 degrees.
    """
    x, y = state.position.tolist()
    tx, ty = world.target.tolist()
    dx, dy = tx - x, ty - y
    dist = math.hypot(dx, dy)
    c, s = math.cos(state.heading), math.sin(state.heading)
    ax, ay = (0.0, 0.0) if dist == 0 else (cfg.attract_gain * dx / dist, cfg.attract_gain * dy / dist)
    mag = np.maximum(1.0 / scan - 1.0 / cfg.repulse_range, 0.0) * cfg.repulse_gain
    rx, ry = (_fan(scan_cfg.fov, len(scan)) @ mag).tolist()
    fx = c * ax + s * ay - rx
    fy = c * ay - s * ax - ry
    err = 0.0 if fx == 0.0 and fy == 0.0 else wrap_angle(math.atan2(fy, fx))  # balanced: hold heading
    omega = cfg.omega_gain * err
    d_min = float(scan.min())
    v = 0.0 if abs(err) > math.pi / 2 else cfg.v_max * min(1.0, d_min / cfg.d_safe)
    return v, omega


def _goal_reached(world: WorldModel2D, state: RobotState) -> bool:
    x, y = state.position.tolist()
    tx, ty = world.target.tolist()
    return math.hypot(tx - x, ty - y) <= world.goal_radius


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
    poses = [(*state.position.tolist(), state.heading)]
    commands = [(0.0, 0.0)]
    d_mins = [clearance(world, state.position)]
    min_clear = d_mins[0]
    outcome = "timeout"
    for step in range(1, max_steps + 1):
        if _goal_reached(world, state):
            outcome = "reached"
            break
        scan = rangefinder_scan(state, world, scan_cfg.fov, scan_cfg.n_rays, scan_cfg.max_range)
        v, omega = apf_step(state, scan, world, cfg, scan_cfg)
        ticks_l, ticks_r = ticks_for_motion(state, v, omega, cfg.dt)
        state = odometry_update(state, ticks_l, ticks_r)
        clear = clearance(world, state.position)
        min_clear = min(min_clear, clear)
        times.append(step * cfg.dt)
        poses.append((*state.position.tolist(), state.heading))
        commands.append((v, omega))
        d_mins.append(float(scan.min()))
        if clear < robot_radius:
            outcome = "collision"
            break
    else:
        if _goal_reached(world, state):
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
    rows = zip(traj.times.tolist(), traj.poses.tolist(), traj.commands.tolist(), traj.d_min.tolist())
    for t, (x, y, theta), (v, omega), d_min in rows:
        lines.append(f"{t:.6g},{x:.6g},{y:.6g},{theta:.6g},{v:.6g},{omega:.6g},{d_min:.6g}")
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

    Start is the origin heading +x; the target sits 7-8 m away. Circles are
    drawn one candidate at a time, and a candidate is kept only when it
    keeps the stated clearance margin from the start, the target and every
    circle kept before it, which is the precondition under which the
    controller is expected to stay collision-free. Drawing stops at
    ``n_obstacles`` circles or after 500 candidates, so a world may hold
    fewer than ``n_obstacles`` circles.
    """
    rng = np.random.default_rng(seed)
    margin = 2.0 * (robot_radius + cfg.d_safe)
    tx, ty = rng.uniform(7.0, 8.0), rng.uniform(-1.0, 1.0)
    kept: list[tuple[float, float, float]] = []
    attempts = 0
    # math.hypot on Python floats: np.linalg.norm on a 2-vector costs about 20 times as much
    while len(kept) < n_obstacles and attempts < 500:
        attempts += 1
        cx, cy = rng.uniform(1.5, 6.0), rng.uniform(-2.0, 2.0)
        r = rng.uniform(0.25, 0.45)
        if math.hypot(cx, cy) - r < margin or math.hypot(tx - cx, ty - cy) - r < margin:
            continue
        if any(math.hypot(cx - ox, cy - oy) - r - other_r < margin for ox, oy, other_r in kept):
            continue
        kept.append((cx, cy, r))
    circles = [Circle(np.array([cx, cy]), r) for cx, cy, r in kept]
    world = WorldModel2D(circles, np.array([tx, ty]))
    return world, RobotState(np.zeros(2), 0.0)
