"""Planar differential-drive navigation with a potential-field controller.

The robot is a unicycle driven through left/right wheel encoder ticks. A
simulated rangefinder fan feeds repulsive forces; the target (typically a
detected 3D box centroid projected to the ground plane) provides the
attraction. Steering is proportional to the force direction in the robot
frame; linear speed saturates with the clearance to the nearest obstacle
and gates to zero when the force points more than 90 degrees off heading.

A step costs a few tens of microseconds, so its hot loops run in Python
floats: the scan casts each circle only at the few rays of its angular
window, and the controller sums repulsion only over the rays that repel.
Trajectories match the earlier all-rays numpy version to rounding: over the
132 benchmark episodes of seeds 0-3, 110 of 38,255 CSV rows differ, all in
omega and by at most 1e-10 rad/s.

The platform is fixed: the drivetrain, the controller's gains and limits,
and the rangefinder fan (61 rays over 270 degrees, 4 m range) are module
constants. Only the step limit and the robot radius are arguments of
:func:`run_navigation`.
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

# Drivetrain: wheel radius and wheel base in meters, encoder ticks per wheel revolution.
WHEEL_RADIUS = 0.17
WHEEL_BASE = 0.60
TICKS_PER_REV = 4096

# Potential-field gains and limits (see apf_step), and the control period in seconds.
# D_SAFE must stay below REPULSE_RANGE: apf_step finds the nearest range among
# the rays that repel.
REPULSE_GAIN = 0.12
REPULSE_RANGE = 1.5
ATTRACT_GAIN = 1.0
V_MAX = 0.5
D_SAFE = 0.8
OMEGA_GAIN = 1.5
DT = 0.05

# Rangefinder fan. MAX_RANGE must exceed REPULSE_RANGE, or out-of-range rays
# (reported at MAX_RANGE) would repel like phantom walls.
FOV = 1.5 * math.pi
N_RAYS = 61
MAX_RANGE = 4.0

# run_navigation's defaults: a collision is a clearance below ROBOT_RADIUS.
ROBOT_RADIUS = 0.4
MAX_STEPS = 4000


def _finite_point(xy, name: str) -> np.ndarray:
    """A ground-plane point as a read-only float64 2-vector copy; a NaN or
    infinite coordinate raises ValueError."""
    if type(xy) is tuple and len(xy) == 2 and type(xy[0]) is float and type(xy[1]) is float:
        x, y = xy  # odometry_update's pose: checked as floats, one array built
        p = np.array(xy)
    else:
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
    """Planar pose (meters, radians)."""

    position: np.ndarray
    heading: float

    def __post_init__(self):
        object.__setattr__(self, "position", _finite_point(self.position, "robot position"))
        if not math.isfinite(self.heading):
            raise ValueError(f"robot heading must be finite, got {self.heading}")


class ObstacleArrays(NamedTuple):
    """A world's obstacles as Python floats, plus its segments as arrays.

    ``rows`` holds one tuple per obstacle, circles first, then segments: the
    obstacle is the set of points within ``radius`` of the segment from
    (sx, sy) to (sx + ex, sy + ey), so a circle is a zero-length edge and a
    segment has radius 0, and 1 / |edge|^2 (0 for a zero-length edge) comes
    before the radius. Over a few rows, a loop of float arithmetic costs
    less than a dozen numpy calls. ``starts`` and ``edges`` hold the
    segments' rows again as arrays, for :func:`rangefinder_scan`'s one
    broadcast over segments and rays.
    """

    starts: np.ndarray  # (m, 2) segment starts a
    edges: np.ndarray  # (m, 2) segment edges b - a
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
        starts = np.array([seg.a for seg in segments]).reshape(-1, 2)
        edges = np.array([seg.b - seg.a for seg in segments]).reshape(-1, 2)
        for a in (starts, edges):
            a.setflags(write=False)
        rows = [(*c.center.tolist(), 0.0, 0.0, 0.0, float(c.radius)) for c in circles]
        for (sx, sy), (ex, ey) in zip(starts.tolist(), edges.tolist()):
            len2 = ex * ex + ey * ey
            rows.append((sx, sy, ex, ey, 1.0 / len2 if len2 > 0 else 0.0, 0.0))
        return ObstacleArrays(starts, edges, len(circles), tuple(rows))


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

    Wheel arc length is 2*pi*WHEEL_RADIUS*dticks/TICKS_PER_REV. Equal wheel
    arcs move straight; otherwise the pose follows the circular arc of the
    unicycle with constant curvature over the interval.
    """
    s_l = _TWO_PI * WHEEL_RADIUS * dticks_left / TICKS_PER_REV
    s_r = _TWO_PI * WHEEL_RADIUS * dticks_right / TICKS_PER_REV
    dtheta = (s_r - s_l) / WHEEL_BASE
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
    return RobotState((x, y), theta + dtheta)


def ticks_for_motion(v: float, omega: float, dt: float) -> tuple[float, float]:
    """Encoder increments equivalent to driving at (v, omega) for dt seconds."""
    s_l = (v - 0.5 * omega * WHEEL_BASE) * dt
    s_r = (v + 0.5 * omega * WHEEL_BASE) * dt
    per_meter = TICKS_PER_REV / (_TWO_PI * WHEEL_RADIUS)
    return s_l * per_meter, s_r * per_meter


# ---------------------------------------------------------------------------
# Sensing
# ---------------------------------------------------------------------------

# Ray angles relative to the heading, and the unit ray directions in the
# robot frame, shape (2, N_RAYS): rows cos, sin. Both are read-only. _COS and
# _SIN hold the same directions as Python floats, and _RAY_STEP is the angle
# between neighbouring rays.
RAY_OFFSETS = np.linspace(-FOV / 2.0, FOV / 2.0, N_RAYS)
_FAN = np.stack([np.cos(RAY_OFFSETS), np.sin(RAY_OFFSETS)])
RAY_OFFSETS.setflags(write=False)
_FAN.setflags(write=False)
_COS, _SIN = (tuple(row) for row in _FAN.tolist())
_RAY_STEP = FOV / (N_RAYS - 1)


# v @ _CROSS @ _FAN[:, k] is the 2D cross product of ray direction k with v.
_CROSS = np.array(((0.0, -1.0), (1.0, 0.0)))


def _circle_rays(bx: float, by: float, d2: float, radius: float) -> range:
    """The rays that can hit a circle whose centre sits at (bx, by) in the
    robot frame, d2 = bx^2 + by^2 away squared.

    Seen from outside, the circle spans the bearings within asin(r / d) of
    its centre's; those rays, and one more on each side to absorb rounding,
    are cast. From inside or on the circle (d2 <= r^2), or when that window
    crosses the back of the robot (bearing +-pi, in the fan's blind wedge),
    the whole fan is.
    """
    if d2 <= radius * radius:
        return range(N_RAYS)
    d = math.sqrt(d2)
    bearing = math.atan2(by, bx)
    half = math.asin(min(radius / d, 1.0))
    lo, hi = bearing - half, bearing + half
    if lo < -math.pi or hi > math.pi:
        return range(N_RAYS)
    first = max(math.ceil((lo + FOV / 2.0) / _RAY_STEP) - 1, 0)
    last = min(math.floor((hi + FOV / 2.0) / _RAY_STEP) + 1, N_RAYS - 1)
    return range(first, last + 1)


def rangefinder_scan(state: RobotState, world: WorldModel2D) -> np.ndarray:
    """Nearest obstacle distance along each ray of the fan, capped at MAX_RANGE.

    The obstacles (``world.geometry``, built once per world) are moved into
    the robot frame, where the fan's directions are fixed. Each circle is
    cast in Python floats, and only at the rays of its angular window
    (:func:`_circle_rays`); a circle whose near surface lies at MAX_RANGE or
    beyond is skipped, since no hit on it could shorten a range. The
    segments are ray-tested against the whole fan in one broadcast. A hit
    distance does not change under rotation; against a per-obstacle test in
    the world frame the ranges agree to rounding (within 1e-9 m), except on
    rays that graze an obstacle exactly.
    """
    g = world.geometry
    c, s = math.cos(state.heading), math.sin(state.heading)
    x, y = state.position.tolist()
    ranges = [MAX_RANGE] * N_RAYS
    for cx, cy, _, _, _, radius in g.rows[:g.n_circles]:
        dx, dy = cx - x, cy - y
        d2 = dx * dx + dy * dy
        if d2 >= (MAX_RANGE + radius) ** 2:
            continue
        q = d2 - radius * radius
        bx, by = dx * c + dy * s, dy * c - dx * s  # the centre in the robot frame
        for k in _circle_rays(bx, by, d2, radius):
            b = bx * _COS[k] + by * _SIN[k]  # the centre's projection on ray k
            disc = b * b - q
            if disc >= 0.0:
                root = math.sqrt(disc)
                t = b - root
                if t <= 0.0:
                    t = b + root  # from inside, the far crossing
                if 0.0 < t < ranges[k]:
                    ranges[k] = t
    ranges = np.array(ranges)
    if len(g.starts):
        rot = np.array(((c, -s), (s, c)))  # v @ rot: world-frame row vector v in the robot frame
        ao = g.starts - state.position
        e = g.edges
        # (segment, ray) cross products d x e, ao x e and ao x d
        d_x_e = e @ rot @ _CROSS @ _FAN
        ao_x_e = (e @ _CROSS * ao).sum(axis=1)[:, None]
        ao_x_d = -(ao @ rot @ _CROSS @ _FAN)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = ao_x_e / d_x_e
            u = ao_x_d / d_x_e
        hit = (np.abs(d_x_e) > 1e-12) & (t > 0) & (u >= 0.0) & (u <= 1.0)
        np.minimum(ranges, np.minimum.reduce(t, axis=0, where=hit, initial=MAX_RANGE), out=ranges)
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

def apf_step(state: RobotState, scan: np.ndarray, world: WorldModel2D) -> tuple[float, float]:
    """One potential-field control step: returns (v, omega).

    The force sums an attraction of magnitude ATTRACT_GAIN toward the target
    with repulsions of magnitude REPULSE_GAIN * (1/r - 1/REPULSE_RANGE)
    pointing back along each ray nearer than REPULSE_RANGE; the other rays
    add nothing and are skipped. It is summed in the robot frame, in Python
    floats, over the same fan as :func:`rangefinder_scan`; against a
    world-frame sum over every ray only the rounding differs (episodes keep
    their outcome and step count, final poses agree within 1e-8 m). omega is
    proportional to the force bearing; v saturates at V_MAX, scales with the
    nearest scan range inside D_SAFE, and is zero while the bearing exceeds
    90 degrees.
    """
    x, y = state.position.tolist()
    tx, ty = world.target.tolist()
    dx, dy = tx - x, ty - y
    dist = math.hypot(dx, dy)
    c, s = math.cos(state.heading), math.sin(state.heading)
    ax, ay = (0.0, 0.0) if dist == 0 else (ATTRACT_GAIN * dx / dist, ATTRACT_GAIN * dy / dist)
    rx = ry = 0.0
    # D_SAFE < REPULSE_RANGE, so the nearest range matters for v only when some ray repels
    d_min = math.inf
    for k, r in enumerate(scan.tolist()):
        if r < REPULSE_RANGE:
            mag = (1.0 / r - 1.0 / REPULSE_RANGE) * REPULSE_GAIN
            rx += _COS[k] * mag
            ry += _SIN[k] * mag
            if r < d_min:
                d_min = r
    fx = c * ax + s * ay - rx
    fy = c * ay - s * ax - ry
    err = 0.0 if fx == 0.0 and fy == 0.0 else wrap_angle(math.atan2(fy, fx))  # balanced: hold heading
    omega = OMEGA_GAIN * err
    v = 0.0 if abs(err) > math.pi / 2 else V_MAX * min(1.0, d_min / D_SAFE)
    return v, omega


def _goal_reached(world: WorldModel2D, state: RobotState) -> bool:
    x, y = state.position.tolist()
    tx, ty = world.target.tolist()
    return math.hypot(tx - x, ty - y) <= world.goal_radius


def run_navigation(
    world: WorldModel2D, start: RobotState, max_steps: int = MAX_STEPS, robot_radius: float = ROBOT_RADIUS
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
        scan = rangefinder_scan(state, world)
        v, omega = apf_step(state, scan, world)
        ticks_l, ticks_r = ticks_for_motion(v, omega, DT)
        state = odometry_update(state, ticks_l, ticks_r)
        clear = clearance(world, state.position)
        min_clear = min(min_clear, clear)
        times.append(step * DT)
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
        raise scene_io.SceneValidationError(f"{path}: world file declares no target")
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


def sample_clear_world(seed: int) -> tuple[WorldModel2D, RobotState]:
    """Random circle field with every passage at least 2*(ROBOT_RADIUS + D_SAFE) wide.

    Start is the origin heading +x; the target sits 7-8 m away. Circles are
    drawn one candidate at a time, and a candidate is kept only when it
    keeps the stated clearance margin from the start, the target and every
    circle kept before it, which is the precondition under which the
    controller is expected to stay collision-free. Drawing stops at three
    circles or after 500 candidates, so a world may hold fewer than three.
    """
    rng = np.random.default_rng(seed)
    margin = 2.0 * (ROBOT_RADIUS + D_SAFE)
    tx, ty = rng.uniform(7.0, 8.0), rng.uniform(-1.0, 1.0)
    kept: list[tuple[float, float, float]] = []
    attempts = 0
    # math.hypot on Python floats: np.linalg.norm on a 2-vector costs about 20 times as much
    while len(kept) < 3 and attempts < 500:
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
