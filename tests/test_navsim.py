import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rgbdnav import navsim
from rgbdnav.navsim import (
    D_SAFE,
    FOV,
    MAX_RANGE,
    N_RAYS,
    RAY_OFFSETS,
    V_MAX,
    Circle,
    RobotState,
    Segment,
    WorldModel2D,
    apf_step,
    box_ground_target,
    clearance,
    load_world,
    odometry_update,
    rangefinder_scan,
    run_navigation,
    sample_clear_world,
    save_trajectory,
    save_world,
    ticks_for_motion,
    wrap_angle,
)
from rgbdnav.scene_io import SceneValidationError
from rgbdnav.types import Box3D

from conftest import unicycle_arc


def _state(x=0.0, y=0.0, heading=0.0):
    return RobotState(np.array([x, y]), heading)


# ---------------------------------------------------------------------------
# Reference scan and clearance: one obstacle at a time, in the world frame
# ---------------------------------------------------------------------------

def _ray_circle(origin, dirs, c):
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


def _ray_segment(origin, dirs, seg):
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


def rangefinder_scan_reference(state, world):
    angles = state.heading + np.linspace(-FOV / 2, FOV / 2, N_RAYS)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    ranges = np.full(N_RAYS, MAX_RANGE)
    for obs in world.obstacles:
        if isinstance(obs, Circle):
            t = _ray_circle(state.position, dirs, obs)
        else:
            t = _ray_segment(state.position, dirs, obs)
        ranges = np.minimum(ranges, t)
    return np.minimum(ranges, MAX_RANGE)


def point_obstacle_distance(point, obs):
    """Signed-ish clearance: distance from a point to the obstacle boundary."""
    p = np.asarray(point, dtype=np.float64)
    if isinstance(obs, Circle):
        return float(np.linalg.norm(p - obs.center) - obs.radius)
    e = obs.b - obs.a
    denom = float(e @ e)
    t = 0.0 if denom == 0 else float(np.clip((p - obs.a) @ e / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (obs.a + t * e)))


def clearance_reference(world, point):
    if not world.obstacles:
        return math.inf
    return min(point_obstacle_distance(point, o) for o in world.obstacles)


@st.composite
def scan_cases(draw):
    """A random world and pose. The structure comes from Hypothesis; the
    coordinates come from a seeded generator, so no ray grazes an obstacle
    exactly (where a hit flips to a miss under a rounding difference)."""
    kind = draw(st.sampled_from(["circles", "segments", "both", "empty"]))
    n_circles = draw(st.integers(1, 4)) if kind in ("circles", "both") else 0
    n_segments = draw(st.integers(1, 4)) if kind in ("segments", "both") else 0
    zero_length = n_segments > 0 and draw(st.booleans())
    near_circle = n_circles > 0 and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    obstacles = [Circle(rng.uniform(-4, 4, 2), float(rng.uniform(0.1, 1.0))) for _ in range(n_circles)]
    for k in range(n_segments):
        a = rng.uniform(-4, 4, 2)
        obstacles.append(Segment(a, a if zero_length and k == 0 else rng.uniform(-4, 4, 2)))
    order = rng.permutation(len(obstacles))
    world = WorldModel2D([obstacles[i] for i in order], np.array([50.0, 50.0]))
    xy = rng.uniform(-4, 4, 2)
    if near_circle:  # within 1.5 radii of a circle's centre, so often inside it
        xy = obstacles[0].center + obstacles[0].radius * rng.uniform(-1.5, 1.5, 2)
    state = _state(*xy, float(rng.uniform(-10, 10)))
    return world, state


class TestOdometry:
    def test_equal_ticks_straight(self):
        s0 = _state(heading=0.7)
        s1 = odometry_update(s0, 100.0, 100.0)
        assert s1.heading == s0.heading
        moved = s1.position - s0.position
        assert moved[1] / moved[0] == pytest.approx(math.tan(0.7))

    def test_opposite_ticks_rotate_in_place(self):
        s0 = _state()
        s1 = odometry_update(s0, -50.0, 50.0)
        assert np.array_equal(s1.position, s0.position)
        assert s1.heading != 0.0

    def test_quarter_circle_arc(self):
        # right wheel travels pi*b/2 while the left stands still: quarter
        # circle of radius b/2 around the left wheel
        s0 = _state()
        b = navsim.WHEEL_BASE
        ticks = (math.pi * b / 2) * navsim.TICKS_PER_REV / (2 * math.pi * navsim.WHEEL_RADIUS)
        s1 = odometry_update(s0, 0.0, ticks)
        assert s1.heading == pytest.approx(math.pi / 2, abs=1e-12)
        assert s1.position[0] == pytest.approx(b / 2, abs=1e-12)
        assert s1.position[1] == pytest.approx(b / 2, abs=1e-12)

    @given(
        st.floats(-0.5, 0.5),
        # exact zero plus physical turn rates; ultra-tiny omegas only probe
        # float underflow in the closed-form oracle, not the kinematics
        st.one_of(st.just(0.0), st.floats(1e-3, 1.5), st.floats(-1.5, -1e-3)),
        st.floats(-3.0, 3.0),
        st.floats(0.01, 0.2),
    )
    def test_matches_analytic_unicycle_arc(self, v, omega, theta, dt):
        s0 = _state(1.0, -2.0, theta)
        tl, tr = ticks_for_motion(v, omega, dt)
        s1 = odometry_update(s0, tl, tr)
        x, y, th = unicycle_arc(1.0, -2.0, theta, v, omega, dt)
        assert abs(s1.position[0] - x) < 1e-9
        assert abs(s1.position[1] - y) < 1e-9
        assert abs(s1.heading - th) < 1e-9


CENTRE = N_RAYS // 2  # the ray along the heading


class TestRangefinder:
    def test_empty_world_all_max_range(self):
        world = WorldModel2D([], np.array([5.0, 0.0]))
        scan = rangefinder_scan(_state(), world)
        assert np.all(scan == MAX_RANGE)

    def test_wall_one_meter_ahead(self):
        world = WorldModel2D([Segment((1.0, -5.0), (1.0, 5.0))], np.array([0.5, 3.0]))
        scan = rangefinder_scan(_state(), world)
        assert scan[CENTRE] == pytest.approx(1.0)
        assert scan[CENTRE + 5] > 1.0  # oblique rays hit farther along the wall

    def test_circle_offset_left_shortens_left_rays(self):
        world = WorldModel2D([Circle((1.5, 0.8), 0.4)], np.array([5.0, -3.0]))
        scan = rangefinder_scan(_state(), world)
        left = scan[CENTRE + 1:]  # positive angle offsets
        right = scan[:CENTRE]
        assert left.min() < right.min()

    def test_ray_circle_analytic_distance(self):
        world = WorldModel2D([Circle((2.0, 0.0), 0.5)], np.array([5.0, 3.0]))
        scan = rangefinder_scan(_state(), world)
        assert scan[CENTRE] == pytest.approx(1.5, abs=1e-9)

    def test_single_ray_points_forward(self):
        # the centre ray follows the heading, here +y
        world = WorldModel2D([Circle((0.0, 2.0), 0.5)], np.array([5.0, -3.0]))
        scan = rangefinder_scan(_state(heading=math.pi / 2), world)
        assert scan[CENTRE] == pytest.approx(1.5, abs=1e-9)

    def test_scan_soundness_against_marching_oracle(self):
        # each range must touch an obstacle boundary (or max_range) and the
        # ray must be obstacle-free before it; verified by dense marching
        rng = np.random.default_rng(13)
        for _ in range(5):
            obstacles = [Circle(rng.uniform(-3, 3, 2), float(rng.uniform(0.2, 0.7))) for _ in range(3)]
            obstacles.append(Segment(rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2)))
            target = np.array([9.0, 9.0])
            world = WorldModel2D(obstacles, target)
            state = _state(
                float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), float(rng.uniform(-3, 3))
            )
            if clearance(world, state.position) <= 0.01:
                continue
            scan = rangefinder_scan(state, world)
            for k in range(N_RAYS):
                ang = state.heading + RAY_OFFSETS[k]
                direction = np.array([math.cos(ang), math.sin(ang)])
                hit = state.position + scan[k] * direction
                if scan[k] < MAX_RANGE:
                    assert abs(clearance(world, hit)) < 1e-9
                for t in np.arange(0.005, scan[k] - 1e-6, 0.005):
                    assert clearance(world, state.position + t * direction) > -1e-9


def _circle_at(state, bearing, dist, radius):
    """A circle whose centre lies ``dist`` from the robot at ``bearing`` off its heading."""
    a = state.heading + bearing
    return Circle(state.position + dist * np.array([math.cos(a), math.sin(a)]), radius)


class TestScanWindow:
    # rangefinder_scan casts each circle only at the rays of its angular window;
    # these are the cases where that window is easy to get wrong
    POSES = [(0.0, 0.0, 0.0), (1.3, -0.7, 2.9), (-2.0, 1.1, -2.2)]

    def _check(self, state, circle):
        world = WorldModel2D([circle], np.array([50.0, 50.0]))
        scan = rangefinder_scan(state, world)
        want = rangefinder_scan_reference(state, world)
        assert np.max(np.abs(scan - want)) <= 1e-9
        return scan

    @pytest.mark.parametrize("pose", POSES)
    @pytest.mark.parametrize("bearing", [math.pi - 0.05, -math.pi + 0.05, math.pi])
    def test_window_across_the_blind_wedge(self, pose, bearing):
        # a small circle right behind: its window wraps past +-pi and no ray reaches it
        scan = self._check(_state(*pose), _circle_at(_state(*pose), bearing, 2.0, 0.5))
        assert np.all(scan == MAX_RANGE)

    @pytest.mark.parametrize("pose", POSES)
    @pytest.mark.parametrize("bearing", [math.pi - 0.05, -math.pi + 0.05, math.pi])
    def test_wide_window_across_the_blind_wedge_reaches_both_fan_edges(self, pose, bearing):
        # a large near circle behind spans more than the blind wedge, so the rays at both ends of the fan hit it
        scan = self._check(_state(*pose), _circle_at(_state(*pose), bearing, 1.0, 0.9))
        assert scan[0] < MAX_RANGE and scan[-1] < MAX_RANGE
        assert np.all(scan[CENTRE - 10:CENTRE + 11] == MAX_RANGE)

    @pytest.mark.parametrize("pose", POSES)
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_circle_straddling_a_fan_edge(self, pose, side):
        # centred on the outermost ray at +-135 degrees: half its window lies outside the fan
        scan = self._check(_state(*pose), _circle_at(_state(*pose), side * FOV / 2, 2.0, 0.4))
        edge = -1 if side > 0 else 0
        assert scan[edge] == pytest.approx(1.6, abs=1e-9)

    @pytest.mark.parametrize("pose", POSES)
    @pytest.mark.parametrize("offset", [(0.0, 0.0), (0.3, 0.2), (-0.6, 0.5)])
    def test_robot_inside_the_circle(self, pose, offset):
        # every ray leaves the circle through its far side
        state = _state(*pose)
        scan = self._check(state, Circle(state.position + np.array(offset), 1.0))
        assert np.all(scan < MAX_RANGE)

    @pytest.mark.parametrize("pose", POSES)
    @pytest.mark.parametrize("gap, hit", [(-1e-3, True), (1e-3, False)])
    def test_near_surface_at_max_range(self, pose, gap, hit):
        # the near surface just inside MAX_RANGE shortens the centre ray; just beyond it, nothing
        state = _state(*pose)
        scan = self._check(state, _circle_at(state, 0.0, MAX_RANGE + 0.5 + gap, 0.5))
        if hit:
            assert scan[CENTRE] == pytest.approx(MAX_RANGE + gap, abs=1e-9)
        else:
            assert np.all(scan == MAX_RANGE)


class TestAgainstReference:
    @given(scan_cases())
    def test_scan_matches_per_obstacle_reference(self, case):
        world, state = case
        scan = rangefinder_scan(state, world)
        want = rangefinder_scan_reference(state, world)
        assert scan.shape == want.shape == (N_RAYS,)
        assert np.max(np.abs(scan - want)) <= 1e-9

    @given(scan_cases())
    def test_clearance_matches_per_obstacle_reference(self, case):
        world, state = case
        segment_ends = [o.a for o in world.obstacles if isinstance(o, Segment)]
        for point in (state.position, world.target, *segment_ends):
            got, want = clearance(world, point), clearance_reference(world, point)
            assert got == want == math.inf or abs(got - want) <= 1e-9

    def test_zero_length_segment_is_a_point(self):
        world = WorldModel2D([Segment((1.0, 0.0), (1.0, 0.0))], np.array([5.0, 5.0]))
        assert clearance(world, np.array([1.0, 2.0])) == pytest.approx(2.0, abs=1e-12)
        scan = rangefinder_scan(_state(), world)
        assert np.array_equal(scan, rangefinder_scan_reference(_state(), world))


class TestApfStep:
    def test_target_ahead_empty_world(self):
        world = WorldModel2D([], np.array([3.0, 0.0]))
        scan = np.full(N_RAYS, MAX_RANGE)
        v, omega = apf_step(_state(), scan, world)
        assert omega == 0.0
        assert v == V_MAX

    def test_target_behind_gates_velocity(self):
        world = WorldModel2D([], np.array([-3.0, 0.0]))
        scan = np.full(N_RAYS, MAX_RANGE)
        v, omega = apf_step(_state(), scan, world)
        assert v == 0.0
        assert abs(omega) > 0.0

    def test_obstacle_at_half_safe_distance_halves_speed(self):
        # symmetric setup: two circles behind the robot's flanks, nearest
        # surface D_SAFE/2 away along the rays at +-117 degrees, target ahead.
        # Their repulsions push forward and their lateral parts cancel, so the
        # force points along the heading -> omega = 0 and v = V_MAX/2
        bearing, dist = float(RAY_OFFSETS[-5]), D_SAFE / 2 + 0.3
        circles = [Circle((dist * math.cos(b), dist * math.sin(b)), 0.3) for b in (bearing, -bearing)]
        world = WorldModel2D(circles, np.array([5.0, 0.0]))
        state = _state()
        scan = rangefinder_scan(state, world)
        assert scan.min() == pytest.approx(D_SAFE / 2)
        v, omega = apf_step(state, scan, world)
        assert omega == 0.0
        assert abs(v - V_MAX / 2) <= 1e-15

    def test_repulsion_pushes_away_from_side_obstacle(self):
        world = WorldModel2D([Circle((1.0, 0.6), 0.3)], np.array([5.0, 0.0]))
        state = _state()
        scan = rangefinder_scan(state, world)
        _, omega = apf_step(state, scan, world)
        assert omega < 0.0  # obstacle on the left pushes the heading right

    def test_speed_non_decreasing_in_clearance(self):
        world = WorldModel2D([], np.array([10.0, 0.0]))
        speeds = []
        for d in (0.1, 0.3, 0.5, 0.7, 0.79):
            scan = np.full(N_RAYS, d)
            v, _ = apf_step(_state(), scan, world)
            speeds.append(v)
            assert 0.0 <= v <= V_MAX
        assert speeds == sorted(speeds)


def sample_clear_world_reference(seed, robot_radius):
    """The draw as first written, with np.linalg.norm on 2-vectors: same rng draws, same order."""
    rng = np.random.default_rng(seed)
    margin = 2.0 * (robot_radius + D_SAFE)
    start = np.zeros(2)
    target = np.array([rng.uniform(7.0, 8.0), rng.uniform(-1.0, 1.0)])
    circles = []
    attempts = 0
    while len(circles) < 3 and attempts < 500:
        attempts += 1
        c = np.array([rng.uniform(1.5, 6.0), rng.uniform(-2.0, 2.0)])
        r = rng.uniform(0.25, 0.45)
        if np.linalg.norm(start - c) - r < margin or np.linalg.norm(target - c) - r < margin:
            continue
        if any(np.linalg.norm(c - other.center) - r - other.radius < margin for other in circles):
            continue
        circles.append(Circle(c, r))
    return WorldModel2D(circles, target), RobotState(start, 0.0)


class TestSampleClearWorld:
    # seeds 0-199, and the SeedSequence([seed, j]) seeds a benchmark run at seeds 0-3 samples its worlds from
    SEEDS = list(range(200)) + [int(np.random.SeedSequence([s, j]).generate_state(1)[0]) for s in range(4) for j in range(30)]

    # the radius sample_clear_world keeps its passages clear for
    @pytest.mark.parametrize("robot_radius", [navsim.ROBOT_RADIUS])
    def test_matches_norm_reference(self, tmp_path, robot_radius):
        for seed in self.SEEDS:
            (world, start), (want, want_start) = (
                sample_clear_world(seed), sample_clear_world_reference(seed, robot_radius)
            )
            save_world(world, tmp_path / "got.txt")
            save_world(want, tmp_path / "want.txt")
            assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes(), seed
            assert np.array_equal(world.target, want.target)
            for got_c, want_c in zip(world.obstacles, want.obstacles):
                assert np.array_equal(got_c.center, want_c.center) and got_c.radius == want_c.radius
            assert np.array_equal(start.position, want_start.position) and start.heading == want_start.heading


# (fixture name or sample_clear_world seed, outcome, steps, final pose), 1e-10 resolution
GOLDEN_EPISODES = [
    ("column", "reached", 250, (2.2828460777, 0.1517070018, -0.7235239095)),
    ("offset", "reached", 212, (2.2152511670, -1.5146063087, 0.0433461925)),
    ("open", "reached", 109, (2.7250000000, 0.0000000000, 0.0000000000)),
    (0, "reached", 295, (7.3478595858, -0.4157272949, -0.1522142115)),
    (1, "reached", 291, (7.2216059693, 0.8607526285, 0.1375553795)),
    (2, "reached", 291, (6.9807628914, -0.3958032110, -0.0124970445)),
    (3, "reached", 317, (6.8145419492, -0.6141593578, 0.3123570607)),
    (4, "reached", 307, (7.6566050608, 0.0133670366, 0.0328296358)),
    (5, "reached", 303, (7.5206750858, 0.5852784062, 0.1012378900)),
    (6, "reached", 325, (7.2663651242, -0.2439416603, -0.2573448131)),
    (7, "reached", 296, (7.3389627662, 0.7579389691, 0.1287879926)),
    (8, "reached", 296, (7.0444743268, 0.8757623664, 0.3381507567)),
    (9, "reached", 305, (7.5765556231, -0.4099293447, -0.0497608751)),
    (10, "reached", 311, (7.6869834092, -0.4895513082, -0.3281335912)),
    (11, "reached", 275, (6.8525830268, -0.0305840125, 0.1040602768)),
    (12, "reached", 283, (6.9825122959, 0.7950300045, 0.3402178274)),
    (13, "reached", 315, (7.5866376755, 0.6938064136, 0.0642401824)),
    (14, "reached", 302, (7.5393003386, -0.2739857444, -0.0145446255)),
    (15, "reached", 297, (7.3981753957, 0.5991935673, 0.1096386772)),
    (16, "reached", 292, (7.2751861116, -0.0930888757, -0.1506962858)),
    (17, "reached", 345, (7.5940845932, -0.5551262757, -0.4549665001)),
    (18, "reached", 286, (7.1147054162, 0.3669863279, 0.2226719714)),
    (19, "reached", 288, (7.1295158269, 0.7931103303, 0.1988430519)),
    (20, "reached", 288, (6.9999657370, -0.0781825383, -0.0093362137)),
    (21, "reached", 300, (7.4970656423, 0.2051246543, 0.0232022282)),
    (22, "reached", 290, (7.0988483727, -0.5181674293, -0.2987333322)),
    (23, "reached", 297, (7.4167355138, 0.2879909458, -0.0140649494)),
    (24, "reached", 331, (7.0777124558, -0.3200427807, 0.4736409275)),
    (25, "reached", 281, (6.8765508206, -0.9072881201, -0.3129784481)),
    (26, "reached", 295, (7.1960341601, -0.5701636099, 0.1301389863)),
    (27, "reached", 297, (7.4161911730, -0.3573614118, -0.0531276226)),
    (28, "reached", 306, (7.5674115480, 0.7118986982, 0.2007584158)),
    (29, "reached", 273, (6.7646687291, 0.0640712099, -0.1758941294)),
]


class TestRunNavigation:
    def test_open_world_path_close_to_straight_line(self):
        world = WorldModel2D([], np.array([3.0, 0.0]), goal_radius=0.1)
        traj = run_navigation(world, _state())
        assert traj.outcome == "reached"
        assert abs(traj.path_length - 3.0) / 3.0 < 0.05

    def test_goal_at_start_reached_in_zero_steps(self):
        world = WorldModel2D([], np.array([0.05, 0.0]), goal_radius=0.3)
        traj = run_navigation(world, _state())
        assert traj.outcome == "reached"
        assert len(traj.times) == 1

    def test_step_limit_times_out(self):
        world = WorldModel2D([], np.array([50.0, 0.0]), goal_radius=0.1)
        traj = run_navigation(world, _state(), max_steps=5)
        assert traj.outcome == "timeout"

    def test_column_scenario_reaches_with_clearance(self):
        world, start = navsim.scenario_column()
        traj = run_navigation(world, start)
        assert traj.outcome == "reached"
        assert traj.min_clearance > 0.4

    def test_offset_scenario(self):
        world, start = navsim.scenario_offset_target()
        traj = run_navigation(world, start)
        assert traj.outcome == "reached"
        assert traj.min_clearance > 0.4

    def test_sampled_worlds_stay_collision_free(self):
        for seed in range(10):
            world, start = sample_clear_world(seed)
            traj = run_navigation(world, start)
            assert traj.outcome == "reached"
            assert traj.min_clearance > 0.4

    @pytest.mark.parametrize("key, outcome, steps, pose", GOLDEN_EPISODES, ids=lambda v: str(v))
    def test_golden_episode(self, key, outcome, steps, pose):
        # outcome, step count and final (x, y, heading) recorded from the
        # per-obstacle world-frame implementation this one replaced
        world, start = navsim.SCENARIOS[key]() if isinstance(key, str) else sample_clear_world(key)
        traj = run_navigation(world, start)
        assert traj.outcome == outcome
        assert len(traj.times) - 1 == steps
        assert np.max(np.abs(traj.poses[-1] - pose)) <= 1e-8

    @pytest.mark.parametrize("key", ["open", "column", "offset", 0, 1])
    def test_one_code_path(self, key):
        # run_navigation is the hand-written loop over the public step functions, bit for bit
        world, start = navsim.SCENARIOS[key]() if isinstance(key, str) else sample_clear_world(key)
        state = start
        poses, commands, d_mins = [(*state.position, state.heading)], [(0.0, 0.0)], [clearance(world, state.position)]
        for _ in range(navsim.MAX_STEPS):
            if math.dist(state.position, world.target) <= world.goal_radius:
                break
            scan = rangefinder_scan(state, world)
            v, omega = apf_step(state, scan, world)
            state = odometry_update(state, *ticks_for_motion(v, omega, navsim.DT))
            poses.append((*state.position, state.heading))
            commands.append((v, omega))
            d_mins.append(scan.min())
            if clearance(world, state.position) < navsim.ROBOT_RADIUS:
                break
        traj = run_navigation(world, start)
        assert traj.outcome == "reached"
        for got, want in ((traj.poses, poses), (traj.commands, commands), (traj.d_min, d_mins)):
            assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()

    def test_invalid_max_steps(self):
        world = WorldModel2D([], np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            run_navigation(world, _state(), max_steps=0)

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_invalid_robot_radius(self, radius):
        # clearance is never negative, so a radius <= 0 could never report a collision
        world = WorldModel2D([], np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="robot_radius must be positive"):
            run_navigation(world, _state(), robot_radius=radius)


NAN = float("nan")
INF = float("inf")


class TestNonFiniteRejected:
    # every positivity check is written "not x > 0", so NaN fails it too
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Circle((1.0, 0.6), NAN),
            lambda: Circle((1.0, 0.6), 0.0),
            lambda: Circle((NAN, 0.6), 0.3),
            lambda: Circle((INF, 0.6), 0.3),
            lambda: Segment((0.0, 0.0), (NAN, 1.0)),
            lambda: RobotState(np.array([NAN, 0.0]), 0.0),
            lambda: RobotState(np.array([0.0, 0.0]), NAN),
            lambda: WorldModel2D([], np.array([1.0, 0.0]), goal_radius=NAN),
            lambda: WorldModel2D([], np.array([1.0, INF])),
            lambda: run_navigation(WorldModel2D([], np.array([1.0, 0.0])), _state(), max_steps=NAN),
            lambda: run_navigation(WorldModel2D([], np.array([1.0, 0.0])), _state(), robot_radius=NAN),
        ],
        ids=[
            "circle_radius_nan", "circle_radius_zero", "circle_centre_nan", "circle_centre_inf", "segment_nan",
            "start_nan", "heading_nan", "goal_radius_nan", "target_inf", "max_steps_nan", "robot_radius_nan",
        ],
    )
    def test_rejected(self, build):
        with pytest.raises(ValueError):
            build()


class TestWorldFiles:
    def test_round_trip(self, tmp_path):
        world = WorldModel2D(
            [Circle((1.0, 2.0), 0.5), Segment((0.0, 0.0), (3.0, 0.0))],
            np.array([4.0, 4.0]),
            goal_radius=0.25,
        )
        save_world(world, tmp_path / "w.txt")
        back = load_world(tmp_path / "w.txt")
        assert back.goal_radius == 0.25
        assert np.array_equal(back.target, world.target)
        assert isinstance(back.obstacles[0], Circle)
        assert isinstance(back.obstacles[1], Segment)

    def test_obstacles_cannot_change_after_construction(self):
        given_list = [Circle((1.0, 2.0), 0.5), Segment((0.0, 0.0), (3.0, 0.0))]
        world = WorldModel2D(given_list, np.array([4.0, 4.0]))
        before = world.geometry
        given_list.append(Circle((4.0, 4.0), 1.0))  # the caller's list is not the world's
        assert isinstance(world.obstacles, tuple) and len(world.obstacles) == 2
        with pytest.raises(AttributeError):
            world.obstacles.append(Circle((4.0, 4.0), 1.0))
        with pytest.raises(TypeError):
            world.obstacles[0] = Circle((4.0, 4.0), 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            world.obstacles = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            world.obstacles[0].radius = 3.0
        with pytest.raises(ValueError, match="read-only"):
            world.obstacles[0].center[0] = 4.0
        with pytest.raises(ValueError, match="read-only"):
            world.obstacles[1].b[0] = 9.0
        with pytest.raises(ValueError, match="read-only"):
            world.geometry.starts[0, 0] = 4.0
        assert world.geometry is before
        assert clearance(world, np.array([4.0, 4.0])) == pytest.approx(math.hypot(3.0, 2.0) - 0.5)

    def test_target_inside_obstacle_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            WorldModel2D([Circle((0.0, 0.0), 1.0)], np.array([0.2, 0.0]))

    def test_missing_target_rejected(self, tmp_path):
        (tmp_path / "w.txt").write_text("circle 0 0 1\n")
        with pytest.raises(SceneValidationError, match="declares no target"):
            load_world(tmp_path / "w.txt")

    def test_trajectory_export(self, tmp_path):
        world = WorldModel2D([], np.array([1.0, 0.0]), goal_radius=0.2)
        traj = run_navigation(world, _state())
        save_trajectory(traj, tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0].startswith("# outcome=reached")
        assert lines[1] == "t,x,y,theta,v,omega,d_min"
        assert len(lines) == len(traj.times) + 2


class TestHelpers:
    def test_box_ground_target_drops_z(self):
        box = Box3D(np.array([1.0, 2.0, 0.0]), np.array([3.0, 4.0, 2.0]))
        assert np.array_equal(box_ground_target(box), [2.0, 3.0])

    @given(st.floats(-50.0, 50.0))
    def test_wrap_angle_range(self, a):
        w = wrap_angle(a)
        assert -math.pi <= w < math.pi
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)

    def test_clearance_empty_world(self):
        world = WorldModel2D([], np.array([1.0, 1.0]))
        assert clearance(world, np.zeros(2)) == math.inf
