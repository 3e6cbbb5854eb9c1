import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from rgbdnav import oracle, scene_io
from rgbdnav.evaluation import KeyedPrediction
from rgbdnav.fusion import voxel_keys
from rgbdnav.projection import back_project_pixels, to_world
from rgbdnav.types import VOXEL_SIZE, Box3D, GroundTruth, ObjectCloud


def random_rotation(rng) -> np.ndarray:
    """Uniform-ish random rotation from a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def erosion_oracle(bitmap: np.ndarray, selem: np.ndarray) -> np.ndarray:
    """Per-pixel double loop applying the erosion definition directly."""
    h, w = bitmap.shape
    kh, kw = selem.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((h, w), dtype=bool)
    for i in range(h):
        for j in range(w):
            ok = True
            for di in range(kh):
                for dj in range(kw):
                    if not selem[di, dj]:
                        continue
                    ii, jj = i + di - ph, j + dj - pw
                    if ii < 0 or ii >= h or jj < 0 or jj >= w or not bitmap[ii, jj]:
                        ok = False
                        break
                if not ok:
                    break
            out[i, j] = ok
    return out


def dilation_oracle(bitmap: np.ndarray, selem: np.ndarray) -> np.ndarray:
    """Per-pixel double loop: a pixel is set when any set offset of selem lands on a set pixel."""
    h, w = bitmap.shape
    kh, kw = selem.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((h, w), dtype=bool)
    for i in range(h):
        for j in range(w):
            for di in range(kh):
                for dj in range(kw):
                    ii, jj = i + di - ph, j + dj - pw
                    if selem[di, dj] and 0 <= ii < h and 0 <= jj < w and bitmap[ii, jj]:
                        out[i, j] = True
    return out


def full_image_bitmap(mask, shape) -> np.ndarray:
    """An instance mask's box-window bitmap pasted into an all-unset image of the given shape."""
    out = np.zeros(shape, dtype=bool)
    out[mask.detection.window] = mask.bitmap
    return out


def zscore_keep_oracle(values, tau: float) -> list[int]:
    """Indices kept by the z-score rule, computed with plain Python arithmetic.

    Fewer than 3 values, or values all equal, keep every index.
    """
    n = len(values)
    if n < 3 or min(values) == max(values):
        return list(range(n))
    mu = sum(values) / n
    sigma = (sum((v - mu) ** 2 for v in values) / n) ** 0.5
    return [i for i, v in enumerate(values) if abs(v - mu) / sigma < tau]


def zscore_rounding_decides(values, tau: float) -> bool:
    """Whether float rounding alone decides the z-score rule on these values.

    True when, in exact arithmetic, some value's z-score equals tau. The
    outcome then depends on the order of summation, which differs between
    numpy's pairwise sum and plain Python's. Equal values never qualify:
    both sides keep them all before taking a mean.
    """
    n = len(values)
    if n < 3 or min(values) == max(values):
        return False
    exact = [Fraction(v) for v in values]
    mu = sum(exact) / n
    var = sum((v - mu) ** 2 for v in exact) / n
    return any((v - mu) ** 2 == Fraction(tau) ** 2 * var for v in exact)


def monte_carlo_iou(box_a, box_b, n: int, rng) -> float:
    """Volume-sampling IoU estimate over the bounding box of the union."""
    lo = np.minimum(box_a.min_corner, box_b.min_corner)
    hi = np.maximum(box_a.max_corner, box_b.max_corner)
    pts = rng.uniform(lo, hi, size=(n, 3))
    in_a = np.all((pts >= box_a.min_corner) & (pts <= box_a.max_corner), axis=1)
    in_b = np.all((pts >= box_b.min_corner) & (pts <= box_b.max_corner), axis=1)
    union = int(np.count_nonzero(in_a | in_b))
    if union == 0:
        return 0.0
    return int(np.count_nonzero(in_a & in_b)) / union


# Offsets inside a cell, in cells: exactly on the lower boundary (twice as
# likely), mid-cell, just below the upper boundary, just below the lower one.
_CELL_OFFSETS = st.sampled_from([0.0, 0.0, 0.5, 0.999, -1e-9])


@st.composite
def voxel_pools(draw, span: int, max_points: int = 12) -> np.ndarray:
    """Distinct-ish points at cells in [-span, span] of the voxel grid, many exactly on a voxel boundary."""
    cells = st.integers(-span, span)
    rows = draw(
        st.lists(st.tuples(cells, cells, cells, _CELL_OFFSETS, _CELL_OFFSETS, _CELL_OFFSETS),
                 min_size=1, max_size=max_points)
    )
    return np.array([[(c + f) * VOXEL_SIZE for c, f in zip(r[:3], r[3:])] for r in rows])


@st.composite
def pool_clouds(draw, pool: np.ndarray, max_points: int = 30) -> np.ndarray:
    """Rows drawn from ``pool`` with repetition, so duplicate points are common."""
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=max_points))
    return pool[picks]


def gt_points_reference_from_ids(scene_dir) -> list[ObjectCloud]:
    """Ground truth as points, one ObjectCloud (score 1.0) per label, all frames held at once.

    The points of instance k are the pixels with id k + 1 back-projected with
    the frame's saved depth and pose: frames in id order, pixels in row-major
    order within a frame, one back-projection per (frame, instance) as
    ``scene_io.load_gt_instances`` makes them before keying them.
    """
    root = Path(scene_dir)
    labels = scene_io.load_gt_labels(root)
    intr, depth_scale = scene_io.load_intrinsics(root / "intrinsics.txt")
    frame_ids = sorted(p.stem for p in (root / "gt" / "ids").glob("*.pgm"))
    points = [[] for _ in labels]
    for frame_id in frame_ids:
        ids = scene_io.load_gt_ids(root, frame_id, intr, len(labels))
        depth = scene_io._load_depth(root / "frames" / f"{frame_id}.depth.pgm", frame_id, intr, depth_scale)
        pose = scene_io._load_pose(root / "frames" / f"{frame_id}.pose.txt", frame_id)
        vs, us = np.nonzero(ids)
        owner = ids[vs, us]
        for k in range(len(labels)):
            mine = owner == k + 1
            ku, kv = us[mine], vs[mine]
            points[k].append(to_world(back_project_pixels(ku, kv, depth[kv, ku], intr), pose))
    return [ObjectCloud(np.vstack(pts), label, 1.0) for label, pts in zip(labels, points)]


def keyed_gt(clouds) -> list[GroundTruth]:
    """Ground-truth clouds as evaluation.evaluate takes them: each cloud's voxel keys."""
    return [GroundTruth(c.label, np.unique(voxel_keys(c.points))) for c in clouds]


def keyed_scene(pred, gt) -> tuple[list[KeyedPrediction], list[GroundTruth]]:
    """One (predictions, ground truth) scene of clouds as evaluation.evaluate takes it, both keyed."""
    return [KeyedPrediction.of(c) for c in pred], keyed_gt(gt)


def unicycle_arc(x: float, y: float, theta: float, v: float, omega: float, dt: float):
    """Closed-form constant-(v, omega) pose integration over one interval."""
    if omega == 0.0:
        return x + v * dt * np.cos(theta), y + v * dt * np.sin(theta), theta
    r = v / omega
    return (
        x + r * (np.sin(theta + omega * dt) - np.sin(theta)),
        y - r * (np.cos(theta + omega * dt) - np.cos(theta)),
        theta + omega * dt,
    )


@pytest.fixture(scope="session")
def oracle_scene_dir(tmp_path_factory):
    """The 3-object 20-view synthetic scene with noise-free oracle detections.

    Session-scoped and treated as read-only; tests that rewrite detections
    must copy it first (see mutable_scene_dir).
    """
    scene_dir = tmp_path_factory.mktemp("fixture") / "scene"
    oracle.make_synthetic_scene(
        oracle.default_box_layout(),
        oracle.default_trajectory(20),
        oracle.default_intrinsics(),
        scene_dir,
    )
    return scene_dir


@pytest.fixture
def mutable_scene_dir(oracle_scene_dir, tmp_path):
    dest = tmp_path / "scene"
    shutil.copytree(oracle_scene_dir, dest)
    return dest


# The five-box bench layout, the scene perfbench times, rendered at 640x480.
BENCH_LAYOUT = [
    oracle.LabeledBox("box_a", Box3D(np.array([-0.9, -0.6, 0.0]), np.array([-0.4, -0.15, 0.4]))),
    oracle.LabeledBox("box_b", Box3D(np.array([0.3, -0.5, 0.0]), np.array([0.8, -0.05, 0.42]))),
    oracle.LabeledBox("box_c", Box3D(np.array([-0.25, 0.45, 0.0]), np.array([0.25, 0.95, 0.38]))),
    oracle.LabeledBox("box_d", Box3D(np.array([-0.15, -0.25, 0.0]), np.array([0.2, 0.1, 0.45]))),
    oracle.LabeledBox("box_e", Box3D(np.array([-1.0, 0.35, 0.0]), np.array([-0.55, 0.8, 0.35]))),
]


class SynthScene:
    """A synthesized scene directory together with the inputs that rendered it."""

    def __init__(self, root, boxes, views, intrinsics):
        self.boxes = boxes
        self.trajectory = oracle.default_trajectory(views)
        self.intrinsics = intrinsics
        self.scene_dir = root / "scene"
        oracle.make_synthetic_scene(boxes, self.trajectory, intrinsics, self.scene_dir)


@pytest.fixture(scope="session")
def layout_scenes(tmp_path_factory):
    """Noise-free scenes of the default layout at 8 views and of the bench layout at 20 views."""
    return [
        SynthScene(tmp_path_factory.mktemp("default8"), oracle.default_box_layout(), 8, oracle.default_intrinsics()),
        SynthScene(tmp_path_factory.mktemp("bench"), BENCH_LAYOUT, 20, oracle.default_intrinsics(640, 480, 580.0)),
    ]
