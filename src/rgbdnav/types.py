"""Core domain types shared across the geometry pipeline.

World frame is right-handed with z up (ground plane = xy). Camera frame is
x right, y down, z forward; depth values are the camera-frame z coordinate
in meters, 0 marking invalid pixels. 2D boxes are half-open pixel rectangles
[x1, x2) x [y1, y2): an integer pixel (u, v) is inside iff x1 <= u < x2 and
y1 <= v < y2. Those pixels form the box's window, rows ceil(y1)..ceil(y2)
and columns ceil(x1)..ceil(x2); an instance mask's bitmap covers exactly the
window of its detection box, not the whole image.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

ROTATION_TOL = 1e-6
# Edge of the voxel grid instances are scored on, in meters (``eval --voxel-size``).
EVAL_VOXEL_SIZE = 0.02


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole calibration: focal lengths and principal point, in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.width > 0 and self.height > 0):
            raise ValueError(f"image size must be positive, got width={self.width} height={self.height}")
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError(f"focal lengths must be positive and finite, got fx={self.fx} fy={self.fy}")
        if not (0 <= self.cx < self.width):
            raise ValueError(f"principal point cx={self.cx} outside [0, {self.width})")
        if not (0 <= self.cy < self.height):
            raise ValueError(f"principal point cy={self.cy} outside [0, {self.height})")


@dataclass(frozen=True)
class CameraPose:
    """Camera-to-world rigid transform: world_point = rotation @ cam_point + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if not np.allclose(r.T @ r, np.eye(3), atol=ROTATION_TOL):
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > ROTATION_TOL:
            raise ValueError(f"rotation determinant {np.linalg.det(r):.9f} != +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "CameraPose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "CameraPose":
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError(f"pose matrix must be 4x4, got {m.shape}")
        if not np.allclose(m[3], [0.0, 0.0, 0.0, 1.0], atol=1e-9):
            raise ValueError(f"pose matrix last row must be [0 0 0 1], got {m[3]}")
        return cls(m[:3, :3], m[:3, 3])

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m


@dataclass(frozen=True)
class DepthFrame:
    """One aligned depth view: H x W depths in meters plus calibration and pose."""

    frame_id: str
    depth: np.ndarray
    intrinsics: CameraIntrinsics
    pose: CameraPose


@dataclass(frozen=True)
class Detection2D:
    """A scored, labeled 2D box (x1, y1, x2, y2) in pixel coordinates."""

    box: tuple[float, float, float, float]
    score: float
    label: str

    def __post_init__(self):
        x1, y1, x2, y2 = self.box
        if not (x1 < x2 and y1 < y2):
            raise ValueError(f"degenerate box {self.box}")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score {self.score} outside [0, 1]")

    @property
    def window(self) -> tuple[slice, slice]:
        """Row and column slices of the pixels inside the box: ceil(y1)..ceil(y2), ceil(x1)..ceil(x2)."""
        x1, y1, x2, y2 = (math.ceil(c) for c in self.box)
        return slice(y1, y2), slice(x1, x2)


@dataclass(frozen=True)
class InstanceMask:
    """A Detection2D with its pixel bitmap: the one record per detection.

    The bitmap covers the detection box's window (:attr:`Detection2D.window`):
    ``bitmap[0, 0]`` is image pixel (ceil(x1), ceil(y1)), and every pixel
    outside the box is unset by construction.
    """

    bitmap: np.ndarray
    detection: Detection2D

    def __post_init__(self):
        rows, cols = self.detection.window
        window = (rows.stop - rows.start, cols.stop - cols.start)
        if np.shape(self.bitmap) != window:
            raise ValueError(
                f"bitmap shape {np.shape(self.bitmap)} does not match the {window} window "
                f"of detection box {self.detection.box}"
            )


@dataclass(frozen=True)
class Box3D:
    """Axis-aligned world-frame box given by componentwise min/max corners."""

    min_corner: np.ndarray
    max_corner: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.min_corner, dtype=np.float64).reshape(3)
        hi = np.asarray(self.max_corner, dtype=np.float64).reshape(3)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError(f"box corners must be finite, got {lo} and {hi}")
        if np.any(lo > hi):
            raise ValueError(f"min corner {lo} exceeds max corner {hi}")
        object.__setattr__(self, "min_corner", lo)
        object.__setattr__(self, "max_corner", hi)

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.min_corner + self.max_corner)


@dataclass(frozen=True)
class ObjectCloud:
    """World-frame points for one object instance: the one record per instance.

    The points are never empty, so the instance's 3D box is always defined.
    Ground truth is held as voxels instead (:class:`GroundTruth`).
    """

    points: np.ndarray
    label: str
    score: float
    source_frames: frozenset[str] = frozenset()

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if pts.shape[0] == 0:
            raise ValueError(f"cloud '{self.label}' has no points")
        if not np.all(np.isfinite(pts)):
            raise ValueError(f"non-finite coordinates in cloud '{self.label}'")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "source_frames", frozenset(self.source_frames))

    @functools.cached_property
    def box(self) -> Box3D:
        """The axis-aligned box of the points: their componentwise min and max."""
        return Box3D(self.points.min(axis=0), self.points.max(axis=0))


@dataclass(frozen=True)
class GroundTruth:
    """One ground-truth instance as the voxels it occupies: the one record per GT instance.

    ``keys`` are the packed voxel keys (``fusion.voxel_keys``) of its points on
    a grid of edge ``voxel_size``: never empty, and checked by
    :func:`check_voxel_keys`. Anything else raises ValueError.
    """

    label: str
    keys: np.ndarray
    voxel_size: float

    def __post_init__(self):
        check_voxel_keys(self.keys, f"ground truth '{self.label}'")
        if not self.keys.size:
            raise ValueError(f"ground truth '{self.label}' occupies no voxel")


def check_voxel_keys(keys: np.ndarray, owner: str) -> None:
    """Raise ValueError naming ``owner`` unless ``keys`` is a 1-D int64 array, strictly increasing.

    IoU is taken over keys assumed sorted and unique: repeated or unsorted
    keys would give a wrong IoU, not an error.
    """
    if not (isinstance(keys, np.ndarray) and keys.ndim == 1 and keys.dtype == np.int64):
        got = f"{keys.dtype} array of shape {keys.shape}" if isinstance(keys, np.ndarray) else type(keys).__name__
        raise ValueError(f"{owner} keys must be a 1-D int64 array, got {got}")
    if not np.all(keys[1:] > keys[:-1]):
        raise ValueError(f"{owner} keys are not strictly increasing")


def check_voxel_size(voxel_size: float) -> None:
    """Raise ValueError unless the voxel edge length is positive and finite."""
    if not voxel_size > 0:
        raise ValueError(f"voxel_size must be positive, got {voxel_size}")
    if not math.isfinite(voxel_size):
        raise ValueError(f"voxel_size must be finite, got {voxel_size}")


def check_kernel_size(size: int) -> None:
    """Raise ValueError unless the erosion square's side is odd and positive, so the square has a center."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel_size must be odd and >= 1, got {size}")


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for per-view reconstruction and cross-view fusion."""

    tau: float = 2.0
    kernel_size: int = 3
    merge_threshold: float = 0.8
    voxel_size: float = 0.02

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        check_kernel_size(self.kernel_size)
        if not (0.0 < self.merge_threshold <= 1.0):
            raise ValueError(f"merge_threshold must be in (0, 1], got {self.merge_threshold}")
        check_voxel_size(self.voxel_size)
