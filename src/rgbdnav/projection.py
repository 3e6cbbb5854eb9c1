"""Back-projection of per-object depths into world-frame clouds.

Pinhole model: a pixel (u, v) with depth d maps to the camera-frame point
(X, Y, Z) = ((u - cx) * d / fx, (v - cy) * d / fy, d), which the camera pose
carries into the world frame as R @ p + t.
"""
from __future__ import annotations

import logging

import numpy as np

from .masks import InstanceMask, IsolatedDepth, StructuringElement, erode_mask, isolate_depth, zscore_filter
from .types import CameraIntrinsics, CameraPose, DepthFrame, ObjectCloud, PipelineConfig

logger = logging.getLogger(__name__)


def back_project_pixels(
    us: np.ndarray, vs: np.ndarray, depths: np.ndarray, intrinsics: CameraIntrinsics
) -> np.ndarray:
    """Map pixel coordinates with depths to camera-frame points, one row per pixel."""
    d = np.asarray(depths, dtype=np.float64)
    x = (np.asarray(us, dtype=np.float64) - intrinsics.cx) * d / intrinsics.fx
    y = (np.asarray(vs, dtype=np.float64) - intrinsics.cy) * d / intrinsics.fy
    return np.column_stack([x, y, d])


def back_project(depths: IsolatedDepth, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Back-project an isolated depth map; returns an (N, 3) camera-frame array."""
    return back_project_pixels(depths.us, depths.vs, depths.depths, intrinsics)


def project_to_pixels(points_cam: np.ndarray, intrinsics: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Forward projection u = X*fx/Z + cx, v = Y*fy/Z + cy. Callers must ensure Z > 0."""
    p = np.asarray(points_cam, dtype=np.float64).reshape(-1, 3)
    u = p[:, 0] * intrinsics.fx / p[:, 2] + intrinsics.cx
    v = p[:, 1] * intrinsics.fy / p[:, 2] + intrinsics.cy
    return u, v


def to_world(points: np.ndarray, pose: CameraPose) -> np.ndarray:
    """Apply the camera-to-world transform R @ p + t to each point."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return p @ pose.rotation.T + pose.translation


def to_camera(points: np.ndarray, pose: CameraPose) -> np.ndarray:
    """Inverse of :func:`to_world`: bring world points into the camera frame."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return (p - pose.translation) @ pose.rotation


def reconstruct_object(
    frame: DepthFrame,
    mask: InstanceMask,
    config: PipelineConfig = PipelineConfig(),
) -> ObjectCloud | None:
    """Run erode -> isolate -> z-filter -> back-project -> world for one object.

    The cloud takes its label and score from ``mask.detection``. Returns None
    (a drop, not an error) when any stage yields an empty set, e.g. a mask
    that erodes away or lies entirely over invalid depth.
    """
    detection = mask.detection
    kernel = StructuringElement.box(config.kernel_size)
    eroded = erode_mask(mask, kernel)
    if not eroded.bitmap.any():
        logger.info("frame %s: '%s' dropped (mask empty after erosion)", frame.frame_id, detection.label)
        return None
    isolated = isolate_depth(frame, eroded)
    if len(isolated) == 0:
        logger.info("frame %s: '%s' dropped (no valid depth under mask)", frame.frame_id, detection.label)
        return None
    filtered = zscore_filter(isolated, config.tau)
    if len(filtered) == 0:
        logger.info("frame %s: '%s' dropped (no depth left after z-filter)", frame.frame_id, detection.label)
        return None
    cam_points = back_project(filtered, frame.intrinsics)
    world_points = to_world(cam_points, frame.pose)
    return ObjectCloud(world_points, detection.label, detection.score, frozenset({frame.frame_id}))
