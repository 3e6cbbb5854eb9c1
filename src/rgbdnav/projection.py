"""One object's detection mask and depth frame to a world-frame cloud.

Pinhole model: a pixel (u, v) with depth d maps to the camera-frame point
(X, Y, Z) = ((u - cx) * d / fx, (v - cy) * d / fy, d), which the camera pose
carries into the world frame as R @ p + t. :func:`reconstruct_object` takes
a mask through erosion, depth gathering, the z-score filter and this map in
one pass over the detection box's window.

Clouds come back column-major: :func:`back_project_pixels` and
:func:`to_world` return (N, 3) arrays whose x, y and z columns each lie
contiguous in memory, so the per-axis passes downstream (box extremes,
voxel keys) read unit-stride columns. The values are those of the row-major
``p @ R.T + t`` bit for bit; ``tests/test_projection.py`` pins that against
the BLAS in use.
"""
from __future__ import annotations

import logging

import numpy as np

from .masks import erode_mask, zscore_filter
from .types import CameraIntrinsics, CameraPose, DepthFrame, InstanceMask, ObjectCloud, PipelineConfig

logger = logging.getLogger(__name__)


def back_project_pixels(
    us: np.ndarray, vs: np.ndarray, depths: np.ndarray, intrinsics: CameraIntrinsics
) -> np.ndarray:
    """Map pixel coordinates with depths to camera-frame points, one row per pixel, column-major."""
    d = np.asarray(depths, dtype=np.float64)
    x = (np.asarray(us, dtype=np.float64) - intrinsics.cx) * d / intrinsics.fx
    y = (np.asarray(vs, dtype=np.float64) - intrinsics.cy) * d / intrinsics.fy
    return np.stack([x, y, d]).T


def project_to_pixels(points_cam: np.ndarray, intrinsics: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Forward projection u = X*fx/Z + cx, v = Y*fy/Z + cy. Callers must ensure Z > 0."""
    p = np.asarray(points_cam, dtype=np.float64).reshape(-1, 3)
    u = p[:, 0] * intrinsics.fx / p[:, 2] + intrinsics.cx
    v = p[:, 1] * intrinsics.fy / p[:, 2] + intrinsics.cy
    return u, v


def to_world(points: np.ndarray, pose: CameraPose) -> np.ndarray:
    """Apply the camera-to-world transform R @ p + t to each point; the result is column-major."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return (pose.rotation @ p.T).T + pose.translation


def to_camera(points: np.ndarray, pose: CameraPose) -> np.ndarray:
    """Inverse of :func:`to_world`: bring world points into the camera frame."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return (p - pose.translation) @ pose.rotation


def reconstruct_object(
    frame: DepthFrame,
    mask: InstanceMask,
    config: PipelineConfig = PipelineConfig(),
) -> ObjectCloud | None:
    """One pass over the detection box's window: erode, gather depths, z-filter, map to world.

    The valid (> 0) depths under the eroded mask, in row-major image order,
    are z-filtered; the kept pixels are back-projected and carried into the
    world frame. The window must lie inside the depth image. The cloud takes
    its label and score from ``mask.detection``. Returns None (a drop, not an
    error) when a step leaves no pixel, e.g. a mask that erodes away or lies
    entirely over invalid depth.

    The mask's pixels are located once, as flat indices into the window:
    depths are gathered by masking the window with the eroded bitmap, and
    only the pixels the z-filter keeps are turned into image (u, v).
    """
    detection = mask.detection
    eroded = erode_mask(mask, config.kernel_size).bitmap
    if not eroded.any():
        logger.info("frame %s: '%s' dropped (mask empty after erosion)", frame.frame_id, detection.label)
        return None
    rows, cols = detection.window
    h, w = frame.depth.shape
    if not (0 <= rows.start and rows.stop <= h and 0 <= cols.start and cols.stop <= w):
        raise ValueError(
            f"mask window rows {rows.start}..{rows.stop}, columns {cols.start}..{cols.stop} "
            f"outside depth shape {frame.depth.shape}"
        )
    depths = frame.depth[rows, cols][eroded]
    valid = depths > 0
    if not valid.any():
        logger.info("frame %s: '%s' dropped (no valid depth under mask)", frame.frame_id, detection.label)
        return None
    pixels, depths = np.flatnonzero(eroded)[valid], depths[valid].astype(np.float64)
    keep = zscore_filter(depths, config.tau)
    if len(keep) == 0:
        logger.info("frame %s: '%s' dropped (no depth left after z-filter)", frame.frame_id, detection.label)
        return None
    vs, us = np.divmod(pixels[keep], eroded.shape[1])
    points = to_world(
        back_project_pixels(us + cols.start, vs + rows.start, depths[keep], frame.intrinsics), frame.pose
    )
    return ObjectCloud(points, detection.label, detection.score, frozenset({frame.frame_id}))
