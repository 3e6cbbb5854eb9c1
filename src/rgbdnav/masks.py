"""Mask refinement and per-object depth extraction.

Erosion shrinks a detection mask so boundary pixels that bleed onto the
background stop contributing depth; the z-score filter then rejects the
remaining depth outliers. All functions are pure and safe to run per
object in parallel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import DepthFrame, InstanceMask


@dataclass(frozen=True)
class StructuringElement:
    """Binary neighborhood for erosion; default is the full 3x3 block."""

    bitmap: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bitmap, dtype=bool)
        if b.ndim != 2 or b.shape[0] % 2 == 0 or b.shape[1] % 2 == 0:
            raise ValueError(f"structuring element must be 2D with odd sides, got {b.shape}")
        if not b[b.shape[0] // 2, b.shape[1] // 2]:
            raise ValueError("structuring element center must be set")
        object.__setattr__(self, "bitmap", b)

    @classmethod
    def box(cls, size: int = 3) -> "StructuringElement":
        return cls(np.ones((size, size), dtype=bool))


@dataclass(frozen=True)
class IsolatedDepth:
    """Sparse pixel->depth map for one object: parallel (u, v, depth) arrays."""

    us: np.ndarray
    vs: np.ndarray
    depths: np.ndarray

    def __len__(self) -> int:
        return int(self.depths.shape[0])


def erode_bitmap(bitmap: np.ndarray, selem: np.ndarray) -> np.ndarray:
    """Binary erosion; out-of-bounds neighbors count as unset, so borders erode away."""
    bitmap = np.asarray(bitmap, dtype=bool)
    selem = np.asarray(selem, dtype=bool)
    h, w = bitmap.shape
    ph, pw = selem.shape[0] // 2, selem.shape[1] // 2
    padded = np.zeros((h + 2 * ph, w + 2 * pw), dtype=bool)
    padded[ph:ph + h, pw:pw + w] = bitmap
    out = np.ones((h, w), dtype=bool)
    for di, dj in np.argwhere(selem):
        out &= padded[di:di + h, dj:dj + w]
    return out


def erode_mask(mask: InstanceMask, kernel: StructuringElement | None = None) -> InstanceMask:
    """Erode an instance mask; the result is a subset of the input (may be empty).

    Eroding the box window alone is exact: pixels outside the box are unset.
    """
    if kernel is None:
        kernel = StructuringElement.box(3)
    return InstanceMask(erode_bitmap(mask.bitmap, kernel.bitmap), mask.detection)


def isolate_depth(frame: DepthFrame, eroded: InstanceMask) -> IsolatedDepth:
    """Collect the valid (> 0) depths under the mask as a sparse pixel map.

    Pixels come in row-major image order; the mask's window must lie inside
    the depth image.
    """
    rows, cols = eroded.detection.window
    h, w = frame.depth.shape
    if not (0 <= rows.start and rows.stop <= h and 0 <= cols.start and cols.stop <= w):
        raise ValueError(
            f"mask window rows {rows.start}..{rows.stop}, columns {cols.start}..{cols.stop} "
            f"outside depth shape {frame.depth.shape}"
        )
    vs, us = np.nonzero(eroded.bitmap)
    vs += rows.start
    us += cols.start
    d = frame.depth[vs, us]
    valid = d > 0
    return IsolatedDepth(us[valid], vs[valid], d[valid].astype(np.float64))


def zscore_filter(depths: IsolatedDepth, tau: float = 2.0) -> IsolatedDepth:
    """Keep entries with |d - mean| / std < tau.

    The mean and population standard deviation are taken over the input
    depths once; the kept set is decided against those original statistics.
    Degenerate inputs (fewer than 3 entries, or zero spread) pass through
    unchanged so small uniform objects survive.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    n = len(depths)
    if n < 3:
        return depths
    mu = float(np.mean(depths.depths))
    sigma = float(np.std(depths.depths))
    if sigma == 0.0:
        return depths
    keep = np.abs(depths.depths - mu) / sigma < tau
    return IsolatedDepth(depths.us[keep], depths.vs[keep], depths.depths[keep])
