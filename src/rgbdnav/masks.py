"""Mask erosion and depth outlier rejection for one object.

Erosion shrinks a detection mask so boundary pixels that bleed onto the
background stop contributing depth; the z-score filter then rejects the
remaining depth outliers. :func:`projection.reconstruct_object` runs both
over the detection box's window. All functions are pure and safe to run per
object in parallel.
"""
from __future__ import annotations

import numpy as np

from .types import InstanceMask


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


def erode_mask(mask: InstanceMask, kernel_size: int = 3) -> InstanceMask:
    """Erode an instance mask with the full ``kernel_size`` square; the result is a subset (may be empty).

    Eroding the box window alone is exact: pixels outside the box are unset.
    The kernel size must be odd and positive, so the square has a center.
    """
    if kernel_size < 1 or kernel_size % 2 == 0:
        raise ValueError(f"kernel_size must be odd and >= 1, got {kernel_size}")
    kernel = np.ones((kernel_size, kernel_size), dtype=bool)
    return InstanceMask(erode_bitmap(mask.bitmap, kernel), mask.detection)


def zscore_filter(depths: np.ndarray, tau: float = 2.0) -> np.ndarray:
    """Indices, in order, of the depths with |d - mean| / std < tau.

    The mean and population standard deviation are taken over the input
    depths once; the kept set is decided against those original statistics.
    Degenerate inputs (fewer than 3 entries, or all depths equal) keep every
    index so small uniform objects survive. Equality is decided on the
    depths themselves, before the mean: the float mean of equal depths can
    miss them and leave a spread of pure rounding error.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    n = len(depths)
    if n < 3 or depths.min() == depths.max():
        return np.arange(n)
    mu = float(np.mean(depths))
    sigma = float(np.std(depths))
    return np.flatnonzero(np.abs(depths - mu) / sigma < tau)
