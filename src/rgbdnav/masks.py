"""Mask erosion and depth outlier rejection for one object.

Erosion by a full odd square shrinks a detection mask so boundary pixels
that bleed onto the background stop contributing depth; the z-score filter
then rejects the remaining depth outliers. :func:`projection.reconstruct_object`
runs both over the detection box's window, and the detection oracle erodes
and dilates its masks with the same square. All functions are pure and safe
to run per object in parallel.
"""
from __future__ import annotations

import numpy as np

from .types import InstanceMask, check_kernel_size


def erode_bitmap(bitmap: np.ndarray, size: int) -> np.ndarray:
    """Binary erosion by the full ``size`` x ``size`` square; out-of-bounds neighbours count as unset, so borders erode away.

    The square is separable: a row pass ANDs ``size`` shifted copies of the
    zero-padded bitmap, then a column pass ANDs ``size`` shifted copies of
    that. The size must be odd and positive, so the square has a center.
    Eroding k times by the 3x3 square equals one erosion of size 2k + 1.
    """
    check_kernel_size(size)
    bitmap = np.asarray(bitmap, dtype=bool)
    h, w = bitmap.shape
    r = size // 2
    # zeros and slice assignment, not np.pad: np.pad costs more than the erosion of a box window
    wide = np.zeros((h, w + 2 * r), dtype=bool)
    wide[:, r:r + w] = bitmap
    tall = np.zeros((h + 2 * r, w), dtype=bool)
    across = tall[r:r + h]
    across[...] = wide[:, :w]
    for dj in range(1, size):
        across &= wide[:, dj:dj + w]
    out = tall[:h].copy()
    for di in range(1, size):
        out &= tall[di:di + h]
    return out


def erode_mask(mask: InstanceMask, kernel_size: int = 3) -> InstanceMask:
    """Erode an instance mask by the full ``kernel_size`` square; the result is a subset (may be empty).

    Eroding the box window alone is exact: pixels outside the box are unset.
    """
    return InstanceMask(erode_bitmap(mask.bitmap, kernel_size), mask.detection)


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
