"""Cross-view instance fusion: connected components of the same-class box-IoU graph, in any input order."""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .projection import reconstruct_object
from .types import VOXEL_SIZE, Box3D, ObjectCloud, PipelineConfig

if TYPE_CHECKING:  # scene_io imports voxel_keys from here
    from .scene_io import SceneView


def iou_row(lo: np.ndarray, hi: np.ndarray, box: Box3D) -> np.ndarray:
    """Intersection over union of ``box`` with each axis-aligned box ``lo[k]``..``hi[k]`` (rows of (n, 3) arrays).

    Disjoint boxes score 0. A zero-volume box scores 0 against everything
    except an identical box, which scores 1.
    """
    inter = np.prod(np.maximum(np.minimum(hi, box.max_corner) - np.maximum(lo, box.min_corner), 0.0), axis=1)
    union = np.prod(box.max_corner - box.min_corner) + np.prod(hi - lo, axis=1) - inter
    iou = np.divide(inter, union, out=np.zeros_like(inter), where=inter > 0)
    if not union.all():  # two zero-volume boxes
        iou[np.all(lo == box.min_corner, axis=1) & np.all(hi == box.max_corner, axis=1)] = 1.0
    return iou


def iou_3d(a: Box3D, b: Box3D) -> float:
    """:func:`iou_row` of two boxes."""
    return float(iou_row(a.min_corner[None], a.max_corner[None], b)[0])


# Bits per axis in a packed voxel key; three axes fill 63 bits of an int64.
KEY_BITS = 21
_KEY_OFFSET = 1 << (KEY_BITS - 1)


def voxel_keys(points: np.ndarray) -> np.ndarray:
    """One int64 per point naming its voxel ``floor(p / VOXEL_SIZE)``.

    The three cell indices are offset by 2^20 and packed at 21 bits each, so
    equal keys mean equal voxels and sorted keys follow row order. A cell
    index outside [-2^20, 2^20) (±20.97 km) cannot be packed: ValueError.
    """
    # In place where possible: whole fused clouds pass through here, and every
    # full-size temporary adds to the process's peak RSS.
    cells = np.asarray(points, dtype=np.float64).reshape(-1, 3) / VOXEL_SIZE
    np.floor(cells, out=cells)
    if cells.size and not (cells.min() >= -_KEY_OFFSET and cells.max() < _KEY_OFFSET):
        raise ValueError(
            f"voxel coordinates must lie within ±2^20 cells of the origin "
            f"(±{_KEY_OFFSET * VOXEL_SIZE / 1000:.2f} km)"
        )
    cells += _KEY_OFFSET  # exact: whole numbers far below 2^53
    c = cells.astype(np.int64)
    del cells
    keys = c[:, 0] << (2 * KEY_BITS)
    keys |= c[:, 1] << KEY_BITS
    keys |= c[:, 2]
    return keys


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Indices where a sorted array's runs of equal values begin."""
    starts = np.empty(ordered.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The sorted unique values of a 1-D int64 key array: the one voxel-set primitive.

    One ``np.sort`` and a compare of neighbours. ``np.unique`` gives the same
    array, but numpy >= 2.3 builds it through a hash table: 6.0 against
    0.7 ms for 50k int64 keys (numpy 2.4.6, 2-core Xeon).
    """
    ordered = np.sort(keys)
    return ordered[_run_starts(ordered)]


def sorted_union(held: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """:func:`sorted_unique` of the values of two sorted unique key arrays, without sorting either again.

    A stable sort of the two concatenated runs is a linear merge (timsort
    finds the runs): 5.7 against 20.1 us for the default sort at 3.7k int64
    keys (numpy 2.4.6, 2-core Xeon).
    """
    ordered = np.sort(np.concatenate([held, batch]), kind="stable")
    return ordered[_run_starts(ordered)]


def sorted_unique_first(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sorted_unique` and, aligned with it, the index in ``keys`` of each value's first occurrence.

    Equal to ``np.unique`` with ``return_index=True``. A first occurrence
    heads a run of equal neighbours, so only the heads are sorted: a cloud in
    pixel order repeats each voxel along its image rows. The argsort need not
    be stable: the smallest index of each run of equal values is its first one.
    """
    heads = _run_starts(keys)
    order = heads[np.argsort(keys[heads])]
    ordered = keys[order]
    starts = _run_starts(ordered)
    return ordered[starts], np.minimum.reduceat(order, starts)


# An instance while fusing: a cloud of one point per voxel and its sorted unique voxel keys, aligned.
_Keyed = tuple[ObjectCloud, np.ndarray]


def _cut(cloud: ObjectCloud) -> _Keyed:
    """A cloud as fusion holds it: its first point per voxel, in its own order, and its keys.

    Every cloud fusion builds is column-major, so each coordinate (a row of
    ``points.T``) is contiguous.
    """
    keys, first = sorted_unique_first(voxel_keys(cloud.points))
    return ObjectCloud(cloud.points.T.take(first, axis=1).T, cloud.label, cloud.score, cloud.source_frames), keys


def _join(a: _Keyed, b: _Keyed) -> _Keyed:
    """One instance holding the voxels of two, each held as :func:`_cut` holds it.

    A voxel both hold keeps the lexicographically smaller (x, y, z) point;
    the score is the max and ``source_frames`` the union. ``b``'s keys are
    located in ``a``'s, and the union is gathered in key order in one take.
    """
    (ca, held), (cb, incoming) = a, b
    pos = np.searchsorted(held, incoming)
    found = held.take(pos, mode="clip") == incoming  # a key past the end is compared with the last
    shared, fresh = np.flatnonzero(found), np.flatnonzero(~found)
    p, q = cb.points.T.take(shared, axis=1), ca.points.T.take(pos[shared], axis=1)
    smaller = p[2] < q[2]
    for axis in (1, 0):  # (x, y, z) order: x decides, a tie falls to y, then to z
        smaller = (p[axis] < q[axis]) | ((p[axis] == q[axis]) & smaller)
    source = np.arange(held.size)  # the column of [held, incoming] each voxel of the union takes, in key order
    source[pos[shared[smaller]]] = held.size + shared[smaller]
    source = np.insert(source, pos[fresh], held.size + fresh)
    keys = np.concatenate([held, incoming]).take(source)
    points = np.concatenate([ca.points.T, cb.points.T], axis=1).take(source, axis=1)
    return ObjectCloud(points.T, ca.label, max(ca.score, cb.score), ca.source_frames | cb.source_frames), keys


def _find(parent: list[int], i: int) -> int:
    """The root of ``i`` in a union-find forest, halving the path on the way."""
    while parent[i] != i:
        parent[i] = i = parent[parent[i]]
    return i


def _components(instances: Iterable[_Keyed], merge_threshold: float) -> tuple[list[_Keyed], bool]:
    """One pass: each connected component of the instances joined into one, and whether any two joined.

    An edge joins two same-label instances whose box IoU exceeds the
    threshold. Each instance, as it arrives, is tested against the boxes
    seen so far in this pass, and the components it touches are joined with
    it at once (union-find), so only the components are held.
    """
    seen: dict[str, tuple[list[int], np.ndarray]] = {}  # label -> ids and (min, max) corners of those seen
    parent: list[int] = []
    held: dict[int, _Keyed] = {}  # root -> its component
    for i, inst in enumerate(instances):
        box = inst[0].box
        ids, corners = seen.get(inst[0].label, ([], np.empty((0, 2, 3))))
        parent.append(i)
        edges = np.flatnonzero(iou_row(corners[:, 0], corners[:, 1], box) > merge_threshold)
        for root in {_find(parent, ids[k]) for k in edges}:
            inst = _join(held.pop(root), inst)
            parent[root] = i
        held[i] = inst
        seen[inst[0].label] = ids + [i], np.concatenate([corners, [[box.min_corner, box.max_corner]]])
    return list(held.values()), len(held) < len(parent)


def merge_instances(views: Iterable[Iterable[ObjectCloud]], merge_threshold: float = 0.8) -> list[ObjectCloud]:
    """Per-view instances fused into scene instances, the same for any order of the views, of the
    instances within a view, or of the frame ids.

    Each arriving cloud keeps its first point per voxel of the grid eval
    scores on (``VOXEL_SIZE``), in its own (row-major pixel) order. Each
    connected component of same-label instances whose box IoU exceeds the
    threshold becomes one instance: the union of the members' voxels, where
    a voxel two members hold keeps the lexicographically smaller (x, y, z)
    point; the max score; the union of ``source_frames``. Passes repeat on
    the merged boxes until one merges nothing, so no surviving same-label
    pair exceeds the threshold. Points come in voxel-key order, and
    instances are sorted by label, box min corner and max corner: below a
    threshold of 1, no two same-label boxes are identical at the fixpoint.

    ``views`` may be any iterable, a generator included: the first pass
    takes each view's instances as the view arrives and holds only the
    components, so a view is not held once it has been fused.
    """
    if not (0.0 < merge_threshold <= 1.0):
        raise ValueError(f"merge_threshold must be in (0, 1], got {merge_threshold}")
    instances, merged = _components((_cut(c) for view in views for c in view), merge_threshold)
    while merged:
        instances, merged = _components(instances, merge_threshold)
    return sorted((c for c, _ in instances), key=lambda c: (c.label, *c.box.min_corner, *c.box.max_corner))


@dataclass
class RunStats:
    """What :func:`run_scene` consumed: views, detections, and the detections dropped
    because reconstruction left no cloud (detections = dropped + clouds fused)."""

    views: int = 0
    detections: int = 0
    dropped: int = 0


def run_scene(views: Iterable[SceneView], config: PipelineConfig) -> tuple[list[ObjectCloud], RunStats]:
    """Turn a scene's views into fused instances: the whole detection pipeline.

    Every InstanceMask of every view is reconstructed, views in order, and
    the per-view clouds are merged. ``views`` may be any iterable, such as
    :func:`scene_io.iter_views`: each view is reconstructed when fusion asks
    for it and is not referenced afterwards, so with a streaming source one
    frame's depth is in memory at a time, next to the fused instances.
    Returns the instances and a :class:`RunStats` of what was consumed.
    """
    stats = RunStats()

    def reconstruct(view: SceneView) -> list[ObjectCloud]:
        clouds = [reconstruct_object(view.frame, mask, config) for mask in view.masks]
        kept = [cloud for cloud in clouds if cloud is not None]
        stats.views += 1
        stats.detections += len(clouds)
        stats.dropped += len(clouds) - len(kept)
        return kept

    # map keeps no reference to a view it has passed on
    instances = merge_instances(map(reconstruct, views), config.merge_threshold)
    return instances, stats
