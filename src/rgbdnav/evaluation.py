"""Class-wise average precision over 3D instances, pooled over scenes.

Instances are compared at the point level: IoU is taken over the sets of
voxels they occupy on the one grid, ``types.VOXEL_SIZE``, that fusion also
dedups on. Predictions arrive keyed (:class:`KeyedPrediction`) and ground
truth arrives voxelized (:class:`GroundTruth`).
Both sets come from the package's one sorted-keys primitive,
``fusion.sorted_unique``: a sort and a compare of neighbours. ``np.unique``
gives the same keys, but numpy >= 2.3 builds it through a hash table,
measured several times slower on int64 keys (6.0 against 0.7 ms for 50k).
AP follows the ScanNet instance-benchmark protocol: in each scene,
predictions are greedily matched to the highest-IoU unmatched ground-truth
instance of the same class at or above the IoU threshold; per class, the
predictions of all scenes are then ranked together by score, and AP is the
area under the monotone (non-increasing) precision envelope over recall.
No step depends on the order of the scenes or of the predictions.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .fusion import sorted_union, sorted_unique, voxel_keys
from .types import VOXEL_SIZE, GroundTruth, ObjectCloud, check_voxel_keys

MAP_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
# the IoU thresholds matched at: 0.25, then the mAP ladder, whose first is 0.50
THRESHOLDS = np.array([0.25, *MAP_THRESHOLDS])


@dataclass(frozen=True)
class ClassRow:
    """One class's scores and match counts; the counts are at IoU 0.50 and 0.25."""

    ap: float
    ap50: float
    ap25: float
    num_gt: int
    num_pred: int
    tp50: int
    tp25: int


@dataclass
class EvalReport:
    """Per-class rows and the class means of their APs, pooled over ``num_scenes`` scenes."""

    per_class: dict[str, ClassRow]
    map: float
    map50: float
    map25: float
    num_scenes: int


@dataclass(frozen=True)
class KeyedPrediction:
    """A predicted instance as it is scored: its label, its score and the voxels it occupies.

    ``keys`` are the sorted unique voxel keys of its points: a 1-D int64
    array, strictly increasing, or ValueError (:func:`types.check_voxel_keys`).
    Keying a cloud as it is read lets a caller drop its points before the
    next one is read.
    """

    label: str
    score: float
    keys: np.ndarray

    def __post_init__(self):
        check_voxel_keys(self.keys, f"prediction '{self.label}'")

    @classmethod
    def of(cls, cloud: ObjectCloud) -> KeyedPrediction:
        return cls(cloud.label, cloud.score, sorted_unique(voxel_keys(cloud.points)))


def _voxel_iou(a: np.ndarray, b: np.ndarray) -> float:
    """IoU of two sorted unique key arrays, the intersection counted as |a| + |b| - |a ∪ b|.

    The union is :func:`fusion.sorted_union`; ground truth is never empty, so it is not.
    """
    union = sorted_union(a, b).size
    return (a.size + b.size - union) / union


def _greedy_match(scores: np.ndarray, ious: np.ndarray) -> np.ndarray:
    """True-positive flags of one scene's predictions of one class: a row per prediction, a column per threshold.

    ``ious`` holds each prediction's IoU row with the class's GT instances of
    the scene. Predictions are matched in an order set by content alone:
    descending score, then descending best IoU, then the rows compared
    element by element in GT order. Only identical rows stay tied, and
    swapping those changes nothing. At each threshold of ``THRESHOLDS`` a GT
    absorbs at most one prediction: the highest-IoU free one at or above it
    takes it, the first in GT order on equal IoU.
    """
    tp = np.zeros((len(scores), len(THRESHOLDS)), dtype=bool)
    if not ious.shape[1]:
        return tp
    order = np.lexsort((*-ious.T[::-1], -ious.max(axis=1), -scores))
    taken = np.zeros((len(THRESHOLDS), ious.shape[1]), dtype=bool)
    columns = np.arange(len(THRESHOLDS))
    for i in order:
        free = np.where(taken | (ious[i] < THRESHOLDS[:, None]), -1.0, ious[i])
        best = free.argmax(axis=1)
        tp[i] = free[columns, best] >= 0
        taken[columns[tp[i]], best[tp[i]]] = True
    return tp


def _pooled_ap(scores: np.ndarray, tp: np.ndarray, num_gt: int) -> np.ndarray:
    """AP at each threshold column of ``tp``: the area under the precision envelope over recall.

    Predictions are ranked by descending score, and precision and recall are
    taken only at the last prediction of each distinct score, so the order
    of tied predictions cannot move the area.
    """
    order = np.argsort(-scores)
    scores, cum_tp = scores[order], np.cumsum(tp[order], axis=0)
    last = np.flatnonzero(np.diff(scores, append=-np.inf))
    recall = cum_tp[last] / num_gt
    precision = cum_tp[last] / (last + 1)[:, None]
    envelope = np.maximum.accumulate(precision[::-1], axis=0)[::-1]
    return (np.diff(recall, axis=0, prepend=0.0) * envelope).sum(axis=0)


def evaluate(scenes: Iterable[tuple[Sequence[KeyedPrediction], Sequence[GroundTruth]]]) -> EvalReport:
    """Score (predictions, ground truth) scenes by AP pooled over the scenes.

    Each prediction is matched only against the ground truth of its own
    scene and class (:func:`_greedy_match`); per class, the predictions of
    all scenes are then ranked together (:func:`_pooled_ap`). AP is reported
    at IoU 0.25 and 0.50, and averaged over the 0.50:0.05:0.95 ladder for the
    headline number. A class counts when it has ground truth in some scene;
    its predictions in a scene without its ground truth are false positives,
    and labels with no ground truth anywhere are left out. Of a matched
    scene only (score, true-positive flags) are kept, so ``scenes`` may be a
    generator that reads one scene at a time. No scene or no ground truth
    raises ValueError.
    """
    num_gt: dict[str, int] = defaultdict(int)
    scores: dict[str, list[np.ndarray]] = defaultdict(list)
    flags: dict[str, list[np.ndarray]] = defaultdict(list)
    num_scenes = 0
    for pred, gt in scenes:
        num_scenes += 1
        for cls in {g.label for g in gt} | {p.label for p in pred}:
            cls_scores = np.array([p.score for p in pred if p.label == cls], dtype=np.float64)
            cls_gt = sum(g.label == cls for g in gt)
            ious = [[_voxel_iou(p.keys, g.keys) for g in gt if g.label == cls] for p in pred if p.label == cls]
            num_gt[cls] += cls_gt
            scores[cls].append(cls_scores)
            flags[cls].append(_greedy_match(cls_scores, np.array(ious).reshape(len(cls_scores), cls_gt)))
        del pred, gt  # the next scene is read without this one's keys
    if not num_scenes:
        raise ValueError("no scenes to evaluate")
    per_class: dict[str, ClassRow] = {}
    for cls in sorted(c for c, n in num_gt.items() if n):
        tp = np.concatenate(flags[cls])
        ap = _pooled_ap(np.concatenate(scores[cls]), tp, num_gt[cls])
        per_class[cls] = ClassRow(
            float(np.mean(ap[1:])), float(ap[1]), float(ap[0]),
            num_gt[cls], len(tp), int(tp[:, 1].sum()), int(tp[:, 0].sum()),
        )
    if not per_class:
        raise ValueError("no ground-truth instances: nothing to evaluate")
    means = [float(np.mean([getattr(c, k) for c in per_class.values()])) for k in ("ap", "ap50", "ap25")]
    return EvalReport(per_class, *means, num_scenes)


def format_report(report: EvalReport) -> str:
    """Render the report as a plain-text table (values x100)."""
    lines = [
        f"# instance segmentation report (pooled over {report.num_scenes} scene(s))",
        f"# point-level IoU on a {VOXEL_SIZE:g} m voxel grid",
        f"{'class':<20} {'mAP':>7} {'mAP50':>7} {'mAP25':>7} {'gt':>5} {'pred':>5} {'tp50':>5} {'tp25':>5}",
    ]
    for cls, c in sorted(report.per_class.items()):
        lines.append(
            f"{cls:<20} {100 * c.ap:>7.1f} {100 * c.ap50:>7.1f} {100 * c.ap25:>7.1f}"
            f" {c.num_gt:>5d} {c.num_pred:>5d} {c.tp50:>5d} {c.tp25:>5d}"
        )
    lines.append(
        f"{'all':<20} {100 * report.map:>7.1f} {100 * report.map50:>7.1f} {100 * report.map25:>7.1f}"
    )
    return "\n".join(lines) + "\n"
