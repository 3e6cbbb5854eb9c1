import itertools
import math
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rgbdnav.evaluation import (
    ClassRow,
    EvalReport,
    KeyedPrediction,
    MAP_THRESHOLDS,
    THRESHOLDS,
    _greedy_match,
    _pooled_ap,
    _voxel_iou,
    _voxel_set,
    evaluate,
    format_report,
)
from rgbdnav.types import GroundTruth, ObjectCloud

from conftest import VOXEL_SIZES, keyed_gt, keyed_scene, pool_clouds, voxel_pools


def instance_iou(pred, gt, voxel_size=0.02):
    """Point-level IoU of one pair as evaluate takes it: occupied-voxel overlap on one grid."""
    return _voxel_iou(_voxel_set(pred.points, voxel_size), _voxel_set(gt.points, voxel_size))


def average_precision(scored_ious, num_gt, iou_threshold):
    """One class's AP in one scene as evaluate takes it: content-ordered matching, then the pooled area.

    ``scored_ious`` holds one (score, per-GT IoU row) pair per prediction;
    ``iou_threshold`` is one of ``THRESHOLDS``.
    """
    if num_gt <= 0:
        raise ValueError("average_precision needs at least one ground-truth instance")
    scores = np.array([s for s, _ in scored_ious], dtype=np.float64)
    ious = np.array([row for _, row in scored_ious], dtype=np.float64).reshape(len(scores), num_gt)
    column = list(THRESHOLDS).index(iou_threshold)
    return float(_pooled_ap(scores, _greedy_match(scores, ious), num_gt)[column])


def instance_iou_sets(pred, gt, voxel_size):
    """Reference: IoU of Python sets of (i, j, k) cell tuples from a row-wise unique."""
    def cells(points):
        keys = np.floor(np.asarray(points, dtype=np.float64).reshape(-1, 3) / voxel_size).astype(np.int64)
        return set(map(tuple, np.unique(keys, axis=0)))

    a, b = cells(pred.points), cells(gt.points)
    if not a and not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def content_order_tp(scored_ious, num_gt, thr):
    """Reference: true-positive flags, in input order, of greedy highest-IoU matching within one scene.

    Predictions are taken by descending score, then descending best IoU, then
    descending IoU row compared element by element; a GT goes to the first
    prediction that reaches it, and a prediction takes its highest-IoU free
    GT at or above ``thr``, the first in GT order on equal IoU.
    """
    def key(i):
        score, ious = scored_ious[i]
        return (-score, -max(ious, default=0.0), *(-v for v in ious))

    taken, tp = set(), [False] * len(scored_ious)
    for i in sorted(range(len(scored_ious)), key=key):
        free = [g for g in range(num_gt) if g not in taken and scored_ious[i][1][g] >= thr]
        if free:
            taken.add(max(free, key=lambda g: (scored_ious[i][1][g], -g)))
            tp[i] = True
    return tp


def pooled_ap_reference(scored, num_gt, thr):
    """Reference: AP of (score, TP) pairs ranked together, precision taken at each distinct score.

    At each distinct score s, precision and recall count every prediction
    scored s or more; the envelope at s is the highest precision at s or
    below, and the area adds each recall step times the envelope there.
    """
    levels = sorted({s for s, _ in scored}, reverse=True)
    precision, recall = [], []
    for s in levels:
        hits = sum(tp for score, tp in scored if score >= s)
        precision.append(hits / sum(1 for score, _ in scored if score >= s))
        recall.append(hits / num_gt)
    ap, prev = 0.0, 0.0
    for k in range(len(levels)):
        ap += (recall[k] - prev) * max(precision[k:])
        prev = recall[k]
    return ap


def evaluate_reference(scenes, voxel_size):
    """Reference: pooled AP over (prediction clouds, GT clouds) scenes, set IoU per (prediction, GT) pair.

    Every prediction is matched within its own scene (``content_order_tp``),
    then each class's predictions of all scenes are ranked together
    (``pooled_ap_reference``). Classes with no GT in any scene are left out.
    """
    num_gt, scored = {}, {}
    for pred, gt in scenes:
        for cls in {g.label for g in gt} | {c.label for c in pred}:
            gts = [g for g in gt if g.label == cls]
            preds = [(c.score, [instance_iou_sets(c, g, voxel_size) for g in gts]) for c in pred if c.label == cls]
            num_gt[cls] = num_gt.get(cls, 0) + len(gts)
            flags = {t: content_order_tp(preds, len(gts), t) for t in THRESHOLDS}
            scored.setdefault(cls, []).extend(
                (score, {t: flags[t][i] for t in THRESHOLDS}) for i, (score, _) in enumerate(preds)
            )
    per_class = {}
    for cls in sorted(c for c, n in num_gt.items() if n):
        ap_at = {t: pooled_ap_reference([(s, tp[t]) for s, tp in scored[cls]], num_gt[cls], t) for t in THRESHOLDS}
        per_class[cls] = ClassRow(
            float(np.mean([ap_at[t] for t in MAP_THRESHOLDS])), ap_at[0.50], ap_at[0.25], num_gt[cls],
            len(scored[cls]), sum(tp[0.50] for _, tp in scored[cls]), sum(tp[0.25] for _, tp in scored[cls]),
        )
    means = [float(np.mean([getattr(c, k) for c in per_class.values()])) for k in ("ap", "ap50", "ap25")]
    return EvalReport(per_class, *means, len(scenes))


def list_order_greedy_match(scored_ious, num_gt, iou_threshold):
    """Oracle: true-positive flags in score order, tied scores kept in input order (a stable sort).

    ``scored_ious`` holds one (score, per-GT IoU row) pair per prediction;
    each GT absorbs at most one prediction, the highest-IoU free one.
    """
    order = sorted(range(len(scored_ious)), key=lambda i: -scored_ious[i][0])
    taken = np.zeros(num_gt, dtype=bool)
    tp = np.zeros(len(scored_ious), dtype=bool)
    for rank, idx in enumerate(order):
        ious = np.asarray(scored_ious[idx][1], dtype=np.float64)
        best_gt = -1
        best_iou = -1.0
        for g in range(num_gt):
            if taken[g] or ious[g] < iou_threshold:
                continue
            if ious[g] > best_iou:
                best_iou = ious[g]
                best_gt = g
        if best_gt >= 0:
            taken[best_gt] = True
            tp[rank] = True
    return tp


def every_position_envelope_area(tp, num_gt):
    """Oracle: area under the precision envelope of TP flags in score order, precision at every position."""
    n = len(tp)
    cum_tp = np.cumsum(tp)
    recall = cum_tp / num_gt
    precision = cum_tp / np.arange(1, n + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_recall = 0.0
    for k in range(n):
        ap += (recall[k] - prev_recall) * envelope[k]
        prev_recall = recall[k]
    return float(ap)


def list_order_scene_report(pred, gt, voxel_size):
    """Oracle: one scene scored with list-order ties and precision at every position.

    With distinct scores no tie is broken and every position is a distinct
    score, so ``evaluate`` on the one scene must give this report exactly.
    """
    per_class = {}
    for cls in sorted({g.label for g in gt}):
        gts = [g.keys for g in gt if g.label == cls]
        preds = [p for p in pred if p.label == cls]
        scored = [(p.score, np.array([_voxel_iou(p.keys, g) for g in gts])) for p in preds]
        tp = {t: list_order_greedy_match(scored, len(gts), t) for t in THRESHOLDS}
        ap_at = {t: every_position_envelope_area(flags, len(gts)) for t, flags in tp.items()}
        per_class[cls] = ClassRow(
            float(np.mean([ap_at[t] for t in MAP_THRESHOLDS])), ap_at[0.50], ap_at[0.25],
            len(gts), len(preds), int(tp[0.50].sum()), int(tp[0.25].sum()),
        )
    means = [float(np.mean([getattr(c, k) for c in per_class.values()])) for k in ("ap", "ap50", "ap25")]
    return EvalReport(per_class, *means, 1)


@st.composite
def scene_clouds(draw, pool, gt_counts=st.integers(1, 4)):
    """One scene's GT and prediction clouds drawn from a shared point pool, so they overlap; scores often tie."""
    gt = [ObjectCloud(draw(pool_clouds(pool)), draw(st.sampled_from(["a", "b"])), 1.0) for _ in range(draw(gt_counts))]
    preds = [
        ObjectCloud(draw(pool_clouds(pool)), draw(st.sampled_from(["a", "a", "b", "c"])),
                    draw(st.sampled_from([0.5, 0.7, 1.0])))
        for _ in range(draw(st.integers(0, 6)))
    ]
    return preds, gt


@st.composite
def eval_inputs(draw):
    """One scene's prediction and GT clouds, and the voxel size they are scored on."""
    voxel = draw(VOXEL_SIZES)
    pool = draw(voxel_pools(voxel, span=draw(st.integers(1, 5)), max_points=16))
    return (*draw(scene_clouds(pool)), voxel)


@st.composite
def pooled_inputs(draw):
    """1-3 scenes of (prediction clouds, GT clouds), some without GT, on one voxel size; tied scores are common."""
    voxel = draw(VOXEL_SIZES)
    scenes = []
    for _ in range(draw(st.integers(1, 3))):
        pool = draw(voxel_pools(voxel, span=draw(st.integers(1, 5)), max_points=16))
        scenes.append(draw(scene_clouds(pool, gt_counts=st.integers(0, 3))))
    assume(any(gt for _, gt in scenes))
    return scenes, voxel


def max_ap_over_tie_orders(scored_ious, num_gt, thr):
    """Oracle: the highest AP of any prediction ordering consistent with the scores.

    Every ordering of each tied group is enumerated, with the matching and
    the precision-envelope area (precision at every position) recomputed
    from scratch.
    """
    n = len(scored_ious)
    idx = sorted(range(n), key=lambda i: -scored_ious[i][0])
    groups = []
    for i in idx:
        if groups and scored_ious[groups[-1][-1]][0] == scored_ious[i][0]:
            groups[-1].append(i)
        else:
            groups.append([i])
    results = {}
    for perm in itertools.product(*[itertools.permutations(g) for g in groups]):
        order = [i for g in perm for i in g]
        taken = [False] * num_gt
        tps = []
        for i in order:
            ious = scored_ious[i][1]
            best = None
            for g in range(num_gt):
                if not taken[g] and ious[g] >= thr:
                    if best is None or ious[g] > ious[best]:
                        best = g
            if best is not None:
                taken[best] = True
                tps.append(1)
            else:
                tps.append(0)
        ap = 0.0
        for k in range(len(order)):
            if not tps[k]:
                continue
            envelope = max(sum(tps[: j + 1]) / (j + 1) for j in range(k, len(order)))
            ap += envelope / num_gt
        results[tuple(order)] = ap
    return max(results.values())


def _grid_instance(label, origin, n=(10, 10, 5), step=0.02, score=1.0):
    xs, ys, zs = np.meshgrid(*[np.arange(k) * step for k in n], indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()]) + np.asarray(origin)
    return ObjectCloud(pts, label, score), ObjectCloud(pts, label, 1.0)


class TestInstanceIoU:
    def test_identical_point_sets(self):
        cloud, gt = _grid_instance("chair", (0, 0, 0))
        assert instance_iou(cloud, gt, 0.02) == 1.0

    def test_disjoint_sets(self):
        cloud, _ = _grid_instance("chair", (0, 0, 0))
        _, gt = _grid_instance("chair", (10, 10, 10))
        assert instance_iou(cloud, gt, 0.02) == 0.0

    def test_half_segment_near_half(self):
        pts = np.column_stack([np.arange(100) * 0.02, np.zeros(100), np.zeros(100)])
        gt = ObjectCloud(pts, "seg", 1.0)
        pred = ObjectCloud(pts[:50], "seg", 1.0)
        votes = {
            (math.floor(x / 0.02), math.floor(y / 0.02), math.floor(z / 0.02))
            for x, y, z in pts
        }
        pred_votes = {
            (math.floor(x / 0.02), math.floor(y / 0.02), math.floor(z / 0.02))
            for x, y, z in pts[:50]
        }
        expected = len(pred_votes & votes) / len(pred_votes | votes)
        got = instance_iou(pred, gt, 0.02)
        assert got == pytest.approx(expected)
        assert abs(got - 0.5) < 0.02

    def test_invalid_voxel_size(self):
        cloud, gt = _grid_instance("chair", (0, 0, 0))
        with pytest.raises(ValueError):
            instance_iou(cloud, gt, 0.0)

    @given(eval_inputs())
    def test_matches_set_reference(self, inputs):
        pred, gt, voxel = inputs
        for cloud in pred:
            for g in gt:
                assert instance_iou(cloud, g, voxel) == instance_iou_sets(cloud, g, voxel)


def _key_array(values):
    return np.array(sorted(values), dtype=np.int64)


class TestVoxelIoU:
    @settings(max_examples=300)
    @given(st.sets(st.integers(-50, 50), min_size=1, max_size=40), st.sets(st.integers(-50, 50), max_size=40))
    @example({1, 2, 3}, {4, 5})  # disjoint
    @example({1, 2, 3}, {1, 2, 3})  # identical
    @example({7}, set())
    @example({-(2**62), 2**62}, {2**62})  # keys far apart
    def test_matches_python_set_reference(self, gt, pred):
        got = _voxel_iou(_key_array(pred), _key_array(gt))
        assert got == len(gt & pred) / len(gt | pred)

class TestAveragePrecision:
    def test_perfect_predictions(self):
        scored = [(1.0, np.array([1.0, 0.0])), (0.9, np.array([0.0, 1.0]))]
        assert average_precision(scored, 2, 0.5) == 1.0

    def test_no_predictions(self):
        assert average_precision([], 3, 0.5) == 0.0

    def test_fp_before_tp_halves_ap(self):
        scored = [(0.9, np.array([0.0])), (0.8, np.array([1.0]))]
        assert average_precision(scored, 1, 0.5) == pytest.approx(0.5)

    def test_requires_gt(self):
        with pytest.raises(ValueError):
            average_precision([], 0, 0.5)

    def test_matches_exhaustive_oracle_small_cases(self):
        # precision is taken only at the end of a tied group, so no tie order
        # beats it; the AP equals the distinct-score reference
        rng = np.random.default_rng(17)
        for _ in range(300):
            n_pred = int(rng.integers(0, 7))
            n_gt = int(rng.integers(1, 5))
            # quantized scores create frequent ties
            scored = [
                (float(rng.integers(0, 4)) / 4.0, rng.random(n_gt) * 1.2 - 0.1)
                for _ in range(n_pred)
            ]
            thr = float(rng.choice([0.25, 0.5, 0.75]))
            got = average_precision(scored, n_gt, thr)
            tp = content_order_tp(scored, n_gt, thr)
            assert got == pooled_ap_reference([(s, t) for (s, _), t in zip(scored, tp)], n_gt, thr)
            assert got <= max_ap_over_tie_orders(scored, n_gt, thr) + 1e-12

    def test_tie_order_does_not_move_ap(self):
        # a and b tie at 0.9 and contest GT 1. Taken a first, a matches GT 1
        # and b nothing; taken b first, each matches one GT. Content order
        # takes a first (best IoU 0.7) whatever the list order: one true
        # positive, precision 1/2 at recall 1/2
        a, b = (0.9, np.array([0.6, 0.7])), (0.9, np.array([0.0, 0.6]))
        assert average_precision([a, b], 2, 0.5) == average_precision([b, a], 2, 0.5) == 0.25

    def test_distinct_scores_match_list_order_oracle(self):
        # with no tied score, neither the tie order nor the distinct-score
        # points can matter: the AP is the list-order oracle's, exactly
        rng = np.random.default_rng(41)
        for _ in range(2000):
            n_gt = int(rng.integers(1, 5))
            scores = rng.permutation(16)[: int(rng.integers(0, 7))] / 16.0
            scored = [(float(s), rng.random(n_gt) * 1.2 - 0.1) for s in scores]
            thr = float(rng.choice(THRESHOLDS))
            want = every_position_envelope_area(list_order_greedy_match(scored, n_gt, thr), n_gt)
            assert average_precision(scored, n_gt, thr) == want

    def test_threshold_monotone(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            n_pred = int(rng.integers(1, 7))
            n_gt = int(rng.integers(1, 5))
            scored = [(float(rng.random()), rng.random(n_gt)) for _ in range(n_pred)]
            aps = [average_precision(scored, n_gt, t) for t in (0.25, 0.5, 0.75, 0.95)]
            assert all(a >= b - 1e-12 for a, b in zip(aps, aps[1:]))

    def test_removing_tp_never_increases_ap(self):
        # With greedy matching a removed true positive can free its GT for a
        # lower-ranked prediction, so the non-increase guarantee only holds
        # when predictions do not contest each other's GT; generate each GT
        # with at most one overlapping prediction.
        rng = np.random.default_rng(23)
        for _ in range(100):
            n_gt = int(rng.integers(2, 6))
            owners = rng.permutation(n_gt)
            scored = []
            for k in range(int(rng.integers(1, n_gt + 1))):
                row = np.zeros(n_gt)
                if rng.random() < 0.8:
                    row[owners[k]] = rng.uniform(0.5, 1.0)
                scored.append((float(rng.random()), row))
            base = average_precision(scored, n_gt, 0.5)
            for drop in range(len(scored)):
                if scored[drop][1].max() >= 0.5:
                    reduced = scored[:drop] + scored[drop + 1:]
                    assert average_precision(reduced, n_gt, 0.5) <= base + 1e-12

    def test_trailing_zero_iou_prediction_keeps_ap(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n_gt = int(rng.integers(1, 4))
            scored = [(float(rng.uniform(0.5, 1.0)), rng.random(n_gt)) for _ in range(int(rng.integers(1, 5)))]
            base = average_precision(scored, n_gt, 0.5)
            extended = scored + [(0.01, np.zeros(n_gt))]
            assert average_precision(extended, n_gt, 0.5) == pytest.approx(base)


def score_one_scene(pred, gt, voxel_size=0.02):
    """``evaluate`` on one scene of prediction and GT clouds, both keyed on one grid."""
    return evaluate([keyed_scene(pred, gt, voxel_size)], voxel_size)


class TestEvaluateScene:
    def test_perfect_predictions_score_one(self):
        pairs = [_grid_instance("chair", (0, 0, 0)), _grid_instance("table", (5, 0, 0))]
        report = score_one_scene([c for c, _ in pairs], [g for _, g in pairs])
        assert report.map == report.map50 == report.map25 == 1.0

    def test_all_wrong_class_scores_zero(self):
        cloud, _ = _grid_instance("chair", (0, 0, 0))
        _, gt = _grid_instance("table", (0, 0, 0))
        report = score_one_scene([cloud], [gt])
        assert report.map == report.map50 == report.map25 == 0.0

    def test_midband_iou_counts_at_25_not_50(self):
        # shift a 20-voxel-long slab by 8 voxels: IoU = 12/28, between the two gates
        n = (20, 8, 4)
        cloud, gt = _grid_instance("chair", (0, 0, 0), n=n)
        shifted = ObjectCloud(cloud.points + np.array([8 * 0.02, 0, 0]), "chair", 1.0)
        iou = instance_iou(shifted, gt, 0.02)
        assert 0.25 <= iou < 0.5
        report = score_one_scene([shifted], [gt])
        chair = report.per_class["chair"]
        assert chair.ap25 == 1.0
        assert chair.ap50 == 0.0

    def test_empty_gt_rejected(self):
        cloud, _ = _grid_instance("chair", (0, 0, 0))
        with pytest.raises(ValueError, match="no ground-truth instances"):
            score_one_scene([cloud], [])

    def test_gt_keyed_on_another_grid_rejected(self):
        cloud, gt = _grid_instance("chair", (0, 0, 0))
        with pytest.raises(ValueError, match="ground truth keyed at voxel_size 0.05, not the 0.02"):
            evaluate([([KeyedPrediction.of(cloud, 0.02)], keyed_gt([gt], 0.05))], 0.02)

    def test_prediction_keyed_on_another_grid_rejected(self):
        cloud, gt = _grid_instance("chair", (0, 0, 0))
        with pytest.raises(ValueError, match="predictions keyed at voxel_size 0.05, not the 0.02"):
            evaluate([([KeyedPrediction.of(cloud, 0.05)], keyed_gt([gt], 0.02))], 0.02)

    def test_unsorted_gt_keys_rejected(self):
        # _voxel_iou takes keys as sorted and unique; unsorted keys would give a wrong IoU, not an error
        with pytest.raises(ValueError, match="ground truth 'chair' keys are not strictly increasing"):
            GroundTruth("chair", np.array([3, 1, 2], dtype=np.int64), 0.02)

    def test_repeated_gt_keys_rejected(self):
        with pytest.raises(ValueError, match="ground truth 'chair' keys are not strictly increasing"):
            GroundTruth("chair", np.array([1, 2, 2, 3], dtype=np.int64), 0.02)

    @pytest.mark.parametrize(
        "keys, got",
        [([1, 2], "list"), (np.array([1.0, 2.0]), "float64 array of shape (2,)"),
         (np.array([[1, 2]], dtype=np.int64), "int64 array of shape (1, 2)")],
        ids=["list", "float", "2d"],
    )
    def test_gt_keys_must_be_1d_int64(self, keys, got):
        want = f"ground truth 'chair' keys must be a 1-D int64 array, got {got}"
        with pytest.raises(ValueError, match=re.escape(want)):
            GroundTruth("chair", keys, 0.02)

    def test_gt_keys_at_int64_extremes_accepted(self):
        keys = np.array([np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max], dtype=np.int64)
        assert GroundTruth("chair", keys, 0.02).keys is keys

    def test_monotone_thresholds_reported(self):
        rng = np.random.default_rng(31)
        gt_pairs = [_grid_instance(f"c{k}", (3 * k, 0, 0)) for k in range(3)]
        preds = []
        for cloud, _ in gt_pairs:
            jitter = rng.normal(0, 0.02, size=cloud.points.shape)
            preds.append(ObjectCloud(cloud.points + jitter, cloud.label, float(rng.random())))
        report = score_one_scene(preds, [g for _, g in gt_pairs])
        assert report.map25 >= report.map50 >= report.map

    @given(eval_inputs())
    def test_matches_pairwise_reference(self, inputs):
        pred, gt, voxel = inputs
        assert score_one_scene(pred, gt, voxel) == evaluate_reference([(pred, gt)], voxel)

    def test_report_formatting(self):
        pairs = [_grid_instance("chair", (0, 0, 0))]
        text = format_report(score_one_scene([pairs[0][0]], [pairs[0][1]]))
        assert text.startswith("# instance segmentation report (pooled over 1 scene(s))\n")
        assert "chair" in text
        assert "100.0" in text
        assert "mAP50" in text


class TestKeyedPrediction:
    @pytest.mark.parametrize(
        "keys, message",
        [(np.array([1, 1, 2], dtype=np.int64), "keys are not strictly increasing"),
         (np.array([2, 1], dtype=np.int64), "keys are not strictly increasing"),
         ([1, 2], "keys must be a 1-D int64 array, got list"),
         (np.array([1.0, 2.0]), "keys must be a 1-D int64 array, got float64 array of shape (2,)"),
         (np.array([[1, 2]], dtype=np.int64), "keys must be a 1-D int64 array, got int64 array of shape (1, 2)")],
        ids=["repeated", "unsorted", "list", "float", "2d"],
    )
    def test_keys_checked_as_ground_truth_keys_are(self, keys, message):
        # repeated keys would count twice: _voxel_iou([1, 1, 2], [1, 2]) reads 1.5
        with pytest.raises(ValueError, match=re.escape(f"prediction 'chair' {message}")):
            KeyedPrediction("chair", 0.9, keys, 0.02)
        with pytest.raises(ValueError, match=re.escape(f"ground truth 'chair' {message}")):
            GroundTruth("chair", keys, 0.02)


class TestPooled:
    @pytest.mark.guard
    @settings(max_examples=300, deadline=None)
    @given(pooled_inputs(), st.data())
    def test_report_invariant_under_permutations(self, inputs, data):
        # neither the order of the scenes nor that of the predictions in a
        # scene, tied scores included, moves a byte of the report
        scenes, voxel = inputs
        keyed = [keyed_scene(pred, gt, voxel) for pred, gt in scenes]
        want = evaluate(keyed, voxel)
        shuffled = [(data.draw(st.permutations(pred)), gt) for pred, gt in data.draw(st.permutations(keyed))]
        reversed_ = [(pred[::-1], gt) for pred, gt in keyed[::-1]]
        for scenes_in_another_order in (shuffled, reversed_):
            got = evaluate(scenes_in_another_order, voxel)
            assert got == want
            assert format_report(got) == format_report(want)

    @settings(max_examples=200, deadline=None)
    @given(pooled_inputs())
    def test_matches_pooled_reference(self, inputs):
        scenes, voxel = inputs
        assert evaluate((keyed_scene(pred, gt, voxel) for pred, gt in scenes), voxel) == evaluate_reference(
            scenes, voxel
        )

    @settings(max_examples=200, deadline=None)
    @given(eval_inputs(), st.data())
    def test_distinct_scores_one_scene_equals_list_order_oracle(self, inputs, data):
        pred, gt, voxel = inputs
        scores = data.draw(st.lists(st.integers(0, 99), min_size=len(pred), max_size=len(pred), unique=True))
        pred = [ObjectCloud(c.points, c.label, s / 100) for c, s in zip(pred, scores)]
        keyed, keyed_truth = keyed_scene(pred, gt, voxel)
        assert evaluate([(keyed, keyed_truth)], voxel) == list_order_scene_report(keyed, keyed_truth, voxel)

    def test_no_scene_rejected(self):
        with pytest.raises(ValueError, match="no scenes to evaluate"):
            evaluate(iter([]), 0.02)

    def test_fragment_in_one_scene_outranks_true_positive_in_another(self):
        # scene A: the whole chair at 1.0 and a fragment of it at 0.9; scene B:
        # the whole chair at 0.8 and the table. Per scene the fragment ranks
        # below its true positive and costs nothing; pooled, it sits above
        # scene B's true positive: precision 2/3 at recall 1
        chair, chair_gt = _grid_instance("chair", (0, 0, 0))
        table, table_gt = _grid_instance("table", (5, 0, 0))
        fragment = ObjectCloud(chair.points[:20], "chair", 0.9)
        scene_a = ([chair, fragment], [chair_gt])
        scene_b = ([ObjectCloud(chair.points, "chair", 0.8), table], [chair_gt, table_gt])
        report = evaluate([keyed_scene(*scene_a), keyed_scene(*scene_b)], 0.02)
        assert astuple(report.per_class["chair"]) == pytest.approx((*[0.5 + 0.5 * 2 / 3] * 3, 2, 3, 2, 2))
        assert report.per_class["table"] == ClassRow(1.0, 1.0, 1.0, 1, 1, 1, 1)
        assert report.num_scenes == 2
        for scene in (scene_a, scene_b):
            assert score_one_scene(*scene).map == 1.0

    def test_prediction_in_scene_without_its_class_is_false_positive(self):
        # the chair has GT only in scene A; scene B's chair, scored above A's
        # true positive, is a false positive ranked first
        chair, chair_gt = _grid_instance("chair", (0, 0, 0))
        table, table_gt = _grid_instance("table", (5, 0, 0))
        stray = ObjectCloud(chair.points, "chair", 0.95)
        chair = ObjectCloud(chair.points, "chair", 0.9)
        report = evaluate([keyed_scene([chair], [chair_gt]), keyed_scene([stray, table], [table_gt])], 0.02)
        assert report.per_class["chair"] == ClassRow(0.5, 0.5, 0.5, 1, 2, 1, 1)
        assert report.map == pytest.approx(0.75)

    def test_label_without_gt_anywhere_left_out(self):
        chair, chair_gt = _grid_instance("chair", (0, 0, 0))
        lamp = ObjectCloud(chair.points, "lamp", 1.0)
        report = evaluate([keyed_scene([chair, lamp], [chair_gt]), keyed_scene([lamp], [chair_gt])], 0.02)
        assert sorted(report.per_class) == ["chair"]
        assert report.per_class["chair"] == ClassRow(0.5, 0.5, 0.5, 2, 1, 1, 1)

    def test_two_scene_rows_formatted(self):
        # chair is in both scenes, table only in the second: the counts are
        # sums, and the APs are those of one ranking over both scenes
        chair, chair_gt = _grid_instance("chair", (0, 0, 0))
        table, table_gt = _grid_instance("table", (5, 0, 0))
        missed = ObjectCloud(chair.points + 10.0, "chair", 0.5)
        report = evaluate([keyed_scene([chair], [chair_gt]), keyed_scene([table, missed], [chair_gt, table_gt])], 0.02)
        text = format_report(report)
        assert text.splitlines()[0] == "# instance segmentation report (pooled over 2 scene(s))"
        rows = {line.split()[0]: line.split()[1:] for line in text.splitlines() if not line.startswith("#")}
        assert rows["chair"] == ["50.0", "50.0", "50.0", "2", "2", "1", "1"]
        assert rows["table"] == ["100.0", "100.0", "100.0", "1", "1", "1", "1"]
        assert rows["all"] == ["75.0", "75.0", "75.0"]
