import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rgbdnav.evaluation import (
    ClassRow,
    EvalReport,
    KeyedPrediction,
    MAP_THRESHOLDS,
    _envelope_area,
    _greedy_match,
    _voxel_iou,
    _voxel_set,
    evaluate_scene,
    format_report,
    macro_average,
)
from rgbdnav.types import GroundTruth, ObjectCloud

from conftest import VOXEL_SIZES, keyed_gt, pool_clouds, voxel_pools


def instance_iou(pred, gt, voxel_size=0.02):
    """Point-level IoU of one pair as evaluate_scene takes it: occupied-voxel overlap on one grid."""
    return _voxel_iou(_voxel_set(pred.points, voxel_size), _voxel_set(gt.points, voxel_size))


def average_precision(scored_ious, num_gt, iou_threshold):
    """One class's AP as evaluate_scene takes it: greedy matching, then the precision-envelope area.

    ``scored_ious`` holds one (score, per-GT IoU row) pair per prediction.
    """
    if num_gt <= 0:
        raise ValueError("average_precision needs at least one ground-truth instance")
    if not scored_ious:
        return 0.0
    return _envelope_area(_greedy_match(scored_ious, num_gt, iou_threshold), num_gt)


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


def greedy_tp_count(scored_ious, num_gt, thr):
    """Reference: true positives of the score-ordered greedy highest-IoU matching."""
    taken = set()
    for _, ious in sorted(scored_ious, key=lambda s: -s[0]):
        free = [g for g in range(num_gt) if g not in taken and ious[g] >= thr]
        if free:
            taken.add(max(free, key=lambda g: ious[g]))
    return len(taken)


def evaluate_scene_reference(pred, gt, voxel_size, thresholds):
    """Reference: per-(prediction, GT) pair set IoU; AP and TP counts per threshold call."""
    per_class = {}
    for cls in sorted({g.label for g in gt}):
        gts = [g for g in gt if g.label == cls]
        preds = [cloud for cloud in pred if cloud.label == cls]
        scored = [(c.score, np.array([instance_iou_sets(c, g, voxel_size) for g in gts])) for c in preds]
        ap = float(np.mean([average_precision(scored, len(gts), t) for t in thresholds])) if scored else 0.0
        per_class[cls] = ClassRow(
            ap, average_precision(scored, len(gts), 0.50), average_precision(scored, len(gts), 0.25),
            len(gts), len(preds), greedy_tp_count(scored, len(gts), 0.50), greedy_tp_count(scored, len(gts), 0.25)
        )
    means = [float(np.mean([getattr(c, k) for c in per_class.values()])) for k in ("ap", "ap50", "ap25")]
    return EvalReport(per_class, *means)


@st.composite
def eval_inputs(draw):
    """GT and predictions as overlapping clouds drawn from one shared point pool."""
    voxel = draw(VOXEL_SIZES)
    pool = draw(voxel_pools(voxel, span=draw(st.integers(1, 5)), max_points=16))
    gt = [
        ObjectCloud(draw(pool_clouds(pool)), draw(st.sampled_from(["a", "b"])), 1.0)
        for _ in range(draw(st.integers(1, 4)))
    ]
    preds = [
        ObjectCloud(draw(pool_clouds(pool)), draw(st.sampled_from(["a", "a", "b", "c"])),
                    draw(st.sampled_from([0.5, 0.7, 1.0])))
        for _ in range(draw(st.integers(0, 6)))
    ]
    return preds, gt, voxel


def ap_orderings_oracle(scored_ious, num_gt, thr):
    """Enumerate every prediction ordering consistent with the scores.

    Returns (ap at the stable input-order tie-break, min ap, max ap) with the
    matching and the precision-envelope area recomputed from scratch.
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
    stable = tuple(i for g in groups for i in g)
    return results[stable], min(results.values()), max(results.values())


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
            stable, lo, hi = ap_orderings_oracle(scored, n_gt, thr)
            assert got == pytest.approx(stable, abs=1e-12)
            assert lo - 1e-12 <= got <= hi + 1e-12

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


class TestEvaluateScene:
    def test_perfect_predictions_score_one(self):
        pairs = [_grid_instance("chair", (0, 0, 0)), _grid_instance("table", (5, 0, 0))]
        pred = [c for c, _ in pairs]
        gt = [g for _, g in pairs]
        report = evaluate_scene(pred, keyed_gt(gt))
        assert report.map == report.map50 == report.map25 == 1.0

    def test_all_wrong_class_scores_zero(self):
        cloud, _ = _grid_instance("chair", (0, 0, 0))
        _, gt = _grid_instance("table", (0, 0, 0))
        report = evaluate_scene([cloud], keyed_gt([gt]))
        assert report.map == report.map50 == report.map25 == 0.0

    def test_midband_iou_counts_at_25_not_50(self):
        # shift a 20-voxel-long slab by 8 voxels: IoU = 12/28, between the two gates
        n = (20, 8, 4)
        cloud, gt = _grid_instance("chair", (0, 0, 0), n=n)
        shifted = ObjectCloud(cloud.points + np.array([8 * 0.02, 0, 0]), "chair", 1.0)
        iou = instance_iou(shifted, gt, 0.02)
        assert 0.25 <= iou < 0.5
        report = evaluate_scene([shifted], keyed_gt([gt]))
        chair = report.per_class["chair"]
        assert chair.ap25 == 1.0
        assert chair.ap50 == 0.0

    def test_empty_gt_rejected(self):
        cloud, _ = _grid_instance("chair", (0, 0, 0))
        with pytest.raises(ValueError):
            evaluate_scene([cloud], [])

    def test_gt_keyed_on_another_grid_rejected(self):
        cloud, gt = _grid_instance("chair", (0, 0, 0))
        with pytest.raises(ValueError, match="ground truth keyed at voxel_size 0.05, not the 0.02"):
            evaluate_scene([cloud], keyed_gt([gt], 0.05), 0.02)

    def test_prediction_keyed_on_another_grid_rejected(self):
        cloud, gt = _grid_instance("chair", (0, 0, 0))
        with pytest.raises(ValueError, match="predictions keyed at voxel_size 0.05, not the 0.02"):
            evaluate_scene([KeyedPrediction.of(cloud, 0.05)], keyed_gt([gt], 0.02), 0.02)

    @settings(max_examples=100, deadline=None)
    @given(eval_inputs(), st.data())
    def test_keyed_predictions_score_as_their_clouds(self, inputs, data):
        # a prediction keyed as it is read scores as its cloud does, mixed or not
        preds, gt, voxel = inputs
        keyed = [KeyedPrediction.of(p, voxel) if data.draw(st.booleans()) else p for p in preds]
        assert evaluate_scene(keyed, keyed_gt(gt, voxel), voxel) == evaluate_scene(preds, keyed_gt(gt, voxel), voxel)

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
        report = evaluate_scene(preds, keyed_gt([g for _, g in gt_pairs]))
        assert report.map25 >= report.map50 >= report.map

    def test_macro_average_two_scenes(self):
        pairs = [_grid_instance("chair", (0, 0, 0))]
        pred = [pairs[0][0]]
        gt = keyed_gt([pairs[0][1]])
        perfect = evaluate_scene(pred, gt)
        empty = evaluate_scene([], gt)
        combined = macro_average([perfect, empty])
        assert combined.map == pytest.approx(0.5)
        assert combined.num_scenes == 2

    def test_macro_average_per_class_rows(self):
        # chair is in both scenes, table only in the second: each class's AP
        # is the mean over the scenes that hold it, its counts are the sums
        chair, chair_gt = _grid_instance("chair", (0, 0, 0))
        table, table_gt = _grid_instance("table", (5, 0, 0))
        missed = ObjectCloud(chair.points + 10.0, "chair", 0.5)
        first = evaluate_scene([chair], keyed_gt([chair_gt]))
        second = evaluate_scene([table, missed], keyed_gt([chair_gt, table_gt]))
        combined = macro_average([first, second])
        assert combined.per_class["chair"] == ClassRow(0.5, 0.5, 0.5, 2, 2, 1, 1)
        assert combined.per_class["table"] == ClassRow(1.0, 1.0, 1.0, 1, 1, 1, 1)
        assert combined.map == pytest.approx(0.75)
        rows = {line.split()[0]: line.split()[1:] for line in format_report(combined).splitlines()
                if not line.startswith("#")}
        assert rows["chair"] == ["50.0", "50.0", "50.0", "2", "2", "1", "1"]
        assert rows["table"] == ["100.0", "100.0", "100.0", "1", "1", "1", "1"]
        assert rows["all"] == ["75.0", "75.0", "75.0"]

    @given(eval_inputs())
    def test_matches_pairwise_reference(self, inputs):
        pred, gt, voxel = inputs
        assert evaluate_scene(pred, keyed_gt(gt, voxel), voxel) == evaluate_scene_reference(
            pred, gt, voxel, MAP_THRESHOLDS
        )

    def test_report_formatting(self):
        pairs = [_grid_instance("chair", (0, 0, 0))]
        report = evaluate_scene([pairs[0][0]], keyed_gt([pairs[0][1]]))
        text = format_report(report)
        assert "chair" in text
        assert "100.0" in text
        assert "mAP50" in text
