"""The whole synth -> detect -> eval path against a loop pipeline built from the test oracles.

The reference reconstructs each detection with the double-loop erosion of
its full-image mask, the plain-Python z-score rule and the pinhole formula
pixel by pixel (``reconstruct_full_image_reference``), fuses with
``merge_instances_reference`` (pairwise box IoU, components by depth-first
search, a dict from voxel to its smallest point, passes to the fixpoint) and
scores with ``evaluate_reference`` (set-based voxel IoU, every prediction
ranked and matched in Python). The same arithmetic runs on both sides, so
instances and reports must match exactly.
"""
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rgbdnav import oracle, scene_io
from rgbdnav.evaluation import KeyedPrediction, evaluate
from rgbdnav.fusion import run_scene, voxel_keys
from rgbdnav.types import Box3D, ObjectCloud, PipelineConfig

from conftest import full_image_bitmap, gt_points_reference_from_ids
from test_evaluation import evaluate_reference
from test_fusion import merge_instances_reference
from test_projection import reconstruct_full_image_reference


@st.composite
def synth_inputs(draw):
    """A small scene to synthesize: at most 64x48, 2-4 boxes, 3-6 views, random detection noise.

    Each box sits in its own quadrant of the ground plane, within 0.65 m of
    the orbit's center, so no box hides inside another and every box is seen.
    """
    width, height = draw(st.integers(48, 64)), draw(st.integers(36, 48))
    intrinsics = oracle.default_intrinsics(width, height, 1.5 * width)
    signs = draw(st.permutations([(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]))
    boxes = []
    for sign in signs[: draw(st.integers(2, 4))]:
        near = np.array([draw(st.floats(0.05, 0.2)), draw(st.floats(0.05, 0.2)), 0.0])
        far = np.array([draw(st.floats(0.35, 0.65)), draw(st.floats(0.35, 0.65)), draw(st.floats(0.2, 0.5))])
        corners = np.array([sign[0], sign[1], 1.0]) * np.stack([near, far])
        box = Box3D(corners.min(axis=0), corners.max(axis=0))
        boxes.append(oracle.LabeledBox(draw(st.sampled_from(["a", "b"])), box))
    noise = oracle.PerturbationConfig(
        seed=draw(st.integers(0, 2**16)),
        box_jitter_px=draw(st.integers(0, 2)),
        mask_erode_px=draw(st.integers(-1, 1)),
        drop_prob=draw(st.sampled_from([0.0, 0.2])),
        score_sigma=draw(st.sampled_from([0.0, 0.1])),
    )
    config = PipelineConfig(
        tau=draw(st.sampled_from([0.5, 1.0, 2.0])),
        kernel_size=draw(st.sampled_from([1, 3])),
        merge_threshold=draw(st.sampled_from([0.3, 0.8])),
    )
    return boxes, oracle.default_trajectory(draw(st.integers(3, 6))), intrinsics, noise, config


def detect_reference(scene_dir, config):
    """Fused instances and the count of dropped detections, by the oracle loops."""
    per_view, dropped = [], 0
    for view in scene_io.iter_views(scene_dir):
        clouds = []
        for mask in view.masks:
            bitmap = full_image_bitmap(mask, view.frame.depth.shape)
            points = reconstruct_full_image_reference(view.frame, bitmap, config)
            if points is None:
                dropped += 1
                continue
            det = mask.detection
            clouds.append(ObjectCloud(points, det.label, det.score, frozenset({view.frame.frame_id})))
        per_view.append(clouds)
    return merge_instances_reference(per_view, config.merge_threshold), dropped


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(synth_inputs())
def test_pipeline_matches_oracle_loops(inputs):
    boxes, trajectory, intrinsics, noise, config = inputs
    with tempfile.TemporaryDirectory() as tmp:
        scene_dir = Path(tmp) / "scene"
        oracle.make_synthetic_scene(boxes, trajectory, intrinsics, scene_dir, noise)
        got, stats = run_scene(scene_io.iter_views(scene_dir), config)
        keyed = [KeyedPrediction.of(c) for c in got]
        report = evaluate([(keyed, scene_io.load_gt_instances(scene_dir))])
        want, dropped = detect_reference(scene_dir, config)
        gt = gt_points_reference_from_ids(scene_dir)
    assert stats.dropped == dropped
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.points.shape == w.points.shape
        assert g.points.tobytes() == w.points.tobytes()
        assert (g.label, g.score, g.source_frames) == (w.label, w.score, w.source_frames)
        assert g.box.min_corner.tobytes() == w.box.min_corner.tobytes()
        assert g.box.max_corner.tobytes() == w.box.max_corner.tobytes()
    assert report == evaluate_reference([(want, gt)])


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(synth_inputs())
def test_gt_keys_are_the_voxels_of_the_reference_points(inputs):
    boxes, trajectory, intrinsics, *_ = inputs
    with tempfile.TemporaryDirectory() as tmp:
        scene_dir = Path(tmp) / "scene"
        oracle.make_synthetic_scene(boxes, trajectory, intrinsics, scene_dir)
        gt = scene_io.load_gt_instances(scene_dir)
        reference = gt_points_reference_from_ids(scene_dir)
    assert [g.label for g in gt] == [r.label for r in reference]
    for g, r in zip(gt, reference):
        assert g.keys.tobytes() == np.unique(voxel_keys(r.points)).tobytes()
