import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rgbdnav import oracle, scene_io
from rgbdnav.oracle import (
    LabeledBox,
    PerturbationConfig,
    look_at,
    make_synthetic_scene,
    orbit_trajectory,
    populate_detections,
    render_depth,
    render_gt_detections,
)
from rgbdnav.projection import project_to_pixels, to_camera
from rgbdnav.types import Box3D, CameraPose

from conftest import dilation_oracle, odd_kernels


def _cube(label, center, side=1.0):
    c = np.asarray(center, dtype=float)
    h = side / 2.0
    return LabeledBox(label, Box3D(c - h, c + h))


class TestRenderDepth:
    def test_centered_cube_square_patch(self):
        # 1 m cube 3 m in front of an identity camera: the depth image holds a
        # centered square at ~2.5 m (the near face), nothing else.
        intr = oracle.default_intrinsics(64, 64, 60.0)
        depth, owner = render_depth([_cube("cube", (0.0, 0.0, 3.0))], CameraPose.identity(), intr)
        assert depth[32, 32] == pytest.approx(2.5)
        assert owner[32, 32] == 0
        assert depth[0, 0] == 0.0 and owner[0, 0] == -1
        # analytic half-size of the projected near face: 0.5 * f / 2.5 = 12 px
        vs, us = np.nonzero(owner == 0)
        assert 10 <= (us.max() - us.min()) / 2 <= 14

    def test_nearest_surface_wins(self):
        intr = oracle.default_intrinsics(32, 32, 30.0)
        near = _cube("near", (0.0, 0.0, 2.0), side=0.5)
        far = _cube("far", (0.0, 0.0, 5.0), side=2.0)
        depth, owner = render_depth([far, near], CameraPose.identity(), intr)
        assert owner[16, 16] == 1
        assert depth[16, 16] == pytest.approx(1.75)


class TestMakeSyntheticScene:
    def test_empty_spec_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty box list"):
            make_synthetic_scene([], [CameraPose.identity()], oracle.default_intrinsics(), tmp_path / "s")

    def test_zero_length_trajectory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="zero-length"):
            make_synthetic_scene([_cube("c", (0, 0, 3))], [], oracle.default_intrinsics(), tmp_path / "s")

    def test_invisible_box_rejected(self, tmp_path):
        behind = _cube("ghost", (0.0, 0.0, -5.0))
        with pytest.raises(ValueError, match="ghost"):
            make_synthetic_scene([behind], [CameraPose.identity()], oracle.default_intrinsics(64, 64, 60.0), tmp_path / "s")

    def test_translated_poses_share_world_gt(self, tmp_path):
        # two cameras related by a pure translation record the same world
        # surface: the ground-truth extents agree up to pixel sampling and
        # depth quantization
        intr = oracle.default_intrinsics(48, 48, 50.0)
        cube = _cube("cube", (0.0, 0.0, 4.0), side=0.8)
        base = CameraPose.identity()
        shifted = CameraPose(np.eye(3), np.array([0.3, 0.0, -1.0]))
        d1 = make_synthetic_scene([cube], [base], intr, tmp_path / "s1")
        gt1 = scene_io.load_gt_instances(d1)[0]
        d2 = make_synthetic_scene([cube], [shifted], intr, tmp_path / "s2")
        gt2 = scene_io.load_gt_instances(d2)[0]
        footprint = 4.6 / 50.0  # deepest visible surface over focal length
        tol = footprint + 2e-3
        assert np.allclose(gt1.points.min(axis=0), gt2.points.min(axis=0), atol=tol)
        assert np.allclose(gt1.points.max(axis=0), gt2.points.max(axis=0), atol=tol)

    def test_quantized_box_near_analytic_surface_box(self, tmp_path):
        # with a perfect mask and exact synthetic depth, the reconstructed box
        # corners sit within one depth quantization step of the analytic
        # surface extremes (quantization error scaled by |u-cx|/fx < 1)
        from rgbdnav.projection import back_project_pixels, box_from_points, to_world

        intr = oracle.default_intrinsics(96, 96, 90.0)
        pose = look_at((2.0, -1.5, 1.8), (0.0, 0.0, 0.3))
        cube = _cube("cube", (0.0, 0.0, 0.4), side=0.8)
        depth, owner = render_depth([cube], pose, intr)
        scale = 0.001
        vs, us = np.nonzero(owner == 0)
        analytic = to_world(back_project_pixels(us, vs, depth[vs, us], intr), pose)
        quantized = np.round(depth[vs, us] / scale) * scale
        recovered = to_world(back_project_pixels(us, vs, quantized, intr), pose)
        box_a = box_from_points(analytic)
        box_r = box_from_points(recovered)
        assert np.abs(box_r.min_corner - box_a.min_corner).max() <= scale + 1e-6
        assert np.abs(box_r.max_corner - box_a.max_corner).max() <= scale + 1e-6

    def test_layout_is_loadable(self, oracle_scene_dir):
        scene = scene_io.load_scene(oracle_scene_dir)
        assert len(scene.views) == 20
        assert {g.label for g in scene.gt} == {"chair", "table", "plant"}


class TestRenderGtDetections:
    def test_masks_match_forward_projection(self, oracle_scene_dir):
        # with noise off, every mask pixel hosts at least one GT point that
        # projects there and z-buffers against the rendered depth
        scene = scene_io.load_scene(oracle_scene_dir)
        view = scene.views[3]
        masks = render_gt_detections(view.frame, scene.gt, PerturbationConfig(), scene.depth_scale)
        assert len(masks) == 3
        by_label = {m.detection.label: m for m in masks}
        for inst in scene.gt:
            cam = to_camera(inst.points, view.frame.pose)
            cam = cam[cam[:, 2] > 0]
            u, v = project_to_pixels(cam, view.frame.intrinsics)
            ui = np.rint(u).astype(int)
            vi = np.rint(v).astype(int)
            ok = (ui >= 0) & (ui < view.frame.intrinsics.width) & (vi >= 0) & (vi < view.frame.intrinsics.height)
            ui, vi, z = ui[ok], vi[ok], cam[ok, 2]
            visible = np.abs(z - view.frame.depth[vi, ui]) <= 2 * scene.depth_scale
            expected = np.zeros_like(by_label[inst.label].bitmap)
            expected[vi[visible], ui[visible]] = True
            assert np.array_equal(by_label[inst.label].bitmap, expected)

    def test_boxes_are_tight(self, oracle_scene_dir):
        scene = scene_io.load_scene(oracle_scene_dir)
        view = scene.views[0]
        for mask in render_gt_detections(view.frame, scene.gt, PerturbationConfig(), scene.depth_scale):
            det = mask.detection
            vs, us = np.nonzero(mask.bitmap)
            assert det.box == (float(us.min()), float(vs.min()), float(us.max() + 1), float(vs.max() + 1))
            assert det.score == 1.0

    def test_drop_prob_one_removes_everything(self, oracle_scene_dir):
        scene = scene_io.load_scene(oracle_scene_dir)
        masks = render_gt_detections(
            scene.views[0].frame, scene.gt, PerturbationConfig(seed=1, drop_prob=1.0), scene.depth_scale
        )
        assert masks == []

    def test_deterministic_given_seed(self, oracle_scene_dir):
        scene = scene_io.load_scene(oracle_scene_dir)
        noise = PerturbationConfig(seed=42, box_jitter_px=3, mask_erode_px=1, drop_prob=0.3, score_sigma=0.2)
        a = render_gt_detections(scene.views[1].frame, scene.gt, noise, scene.depth_scale)
        b = render_gt_detections(scene.views[1].frame, scene.gt, noise, scene.depth_scale)
        assert [m.detection for m in a] == [m.detection for m in b]
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.bitmap, mb.bitmap)

    def test_jittered_masks_stay_inside_boxes(self, oracle_scene_dir):
        scene = scene_io.load_scene(oracle_scene_dir)
        noise = PerturbationConfig(seed=3, box_jitter_px=6, mask_erode_px=-2)
        for view in scene.views[:4]:
            for mask in render_gt_detections(view.frame, scene.gt, noise, scene.depth_scale):
                vs, us = np.nonzero(mask.bitmap)
                x1, y1, x2, y2 = mask.detection.box
                assert us.min() >= x1 and us.max() < x2
                assert vs.min() >= y1 and vs.max() < y2


class TestDilation:
    @settings(max_examples=300)
    @given(arrays(bool, st.tuples(st.integers(1, 10), st.integers(1, 10))), odd_kernels())
    @example(  # one pixel under an L-shaped kernel: the result is not symmetric either
        np.eye(1, 25, 12, dtype=bool).reshape(5, 5),
        np.array([[1, 1, 0], [0, 1, 0], [0, 0, 0]], dtype=bool),
    )
    def test_matches_brute_force_oracle(self, bitmap, selem):
        assert np.array_equal(oracle._dilate_bitmap(bitmap, selem), dilation_oracle(bitmap, selem))


class TestPopulateDetections:
    def test_rewrite_is_deterministic(self, mutable_scene_dir):
        noise = PerturbationConfig(seed=5, drop_prob=0.4, box_jitter_px=2)
        n1 = populate_detections(mutable_scene_dir, noise)
        snapshot = {
            p.name: p.read_bytes() for p in sorted((mutable_scene_dir / "frames").iterdir())
        }
        n2 = populate_detections(mutable_scene_dir, noise)
        assert n1 == n2
        for p in sorted((mutable_scene_dir / "frames").iterdir()):
            assert snapshot[p.name] == p.read_bytes()

    def test_stale_masks_removed(self, mutable_scene_dir):
        populate_detections(mutable_scene_dir, PerturbationConfig(seed=1, drop_prob=0.9))
        scene = scene_io.load_scene(mutable_scene_dir)  # would raise on stray masks
        assert sum(len(v.masks) for v in scene.views) < 60


class TestPerturbationConfig:
    def test_file_round_trip(self, tmp_path):
        cfg = PerturbationConfig(seed=9, box_jitter_px=2, mask_erode_px=-1, drop_prob=0.25, score_sigma=0.1)
        cfg.to_file(tmp_path / "p.txt")
        assert PerturbationConfig.from_file(tmp_path / "p.txt") == cfg

    def test_unknown_field_rejected(self, tmp_path):
        (tmp_path / "p.txt").write_text("wibble = 3\n")
        with pytest.raises(ValueError, match="wibble"):
            PerturbationConfig.from_file(tmp_path / "p.txt")

    def test_invalid_drop_prob(self):
        with pytest.raises(ValueError):
            PerturbationConfig(drop_prob=1.5)


class TestPoseHelpers:
    def test_look_at_points_camera_forward(self):
        pose = look_at((0.0, 0.0, 2.0), (0.0, 0.0, 0.0), up=(0.0, 1.0, 0.0))
        fwd = pose.rotation[:, 2]
        assert np.allclose(fwd, [0.0, 0.0, -1.0])

    def test_orbit_poses_look_at_center(self):
        center = np.array([0.5, -0.5, 0.3])
        for pose in orbit_trajectory(center, 2.0, 1.5, 8):
            fwd = pose.rotation[:, 2]
            to_center = center - pose.translation
            to_center /= np.linalg.norm(to_center)
            assert np.allclose(fwd, to_center, atol=1e-9)

    def test_degenerate_look_at_rejected(self):
        with pytest.raises(ValueError):
            look_at((0, 0, 1), (0, 0, 0), up=(0, 0, 1))
