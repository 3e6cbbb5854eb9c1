import re
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rgbdnav import oracle, scene_io
from rgbdnav.oracle import (
    LabeledBox,
    PerturbationConfig,
    look_at,
    make_synthetic_scene,
    orbit_trajectory,
    render_depth,
    render_gt_detections,
)
from rgbdnav.masks import erode_bitmap
from rgbdnav.projection import project_to_pixels, to_camera, to_world
from rgbdnav.types import Box3D, CameraIntrinsics, CameraPose, Detection2D, ObjectCloud

from conftest import BENCH_LAYOUT, dilation_oracle, full_image_bitmap, gt_points_reference_from_ids, random_rotation


def render_depth_reference(boxes, pose, intrinsics):
    """The slab test with NaN-skipping row reductions over (N, 3) ray parameters."""
    h, w = intrinsics.height, intrinsics.width
    us, vs = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    dirs_cam = np.stack(
        [(us - intrinsics.cx) / intrinsics.fx, (vs - intrinsics.cy) / intrinsics.fy, np.ones_like(us)],
        axis=-1,
    ).reshape(-1, 3)
    dirs_w = dirs_cam @ pose.rotation.T
    origin = pose.translation
    hits = np.full((len(boxes), h * w), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN rows
        inv = 1.0 / dirs_w
        for i, lb in enumerate(boxes):
            t1 = (lb.box.min_corner - origin) * inv
            t2 = (lb.box.max_corner - origin) * inv
            tmin = np.nanmax(np.minimum(t1, t2), axis=1)
            tmax = np.nanmin(np.maximum(t1, t2), axis=1)
            hit = (tmax >= tmin) & (tmin > oracle._NEAR)
            hits[i, hit] = tmin[hit]
    owner = np.argmin(hits, axis=0).astype(np.int64)
    depth = hits[owner, np.arange(h * w)]
    owner[~np.isfinite(depth)] = -1
    depth[~np.isfinite(depth)] = 0.0
    return depth.reshape(h, w), owner.reshape(h, w)


def reprojected_masks_reference(frame, gt, depth_scale):
    """(label, bitmap) per GT instance seen in the frame: its points projected and z-buffered.

    A GT point lands in the mask when it projects inside the image and its
    depth agrees with the frame's depth within 2 depth quanta.
    """
    intr = frame.intrinsics
    masks = []
    for inst in gt:
        cam = to_camera(inst.points, frame.pose)
        cam = cam[cam[:, 2] > oracle._NEAR]
        if cam.shape[0] == 0:
            continue
        u, v = project_to_pixels(cam, intr)
        ui = np.rint(u).astype(np.int64)
        vi = np.rint(v).astype(np.int64)
        inside = (ui >= 0) & (ui < intr.width) & (vi >= 0) & (vi < intr.height)
        ui, vi, z = ui[inside], vi[inside], cam[inside, 2]
        visible = np.abs(z - frame.depth[vi, ui]) <= 2.0 * depth_scale
        if not visible.any():
            continue
        bitmap = np.zeros((intr.height, intr.width), dtype=bool)
        bitmap[vi[visible], ui[visible]] = True
        masks.append((inst.label, bitmap))
    return masks


def render_gt_detections_reference(frame_id, ids, labels, noise):
    """(detection, full-image bitmap) pairs from morphology and box clipping on the whole image."""
    rng = np.random.default_rng([noise.seed, zlib.crc32(frame_id.encode())])
    height, width = ids.shape
    out = []
    for k, label in enumerate(labels):
        bitmap = ids == k + 1
        if not bitmap.any():
            continue
        if noise.drop_prob > 0 and rng.random() < noise.drop_prob:
            continue
        # |k| one-pixel steps of size 3, where the oracle makes one call of size 2|k| + 1
        morph = erode_bitmap if noise.mask_erode_px > 0 else oracle._dilate_bitmap
        for _ in range(abs(noise.mask_erode_px)):
            bitmap = morph(bitmap, 3)
        if not bitmap.any():
            continue
        ys, xs = np.nonzero(bitmap)
        x1, y1, x2, y2 = int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1
        if noise.box_jitter_px > 0:
            j = noise.box_jitter_px
            dx1, dy1, dx2, dy2 = rng.integers(-j, j + 1, size=4)
            x1, y1 = max(0, x1 + int(dx1)), max(0, y1 + int(dy1))
            x2, y2 = min(width, x2 + int(dx2)), min(height, y2 + int(dy2))
            if x1 >= x2 or y1 >= y2:
                continue
            clipped = np.zeros_like(bitmap)
            clipped[y1:y2, x1:x2] = bitmap[y1:y2, x1:x2]
            bitmap = clipped
            if not bitmap.any():
                continue
        score = 1.0
        if noise.score_sigma > 0:
            score = float(np.clip(1.0 - abs(rng.normal(0.0, noise.score_sigma)), 0.0, 1.0))
        out.append((Detection2D((float(x1), float(y1), float(x2), float(y2)), score, label), bitmap))
    return out


def _oracle_inputs(scene_dir):
    """The loaded views, the GT labels, and a function from a view to its instance-id image."""
    views = list(scene_io.iter_views(scene_dir))
    labels = scene_io.load_gt_labels(scene_dir)

    def ids(view):
        return scene_io.load_gt_ids(scene_dir, view.frame.frame_id, view.frame.intrinsics, len(labels))

    return views, labels, ids


def _cube(label, center, side=1.0):
    c = np.asarray(center, dtype=float)
    h = side / 2.0
    return LabeledBox(label, Box3D(c - h, c + h))


class TestRenderDepth:
    def test_centered_cube_square_patch(self):
        # 1 m cube 3 m in front of an identity camera: the depth image holds a
        # centered square at ~2.5 m (the near face), nothing else.
        intr = oracle.default_intrinsics(64, 64, 60.0)
        depth, ids = render_depth([_cube("cube", (0.0, 0.0, 3.0))], CameraPose.identity(), intr)
        assert ids.dtype == np.uint8
        assert depth[32, 32] == pytest.approx(2.5)
        assert ids[32, 32] == 1
        assert depth[0, 0] == 0.0 and ids[0, 0] == 0
        # analytic half-size of the projected near face: 0.5 * f / 2.5 = 12 px
        vs, us = np.nonzero(ids == 1)
        assert 10 <= (us.max() - us.min()) / 2 <= 14

    def test_nearest_surface_wins(self):
        intr = oracle.default_intrinsics(32, 32, 30.0)
        near = _cube("near", (0.0, 0.0, 2.0), side=0.5)
        far = _cube("far", (0.0, 0.0, 5.0), side=2.0)
        depth, ids = render_depth([far, near], CameraPose.identity(), intr)
        assert ids[16, 16] == 2
        assert depth[16, 16] == pytest.approx(1.75)

    @staticmethod
    def _assert_matches_reference(boxes, pose, intr):
        depth, ids = render_depth(boxes, pose, intr)
        ref_depth, ref_owner = render_depth_reference(boxes, pose, intr)
        assert ids.dtype == np.uint8
        assert np.array_equal(depth.view(np.int64), ref_depth.view(np.int64))
        assert np.array_equal(ids, ref_owner + 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.booleans())
    def test_matches_row_reduction_reference(self, seed, n_boxes, axis_aligned):
        # random boxes and poses; an axis-aligned camera with integer principal
        # point and its origin on two face planes of the first box sends the
        # centre row and column along those planes (0 * inf = NaN)
        rng = np.random.default_rng(seed)
        if axis_aligned:
            intr = CameraIntrinsics(20.0, 20.0, 12.0, 8.0, 25, 17)
            lows = rng.integers(-4, 5, size=(n_boxes, 3)) / 2.0
            boxes = [LabeledBox(f"b{i}", Box3D(lo, lo + rng.integers(1, 4, 3) / 2.0)) for i, lo in enumerate(lows)]
            pose = CameraPose(np.eye(3), lows[0] - [0.0, 0.0, rng.integers(1, 3)])
        else:
            intr = oracle.default_intrinsics(24, 18, 20.0)
            corners = rng.uniform(-2, 2, (n_boxes, 2, 3))
            boxes = [LabeledBox(f"b{i}", Box3D(c.min(axis=0), c.max(axis=0))) for i, c in enumerate(corners)]
            pose = CameraPose(random_rotation(rng), rng.uniform(-3, 3, 3))
        self._assert_matches_reference(boxes, pose, intr)

    def test_matches_reference_with_origin_on_face_plane(self):
        # identity rotation and integer cx/cy: the centre column and row have
        # zero x/y ray components, and the origin lies on the x = 0 and y = 0
        # planes of the box faces, so the slab test meets 0 * inf = NaN
        intr = CameraIntrinsics(30.0, 30.0, 16.0, 10.0, 33, 21)
        boxes = [
            LabeledBox("a", Box3D(np.array([0.0, -0.5, 2.0]), np.array([1.0, 0.0, 3.0]))),
            LabeledBox("b", Box3D(np.array([-1.0, 0.0, 1.5]), np.array([0.0, 1.0, 4.0]))),
        ]
        pose = CameraPose.identity()
        _, ids = render_depth(boxes, pose, intr)
        assert (ids[:, 16] != 0).any() and (ids[10, :] != 0).any()
        self._assert_matches_reference(boxes, pose, intr)

    def test_corner_behind_camera_clips_footprint_at_near_plane(self):
        # the box reaches behind the camera, so its projected corners do not
        # bound it; its part in front does: the edges crossing the near plane
        # project off the top, bottom and left, the far face's x = -0.5 edge
        # to column 20 * -0.5 / 3 + 12 = 8.67
        intr = CameraIntrinsics(20.0, 20.0, 12.0, 8.0, 25, 17)
        boxes = [LabeledBox("a", Box3D(np.array([-3.0, -0.5, -1.0]), np.array([-0.5, 0.5, 3.0])))]
        pose = CameraPose.identity()
        assert oracle._footprint(boxes[0].box, pose, intr) == (slice(0, 17), slice(0, 11))
        _, ids = render_depth(boxes, pose, intr)
        assert (ids[:, 0] == 1).all() and (ids == 0).any()
        self._assert_matches_reference(boxes, pose, intr)

    def test_wall_through_camera_plane_costs_its_footprint(self):
        # a wall beside the camera from z = -1 to 5: its clipped footprint is
        # 90 of 640 columns, so the render's memory stays near that of the
        # crate alone (a whole-image window for the wall would take 2.9x)
        intr = oracle.default_intrinsics(640, 480, 580.0)
        crate = LabeledBox("crate", Box3D(np.array([-0.5, -0.5, 2.0]), np.array([0.5, 0.5, 3.0])))
        wall = LabeledBox("wall", Box3D(np.array([2.0, -1.0, -1.0]), np.array([2.2, 1.0, 5.0])))
        pose = CameraPose.identity()
        assert oracle._footprint(wall.box, pose, intr) == (slice(0, 480), slice(550, 640))
        peaks = []
        for boxes in ([crate], [crate, wall]):
            tracemalloc.start()
            try:
                _, ids = render_depth(boxes, pose, intr)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (ids == 2).sum() > 0
        assert peaks[1] <= 1.5 * peaks[0]
        self._assert_matches_reference([crate, wall], pose, intr)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_box_through_camera_plane_matches_reference(self, seed):
        # a random pose and the world box around a camera-frame point in front
        # of the camera and one behind it, both to the same side; the camera
        # itself must be outside the box, where its rays can hit it
        rng = np.random.default_rng(seed)
        intr = oracle.default_intrinsics(24, 18, 20.0)
        pose = CameraPose(random_rotation(rng), rng.uniform(-3, 3, 3))
        cam = np.array([
            [rng.uniform(0.2, 1.5), rng.uniform(-1, 1), rng.uniform(0.5, 3.0)],
            [rng.uniform(0.2, 1.5), rng.uniform(-1, 1), -rng.uniform(0.1, 2.0)],
        ])
        cam[:, 0] *= rng.choice([-1.0, 1.0])
        corners = to_world(cam, pose)
        box = Box3D(corners.min(axis=0), corners.max(axis=0))
        assume(not np.all((box.min_corner <= pose.translation) & (pose.translation <= box.max_corner)))
        self._assert_matches_reference([LabeledBox("a", box)], pose, intr)

    def test_box_behind_camera_is_skipped(self):
        # every corner at or behind the camera plane, one face on it (z = 0):
        # no point of the box has the positive depth a hit needs
        intr = CameraIntrinsics(20.0, 20.0, 12.0, 8.0, 25, 17)
        boxes = [
            LabeledBox("seen", Box3D(np.array([-0.5, -0.5, 2.0]), np.array([0.5, 0.5, 3.0]))),
            LabeledBox("behind", Box3D(np.array([-2.0, -1.0, -1.5]), np.array([2.0, 1.0, 0.0]))),
        ]
        pose = CameraPose.identity()
        rows, cols = oracle._footprint(boxes[1].box, pose, intr)
        assert rows.start >= rows.stop and cols.start >= cols.stop
        _, ids = render_depth(boxes, pose, intr)
        assert (ids == 1).any() and not (ids == 2).any()
        self._assert_matches_reference(boxes, pose, intr)

    def test_footprint_off_image_is_skipped(self):
        intr = CameraIntrinsics(20.0, 20.0, 12.0, 8.0, 25, 17)
        boxes = [
            LabeledBox("seen", Box3D(np.array([-0.5, -0.5, 2.0]), np.array([0.5, 0.5, 3.0]))),
            LabeledBox("aside", Box3D(np.array([5.0, -0.5, 2.0]), np.array([6.0, 0.5, 3.0]))),
        ]
        pose = CameraPose.identity()
        rows, cols = oracle._footprint(boxes[1].box, pose, intr)
        assert cols.start >= cols.stop
        _, ids = render_depth(boxes, pose, intr)
        assert (ids == 1).any() and not (ids == 2).any()
        self._assert_matches_reference(boxes, pose, intr)

    def test_box_partly_off_image_edge(self):
        # the box straddles the left and top edges: its footprint is clipped
        intr = CameraIntrinsics(20.0, 20.0, 12.0, 8.0, 25, 17)
        boxes = [LabeledBox("a", Box3D(np.array([-2.0, -1.5, 2.0]), np.array([-0.2, 0.3, 2.5])))]
        pose = CameraPose.identity()
        rows, cols = oracle._footprint(boxes[0].box, pose, intr)
        assert rows.start == 0 and cols.start == 0 and rows.stop < 17 and cols.stop < 25
        _, ids = render_depth(boxes, pose, intr)
        assert ids[0, 0] == 1
        self._assert_matches_reference(boxes, pose, intr)

    def test_grazing_ray_at_footprint_edge(self):
        # the near face's x = 0.5 edge projects exactly onto pixel column 17
        # (0.5 * 20 / 2 + 12), so that column's rays graze the box
        intr = CameraIntrinsics(20.0, 20.0, 12.0, 8.0, 25, 17)
        boxes = [LabeledBox("a", Box3D(np.array([-0.5, -0.5, 2.0]), np.array([0.5, 0.5, 3.0])))]
        pose = CameraPose.identity()
        rows, cols = oracle._footprint(boxes[0].box, pose, intr)
        assert cols.stop - 1 == 18  # the grazing column plus the 1 px margin
        _, ids = render_depth(boxes, pose, intr)
        assert ids[8, 17] == 1 and (ids[:, 18] == 0).all()
        self._assert_matches_reference(boxes, pose, intr)

    def test_matches_reference_on_layouts(self, layout_scenes):
        for s in layout_scenes:
            for pose in s.trajectory[:3]:
                self._assert_matches_reference(s.boxes, pose, s.intrinsics)

    @pytest.mark.parametrize("view", [5, 11, 17])
    def test_matches_reference_at_bench_resolution(self, view):
        # 640x480 footprint windows from across the bench orbit, beyond the
        # first views that test_matches_reference_on_layouts covers
        pose = oracle.default_trajectory(20)[view]
        self._assert_matches_reference(BENCH_LAYOUT, pose, oracle.default_intrinsics(640, 480, 580.0))

    def test_memory_scales_with_footprints(self):
        # rays are built per footprint window: a full-image ray setup would
        # peak at about 8x the depth and id rasters it returns
        intr = oracle.default_intrinsics(640, 480, 580.0)
        peaks = []
        for pose in oracle.default_trajectory(20):
            tracemalloc.start()
            try:
                depth, ids = render_depth(BENCH_LAYOUT, pose, intr)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 3 * (depth.nbytes + ids.nbytes)

    @pytest.mark.parametrize(
        "noise", [PerturbationConfig(), PerturbationConfig(seed=3, mask_erode_px=-2, box_jitter_px=4, drop_prob=0.2)]
    )
    def test_footprints_find_the_masks_the_whole_raster_does(self, noise):
        # a label's pixels lie inside its box's footprint window, so searching only there loses none
        intr = oracle.default_intrinsics(640, 480, 580.0)
        labels = [lb.label for lb in BENCH_LAYOUT]
        for i, pose in enumerate(oracle.default_trajectory(20)):
            footprints = [oracle._footprint(lb.box, pose, intr) for lb in BENCH_LAYOUT]
            _, ids = render_depth(BENCH_LAYOUT, pose, intr, footprints)
            got = render_gt_detections(f"{i:04d}", ids, labels, noise, footprints)
            want = render_gt_detections(f"{i:04d}", ids, labels, noise)
            assert [m.detection for m in got] == [m.detection for m in want]
            assert all(np.array_equal(g.bitmap, w.bitmap) for g, w in zip(got, want))


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

    @pytest.mark.parametrize(
        "center, side, message",
        [((0.0, 0.0, 100.0), 20.0, "overflows 16 bits"), ((0.0, 0.0, 0.5004), 1.0, "closer than one depth quantum")],
    )
    def test_depth_out_of_16_bit_range_rejected(self, tmp_path, center, side, message):
        # a near face at 90 m is 90,000 quanta of 1 mm; one at 0.4 mm rounds to 0
        intr = oracle.default_intrinsics(16, 16, 15.0)
        with pytest.raises(ValueError, match=message):
            make_synthetic_scene([_cube("c", center, side)], [CameraPose.identity()], intr, tmp_path / "s")

    def test_more_than_255_boxes_write_16_bit_ids(self, tmp_path):
        # a 16 x 16 grid of small cubes, one per pixel block of a 64 x 64 image
        intr = oracle.default_intrinsics(64, 64, 64.0)
        boxes = [_cube(f"b{k}", ((k % 16 - 7.5) / 8.0, (k // 16 - 7.5) / 8.0, 4.0), side=0.1) for k in range(256)]
        pose = CameraPose.identity()
        make_synthetic_scene(boxes, [pose], intr, tmp_path / "s")
        _, rendered = render_depth(boxes, pose, intr)
        assert rendered.dtype == np.uint16 and rendered.max() == 256
        ids = scene_io.load_gt_ids(tmp_path / "s", "0000", intr, len(boxes))
        assert np.array_equal(ids, rendered)
        assert (tmp_path / "s" / "gt" / "ids" / "0000.pgm").read_bytes().startswith(b"P5\n64 64\n65535\n")

    def test_translated_poses_share_world_gt(self, tmp_path):
        # two cameras related by a pure translation record the same world
        # surface: the ground-truth extents agree up to pixel sampling and
        # depth quantization
        intr = oracle.default_intrinsics(48, 48, 50.0)
        cube = _cube("cube", (0.0, 0.0, 4.0), side=0.8)
        base = CameraPose.identity()
        shifted = CameraPose(np.eye(3), np.array([0.3, 0.0, -1.0]))
        make_synthetic_scene([cube], [base], intr, tmp_path / "s1")
        gt1 = gt_points_reference_from_ids(tmp_path / "s1")[0]
        make_synthetic_scene([cube], [shifted], intr, tmp_path / "s2")
        gt2 = gt_points_reference_from_ids(tmp_path / "s2")[0]
        footprint = 4.6 / 50.0  # deepest visible surface over focal length
        tol = footprint + 2e-3
        assert np.allclose(gt1.points.min(axis=0), gt2.points.min(axis=0), atol=tol)
        assert np.allclose(gt1.points.max(axis=0), gt2.points.max(axis=0), atol=tol)

    def test_quantized_box_near_analytic_surface_box(self, tmp_path):
        # with a perfect mask and exact synthetic depth, the reconstructed box
        # corners sit within one depth quantization step of the analytic
        # surface extremes (quantization error scaled by |u-cx|/fx < 1)
        from rgbdnav.projection import back_project_pixels, to_world

        intr = oracle.default_intrinsics(96, 96, 90.0)
        pose = look_at((2.0, -1.5, 1.8), (0.0, 0.0, 0.3))
        cube = _cube("cube", (0.0, 0.0, 0.4), side=0.8)
        depth, ids = render_depth([cube], pose, intr)
        scale = 0.001
        vs, us = np.nonzero(ids == 1)
        analytic = to_world(back_project_pixels(us, vs, depth[vs, us], intr), pose)
        quantized = np.round(depth[vs, us] / scale) * scale
        recovered = to_world(back_project_pixels(us, vs, quantized, intr), pose)
        box_a = ObjectCloud(analytic, "cube", 1.0).box
        box_r = ObjectCloud(recovered, "cube", 1.0).box
        assert np.abs(box_r.min_corner - box_a.min_corner).max() <= scale + 1e-6
        assert np.abs(box_r.max_corner - box_a.max_corner).max() <= scale + 1e-6

    @pytest.mark.parametrize(
        "noise",
        [PerturbationConfig(), PerturbationConfig(seed=2, mask_erode_px=-2, box_jitter_px=3),
         PerturbationConfig(seed=4, mask_erode_px=1, box_jitter_px=2, drop_prob=0.3)],
        ids=["clean", "dilated_jittered", "eroded_dropped"],
    )
    def test_mask_files_load_as_rendered(self, tmp_path, noise):
        # a mask file is the oracle's bitmap over its box's window: each view loads the
        # detections and bitmaps render_gt_detections makes from the same render
        boxes, trajectory, intr = oracle.default_box_layout(), oracle.default_trajectory(4), oracle.default_intrinsics()
        written = make_synthetic_scene(boxes, trajectory, intr, tmp_path / "s", noise)
        labels = [lb.label for lb in boxes]
        loaded = 0
        for pose, view in zip(trajectory, scene_io.iter_views(tmp_path / "s")):
            rendered = render_gt_detections(view.frame.frame_id, render_depth(boxes, pose, intr)[1], labels, noise)
            assert [m.detection for m in view.masks] == [m.detection for m in rendered]
            for got, want in zip(view.masks, rendered):
                assert got.bitmap.dtype == bool and np.array_equal(got.bitmap, want.bitmap)
            loaded += len(view.masks)
        assert loaded == written > 0

    def test_layout_is_loadable(self, oracle_scene_dir):
        assert len(list(scene_io.iter_views(oracle_scene_dir))) == 20
        assert {g.label for g in scene_io.load_gt_instances(oracle_scene_dir)} == {"chair", "table", "plant"}


class TestRenderGtDetections:
    def test_masks_match_forward_projection(self, layout_scenes):
        # with noise off, the mask of each instance seen in a frame equals the
        # reference that reprojects the scene's GT points and z-buffers them
        # against the frame's depth
        for s in layout_scenes:
            views, labels, ids = _oracle_inputs(s.scene_dir)
            gt = gt_points_reference_from_ids(s.scene_dir)
            _, depth_scale = scene_io.load_intrinsics(s.scene_dir / "intrinsics.txt")
            for view in views:
                masks = render_gt_detections(view.frame.frame_id, ids(view), labels)
                expected = reprojected_masks_reference(view.frame, gt, depth_scale)
                assert [m.detection.label for m in masks] == [label for label, _ in expected]
                for m, (_, bitmap) in zip(masks, expected):
                    assert np.array_equal(full_image_bitmap(m, bitmap.shape), bitmap)

    def test_boxes_are_tight(self, oracle_scene_dir):
        views, labels, ids = _oracle_inputs(oracle_scene_dir)
        view = views[0]
        for mask in render_gt_detections(view.frame.frame_id, ids(view), labels):
            det = mask.detection
            vs, us = np.nonzero(full_image_bitmap(mask, view.frame.depth.shape))
            assert det.box == (float(us.min()), float(vs.min()), float(us.max() + 1), float(vs.max() + 1))
            assert det.score == 1.0

    def test_drop_prob_one_removes_everything(self, oracle_scene_dir):
        views, labels, ids = _oracle_inputs(oracle_scene_dir)
        view = views[0]
        assert render_gt_detections(view.frame.frame_id, ids(view), labels, PerturbationConfig(seed=1, drop_prob=1.0)) == []

    def test_deterministic_given_seed(self, oracle_scene_dir):
        views, labels, ids = _oracle_inputs(oracle_scene_dir)
        view = views[1]
        noise = PerturbationConfig(seed=42, box_jitter_px=3, mask_erode_px=1, drop_prob=0.3, score_sigma=0.2)
        a = render_gt_detections(view.frame.frame_id, ids(view), labels, noise)
        b = render_gt_detections(view.frame.frame_id, ids(view), labels, noise)
        assert [m.detection for m in a] == [m.detection for m in b]
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.bitmap, mb.bitmap)

    def test_unseen_label_draws_no_noise(self, oracle_scene_dir):
        # a label with no pixels is skipped before any draw, so the seeded
        # noise of the labels that are seen does not change
        views, labels, ids = _oracle_inputs(oracle_scene_dir)
        view = views[2]
        noise = PerturbationConfig(seed=7, box_jitter_px=2, mask_erode_px=1, drop_prob=0.3, score_sigma=0.2)
        plain = ids(view)
        shifted = np.where(plain > 0, plain + 1, 0)  # id 1 now names a label seen nowhere
        a = render_gt_detections(view.frame.frame_id, plain, labels, noise)
        b = render_gt_detections(view.frame.frame_id, shifted, ["ghost", *labels], noise)
        assert [m.detection for m in a] == [m.detection for m in b]
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.bitmap, mb.bitmap)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**16), st.integers(0, 19), st.integers(-3, 3), st.integers(0, 12),
        st.sampled_from([0.0, 0.3]), st.sampled_from([0.0, 0.2]),
    )
    def test_matches_full_image_reference(self, oracle_scene_dir, seed, frame, erode, jitter, drop, sigma):
        # box-local morphology and clipping give the detections and masks of
        # the full-image path, bit for bit, under every kind of noise
        labels = scene_io.load_gt_labels(oracle_scene_dir)
        intr, _ = scene_io.load_intrinsics(oracle_scene_dir / "intrinsics.txt")
        frame_id = scene_io.list_frames(oracle_scene_dir)[0][frame]
        ids = scene_io.load_gt_ids(oracle_scene_dir, frame_id, intr, len(labels))
        noise = PerturbationConfig(seed, jitter, erode, drop, sigma)
        masks = render_gt_detections(frame_id, ids, labels, noise)
        expected = render_gt_detections_reference(frame_id, ids, labels, noise)
        assert [m.detection for m in masks] == [det for det, _ in expected]
        for m, (_, bitmap) in zip(masks, expected):
            assert np.array_equal(full_image_bitmap(m, bitmap.shape), bitmap)

    def test_jittered_masks_stay_inside_boxes(self, oracle_scene_dir):
        views, labels, ids = _oracle_inputs(oracle_scene_dir)
        noise = PerturbationConfig(seed=3, box_jitter_px=6, mask_erode_px=-2)
        for view in views[:4]:
            for mask in render_gt_detections(view.frame.frame_id, ids(view), labels, noise):
                vs, us = np.nonzero(full_image_bitmap(mask, view.frame.depth.shape))
                x1, y1, x2, y2 = mask.detection.box
                assert us.min() >= x1 and us.max() < x2
                assert vs.min() >= y1 and vs.max() < y2


class TestDilation:
    @settings(max_examples=300)
    @given(arrays(bool, st.tuples(st.integers(1, 10), st.integers(1, 10))), st.sampled_from([1, 3, 5, 7]))
    @example(np.eye(1, 25, 12, dtype=bool).reshape(5, 5), 7)  # one pixel fills a window smaller than the square
    def test_matches_brute_force_oracle(self, bitmap, size):
        assert np.array_equal(oracle._dilate_bitmap(bitmap, size), dilation_oracle(bitmap, np.ones((size, size))))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_k_dilations_of_size_3_are_one_of_size_2k_plus_1(self, k):
        # exact because the window is a rectangle: clipping each step loses no path
        rng = np.random.default_rng(k)
        for _ in range(20):
            bitmap = rng.random((int(rng.integers(1, 24)), int(rng.integers(1, 24)))) < 0.05
            stepped = bitmap
            for _ in range(k):
                stepped = oracle._dilate_bitmap(stepped, 3)
            assert np.array_equal(oracle._dilate_bitmap(bitmap, 2 * k + 1), stepped)


def _resynth(scene_dir, noise=PerturbationConfig(), boxes=None) -> int:
    """Synthesize the 20-view default scene (or ``boxes`` on its orbit) into ``scene_dir``."""
    boxes = oracle.default_box_layout() if boxes is None else boxes
    return make_synthetic_scene(boxes, oracle.default_trajectory(20), oracle.default_intrinsics(), scene_dir, noise)


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestResynth:
    """Synthesizing into a directory that already holds a scene replaces that scene."""

    def test_rewrite_is_deterministic(self, mutable_scene_dir):
        noise = PerturbationConfig(seed=5, drop_prob=0.4, box_jitter_px=2)
        n1 = _resynth(mutable_scene_dir, noise)
        snapshot = _tree_bytes(mutable_scene_dir)
        n2 = _resynth(mutable_scene_dir, noise)
        assert n1 == n2
        assert _tree_bytes(mutable_scene_dir) == snapshot

    def test_stale_masks_removed(self, mutable_scene_dir):
        written = _resynth(mutable_scene_dir, PerturbationConfig(seed=1, drop_prob=0.9))
        views = list(scene_io.iter_views(mutable_scene_dir))  # would raise on stray masks
        assert sum(len(v.masks) for v in views) == written < 60
        assert len(list((mutable_scene_dir / "frames").glob("*.mask.*.pgm"))) == written

    def test_fewer_detections_leave_no_earlier_mask(self, mutable_scene_dir, tmp_path):
        # three detections a frame before, one after: masks 1 and 2 of every frame must go,
        # and the directory must hold the bytes a synth into an empty one writes
        assert len(list((mutable_scene_dir / "frames").glob("*.mask.2.pgm"))) == 20
        one_box = oracle.default_box_layout()[:1]
        assert _resynth(mutable_scene_dir, boxes=one_box) == 20
        masks = sorted(p.name for p in (mutable_scene_dir / "frames").glob("*.mask.*.pgm"))
        assert masks == [f"{i:04d}.mask.0.pgm" for i in range(20)]
        _resynth(tmp_path / "fresh", boxes=one_box)
        assert _tree_bytes(mutable_scene_dir) == _tree_bytes(tmp_path / "fresh")


# Each way a label fails to read back: empty, cut at '#', split into lines, stripped.
UNREADABLE_LABELS = ["", "a#b", "#", "two\nlines", "cr\rlf", "trail\n", "nel\x85sep", " lead", "trail ", "\t", "x\u2028y"]


class TestLabeledBox:
    @pytest.mark.parametrize("label", UNREADABLE_LABELS)
    def test_unreadable_label_rejected(self, label):
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            _cube(label, (0.0, 0.0, 3.0))

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=12))
    @example("a b")  # inner whitespace stays: the label is the rest of its detections line
    @example("a\x1fb")  # a unit separator is whitespace but no line break
    def test_accepted_label_reads_back_unchanged(self, tmp_path_factory, label):
        try:
            box = _cube(label, (0.0, 0.0, 3.0))
        except ValueError:
            assume(False)
        scene = tmp_path_factory.mktemp("label")
        assert make_synthetic_scene([box], [CameraPose.identity()], oracle.default_intrinsics(16, 16, 15.0), scene) == 1
        assert scene_io.load_gt_labels(scene) == [label]
        (view,) = scene_io.iter_views(scene)
        assert [m.detection.label for m in view.masks] == [label]


class TestPerturbationConfig:
    def test_file_round_trip(self, tmp_path):
        # the file reads back through the one key = value parser, every field
        # cast to the type of its value
        cfg = PerturbationConfig(seed=9, box_jitter_px=2, mask_erode_px=-1, drop_prob=0.25, score_sigma=0.1)
        cfg.to_file(tmp_path / "p.txt")
        values = scene_io.read_key_values(tmp_path / "p.txt")
        assert sorted(values) == sorted(cfg.__dataclass_fields__)
        assert PerturbationConfig(**{k: type(getattr(cfg, k))(v) for k, v in values.items()}) == cfg

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
