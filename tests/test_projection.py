import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rgbdnav.projection import (
    back_project_pixels,
    project_to_pixels,
    reconstruct_object,
    to_camera,
    to_world,
)
from rgbdnav.types import (
    CameraIntrinsics,
    CameraPose,
    DepthFrame,
    Detection2D,
    InstanceMask,
    ObjectCloud,
    PipelineConfig,
)

from conftest import erosion_oracle, random_rotation, zscore_keep_oracle, zscore_rounding_decides


class TestBackProject:
    def test_principal_point_maps_to_axis(self):
        intr = CameraIntrinsics(320.0, 320.0, 31.0, 23.0, 64, 48)
        pts = back_project_pixels([31], [23], [2.5], intr)
        assert np.allclose(pts, [[0.0, 0.0, 2.5]])

    def test_unit_focal_direct_substitution(self):
        intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 64, 48)
        pts = back_project_pixels([2], [3], [4.0], intr)
        assert np.allclose(pts, [[8.0, 12.0, 4.0]])

    def test_doubling_fx_halves_x_only(self):
        a = CameraIntrinsics(100.0, 80.0, 32.0, 24.0, 64, 48)
        b = CameraIntrinsics(200.0, 80.0, 32.0, 24.0, 64, 48)
        pixels = ([10, 50], [5, 40], [1.0, 3.0])
        pa = back_project_pixels(*pixels, a)
        pb = back_project_pixels(*pixels, b)
        assert np.allclose(pb[:, 0], pa[:, 0] / 2)
        assert np.allclose(pb[:, 1:], pa[:, 1:])

    @given(
        st.floats(50.0, 800.0), st.floats(50.0, 800.0),
        st.floats(0.0, 63.0), st.floats(0.0, 47.0),
        st.floats(0.0, 63.0), st.floats(0.0, 47.0),
        st.floats(0.05, 80.0),
    )
    def test_round_trip_property(self, fx, fy, cx, cy, u, v, d):
        intr = CameraIntrinsics(fx, fy, cx, cy, 64, 48)
        pts = back_project_pixels(np.array([u]), np.array([v]), np.array([d]), intr)
        uu, vv = project_to_pixels(pts, intr)
        assert abs(uu[0] - u) < 1e-6 and abs(vv[0] - v) < 1e-6


class TestToWorld:
    def test_identity_pose_is_noop(self):
        pts = np.array([[1.0, 2.0, 3.0], [-4.0, 0.0, 9.0]])
        assert np.array_equal(to_world(pts, CameraPose.identity()), pts)

    def test_pure_translation(self):
        pose = CameraPose(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(to_world(np.zeros((1, 3)), pose), [[1.0, 2.0, 3.0]])

    def test_rot_z_90(self):
        c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        pose = CameraPose(rot, np.zeros(3))
        out = to_world(np.array([[1.0, 0.0, 0.0]]), pose)
        assert np.allclose(out, [[0.0, 1.0, 0.0]], atol=1e-9)

    def test_to_camera_inverts_to_world(self):
        rng = np.random.default_rng(0)
        pose = CameraPose(random_rotation(rng), rng.normal(size=3))
        pts = rng.normal(size=(30, 3))
        assert np.allclose(to_camera(to_world(pts, pose), pose), pts, atol=1e-12)

    def test_rigid_invariance_of_pairwise_distances(self):
        rng = np.random.default_rng(1)
        pose = CameraPose(random_rotation(rng), rng.normal(size=3) * 5)
        pts = rng.normal(size=(100, 3)) * 3
        out = to_world(pts, pose)
        d_in = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        d_out = np.linalg.norm(out[:, None, :] - out[None, :, :], axis=-1)
        assert np.abs(d_in - d_out).max() < 1e-9


class TestColumnMajorClouds:
    """Clouds come back column-major, with the values of the row-major reference bit for bit.

    The CI workflow runs ``test_to_world_bit_identical_to_row_major`` as its own
    step: a BLAS that rounds ``R @ p.T`` unlike ``p @ R.T`` fails there by name.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 3000),
        st.sampled_from(["C", "F"]),
    )
    @example(seed=0, n=0, order="C")
    @example(seed=0, n=0, order="F")
    def test_to_world_bit_identical_to_row_major(self, seed, n, order):
        rng = np.random.default_rng(seed)
        pose = CameraPose(random_rotation(rng), rng.uniform(-5, 5, size=3))
        pts = np.asarray(rng.normal(size=(n, 3)) * rng.uniform(0.1, 20), order=order)
        got = to_world(pts, pose)
        want = pts @ pose.rotation.T + pose.translation
        assert got.shape == want.shape == (n, 3)
        assert got.flags.f_contiguous
        # tobytes in C order: equal bits, signed zeros included
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 3000))
    @example(seed=0, n=0)
    def test_back_project_bit_identical_to_column_stack(self, seed, n):
        rng = np.random.default_rng(seed)
        intr = CameraIntrinsics(*rng.uniform(50, 800, size=2), rng.uniform(0, 64), rng.uniform(0, 48), 64, 48)
        us, vs = rng.integers(0, 64, size=n), rng.integers(0, 48, size=n)
        depths = rng.uniform(0.0, 9.0, size=n)
        got = back_project_pixels(us, vs, depths, intr)
        x = (us.astype(np.float64) - intr.cx) * depths / intr.fx
        y = (vs.astype(np.float64) - intr.cy) * depths / intr.fy
        want = np.column_stack([x, y, depths])
        assert got.shape == (n, 3) and got.flags.f_contiguous
        assert got.tobytes() == want.tobytes()


class TestBoxFromCloud:
    def test_two_points(self):
        cloud = ObjectCloud(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]), "thing", 1.0)
        box = cloud.box
        assert np.array_equal(box.min_corner, [0.0, 0.0, 0.0])
        assert np.array_equal(box.max_corner, [1.0, 2.0, 3.0])

    def test_single_point_degenerate(self):
        box = ObjectCloud(np.array([[1.0, -2.0, 0.5]]), "thing", 1.0).box
        assert np.array_equal(box.min_corner, box.max_corner)

    def test_random_cloud_matches_scan_oracle(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(100, 3))
        box = ObjectCloud(pts, "thing", 1.0).box
        lo = np.array([min(p[i] for p in pts) for i in range(3)])
        hi = np.array([max(p[i] for p in pts) for i in range(3)])
        assert np.array_equal(box.min_corner, lo)
        assert np.array_equal(box.max_corner, hi)

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            ObjectCloud(np.zeros((0, 3)), "thing", 1.0).box

    @given(st.integers(1, 40).flatmap(
        lambda n: arrays(np.float64, (n, 3), elements=st.sampled_from([0.0, -0.0, 1.5, -1.5]) | st.floats(-50, 50))
    ))
    @example(np.array([[s, -s, 1.0] for s in [1, -0.0, 1, 0, -0.0, 1, 1, 1, -0.0, 0, 1, 1, 0, 0, 1, 0, 1]]))
    def test_box_matches_axis_0_reduction_bitwise(self, pts):
        # zeros of both signs are common: which one is the extreme decides the
        # -0.0 that boxes.json prints. In the example, a per-column reduction
        # alone gives min -0.0 in x and max +0.0 in y, the axis-0 one the reverse.
        box = ObjectCloud(pts, "thing", 1.0).box
        for got, want in ((box.min_corner, pts.min(axis=0)), (box.max_corner, pts.max(axis=0))):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50)), min_size=1, max_size=40))
    def test_box_contains_every_point(self, pts):
        pts = np.array(pts)
        box = ObjectCloud(pts, "thing", 1.0).box
        assert np.all(pts >= box.min_corner - 1e-12)
        assert np.all(pts <= box.max_corner + 1e-12)


def _flat_square_frame(size=16, mask_side=10, depth_val=2.0, pose=None):
    intr = CameraIntrinsics(40.0, 40.0, (size - 1) / 2.0, (size - 1) / 2.0, size, size)
    depth = np.zeros((size, size))
    lo = (size - mask_side) // 2
    depth[lo:lo + mask_side, lo:lo + mask_side] = depth_val
    bitmap = depth[lo:lo + mask_side, lo:lo + mask_side] > 0
    det = Detection2D((float(lo), float(lo), float(lo + mask_side), float(lo + mask_side)), 1.0, "slab")
    frame = DepthFrame("f0", depth, intr, pose or CameraPose.identity())
    return frame, InstanceMask(bitmap, det)


class TestReconstructObject:
    def test_flat_square_closed_form(self):
        # 10x10 mask at constant depth centered on the principal point: after
        # one erosion the surviving pixels span the interior 8x8, so the box
        # extents follow directly from the back-projection formulas.
        frame, mask = _flat_square_frame()
        box = reconstruct_object(frame, mask, PipelineConfig()).box
        d, f = 2.0, 40.0
        # surviving pixels run 4..11 of a 16-wide image with center 7.5
        expected_half = (7.5 - 4.0) * d / f
        assert box.max_corner[2] - box.min_corner[2] == 0.0
        assert np.allclose(box.min_corner[:2], [-expected_half, -expected_half])
        assert np.allclose(box.max_corner[:2], [expected_half, expected_half])

    def test_mask_over_invalid_depth_dropped(self):
        frame, mask = _flat_square_frame()
        dead = DepthFrame(frame.frame_id, np.zeros_like(frame.depth), frame.intrinsics, frame.pose)
        assert reconstruct_object(dead, mask, PipelineConfig()) is None

    def test_tiny_mask_erodes_away(self):
        frame, mask = _flat_square_frame()
        bitmap = np.zeros_like(mask.bitmap)
        bitmap[8, 8] = True
        assert reconstruct_object(frame, InstanceMask(bitmap, mask.detection), PipelineConfig()) is None

    def test_pose_moves_box_with_cloud(self):
        rng = np.random.default_rng(3)
        pose = CameraPose(random_rotation(rng), rng.normal(size=3))
        frame_id, mask = _flat_square_frame()
        cloud_id = reconstruct_object(frame_id, mask, PipelineConfig())
        frame_posed = DepthFrame("f1", frame_id.depth, frame_id.intrinsics, pose)
        box_posed = reconstruct_object(frame_posed, mask, PipelineConfig()).box
        expected = ObjectCloud(to_world(cloud_id.points, pose), "slab", 1.0).box
        assert np.allclose(box_posed.min_corner, expected.min_corner, atol=1e-12)
        assert np.allclose(box_posed.max_corner, expected.max_corner, atol=1e-12)

    def test_cloud_records_frame_and_label(self):
        frame, mask = _flat_square_frame()
        cloud = reconstruct_object(frame, mask, PipelineConfig())
        assert cloud.label == "slab"
        assert cloud.source_frames == frozenset({"f0"})


def reconstruct_full_image_reference(frame, bitmap, config):
    """World points of the full-image path, built from the test oracles alone.

    The double-loop erosion of the whole image's bitmap, every set pixel's
    valid depth in row-major order, the plain-Python z-score rule, then the
    pinhole formula pixel by pixel and :func:`to_world`. None where that
    path drops the detection. Examples where rounding alone decides the
    z-score rule are rejected: the two sides sum in different orders.
    """
    selem = np.ones((config.kernel_size, config.kernel_size), dtype=bool)
    vs, us = np.nonzero(erosion_oracle(bitmap, selem))
    pixels = [(u, v, frame.depth[v, u]) for u, v in zip(us, vs) if frame.depth[v, u] > 0]
    depths = [d for _, _, d in pixels]
    assume(not zscore_rounding_decides(depths, config.tau))
    kept = [pixels[i] for i in zscore_keep_oracle(depths, config.tau)]
    if not kept:
        return None
    intr = frame.intrinsics
    cam = [((u - intr.cx) * d / intr.fx, (v - intr.cy) * d / intr.fy, d) for u, v, d in kept]
    return to_world(np.array(cam), frame.pose)


@st.composite
def boxed_masks(draw):
    """(frame, full-image bitmap, detection, config): a random mask inside a box on half-pixel edges.

    Small images make boxes that touch the image border common.
    """
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    x1 = draw(st.integers(0, 2 * w - 1)) / 2
    x2 = draw(st.integers(int(2 * x1) + 1, 2 * w)) / 2
    y1 = draw(st.integers(0, 2 * h - 1)) / 2
    y2 = draw(st.integers(int(2 * y1) + 1, 2 * h)) / 2
    us, vs = np.meshgrid(np.arange(w), np.arange(h))
    inside = (us >= x1) & (us < x2) & (vs >= y1) & (vs < y2)
    bitmap = draw(arrays(bool, (h, w))) & inside
    depth = draw(arrays(np.float64, (h, w), elements=st.sampled_from([0.0, 1.0, 1.25, 1.5, 2.0, 9.0])))
    intr = CameraIntrinsics(30.0, 25.0, (w - 1) / 2.0, (h - 1) / 2.0, w, h)
    pose = CameraPose(random_rotation(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))), [0.5, -1.0, 2.0])
    config = PipelineConfig(tau=draw(st.sampled_from([0.5, 1.0, 2.0])), kernel_size=draw(st.sampled_from([1, 3, 5])))
    return DepthFrame("f0", depth, intr, pose), bitmap, Detection2D((x1, y1, x2, y2), 0.5, "thing"), config


class TestBoxLocalMask:
    @settings(max_examples=300, deadline=None)
    @given(boxed_masks())
    @example(  # the box is the whole image
        (DepthFrame("f0", np.full((4, 5), 2.0), CameraIntrinsics(30.0, 25.0, 2.0, 1.5, 5, 4), CameraPose.identity()),
         np.ones((4, 5), dtype=bool), Detection2D((0.0, 0.0, 5.0, 4.0), 0.5, "thing"), PipelineConfig(kernel_size=1)),
    )
    def test_matches_full_image_path(self, case):
        # cropping the mask to its box window changes no point, bit for bit
        frame, bitmap, det, config = case
        cloud = reconstruct_object(frame, InstanceMask(bitmap[det.window], det), config)
        expected = reconstruct_full_image_reference(frame, bitmap, config)
        if expected is None:
            assert cloud is None
        else:
            assert cloud.points.shape == expected.shape
            assert cloud.points.tobytes() == expected.tobytes()

    def test_window_shape_enforced(self):
        det = Detection2D((0.5, 1.0, 3.5, 3.0), 1.0, "thing")  # rows 1..3, columns 1..4
        assert det.window == (slice(1, 3), slice(1, 4))
        InstanceMask(np.ones((2, 3), dtype=bool), det)
        with pytest.raises(ValueError, match="window"):
            InstanceMask(np.ones((4, 6), dtype=bool), det)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((100.0, 100.0, 0.0, 0.0, 0, 10), "image size must be positive, got width=0 height=10"),
        ((100.0, 100.0, 0.0, 0.0, 10, -3), "image size must be positive, got width=10 height=-3"),
        ((0.0, 100.0, 4.5, 4.5, 10, 10), "focal lengths must be positive and finite"),
        ((100.0, math.nan, 4.5, 4.5, 10, 10), "focal lengths must be positive and finite"),
        ((math.inf, 100.0, 4.5, 4.5, 10, 10), "focal lengths must be positive and finite"),
        ((100.0, 100.0, 10.0, 4.5, 10, 10), r"principal point cx=10.0 outside \[0, 10\)"),
    ],
)
def test_invalid_intrinsics_rejected(fields, message):
    with pytest.raises(ValueError, match=message):
        CameraIntrinsics(*fields)
