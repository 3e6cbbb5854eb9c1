import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rgbdnav import cli, fusion, navsim, oracle, scene_io
from rgbdnav.projection import back_project_pixels, to_world
from rgbdnav.scene_io import (
    SceneLayoutError,
    SceneValidationError,
    load_gt_instances,
    read_cloud_ply,
    write_boxes,
    write_cloud_ply,
    write_instances,
    write_pgm,
)
from rgbdnav.types import CameraIntrinsics, CameraPose, Detection2D, ObjectCloud

from conftest import gt_points_reference_from_ids, random_rotation


def _write_mask(path, rows):
    """An 8-bit mask file holding ``rows`` as they are: its box's window, or any other shape."""
    write_pgm(path, np.asarray(rows, dtype=np.uint16), maxval=255)


def make_fixture_scene(root, width=6, height=4, pose_lines=None, depth_rows=None,
                       detections="1 1 4 3 0.9 mug\n", mask_rows=None, intrinsics=None):
    """A tiny hand-writable two-frame scene.

    ``mask_rows`` is the raster of each mask file, written as it is; by
    default the 2x3 window of the detection box, every pixel set.
    """
    frames = root / "frames"
    frames.mkdir(parents=True)
    (root / "intrinsics.txt").write_text(intrinsics or f"10 10 2.5 1.5 {width} {height} 0.001\n")
    if depth_rows is None:
        depth_rows = [[1500] * width for _ in range(height)]
    if mask_rows is None:
        mask_rows = [[255] * 3] * 2
    pose = pose_lines or "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
    for fid in ("0000", "0001"):
        write_pgm(frames / f"{fid}.depth.pgm", np.array(depth_rows))
        (frames / f"{fid}.pose.txt").write_text(pose)
        (frames / f"{fid}.detections.txt").write_text(detections)
        if detections.strip():
            _write_mask(frames / f"{fid}.mask.0.pgm", mask_rows)
    return root


class TestPgm:
    def test_round_trip_16bit(self, tmp_path):
        img = np.arange(12, dtype=np.uint16).reshape(3, 4) * 1000
        write_pgm(tmp_path / "a.pgm", img)
        assert np.array_equal(scene_io._read_raster(tmp_path / "a.pgm").astype(np.uint16), img)

    def test_round_trip_8bit(self, tmp_path):
        img = np.array([[0, 255], [255, 0]], dtype=np.uint16)
        write_pgm(tmp_path / "m.pgm", img, maxval=255)
        assert np.array_equal(scene_io._read_raster(tmp_path / "m.pgm").astype(np.uint16), img)

    def test_header_comments(self, tmp_path):
        (tmp_path / "c.pgm").write_bytes(b"P5\n# a comment\n2 # another\n2\n100\n\x01\x02\x03\x04")
        assert np.array_equal(scene_io._read_raster(tmp_path / "c.pgm").astype(np.uint16), [[1, 2], [3, 4]])

    def test_truncated_raster_rejected(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P5\n2 2\n10\n\x01\x02\x03")
        with pytest.raises(SceneValidationError, match=r"bad\.pgm: truncated PGM raster"):
            scene_io._read_raster(tmp_path / "bad.pgm").astype(np.uint16)

    @pytest.mark.parametrize("maxval, dtype", [(200, "u1"), (1000, ">u2"), (65535, ">u2")])
    def test_binary_sample_above_maxval_rejected(self, tmp_path, maxval, dtype):
        img = np.array([[0, maxval], [maxval, 1]])
        (tmp_path / "ok.pgm").write_bytes(f"P5\n2 2\n{maxval}\n".encode() + img.astype(dtype).tobytes())
        got = scene_io._read_raster(tmp_path / "ok.pgm").astype(np.uint16)
        assert got.dtype == np.uint16 and got.flags.writeable and np.array_equal(got, img)
        if maxval < 65535:
            img[1, 1] = maxval + 1
            (tmp_path / "bad.pgm").write_bytes(f"P5\n2 2\n{maxval}\n".encode() + img.astype(dtype).tobytes())
            with pytest.raises(SceneValidationError, match=f"exceeds declared maxval {maxval}"):
                scene_io._read_raster(tmp_path / "bad.pgm").astype(np.uint16)

    @pytest.mark.parametrize(
        "image, message",
        [
            (np.array([[0, -1]], dtype=np.int16), "image min -1 is negative"),
            (np.array([[3, -70000]]), "image min -70000 is negative"),
            (np.array([[0.0, 2.7]]), "PGM samples must be integers or bool, got dtype float64"),
            (np.array([[1.0, 2.0]], dtype=np.float32), "PGM samples must be integers or bool, got dtype float32"),
            (np.array([[1 + 0j]]), "PGM samples must be integers or bool, got dtype complex128"),
        ],
        ids=["minus_one_int16", "negative_int64", "fractional_float", "whole_float", "complex"],
    )
    def test_unrepresentable_samples_rejected(self, tmp_path, image, message):
        # -1 would wrap to 65535 and 2.7 truncate to 2
        with pytest.raises(ValueError, match=re.escape(message)):
            write_pgm(tmp_path / "x.pgm", image)
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("maxval", [0, 70000, -5])
    def test_maxval_outside_reader_range_rejected(self, tmp_path, maxval):
        # 0 and 70000 would write files the reader rejects; -5 must not be
        # reported as a sample above maxval
        with pytest.raises(ValueError, match=re.escape(f"PGM maxval {maxval} outside (0, 65535]")):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2), dtype=np.uint8), maxval=maxval)
        assert not (tmp_path / "x.pgm").exists()

    def test_fractional_maxval_rejected(self, tmp_path):
        # 255.5 would write a header the reader cannot parse
        with pytest.raises(TypeError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2), dtype=np.uint8), maxval=255.5)
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("maxval, dtype", [(255, "u1"), (65535, ">u2"), (1000, ">u2"), (65535, "<u2")])
    @pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
    def test_file_bytes_match_for_any_layout(self, tmp_path, maxval, dtype, layout):
        # an image in the file's own dtype and C order is written from its
        # buffer; any other dtype or layout must give the same bytes
        img = (np.arange(24).reshape(4, 6) * 37 % (min(maxval, 255) + 1)).astype(dtype)
        img = {"c": img, "fortran": np.asfortranarray(img), "strided": img[:, ::2]}[layout]
        write_pgm(tmp_path / "x.pgm", img, maxval=maxval)
        h, w = img.shape
        want = f"P5\n{w} {h}\n{maxval}\n".encode() + img.astype(">u2" if maxval > 255 else "u1").tobytes()
        assert (tmp_path / "x.pgm").read_bytes() == want

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.uint16, np.uint64, np.int8, np.int64])
    def test_bool_and_integer_samples_written_exactly(self, tmp_path, dtype):
        img = np.array([[0, 1], [1, 0]], dtype=dtype)
        write_pgm(tmp_path / "ok.pgm", img, maxval=255)
        assert np.array_equal(scene_io._read_raster(tmp_path / "ok.pgm").astype(np.uint16), img.astype(np.uint16))


# Raster encodings every loader must read alike: (magic, maxval). P5 at 255
# is one byte a sample and P5 at 65535 two big-endian bytes, neither needing
# a maxval check; P5 at 1000 is two bytes with a maxval below the dtype's.
RASTER_FORMATS = [("P5", 255), ("P5", 1000), ("P5", 65535)]
RASTER_IDS = ["p5_8bit", "p5_16bit_maxval_1000", "p5_16bit"]
FORMAT_DEPTH = [[200, 0, 200, 150, 200, 255]] * 4


def _write_raster(path, image, magic, maxval):
    """``image`` as a PGM of the given magic and maxval, its samples written as they are."""
    image = np.asarray(image)
    h, w = image.shape
    header = f"{magic}\n{w} {h}\n{maxval}\n"
    path.write_bytes(header.encode() + image.astype(">u2" if maxval > 255 else "u1").tobytes())


def make_format_scene(root, magic, maxval):
    """make_fixture_scene with its ground truth, every raster re-encoded; raw depth 200 fits one byte."""
    root = add_fixture_gt(make_fixture_scene(root, depth_rows=FORMAT_DEPTH))
    for path in [*root.glob("frames/*.pgm"), *root.glob("gt/ids/*.pgm")]:
        _write_raster(path, scene_io._read_raster(path).astype(np.uint16), magic, maxval)
    return root


@pytest.mark.parametrize("magic, maxval", RASTER_FORMATS, ids=RASTER_IDS)
class TestRasterFormats:
    def test_load_view(self, tmp_path, magic, maxval):
        root = make_format_scene(tmp_path / "s", magic, maxval)
        intr, scale = scene_io.load_intrinsics(root / "intrinsics.txt")
        view = scene_io.load_view(root, "0001", intr, scale)
        raw = np.array(FORMAT_DEPTH, dtype=np.uint16)
        assert view.frame.depth.dtype == np.float64
        assert view.frame.depth.tobytes() == (raw.astype(np.float64) * 0.001).tobytes()
        (mask,) = view.masks
        assert mask.bitmap.dtype == bool and mask.bitmap.all() and mask.bitmap.shape == (2, 3)

    def test_load_gt_ids(self, tmp_path, magic, maxval):
        root = make_format_scene(tmp_path / "s", magic, maxval)
        intr, _ = scene_io.load_intrinsics(root / "intrinsics.txt")
        ids = scene_io.load_gt_ids(root, "0000", intr, 1)
        want = np.zeros((4, 6), dtype=np.uint16)
        want[1:3, 1:4] = 1
        assert ids.shape == (4, 6) and np.array_equal(ids, want)
        # a view of the file bytes in the file's dtype, not a copy
        assert ids.dtype == (np.dtype(">u2") if maxval > 255 else np.dtype("u1"))
        assert not ids.flags.writeable
        # a uint16 copy of the same raster holds the same ids
        copy = scene_io._read_raster(root / "gt" / "ids" / "0000.pgm").astype(np.uint16)
        assert copy.dtype == np.uint16 and copy.flags.writeable and np.array_equal(copy, want)

    def test_load_gt_instances(self, tmp_path, magic, maxval):
        root = make_format_scene(tmp_path / "s", magic, maxval)
        reference = add_fixture_gt(make_fixture_scene(tmp_path / "ref", depth_rows=FORMAT_DEPTH))
        (gt,), (want,) = load_gt_instances(root), load_gt_instances(reference)
        assert gt.label == "mug" and np.array_equal(gt.keys, want.keys)

    @pytest.mark.parametrize(
        "path, image, error",
        [
            pytest.param("frames/0001.mask.0.pgm", [[255, 7, 255], [255, 255, 255]],
                         "frame 0001: mask 0 has values other than 0/255", id="mask_value"),
            # a full-image mask, the layout before mask files held their box's window
            pytest.param("frames/0001.mask.0.pgm", [[0] * 5 + [255], [0, 255, 255, 255, 0, 0], [0] * 6, [0] * 6],
                         "frame 0001: mask 0: bitmap shape (4, 6) does not match the (2, 3) window "
                         "of detection box (1.0, 1.0, 4.0, 3.0)", id="mask_outside_box"),
            pytest.param("frames/0001.mask.0.pgm", [[255, 255]] * 3,
                         "frame 0001: mask 0: bitmap shape (3, 2) does not match the (2, 3) window "
                         "of detection box (1.0, 1.0, 4.0, 3.0)", id="mask_shape"),
            pytest.param("frames/0001.depth.pgm", [[200] * 6] * 3,
                         "frame 0001: depth shape (3, 6) does not match intrinsics (4, 6)", id="depth_shape"),
        ],
    )
    def test_view_errors_name_the_frame(self, tmp_path, magic, maxval, path, image, error):
        root = make_format_scene(tmp_path / "s", magic, maxval)
        _write_raster(root / path, image, magic, maxval)
        views = scene_io.iter_views(root)
        assert next(views).frame.frame_id == "0000"
        with pytest.raises(SceneValidationError) as err:
            next(views)
        assert str(err.value) == error

    @pytest.mark.parametrize(
        "image, error",
        [
            pytest.param([[0] * 5] * 4, r"frame 0001: id image .*0001\.pgm shape \(4, 5\) does not match", id="shape"),
            pytest.param([[0] * 6, [0, 1, 1, 2, 0, 0], [0] * 6, [0] * 6],
                         r"frame 0001: id image .*0001\.pgm holds id 2, but gt/labels\.txt lists 1 label", id="id_above_labels"),
        ],
    )
    def test_id_image_errors_name_file_and_frame(self, tmp_path, magic, maxval, image, error):
        root = make_format_scene(tmp_path / "s", magic, maxval)
        _write_raster(root / "gt" / "ids" / "0001.pgm", image, magic, maxval)
        with pytest.raises(SceneValidationError, match=error):
            load_gt_instances(root)


# the encodings whose maxval lies below their dtype's largest value
@pytest.mark.parametrize("magic", ["P5"])
@pytest.mark.parametrize("path", ["frames/0001.depth.pgm", "frames/0001.mask.0.pgm", "gt/ids/0001.pgm"])
def test_sample_above_maxval_names_file(tmp_path, magic, path):
    root = make_format_scene(tmp_path / "s", magic, 1000)
    image = scene_io._read_raster(root / path).astype(np.uint16)
    image[0, 0] = 1001
    _write_raster(root / path, image, magic, 1000)
    load = scene_io.load_gt_instances if path.startswith("gt") else lambda r: list(scene_io.iter_views(r))
    with pytest.raises(SceneValidationError, match=rf"{re.escape(path)}: sample exceeds declared maxval 1000"):
        load(root)


# only the binary encoding is read, by every loader
@pytest.mark.parametrize("path", ["frames/0001.depth.pgm", "frames/0001.mask.0.pgm", "gt/ids/0001.pgm"])
def test_ascii_p2_names_file(tmp_path, path):
    root = make_format_scene(tmp_path / "s", "P5", 255)
    image = scene_io._read_raster(root / path)
    h, w = image.shape
    (root / path).write_text(f"P2\n{w} {h}\n255\n" + "\n".join(" ".join(map(str, row)) for row in image) + "\n")
    load = scene_io.load_gt_instances if path.startswith("gt") else lambda r: list(scene_io.iter_views(r))
    with pytest.raises(SceneValidationError, match=rf"{re.escape(path)}: unsupported PGM magic 'P2'$"):
        load(root)


@st.composite
def window_masks(draw):
    """(box, raster): a detection box over the 6x4 fixture image, in quarter pixels and possibly
    reaching past the image, and a 0/255 raster of its clamped box's window."""
    x1, y1 = draw(st.integers(-8, 22)) / 4, draw(st.integers(-8, 14)) / 4
    x2 = draw(st.integers(int(max(x1, 0) * 4) + 1, 32)) / 4
    y2 = draw(st.integers(int(max(y1, 0) * 4) + 1, 24)) / 4
    rows, cols = Detection2D(scene_io._clamp_box((x1, y1, x2, y2), _INTR), 1.0, "mug").window
    shape = (rows.stop - rows.start, cols.stop - cols.start)
    return (x1, y1, x2, y2), draw(arrays(np.uint8, shape, elements=st.sampled_from([0, 255])))


class TestLoadScene:
    @settings(max_examples=80, deadline=None)
    @given(window_masks())
    def test_window_file_round_trip(self, box_and_raster):
        # the file of a box's window loads as that bitmap, empty windows included; a
        # full-image file is rejected unless the clamped box covers the whole image
        box, raster = box_and_raster
        detections = " ".join(repr(c) for c in box) + " 0.9 mug\n"
        with tempfile.TemporaryDirectory() as tmp:
            root = make_fixture_scene(Path(tmp) / "s", detections=detections, mask_rows=raster)
            mask = next(scene_io.iter_views(root)).masks[0]
            assert mask.detection.box == scene_io._clamp_box(box, _INTR)
            assert mask.bitmap.dtype == bool and np.array_equal(mask.bitmap, raster == 255)
            if raster.shape != (4, 6):
                _write_mask(root / "frames" / "0001.mask.0.pgm", np.zeros((4, 6)))
                with pytest.raises(SceneValidationError, match=r"^frame 0001: mask 0: bitmap shape \(4, 6\)"):
                    list(scene_io.iter_views(root))

    def test_well_formed_two_frames(self, tmp_path):
        views = list(scene_io.iter_views(make_fixture_scene(tmp_path / "s")))
        assert len(views) == 2
        assert [v.frame.frame_id for v in views] == ["0000", "0001"]
        assert views[0].frame.depth[0, 0] == pytest.approx(1.5)
        assert len(views[0].masks) == 1
        assert np.count_nonzero(views[0].masks[0].bitmap) == 6

    def test_identity_pose_loads_as_identity(self, tmp_path):
        views = list(scene_io.iter_views(make_fixture_scene(tmp_path / "s")))
        pose = views[0].frame.pose
        assert np.array_equal(pose.rotation, np.eye(3))
        assert np.array_equal(pose.translation, np.zeros(3))

    def test_depth_width_mismatch_rejected(self, tmp_path):
        root = make_fixture_scene(tmp_path / "s", intrinsics="10 10 2.5 1.5 7 4 0.001\n")
        with pytest.raises(SceneValidationError, match="depth shape"):
            list(scene_io.iter_views(root))

    def test_nan_depth_scale_rejected(self, tmp_path):
        # every depth would read as NaN and every detection drop
        root = make_fixture_scene(tmp_path / "s", intrinsics="10 10 2.5 1.5 6 4 nan\n")
        with pytest.raises(SceneValidationError, match=r"intrinsics\.txt: depth_scale must be positive, got nan"):
            list(scene_io.iter_views(root))

    def test_non_orthonormal_rotation_rejected(self, tmp_path):
        root = make_fixture_scene(
            tmp_path / "s", pose_lines="1 0 0 0\n0 2 0 0\n0 0 1 0\n0 0 0 1\n"
        )
        with pytest.raises(SceneValidationError, match="frame 0000"):
            list(scene_io.iter_views(root))

    def test_missing_pose_named_in_error(self, tmp_path):
        root = make_fixture_scene(tmp_path / "s")
        (root / "frames" / "0001.pose.txt").unlink()
        with pytest.raises(SceneLayoutError, match="0001.pose.txt"):
            list(scene_io.iter_views(root))

    def test_missing_mask_named_in_error(self, tmp_path):
        root = make_fixture_scene(tmp_path / "s")
        (root / "frames" / "0000.mask.0.pgm").unlink()
        with pytest.raises(SceneLayoutError, match="0000.mask.0.pgm"):
            list(scene_io.iter_views(root))

    def test_stray_mask_file_rejected(self, tmp_path, capsys):
        # a mask file no detection owns: frame 0001 holds masks 0 and 1 for its one detection
        root = make_fixture_scene(tmp_path / "s")
        _write_mask(root / "frames" / "0001.mask.1.pgm", [[255] * 3] * 2)
        intr, depth_scale = scene_io.load_intrinsics(root / "intrinsics.txt")
        assert len(scene_io.load_view(root, "0000", intr, depth_scale).masks) == 1
        with pytest.raises(SceneValidationError) as err:
            scene_io.load_view(root, "0001", intr, depth_scale)
        assert str(err.value) == "frame 0001: 2 mask files for 1 detections"
        assert cli.main(["detect", str(root), str(tmp_path / "p")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "rgbdnav detect: frame 0001: 2 mask files for 1 detections\n"

    def test_mask_outside_box_rejected(self, tmp_path):
        # a full-image mask, the layout before mask files held their box's window alone
        mask_rows = [[0] * 6 for _ in range(4)]
        mask_rows[0][5] = 255  # outside the 1..4 x 1..3 detection box
        root = make_fixture_scene(tmp_path / "s", mask_rows=mask_rows)
        with pytest.raises(SceneValidationError, match=r"^frame 0000: mask 0: bitmap shape \(4, 6\) does not match "
                                                       r"the \(2, 3\) window of detection box"):
            list(scene_io.iter_views(root))

    def test_mask_with_gray_values_rejected(self, tmp_path):
        mask_rows = [[255] * 3 for _ in range(2)]
        mask_rows[0][0] = 128
        root = make_fixture_scene(tmp_path / "s", mask_rows=mask_rows)
        with pytest.raises(SceneValidationError, match="0/255"):
            list(scene_io.iter_views(root))

    @pytest.mark.parametrize(
        "shape, pixels, message",
        [
            ((4, 6), {(0, 5): 255}, "frame 0000: mask 0: bitmap shape (4, 6) does not match the (2, 3) window "
                                    "of detection box (1.0, 1.0, 4.0, 3.0)"),
            ((2, 3), {(0, 1): 7}, "frame 0000: mask 0 has values other than 0/255"),
            ((4, 6), {(1, 2): 7, (0, 5): 255}, "frame 0000: mask 0 has values other than 0/255"),
            ((4, 6), {(1, 2): 255, (0, 5): 7}, "frame 0000: mask 0 has values other than 0/255"),
        ],
        ids=["outside_box", "seven_inside", "seven_and_outside", "seven_outside"],
    )
    def test_bad_mask_message(self, tmp_path, shape, pixels, message):
        # a (4, 6) mask is full-image, the layout before mask files held their box's
        # (2, 3) window; the value error comes first when a mask breaks both rules
        mask_rows = np.zeros(shape, dtype=np.uint16)
        for (v, u), value in pixels.items():
            mask_rows[v, u] = value
        root = make_fixture_scene(tmp_path / "s", mask_rows=mask_rows)
        with pytest.raises(SceneValidationError) as err:
            list(scene_io.iter_views(root))
        assert str(err.value) == message

    def test_fractional_box_keeps_its_window(self, tmp_path, capsys):
        # x1 = 0.5, x2 = 3.5: columns 1..3 are inside, column 4 is not, and the file holds columns 1..3
        window = [[255, 0, 0], [0, 0, 255]]
        root = make_fixture_scene(tmp_path / "s", detections="0.5 1 3.5 3 0.9 mug\n", mask_rows=window)
        mask = list(scene_io.iter_views(root))[0].masks[0]
        assert mask.bitmap.shape == (2, 3)
        assert np.array_equal(np.argwhere(mask.bitmap), [[0, 0], [1, 2]])
        full = np.zeros((4, 6), dtype=np.uint16)
        full[1:3, 1:4] = window
        root = make_fixture_scene(tmp_path / "t", detections="0.5 1 3.5 3 0.9 mug\n", mask_rows=full)
        with pytest.raises(SceneValidationError, match=re.escape(
                "frame 0000: mask 0: bitmap shape (4, 6) does not match the (2, 3) window "
                "of detection box (0.5, 1.0, 3.5, 3.0)")):
            list(scene_io.iter_views(root))
        # y1 = 0.2, y2 = 0.8: no pixel row is inside, so the window and its file hold 0 rows
        root = make_fixture_scene(tmp_path / "e", detections="0.5 0.2 3.5 0.8 0.9 mug\n", mask_rows=np.zeros((0, 3)))
        assert (root / "frames" / "0000.mask.0.pgm").read_bytes() == b"P5\n3 0\n255\n"
        assert [v.masks[0].bitmap.shape for v in scene_io.iter_views(root)] == [(0, 3), (0, 3)]
        assert cli.main(["detect", str(root), str(tmp_path / "p")]) == 0
        assert "instances out:  0" in capsys.readouterr().out
        assert json.loads((tmp_path / "p" / "boxes.json").read_text()) == {"instances": []}

    def test_degenerate_detection_rejected(self, tmp_path):
        root = make_fixture_scene(tmp_path / "s", detections="4 1 1 3 0.9 mug\n")
        with pytest.raises(SceneValidationError):
            list(scene_io.iter_views(root))

    def test_out_of_range_score_rejected(self, tmp_path):
        root = make_fixture_scene(tmp_path / "s", detections="1 1 4 3 1.5 mug\n")
        with pytest.raises(SceneValidationError):
            list(scene_io.iter_views(root))

    def test_box_clamped_to_image(self, tmp_path):
        mask_rows = [[0] * 6 for _ in range(4)]
        mask_rows[1][2] = 255
        root = make_fixture_scene(tmp_path / "s", detections="-3 -1 9 9 0.5 mug\n", mask_rows=mask_rows)
        views = list(scene_io.iter_views(root))
        assert views[0].masks[0].detection.box == (0.0, 0.0, 6.0, 4.0)

    def test_empty_detections_allowed(self, tmp_path):
        root = make_fixture_scene(tmp_path / "s", detections="")
        views = list(scene_io.iter_views(root))
        assert views[0].masks == []

    def test_missing_dir(self, tmp_path):
        with pytest.raises(SceneLayoutError):
            list(scene_io.iter_views(tmp_path / "nope"))

    def test_label_with_spaces(self, tmp_path):
        root = make_fixture_scene(tmp_path / "s", detections="1 1 4 3 0.9 coffee mug\n")
        views = list(scene_io.iter_views(root))
        assert views[0].masks[0].detection.label == "coffee mug"


class TestIterViews:
    @pytest.mark.parametrize("breakage", ["no_dir", "no_intrinsics", "no_frames"])
    def test_scene_checked_before_the_first_view(self, tmp_path, breakage):
        root = make_fixture_scene(tmp_path / "s")
        if breakage == "no_dir":
            root = tmp_path / "nope"
        elif breakage == "no_intrinsics":
            (root / "intrinsics.txt").unlink()
        else:
            for f in (root / "frames").glob("*.depth.pgm"):
                f.unlink()
        with pytest.raises(SceneLayoutError):
            scene_io.iter_views(root)

    def test_bad_frame_raises_when_reached(self, tmp_path):
        root = make_fixture_scene(tmp_path / "s")
        (root / "frames" / "0001.pose.txt").unlink()
        views = scene_io.iter_views(root)
        assert next(views).frame.frame_id == "0000"
        with pytest.raises(SceneLayoutError, match="0001.pose.txt"):
            next(views)

    def test_uint16_depth_scaled_once(self, tmp_path):
        # 65535 * 0.001 in float64, the same bytes as scaling a float64 copy
        root = make_fixture_scene(tmp_path / "s", depth_rows=[[65535, 1, 0, 300, 1500, 7]] * 4)
        depth = next(scene_io.iter_views(root)).frame.depth
        raw = scene_io._read_raster(root / "frames" / "0000.depth.pgm").astype(np.uint16)
        assert depth.dtype == np.float64
        assert np.array_equal(depth.view(np.int64), (raw.astype(np.float64) * 0.001).view(np.int64))


def ply_text_reference(cloud: ObjectCloud) -> str:
    """The text write_cloud_ply writes, its body formatted one point at a time."""
    header = (
        "ply\nformat ascii 1.0\n"
        f"comment label {cloud.label}\n"
        f"comment score {cloud.score:.9g}\n"
        f"element vertex {cloud.points.shape[0]}\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    )
    body = "\n".join("%.6f %.6f %.6f" % (p[0], p[1], p[2]) for p in cloud.points)
    return header + body + "\n"


# Coordinates whose %.6f text is easy to get wrong: signed zeros, values within
# 1e-9 of a rounding tie (an odd multiple of 5e-7), tiny values that print as
# -0.000000, and magnitudes up to 1e6.
_PLY_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-7, -5e-7, 1.5e-6, -1e-7]),
    st.builds(lambda m, half, eps: m * 1e-6 + half * 5e-7 + eps,
              st.integers(-10**12, 10**12), st.sampled_from([-1.0, 1.0]), st.floats(-1e-9, 1e-9)),
    st.floats(-1e-5, 1e-5),
    st.floats(-1e6, 1e6),
)


class TestPly:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pool=st.lists(_PLY_COORDS, min_size=1, max_size=24),
           n=st.one_of(st.integers(1, 6), st.integers(1000, 5000)),
           seed=st.integers(0, 2**32 - 1))
    @example(pool=[-0.0], n=1, seed=0)
    @example(pool=[5e-7 + 1e-9, -5e-7 - 1e-9, 1e6, -1e6, 2.5e-6], n=4000, seed=1)
    @example(pool=[0.25, -3.5e-7], n=scene_io._PLY_CHUNK_POINTS + 1, seed=2)
    def test_bytes_match_per_point_writer(self, tmp_path, pool, n, seed):
        points = np.random.default_rng(seed).choice(np.array(pool), size=(n, 3))
        cloud = ObjectCloud(points, "chair", 0.5)
        write_cloud_ply(cloud, tmp_path / "c.ply")
        (tmp_path / "ref.ply").write_text(ply_text_reference(cloud))
        assert (tmp_path / "c.ply").read_bytes() == (tmp_path / "ref.ply").read_bytes()

    def test_header_counts_vertices(self, tmp_path):
        cloud = ObjectCloud(np.array([[0.0, 0, 0], [1, 1, 1], [2, 0, 1]]), "chair", 0.8)
        path = tmp_path / "c.ply"
        write_cloud_ply(cloud, path)
        assert "element vertex 3" in path.read_text()

    def test_round_trip_within_tolerance(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-10, 10, size=(200, 3))
        cloud = ObjectCloud(pts, "chair", 1.0)
        path = tmp_path / "c.ply"
        write_cloud_ply(cloud, path)
        back = read_cloud_ply(path)
        assert back.shape == pts.shape
        assert np.abs(back - pts).max() < 1e-5

    def test_non_numeric_token_names_file(self, tmp_path):
        path = tmp_path / "c.ply"
        write_cloud_ply(ObjectCloud(np.array([[0.1, 0.2, 0.3]]), "chair", 1.0), path)
        path.write_text(path.read_text().replace("0.300000", "abc"))
        with pytest.raises(SceneValidationError, match=r"c\.ply: non-numeric"):
            read_cloud_ply(path)

    def test_body_longer_than_a_chunk_parses_as_a_whole(self, tmp_path):
        # several parse chunks; the body is reflowed so rows straddle lines, and
        # tokens are what count: the result equals one parse of the whole body
        rng = np.random.default_rng(1)
        path = tmp_path / "c.ply"
        write_cloud_ply(ObjectCloud(rng.uniform(-10, 10, size=(3000, 3)), "chair", 1.0), path)
        header, body = path.read_text().split("end_header\n")
        tokens = body.split()
        reflowed = "\n".join(" ".join(tokens[i:i + 5]) for i in range(0, len(tokens), 5))
        path.write_text(header + "end_header  \n" + reflowed + "\n")
        assert len(reflowed) > 4 * scene_io._PLY_CHUNK_CHARS
        back = read_cloud_ply(path)
        assert back.tobytes() == np.array(tokens, dtype=np.float64).reshape(-1, 3).tobytes()
        path.write_text(header + "end_header\n" + reflowed[:-1] + "x\n")
        with pytest.raises(SceneValidationError, match=r"c\.ply: non-numeric coordinate"):
            read_cloud_ply(path)

    def test_end_header_inside_a_comment_does_not_end_the_header(self, tmp_path):
        path = tmp_path / "c.ply"
        write_cloud_ply(ObjectCloud(np.array([[0.1, 0.2, 0.3]]), "chair", 1.0), path)
        text = path.read_text().replace("comment score", "comment end_header\ncomment score", 1)
        path.write_text(text)
        assert read_cloud_ply(path).tolist() == [[0.1, 0.2, 0.3]]
        path.write_text(text.replace("\nend_header\n", "\n"))
        with pytest.raises(SceneValidationError, match=r"c\.ply: malformed PLY header"):
            read_cloud_ply(path)

    def test_non_integer_vertex_count_names_file(self, tmp_path):
        path = tmp_path / "c.ply"
        write_cloud_ply(ObjectCloud(np.array([[0.1, 0.2, 0.3]]), "chair", 1.0), path)
        path.write_text(path.read_text().replace("element vertex 1", "element vertex x"))
        with pytest.raises(SceneValidationError, match=r"c\.ply: malformed PLY header"):
            read_cloud_ply(path)

    def test_empty_cloud_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_cloud_ply(ObjectCloud(np.zeros((0, 3)), "chair", 1.0), tmp_path / "e.ply")


class TestBoxesDocument:
    def _instances(self):
        return [ObjectCloud(np.array([[0.0, 0, 0], [1, 1, 1]]), "chair", 0.75)]

    def test_empty_set(self, tmp_path):
        path = tmp_path / "boxes.json"
        write_boxes([], path)
        assert json.loads(path.read_text())["instances"] == []

    def test_single_record_echo(self, tmp_path):
        path = tmp_path / "boxes.json"
        write_boxes(self._instances(), path)
        (rec,) = json.loads(path.read_text())["instances"]
        assert rec["label"] == "chair"
        assert rec["score"] == 0.75
        assert np.array_equal(rec["min_corner"], np.zeros(3))
        assert np.array_equal(rec["max_corner"], np.ones(3))
        assert rec["num_points"] == 2

    def test_instance_set_round_trip(self, tmp_path):
        instances = self._instances()
        write_instances(instances, tmp_path / "out")
        back = list(scene_io.iter_instances(tmp_path / "out"))
        assert len(back) == 1
        cloud, src_cloud = back[0], instances[0]
        assert cloud.label == src_cloud.label
        assert cloud.score == src_cloud.score
        assert np.array_equal(cloud.box.min_corner, src_cloud.box.min_corner)
        assert np.array_equal(cloud.box.max_corner, src_cloud.box.max_corner)
        assert np.abs(cloud.points - src_cloud.points).max() < 1e-5

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            write_boxes([], tmp_path / "missing_dir" / "boxes.json")

    def test_load_instances_matches_boxes_json(self, tmp_path):
        # labels, scores and point counts come back as boxes.json holds them,
        # and each box recomputed from its PLY lies within the PLY's 1e-6 m
        # rounding of the JSON corners
        rng = np.random.default_rng(12)
        instances = [
            ObjectCloud(rng.uniform(-3, 3, 3) + rng.normal(0, 0.2, (n, 3)), label, score)
            for n, label, score in [(40, "chair", 0.9), (1, "lamp", 0.123456789), (300, "chair", 1.0)]
        ]
        write_instances(instances, tmp_path / "out")
        records = json.loads((tmp_path / "out" / "boxes.json").read_text())["instances"]
        back = list(scene_io.iter_instances(tmp_path / "out"))
        assert [(c.label, c.score, len(c.points)) for c in back] == [
            (r["label"], r["score"], r["num_points"]) for r in records
        ]
        for cloud, rec in zip(back, records):
            assert np.abs(cloud.box.min_corner - rec["min_corner"]).max() <= 1e-6
            assert np.abs(cloud.box.max_corner - rec["max_corner"]).max() <= 1e-6

    def test_iter_instances_reads_each_cloud_when_reached(self, tmp_path):
        instances = self._instances() * 2
        write_instances(instances, tmp_path / "out")
        next((tmp_path / "out").glob("cloud_0001_*.ply")).unlink()
        clouds = scene_io.iter_instances(tmp_path / "out")
        assert np.array_equal(next(clouds).points, instances[0].points)
        with pytest.raises(SceneLayoutError, match="exactly one cloud file for instance 1"):
            next(clouds)

    def test_ply_without_vertices_names_file(self, tmp_path):
        write_instances(self._instances(), tmp_path / "out")
        (ply,) = (tmp_path / "out").glob("cloud_*.ply")
        header = ply.read_text().split("end_header\n")[0].replace("element vertex 2", "element vertex 0")
        ply.write_text(header + "end_header\n")
        with pytest.raises(SceneValidationError, match=re.escape(f"{ply}: PLY holds no vertices")):
            list(scene_io.iter_instances(tmp_path / "out"))


def gt_points_reference(boxes, trajectory, intr, depth_scale):
    """Per box, the world points of its rendered pixels at quantized depth, recorded while rendering."""
    points = [[] for _ in boxes]
    for pose in trajectory:
        depth, ids = oracle.render_depth(boxes, pose, intr)
        quantized = np.round(depth / depth_scale).astype(np.int64)
        for k in range(len(boxes)):
            vs, us = np.nonzero(ids == k + 1)
            if vs.size:
                points[k].append(to_world(back_project_pixels(us, vs, quantized[vs, us] * depth_scale, intr), pose))
    return [np.vstack(p) for p in points]


def add_fixture_gt(root, labels="mug\n"):
    """Instance-id images for make_fixture_scene: id 1 under its mask, 0 elsewhere."""
    (root / "gt" / "ids").mkdir(parents=True)
    (root / "gt" / "labels.txt").write_text(labels)
    ids = np.zeros((4, 6), dtype=np.uint16)
    ids[1:3, 1:4] = 1
    for fid in ("0000", "0001"):
        write_pgm(root / "gt" / "ids" / f"{fid}.pgm", ids, maxval=255)
    return root


def _wrong_shape(root):
    write_pgm(root / "gt" / "ids" / "0001.pgm", np.zeros((4, 5), dtype=np.uint16), maxval=255)


def _id_above_labels(root):
    write_pgm(root / "gt" / "ids" / "0001.pgm", np.full((4, 6), 2, dtype=np.uint16), maxval=255)


def _wrong_depth_shape(root):
    write_pgm(root / "frames" / "0001.depth.pgm", np.full((4, 5), 1500))


@st.composite
def gt_scenes(draw):
    """A small ground-truth scene: (h, w, id images, raw depths, pose seeds), h != w.

    Each frame holds a drawn subset of the labels, possibly none; every
    label 1..n (n <= 4) appears in at least one frame, and raw depths
    include 0.
    """
    h = draw(st.integers(1, 7))
    w = draw(st.integers(1, 7).filter(lambda w: w != h))
    top = draw(st.integers(1, 4))
    ids = []
    for _ in range(draw(st.integers(1, 3))):
        held = draw(st.lists(st.integers(1, top), unique=True, max_size=top))
        ids.append(draw(arrays(np.uint16, (h, w), elements=st.sampled_from([0, *held]))))
    ids = np.stack(ids)
    if not ids.any():
        ids[0, 0, 0] = 1
    # renumber the labels that occur to 1..n, so none is missing from every frame
    present = np.flatnonzero(np.bincount(ids.ravel(), minlength=top + 1))
    present = present[present > 0]
    lut = np.zeros(top + 1, dtype=np.uint16)
    lut[present] = np.arange(1, present.size + 1)
    depth = draw(arrays(np.uint16, ids.shape, elements=st.one_of(st.just(0), st.integers(1, 6000))))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(ids), max_size=len(ids)))
    return h, w, lut[ids], depth, seeds


class TestGroundTruth:
    def test_round_trip(self, layout_scenes):
        # the points derived from the saved id images, depth and poses are the
        # points recorded while rendering, bit for bit; the point text of the
        # earlier layout (%.9g) held them to within 5e-9 m, which leaves each
        # instance's 0.02 m voxel set as it is (a point on a box face that lies
        # on a voxel boundary, x = -0.4000000000000001 against -0.4, may
        # change voxel while a neighbour keeps the old one occupied)
        for n, s in enumerate(layout_scenes):
            gt = gt_points_reference_from_ids(s.scene_dir)
            expected = gt_points_reference(s.boxes, s.trajectory, s.intrinsics, 0.001)
            assert [g.label for g in gt] == [lb.label for lb in s.boxes]
            for g, pts in zip(gt, expected):
                assert np.array_equal(g.points, pts)
                if n == 0:  # the text round trip takes seconds on the bench layout
                    text = np.char.mod("%.9g", pts).astype(np.float64)
                    assert np.abs(text - pts).max() <= 5e-9
                    assert np.array_equal(np.unique(fusion.voxel_keys(text, 0.02)), np.unique(fusion.voxel_keys(pts, 0.02)))

    def test_keys_are_the_voxels_of_the_reference_points(self, layout_scenes):
        # frame by frame keying leaves each instance the voxel set of all its
        # points at once, bit for bit, whatever the grid
        for s in layout_scenes:
            reference = gt_points_reference_from_ids(s.scene_dir)
            for voxel_size in (0.02, 0.05):
                gt = load_gt_instances(s.scene_dir, voxel_size)
                assert [(g.label, g.voxel_size) for g in gt] == [(r.label, voxel_size) for r in reference]
                for g, r in zip(gt, reference):
                    want = np.unique(fusion.voxel_keys(r.points, voxel_size))
                    assert g.keys.dtype == want.dtype and np.array_equal(g.keys, want)

    @settings(max_examples=60, deadline=None)
    @given(gt_scenes())
    def test_keys_match_reference_on_small_scenes(self, scene):
        # non-square images, so pixel coordinates taken along the wrong axis
        # land elsewhere; labels absent from some frames; zero raw depths
        h, w, ids, depth, seeds = scene
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "frames").mkdir()
            (root / "gt" / "ids").mkdir(parents=True)
            scene_io.write_intrinsics(root / "intrinsics.txt", CameraIntrinsics(5.0, 6.0, w / 2, h / 2, w, h), 0.001)
            labels = [f"obj{k}" for k in range(1, int(ids.max()) + 1)]
            (root / "gt" / "labels.txt").write_text("".join(f"{label}\n" for label in labels))
            for f, seed in enumerate(seeds):
                rng = np.random.default_rng(seed)
                pose = CameraPose(random_rotation(rng), rng.uniform(-2, 2, size=3))
                write_pgm(root / "gt" / "ids" / f"{f:04d}.pgm", ids[f], maxval=255)
                write_pgm(root / "frames" / f"{f:04d}.depth.pgm", depth[f])
                scene_io.write_pose(root / "frames" / f"{f:04d}.pose.txt", pose)
            reference = gt_points_reference_from_ids(root)
            for voxel_size in (0.02, 0.05):
                gt = load_gt_instances(root, voxel_size)
                assert [g.label for g in gt] == labels
                for g, r in zip(gt, reference):
                    assert np.array_equal(g.keys, np.unique(fusion.voxel_keys(r.points, voxel_size)))

    def test_points_back_project_id_pixels(self, tmp_path):
        # fx = fy = 10, cx = 2.5, cy = 1.5, depth 1.5 m, identity pose: pixel
        # (u, v) lands at ((u - 2.5) * 0.15, (v - 1.5) * 0.15, 1.5); frames in
        # id order, pixels in row-major order
        root = add_fixture_gt(make_fixture_scene(tmp_path / "s"))
        (gt,) = gt_points_reference_from_ids(root)
        assert gt.label == "mug"
        pixels = [(u, v) for v in (1, 2) for u in (1, 2, 3)] * 2
        expected = [((u - 2.5) * 0.15, (v - 1.5) * 0.15, 1.5) for u, v in pixels]
        assert np.allclose(gt.points, expected, rtol=0, atol=1e-12)

    def test_missing_gt(self, tmp_path):
        with pytest.raises(SceneLayoutError):
            load_gt_instances(tmp_path)

    @pytest.mark.parametrize(
        "breakage, error, match",
        [
            pytest.param(_wrong_shape, SceneValidationError, r"frame 0001: id image .*0001\.pgm shape", id="shape"),
            pytest.param(_id_above_labels, SceneValidationError, r"frame 0001: id image .*0001\.pgm holds id 2", id="id_above_labels"),
            pytest.param(_wrong_depth_shape, SceneValidationError, r"frame 0001: depth shape \(4, 5\)", id="wrong_depth_shape"),
            pytest.param(lambda r: (r / "gt" / "labels.txt").unlink(), SceneLayoutError, r"gt/labels\.txt", id="missing_labels"),
            pytest.param(lambda r: (r / "frames" / "0001.depth.pgm").unlink(), SceneLayoutError, r"0001\.depth\.pgm", id="missing_depth"),
            pytest.param(lambda r: (r / "frames" / "0001.pose.txt").unlink(), SceneLayoutError, r"0001\.pose\.txt", id="missing_pose"),
        ],
    )
    def test_malformed_gt_names_file_and_frame(self, tmp_path, breakage, error, match):
        root = add_fixture_gt(make_fixture_scene(tmp_path / "s"))
        breakage(root)
        with pytest.raises(error, match=match):
            load_gt_instances(root)

    def test_no_labels_names_labels_file(self, tmp_path):
        # an empty label list with all-background id images is no ground truth,
        # not a scene whose predictions all use unknown labels
        root = add_fixture_gt(make_fixture_scene(tmp_path / "s"), labels="")
        for fid in ("0000", "0001"):
            write_pgm(root / "gt" / "ids" / f"{fid}.pgm", np.zeros((4, 6), dtype=np.uint16), maxval=255)
        with pytest.raises(SceneValidationError, match=r"gt/labels\.txt: no labels"):
            load_gt_instances(root)

    def test_label_seen_nowhere_names_it(self, tmp_path):
        root = add_fixture_gt(make_fixture_scene(tmp_path / "s"), labels="mug\nbowl\n")
        with pytest.raises(SceneValidationError, match="bowl"):
            load_gt_instances(root)

    def test_non_numeric_token_names_file(self, tmp_path):
        root = add_fixture_gt(make_fixture_scene(tmp_path / "s"))
        (root / "gt" / "ids" / "0001.pgm").write_bytes(b"P5\n6 x\n255\n" + bytes(24))
        with pytest.raises(SceneValidationError, match=r"0001\.pgm: malformed PGM header"):
            load_gt_instances(root)


class TestKeyValues:
    def test_raw_strings_comments_and_folding(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\nvoxel-size = 0.04  # trailing\n\nlabel = mug on desk\ntau=2\n")
        assert scene_io.read_key_values(path) == {"voxel_size": "0.04", "label": "mug on desk", "tau": "2"}

    def test_line_without_equals_names_file_and_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("tau = 2\nseed: 3\n")
        with pytest.raises(ValueError, match=r"c\.txt:2"):
            scene_io.read_key_values(path)


_INTR = CameraIntrinsics(10.0, 10.0, 2.5, 1.5, 6, 4)

# Each line-record text format: the reader the program uses, a good record,
# what the reader makes of it, and a malformed record.
TEXT_FORMATS = {
    "config": (scene_io.read_key_values, "voxel-size = 0.04", {"voxel_size": "0.04"}, "seed: 3"),
    "boxes": (
        lambda path: [
            (b.label, *b.box.min_corner, *b.box.max_corner)
            for b in scene_io.read_records(path, cli._labeled_box)
        ],
        "mug 0 0 0 1 1 1",
        [("mug", 0, 0, 0, 1, 1, 1)],
        "mug 0 0 0 1 x 1",
    ),
    "world": (lambda path: list(navsim.load_world(path).target), "target 2 0", [2.0, 0.0], "circle 1 1"),
    "detections": (
        lambda path: [(d.box, d.score, d.label) for d in scene_io._load_detections(path, _INTR)],
        "1 1 4 3 0.9 mug on desk",
        [((1.0, 1.0, 4.0, 3.0), 0.9, "mug on desk")],
        "1 1 4 3 mug",
    ),
}


class TestReadRecords:
    @pytest.mark.parametrize("fmt", sorted(TEXT_FORMATS))
    def test_comments_skipped_and_bad_line_named(self, tmp_path, fmt):
        read, good, expected, bad = TEXT_FORMATS[fmt]
        path = tmp_path / f"{fmt}.txt"
        path.write_text(f"# {fmt}\n\n   \n{good}  # trailing comment\n")
        assert read(path) == expected
        path.write_text(f"# {fmt}\n\n{good}\n{bad}\n")
        with pytest.raises(SceneValidationError, match=rf"^{re.escape(str(path))}:4: "):
            read(path)

    def test_missing_file_is_layout_error(self, tmp_path):
        with pytest.raises(SceneLayoutError, match=r"cannot read .*absent\.txt"):
            scene_io.read_records(tmp_path / "absent.txt", str.split)

    def test_hash_in_detection_label_starts_comment(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 1 4 3 0.9 mug#2 on desk\n")
        assert [d.label for d in scene_io._load_detections(path, _INTR)] == ["mug"]
