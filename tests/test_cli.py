import json
import shutil

import numpy as np
import pytest

from rgbdnav import scene_io
from rgbdnav.cli import build_parser, main
from rgbdnav.types import CameraPose, ObjectCloud

from conftest import gt_points_reference_from_ids


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def two_cube_scene(tmp_path_factory):
    scene_dir = tmp_path_factory.mktemp("cli") / "cubes"
    boxes_file = scene_dir.parent / "boxes.txt"
    boxes_file.write_text(
        "crate -0.75 -0.55 0 -0.15 0.05 0.5\n"
        "bin 0.2 0.1 0 0.8 0.7 0.45\n"
    )
    code = main(["synth", str(scene_dir), "--views", "8", "--boxes", str(boxes_file)])
    assert code == 0
    return scene_dir


class TestSynth:
    def test_writes_layout(self, two_cube_scene):
        assert (two_cube_scene / "intrinsics.txt").is_file()
        assert len(list((two_cube_scene / "frames").glob("*.depth.pgm"))) == 8
        assert sorted(p.name for p in (two_cube_scene / "gt" / "ids").iterdir()) == [f"{i:04d}.pgm" for i in range(8)]
        assert (two_cube_scene / "gt" / "labels.txt").read_text() == "crate\nbin\n"
        ids = scene_io._read_raster(two_cube_scene / "gt" / "ids" / "0000.pgm").astype(np.uint16)
        assert ids.shape == (312, 416) and set(np.unique(ids)) == {0, 1, 2}
        assert (two_cube_scene / "perturbation.txt").is_file()

    def test_bad_boxes_token_names_file_and_line(self, capsys, tmp_path):
        boxes = tmp_path / "boxes.txt"
        boxes.write_text("# layout\nbox_a -0.9 -0.6 0.0 -0.4 x 0.4\n")
        code, _, err = run_cli(capsys, "synth", str(tmp_path / "s"), "--views", "1", "--boxes", str(boxes))
        assert code == 1
        assert f"{boxes}:2: could not convert string to float: 'x'" in err

    def test_non_finite_box_names_file_and_line(self, capsys, tmp_path):
        boxes = tmp_path / "boxes.txt"
        boxes.write_text("box_a -0.9 -0.6 0.0 -0.4 -0.15 0.4\nbox_b nan 0 0 1 1 1\n")
        code, _, err = run_cli(capsys, "synth", str(tmp_path / "s"), "--views", "1", "--boxes", str(boxes))
        assert code == 1
        assert f"{boxes}:2: box corners must be finite" in err

    def test_missing_boxes_file_one_line_error(self, capsys, tmp_path):
        boxes = tmp_path / "absent.txt"
        code, _, err = run_cli(capsys, "synth", str(tmp_path / "s"), "--views", "1", "--boxes", str(boxes))
        assert code == 1
        assert err.startswith(f"rgbdnav synth: cannot read {boxes}")
        assert err.count("\n") == 1

    def test_second_synth_into_same_dir(self, capsys, tmp_path):
        # the first run's masks are stale for the second; populating must
        # replace them rather than trip over them
        out = tmp_path / "s"
        argv = ["synth", str(out), "--views", "2", "--width", "160", "--height", "120", "--focal", "145"]
        assert run_cli(capsys, *argv)[0] == 0
        first = {p.name: p.read_bytes() for p in (out / "frames").iterdir()}
        assert any(".mask." in name for name in first)
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert {p.name: p.read_bytes() for p in (out / "frames").iterdir()} == first

    def test_shorter_synth_replaces_longer_scene(self, capsys, tmp_path):
        # the frames of the first, four-view run must not outlive the second
        out = tmp_path / "s"
        small = ["--width", "160", "--height", "120", "--focal", "145"]
        assert run_cli(capsys, "synth", str(out), "--views", "4", *small)[0] == 0
        code, printed, err = run_cli(capsys, "synth", str(out), "--views", "2", *small)
        assert code == 0, err
        frame_ids = {p.name.split(".", 1)[0] for p in (out / "frames").iterdir()}
        assert frame_ids == {"0000", "0001"}
        assert sorted(p.name for p in (out / "gt" / "ids").iterdir()) == ["0000.pgm", "0001.pgm"]
        written = int(printed.split(" detection(s)")[0].rsplit(" ", 1)[1])
        assert written == sum(len(v.masks) for v in scene_io.iter_views(out)) <= 2 * 3
        code, printed, _ = run_cli(capsys, "detect", str(out), str(tmp_path / "p"))
        assert code == 0
        assert "views:          2" in printed

    def test_zero_views_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "synth", str(tmp_path / "s"), "--views", "0")
        assert code == 2
        assert "views" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--width", "0", "image size must be positive, got width=0 height=312"),
            ("--height", "-3", "image size must be positive, got width=416 height=-3"),
            ("--focal", "0", "focal lengths must be positive and finite, got fx=0.0 fy=0.0"),
            ("--focal", "nan", "focal lengths must be positive and finite, got fx=nan fy=nan"),
        ],
    )
    def test_bad_intrinsics_flag_usage_error(self, capsys, tmp_path, flag, value, message):
        code, _, err = run_cli(capsys, "synth", str(tmp_path / "s"), "--views", "1", flag, value)
        assert code == 2
        assert err == f"rgbdnav synth: {message}\n"
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "seed must be non-negative, got -1"),
            ("--box-jitter-px", "-3", "box_jitter_px must be non-negative, got -3"),
            ("--score-sigma", "nan", "score_sigma must be non-negative, got nan"),
        ],
    )
    def test_bad_noise_flag_usage_error(self, capsys, tmp_path, flag, value, message):
        # rejected before anything is rendered: no scene directory is made
        code, _, err = run_cli(capsys, "synth", str(tmp_path / "s"), "--views", "1", flag, value)
        assert code == 2
        assert err == f"rgbdnav synth: {message}\n"
        assert not (tmp_path / "s").exists()


class TestDetect:
    def test_two_cubes_two_instances(self, capsys, two_cube_scene, tmp_path):
        out_dir = tmp_path / "pred"
        code, out, _ = run_cli(capsys, "detect", str(two_cube_scene), str(out_dir))
        assert code == 0
        assert "instances out:  2" in out
        clouds = list(scene_io.iter_instances(out_dir))
        assert sorted(c.label for c in clouds) == ["bin", "crate"]

    def test_bad_tau_usage_error(self, capsys, two_cube_scene, tmp_path):
        code, _, err = run_cli(capsys, "detect", str(two_cube_scene), str(tmp_path / "p"), "--tau", "-1")
        assert code == 2
        assert "tau" in err

    @pytest.mark.parametrize("flag, name", [("--tau", "tau")])
    def test_nan_flag_usage_error(self, capsys, two_cube_scene, tmp_path, flag, name):
        # NaN is not positive: with --tau nan the z-score filter would drop every detection
        code, _, err = run_cli(capsys, "detect", str(two_cube_scene), str(tmp_path / "p"), flag, "nan")
        assert code == 2
        assert err.startswith(f"rgbdnav detect: invalid flag: {name} must be positive, got nan")

    def test_invalid_scene_fails_with_message(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "detect", str(tmp_path / "nothing"), str(tmp_path / "p"))
        assert code == 1
        assert "nothing" in err

    def test_malformed_gt_does_not_stop_detect(self, capsys, two_cube_scene, tmp_path):
        scene_dir = tmp_path / "scene"
        shutil.copytree(two_cube_scene, scene_dir)
        bad = scene_dir / "gt" / "ids" / "0001.pgm"
        scene_io.write_pgm(bad, np.full((312, 416), 7, dtype=np.uint16), maxval=255)  # 2 labels
        code, out, _ = run_cli(capsys, "detect", str(scene_dir), str(tmp_path / "p"))
        assert code == 0
        assert "instances out:  2" in out
        with pytest.raises(scene_io.SceneValidationError, match=r"frame 0001: id image .*0001\.pgm holds id 7"):
            scene_io.load_gt_instances(scene_dir)

    def test_second_detect_into_same_dir(self, capsys, two_cube_scene, tmp_path):
        # a one-object scene detected over a two-object output: the first
        # run's cloud files must not be read back as the second run's
        urn_scene = tmp_path / "urn"
        boxes = tmp_path / "urn.txt"
        boxes.write_text("urn -0.3 -0.3 0 0.3 0.3 0.5\n")
        small = ["--views", "1", "--width", "160", "--height", "120", "--focal", "145"]
        assert run_cli(capsys, "synth", str(urn_scene), *small, "--boxes", str(boxes))[0] == 0
        pred = tmp_path / "pred"
        assert run_cli(capsys, "detect", str(two_cube_scene), str(pred))[0] == 0
        code, out, _ = run_cli(capsys, "detect", str(urn_scene), str(pred))
        assert code == 0
        assert "instances out:  1" in out
        assert [p.name for p in pred.glob("cloud_*.ply")] == ["cloud_0000_urn.ply"]
        code, out, err = run_cli(capsys, "eval", str(pred), str(urn_scene))
        assert code == 0, err
        (urn_row,) = [l.split() for l in out.splitlines() if l.startswith("urn")]
        assert urn_row[4:] == ["1", "1", "1", "1"]  # gt, pred, tp50, tp25

    def test_frame_id_with_glob_metacharacters(self, capsys, tmp_path):
        # mask files are counted, and a stale frame's files cleared, by the frame id taken literally
        scene = tmp_path / "scene"
        small = ["--views", "2", "--width", "160", "--height", "120", "--focal", "145"]
        assert run_cli(capsys, "synth", str(scene), *small)[0] == 0
        for f in [*(scene / "frames").glob("0001.*"), scene / "gt" / "ids" / "0001.pgm"]:
            f.rename(f.with_name("01[a]" + f.name[len("0001"):]))
        assert len(list((scene / "frames").glob("01?a?.mask.*.pgm"))) == 3
        code, out, err = run_cli(capsys, "detect", str(scene), str(tmp_path / "p"))
        assert code == 0, err
        assert "views:          2" in out
        assert run_cli(capsys, "synth", str(scene), *small, "--drop-prob", "1")[0] == 0
        assert list((scene / "frames").glob("*.mask.*.pgm")) == []
        assert list((scene / "frames").glob("01?a?.*")) == [] and not (scene / "gt" / "ids" / "01[a].pgm").exists()
        code, out, err = run_cli(capsys, "detect", str(scene), str(tmp_path / "p"))
        assert code == 0, err
        assert "instances out:  0" in out

    def test_bad_last_frame_fails_before_writing(self, capsys, mutable_scene_dir, tmp_path):
        # views stream, so the last frame is validated only after the others are fused
        last = sorted((mutable_scene_dir / "frames").glob("*.mask.0.pgm"))[-1]
        assert last.name == "0019.mask.0.pgm"
        bitmap = scene_io._read_raster(last).astype(np.uint16)
        bitmap[bitmap == 255] = 7
        scene_io.write_pgm(last, bitmap, maxval=255)
        out_dir = tmp_path / "p"
        code, out, err = run_cli(capsys, "detect", str(mutable_scene_dir), str(out_dir))
        assert code == 1
        assert out == ""
        assert err.startswith("rgbdnav detect: frame 0019: mask 0 has values other than 0/255")
        assert not (out_dir / "boxes.json").exists()

    def test_empty_detections_zero_instances_success(self, capsys, mutable_scene_dir, tmp_path):
        for f in (mutable_scene_dir / "frames").glob("*.detections.txt"):
            f.write_text("")
        for f in (mutable_scene_dir / "frames").glob("*.mask.*.pgm"):
            f.unlink()
        code, out, _ = run_cli(capsys, "detect", str(mutable_scene_dir), str(tmp_path / "p"))
        assert code == 0
        assert "instances out:  0" in out


class TestEval:
    @pytest.fixture()
    def perfect_pred_dir(self, two_cube_scene, tmp_path):
        # predictions copied from the ground truth itself
        gt = gt_points_reference_from_ids(two_cube_scene)
        instances = [ObjectCloud(g.points, g.label, 1.0) for g in gt]
        pred = tmp_path / "pred"
        scene_io.write_instances(instances, pred)
        return pred

    def test_gt_predictions_score_100(self, capsys, two_cube_scene, perfect_pred_dir):
        code, out, _ = run_cli(capsys, "eval", str(perfect_pred_dir), str(two_cube_scene))
        assert code == 0
        assert "100.0" in out
        assert (perfect_pred_dir / "eval_report.txt").is_file()

    def test_detect_then_eval_pipeline(self, capsys, two_cube_scene, tmp_path):
        pred = tmp_path / "pred"
        assert run_cli(capsys, "detect", str(two_cube_scene), str(pred))[0] == 0
        code, out, _ = run_cli(capsys, "eval", str(pred), str(two_cube_scene))
        assert code == 0
        report = (pred / "eval_report.txt").read_text()
        all_row = [l for l in report.splitlines() if l.startswith("all")][0]
        _, m, m50, m25 = all_row.split()
        assert float(m25) >= float(m50) >= float(m)

    def test_disjoint_predictions_score_zero(self, capsys, two_cube_scene, tmp_path):
        gt = gt_points_reference_from_ids(two_cube_scene)
        far = [ObjectCloud(g.points + 50.0, g.label, 1.0) for g in gt]
        pred = tmp_path / "pred"
        scene_io.write_instances(far, pred)
        code, out, _ = run_cli(capsys, "eval", str(pred), str(two_cube_scene))
        assert code == 0
        all_row = [l for l in out.splitlines() if l.startswith("all")][0]
        assert all_row.split()[1:] == ["0.0", "0.0", "0.0"]

    def test_unknown_label_vocabulary_error(self, capsys, two_cube_scene, tmp_path):
        pts = np.random.default_rng(0).uniform(0, 1, (20, 3))
        instances = [ObjectCloud(pts, "unicorn", 1.0)]
        pred = tmp_path / "pred"
        scene_io.write_instances(instances, pred)
        code, _, err = run_cli(capsys, "eval", str(pred), str(two_cube_scene))
        assert code == 1
        assert "unicorn" in err

    def test_label_with_gt_in_another_scene_is_scored(self, capsys, two_cube_scene, perfect_pred_dir, tmp_path):
        # the second scene holds only the crate: the bin predicted there is a false positive, not an error
        boxes = tmp_path / "crate.txt"
        boxes.write_text("crate -0.75 -0.55 0 -0.15 0.05 0.5\n")
        crate_only = tmp_path / "crate_only"
        small = ["--views", "2", "--width", "160", "--height", "120", "--focal", "145"]
        assert run_cli(capsys, "synth", str(crate_only), *small, "--boxes", str(boxes))[0] == 0
        code, out, err = run_cli(capsys, "eval", str(perfect_pred_dir), str(two_cube_scene),
                                 str(perfect_pred_dir), str(crate_only))
        assert (code, err) == (0, "")
        rows = {line.split()[0]: line.split()[1:] for line in out.splitlines() if not line.startswith("#")}
        assert rows["bin"][3:] == ["1", "2", "1", "1"]  # gt, pred, tp50, tp25

    def test_label_without_gt_in_any_scene_names_its_directory(self, capsys, two_cube_scene, perfect_pred_dir, tmp_path):
        odd = tmp_path / "odd"
        scene_io.write_instances([ObjectCloud(np.random.default_rng(0).uniform(0, 1, (20, 3)), "unicorn", 1.0)], odd)
        code, out, err = run_cli(capsys, "eval", str(perfect_pred_dir), str(two_cube_scene), str(odd), str(two_cube_scene))
        assert (code, out) == (1, "")
        assert err == f"rgbdnav eval: predictions in {odd} use labels outside the ground-truth vocabulary: unicorn\n"

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            (lambda doc: "not json", "not JSON"),
            (lambda doc: json.dumps({"boxes": doc["instances"]}), "no 'instances' list"),
            (lambda doc: json.dumps({"instances": [{k: v for k, v in r.items() if k != "score"}
                                                   for r in doc["instances"]]}),
             "instance 0 needs a 'label' and a 'score' in [0, 1]"),
            (lambda doc: json.dumps({"instances": [{**r, "score": "high"} for r in doc["instances"]]}),
             "instance 0 needs a 'label' and a 'score' in [0, 1]"),
            (lambda doc: json.dumps({"instances": [{**r, "score": float("nan")} for r in doc["instances"]]}),
             "instance 0 needs a 'label' and a 'score' in [0, 1]"),
            (lambda doc: json.dumps({"instances": [{**r, "label": 5} for r in doc["instances"]]}),
             "instance 0: 'label' must be a non-empty string, got 5"),
            (lambda doc: json.dumps({"instances": [{**r, "label": None} for r in doc["instances"]]}),
             "instance 0: 'label' must be a non-empty string, got None"),
            (lambda doc: json.dumps({"instances": [{**r, "label": ""} for r in doc["instances"]]}),
             "instance 0: 'label' must be a non-empty string, got ''"),
        ],
        ids=["not_json", "no_instances", "no_score", "text_score", "nan_score", "int_label", "null_label",
             "empty_label"],
    )
    def test_malformed_boxes_json_names_file(self, capsys, two_cube_scene, perfect_pred_dir, corrupt, reason):
        path = perfect_pred_dir / "boxes.json"
        path.write_text(corrupt(json.loads(path.read_text())))
        code, _, err = run_cli(capsys, "eval", str(perfect_pred_dir), str(two_cube_scene))
        assert code == 1
        assert err.startswith(f"rgbdnav eval: {path}: {reason}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["detect", "eval"])
    def test_voxel_size_is_not_a_flag(self, capsys, command):
        # the voxel grid is types.VOXEL_SIZE: a --voxel-size is an unrecognized argument
        with pytest.raises(SystemExit) as exc:
            main([command, "a", "b", "--voxel-size", "0.02"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --voxel-size 0.02" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["detect", "eval"])
    def test_voxel_grid_out_of_range_one_line(self, capsys, two_cube_scene, perfect_pred_dir, tmp_path, command):
        # a point 30 km out lies past the ±20.97 km that packed voxel keys reach:
        # detect sees it through a translated pose, eval through a PLY vertex
        if command == "detect":
            scene = tmp_path / "scene"
            shutil.copytree(two_cube_scene, scene)
            path = scene / "frames" / "0000.pose.txt"
            pose = scene_io._load_pose(path, "0000")
            scene_io.write_pose(path, CameraPose(pose.rotation, pose.translation + [3e4, 0.0, 0.0]))
            dirs = [scene, tmp_path / "p"]
        else:
            (ply,) = perfect_pred_dir.glob("cloud_0000_*.ply")
            points = scene_io.read_cloud_ply(ply).copy()
            points[0] = [3e4, 0.0, 0.0]
            scene_io.write_cloud_ply(ObjectCloud(points, "crate", 1.0), ply)
            dirs = [perfect_pred_dir, two_cube_scene]
        code, _, err = run_cli(capsys, command, *map(str, dirs))
        assert code == 1
        assert err.startswith(f"rgbdnav {command}: voxel coordinates must lie within ±2^20 cells")
        assert err.count("\n") == 1

    def test_non_finite_vertex_names_file(self, capsys, two_cube_scene, perfect_pred_dir):
        # one flipped byte of a binary body can make a coordinate NaN
        (ply,) = perfect_pred_dir.glob("cloud_0000_*.ply")
        ply.write_bytes(ply.read_bytes()[:-8] + np.float64(np.nan).tobytes())
        code, out, err = run_cli(capsys, "eval", str(perfect_pred_dir), str(two_cube_scene))
        assert code == 1
        assert out == ""
        assert err == f"rgbdnav eval: {ply}: non-finite coordinates in cloud 'crate'\n"

    def test_empty_ground_truth_names_labels_file(self, capsys, tmp_path):
        # no labels and all-background id images: the scene has no ground truth,
        # whatever labels the predictions use
        scene, pred = tmp_path / "scene", tmp_path / "pred"
        small = ["--views", "2", "--width", "160", "--height", "120", "--focal", "145"]
        assert run_cli(capsys, "synth", str(scene), *small)[0] == 0
        assert run_cli(capsys, "detect", str(scene), str(pred))[0] == 0
        (scene / "gt" / "labels.txt").write_text("")
        for ids in (scene / "gt" / "ids").glob("*.pgm"):
            scene_io.write_pgm(ids, np.zeros((120, 160), dtype=np.uint16), maxval=255)
        code, out, err = run_cli(capsys, "eval", str(pred), str(scene))
        assert code == 1
        assert out == ""
        assert err == f"rgbdnav eval: {scene / 'gt' / 'labels.txt'}: no labels\n"

    def test_prediction_error_shows_before_ground_truth_error(self, capsys, two_cube_scene, perfect_pred_dir, tmp_path):
        # predictions are read and keyed before ground truth, so with both
        # directories bad the prediction's error is the one line printed
        scene = tmp_path / "scene"
        shutil.copytree(two_cube_scene, scene)
        (scene / "gt" / "labels.txt").unlink()
        (perfect_pred_dir / "boxes.json").write_text("not json")
        code, _, err = run_cli(capsys, "eval", str(perfect_pred_dir), str(scene))
        assert code == 1
        assert err.startswith(f"rgbdnav eval: {perfect_pred_dir / 'boxes.json'}: not JSON")

    def test_odd_directory_count_usage_error(self, capsys, two_cube_scene):
        code, _, err = run_cli(capsys, "eval", str(two_cube_scene))
        assert code == 2
        assert "pairs" in err

    def test_two_scenes_pooled_fragment_outranks_true_positive(self, capsys, two_cube_scene, tmp_path):
        # scene A holds each whole cube at 1.0 and a corner fragment of the
        # crate at 0.9; scene B holds each whole cube at 0.8. Averaging the
        # two scenes' reports would read 100 (each fragment ranks below its
        # scene's true positive); pooled, the fragment outranks scene B's crate
        gt = gt_points_reference_from_ids(two_cube_scene)
        crate = next(g.points for g in gt if g.label == "crate")
        corner = crate[np.all(crate[:, :2] < crate[:, :2].min(axis=0) + 0.1, axis=1)]
        scene_a, scene_b = tmp_path / "a", tmp_path / "b"
        scene_io.write_instances(
            [*(ObjectCloud(g.points, g.label, 1.0) for g in gt), ObjectCloud(corner, "crate", 0.9)], scene_a
        )
        scene_io.write_instances([ObjectCloud(g.points, g.label, 0.8) for g in gt], scene_b)
        reports = {}
        for name, dirs in (("ab", (scene_a, scene_b)), ("ba", (scene_b, scene_a))):
            code, out, _ = run_cli(capsys, "eval", *(str(d) for p in dirs for d in (p, two_cube_scene)),
                                   "--out", str(tmp_path / f"{name}.txt"))
            assert code == 0
            reports[name] = (tmp_path / f"{name}.txt").read_text()
        assert reports["ab"] == reports["ba"]
        rows = {line.split()[0]: line.split()[1:] for line in reports["ab"].splitlines() if not line.startswith("#")}
        assert reports["ab"].startswith("# instance segmentation report (pooled over 2 scene(s))\n")
        assert rows["crate"] == ["83.3", "83.3", "83.3", "2", "3", "2", "2"]
        assert rows["bin"] == ["100.0", "100.0", "100.0", "2", "2", "2", "2"]
        assert rows["all"] == ["91.7", "91.7", "91.7"]


_UNDECODABLE = "cannot read {path}: 'utf-8' codec can't decode byte 0xff"


@pytest.mark.parametrize(
    "command, relpath, error",
    [
        ("detect", "scene/intrinsics.txt", _UNDECODABLE),
        ("detect", "scene/frames/0003.pose.txt", _UNDECODABLE),
        ("eval", "scene/gt/labels.txt", _UNDECODABLE),
        ("eval", "pred/boxes.json", _UNDECODABLE),
        ("eval", "pred/cloud_0000_*.ply", "{path}: malformed PLY header"),
    ],
    ids=["intrinsics", "pose", "gt_labels", "boxes_json", "cloud_ply"],
)
def test_undecodable_text_file_named(capsys, two_cube_scene, tmp_path, command, relpath, error):
    # a byte that is not UTF-8 ends the run with one line naming the file; a
    # cloud PLY is binary, so there the byte corrupts the header's first line
    scene, pred = tmp_path / "scene", tmp_path / "pred"
    shutil.copytree(two_cube_scene, scene)
    assert run_cli(capsys, "detect", str(scene), str(pred))[0] == 0
    (path,) = tmp_path.glob(relpath)
    path.write_bytes(b"\xff" + path.read_bytes())
    dirs = [scene, tmp_path / "again"] if command == "detect" else [pred, scene]
    code, _, err = run_cli(capsys, command, *map(str, dirs))
    assert code == 1
    assert err.startswith(f"rgbdnav {command}: " + error.format(path=path))
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command, place",
    [("detect", "file"), ("detect", "under_file"), ("eval", "missing_dir"), ("eval", "under_file"),
     ("synth", "file"), ("synth", "under_file"), ("navsim", "missing_dir"), ("navsim", "under_file")],
)
def test_unwritable_output_one_line(capsys, two_cube_scene, tmp_path, command, place):
    # the output path cannot be written: its parent directory is missing, its
    # parent is a file, or the output directory is a file itself
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    name = {"detect": "pred", "synth": "scene", "eval": "r.txt", "navsim": "t.csv"}[command]
    out = {"missing_dir": tmp_path / "missing" / name, "under_file": blocker / name, "file": blocker}[place]
    small = ["--views", "2", "--width", "160", "--height", "120", "--focal", "145"]
    argv = {
        "detect": ["detect", str(two_cube_scene), str(out)],
        "eval": ["eval", str(tmp_path / "pred"), str(two_cube_scene), "--out", str(out)],
        "synth": ["synth", str(out), *small],
        "navsim": ["navsim", str(out), "--scenario", "open"],
    }[command]
    if command == "eval":
        assert run_cli(capsys, "detect", str(two_cube_scene), str(tmp_path / "pred"))[0] == 0
    code, printed, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith(f"rgbdnav {command}: ") and str(out) in err
    assert err.count("\n") == 1
    assert printed == ""


class TestNavsim:
    def test_scenario_run_writes_trajectory(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, stdout, _ = run_cli(capsys, "navsim", str(out), "--scenario", "column")
        assert code == 0
        assert "outcome: reached" in stdout
        assert out.read_text().startswith("# outcome=reached")

    def test_world_file_run(self, capsys, tmp_path):
        world = tmp_path / "w.txt"
        world.write_text("target 2 0\ngoal_radius 0.3\ncircle 1.0 0.6 0.3\n")
        out = tmp_path / "traj.csv"
        code, stdout, _ = run_cli(capsys, "navsim", str(out), "--world", str(world))
        assert code == 0
        assert "outcome: reached" in stdout
        assert out.read_text().splitlines()[2].startswith("0,0,0,0,")  # no --start: the origin, heading +x

    def test_missing_world_file_one_line_error(self, capsys, tmp_path):
        world = tmp_path / "absent.txt"
        code, _, err = run_cli(capsys, "navsim", str(tmp_path / "t.csv"), "--world", str(world))
        assert code == 1
        assert err.startswith(f"rgbdnav navsim: cannot read {world}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "line, reason",
        [("circle 1.0 0.6 nan", ":3: circle radius must be positive, got nan"),
         ("goal_radius nan", ": goal_radius must be positive, got nan"),
         ("target 2 nan", ": target must be finite, got (2.0, nan)")],
        ids=["circle_radius", "goal_radius", "target"],
    )
    def test_nan_world_entry_one_line_error(self, capsys, tmp_path, line, reason):
        world = tmp_path / "w.txt"
        world.write_text(f"target 2 0\ngoal_radius 0.3\n{line}\n")
        code, _, err = run_cli(capsys, "navsim", str(tmp_path / "t.csv"), "--world", str(world))
        assert code == 1
        assert err == f"rgbdnav navsim: {world}{reason}\n"

    def test_nan_start_one_line_error(self, capsys, tmp_path):
        world = tmp_path / "w.txt"
        world.write_text("target 2 0\n")
        code, _, err = run_cli(capsys, "navsim", str(tmp_path / "t.csv"), "--world", str(world),
                               "--start", "nan", "0", "0")
        assert code == 1
        assert err == "rgbdnav navsim: robot position must be finite, got (nan, 0.0)\n"

    def test_conflicting_flags_usage_error(self, capsys, tmp_path):
        world = tmp_path / "w.txt"
        world.write_text("target 2 0\n")
        code, _, err = run_cli(
            capsys, "navsim", str(tmp_path / "t.csv"), "--world", str(world), "--scenario", "open"
        )
        assert code == 2

    @pytest.mark.parametrize("scenario", [["--scenario", "open"], []], ids=["scenario", "default"])
    def test_start_without_world_usage_error(self, capsys, tmp_path, scenario):
        # a fixture brings its own start pose: --start would be ignored
        out = tmp_path / "t.csv"
        code, _, err = run_cli(capsys, "navsim", str(out), *scenario, "--start", "5", "5", "1")
        assert code == 2
        assert err == "rgbdnav navsim: --start needs --world\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-steps", "0", "max_steps must be positive, got 0"),
            ("--max-steps", "-5", "max_steps must be positive, got -5"),
            ("--robot-radius", "nan", "robot_radius must be positive, got nan"),
            ("--robot-radius", "-1", "robot_radius must be positive, got -1.0"),
        ],
    )
    def test_bad_run_flag_usage_error(self, capsys, tmp_path, flag, value, message):
        out = tmp_path / "t.csv"
        code, _, err = run_cli(capsys, "navsim", str(out), "--scenario", "open", flag, value)
        assert code == 2
        assert err == f"rgbdnav navsim: invalid flag: {message}\n"
        assert not out.exists()


class TestDefaults:
    def test_flag_defaults_match_named_constants(self):
        from rgbdnav import navsim
        from rgbdnav.types import PipelineConfig

        args = build_parser().parse_args(["detect", "scene", "out"])
        defaults = PipelineConfig()
        assert (args.tau, args.kernel_size, args.merge_threshold) == (
            defaults.tau, defaults.kernel_size, defaults.merge_threshold
        )
        args = build_parser().parse_args(["navsim", "t.csv"])
        assert (args.max_steps, args.robot_radius) == (navsim.MAX_STEPS, navsim.ROBOT_RADIUS)

    def test_option_strings_are_pinned(self):
        # every flag each subcommand takes: a new knob has to show up as an edit to this list
        subcommands = build_parser()._subparsers._group_actions[0].choices
        options = {name: [s for a in p._actions for s in a.option_strings] for name, p in subcommands.items()}
        assert options == {
            "detect": ["-h", "--help", "--config", "--tau", "--merge-threshold", "--kernel-size"],
            "eval": ["-h", "--help", "--config", "--out"],
            "synth": ["-h", "--help", "--config", "--views", "--width", "--height", "--focal", "--boxes", "--seed",
                      "--drop-prob", "--box-jitter-px", "--mask-erode-px", "--score-sigma"],
            "navsim": ["-h", "--help", "--config", "--world", "--scenario", "--start", "--max-steps",
                       "--robot-radius"],
        }


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, two_cube_scene, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("tau = 3.5\nkernel_size = 5\n")
        pred = tmp_path / "pred"
        code, out, _ = run_cli(capsys, "detect", str(two_cube_scene), str(pred), "--config", str(cfg))
        assert code == 0

    def test_flags_override_config(self, capsys, two_cube_scene, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("tau = -1\n")  # would be rejected if it took effect
        pred = tmp_path / "pred"
        code, _, _ = run_cli(
            capsys, "detect", str(two_cube_scene), str(pred), "--config", str(cfg), "--tau", "2.0"
        )
        assert code == 0

    def test_bad_config_value_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("views = 2.5\n")
        with pytest.raises(SystemExit) as exc:
            main(["synth", str(tmp_path / "s"), "--config", str(cfg)])
        assert exc.value.code == 2
        assert "--views" in capsys.readouterr().err

    def test_line_without_equals_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("views 3\n")
        with pytest.raises(SystemExit) as exc:
            main(["synth", str(tmp_path / "s"), "--config", str(cfg)])
        assert exc.value.code == 2
        assert "cfg.txt:1" in capsys.readouterr().err

    def test_missing_config_usage_error(self, capsys, tmp_path):
        # a config file that cannot be read is bad input, not a bad flag
        cfg = tmp_path / "absent.txt"
        code, _, err = run_cli(capsys, "synth", str(tmp_path / "s"), "--config", str(cfg))
        assert code == 1
        assert err.startswith(f"rgbdnav synth: cannot read {cfg}")
        assert err.count("\n") == 1

    def test_multi_value_flag_from_config(self, tmp_path):
        from rgbdnav.cli import _parse_with_config

        cfg = tmp_path / "cfg.txt"
        cfg.write_text("start = 1 -2 3\nmax_steps = 7\nlabel = not a navsim flag\n")
        parser, argv = build_parser(), ["navsim", "t.csv", "--config", str(cfg)]
        from_config = _parse_with_config(parser, argv, parser.parse_known_args(argv)[0])
        from_flags = build_parser().parse_args(
            ["navsim", "t.csv", "--config", str(cfg), "--start", "1", "-2", "3", "--max-steps", "7"]
        )
        assert from_config == from_flags
        assert from_config.start == [1.0, -2.0, 3.0]

    def test_perturbation_file_is_synth_config(self, capsys, tmp_path):
        from rgbdnav.oracle import PerturbationConfig

        cfg = tmp_path / "p.txt"
        PerturbationConfig(seed=9, box_jitter_px=2, mask_erode_px=-1, drop_prob=0.25, score_sigma=0.1).to_file(cfg)
        out = tmp_path / "s"
        code, _, _ = run_cli(
            capsys, "synth", str(out), "--views", "1", "--width", "160", "--height", "120",
            "--focal", "160", "--config", str(cfg),
        )
        assert code == 0
        assert (out / "perturbation.txt").read_text() == cfg.read_text()

    def test_determinism_across_runs(self, capsys, two_cube_scene, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "detect", str(two_cube_scene), str(a))[0] == 0
        assert run_cli(capsys, "detect", str(two_cube_scene), str(b))[0] == 0
        assert (a / "boxes.json").read_text() == (b / "boxes.json").read_text()
        for pa in sorted(a.glob("*.ply")):
            assert pa.read_bytes() == (b / pa.name).read_bytes()
