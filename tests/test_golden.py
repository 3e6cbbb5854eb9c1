"""Golden digests of what ``synth``, ``detect`` and ``eval`` write on fixed scenes.

Both scenes are the five-box bench layout at 640x480 with 20 views, made by
``rgbdnav synth``: one with noise-free oracle detections, one with the noisy
preset. The sha256 of ``boxes.json``, of every cloud PLY and of
``eval_report.txt`` is pinned, with the instance count and the mAP triple
written out, and the views fed in reverse must write the same bytes. The
noisy preset at seeds 3-5, scored together by one ``eval``, pins the pooled
triple. Every file ``synth`` writes is pinned by one digest per preset: the
bench scene, the noisy preset and a positive-erosion preset. A change that
moves any byte of these outputs must
update the digests here in the same change and report its old -> new scores.
"""
import hashlib
import json
import re
from pathlib import Path

import pytest

from rgbdnav import cli, fusion, scene_io
from rgbdnav.types import PipelineConfig

from conftest import BENCH_LAYOUT

NOISY_PRESET = ["--mask-erode-px", "-2", "--box-jitter-px", "4", "--drop-prob", "0.2", "--score-sigma", "0.1"]
NOISY_FLAGS = [*NOISY_PRESET, "--seed", "3"]
# The pooled (mAP, mAP50, mAP25) of the noisy preset at these seeds, in either scene order.
POOLED_SEEDS = (3, 4, 5)
POOLED_MAP = (90.0, 92.4, 92.4)

# One sha256 over the sorted (relative path, file sha256) pairs of a synthesized scene.
SYNTH_GOLDEN = {
    "bench": ([], "33d06a01b4ac71d24780750b559226110111927e88dd1ad3d058ad7695d31720"),
    "noisy": (NOISY_FLAGS, "4bdc2a0de2c80ff393c5a1785ef0f74244a8ae3d7126feadc0950205714b8c0a"),
    "eroded": (["--mask-erode-px", "2", "--box-jitter-px", "3", "--seed", "5"],
               "83f7461c19cfdbe0ea772449427e936d22f640a39d2acd108239afd703897558"),
}

GOLDEN = {
    "bench": {
        "flags": [],
        "instances": 5,
        "map": (100.0, 100.0, 100.0),
        "sha256": {
            "boxes.json": "572729b05667fbbe67bd544a9141776b8a07ec8cfc38c53f6da5a4e67460f86b",
            "cloud_0000_box_a.ply": "238c9debb42c22d4eb2db255476358633e2329eab60352ac7906d93ce9b7af96",
            "cloud_0001_box_b.ply": "8df39ca14915c926cbdfcae197ed37328381461dd7b3e5d53f7c88c50269ce02",
            "cloud_0002_box_c.ply": "566d3c3bbd29ef18c19df9ca05b69a974e6c3501f973b169f50f1a4ae2bf53b4",
            "cloud_0003_box_d.ply": "414a4d7f483e823a7f9c25a82a8eaa4864a7e831a017bfc94d4223ef322fd996",
            "cloud_0004_box_e.ply": "8933401550273fa5270bd19ff5813d786a30f211c5c533c4d72ad17dd743ea14",
            "eval_report.txt": "1051aa644726ba0fa0ca07f0b0be97017151fe4c492ecd1f9e24fc27d8b5eaed",
        },
    },
    "noisy": {
        "flags": NOISY_FLAGS,
        "instances": 8,
        "map": (93.0, 100.0, 100.0),
        "sha256": {
            "boxes.json": "9a010f1760441c403e612b67421b8837e0e6ed1f9ff562c1bcdb7e15c5238dc8",
            "cloud_0000_box_a.ply": "4558b0c17186a7cfc4288bf80c81f8609da6ce1486d744fe4a9596d7e4be84a7",
            "cloud_0001_box_a.ply": "e0019cde0046dc71ac24bcd539b7df1fb29e41adcf73085280b92b62c82093df",
            "cloud_0002_box_b.ply": "ffdc4d615ae0890835b29d0cb157a58c9fc808cfd0aac6455f1b4c84e40cf1e8",
            "cloud_0003_box_b.ply": "e34e834a5407e841347676829075deb36ae4b89d9b352ded5070f7036f49aabf",
            "cloud_0004_box_c.ply": "85311eae9f468be89c2b6210894a5c57e7532c20ba13a30561dcfdc855356423",
            "cloud_0005_box_d.ply": "a191601df106bfea328bd4c8bd1cae57cd6457f90cb7f1d4f8f65b68670162ca",
            "cloud_0006_box_d.ply": "0a9ddeb19ad5298bab2e56eadba6eb00c8220b5e496f6a0405043c0bdc030e05",
            "cloud_0007_box_e.ply": "b32ec5fbaafb452355b7c67e03931a15f9acc57e701221531f905c7cd90abcd6",
            "eval_report.txt": "15cc77baed677130143acf4d603b7cfc89e8524e46ea7dbec5a1493250aea291",
        },
    },
}


def _synth(root, name, noise_flags) -> str:
    """The scene dir of the bench layout synthesized at 640x480 with 20 views and ``noise_flags``."""
    boxes = root / "boxes.txt"
    boxes.write_text("".join(
        f"{lb.label} {' '.join(repr(float(c)) for c in (*lb.box.min_corner, *lb.box.max_corner))}\n"
        for lb in BENCH_LAYOUT
    ))
    scene = str(root / f"scene_{name}")
    flags = ["--views", "20", "--width", "640", "--height", "480", "--focal", "580", "--boxes", str(boxes)]
    assert cli.main(["synth", scene, *flags, *noise_flags]) == 0
    return scene


def _synth_and_detect(root, name, noise_flags) -> tuple[str, str]:
    """(scene dir, prediction dir): the bench layout synthesized with ``noise_flags``, then detected."""
    scene, pred = _synth(root, name, noise_flags), str(root / f"pred_{name}")
    assert cli.main(["detect", scene, pred]) == 0
    return scene, pred


def _all_row(report_text: str) -> tuple[float, ...]:
    row = re.search(r"^all\s+(\S+)\s+(\S+)\s+(\S+)\s*$", report_text, re.MULTILINE)
    return tuple(float(v) for v in row.groups())


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def golden_run(request, tmp_path_factory):
    """(name, scene_dir, pred_dir): the named scene synthesized, detected and evaluated through the CLI."""
    name = request.param
    scene, pred = _synth_and_detect(tmp_path_factory.mktemp(f"golden_{name}"), name, GOLDEN[name]["flags"])
    assert cli.main(["eval", pred, scene]) == 0
    return name, Path(scene), Path(pred)


def _digests(pred_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(pred_dir.iterdir())}


def _tree_digest(root: Path) -> str:
    """One sha256 over the sorted (relative path, file sha256) pairs of every file under ``root``."""
    pairs = sorted((p.relative_to(root).as_posix(), hashlib.sha256(p.read_bytes()).hexdigest())
                   for p in root.rglob("*") if p.is_file())
    return hashlib.sha256("".join(f"{path} {digest}\n" for path, digest in pairs).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SYNTH_GOLDEN))
def test_synth_digest(tmp_path, name):
    flags, digest = SYNTH_GOLDEN[name]
    assert _tree_digest(Path(_synth(tmp_path, name, flags))) == digest


def test_instance_count_and_map(golden_run):
    name, _, pred = golden_run
    instances = json.loads((pred / "boxes.json").read_text())["instances"]
    got = (len(instances), _all_row((pred / "eval_report.txt").read_text()))
    assert got == (GOLDEN[name]["instances"], GOLDEN[name]["map"])


def test_output_digests(golden_run):
    name, _, pred = golden_run
    assert _digests(pred) == GOLDEN[name]["sha256"]


def test_reversed_views_write_the_same_bytes(golden_run, tmp_path):
    # fusion is order-free: the views fed last to first give the same instances
    name, scene, _ = golden_run
    instances, _ = fusion.run_scene(list(scene_io.iter_views(scene))[::-1], PipelineConfig())
    scene_io.write_instances(instances, tmp_path)
    want = {k: v for k, v in GOLDEN[name]["sha256"].items() if k != "eval_report.txt"}
    assert _digests(tmp_path) == want


def test_pooled_map_over_noisy_seeds(tmp_path):
    # a fragment in one seed's scene outranks another seed's true positive,
    # which a per-scene average would not show
    pairs = [_synth_and_detect(tmp_path, f"seed{seed}", [*NOISY_PRESET, "--seed", str(seed)])
             for seed in POOLED_SEEDS]
    triples = []
    for order in (pairs, pairs[::-1]):
        out = tmp_path / "eval_report.txt"
        assert cli.main(["eval", *(d for scene, pred in order for d in (pred, scene)), "--out", str(out)]) == 0
        triples.append(_all_row(out.read_text()))
    assert triples == [POOLED_MAP, POOLED_MAP]
