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
            "cloud_0000_box_a.ply": "9eeaf932a49773c2eec9b269b266e188e25734cc808c7fa5f100a164f7cc061a",
            "cloud_0001_box_b.ply": "46119e75e9c48e2c1ed1dd6a311d9717ad0fe1aab29e63eb06d228339e86e7e2",
            "cloud_0002_box_c.ply": "3bd8181747e794f35dfd0864756ae5042caff80d4ebe80a728b7bde1d4f66d11",
            "cloud_0003_box_d.ply": "c05c771d4c0fe83677223450ac0140bd6ba67f9337cb1864c2e9f49a592c5227",
            "cloud_0004_box_e.ply": "c733dccec1194f04254af41490ec932142c9551688c6e5c158db2c9af25e1b90",
            "eval_report.txt": "1051aa644726ba0fa0ca07f0b0be97017151fe4c492ecd1f9e24fc27d8b5eaed",
        },
    },
    "noisy": {
        "flags": NOISY_FLAGS,
        "instances": 8,
        "map": (93.0, 100.0, 100.0),
        "sha256": {
            "boxes.json": "9a010f1760441c403e612b67421b8837e0e6ed1f9ff562c1bcdb7e15c5238dc8",
            "cloud_0000_box_a.ply": "6f31014cdbddd33d426b216d5ba55c4f1bcafe1dc5d0cfbbe8d94615bda15867",
            "cloud_0001_box_a.ply": "db23b3a7748b8e9b088e17f976850d33ef3ff5a04b87697cee8d9d9665aab3a6",
            "cloud_0002_box_b.ply": "2e70aca6713e6eef5711cab8c95ecec6f7aba9327368655c2a8d9a8da81ab07d",
            "cloud_0003_box_b.ply": "e78125615323913e0a8ffd5adb93f8edf1edc26fa7c0dacdfd064bf527893e67",
            "cloud_0004_box_c.ply": "87424db8d951b5c7b7dd721648f59377d4b4277bd6fbae02904f2342786defbb",
            "cloud_0005_box_d.ply": "6124071e7617bf71380777f825572b0a60460fa6117e5c43ce37da3c35daea50",
            "cloud_0006_box_d.ply": "178efd00b4c991cb19bbf15c723cfcf49eeb42dc69123923ef5c34209afffeed",
            "cloud_0007_box_e.ply": "6264b1cc3f57d39ac8f1fd3d52f5d4c1813db8e307bc3efce2407d9c69ce8e9e",
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
