"""Golden digests of what ``detect`` and ``eval`` write on two fixed scenes.

Both scenes are the five-box bench layout at 640x480 with 20 views, made by
``rgbdnav synth``: one with noise-free oracle detections, one with the noisy
preset. The sha256 of ``boxes.json``, of every cloud PLY and of
``eval_report.txt`` is pinned, with the instance count and the mAP triple
written out. The noisy preset at seeds 3-5, scored together by one ``eval``,
pins the pooled triple. A change that moves any byte of these outputs must
update the digests here in the same change and report its old -> new scores.
"""
import hashlib
import json
import re
from pathlib import Path

import pytest

from rgbdnav import cli

from conftest import BENCH_LAYOUT

NOISY_PRESET = ["--mask-erode-px", "-2", "--box-jitter-px", "4", "--drop-prob", "0.2", "--score-sigma", "0.1"]
NOISY_FLAGS = [*NOISY_PRESET, "--seed", "3"]
# The pooled (mAP, mAP50, mAP25) of the noisy preset at these seeds, in either scene order.
POOLED_SEEDS = (3, 4, 5)
POOLED_MAP = (90.0, 92.4, 92.4)

GOLDEN = {
    "bench": {
        "flags": [],
        "instances": 6,
        "map": (90.0, 90.0, 90.0),
        "sha256": {
            "boxes.json": "362cb3abbcb8ad776ae7d765971d126b452092f68ff15dd0496b0133f6173d44",
            "cloud_0000_box_a.ply": "697cc540375383a7533ff3375f49872e2683f33e06829e4047a4a9c82850d035",
            "cloud_0001_box_b.ply": "a61ea28ec33b9dcad25501699b3e4fc3935ccd467598570ca5a37e3d41af84ee",
            "cloud_0002_box_c.ply": "fb110fde00e596b4e2b17efacb168f0e6acb0290a25ba89599d15396cc484e13",
            "cloud_0003_box_d.ply": "a24f9cade69d2487e78bf89ae7831581924be231d98345163d71e29571d95462",
            "cloud_0004_box_e.ply": "ccb62fd1d0379dda9ea3d4192e253983496f12ca74c6da2de41afb96ddda7d3d",
            "cloud_0005_box_d.ply": "9673d830a9de5d6ffd7ccab9837cc91e85cd009e88d34c97889d8f421403def2",
            "eval_report.txt": "b15b0bbf08f39b96253cf672fabe5c6e6d3036cbf1b1bd7ee3c775873f048439",
        },
    },
    "noisy": {
        "flags": NOISY_FLAGS,
        "instances": 9,
        "map": (93.0, 100.0, 100.0),
        "sha256": {
            "boxes.json": "8da6f8b93bf40989c6bab0131f6d8451f4bb67ea2b7e4fe4bda6f7105a3b2d17",
            "cloud_0000_box_a.ply": "cf9e93ab4083abd59ca2dff655d9a7e1f4856576b540e4e67c6189cca6270936",
            "cloud_0001_box_b.ply": "ae53cb5633a1fece724843a6532ecc0d011c8f837492313d803c463704aab6c3",
            "cloud_0002_box_c.ply": "81010b14efa3238ff8aff6f55bb3c17fbfed48704ab57dbbd9a31f2609e668a9",
            "cloud_0003_box_d.ply": "d890aa73dc4829aa559ea851a0161344b67e5180861f953d017b9a2a826d6281",
            "cloud_0004_box_e.ply": "42a909ab74111547220acaa558ea8ccec555798843458bbfbd4fc59d8e53a85e",
            "cloud_0005_box_d.ply": "08e3019fbed687c21b10f44fd93ed37f9f6eeb53e7a3bff6c55859d3ab5b948b",
            "cloud_0006_box_b.ply": "4b5a2695c439f6ffc516a298a84926cab9e7e204fceba188bf8e3724d3c10029",
            "cloud_0007_box_a.ply": "d6406af838a86828a694b8af75031b6be27c346dd75b643d6d8b05604c075373",
            "cloud_0008_box_d.ply": "6a25e293874f74438f110510b74cd55958d0399f5c0e2b68cab17aff3d55cc3a",
            "eval_report.txt": "97d2fc7ded362e5cdcd887803138a2ba59353640307f43935ac932f709beac4b",
        },
    },
}


def _synth_and_detect(root, name, noise_flags) -> tuple[str, str]:
    """(scene dir, prediction dir): the bench layout synthesized with ``noise_flags``, then detected."""
    boxes = root / "boxes.txt"
    boxes.write_text("".join(
        f"{lb.label} {' '.join(repr(float(c)) for c in (*lb.box.min_corner, *lb.box.max_corner))}\n"
        for lb in BENCH_LAYOUT
    ))
    scene, pred = str(root / f"scene_{name}"), str(root / f"pred_{name}")
    flags = ["--views", "20", "--width", "640", "--height", "480", "--focal", "580", "--boxes", str(boxes)]
    assert cli.main(["synth", scene, *flags, *noise_flags]) == 0
    assert cli.main(["detect", scene, pred]) == 0
    return scene, pred


def _all_row(report_text: str) -> tuple[float, ...]:
    row = re.search(r"^all\s+(\S+)\s+(\S+)\s+(\S+)\s*$", report_text, re.MULTILINE)
    return tuple(float(v) for v in row.groups())


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def golden_run(request, tmp_path_factory):
    """(name, pred_dir): the named scene synthesized, detected and evaluated through the CLI."""
    name = request.param
    scene, pred = _synth_and_detect(tmp_path_factory.mktemp(f"golden_{name}"), name, GOLDEN[name]["flags"])
    assert cli.main(["eval", pred, scene]) == 0
    return name, Path(pred)


def test_instance_count_and_map(golden_run):
    name, pred = golden_run
    instances = json.loads((pred / "boxes.json").read_text())["instances"]
    got = (len(instances), _all_row((pred / "eval_report.txt").read_text()))
    assert got == (GOLDEN[name]["instances"], GOLDEN[name]["map"])


def test_output_digests(golden_run):
    name, pred = golden_run
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(pred.iterdir())}
    assert digests == GOLDEN[name]["sha256"]


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
