"""Guards on the code and on traced benchmark runs, kept in Tier-1.

Every test here carries the ``guard`` marker, so the CI workflow runs it
again in its guard step (``pytest -m guard -s -v``); each prints one line
with what it measured. The trace guards run ``perfbench/run.py`` for one
second with ``--trace 1`` and read the JSON object on the last line of its
stdout.
"""
import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rgbdnav import cli, scene_io

pytestmark = pytest.mark.guard
ROOT = Path(__file__).resolve().parent.parent
NAVSIM_STEPS = ("rangefinder_scan", "apf_step", "clearance", "odometry_update", "save_trajectory")


def _traced_run(workload: str) -> tuple[dict, int]:
    """The metrics and failed-op count of a one-second traced perfbench run at seed 0."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return result["metrics"], result["failed"]


def test_one_voxel_set_primitive():
    # voxel sets go through fusion.sorted_unique, sorted_unique_first and sorted_union; numpy >= 2.3
    # builds np.unique and np.union1d through a hash table, several times slower on int64 keys,
    # and the other set routines re-sort keys the primitive already holds sorted
    calls = re.compile(r"np\.(unique|union1d|intersect1d|setdiff1d|setxor1d|isin|in1d)\(")
    hits = [
        f"{path.relative_to(ROOT)}:{n}: {line.strip()}"
        for path in sorted((ROOT / "src" / "rgbdnav").rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if calls.search(line)
    ]
    print("one voxel-set primitive", "ok" if not hits else "FAILED", *hits)
    assert not hits, "src/rgbdnav calls a numpy set routine: use fusion.sorted_unique(_first) or sorted_union"


def test_synth_writes_in_one_pass(monkeypatch, tmp_path):
    # synth detects each frame from the ids it just rendered: with every reader of the files
    # it writes made to raise, a synth and a noisy re-synth into the same directory still run
    def read_back(*args, **kwargs):
        raise AssertionError("synth read back a scene file")

    for name in ("_read_raster", "load_gt_labels", "load_intrinsics", "frame_ids"):
        monkeypatch.setattr(scene_io, name, read_back)
    scene = tmp_path / "scene"
    small = ["--views", "3", "--width", "160", "--height", "120", "--focal", "145"]
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        for noise in ([], ["--drop-prob", "0.5", "--mask-erode-px", "1", "--seed", "2"]):
            codes.append(cli.main(["synth", str(scene), *small, *noise]))
    masks = len(list((scene / "frames").glob("*.mask.*.pgm")))
    line = f"synth writes in one pass: exit codes {codes}, {masks} mask file(s) after the re-synth"
    print(line)
    assert codes == [0, 0] and masks > 0, line


def test_mask_files_hold_their_window(tmp_path):
    # a mask file is its detection's window and nothing else: with dilation and jitter growing
    # the windows, each file's PGM width and height are its window's, and the mask files' bytes
    # are the window pixels plus one header each
    scene = tmp_path / "scene"
    small = ["--views", "3", "--width", "160", "--height", "120", "--focal", "145"]
    noise = ["--mask-erode-px", "-2", "--box-jitter-px", "3", "--seed", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["synth", str(scene), *small, *noise])
    intr, _ = scene_io.load_intrinsics(scene / "intrinsics.txt")
    frames = scene / "frames"
    shapes, expected = [], 0
    for frame_id in scene_io.frame_ids(scene):
        for k, det in enumerate(scene_io._load_detections(frames / f"{frame_id}.detections.txt", intr)):
            rows, cols = det.window
            width, height = cols.stop - cols.start, rows.stop - rows.start
            _, w, h, _ = (frames / f"{frame_id}.mask.{k}.pgm").read_bytes().split(maxsplit=3)
            shapes.append(((int(w), int(h)), (width, height)))
            expected += width * height + len(f"P5\n{width} {height}\n255\n")
    files = sorted(frames.glob("*.mask.*.pgm"))
    size = sum(f.stat().st_size for f in files)
    wrong = [got for got, want in shapes if got != want]
    line = (f"mask files hold their detection window: exit code {code}, {len(files)} mask file(s), "
            f"{len(wrong)} not window-sized, {size} bytes for {expected} window pixel and header bytes")
    print(line)
    assert code == 0 and files and len(files) == len(shapes) and not wrong and size == expected, line


def test_overscan():
    # a traced detect_eval op must scan at most twice the mask pixels it uses,
    # and the z-score filter must still be seen rejecting depths
    m, failed = _traced_run("detect_eval")
    scanned, used = m["masks.pixels_scanned"]["value"], m["masks.mask_pixels"]["value"]
    rejected = m["masks.zscore_rejected"]["value"]
    line = f"overscan: failed={failed} scanned={scanned:.0f} used={used:.0f} zscore_rejected={rejected:.0f}"
    print(line)
    assert failed == 0 and used > 0 and scanned <= 2 * used and rejected > 0, line


def test_navsim_trace():
    # a traced navsim op must fail nothing, raise no observer error and spend time in every step function
    m, failed = _traced_run("navsim")
    timed = {s: m[f"navsim.{s}_s"]["value"] for s in NAVSIM_STEPS}
    errors = m["trace.observer_errors"]["value"]
    line = f"navsim trace: failed={failed} observer_errors={errors:.0f} {timed}"
    print(line)
    assert failed == 0 and errors == 0 and all(v > 0 for v in timed.values()), line
