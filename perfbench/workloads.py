"""The benchmark's workloads: inputs built from the seed, the CLI calls one op
makes, and the checks its outputs must pass.

Every op goes through ``rgbdnav.cli.main`` in this process, the same entry
point the ``rgbdnav`` command runs. The program only ever sees generated
inputs (scene directories, a boxes file, world files), never the seed.
"""
from __future__ import annotations

import io
import json
import re
import shutil
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from rgbdnav import cli, navsim

# The five-object layout of scripts/benchmark_timing.py, as `synth --boxes` lines.
BENCH_BOXES = """\
box_a -0.9 -0.6 0.0 -0.4 -0.15 0.4
box_b 0.3 -0.5 0.0 0.8 -0.05 0.42
box_c -0.25 0.45 0.0 0.25 0.95 0.38
box_d -0.15 -0.25 0.0 0.2 0.1 0.45
box_e -1.0 0.35 0.0 -0.55 0.8 0.35
"""
BENCH_LABELS = sorted(line.split()[0] for line in BENCH_BOXES.splitlines())
BENCH_VIEWS = 20
SCENE_FLAGS = ["--views", str(BENCH_VIEWS), "--width", "640", "--height", "480", "--focal", "580"]
# The same orbit and field of view at a quarter of the resolution.
PREVIEW_FLAGS = ["--views", str(BENCH_VIEWS), "--width", "160", "--height", "120", "--focal", "145"]


class OpFailed(Exception):
    """A CLI call exited non-zero or an output check did not hold."""


def run_cli(argv: list[str]) -> str:
    """Run one ``rgbdnav`` subcommand in process; returns what it printed."""
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as e:  # argparse rejected the arguments
        code = e.code
    if code != 0:
        raise OpFailed(f"rgbdnav {argv[0]} exited with status {code}")
    return out.getvalue()


def _printed_int(text: str, label: str) -> int:
    m = re.search(rf"^{re.escape(label)}:\s*(\d+)\s*$", text, re.MULTILINE)
    if m is None:
        raise OpFailed(f"no '{label}:' line in the output")
    return int(m.group(1))


def check_detect(output: str, pred_dir: Path) -> int:
    """`instances out` matches boxes.json; returns the number of views processed."""
    printed = _printed_int(output, "instances out")
    records = json.loads((pred_dir / "boxes.json").read_text())["instances"]
    if printed != len(records):
        raise OpFailed(f"detect printed {printed} instances but boxes.json holds {len(records)}")
    return _printed_int(output, "views")


def parse_report(path: Path) -> tuple[dict[str, tuple[float, ...]], tuple[float, float, float]]:
    """Per-class rows (mAP, mAP50, mAP25, gt, pred, tp50, tp25) and the 'all' row."""
    rows: dict[str, tuple[float, ...]] = {}
    overall = None
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, *fields = line.split()
        if name == "class":
            continue
        try:
            values = tuple(float(v) for v in fields)
        except ValueError:
            raise OpFailed(f"{path.name}: unparsable row {line!r}") from None
        if name == "all" and len(values) == 3:
            overall = values
        elif len(values) == 7:
            rows[name] = values
        else:
            raise OpFailed(f"{path.name}: unexpected row {line!r}")
    if overall is None or not rows:
        raise OpFailed(f"{path.name}: missing class rows or the 'all' row")
    return rows, overall


def check_eval(report_path: Path) -> None:
    """The report parses, mAP25 >= mAP50 >= mAP, and (noise-free scene) tp25 == gt per class."""
    rows, overall = parse_report(report_path)
    for name, (ap, ap50, ap25, *_rest) in [*rows.items(), ("all", overall)]:
        if not ap25 >= ap50 >= ap:
            raise OpFailed(f"{name}: mAP25 {ap25} >= mAP50 {ap50} >= mAP {ap} does not hold")
    if sorted(rows) != BENCH_LABELS:
        raise OpFailed(f"report classes {sorted(rows)} are not the bench labels {BENCH_LABELS}")
    missed = [name for name, r in rows.items() if r[6] != r[3]]
    if missed:
        raise OpFailed(f"noise-free scene: tp25 != gt for {missed}")


class SynthDetectEval:
    name = "synth_detect_eval"
    why = (
        "ROADMAP headline path on the 640x480 five-box 20-view bench scene; the only workload "
        "where the oracle and ground-truth text I/O, about 70% of the op, are timed"
    )
    params = {
        "op": "synth the bench scene into an empty dir, then detect, then eval against its GT",
        "synth_flags": SCENE_FLAGS + ["--boxes", "<five bench boxes>"],
        "noise": "none",
        "setup": "write the boxes file and check the layout with a 160x120 preview synth",
    }
    rate_name = "views_per_s"
    setups = 5

    def setup(self, work: Path, seed: int) -> None:
        # The preview fails fast on a layout the full-size op could not render
        # (a box outside every view, depth overflow), and gives set-up a
        # duration long enough to time steadily.
        (work / "boxes.txt").write_text(BENCH_BOXES)
        preview = work / "preview"
        shutil.rmtree(preview, ignore_errors=True)
        run_cli(["synth", str(preview), *PREVIEW_FLAGS, "--boxes", str(work / "boxes.txt")])

    def calls(self, work: Path, op_dir: Path) -> list[list[str]]:
        scene, pred = str(op_dir / "scene"), str(op_dir / "pred")
        return [
            ["synth", scene, *SCENE_FLAGS, "--boxes", str(work / "boxes.txt")],
            ["detect", scene, pred],
            ["eval", pred, scene],
        ]

    def check(self, op_dir: Path, outputs: list[str]) -> int:
        expected = f"wrote scene with {BENCH_VIEWS} view(s), {len(BENCH_LABELS)} object(s)"
        if expected not in outputs[0]:
            raise OpFailed(f"synth did not report '{expected}'")
        views = check_detect(outputs[1], op_dir / "pred")
        check_eval(op_dir / "pred" / "eval_report.txt")
        return views


class DetectEval:
    name = "detect_eval"
    why = (
        "the bench scene synthesized in set-up, so only the pipeline layers (load, reconstruct, "
        "fuse, write, eval) are timed; an oracle change moves setup_s here, not op_s"
    )
    params = {
        "op": "detect then eval the set-up scene into a fresh output dir",
        "synth_flags": SCENE_FLAGS + ["--boxes", "<five bench boxes>"],
        "noise": "none",
        "setup": "synth the bench scene (timed set-up)",
    }
    rate_name = "views_per_s"
    setups = 3

    def setup(self, work: Path, seed: int) -> None:
        scene = work / "scene"
        shutil.rmtree(scene, ignore_errors=True)
        (work / "boxes.txt").write_text(BENCH_BOXES)
        run_cli(["synth", str(scene), *SCENE_FLAGS, "--boxes", str(work / "boxes.txt")])

    def calls(self, work: Path, op_dir: Path) -> list[list[str]]:
        scene, pred = str(work / "scene"), str(op_dir / "pred")
        return [["detect", scene, pred], ["eval", pred, scene]]

    def check(self, op_dir: Path, outputs: list[str]) -> int:
        views = check_detect(outputs[0], op_dir / "pred")
        check_eval(op_dir / "pred" / "eval_report.txt")
        return views


NAV_WORLDS = 30
_OUTCOME = re.compile(r"^outcome: (\w+) after (\d+) step\(s\)", re.MULTILINE)


class Navsim:
    name = "navsim"
    why = (
        "one batch of episodes: the three fixture scenarios plus 30 clear worlds sampled from the "
        "seed; the only workload that runs navsim, which the scene workloads never touch"
    )
    params = {
        "op": f"navsim on the 3 --scenario fixtures, then on {NAV_WORLDS} --world files",
        "worlds": f"{NAV_WORLDS} x navsim.sample_clear_world(SeedSequence([seed, j])), written by save_world",
        "setup": "sample and write the worlds",
    }
    rate_name = "steps_per_s"
    setups = 5

    def setup(self, work: Path, seed: int) -> None:
        worlds = work / "worlds"
        worlds.mkdir(exist_ok=True)
        starts = []
        for j in range(NAV_WORLDS):
            world_seed = int(np.random.SeedSequence([seed, j]).generate_state(1)[0])
            world, start = navsim.sample_clear_world(world_seed)
            navsim.save_world(world, worlds / f"world_{j:02d}.txt")
            starts.append([f"{v:.17g}" for v in (*start.position, start.heading)])
        self.starts = starts

    def calls(self, work: Path, op_dir: Path) -> list[list[str]]:
        calls = [
            ["navsim", str(op_dir / f"{name}.csv"), "--scenario", name]
            for name in sorted(navsim.SCENARIOS)
        ]
        calls += [
            ["navsim", str(op_dir / f"world_{j:02d}.csv"),
             "--world", str(work / "worlds" / f"world_{j:02d}.txt"), "--start", *start]
            for j, start in enumerate(self.starts)
        ]
        return calls

    def check(self, op_dir: Path, outputs: list[str]) -> int:
        steps = 0
        n_fixtures = len(navsim.SCENARIOS)
        for k, text in enumerate(outputs):
            m = _OUTCOME.search(text)
            if m is None:
                raise OpFailed(f"episode {k}: no outcome line")
            outcome, n = m.group(1), int(m.group(2))
            if k < n_fixtures and outcome != "reached":
                raise OpFailed(f"fixture episode {k} ended '{outcome}', expected 'reached'")
            if k >= n_fixtures and outcome == "collision":
                raise OpFailed(f"sampled world {k - n_fixtures} ended in a collision")
            steps += n
        return steps


WORKLOADS = {w.name: w for w in (SynthDetectEval, DetectEval, Navsim)}
