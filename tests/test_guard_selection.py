"""The ``guard`` marker, not the CI workflow, says which tests are guards."""
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GUARDS = [
    "tests/test_ci_guards.py::test_one_voxel_set_primitive",
    "tests/test_ci_guards.py::test_synth_writes_in_one_pass",
    "tests/test_ci_guards.py::test_mask_files_hold_their_window",
    "tests/test_ci_guards.py::test_overscan",
    "tests/test_ci_guards.py::test_navsim_trace",
    "tests/test_evaluation.py::TestPooled::test_report_invariant_under_permutations",
    "tests/test_fusion.py::TestOrderFree::test_same_bytes_under_any_order_of_views_instances_and_frame_ids",
    "tests/test_memory_guards.py::test_peak_does_not_grow_with_views[synth]",
    "tests/test_memory_guards.py::test_peak_does_not_grow_with_views[detect]",
    "tests/test_memory_guards.py::test_peak_does_not_grow_with_views[eval]",
    "tests/test_projection.py::TestColumnMajorClouds::test_to_world_bit_identical_to_row_major",
]


def test_marker_selects_the_guards():
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-m", "guard", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    nodes = [line for line in out.splitlines() if "::" in line]
    assert sorted(nodes) == sorted(GUARDS)
    assert sum("test_memory_guards.py" in node for node in nodes) == 3


def test_workflow_runs_the_guards_in_one_step():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    steps = re.split(r"^      - ", workflow, flags=re.MULTILINE)[1:]
    assert sum("-m guard" in step for step in steps) == 1
    assert [step for step in steps if re.search(r"tests/\S*::", step)] == []
