"""Memory guards: ``synth``, ``detect`` and ``eval`` hold one view at a time, not the scene.

Each guard compares the ``tracemalloc`` peak of one subcommand on a 40-view
scene with that on a 10-view scene of the same layout at 160x120; the ratio
must stay within 1.5. CI runs each guard as its own step, and prints the
peaks and the ratio (``pytest -s``).
"""
import contextlib
import io
import tracemalloc

import pytest

from rgbdnav import cli

FLAGS = ["--width", "160", "--height", "120", "--focal", "145"]
MAX_RATIO = 1.5


def _peak(argv) -> int:
    """The tracemalloc peak, in bytes, of one ``cli.main(argv)`` call that must exit 0."""
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, f"rgbdnav {argv[0]} exited {code}"
    return peak


def _peaks(tmp_path, command: str) -> dict[int, int]:
    peaks = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for n in (10, 40):
            scene, pred = str(tmp_path / f"scene{n}"), str(tmp_path / f"pred{n}")
            synth = ["synth", scene, "--views", str(n), *FLAGS]
            assert cli.main(synth) == 0
            if command == "synth":
                # rewrites the same scene: the first synth in the process also
                # pays one-time set-up that would inflate the 10-view peak
                peaks[n] = _peak(synth)
            elif command == "detect":
                peaks[n] = _peak(["detect", scene, pred])
            else:
                assert cli.main(["detect", scene, pred]) == 0
                peaks[n] = _peak(["eval", pred, scene])
    return peaks


@pytest.mark.parametrize("command", ["synth", "detect", "eval"])
def test_peak_does_not_grow_with_views(tmp_path, command):
    peaks = _peaks(tmp_path, command)
    ratio = peaks[40] / peaks[10]
    line = (f"{command} memory: peak 10 views {peaks[10] / 1e6:.2f} MB, "
            f"40 views {peaks[40] / 1e6:.2f} MB, ratio {ratio:.2f} (bound {MAX_RATIO})")
    print(line)
    assert ratio <= MAX_RATIO, line
