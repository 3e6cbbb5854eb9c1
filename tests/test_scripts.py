"""Smoke tests: each experiment script's main() runs end to end on tiny inputs."""
import importlib.util
import re
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, tmp_path, name, *args):
    """Import scripts/<name>.py and run its main() with ``args`` as the command line."""
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # generated scenes land in tmp_path
    return module.main()


def test_degradation_curve(monkeypatch, tmp_path, capsys):
    assert run_script(monkeypatch, tmp_path, "degradation_curve", "--views", "4", "--drops", "0", "0.5") == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines() if re.match(r"\s+\d", line)]
    assert [row[0] for row in rows] == ["0.00", "0.50"]
    for row in rows:
        assert all(0.0 <= float(v) <= 100.0 for v in row[1:])


def test_navigation_demo(monkeypatch, tmp_path, capsys):
    out_dir = tmp_path / "nav"
    assert run_script(monkeypatch, tmp_path, "navigation_demo", str(out_dir)) == 0
    from rgbdnav import navsim

    for name in navsim.SCENARIOS:
        assert (out_dir / f"{name}.world.txt").is_file()
        assert (out_dir / f"{name}.traj.csv").is_file()
    assert capsys.readouterr().out.count(": reached in") == len(navsim.SCENARIOS)

