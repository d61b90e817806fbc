"""The worked-example script runs end to end and writes its artifacts."""

from __future__ import annotations

import pathlib
import subprocess
import sys

DEMO = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "demo.py"


def test_demo_writes_graph_plan_and_svg(tmp_path):
    done = subprocess.run(
        [sys.executable, str(DEMO), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for suffix in (".graph.json", ".plan.json", ".svg"):
        assert (tmp_path / f"pentagon_with_pocket{suffix}").is_file()
