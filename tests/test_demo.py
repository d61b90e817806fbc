"""The worked example: the script runs end to end and writes its
artifacts, and README's documents and code are what the library gives."""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

from lplan import samples
from lplan.io import graph_to_doc, plan_to_doc
from lplan.pipeline import plan

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO = ROOT / "scripts" / "demo.py"


def worked_example_blocks(lang: str) -> list[str]:
    """The fenced blocks in one language of README's "Worked example" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Worked example\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{lang}\n(.*?)^```", section, re.S | re.M)


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


def test_readme_documents_are_the_fixtures_graph_and_plan():
    graph_doc, plan_doc = map(json.loads, worked_example_blocks("json"))
    g = samples.pentagon_with_pocket()
    assert graph_doc == graph_to_doc(g)
    assert plan_doc == plan_to_doc(plan(g))


def test_readme_python_example_runs():
    (code,) = worked_example_blocks("python")
    exec(compile(code, "README.md", "exec"), {})
