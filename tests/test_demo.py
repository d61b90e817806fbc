"""The worked example: README's commands run on its graph document and
write its plan, and README's documents and code are what the library gives."""

from __future__ import annotations

import json
import pathlib
import re
import shlex
from xml.etree import ElementTree

import samples
from lplan.cli import main
from lplan.io import graph_to_doc, plan_to_doc
from lplan.pipeline import plan

ROOT = pathlib.Path(__file__).resolve().parent.parent


def worked_example_blocks(lang: str) -> list[str]:
    """The fenced blocks in one language of README's "Worked example" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Worked example\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{lang}\n(.*?)^```", section, re.S | re.M)


def save_graph_document(directory: pathlib.Path) -> None:
    """README's graph document, saved as the pentagon.json its example reads."""
    graph_block, _ = worked_example_blocks("json")
    (directory / "pentagon.json").write_text(graph_block)


def test_readme_example_runs_through_the_cli(tmp_path, monkeypatch):
    save_graph_document(tmp_path)
    monkeypatch.chdir(tmp_path)
    (commands,) = worked_example_blocks("sh")
    for line in commands.splitlines():
        program, *argv = shlex.split(line)
        assert program == "lplan"
        assert main(argv) == 0, line
    _, plan_block = worked_example_blocks("json")
    assert json.loads((tmp_path / "plan.json").read_bytes()) == json.loads(plan_block)
    assert ElementTree.parse(tmp_path / "plan.svg").getroot().tag == "{http://www.w3.org/2000/svg}svg"


def test_readme_documents_are_the_fixtures_graph_and_plan():
    graph_doc, plan_doc = map(json.loads, worked_example_blocks("json"))
    g = samples.pentagon_with_pocket()
    assert graph_doc == graph_to_doc(g)
    assert plan_doc == plan_to_doc(plan(g))


def test_readme_python_example_runs(tmp_path, monkeypatch):
    save_graph_document(tmp_path)
    monkeypatch.chdir(tmp_path)
    (code,) = worked_example_blocks("python")
    exec(compile(code, "README.md", "exec"), {})
