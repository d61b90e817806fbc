"""Shared pytest wiring: the acceptance summary block and the benchmark's planted L's."""

import random
from pathlib import Path

import pytest

ACCEPTANCE: dict[int, tuple[str, str]] = {}


def record(num: int, desc: str, status: str) -> None:
    ACCEPTANCE[num] = (desc, status)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(ACCEPTANCE):
        desc, status = ACCEPTANCE[num]
        terminalreporter.write_line(f"criterion {num:2d} [{status}] {desc}")


@pytest.fixture
def planted_l(monkeypatch):
    """bench/planted.py, read in place, as a function of n and seed to a graph.

    planted.py cuts random L shapes into rectangles: each dual has a
    non-trivial L plan by construction, without asking lplan.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from planted import planted_graph

    from lplan.io import doc_to_graph

    return lambda n, seed: doc_to_graph(planted_graph(n, random.Random(f"planted:{n}:{seed}")))
