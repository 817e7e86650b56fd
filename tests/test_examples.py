"""Run every example script — the documentation must stay executable.

Each example ends with assertions of its own, so a clean exit means the
narrative it prints is actually true.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_clean(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} printed nothing"


def test_examples_exist():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "message_broker",
        "selective_dissemination",
        "notification_service",
        "paper_walkthrough",
    } <= names


def test_readme_quickstart_snippet():
    """The exact code shown in README.md's Quickstart section."""
    from repro import XPushMachine, XPushOptions

    machine = XPushMachine.from_xpath(
        {
            "P1": "//a[b/text()=1 and .//a[@c>2]]",
            "P2": "//a[@c>2 and b/text()=1]",
        },
        options=XPushOptions(top_down=True),
    )
    stream = (
        '<a> <b> 1 </b> <a c="3"> <b> 1 </b> </a> </a>'
        "<a> <b> 2 </b> </a>"
    )
    results = machine.filter_stream(stream)
    assert [sorted(r) for r in results] == [["P1", "P2"], []]
