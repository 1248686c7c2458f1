"""Every fenced ``python`` block of README.md runs, so the documented examples
cannot call a name the package no longer has; and CI's workflow holds no
inline Python, so every check lives in this suite."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})


def test_readme_lists_exactly_each_config_table_keys():
    from test_schemas import TABLES

    section = README.read_text().split("### Config schemas\n", 1)[1].split("\n### ", 1)[0]
    rows = dict(re.findall(r"^\| (.+?) \| (.+?) \|$", section, re.MULTILINE))
    rows.pop("Document")
    assert set(rows) == set(TABLES)
    for label, (table, _) in TABLES.items():
        assert sorted(re.findall(r"`(\w+)`", rows[label])) == sorted(table), label


def test_ci_workflow_runs_no_inline_python():
    # A check written as a `python -` heredoc in a run: step would run only
    # on CI; it belongs in a test here instead.
    assert not re.search(r"python3?\s+-\s*<<", WORKFLOW.read_text())
