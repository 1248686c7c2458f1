"""The CLI's outputs against the committed reference in ``tests/data/cli_reference``.

``cli_reference.py`` reruns the commands in one child process with one BLAS
thread.  Whatever the machine, every CSV and JSON output must hold the
reference's text, with each number within RTOL relative of the reference's
(ATOL absolute, for entries at rounding level such as the built operator's
largest row sum).  When the machine signature (numpy and scipy versions, OpenBLAS
cores, BLAS threads) is the recorded one, every output must also keep its
bytes, the SVG charts included.  A change meant to move outputs regenerates
the reference with ``python tests/cli_reference.py``.
"""

import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).parent
REFERENCE = HERE / "data" / "cli_reference"
RTOL = 1e-6
ATOL = 1e-15


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_reference") / "out"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    script = HERE / "cli_reference.py"
    done = subprocess.run([sys.executable, str(script), str(out)], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    return out


def _files(root: pathlib.Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _tokens(path: pathlib.Path) -> list:
    """A CSV or JSON output as a flat list: every number as a float, every
    other cell, key or value as itself."""
    if path.suffix == ".csv":
        return [_number(cell) for row in csv.reader(path.read_text().splitlines()) for cell in row]
    tokens = []

    def walk(value):
        if isinstance(value, dict):
            for key, item in value.items():
                tokens.append(key)
                walk(item)
        elif isinstance(value, list):
            for item in value:
                walk(item)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            tokens.append(float(value))
        else:
            tokens.append(value)

    walk(json.loads(path.read_text()))
    return tokens


def test_numbers_match_the_reference(fresh):
    assert _files(fresh) == _files(REFERENCE)
    tables = [n for n in _files(REFERENCE) if n.endswith((".csv", ".json")) and "/" in n]
    assert len(tables) == 9
    for name in tables:
        got, want = _tokens(fresh / name), _tokens(REFERENCE / name)
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            if isinstance(g, float) and isinstance(w, float):
                assert np.isclose(g, w, rtol=RTOL, atol=ATOL, equal_nan=True), (name, g, w)
            else:
                assert g == w, name


def test_bytes_match_the_reference(fresh):
    recorded = json.loads((REFERENCE / "signature.json").read_text())
    current = json.loads((fresh / "signature.json").read_text())
    if current != recorded:
        pytest.skip(
            f"machine signature {current} is not the recorded {recorded}: the CSV and JSON "
            "numbers were compared within tolerance, and no bytes, the SVG charts' included"
        )
    moved = [n for n in _files(REFERENCE) if (fresh / n).read_bytes() != (REFERENCE / n).read_bytes()]
    assert not moved, f"outputs moved from the reference: {moved}"
