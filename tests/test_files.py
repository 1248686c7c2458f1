"""The atomic writer behind every output file: concurrent writers, failures
mid-file and the permissions of what it leaves."""

import json
import os
import sys
import threading

import pytest

from supraflow.files import write_csv, write_json
from supraflow.kalman import write_mask_csv
from supraflow.svgplot import line_chart


def leftover_temps(directory):
    return [name for name in os.listdir(directory) if name.endswith(".tmp")]


def test_concurrent_writers_of_one_path(tmp_path):
    path = tmp_path / "chart.svg"
    series = {
        name: [(name, [0.0, 1.0, 2.0], [0.0, scale, 4.0 * scale])]
        for name, scale in (("first", 1.0), ("second", 2.0))
    }
    expected = {}
    for name, lines in series.items():
        line_chart(tmp_path / f"{name}.svg", lines, title="race")
        expected[name] = (tmp_path / f"{name}.svg").read_text()
    start = threading.Barrier(2)
    errors = []

    def writer(lines):
        start.wait()
        try:
            for _ in range(200):
                line_chart(path, lines, title="race")
        except Exception as exc:  # noqa: BLE001 - collected and asserted below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(lines,)) for lines in series.values()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert path.read_text() in expected.values()
    assert leftover_temps(tmp_path) == []


def test_failed_writer_leaves_no_temp_and_the_earlier_file(tmp_path):
    path = tmp_path / "mask.csv"
    write_mask_csv(path, (0, 1), labels=["1:a", "1:b"])
    before = path.read_bytes()
    with pytest.raises(IndexError):
        write_mask_csv(path, (0, 5), labels=["1:a", "1:b"])
    assert path.read_bytes() == before
    assert leftover_temps(tmp_path) == []


def test_output_mode_matches_plain_open(tmp_path):
    plain = tmp_path / "plain.json"
    with open(plain, "w") as handle:
        handle.write("{}\n")
    written = tmp_path / "written.json"
    write_json(written, {})
    assert os.stat(written).st_mode == os.stat(plain).st_mode


def test_csv_and_json_formats(tmp_path):
    csv_path = tmp_path / "table.csv"
    write_csv(csv_path, ["a", "b"], [[1, "x,y"], [2, ""]])
    assert csv_path.read_bytes() == b'a,b\r\n1,"x,y"\r\n2,\r\n'
    json_path = tmp_path / "doc.json"
    write_json(json_path, {"b": [1.5], "a": True})
    assert json_path.read_text() == '{"a": true, "b": [1.5]}\n'
