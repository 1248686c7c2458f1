"""The atomic writer behind every output file (concurrent writers, failures
mid-file and the permissions of what it leaves) and the strict readers behind
every input: a bad field or literal names its file, and a CSV field its line."""

import json
import os
import re
import sys
import threading

import numpy as np
import pytest

from supraflow import (
    StateMatrix,
    ValidationError,
    load_network,
    read_states_csv,
    save_network,
    write_states_csv,
)
from supraflow.calibration import read_operator_matrix, write_matrix_csv
from supraflow.cli import main
from supraflow.files import read_csv, write_csv, write_json
from supraflow.harness import replot_errors_csv
from supraflow.kalman import write_mask_csv
from supraflow.svgplot import line_chart
from conftest import random_network


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


# --- Strict readers -------------------------------------------------------------


@pytest.fixture
def inputs(tmp_path):
    """A network file with constants and a two-snapshot state file."""
    network, constants = random_network(np.random.default_rng(3), n_layers=2)
    save_network(tmp_path / "network.json", network, constants)
    snapshots = [
        StateMatrix(np.full((network.n_nodes, 2), t + 1.0), dict(network.node_index), t)
        for t in (0.0, 1.0)
    ]
    write_states_csv(tmp_path / "states.csv", snapshots, network.node_order)
    return network, tmp_path


def rewrite_field(path, line, column, text):
    """Put ``text`` in field ``column`` of line ``line`` (from 1) of a CSV file
    that quotes no field."""
    lines = path.read_text().splitlines()
    fields = lines[line - 1].split(",")
    fields[column] = text
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def first_label(path):
    """The node label of a state file's first row, for a node given twice."""
    return path.read_text().splitlines()[1].split(",")[0]


def predict(tmp_path, capsys, network="network.json"):
    """Run ``supraflow predict`` on the inputs; its exit code and stderr."""
    config = tmp_path / "predict.json"
    files = {"network": str(tmp_path / network), "states": str(tmp_path / "states.csv")}
    config.write_text(json.dumps({**files, "delta_t": 0.5}))
    status = main(["predict", "--config", str(config), "--out", str(tmp_path / "out")])
    return status, capsys.readouterr().err


def states_table(network, tmp_path):
    path = tmp_path / "states.csv"
    return path, 2, lambda: read_states_csv(path, network)


def matrix_dump(network, tmp_path):
    path = tmp_path / "operator.csv"
    write_matrix_csv(path, (3, 2), [np.arange(6.0).reshape(3, 2)])
    return path, 1, lambda: read_operator_matrix(path)


def errors_table(network, tmp_path):
    path = tmp_path / "errors.csv"
    rows = [[1, 1.0, 0.5, 0.4], [2, 2.0, 0.5, 0.3]]
    write_csv(path, ["step", "t", "upper_bound", "multilayer"], rows)
    return path, 3, lambda: replot_errors_csv(tmp_path / "errors.svg", path)


@pytest.mark.parametrize(
    "field, reason", [("abc", "non-numeric"), ("nan", "non-finite"), ("inf", "non-finite")]
)
@pytest.mark.parametrize("table", [states_table, matrix_dump, errors_table])
def test_bad_csv_number_names_its_line(inputs, table, field, reason):
    path, column, read = table(*inputs)
    rewrite_field(path, 3, column, field)
    with pytest.raises(ValidationError, match=re.escape(f"{path}:3: {reason} field")):
        read()


def test_infinite_time_names_its_line(inputs):
    network, tmp_path = inputs
    path = tmp_path / "states.csv"
    rewrite_field(path, 2, 1, "inf")
    with pytest.raises(ValidationError, match=re.escape(f"{path}:2: non-finite field")):
        read_states_csv(path, network)


def test_node_given_twice_names_its_line(inputs):
    network, tmp_path = inputs
    path = tmp_path / "states.csv"
    label = first_label(path)
    rewrite_field(path, 3, 0, label)
    message = f"{path}:3: node '{label}' is given twice at t=0.0"
    with pytest.raises(ValidationError, match=re.escape(message)):
        read_states_csv(path, network)


def test_blank_rows_are_skipped_and_counted(inputs):
    network, tmp_path = inputs
    path = tmp_path / "states.csv"
    expected = read_states_csv(path, network)
    lines = path.read_text().splitlines()
    path.write_text("\n\n".join(lines) + "\n")
    header, rows = read_csv(path, "state file")
    assert header == lines[0].split(",")
    assert [line for line, _ in rows][:2] == [3, 5]
    for got, want in zip(read_states_csv(path, network), expected, strict=True):
        assert got.timestamp == want.timestamp and np.array_equal(got.matrix, want.matrix)


def test_undecodable_csv_names_the_file(inputs):
    network, tmp_path = inputs
    path = tmp_path / "states.csv"
    path.write_bytes(b"node_id,t,x_1\n\xff\xfe,0,1\n")
    with pytest.raises(ValidationError, match=re.escape(f"state file {path} is not readable CSV")):
        read_states_csv(path, network)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_json_non_finite_literal_names_the_file(tmp_path, literal):
    path = tmp_path / "network.json"
    layer = '{"id": 1, "nodes": ["a", "b"], "adjacency": {"triplets": [[0, 1, %s]]}}' % literal
    path.write_text('{"layers": [%s]}' % layer)
    message = f"network file {path} is not valid JSON: {literal} is not a JSON number"
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_network(path)


@pytest.mark.parametrize(
    "line, column, text",
    [(2, 1, "inf"), (3, 2, "nan"), (3, 0, None)],
    ids=["inf_time", "nan_value", "node_twice"],
)
def test_cli_bad_state_file_exits_2_naming_its_line(inputs, capsys, line, column, text):
    _, tmp_path = inputs
    path = tmp_path / "states.csv"
    rewrite_field(path, line, column, text or first_label(path))
    status, err = predict(tmp_path, capsys)
    assert status == 2 and f"{path}:{line}:" in err


def test_cli_network_with_infinity_exits_2_naming_the_file(inputs, capsys):
    _, tmp_path = inputs
    path = tmp_path / "infinite.json"
    constants = '{"intra": {"1": Infinity}}'
    path.write_text('{"layers": [{"id": 1, "nodes": ["a"]}], "constants": %s}' % constants)
    status, err = predict(tmp_path, capsys, network=path.name)
    assert status == 2 and f"network file {path} is not valid JSON" in err


def test_cli_experiment_config_with_nan_exits_2_naming_the_file(tmp_path, capsys):
    # Read as a float, NaN would be a threshold the learner can never meet.
    config = tmp_path / "experiment.json"
    config.write_text('{"methods": ["multilayer"], "learn_threshold": NaN}')
    assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"config file {config} is not valid JSON" in capsys.readouterr().err
