"""Every config and network-file table follows the reader's rules: an extra
key is rejected by name, a retired key loads unread, and null equals absent.
A setting has one key, its ``ExperimentConfig`` field's name, in every command."""

import copy
import dataclasses
import importlib.util
import json
import pathlib
import sys

import pytest

from supraflow import ExperimentConfig, cli, network, synthetic
from supraflow.errors import REQUIRED, ValidationError, _json_float, read_document

LAYER = {"kind": "agent", "n": 2}
SERIES = {"network": "n.json", "snapshots": "s.csv"}
COMMAND_MINIMA = {
    "generate": {"layers": [LAYER]},
    "build": {"network": "n.json"},
    "simulate": {"network": "n.json", "states": "s.csv", "horizon": 1.0},
    "predict": {"network": "n.json", "states": "s.csv", "delta_t": 1.0},
    "fit": SERIES,
    "learn": SERIES,
    "kalman": {**SERIES, "fraction": 0.5},
    "spectral": {"network": "n.json", "epsilons": [0.1]},
    "experiment": {},
}

#: README label -> (table, a document holding only the table's required keys).
TABLES = {
    **{f"`{name}`": (table, COMMAND_MINIMA[name]) for name, table in cli._CONFIGS.items()},
    "synthetic spec (`experiment`'s `synthetic`)": (synthetic._SPEC_FIELDS, {"layers": [LAYER]}),
    "synthetic layer (`layers` entry)": (synthetic._LAYER_FIELDS, LAYER),
    "network file": (network._NETWORK_FIELDS, {"layers": [{"id": 1, "nodes": ["a"]}]}),
    "network layer (`layers` entry)": (network._LAYER_FIELDS, {"id": 1, "nodes": ["a"]}),
    "network coupling (`couplings` entry)": (
        network._COUPLING_FIELDS,
        {"from": 1, "to": 2, "matrix": []},
    ),
    "network `constants`": (network._CONSTANTS_FIELDS, {}),
    "sparse matrix (`adjacency`, `matrix`)": (network._SPARSE_FIELDS, {"triplets": []}),
}


def test_every_command_with_a_config_file_has_a_table():
    commands = {name for name, _, _ in cli._COMMANDS}
    assert commands == set(cli._CONFIGS)


@pytest.mark.parametrize("label", list(TABLES))
def test_table_rules(label):
    table, minimal = TABLES[label]
    base = read_document(minimal, table, label)
    with pytest.raises(ValidationError, match="unknown field\\(s\\) 'not_a_key'"):
        read_document({**minimal, "not_a_key": 1}, table, label)
    for key, (cast, default) in table.items():
        if cast is None:
            assert key not in base
            assert read_document({**minimal, key: 1}, table, label) == base
        elif default is REQUIRED:
            assert key in minimal
            with pytest.raises(ValidationError, match=f"missing the required '{key}' field"):
                read_document({**minimal, key: None}, table, label)
        else:
            assert key not in minimal and base[key] is default
            assert read_document({**minimal, key: None}, table, label) == base


def test_a_document_must_be_an_object():
    with pytest.raises(ValidationError, match="synthetic layer must be a JSON object"):
        synthetic.synthetic_spec_from_dict({"layers": [["agent", 2]]})


def test_retired_keys_are_the_documented_ones():
    retired = {
        label: sorted(key for key, (cast, _) in table.items() if cast is None)
        for label, (table, _) in TABLES.items()
    }
    assert {label: keys for label, keys in retired.items() if keys} == {
        "`experiment`": ["fit_max_sweeps"],
        "synthetic spec (`experiment`'s `synthetic`)": ["seed"],
    }


def test_a_key_has_one_cast_in_every_command():
    casts = {}
    for command, table in cli._CONFIGS.items():
        for key, (cast, _) in table.items():
            casts.setdefault(key, {})[command] = cast
    for key, by_command in casts.items():
        assert len(set(by_command.values())) == 1, (key, by_command)


def test_learner_and_filter_settings_are_one_entry_named_as_the_experiment_field():
    defaults = {field.name: field.default for field in dataclasses.fields(ExperimentConfig)}
    shared = {
        "gain": ("learn", "kalman", "experiment"),
        "learn_threshold": ("learn", "kalman", "experiment"),
        "max_iters": ("learn", "kalman", "experiment"),
        "kalman_r": ("kalman", "experiment"),
    }
    for key, commands in shared.items():
        entries = [cli._CONFIGS[command][key] for command in commands]
        assert all(entry is entries[0] for entry in entries), key
        assert entries[0][1] == defaults[key], key
        assert {c for c, table in cli._CONFIGS.items() if key in table} == set(commands), key


def test_experiment_keys_are_the_experiment_config_fields():
    table = cli._CONFIGS["experiment"]
    read = [key for key, (cast, _) in table.items() if cast is not None]
    assert read == [field.name for field in dataclasses.fields(ExperimentConfig)]


@pytest.mark.parametrize(
    "command, key",
    [
        ("learn", "eta"),
        ("kalman", "eta"),
        ("kalman", "r"),
        ("fit", "max_sweeps"),
        ("learn", "fit_max_sweeps"),
        ("kalman", "fit_max_sweeps"),
    ],
)
def test_an_old_key_name_fails_before_any_file_is_read(
    tmp_path, capsys, monkeypatch, command, key
):
    def refuse(path):
        raise AssertionError("read the network before the config was checked")

    monkeypatch.setattr(cli, "load_network", refuse)
    config = tmp_path / "old.json"
    config.write_text(json.dumps({**COMMAND_MINIMA[command], key: 1}))
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"unknown field(s) '{key}'" in capsys.readouterr().err


def test_every_benchmark_config_loads(tmp_path, monkeypatch):
    # The benchmark's workloads write their configs without running them; a
    # key they send that a table no longer lists would fail every benchmark run.
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        data, out = tmp_path / name / "data", tmp_path / name / "pass"
        workload.make_setup(0, str(data))
        workload.make_pass(workload, 0, str(data), str(out))
        configs = sorted([*data.glob("*.json"), *out.glob("*.json")])
        assert [p.stem for p in configs if p.parent == data] == ["generate"], name
        assert any(p.parent == out for p in configs), name
        for config in configs:
            document = json.loads(config.read_text())
            read_document(document, cli._CONFIGS[config.stem], f"{name} {config.stem} config")


@pytest.mark.parametrize("label", list(TABLES))
def test_float_keys_take_only_json_numbers(label):
    table, minimal = TABLES[label]
    for key, (cast, _) in table.items():
        if cast is not _json_float:
            continue
        assert read_document({**minimal, key: 2}, table, label)[key] == 2.0
        # 1e400 and -1e400 are JSON numbers that overflow a double to +-inf.
        for value in (True, "0.5", "nan", 1e400, -1e400):
            with pytest.raises(ValidationError, match=f"field '{key}' is malformed"):
                read_document({**minimal, key: value}, table, label)


@pytest.mark.parametrize(
    "table, document, key",
    [
        (cli._CONFIGS["predict"], {**COMMAND_MINIMA["predict"], "delta_t": True}, "delta_t"),
        (cli._CONFIGS["spectral"], {"network": "n.json", "epsilons": ["0.5"]}, "epsilons"),
        (cli._CONFIGS["spectral"], {"network": "n.json", "epsilons": [0.5, False]}, "epsilons"),
        (cli._CONFIGS["simulate"], {**COMMAND_MINIMA["simulate"], "horizon": "nan"}, "horizon"),
        (cli._CONFIGS["spectral"], {"network": "n.json", "epsilons": [0.5, 1e400]}, "epsilons"),
        (
            synthetic._SPEC_FIELDS,
            {"layers": [LAYER], "intra_constants": {"1": 1e400}},
            "intra_constants",
        ),
        (
            synthetic._SPEC_FIELDS,
            {"layers": [LAYER], "inter_constants": {"1,2": -1e400}},
            "inter_constants",
        ),
        (synthetic._SPEC_FIELDS, {"layers": [{**LAYER, "weight": 1e400}]}, "layers"),
        (
            synthetic._SPEC_FIELDS,
            {"layers": [LAYER], "intra_constants": {"1": "1"}},
            "intra_constants",
        ),
        (
            synthetic._SPEC_FIELDS,
            {"layers": [LAYER], "inter_constants": {"1,2": True}},
            "inter_constants",
        ),
        (synthetic._SPEC_FIELDS, {"layers": [{**LAYER, "p": "0.5"}]}, "layers"),
    ],
)
def test_float_items_take_only_json_numbers(table, document, key):
    with pytest.raises(ValidationError, match=f"field '{key}' is malformed"):
        read_document(document, table, "document")


NETWORK = {
    "layers": [
        {"id": 1, "nodes": ["a", "b"], "adjacency": {"triplets": [[0, 1, 1.0], [1, 0, 1.0]]}},
        {"id": 2, "nodes": ["c"], "adjacency": [[0.0]]},
    ],
    "couplings": [{"from": 1, "to": 2, "matrix": {"triplets": [[0, 0, 1.0]]}}],
    "constants": {"intra": {"1": 1.0, "2": 1.0}, "inter": {"1,2": 0.5}},
}


@pytest.mark.parametrize(
    "place, value, reason",
    [
        (("constants", "intra", "1"), "0.5", "field 'intra' is malformed"),
        (("constants", "intra", "1"), True, "field 'intra' is malformed"),
        (("constants", "inter", "1,2"), "0.5", "field 'inter' is malformed"),
        (("constants", "inter", "1,2"), True, "field 'inter' is malformed"),
        (("constants", "intra", "2"), 1e400, "field 'intra' is malformed"),
        (("layers", 0, "adjacency", "triplets", 0, 2), True, "layer 1: every triplet"),
        (("layers", 0, "adjacency", "triplets", 0, 2), "0.5", "layer 1: every triplet"),
        (("couplings", 0, "matrix", "triplets", 0, 0), False, "coupling (1,2): every triplet"),
        (("layers", 1, "adjacency", 0, 0), "0", "layer 2: every dense matrix row"),
        (("layers", 1, "adjacency", 0, 0), True, "layer 2: every dense matrix row"),
        (("layers", 0, "nodes"), [7, True], "field 'nodes' is malformed"),
    ],
)
def test_network_numbers_and_node_ids_take_only_their_json_types(
    tmp_path, capsys, place, value, reason
):
    def build(document) -> int:
        path = tmp_path / "network.json"
        # A number that overflows a double is written as 1e400, which json
        # reads as inf, not as the Infinity literal that json.dumps writes.
        path.write_text(json.dumps(document).replace("Infinity", "1e400"))
        config = tmp_path / "build.json"
        config.write_text(json.dumps({"network": str(path)}))
        return cli.main(["build", "--config", str(config), "--out", str(tmp_path / "out")])

    assert build(NETWORK) == 0
    document = copy.deepcopy(NETWORK)
    parent = document
    for key in place[:-1]:
        parent = parent[key]
    parent[place[-1]] = value
    capsys.readouterr()
    assert build(document) == 2
    assert reason in capsys.readouterr().err
