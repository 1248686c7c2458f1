"""Every config and network-file table follows the reader's rules: an extra
key is rejected by name, a retired key loads unread, and null equals absent."""

import pytest

from supraflow import cli, harness, network, synthetic
from supraflow.errors import REQUIRED, ValidationError, read_document

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
}

#: README label -> (table, a document holding only the table's required keys).
TABLES = {
    **{f"`{name}`": (table, COMMAND_MINIMA[name]) for name, table in cli._CONFIGS.items()},
    "`experiment`": (harness._EXPERIMENT_FIELDS, {}),
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
    assert commands == set(cli._CONFIGS) | {"experiment"}


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
        "`fit`": ["max_sweeps"],
        "`learn`": ["fit_max_sweeps"],
        "`kalman`": ["fit_max_sweeps"],
        "`experiment`": ["fit_max_sweeps"],
        "synthetic spec (`experiment`'s `synthetic`)": ["seed"],
    }
