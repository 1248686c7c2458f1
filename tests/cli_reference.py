"""Write the committed CLI reference outputs.

Runs ``generate``, ``build``, ``fit``, ``spectral`` and ``experiment`` on a
small seeded dataset, in this one process with one BLAS thread, and writes
each command's outputs under ``<out>/<command>/`` with the machine signature
in ``<out>/signature.json``.  ``tests/test_reference.py`` reruns it and
compares the outputs with the committed ones.  Regenerate the reference with

    python tests/cli_reference.py

which replaces ``tests/data/cli_reference/``.
"""

import os

# Before numpy is imported: OpenBLAS reads its thread count once, at load.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import ctypes
import glob
import json
import pathlib
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "data" / "cli_reference"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from supraflow.cli import main  # noqa: E402

#: The CLI tests' tiny dataset, 13 nodes in two layers and 8 snapshots, with
#: noise: on noiseless snapshots the fit is exact, so its objective and the
#: multilayer methods' errors would be rounding noise that no relative
#: tolerance can compare across machines.
SPEC = {
    "layers": [
        {"kind": "agent", "n": 5, "model": "erdos_renyi", "p": 0.6},
        {"kind": "information", "n": 8, "model": "knn", "k": 2},
    ],
    "n_topics": 2,
    "intra_constants": {"1": 0.05, "2": 0.01},
    "inter_constants": {"1,2": 0.05},
    "n_snapshots": 8,
    "train_count": 4,
    "sigma_ratio": 0.05,
    "seed": 7,
}


def _openblas_core(package, pattern: str, suffix: str) -> str:
    """The CPU core that the OpenBLAS copy bundled with ``package`` runs, or
    ``"unknown"`` where the package bundles none, as in conda or distro builds."""
    libs = pathlib.Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    paths = glob.glob(str(libs / pattern))
    if len(paths) != 1:
        return "unknown"
    corename = getattr(ctypes.CDLL(paths[0]), f"scipy_openblas_get_corename{suffix}", None)
    if corename is None:
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def signature() -> dict:
    """What decides the outputs' last bits besides the code."""
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas_core": _openblas_core(np, "libscipy_openblas64_*.so", "64_"),
        "scipy_openblas_core": _openblas_core(scipy, "libscipy_openblas-*.so", ""),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run(out: pathlib.Path, work: pathlib.Path) -> None:
    """Run the commands with their configs in ``work`` and outputs in ``out``."""
    data = out / "generate"
    configs = {
        "generate": SPEC,
        "build": {"network": str(data / "network.json")},
        "fit": {
            "network": str(data / "network.json"),
            "snapshots": str(data / "snapshots.csv"),
            "train_count": 4,
        },
        "spectral": {"network": str(data / "network.json"), "epsilons": [0.0, 0.001, 0.01]},
        "experiment": {
            "network": str(data / "network.json"),
            "snapshots": str(data / "snapshots.csv"),
            "train_count": 4,
            "methods": ["single_layer", "multilayer", "learned_operator", "kalman:0.25"],
        },
    }
    for command, config in configs.items():
        path = work / f"{command}.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path), "--out", str(out / command)]
        if main(argv) != 0:
            raise SystemExit(f"supraflow {command} failed")
    (out / "signature.json").write_text(json.dumps(signature(), indent=2) + "\n")


def write_reference(out: pathlib.Path) -> None:
    """Replace ``out`` with a fresh run's outputs."""
    with tempfile.TemporaryDirectory() as scratch:
        fresh = pathlib.Path(scratch) / "out"
        work = pathlib.Path(scratch) / "configs"
        work.mkdir()
        run(fresh, work)
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(fresh, out)


if __name__ == "__main__":
    write_reference(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else REFERENCE)
