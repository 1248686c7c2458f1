"""The benchmark's workloads: seeded inputs, command sequences and output checks.

Each workload is a closed loop with one client: its set-up writes
``network.json`` and ``snapshots.csv`` with ``supraflow generate``, then one
pass runs a fixed sequence of operations (CLI commands run through
``supraflow.cli.main``, or library calls) one after another.  An operation
fails on an exception, a nonzero exit code or a failed output check.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

# The README's three-layer shape: two replica agent layers and one document layer.
_CONSTANTS = {
    "intra_constants": {"1": 0.05, "2": 0.05, "3": 0.02},
    "inter_constants": {"1,2": 0.05, "1,3": 0.08, "2,3": 0.06},
}


def _spec(agents, p, docs, k, n_snapshots, train_count, sigma_ratio) -> dict:
    return {
        "layers": [
            {"kind": "agent", "n": agents, "model": "erdos_renyi", "p": p},
            {"kind": "agent", "n": agents, "model": "erdos_renyi", "p": p},
            {"kind": "information", "n": docs, "model": "knn", "k": k},
        ],
        "n_topics": 2,
        **_CONSTANTS,
        "sigma_ratio": sigma_ratio,
        "n_snapshots": n_snapshots,
        "spacing": 1.0,
        "train_count": train_count,
    }


GENERATED = ("network.json", "snapshots.csv", "truth.json")
# The large workload's Euler-Maruyama ensemble: paths, steps per path, noise scale.
EM_PATHS = 12
EM_STEPS = 100
SIGMA = 0.01


class CheckFailed(Exception):
    """An operation ran but its outputs are wrong."""


@dataclass
class Step:
    """One operation of a pass: a CLI command or a library call."""

    name: str
    run: Callable[[], object]
    outputs: tuple[str, ...] = ()
    check: Callable[[], None] | None = None


@dataclass
class Pass:
    """The operations of one pass, and what they leave to compare.

    ``digests`` holds, by step name, hashes of results a step keeps in memory
    instead of writing them to a file.
    """

    steps: list[Step]
    digests: dict[str, str] = field(default_factory=dict)
    pred_error: float = math.nan


def _cli(args: list[str]) -> Callable[[], int]:
    def run() -> int:
        from supraflow.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            code = main(args)
        if code != 0:
            raise CheckFailed(f"supraflow {args[0]} exited with code {code}")
        return code

    return run


def _write_config(path: str, cfg: dict) -> str:
    with open(path, "w") as handle:
        json.dump(cfg, handle, indent=2, sort_keys=True)
    return path


def _summary_errors(path: str) -> dict[str, float]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return {row[0]: float(row[1]) for row in rows[1:] if row}


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise CheckFailed(f"{what} is not finite: {value}")
    return value


@dataclass(frozen=True)
class Workload:
    name: str
    base_seed: int
    spec: dict
    make_pass: Callable[["Workload", int, str, str], Pass]

    def program_seed(self, seed: int) -> int:
        """Seed the program sees: the workload's base seed plus the benchmark seed."""
        return self.base_seed + int(seed)

    def make_setup(self, seed: int, out: str) -> Pass:
        """Set-up as a pass of one operation: ``supraflow generate``."""
        os.makedirs(out, exist_ok=True)
        cfg_path = _write_config(os.path.join(out, "generate.json"), {**self.spec, "seed": seed})
        return Pass(
            steps=[
                Step(
                    "cli.generate",
                    _cli(["generate", "--config", cfg_path, "--out", out]),
                    outputs=GENERATED,
                )
            ]
        )


def _experiment_pass(methods, extra, pred_method, check_ordering):
    def make(workload: Workload, seed: int, data: str, out: str) -> Pass:
        os.makedirs(out, exist_ok=True)
        cfg = {
            "methods": list(methods),
            "network": os.path.join(data, "network.json"),
            "snapshots": os.path.join(data, "snapshots.csv"),
            "train_count": workload.spec["train_count"],
            "seed": seed,
            **extra,
        }
        cfg_path = _write_config(os.path.join(out, "experiment.json"), cfg)
        result = Pass(steps=[])

        def check():
            errors = _summary_errors(os.path.join(out, "summary.csv"))
            for name, value in errors.items():
                _finite(value, f"mean error of {name}")
            result.pred_error = errors[pred_method]
            if check_ordering and not (
                errors["multilayer"] < errors["single_layer"] < errors["upper_bound"]
            ):
                raise CheckFailed(f"summary.csv breaks multilayer < single_layer < upper_bound: {errors}")

        result.steps.append(
            Step(
                "cli.experiment",
                _cli(["experiment", "--config", cfg_path, "--out", out]),
                outputs=("errors.csv", "summary.csv", "errors.svg"),
                check=check,
            )
        )
        return result

    return make


def _large_pass(workload: Workload, seed: int, data: str, out: str) -> Pass:
    """Spectral sweep and closed prediction through the CLI, then the library
    calls ``supraflow simulate`` makes, without its per-step CSV dump.

    The ensemble runs a fixed number of steps at the step ``supraflow
    simulate`` uses when its config gives none, ``default_step``: a fixed dt
    would leave the explicit scheme's stability region on some seeds, whose
    knn layer holds near-duplicate documents joined by very large weights.
    """
    import numpy as np

    from supraflow import (
        NoiseModel,
        SimulationConfig,
        assemble_supra_laplacian,
        ensemble_statistics,
        load_network,
        read_states_csv,
        simulate_ensemble,
    )
    from supraflow.diffusion import default_step

    os.makedirs(out, exist_ok=True)
    network_path = os.path.join(data, "network.json")
    states_path = os.path.join(data, "snapshots.csv")
    spectral_out = os.path.join(out, "spectral")
    predict_out = os.path.join(out, "predict")
    spectral_cfg = _write_config(
        os.path.join(out, "spectral.json"), {"network": network_path, "epsilons": [0.01, 0.1]}
    )
    predict_cfg = _write_config(
        os.path.join(out, "predict.json"),
        {"network": network_path, "states": states_path, "delta_t": 1.0},
    )
    result = Pass(steps=[])
    held: dict[str, object] = {}

    def check_sweep():
        with open(os.path.join(spectral_out, "lambda2_sweep.csv"), newline="") as handle:
            rows = list(csv.DictReader(handle))
        by_eps = {float(r["epsilon"]): float(r["rel_error"]) for r in rows}
        result.pred_error = _finite(by_eps[0.01], "lambda2 rel_error at epsilon 0.01")

    def load():
        held["network"], held["constants"] = load_network(network_path)

    def assemble():
        held["supra"] = assemble_supra_laplacian(held["network"], held["constants"])

    def read_states():
        held["x0"] = read_states_csv(states_path, held["network"])[0]

    def simulate():
        x0 = held["x0"]
        noise = NoiseModel(sigma=SIGMA * np.ones(x0.matrix.shape), seed=seed)
        dt = default_step(held["supra"])
        config = SimulationConfig(dt=dt, horizon=EM_STEPS * dt, ensemble_size=EM_PATHS)
        held["horizon"] = config.horizon
        held["paths"] = simulate_ensemble(x0, held["supra"], noise, config)

    def statistics():
        mean, var = ensemble_statistics(held.pop("paths"))
        if not (np.isfinite(mean).all() and np.isfinite(var).all()):
            raise CheckFailed("ensemble statistics are not finite")
        # Within the stability region the diffusion keeps every state within
        # the initial state's range, up to the accumulated noise.
        x0 = held["x0"].matrix
        slack = 6 * SIGMA * math.sqrt(held["horizon"])
        if mean.min() < x0.min() - slack or mean.max() > x0.max() + slack:
            raise CheckFailed(
                f"ensemble mean [{mean.min():.3g}, {mean.max():.3g}] leaves the initial "
                f"range [{x0.min():.3g}, {x0.max():.3g}]"
            )
        result.digests["lib.ensemble_statistics"] = hashlib.sha256(
            mean.tobytes() + var.tobytes()
        ).hexdigest()

    result.steps += [
        Step(
            "cli.spectral",
            _cli(["spectral", "--config", spectral_cfg, "--out", spectral_out]),
            outputs=("spectral/lambda2_sweep.csv", "spectral/lambda2_sweep.svg"),
            check=check_sweep,
        ),
        Step(
            "cli.predict",
            _cli(["predict", "--config", predict_cfg, "--out", predict_out]),
            outputs=("predict/prediction.csv",),
        ),
        Step("lib.load_network", load),
        Step("lib.assemble_supra_laplacian", assemble),
        Step("lib.read_states_csv", read_states),
        Step("lib.simulate_ensemble", simulate),
        Step("lib.ensemble_statistics", statistics),
    ]
    return result


# Why each workload was chosen, with its measured layer shares, is recorded in
# BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit_p160",
            base_seed=5,
            spec=_spec(40, 0.15, 80, 3, 14, 6, 0.02),
            make_pass=_experiment_pass(
                ("single_layer", "multilayer", "learned_operator", "kalman:0.25"),
                {"fit_max_sweeps": 12},
                pred_method="multilayer",
                check_ordering=True,
            ),
        ),
        Workload(
            name="learn_filter_p200",
            base_seed=7,
            spec=_spec(50, 0.12, 100, 3, 40, 10, 0.05),
            make_pass=_experiment_pass(
                (
                    "multilayer",
                    "learned_operator",
                    "kalman:0.1",
                    "kalman:0.25",
                    "kalman:0.5",
                    "kalman:1.0",
                ),
                {"fit_max_sweeps": 1, "learn_threshold": 1e-9, "max_iters": 60},
                pred_method="kalman:0.25",
                check_ordering=False,
            ),
        ),
        Workload(
            name="large_p2000",
            base_seed=11,
            spec=_spec(500, 0.028, 1000, 6, 2, 2, 0.0),
            make_pass=_large_pass,
        ),
    )
}
