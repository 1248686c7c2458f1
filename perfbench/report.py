#!/usr/bin/env python3
"""Run every workload untraced and traced, and print all metrics by name.

    python3 perfbench/report.py [--seed 0] [--seconds 25] [--workload NAME ...]

For each workload it prints the end-to-end metrics (median, quartiles and
sample count, with units), ``fail_rate``, the tracing overhead (traced
``run_s`` minus untraced ``run_s``) and the share of the traced pass time
spent in the main layers.  Each run is a separate ``run.py`` process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# Layer shares of the traced pass time; each is a sum of per-layer metrics.
# They overlap where one layer calls another (the fit calls exponentials).
SHARES = {
    "fit": ("calibration.fit.incl_s",),
    "learner": ("calibration.learn.incl_s",),
    "kalman": ("kalman.predict.self_s", "kalman.update.self_s"),
    "expm": ("diffusion.expm.self_s",),
    "spectral": ("spectral.spectrum.self_s", "spectral.estimate.self_s"),
    "predict": ("cli.predict.incl_s",),
    "ensemble": ("diffusion.simulate.self_s",),
    "json_load": ("network.load.self_s",),
}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{name} (trace {trace}) exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    summary = next(json.loads(line[len("summary "):]) for line in lines if line.startswith("summary "))
    summary["result"] = json.loads(lines[-1])
    return summary


def _stat_line(name: str, stat: dict, unit: str) -> str:
    return (
        f"  {name:<16} median {stat['median']:10.4f} {unit:<5} "
        f"q1 {stat['q1']:10.4f}  q3 {stat['q3']:10.4f}  n={stat['n']}"
    )


def report(name: str, seed: int, seconds: float, show_machine: bool) -> None:
    plain = run_workload(name, seed, seconds, 0)
    traced = run_workload(name, seed, seconds, 1)
    if show_machine:
        print(f"machine: {json.dumps(plain['machine'], sort_keys=True)}")
    print(f"{name}  (seed {seed}, correct={plain['result']['correct'] and traced['result']['correct']})")
    print(_stat_line("run_s", plain["run_s"], "s"))
    print(_stat_line("setup_s", plain["setup_s"], "s"))
    print(f"  {'peak_rss_mb':<16} {plain['peak_rss_mb']:10.1f} MB")
    print(f"  {'pred_error':<16} {plain['pred_error']!s:>10} ratio")
    print(f"  {'fail_rate':<16} {plain['fail_rate']:10.4g} ratio ({plain['failed']} of {plain['attempted']})")
    overhead = traced["run_s"]["median"] - plain["run_s"]["median"]
    print(
        f"  {'trace_overhead':<16} {overhead:10.4f} s     "
        f"(traced run_s {traced['run_s']['median']:.4f} s, {traced['fail_rate']:.4g} failed)"
    )
    layers = traced["layers"]
    base = traced["run_s"]["median"]
    shares = ", ".join(
        f"{label} {100 * sum(layers[m] for m in metrics) / base:.1f}%"
        for label, metrics in SHARES.items()
    )
    print(f"  layer shares of traced run_s: {shares}")
    counts = (
        "calibration.fit.sweeps",
        "calibration.fit.converged",
        "calibration.fit.objective_evals",
        "calibration.learn.updates",
        "calibration.learn.converged",
        "diffusion.expm.calls",
        "kalman.predict.calls",
        "diffusion.em_steps",
    )
    print("  counts: " + ", ".join(f"{m}={layers[m]:g}" for m in counts))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    for i, name in enumerate(args.workload or list(WORKLOADS)):
        report(name, args.seed, args.seconds, show_machine=i == 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
