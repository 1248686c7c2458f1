#!/usr/bin/env python3
"""supraflow benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fit_p160 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout that holds ``src/supraflow``.  The run sets up
its inputs at least three times, then repeats the workload's pass until
``--seconds`` have gone by and at least two passes are done.  Each set-up and
each pass runs in a fresh child process, as a user running the CLI would.
The run checks every output and prints human-readable lines, then as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
from a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_out")

# BLAS threads, fixed for every process of a run: one thread gave steadier
# times than two on a 2-vCPU machine.
BLAS_THREADS = 1
_BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Set-ups repeat until at least SETUP_MIN are done and SETUP_SECONDS have gone
# by: a short set-up is mostly imports, whose time varies from process to
# process, so its median needs more samples.
SETUP_MIN = 3
SETUP_SECONDS = 4.0
SETUP_MAX = 15
MIN_PASSES = 2
# Start no further pass once a run is this old, and stop any child at the
# run's time limit, so that one run ends within 180 s.
PASS_DEADLINE_S = 110.0
RUN_LIMIT_S = 170.0


def _fix_blas_threads() -> int:
    threads = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in _BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def _has_package() -> bool:
    return os.path.isfile(os.path.join(SRC, "supraflow", "__init__.py"))


def _import_supraflow() -> None:
    """Import the package from the checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import supraflow
    import supraflow.cli  # noqa: F401  (not imported by the package itself)

    if os.path.dirname(os.path.dirname(os.path.abspath(supraflow.__file__))) != SRC:
        raise SystemExit(f"benchmark: supraflow imported from {supraflow.__file__}, not {SRC}")


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


# --- Child: one set-up or one pass -------------------------------------------------


def child(kind: str, workload_name: str, seed: int, data: str, out: str, trace: bool) -> int:
    """Run one set-up or one pass in this process and print a JSON report.

    Each operation's outputs are hashed, so the parent can check that repeats
    of one seed reproduce them byte for byte.
    """
    start = time.perf_counter()
    _import_supraflow()
    import_s = time.perf_counter() - start
    import numpy
    import scipy

    from workloads import WORKLOADS

    tracer = None
    if trace:
        from tracing import Tracer

        # Before the pass is built: its library steps bind functions by name.
        tracer = Tracer(run_id=f"{workload_name}-seed{seed}-{os.path.basename(out)}")
        tracer.instrument()
    workload = WORKLOADS[workload_name]
    program_seed = workload.program_seed(seed)
    if kind == "setup":
        current = workload.make_setup(program_seed, out)
    else:
        current = workload.make_pass(workload, program_seed, data, out)
    step_s: dict[str, float] = {}
    digests: dict[str, str] = {}
    failures: list[str] = []
    for step in current.steps:
        try:
            begin = time.perf_counter()
            if tracer is not None:
                with tracer.span(step.name):
                    step.run()
            else:
                step.run()
            step_s[step.name] = time.perf_counter() - begin
            missing = [o for o in step.outputs if not os.path.isfile(os.path.join(out, o))]
            if missing:
                raise RuntimeError(f"missing outputs {missing}")
            if step.check is not None:
                step.check()
            parts = [_sha256(os.path.join(out, o)) for o in step.outputs]
            parts.append(current.digests.get(step.name, ""))
            digests[step.name] = hashlib.sha256("".join(parts).encode()).hexdigest()
        except Exception:  # every failed operation is counted, and the pass goes on
            failures.append(f"{step.name}: {traceback.format_exc(limit=3)}")
    report = {
        "import_s": import_s,
        "step_s": step_s,
        "attempted": len(current.steps),
        "failures": failures,
        "digests": digests,
        "pred_error": current.pred_error if math.isfinite(current.pred_error) else None,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        from tracing import layer_metrics

        report["layers"] = layer_metrics(tracer.spans)
        tracer.dump(os.path.join(WORK_ROOT, f"spans-{tracer.run_id}.jsonl"))
    print(json.dumps(report))
    return 0


# --- Parent: the measured run ------------------------------------------------------


class Run:
    """Starts the children; counts operations and failures; keeps their reports."""

    def __init__(self, args, work: str, started: float):
        self.args = args
        self.work = work
        self.deadline = started + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.reports: dict[str, list[dict]] = {"setup": [], "pass": []}
        self.reference: dict[str, dict[str, str]] = {}

    def _fail(self, what: str, detail: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {detail}", file=sys.stderr)

    def spawn(self, kind: str, index: int, data: str) -> str:
        """Run one child; returns its output directory."""
        out = os.path.join(self.work, f"{kind}_{index}")
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--child", kind,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--trace", str(self.args.trace),
            "--data", data,
            "--out", out,
        ]
        what = f"{kind} {index}"
        timeout = max(1.0, self.deadline - time.perf_counter())
        try:
            done = subprocess.run(command, capture_output=True, text=True, timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            self.attempted += 1
            self._fail(what, f"stopped at the run's {RUN_LIMIT_S} s limit")
            return out
        if done.returncode != 0:
            self.attempted += 1
            self._fail(what, f"exit {done.returncode}: {done.stderr.strip()[-600:]}")
            return out
        report = json.loads(done.stdout.strip().splitlines()[-1])
        self.attempted += report["attempted"]
        for failure in report["failures"]:
            self._fail(what, failure)
        reference = self.reference.setdefault(kind, dict(report["digests"]))
        for step, digest in report["digests"].items():
            if reference.setdefault(step, digest) != digest:
                self._fail(what, f"{step} outputs differ from the first {kind} of this seed")
        self.reports[kind].append(report)
        return out


def machine_info(threads: int, versions: dict) -> dict:
    return {
        "machine": platform.machine(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        **versions,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value if value is not None and math.isfinite(value) else None, "unit": unit}


def run(args) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not _has_package():
        print(f"benchmark: no supraflow package under {SRC}", file=sys.stderr)
        return 2
    threads = _fix_blas_threads()
    started = time.perf_counter()
    work = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(work)
    state = Run(args, work, started)
    try:
        data = state.spawn("setup", 0, "")
        k = 1
        while k < SETUP_MAX and (k < SETUP_MIN or time.perf_counter() - started < SETUP_SECONDS):
            shutil.rmtree(state.spawn("setup", k, ""), ignore_errors=True)
            k += 1
        measure_start = time.perf_counter()
        index = 0
        while True:
            shutil.rmtree(state.spawn("pass", index, data), ignore_errors=True)
            index += 1
            now = time.perf_counter()
            if index >= MIN_PASSES and now - measure_start >= args.seconds:
                break
            if now - started > PASS_DEADLINE_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes, setups = state.reports["pass"], state.reports["setup"]
    # Passes and set-ups with failures still count here; ``correct`` flags them.
    run_s = [sum(r["step_s"].values()) for r in passes]
    setup_s = [r["import_s"] + sum(r["step_s"].values()) for r in setups]
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    pred_error = passes[0]["pred_error"] if passes else None
    fail_rate = state.failed / max(state.attempted, 1)
    info = machine_info(threads, next((r["versions"] for r in passes + setups), {}))
    print(f"machine: {json.dumps(info, sort_keys=True)}")
    print(
        f"workload {args.workload}: seed {args.seed} "
        f"(program seed {WORKLOADS[args.workload].program_seed(args.seed)}), "
        f"{len(passes)} passes, {len(setups)} set-ups, trace {args.trace}"
    )
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": info}
    for name, values in (("run_s", run_s), ("setup_s", setup_s)):
        if values:
            q1, median, q3 = _quartiles(values)
            print(f"  {name:<12} median {median:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
            summary[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}
    print(f"  {'peak_rss_mb':<12} {peak:.1f} MB")
    print(f"  {'pred_error':<12} {pred_error} (deterministic for a seed)")
    print(f"  {'fail_rate':<12} {fail_rate:.4g} ({state.failed} of {state.attempted} operations)")
    summary.update(
        peak_rss_mb=peak,
        pass_rss_mb=[r["rss_mb"] for r in passes],
        setup_rss_mb=[r["rss_mb"] for r in setups],
        step_s=[r["step_s"] for r in passes],
        pred_error=pred_error,
        fail_rate=fail_rate,
        attempted=state.attempted,
        failed=state.failed,
    )
    if args.trace:
        from tracing import PER_LAYER, median_metrics

        layers = median_metrics([r["layers"] for r in passes]) if passes else {}
        setup_layers = median_metrics([r["layers"] for r in setups]) if setups else {}
        for name in ("synthetic.generate.incl_s", "cli.generate.incl_s"):
            layers[name] = setup_layers.get(name)
        summary["layers"] = layers
        metrics = {name: _metric(layers.get(name), unit) for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "run_s": _metric(statistics.median(run_s) if run_s else None, "s"),
            "setup_s": _metric(statistics.median(setup_s) if setup_s else None, "s"),
            "peak_rss_mb": _metric(peak, "MB"),
            "pred_error": _metric(pred_error, "ratio"),
        }
    correct = state.failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(f"summary {json.dumps(summary, sort_keys=True)}")
    result = {"correct": correct, "attempted": state.attempted, "failed": state.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    parser.add_argument("--data", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args.child, args.workload, args.seed, args.data, args.out, bool(args.trace))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
