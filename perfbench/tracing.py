"""In-memory span tracing of supraflow's public functions, and the per-layer
metrics derived from the spans.

``Tracer.instrument`` replaces every public function of every ``supraflow``
module in place, in each namespace that holds it (callers import functions by
name), with a wrapper that records one span per call: name, start, end,
parent and run id.  Nothing in the package itself changes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict


def _fit_attrs(fit):
    return {"sweeps": fit.sweeps, "converged": bool(fit.converged)}


def _learn_attrs(op):
    return {"updates": op.iterations, "converged": bool(op.converged)}


def _expm_attrs(result):
    return {"n": int(result.shape[0])}


def _ensemble_attrs(paths):
    return {"em_steps": sum(len(p.times) - 1 for p in paths)}


# Counts taken from the objects these functions return.
_RESULT_ATTRS = {
    "calibration.fit_diffusion_constants": _fit_attrs,
    "calibration.learn_supra_operator": _learn_attrs,
    "diffusion.matrix_exponential": _expm_attrs,
    "diffusion.simulate_ensemble": _ensemble_attrs,
}


class Tracer:
    """Collects spans as ``[name, start, end, parent, run_id, attrs]`` lists."""

    def __init__(self, run_id: str):
        self.spans: list[list] = []
        self.run_id = run_id
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        attrs_of = _RESULT_ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if attrs_of is not None:
                self.spans[index][5] = attrs_of(result)
            return result

        return traced

    def instrument(self) -> None:
        """Wrap every public supraflow function in every supraflow namespace."""
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "supraflow" or name.startswith("supraflow.")
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("supraflow") or id(obj) in wrappers:
                    continue
                short = obj.__module__.rsplit(".", 1)[-1]
                wrappers[id(obj)] = (obj, self.wrap(f"{short}.{obj.__name__}", obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj and not attr.startswith("_"):
                    setattr(module, attr, entry[1])

    def dump(self, path: str) -> None:
        """Write every span, one JSON object a line."""
        with open(path, "w") as handle:
            for index, (name, start, end, parent, run_id, attrs) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "run": run_id,
                }
                if attrs:
                    record["attrs"] = attrs
                handle.write(json.dumps(record) + "\n")


class _Totals:
    """Per-name call counts, inclusive and self time of finished spans."""

    def __init__(self, spans: list[list]):
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.attrs: dict[str, list[dict]] = defaultdict(list)
        self.under: dict[tuple[str, str], int] = defaultdict(int)
        child_time: dict[int, float] = defaultdict(float)
        selected = [i for i, s in enumerate(spans) if s[2] is not None]
        for i in selected:
            name, start, end, parent, _, _ = spans[i]
            if parent is not None:
                child_time[parent] += end - start
        for i in selected:
            name, start, end, parent, _, attrs = spans[i]
            self.calls[name] += 1
            self.incl[name] += end - start
            self.self_s[name] += (end - start) - child_time[i]
            if attrs:
                self.attrs[name].append(attrs)
            ancestor = parent
            seen = set()
            while ancestor is not None:
                outer = spans[ancestor][0]
                if outer not in seen:
                    self.under[(outer, name)] += 1
                    seen.add(outer)
                ancestor = spans[ancestor][3]

    def attr_sum(self, name: str, key: str) -> float:
        return float(sum(a[key] for a in self.attrs[name]))

    def attr_share(self, name: str, key: str) -> float:
        values = [bool(a[key]) for a in self.attrs[name]]
        return sum(values) / len(values) if values else 0.0


FIT = "calibration.fit_diffusion_constants"
LEARN = "calibration.learn_supra_operator"
EXPM = "diffusion.matrix_exponential"
ASSEMBLE = "network.assemble_supra_laplacian"
SIMULATE = "diffusion.simulate_ensemble"
CLI_COMMANDS = ("generate", "experiment", "spectral", "predict")

# Name, unit and direction of every per-layer metric, in report order.
PER_LAYER = [
    ("calibration.fit.incl_s", "s", "lower"),
    ("calibration.fit.objective_evals", "count", "lower"),
    ("calibration.fit.sweeps", "count", "lower"),
    ("calibration.fit.converged", "share", "higher"),
    ("network.assemble.calls", "count", "lower"),
    ("network.assemble.self_s", "s", "lower"),
    ("diffusion.expm.calls", "count", "lower"),
    ("diffusion.expm.self_s", "s", "lower"),
    ("diffusion.expm.work_n3", "n3", "lower"),
    ("calibration.learn.incl_s", "s", "lower"),
    ("calibration.learn.updates", "count", "lower"),
    ("calibration.learn.expm_per_update", "count", "lower"),
    ("calibration.learn.converged", "share", "higher"),
    ("calibration.predict_learned.self_s", "s", "lower"),
    ("kalman.predict.calls", "count", "lower"),
    ("kalman.predict.self_s", "s", "lower"),
    ("kalman.update.calls", "count", "lower"),
    ("kalman.update.self_s", "s", "lower"),
    ("spectral.spectrum.calls", "count", "lower"),
    ("spectral.spectrum.self_s", "s", "lower"),
    ("spectral.estimate.self_s", "s", "lower"),
    ("diffusion.propagate.self_s", "s", "lower"),
    ("diffusion.simulate.self_s", "s", "lower"),
    ("diffusion.em_steps", "count", "lower"),
    ("diffusion.em_step_us", "us", "lower"),
    ("network.load.self_s", "s", "lower"),
    ("states.read.self_s", "s", "lower"),
    ("states.write.self_s", "s", "lower"),
    ("svgplot.chart.self_s", "s", "lower"),
    ("harness.experiment.self_s", "s", "lower"),
    *[(f"cli.{command}.incl_s", "s", "lower") for command in CLI_COMMANDS],
    ("synthetic.generate.incl_s", "s", "lower"),
]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one process's spans: one pass or one set-up."""
    t = _Totals(spans)
    updates = t.attr_sum(LEARN, "updates")
    em_steps = t.attr_sum(SIMULATE, "em_steps")
    metrics = {
        "calibration.fit.incl_s": t.incl[FIT],
        "calibration.fit.objective_evals": t.under[(FIT, ASSEMBLE)],
        "calibration.fit.sweeps": t.attr_sum(FIT, "sweeps"),
        "calibration.fit.converged": t.attr_share(FIT, "converged"),
        "network.assemble.calls": t.calls[ASSEMBLE],
        "network.assemble.self_s": t.self_s[ASSEMBLE],
        "diffusion.expm.calls": t.calls[EXPM],
        "diffusion.expm.self_s": t.self_s[EXPM],
        "diffusion.expm.work_n3": sum(float(a["n"]) ** 3 for a in t.attrs[EXPM]),
        "calibration.learn.incl_s": t.incl[LEARN],
        "calibration.learn.updates": updates,
        # With no update, the count of exponentials the learner took at all.
        "calibration.learn.expm_per_update": t.under[(LEARN, EXPM)] / max(updates, 1.0),
        "calibration.learn.converged": t.attr_share(LEARN, "converged"),
        "calibration.predict_learned.self_s": t.self_s["calibration.one_step_predict_learned"],
        "kalman.predict.calls": t.calls["kalman.kalman_predict"],
        "kalman.predict.self_s": t.self_s["kalman.kalman_predict"],
        "kalman.update.calls": t.calls["kalman.kalman_update"],
        "kalman.update.self_s": t.self_s["kalman.kalman_update"],
        "spectral.spectrum.calls": t.calls["spectral.spectrum"],
        "spectral.spectrum.self_s": t.self_s["spectral.spectrum"],
        "spectral.estimate.self_s": t.self_s["spectral.lambda2_perturbation_estimate"],
        "diffusion.propagate.self_s": t.self_s["diffusion.propagate_closed"],
        "diffusion.simulate.self_s": t.self_s[SIMULATE],
        "diffusion.em_steps": em_steps,
        "diffusion.em_step_us": 1e6 * t.self_s[SIMULATE] / em_steps if em_steps else 0.0,
        "network.load.self_s": t.self_s["network.load_network"],
        "states.read.self_s": t.self_s["states.read_states_csv"],
        "states.write.self_s": t.self_s["states.write_states_csv"],
        "svgplot.chart.self_s": t.self_s["svgplot.line_chart"],
        "harness.experiment.self_s": t.self_s["harness.run_experiment"],
        "synthetic.generate.incl_s": t.incl["synthetic.generate_synthetic"],
    }
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}.incl_s"] = t.incl[f"cli.{command}"]
    return {name: float(metrics[name]) for name, _, _ in PER_LAYER}


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
