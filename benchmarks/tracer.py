"""In-process traced passes over a workload's CLI stages.

Started by run.py as `python3 benchmarks/tracer.py SPEC OUT`, with the
BLAS thread variables set and PYTHONPATH pointing at the checkout's src/.
SPEC is a JSON file naming the config, the seed, the stages and one fresh
output directory per pass.  Every stage runs through
`latticegap.cli.main([...])` in this process.  The first pass runs
untraced; before the second pass starts, the layers' public functions are
wrapped where the pipeline looks them up, and every later pass is traced.
In a traced pass each stage is a root span "cli.stage", whose self time is
the CLI's own work: config parsing, artifact reads and writes.

A wrapped call records a span [name, start, end, parent, warm] and a call
count.  Spans stay in memory until the pass ends; a layer's self time is its
spans' durations minus the time their child spans cover.  Every "<layer>_s"
metric is a summed self time, except continuation.cold_solve_s and
continuation.warm_solve_median_s, which are whole solve_ground_state calls
made by the sweep.  OUT receives, per
pass, the stage exit codes and wall times and the per-layer metrics, plus
the spans of the first traced pass.  Nothing under src/ is changed.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from latticegap import cli, continuation, solver
from latticegap.nonlinearity import PowerNonlinearity

# (owner, attribute, span name).  Each attribute is replaced where the
# pipeline looks it up: cli and continuation import their callees by name,
# and solver calls its own module globals.
WRAPS = (
    (cli, "bloch_band_edges", "spectral.bloch"),
    (cli, "assemble_operator", "spectral.assemble"),
    (cli, "spectral_split", "spectral.split"),
    (cli, "best_hardy_constant", "hardy.kappa"),
    (cli, "rho_plus", "hardy.rho_plus"),
    (cli, "solve_ground_state", "solver.solve_ground_state"),
    (continuation, "solve_ground_state", "solver.solve_ground_state"),
    (cli, "sweep_rho", "continuation.sweep_rho"),
    (solver, "outer_minimize", "solver.outer_minimize"),
    (solver, "polish_newton", "solver.polish_newton"),
    (solver, "maximality_certificate", "solver.maximality_certificate"),
    (solver, "validate_hypotheses", "nonlinearity.validate"),
    (solver, "evaluate_energy", "energy.evaluate_energy"),
    (solver, "nehari_residual", "energy.nehari_residual"),
    (PowerNonlinearity, "f", "nonlinearity.f"),
    (PowerNonlinearity, "F", "nonlinearity.F"),
    (PowerNonlinearity, "df", "nonlinearity.df"),
)
NONLINEARITY = ("nonlinearity.f", "nonlinearity.F", "nonlinearity.df")
# layers reported as summed self time "<name>_s"
TIMED = ("spectral.bloch", "spectral.assemble", "spectral.split",
         "hardy.kappa", "hardy.rho_plus", "solver.solve_ground_state",
         "solver.outer_minimize", "solver.polish_newton",
         "solver.maximality_certificate", "nonlinearity.validate",
         "energy.evaluate_energy", "energy.nehari_residual",
         "continuation.sweep_rho")
# layers reported as call count "<name>_calls"
COUNTED = ("spectral.split", "solver.polish_newton") + NONLINEARITY


class Tracer:
    """Spans and counts of the wrapped calls made during one pass."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.solves: list[dict] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, warm=None):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, warm]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def install(self):
        for owner, attr, name in WRAPS:
            setattr(owner, attr, self._wrapper(getattr(owner, attr), name))

    def _wrapper(self, original, name):
        if name in NONLINEARITY:
            def traced(model, u, *args, **kwargs):
                self.counts[name] += 1
                self.counts["nonlinearity.site_evals"] += int(np.size(u))
                return self.call(name, original, (model, u) + args, kwargs)
        elif name == "solver.solve_ground_state":
            def traced(*args, **kwargs):
                self.counts[name] += 1
                warm = kwargs.get("warm_start") is not None
                result = self.call(name, original, args, kwargs, warm)
                statuses = result.diagnostics.get("start_statuses", [])
                self.solves.append({
                    "outer": result.outer_iterations,
                    "inner": result.inner_iterations,
                    "polish": result.polish_iterations,
                    "starts": len(statuses),
                    "converged": statuses.count("converged")})
                return result
        else:
            def traced(*args, **kwargs):
                self.counts[name] += 1
                return self.call(name, original, args, kwargs)
        traced.__wrapped__ = original
        return traced

    def metrics(self) -> dict:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[i]
        sweeps = {i for i, s in enumerate(self.spans)
                  if s[0] == "continuation.sweep_rho"}
        cold, warm = [], []
        for name, start, end, parent, is_warm in self.spans:
            if name == "solver.solve_ground_state" and parent in sweeps:
                (warm if is_warm else cold).append(end - start)
        out = {f"{name}_s": self_time[name] for name in TIMED}
        out.update({f"{name}_calls": self.counts[name] for name in COUNTED})
        out["cli.self_s"] = self_time["cli.stage"]
        out["nonlinearity.eval_s"] = sum(self_time[n] for n in NONLINEARITY)
        out["nonlinearity.site_evals"] = self.counts["nonlinearity.site_evals"]
        for key in ("outer", "inner", "polish"):
            out[f"solver.{key}_iterations"] = sum(s[key] for s in self.solves)
        starts = sum(s["starts"] for s in self.solves)
        converged = sum(s["converged"] for s in self.solves)
        out["solver.starts_total"] = starts
        out["solver.starts_converged"] = converged
        out["solver.starts_converged_ratio"] = converged / starts if starts else 0.0
        out["continuation.cold_solve_s"] = sum(cold)
        out["continuation.warm_solve_median_s"] = (
            statistics.median(warm) if warm else 0.0)
        return out


def run_stage(argv) -> tuple[int, str | None]:
    try:
        return cli.main(argv), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), "SystemExit"
    except Exception:  # a crashing stage is reported, the other passes still run
        return -1, traceback.format_exc()


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = Tracer()
    passes, spans = [], None
    for index, out_dir in enumerate(spec["passes"]):
        traced = index > 0
        if index == 1:
            tracer.install()
        tracer.reset()
        stages = []
        for stage in spec["stages"]:
            argv = [stage, "--config", spec["config"], "--out", out_dir,
                    "--seed", str(spec["seed"]), "--threads", "1"]
            start = time.perf_counter()
            if traced:
                rc, error = tracer.call("cli.stage", run_stage, (argv,), {})
            else:
                rc, error = run_stage(argv)
            stages.append({"stage": stage, "rc": rc, "error": error,
                           "seconds": time.perf_counter() - start})
        record = {"traced": traced, "dir": out_dir, "stages": stages}
        if traced:
            record["metrics"] = tracer.metrics()
            if spans is None:
                spans = tracer.spans
        passes.append(record)
    Path(out_path).write_text(json.dumps({"passes": passes, "spans": spans}),
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
