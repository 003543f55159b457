"""Benchmark of the latticegap CLI pipeline: time to a certified ground state.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --smoke

Every workload uses N = 3, the checkerboard potential of amplitude 1, the
power nonlinearity with p = 4, solver.multistart = 5 and
solver.max_boundary_mass = 0.25.  The benchmark seed is the solver seed and
reaches every stage as --seed.  Stages run one after another with
OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1 and --threads 1, which leaves the
second core of a two-core machine idle.

  solve-r6  certify-gap -> constants -> solve, R = 6 (2,197 sites),
            rho = 0.4 rho_max from a cold multistart.  Dense matvecs in the
            solver dominate.
  sweep-r5  certify-gap -> constants -> sweep, R = 5 (1,331 sites), six
            couplings from 0.4 rho_max down to 0; only the first solve starts
            cold.  Fixed per-solve cost and continuation weigh more here.
  setup-r7  certify-gap -> constants, R = 7 (3,375 sites).  Dense eigh
            dominates and the solver does no work, so solver changes should
            leave it unchanged.

--trace 0 runs every stage as its own `python -m latticegap` process and
reports the end-to-end metrics.  Set-up (certify-gap + constants, each pass
in a fresh output directory) repeats until the set-up passes have taken
--seconds, and setup_s is their median; the last stage runs once, after the
first set-up pass.  With the 15 s of BENCHMARK.json that is about four
set-up passes on sweep-r5, two on solve-r6 and one on setup-r7, whose
set-up alone takes longer; more would not fit the time the whole series of
runs is allowed.  last_stage_s is the wall time of the solve or sweep stage
(on setup-r7, of the constants stage), pipeline_s is setup_s plus that
solve or sweep, and peak_rss_mb is the largest max RSS of any stage process.

--trace 1 starts tracer.py, which runs the same stages in one process
through latticegap.cli.main: one untraced pass, then two traced passes, and
reports the per-layer metrics (times averaged over the traced passes).
--seconds does not apply to it.

Checks, each counted in `attempted` and, when it fails, in `failed`: every
stage exits 0; kappa, rho_max and c_rho match reference.json at 1e-8
relative; the sweep's level_ordering_ok and final_gap_ok flags hold; the
artifacts of passes with the same seed are byte-identical; the traced
passes repeat their counts exactly.  CLI artifacts go to fresh directories
under .bench_out/; results, wall times and the environment go only to
.bench_out/results/.  The last stdout line is the JSON result.

--smoke runs every workload both ways on an R = 3 box and checks that each
metric in BENCHMARK.json is printed with its unit and that every check
passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_out"
DEADLINE_S = 170.0
SETUP_STAGES = ("certify-gap", "constants")
TRACED_PASSES = 2
REL_TOL = 1e-8
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    radius: int
    rho_values: tuple[float, ...]
    last: str | None  # stage after set-up, if any

    def stages(self) -> tuple[str, ...]:
        return SETUP_STAGES + ((self.last,) if self.last else ())

    def config(self, radius: int) -> str:
        rhos = ", ".join(repr(r) for r in self.rho_values)
        return "\n".join([
            "dimension = 3", f"box.radius = {radius}",
            "potential.kind = checkerboard", "potential.amplitude = 1.0",
            "nonlinearity.kind = power", "nonlinearity.p = 4.0",
            "rho.mode = fraction", f"rho.values = {rhos}",
            "solver.multistart = 5", "solver.max_boundary_mass = 0.25", ""])


WORKLOADS = {
    "solve-r6": Workload(6, (0.4,), "solve"),
    "sweep-r5": Workload(5, (0.4, 0.2, 0.1, 0.05, 0.025, 0.0), "sweep"),
    "setup-r7": Workload(7, (0.4,), None),
}
SMOKE_RADIUS = 3


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"),
                         ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


class Checks:
    """Stage runs and output checks; each is one attempt."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append({"check": name, "ok": bool(ok), "detail": detail})

    @property
    def failed(self) -> int:
        return sum(not item["ok"] for item in self.items)


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_process(argv, log_path: Path, timeout: float):
    """Run argv to completion; returns (exit code, wall seconds, rusage).

    The child is killed when it outlives `timeout`.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage


def stage_argv(stage: str, cfg: Path, out: Path, seed: int) -> list[str]:
    return [sys.executable, "-m", "latticegap", stage, "--config", str(cfg),
            "--out", str(out), "--seed", str(seed), "--threads", "1"]


def check_outputs(checks: Checks, out: Path, stages, reference: dict,
                  label: str) -> None:
    """Compare one pass's artifacts with the reference values."""
    def compare(name, value, ref):
        if ref is None:
            checks.add(f"{label}:{name}", False, "no reference value")
            return
        err = abs(value - ref) / abs(ref)
        checks.add(f"{label}:{name}", err <= REL_TOL,
                   f"{value!r} vs {ref!r} (rel {err:.2e})")

    try:
        if "constants" in stages:
            data = json.loads((out / "constants.json").read_text(encoding="utf-8"))
            for key in ("kappa", "rho_max"):
                compare(key, data[key], reference.get(key))
        if "solve" in stages:
            data = json.loads((out / "solve_summary.json").read_text(encoding="utf-8"))
            compare("c_rho", data["c_rho"], reference.get("c_rho"))
        if "sweep" in stages:
            data = json.loads((out / "report.json").read_text(encoding="utf-8"))
            levels = [r["c_rho"] for r in data["records"]]
            refs = reference.get("sweep_c_rho") or []
            if len(levels) != len(refs):
                checks.add(f"{label}:sweep_c_rho", False,
                           f"{len(levels)} levels, {len(refs)} reference values")
            for i, (value, ref) in enumerate(zip(levels, refs)):
                compare(f"sweep_c_rho[{i}]", value, ref)
            for flag in ("level_ordering_ok", "final_gap_ok"):
                checks.add(f"{label}:{flag}", data["flags"][flag] is True)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        checks.add(f"{label}:artifacts", False, f"{type(exc).__name__}: {exc}")


def check_identical(checks: Checks, first: Path, other: Path, label: str) -> None:
    """Every artifact in `other` must exist in `first` with the same bytes."""
    names = sorted(p.name for p in other.iterdir() if p.is_file())
    differ = [n for n in names
              if not (first / n).is_file()
              or (first / n).read_bytes() != (other / n).read_bytes()]
    checks.add(label, bool(names) and not differ,
               f"{len(names)} files compared, differing: {differ}")


def run_untraced(wl: Workload, cfg: Path, seed: int, seconds: float,
                 work: Path, reference: dict, checks: Checks, started: float):
    stage_log, setups, constants_times, rss = [], [], [], []
    last_time = None
    index = 0
    while True:
        out = work / f"pass{index}"
        out.mkdir()
        stages = SETUP_STAGES + ((wl.last,) if index == 0 and wl.last else ())
        times = {}
        for stage in stages:
            remaining = DEADLINE_S - (time.perf_counter() - started)
            rc, wall, usage = run_process(stage_argv(stage, cfg, out, seed),
                                          work / "stages.log", remaining)
            checks.add(f"pass{index}:{stage} exit", rc == 0, f"exit code {rc}")
            stage_log.append({"pass": index, "stage": stage, "rc": rc,
                              "seconds": wall,
                              "cpu_s": usage.ru_utime + usage.ru_stime,
                              "max_rss_kb": usage.ru_maxrss})
            times[stage] = wall
            rss.append(usage.ru_maxrss)
        setups.append(sum(times[s] for s in SETUP_STAGES))
        constants_times.append(times["constants"])
        if index == 0 and wl.last:
            last_time = times[wl.last]
        check_outputs(checks, out, stages, reference, f"pass{index}")
        if index > 0:
            check_identical(checks, work / "pass0", out,
                            f"pass{index}: set-up artifacts identical to pass0")
        index += 1
        elapsed = time.perf_counter() - started
        if sum(setups) >= seconds or elapsed + setups[-1] > 0.8 * DEADLINE_S:
            break
    setup_s = statistics.median(setups)
    last_stage_s = last_time if wl.last else statistics.median(constants_times)
    metrics = {
        "setup_s": setup_s,
        "last_stage_s": last_stage_s,
        "pipeline_s": setup_s + (last_time if wl.last else 0.0),
        "peak_rss_mb": max(rss) * 1024 / 1e6,
    }
    return metrics, {"setup_passes": len(setups), "stages": stage_log}


def run_traced(wl: Workload, cfg: Path, seed: int, work: Path,
               reference: dict, checks: Checks, started: float):
    dirs = [work / f"pass{i}" for i in range(1 + TRACED_PASSES)]
    for d in dirs:
        d.mkdir()
    spec = {"config": str(cfg), "seed": seed, "stages": list(wl.stages()),
            "passes": [str(d) for d in dirs]}
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    out_json = work / "trace.json"
    remaining = DEADLINE_S - 10.0 - (time.perf_counter() - started)
    rc, _, _ = run_process([sys.executable, str(BENCH / "tracer.py"),
                            str(work / "spec.json"), str(out_json)],
                           work / "tracer.log", remaining)
    checks.add("tracer exit", rc == 0, f"exit code {rc}")
    if rc != 0 or not out_json.is_file():
        return None, {}
    data = json.loads(out_json.read_text(encoding="utf-8"))
    passes = data["passes"]
    for i, p in enumerate(passes):
        for st in p["stages"]:
            checks.add(f"pass{i}:{st['stage']} exit", st["rc"] == 0,
                       st["error"] or f"exit code {st['rc']}")
        check_outputs(checks, dirs[i], wl.stages(), reference, f"pass{i}")
        if i > 0:
            check_identical(checks, dirs[0], dirs[i],
                            f"pass{i}: artifacts identical to pass0")

    traced = [p["metrics"] for p in passes if p["traced"]]
    counts = [k for k in traced[0] if unit_of(k) == "count"]
    for i, other in enumerate(traced[1:], start=2):
        differ = [k for k in counts if other[k] != traced[0][k]]
        checks.add(f"pass{i}: counts repeat pass1", not differ,
                   f"{len(counts)} counts compared, differing: {differ}")
    metrics = {k: (traced[0][k] if k in counts
                   else statistics.fmean(m[k] for m in traced))
               for k in traced[0]}

    def stage_total(p):
        return sum(st["seconds"] for st in p["stages"])

    metrics["trace.overhead_s"] = (
        statistics.fmean(stage_total(p) for p in passes if p["traced"])
        - stage_total(passes[0]))
    metrics["io.artifact_bytes"] = sum(
        f.stat().st_size for f in dirs[1].iterdir() if f.is_file())
    startups = []
    for _ in range(3):
        rc, wall, _ = run_process([sys.executable, "-m", "latticegap", "--help"],
                                  work / "startup.log", 30.0)
        checks.add("cli --help exit", rc == 0, f"exit code {rc}")
        startups.append(wall)
    metrics["cli.startup_s"] = statistics.median(startups)
    detail = {"stages": [p["stages"] for p in passes], "spans": data["spans"]}
    return metrics, detail


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "blas_env": dict(BLAS_ENV), "cli_threads": 1,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 radius: int | None = None) -> tuple[dict, dict]:
    started = time.perf_counter()
    wl = WORKLOADS[name]
    radius = wl.radius if radius is None else radius
    references = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    reference = references["radius"].get(str(radius), {})
    tag = f"{name}-R{radius}-seed{seed}-trace{int(trace)}"
    work = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = work / "run.cfg"
    cfg.write_text(wl.config(radius), encoding="utf-8")
    checks = Checks()
    if trace:
        metrics, detail = run_traced(wl, cfg, seed, work, reference, checks,
                                     started)
        if metrics is None:
            names = [m["name"] for m in benchmark_spec()["per_layer"]]
            metrics = {n: 0.0 for n in names}
    else:
        metrics, detail = run_untraced(wl, cfg, seed, seconds, work,
                                       reference, checks, started)
    attempted, failed = len(checks.items), checks.failed
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in sorted(metrics.items())}}
    record = {"workload": name, "radius": radius, "seed": seed,
              "trace": int(trace), "seconds": seconds,
              "wall_s": time.perf_counter() - started,
              "environment": environment(seed),
              "failed_fraction": failed / attempted,
              "checks": checks.items, "result": result, "detail": detail}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    if failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    return result, record


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def print_report(record: dict) -> None:
    print(f"# {record['workload']} R={record['radius']} seed={record['seed']} "
          f"trace={record['trace']} wall={record['wall_s']:.1f}s")
    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    for item in record["checks"]:
        if not item["ok"]:
            print(f"# FAILED {item['check']}: {item['detail']}")
    print(f"# failed_fraction {record['failed_fraction']:.6g} "
          f"({record['result']['failed']} of {record['result']['attempted']})")
    for key, metric in record["result"]["metrics"].items():
        print(f"{key} {metric['value']!r} {metric['unit']}")


def smoke() -> int:
    spec = benchmark_spec()
    problems = []
    for name in WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result, record = run_workload(name, 0, 3.0, trace, SMOKE_RADIUS)
            print_report(record)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if want != got:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(got)} "
                                f"differ from BENCHMARK.json {sorted(want)}")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: "
                                f"{result['failed']} failed checks")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check every metric on an R = 3 box")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "latticegap" / "cli.py").is_file():
        print(f"error: no latticegap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result, record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print_report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
