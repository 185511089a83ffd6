"""End-to-end benchmark of the bdml command line.

Usage::

    python3 perfbench/run.py --workload readme_run --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --trace 1

Each pass is one fresh ``python -m bdml.cli ...`` process with
``PYTHONPATH=src`` and BLAS/OpenMP pinned to one thread, timed from spawn
to exit; its peak RSS comes from ``wait4``.  Passes repeat, closed loop
with one client, while the next one is expected to end within
``--seconds``.  Every pass's output is checked; a pass that exits
nonzero, raises or fails a check counts as failed.

``--trace 1`` alternates untraced passes with traced ones, which run the
same command under ``tracer.py`` and report per-layer metrics plus the
tracing overhead (traced minus untraced wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

PASS_TIMEOUT_S = 150.0
IMPORT_REPEATS = 11
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pass_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(cmd, env, cwd, stdout_path, stderr_path):
    """Run ``cmd`` to completion; return (exit code, wall s, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out, stderr=err)
        killer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def environment(env: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def import_seconds(env, work: Path) -> float:
    """Median wall time of a fresh interpreter running ``import bdml``."""
    cmd = [sys.executable, "-c", "import bdml"]
    times = []
    for attempt in range(IMPORT_REPEATS + 1):
        code, wall, _ = spawn(cmd, env, work, work / "import.out", work / "import.err")
        if code != 0:
            err = (work / "import.err").read_text(errors="replace")
            raise RuntimeError(f"import bdml failed:\n{err}")
        if attempt:  # the first import warms the bytecode cache
            times.append(wall)
    return statistics.median(times)


class Runner:
    """One workload at one seed: inputs, passes and their checks."""

    def __init__(self, workload: workloads.Workload, env: dict):
        self.workload = workload
        self.env = env
        self.passes = []
        self.digest = None

    def cli(self, argv) -> None:
        """Untimed set-up command; any failure aborts the run."""
        work = self.workload.work
        code, _, _ = spawn([sys.executable, "-m", "bdml.cli", *argv], self.env, work,
                           work / "setup.out", work / "setup.err")
        if code != 0:
            err = (work / "setup.err").read_text(errors="replace")
            raise RuntimeError(f"set-up command failed: {argv}\n{err}")

    def run_pass(self, traced: bool) -> dict:
        pass_id = len(self.passes)
        out = self.workload.work / f"pass{pass_id}"
        out.mkdir()
        argv = self.workload.argv(out)
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(out / "spans.json"),
                   str(pass_id), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "bdml.cli", *argv]
        code, wall, rss = spawn(cmd, self.env, out, out / "stdout.txt",
                                out / "stderr.txt")
        result = {"traced": traced, "wall_s": wall, "peak_rss_mb": rss, "code": code,
                  "out": out, "error": None}
        self.passes.append(result)
        return result

    def check_pass(self, result: dict) -> None:
        out = result["out"]
        try:
            if result["code"] != 0:
                err = (out / "stderr.txt").read_text(errors="replace").strip()
                raise workloads.CheckFailed(f"exit code {result['code']}: {err[-400:]}")
            stdout = (out / "stdout.txt").read_text(errors="replace")
            accuracy, digest = self.workload.check(out, stdout)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                raise workloads.CheckFailed("output differs from the first pass")
            result["accuracy"] = accuracy
        except (workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
            result["error"] = f"{type(exc).__name__}: {exc}"
        spans = out / "spans.json"
        if result["traced"] and spans.exists():
            with open(spans, encoding="utf-8") as fh:
                doc = json.load(fh)
            result["layers"] = tracer.layer_metrics(doc)
            result["absent"] = doc["absent"]

    def measure(self, seconds: float, trace: bool) -> None:
        """Run passes for about ``seconds``, then check every one of them."""
        started = time.perf_counter()
        while True:
            result = self.run_pass(traced=trace and len(self.passes) % 2 == 1)
            elapsed = time.perf_counter() - started
            if len(self.passes) < (2 if trace else 1):
                continue
            if elapsed + result["wall_s"] > seconds:
                break
        for result in self.passes:
            self.check_pass(result)
        try:
            self.workload.check_run()
        except workloads.CheckFailed as exc:
            for result in self.passes:
                result["error"] = result["error"] or f"CheckFailed: {exc}"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        setup_s = import_seconds(env, work)
        runner = Runner(workloads.WORKLOADS[name](seed, work), env)
        runner.workload.prepare(runner.cli)
        runner.measure(seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = runner.passes
    # Timings count every pass that ran to completion; a wrong output only
    # marks the run incorrect.
    done = [p for p in passes if not p["traced"] and p["code"] == 0]
    if not done:
        raise RuntimeError(f"{name}: no pass ran to completion: {passes[0]['error']}")
    checked = [p["accuracy"] for p in done if p["error"] is None]
    walls = [p["wall_s"] for p in done]
    report = {
        "workload": name,
        "seed": seed,
        "attempted": len(passes),
        "failed": sum(p["error"] is not None for p in passes),
        "errors": sorted({p["error"] for p in passes if p["error"]}),
        "passes": len(done),
        "walls": walls,
        "wall_s_quartiles": quartiles(walls),
        "end_to_end": {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in done), "MB"),
            "accuracy": (statistics.median(checked) if checked else 0.0, "ratio"),
        },
    }
    report["error_rate"] = report["failed"] / report["attempted"]
    if trace:
        traced = [p for p in passes if p["traced"] and "layers" in p]
        if not traced:
            raise RuntimeError(f"{name}: no traced pass wrote its spans")
        layers = {m: (statistics.median(p["layers"][m] for p in traced),
                      tracer.unit_of(m)) for m in tracer.LAYER_METRICS}
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        layers["trace.wall_s"] = (traced_wall, "s")
        layers["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s")
        report["per_layer"] = layers
        report["absent"] = sorted({a for p in traced for a in p["absent"]})
    return report


def print_report(report: dict) -> None:
    name = report["workload"]
    q1, q2, q3 = report["wall_s_quartiles"]
    print(f"{name}: seed {report['seed']}, {report['passes']} timed passes, "
          f"wall_s quartiles {q1:.4f} / {q2:.4f} / {q3:.4f} s, per pass "
          + " ".join(f"{w:.3f}" for w in report["walls"]))
    rows = dict(report["end_to_end"])
    rows["error_rate"] = (report["error_rate"], "ratio")
    rows.update(report.get("per_layer", {}))
    for metric, (value, unit) in rows.items():
        print(f"  {name:<11} {metric:<36} {value:>16.6g} {unit}")
    for err in report["errors"]:
        print(f"  {name:<11} FAILED {err}")
    if report.get("absent"):
        print(f"  {name:<11} absent layers: {', '.join(report['absent'])}")


def contract_line(report: dict, trace: bool) -> dict:
    metrics = report["per_layer"] if trace else report["end_to_end"]
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bdml" / "__init__.py").is_file():
        print(f"error: no bdml sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = pass_env()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        print("env " + json.dumps(environment(env), sort_keys=True))
        reports = [run_workload(n, args.seed, args.seconds, bool(args.trace), env)
                   for n in names]
    except Exception:
        traceback.print_exc()
        return 1
    for report in reports:
        print_report(report)
    lines = {r["workload"]: contract_line(r, bool(args.trace)) for r in reports}
    print(json.dumps(lines[args.workload] if args.workload != "all" else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
