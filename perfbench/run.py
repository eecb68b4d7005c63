"""Benchmark of the tagforge pipeline, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Set-up generates the workload's inputs from
the seed (repeatedly, timed; the median is ``setup_s``). The run then does
whole rounds of the workload until ``--seconds`` have passed (at least one),
checks every output, and prints a provenance line and, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced in-process replay with ``--trace 1``. See README.md.
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
import uuid
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Set-up runs at least this often and for at least this long; setup_s is the
# median. The demo's set-up takes about 0.05 s, where three runs alone
# spread by half.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 6.0
# A child process still running this long after its round began is killed
# and its operation fails. Set-up plus one round under this limit ends within
# 180 s; the traced run's two replays share one limit from the start.
ROUND_LIMIT_S = 160.0
SELF_SUM_TOLERANCE_PCT = 1.0
# One BLAS thread: with the default, build-vocab used more CPU than wall time
# and its wall time varied with what else ran on the machine.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _blas() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _import_seconds() -> float:
    """Median time to import tagforge.cli in a fresh interpreter."""
    probe = ("import time; t = time.perf_counter(); import tagforge.cli; "
             "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", probe], check=True,
                                  capture_output=True, text=True, timeout=60).stdout)
             for _ in range(3)]
    return statistics.median(times)


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        sizes=None, work_root: Path = WORK) -> tuple[dict, dict]:
    """Run one workload; returns (result, provenance)."""
    os.environ.update(BLAS_ENV)  # before numpy loads, here and in every child
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy

    import workloads

    started = perf_counter()
    nproc = len(os.sched_getaffinity(0))
    sizes = sizes or workloads.SIZES[workload_name]
    workload = workloads.WORKLOADS[workload_name](sizes, seed, parallelism=nproc)
    work = work_root / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        data = work / "data"
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            t0 = perf_counter()
            make_up = workload.setup(data)
            setup_times.append(perf_counter() - t0)
        workload.load_truth(data)

        if trace:
            result, stages = _traced(workload, data, work)
        else:
            result, stages = _untraced(workload, data, work, seconds, setup_times)
        provenance = {
            "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "nproc": nproc, "parallelism": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": _blas(),
            "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
            "inputs": make_up, "setup_runs_s": setup_times, "stages_s": stages,
            "elapsed_s": perf_counter() - started,
        }
        return result, provenance
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def _untraced(workload, data: Path, work: Path, seconds: float,
              setup_times: list[float]) -> tuple[dict, dict]:
    import resource

    import workloads

    tallies = []
    began = perf_counter()
    while not tallies or perf_counter() - began < seconds:
        tally = workloads.Tally()
        runner = workloads.Runner(work, perf_counter() + ROUND_LIMIT_S)
        workload.round(runner, data, work / f"round{len(tallies)}", tally)
        tallies.append(tally)
    latencies = [ms for t in tallies for ms in t.request_ms]
    items = workload.sizes.items
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(t.wall_s for t in tallies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
        "llm_calls_per_item": (statistics.median(t.llm_calls for t in tallies) / items,
                               "calls/item"),
        "llm_tokens_per_item": (statistics.median(t.llm_tokens for t in tallies) / items,
                                "tokens/item"),
        "request_ms_p95": (_quantile(latencies, 95), "ms"),
    }
    stages = dict(tallies[-1].stage_s, rounds=len(tallies), requests=len(latencies),
                  request_ms_p50=_quantile(latencies, 50),
                  request_ms_mean=statistics.fmean(latencies) if latencies else 0.0)
    return _result(tallies, metrics), stages


def _traced(workload, data: Path, work: Path) -> tuple[dict, dict]:
    import tracing
    import workloads

    import worker  # noqa: F401 - imported before either round so neither pays for it

    deadline = perf_counter() + ROUND_LIMIT_S
    plain = workloads.Tally()
    workload.round(workloads.Runner(work, deadline, in_process=True), data,
                   work / "untraced", plain)
    tracer = tracing.Tracer(trace_id=uuid.uuid4().hex)
    traced = workloads.Tally()
    with tracing.installed(tracer):
        run_dir = workload.round(workloads.Runner(work, deadline, in_process=True, tracer=tracer),
                                 data, work / "traced", traced)
    metrics = tracing.layer_metrics(tracer, run_dir / "vocab.checkpoint.json",
                                    traced.skip_stage_s, _import_seconds())
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    result = _result([plain, traced], metrics)
    error = metrics["trace.self_sum_error_pct"][0]
    if error > SELF_SUM_TOLERANCE_PCT:
        result["correct"] = False
        print(f"span self times miss a stage's wall time by {error:.3f}%", file=sys.stderr)
    stages = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
              **{f"traced.{k}": v for k, v in traced.stage_s.items()}}
    return result, stages


def _result(tallies: list, metrics: dict) -> dict:
    problems = [p for t in tallies for p in t.problems]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(t.attempted for t in tallies),
            "failed": sum(t.failed for t in tallies),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["demo-pipeline", "sports-assign", "sports-decode"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tagforge" / "cli.py").is_file():
        print(f"error: the tagforge sources are not at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    result, provenance = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
