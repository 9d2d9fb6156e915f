"""viscodg benchmark: time to a verified solution of the manufactured case.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs iterations of one workload (see ``workloads.py``) until S seconds have
passed, at least MIN_ITERATIONS of them.  Each iteration runs in a fresh
process with the BLAS thread pools pinned to one thread.  With ``--trace 0``
it reports the end-to-end metrics of untraced iterations.  With ``--trace 1``
it alternates untraced and traced iterations and reports the per-layer
metrics: spans of the traced ones, step times of the untraced ones, and the
tracing overhead.

Every metric is printed as ``name value unit``, followed by the run's
environment, and then, as the last line, one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``attempted`` and ``failed`` count solver runs, one per (scheme, dt) and
iteration; a run fails if it raises ``SolverError`` or misses a check.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# untraced iterations per run, at least; with --trace 1 each is paired with
# a traced one
MIN_ITERATIONS = 3
TAIL_PERCENTILE = 90.0
# a run must end within 180 s; an iteration still running after this is killed
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "verified_frac": "frac",
}

PER_LAYER = {
    "mesh.build_s": "s",
    "mesh.n_edges": "count",
    "space.build_s": "s",
    "space.ndofs": "count",
    "assembly.system_s": "s",
    "assembly.nnz_A": "count",
    "assembly.load_calls": "count",
    "assembly.load_self_s": "s",
    "assembly.elliptic_rhs_calls": "count",
    "assembly.elliptic_rhs_s": "s",
    "manufactured.forcing_calls": "count",
    "manufactured.forcing_s": "s",
    "linalg.factor_calls": "count",
    "linalg.factor_s": "s",
    "linalg.lu_fill_max": "count",
    "linalg.solve_calls": "count",
    "linalg.solve_s": "s",
    "linalg.max_residual": "1",
    "stepper.initialize_calls": "count",
    "stepper.initialize_s": "s",
    "stepper.step_calls": "count",
    "stepper.step_self_s": "s",
    "stepper.step_ms_p50": "ms",
    "stepper.step_ms_tail": "ms",
    "errors.norms_calls": "count",
    "errors.norms_s": "s",
    "trace.overhead_frac": "frac",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def single_threaded_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, spans: Path | None, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "iteration.py"), "--workload", workload, "--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("no time left for another iteration")
    try:
        proc = subprocess.run(
            cmd, env=single_threaded_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"iteration did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"iteration exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(steps_ms: list[list[float]]) -> tuple[float, float]:
    """Step time at the workload's tail percentile, and that percentile.

    ``steps_ms`` holds one list of step samples per iteration; every
    iteration of a workload takes the same steps.  The percentile is p90, or
    lower where MIN_ITERATIONS iterations would leave fewer than ten samples
    beyond p90, so it is fixed per workload and more iterations only add
    samples.  Higher percentiles spread too much run to run on a shared
    2-core machine.
    """
    per_min = MIN_ITERATIONS * len(steps_ms[0])
    if per_min < 11:
        raise BenchmarkError(f"{per_min} step samples are too few for a tail")
    q = min(TAIL_PERCENTILE / 100.0, (per_min - 10) / per_min)
    pooled = sorted(s for samples in steps_ms for s in samples)
    rank = max(1, math.ceil(q * len(pooled) - 1e-9))  # nearest rank, 1-based
    return 100.0 * q, pooled[rank - 1]


def step_times(untraced: list[dict]) -> dict:
    """Median and tail step time of the untraced iterations, with the counts."""
    samples = [r["steps_ms"] for r in untraced]
    pct, tail_ms = tail(samples)
    pooled = [s for it in samples for s in it]
    return {
        "step_ms_p50": statistics.median(pooled),
        "step_ms_tail": tail_ms,
        "step_ms_tail_percentile": round(pct, 3),
        "step_samples": len(pooled),
    }


def end_to_end(untraced: list[dict]) -> dict:
    metrics = {
        name: statistics.median(r[name] for r in untraced)
        for name in ("setup_s", "solve_s", "wall_s", "peak_rss_mb")
    }
    attempted, failed = run_counts(untraced)
    metrics["verified_frac"] = (attempted - failed) / attempted
    return metrics


def per_layer(untraced: list[dict], traced: list[dict], steps: dict) -> dict:
    layers = [r["layers"] for r in traced]
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    for name in ("linalg.max_residual", "linalg.lu_fill_max"):
        metrics[name] = max(m[name] for m in layers)
    metrics["stepper.step_ms_p50"] = steps["step_ms_p50"]
    metrics["stepper.step_ms_tail"] = steps["step_ms_tail"]
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced)
        - 1.0
    )
    return metrics


def run_counts(results: list[dict]) -> tuple[int, int]:
    """Solver runs attempted and failed."""
    return sum(r["attempted"] for r in results), sum(r["failed"] for r in results)


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list]:
    """Run iterations for ``seconds``; returns (metrics, notes, all results)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    spans = HERE / "out" / f"{workload}-seed{seed}.spans.json" if trace else None
    untraced, traced = [], []
    while len(untraced) < MIN_ITERATIONS or time.monotonic() - start < seconds:
        untraced.append(run_child(workload, seed, None, deadline))
        if trace:
            traced.append(run_child(workload, seed, spans, deadline))
    notes = step_times(untraced)
    if trace:
        metrics = per_layer(untraced, traced, notes)
        notes["spans"] = str(spans.relative_to(ROOT))
        notes["factorizations"] = traced[-1]["factorizations"]
    else:
        metrics = end_to_end(untraced)
    notes["iterations"] = len(untraced) + len(traced)
    return metrics, notes, untraced + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "viscodg").is_dir():
        print(f"perfbench: no solver sources at {ROOT / 'src' / 'viscodg'}", file=sys.stderr)
        return 2
    try:
        metrics, notes, results = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.10g} {unit}")
    attempted, failed = run_counts(results)
    for failure in sorted({f for r in results for f in r["failures"]}):
        print(f"failed: {failure}")
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "failed_frac": failed / attempted,
                **notes,
                "norms": results[0]["norms"],
                "env": results[0]["env"],
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
