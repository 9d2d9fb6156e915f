"""Tests of the benchmark itself, on the tiny ``smoke`` workload.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import iteration  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, check, draw_material  # noqa: E402

import viscodg.stepper  # noqa: E402
from viscodg import Scheme, benchmark_material  # noqa: E402
from viscodg.linalg import SolverError  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = WORKLOADS["smoke"]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_benchmark_workloads_exist():
    for workload in BENCHMARK["workloads"]:
        assert workload["name"] in WORKLOADS


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_prints_every_metric_with_its_unit(trace, section):
    proc = _bench("--workload", "smoke", "--seed", "1", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    notes = json.loads(lines[-2])
    assert notes["seed"] == 1 and notes["env"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.fixture(scope="module")
def traced():
    tracer = Tracer()
    result = iteration.run_iteration(SMOKE, 0, tracer)
    return tracer, result


def test_spans_nest(traced):
    tracer, _ = traced
    spans = tracer.spans
    assert [s.name for s in spans if s.parent < 0] == ["bench.iteration"]
    for span in spans:
        assert span.start <= span.end
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    parents = {(s.name, spans[s.parent].name) for s in spans if s.parent >= 0}
    assert ("stepper.step", "stepper.run") in parents
    assert ("linalg.solve", "stepper.step") in parents
    assert ("linalg.factor", "stepper.initialize") in parents
    assert ("manufactured.forcing", "assembly.load") in parents


def test_self_times_cover_traced_wall(traced):
    tracer, result = traced
    root = tracer.spans[0]
    own = tracer.self_times()
    assert min(own) >= 0.0
    assert sum(own) == pytest.approx(root.end - root.start, rel=1e-9)
    assert root.end - root.start == pytest.approx(result["wall_s"], rel=0.01)


def test_layer_counts_follow_the_workload(traced):
    _, result = traced
    layers = result["layers"]
    runs = len(SMOKE.runs)
    steps = sum(round(SMOKE.T / dt) for _, dt in SMOKE.runs)
    assert layers["linalg.factor_calls"] == 3 * runs
    assert layers["linalg.solve_calls"] == 2 * runs + steps
    assert layers["assembly.load_calls"] == 2 * runs + steps
    assert layers["manufactured.forcing_calls"] == 2 * (runs + steps)
    assert layers["stepper.step_calls"] == steps
    assert layers["assembly.elliptic_rhs_calls"] == runs
    assert layers["stepper.initialize_calls"] == runs
    assert layers["errors.norms_calls"] == runs
    assert 0.0 < layers["linalg.max_residual"] < 1e-8
    assert layers["linalg.lu_fill_max"] > layers["assembly.nnz_A"] / 2
    assert len(result["steps_ms"]) == steps - runs


def test_tracing_is_removed_afterwards(traced):
    assert viscodg.stepper.factor is viscodg.linalg.factor
    assert viscodg.stepper.step_velocity.__name__ == "step_velocity"


def test_solver_error_is_counted_not_raised(monkeypatch):
    real_run = iteration.run

    def velocity_fails(scheme, *args, **kwargs):
        if scheme is Scheme.VELOCITY:
            raise SolverError("forced failure")
        return real_run(scheme, *args, **kwargs)

    monkeypatch.setattr(iteration, "run", velocity_fails)
    result = iteration.run_iteration(SMOKE, 0)
    assert result["attempted"] == len(SMOKE.runs)
    assert result["failed"] == len(SMOKE.dts)
    assert all("forced failure" in f for f in result["failures"])


def test_check_flags_each_kind_of_miss():
    tconv = WORKLOADS["tconv-k2-n16"]
    good = {(s, dt): tuple(0.1 * c * (dt / 0.25) ** 2 for c in tconv.ceilings) for s, dt in tconv.runs}
    assert not any(check(tconv, good).values())

    high = dict(good)
    high["displacement", 0.25] = tuple(2 * c for c in tconv.ceilings)
    assert "above" in check(tconv, high)["displacement", 0.25][0]

    stalled = dict(good)
    stalled["velocity", 1 / 32] = good["velocity", 1 / 16]
    assert "rate" in check(tconv, stalled)["velocity", 1 / 32][0]

    steps = WORKLOADS["steps-k1-n32"]
    row = tuple(0.5 * c for c in steps.ceilings)
    apart = {("displacement", 1 / 1024): row, ("velocity", 1 / 1024): tuple(1.1 * v for v in row)}
    problems = check(steps, apart)
    assert all("forms differ" in msgs[0] for msgs in problems.values())

    nan = {("displacement", 1 / 1024): (float("nan"),) + row[1:]}
    assert check(steps, nan)["displacement", 1 / 1024]


def test_seed_draws_a_valid_material():
    assert iteration.material_for_seed(0) == benchmark_material()
    assert draw_material(7) == draw_material(7) != draw_material(8)
    for seed in range(1, 50):
        material = iteration.material_for_seed(seed)
        assert material.n_internal == 2
        assert all(abs(tau - 1.0) > 0.2 for tau in material.taus)


def test_tail_percentile_is_fixed_per_workload():
    few = [[float(10 * i + j) for j in range(10)] for i in range(run.MIN_ITERATIONS)]
    pct, value = run.tail(few)
    assert pct == pytest.approx(100 * 20 / 30)
    assert sum(s > value for it in few for s in it) == 10
    assert run.tail(few * 2) == (pct, value)

    many = [[float(1000 * i + j) for j in range(1000)] for i in range(run.MIN_ITERATIONS)]
    pct, value = run.tail(many)
    assert pct == run.TAIL_PERCENTILE
    assert sum(s > value for it in many for s in it) == 300
    with pytest.raises(run.BenchmarkError):
        run.tail([[1.0, 2.0, 3.0]] * run.MIN_ITERATIONS)


def test_exits_nonzero_without_the_solver():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _bench("--workload", "smoke", "--seed", "0", "--seconds", "0", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
