"""One benchmark iteration: set up, run every (scheme, dt), check, report.

    python3 perfbench/iteration.py --workload NAME --seed N [--spans PATH]

The benchmark runs each iteration in a fresh process, so that ``ru_maxrss``
is this iteration's peak.  The last line of standard output is one JSON
object with the timings, the step samples, the counts and the checks.  With
``--spans`` the iteration is traced and the spans are written to PATH.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from tracer import Tracer, trace_solver  # noqa: E402
from viscodg import (  # noqa: E402
    DGSpace,
    ManufacturedCase,
    PronyMaterial,
    Scheme,
    assemble_system,
    benchmark_material,
    build_structured_mesh,
    error_norms,
    run,
)
from viscodg.linalg import SolverError  # noqa: E402
from workloads import WORKLOADS, Workload, check, draw_material  # noqa: E402


def material_for_seed(seed: int) -> PronyMaterial:
    return benchmark_material() if seed == 0 else PronyMaterial(**draw_material(seed))


def environment() -> dict:
    return {
        **{var: value for var, value in os.environ.items() if var.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _traced_forcing(tracer: Tracer, at):
    """``at(t)`` returns a closure; time each evaluation of that closure."""
    return lambda t: tracer.wrap("manufactured.forcing", at(t))


def run_iteration(workload: Workload, seed: int, tracer: Tracer | None = None) -> dict:
    material = material_for_seed(seed)
    case = ManufacturedCase(material)
    span = tracer.span if tracer else lambda name: nullcontext()
    body_force, traction = case.body_force_at, case.traction_at
    if tracer:
        body_force = _traced_forcing(tracer, body_force)
        traction = _traced_forcing(tracer, traction)

    reports, raised, steps_ms = {}, [], []
    solve_s = 0.0
    start = time.perf_counter()
    with span("bench.iteration"), trace_solver(tracer) if tracer else nullcontext():
        with span("mesh.build"):
            mesh = build_structured_mesh(workload.n)
        with span("space.build"):
            space = DGSpace.build(mesh, workload.k)
        with span("assembly.system"):
            system = assemble_system(space, material)
        setup_s = time.perf_counter() - start

        for scheme, dt in workload.runs:
            stamps = []
            t0 = time.perf_counter()
            try:
                with span("stepper.run"):
                    state = run(
                        Scheme(scheme),
                        space,
                        system,
                        material,
                        workload.T,
                        dt,
                        u0=case.displacement_at(0.0),
                        grad_u0=case.grad_displacement_at(0.0),
                        w0=case.velocity_at(0.0),
                        body_force=body_force,
                        traction=traction,
                        diagnostics=lambda _: stamps.append(time.perf_counter()),
                    )
            except SolverError as exc:
                raised.append(f"{scheme} dt={dt:g}: {exc}")
                continue
            finally:
                solve_s += time.perf_counter() - t0
            # the first step also factors the step matrix; solve_s counts it
            steps_ms.extend(np.diff(stamps)[1:] * 1e3)
            with span("errors.norms"):
                reports[scheme, dt] = error_norms(state, case, space, system, dt=dt).as_row()

        with span("bench.check"):
            problems = check(workload, reports)
    wall_s = time.perf_counter() - start

    failures = raised + [
        f"{scheme} dt={dt:g}: {'; '.join(msgs)}" for (scheme, dt), msgs in problems.items() if msgs
    ]
    result = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "wall_s": wall_s,
        "steps_ms": [float(s) for s in steps_ms],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(workload.runs),
        "failed": len(failures),
        "failures": failures,
        "counts": {
            "mesh.n_edges": len(mesh.edges),
            "space.ndofs": space.total_dofs,
            "assembly.nnz_A": system.A.nnz,
        },
        "norms": {f"{scheme} dt={dt:g}": row for (scheme, dt), row in reports.items()},
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, result["counts"])
        result["factorizations"] = tracer.factorizations
    return result


def layer_metrics(tracer: Tracer, counts: dict) -> dict:
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    return {
        "mesh.build_s": total("mesh.build"),
        "mesh.n_edges": counts["mesh.n_edges"],
        "space.build_s": total("space.build"),
        "space.ndofs": counts["space.ndofs"],
        "assembly.system_s": total("assembly.system"),
        "assembly.nnz_A": counts["assembly.nnz_A"],
        "assembly.load_calls": calls("assembly.load"),
        "assembly.load_self_s": own("assembly.load"),
        "assembly.elliptic_rhs_calls": calls("assembly.elliptic_rhs"),
        "assembly.elliptic_rhs_s": total("assembly.elliptic_rhs"),
        "manufactured.forcing_calls": calls("manufactured.forcing"),
        "manufactured.forcing_s": total("manufactured.forcing"),
        "linalg.factor_calls": calls("linalg.factor"),
        "linalg.factor_s": total("linalg.factor"),
        "linalg.lu_fill_max": max((f[2] for f in tracer.factorizations), default=0),
        "linalg.solve_calls": calls("linalg.solve"),
        "linalg.solve_s": total("linalg.solve"),
        "linalg.max_residual": tracer.max_residual,
        "stepper.initialize_calls": calls("stepper.initialize"),
        "stepper.initialize_s": total("stepper.initialize"),
        "stepper.step_calls": calls("stepper.step"),
        "stepper.step_self_s": own("stepper.step"),
        "errors.norms_calls": calls("errors.norms"),
        "errors.norms_s": total("errors.norms"),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", type=Path, help="trace the iteration and write its spans here")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.spans else None
    result = run_iteration(WORKLOADS[args.workload], args.seed, tracer)
    result["env"] = environment()
    if tracer:
        tracer.write(args.spans, workload=args.workload, seed=args.seed, env=result["env"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
