"""Benchmark workloads and the checks every result must pass.

Each workload solves the manufactured case of ``viscodg.manufactured`` on one
assembled system: one ``run`` per (scheme, dt), followed by ``error_norms``
against the closed-form solution.  This module needs only the standard
library, so the parent process of the benchmark can import it without
loading numpy.
"""

import math
import random
from dataclasses import dataclass

NORM_NAMES = ("u_L2", "u_H1", "u_energy", "w_L2", "w_H1", "w_energy")
SCHEMES = ("displacement", "velocity")


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    n: int
    schemes: tuple[str, ...]
    dts: tuple[float, ...]
    T: float
    # every run's six error norms stay at or below these: about twice the
    # largest value seen over seeds 0-20
    ceilings: tuple[float, ...]
    # criterion-4 agreement: max relative difference of the two forms' error
    # norms at the finest dt
    agree_rtol: float | None = None
    # criterion-3 shape: observed order of u_L2 and w_L2 between successive dts
    min_rate: float | None = None

    @property
    def runs(self) -> list[tuple[str, float]]:
        return [(scheme, dt) for scheme in self.schemes for dt in self.dts]


WORKLOADS = {
    w.name: w
    for w in (
        # Step-bound: 2 x 128 forced steps on 12,288 DOFs; setup and the two
        # factorizations per run are a small share of the wall time.
        Workload(
            "steps-k1-n32",
            k=1,
            n=32,
            schemes=SCHEMES,
            dts=(1 / 1024,),
            T=0.125,
            ceilings=(8e-4, 8e-2, 8e-2, 4e-4, 8e-2, 8e-2),
            agree_rtol=0.005,
        ),
        # Setup-bound: one run of 8 steps on 24,576 DOFs, so assembly, the
        # three factorizations and their fill dominate; nothing is reused.
        Workload(
            "setup-k2-n32",
            k=2,
            n=32,
            schemes=("displacement",),
            dts=(1 / 8,),
            T=1.0,
            ceilings=(4e-3, 1e-2, 1e-2, 8e-3, 3e-2, 2e-2),
        ),
        # Reuse-bound: the temporal-convergence study shape, 8 runs on one
        # assembled system (6,144 DOFs); each run factors A, M0 and K again.
        Workload(
            "tconv-k2-n16",
            k=2,
            n=16,
            schemes=SCHEMES,
            dts=(1 / 4, 1 / 8, 1 / 16, 1 / 32),
            T=1.0,
            ceilings=(1.5e-2, 4e-2, 4e-2, 3e-2, 1.2e-1, 9e-2),
            min_rate=1.8,
        ),
        # Tiny configuration for the benchmark's own tests; it goes through
        # every check the real workloads use.
        Workload(
            "smoke",
            k=1,
            n=2,
            schemes=SCHEMES,
            dts=(1 / 4, 1 / 8),
            T=0.5,
            ceilings=(1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
            agree_rtol=0.5,
            min_rate=-1.0,
        ),
    )
}


def draw_material(seed: int) -> dict:
    """Prony material keyword arguments drawn from the seed (seed >= 1).

    Q is fixed at 2 so that the cost of a step does not depend on the seed;
    tau_1 < 1 < tau_2 keeps the closed forms away from their tau = 1 pole.
    Seed 0 stands for ``benchmark_material()`` and is handled by the caller.
    """
    rng = random.Random(seed)
    phi0 = rng.uniform(0.3, 0.7)
    phi1 = (1.0 - phi0) * rng.uniform(0.2, 0.8)
    return {
        "rho": rng.uniform(0.5, 2.0),
        "phi0": phi0,
        "phis": (phi1, 1.0 - phi0 - phi1),
        "taus": (rng.uniform(0.3, 0.8), rng.uniform(1.25, 2.5)),
    }


def check(workload: Workload, reports: dict) -> dict:
    """Failure messages per finished run; a run with an empty list passed.

    ``reports`` maps (scheme, dt) to the six error norms of a finished run.
    """
    problems = {key: [] for key in reports}
    for key, norms in reports.items():
        for name, value, ceiling in zip(NORM_NAMES, norms, workload.ceilings):
            if not value <= ceiling:
                problems[key].append(f"{name} {value:.3e} above {ceiling:.1e}")

    finest = min(workload.dts)
    pair = [("displacement", finest), ("velocity", finest)]
    if workload.agree_rtol is not None and all(key in reports for key in pair):
        d, v = (reports[key] for key in pair)
        worst = max(abs(a - b) / max(a, b) for a, b in zip(d, v))
        if not worst <= workload.agree_rtol:
            for key in pair:
                problems[key].append(f"forms differ by {worst:.2e} (limit {workload.agree_rtol})")

    if workload.min_rate is not None:
        dts = sorted(workload.dts, reverse=True)
        for scheme in workload.schemes:
            for coarse, fine in zip(dts, dts[1:]):
                if (scheme, coarse) not in reports or (scheme, fine) not in reports:
                    continue
                for i in (0, 3):
                    rate = math.log(
                        reports[scheme, coarse][i] / reports[scheme, fine][i]
                    ) / math.log(coarse / fine)
                    if not rate >= workload.min_rate:
                        problems[scheme, fine].append(
                            f"{NORM_NAMES[i]} rate {rate:.2f} below {workload.min_rate}"
                        )
    return problems
