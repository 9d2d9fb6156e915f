"""Study driver: config parsing, convergence and stability studies, CSV output.

Configs are plain ``key = value`` text with ``#`` comments.  Time steps may
be given as fraction literals (``dt = 1/2048``) to avoid decimal rounding.
A run writes one CSV row per (scheme, k, n, dt) with the six error norms,
and prints a human-readable rate table to standard output.
"""

import argparse
import contextlib
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .assembly import assemble_system, volume_blocks
from .errors import NORM_NAMES, convergence_rate, error_norms
from .linalg import SolverError
from .manufactured import ManufacturedCase
from .material import PronyMaterial
from .mesh import build_structured_mesh
from .space import DGSpace, reference_basis
from .stepper import Scheme, State, StepOperator, advance, initialize, step_count

CSV_HEADER = "scheme,k,n,h,dt," + ",".join(f"err_{name}" for name in NORM_NAMES)

_STUDIES = ("hconv", "tconv", "stability")
_SCHEMES = ("displacement", "velocity", "both")
# the stability study compares the energy up to these two final times
_STABILITY_HORIZONS = (5.0, 10.0)


class ConfigError(ValueError):
    pass


@dataclass
class StudyConfig:
    study: str = "hconv"
    scheme: str = "both"
    k: int = 1
    n: list[int] = field(default_factory=lambda: [4])
    dt: list[float | None] = field(default_factory=lambda: [0.25])
    T: float | None = None  # final time, 1 if unset; a stability study sets none
    alpha0: float = 10.0
    rho: float = 1.0
    phi0: float = 0.5
    phis: tuple[float, ...] = (0.1, 0.4)
    taus: tuple[float, ...] = (0.5, 1.5)
    out: str | None = None

    def validate(self):
        if self.study not in _STUDIES:
            raise ConfigError(f"unknown study '{self.study}' (choose {', '.join(_STUDIES)})")
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"unknown scheme '{self.scheme}' (choose {', '.join(_SCHEMES)})")
        if self.T is not None and not self.T > 0:
            raise ConfigError("T must be positive")
        if any(n < 1 for n in self.n):
            raise ConfigError("mesh subdivisions must be >= 1")
        # runs() would drop all but the first n in tconv and all but the first dt elsewhere
        if self.study != "tconv" and len(self.dt) > 1:
            raise ConfigError(f"a {self.study} study takes one dt, got {len(self.dt)}")
        if self.study in ("tconv", "stability") and len(self.n) > 1:
            raise ConfigError(f"a {self.study} study takes one n, got {len(self.n)}")
        if self.study == "stability" and self.out:
            raise ConfigError("a stability study writes no CSV, so it takes no out")
        # each run of a study refines the last: the rate table needs it
        if self.study == "tconv":
            dts = [dt for _, dt in self.runs()]
            if any(finer >= dt for dt, finer in zip(dts, dts[1:])):
                given = ", ".join(f"{dt:g}" for dt in dts)
                raise ConfigError(f"time steps must strictly decrease, got dt = {given}")
        elif any(finer <= n for n, finer in zip(self.n, self.n[1:])):
            given = ", ".join(map(str, self.n))
            raise ConfigError(f"mesh subdivisions must strictly increase, got n = {given}")
        # as assemble_system does: alpha0/|e| peaks on the shortest edges, the grid spacings
        spacing = float(np.diff(np.linspace(0.0, 1.0, max(self.n) + 1)).min())
        if not 0 < self.alpha0 / spacing < np.inf:
            raise ConfigError(f"alpha0={self.alpha0} must be positive with a finite alpha0/|e|")
        horizons = _STABILITY_HORIZONS if self.study == "stability" else (self.final_time(),)
        try:
            self.material()
            reference_basis(self.k, np.empty((0, 2)))  # raises for k < 1 or a k too high
            for T in horizons:
                for _, dt in self.runs():
                    step_count(T, dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.study == "stability" and self.T is not None:
            horizons = " and ".join(f"T={T:g}" for T in _STABILITY_HORIZONS)
            raise ConfigError(f"a stability study runs to {horizons}, so it takes no T")

    def runs(self) -> list[tuple[int, float]]:
        """The (n, dt) of every run of the study, with dt = h resolved to 1/n."""
        if self.study == "tconv":
            pairs = [(self.n[0], dt) for dt in self.dt]
        else:  # dt = 1/n divides both stability horizons
            pairs = [(n, self.dt[0]) for n in self.n]
        return [(n, 1.0 / n if dt is None else dt) for n, dt in pairs]

    def final_time(self) -> float:
        return 1.0 if self.T is None else self.T

    def material(self) -> PronyMaterial:
        return PronyMaterial(self.rho, self.phi0, self.phis, self.taus)

    def schemes(self) -> list[Scheme]:
        if self.scheme == "both":
            return [Scheme.DISPLACEMENT, Scheme.VELOCITY]
        return [Scheme(self.scheme)]


def _parse_number(text: str) -> float:
    text = text.strip()
    value = float(Fraction(text)) if "/" in text else float(text)
    if not np.isfinite(value):
        raise ValueError(f"not a finite number: {text}")
    return value


def _parse_dt(text: str):
    if text.strip().lower() == "h":
        return None  # resolved per mesh as 1/n
    return _parse_number(text)


def _comma_list(parse, kind=list):
    return lambda text: kind(parse(v) for v in text.split(","))


# config key, also the StudyConfig field it sets -> (parser of the value text,
# help of its command-line flag --key, parsed alike); the material's keys have
# no flag (None), and "" is a flag without help
_KEYS = {
    "study": (str, ", ".join(_STUDIES)),
    "scheme": (str, ", ".join(_SCHEMES)),
    "k": (int, "polynomial degree of the DG space"),
    "n": (_comma_list(int), "mesh subdivisions, comma separated"),
    "dt": (_comma_list(_parse_dt), "time step ('1/2048', '0.25' or 'h'), comma separated"),
    "T": (_parse_number, "final time (default 1)"),
    "alpha0": (_parse_number, "SIPG penalty alpha0 (default 10)"),
    "rho": (_parse_number, None),
    "phi0": (_parse_number, None),
    "phis": (_comma_list(_parse_number, tuple), None),
    "taus": (_comma_list(_parse_number, tuple), None),
    "out": (str, "CSV output path"),
}


def _set(cfg: StudyConfig, key: str, value: str) -> None:
    if key not in _KEYS:
        raise ConfigError(f"unknown key '{key}'")
    try:
        setattr(cfg, key, _KEYS[key][0](value))
    except (ValueError, ArithmeticError) as exc:  # 1/0, or a fraction past the float range
        raise ConfigError(f"bad value for '{key}': {value}") from exc


def parse_config(text: str) -> StudyConfig:
    """Parse ``key = value`` lines into a StudyConfig.

    Each value is checked alone; ``run_study`` checks the settings together
    with ``StudyConfig.validate``, so command-line flags may still change them.
    A key given twice is an error: a file sets each setting once.
    """
    cfg = StudyConfig()
    seen = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"line {lineno}: '{key}' is already set on line {seen[key]}")
        seen[key] = lineno
        try:
            _set(cfg, key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return cfg


def _discretization(cfg: StudyConfig, n: int):
    """Assembled system of (cfg.k, n) on its DG space."""
    space = DGSpace.build(build_structured_mesh(n), cfg.k)
    return assemble_system(space, cfg.material(), cfg.alpha0)


def _project(system) -> tuple[ManufacturedCase, State]:
    """The manufactured case of the system's material and its initial data on the
    system's space, a state that ``replace(initial, scheme=...)`` gives either form."""
    case = ManufacturedCase(system.material)
    data = case.displacement_at(0.0), case.grad_displacement_at(0.0), case.velocity_at(0.0)
    return case, initialize(system, *data, Scheme.DISPLACEMENT)


def _csv_row(report, n: int) -> str:
    vals = ",".join(f"{v:.6e}" for v in report.as_row())
    return f"{report.scheme},{report.degree},{n},{report.h:.6e},{report.dt:.6e},{vals}"


def _rate_table(rows_by_scheme: dict, scale: str, out) -> None:
    """Rates between successive reports, each refined in its ``scale`` (h or dt)."""
    for scheme, reports in rows_by_scheme.items():
        print(f"convergence rates ({scheme.value} form):", file=out)
        header = "  ".join(f"{name:>9}" for name in NORM_NAMES)
        print(f"  {'pair':>13}  {header}", file=out)
        scales = [getattr(r, scale) for r in reports]
        errs = np.array([r.as_row() for r in reports])
        rates = zip(*(convergence_rate(column, scales) for column in errs.T))
        for coarse, fine, row in zip(scales, scales[1:], rates):
            label = f"{coarse:.4g}->{fine:.4g}"
            print(f"  {label:>13}  " + "  ".join(f"{r:9.2f}" for r in row), file=out)


def run_study(cfg: StudyConfig, out=None) -> list[str]:
    """Check cfg and execute its study; returns the CSV rows (also written to cfg.out if set).

    Raises ``ConfigError`` before any work is done if cfg fails
    ``cfg.validate()`` or cfg.out cannot be written.
    """
    cfg.validate()
    if out is None:
        out = sys.stdout
    csv_rows = [CSV_HEADER]

    if cfg.study == "stability":
        _run_stability(cfg, out)
        return csv_rows

    runs, T, schemes = cfg.runs(), cfg.final_time(), cfg.schemes()
    try:
        csv_file = open(cfg.out, "w") if cfg.out else contextlib.nullcontext()
    except OSError as exc:
        raise ConfigError(f"cannot write out={cfg.out}: {exc.strerror}") from exc
    reports = {}  # (scheme, n, dt) -> ErrorReport; validate makes each run's (n, dt) unique
    with csv_file as fh:
        # one system at a time, projected once, factored once per dt for both forms and
        # freed before the next; validate holds a tconv study to one n: cfg.n lists every mesh
        for n in cfg.n:
            system = _discretization(cfg, n)
            case, initial = _project(system)
            loads = (case.body_force_at, case.traction_at)
            for dt in (d for m, d in runs if m == n):
                op = StepOperator.build(system, dt)
                finals = {s: advance(replace(initial, scheme=s), op, T, *loads) for s in schemes}
                del op  # K's LU, the largest array, is freed before the norms
                for scheme, state in finals.items():
                    reports[scheme, n, dt] = error_norms(state, case, system.space, system, dt=dt)
            del system
        rows_by_scheme = {s: [reports[s, n, dt] for n, dt in runs] for s in schemes}
        csv_rows += [_csv_row(reports[s, n, dt], n) for s in schemes for n, dt in runs]
        if fh is not None:
            fh.write("\n".join(csv_rows) + "\n")
    if len(runs) > 1:
        _rate_table(rows_by_scheme, "dt" if cfg.study == "tconv" else "h", out)
    else:
        print("\n".join(csv_rows), file=out)
    return csv_rows


def _run_stability(cfg: StudyConfig, out) -> None:
    """Max-over-steps energy for T=5 and T=10 with homogeneous loads."""
    n, dt = cfg.runs()[0]
    system = _discretization(cfg, n)
    # the volume strain energy is block diagonal: one (nd, nd) block per triangle
    volume = volume_blocks(system.space, system.material.elasticity)

    _, initial = _project(system)
    op = StepOperator.build(system, dt)  # both forms step with one K
    short, long = _STABILITY_HORIZONS
    # the run to T=10 passes through T=5, so one run gives both peaks
    n_short = step_count(short, dt)
    for scheme in cfg.schemes():
        energies = []

        def track(state):
            stiff = (volume @ state.U.reshape(len(volume), -1, 1)).ravel() + system.J @ state.U
            e = state.W @ (system.M @ state.W) + state.U @ stiff
            energies.append(float(e))

        advance(replace(initial, scheme=scheme), op, long, diagnostics=track)
        peak_short, peak_long = max(energies[: n_short + 1]), max(energies)
        print(
            f"stability ({scheme.value} form): max energy T={short:g}: {peak_short:.6e}  "
            f"T={long:g}: {peak_long:.6e}  ratio: {peak_long / peak_short:.6f}",
            file=out,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="viscodg",
        description="SIPG viscoelasticity solver: convergence and stability studies",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    # taken as text and checked by validate, so a bad study or scheme is a
    # config error as in a file
    for key, (_, text) in _KEYS.items():
        if text is not None:
            parser.add_argument(f"--{key}", help=text)
    args = vars(parser.parse_args(argv))
    config = args.pop("config")

    try:
        if config:
            with open(config) as fh:
                cfg = parse_config(fh.read())
        else:
            cfg = StudyConfig()
        for key, value in args.items():
            if value is not None:
                _set(cfg, key, value)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # no silent inf or nan
            run_study(cfg)
    except ConfigError as exc:  # cfg fails validate, or cfg.out cannot be written
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, ArithmeticError) as exc:  # or a float error in a run
        runs = ", ".join(f"({n}, {dt!r})" for n, dt in cfg.runs())
        print(
            f"solver failure (alpha0={cfg.alpha0}, k={cfg.k}, (n, dt) = {runs}): {exc}",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
