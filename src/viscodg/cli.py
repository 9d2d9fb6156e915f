"""Study driver: config parsing, convergence/stability/penalty studies, CSV output.

Configs are plain ``key = value`` text with ``#`` comments.  Time steps may
be given as fraction literals (``dt = 1/2048``) to avoid decimal rounding.
A run writes one CSV row per (scheme, k, n, dt) with the six error norms,
and prints a human-readable rate table to standard output.
"""

import argparse
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .assembly import assemble_system, assemble_volume_stiffness
from .errors import convergence_rate, error_norms
from .linalg import SolverError
from .manufactured import ManufacturedCase
from .material import PronyMaterial
from .mesh import build_structured_mesh
from .space import DGSpace
from .stepper import Scheme, run, step_count

CSV_HEADER = "scheme,k,n,h,dt,err_u_L2,err_u_H1,err_u_energy,err_w_L2,err_w_H1,err_w_energy"

_STUDIES = ("single", "hconv", "tconv", "penalty", "stability")
_SCHEMES = ("displacement", "velocity", "both")
# the stability study compares the energy up to these two final times
_STABILITY_HORIZONS = (5.0, 10.0)


class ConfigError(ValueError):
    pass


@dataclass
class StudyConfig:
    study: str = "single"
    scheme: str = "both"
    k: int = 1
    ns: list[int] = field(default_factory=lambda: [4])
    dts: list[float | None] = field(default_factory=lambda: [0.25])
    T: float = 1.0
    alpha0: float = 10.0
    beta0: float = 1.0
    rho: float = 1.0
    phi0: float = 0.5
    phis: tuple[float, ...] = (0.1, 0.4)
    taus: tuple[float, ...] = (0.5, 1.5)
    out: str | None = None

    def validate(self):
        if self.study not in _STUDIES:
            raise ConfigError(f"unknown study '{self.study}'")
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"unknown scheme '{self.scheme}'")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.alpha0 <= 0:
            raise ConfigError("alpha0 must be positive")
        if self.beta0 < 1:
            raise ConfigError("beta0 must be >= 1")
        if not self.T > 0:
            raise ConfigError("T must be positive")
        if any(n < 1 for n in self.ns):
            raise ConfigError("mesh subdivisions must be >= 1")
        if any(dt is not None and dt <= 0 for dt in self.dts):
            raise ConfigError("dt must be positive")
        # runs() would drop all but the first n in tconv and all but the first dt elsewhere
        if self.study != "tconv" and len(self.dts) > 1:
            raise ConfigError(f"a {self.study} study takes one dt, got {len(self.dts)}")
        if self.study in ("tconv", "stability") and len(self.ns) > 1:
            raise ConfigError(f"a {self.study} study takes one n, got {len(self.ns)}")
        horizons = _STABILITY_HORIZONS if self.study == "stability" else (self.T,)
        try:
            self.material()
            for T in horizons:
                for _, dt in self.runs():
                    step_count(T, dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def runs(self) -> list[tuple[int, float]]:
        """The (n, dt) of every run of the study, with dt = h resolved to 1/n."""
        if self.study == "tconv":
            pairs = [(self.ns[0], dt) for dt in self.dts]
        else:  # dt = 1/n divides both stability horizons
            pairs = [(n, self.dts[0]) for n in self.ns]
        return [(n, 1.0 / n if dt is None else dt) for n, dt in pairs]

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


# config key -> (StudyConfig field, parser of the value text); command-line
# flags are stored under the same keys
_KEYS = {
    "study": ("study", str),
    "scheme": ("scheme", str),
    "k": ("k", int),
    "n": ("ns", lambda text: [int(text)]),
    "ns": ("ns", _comma_list(int)),
    "dt": ("dts", lambda text: [_parse_dt(text)]),
    "dts": ("dts", _comma_list(_parse_dt)),
    "T": ("T", _parse_number),
    "alpha0": ("alpha0", _parse_number),
    "beta0": ("beta0", _parse_number),
    "rho": ("rho", _parse_number),
    "phi0": ("phi0", _parse_number),
    "phis": ("phis", _comma_list(_parse_number, tuple)),
    "taus": ("taus", _comma_list(_parse_number, tuple)),
    "out": ("out", str),
}


def _set(cfg: StudyConfig, key: str, value: str) -> None:
    if key not in _KEYS:
        raise ConfigError(f"unknown key '{key}'")
    name, parse = _KEYS[key]
    try:
        setattr(cfg, name, parse(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad value for '{key}': {value}") from exc


def parse_config(text: str) -> StudyConfig:
    """Parse ``key = value`` lines into a validated StudyConfig."""
    cfg = StudyConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            _set(cfg, key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    cfg.validate()
    return cfg


def _discretization(cfg: StudyConfig, n: int, cache: dict):
    """DG space and assembled system of (cfg.k, n), built once per study."""
    key = (cfg.k, n)
    if key not in cache:
        space = DGSpace.build(build_structured_mesh(n), cfg.k)
        cache[key] = (space, assemble_system(space, cfg.material(), cfg.alpha0, cfg.beta0))
    return cache[key]


def _run_one(cfg: StudyConfig, scheme: Scheme, n: int, dt: float, cache: dict):
    """Solve one configuration and return its ErrorReport."""
    space, system = _discretization(cfg, n, cache)
    case = ManufacturedCase(cfg.material())
    state = run(
        scheme,
        space,
        system,
        case.material,
        cfg.T,
        dt,
        u0=case.displacement_at(0.0),
        grad_u0=case.grad_displacement_at(0.0),
        w0=case.velocity_at(0.0),
        body_force=case.body_force_at,
        traction=case.traction_at,
    )
    return error_norms(state, case, space, system, dt=dt)


def _csv_row(report, scheme: Scheme, k: int, n: int) -> str:
    vals = ",".join(f"{v:.6e}" for v in report.as_row())
    return f"{scheme.value},{k},{n},{report.h:.6e},{report.dt:.6e},{vals}"


_NORM_NAMES = ("u_L2", "u_H1", "u_energy", "w_L2", "w_H1", "w_energy")


def _rate_table(rows_by_scheme: dict, scales: list[float], out) -> None:
    for scheme, reports in rows_by_scheme.items():
        if len(reports) < 2:
            continue
        print(f"convergence rates ({scheme.value} form):", file=out)
        header = "  ".join(f"{name:>9}" for name in _NORM_NAMES)
        print(f"  {'pair':>13}  {header}", file=out)
        errs = np.array([r.as_row() for r in reports])
        for i in range(1, len(reports)):
            rates = [
                convergence_rate(errs[i - 1 : i + 1, j], scales[i - 1 : i + 1])[0]
                for j in range(6)
            ]
            label = f"{scales[i - 1]:.4g}->{scales[i]:.4g}"
            print(f"  {label:>13}  " + "  ".join(f"{r:9.2f}" for r in rates), file=out)


def run_study(cfg: StudyConfig, out=None) -> list[str]:
    """Execute a study; returns the CSV rows (also written to cfg.out if set)."""
    if out is None:
        out = sys.stdout
    cache: dict = {}
    csv_rows = [CSV_HEADER]

    if cfg.study == "stability":
        _run_stability(cfg, out, cache)
        return csv_rows

    runs = cfg.runs()
    scales = [dt if cfg.study == "tconv" else np.sqrt(2.0) / n for n, dt in runs]

    rows_by_scheme: dict = {}
    for scheme in cfg.schemes():
        reports = []
        for n, dt in runs:
            report = _run_one(cfg, scheme, n, dt, cache)
            reports.append(report)
            csv_rows.append(_csv_row(report, scheme, cfg.k, n))
        rows_by_scheme[scheme] = reports

    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write("\n".join(csv_rows) + "\n")
    if len(runs) > 1:
        _rate_table(rows_by_scheme, scales, out)
    else:
        print("\n".join(csv_rows), file=out)
    return csv_rows


def _run_stability(cfg: StudyConfig, out, cache: dict) -> None:
    """Max-over-steps energy for T=5 and T=10 with homogeneous loads."""
    n, dt = cfg.runs()[0]
    space, system = _discretization(cfg, n, cache)
    case = ManufacturedCase(cfg.material())
    energy_matrix = assemble_volume_stiffness(space, case.material) + system.J

    short, long = _STABILITY_HORIZONS
    for scheme in cfg.schemes():
        maxima = {}
        for horizon in _STABILITY_HORIZONS:
            peak = 0.0

            def track(state):
                nonlocal peak
                e = state.W @ (system.M @ state.W) + state.U @ (energy_matrix @ state.U)
                peak = max(peak, float(e))

            run(
                scheme,
                space,
                system,
                case.material,
                horizon,
                dt,
                u0=case.displacement_at(0.0),
                grad_u0=case.grad_displacement_at(0.0),
                w0=case.velocity_at(0.0),
                diagnostics=track,
            )
            maxima[horizon] = peak
        ratio = maxima[long] / maxima[short]
        print(
            f"stability ({scheme.value} form): max energy T={short:g}: {maxima[short]:.6e}  "
            f"T={long:g}: {maxima[long]:.6e}  ratio: {ratio:.6f}",
            file=out,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="viscodg",
        description="SIPG viscoelasticity solver: convergence and stability studies",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--study", choices=_STUDIES)
    parser.add_argument("--scheme", choices=_SCHEMES)
    parser.add_argument("--k")
    parser.add_argument("--n", dest="ns", help="mesh subdivisions, comma separated")
    parser.add_argument(
        "--dt", dest="dts", help="time step ('1/2048', '0.25' or 'h'), comma separated"
    )
    parser.add_argument("--T")
    parser.add_argument("--alpha0")
    parser.add_argument("--beta0")
    parser.add_argument("--out", help="CSV output path")
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
        cfg.validate()
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        run_study(cfg)
    except SolverError as exc:
        print(
            f"solver failure (alpha0={cfg.alpha0}, k={cfg.k}, ns={cfg.ns}): {exc}",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
