import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscodg.cli import (
    _SCHEMES,
    _STUDIES,
    CSV_HEADER,
    ConfigError,
    StudyConfig,
    _parse_number,
    main,
    parse_config,
    run_study,
)
from viscodg.linalg import SolverError
from viscodg.stepper import Scheme


def test_parse_number_fractions():
    assert _parse_number("1/2048") == 1.0 / 2048.0
    assert _parse_number("0.25") == 0.25
    assert _parse_number(" 3 ") == 3.0


def test_defaults():
    cfg = parse_config("")
    assert cfg.study == "single"
    assert cfg.scheme == "both"
    assert cfg.k == 1
    assert cfg.ns == [4]
    assert cfg.dts == [0.25]
    assert cfg.alpha0 == 10.0
    assert cfg.beta0 == 1.0
    m = cfg.material()
    assert m.phis == (0.1, 0.4)
    assert m.taus == (0.5, 1.5)


def test_parse_full_config():
    cfg = parse_config(
        """
        # convergence study
        study = hconv
        scheme = displacement
        k = 2
        ns = 4, 8, 16
        dt = 1/2048
        T = 1
        alpha0 = 12.5
        out = results.csv
        """
    )
    assert cfg.study == "hconv"
    assert cfg.schemes() == [Scheme.DISPLACEMENT]
    assert cfg.k == 2
    assert cfg.ns == [4, 8, 16]
    assert cfg.dts == [1.0 / 2048.0]
    assert cfg.alpha0 == 12.5
    assert cfg.out == "results.csv"


def test_parse_dt_h_sentinel():
    cfg = parse_config("dt = h")
    assert cfg.dts == [None]


def test_parse_material_override():
    cfg = parse_config("phi0 = 0.25\nphis = 0.5, 0.25\ntaus = 1, 2")
    m = cfg.material()
    assert m.phi0 == 0.25
    assert m.phis == (0.5, 0.25)


def _render(cfg: StudyConfig) -> str:
    """``key = value`` lines that describe cfg, one per field that is set."""

    def text(value):
        if isinstance(value, (list, tuple)):
            return ", ".join(map(text, value))
        if value is None:
            return "h"  # the only None in a list is the dt = 1/n sentinel
        return repr(value) if isinstance(value, float) else str(value)

    return "\n".join(
        f"{f.name} = {text(getattr(cfg, f.name))}"
        for f in dataclasses.fields(cfg)
        if getattr(cfg, f.name) is not None
    )


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _valid_configs(draw):
    """Configs whose every run passes the step-count rule of ``run``."""
    study = draw(st.sampled_from(_STUDIES))
    # dt = h (None) divides T for every n only when T is a whole number
    whole = draw(st.booleans())
    T = float(draw(st.integers(1, 10))) if whole else draw(_floats(0.01, 10.0))
    # a stability study runs to T = 5 and T = 10 whatever T is
    span = 5.0 if study == "stability" else T
    dt = st.integers(1, 4096).map(lambda m: span / m)
    if whole or study == "stability":
        dt = st.none() | dt
    # one dt outside tconv, one n in tconv, one of each in stability
    max_ns = 1 if study in ("tconv", "stability") else 4
    max_dts = 4 if study == "tconv" else 1
    phis = draw(st.lists(_floats(0.01, 0.3), min_size=1, max_size=3))
    out = st.text("abcXYZ019._-/", min_size=1, max_size=12)
    return StudyConfig(
        study=study,
        scheme=draw(st.sampled_from(_SCHEMES)),
        k=draw(st.integers(1, 5)),
        ns=draw(st.lists(st.integers(1, 256), min_size=1, max_size=max_ns)),
        dts=draw(st.lists(dt, min_size=1, max_size=max_dts)),
        T=T,
        alpha0=draw(_floats(1e-3, 1e3)),
        beta0=draw(_floats(1.0, 4.0)),
        rho=draw(_floats(0.1, 10.0)),
        phi0=1.0 - sum(phis),
        phis=tuple(phis),
        taus=tuple(draw(st.lists(_floats(0.01, 100.0), min_size=len(phis), max_size=len(phis)))),
        out=draw(st.one_of(st.none(), out)),
    )


@settings(max_examples=200, deadline=None)
@given(_valid_configs())
def test_config_round_trip(cfg):
    cfg.validate()
    text = _render(cfg)
    assert parse_config(text) == cfg, text


def test_parse_errors():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("nonsense line")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("colour = blue")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("k = two")
    with pytest.raises(ConfigError):
        parse_config("study = nope")
    with pytest.raises(ConfigError):
        parse_config("scheme = fast")
    with pytest.raises(ConfigError):
        parse_config("k = 0")
    with pytest.raises(ConfigError):
        parse_config("alpha0 = -1")
    with pytest.raises(ConfigError):
        parse_config("beta0 = 0.5")
    with pytest.raises(ConfigError):
        parse_config("dt = 0.3")  # T=1 not an integral multiple
    with pytest.raises(ConfigError):
        parse_config("phi0 = 0.9")  # coefficients no longer sum to 1


def test_single_study_rows(tmp_path):
    out = tmp_path / "run.csv"
    cfg = StudyConfig(study="single", scheme="both", k=1, ns=[2], dts=[0.25], out=str(out))
    buf = io.StringIO()
    rows = run_study(cfg, out=buf)
    assert rows[0] == CSV_HEADER
    assert len(rows) == 3  # header + one row per scheme
    assert rows[1].startswith("displacement,1,2,")
    assert rows[2].startswith("velocity,1,2,")
    assert out.read_text().strip().splitlines() == rows
    # errors are finite and positive
    for row in rows[1:]:
        vals = [float(v) for v in row.split(",")[5:]]
        assert all(np.isfinite(v) and v > 0 for v in vals)


def test_study_is_deterministic():
    cfg = StudyConfig(study="single", scheme="displacement", k=1, ns=[2], dts=[0.25])
    rows1 = run_study(cfg, out=io.StringIO())
    rows2 = run_study(cfg, out=io.StringIO())
    assert rows1 == rows2


def test_hconv_rate_table_and_rates():
    cfg = StudyConfig(study="hconv", scheme="displacement", k=1, ns=[2, 4], dts=[1.0 / 64])
    buf = io.StringIO()
    rows = run_study(cfg, out=buf)
    assert "convergence rates (displacement form)" in buf.getvalue()
    # recompute the H1 rate from the CSV rows; spatial accuracy ~ O(h)
    errs = [float(r.split(",")[6]) for r in rows[1:]]
    rate = np.log(errs[0] / errs[1]) / np.log(2.0)
    assert 0.7 < rate < 1.4


def test_tconv_scales_use_dt():
    cfg = StudyConfig(
        study="tconv", scheme="displacement", k=1, ns=[2], dts=[0.5, 0.25]
    )
    buf = io.StringIO()
    rows = run_study(cfg, out=buf)
    assert len(rows) == 3
    dts = [float(r.split(",")[4]) for r in rows[1:]]
    assert dts == [0.5, 0.25]


def test_stability_study_output():
    cfg = StudyConfig(study="stability", scheme="displacement", k=1, ns=[2], dts=[0.25])
    buf = io.StringIO()
    run_study(cfg, out=buf)
    text = buf.getvalue()
    assert "stability (displacement form)" in text
    assert "ratio" in text


def test_main_config_file(tmp_path, capfd):
    cfgfile = tmp_path / "study.cfg"
    cfgfile.write_text("study = single\nscheme = displacement\nn = 2\ndt = 1/4\n")
    assert main(["--config", str(cfgfile)]) == 0
    assert CSV_HEADER in capfd.readouterr().out


def test_main_flag_overrides(tmp_path):
    out = tmp_path / "o.csv"
    rc = main(
        ["--study", "single", "--scheme", "velocity", "--k", "1", "--n", "2",
         "--dt", "1/4", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("velocity,1,2,")


def test_main_bad_config_exit_code(tmp_path, capfd):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("k = 0\n")
    assert main(["--config", str(cfgfile)]) == 2
    assert "config error" in capfd.readouterr().err


def test_main_negative_final_time_exit_code(capfd):
    assert main(["--study", "single", "--k", "1", "--n", "2", "--dt", "1/4", "--T", "-1"]) == 2
    assert "T must be positive" in capfd.readouterr().err
    with pytest.raises(ConfigError, match="T must be positive"):
        parse_config("T = 0")


@pytest.mark.parametrize(
    "flag, value", [("--T", "inf"), ("--dt", "nan"), ("--alpha0", "inf"), ("--T", "1e400")]
)
def test_main_non_finite_value_exit_code(capfd, flag, value):
    args = {"--study": "single", "--k": "1", "--n": "2", "--dt": "1/4", "--T": "1"}
    args[flag] = value
    assert main([item for pair in args.items() for item in pair]) == 2
    assert "config error: bad value" in capfd.readouterr().err
    with pytest.raises(ValueError, match="finite"):
        _parse_number(value)


_REJECTED = [
    # (arguments, start of the error message)
    # T/dt is within 1e-9 of 3 steps but not within run's 1e-12 * max(T, 1)
    ("--study single --scheme displacement --k 1 --n 2 --dt 0.333333333334 --T 1", "T="),
    # dt = h = 1/3 does not divide T
    ("--study single --scheme displacement --k 1 --n 3 --dt h --T 0.5", "T="),
    # dt divides T, but not the stability horizons T=5 and T=10
    ("--study stability --scheme displacement --k 1 --n 2 --dt 0.3 --T 0.9", "T="),
    # only the second mesh's dt = h fails
    ("--study hconv --scheme displacement --k 1 --n 2,3 --dt h --T 0.5", "T="),
    # an hconv study would run the first dt only
    ("--study hconv --k 1 --n 2,4 --dt 1/4,1/8 --T 1/2", "a hconv study takes one dt"),
    ("--study tconv --k 1 --n 2,4 --dt 1/4,1/8 --T 1/2", "a tconv study takes one n"),
    ("--study stability --k 1 --n 2 --dt 1/4,1/8", "a stability study takes one dt"),
    ("--study stability --k 1 --n 2,4 --dt h", "a stability study takes one n"),
]


@pytest.mark.parametrize("args, message", _REJECTED, ids=[args for args, _ in _REJECTED])
def test_main_rejects_runs_that_would_fail(capfd, monkeypatch, args, message):
    def no_study(cfg, out=None):
        raise AssertionError("study started for a config whose runs would fail")

    monkeypatch.setattr("viscodg.cli.run_study", no_study)
    assert main(args.split()) == 2
    assert f"config error: {message}" in capfd.readouterr().err


def test_main_solver_failure_exit_code(capfd, monkeypatch):
    def failing_study(cfg, out=None):
        raise SolverError("solve residual 1 exceeds tolerance")

    monkeypatch.setattr("viscodg.cli.run_study", failing_study)
    assert main(["--study", "single", "--k", "1", "--n", "2", "--dt", "1/4"]) == 3
    err = capfd.readouterr().err
    assert "solver failure (alpha0=10.0, k=1, ns=[2])" in err
    assert "solve residual 1 exceeds tolerance" in err


def test_main_missing_config_file(capfd):
    assert main(["--config", "/no/such/file.cfg"]) == 2
    capfd.readouterr()
