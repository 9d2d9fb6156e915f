import contextlib
import dataclasses
import io
import re
import shlex
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import assemble_volume_stiffness
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viscodg.cli import (
    _KEYS,
    _SCHEMES,
    _STUDIES,
    CSV_HEADER,
    ConfigError,
    StudyConfig,
    _discretization,
    _project,
    _parse_number,
    main,
    manufactured_reports,
    parse_config,
    run_study,
)
from viscodg.errors import error_norms
from viscodg.linalg import SolverError, factor
from viscodg.manufactured import ManufacturedCase
from viscodg.stepper import Scheme, StepOperator, advance, initialize, run


def test_parse_number_fractions():
    assert _parse_number("1/2048") == 1.0 / 2048.0
    assert _parse_number("0.25") == 0.25
    assert _parse_number(" 3 ") == 3.0


def test_defaults():
    cfg = parse_config("")
    assert cfg.study == "hconv"
    assert cfg.scheme == "both"
    assert cfg.k == 1
    assert cfg.n == [4]
    assert cfg.dt == [0.25]
    assert cfg.alpha0 == 10.0
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
        n = 4, 8, 16
        dt = 1/2048
        T = 1
        alpha0 = 12.5
        out = results.csv
        """
    )
    assert cfg.study == "hconv"
    assert cfg.schemes() == [Scheme.DISPLACEMENT]
    assert cfg.k == 2
    assert cfg.n == [4, 8, 16]
    assert cfg.dt == [1.0 / 2048.0]
    assert cfg.alpha0 == 12.5
    assert cfg.out == "results.csv"


def test_parse_dt_h_sentinel():
    cfg = parse_config("dt = h")
    assert cfg.dt == [None]


def test_n_and_dt_keys_take_lists_like_their_flags():
    cfg = parse_config("study = tconv\nn = 8\ndt = 1/2, 1/4, h")
    assert (cfg.n, cfg.dt) == ([8], [0.5, 0.25, None])
    assert parse_config("study = hconv\nn = 2,4\ndt = 1/4").n == [2, 4]


@pytest.mark.parametrize("line", ["beta0 = 1", "ns = 2, 4", "dts = 1/4"])
def test_removed_keys_are_rejected(line):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(line)


def test_main_rejects_the_beta0_flag(capfd):
    with pytest.raises(SystemExit) as exit_info:
        main(["--study", "hconv", "--k", "1", "--n", "2", "--dt", "1/4", "--beta0", "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --beta0" in capfd.readouterr().err


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
    # a stability study takes no T: it runs to T = 5 and T = 10
    if study == "stability":
        T = None
    span = 5.0 if T is None else T
    dt = st.integers(1, 4096).map(lambda m: span / m)
    if whole or study == "stability":
        dt = st.none() | dt
    # one dt outside tconv, one n in tconv, one of each in stability; each
    # run refines the last: ns strictly increase, tconv's dts strictly decrease
    max_ns = 1 if study in ("tconv", "stability") else 4
    max_dts = 4 if study == "tconv" else 1
    ns = sorted(draw(st.lists(st.integers(1, 256), min_size=1, max_size=max_ns, unique=True)))

    def resolved(dt):
        return 1.0 / ns[0] if dt is None else dt

    dts = draw(st.lists(dt, min_size=1, max_size=max_dts, unique_by=resolved))
    phis = draw(st.lists(_floats(0.01, 0.3), min_size=1, max_size=3))
    out = st.text("abcXYZ019._-/", min_size=1, max_size=12)
    # a stability study writes no CSV
    out = st.none() if study == "stability" else st.none() | out
    return StudyConfig(
        study=study,
        scheme=draw(st.sampled_from(_SCHEMES)),
        k=draw(st.integers(1, 5)),
        n=ns,
        dt=sorted(dts, key=resolved, reverse=True),
        T=T,
        alpha0=draw(_floats(1e-3, 1e3)),
        rho=draw(_floats(0.1, 10.0)),
        phi0=1.0 - sum(phis),
        phis=tuple(phis),
        taus=tuple(draw(st.lists(_floats(0.01, 100.0), min_size=len(phis), max_size=len(phis)))),
        out=draw(out),
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
        parse_config("scheme = fast").validate()
    with pytest.raises(ConfigError):
        parse_config("k = 0").validate()
    with pytest.raises(ConfigError):
        parse_config("alpha0 = -1").validate()
    with pytest.raises(ConfigError, match=r"alpha0=1e\+308 must be positive with a finite alpha0/\|e\|"):
        parse_config("alpha0 = 1e308\nn = 2, 4").validate()
    with pytest.raises(ConfigError):
        parse_config("dt = 0.3").validate()  # T=1 not an integral multiple
    with pytest.raises(ConfigError):
        parse_config("phi0 = 0.9").validate()  # coefficients no longer sum to 1


def test_a_key_given_twice_is_a_config_error(tmp_path, capfd):
    # the file's second k would silently win; a flag still overrides the file
    text = "k = 1\nk = 2\nn = 2\ndt = 1/4\nT = 1/4\nscheme = displacement\n"
    with pytest.raises(ConfigError, match="^line 2: 'k' is already set on line 1$"):
        parse_config(text)
    cfgfile = tmp_path / "twice.cfg"
    cfgfile.write_text(text)
    assert main(["--config", str(cfgfile)]) == 2
    assert capfd.readouterr().err == "config error: line 2: 'k' is already set on line 1\n"
    cfgfile.write_text(text.replace("k = 2\n", ""))
    assert main(["--config", str(cfgfile), "--k", "2"]) == 0
    assert "\ndisplacement,2,2," in capfd.readouterr().out


@pytest.mark.parametrize("study", ["nope", "single", "penalty"])
def test_unknown_study_names_the_studies(study):
    message = rf"unknown study '{study}' \(choose hconv, tconv, stability\)"
    with pytest.raises(ConfigError, match=message):
        parse_config(f"study = {study}").validate()


def test_hconv_study_with_one_n_prints_its_rows(tmp_path):
    out = tmp_path / "run.csv"
    cfg = StudyConfig(study="hconv", scheme="both", k=1, n=[2], dt=[0.25], out=str(out))
    buf = io.StringIO()
    rows = run_study(cfg, out=buf)
    assert rows[0] == CSV_HEADER
    assert len(rows) == 3  # header + one row per scheme
    # one run has no rate to print: stdout carries the CSV rows instead
    assert buf.getvalue() == "\n".join(rows) + "\n"
    assert rows[1].startswith("displacement,1,2,")
    assert rows[2].startswith("velocity,1,2,")
    assert out.read_text().strip().splitlines() == rows
    # errors are finite and positive
    for row in rows[1:]:
        vals = [float(v) for v in row.split(",")[5:]]
        assert all(np.isfinite(v) and v > 0 for v in vals)


def test_study_is_deterministic():
    cfg = StudyConfig(study="hconv", scheme="displacement", k=1, n=[2], dt=[0.25])
    rows1 = run_study(cfg, out=io.StringIO())
    rows2 = run_study(cfg, out=io.StringIO())
    assert rows1 == rows2


def test_hconv_rate_table_and_rates():
    cfg = StudyConfig(study="hconv", scheme="displacement", k=1, n=[2, 4], dt=[1.0 / 64])
    buf = io.StringIO()
    rows = run_study(cfg, out=buf)
    assert "convergence rates (displacement form)" in buf.getvalue()
    # recompute the H1 rate from the CSV rows; spatial accuracy ~ O(h)
    errs = [float(r.split(",")[6]) for r in rows[1:]]
    rate = np.log(errs[0] / errs[1]) / np.log(2.0)
    assert 0.7 < rate < 1.4


def test_tconv_scales_use_dt():
    cfg = StudyConfig(
        study="tconv", scheme="displacement", k=1, n=[2], dt=[0.5, 0.25]
    )
    buf = io.StringIO()
    rows = run_study(cfg, out=buf)
    assert len(rows) == 3
    dts = [float(r.split(",")[4]) for r in rows[1:]]
    assert dts == [0.5, 0.25]


def test_study_keeps_one_system_alive_at_a_time(monkeypatch):
    # each mesh's system is assembled once, advances both schemes, and is freed
    # before the next mesh's is assembled; the rows stay scheme-major
    systems, alive = [], []

    def tracked_discretization(cfg, n):
        system = _discretization(cfg, n)
        systems.append(weakref.ref(system))
        return system

    def counted_advance(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in systems))
        return advance(*args, **kwargs)

    monkeypatch.setattr("viscodg.cli._discretization", tracked_discretization)
    monkeypatch.setattr("viscodg.cli.advance", counted_advance)
    cfg = StudyConfig(study="hconv", scheme="both", k=1, n=[2, 4], dt=[0.25])
    rows = run_study(cfg, out=io.StringIO())
    assert len(systems) == 2
    assert alive == [1, 1, 1, 1]
    assert [row.split(",")[:3] for row in rows[1:]] == [
        [scheme, "1", n] for scheme in ("displacement", "velocity") for n in ("2", "4")
    ]


@pytest.mark.parametrize(
    "settings, factored",
    [
        # per system A and M once for the projection, and K once per dt for both forms
        (dict(study="hconv", n=[2, 4], dt=[0.25]), 6),
        (dict(study="tconv", n=[2], dt=[0.25, 0.125]), 4),
        (dict(study="stability", n=[2], dt=[0.25]), 3),
    ],
)
def test_studies_factor_once_per_system_and_dt(monkeypatch, settings, factored):
    calls = []

    def counted_factor(matrix):
        calls.append(matrix.shape)
        return factor(matrix)

    monkeypatch.setattr("viscodg.stepper.factor", counted_factor)
    run_study(StudyConfig(scheme="both", k=1, **settings), out=io.StringIO())
    assert len(calls) == factored


def test_manufactured_reports_are_runs_that_free_each_operator_before_its_norms(
    monkeypatch, small_setup
):
    # one projection, and one operator per dt for both forms, dead before its
    # norms; each report is bit for bit the one of a run of its own
    _, space, system = small_setup
    projections, ops, dead = [], [], []

    def counted_initialize(*args):
        projections.append(args)
        return initialize(*args)

    def tracked_build(system, dt):
        op = StepOperator.build(system, dt)
        ops.append(weakref.ref(op))
        return op

    def checked_norms(*args, **kwargs):
        dead.append(ops[-1]() is None)
        return error_norms(*args, **kwargs)

    monkeypatch.setattr("viscodg.cli.initialize", counted_initialize)
    monkeypatch.setattr("viscodg.cli.StepOperator", SimpleNamespace(build=tracked_build))
    monkeypatch.setattr("viscodg.cli.error_norms", checked_norms)
    dts = [1 / 4, 1 / 8]
    reports = manufactured_reports(system, list(Scheme), dts, 0.5)
    assert (len(projections), len(ops), dead) == (1, 2, [True] * 4)
    assert list(reports) == [(s, dt) for dt in dts for s in Scheme]
    case = ManufacturedCase(system.material)
    data = case.displacement_at(0.0), case.grad_displacement_at(0.0), case.velocity_at(0.0)
    loads = case.body_force_at, case.traction_at
    for (scheme, dt), report in reports.items():
        state = run(scheme, space, system, system.material, 0.5, dt, *data, *loads)
        assert report == error_norms(state, case, space, system, dt=dt)


@settings(max_examples=10, deadline=None)
@given(
    schemes=st.lists(st.sampled_from(list(Scheme)), unique=True, max_size=2),
    dts=st.lists(st.sampled_from([1 / 4, 1 / 8, 1 / 16]), min_size=1, max_size=3, unique=True).map(
        lambda dts: sorted(dts, reverse=True)
    ),
)
@example(schemes=list(Scheme), dts=[1 / 4, 1 / 8, 1 / 16])
def test_each_report_of_a_sweep_is_its_own_sweep(small_setup, schemes, dts):
    # the runs share one projected state: a step that wrote into it would
    # change every later run of the sweep
    system = small_setup[2]
    reports = manufactured_reports(system, schemes, dts, 0.5)
    assert list(reports) == [(s, dt) for dt in dts for s in schemes]
    for (scheme, dt), report in reports.items():
        assert report == manufactured_reports(system, [scheme], [dt], 0.5)[scheme, dt]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stability_study_output(monkeypatch, k):
    # one advance per scheme, to T=10; the T=5 peak is read off its first half,
    # and the study's blockwise energy is the sparse oracle's at every degree
    runs = []

    def counted_advance(state, op, T, *args, **kwargs):
        runs.append((state.scheme, T))
        return advance(state, op, T, *args, **kwargs)

    monkeypatch.setattr("viscodg.cli.advance", counted_advance)
    cfg = StudyConfig(study="stability", scheme="both", k=k, n=[2], dt=[0.25])
    buf = io.StringIO()
    run_study(cfg, out=buf)
    text = buf.getvalue()
    for s in cfg.schemes():
        assert f"stability ({s.value} form)" in text
    assert "ratio" in text
    assert runs == [(s, 10.0) for s in cfg.schemes()]
    # the T=5 peak is the one a run that stops at T=5 sees
    system = _discretization(cfg, 2)
    space = system.space
    case = ManufacturedCase(cfg.material())
    energy = assemble_volume_stiffness(space, case.material) + system.J
    for s in cfg.schemes():
        peaks = []

        def track(state):
            peaks.append(float(state.W @ (system.M @ state.W) + state.U @ (energy @ state.U)))

        run(
            s,
            space,
            system,
            case.material,
            5.0,
            0.25,
            u0=case.displacement_at(0.0),
            grad_u0=case.grad_displacement_at(0.0),
            w0=case.velocity_at(0.0),
            diagnostics=track,
        )
        assert f"({s.value} form): max energy T=5: {max(peaks):.6e}  T=10" in text


def test_main_config_file(tmp_path, capfd):
    cfgfile = tmp_path / "study.cfg"
    cfgfile.write_text("study = hconv\nscheme = displacement\nn = 2\ndt = 1/4\n")
    assert main(["--config", str(cfgfile)]) == 0
    assert CSV_HEADER in capfd.readouterr().out


def test_main_flag_overrides(tmp_path):
    out = tmp_path / "o.csv"
    rc = main(
        ["--study", "hconv", "--scheme", "velocity", "--k", "1", "--n", "2",
         "--dt", "1/4", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("velocity,1,2,")


def test_main_validates_a_config_file_after_its_flags(tmp_path, capfd):
    # two dts are wrong for the file's hconv study but right for the flag's tconv
    cfgfile = tmp_path / "s.cfg"
    cfgfile.write_text("study = hconv\nn = 4\ndt = 1/4, 1/8\nT = 1/4\n")
    flags = ["--study", "tconv", "--scheme", "displacement", "--k", "1"]
    assert main(["--config", str(cfgfile), *flags]) == 0
    from_file = capfd.readouterr()
    assert from_file.err == ""
    assert main([*flags, "--n", "4", "--dt", "1/4, 1/8", "--T", "1/4"]) == 0
    assert capfd.readouterr().out == from_file.out
    # the file alone still fails, once the settings are checked together
    assert main(["--config", str(cfgfile)]) == 2
    assert "a hconv study takes one dt, got 2" in capfd.readouterr().err


def test_main_bad_config_exit_code(tmp_path, capfd):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("k = 0\n")
    assert main(["--config", str(cfgfile)]) == 2
    assert "config error" in capfd.readouterr().err


def test_main_negative_final_time_exit_code(capfd):
    assert main(["--study", "hconv", "--k", "1", "--n", "2", "--dt", "1/4", "--T", "-1"]) == 2
    assert "T must be positive" in capfd.readouterr().err
    with pytest.raises(ConfigError, match="T must be positive"):
        parse_config("T = 0").validate()


@pytest.mark.parametrize(
    "flag, value", [("--T", "inf"), ("--dt", "nan"), ("--alpha0", "inf"), ("--T", "1e400")]
)
def test_main_non_finite_value_exit_code(capfd, flag, value):
    args = {"--study": "hconv", "--k": "1", "--n": "2", "--dt": "1/4", "--T": "1"}
    args[flag] = value
    assert main([item for pair in args.items() for item in pair]) == 2
    assert "config error: bad value" in capfd.readouterr().err
    with pytest.raises(ValueError, match="finite"):
        _parse_number(value)


def test_main_fraction_past_the_float_range_exit_code(capfd):
    value = "1" + "0" * 400 + "/1"  # float() of the fraction raises OverflowError
    assert main(["--k", "1", "--n", "2", "--dt", "1/4", "--T", value]) == 2
    assert capfd.readouterr().err == f"config error: bad value for 'T': {value}\n"


_REJECTED = [
    # (arguments, start of the error message)
    # T/dt is within 1e-9 of 3 steps but not within run's 1e-12 * T
    ("--study hconv --scheme displacement --k 1 --n 2 --dt 0.333333333334 --T 1", "T="),
    # no number of steps reaches T: 0 steps of 1/4 fall 1e-300 short
    ("--study hconv --k 1 --n 2 --dt 1/4 --T 1e-300", "T="),
    # the single study is folded into hconv: the old command is refused, not run
    ("--study single --scheme displacement --k 1 --n 2 --dt 1/4 --T 1", "unknown study 'single'"),
    # dt = h = 1/3 does not divide T
    ("--study hconv --scheme displacement --k 1 --n 3 --dt h --T 0.5", "T="),
    # dt divides T, but not the stability horizons T=5 and T=10
    ("--study stability --scheme displacement --k 1 --n 2 --dt 0.3 --T 0.9", "T="),
    # only the second mesh's dt = h fails
    ("--study hconv --scheme displacement --k 1 --n 2,3 --dt h --T 0.5", "T="),
    # an hconv study would run the first dt only
    ("--study hconv --k 1 --n 2,4 --dt 1/4,1/8 --T 1/2", "a hconv study takes one dt"),
    ("--study tconv --k 1 --n 2,4 --dt 1/4,1/8 --T 1/2", "a tconv study takes one n"),
    ("--study stability --k 1 --n 2 --dt 1/4,1/8", "a stability study takes one dt"),
    ("--study stability --k 1 --n 2,4 --dt h", "a stability study takes one n"),
    # a stability study would write nothing to it
    ("--study stability --k 1 --n 2 --dt 1/4 --out x.csv", "a stability study writes no CSV"),
    # nor run to it
    ("--study stability --k 1 --n 2 --dt 1/4 --T 3", "a stability study runs to T=5 and T=10"),
    # the rate table of a study needs each run to refine the last
    ("--study hconv --k 1 --n 4,2 --dt 1/4 --T 0.25", "mesh subdivisions must strictly increase"),
    ("--study hconv --k 1 --n 2,2 --dt 1/4 --T 0.25", "mesh subdivisions must strictly increase"),
    ("--study tconv --k 1 --n 2 --dt 1/8,1/4 --T 0.25", "time steps must strictly decrease"),
    # a degree the reference basis cannot represent, refused before any assembly
    ("--study hconv --k 12 --n 1 --dt 1/4 --T 1/4", "degree k=12 is too high"),
    # checked before the O(k^4) Vandermonde is built
    ("--study hconv --k 100000 --n 1 --dt 1/4 --T 1/4", "degree k=100000 is too high"),
    ("--study hconv --k 0 --n 1 --dt 1/4 --T 1/4", "polynomial degree must be >= 1, got 0"),
]


def _no_run(*args, **kwargs):
    raise AssertionError("a run or assembly started for a config that fails its checks")


@pytest.mark.parametrize("args, message", _REJECTED, ids=[args for args, _ in _REJECTED])
def test_main_rejects_runs_that_would_fail(capfd, monkeypatch, args, message):
    # initialize is the first solver work of a study
    monkeypatch.setattr("viscodg.cli.initialize", _no_run)
    monkeypatch.setattr("viscodg.cli.assemble_system", _no_run)
    assert main(args.split()) == 2
    assert f"config error: {message}" in capfd.readouterr().err


def test_main_rejects_an_unknown_scheme_as_a_config_error(capfd, monkeypatch):
    # no argparse choices: validate checks the scheme, as it does in a file
    monkeypatch.setattr("viscodg.cli.initialize", _no_run)
    assert main(["--scheme", "fast", "--k", "1", "--n", "2", "--dt", "1/4"]) == 2
    message = "config error: unknown scheme 'fast' (choose displacement, velocity, both)"
    assert capfd.readouterr().err.splitlines() == [message]


def test_run_study_checks_its_config_before_any_run(monkeypatch):
    # a library caller need not validate: run_study would drop all but one dt
    monkeypatch.setattr("viscodg.cli.initialize", _no_run)
    cfg = parse_config("study = hconv\nn = 4\ndt = 1/4, 1/8\nT = 1/4")
    with pytest.raises(ConfigError, match="a hconv study takes one dt, got 2"):
        run_study(cfg, out=io.StringIO())


def test_readme_command_lines_pass_the_config_checks(tmp_path, capfd, monkeypatch):
    # every viscodg line of the README's Command line section, with its ini
    # block as study.cfg: a renamed study, flag or key fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```(\w+)\n(.*?)```", section, flags=re.DOTALL)
    commands = [
        line for lang, body in blocks if lang == "sh" for line in body.splitlines()
        if line.startswith("viscodg ")
    ]
    [config] = [body for lang, body in blocks if lang == "ini"]
    assert commands
    (tmp_path / "study.cfg").write_text(config)
    monkeypatch.chdir(tmp_path)
    studies = []

    def checked_study(cfg, out=None):
        cfg.validate()  # as run_study does before any run
        studies.append(cfg)

    monkeypatch.setattr("viscodg.cli.run_study", checked_study)
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, (command, capfd.readouterr().err)
    assert len(studies) == len(commands)


def test_main_rejects_an_unwritable_out_before_any_run(tmp_path, capfd, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the CSV file was opened")

    monkeypatch.setattr("viscodg.cli.initialize", no_run)
    out = tmp_path / "no such dir" / "x.csv"
    args = ["--study", "hconv", "--k", "1", "--n", "2,4", "--dt", "1/4", "--out", str(out)]
    assert main(args) == 2
    assert f"config error: cannot write out={out}" in capfd.readouterr().err
    assert not out.parent.exists()


def test_main_solver_failure_exit_code(capfd, monkeypatch):
    def failing_study(cfg, out=None):
        raise SolverError("solve residual 1 exceeds tolerance")

    monkeypatch.setattr("viscodg.cli.run_study", failing_study)
    assert main(["--study", "hconv", "--k", "1", "--n", "2", "--dt", "1/4"]) == 3
    err = capfd.readouterr().err
    assert "solver failure (alpha0=10.0, k=1, (n, dt) = (2, 0.25))" in err
    assert "solve residual 1 exceeds tolerance" in err


def test_main_runs_a_tau_whose_inverse_square_overflows(tmp_path, capfd):
    # 1/tau_q^2 overflows for tau_q = 1e-200: the manufactured forcing, which
    # holds for any tau_q > 0, must still be finite
    cfgfile = tmp_path / "tiny_tau.cfg"
    cfgfile.write_text("taus = 1e-200, 1.5\n")
    args = ["--config", str(cfgfile), "--k", "1", "--n", "2", "--dt", "1/4", "--T", "1/4"]
    assert main(args) == 0
    captured = capfd.readouterr()
    assert captured.err == ""
    assert CSV_HEADER in captured.out


@pytest.mark.parametrize("dt", [1.2e-154, 1e-150])
def test_main_runs_a_step_whose_2_over_dt_squared_nears_the_float_range(capfd, dt):
    # the step solves for the increment U1 - U0, so only K carries 2/dt^2: one
    # step leaves both forms at the errors of the t=0 projection
    assert main(f"--k 1 --n 2 --dt {dt!r} --T {dt!r}".split()) == 0
    assert capfd.readouterr().err == ""
    system = _discretization(StudyConfig(k=1), 2)
    case, initial = _project(system)
    expected = error_norms(initial, case, system.space, system).as_row()
    reports = manufactured_reports(system, list(Scheme), [dt], dt)
    assert len(reports) == 2
    for report in reports.values():
        assert np.allclose(report.as_row(), expected, rtol=1e-12, atol=0.0)


# each failing run names its (n, dt) and what was measured: with rho = 100, K's
# M weight rho 2/dt^2 overflows; with rho = 1e6, the norm of the first step's
# right-hand side overflows, its M W0 term weighted by rho 2/dt = 2e156;
# alpha0 = 1e25 leaves A SPD but too badly scaled for SuperLU
_SOLVER_FAILURES = [
    (
        "--k 1 --n 2 --dt 1.2e-154 --T 1.2e-154",
        "rho = 100",
        r"alpha0=10\.0, k=1, \(n, dt\) = \(2, 1\.2e-154\)\): overflow encountered in multiply",
    ),
    (
        "--k 1 --n 2 --dt 1e-150 --T 1e-150",
        "rho = 1e6",
        r"alpha0=10\.0, k=1, \(n, dt\) = \(2, 1e-150\)\):"
        r" right-hand side norm overflows \(max \|b\| = \S+\)",
    ),
    (
        "--k 1 --n 2 --alpha0 1e25 --dt 1/4 --T 1/4",
        None,
        r"alpha0=1e\+25, k=1, \(n, dt\) = \(2, 0\.25\)\):"
        r" solve residual \S+ exceeds 1e-8: the matrix is not SPD or is too badly scaled",
    ),
]


@pytest.mark.parametrize(
    "args, config, message",
    _SOLVER_FAILURES,
    ids=[args + (f" with {config}" if config else "") for args, config, _ in _SOLVER_FAILURES],
)
def test_main_solver_failures_name_the_run_and_the_measured_cause(
    tmp_path, capfd, args, config, message
):
    argv = args.split()
    if config is not None:
        cfgfile = tmp_path / "material.cfg"
        cfgfile.write_text(config + "\n")
        argv = ["--config", str(cfgfile)] + argv
    assert main(argv) == 3
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(r"solver failure \(" + message, lines[0]), lines[0]


_MATERIAL_KEYS = ("rho", "phi0", "phis", "taus")


def test_main_takes_every_key_but_the_material_ones_as_a_flag(tmp_path, monkeypatch):
    values = {
        "study": "tconv",
        "scheme": "velocity",
        "k": "2",
        "n": "3",
        "dt": "1/4,1/8",
        "T": "1/2",
        "alpha0": "12",
        "out": str(tmp_path / "x.csv"),
    }
    assert len(values) == 8 and set(values) | set(_MATERIAL_KEYS) == set(_KEYS)
    studies = []
    monkeypatch.setattr("viscodg.cli.run_study", lambda cfg, out=None: studies.append(cfg))
    assert main([arg for key, value in values.items() for arg in (f"--{key}", value)]) == 0
    # each flag is parsed like its key
    assert studies == [parse_config("".join(f"{k} = {v}\n" for k, v in values.items()))]


@pytest.mark.parametrize("key", _MATERIAL_KEYS)
def test_main_has_no_material_flags(capfd, monkeypatch, key):
    def no_study(cfg, out=None):
        raise AssertionError("study started with an unknown flag")

    monkeypatch.setattr("viscodg.cli.run_study", no_study)
    with pytest.raises(SystemExit) as exc:
        main(["--k", "1", "--n", "2", "--dt", "1/4", f"--{key}", "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{key} 2" in capfd.readouterr().err


def test_help_describes_every_flag(capfd):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = " ".join(capfd.readouterr().out.split())  # argparse wraps its help lines
    for flag, text in (
        ("--k K", "polynomial degree of the DG space"),
        ("--T T", "final time (default 1)"),
        ("--alpha0 ALPHA0", "SIPG penalty alpha0 (default 10)"),
    ):
        assert f"{flag} {text}" in out, flag
    for key, (_, help_text) in _KEYS.items():
        assert help_text != "", key  # a flag listed bare says nothing


def test_main_missing_config_file(capfd):
    assert main(["--config", "/no/such/file.cfg"]) == 2
    capfd.readouterr()


def _spread(lo_exp: int, hi_exp: int):
    """Positive finite floats m 10^e, m in [1, 10), e in [lo_exp, hi_exp]."""
    return st.builds(
        lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(lo_exp, hi_exp)
    )


# the closed form of the manufactured exp kernel divides by 1 - tau
_TAUS_NEAR_ONE = st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 1e-7, 1.0 + 1e-6])


@settings(max_examples=150, deadline=None)
@given(
    dt=_spread(-323, 307),
    steps=st.integers(1, 3),
    alpha0=_spread(-323, 307),
    tau=_spread(-323, 307) | _TAUS_NEAR_ONE,
    n=st.integers(1, 2),
)
# the step coefficients 2/dt^2 and 1/dt overflow, and underflow
@example(dt=1e200, steps=1, alpha0=10.0, tau=1.5, n=2)
@example(dt=1e-300, steps=1, alpha0=10.0, tau=1.5, n=2)
# the penalty weight alpha0/|e| overflows, and the residual norm of a solve
@example(dt=0.25, steps=1, alpha0=1e308, tau=1.5, n=2)
@example(dt=0.25, steps=1, alpha0=1e300, tau=1.5, n=2)
# the closed-form kernel divides by 1 - tau = 0
@example(dt=0.25, steps=1, alpha0=10.0, tau=1.0, n=2)
# 2 tau overflows: a config error, raised by the material before any run
@example(dt=0.25, steps=1, alpha0=10.0, tau=9.99e307, n=2)
# 2/dt^2 near the float range: the step's right-hand side carries no 2/dt^2
# term, so the first runs; K of the second, with alpha0 = 1e160, is too badly
# scaled for its solve to pass the residual check
@example(dt=1.2e-154, steps=1, alpha0=10.0, tau=1.5, n=2)
@example(dt=1e-150, steps=1, alpha0=1e160, tau=1.5, n=2)
def test_main_ends_extreme_inputs_with_an_exit_code(tmp_path_factory, dt, steps, alpha0, tau, n):
    # no traceback and no numpy warning (both fail the test): a run, a config
    # error or a solver failure, each with at most one line on stderr
    cfgfile = tmp_path_factory.mktemp("cfg") / "extreme.cfg"
    cfgfile.write_text(f"phi0 = 0.5\nphis = 0.5\ntaus = {tau!r}\n")
    args = ["--config", str(cfgfile), "--study", "hconv", "--k", "1", "--n", str(n)]
    args += ["--dt", repr(dt), "--T", repr(steps * dt), "--alpha0", repr(alpha0)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(args)
    assert rc in (0, 2, 3)
    if not np.isfinite(2.0 * tau):  # the material rejects it before any run
        assert rc == 2, err.getvalue()
    assert (rc == 0) == (err.getvalue() == ""), err.getvalue()
    assert err.getvalue().count("\n") <= 1, err.getvalue()
