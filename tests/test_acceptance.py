"""Acceptance gate for the viscoelastic SIPG solver.

Each test covers one numbered criterion of the verification benchmark and
prints a single PASS/FAIL line.  Reference error magnitudes are the published
values of the benchmark convergence study; rate tolerances are stated with
each criterion.  Heavy runs are shared through module-scoped fixtures.
"""

import sys

import numpy as np
import pytest

import conftest
from conftest import (
    acceleration,
    assemble_volume_stiffness,
    average_jump,
    forcing_values,
    internal_displacement,
    internal_displacement_oracle,
    internal_velocity,
    internal_velocity_oracle,
    stress,
    stress_oracle,
)

from viscodg.assembly import assemble_system
from viscodg.cli import manufactured_reports
from viscodg.errors import convergence_rate, error_norms
from viscodg.linalg import SolverError, factor
from viscodg.mesh import EdgeTag, build_structured_mesh
from viscodg.space import DGSpace
from viscodg.stepper import (
    Scheme,
    State,
    StepOperator,
    initialize,
    run,
    step_displacement,
    step_velocity,
)

# Published benchmark errors at dt = 1/2048, identical for both schemes.
# Keyed by (k, n); values are (displacement error, velocity error).
H1_REF = {
    (1, 4): (1.298e-01, 1.951e-01),
    (1, 8): (6.177e-02, 8.741e-02),
    (1, 16): (2.993e-02, 4.130e-02),
    (1, 32): (1.473e-02, 2.001e-02),
    (2, 4): (3.168e-03, 4.996e-03),
    (2, 8): (8.030e-04, 1.284e-03),
    (2, 16): (2.008e-04, 3.256e-04),
    (2, 32): (5.010e-05, 8.206e-05),
}
L2_REF = {
    (1, 4): (1.067e-02, 2.293e-02),
    (1, 8): (2.808e-03, 6.691e-03),
    (1, 16): (7.094e-04, 1.182e-03),
    (1, 32): (1.781e-04, 4.686e-04),
    (2, 4): (8.362e-05, 1.496e-04),
    (2, 8): (1.011e-05, 1.861e-05),
    (2, 16): (1.231e-06, 2.315e-06),
    (2, 32): (1.515e-07, 2.906e-07),
}

SPATIAL_NS = (4, 8, 16, 32)
DT_FINE = 1.0 / 2048.0


def _emit(num, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {title}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    conftest.acceptance_lines.append(line)
    assert ok, line


def _system(case, n, k, alpha0=10.0):
    return assemble_system(DGSpace.build(build_structured_mesh(n), k), case.material, alpha0)


@pytest.fixture(scope="module")
def spatial_runs(case):
    """Both schemes, k in {1, 2}, n in {4, ..., 32}, dt = 1/2048."""
    out = {}
    for k in (1, 2):
        for n in SPATIAL_NS:
            reports = manufactured_reports(_system(case, n, k), list(Scheme), [DT_FINE], 1.0)
            out.update(((scheme, k, n), rep) for (scheme, _), rep in reports.items())
    return out


@pytest.fixture(scope="module")
def temporal_runs(case):
    """Both schemes on the n=128, k=2 mesh with dt in {1/4, 1/8, 1/16}."""
    return manufactured_reports(_system(case, 128, 2), list(Scheme), (0.25, 0.125, 0.0625), 1.0)


@pytest.fixture(scope="module")
def dt_equals_h_runs(case):
    """Displacement form with dt = 1/n on successive meshes, k in {1, 2}."""
    out = {}
    for k in (1, 2):
        for n in SPATIAL_NS:
            reports = manufactured_reports(_system(case, n, k), [Scheme.DISPLACEMENT], [1.0 / n], 1.0)
            out[k, n] = reports[Scheme.DISPLACEMENT, 1.0 / n]
    return out


def _finest_rate(errs, ns):
    return convergence_rate(errs[-2:], [1.0 / n for n in ns[-2:]])[0]


@pytest.mark.slow
def test_criterion_1_spatial_h1(spatial_runs):
    details = []
    ok = True
    for scheme in Scheme:
        for k in (1, 2):
            u = [spatial_runs[scheme, k, n].err_u_H1 for n in SPATIAL_NS]
            w = [spatial_runs[scheme, k, n].err_w_H1 for n in SPATIAL_NS]
            ru = _finest_rate(u, SPATIAL_NS)
            rw = _finest_rate(w, SPATIAL_NS)
            ok &= abs(ru - k) <= 0.1 and abs(rw - k) <= 0.1
            for n, eu, ew in zip(SPATIAL_NS, u, w):
                ru_ref, rw_ref = H1_REF[k, n]
                ok &= 0.5 <= eu / ru_ref <= 2.0 and 0.5 <= ew / rw_ref <= 2.0
            details.append(f"{scheme.value[:4]} k={k}: d_c(u)={ru:.2f} d_c(w)={rw:.2f}")
    _emit(1, "spatial H1 convergence, dt=1/2048", ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_2_spatial_l2(spatial_runs):
    details = []
    ok = True
    for scheme in Scheme:
        for k in (1, 2):
            u = [spatial_runs[scheme, k, n].err_u_L2 for n in SPATIAL_NS]
            w = [spatial_runs[scheme, k, n].err_w_L2 for n in SPATIAL_NS]
            ru = _finest_rate(u, SPATIAL_NS)
            rw = _finest_rate(w, SPATIAL_NS)
            ok &= abs(ru - (k + 1)) <= 0.15 and abs(rw - (k + 1)) <= 0.15
            for n, eu, ew in zip(SPATIAL_NS, u, w):
                ru_ref, rw_ref = L2_REF[k, n]
                ok &= 0.5 <= eu / ru_ref <= 2.0 and 0.5 <= ew / rw_ref <= 2.0
            details.append(f"{scheme.value[:4]} k={k}: d_c(u)={ru:.2f} d_c(w)={rw:.2f}")
    _emit(2, "spatial L2 convergence, dt=1/2048", ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_3_temporal(temporal_runs):
    dts = (0.25, 0.125, 0.0625)
    details = []
    ok = True
    for scheme in Scheme:
        for name in ("err_u_L2", "err_u_H1", "err_w_L2", "err_w_H1"):
            errs = [getattr(temporal_runs[scheme, dt], name) for dt in dts]
            rate = convergence_rate(errs[-2:], list(dts[-2:]))[0]
            ok &= abs(rate - 2.0) <= 0.1
            details.append(f"{scheme.value[:4]} {name[4:]}={rate:.2f}")
    _emit(3, "temporal convergence, n=128 k=2", ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_4_scheme_equivalence(spatial_runs):
    worst = 0.0
    for k in (1, 2):
        for n in (4, 8, 16):
            d = spatial_runs[Scheme.DISPLACEMENT, k, n]
            v = spatial_runs[Scheme.VELOCITY, k, n]
            for a, b in zip(d.as_row(), v.as_row()):
                worst = max(worst, abs(a - b) / max(a, b))
    ok = worst < 0.005
    _emit(4, "displacement/velocity form equivalence", ok, f"max rel diff {worst:.2e}")


def test_criterion_5_penalty_failure(case):
    results = []
    failed_factorization = False
    for n in (2, 4, 8):
        try:
            system = _system(case, n, 1, alpha0=0.1)
            reports = manufactured_reports(system, [Scheme.DISPLACEMENT], [1.0 / n], 1.0)
            results += [rep.err_u_L2 for rep in reports.values()]
        except SolverError:
            failed_factorization = True
            break
    if failed_factorization:
        ok = True
        detail = "SPD factorization failed (accepted as loss of stability)"
    else:
        growth = [b / a for a, b in zip(results, results[1:])]
        ok = all(g >= 10.0 for g in growth) and results[-1] > 1e10
        detail = "L2 errors " + ", ".join(f"{e:.3e}" for e in results)
    _emit(5, "instability at alpha0=0.1", ok, detail)


def test_criterion_6_combined_rates(dt_equals_h_runs):
    h1_k1 = [dt_equals_h_runs[1, n].err_u_H1 for n in SPATIAL_NS]
    l2_k1 = [dt_equals_h_runs[1, n].err_u_L2 for n in SPATIAL_NS]
    h1_k2 = [dt_equals_h_runs[2, n].err_u_H1 for n in SPATIAL_NS]
    r_h1_k1 = _finest_rate(h1_k1, SPATIAL_NS)
    r_l2_k1 = _finest_rate(l2_k1, SPATIAL_NS)
    r_h1_k2 = _finest_rate(h1_k2, SPATIAL_NS)
    ok = (
        abs(r_h1_k1 - 1.0) <= 0.1
        and abs(r_l2_k1 - 2.0) <= 0.15
        and abs(r_h1_k2 - 2.0) <= 0.15
    )
    _emit(
        6,
        "combined space-time rates, dt=h",
        ok,
        f"H1 k=1: {r_h1_k1:.2f}; L2 k=1: {r_l2_k1:.2f}; H1 k=2: {r_h1_k2:.2f}",
    )


def test_criterion_7_long_time_stability(case):
    space = DGSpace.build(build_structured_mesh(8), 1)
    system = assemble_system(space, case.material, 10.0)
    energy_matrix = assemble_volume_stiffness(space, case.material) + system.J
    details = []
    ok = True
    for scheme in Scheme:
        peaks = {5.0: 0.0, 10.0: 0.0}

        def track(state):
            e = float(state.W @ (system.M @ state.W) + state.U @ (energy_matrix @ state.U))
            if state.t <= 5.0 + 1e-9:
                peaks[5.0] = max(peaks[5.0], e)
            peaks[10.0] = max(peaks[10.0], e)

        run(
            scheme,
            space,
            system,
            case.material,
            T=10.0,
            dt=0.05,
            u0=case.displacement_at(0.0),
            grad_u0=case.grad_displacement_at(0.0),
            w0=case.velocity_at(0.0),
            diagnostics=track,
        )
        excess = peaks[10.0] / peaks[5.0] - 1.0
        ok &= excess < 0.01
        details.append(f"{scheme.value[:4]}: T=10/T=5 excess {excess:.2e}")
    _emit(7, "long-time stability, homogeneous loads", ok, "; ".join(details))


def test_criterion_8a_block_system_oracle(case, small_setup, rng):
    _, space, system = small_setup
    dt = 0.125
    op = StepOperator.build(system, dt)
    worst = 0.0
    for scheme, step in (
        (Scheme.DISPLACEMENT, step_displacement),
        (Scheme.VELOCITY, step_velocity),
    ):
        N = space.total_dofs
        state = State(
            3,
            0.375,
            rng.standard_normal(N),
            rng.standard_normal(N),
            [rng.standard_normal(N) for _ in range(2)],
            scheme,
        )
        f_avg = rng.standard_normal(N)
        new = step(state, op, f_avg)
        U1, W1, internal = conftest.block_step_oracle(system, case.material, dt, state, f_avg)
        scale = max(1.0, np.abs(U1).max())
        worst = max(worst, np.abs(new.U - U1).max() / scale)
        worst = max(worst, np.abs(new.W - W1).max() / scale)
        for q in range(2):
            worst = max(worst, np.abs(new.internal[q] - internal[q]).max() / scale)
    ok = worst < 1e-10
    _emit("8a", "eliminated step matches block system", ok, f"max diff {worst:.2e}")


def test_criterion_8b_closed_forms_vs_quadrature(case):
    pts = [(0.3, 0.7), (1.0, 0.25), (0.8, 1.0)]
    times = [0.3, 1.0]
    worst = 0.0
    for x, y in pts:
        for t in times:
            for q in range(2):
                got = np.array(internal_displacement(case, q, x, y, t))
                ref = np.array(internal_displacement_oracle(case, q, x, y, t))
                worst = max(worst, np.abs(got - ref).max())
                got = np.array(internal_velocity(case, q, x, y, t))
                ref = np.array(internal_velocity_oracle(case, q, x, y, t))
                worst = max(worst, np.abs(got - ref).max())
            s_ref = np.array(stress_oracle(case, x, y, t))
            worst = max(worst, np.abs(np.array(stress(case, x, y, t)) - s_ref).max())
            # traction against the quadrature stress on the Neumann boundary
            if np.isclose(x, 1.0) or np.isclose(y, 1.0):
                n = np.array([1.0, 0.0]) if np.isclose(x, 1.0) else np.array([0.0, 1.0])
                g = np.array(forcing_values(case.traction_at(t), x, y, n))
                g_ref = np.array(
                    [
                        s_ref[0] * n[0] + s_ref[2] * n[1],
                        s_ref[2] * n[0] + s_ref[1] * n[1],
                    ]
                )
                worst = max(worst, np.abs(g - g_ref).max())
    # body force against rho u_tt - div sigma with the divergence taken by
    # Richardson-extrapolated central differences of the quadrature stress
    eps = 1e-3
    for x, y in [(0.35, 0.6), (0.7, 0.8)]:
        for t in times:

            def div_sigma(h):
                dx = (np.array(stress_oracle(case, x + h, y, t)) - np.array(stress_oracle(case, x - h, y, t))) / (2 * h)
                dy = (np.array(stress_oracle(case, x, y + h, t)) - np.array(stress_oracle(case, x, y - h, t))) / (2 * h)
                return np.array([dx[0] + dy[2], dx[2] + dy[1]])

            div = (4.0 * div_sigma(eps / 2) - div_sigma(eps)) / 3.0
            f_ref = case.material.rho * np.array(acceleration(case, x, y, t)) - div
            f = np.array(forcing_values(case.body_force_at(t), x, y))
            worst = max(worst, np.abs(f - f_ref).max())
    ok = worst < 1e-8
    _emit("8b", "closed-form data vs convolution quadrature", ok, f"max diff {worst:.2e}")


def test_criterion_8c_bilinear_form_identity(case, small_setup, rng):
    mesh, space, system = small_setup
    v = rng.standard_normal(space.total_dofs)
    edge_term = 0.0
    penalty = 0.0
    for e in np.flatnonzero(mesh.edges.tag != EdgeTag.NEUMANN):
        avg, jump, jump_outer = average_jump(space, v, e)
        length = mesh.edges.length[e]
        w = space.edge_weights * length
        edge_term += float(np.einsum("q,qab,qab->", w, avg, jump_outer))
        penalty += system.alpha0 / length * float(np.sum(w * np.sum(jump * jump, axis=-1)))
    A_vol = assemble_volume_stiffness(space, case.material)
    quad = v @ (A_vol @ v) - 2.0 * edge_term + penalty
    direct = v @ (system.A @ v)
    identity_err = abs(direct - quad) / max(1.0, abs(quad))
    symmetry_err = abs((system.A - system.A.T).toarray()).max()
    ok = identity_err < 1e-11 and symmetry_err < 1e-11
    # SPD check: factorization and residual-guarded solve succeed at alpha0=10
    try:
        x = factor(system.A).solve(np.ones(space.total_dofs))
        ok &= np.all(np.isfinite(x))
    except SolverError:
        ok = False
    _emit(
        "8c",
        "energy identity, symmetry and SPD factorization",
        ok,
        f"identity {identity_err:.2e}, asymmetry {symmetry_err:.2e}",
    )


def test_criterion_9_initial_data(case):
    details = []
    ok = True
    ns = (4, 8, 16)
    for k in (1, 2):
        en, l2 = [], []
        for n in ns:
            space = DGSpace.build(build_structured_mesh(n), k)
            system = assemble_system(space, case.material, 10.0)
            st = initialize(
                system,
                case.displacement_at(0.0),
                case.grad_displacement_at(0.0),
                case.velocity_at(0.0),
                Scheme.DISPLACEMENT,
            )
            rep = error_norms(st, case, space, system)
            en.append(rep.err_u_energy)
            l2.append(rep.err_w_L2)
        r_en = convergence_rate(en[-2:], [1.0 / n for n in ns[-2:]])[0]
        ok &= abs(r_en - k) <= 0.15
        if max(l2) < 1e-12:
            # w(0) is a polynomial of degree <= k: projected exactly
            details.append(f"k={k}: energy(U0)={r_en:.2f}, L2(W0) exact")
        else:
            r_l2 = convergence_rate(l2[-2:], [1.0 / n for n in ns[-2:]])[0]
            ok &= abs(r_l2 - (k + 1)) <= 0.15
            details.append(f"k={k}: energy(U0)={r_en:.2f}, L2(W0)={r_l2:.2f}")
    _emit(9, "initial-data projection rates", ok, "; ".join(details))
