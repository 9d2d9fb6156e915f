import dataclasses

import numpy as np
import pytest
from conftest import average_jump, mesh_text, scrambled_mesh_input
from hypothesis import given, settings
from hypothesis import strategies as st

from viscodg.assembly import (
    AssembledSystem,
    LoadAssembler,
    SeparableField,
    assemble_elliptic_rhs,
    assemble_mass,
    assemble_sipg,
    assemble_system,
    assemble_volume_stiffness,
)
from viscodg.linalg import factor
from viscodg.manufactured import ManufacturedCase
from viscodg.material import PronyMaterial
from viscodg.mesh import EdgeTag, build_structured_mesh, read_mesh
from viscodg.space import DGSpace


def test_mass_rejects_nonpositive_weight(small_setup):
    _, space, _ = small_setup
    with pytest.raises(ValueError):
        assemble_mass(space, 0.0)
    # NaN fails every comparison, so a bare `weight <= 0` would let it through
    for weight in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"weight {weight}"):
            assemble_mass(space, weight)


def test_p1_mass_block(small_setup):
    # reference P1 consistent mass on a triangle of area |E|:
    # |E|/12 * [[2,1,1],[1,2,1],[1,1,2]] per component
    _, space, _ = small_setup
    M = assemble_mass(space).toarray()
    area = 0.125
    ref = area / 12.0 * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    nd = space.dofs_per_element
    for t in (0, 3):
        dofs = np.arange(t * nd, (t + 1) * nd)
        block = M[np.ix_(dofs, dofs)]
        assert np.allclose(block[:3, :3], ref, atol=1e-14)
        assert np.allclose(block[3:, 3:], ref, atol=1e-14)
        assert np.allclose(block[:3, 3:], 0.0)


def test_mass_density_weight(small_setup):
    _, space, _ = small_setup
    M1 = assemble_mass(space, 1.0)
    M3 = assemble_mass(space, 3.0)
    assert abs((M3 - 3.0 * M1).toarray()).max() < 1e-14


def test_mass_integrates_constant(small_setup):
    # v = w = (1, 1): v' M w = int (1 + 1) = 2
    _, space, _ = small_setup
    M = assemble_mass(space)
    ones = space.interpolate(lambda x, y: (np.ones_like(x), np.ones_like(x)))
    assert abs(ones @ (M @ ones) - 2.0) < 1e-13


def test_volume_stiffness_energy(case, small_setup):
    # v = (x, 0): eps = diag(1, 0), energy = int eps:eps = 1
    _, space, _ = small_setup
    A_vol = assemble_volume_stiffness(space, case.material)
    v = space.interpolate(lambda x, y: (x, np.zeros_like(x)))
    assert abs(v @ (A_vol @ v) - 1.0) < 1e-13
    # shear v = (y, x): eps = [[0,1],[1,0]], energy = int 2 = 2
    v = space.interpolate(lambda x, y: (y, x))
    assert abs(v @ (A_vol @ v) - 2.0) < 1e-13
    # rigid motions carry no strain energy
    for rigid in (
        lambda x, y: (np.ones_like(x), np.zeros_like(x)),
        lambda x, y: (-y, x),
    ):
        v = space.interpolate(rigid)
        assert abs(v @ (A_vol @ v)) < 1e-13


def test_sipg_parameter_validation(case, small_setup):
    _, space, _ = small_setup
    with pytest.raises(ValueError):
        assemble_sipg(space, case.material, 0.0, 1.0)
    with pytest.raises(ValueError):
        assemble_sipg(space, case.material, 10.0, 0.5)
    # non-finite values, which a range check alone lets through (NaN fails every comparison)
    for alpha0, beta0, name in (
        (np.nan, 1.0, "alpha0=nan"),
        (np.inf, 1.0, "alpha0=inf"),
        (10.0, np.nan, "beta0=nan"),
        (10.0, np.inf, "beta0=inf"),
    ):
        with pytest.raises(ValueError, match=name):
            assemble_sipg(space, case.material, alpha0, beta0)


def test_sipg_symmetry_and_definiteness(small_setup, quadratic_setup):
    for _, space, system in (small_setup, quadratic_setup):
        A, J = system.A, system.J
        assert abs((A - A.T).toarray()).max() < 1e-12
        assert abs((J - J.T).toarray()).max() < 1e-12
        eig_a = np.linalg.eigvalsh(A.toarray())
        assert eig_a.min() > 0  # coercive at alpha0 = 10
        eig_j = np.linalg.eigvalsh(J.toarray())
        assert eig_j.min() > -1e-12  # penalty is positive semidefinite


def test_continuous_field_has_no_jump_energy(case, quadratic_setup):
    # a continuous interpolant vanishing on the Dirichlet boundary has
    # zero penalty energy and its SIPG energy reduces to the volume term
    _, space, system = quadratic_setup
    v = space.interpolate(lambda x, y: (x * y * (1 + x), x * y * y))
    assert abs(v @ (system.J @ v)) < 1e-12
    A_vol = assemble_volume_stiffness(space, case.material)
    assert abs(v @ (system.A @ v) - v @ (A_vol @ v)) < 1e-12


def test_translation_penalty_energy(case):
    # constant translation (1, 0): strains vanish, so v' A v is purely the
    # Dirichlet penalty alpha0/|e| * int |[v]|^2 = alpha0 per Dirichlet edge
    for n in (2, 4):
        mesh = build_structured_mesh(n)
        space = DGSpace.build(mesh, 1)
        system = assemble_system(space, case.material, alpha0=10.0, beta0=1.0)
        v = space.interpolate(lambda x, y: (np.ones_like(x), np.zeros_like(x)))
        n_dirichlet = np.sum(mesh.edges.tag == EdgeTag.DIRICHLET)
        assert n_dirichlet == 2 * n
        expected = 10.0 * n_dirichlet
        assert abs(v @ (system.A @ v) - expected) < 1e-10
        # brute-force edge-loop oracle for the same quantity
        brute = 0.0
        for e in np.flatnonzero(mesh.edges.tag != EdgeTag.NEUMANN):
            _, jump, _ = average_jump(space, v, e)
            length = mesh.edges.length[e]
            brute += (
                10.0
                / length
                * length
                * float(np.sum(space.edge_weights * np.sum(jump * jump, axis=-1)))
            )
        assert abs(v @ (system.A @ v) - brute) < 1e-10


def test_penalty_scaling_linearity(case, small_setup):
    _, space, _ = small_setup
    A1, J1 = assemble_sipg(space, case.material, 10.0, 1.0)
    A2, J2 = assemble_sipg(space, case.material, 20.0, 1.0)
    assert abs((A2 - A1 - J1).toarray()).max() < 1e-12
    assert abs((J2 - 2.0 * J1).toarray()).max() < 1e-12


def test_average_jump_continuous_field(case, small_setup):
    mesh, space, _ = small_setup
    v = space.interpolate(lambda x, y: (x + 2 * y, 3 * x - y))
    for e in range(len(mesh.edges)):
        avg, jump, jump_outer = average_jump(space, v, e)
        if mesh.edges.tag[e] == EdgeTag.INTERIOR:
            assert np.abs(jump).max() < 1e-13
            assert np.abs(jump_outer).max() < 1e-13
        # eps of (x+2y, 3x-y) is [[1, 2.5], [2.5, -1]] everywhere
        assert np.allclose(avg, [[1.0, 2.5], [2.5, -1.0]], atol=1e-12)


def test_average_jump_discontinuous_field(small_setup):
    # perturb one element and check the interior jump picks up the difference
    mesh, space, _ = small_setup
    v = space.interpolate(lambda x, y: (x, y))
    v2 = v.copy()
    t = 0
    nb = space.dofs_per_component
    v2[t * 2 * nb : t * 2 * nb + nb] += 1.0  # shift x-component on element 0
    elems = mesh.edges.elems
    for e in np.flatnonzero((mesh.edges.tag == EdgeTag.INTERIOR) & np.any(elems == t, axis=1)):
        _, jump, _ = average_jump(space, v2, e)
        sign = 1.0 if elems[e, 0] == t else -1.0
        assert np.allclose(jump[:, 0], sign * 1.0, atol=1e-13)
        assert np.abs(jump[:, 1]).max() < 1e-13


def test_load_vector_sums(small_setup):
    _, space, _ = small_setup
    F = LoadAssembler(space).assemble(f=lambda x, y: (np.ones_like(x), np.zeros_like(x)))
    ones_x = space.interpolate(lambda x, y: (np.ones_like(x), np.zeros_like(x)))
    assert abs(F @ ones_x - 1.0) < 1e-13  # int_Omega 1
    G = LoadAssembler(space).assemble(g_N=lambda x, y, n: (np.ones_like(x), np.zeros_like(x)))
    assert abs(G @ ones_x - 2.0) < 1e-13  # |Gamma_N| = 2
    Z = LoadAssembler(space).assemble()
    assert np.allclose(Z, 0.0)


def test_neumann_flux_balance(case, small_setup):
    # traction of the uniaxial field sigma = diag(1, 0): g = sigma.n
    _, space, _ = small_setup

    def g(x, y, n):
        return n[..., 0], np.zeros(np.broadcast_shapes(np.shape(x), n[..., 0].shape))

    G = LoadAssembler(space).assemble(g_N=g)
    ones_x = space.interpolate(lambda x, y: (np.ones_like(x), np.zeros_like(x)))
    # int over {x=1} of n_x = 1; over {y=1} n_x = 0
    assert abs(G @ ones_x - 1.0) < 1e-13


@settings(max_examples=20, deadline=None)
@given(
    k=st.sampled_from([1, 2]),
    rho=st.floats(0.5, 2.0),
    scrambled=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    times=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=5),
)
def test_separable_loads_match_plain_closures(k, rho, scrambled, seed, times):
    # one assembler over several time levels, as in a run: the separable
    # forcing (contracted once, then scaled) against pointwise pairs
    case = ManufacturedCase(PronyMaterial(rho, 0.5, (0.1, 0.4), (0.5, 1.5)))
    rng = np.random.default_rng(seed)
    if scrambled:
        mesh = read_mesh(mesh_text(*scrambled_mesh_input(3, rng)))
    else:
        mesh = build_structured_mesh(3)
    loads = LoadAssembler(DGSpace.build(mesh, k))
    for t in times:
        got = loads.assemble(case.body_force_at(t), case.traction_at(t))
        ref = loads.assemble(
            lambda x, y: tuple(case.body_force(x, y, t)),
            lambda x, y, n: tuple(case.traction(x, y, t, n)),
        )
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_separable_fields_callables_are_never_confused(small_setup):
    _, space, _ = small_setup

    def polynomial(x, y, *normal):
        return x * y, 1.0, y * y

    def trigonometric(x, y, *normal):
        return np.sin(x), np.cos(y), x

    coefficients = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 3.0]])
    loads = LoadAssembler(space)
    results = {}
    # the same callable also serves as domain and boundary fields at once
    for fields in (polynomial, trigonometric, trigonometric, polynomial):

        def separable(*points, fields=fields):
            return SeparableField(coefficients, fields, points)

        def plain(*points, fields=fields):
            return tuple(separable(*points))

        got = loads.assemble(separable, separable)
        assert np.abs(got - loads.assemble(plain, plain)).max() <= 1e-14 * np.abs(got).max()
        results.setdefault(fields.__name__, got)
        assert np.array_equal(got, results[fields.__name__])
    assert not np.allclose(results["polynomial"], results["trigonometric"])


def test_elliptic_rhs_reproduces_polynomials(case):
    # for u0 in the discrete space the elliptic projection is exact
    mesh = build_structured_mesh(2)
    for k in (1, 2):
        space = DGSpace.build(mesh, k)
        system = assemble_system(space, case.material, 10.0, 1.0)

        def u0(x, y):
            return x + 2 * y + 0.5 * x * y * (k - 1), 3 * x - y

        def grad_u0(x, y):
            o = np.ones_like(x)
            return (
                (1.0 * o + 0.5 * y * (k - 1), 2.0 * o + 0.5 * x * (k - 1)),
                (3.0 * o, -1.0 * o),
            )

        rhs = assemble_elliptic_rhs(space, case.material, u0, grad_u0, 10.0, 1.0)
        U = factor(system.A).solve(rhs)
        assert np.abs(U - space.interpolate(u0)).max() < 1e-9


def test_sipg_identity_with_average_jump(case, small_setup, rng):
    # v' A v = |volume strain energy| + penalty - 2 sum_e int {D eps(v)} : [v x n]
    mesh, space, system = small_setup
    v = rng.standard_normal(space.total_dofs)
    edge_term = 0.0
    penalty = 0.0
    for e in np.flatnonzero(mesh.edges.tag != EdgeTag.NEUMANN):
        avg, jump, jump_outer = average_jump(space, v, e)
        length = mesh.edges.length[e]
        w = space.edge_weights * length
        edge_term += float(np.einsum("q,qab,qab->", w, avg, jump_outer))
        penalty += (
            system.alpha0
            / length
            * float(np.sum(w * np.sum(jump * jump, axis=-1)))
        )
    A_vol = assemble_volume_stiffness(space, case.material)
    quad = v @ (A_vol @ v) - 2.0 * edge_term + penalty
    assert abs(v @ (system.A @ v) - quad) < 1e-11 * max(1.0, abs(quad))


def test_assembled_system_contents(case, small_setup):
    _, space, system = small_setup
    # the schemes need the mass, the SIPG form and its penalty part, nothing else
    fields = [f.name for f in dataclasses.fields(AssembledSystem)]
    assert fields == ["M", "A", "J", "alpha0", "beta0"]
    assert system.M.shape == (space.total_dofs, space.total_dofs)
    # rho = 1 here, so M is the plain mass, bit for bit
    assert abs(system.M - assemble_mass(space, 1.0)).max() == 0.0
    A, J = assemble_sipg(space, case.material, 10.0, 1.0)
    assert abs(system.A - A).max() == 0.0
    assert abs(system.J - J).max() == 0.0
    rho2 = PronyMaterial(rho=2.0, phi0=0.5, phis=(0.1, 0.4), taus=(0.5, 1.5))
    sys2 = assemble_system(space, rho2, 10.0, 1.0)
    assert abs((sys2.M - 2.0 * assemble_mass(space, 1.0)).toarray()).max() < 1e-14


def test_edge_split_covers_all(small_setup):
    mesh, _, _ = small_setup
    counts = [np.sum(mesh.edges.tag == tag) for tag in EdgeTag]
    assert sum(counts) == len(mesh.edges)
    assert min(counts) > 0
