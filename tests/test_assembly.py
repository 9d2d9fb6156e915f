import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import (
    assemble_volume_stiffness,
    average_jump,
    block_diagonal_mass,
    forcing_values,
    interpolate,
    scrambled_mesh_input,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from viscodg.assembly import (
    AssembledSystem,
    LoadAssembler,
    SeparableField,
    assemble_elliptic_rhs,
    assemble_system,
    grad_array,
)
from viscodg.linalg import factor
from viscodg.manufactured import ManufacturedCase
from viscodg.material import PronyMaterial
from viscodg.mesh import EdgeTag, TriMesh, build_structured_mesh
from viscodg.space import DGSpace


@settings(max_examples=25, deadline=None)
@given(
    k=st.sampled_from([1, 2, 3]),
    n=st.integers(1, 4),
    rho=st.floats(0.1, 10.0),
    scrambled=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_mass_matches_block_diagonal_oracle(k, n, rho, scrambled, seed):
    # M's CSR arrays, written from the nonzeros of the reference mass block,
    # are those of the block-diagonal BSR conversion, bit for bit
    rng = np.random.default_rng(seed)
    if scrambled:
        mesh = TriMesh(*scrambled_mesh_input(n, rng))
    else:
        mesh = build_structured_mesh(n)
    space = DGSpace.build(mesh, k)
    M = assemble_system(space, PronyMaterial(rho, 0.5, (0.1, 0.4), (0.5, 1.5))).M
    ref = block_diagonal_mass(space, rho)
    for part in ("data", "indices", "indptr"):
        got, want = getattr(M, part), getattr(ref, part)
        assert got.dtype == want.dtype and np.array_equal(got, want), part


def test_p1_mass_block(small_setup):
    # reference P1 consistent mass on a triangle of area |E|:
    # |E|/12 * [[2,1,1],[1,2,1],[1,1,2]] per component (rho = 1 here)
    _, space, system = small_setup
    M = system.M.toarray()
    area = 0.125
    ref = area / 12.0 * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    nd = space.dofs_per_element
    for t in (0, 3):
        dofs = np.arange(t * nd, (t + 1) * nd)
        block = M[np.ix_(dofs, dofs)]
        assert np.allclose(block[:3, :3], ref, atol=1e-14)
        assert np.allclose(block[3:, 3:], ref, atol=1e-14)
        assert np.allclose(block[:3, 3:], 0.0)


def test_mass_integrates_constant(small_setup):
    # v = w = (1, 1): v' M w = rho int (1 + 1) = 2 at rho = 1
    _, space, system = small_setup
    ones = interpolate(space, lambda x, y: (np.ones_like(x), np.ones_like(x)))
    assert abs(ones @ (system.M @ ones) - 2.0) < 1e-13


def test_volume_stiffness_energy(case, small_setup):
    # v = (x, 0): eps = diag(1, 0), energy = int eps:eps = 1
    _, space, _ = small_setup
    A_vol = assemble_volume_stiffness(space, case.material)
    v = interpolate(space, lambda x, y: (x, np.zeros_like(x)))
    assert abs(v @ (A_vol @ v) - 1.0) < 1e-13
    # shear v = (y, x): eps = [[0,1],[1,0]], energy = int 2 = 2
    v = interpolate(space, lambda x, y: (y, x))
    assert abs(v @ (A_vol @ v) - 2.0) < 1e-13
    # rigid motions carry no strain energy
    for rigid in (
        lambda x, y: (np.ones_like(x), np.zeros_like(x)),
        lambda x, y: (-y, x),
    ):
        v = interpolate(space, rigid)
        assert abs(v @ (A_vol @ v)) < 1e-13


def test_sipg_parameter_validation(case, small_setup):
    _, space, _ = small_setup
    with pytest.raises(ValueError):
        assemble_system(space, case.material, 0.0)
    # non-finite values, which a range check alone lets through (NaN fails every comparison)
    for alpha0, name in ((np.nan, "alpha0=nan"), (np.inf, "alpha0=inf")):
        with pytest.raises(ValueError, match=name):
            assemble_system(space, case.material, alpha0)
    # a finite alpha0 whose weight alpha0/|e| overflows on the mesh's shortest edge
    with pytest.raises(ValueError, match="penalty weight"):
        assemble_system(space, case.material, 1e308)


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
    v = interpolate(space, lambda x, y: (x * y * (1 + x), x * y * y))
    assert abs(v @ (system.J @ v)) < 1e-12
    A_vol = assemble_volume_stiffness(space, case.material)
    assert abs(v @ (system.A @ v) - v @ (A_vol @ v)) < 1e-12


def test_translation_penalty_energy(case):
    # constant translation (1, 0): strains vanish, so v' A v is purely the
    # Dirichlet penalty alpha0/|e| * int |[v]|^2 = alpha0 per Dirichlet edge
    for n in (2, 4):
        mesh = build_structured_mesh(n)
        space = DGSpace.build(mesh, 1)
        system = assemble_system(space, case.material, alpha0=10.0)
        v = interpolate(space, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
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
    s1 = assemble_system(space, case.material, 10.0)
    s2 = assemble_system(space, case.material, 20.0)
    assert abs((s2.A - s1.A - s1.J).toarray()).max() < 1e-12
    assert abs((s2.J - 2.0 * s1.J).toarray()).max() < 1e-12


def test_average_jump_continuous_field(case, small_setup):
    mesh, space, _ = small_setup
    v = interpolate(space, lambda x, y: (x + 2 * y, 3 * x - y))
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
    v = interpolate(space, lambda x, y: (x, y))
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
    ones_x = interpolate(space, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
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
    ones_x = interpolate(space, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
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
        mesh = TriMesh(*scrambled_mesh_input(3, rng))
    else:
        mesh = build_structured_mesh(3)
    loads = LoadAssembler(DGSpace.build(mesh, k))
    for t in times:
        got = loads.assemble(case.body_force_at(t), case.traction_at(t))
        ref = loads.assemble(
            lambda *points: forcing_values(case.body_force_at(t), *points),
            lambda *points: forcing_values(case.traction_at(t), *points),
        )
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_a_separable_field_is_plain_data():
    # no points and no array protocol: only a load assembler evaluates it
    assert [f.name for f in dataclasses.fields(SeparableField)] == ["coefficients", "fields"]
    with pytest.raises(TypeError):
        tuple(SeparableField(np.ones((2, 1)), lambda x, y: (x,)))


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
            return SeparableField(coefficients, fields)

        def plain(*points):
            return forcing_values(separable, *points)

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
        system = assemble_system(space, case.material, 10.0)

        def u0(x, y):
            return x + 2 * y + 0.5 * x * y * (k - 1), 3 * x - y

        def grad_u0(x, y):
            o = np.ones_like(x)
            return (
                (1.0 * o + 0.5 * y * (k - 1), 2.0 * o + 0.5 * x * (k - 1)),
                (3.0 * o, -1.0 * o),
            )

        rhs = assemble_elliptic_rhs(system, u0, grad_u0)
        U = factor(system.A).solve(rhs)
        assert np.abs(U - interpolate(space, u0)).max() < 1e-9


def test_grad_array_reads_the_nested_layout_only():
    # points whose leading axes are (2, 2) do not change how the gradient is read
    x = np.arange(8.0).reshape(2, 2, 2)
    g = grad_array(lambda x, y: ((x, y), (2 * x, np.full_like(x, 3.0))), x)
    assert g.shape == (2, 2, 2, 2)
    assert np.array_equal(g[..., 0, 0], x[..., 0])
    assert np.array_equal(g[..., 0, 1], x[..., 1])
    assert np.array_equal(g[..., 1, 0], 2 * x[..., 0])
    assert np.all(g[..., 1, 1] == 3.0)
    # the component and derivative axes last is not a layout it reads
    with pytest.raises(ValueError, match="component"):
        grad_array(lambda x, y: np.zeros(x.shape + (2, 2)), np.zeros((5, 3, 2)))


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
    # the schemes need the mass, the SIPG form and its penalty part, where the
    # entries of M and J sit in A, and the material, penalty and space that
    # built them, nothing else
    fields = [f.name for f in dataclasses.fields(AssembledSystem)]
    assert fields == ["M", "A", "J", "M_slots", "J_slots", "material", "alpha0", "space"]
    assert (system.material, system.alpha0) == (case.material, 10.0)
    assert system.space is space  # the very object, not a copy
    assert system.M.shape == (space.total_dofs, space.total_dofs)
    # assembling again gives the same matrices and slots, bit for bit
    again = assemble_system(space, case.material, 10.0)
    for name in ("M", "A", "J"):
        assert abs(getattr(system, name) - getattr(again, name)).max() == 0.0, name
    assert np.array_equal(system.M_slots, again.M_slots)
    assert np.array_equal(system.J_slots, again.J_slots)
    # rho scales M alone
    rho2 = PronyMaterial(rho=2.0, phi0=0.5, phis=(0.1, 0.4), taus=(0.5, 1.5))
    sys2 = assemble_system(space, rho2, 10.0)
    assert sys2.material is rho2
    assert abs((sys2.M - 2.0 * system.M).toarray()).max() < 1e-14
    assert abs(sys2.A - system.A).max() == 0.0 and abs(sys2.J - system.J).max() == 0.0


def test_step_matrix_allocates_one_data_vector(case):
    # tracemalloc sees numpy's buffers: building a step matrix keeps its data
    # vector and nothing else, and never holds more than two such vectors
    space = DGSpace.build(build_structured_mesh(16), 2)
    system = assemble_system(space, case.material)
    coefficients = (2.0 * 8**2, 0.45, 8.0)
    system.combine(*coefficients)  # first-call caches out of the count
    tracemalloc.start()
    try:
        K = system.combine(*coefficients)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * K.data.nbytes
    assert retained <= 1.01 * K.data.nbytes


def test_combine_needs_a_canonical_pattern(case):
    # a step matrix shares A's index arrays, and factor sorts a non-canonical
    # matrix in place: that would reorder A's indices under its data
    one = sp.csr_matrix(np.eye(2))
    unsorted = sp.csr_matrix((np.array([2.0, 1.0]), np.array([1, 0]), np.array([0, 2, 2])), (2, 2))
    slots = np.array([1, 2])
    system = AssembledSystem(one, unsorted, one, slots, slots, case.material, 10.0, None)
    with pytest.raises(ValueError, match="canonical"):
        system.combine(1.0, 1.0, 1.0)


def test_edge_split_covers_all(small_setup):
    mesh, _, _ = small_setup
    counts = [np.sum(mesh.edges.tag == tag) for tag in EdgeTag]
    assert sum(counts) == len(mesh.edges)
    assert min(counts) > 0
