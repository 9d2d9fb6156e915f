import copy
from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assemble_volume_stiffness,
    forcing_values,
    interpolate,
    reference_assembly,
    scrambled_mesh_input,
)
from viscodg.assembly import LoadAssembler, assemble_elliptic_rhs, assemble_system
from viscodg.material import PronyMaterial
from viscodg.mesh import EdgeTag, TriMesh
from viscodg.space import DGSpace
from viscodg.stepper import StepOperator


def _material(rng, isotropic):
    elastic = (rng.uniform(0.0, 5.0), rng.uniform(0.2, 2.0)) if isotropic else None
    return PronyMaterial(rng.uniform(0.5, 2.0), 0.5, (0.1, 0.4), (0.5, 1.5), elastic=elastic)


def _rows(m):
    """Row index of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))


def _stored(m):
    s = m.tocsr(copy=True)
    s.data[:] = 1.0
    return s.toarray() > 0


@settings(max_examples=30, deadline=None)
@given(
    k=st.sampled_from([1, 2, 3]),
    n=st.integers(1, 4),
    isotropic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_assembly_matches_reference(case, k, n, isotropic, seed):
    # the block assembly against the einsum/triplet assembly it replaced, on
    # perturbed, relabelled meshes: same values to rounding, and an entry
    # stored by only one of them is a round-off residue or an explicit zero
    rng = np.random.default_rng(seed)
    space = DGSpace.build(TriMesh(*scrambled_mesh_input(n, rng)), k)
    material = _material(rng, isotropic)
    alpha0 = rng.uniform(5.0, 20.0)
    system = assemble_system(space, material, alpha0)
    f, g_N = case.body_force_at(0.3), case.traction_at(0.3)
    u0, grad_u0 = case.displacement_at(0.2), case.grad_displacement_at(0.2)
    # the oracle evaluates the separable forcing pointwise, as pairs
    plain_f, plain_g_N = (partial(forcing_values, forcing) for forcing in (f, g_N))
    ref = reference_assembly(space, material, alpha0, plain_f, plain_g_N, u0, grad_u0)

    matrices = {
        "A": system.A,
        "J": system.J,
        "A_vol": assemble_volume_stiffness(space, material),
        "M": system.M,
    }
    for name, new in matrices.items():
        old = ref[name]
        scale = abs(old).max()
        assert abs(new - old).max() <= 1e-14 * scale, name
        only = _stored(new) ^ _stored(old)
        assert np.abs(new.toarray()[only]).max(initial=0.0) <= 1e-15 * scale, name
        assert np.abs(old.toarray()[only]).max(initial=0.0) <= 1e-15 * scale, name
        if name != "A":
            assert np.all(new.data != 0), name  # explicit zeros are dropped

    # A's pattern holds M's and J's: every entry of each has a slot in A at its
    # row and column, and A stores a zero only where one of them has an entry
    A = system.A
    for name, part, slots in (("M", system.M, system.M_slots), ("J", system.J, system.J_slots)):
        assert np.array_equal(A.indices[slots], part.indices), name
        assert np.array_equal(_rows(A)[slots], _rows(part)), name
    shared = np.union1d(system.M_slots, system.J_slots)
    assert np.all(np.isin(np.flatnonzero(A.data == 0), shared))

    vectors = {
        "load": LoadAssembler(space).assemble(f=f, g_N=g_N),
        "rhs": assemble_elliptic_rhs(system, u0, grad_u0),
    }
    for name, new in vectors.items():
        assert np.abs(new - ref[name]).max() <= 1e-14 * np.abs(ref[name]).max(), name


@settings(max_examples=20, deadline=None)
@given(k=st.sampled_from([1, 2, 3]), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_each_triangle_meets_each_side_row_at_most_once(k, n, seed):
    # the diagonal edge terms are written into one (triangle, side row) table
    # by assignment, which sums nothing: the pairs of interior side 0,
    # interior side 1 and the Dirichlet sides must all differ
    space = DGSpace.build(TriMesh(*scrambled_mesh_input(n, np.random.default_rng(seed))), k)
    edges = space.mesh.edges
    interior = np.flatnonzero(edges.tag == EdgeTag.INTERIOR)
    dirichlet = np.flatnonzero(edges.tag == EdgeTag.DIRICHLET)
    pairs = np.concatenate(
        [
            np.stack([edges.elems[ids, side], space._edge_trace_row[ids, side]], axis=-1)
            for ids, side in ((interior, 0), (interior, 1), (dirichlet, 0))
        ]
    )
    assert len(np.unique(pairs, axis=0)) == len(pairs) == 2 * len(interior) + len(dirichlet)
    assert np.all((0 <= pairs[:, 1]) & (pairs[:, 1] < 6))


def _relative_asymmetry(m):
    return abs(m - m.T).max() / abs(m).max()


@settings(max_examples=15, deadline=None)
@given(k=st.sampled_from([1, 2, 3]), n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_invariants_on_perturbed_meshes(k, n, seed):
    rng = np.random.default_rng(seed)
    mesh = TriMesh(*scrambled_mesh_input(n, rng))
    space = DGSpace.build(mesh, k)
    material = _material(rng, isotropic=True)
    system = assemble_system(space, material, 10.0)
    A_vol = assemble_volume_stiffness(space, material)

    # the two translations and the infinitesimal rotation carry no strain energy
    for rigid in (
        lambda x, y: (np.ones_like(x), np.zeros_like(x)),
        lambda x, y: (np.zeros_like(x), np.ones_like(x)),
        lambda x, y: (-y, x),
    ):
        v = interpolate(space, rigid)
        assert np.abs(A_vol @ v).max() <= 1e-12 * abs(A_vol).max() * np.abs(v).max()

    K = StepOperator.build(system, 1.0 / 8).K.matrix
    for m in (system.A, system.J, K):
        assert _relative_asymmetry(m) <= 1e-13

    # element blocks depend on vertex differences only; the translated copy
    # keeps the unit-square edge topology, which a translated domain would not pass
    moved = copy.copy(mesh)
    object.__setattr__(moved, "vertices", mesh.vertices + np.array([0.375, -0.625]))
    A_moved = assemble_volume_stiffness(DGSpace.build(moved, k), material)
    assert abs(A_moved - A_vol).max() <= 1e-13 * abs(A_vol).max()
