"""Oracle tests for the Hermitian matrix Jordan algebras."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucplab.scalars import multiplication_table
from ucplab.jordan import (
    AlgebraDescriptor,
    AlgebraElement,
    DescriptorMismatchError,
    NonHermitianError,
    _cubic_roots,
    _eigenvalues_raw,
    _identity,
    _jp,
    _lagrange_idempotents,
    _matmul,
    _random_elements,
    _scale_identity,
    _separated_spectral_batch,
    _table_zxy,
    _to_complex,
    coords,
    eigenvalues,
    from_coords,
    hermitian_basis,
    identity,
    inner,
    is_idempotent,
    is_positive,
    jordan_product,
    order_unit_norm,
    property_battery,
    quadratic_map_U,
    random_element,
    random_projection,
    random_state_density,
    spectral_decompose,
    structure_constants,
    trace,
    zero,
)

MODELS = [("R", 2), ("R", 3), ("C", 2), ("C", 3), ("C", 4), ("H", 2), ("H", 3), ("O", 3)]


KERNEL_ALGEBRAS = [(level, n) for level in "RCH" for n in range(1, 5)] + [("O", 3)]


def einsum_matmul(a, b, table):
    """Oracle for the block-product kernel: the matrix product over the
    scalar ring as two einsum contractions with the structure constants."""
    bt = np.einsum("...kjy,xyz->...kjxz", b, table)
    return np.einsum("...ikx,...kjxz->...ijz", a, bt)


def product_lagrange_idempotents(x, eigvals, desc):
    """Oracle for `_lagrange_idempotents`: each Lagrange polynomial as a
    Jordan product of its factors (x - lam_j 1) / (lam_i - lam_j), formed
    again for every idempotent."""
    m = eigvals.shape[-1]
    parts = []
    for i in range(m):
        acc = None
        for j in range(m):
            if j == i:
                continue
            gap = eigvals[..., i] - eigvals[..., j]
            factor = (x - _scale_identity(desc, eigvals[..., j])) / gap[..., None, None, None]
            acc = factor if acc is None else _jp(acc, factor)
        if acc is None:  # m == 1
            acc = np.broadcast_to(_identity(desc), x.shape).copy()
        parts.append(acc)
    return np.stack(parts, axis=-4)


def element(level, n, complex_matrix):
    """Build an element of a real or complex model from a numpy matrix."""
    d = {"R": 1, "C": 2}[level]
    entries = np.zeros((n, n, d))
    entries[..., 0] = complex_matrix.real
    if d == 2:
        entries[..., 1] = complex_matrix.imag
    return AlgebraElement(AlgebraDescriptor(level, n), entries)


def test_descriptor_rejects_octonions_off_three():
    AlgebraDescriptor("O", 3)
    with pytest.raises(ValueError):
        AlgebraDescriptor("O", 2)
    with pytest.raises(ValueError):
        AlgebraDescriptor("X", 3)


def test_jordan_product_hand_oracle():
    # e = diag(1, 0), f = projection onto (1, 1)/sqrt(2):
    # (ef + fe)/2 = [[1/2, 1/4], [1/4, 0]]
    e = element("C", 2, np.array([[1.0, 0.0], [0.0, 0.0]]))
    f = element("C", 2, np.array([[0.5, 0.5], [0.5, 0.5]]))
    prod = jordan_product(e, f)
    expected = np.array([[0.5, 0.25], [0.25, 0.0]])
    assert np.allclose(prod.entries[..., 0], expected, atol=1e-15)
    assert np.allclose(prod.entries[..., 1], 0.0, atol=1e-15)


@settings(max_examples=150, deadline=None)
@given(
    algebra=st.sampled_from(KERNEL_ALGEBRAS),
    shapes=st.sampled_from([((), ()), ((4,), (4,)), ((), (4,)), ((4, 1), (5,))]),
    swap=st.booleans(),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_matches_einsum_oracle(algebra, shapes, swap, scale, seed):
    # batch (4, 1) against (5,) broadcasts two independent batch axes
    desc = AlgebraDescriptor(*algebra)
    rng = np.random.default_rng(seed)
    shape_a, shape_b = shapes[::-1] if swap else shapes
    a = scale * rng.standard_normal(shape_a + (desc.n, desc.n, desc.d))
    b = scale * rng.standard_normal(shape_b + (desc.n, desc.n, desc.d))
    got = _matmul(a, b)
    expected = einsum_matmul(a, b, multiplication_table(desc.d))
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= 1e-13 * (1.0 + np.abs(expected).max())


def test_matmul_is_the_complex_matrix_product():
    desc = AlgebraDescriptor("C", 3)
    rng = np.random.default_rng(12)
    a = rng.standard_normal((6, 3, 3, 2))
    b = rng.standard_normal((6, 3, 3, 2))
    expected = _to_complex(a) @ _to_complex(b)
    assert np.abs(_to_complex(_matmul(a, b)) - expected).max() <= 1e-13


def test_trace_and_inner_complex_oracle():
    a = np.array([[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 3.0]])
    b = np.array([[1.0, -2.0j], [2.0j, 0.5]])
    x = element("C", 2, a)
    y = element("C", 2, b)
    assert trace(x) == pytest.approx(5.0)
    # <x, y> = Re tr(x y) for Hermitian complex matrices
    assert inner(x, y) == pytest.approx(float(np.trace(a @ b).real))


def test_eigenvalues_symmetric_2x2_oracle():
    x = element("R", 2, np.array([[2.0, 1.0], [1.0, -1.0]]))
    expected = sorted(np.linalg.eigvalsh(np.array([[2.0, 1.0], [1.0, -1.0]])))
    assert np.allclose(eigenvalues(x), expected)


def test_eigenvalues_quaternion_oracle():
    # [[1, j], [-j, 1]] with j^2 = -1 has eigenvalues 0 and 2.
    desc = AlgebraDescriptor("H", 2)
    entries = np.zeros((2, 2, 4))
    entries[0, 0, 0] = entries[1, 1, 0] = 1.0
    entries[0, 1, 2] = 1.0
    entries[1, 0, 2] = -1.0
    x = AlgebraElement(desc, entries)
    assert np.allclose(eigenvalues(x), [0.0, 2.0], atol=1e-12)


def test_octonion_diagonal_eigenvalues():
    desc = AlgebraDescriptor("O", 3)
    entries = np.zeros((3, 3, 8))
    for i, v in enumerate((-1.0, 0.5, 2.0)):
        entries[i, i, 0] = v
    x = AlgebraElement(desc, entries)
    assert np.allclose(eigenvalues(x), [-1.0, 0.5, 2.0], atol=1e-12)


@pytest.mark.parametrize("level,n", MODELS)
def test_spectral_decomposition_reconstructs(level, n):
    x = random_element(AlgebraDescriptor(level, n), rng_seed=5)
    form = spectral_decompose(x)
    assert np.allclose(form.reconstruct().entries, x.entries, atol=1e-8)
    total = zero(x.descriptor)
    for i, e in enumerate(form.idempotents):
        assert is_idempotent(e, tol=1e-7)
        total = total + e
        for f in form.idempotents[i + 1 :]:
            assert abs(inner(e, f)) < 1e-8
    assert np.allclose(total.entries, identity(x.descriptor).entries, atol=1e-7)


@pytest.mark.parametrize("level,n", MODELS)
def test_eigenvalue_sum_and_square_sum_match_traces(level, n):
    x = random_element(AlgebraDescriptor(level, n), rng_seed=9)
    vals = eigenvalues(x)
    assert float(vals.sum()) == pytest.approx(trace(x), abs=1e-8)
    assert float((vals**2).sum()) == pytest.approx(inner(x, x), abs=1e-8)


def test_quadratic_map_matches_matrix_sandwich():
    # associative oracle: U_e x = e x e for complex matrices
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (a + a.conj().T) / 2
    proj = np.zeros((3, 3), dtype=complex)
    proj[0, 0] = proj[1, 1] = 1.0
    x = element("C", 3, h)
    e = element("C", 3, proj)
    out = quadratic_map_U(e, x)
    expected = proj @ h @ proj
    assert np.allclose(out.entries[..., 0], expected.real, atol=1e-12)
    assert np.allclose(out.entries[..., 1], expected.imag, atol=1e-12)


def test_quadratic_map_requires_idempotent():
    desc = AlgebraDescriptor("C", 2)
    x = random_element(desc, rng_seed=1)
    with pytest.raises(Exception):
        quadratic_map_U(x, identity(desc))


def test_order_unit_norm_and_positivity():
    x = element("R", 2, np.array([[2.0, 0.0], [0.0, -3.0]]))
    assert order_unit_norm(x) == pytest.approx(3.0)
    assert not is_positive(x)
    assert is_positive(jordan_product(x, x))


@pytest.mark.parametrize("level,n", MODELS)
def test_random_projection_is_idempotent(level, n):
    desc = AlgebraDescriptor(level, n)
    for rank in range(n + 1):
        e = random_projection(desc, rank, rng_seed=rank + 1)
        assert is_idempotent(e, tol=1e-7)
        assert trace(e) == pytest.approx(rank, abs=1e-7)


@pytest.mark.parametrize("level,n", MODELS)
def test_random_state_density_is_a_state(level, n):
    rho = random_state_density(AlgebraDescriptor(level, n), rng_seed=4)
    assert trace(rho) == pytest.approx(1.0)
    assert is_positive(rho, tol=1e-10)


@pytest.mark.parametrize("level,n", MODELS)
def test_hermitian_basis_is_orthonormal(level, n):
    desc = AlgebraDescriptor(level, n)
    basis = hermitian_basis(desc)
    gram = np.einsum("aijc,bijc->ab", basis, basis)
    assert basis.shape[0] == desc.basis_dim
    assert np.allclose(gram, np.eye(desc.basis_dim), atol=1e-12)


@pytest.mark.parametrize("level,n", MODELS)
def test_structure_constants_multiply_coordinates(level, n):
    # L_g = sum_c coords(g)_c C[c] maps coords(y) to coords(g o y); the
    # random g are not idempotent, so every coordinate of g is exercised
    desc = AlgebraDescriptor(level, n)
    g = np.stack([random_element(desc, rng_seed=17 + k).entries for k in range(5)])
    y = random_element(desc, rng_seed=16).entries
    left = np.einsum("...c,cab->...ab", coords(g, desc), structure_constants(desc))
    expected = coords(_jp(g, y), desc)
    assert np.abs(left @ coords(y, desc) - expected).max() <= 1e-12


@pytest.mark.parametrize("level,n", MODELS)
def test_structure_constants_are_totally_symmetric(level, n):
    table = structure_constants(AlgebraDescriptor(level, n))
    for perm in itertools.permutations(range(3)):
        assert np.abs(table - table.transpose(perm)).max() <= 1e-15


@pytest.mark.parametrize("level,n", MODELS)
def test_cached_basis_and_constants_are_read_only(level, n):
    desc = AlgebraDescriptor(level, n)
    assert hermitian_basis(desc) is hermitian_basis(AlgebraDescriptor(level, n))
    assert structure_constants(desc) is structure_constants(desc)
    for table in (hermitian_basis(desc), structure_constants(desc)):
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_coords_roundtrip():
    desc = AlgebraDescriptor("H", 3)
    x = random_element(desc, rng_seed=8)
    assert np.allclose(from_coords(coords(x, desc), desc).entries, x.entries, atol=1e-12)


def test_descriptor_mismatch_raises():
    x = random_element(AlgebraDescriptor("C", 2), rng_seed=1)
    y = random_element(AlgebraDescriptor("C", 3), rng_seed=1)
    with pytest.raises(DescriptorMismatchError):
        x + y


def test_spectral_rejects_non_hermitian():
    desc = AlgebraDescriptor("C", 2)
    entries = np.zeros((2, 2, 2))
    entries[0, 1, 0] = 1.0  # strictly upper triangular, not Hermitian
    with pytest.raises(NonHermitianError):
        eigenvalues(AlgebraElement(desc, entries))


@pytest.mark.parametrize("level,n", MODELS)
def test_property_battery_small(level, n):
    res = property_battery(AlgebraDescriptor(level, n), trials=50, seed=0)
    tol = 1e-8 if level == "O" else 1e-9
    assert max(res.values()) <= tol, res


def test_albert_algebra_dimension_is_27():
    assert AlgebraDescriptor("O", 3).basis_dim == 27


def test_degenerate_spectrum_clusters_idempotents():
    x = identity(AlgebraDescriptor("C", 3))
    form = spectral_decompose(x)
    assert len(form.idempotents) == 1
    assert form.eigenvalues[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# spectral idempotents on the shared power basis
# ---------------------------------------------------------------------------


def spectral_draws(desc, kind, count=100, seed=31):
    """(x, eigenvalues) batches for the idempotent tests.

    random: the sampler's own draws.  shifted: the same draws plus 50 1,
    which only the centring keeps from cancelling in the powers.  small_gap:
    x = sum lam_i P_i over a random spectral batch, with the two lowest
    eigenvalues just above the sampler's smallest accepted gap, 1e-4 scale.
    """
    rng = np.random.default_rng(seed)
    if kind == "small_gap":
        idem = _separated_spectral_batch(desc, rng, count)
        lam = np.linspace(-1.0, 1.0, desc.n)
        lam[1] = lam[0] + 1.01e-4 * (1.0 + np.abs(lam).max())
        x = np.einsum("i,bijkc->bjkc", lam, idem)
    else:
        x = _random_elements(desc, rng, count)
        if kind == "shifted":
            x = x + 50.0 * _identity(desc)
    return x, _eigenvalues_raw(x, desc)


# (agreement with the product-form oracle, idempotent/orthogonal/sum defects)
SPECTRAL_TOL = {"random": (1e-13, 1e-12), "shifted": (1e-13, 1e-10), "small_gap": (1e-10, 1e-7)}


@pytest.mark.parametrize("kind", sorted(SPECTRAL_TOL))
@pytest.mark.parametrize("level,n", MODELS)
def test_power_basis_idempotents(level, n, kind):
    desc = AlgebraDescriptor(level, n)
    x, vals = spectral_draws(desc, kind)
    scale = 1.0 + np.abs(vals).max(axis=-1)
    gaps = np.diff(vals, axis=-1).min(axis=-1)
    assert (gaps > 1e-4 * scale).all()  # the sampler would accept every draw
    if kind == "small_gap":
        assert (gaps < 1.02e-4 * scale).all()
    agree, defect = SPECTRAL_TOL[kind]
    idem = _lagrange_idempotents(x, vals, desc)
    assert np.abs(idem - product_lagrange_idempotents(x, vals, desc)).max() <= agree
    for i in range(n):
        assert np.abs(_matmul(idem[:, i], idem[:, i]) - idem[:, i]).max() <= defect
        for j in range(i + 1, n):
            assert np.abs(_jp(idem[:, i], idem[:, j])).max() <= defect
    assert np.abs(idem.sum(axis=1) - _identity(desc)).max() <= defect


@pytest.mark.parametrize("rank", ["one", "corank_one"])
@pytest.mark.parametrize("level,n", MODELS)
def test_spectral_decompose_clustered_spectrum(level, n, rank):
    # x = 1 + p has the eigenvalue 1 with multiplicity n - rank(p) and 2 with
    # multiplicity rank(p); at H_3(O) the repeated root is a double root of
    # the characteristic cubic
    desc = AlgebraDescriptor(level, n)
    for seed in range(5):
        p = random_projection(desc, 1 if rank == "one" else n - 1, rng_seed=60 + seed)
        x = identity(desc) + p
        form = spectral_decompose(x)
        assert len(form.idempotents) == 2
        assert np.abs(np.array(form.eigenvalues) - [1.0, 2.0]).max() <= 1e-12
        assert np.abs(form.reconstruct().entries - x.entries).max() <= 1e-12
        assert np.abs(form.idempotents[1].entries - p.entries).max() <= 1e-12


@pytest.mark.parametrize("split", [0.0, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3])
def test_cubic_roots_near_a_double_root(split):
    # the roots 1, 1 + split, 2 from exact invariants; a double root moves by
    # about sqrt(eps) under rounding unless it is snapped to the critical point
    roots = np.array([1.0, 1.0 + split, 2.0])
    t = roots.sum()
    s = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
    n = roots.prod()
    got = _cubic_roots(np.array(t), np.array(s), np.array(n))
    assert np.abs(got - roots).max() <= max(1e-14, split)


@pytest.mark.parametrize("level,n", MODELS)
@pytest.mark.parametrize("batch", [(), (4,), (4, 1)])
def test_square_is_one_product(level, n, batch):
    # x o x = (xx + xx) / 2 is the single product xx bit for bit
    desc = AlgebraDescriptor(level, n)
    x = np.random.default_rng(5).standard_normal(batch + (n, n, desc.d))
    assert np.array_equal(_matmul(x, x), _jp(x, x))


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_matmul_table_is_cached_read_only(d):
    table = _table_zxy(d)
    assert table is _table_zxy(d)
    assert table.flags.c_contiguous and not table.flags.writeable
    assert np.array_equal(table, np.moveaxis(multiplication_table(d), 2, 0))
