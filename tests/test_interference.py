"""Interference operators, corridor bounds and the identity batteries."""

import tracemalloc

import numpy as np
import pytest

from ucplab.interference import (
    I2_scalar,
    I3_scalar,
    NotOrthogonalError,
    a1_check,
    corridor_sample,
    corridor_samples,
    eq10_check,
    i3_basis_norm_max,
    lemma_suite,
    saturating_configuration,
    symmetry_battery,
    t_structure_battery,
)
from ucplab import interference
from ucplab.interference import (
    _corridor_draw,
    _interference_dense,
    _random_projections,
    _spectral_basis,
    _symmetry_defects,
)
from ucplab.jordan import (
    AlgebraDescriptor,
    AlgebraElement,
    DescriptorMismatchError,
    NotIdempotentError,
    _eigenvalues_raw,
    _from_coords,
    _hermitize,
    _inner,
    _jp,
    _matmul,
    _scale_identity,
    _separated_spectral_batch,
    _trace,
    _u_dense,
    coords,
    hermitian_basis,
    identity,
    quadratic_map_U,
    random_element,
    random_projection,
    spectral_decompose,
)
from ucplab.model import State, orthogonal

MODELS = [("R", 2), ("R", 3), ("C", 2), ("C", 3), ("C", 4), ("H", 2), ("H", 3), ("O", 3)]


def u_apply(e, x):
    """Oracle for the compression: U_e x = 2 e o (e o x) - e o x as two
    Jordan products on raw (batched) elements."""
    ex = _jp(e, x)
    return 2.0 * _jp(e, ex) - ex


def basis_image_u_dense(desc, g):
    """Oracle for `_u_dense`: U_g applied by `u_apply` to every element of
    `hermitian_basis`, with column b holding the coordinates of U_g basis_b."""
    basis = hermitian_basis(desc)
    images = u_apply(np.asarray(g)[..., None, :, :, :], basis)
    return np.einsum("aijc,...bijc->...ab", basis, images)


def element_symmetry_defects(e, f, desc):
    """Oracle for `_symmetry_defects`: the same defects as elements, with
    every compression applied by `u_apply`."""
    one = _scale_identity(desc, 1.0)
    lhs = u_apply(e, one - f) + u_apply(one - e, f)
    rhs = u_apply(f, one - e) + u_apply(one - f, e)
    ue_f, uec_f = u_apply(e, f), u_apply(one - e, f)
    uf_e, ufc_e = u_apply(f, e), u_apply(one - f, e)
    t_e_f = 0.5 * (f + ue_f - uec_f)
    t_f_e = 0.5 * (e + uf_e - ufc_e)
    i2_difference = (f - ue_f - uec_f) - (e - uf_e - ufc_e)
    defects = {
        "compression_symmetry": [lhs - rhs, t_e_f - t_f_e],
        "second_order_difference": [i2_difference - (2.0 * uf_e - 2.0 * ue_f)],
    }
    if desc.level != "O":
        anticomm = e + f - _matmul(e, f) - _matmul(f, e)
        defects["anticommutator_form"] = [lhs - anticomm, rhs - anticomm]
    return defects


def element_onorm(x, desc):
    return float(np.abs(_eigenvalues_raw(_hermitize(x), desc)).max())


def test_i2_scalar_requires_orthogonality():
    desc = AlgebraDescriptor("C", 3)
    mu = State.random(desc, rng_seed=0)
    e = random_projection(desc, rank=2, rng_seed=1)
    with pytest.raises(NotOrthogonalError):
        I2_scalar(mu, e, e, e)


def test_operators_share_the_model_orthogonality_test():
    # 1e-7 off-diagonal entries: e o f is of order 1e-7, above the 1e-8 tolerance
    desc = AlgebraDescriptor("R", 2)
    mu = State.random(desc, rng_seed=0)
    e = AlgebraElement(desc, np.array([[[1.0], [1e-7]], [[1e-7], [0.0]]]))
    f = AlgebraElement(desc, np.array([[[0.0], [1e-7]], [[1e-7], [1.0]]]))
    assert not orthogonal(e, f)
    with pytest.raises(NotOrthogonalError):
        I2_scalar(mu, e, e, f)
    with pytest.raises(NotOrthogonalError):
        I3_scalar(mu, e, e, f, AlgebraElement(desc, np.zeros((2, 2, 1))))


def test_interference_scalars_reject_elements_of_another_model():
    # the size-1 scalar axis of R2 broadcasts against C2 coordinates, so
    # without a descriptor check this evaluates to a number
    r2, c2 = AlgebraDescriptor("R", 2), AlgebraDescriptor("C", 2)
    mu = State.random(r2, rng_seed=0)
    e1, e2 = spectral_decompose(random_element(r2, rng_seed=1)).idempotents
    f = random_projection(c2, rank=1, rng_seed=2)
    with pytest.raises(DescriptorMismatchError):
        I2_scalar(mu, f, e1, e2)
    with pytest.raises(DescriptorMismatchError):
        I3_scalar(mu, f, e1, e2, identity(r2) - e1 - e2)
    with pytest.raises(DescriptorMismatchError):
        I2_scalar(State.random(c2, rng_seed=3), e1, e1, e2)


def test_interference_scalars_reject_non_events():
    desc = AlgebraDescriptor("C", 3)
    mu = State.random(desc, rng_seed=0)
    f = random_projection(desc, rank=1, rng_seed=1)
    e1, e2, e3 = spectral_decompose(random_element(desc, rng_seed=2)).idempotents
    with pytest.raises(NotIdempotentError):
        I2_scalar(mu, f, 2 * e1, e2)
    with pytest.raises(NotIdempotentError):
        I3_scalar(mu, f, e1, e2, 2 * e3)
    # f is an event too: mu(f|e) is defined for events
    with pytest.raises(NotIdempotentError):
        I2_scalar(mu, random_element(desc, rng_seed=3), e1, e2)


@pytest.mark.parametrize("level,n", MODELS)
def test_second_order_terms_can_interfere(level, n):
    # I2 is generically nonzero: quantum models show two-slit interference.
    desc = AlgebraDescriptor(level, n)
    mu = State.random(desc, rng_seed=3)
    f = random_projection(desc, rank=1, rng_seed=4)
    x = random_element(desc, rng_seed=5)
    es = spectral_decompose(x).idempotents
    value = I2_scalar(mu, f, es[0], es[1])
    assert abs(value) > 1e-4


@pytest.mark.parametrize("level,n", MODELS)
def test_third_order_terms_vanish(level, n):
    desc = AlgebraDescriptor(level, n)
    mu = State.random(desc, rng_seed=6)
    f = random_projection(desc, rank=1, rng_seed=7)
    x = random_element(desc, rng_seed=8)
    es = list(spectral_decompose(x).idempotents)
    if len(es) == 2:
        es.append(identity(desc) - es[0] - es[1])
    tol = 1e-8 if level == "O" else 1e-9
    assert abs(I3_scalar(mu, f, es[0], es[1], es[2])) <= tol
    assert np.abs(_interference_dense(desc, *(e.entries for e in es[:3]))).max() <= tol


@pytest.mark.parametrize("level,n", MODELS)
def test_i3_dense_sweep(level, n):
    tol = 1e-8 if level == "O" else 1e-9
    trials = 50 if level == "O" else 100
    assert i3_basis_norm_max(AlgebraDescriptor(level, n), trials, seed=9) <= tol


@pytest.mark.parametrize("level,n", MODELS)
def test_dense_builder_matches_vector_oracle(level, n):
    desc = AlgebraDescriptor(level, n)
    g = np.stack([random_projection(desc, rank=1 + k % n, rng_seed=20 + k).entries for k in range(4)])
    x = np.stack([random_element(desc, rng_seed=30 + k).entries for k in range(4)])
    dense = _u_dense(desc, g)
    assert dense.shape == (4, desc.basis_dim, desc.basis_dim)
    # the batched matrices act on coordinates as U_g acts on elements
    image = (dense @ coords(x, desc)[..., None])[..., 0]
    assert np.abs(image - coords(u_apply(g, x), desc)).max() <= 1e-12
    # a product U_e @ U_f applies U_f first, then U_e
    e, f = g[0], g[1]
    composed = coords(u_apply(e, u_apply(f, x[0])), desc)
    assert np.abs(dense[0] @ dense[1] @ coords(x[0], desc) - composed).max() <= 1e-12
    # I2_scalar and I3_scalar agree with the sums of vector compressions
    es = list(spectral_decompose(random_element(desc, rng_seed=40)).idempotents)
    if len(es) == 2:
        es.append(identity(desc) - es[0] - es[1])
    a, b, c = (p.entries for p in es[:3])
    y = random_projection(desc, rank=1, rng_seed=41)
    mu = State.random(desc, rng_seed=42)

    ua, ub, uc, uab, ubc, uac, uabc = (
        u_apply(p, y.entries) for p in (a, b, c, a + b, b + c, a + c, a + b + c)
    )
    two = uab - ua - ub
    seven = uabc - uab - ubc - uac + ua + ub + uc
    rho = mu.density.entries
    assert abs(I2_scalar(mu, y, es[0], es[1]) - _inner(rho, two)) <= 1e-12
    assert abs(I3_scalar(mu, y, *es[:3]) - _inner(rho, seven)) <= 1e-12


@pytest.mark.parametrize("level,n", MODELS)
def test_quadratic_map_matches_element_oracle(level, n):
    desc = AlgebraDescriptor(level, n)
    for k in range(8):
        e = random_projection(desc, rank=k % (n + 1), rng_seed=60 + k)
        x = random_element(desc, rng_seed=70 + k)
        got = quadratic_map_U(e, x).entries
        assert np.abs(got - u_apply(e.entries, x.entries)).max() <= 1e-12


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("level,n", [("R", 3), ("C", 4), ("H", 3), ("O", 3)])
def test_random_projections_deal_every_part_an_idempotent(level, n, parts):
    # a zero part makes an I3 or lemma check hold trivially; where n allows,
    # every part gets at least one primitive idempotent, so trace >= 1
    desc = AlgebraDescriptor(level, n)
    rng, twin = np.random.default_rng(90), np.random.default_rng(90)
    projections = _random_projections(rng, desc, _spectral_basis(desc, rng, 200), parts)
    assert len(projections) == parts
    for p in projections:
        assert (_trace(p) >= 1 - 1e-9).all()
    # where n > parts one idempotent is left out: parts that sum to 1 make
    # the lemma and I3 checks on their complement hold trivially
    if n > parts:
        assert (sum(_trace(p) for p in projections) <= n - 1 + 1e-9).all()
    # the dealing draws no random number: the generator is where one draw
    # of bin labels leaves it
    _separated_spectral_batch(desc, twin, 200)
    twin.integers(0, parts + 1, (200, n))
    assert rng.random() == twin.random()


@pytest.mark.parametrize("level,n", [("R", 2), ("C", 3), ("H", 3), ("O", 3), ("C", 4)])
def test_random_projections_draw_no_event_zero_or_one(level, n):
    # the single events of the symmetry, T_e and corridor draws: an event 0
    # or 1 makes every identity about it hold trivially
    desc = AlgebraDescriptor(level, n)
    rng = np.random.default_rng(91)
    (e,) = _random_projections(rng, desc, _spectral_basis(desc, rng, 200), 1)
    assert (_trace(e) >= 1 - 1e-9).all()
    assert (_trace(e) <= n - 1 + 1e-9).all()


@pytest.mark.parametrize("level,n", MODELS)
def test_interference_dense_matches_written_out_sums(level, n):
    # independent projections, so neither sum cancels to zero
    desc = AlgebraDescriptor(level, n)
    rng = np.random.default_rng(80)
    a, b, c = (
        _random_projections(rng, desc, _spectral_basis(desc, rng, 4), 1)[0] for _ in range(3)
    )
    u = lambda g: _u_dense(desc, g)  # noqa: E731
    two = u(a + b) - u(a) - u(b)
    seven = u(a + b + c) - u(a + b) - u(b + c) - u(a + c) + u(a) + u(b) + u(c)
    assert np.abs(_interference_dense(desc, a, b) - two).max() <= 1e-12
    assert np.abs(_interference_dense(desc, a, b, c) - seven).max() <= 1e-12


@pytest.mark.parametrize("level,n", MODELS)
def test_interference_dense_obeys_sorkins_recursion(level, n):
    # I3(a, b, c) = I2(a + b, c) - I2(a, c) - I2(b, c), the identity the exact
    # scan builds its triples from; independent nonzero projections, so each
    # I2 term is nonzero
    desc = AlgebraDescriptor(level, n)
    a, b, c = (random_projection(desc, rank=1 + k % n, rng_seed=90 + k).entries for k in range(3))
    i2 = [_interference_dense(desc, x, y) for x, y in ((a + b, c), (a, c), (b, c))]
    assert min(np.abs(term).max() for term in i2) > 1e-3
    recursion = i2[0] - i2[1] - i2[2]
    assert np.abs(_interference_dense(desc, a, b, c) - recursion).max() <= 1e-12


@pytest.mark.parametrize("level,n", MODELS)
@pytest.mark.parametrize("batch", [(), (4,), (4, 1)])
def test_u_dense_matches_basis_image_oracle(level, n, batch):
    desc = AlgebraDescriptor(level, n)
    count = int(np.prod(batch, dtype=int))
    g = np.stack(
        [random_projection(desc, rank=1 + k % n, rng_seed=50 + k).entries for k in range(count)]
    ).reshape(batch + (n, n, desc.d))
    got = _u_dense(desc, g)
    assert got.shape == batch + (desc.basis_dim, desc.basis_dim)
    assert np.abs(got - basis_image_u_dense(desc, g)).max() <= 1e-12


@pytest.mark.parametrize("level,n", MODELS)
def test_corridor_random_sweep(level, n):
    points = corridor_samples(AlgebraDescriptor(level, n), 300, seed=12)
    assert len(points) == 300
    assert all(p.lower_ok and p.upper_ok for p in points)


def test_corridor_classical_diagonal():
    # for diagonal 0/1 events e o f - e o (e o f) is exactly zero, so p == q
    for level, n in MODELS:
        points = corridor_samples(AlgebraDescriptor(level, n), 200, seed=13, classical=True)
        assert all(pt.p == pt.q for pt in points), (level, n)


@pytest.mark.parametrize("level,n", MODELS)
def test_corridor_p_matches_two_compression_oracle(level, n):
    # p = mu(U_e f) + mu(U_e' f) with each compression applied on its own
    desc = AlgebraDescriptor(level, n)
    rho, e, f = _corridor_draw(desc, np.random.default_rng(15), 200, classical=False)
    p = _inner(rho, u_apply(e, f)) + _inner(rho, u_apply(_scale_identity(desc, 1.0) - e, f))
    points = corridor_samples(desc, 200, seed=15)
    assert np.abs(np.array([pt.p for pt in points]) - p).max() <= 1e-13
    assert [pt.q for pt in points] == _inner(rho, f).tolist()


@pytest.mark.parametrize("level,n", MODELS)
def test_corridor_draw_has_no_event_zero_or_one(level, n):
    # with e or f equal to 0 or 1 the corridor point sits on q = p trivially
    desc = AlgebraDescriptor(level, n)
    rho, e, f = _corridor_draw(desc, np.random.default_rng(16), 200, classical=False)
    for event in (e, f):
        assert (_trace(event) >= 1 - 1e-9).all()
        assert (_trace(event) <= n - 1 + 1e-9).all()


def test_corridor_chunk_octonions_stays_small():
    # e, f and the state are one (trials, 3, 3, 8) array each, and `_matmul`
    # folds at most MATMUL_BLOCK_BYTES of L(a) at once: about 8 MB here.  The
    # bound catches a per-trial stack of every spectral idempotent and L(a)
    # folded for the whole chunk, together about 17 MB.
    desc = AlgebraDescriptor("O", 3)
    corridor_samples(desc, 2)  # fill the caches before tracing
    tracemalloc.start()
    try:
        corridor_samples(desc, 1999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("classical", [False, True])
def test_corridor_chunks_draw_in_sequence(monkeypatch, classical):
    desc = AlgebraDescriptor("C", 3)
    whole = corridor_samples(desc, 5, seed=17, classical=classical)
    monkeypatch.setattr(interference, "CORRIDOR_CHUNK", 5)
    # one full chunk draws exactly what one batch does
    assert corridor_samples(desc, 5, seed=17, classical=classical) == whole
    # later chunks continue the same generator
    chunked = corridor_samples(desc, 12, seed=17, classical=classical)
    assert len(chunked) == 12 and chunked[:5] == whole
    rng = np.random.default_rng(17)
    rows = []
    for count in (5, 5, 2):
        rho, e, f = _corridor_draw(desc, rng, count, classical)
        rows.extend(_inner(rho, f).tolist())
    assert [pt.q for pt in chunked] == rows


@pytest.mark.parametrize("level,n", MODELS)
def test_saturating_configuration_hits_upper_bound(level, n):
    mu, e, f = saturating_configuration(AlgebraDescriptor(level, n))
    point = corridor_sample(mu, e, f)
    assert (point.p, point.q) == (0.5, 1.0)
    assert point.lower_ok and point.upper_ok


@pytest.mark.parametrize("level,n", MODELS)
def test_corridor_sample_is_the_batched_evaluator(level, n):
    desc = AlgebraDescriptor(level, n)
    rho, e, f = _corridor_draw(desc, np.random.default_rng(19), 1, classical=False)
    mu = State(AlgebraElement(desc, rho[0]))
    point = corridor_sample(mu, AlgebraElement(desc, e[0]), AlgebraElement(desc, f[0]))
    assert point == corridor_samples(desc, 1, seed=19)[0]  # p bit for bit


def test_corridor_sample_rejects_bad_input():
    desc = AlgebraDescriptor("C", 3)
    mu = State.random(desc, rng_seed=1)
    e = random_projection(desc, rank=1, rng_seed=2)
    with pytest.raises(NotIdempotentError):
        corridor_sample(mu, random_element(desc, rng_seed=3), e)
    with pytest.raises(NotIdempotentError):
        corridor_sample(mu, e, random_element(desc, rng_seed=3))
    other = AlgebraDescriptor("C", 2)
    with pytest.raises(DescriptorMismatchError):
        corridor_sample(mu, e, random_projection(other, rank=1, rng_seed=4))
    with pytest.raises(DescriptorMismatchError):
        corridor_sample(State.random(other, rng_seed=5), e, e)


@pytest.mark.parametrize("level,n", MODELS)
def test_symmetry_residuals(level, n):
    res = symmetry_battery(AlgebraDescriptor(level, n), 200, seed=14)
    assert res["compression_symmetry"] <= 1e-9
    assert res["second_order_difference"] <= 1e-9
    if level != "O":
        assert res["anticommutator_form"] <= 1e-12


def test_a1_and_eq10_single_pair():
    desc = AlgebraDescriptor("H", 3)
    e = random_projection(desc, rank=1, rng_seed=15)
    f = random_projection(desc, rank=2, rng_seed=16)
    assert a1_check(e, f) <= 1e-9
    assert eq10_check(e, f) <= 1e-9


def test_a1_and_eq10_reject_events_of_another_model():
    e = random_projection(AlgebraDescriptor("H", 3), rank=1, rng_seed=15)
    f = random_projection(AlgebraDescriptor("C", 3), rank=1, rng_seed=16)
    for check in (a1_check, eq10_check):
        with pytest.raises(DescriptorMismatchError):
            check(e, f)
        with pytest.raises(NotIdempotentError):
            check(e, 2 * e)


@pytest.mark.parametrize("level,n", MODELS)
def test_symmetry_defects_match_element_oracle(level, n):
    desc = AlgebraDescriptor(level, n)
    rng = np.random.default_rng(21)
    (e,) = _random_projections(rng, desc, _spectral_basis(desc, rng, 50), 1)
    (f,) = _random_projections(rng, desc, _spectral_basis(desc, rng, 50), 1)
    got = _symmetry_defects(e, f, desc)
    expected = element_symmetry_defects(e, f, desc)
    assert list(got) == list(expected)
    for key, arrays in expected.items():
        assert len(got[key]) == len(arrays)
        for column, array in zip(got[key], arrays):
            assert np.abs(_from_coords(column[..., 0], desc) - array).max() <= 1e-13, key
    # the battery draws the same pairs from the same seed
    battery = symmetry_battery(desc, 50, seed=21)
    assert list(battery) == list(expected)
    for key, arrays in expected.items():
        assert abs(battery[key] - max(np.abs(a).max() for a in arrays)) <= 1e-13, key
    for k in range(3):
        a = AlgebraElement(desc, e[k])
        b = AlgebraElement(desc, f[k])
        single = element_symmetry_defects(e[k], f[k], desc)
        a1 = max(
            element_onorm(d, desc)
            for key in ("compression_symmetry", "anticommutator_form")
            for d in single.get(key, ())
        )
        assert abs(a1_check(a, b) - a1) <= 1e-13
        (eq10,) = single["second_order_difference"]
        assert abs(eq10_check(a, b) - element_onorm(eq10, desc)) <= 1e-13


@pytest.mark.parametrize("level,n", [("C", 3), ("O", 3)])
def test_lemma_suite(level, n):
    tol = 1e-8 if level == "O" else 1e-9
    res = lemma_suite(AlgebraDescriptor(level, n), trials=100, seed=17)
    assert max(res.values()) <= tol, res


@pytest.mark.parametrize("level,n", [("R", 3), ("C", 4), ("H", 2)])
def test_t_structure(level, n):
    res = t_structure_battery(AlgebraDescriptor(level, n), trials=100, seed=18)
    assert res["spectrum"] <= 1e-8
    assert res["quadratic_relation"] <= 1e-9
    assert res["partition"] <= 1e-10
    assert res["norm_excess"] <= 1e-9
    assert res["witness_gap"] <= 1e-10
