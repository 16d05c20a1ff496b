"""Interference operators, corridor bounds and the identity batteries."""

from fractions import Fraction

import numpy as np
import pytest

from ucplab.finite import FiniteLogic, conditional_table
from ucplab.interference import (
    I2_operator,
    I2_scalar,
    I3_operator,
    I3_scalar,
    NotOrthogonalError,
    S_map,
    T_map,
    U_operator,
    a1_check,
    corridor_sample,
    corridor_samples,
    eq10_check,
    finite_I3_scan,
    i3_basis_norm_max,
    lemma_suite,
    saturating_configuration,
    symmetry_battery,
    t_structure_battery,
)
from ucplab.interference import _u_dense
from ucplab.jordan import (
    AlgebraDescriptor,
    AlgebraElement,
    _u_apply,
    coords,
    identity,
    random_element,
    random_projection,
    spectral_decompose,
)
from ucplab.model import State, orthogonal

MODELS = [("R", 2), ("R", 3), ("C", 2), ("C", 3), ("C", 4), ("H", 2), ("H", 3), ("O", 3)]


def test_u_operator_requires_idempotent():
    desc = AlgebraDescriptor("C", 2)
    with pytest.raises(Exception):
        U_operator(random_element(desc, rng_seed=0))


def test_i2_operator_requires_orthogonality():
    desc = AlgebraDescriptor("C", 3)
    e = random_projection(desc, rank=2, rng_seed=1)
    with pytest.raises(NotOrthogonalError):
        I2_operator(e, e)


def test_operators_share_the_model_orthogonality_test():
    # 1e-7 off-diagonal entries: e o f is of order 1e-7, above the 1e-8 tolerance
    desc = AlgebraDescriptor("R", 2)
    e = AlgebraElement(desc, np.array([[[1.0], [1e-7]], [[1e-7], [0.0]]]))
    f = AlgebraElement(desc, np.array([[[0.0], [1e-7]], [[1e-7], [1.0]]]))
    assert not orthogonal(e, f)
    with pytest.raises(NotOrthogonalError):
        I2_operator(e, f)
    with pytest.raises(NotOrthogonalError):
        I3_operator(e, f, AlgebraElement(desc, np.zeros((2, 2, 1))))


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
    op = I3_operator(es[0], es[1], es[2])
    assert np.abs(op.matrix).max() <= tol


@pytest.mark.parametrize("level,n", MODELS)
def test_i3_dense_sweep(level, n):
    tol = 1e-8 if level == "O" else 1e-9
    trials = 50 if level == "O" else 100
    assert i3_basis_norm_max(AlgebraDescriptor(level, n), trials, seed=9) <= tol


@pytest.mark.parametrize("level,n", MODELS)
def test_dense_builder_matches_vector_oracle(level, n):
    desc = AlgebraDescriptor(level, n)
    table = desc.table
    g = np.stack([random_projection(desc, rank=1 + k % n, rng_seed=20 + k).entries for k in range(4)])
    x = np.stack([random_element(desc, rng_seed=30 + k).entries for k in range(4)])
    dense = _u_dense(desc, g)
    assert dense.shape == (4, desc.basis_dim, desc.basis_dim)
    # the batched matrices act on coordinates as U_g acts on elements
    image = (dense @ coords(x, desc)[..., None])[..., 0]
    assert np.abs(image - coords(_u_apply(g, x, table), desc)).max() <= 1e-12
    # a product U_e @ U_f applies U_f first, then U_e
    e, f = g[0], g[1]
    composed = coords(_u_apply(e, _u_apply(f, x[0], table), table), desc)
    assert np.abs(dense[0] @ dense[1] @ coords(x[0], desc) - composed).max() <= 1e-12
    # I2_operator and I3_operator agree with the sums of vector compressions
    es = list(spectral_decompose(random_element(desc, rng_seed=40)).idempotents)
    if len(es) == 2:
        es.append(identity(desc) - es[0] - es[1])
    a, b, c = (p.entries for p in es[:3])
    y = random_element(desc, rng_seed=41)

    ua, ub, uc, uab, ubc, uac, uabc = (
        _u_apply(p, y.entries, table) for p in (a, b, c, a + b, b + c, a + c, a + b + c)
    )
    two = uab - ua - ub
    seven = uabc - uab - ubc - uac + ua + ub + uc
    assert np.abs(I2_operator(es[0], es[1])(y).entries - two).max() <= 1e-12
    assert np.abs(I3_operator(*es[:3])(y).entries - seven).max() <= 1e-12


def test_operator_algebra_relations():
    # U_e = 2 T_e^2 - T_e and S_e = 2 U_e + 2 U_e' - id on the basis.
    desc = AlgebraDescriptor("C", 3)
    e = random_projection(desc, rank=1, rng_seed=11)
    t = T_map(e).matrix
    u = U_operator(e).matrix
    s = S_map(e).matrix
    uc = U_operator(identity(desc) - e).matrix
    eye = np.eye(desc.basis_dim)
    assert np.abs(2 * t @ t - t - u).max() <= 1e-9
    assert np.abs(s - 2 * u - 2 * uc + eye).max() <= 1e-12


@pytest.mark.parametrize("level,n", MODELS)
def test_corridor_random_sweep(level, n):
    points = corridor_samples(AlgebraDescriptor(level, n), 300, seed=12)
    assert len(points) == 300
    assert all(p.lower_ok and p.upper_ok for p in points)


def test_corridor_classical_diagonal():
    points = corridor_samples(AlgebraDescriptor("C", 3), 200, seed=13, classical=True)
    assert max(abs(p.p - p.q) for p in points) <= 1e-12


@pytest.mark.parametrize("level,n", MODELS)
def test_saturating_configuration_hits_upper_bound(level, n):
    mu, e, f = saturating_configuration(AlgebraDescriptor(level, n))
    point = corridor_sample(mu, e, f)
    assert point.p == pytest.approx(0.5, abs=1e-12)
    assert point.q == pytest.approx(1.0, abs=1e-12)
    assert abs(point.q - 2 * point.p) <= 1e-12


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


def test_finite_scan_boolean_exact_zero():
    report = finite_I3_scan(FiniteLogic([(1, 2, 3)]))
    assert report["max_abs_i2"] == Fraction(0)
    assert report["max_abs_i3"] == Fraction(0)
    assert report["skipped_i2"] == 0 and report["skipped_i3"] == 0
    assert (report["pairs"], report["triples"]) == (14, 15)


def test_finite_scan_pasted_regression():
    # regression fixture: UC2-uniqueness fails on this logic, so the scan
    # skips configurations whose conditionals are not unique and reports
    # exact zeros on all computable ones.
    report = finite_I3_scan(FiniteLogic([(1, 2, 3), (3, 4, 5)]))
    assert report["max_abs_i2"] == Fraction(0)
    assert report["max_abs_i3"] == Fraction(0)
    assert (report["pairs"], report["triples"]) == (23, 25)
    assert (report["skipped_i2"], report["skipped_i3"]) == (576, 672)
    assert report["vertex_states"] == 5


def oracle_I3_scan(logic, conditionals):
    """The scan as nested loops over Fraction values: re-evaluates every term."""
    verts = logic.state_vertices()
    events = logic.events
    missing = object()

    def term(g, vi, mu, f):
        pg = logic.evaluate(mu, g)
        if pg == 0:
            return Fraction(0)
        nu = conditionals.get((g.key, vi))
        if nu is None:
            return missing
        return pg * logic.evaluate(nu, f)

    def scan_tuples(tuples):
        best = Fraction(0)
        witness = None
        skipped = 0
        for parts, groups in tuples:
            for vi, mu in enumerate(verts):
                for f in events:
                    total = Fraction(0)
                    bad = False
                    for sign, g in groups:
                        val = term(g, vi, mu, f)
                        if val is missing:
                            bad = True
                            break
                        total += sign * val
                    if bad:
                        skipped += 1
                        continue
                    if abs(total) > abs(best):
                        best = total
                        witness = {
                            "events": [sorted(p.canonical_rep) for p in parts],
                            "f": sorted(f.canonical_rep),
                            "state_vertex": vi,
                            "value": str(total),
                        }
        return best, witness, skipped

    pair_tuples = []
    for i, e1 in enumerate(events):
        for e2 in events[i:]:
            if logic.orthogonal(e1, e2):
                pair_tuples.append(((e1, e2), [(1, logic.sum(e1, e2)), (-1, e1), (-1, e2)]))
    triple_tuples = []
    for i, e1 in enumerate(events):
        for j, e2 in enumerate(events[i:], start=i):
            if not logic.orthogonal(e1, e2):
                continue
            s12 = logic.sum(e1, e2)
            for e3 in events[j:]:
                if not (logic.orthogonal(e1, e3) and logic.orthogonal(e2, e3)):
                    continue
                if not logic.orthogonal(s12, e3):
                    continue
                groups = [
                    (1, logic.sum(s12, e3)),
                    (-1, s12),
                    (-1, logic.sum(e1, e3)),
                    (-1, logic.sum(e2, e3)),
                    (1, e1),
                    (1, e2),
                    (1, e3),
                ]
                triple_tuples.append(((e1, e2, e3), groups))
    max_i2, wit_i2, skip2 = scan_tuples(pair_tuples)
    max_i3, wit_i3, skip3 = scan_tuples(triple_tuples)
    return {
        "max_abs_i2": max_i2,
        "i2_witness": wit_i2,
        "max_abs_i3": max_i3,
        "i3_witness": wit_i3,
        "skipped_i2": skip2,
        "skipped_i3": skip3,
        "pairs": len(pair_tuples),
        "triples": len(triple_tuples),
        "vertex_states": len(verts),
    }


def perturbed_table(logic, seed):
    """Every key of the real table sent to a random vertex state; every 7th key dropped."""
    rng = np.random.default_rng(seed)
    verts = logic.state_vertices()
    keys = list(conditional_table(logic))
    return {key: verts[rng.integers(len(verts))] for i, key in enumerate(keys) if i % 7 != 6}


ORACLE_LOGICS = {
    "boolean3": [(1, 2, 3)],
    "boolean4": [(1, 2, 3, 4)],
    "pasting": [(1, 2, 3), (3, 4, 5)],
    "triangle": [(1, 2, 3), (3, 4, 5), (5, 6, 1)],
    "square": [(1, 2), (2, 3), (3, 4), (4, 1)],
}


@pytest.mark.parametrize("name", ORACLE_LOGICS)
def test_finite_scan_matches_oracle(name):
    logic = FiniteLogic(ORACLE_LOGICS[name])
    tables = [conditional_table(logic)] + [perturbed_table(logic, seed) for seed in range(2)]
    for table in tables:
        assert finite_I3_scan(logic, table) == oracle_I3_scan(logic, table)


def test_finite_scan_oracle_cases_reach_signed_witnesses():
    # The real tables give zeros everywhere; the perturbed ones must exercise
    # the signed maxima and the witness values.
    logic = FiniteLogic(ORACLE_LOGICS["boolean4"])
    reports = [finite_I3_scan(logic, perturbed_table(logic, seed)) for seed in range(2)]
    assert any(r["max_abs_i2"] < 0 for r in reports)
    assert any(r["max_abs_i3"] < 0 and r["i3_witness"]["value"].startswith("-") for r in reports)
    assert any(r["skipped_i2"] > 0 for r in reports)
