"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Covered matrix models: 2x2 and 3x3 real, 2x2/3x3/4x4 complex, 2x2 and 3x3
quaternionic, and the 3x3 octonionic (exceptional) model.  Octonionic
tolerances are one decade looser because its eigenvalues come from a cubic
characteristic polynomial rather than a Hermitian eigensolver.
"""

from fractions import Fraction

import numpy as np
import pytest

from ucplab.cli import main
from ucplab.finite import FiniteLogic, conditional_state_vertices, finite_I3_scan
from ucplab.interference import (
    I2_scalar,
    I3_scalar,
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
from ucplab.jordan import (
    AlgebraDescriptor,
    AlgebraElement,
    property_battery,
    random_projection,
    random_state_density,
)
from ucplab.model import State, conditional_state, evaluate

MODELS = [("R", 2), ("R", 3), ("C", 2), ("C", 3), ("C", 4), ("H", 2), ("H", 3), ("O", 3)]


def announce(capsys, criterion, passed, detail=""):
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)


def model_tol(level, tight=1e-9, loose=1e-8):
    return loose if level == "O" else tight


def test_criterion_1_third_order_vanishing(capsys):
    worst = {}
    for level, n in MODELS:
        trials = 200 if level == "O" else 1000
        worst[(level, n)] = i3_basis_norm_max(AlgebraDescriptor(level, n), trials, seed=101)
    passed = all(v <= model_tol(level) for (level, _), v in worst.items())
    announce(capsys, 1, passed, f"max dense norm {max(worst.values()):.2e}")
    for (level, n), v in worst.items():
        assert v <= model_tol(level), (level, n, v)


def test_criterion_2_corridor_bounds(capsys):
    passed = True
    for level, n in MODELS:
        points = corridor_samples(AlgebraDescriptor(level, n), 10_000, seed=202, tol=1e-9)
        passed &= all(p.lower_ok and p.upper_ok for p in points)
        classical = corridor_samples(
            AlgebraDescriptor(level, n), 1000, seed=203, classical=True
        )
        passed &= max(abs(p.p - p.q) for p in classical) <= 1e-12
    mu, e, f = saturating_configuration(AlgebraDescriptor("C", 2))
    point = corridor_sample(mu, e, f)
    saturates = abs(point.p - 0.5) <= 1e-12 and abs(point.q - 1.0) <= 1e-12
    passed &= saturates
    announce(capsys, 2, passed, "10^4 samples per model + boundary configuration")
    assert passed


def test_criterion_3_symmetry_condition(capsys):
    worst_pair = 0.0
    passed = True
    for level, n in MODELS:
        res = symmetry_battery(AlgebraDescriptor(level, n), 1000, seed=303)
        passed &= res["compression_symmetry"] <= 1e-9
        passed &= res["second_order_difference"] <= 1e-9
        if level != "O":
            passed &= res["anticommutator_form"] <= 1e-12
        worst_pair = max(worst_pair, res["compression_symmetry"])
        e = random_projection(AlgebraDescriptor(level, n), rank=1, rng_seed=31)
        f = random_projection(AlgebraDescriptor(level, n), rank=n - 1, rng_seed=32)
        passed &= a1_check(e, f) <= 1e-9 and eq10_check(e, f) <= 1e-9
    announce(capsys, 3, passed, f"worst residual {worst_pair:.2e}")
    assert passed


def test_criterion_4_multiplication_map_structure(capsys):
    passed = True
    for level, n in MODELS:
        res = t_structure_battery(AlgebraDescriptor(level, n), 200, seed=404)
        passed &= res["spectrum"] <= 1e-8
        passed &= res["quadratic_relation"] <= 1e-9
        passed &= res["partition"] <= 1e-10
        passed &= res["norm_excess"] <= 1e-9
        passed &= res["witness_gap"] <= 1e-10
    announce(capsys, 4, passed, "spectrum in {0, 1/2, 1}, norm attained at the event itself")
    assert passed


def test_criterion_5_lemma_suite(capsys):
    worst = 0.0
    passed = True
    for level, n in MODELS:
        res = lemma_suite(AlgebraDescriptor(level, n), 500, seed=505)
        tol = model_tol(level)
        passed &= max(res.values()) <= tol
        worst = max(worst, max(res.values()))
    announce(capsys, 5, passed, f"500 configurations per model, worst residual {worst:.2e}")
    assert passed


def test_criterion_6_jordan_structure(capsys):
    passed = True
    worst = 0.0
    for level, n in MODELS:
        res = property_battery(AlgebraDescriptor(level, n), 1000, seed=606)
        passed &= max(res.values()) <= 1e-9
        worst = max(worst, max(res.values()))
    announce(capsys, 6, passed, f"10^3 draws per model, worst residual {worst:.2e}")
    assert passed


def test_criterion_7_classical_baseline(capsys):
    scan = finite_I3_scan(FiniteLogic([(1, 2, 3)]))
    exact_zero = scan["max_abs_i2"] == Fraction(0) and scan["max_abs_i3"] == Fraction(0)

    desc = AlgebraDescriptor("C", 3)
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        w = rng.random(3)
        rho = np.zeros((3, 3, 2))
        rho[np.arange(3), np.arange(3), 0] = w / w.sum()
        mu = State(AlgebraElement(desc, rho))

        def diag_proj(mask):
            p = np.zeros((3, 3, 2))
            p[np.arange(3), np.arange(3), 0] = mask
            return AlgebraElement(desc, p)

        e1, e2, e3 = diag_proj([1, 0, 0]), diag_proj([0, 1, 0]), diag_proj([0, 0, 1])
        f = diag_proj(rng.integers(0, 2, 3).astype(float))
        worst = max(worst, abs(I2_scalar(mu, f, e1, e2)), abs(I3_scalar(mu, f, e1, e2, e3)))
    passed = exact_zero and worst <= 1e-12
    announce(capsys, 7, passed, f"exact rational zeros; diagonal float residual {worst:.2e}")
    assert passed


def test_criterion_8_search_determinism(tmp_path, capsys):
    out3 = tmp_path / "three.jsonl"
    assert main(["search", "--max-atoms", "3", "--out", str(out3)]) == 0
    lines = out3.read_text().strip().splitlines()
    records = [__import__("json").loads(line) for line in lines]
    record = records[0]
    one_boolean = (
        len(records) == 2  # one record + summary
        and record["blocks"] == [[1, 2, 3]]
        and record["n_events"] == 8
        and record["n_states"] == 3
        and record["uc1_pass"]
        and record["uc2_pass"]
        and record["scan"]["max_abs_i2"] == "0"
        and record["scan"]["max_abs_i3"] == "0"
    )

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        assert main(["search", "--max-atoms", "5", "--blocks", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    hand_count = len(a.read_text().strip().splitlines()) == 5  # 4 records + summary
    passed = one_boolean and identical and hand_count
    announce(capsys, 8, passed, "1 record at 3 atoms, 4 at 5 atoms, byte-identical reruns")
    assert passed


def test_criterion_9_mixture_identity(capsys):
    passed = True
    worst = 0.0
    for level, n in MODELS:
        desc = AlgebraDescriptor(level, n)
        rng = np.random.default_rng(909)
        checked = 0
        k = 0
        while checked < 100:
            k += 1
            mu = State(random_state_density(desc, rng_seed=1000 + k))
            nu = State(random_state_density(desc, rng_seed=2000 + k))
            e = random_projection(desc, rank=1 + k % n, rng_seed=3000 + k)
            s = float(rng.random())
            pe_mu, pe_nu = evaluate(mu, e), evaluate(nu, e)
            if min(pe_mu, pe_nu) < 1e-6:
                continue
            checked += 1
            mix = State.mix(s, mu, nu)
            w = s * pe_mu / (s * pe_mu + (1.0 - s) * pe_nu)
            lhs = conditional_state(mix, e).density.entries
            rhs = (
                w * conditional_state(mu, e).density.entries
                + (1.0 - w) * conditional_state(nu, e).density.entries
            )
            gap = float(np.abs(lhs - rhs).max())
            worst = max(worst, gap)
            passed &= gap <= 1e-10

    # exact counterpart on the Boolean three-atom logic
    logic = FiniteLogic([(1, 2, 3)])
    F = Fraction
    e = logic.event_by_atoms({1, 2})
    exact_ok = True
    for mu_w, nu_w, s in [
        ((F(1, 2), F(1, 3), F(1, 6)), (F(1, 4), F(1, 4), F(1, 2)), F(2, 5)),
        ((F(1, 6), F(1, 6), F(2, 3)), (F(3, 5), F(1, 5), F(1, 5)), F(1, 7)),
    ]:
        mix_w = tuple(s * a + (1 - s) * b for a, b in zip(mu_w, nu_w))
        pe_mu = logic.evaluate(mu_w, e)
        pe_nu = logic.evaluate(nu_w, e)
        w = s * pe_mu / (s * pe_mu + (1 - s) * pe_nu)
        (cond_mix,) = conditional_state_vertices(logic, mix_w, e)
        (cond_mu,) = conditional_state_vertices(logic, mu_w, e)
        (cond_nu,) = conditional_state_vertices(logic, nu_w, e)
        expected = tuple(w * a + (1 - w) * b for a, b in zip(cond_mu, cond_nu))
        exact_ok &= cond_mix == expected
    passed &= exact_ok
    announce(capsys, 9, passed, f"matrix residual {worst:.2e}; finite case exact")
    assert passed
