"""States, conditional probabilities and the mixture identity on matrix models."""

import numpy as np
import pytest

from ucplab import jordan
from ucplab.interference import saturating_configuration
from ucplab.jordan import (
    AlgebraDescriptor,
    AlgebraElement,
    DescriptorMismatchError,
    NotIdempotentError,
    identity,
    is_positive,
    random_element,
    random_projection,
    random_state_density,
)
from ucplab.model import (
    ConditioningOnNullError,
    State,
    complement,
    conditional_probability,
    conditional_state,
    evaluate,
    orthogonal,
)

MODELS = [("R", 2), ("R", 3), ("C", 2), ("C", 3), ("C", 4), ("H", 2), ("H", 3), ("O", 3)]


def diag_element(level, n, values):
    desc = AlgebraDescriptor(level, n)
    entries = np.zeros((n, n, desc.d))
    for i, v in enumerate(values):
        entries[i, i, 0] = float(v)
    return AlgebraElement(desc, entries)


def test_state_requires_trace_one():
    with pytest.raises(ValueError):
        State(diag_element("C", 2, [1.0, 1.0]))


def test_state_rejects_non_positive_density():
    # trace one, but mu(diag(0, 1)) would be -1
    with pytest.raises(ValueError, match="positive"):
        State(diag_element("R", 2, [2.0, -1.0]))


def test_state_rejects_non_hermitian_density():
    rho = diag_element("C", 2, [0.5, 0.5]).entries
    rho[0, 1] = (0.25, 0.25)  # rho[1, 0] stays zero
    with pytest.raises(ValueError, match="Hermitian"):
        State(AlgebraElement(AlgebraDescriptor("C", 2), rho))


@pytest.mark.parametrize("level,n", MODELS)
def test_constructed_states_are_accepted(level, n):
    # constructed states can have eigenvalues a few rounding errors below
    # zero (down to about -7e-16 for rank-one O3 conditionals), which the
    # state tolerance must accept
    desc = AlgebraDescriptor(level, n)
    saturating_configuration(desc)
    for k in range(20):
        mu, nu = State.random(desc, rng_seed=k), State.random(desc, rng_seed=50 + k)
        State.mix(0.3, mu, nu)
        for rank in range(1, n + 1):
            conditional_state(mu, random_projection(desc, rank=rank, rng_seed=1000 + k))


def test_is_positive_default_accepts_rank_one_o3_conditionals():
    # cubic eigenvalues of these valid states reach about -7e-16
    desc = AlgebraDescriptor("O", 3)
    for k in range(100):
        nu = conditional_state(State.random(desc, rng_seed=k), random_projection(desc, 1, 1000 + k))
        assert is_positive(nu.density)
    assert not is_positive(diag_element("O", 3, [1.0, 1e-3, -1e-3]))
    # the default margin is STATE_TOL (1 + max|entry|) = 2e-6 here, read off
    # the O-level characteristic cubic
    assert is_positive(diag_element("O", 3, [1.0, 0.0, -1.5e-6]))
    assert not is_positive(diag_element("O", 3, [1.0, 0.0, -3e-6]))


def test_evaluate_diagonal_oracle():
    mu = State(diag_element("C", 2, [0.25, 0.75]))
    e = diag_element("C", 2, [1.0, 0.0])
    assert evaluate(mu, e) == pytest.approx(0.25)
    assert evaluate(mu, identity(e.descriptor)) == pytest.approx(1.0)


def test_conditional_probability_two_slit_oracle():
    # state = projection onto (1,1)/sqrt(2); conditioning on the first
    # diagonal unit reproduces the collapse value 1/2 * 1/2 / (1/2) = 1/2.
    desc = AlgebraDescriptor("C", 2)
    plus = np.zeros((2, 2, 2))
    plus[..., 0] = 0.5
    f = AlgebraElement(desc, plus)
    mu = State(f)
    e = diag_element("C", 2, [1.0, 0.0])
    assert evaluate(mu, e) == pytest.approx(0.5)
    assert conditional_probability(mu, e, f) == pytest.approx(0.5)
    # conditioned density is the first diagonal unit itself
    nu = conditional_state(mu, e)
    assert np.allclose(nu.density.entries, diag_element("C", 2, [1.0, 0.0]).entries, atol=1e-12)


def test_conditioning_on_null_event_raises():
    mu = State(diag_element("C", 2, [1.0, 0.0]))
    e = diag_element("C", 2, [0.0, 1.0])
    with pytest.raises(ConditioningOnNullError):
        conditional_state(mu, e)
    with pytest.raises(ConditioningOnNullError):
        conditional_probability(mu, e, identity(e.descriptor))


def test_conditioning_requires_an_event():
    # 1.5 times the first diagonal unit: mu(e) = 0.75 is positive, e is not idempotent
    mu = State(diag_element("C", 2, [0.5, 0.5]))
    e = diag_element("C", 2, [1.5, 0.0])
    with pytest.raises(NotIdempotentError):
        conditional_state(mu, e)
    with pytest.raises(NotIdempotentError):
        conditional_probability(mu, e, identity(e.descriptor))


def test_conditional_probability_requires_f_to_be_an_event():
    # mu(f | e) is defined for events f; on this random C3 element it would
    # read -0.060, a negative "probability"
    desc = AlgebraDescriptor("C", 3)
    mu = State.random(desc, rng_seed=1)
    e = random_projection(desc, rank=1, rng_seed=2)
    with pytest.raises(NotIdempotentError):
        conditional_probability(mu, e, random_element(desc, rng_seed=3))
    with pytest.raises(DescriptorMismatchError):
        conditional_probability(mu, e, identity(AlgebraDescriptor("C", 2)))
    assert conditional_probability(mu, e, identity(desc)) == pytest.approx(1.0)


def test_conditional_probability_checks_each_event_once(monkeypatch):
    desc = AlgebraDescriptor("C", 3)
    mu = State.random(desc, rng_seed=1)
    e = random_projection(desc, rank=1, rng_seed=2)
    expected = conditional_probability(mu, e, identity(desc))
    checked = []
    original = jordan.is_idempotent

    def counted(x, *args):
        checked.append(x)
        return original(x, *args)

    monkeypatch.setattr(jordan, "is_idempotent", counted)
    assert conditional_probability(mu, e, identity(desc)) == expected
    assert len(checked) == 2  # e and f


def test_orthogonality_and_complement():
    e = diag_element("R", 3, [1.0, 0.0, 0.0])
    f = diag_element("R", 3, [0.0, 1.0, 0.0])
    assert orthogonal(e, f)
    assert not orthogonal(e, e)
    assert np.allclose(complement(e).entries, diag_element("R", 3, [0.0, 1.0, 1.0]).entries)


@pytest.mark.parametrize("level,n", MODELS)
def test_conditional_state_is_a_state(level, n):
    desc = AlgebraDescriptor(level, n)
    mu = State.random(desc, rng_seed=3)
    e = random_projection(desc, rank=1, rng_seed=4)
    nu = conditional_state(mu, e)
    # trace one is asserted by the State constructor; check support: nu(e) = 1
    assert evaluate(nu, e) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("level,n", MODELS)
def test_mixture_identity(level, n):
    # conditional of s*mu + (1-s)*nu under e is the (renormalized) mixture
    # of the two conditionals with weights s*mu(e) and (1-s)*nu(e).
    desc = AlgebraDescriptor(level, n)
    rng = np.random.default_rng(17)
    for k in range(10):
        mu = State(random_state_density(desc, rng_seed=100 + k))
        nu = State(random_state_density(desc, rng_seed=200 + k))
        e = random_projection(desc, rank=1 + k % n, rng_seed=300 + k)
        s = float(rng.random())
        mix = State.mix(s, mu, nu)
        pe_mu, pe_nu = evaluate(mu, e), evaluate(nu, e)
        if min(pe_mu, pe_nu) < 1e-8:
            continue
        w = s * pe_mu / (s * pe_mu + (1.0 - s) * pe_nu)
        lhs = conditional_state(mix, e).density.entries
        rhs = (
            w * conditional_state(mu, e).density.entries
            + (1.0 - w) * conditional_state(nu, e).density.entries
        )
        assert np.abs(lhs - rhs).max() <= 1e-10
