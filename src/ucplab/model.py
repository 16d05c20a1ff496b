"""Events, states and conditional probabilities over the matrix algebras.

A state is a positive trace-one density rho; it evaluates elements through
the trace form mu(x) = <rho, x>.  `State` rejects a density that is not
Hermitian, not positive or not of trace one, each to within STATE_TOL.
Conditioning on an idempotent e follows the compression map:
mu(f | e) = mu(U_e f) / mu(e), and the conditioned state itself has density
U_e rho / mu(e).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jordan
from .jordan import (
    AlgebraDescriptor,
    AlgebraElement,
    DEFAULT_TOL,
    STATE_TOL,
    inner,
    quadratic_map_U,
)


ORTHOGONALITY_TOL = 1e-8


class ConditioningOnNullError(ValueError):
    """Conditioning on an event of (numerically) zero probability."""


@dataclass(frozen=True)
class State:
    density: AlgebraElement

    def __post_init__(self):
        rho = self.density
        if abs(jordan.trace(rho) - 1.0) > STATE_TOL:
            raise ValueError("state density must have trace one")
        if not rho.is_hermitian(STATE_TOL):
            raise ValueError("state density must be Hermitian")
        hermitian = AlgebraElement(rho.descriptor, jordan._hermitize(rho.entries))
        if not jordan.is_positive(hermitian):
            raise ValueError("state density must be positive")

    @property
    def descriptor(self) -> AlgebraDescriptor:
        return self.density.descriptor

    @classmethod
    def random(cls, desc: AlgebraDescriptor, rng_seed=0) -> "State":
        return cls(jordan.random_state_density(desc, rng_seed))

    @classmethod
    def mix(cls, s: float, mu: "State", nu: "State") -> "State":
        return cls(s * mu.density + (1.0 - s) * nu.density)


def evaluate(mu: State, x: AlgebraElement) -> float:
    """Linear extension of the state: mu(x) = trace(rho o x)."""
    return inner(mu.density, x)


def _orthogonal(a, b) -> bool:
    """e o f = 0 on raw arrays, relative to the size of the entries."""
    scale = 1.0 + np.abs(a).max() + np.abs(b).max()
    return bool(np.abs(jordan._jp(a, b)).max() <= ORTHOGONALITY_TOL * scale)


def orthogonal(e: AlgebraElement, f: AlgebraElement) -> bool:
    """Events are orthogonal iff e + f is again an event, i.e. e o f = 0."""
    e._check(f)
    jordan._require_hermitian(e, f)
    return _orthogonal(e.entries, f.entries)


def complement(e: AlgebraElement) -> AlgebraElement:
    return jordan.identity(e.descriptor) - e


def conditional_probability(mu: State, e: AlgebraElement, f: AlgebraElement) -> float:
    """mu(f | e) = mu(U_e f) / mu(e) for events e and f; mu(e) must exceed DEFAULT_TOL."""
    desc = jordan._require_events((e, f), (mu.density,))
    pe = evaluate(mu, e)
    if pe <= DEFAULT_TOL:
        raise ConditioningOnNullError(f"mu(e) = {pe} is not positive")
    return evaluate(mu, jordan._compress(desc, e, f)) / pe


def conditional_state(mu: State, e: AlgebraElement) -> State:
    """Density of the conditioned state: U_e rho / mu(e); mu(e) must exceed DEFAULT_TOL."""
    pe = evaluate(mu, e)
    if pe <= DEFAULT_TOL:
        raise ConditioningOnNullError(f"mu(e) = {pe} is not positive")
    return State((1.0 / pe) * quadratic_map_U(e, mu.density))
