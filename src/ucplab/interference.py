"""Interference terms, the conditional-probability corridor, the symmetry
condition, and the identity batteries for the compression maps.

This module is the dense layer: everything here works on numpy arrays of a
matrix model.  The exact interference scan over finite logics lives in
`finite`, and this module imports nothing from there.

All the maps here are linear on the Hermitian elements of a matrix model:

  U_e x = 2 e o (e o x) - e o x        (conditionalization / compression)
  T_e = (id + U_e - U_e') / 2          (multiplication-by-e in quantum models)
  I2(e1, e2) = U_{e1+e2} - U_{e1} - U_{e2}
  I3(e1, e2, e3) = U_{e1+e2+e3} - sum of pair terms + sum of single terms

Every compression is the batched (..., D, D) matrix that `jordan._u_dense`
builds from the model's tabulated `jordan.structure_constants`; it acts on
coordinate columns over `jordan.hermitian_basis`.  Every battery states its
identities as sums and `@` products of these raw matrices, applied to
coordinate columns where an identity acts on events.  `_alternating_subsets`
is the sign rule of I2 and I3: `_interference_dense` sums compressions
over it, and `I2_scalar` and `I3_scalar` evaluate mu on that sum applied
to f.  The exact scan `finite.finite_I3_scan` needs no sign rule: it builds
each order from the one below by Sorkin's recursion I3(a, b, c) =
I2(a + b, c) - I2(a, c) - I2(b, c), an identity the tests check on these
dense maps too.  Each compression is built on its own, so the vanishing of
I3 is a numerical fact and not an algebraic cancellation.  Every entry
point that takes events checks them with `jordan._require_events`: one
model, and every event idempotent.

The corridor needs no matrix.  With e' = 1 - e, linearity alone sums the two
compressions in p = mu(U_e f) + mu(U_e' f) to mu(f - 4 (e o f - e o (e o f))),
so `_corridor_rows` evaluates p directly, with two Jordan products and no
basis axis, for one sample and for a batch alike.  The bound q <= 2p is the
positivity of S_e = 2 U_e + 2 U_e' - id, but no code builds S_e.  On the
dyadic entries of `saturating_configuration` every step is exact, so that
point lands on (1/2, 1) exactly.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import model
from .jordan import (
    AlgebraDescriptor,
    AlgebraElement,
    _from_coords,
    _hermitize,
    _inner,
    _jp,
    _lagrange_basis,
    _lagrange_polynomial,
    _matmul,
    _norm,
    _random_densities,
    _random_elements,
    _require_events,
    _rng,
    _scale_identity,
    _separated_spectral_batch,
    _u_dense,
    coords,
)
from .model import State


# Trials per batch in `corridor_samples`, which bounds its memory: H_3(O)
# holds about 4 KB per trial in flight.
CORRIDOR_CHUNK = 4096


class NotOrthogonalError(ValueError):
    pass


def _require_orthogonal(*events):
    for i in range(len(events)):
        for j in range(i + 1, len(events)):
            if not model._orthogonal(events[i], events[j]):
                raise NotOrthogonalError("events must be mutually orthogonal")


def _worst(arr) -> float:
    """Largest absolute entry of a defect array (0 for an empty one)."""
    return float(np.abs(arr).max()) if arr.size else 0.0


def _random_projections(rng, desc: AlgebraDescriptor, basis, parts):
    """`parts` mutually orthogonal projections dealt from one spectral batch,
    given as the shared powers and Lagrange coefficients `basis` of
    `jordan._lagrange_basis` (coefficients (trials, n, n)).

    Each primitive idempotent is assigned to one of the `parts` bins or to a
    leftover bin, and the first min(parts + 1, n) idempotents are then dealt
    one to each bin, the leftover bin last.  So no part is zero where
    n >= parts, and where n > parts the parts never sum to 1: with parts=1
    no event is 0 or 1 once n >= 2, so no identity about it holds
    trivially.  The price is a fixed rank pattern at n = parts + 1, where
    every part and the leftover have rank 1: lemma pairs at n = 3 and
    triples at n = 4 are never complete, and no triple has a rank-2 part.
    Complete triples of nonzero parts are drawn only at n = 3, all of rank 1.

    A part is the one Lagrange polynomial whose coefficients are the sum of
    the rows dealt to it, so no idempotent is formed on its own; each part
    comes back as its own contiguous, hermitized array.

    The idempotents come in eigenvalue order, but the eigenvectors of these
    invariant random elements do not depend on their eigenvalues, so
    dealing by index adds no bias; it draws no random number, so every
    later draw is unchanged.
    """
    powers, coef = basis
    trials, n = coef.shape[:2]
    labels = rng.integers(0, parts + 1, (trials, n))  # bin `parts` = leftover
    labels[:, : min(parts + 1, n)] = np.arange(min(parts + 1, n))
    dealt = [(coef * (labels == k)[..., None]).sum(axis=1) for k in range(parts)]
    return [_hermitize(_lagrange_polynomial(desc, powers, c)) for c in dealt]


def _spectral_basis(desc: AlgebraDescriptor, rng, count):
    """`jordan._lagrange_basis` of `count` random elements with separated
    spectra: what `_random_projections` deals from."""
    return _lagrange_basis(*_separated_spectral_batch(desc, rng, count), desc)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _t_dense(u, u_comp) -> np.ndarray:
    """T_e = (id + U_e - U_e') / 2 from the dense U_e and U_e'."""
    return 0.5 * (np.eye(u.shape[-1]) + u - u_comp)


def _alternating_subsets(parts):
    """(sign, subset) for every nonempty subset S of the k parts, largest
    first, with sign (-1)^(k - |S|): the terms of the k-th order
    interference I_k (Sorkin 1994)."""
    k = len(parts)
    for size in range(k, 0, -1):
        for subset in combinations(parts, size):
            yield (-1) ** (k - size), subset


def _interference_dense(desc: AlgebraDescriptor, *parts) -> np.ndarray:
    """I_k as a dense map: sign * U_{sum of S} summed over
    `_alternating_subsets(parts)`, I2 for two parts and I3 for three.  Each
    compression is built on its own."""
    return sum(sign * _u_dense(desc, sum(subset)) for sign, subset in _alternating_subsets(parts))


def i3_basis_norm_max(desc: AlgebraDescriptor, trials: int, seed=0) -> float:
    """Max over random orthogonal triples of the dense-matrix max-norm of
    the third-order map.

    Each triple is three disjoint sums of primitive idempotents of one
    random spectral decomposition, all three nonzero where n >= 3; trials
    run in chunks of 200.  At n = 2 the check is vacuous: a rank-2 model
    has no three nonzero orthogonal projections, so one part of every
    triple is zero and its I3 vanishes trivially.
    """
    rng = _rng(seed)
    worst = 0.0
    for start in range(0, trials, 200):
        count = min(200, trials - start)
        parts = _random_projections(rng, desc, _spectral_basis(desc, rng, count), 3)
        worst = max(worst, _worst(_interference_dense(desc, *parts)))
    return worst


# ---------------------------------------------------------------------------
# scalar interference terms
# ---------------------------------------------------------------------------


def _interference_scalar(mu: State, f: AlgebraElement, *events: AlgebraElement) -> float:
    """mu(I_k f) for the k mutually orthogonal `events`, with
    `_interference_dense` applied to the coordinates of the event f."""
    desc = _require_events((f, *events), (mu.density,))
    parts = [e.entries for e in events]
    _require_orthogonal(*parts)
    image = _interference_dense(desc, *parts) @ coords(f, desc)
    return float(_inner(mu.density.entries, _from_coords(image, desc)))


def I2_scalar(mu: State, f: AlgebraElement, e1: AlgebraElement, e2: AlgebraElement) -> float:
    """mu(f|e1+e2) mu(e1+e2) - mu(f|e1) mu(e1) - mu(f|e2) mu(e2).

    Each term is evaluated as mu(U_e f), which stays well defined when
    mu(e) vanishes.
    """
    return _interference_scalar(mu, f, e1, e2)


def I3_scalar(
    mu: State,
    f: AlgebraElement,
    e1: AlgebraElement,
    e2: AlgebraElement,
    e3: AlgebraElement,
) -> float:
    """The seven-term alternating sum over one, two and three open slits."""
    return _interference_scalar(mu, f, e1, e2, e3)


# ---------------------------------------------------------------------------
# corridor bound
# ---------------------------------------------------------------------------


class CorridorPoint(NamedTuple):
    p: float  # mu(U_e f) + mu(U_e' f)
    q: float  # mu(f)
    lower_ok: bool  # q >= 2p - 1
    upper_ok: bool  # q <= 2p


def _corridor_rows(rho, e, f, tol):
    """(p, q, lower_ok, upper_ok) arrays for raw batches of states and events.

    p = mu(U_e f) + mu(U_e' f) is evaluated as mu(f - 4 (e o f - e o (e o f))),
    which is the sum of the two compressions by linearity alone (e' = 1 - e;
    idempotency is not used), so one e o f serves both.
    """
    ef = _jp(e, f)
    p = _inner(rho, f - 4.0 * (ef - _jp(e, ef)))
    q = _inner(rho, f)
    return p, q, q >= 2 * p - 1 - tol, q <= 2 * p + tol


def corridor_sample(mu: State, e: AlgebraElement, f: AlgebraElement, tol=1e-9) -> CorridorPoint:
    _require_events((e, f), (mu.density,))
    rows = _corridor_rows(mu.density.entries[None], e.entries[None], f.entries[None], tol)
    return CorridorPoint(*(row[0].item() for row in rows))


def _corridor_draw(desc: AlgebraDescriptor, rng, count: int, classical: bool):
    """(rho, e, f) raw batches of `count` random states and events.

    With classical=True everything is diagonal: rho is a random probability
    vector and e, f are independent 0/1 masks.  They may be 0 or 1: the
    diagonal frame is fixed, so dealing by index as `_random_projections`
    does would favour the first diagonal directions.
    """
    if classical:
        n = desc.n
        diag = rng.random((count, n))
        rho = np.zeros((count, n, n, desc.d))
        e = np.zeros_like(rho)
        f = np.zeros_like(rho)
        idx = np.arange(n)
        rho[:, idx, idx, 0] = diag / diag.sum(axis=1, keepdims=True)
        e[:, idx, idx, 0] = rng.integers(0, 2, (count, n)).astype(float)
        f[:, idx, idx, 0] = rng.integers(0, 2, (count, n)).astype(float)
        return rho, e, f
    (e,) = _random_projections(rng, desc, _spectral_basis(desc, rng, count), 1)
    (f,) = _random_projections(rng, desc, _spectral_basis(desc, rng, count), 1)
    return _random_densities(desc, rng, count), e, f


def corridor_samples(desc: AlgebraDescriptor, trials: int, seed=0, classical=False, tol=1e-9):
    """Batched corridor sampling of random (state, e, f) triples.

    With classical=True everything is drawn diagonal, which forces q = p
    (the no-interference diagonal of the corridor figure).

    Trials are drawn and evaluated in chunks of CORRIDOR_CHUNK, which bounds
    memory; a run of at most one chunk draws exactly what one batch would.
    """
    rng = _rng(seed)
    rows = []
    for start in range(0, trials, CORRIDOR_CHUNK):
        rho, e, f = _corridor_draw(desc, rng, min(CORRIDOR_CHUNK, trials - start), classical)
        rows.extend(zip(*(row.tolist() for row in _corridor_rows(rho, e, f, tol))))
    return list(map(CorridorPoint._make, rows))


def saturating_configuration(desc: AlgebraDescriptor):
    """(state, e, f) pinned to the upper corridor boundary q = 2p.

    e is the first diagonal unit and f the rank-one projection onto the
    equal superposition of the first two diagonal directions; taking the
    state defined by f itself gives q = 1 and p = 1/2 exactly.
    """
    if desc.n < 2:
        raise ValueError("needs matrix size at least 2")
    e = np.zeros((desc.n, desc.n, desc.d))
    e[0, 0, 0] = 1.0
    f = np.zeros_like(e)
    f[0, 0, 0] = f[1, 1, 0] = f[0, 1, 0] = f[1, 0, 0] = 0.5
    element_e = AlgebraElement(desc, e)
    element_f = AlgebraElement(desc, f)
    return State(element_f), element_e, element_f


# ---------------------------------------------------------------------------
# symmetry condition
# ---------------------------------------------------------------------------


def _onorm(column, desc):
    """Order-unit norm of the element with coordinate column (D, 1)."""
    return float(_norm(_from_coords(column[..., 0], desc), desc))


def _symmetry_defects(e, f, desc: AlgebraDescriptor) -> dict:
    """Defect coordinate columns (..., D, 1) of the identities named in
    `symmetry_battery`, listed under its keys, for raw (batched)
    projections e and f."""
    one = _scale_identity(desc, 1.0)
    u_e, u_ec = _u_dense(desc, e), _u_dense(desc, one - e)
    u_f, u_fc = _u_dense(desc, f), _u_dense(desc, one - f)
    c_one, ce, cf = (coords(a, desc)[..., None] for a in (one, e, f))
    ue_f, uec_f = u_e @ cf, u_ec @ cf
    uf_e, ufc_e = u_f @ ce, u_fc @ ce
    lhs = u_e @ (c_one - cf) + uec_f
    rhs = u_f @ (c_one - ce) + ufc_e
    t_e_f = 0.5 * (cf + ue_f - uec_f)
    t_f_e = 0.5 * (ce + uf_e - ufc_e)
    i2_difference = (cf - ue_f - uec_f) - (ce - uf_e - ufc_e)
    defects = {
        "compression_symmetry": [lhs - rhs, t_e_f - t_f_e],
        "second_order_difference": [i2_difference - (2.0 * uf_e - 2.0 * ue_f)],
    }
    if desc.level != "O":
        anticomm = coords(e + f - _matmul(e, f) - _matmul(f, e), desc)[..., None]
        defects["anticommutator_form"] = [lhs - anticomm, rhs - anticomm]
    return defects


def a1_check(e: AlgebraElement, f: AlgebraElement) -> float:
    """Residual of U_e f' + U_e' f = U_f e' + U_f' e, plus cross-checks.

    Returns the largest order-unit norm of: the defect, the defect of the
    equivalent symmetric form T_e f = T_f e, and (associative levels only)
    the distance of both sides from e + f - ef - fe.
    """
    desc = _require_events((e, f))
    defects = _symmetry_defects(e.entries, f.entries, desc)
    return max(
        _onorm(d, desc)
        for key in ("compression_symmetry", "anticommutator_form")
        for d in defects.get(key, ())
    )


def eq10_check(e: AlgebraElement, f: AlgebraElement) -> float:
    """Residual of I2(e, e') f - I2(f, f') e = 2 U_f e - 2 U_e f."""
    desc = _require_events((e, f))
    (defect,) = _symmetry_defects(e.entries, f.entries, desc)["second_order_difference"]
    return _onorm(defect, desc)


def symmetry_battery(desc: AlgebraDescriptor, trials: int, seed=0) -> dict:
    """Worst-case residuals of the two-event symmetry identities over
    random pairs of independent projections.

    Keys: `compression_symmetry` (U_e f' + U_e' f = U_f e' + U_f' e, plus
    the T_e f = T_f e form), `second_order_difference` (the paired
    second-order identity), and on associative levels
    `anticommutator_form` (both sides equal e + f - ef - fe).
    """
    rng = _rng(seed)
    (e,) = _random_projections(rng, desc, _spectral_basis(desc, rng, trials), 1)
    (f,) = _random_projections(rng, desc, _spectral_basis(desc, rng, trials), 1)
    defects = _symmetry_defects(e, f, desc)
    return {key: max(_worst(d) for d in arrays) for key, arrays in defects.items()}


# ---------------------------------------------------------------------------
# basis-wide batteries
# ---------------------------------------------------------------------------


def _t_norm_excess(desc: AlgebraDescriptor, t_e, x) -> float:
    """Largest excess above 1 of the norm of T_e x, over raw elements x
    whose coordinates are scaled to the unit ball."""
    unit = coords(x, desc)[..., None] / _norm(x, desc)[:, None, None]
    tx = _from_coords((t_e @ unit)[..., 0], desc)
    return max(0.0, float(_norm(tx, desc).max() - 1.0))


def t_structure_battery(desc: AlgebraDescriptor, trials: int, seed=0) -> dict:
    """Structure of the multiplication map T_e over random projections.

    Keys: `spectrum` (distance of the dense-matrix eigenvalues from
    {0, 1/2, 1}), `quadratic_relation` (2 T_e^2 - T_e = U_e on a basis),
    `partition` (T_e + T_e' = id), `norm_excess` (sampled unit-ball norm
    above 1) and `witness_gap` (T_e e = e, so the norm 1 is attained).
    """
    rng = _rng(seed)
    (e,) = _random_projections(rng, desc, _spectral_basis(desc, rng, trials), 1)
    u_e, u_ec = _u_dense(desc, e), _u_dense(desc, _scale_identity(desc, 1.0) - e)
    t_e = _t_dense(u_e, u_ec)

    eigs = np.linalg.eigvalsh(t_e)
    targets = np.array([0.0, 0.5, 1.0])
    spectrum = float(np.abs(eigs[..., None] - targets).min(axis=-1).max())

    x = _random_elements(desc, rng, trials)
    ce = coords(e, desc)[..., None]

    return {
        "spectrum": spectrum,
        "quadratic_relation": _worst(2.0 * t_e @ t_e - t_e - u_e),
        "partition": _worst(t_e + _t_dense(u_ec, u_e) - np.eye(desc.basis_dim)),
        "norm_excess": _t_norm_excess(desc, t_e, x),
        "witness_gap": _worst(t_e @ ce - ce),
    }


def lemma_suite(desc: AlgebraDescriptor, trials: int, seed=0) -> dict:
    """Residuals for the compression/multiplication-map identities.

    Checks, over random configurations:
      a) e below f: U_e U_f = U_f U_e = U_e, U_e f = e = U_f e
      b) e orthogonal to f: U_e f = 0 = U_f e, U_e U_f = 0 = U_f U_e,
         and U_e' U_f' = U_(e+f)' = U_f' U_e'
      c) T_e T_f = T_f T_e for orthogonal pairs
      d) third-order map factorization I3(e1,e2,e3) = U_{e1+e2+e3} I3((e2+e3)', e2, e3)
         and T_e + T_f - T_{e+f} = I3(e, f, (e+f)') / 2, on a basis
      e) T additivity on orthogonal pairs
      f) T_e x + T_e' x = x, T_e U_e = U_e, T_e U_e' = 0
      g) operator norm of T_e: witness T_e e = e, sampled unit ball stays below 1
    """
    rng = _rng(seed)
    one = _scale_identity(desc, 1.0)
    basis = _spectral_basis(desc, rng, trials)  # one set of powers for both dealings
    e, f = _random_projections(rng, desc, basis, 2)
    x = _random_elements(desc, rng, trials)
    g1, g2, g3 = _random_projections(rng, desc, basis, 3)

    e_f = e + f  # e below e + f, and f orthogonal to e
    u_e, u_f, u_ef = _u_dense(desc, e), _u_dense(desc, f), _u_dense(desc, e_f)
    u_ec, u_fc, u_efc = _u_dense(desc, one - e), _u_dense(desc, one - f), _u_dense(desc, one - e_f)
    t_e, t_f, t_ef = _t_dense(u_e, u_ec), _t_dense(u_f, u_fc), _t_dense(u_ef, u_efc)
    ce, cf, c_ef, cx = (coords(a, desc)[..., None] for a in (e, f, e_f, x))

    res = {}

    # (a) comparable pairs
    res["below_uf_e"] = _worst(u_ef @ ce - ce)
    res["below_ue_from_f"] = _worst(u_e @ c_ef - ce)
    res["below_ueuf"] = _worst(u_e @ u_ef - u_e)
    res["below_ufue"] = _worst(u_ef @ u_e - u_e)

    # (b) orthogonal pairs
    res["orth_uef"] = _worst(u_e @ cf)
    res["orth_ufe"] = _worst(u_f @ ce)
    res["orth_ueuf"] = _worst(u_e @ u_f)
    res["orth_ufue"] = _worst(u_f @ u_e)
    res["orth_complement_product"] = max(
        _worst(u_ec @ u_fc - u_efc), _worst(u_fc @ u_ec - u_efc)
    )

    # (c) commuting multiplication maps
    res["t_commute"] = _worst(t_e @ t_f - t_f @ t_e)

    # (d) third-order identities on a basis
    factored = _u_dense(desc, g1 + g2 + g3) @ _interference_dense(desc, one - g2 - g3, g2, g3)
    res["i3_factorization"] = _worst(_interference_dense(desc, g1, g2, g3) - factored)
    i3 = _interference_dense(desc, e, f, one - e_f)
    res["t_defect_is_i3"] = _worst(t_e + t_f - t_ef - 0.5 * i3)

    # (e) T additivity on orthogonal pairs
    res["t_additive"] = _worst(t_ef - t_e - t_f)

    # (f) partition of the identity and compression absorption
    res["t_partition"] = _worst((t_e + _t_dense(u_ec, u_e)) @ cx - cx)
    res["t_absorbs_u"] = _worst(t_e @ u_e - u_e)
    res["t_kills_u_comp"] = _worst(t_e @ u_ec)

    # (g) operator norm of T_e: witness plus sampled unit ball
    res["t_fixes_e"] = _worst(t_e @ ce - ce)
    res["t_norm_excess"] = _t_norm_excess(desc, t_e, x)

    return res
