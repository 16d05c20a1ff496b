"""Interference terms, the conditional-probability corridor, the symmetry
condition, and the identity batteries for the compression maps.

All the maps here are linear on the Hermitian elements of a matrix model:

  U_e x = 2 e o (e o x) - e o x        (conditionalization / compression)
  S_e = 2 U_e + 2 U_e' - id            (its positivity gives the corridor)
  T_e = (id + U_e - U_e') / 2          (multiplication-by-e in quantum models)
  I2(e1, e2) = U_{e1+e2} - U_{e1} - U_{e2}
  I3(e1, e2, e3) = U_{e1+e2+e3} - sum of pair terms + sum of single terms

They are evaluated on one of two paths.

Dense layer.  `_u_dense` applies U_g once to every element of
`jordan.hermitian_basis` and returns U_g as a batched (..., D, D) matrix acting
on coordinate columns.  `LinearOperator` holds one such matrix, and the
basis-wide batteries (`lemma_suite`, `t_structure_battery`,
`i3_basis_norm_max`) state every identity as sums and `@` products of them.
`_i3_dense` builds each of the seven U terms of the third-order map on its
own, so its vanishing is a numerical fact and not an algebraic cancellation.

Vector path.  `corridor_sample`, `corridor_samples`, `symmetry_battery`,
`a1_check` and `eq10_check` apply `jordan._u_apply` directly to the (batched)
elements they draw.  They have no basis axis, and a dense build costs D
applications (D = 27 for H_3(O)), so the large corridor batches stay on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import jordan, model
from .finite import FiniteLogic, conditional_table
from .jordan import (
    AlgebraDescriptor,
    AlgebraElement,
    NotIdempotentError,
    _eigenvalues_raw,
    _hermitize,
    _identity,
    _inner,
    _jp,
    _matmul,
    _random_elements,
    _rng,
    _separated_spectral_batch,
    _trace,
    _u_apply,
    coords,
    from_coords,
    hermitian_basis,
    quadratic_map_U,
)
from .model import State


class NotOrthogonalError(ValueError):
    pass


def _require_orthogonal(desc, *events):
    for i in range(len(events)):
        for j in range(i + 1, len(events)):
            if not model._orthogonal(events[i], events[j], desc.table):
                raise NotOrthogonalError("events must be mutually orthogonal")


def _worst(arr) -> float:
    """Largest absolute entry of a defect array (0 for an empty one)."""
    return float(np.abs(arr).max()) if arr.size else 0.0


def _random_projections(rng, idem, parts=None):
    """Projections summed from one spectral batch `idem` (trials, n, n, n, d).

    With parts=None each primitive idempotent enters one projection under an
    independent 0/1 mask.  With parts=k each is assigned to one of k bins or
    to a leftover bin, giving k mutually orthogonal projections per trial.
    """
    trials, n = idem.shape[:2]
    if parts is None:
        masks = [rng.integers(0, 2, (trials, n)).astype(float)]
    else:
        labels = rng.integers(0, parts + 1, (trials, n))  # bin `parts` = leftover
        masks = [(labels == k).astype(float) for k in range(parts)]
    return [np.einsum("bi,bijkc->bjkc", mask, idem) for mask in masks]


# ---------------------------------------------------------------------------
# dense layer
# ---------------------------------------------------------------------------


def _u_dense(desc: AlgebraDescriptor, g) -> np.ndarray:
    """U_g as (..., D, D) column-action matrices over `hermitian_basis`.

    g holds raw idempotents with any leading batch axes; column b of each
    matrix is the coordinate vector of U_g applied to basis element b.
    """
    basis = hermitian_basis(desc)
    images = _u_apply(np.asarray(g)[..., None, :, :, :], basis, desc.table)
    return np.einsum("aijc,...bijc->...ab", basis, images)


def _t_dense(u, u_comp) -> np.ndarray:
    """T_e = (id + U_e - U_e') / 2 from the dense U_e and U_e'."""
    return 0.5 * (np.eye(u.shape[-1]) + u - u_comp)


def _i3_dense(desc: AlgebraDescriptor, g1, g2, g3) -> np.ndarray:
    """The seven-term third-order map, each compression built on its own."""
    return (
        _u_dense(desc, g1 + g2 + g3)
        - _u_dense(desc, g1 + g2)
        - _u_dense(desc, g2 + g3)
        - _u_dense(desc, g1 + g3)
        + _u_dense(desc, g1)
        + _u_dense(desc, g2)
        + _u_dense(desc, g3)
    )


def _elements(columns, desc: AlgebraDescriptor) -> np.ndarray:
    """Raw elements (..., n, n, d) from coordinate columns (..., D, 1)."""
    return np.einsum("...a,aijc->...ijc", columns[..., 0], hermitian_basis(desc))


@dataclass(frozen=True)
class LinearOperator:
    """Linear map on the Hermitian elements of one model.

    `matrix` is its dense (D, D) column action on coordinates over
    `jordan.hermitian_basis`.
    """

    descriptor: AlgebraDescriptor
    matrix: np.ndarray

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        return from_coords(self.matrix @ coords(x, self.descriptor), self.descriptor)


def U_operator(e: AlgebraElement) -> LinearOperator:
    if not jordan.is_idempotent(e):
        raise NotIdempotentError("event must be idempotent")
    return LinearOperator(e.descriptor, _u_dense(e.descriptor, e.entries))


def S_map(e: AlgebraElement) -> LinearOperator:
    """S_e = 2 U_e + 2 U_e' - id."""
    u, u_comp = U_operator(e).matrix, U_operator(model.complement(e)).matrix
    return LinearOperator(e.descriptor, 2.0 * u + 2.0 * u_comp - np.eye(len(u)))


def T_map(e: AlgebraElement) -> LinearOperator:
    """T_e = (id + U_e - U_e') / 2."""
    u, u_comp = U_operator(e).matrix, U_operator(model.complement(e)).matrix
    return LinearOperator(e.descriptor, _t_dense(u, u_comp))


def I2_operator(e1: AlgebraElement, e2: AlgebraElement) -> LinearOperator:
    desc = e1.descriptor
    a, b = e1.entries, e2.entries
    _require_orthogonal(desc, a, b)
    return LinearOperator(desc, _u_dense(desc, a + b) - _u_dense(desc, a) - _u_dense(desc, b))


def I3_operator(e1: AlgebraElement, e2: AlgebraElement, e3: AlgebraElement) -> LinearOperator:
    desc = e1.descriptor
    _require_orthogonal(desc, e1.entries, e2.entries, e3.entries)
    return LinearOperator(desc, _i3_dense(desc, e1.entries, e2.entries, e3.entries))


def i3_basis_norm_max(desc: AlgebraDescriptor, trials: int, seed=0) -> float:
    """Max over random orthogonal triples of the dense-matrix max-norm of
    the third-order map.

    Each triple is three disjoint sums of primitive idempotents of one
    random spectral decomposition; trials run in chunks of 200.
    """
    rng = _rng(seed)
    worst = 0.0
    for start in range(0, trials, 200):
        count = min(200, trials - start)
        _, idem = _separated_spectral_batch(desc, rng, count)
        worst = max(worst, _worst(_i3_dense(desc, *_random_projections(rng, idem, parts=3))))
    return worst


# ---------------------------------------------------------------------------
# scalar interference terms
# ---------------------------------------------------------------------------


def I2_scalar(mu: State, f: AlgebraElement, e1: AlgebraElement, e2: AlgebraElement) -> float:
    """mu(f|e1+e2) mu(e1+e2) - mu(f|e1) mu(e1) - mu(f|e2) mu(e2).

    Each term is evaluated as mu(U_e f), which stays well defined when
    mu(e) vanishes.
    """
    return model.evaluate(mu, I2_operator(e1, e2)(f))


def I3_scalar(
    mu: State,
    f: AlgebraElement,
    e1: AlgebraElement,
    e2: AlgebraElement,
    e3: AlgebraElement,
) -> float:
    """The seven-term alternating sum over one, two and three open slits."""
    return model.evaluate(mu, I3_operator(e1, e2, e3)(f))


# ---------------------------------------------------------------------------
# corridor bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorridorPoint:
    p: float  # mu(U_e f) + mu(U_e' f)
    q: float  # mu(f)
    lower_ok: bool  # q >= 2p - 1
    upper_ok: bool  # q <= 2p


def corridor_sample(mu: State, e: AlgebraElement, f: AlgebraElement, tol=1e-9) -> CorridorPoint:
    p = model.evaluate(mu, quadratic_map_U(e, f)) + model.evaluate(
        mu, quadratic_map_U(model.complement(e), f)
    )
    q = model.evaluate(mu, f)
    return CorridorPoint(p, q, q >= 2 * p - 1 - tol, q <= 2 * p + tol)


def corridor_samples(desc: AlgebraDescriptor, trials: int, seed=0, classical=False, tol=1e-9):
    """Batched corridor sampling of random (state, e, f) triples.

    With classical=True everything is drawn diagonal, which forces q = p
    (the no-interference diagonal of the corridor figure).
    """
    rng = _rng(seed)
    n, table = desc.n, desc.table
    if classical:
        diag = rng.random((trials, n))
        rho_diag = diag / diag.sum(axis=1, keepdims=True)
        rho = np.zeros((trials, n, n, desc.d))
        e = np.zeros_like(rho)
        f = np.zeros_like(rho)
        idx = np.arange(n)
        rho[:, idx, idx, 0] = rho_diag
        e[:, idx, idx, 0] = rng.integers(0, 2, (trials, n)).astype(float)
        f[:, idx, idx, 0] = rng.integers(0, 2, (trials, n)).astype(float)
    else:
        (e,) = _random_projections(rng, _separated_spectral_batch(desc, rng, trials)[1])
        (f,) = _random_projections(rng, _separated_spectral_batch(desc, rng, trials)[1])
        x = _random_elements(desc, rng, trials)
        sq = _jp(x, x, table)
        rho = sq / _trace(sq)[:, None, None, None]
    ec = _identity(desc)[None] - e
    p = _inner(rho, _u_apply(e, f, table)) + _inner(rho, _u_apply(ec, f, table))
    q = _inner(rho, f)
    lower_ok = q >= 2 * p - 1 - tol
    upper_ok = q <= 2 * p + tol
    rows = zip(p.tolist(), q.tolist(), lower_ok.tolist(), upper_ok.tolist())
    return [CorridorPoint(*row) for row in rows]


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
# symmetry condition (vector path)
# ---------------------------------------------------------------------------


def _onorm(x, desc):
    return float(np.abs(_eigenvalues_raw(_hermitize(x), desc)).max())


def _symmetry_defects(e, f, desc: AlgebraDescriptor) -> dict:
    """Defect arrays of the identities named in `symmetry_battery`, listed
    under its keys, for raw (batched) projections e and f."""
    table = desc.table
    one = _identity(desc)
    lhs = _u_apply(e, one - f, table) + _u_apply(one - e, f, table)
    rhs = _u_apply(f, one - e, table) + _u_apply(one - f, e, table)
    ue_f, uec_f = _u_apply(e, f, table), _u_apply(one - e, f, table)
    uf_e, ufc_e = _u_apply(f, e, table), _u_apply(one - f, e, table)
    t_e_f = 0.5 * (f + ue_f - uec_f)
    t_f_e = 0.5 * (e + uf_e - ufc_e)
    i2_difference = (f - ue_f - uec_f) - (e - uf_e - ufc_e)
    defects = {
        "compression_symmetry": [lhs - rhs, t_e_f - t_f_e],
        "second_order_difference": [i2_difference - (2.0 * uf_e - 2.0 * ue_f)],
    }
    if desc.level != "O":
        anticomm = e + f - _matmul(e, f, table) - _matmul(f, e, table)
        defects["anticommutator_form"] = [lhs - anticomm, rhs - anticomm]
    return defects


def a1_check(e: AlgebraElement, f: AlgebraElement) -> float:
    """Residual of U_e f' + U_e' f = U_f e' + U_f' e, plus cross-checks.

    Returns the largest order-unit norm of: the defect, the defect of the
    equivalent symmetric form T_e f = T_f e, and (associative levels only)
    the distance of both sides from e + f - ef - fe.
    """
    if not (jordan.is_idempotent(e) and jordan.is_idempotent(f)):
        raise NotIdempotentError("events must be idempotent")
    desc = e.descriptor
    defects = _symmetry_defects(e.entries, f.entries, desc)
    return max(
        _onorm(d, desc)
        for key in ("compression_symmetry", "anticommutator_form")
        for d in defects.get(key, ())
    )


def eq10_check(e: AlgebraElement, f: AlgebraElement) -> float:
    """Residual of I2(e, e') f - I2(f, f') e = 2 U_f e - 2 U_e f."""
    if not (jordan.is_idempotent(e) and jordan.is_idempotent(f)):
        raise NotIdempotentError("events must be idempotent")
    desc = e.descriptor
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
    (e,) = _random_projections(rng, _separated_spectral_batch(desc, rng, trials)[1])
    (f,) = _random_projections(rng, _separated_spectral_batch(desc, rng, trials)[1])
    defects = _symmetry_defects(e, f, desc)
    return {key: max(_worst(d) for d in arrays) for key, arrays in defects.items()}


# ---------------------------------------------------------------------------
# basis-wide batteries (dense layer)
# ---------------------------------------------------------------------------


def t_structure_battery(desc: AlgebraDescriptor, trials: int, seed=0) -> dict:
    """Structure of the multiplication map T_e over random projections.

    Keys: `spectrum` (distance of the dense-matrix eigenvalues from
    {0, 1/2, 1}), `quadratic_relation` (2 T_e^2 - T_e = U_e on a basis),
    `partition` (T_e + T_e' = id), `norm_excess` (sampled unit-ball norm
    above 1) and `witness_gap` (T_e e = e, so the norm 1 is attained).
    """
    rng = _rng(seed)
    (e,) = _random_projections(rng, _separated_spectral_batch(desc, rng, trials)[1])
    u_e, u_ec = _u_dense(desc, e), _u_dense(desc, _identity(desc) - e)
    t_e = _t_dense(u_e, u_ec)

    eigs = np.linalg.eigvalsh(t_e)
    targets = np.array([0.0, 0.5, 1.0])
    spectrum = float(np.abs(eigs[..., None] - targets).min(axis=-1).max())

    x = _random_elements(desc, rng, trials)
    x = x / np.abs(_eigenvalues_raw(x, desc)).max(axis=-1)[:, None, None, None]
    tx = _elements(t_e @ coords(x, desc)[..., None], desc)
    tx_norm = np.abs(_eigenvalues_raw(_hermitize(tx), desc)).max()
    ce = coords(e, desc)[..., None]

    return {
        "spectrum": spectrum,
        "quadratic_relation": _worst(2.0 * t_e @ t_e - t_e - u_e),
        "partition": _worst(t_e + _t_dense(u_ec, u_e) - np.eye(desc.basis_dim)),
        "norm_excess": max(0.0, float(tx_norm) - 1.0),
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
    one = _identity(desc)
    _, idem = _separated_spectral_batch(desc, rng, trials)
    e, f = _random_projections(rng, idem, parts=2)
    x = _random_elements(desc, rng, trials)
    g1, g2, g3 = _random_projections(rng, idem, parts=3)

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
    factored = _u_dense(desc, g1 + g2 + g3) @ _i3_dense(desc, one - g2 - g3, g2, g3)
    res["i3_factorization"] = _worst(_i3_dense(desc, g1, g2, g3) - factored)
    res["t_defect_is_i3"] = _worst(t_e + t_f - t_ef - 0.5 * _i3_dense(desc, e, f, one - e_f))

    # (e) T additivity on orthogonal pairs
    res["t_additive"] = _worst(t_ef - t_e - t_f)

    # (f) partition of the identity and compression absorption
    res["t_partition"] = _worst((t_e + _t_dense(u_ec, u_e)) @ cx - cx)
    res["t_absorbs_u"] = _worst(t_e @ u_e - u_e)
    res["t_kills_u_comp"] = _worst(t_e @ u_ec)

    # (g) operator norm of T_e: witness plus sampled unit ball
    res["t_fixes_e"] = _worst(t_e @ ce - ce)
    unit = cx / np.abs(_eigenvalues_raw(x, desc)).max(axis=-1)[:, None, None]
    tx = _elements(t_e @ unit, desc)
    res["t_norm_excess"] = max(
        0.0, float(np.abs(_eigenvalues_raw(_hermitize(tx), desc)).max() - 1.0)
    )

    return res


# ---------------------------------------------------------------------------
# finite-logic interference scan
# ---------------------------------------------------------------------------


def finite_I3_scan(logic: FiniteLogic, conditionals=None) -> dict:
    """Exact second- and third-order interference over a finite logic.

    Sweeps every vertex state, every event f and every pair/triple of
    mutually orthogonal events; each term mu(f|g) mu(g) is mu(g) nu_g(f)
    with nu_g the unique conditional, or zero when mu(g) = 0.

    The terms are tabulated once: terms[g][v] is the row over f of
    mu_v(g) nu_{g,v}(f), times the common denominator L (the lcm of the
    denominators of all rows), so every entry is an integer.  The row is all
    zeros where mu_v(g) = 0 and None where the conditional is missing from
    `conditionals`.  A pair or triple at a vertex is then the signed sum of
    3 or 7 integer rows; only the reported maxima and witness values are
    divided by L again.  The first configuration with the largest |value|
    wins.  Configurations whose conditionals do not exist uniquely are
    counted in `skipped` (len(events) per tuple and vertex) instead of being
    assigned a value.
    """
    if conditionals is None:
        conditionals = conditional_table(logic)
    verts = logic.state_vertices()
    events = logic.events
    values = logic.event_values()

    exact = []  # exact[g][v]: the row of Fraction terms, indexed like `events`
    for g in events:
        rows = []
        for vi, pg in enumerate(values[g.key]):
            nu = conditionals.get((g.key, vi))
            if pg == 0:
                rows.append([0] * len(events))
            elif nu is None:
                rows.append(None)
            else:
                rows.append([pg * logic.evaluate(nu, f) for f in events])
        exact.append(rows)
    scale = math.lcm(*(x.denominator for rows in exact for row in rows if row for x in row))
    terms = [
        [row and [x.numerator * (scale // x.denominator) for x in row] for row in rows]
        for rows in exact
    ]
    signed = {1: terms, -1: [[row and [-x for x in row] for row in rows] for rows in terms]}
    index = {e.key: i for i, e in enumerate(events)}

    def scan_tuples(tuples):
        best = 0
        witness = None
        skipped = 0
        for parts, groups in tuples:
            tables = [signed[sign][index[g.key]] for sign, g in groups]
            for vi in range(len(verts)):
                rows = [table[vi] for table in tables]
                if None in rows:
                    skipped += len(events)
                    continue
                totals = list(map(sum, zip(*rows)))
                sizes = list(map(abs, totals))
                top = max(sizes)
                if top > abs(best):
                    fi = sizes.index(top)
                    best = totals[fi]
                    witness = {
                        "events": [sorted(p.canonical_rep) for p in parts],
                        "f": sorted(events[fi].canonical_rep),
                        "state_vertex": vi,
                        "value": str(Fraction(best, scale)),
                    }
        return Fraction(best, scale), witness, skipped

    pair_tuples = []
    for i, e1 in enumerate(events):
        for e2 in events[i:]:
            if not logic.orthogonal(e1, e2):
                continue
            s12 = logic.sum(e1, e2)
            pair_tuples.append(((e1, e2), [(1, s12), (-1, e1), (-1, e2)]))
    max_i2, wit_i2, skip2 = scan_tuples(pair_tuples)

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
                s13 = logic.sum(e1, e3)
                s23 = logic.sum(e2, e3)
                s123 = logic.sum(s12, e3)
                triple_tuples.append(
                    (
                        (e1, e2, e3),
                        [(1, s123), (-1, s12), (-1, s13), (-1, s23), (1, e1), (1, e2), (1, e3)],
                    )
                )
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
