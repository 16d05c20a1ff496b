"""Hermitian matrix Jordan algebras H_n(R/C/H) and the exceptional H_3(O).

Elements are stored as real coordinate arrays of shape (n, n, d) where d is
the Cayley-Dickson dimension of the scalar ring.  All kernels accept extra
leading batch axes, which keeps the large verification sweeps vectorized.

Every product goes through one kernel, `_matmul`.  It folds the left factor
and the structure constants into a real (n d) x (n d) left-multiplication
matrix and applies it to the right factor with one batched BLAS `@`.  Each
entry of a matrix product is a sum of products of two scalars, so the same
code serves every level, the non-associative octonions included.

Eigenvalues come from numpy's Hermitian solver on the real/complex forms
(quaternions via the 2n x 2n complex adjoint representation) and, for the
octonionic algebra, from the characteristic cubic
lambda^3 - T lambda^2 + S lambda - N = 0 with T the trace,
S = (T^2 - trace(x o x)) / 2 and N the Freudenthal determinant.
Idempotents are Lagrange interpolation polynomials in the element itself,
which works uniformly at every level because single-element subalgebras are
associative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scalars import LEVEL_DIM, LEVELS, cd_conj, multiplication_table

DEFAULT_TOL = 1e-9
CLUSTER_TOL = 1e-8
# The one positivity tolerance, also held by `model.State`.  Rounding in the
# O-level characteristic cubic puts the smallest eigenvalue of valid rank-one
# conditional states near -1.5e-8, which DEFAULT_TOL would reject.
STATE_TOL = 1e-6


class DescriptorMismatchError(ValueError):
    """Two elements from different algebras were combined."""


class NonHermitianError(ValueError):
    pass


class NotIdempotentError(ValueError):
    pass


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Which Hermitian matrix algebra: scalar level plus matrix size."""

    level: str
    n: int

    def __post_init__(self):
        if self.level not in LEVELS:
            raise ValueError(f"unknown level {self.level!r}")
        if self.n < 1:
            raise ValueError("matrix size must be >= 1")
        if self.level == "O" and self.n != 3:
            raise ValueError("octonionic entries require 3x3 matrices")

    @property
    def d(self) -> int:
        return LEVEL_DIM[self.level]

    @property
    def table(self) -> np.ndarray:
        return multiplication_table(self.d)

    @property
    def basis_dim(self) -> int:
        """Real dimension of the Hermitian elements."""
        return self.n + self.n * (self.n - 1) // 2 * self.d

    def __str__(self):
        return f"H_{self.n}({self.level})"


# ---------------------------------------------------------------------------
# raw-array kernels (leading batch axes allowed)
# ---------------------------------------------------------------------------


def _matmul(a, b, table):
    """Matrix product over the scalar ring as one real block product.

    a is folded with the structure constants into its left-multiplication
    matrix L(a)[(i, z), (k, y)] = sum_x a[i, k, x] M[x, y, z] of size
    (n d) x (n d), and b is laid out as (k, y) x j, so the product is a single
    batched BLAS `@` at every level.  Leading batch axes of a and b broadcast.

    L(a) comes out of the broadcast `@` in its final layout; building it
    through a (d, d d) reshape and a transpose costs one more L-sized copy.
    The structure constants are copied into contiguous (x, y) slices, one per
    z, because the fold runs several times faster on contiguous blocks.
    """
    n, d = a.shape[-2], a.shape[-1]
    table_zxy = np.ascontiguousarray(np.moveaxis(table, 2, 0))
    left = (a[..., :, None, :, :] @ table_zxy).reshape(a.shape[:-3] + (n * d, n * d))
    right = np.swapaxes(b, -1, -2).reshape(b.shape[:-3] + (n * d, n))
    out = left @ right
    return np.swapaxes(out.reshape(out.shape[:-2] + (n, d, n)), -1, -2)


def _conj_transpose(a):
    out = cd_conj(a)
    return np.swapaxes(out, -3, -2)


def _hermitize(a):
    return 0.5 * (a + _conj_transpose(a))


def _jp(a, b, table):
    return 0.5 * (_matmul(a, b, table) + _matmul(b, a, table))


def _trace(a):
    """Real trace: sum of the (real) diagonal real parts."""
    return a[..., 0].trace(axis1=-2, axis2=-1)


def _inner(a, b):
    """Trace form <a, b> = trace(a o b) = Frobenius dot of coordinates."""
    return np.einsum("...ijc,...ijc->...", a, b)


def _identity(desc: AlgebraDescriptor):
    out = np.zeros((desc.n, desc.n, desc.d))
    idx = np.arange(desc.n)
    out[idx, idx, 0] = 1.0
    return out


def _scale_identity(desc, values):
    """values (...,) -> (..., n, n, d) multiples of the identity."""
    values = np.asarray(values, dtype=float)
    out = np.zeros(values.shape + (desc.n, desc.n, desc.d))
    idx = np.arange(desc.n)
    out[..., idx, idx, 0] = values[..., None]
    return out


def _u_apply(e, x, table):
    """Conditionalization map U_e x = 2 e o (e o x) - e o x."""
    ex = _jp(e, x, table)
    return 2.0 * _jp(e, ex, table) - ex


def _to_complex(a):
    return a[..., 0] + 1j * a[..., 1]


def _quat_adjoint(a):
    """Complex 2n x 2n adjoint of a quaternionic n x n matrix."""
    z = a[..., 0] + 1j * a[..., 1]
    w = a[..., 2] + 1j * a[..., 3]
    n = a.shape[-2]
    big = np.zeros(a.shape[:-3] + (2 * n, 2 * n), dtype=complex)
    big[..., :n, :n] = z
    big[..., :n, n:] = w
    big[..., n:, :n] = -w.conj()
    big[..., n:, n:] = z.conj()
    return big


def _freudenthal_det(x, table):
    """Determinant of a Hermitian 3x3 matrix over a composition algebra.

    N = a b c - a n(z) - b n(y) - c n(w) + 2 Re((w z) conj(y)) for diagonal
    (a, b, c) and off-diagonal entries w = x01, y = x02, z = x12.
    """
    a = x[..., 0, 0, 0]
    b = x[..., 1, 1, 0]
    c = x[..., 2, 2, 0]
    w = x[..., 0, 1, :]
    y = x[..., 0, 2, :]
    z = x[..., 1, 2, :]
    nw = (w**2).sum(-1)
    ny = (y**2).sum(-1)
    nz = (z**2).sum(-1)
    wz = np.einsum("...i,...j,ijk->...k", w, z, table)
    cross = np.einsum("...k,...k->...", wz, y)  # Re((w z) conj(y))
    return a * b * c - a * nz - b * ny - c * nw + 2.0 * cross


def _cubic_roots(t, s, n):
    """All-real roots of lambda^3 - t lambda^2 + s lambda - n, ascending."""
    t = np.asarray(t, dtype=float)
    p = s - t**2 / 3.0
    q = -2.0 * t**3 / 27.0 + t * s / 3.0 - n
    m = 2.0 * np.sqrt(np.maximum(-p, 0.0) / 3.0)
    # cos(3 theta) = 3q / (p m); formal reality keeps the argument in [-1, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = np.where(m > 0, 3.0 * q / (np.where(p == 0, 1.0, p) * np.where(m == 0, 1.0, m)), 0.0)
    theta = np.arccos(np.clip(arg, -1.0, 1.0)) / 3.0
    k = np.arange(3.0)
    roots = m[..., None] * np.cos(theta[..., None] - 2.0 * np.pi * k / 3.0) + t[..., None] / 3.0
    roots = np.sort(roots, axis=-1)
    # a couple of Newton steps sharpen well-separated roots
    for _ in range(2):
        f = ((roots - t[..., None]) * roots + s[..., None]) * roots - n[..., None]
        df = (3.0 * roots - 2.0 * t[..., None]) * roots + s[..., None]
        step = np.where(np.abs(df) > 1e-12, f / np.where(df == 0, 1.0, df), 0.0)
        roots = roots - step
    return np.sort(roots, axis=-1)


def _eigenvalues_raw(x, desc: AlgebraDescriptor):
    """Eigenvalues (..., n), ascending, of Hermitian coordinate arrays."""
    if desc.level == "R":
        return np.linalg.eigvalsh(x[..., 0])
    if desc.level == "C":
        return np.linalg.eigvalsh(_to_complex(x))
    if desc.level == "H":
        vals = np.linalg.eigvalsh(_quat_adjoint(x))
        pairs = vals.reshape(vals.shape[:-1] + (desc.n, 2))
        return pairs.mean(axis=-1)
    # octonionic: characteristic cubic of the Albert algebra
    t = _trace(x)
    x2 = _jp(x, x, desc.table)
    s = 0.5 * (t**2 - _trace(x2))
    n = _freudenthal_det(x, desc.table)
    return _cubic_roots(t, s, n)


def _lagrange_idempotents(x, eigvals, desc):
    """Idempotent stack (..., n, n, n, d) for per-sample distinct eigenvalues.

    eigvals must be pairwise well separated in every sample; clustered
    spectra go through spectral_decompose instead.
    """
    m = eigvals.shape[-1]
    table = desc.table
    parts = []
    for i in range(m):
        acc = None
        for j in range(m):
            if j == i:
                continue
            gap = eigvals[..., i] - eigvals[..., j]
            factor = (x - _scale_identity(desc, eigvals[..., j])) / gap[..., None, None, None]
            acc = factor if acc is None else _jp(acc, factor, table)
        if acc is None:  # m == 1
            acc = np.broadcast_to(_identity(desc), x.shape).copy()
        parts.append(acc)
    return np.stack(parts, axis=-4)


# ---------------------------------------------------------------------------
# public element type and operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraElement:
    descriptor: AlgebraDescriptor
    entries: np.ndarray  # (n, n, d) real coordinates, Hermitian

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        expected = (self.descriptor.n, self.descriptor.n, self.descriptor.d)
        if entries.shape != expected:
            raise ValueError(f"entries shape {entries.shape}, expected {expected}")
        object.__setattr__(self, "entries", entries)

    def _check(self, other: "AlgebraElement"):
        if self.descriptor != other.descriptor:
            raise DescriptorMismatchError(f"{self.descriptor} vs {other.descriptor}")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.descriptor, self.entries + other.entries)

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.descriptor, self.entries - other.entries)

    def __neg__(self):
        return AlgebraElement(self.descriptor, -self.entries)

    def __mul__(self, scalar):
        return AlgebraElement(self.descriptor, float(scalar) * self.entries)

    __rmul__ = __mul__

    def is_hermitian(self, tol=DEFAULT_TOL) -> bool:
        return bool(np.abs(self.entries - _hermitize(self.entries)).max() <= tol)


@dataclass(frozen=True)
class SpectralForm:
    eigenvalues: tuple
    idempotents: tuple  # AlgebraElement, pairwise orthogonal, summing to 1

    def reconstruct(self) -> AlgebraElement:
        acc = None
        for lam, e in zip(self.eigenvalues, self.idempotents):
            term = lam * e
            acc = term if acc is None else acc + term
        return acc


def identity(desc: AlgebraDescriptor) -> AlgebraElement:
    return AlgebraElement(desc, _identity(desc))


def zero(desc: AlgebraDescriptor) -> AlgebraElement:
    return AlgebraElement(desc, np.zeros((desc.n, desc.n, desc.d)))


def jordan_product(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """x o y = (xy + yx) / 2 with the matrix product over the scalar ring."""
    x._check(y)
    return AlgebraElement(x.descriptor, _jp(x.entries, y.entries, x.descriptor.table))


def trace(x: AlgebraElement) -> float:
    return float(_trace(x.entries))


def inner(x: AlgebraElement, y: AlgebraElement) -> float:
    x._check(y)
    return float(_inner(x.entries, y.entries))


def is_idempotent(e: AlgebraElement, tol=1e-6) -> bool:
    diff = _jp(e.entries, e.entries, e.descriptor.table) - e.entries
    return bool(np.abs(diff).max() <= tol * (1.0 + np.abs(e.entries).max()))


def quadratic_map_U(e: AlgebraElement, x: AlgebraElement) -> AlgebraElement:
    """U_e x = 2 e o (e o x) - e o x; equals e x e at associative levels."""
    e._check(x)
    if not is_idempotent(e):
        raise NotIdempotentError("conditionalization requires an idempotent")
    return AlgebraElement(e.descriptor, _u_apply(e.entries, x.entries, e.descriptor.table))


def eigenvalues(x: AlgebraElement) -> np.ndarray:
    if not x.is_hermitian(1e-8 * (1.0 + np.abs(x.entries).max())):
        raise NonHermitianError("spectral data needs a Hermitian element")
    return _eigenvalues_raw(x.entries, x.descriptor)


def spectral_decompose(x: AlgebraElement) -> SpectralForm:
    """Eigenvalue clusters with their spectral idempotents.

    Clustered eigenvalues share one summed idempotent so the Lagrange
    interpolation never divides by a near-zero gap.
    """
    desc = x.descriptor
    vals = eigenvalues(x)
    scale = 1.0 + float(np.abs(vals).max())
    clusters = []
    for lam in vals:  # ascending
        if clusters and lam - clusters[-1][-1] <= CLUSTER_TOL * scale:
            clusters[-1].append(lam)
        else:
            clusters.append([lam])
    reps = np.array([float(np.mean(c)) for c in clusters])
    idem = _lagrange_idempotents(x.entries, reps, desc)
    elements = tuple(AlgebraElement(desc, _hermitize(idem[i])) for i in range(len(reps)))
    return SpectralForm(tuple(float(r) for r in reps), elements)


def order_unit_norm(x: AlgebraElement) -> float:
    """Spectral radius: inf{t > 0 : -t 1 <= x <= t 1}."""
    return float(np.abs(eigenvalues(x)).max())


def is_positive(x: AlgebraElement, tol=STATE_TOL) -> bool:
    return bool(eigenvalues(x).min() >= -tol * (1.0 + np.abs(x.entries).max()))


# ---------------------------------------------------------------------------
# random draws (deterministic given the seed)
# ---------------------------------------------------------------------------


def _rng(seed):
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _random_elements(desc, rng, count=None):
    shape = ((count,) if count is not None else ()) + (desc.n, desc.n, desc.d)
    return _hermitize(rng.standard_normal(shape))


def random_element(desc: AlgebraDescriptor, rng_seed=0) -> AlgebraElement:
    return AlgebraElement(desc, _random_elements(desc, _rng(rng_seed)))


def _separated_spectral_batch(desc, rng, count, max_retries=64):
    """Random elements with well-separated spectra plus their idempotents.

    Returns (eigvals (count, n), idempotents (count, n, n, n, d)).
    Near-degenerate draws are resampled; they have probability ~0.
    """
    x = _random_elements(desc, rng, count)
    for _ in range(max_retries):
        vals = _eigenvalues_raw(x, desc)
        scale = 1.0 + np.abs(vals).max(axis=-1)
        gaps = np.diff(vals, axis=-1).min(axis=-1) if desc.n > 1 else np.ones(count)
        bad = gaps <= 1e-4 * scale
        if not bad.any():
            break
        x[bad] = _random_elements(desc, rng, int(bad.sum()))
    else:
        raise RuntimeError("could not draw a non-degenerate spectrum")
    idem = _lagrange_idempotents(x, vals, desc)
    return vals, _hermitize(idem)


def random_projection(desc: AlgebraDescriptor, rank: int, rng_seed=0) -> AlgebraElement:
    """Sum of `rank` spectral idempotents of a random element."""
    if rank < 0 or rank > desc.n:
        raise ValueError(f"rank must lie in [0, {desc.n}]")
    if rank == 0:
        return zero(desc)
    rng = _rng(rng_seed)
    _, idem = _separated_spectral_batch(desc, rng, 1)
    pick = rng.permutation(desc.n)[:rank]
    return AlgebraElement(desc, idem[0][pick].sum(axis=0))


def random_state_density(desc: AlgebraDescriptor, rng_seed=0) -> AlgebraElement:
    """Positive trace-one density x o x / trace(x o x) from a random draw."""
    rng = _rng(rng_seed)
    for _ in range(64):
        x = _random_elements(desc, rng)
        sq = _jp(x, x, desc.table)
        t = float(_trace(sq))
        if t > 1e-8:
            return AlgebraElement(desc, sq / t)
    raise RuntimeError("degenerate draws for random state")


# ---------------------------------------------------------------------------
# orthonormal Hermitian basis and coordinates
# ---------------------------------------------------------------------------


def hermitian_basis(desc: AlgebraDescriptor) -> np.ndarray:
    """Orthonormal basis (D, n, n, d) for the trace form <x, y> = tr(x o y)."""
    n, d = desc.n, desc.d
    out = np.zeros((desc.basis_dim, n, n, d))
    k = 0
    for i in range(n):
        out[k, i, i, 0] = 1.0
        k += 1
    r = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            for c in range(d):
                out[k, i, j, c] = r
                out[k, j, i, c] = r if c == 0 else -r
                k += 1
    return out


def coords(x, desc: AlgebraDescriptor) -> np.ndarray:
    """Coordinates w.r.t. hermitian_basis; accepts raw arrays or elements."""
    arr = x.entries if isinstance(x, AlgebraElement) else np.asarray(x)
    return np.einsum("bijc,...ijc->...b", hermitian_basis(desc), arr)


def from_coords(vec, desc: AlgebraDescriptor) -> AlgebraElement:
    arr = np.einsum("b,bijc->ijc", np.asarray(vec, dtype=float), hermitian_basis(desc))
    return AlgebraElement(desc, arr)


# ---------------------------------------------------------------------------
# property battery
# ---------------------------------------------------------------------------


def property_battery(desc: AlgebraDescriptor, trials: int, seed=0, max_power=8) -> dict:
    """Relative residuals of the core algebraic laws over random draws.

    Checks power-associativity x^a o x^b = x^(a+b) up to degree max_power,
    the Jordan identity (x^2 o y) o x = x^2 o (y o x), positivity of
    squares, the square norm law |x^2| = |x|^2, and submultiplicativity of
    the order-unit norm.  Returns a dict of named worst-case residuals.
    """
    rng = _rng(seed)
    table = desc.table
    x = _random_elements(desc, rng, trials)
    y = _random_elements(desc, rng, trials)
    norms_x = np.abs(_eigenvalues_raw(x, desc)).max(axis=-1)
    x = x / norms_x[:, None, None, None]  # unit ball: powers stay bounded
    y = y / np.abs(_eigenvalues_raw(y, desc)).max(axis=-1)[:, None, None, None]

    powers = [None, x]
    for _ in range(2, max_power + 1):
        powers.append(_jp(powers[-1], x, table))

    res = {}
    worst = 0.0
    for a in range(1, max_power):
        for b in range(a, max_power + 1 - a):
            worst = max(worst, float(np.abs(_jp(powers[a], powers[b], table) - powers[a + b]).max()))
    res["power_associativity"] = worst

    sq = powers[2]
    lhs = _jp(_jp(sq, y, table), x, table)
    rhs = _jp(sq, _jp(y, x, table), table)
    res["jordan_identity"] = float(np.abs(lhs - rhs).max())

    sq_eigs = _eigenvalues_raw(_jp(y, y, table), desc)
    res["squares_positive"] = max(0.0, -float(sq_eigs.min()))

    sq_norm = np.abs(_eigenvalues_raw(sq, desc)).max(axis=-1)
    x_norm = np.abs(_eigenvalues_raw(x, desc)).max(axis=-1)
    res["square_norm_law"] = float(np.abs(sq_norm - x_norm**2).max())

    xy = _jp(x, y, table)
    xy_norm = np.abs(_eigenvalues_raw(_hermitize(xy), desc)).max(axis=-1)
    y_norm = np.abs(_eigenvalues_raw(y, desc)).max(axis=-1)
    res["norm_submultiplicative"] = max(0.0, float((xy_norm - x_norm * y_norm).max()))

    return res
