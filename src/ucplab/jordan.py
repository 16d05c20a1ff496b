"""Hermitian matrix Jordan algebras H_n(R/C/H) and the exceptional H_3(O).

Elements are stored as real coordinate arrays of shape (n, n, d) where d is
the Cayley-Dickson dimension of the scalar ring.  All kernels accept extra
leading batch axes, which keeps the large verification sweeps vectorized.

Every product goes through one kernel, `_matmul`.  It folds the left factor
and the structure constants into a real (n d) x (n d) left-multiplication
matrix and applies it to the right factor with one batched BLAS `@`.  Each
entry of a matrix product is a sum of products of two scalars, so the same
code serves every level, the non-associative octonions included.  The
scalar level is read off the last axis, and a square x o x is the single
product `_matmul(x, x)`.  A large batch is folded at most
MATMUL_BLOCK_BYTES of left-multiplication matrices at a time, which bounds
the kernel's working set and changes no bit of the product.

Eigenvalues come from numpy's Hermitian solver on the real/complex forms
(quaternions via the 2n x 2n complex adjoint representation) and, for the
octonionic algebra, from the characteristic cubic
lambda^3 - T lambda^2 + S lambda - N = 0 with T the trace,
S = (T^2 - trace(x o x)) / 2 and N the Freudenthal determinant; a root
pair that rounding split is snapped back to the double root.
Idempotents are Lagrange interpolation polynomials in the element itself,
which works uniformly at every level because single-element subalgebras are
associative.  `_lagrange_basis` gives the powers of the element centred on
its mean eigenvalue, shared by every idempotent, and per sample the
coefficients of each idempotent on them.  A sum of idempotents, such as a
random event, is the one polynomial whose coefficients are the summed rows
(`_lagrange_polynomial`), so no idempotent of it is formed on its own.

`hermitian_basis` is the orthonormal basis of the Hermitian elements for the
trace form, and `structure_constants` tabulates the Jordan product over it:
C[c, a, b] = <basis_a, basis_c o basis_b>, so L_g = sum_c coords(g)_c C[c] is
the matrix of x -> g o x on coordinates.  Both are computed once per
descriptor and returned read-only.  `_u_dense` builds every compression
from them, the one `quadratic_map_U` applies included, as the (D, D) matrix
U_g = 2 L_g^2 - L_g.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .levels import LEVEL_DIM, LEVELS
from .scalars import cd_conj, cd_mul, multiplication_table

DEFAULT_TOL = 1e-9
CLUSTER_TOL = 1e-8
# The one positivity tolerance, also held by `model.State`.  It leaves room
# for the O-level characteristic cubic, whose nearly double roots lose about
# half their digits to rounding.
STATE_TOL = 1e-6
# Idempotency residual |e∘e - e|, relative to the largest entry of e.
IDEMPOTENT_TOL = 1e-6
# `property_battery` checks power-associativity up to this degree.
MAX_POWER = 8
# Largest left-multiplication stack L(a) that `_matmul` folds at once:
# 227 samples at H_3(O), 910 at H_3(H), 2048 at H_4(C).
MATMUL_BLOCK_BYTES = 1 << 20


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
    def basis_dim(self) -> int:
        """Real dimension of the Hermitian elements."""
        return self.n + self.n * (self.n - 1) // 2 * self.d

    def __str__(self):
        return f"H_{self.n}({self.level})"


# ---------------------------------------------------------------------------
# raw-array kernels (leading batch axes allowed)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _table_zxy(d: int) -> np.ndarray:
    """`multiplication_table(d)` as contiguous (x, y) slices, one per z.

    Cached per scalar dimension and read-only, so `_matmul` does no table
    work per call.
    """
    out = np.ascontiguousarray(np.moveaxis(multiplication_table(d), 2, 0))
    out.setflags(write=False)
    return out


def _matmul(a, b):
    """Matrix product over the scalar ring as one real block product.

    The scalar ring is read off the last axis, d.  a is folded with its
    structure constants M = multiplication_table(d) into the left-multiplication
    matrix L(a)[(i, z), (k, y)] = sum_x a[i, k, x] M[x, y, z] of size
    (n d) x (n d), and b is laid out as (k, y) x j, so the product is a single
    batched BLAS `@` at every level.  Leading batch axes of a and b broadcast.

    L(a) holds d times as many numbers as a.  Where that exceeds
    MATMUL_BLOCK_BYTES, the broadcast batch is flattened and folded
    `_matmul_block` rows at a time, so a large batch never holds L(a) for all
    of its samples at once.  Each sample's product is the same BLAS call
    either way, so blocking changes no bit of the result.

    A square needs only this kernel: x o x = (xx + xx) / 2 is `_matmul(x, x)`
    bit for bit, since (m + m) / 2 = m exactly in floating point.
    """
    if a.size * a.shape[-1] * a.itemsize <= MATMUL_BLOCK_BYTES:
        return _matmul_block(a, b)
    n, d = a.shape[-2], a.shape[-1]
    batch = np.broadcast_shapes(a.shape[:-3], b.shape[:-3])
    a = np.broadcast_to(a, batch + a.shape[-3:]).reshape((-1, n, n, d))
    b = np.broadcast_to(b, batch + b.shape[-3:]).reshape((-1, n, n, d))
    out = np.empty(a.shape, np.result_type(a, b))
    step = max(1, MATMUL_BLOCK_BYTES // (n * n * d * d * a.itemsize))
    for start in range(0, len(out), step):
        out[start : start + step] = _matmul_block(a[start : start + step], b[start : start + step])
    return out.reshape(batch + (n, n, d))


def _matmul_block(a, b):
    """`_matmul` with L(a) built for the whole batch in one fold.

    L(a) comes out of the broadcast `@` in its final layout; building it
    through a (d, d d) reshape and a transpose costs one more L-sized copy.
    The fold reads the structure constants as contiguous (x, y) slices, one
    per z (`_table_zxy`), because it runs several times faster on contiguous
    blocks.
    """
    n, d = a.shape[-2], a.shape[-1]
    left = (a[..., :, None, :, :] @ _table_zxy(d)).reshape(a.shape[:-3] + (n * d, n * d))
    right = np.swapaxes(b, -1, -2).reshape(b.shape[:-3] + (n * d, n))
    out = left @ right
    return np.swapaxes(out.reshape(out.shape[:-2] + (n, d, n)), -1, -2)


def _conj_transpose(a):
    out = cd_conj(a)
    return np.swapaxes(out, -3, -2)


def _hermitize(a):
    return 0.5 * (a + _conj_transpose(a))


def _jp(a, b):
    return 0.5 * (_matmul(a, b) + _matmul(b, a))


def _trace(a):
    """Real trace: sum of the (real) diagonal real parts."""
    return a[..., 0].trace(axis1=-2, axis2=-1)


def _inner(a, b):
    """Trace form <a, b> = trace(a o b) = Frobenius dot of coordinates."""
    return np.einsum("...ijc,...ijc->...", a, b)


def _scale_identity(desc, values):
    """values (...,) -> (..., n, n, d) multiples of the identity."""
    values = np.asarray(values, dtype=float)
    out = np.zeros(values.shape + (desc.n, desc.n, desc.d))
    idx = np.arange(desc.n)
    out[..., idx, idx, 0] = values[..., None]
    return out


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


def _freudenthal_det(x):
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
    wz = cd_mul(w, z, multiplication_table(x.shape[-1]))
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
    # Rounding in t, s and n, of order eps r^3 for the spectral radius r,
    # moves a double root by about sqrt(eps) r, so it comes out as two roots
    # up to ~1e-7 r apart.  Where the cubic vanishes to within that rounding
    # at a critical point d = t/3 -/+ m/2, d is the double root and t - 2d
    # the third one.
    noise = 64.0 * np.finfo(float).eps * np.abs(roots).max(axis=-1) ** 3
    for d, single in ((t / 3.0 - m / 2.0, 2), (t / 3.0 + m / 2.0, 0)):
        merged = np.stack([d, d, d], axis=-1)
        merged[..., single] = t - 2.0 * d
        f = ((d - t) * d + s) * d - n
        roots = np.where((np.abs(f) <= noise)[..., None], merged, roots)
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
    x2 = _matmul(x, x)
    s = 0.5 * (t**2 - _trace(x2))
    n = _freudenthal_det(x)
    return _cubic_roots(t, s, n)


def _norm(x, desc: AlgebraDescriptor):
    """Order-unit norms (...,) of Hermitian coordinate arrays: the spectral radius."""
    return np.abs(_eigenvalues_raw(x, desc)).max(axis=-1)


def _lagrange_basis(x, eigvals, desc):
    """The Lagrange idempotents of x as (powers, coef): one set of powers
    shared by every polynomial in x, and per-sample coefficients on them.

    The i-th idempotent for m per-sample distinct eigenvalues is the Lagrange
    polynomial P_i(t) = prod_{j != i} (t - lam_j) / (lam_i - lam_j) at x.
    With s the mean eigenvalue, y = x - s 1 and lam' = lam - s, it is
    sum_k coef[..., i, k] y^k, where coef[..., i, :] are the monomial
    coefficients, lowest degree first, of
    prod_{j != i} (t - lam'_j) / (lam'_i - lam'_j).  Centring keeps the
    powers of y as small as the spread of the spectrum: on x + 50 1, powers
    of x itself lose up to 1e-10 to cancellation at H_4(C).  powers is
    [y, y^2, ..., y^(m-1)]: y^2 = y y is one product, and each higher power
    one Jordan product with y.  The coefficients cost O(m^2) elementwise work
    per idempotent, all idempotents at once.

    eigvals must be pairwise well separated in every sample; clustered
    spectra go through spectral_decompose instead.
    """
    m = eigvals.shape[-1]
    shift = eigvals @ np.full(m, 1.0 / m)  # the mean, without a slow short-axis reduction
    lam = eigvals - shift[..., None]
    y = x - _scale_identity(desc, shift)
    powers = [y] if m > 1 else []
    for k in range(2, m):
        powers.append(_matmul(y, y) if k == 2 else _jp(powers[-1], y))
    rows = np.arange(m)
    coef = [np.ones(lam.shape)]
    for t in range(m - 1):
        lam_j = lam[..., t + (rows <= t)]  # the t-th j != i of each P_i, ascending
        inv = 1.0 / (lam - lam_j)
        coef = (
            [-lam_j * coef[0] * inv]
            + [(lo - lam_j * hi) * inv for lo, hi in zip(coef, coef[1:])]
            + [coef[-1] * inv]
        )
    return powers, np.stack(coef, axis=-1)


def _lagrange_polynomial(desc, powers, coef):
    """sum_k coef[..., k] y^k over the shared `powers` [y, y^2, ...] of
    `_lagrange_basis`; the leading axes of coef broadcast against theirs."""
    out = _scale_identity(desc, coef[..., 0])
    for k, power in enumerate(powers, 1):
        out += coef[..., k, None, None, None] * power
    return out


def _lagrange_idempotents(x, eigvals, desc):
    """Idempotent stack (..., m, n, n, d) for m per-sample distinct eigenvalues:
    `_lagrange_polynomial` on every row of the `_lagrange_basis` coefficients."""
    powers, coef = _lagrange_basis(x, eigvals, desc)
    return _lagrange_polynomial(desc, [p[..., None, :, :, :] for p in powers], coef)


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
    return AlgebraElement(desc, _scale_identity(desc, 1.0))


def zero(desc: AlgebraDescriptor) -> AlgebraElement:
    return AlgebraElement(desc, np.zeros((desc.n, desc.n, desc.d)))


def jordan_product(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """x o y = (xy + yx) / 2 with the matrix product over the scalar ring."""
    x._check(y)
    return AlgebraElement(x.descriptor, _jp(x.entries, y.entries))


def trace(x: AlgebraElement) -> float:
    return float(_trace(x.entries))


def inner(x: AlgebraElement, y: AlgebraElement) -> float:
    x._check(y)
    return float(_inner(x.entries, y.entries))


def is_idempotent(e: AlgebraElement, tol=IDEMPOTENT_TOL) -> bool:
    diff = _matmul(e.entries, e.entries) - e.entries
    return bool(np.abs(diff).max() <= tol * (1.0 + np.abs(e.entries).max()))


def _require_events(events, others=()) -> AlgebraDescriptor:
    """The one descriptor of the elements `events` and `others`.

    Raises DescriptorMismatchError unless they all share it, and
    NotIdempotentError unless every element of `events` is idempotent.  It is
    the one event check of the compressions (`quadratic_map_U`, through which
    `model` conditions) and of the `interference` entry points.
    """
    first = events[0]
    for x in (*events, *others):
        first._check(x)
    if not all(map(is_idempotent, events)):
        raise NotIdempotentError("events must be idempotent")
    return first.descriptor


def quadratic_map_U(e: AlgebraElement, x: AlgebraElement) -> AlgebraElement:
    """U_e x = 2 e o (e o x) - e o x; equals e x e at associative levels."""
    return _compress(_require_events((e,), (x,)), e, x)


def _compress(desc, e, x) -> AlgebraElement:
    """U_e x for an event e of `desc` that `_require_events` has checked."""
    return AlgebraElement(desc, _from_coords(_u_dense(desc, e.entries) @ coords(x, desc), desc))


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


def _random_densities(desc, rng, count):
    """`count` positive trace-one densities x o x / trace(x o x) of random x.

    Every nonzero x gives a density, as the ratio does not change when x is
    scaled; x = 0 has probability 0, so no draw is rejected.
    """
    x = _random_elements(desc, rng, count)
    sq = _matmul(x, x)
    return sq / _trace(sq)[:, None, None, None]


def random_element(desc: AlgebraDescriptor, rng_seed=0) -> AlgebraElement:
    return AlgebraElement(desc, _random_elements(desc, _rng(rng_seed)))


def _separated_spectral_batch(desc, rng, count):
    """(x, eigenvalues) of `count` random elements with well-separated spectra.

    Near-degenerate draws are resampled; they have probability ~0.
    """
    x = _random_elements(desc, rng, count)
    for _ in range(64):
        vals = _eigenvalues_raw(x, desc)
        scale = 1.0 + np.abs(vals).max(axis=-1)
        gaps = np.diff(vals, axis=-1).min(axis=-1) if desc.n > 1 else np.ones(count)
        bad = gaps <= 1e-4 * scale
        if not bad.any():
            break
        x[bad] = _random_elements(desc, rng, int(bad.sum()))
    else:
        raise RuntimeError("could not draw a non-degenerate spectrum")
    return x, vals


def random_projection(desc: AlgebraDescriptor, rank: int, rng_seed=0) -> AlgebraElement:
    """Sum of `rank` spectral idempotents of a random element, evaluated as
    the one Lagrange polynomial whose coefficients are the picked rows' sum."""
    if rank < 0 or rank > desc.n:
        raise ValueError(f"rank must lie in [0, {desc.n}]")
    if rank == 0:
        return zero(desc)
    rng = _rng(rng_seed)
    powers, coef = _lagrange_basis(*_separated_spectral_batch(desc, rng, 1), desc)
    pick = rng.permutation(desc.n)[:rank]
    projection = _lagrange_polynomial(desc, powers, coef[:, pick].sum(axis=1))
    return AlgebraElement(desc, _hermitize(projection[0]))


def random_state_density(desc: AlgebraDescriptor, rng_seed=0) -> AlgebraElement:
    """One positive trace-one density: a batch of one `_random_densities`."""
    return AlgebraElement(desc, _random_densities(desc, _rng(rng_seed), 1)[0])


# ---------------------------------------------------------------------------
# orthonormal Hermitian basis and coordinates
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def hermitian_basis(desc: AlgebraDescriptor) -> np.ndarray:
    """Orthonormal basis (D, n, n, d) for the trace form <x, y> = tr(x o y).

    Cached per descriptor and read-only.
    """
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
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def structure_constants(desc: AlgebraDescriptor) -> np.ndarray:
    """Jordan product over `hermitian_basis`: C[c, a, b] = <basis_a, basis_c o basis_b>.

    The (D, D, D) tensor is symmetric in all three indices (the product is
    commutative and the trace form associative).  Cached per descriptor and
    read-only.
    """
    basis = hermitian_basis(desc)
    products = _jp(basis[:, None], basis[None, :])  # (c, b, n, n, d)
    out = np.ascontiguousarray(np.einsum("aijc,xbijc->xab", basis, products))
    out.setflags(write=False)
    return out


def coords(x, desc: AlgebraDescriptor) -> np.ndarray:
    """Coordinates w.r.t. hermitian_basis; accepts raw arrays or elements.

    An element must belong to `desc`; a raw array is taken as it is.
    """
    if isinstance(x, AlgebraElement):
        if x.descriptor != desc:
            raise DescriptorMismatchError(f"{x.descriptor} vs {desc}")
        x = x.entries
    return np.einsum("bijc,...ijc->...b", hermitian_basis(desc), np.asarray(x))


def _from_coords(vec, desc: AlgebraDescriptor) -> np.ndarray:
    """Raw elements (..., n, n, d) from coordinate vectors (..., D).

    Every entry is one basis coordinate times +-1/sqrt(2) or 1, so the
    result is exactly Hermitian.
    """
    return np.einsum("...b,bijc->...ijc", vec, hermitian_basis(desc))


def from_coords(vec, desc: AlgebraDescriptor) -> AlgebraElement:
    return AlgebraElement(desc, _from_coords(np.asarray(vec, dtype=float), desc))


def _u_dense(desc: AlgebraDescriptor, g) -> np.ndarray:
    """U_g as (..., D, D) column-action matrices over `hermitian_basis`.

    g holds raw idempotents with any leading batch axes.  The multiplication
    matrix L_g = sum_c coords(g)_c C[c] comes from the structure constants in
    one product for the whole batch, and U_g = 2 L_g L_g - L_g is the map
    x -> 2 g o (g o x) - g o x.  This is the one place a compression is built.
    """
    dim = desc.basis_dim
    constants = structure_constants(desc).reshape(dim, dim * dim)
    left = (coords(g, desc) @ constants).reshape(np.shape(g)[:-3] + (dim, dim))
    return 2.0 * left @ left - left


# ---------------------------------------------------------------------------
# property battery
# ---------------------------------------------------------------------------


def property_battery(desc: AlgebraDescriptor, trials: int, seed=0) -> dict:
    """Relative residuals of the core algebraic laws over random draws.

    Checks power-associativity x^a o x^b = x^(a+b) up to degree MAX_POWER,
    the Jordan identity (x^2 o y) o x = x^2 o (y o x), positivity of
    squares, the square norm law |x^2| = |x|^2, and submultiplicativity of
    the order-unit norm.  Returns a dict of named worst-case residuals.
    """
    rng = _rng(seed)
    x = _random_elements(desc, rng, trials)
    y = _random_elements(desc, rng, trials)
    x = x / _norm(x, desc)[:, None, None, None]  # unit ball: powers stay bounded
    y = y / _norm(y, desc)[:, None, None, None]

    powers = [None, x]
    for k in range(2, MAX_POWER + 1):
        powers.append(_matmul(x, x) if k == 2 else _jp(powers[-1], x))

    res = {}
    worst = 0.0
    for a in range(1, MAX_POWER):
        for b in range(a, MAX_POWER + 1 - a):
            worst = max(worst, float(np.abs(_jp(powers[a], powers[b]) - powers[a + b]).max()))
    res["power_associativity"] = worst

    sq = powers[2]
    lhs = _jp(_jp(sq, y), x)
    rhs = _jp(sq, _jp(y, x))
    res["jordan_identity"] = float(np.abs(lhs - rhs).max())

    sq_eigs = _eigenvalues_raw(_matmul(y, y), desc)
    res["squares_positive"] = max(0.0, -float(sq_eigs.min()))

    x_norm = _norm(x, desc)
    res["square_norm_law"] = float(np.abs(_norm(sq, desc) - x_norm**2).max())

    xy_norm = _norm(_hermitize(_jp(x, y)), desc)
    res["norm_submultiplicative"] = max(0.0, float((xy_norm - x_norm * _norm(y, desc)).max()))

    return res
