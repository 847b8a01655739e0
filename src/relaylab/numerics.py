"""Complex dense matrix backbone and deterministic random sampling.

Matrices are plain ``numpy.ndarray`` with ``complex128`` entries. Random
sampling is counter-based: a 64-bit master seed selects a Philox-4x64 key
and every (stream, lane) pair owns a disjoint slice of the counter space,
so draws are reproducible for any execution order and any number of
workers. A vectorised Philox implementation (validated word-for-word
against ``numpy.random.Philox``) lets millions of independently-keyed
trials be sampled in single array operations; Box-Muller makes the entries
with no libm sin/cos (an exact quarter-turn reduction and fdlibm's kernels
take the angle). Gram eigenvalues come from :func:`gram_eigvals_desc`
(``eigvalsh``, or at order 2 the closed form that also gives the
transceiver its eigenpairs); a private trace helper screens for it. Where
a Gram is needed by its entries (the order-2 closed form, the trace
screen, the transceiver's order-2 eigenpairs), one private helper,
``_gram_entries``, forms them on contiguous real planes. Two private
checks stand behind every public boundary: ``_check_scalar`` for one
number, ``_check_array`` for arrays (their shape and entries).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

__all__ = [
    "ContractViolation",
    "NumericalRankError",
    "SeedSpec",
    "HermitianEig",
    "eig_hermitian_desc",
    "gram_eigvals_desc",
    "solve_hermitian_psd",
    "sample_complex_gaussian_batch",
]

HERMITIAN_TOL = 1e-12
PSD_CLIP_REL = 1e-10


class ContractViolation(ValueError):
    """An argument failed a documented precondition."""


def _check_scalar(name: str, value, integer: bool = False, low=None, high=None, open_low: bool = False):
    """The one scalar input check behind every public boundary; returns ``value``.

    ``value`` must be an integer (``integer``) or a finite real number,
    never a bool, and lie in ``[low, high]`` (``(low, high]`` with
    ``open_low``); a bound of None is absent. A failure raises
    :class:`ContractViolation` naming ``name``: the field, parameter or
    flag the caller knows.
    """
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ContractViolation(f"{name} must be {'an integer' if integer else 'a real number'}, got {value!r}")
    if not (integer or -sys.float_info.max <= value <= sys.float_info.max):  # NaN fails every comparison
        raise ContractViolation(f"{name} must be finite, got {value}")
    if (low is not None and (value <= low if open_low else value < low)) or (high is not None and value > high):
        lo = "" if low is None else f"{'greater than' if open_low else 'at least'} {low}"
        hi = "" if high is None else f"at most {high}"
        raise ContractViolation(f"{name} must be {' and '.join(filter(None, (lo, hi)))}, got {value}")
    return value


def _check_array(name: str, values, low=None, integer: bool = False, shape=None) -> np.ndarray:
    """The one array input check, beside :func:`_check_scalar`; returns ``values`` as an array.

    ``shape`` is None (any shape) or a tuple of ints and Nones: the array has
    ``len(shape)`` axes, each int giving that axis's size and None any size.
    The shape is checked first. Then every entry must be an integer
    (``integer``) or a finite number, and real entries at least ``low`` (None:
    no bound; unsigned integers are not scanned against a bound <= 0). A
    failure raises :class:`ContractViolation` naming ``name``.
    """
    values = np.asarray(values)
    if shape is not None and (
        values.ndim != len(shape) or any(w not in (None, n) for w, n in zip(shape, values.shape))
    ):
        want = str(tuple("*" if w is None else int(w) for w in shape)).replace("'*'", "*")
        raise ContractViolation(f"{name} must have shape {want}, got {values.shape}")
    kind = values.dtype.kind
    if integer and values.size and kind not in "iu":
        raise ContractViolation(f"{name} must be integers, got dtype {values.dtype}")
    if kind not in "iu" and not np.isfinite(values).all():
        raise ContractViolation(f"{name} has NaN or infinite entries")
    if low is not None and values.size and not (kind == "u" and low <= 0) and values.min() < low:
        raise ContractViolation(f"{name} must be at least {low}, got {values.min()}")
    return values


class NumericalRankError(RuntimeError):
    """A matrix was numerically singular or indefinite where positive
    definiteness was required.

    The ``pivot`` attribute carries the offending (smallest) pivot or
    eigenvalue magnitude.
    """

    def __init__(self, message: str, pivot: float):
        super().__init__(f"{message} (offending pivot magnitude {pivot:.6e})")
        self.pivot = pivot


# ---------------------------------------------------------------------------
# Counter-based sampling (Philox-4x64-10)
# ---------------------------------------------------------------------------

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_S32 = _U64(32)
_PHILOX_M0 = _U64(0xD2E7470EE14C6C93)
_PHILOX_M1 = _U64(0xCA5A826395121157)
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_WORDS_PER_BLOCK = 4

_MAX_U64 = 2**64 - 1


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one reproducible random stream.

    ``master_seed`` names the experiment, ``stream_index`` the trial.
    Identical pairs reproduce identical draws across runs and across any
    degree of parallelism.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            _check_scalar(name, getattr(self, name), integer=True, low=0, high=_MAX_U64)


@lru_cache(maxsize=64)
def _philox_key(master_seed: int) -> tuple[int, int]:
    k = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
    return int(k[0]), int(k[1])


def _philox_round_keys(master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    k0, k1 = _philox_key(master_seed)
    ks0 = [(k0 + r * _PHILOX_W0) & _MAX_U64 for r in range(_PHILOX_ROUNDS)]
    ks1 = [(k1 + r * _PHILOX_W1) & _MAX_U64 for r in range(_PHILOX_ROUNDS)]
    return np.array(ks0, dtype=_U64), np.array(ks1, dtype=_U64)


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # 64x64 -> 128 bit product via 32-bit limbs; numpy uint64 wraps mod 2**64.
    lo = a * b
    ah, al = a >> _S32, a & _MASK32
    bh, bl = b >> _S32, b & _MASK32
    y = ah * bl
    y += (al * bl) >> _S32
    z = al * bh
    z += y & _MASK32
    hi = ah * bh
    hi += y >> _S32
    hi += z >> _S32
    return hi, lo


def _philox_rounds(master_seed: int, c0, c1, c2, c3) -> tuple[np.ndarray, ...]:
    # The ten rounds on counter words that need only broadcast together:
    # a round's outputs take the shapes of the inputs they read.
    ks0, ks1 = _philox_round_keys(master_seed)
    for r in range(_PHILOX_ROUNDS):
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        hi1 ^= ks0[r]
        hi0 ^= ks1[r]
        c0, c1, c2, c3 = hi1 ^ c1, lo1, hi0 ^ c3, lo0
    return c0, c1, c2, c3


def philox4x64_block(master_seed: int, c0, c1, c2, c3) -> tuple[np.ndarray, ...]:
    """Philox-4x64-10 keyed by ``master_seed``: counter columns -> word columns.

    Bit-compatible with ``numpy.random.Philox`` (numpy emits the block of
    counter ``c + 1``; this function evaluates the block of ``c`` itself).
    ``master_seed`` must lie in [0, 2^64 - 1] and every counter word must be
    a non-negative integer; anything else raises :class:`ContractViolation`
    naming it.
    """
    _check_scalar("master_seed", master_seed, integer=True, low=0, high=_MAX_U64)
    counters = (_check_array(f"c{i}", c, low=0, integer=True) for i, c in enumerate((c0, c1, c2, c3)))
    # 1-d minimum: numpy scalar arithmetic warns on the intended wraparound.
    cols = np.broadcast_arrays(*(np.atleast_1d(c.astype(_U64, copy=False)) for c in counters))
    return _philox_rounds(master_seed, *cols)


def _uniform_words(master_seed: int, lane: int, streams: np.ndarray, n_words: int) -> np.ndarray:
    """Uniform [0,1) doubles, shape (len(streams), n_words).

    Stream ``s`` of lane ``l`` reads counter blocks (b, l, s, 0) for
    b = 0, 1, ...; 53-bit mantissas from the high bits of each word.
    The counter varies only in b and s, so the rounds start on a
    (1, n_blocks) block plane and an (n, 1) stream plane. After round 1,
    words 0-1 depend on s alone and words 2-3 on b alone, so round 2
    still multiplies on those planes; only its XORs broadcast to the full
    (n, n_blocks) planes that rounds 3-10 work on.
    """
    n = streams.shape[0]
    n_blocks = -(-n_words // _WORDS_PER_BLOCK)
    zero = np.zeros((1, 1), dtype=_U64)
    words = _philox_rounds(
        master_seed, np.arange(n_blocks, dtype=_U64)[None, :], zero + _U64(lane), streams.astype(_U64)[:, None], zero
    )
    u = np.empty((n, n_blocks, _WORDS_PER_BLOCK), dtype=np.float64)
    for j in range(_WORDS_PER_BLOCK):
        u[..., j] = words[j] >> _U64(11)
    u *= 2.0**-53
    return u.reshape(n, n_blocks * _WORDS_PER_BLOCK)[:, :n_words]


# fdlibm's __kernel_sin and __kernel_cos coefficients (cos's led by its -1/2), and cos, sin of 0-3 quarter turns
_SIN_POLY = (-1.66666666666666324348e-01, 8.33333333332248946124e-03, -1.98412698298579493134e-04,
             2.75573137070700676789e-06, -2.50507602534068634195e-08, 1.58969099521155010221e-10)
_COS_POLY = (-0.5, 4.16666666666666019037e-02, -1.38888888888741095749e-03, 2.48015872894767294178e-05,
             -2.75573143513906633035e-07, 2.08757232129817482790e-09, -1.13596475577881948265e-11)
_QUARTER_TURNS = np.array([[1, 0, -1, 0], [0, 1, 0, -1]], dtype=np.int8)


def _complex_gaussian_from_uniforms(u: np.ndarray) -> np.ndarray:
    # Box-Muller in polar form: two uniforms per CN(0,1) entry, so the counter footprint per entry
    # is fixed (batched == single-draw output). q = rint(4t) and f = 4t - q are exact for t = k 2^-53,
    # so 2 pi t = q pi/2 + x, x = f pi/2 in [-pi/4, pi/4]: fdlibm's kernels on x, turned by q mod 4
    # quarter turns (products with 0, +-1: exact), give cos and sin within 1.8e-16 and exact at quarter
    # turns, with no libm sin/cos (libm on fl(2 pi t): 6.9e-16). Four real planes at most are live.
    radius = np.sqrt(-np.log1p(-u[..., 0::2]))
    x = u[..., 1::2] * 4.0
    z = np.rint(x)
    x = (x - z) * (np.pi / 2)
    cos_q, sin_q = _QUARTER_TURNS.take(z.astype(np.uint8) & 3, axis=1)
    np.multiply(x, x, out=z)
    sin = np.multiply(z, _SIN_POLY[-1])
    for c in _SIN_POLY[-2::-1]:  # Horner's rule: z (S1 + z (S2 + ...))
        sin += c
        sin *= z
    sin *= x
    sin += x
    cos = np.multiply(z, _COS_POLY[-1], out=x)
    for c in _COS_POLY[-2::-1]:  # z (-1/2 + z (C1 + z (C2 + ...)))
        cos += c
        cos *= z
    cos += 1.0
    cos *= radius
    sin *= radius
    del radius, z  # before the output is made
    out = np.empty(sin.shape, dtype=np.complex128)
    np.multiply(cos, cos_q, out=out.real)
    np.multiply(sin, cos_q, out=out.imag)
    out.real -= np.multiply(sin, sin_q, out=sin)
    out.imag += np.multiply(cos, sin_q, out=cos)
    return out


def sample_complex_gaussian_batch(
    rows: int,
    cols: int,
    master_seed: int,
    stream_indices: np.ndarray,
    lane: int = 0,
) -> np.ndarray:
    """Draw a stack of i.i.d. CN(0,1) matrices, one per stream index.

    Real and imaginary parts are independent N(0, 1/2), so E|entry|^2 = 1.
    Entry (i, :, :) depends on ``(master_seed, stream_indices[i], lane)`` alone.
    ``rows`` and ``cols`` must be positive integers, ``master_seed`` and
    ``lane`` must lie in [0, 2^64 - 1] and every stream index must be a
    non-negative integer; anything else raises :class:`ContractViolation`
    naming the argument.
    """
    _check_scalar("rows", rows, integer=True, low=1)
    _check_scalar("cols", cols, integer=True, low=1)
    _check_scalar("master_seed", master_seed, integer=True, low=0, high=_MAX_U64)
    _check_scalar("lane", lane, integer=True, low=0, high=_MAX_U64)
    streams = _check_array("stream_indices", stream_indices, low=0, integer=True, shape=(None,))
    streams = streams.astype(np.uint64, copy=False)
    u = _uniform_words(master_seed, lane, streams, 2 * rows * cols)
    return _complex_gaussian_from_uniforms(u).reshape(streams.shape[0], rows, cols)


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition and positive-definite solves
# ---------------------------------------------------------------------------


class HermitianEig(NamedTuple):
    values: np.ndarray  # real, sorted descending
    vectors: np.ndarray  # unitary, column k pairs with values[k]


def require_hermitian(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0] if a.ndim else None  # 0-d and 1-d input fail on the axis count
    a = _check_array(what, a, shape=(n, n))
    scale = 1.0 + (float(np.max(np.abs(a))) if a.size else 0.0)
    defect = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if defect > HERMITIAN_TOL * scale:
        raise ContractViolation(
            f"{what} is not Hermitian: max |A - A^H| = {defect:.3e} exceeds "
            f"{HERMITIAN_TOL:.0e} * (1 + max|A|)"
        )
    return a


def _fix_eigenvector_phases(vectors: np.ndarray) -> np.ndarray:
    # Gauge convention: first non-negligible component of each column made
    # real positive, so repeated runs emit identical matrices.
    v = vectors.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        lead = int(np.argmax(mags > 1e-8 * top))
        pivot = col[lead]
        if pivot != 0:
            v[:, k] = col * (pivot.conjugate() / abs(pivot))
    return v


def eig_hermitian_desc(a: np.ndarray) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Round-off negatives within ``1e-10`` of the spectral radius are mapped
    to exactly 0 so that positive semidefinite inputs never acquire
    spurious negative modes. Eigenvector phases follow a fixed gauge.

    Raises
    ------
    ContractViolation
        If the input is not square, not finite or not Hermitian within tolerance.
    """
    a = require_hermitian(a, "eig input")
    values, vectors = np.linalg.eigh(a)
    values = values[::-1].copy()
    vectors = vectors[:, ::-1]
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    tiny_negative = (values < 0) & (values >= -PSD_CLIP_REL * scale)
    values[tiny_negative] = 0.0
    return HermitianEig(values=values, vectors=_fix_eigenvector_phases(vectors))


def _gram_entries(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, list, dict]:
    """The entries of the smaller Gram ``A = X X^H`` of each matrix of an (n, r, c) stack.

    ``X`` is the matrix, or its transpose when r > c (that conjugates the
    Gram; the spectrum is unchanged). Returns ``(re, im, diag, upper)``:
    the real and imaginary parts of ``X`` as contiguous (k, l, n) planes,
    k <= l, the real diagonal ``A_ii`` as k (n,) planes, and ``upper[i, j]
    = (Re A_ij, Im A_ij)`` for i < j. Every entry is formed on the planes in
    real arithmetic and summed over the l columns in order, so row ``i``
    depends on ``mats[i]`` only.
    """
    if mats.shape[1] > mats.shape[2]:
        mats = mats.swapaxes(1, 2)
    re, im = (np.ascontiguousarray(part.transpose(1, 2, 0)) for part in (mats.real, mats.imag))
    k = re.shape[0]

    def total(terms):  # in column order, at any n; numpy's sum is pairwise along a lone row
        return reduce(np.add, terms)

    diag = [total(re[i] * re[i] + im[i] * im[i]) for i in range(k)]
    upper = {
        (i, j): (total(re[i] * re[j] + im[i] * im[j]), total(im[i] * re[j] - re[i] * im[j]))
        for i in range(k)
        for j in range(i + 1, k)
    }
    return re, im, diag, upper


def _gram2_eigh(a: np.ndarray, b: np.ndarray, c: tuple, vectors: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of each order-2 Gram ``[[a, c], [conj c, b]]``, no LAPACK call.

    ``c`` is the pair ``(Re c, Im c)`` of real planes. Returns the values
    (n, 2), ``lambda_1 >= lambda_2 >= 0``, and the unit top eigenvector
    ``u_1`` (n, 2); ``u_2 = (-conj u_1[1], conj u_1[0])``. ``u_1`` comes
    from the row of ``G - lambda_1 I`` whose entry on the diagonal side,
    ``|a - b| / 2 + disc``, is a sum of non-negative terms, so nothing
    cancels; a multiple of I gets ``u_1 = (1, 0)``. Without ``vectors``,
    ``u_1`` is None.
    """
    c_re, c_im = c
    abs_c2 = c_re**2 + c_im**2
    half = 0.5 * (a + b)
    disc = np.sqrt(0.25 * (a - b) ** 2 + abs_c2)
    values = np.stack([half + disc, np.maximum(half - disc, 0.0)], axis=-1)
    if not vectors:
        return values, None
    lead = 0.5 * np.abs(a - b) + disc
    norm = np.sqrt(lead**2 + abs_c2)
    scale = np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0.0)
    top = a >= b
    c = c_re + 1j * c_im
    u1 = np.stack([np.where(top, lead, c) * scale, np.where(top, c.conj(), lead) * scale], axis=-1)
    u1[norm == 0.0, 0] = 1.0
    return values, u1


def gram_eigvals_desc(mats: np.ndarray, k: int) -> np.ndarray:
    """Top-``k`` eigenvalues of ``A^H A`` for each ``A`` of an (n, r, c) stack.

    Returns (n, k), each row descending. The spectrum is taken from the
    smaller of ``A A^H`` and ``A^H A``: at order 2 by ``_gram2_eigh`` on
    the entries of ``_gram_entries``, otherwise by ``eigvalsh`` on the
    stacked matmul. It is clipped at 0 and padded with exact zeros beyond
    the rank bound min(r, c). Row ``i`` depends on ``mats[i]`` only, so a
    one-matrix stack gives the same bits as the full batch. ``mats`` must
    be finite and ``k`` a positive integer.
    """
    _check_scalar("k", k, integer=True, low=1)
    return _gram_eigvals(_check_array("mats", mats, shape=(None, None, None)), k)


def _gram_eigvals(mats: np.ndarray, k: int) -> np.ndarray:
    # gram_eigvals_desc on a stack its caller has checked
    order = min(mats.shape[1:])
    if order == 2:
        _, _, (a, b), upper = _gram_entries(mats)
        values = _gram2_eigh(a, b, upper[0, 1], vectors=False)[0]
    else:
        herm = mats.conj().swapaxes(-1, -2)
        gram = mats @ herm if mats.shape[1] <= mats.shape[2] else herm @ mats
        values = np.maximum(np.linalg.eigvalsh(gram)[..., ::-1], 0.0)
    if k <= order:
        return values[:, :k]
    return np.pad(values, ((0, 0), (0, k - order)))


def _gram_inv_trace(mats: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """``(tr((I + rho A)^-1), tr A)`` for the smaller Gram ``A`` of each matrix
    of an (n, r, c) stack, in real arithmetic on (n,) planes, any order:
    the entries of ``_gram_entries``, the Cholesky factor L of I + rho A
    (eigenvalues >= 1), then tr((I + rho A)^-1) = ||L^-1||_F^2, and tr A
    from the diagonal entries. No LAPACK call.
    """
    _, _, diag, upper = _gram_entries(mats)  # the planes are dropped here, for peak RSS
    k = len(diag)
    lr, li, inv_d = {}, {}, []  # L below its diagonal, 1 / its diagonal
    for j in range(k):
        sr = rho * diag[j]  # (I + rho A)_jj - sum_p |L_jp|^2, real
        for p in range(j):
            sr -= lr[j, p] * lr[j, p] + li[j, p] * li[j, p]
        inv_d.append(1.0 / np.sqrt(1.0 + sr))
        for i in range(j + 1, k):
            # (I + rho A)_ij - sum_p L_ip conj(L_jp), with A_ij = conj(A_ji)
            sr, si = rho * upper[j, i][0], -rho * upper[j, i][1]
            for p in range(j):
                sr -= lr[i, p] * lr[j, p] + li[i, p] * li[j, p]
                si -= li[i, p] * lr[j, p] - lr[i, p] * li[j, p]
            lr[i, j], li[i, j] = sr * inv_d[j], si * inv_d[j]
    trace = reduce(np.add, diag)
    inv_trace = 0.0
    for j in range(k):  # column j of L^-1 by forward substitution
        xr, xi = {j: inv_d[j]}, {j: 0.0}
        for i in range(j + 1, k):
            sr = sum(lr[i, p] * xr[p] - li[i, p] * xi[p] for p in range(j, i))
            si = sum(lr[i, p] * xi[p] + li[i, p] * xr[p] for p in range(j, i))
            xr[i], xi[i] = -sr * inv_d[i], -si * inv_d[i]
        inv_trace = inv_trace + sum(xr[i] ** 2 + xi[i] ** 2 for i in range(j, k))
    return inv_trace, trace


def solve_hermitian_psd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for Hermitian positive definite ``a``.

    Positive definiteness is established by a Cholesky factorisation; a
    failure raises :class:`NumericalRankError` carrying the offending
    pivot magnitude. One step of iterative refinement keeps the residual
    below ``1e-9 * ||b||_F``.
    """
    a = require_hermitian(a, "solve input")
    b = np.asarray(b, dtype=np.complex128)
    b = _check_array("solve rhs", b, shape=(a.shape[0],) if b.ndim == 1 else (a.shape[0], None))
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(a)
        raise NumericalRankError("matrix is not positive definite", pivot=float(eigs.min())) from None
    x = np.linalg.solve(a, b)
    b_norm = float(np.linalg.norm(b))
    if b_norm > 0:
        residual = b - a @ x
        if float(np.linalg.norm(residual)) > 1e-9 * b_norm:
            x = x + np.linalg.solve(a, residual)
            residual = b - a @ x
            if float(np.linalg.norm(residual)) > 1e-9 * b_norm:
                eigs = np.linalg.eigvalsh(a)
                raise NumericalRankError(
                    "solve residual exceeds tolerance; matrix is numerically singular",
                    pivot=float(eigs.min()),
                )
    return x


