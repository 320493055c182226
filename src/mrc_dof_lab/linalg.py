"""Complex-matrix kernels shared by the whole simulator.

Everything operates on 2-D ``complex128`` numpy arrays; the pseudoinverse,
the numeric rank and the orthonormal basis also take a stack of them and
decompose it in one LAPACK call, and the Gaussian draws fill a whole stack
with one call per generator. Rank decisions are made on singular values
relative to the largest one (scale invariant), and all functions return
freshly allocated arrays marked read-only so values can be shared between
concurrent trials without copies.
"""

from __future__ import annotations

import numpy as np

# Singular values sigma <= tol * sigma_max count as zero.
DEFAULT_TOL = 1e-10

# 2-D complex128 ndarray; alias used in signatures throughout the package.
CMatrix = np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def cmatrix(entries) -> CMatrix:
    """Coerce nested rows (or an array) into a validated read-only matrix.

    Raises ValueError unless the result is 2-D with positive dimensions and
    every entry is finite.
    """
    a = np.array(entries, dtype=np.complex128, order="C")
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix with positive dimensions, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return _freeze(a)


def random_gaussian_stack(count: int, shape: tuple[int, ...], rng) -> np.ndarray:
    """``count`` arrays of i.i.d. CN(0, 1) entries, one draw call per generator.

    ``rng`` is one generator, giving shape (count, *shape), or a sequence
    of generators, giving (len(rng), count, *shape) with row s drawn from
    generator s. Each generator fills one standard_normal block of shape
    (count, 2, *shape): the real then the imaginary part of each array in
    turn, which is the order of drawing the arrays one after another. Real
    and imaginary parts are N(0, 1/2), so E|a|^2 = 1.
    """
    if count < 1 or any(n < 1 for n in shape):
        raise ValueError("draw dimensions must be positive")
    block = (count, 2, *shape)
    if isinstance(rng, np.random.Generator):
        z = rng.standard_normal(block)
    else:
        rngs = list(rng)
        z = np.empty((len(rngs), *block))
        for g, row in zip(rngs, z):
            g.standard_normal(block, out=row)
    tail = (slice(None),) * len(shape)
    re, im = z[(Ellipsis, 0) + tail], z[(Ellipsis, 1) + tail]
    return _freeze((re + 1j * im) / np.sqrt(2.0))


def random_gaussian_matrix(rows: int, cols: int, rng: np.random.Generator) -> CMatrix:
    """Draw a rows x cols matrix of i.i.d. CN(0, 1) entries.

    Real and imaginary parts are independent N(0, 1/2), so E|a_ij|^2 = 1.
    Deterministic given the generator state.
    """
    return random_gaussian_stack(1, (rows, cols), rng)[0]


def random_gaussian_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """Length-n vector of i.i.d. CN(0, 1) entries (unit power per entry)."""
    return random_gaussian_stack(1, (n,), rng)[0]


def pseudo_inverse_and_rank(A: CMatrix, tol: float = DEFAULT_TOL) -> tuple[CMatrix, np.ndarray]:
    """Moore-Penrose pseudoinverse and numeric rank from one SVD.

    Takes one matrix or a stack of shape (..., m, n) and decomposes the
    whole stack in a single call. Singular values at or below
    ``tol * sigma_max`` of their own matrix are truncated and not counted,
    so rank-deficient inputs are handled without blow-up. The rank is an
    int array over the stack (a 0-d array for one matrix).
    """
    u, s, vh = np.linalg.svd(np.asarray(A), full_matrices=False)
    keep = s > tol * s[..., :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    pinv = (vh.conj().swapaxes(-1, -2) * inv[..., np.newaxis, :]) @ u.conj().swapaxes(-1, -2)
    return _freeze(pinv), keep.sum(axis=-1)


def pseudo_inverse(A: CMatrix, tol: float = DEFAULT_TOL) -> CMatrix:
    """Moore-Penrose pseudoinverse via SVD, of one matrix or a stack.

    Singular values at or below ``tol * sigma_max`` are truncated, so
    rank-deficient inputs are handled without blow-up.
    """
    return pseudo_inverse_and_rank(A, tol)[0]


def numeric_rank(A: CMatrix, tol: float = DEFAULT_TOL) -> int | np.ndarray:
    """Number of singular values above ``tol * sigma_max``.

    Takes one matrix or a stack of shape (..., m, n), decomposed in one
    call with the rank rule of ``pseudo_inverse_and_rank``. Returns an int
    for one matrix and an int array over the stack otherwise.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    A = np.asarray(A)
    if A.shape[-2] == 0 or A.shape[-1] == 0:
        rank = np.zeros(A.shape[:-2], dtype=int)
    else:
        s = np.linalg.svd(A, compute_uv=False)
        rank = np.sum(s > tol * s[..., :1], axis=-1)
    return int(rank) if A.ndim == 2 else rank


def orthonormal_columns(A: CMatrix) -> CMatrix:
    """Orthonormal basis of the column span (reduced QR), of one matrix or
    of each matrix of a stack, in one call.

    The input must have full column rank for the span to be preserved.
    """
    q, _ = np.linalg.qr(np.asarray(A))
    return _freeze(q)


def subspace_distance(A: CMatrix, B: CMatrix) -> float:
    """Spectral-norm distance between the column spans of A and B.

    Computes ``|| P_A - P_B ||_2`` with P_X the orthogonal projector onto
    the span of X. Spans of equal dimension give a value in [0, 1], and 0
    means the spans coincide. Both inputs need full column rank.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape[0] != B.shape[0]:
        raise ValueError(f"incompatible ambient spaces: {A.shape[0]} vs {B.shape[0]} rows")
    qa = orthonormal_columns(A)
    qb = orthonormal_columns(B)
    pa = qa @ qa.conj().T
    pb = qb @ qb.conj().T
    return float(np.linalg.norm(pa - pb, 2))
