"""Complex-matrix kernels shared by the whole simulator.

Everything operates on 2-D ``complex128`` numpy arrays; the pseudoinverses
also take a stack of them and decompose it in one LAPACK call, and
``random_gaussian_stacks`` fills every array a trial draws with one call
per generator, or per row of a trial-stream reader. Rank decisions are
made on singular values relative to the largest one (scale invariant),
at the one tolerance ``RANK_TOL``:
``pseudo_inverse_and_rank`` computes them with an SVD, and
``pseudo_inverse_and_bound`` reaches the same decisions from one LU or QR
factorization and a certified bound on the condition number, taking the
SVD only for matrices the bound cannot decide. All functions return
freshly allocated arrays marked read-only so values can be shared between
concurrent trials without copies.
"""

from __future__ import annotations

import math

import numpy as np

# Singular values sigma <= RANK_TOL * sigma_max count as zero.
RANK_TOL = 1e-10

# The Frobenius condition bound kappa_F = ||A||_F ||A^+||_F of a rank-r
# matrix satisfies kappa_2 <= kappa_F <= r kappa_2. It certifies a
# threshold t on kappa_2 only when BOUND_MARGIN * kappa_F <= t; matrices
# between the certified value and the threshold are decided by the SVD.
# The margin absorbs rounding: the computed kappa_F was within 4.5 kappa_2
# eps, relative, of the exact one over 80,000 matrices up to 16 x 16 with
# kappa_2 up to 1e10, so 1e-5 at most, against the factor 2 allowed
# (tests/test_linalg.py holds it to 16 kappa_2 eps).
BOUND_MARGIN = 2.0

# 2-D complex128 ndarray; alias used in signatures throughout the package.
CMatrix = np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def random_gaussian_stacks(parts, rng) -> list[np.ndarray]:
    """One array of i.i.d. CN(0, 1) entries per (count, shape) pair of
    ``parts``, of shape (count, *shape), in one draw call per generator.

    ``rng`` is one generator, or a trial-stream reader or a sequence of
    generators, either of which prefixes every array with a trial axis
    whose row s is drawn from stream s. A reader (``channel.TrialStreams``,
    or anything whose ``read(n)`` returns one row of n standard normal
    values per trial) fills every row in one call. Each stream fills one
    standard_normal vector holding every part's block (count, 2, *shape)
    in turn: the real then the imaginary part of each array. One draw
    fills a stream's values in the order of consecutive draws of the same
    total length, so each part gets, bit for bit, what drawing the parts
    one after another gives it. Real and
    imaginary parts are N(0, 1/2), so E|a|^2 = 1.
    """
    if any(n < 1 for count, shape in parts for n in (count, *shape)):
        raise ValueError("draw dimensions must be positive")
    size = _normal_count(parts)
    if isinstance(rng, np.random.Generator):
        z = rng.standard_normal(size)
    elif hasattr(rng, "read"):
        z = rng.read(size)
    else:
        rngs = list(rng)
        z = np.empty((len(rngs), size))
        for g, row in zip(rngs, z):
            g.standard_normal(row.shape, out=row)
    out = []
    for re, im in _normal_parts(z, parts):
        # (re + 1j im) / sqrt(2) without its three temporaries: the same
        # values up to the sign of an exactly zero part
        a = np.empty(re.shape, dtype=complex)
        a.real = re
        a.imag = im
        a /= np.sqrt(2.0)
        out.append(_freeze(a))
    return out


def _normal_count(parts) -> int:
    """The standard normal values the (count, shape) parts take: a real
    and an imaginary block of each."""
    return sum(2 * count * math.prod(shape) for count, shape in parts)


def _normal_parts(z: np.ndarray, parts) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (real, imaginary) views of standard normal values z, one pair
    per (count, shape) part, as ``random_gaussian_stacks`` reads them:
    each stream's values along z's last axis hold each part's block
    (count, 2, *shape) in turn. Each view has shape z.shape[:-1] + (count,
    *shape); the complex part is (re + 1j im) / sqrt(2)."""
    lead = z.shape[:-1]
    head = (slice(None),) * (len(lead) + 1)
    out, start = [], 0
    for count, shape in parts:
        size = 2 * count * math.prod(shape)
        block = z[..., start : start + size].reshape(lead + (count, 2, *shape))
        start += size
        out.append((block[head + (0,)], block[head + (1,)]))
    return out


def pseudo_inverse_and_rank(A: CMatrix) -> tuple[np.ndarray, ...]:
    """Moore-Penrose pseudoinverse, numeric rank and condition number from one SVD.

    Takes one matrix or a stack of shape (..., m, n) and decomposes the
    whole stack in a single call. Singular values at or below
    ``RANK_TOL * sigma_max`` of their own matrix are truncated and not
    counted, so rank-deficient inputs are handled without blow-up. Rank and
    condition number sigma_max / sigma_min (inf if rank deficient) are
    arrays over the stack.
    """
    u, s, vh = np.linalg.svd(np.asarray(A), full_matrices=False)
    keep = s > RANK_TOL * s[..., :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    pinv = (vh.conj().swapaxes(-1, -2) * inv[..., np.newaxis, :]) @ u.conj().swapaxes(-1, -2)
    cond = np.divide(s[..., 0], s[..., -1], out=np.full(s.shape[:-1], np.inf), where=keep[..., -1])
    return _freeze(pinv), keep.sum(axis=-1), cond


def _lu_inverse(a: np.ndarray) -> np.ndarray:
    """inv of a square stack in one call. A singular matrix fails the
    whole call, so the stack is then inverted one matrix at a time, with
    NaN in place of each singular matrix's inverse."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        out = np.full(a.shape, np.nan, dtype=complex)
        for idx in np.ndindex(a.shape[:-2]):
            try:
                out[idx] = np.linalg.inv(a[idx])
            except np.linalg.LinAlgError:
                pass
        return out


def _qr_pseudo_inverse(a: np.ndarray) -> np.ndarray:
    """R^-1 Q^H for a tall stack a = QR (reduced), by back substitution
    on R, in one QR call. A zero on R's diagonal gives non-finite rows."""
    q, r = np.linalg.qr(a)
    b = q.conj().swapaxes(-1, -2)
    x = np.empty(b.shape, dtype=b.dtype)
    # the last row has nothing to subtract
    x[..., -1, :] = b[..., -1, :] / r[..., -1, -1, np.newaxis]
    for i in range(r.shape[-1] - 2, -1, -1):
        rest = r[..., i : i + 1, i + 1 :] @ x[..., i + 1 :, :]
        x[..., i, :] = (b[..., i, :] - rest[..., 0, :]) / r[..., i, i, np.newaxis]
    return x


def _frobenius(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a, axis=(-2, -1)), bit for bit, without its argument
    handling."""
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=(-2, -1)))


def pseudo_inverse_and_bound(A: CMatrix) -> tuple[np.ndarray, ...]:
    """Pseudoinverse and numeric rank, as ``pseudo_inverse_and_rank``
    decides them, with the Frobenius condition bound in place of the
    condition number.

    Takes one matrix or a stack of shape (..., m, n) and factors the whole
    stack in one call: an LU inverse when m = n, a QR pseudoinverse
    R^-1 Q^H when m > n, and the conjugate transpose of that of A^H when
    m < n. Each matrix's bound kappa_F = ||A||_F ||A^+||_F lies between its
    condition number and rank times it. A matrix whose kappa_F is at most
    1 / (BOUND_MARGIN RANK_TOL) is full rank under the SVD's rule; any other
    matrix, including one whose factorization failed, is decided by
    ``pseudo_inverse_and_rank`` (one SVD call for all of them), which
    gives its pseudoinverse, its rank and, as its bound, its condition
    number itself (inf when rank deficient). The route is chosen per
    matrix, and the stack is made contiguous first, so a matrix's results
    do not depend on the stack it is in or on its memory layout. Returns
    the read-only pseudoinverse and the rank and bound arrays over the
    stack.
    """
    a = np.ascontiguousarray(A)
    m, n = a.shape[-2:]
    if m == n:
        # a singular matrix's inverse is NaN, which raises no float error
        pinv = _lu_inverse(a)
        bound = np.asarray(_frobenius(a) * _frobenius(pinv))
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if m > n:
                pinv = _qr_pseudo_inverse(a)
            else:
                pinv = _qr_pseudo_inverse(a.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2).copy()
            bound = np.asarray(_frobenius(a) * _frobenius(pinv))
    rank = np.full(bound.shape, min(m, n))
    unsure = ~(bound <= 1.0 / (BOUND_MARGIN * RANK_TOL))
    if unsure.any():
        pinv[unsure], rank[unsure], bound[unsure] = pseudo_inverse_and_rank(a[unsure])
    return _freeze(pinv), rank, bound


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
    # orthonormal bases of the spans (reduced QR)
    qa = np.linalg.qr(A)[0]
    qb = np.linalg.qr(B)[0]
    pa = qa @ qa.conj().T
    pb = qb @ qb.conj().T
    return float(np.linalg.norm(pa - pb, 2))
