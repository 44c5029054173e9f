"""Complex linear-algebra kernels shared by every other module.

All functions take and return plain ``numpy`` arrays (dense, complex double
precision) and are pure: nothing here mutates its inputs or touches global
state.  Dimensions are desk scale (a few hundred at most), so everything is
backed by LAPACK through ``numpy.linalg``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

#: Relative cutoff separating "zero" eigenvalues/singular values from genuine
#: ones: fixed where a docstring names it, and the default of most ``tol``s.
DEFAULT_TOL = 1e-10

#: Largest dimension of a channel that ``qcc build`` makes and of a Pauli
#: basis, single or product: the basis's ``d^2`` operators hold ``d^4``
#: complex entries, 16 MB at ``d = 32``.
MAX_DIM = 32


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack (the
    last two axes)."""
    return np.swapaxes(a, -1, -2).conj()


def as_complex(a) -> np.ndarray:
    """Return ``a`` as a C-contiguous complex128 array."""
    return np.ascontiguousarray(a, dtype=np.complex128)


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm, as a plain float."""
    return float(np.linalg.norm(a))


def hermitian_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues non-increasing.

    Returns
    -------
    (w, v)
        ``w`` real eigenvalues sorted non-increasing, ``v`` the matching
        eigenvector columns.
    """
    w, v = np.linalg.eigh(m)
    return w[::-1].copy(), v[:, ::-1].copy()


def canonical_hermitian_eigh(
    m: np.ndarray, count: Callable[[np.ndarray], int]
) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`hermitian_eigh` but with a deterministic eigenbasis, built
    only for the leading eigenvectors the caller keeps.

    ``count`` maps the eigenvalues (non-increasing) to the number ``k`` of
    leading eigenvectors wanted.  It is called after the one eigensolve and
    before any basis is built, so it may raise to refuse ``m`` at the cost of
    the eigensolve alone.  Returns ``(w, v)``: all eigenvalues, and the
    ``n x k`` columns of the first ``k`` eigenvectors.

    Degenerate eigenspaces (eigenvalues within ``1e-9`` relative to the
    spectral radius) are given a canonical basis by orthonormalising the
    projections of the standard basis vectors, taken in index order, onto the
    eigenspace.  Each vector's phase is fixed by making its first
    significant entry real and positive.  An eigenspace that starts among the
    first ``k`` is canonicalized whole before it is cut at ``k``, so column
    ``i`` does not depend on ``k``; eigenspaces that start after it are never
    canonicalized.  The result depends only on ``m``, not on
    backend-specific eigenvector choices.
    """
    w, v = hermitian_eigh(m)
    n = m.shape[0]
    k = count(w)
    scale = max(float(np.abs(w).max()), 1e-300) if n else 1.0
    out = np.empty((n, k), dtype=v.dtype)
    i = 0
    while i < k:
        j = i + 1
        while j < n and abs(w[j] - w[i]) <= 1e-9 * scale:
            j += 1
        block = v[:, i:j]
        if j - i > 1:
            block = _canonical_subspace_basis(block)
        out[:, i:min(j, k)] = _fix_phases(block[:, : k - i])
        i = j
    return w, out


def _canonical_subspace_basis(block: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of span(block) via pivoted projection.

    The single pass always finds ``g`` vectors: stopping short would leave
    a projector of squared Frobenius norm at least 1 spread over ``n``
    column residuals of at most ``1e-14`` each.
    """
    n, g = block.shape
    proj = block @ dagger(block)
    basis: list[np.ndarray] = []
    for k in range(n):
        cand = proj[:, k].copy()
        for b in basis:
            cand -= b * np.vdot(b, cand)
        norm = np.linalg.norm(cand)
        if norm > 1e-7:
            basis.append(cand / norm)
        if len(basis) == g:
            break
    return np.column_stack(basis)


def _fix_phases(block: np.ndarray) -> np.ndarray:
    out = block.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = np.flatnonzero(np.abs(col) > 1e-8 * max(np.abs(col).max(), 1e-300))
        anchor = col[idx[0]] if idx.size else 1.0
        if abs(anchor) > 0:
            out[:, k] = col * (abs(anchor) / anchor)
    return out


@dataclass(frozen=True)
class Spectrum:
    """Non-zero part of a Hermitian spectrum, sorted non-increasing."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if np.any(np.diff(vals) > 1e-15):
            raise ValueError("spectrum values must be sorted non-increasing")

    def __len__(self) -> int:
        return len(self.values)


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Partial trace of a matrix on a bipartite space.

    Parameters
    ----------
    m
        Square matrix on the tensor product space, with the first factor as
        the major (row-major) index: entry ``((a, b), (a', b'))`` sits at
        ``(a * dB + b, a' * dB + b')``.
    dims
        ``(dA, dB)`` factor dimensions.
    keep
        ``"A"`` traces out the second factor, ``"B"`` the first.

    Returns
    -------
    The ``dA x dA`` (or ``dB x dB``) reduced matrix.  The trace is preserved.
    """
    da, db = dims
    m = np.asarray(m)
    if m.shape != (da * db, da * db):
        raise ValueError(
            f"matrix shape {m.shape} does not match dims ({da}, {db})"
        )
    t = m.reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("abcb->ac", t)
    if keep == "B":
        return np.einsum("abad->bd", t)
    raise ValueError("keep must be 'A' or 'B'")


def pnorm(w: np.ndarray, p: float) -> np.ndarray:
    """``(sum_i w_i^p)^(1/p)`` over the last axis of non-negative ``w``,
    ``max_i w_i`` at ``p = inf``.

    The sum is taken over ``(w_i / w_max)^p`` so that it cannot underflow at
    large ``p``; each row needs a positive entry.
    """
    top = w.max(axis=-1)
    if math.isinf(p):
        return top
    return top * ((w / top[..., None]) ** p).sum(axis=-1) ** (1.0 / p)


def schatten_norm(m: np.ndarray, p: float) -> float:
    """Schatten p-norm ``(sum_i sigma_i^p)^(1/p)`` of a square matrix.

    Uses singular values, so ``m`` need not be Hermitian.  ``p = inf``
    returns the largest singular value.  See :func:`pnorm` for large ``p``.
    """
    if not p >= 1:  # nan included
        raise ValueError(f"Schatten norm requires p >= 1, got {p}")
    m = np.asarray(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("schatten_norm expects a square matrix")
    s = np.linalg.svd(m, compute_uv=False)
    if not s.size or s[0] == 0:
        return 0.0
    if p == 1:
        return float(s.sum())
    return float(pnorm(s, p))


def nonzero_spectrum(m: np.ndarray) -> Spectrum:
    """Eigenvalues of a Hermitian matrix with ``|lam| > DEFAULT_TOL * lam_max``
    kept.

    Raises ``ValueError`` when ``m`` deviates from Hermitian by more than
    ``1e-8`` relative to its norm.
    """
    m = np.asarray(m)
    scale = max(frobenius(m), 1e-300)
    if frobenius(m - dagger(m)) > 1e-8 * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, _ = hermitian_eigh((m + dagger(m)) / 2)
    cutoff = DEFAULT_TOL * max(float(np.abs(w).max()), 0.0) if w.size else 0.0
    kept = w[np.abs(w) > cutoff]
    return Spectrum(values=np.sort(kept)[::-1])


def majorizes(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Whether vector ``a`` majorizes ``b`` (prefix sums of sorted-descending
    ``a`` dominate those of ``b``).

    Vectors are zero-padded to equal length.  Their sums must agree within
    ``tol``; otherwise majorization is not defined and a ``ValueError`` is
    raised.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n = max(a.size, b.size)
    a = np.pad(a, (0, n - a.size))
    b = np.pad(b, (0, n - b.size))
    scale = max(np.abs(a).sum(), np.abs(b).sum(), 1.0)
    if abs(a.sum() - b.sum()) > tol * scale:
        raise ValueError(
            f"sum mismatch: {a.sum():.12g} vs {b.sum():.12g}; majorization undefined"
        )
    pa = np.cumsum(np.sort(a)[::-1])
    pb = np.cumsum(np.sort(b)[::-1])
    return bool(np.all(pa >= pb - tol * scale))
