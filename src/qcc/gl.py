"""Linearization operators for integer powers of channel outputs.

``theta`` assembles the cyclic Kraus-product sum that linearizes
``Tr Phi(rho)^p`` for pure inputs only; ``omega`` pushes the cyclic left
shift through the p-fold adjoint channel and works for every input.  Built
from the same Kraus list, the two are related exactly by
``omega = theta . L_p`` and by ``omega = theta(conjugate)^+``.

Both are accumulated on the pair-interleaved tensor ``(r1 c1 r2 c2 ...
rp cp)``, in which a factor's (row, column) pair is one contiguous index,
and one permutation turns it into the ``d^p x d^p`` matrix.
"""

from __future__ import annotations

import numpy as np

from . import channel as chn
from .channel import KrausChannel
from .conjugate import conjugate_kraus
from .linalg import dagger, frobenius

#: Guard rail for the p-fold operators (d^p x d^p dense matrices): every
#: one ``gl`` forms has ``max(d, 2)^p <= MAX_TOTAL_DIM``.
MAX_TOTAL_DIM = 256


def _check_p(p: int, d: int) -> None:
    """Refuse a ``p`` that is not a positive integer, or one with
    ``max(d, 2)^p > MAX_TOTAL_DIM``.  Counting ``d = 1`` as 2 keeps
    ``p <= 8`` everywhere, so the ``2p`` axes of :func:`_pairs_to_matrix`
    stay within numpy's 64; and ``p >= MAX_TOTAL_DIM.bit_length()`` is
    refused before its power is formed, since ``2^p`` exceeds the cap there.
    """
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError("p must be a positive integer")
    if p >= MAX_TOTAL_DIM.bit_length() or max(d, 2) ** int(p) > MAX_TOTAL_DIM:
        raise ValueError(
            f"p = {p} on dimension {d} exceeds the supported size "
            f"(max(d, 2)^p <= {MAX_TOTAL_DIM})"
        )


def shift_operator(p: int, direction: str, d: int) -> np.ndarray:
    """Cyclic shift permutation on ``p`` factors of dimension ``d``:
    left sends ``|k1 k2 ... kp>`` to ``|k2 ... kp k1>``, and right, its
    inverse, is its transpose."""
    _check_p(p, d)
    if direction not in ("left", "right"):
        raise ValueError("direction must be 'left' or 'right'")
    left = _times_left_shift(np.eye(d**p), p, d)
    return left if direction == "left" else left.T


def theta(ch: KrausChannel, p: int) -> np.ndarray:
    """Cyclic sum ``sum A+_{k1} A_{k2} (x) A+_{k2} A_{k3} (x) ... (x) A+_{kp} A_{k1}``.

    Acts on ``p`` copies of the input space.  With ``P[k, l] = A+_k A_l``,
    the sum is contracted as a cyclic transfer matrix: for each ``k1``, the
    chain ``T[m] = P[k1, m]`` is extended ``p - 2`` times by
    ``T[m] <- sum_l T[l] (x) P[l, m]`` (one matmul each), and the cycle is
    closed with ``sum_l T[l] (x) P[l, k1]``.  That is about ``n p`` small
    matmuls instead of ``n^p`` Kronecker chains; the largest intermediate
    holds ``n d^(2(p-1))`` entries.
    """
    _check_p(p, ch.d_in)
    n, d = ch.n_kraus, ch.d_in
    stack = ch.kraus.transpose(1, 0, 2).reshape(ch.d_out, n * d)
    gram = (dagger(stack) @ stack).reshape(n, d, n, d)  # [k, a, l, c] = P[k, l][a, c]
    # T is kept with its factors' (row, column) index pairs interleaved,
    # (a1 c1 a2 c2 ..., m), so that appending a factor is a plain matmul.
    step = gram.transpose(0, 1, 3, 2).reshape(n, d * d * n)  # [l; b e m] = P[l, m][b, e]
    close = gram.transpose(2, 0, 1, 3).reshape(n, n, d * d)  # [k][l; b e] = P[l, k][b, e]
    acc = np.zeros((d ** (2 * p - 2), d * d), dtype=complex)
    term = np.empty_like(acc)  # every closing product, then the result
    for k in range(n):
        # The empty chain, open at k: its first extension is T[m] = P[k, m],
        # and closing it at once gives the p = 1 term P[k, k].
        t = np.eye(1, n, k)
        for _ in range(p - 1):
            t = (t @ step).reshape(-1, n)
        acc += np.matmul(t, close[k], out=term)
    return _pairs_to_matrix(acc, p, d, out=term)


def _pairs_to_matrix(t: np.ndarray, p: int, d: int, out: np.ndarray) -> np.ndarray:
    """The ``d^p x d^p`` matrix held by ``t`` with its factors' (row, column)
    index pairs interleaved, ``(r1 c1 r2 c2 ... rp cp)``, written into the
    contiguous ``d^(2p)``-entry buffer ``out``."""
    rows_then_cols = list(range(0, 2 * p, 2)) + list(range(1, 2 * p, 2))
    out.reshape((d,) * (2 * p))[...] = t.reshape((d,) * (2 * p)).transpose(rows_then_cols)
    return out.reshape(d**p, d**p)


def omega(ch: KrausChannel, p: int) -> np.ndarray:
    """Adjoint channel applied factorwise to the left shift:
    the linearizer of ``Tr Phi(rho)^p`` valid for arbitrary mixed inputs.

    ``L_p`` is laid out with its factors' index pairs interleaved,
    ``(r1 c1 ... rp cp)``.  One GEMM applies the adjoint superoperator to
    the leading pair and writes the converted pair last, so after ``p``
    GEMMs, ping-ponging between two buffers, the pairs are back in order.
    """
    d_in, d_out = ch.d_in, ch.d_out
    _check_p(p, max(d_in, d_out))
    sup_t = chn.adjoint_superoperator(ch).T
    size = max(d_in, d_out) ** (2 * p)
    a, b = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
    interleaved = [i for f in range(p) for i in (f, p + f)]
    m = a[: d_out ** (2 * p)].reshape((d_out,) * (2 * p))
    m[...] = shift_operator(p, "left", d_out).reshape((d_out,) * (2 * p)).transpose(interleaved)
    for _ in range(p):
        rest = m.size // (d_out * d_out)
        out = b[: rest * d_in * d_in].reshape(rest, d_in * d_in)
        m = np.matmul(m.reshape(d_out * d_out, rest).T, sup_t, out=out)
        a, b = b, a
    return _pairs_to_matrix(m, p, d_in, out=np.empty((d_in**p, d_in**p), dtype=complex))


def power_trace(ch: KrausChannel, rho: np.ndarray, p: int) -> float:
    """``Tr Phi(rho)^p`` computed directly (the quantity being linearized)."""
    sigma = chn.apply(ch, rho)
    return float(np.trace(np.linalg.matrix_power(sigma, p)).real)


def linearized_trace(x: np.ndarray, rho: np.ndarray, p: int) -> complex:
    """``Tr[rho^(x p) X]`` for a linearization operator ``X``."""
    big = rho
    for _ in range(p - 1):
        big = np.kron(big, rho)
    return complex(np.trace(big @ x))


def _times_left_shift(m: np.ndarray, p: int, d: int) -> np.ndarray:
    """``m @ shift_operator(p, "left", d)`` as the digit rotation of ``m``'s
    columns: column ``|k1 k2 ... kp>`` of the product is column
    ``|k2 ... kp k1>`` of ``m``.  Exact, since multiplying by a 0/1
    permutation rounds nothing."""
    digits = m.reshape((m.shape[0],) + (d,) * p)
    return digits.transpose([0, p] + list(range(1, p))).reshape(m.shape)


def verify_gl_identity(ch: KrausChannel, p: int) -> tuple[float, float]:
    """Residuals of the two exact operator identities, with the conjugate
    built from the same Kraus list by the index swap (as the identities
    require): ``||omega - theta(conjugate)^+||_F`` and
    ``||omega - theta L_p||_F``.  ``theta L_p`` is formed by permuting
    theta's columns, not by a matrix product."""
    return _identity_residuals(ch, p, omega(ch, p))


def _identity_residuals(ch: KrausChannel, p: int, om: np.ndarray) -> tuple[float, float]:
    """:func:`verify_gl_identity`'s residuals for ``om = omega(ch, p)``
    already formed, so that a caller that needs omega too forms it once."""
    res1 = frobenius(om - dagger(theta(conjugate_kraus(ch), p)))
    res2 = frobenius(om - _times_left_shift(theta(ch, p), p, ch.d_in))
    return res1, res2
