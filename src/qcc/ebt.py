"""Entanglement-breaking, classical-quantum, and Hadamard channels, and the
conjugacy between the last two.

An EBT channel is held in rank-one Kraus form ``F_k = |x_k><w_k|`` with the
completeness condition ``sum_k <x_k|x_k> |w_k><w_k| = I``.  Its conjugate is
the Hadamard-form map ``rho -> X * W_rho`` where ``X`` is the Gram matrix of
the output vectors, ``W_rho`` the matrix of ``<w_j|rho|w_k>``, and ``*`` the
entrywise product.  Inner products follow the trace formula
``Tr[F_j rho F_k^+]``, i.e. ``X[j, k] = <x_k|x_j>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .channel import KrausChannel
from .conjugate import conjugate_kraus
from .linalg import DEFAULT_TOL, MAX_DIM, as_complex, dagger, frobenius, hermitian_eigh
from .random import haar_isometry, haar_state, haar_unitary


@dataclass(frozen=True)
class EBTChannel:
    """Entanglement-breaking channel in rank-one Kraus form."""

    x: tuple[np.ndarray, ...]
    w: tuple[np.ndarray, ...]
    channel: KrausChannel = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        xs = tuple(as_complex(v).ravel() for v in self.x)
        ws = tuple(as_complex(v).ravel() for v in self.w)
        if len(xs) != len(ws) or not xs:
            raise ValueError("need equally many non-empty x and w vectors")
        d_in = ws[0].size
        d_out = xs[0].size
        if any(v.size != d_in for v in ws) or any(v.size != d_out for v in xs):
            raise ValueError("inconsistent vector lengths")
        comp = sum(np.vdot(xk, xk).real * np.outer(wk, wk.conj()) for xk, wk in zip(xs, ws))
        resid = frobenius(comp - np.eye(d_in))
        if resid > DEFAULT_TOL * max(1.0, frobenius(comp)):
            raise ValueError(f"POVM completeness violated (residual {resid:.3e})")
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "w", ws)
        kraus = np.stack([np.outer(xk, wk.conj()) for xk, wk in zip(xs, ws)])
        object.__setattr__(
            self, "channel", KrausChannel(d_in=d_in, d_out=d_out, kraus=kraus)
        )

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class HadamardChannel:
    """Channel of the form ``rho -> X * W_rho``: a PSD Gram matrix plus the
    input frame defining the non-standard representative ``W_rho``."""

    x_gram: np.ndarray
    frame: tuple[np.ndarray, ...]

    def __post_init__(self):
        g = as_complex(self.x_gram)
        fr = tuple(as_complex(v).ravel() for v in self.frame)
        if g.shape != (len(fr), len(fr)):
            raise ValueError("Gram matrix size must match the frame length")
        w = np.linalg.eigvalsh((g + dagger(g)) / 2)
        if w.size and w.min() < -1e-10 * max(w.max(), 1.0):
            raise ValueError("Gram matrix is not PSD")
        g.setflags(write=False)
        object.__setattr__(self, "x_gram", g)
        object.__setattr__(self, "frame", fr)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        fr = np.stack(self.frame)
        w_rho = fr.conj() @ np.asarray(rho) @ fr.T
        return self.x_gram * w_rho


def ebt_channel(x, w) -> EBTChannel:
    """Build an EBT channel from output vectors ``x_k`` and input vectors
    ``w_k`` (completeness is validated)."""
    return EBTChannel(x=tuple(x), w=tuple(w))


def cq_channel(x, w_basis) -> EBTChannel:
    """Classical-quantum channel: an EBT map whose ``w_k`` are orthonormal.
    With unit ``x_k`` this is an extreme point of the CPT maps."""
    ws = [as_complex(v).ravel() for v in w_basis]
    overlap = np.array([[np.vdot(a, b) for b in ws] for a in ws])
    if frobenius(overlap - np.eye(len(ws))) > 1e-10:
        raise ValueError("CQ channel needs an orthonormal input basis")
    return ebt_channel(x, ws)


def random_ebt(d_in: int, d_out: int, n: int, rng) -> EBTChannel:
    """Random EBT channel: frame directions from the rows of a Haar isometry
    (which makes the POVM complete), Haar-random unit output vectors."""
    if n < d_in:
        raise ValueError("need at least d_in rank-one elements for completeness")
    t = haar_isometry(n, d_in, rng)
    w = [row / np.linalg.norm(row) for row in t]
    x = [np.linalg.norm(row) * haar_state(d_out, rng) for row in t]
    return ebt_channel(x, w)


def random_cq(d: int, d_out: int, rng) -> EBTChannel:
    u = haar_unitary(d, rng)
    return cq_channel([haar_state(d_out, rng) for _ in range(d)], list(u.T))


def conjugate_ebt(ch: EBTChannel) -> tuple[HadamardChannel, KrausChannel]:
    """Conjugate of an EBT channel: the Hadamard description (Gram matrix of
    the ``x_k`` plus the ``w`` frame) and the same map in Kraus form.

    For an extreme CQ channel the frame is orthonormal and the action is
    plain entrywise multiplication by the Gram matrix in that basis.
    """
    xs = np.stack(ch.x)
    gram = xs @ dagger(xs)  # X[j, k] = <x_k | x_j>, matching Tr[F_j rho F_k^+]
    return HadamardChannel(x_gram=gram, frame=ch.w), conjugate_kraus(ch.channel)


def pseudodiag_kraus(ch: EBTChannel) -> KrausChannel:
    """Kraus operators ``R_m = sum_j C[j, m] |e_j><w_j|`` for the conjugate,
    with ``C C^+`` equal to the Gram matrix of the ``x`` vectors.

    The factor comes from the eigendecomposition truncated at the relative
    cutoff ``DEFAULT_TOL`` (a strict Cholesky would fail on rank-deficient
    Gram matrices), so the number of operators equals the Gram rank.
    """
    had, _ = conjugate_ebt(ch)
    return _hadamard_kraus(had.x_gram, np.stack(ch.w))


def _hadamard_kraus(gram: np.ndarray, fr: np.ndarray) -> KrausChannel:
    """``R_m = sum_j C[j, m] |e_j><w_j|`` for the frame rows ``fr`` and the
    factor ``C C^+ = gram``, truncated at the relative cutoff ``DEFAULT_TOL``."""
    w, v = hermitian_eigh((gram + dagger(gram)) / 2)
    keep = w > DEFAULT_TOL * max(float(w.max()), 1e-300)
    c = v[:, keep] * np.sqrt(w[keep])
    ops = np.einsum("jm,jk->mjk", c, fr.conj(), optimize=True)
    return KrausChannel(d_in=fr.shape[1], d_out=fr.shape[0], kraus=ops)


def hadamard_form_channel(gram: np.ndarray, frame) -> KrausChannel:
    """Kraus form of ``rho -> X * W_rho`` for a given Gram matrix and frame,
    one operator per Gram eigenvalue above ``DEFAULT_TOL`` of the largest.

    Requires the trace-preserving condition
    ``sum_j X_jj |w_j><w_j| = I`` to hold for the supplied data.
    """
    had = HadamardChannel(x_gram=gram, frame=tuple(frame))
    fr = np.stack(had.frame)
    tp = np.einsum("j,ja,jb->ab", np.diagonal(had.x_gram).real, fr, fr.conj())
    if frobenius(tp - np.eye(fr.shape[1])) > 1e-8:
        raise ValueError("Gram diagonal and frame do not satisfy trace preservation")
    return _hadamard_kraus(had.x_gram, fr)


def random_hadamard_channel(d_in: int, n: int, rng) -> KrausChannel:
    """Random Hadamard-form channel with ``n`` output levels: frame from the
    rows of a Haar isometry, coefficient matrix with matching row norms."""
    t = haar_isometry(n, d_in, rng)
    norms = np.linalg.norm(t, axis=1)
    frame = [row / nr for row, nr in zip(t, norms)]
    c = np.diag(norms) @ haar_unitary(n, rng)
    gram = c @ dagger(c)
    return hadamard_form_channel(gram, frame)


@dataclass(frozen=True)
class HadamardDetection:
    verdict: Literal["yes", "no", "ambiguous"]
    frame: tuple[np.ndarray, ...] | None
    gram: np.ndarray | None


def is_hadamard_form(ch: KrausChannel) -> HadamardDetection:
    """Detect whether all Kraus operators share the pattern
    ``sum_j c_jm |e_j><w_j|`` for a common frame ``{w_j}``.

    Row ``j`` of every Kraus operator must be proportional to a single
    vector ``w_j^+``; the test is the relative size of the second singular
    value of the stacked rows.  The verdict is ``yes`` when every ratio is
    at most ``1e-8``, ``no`` when one exceeds ``1e-4``, and ``ambiguous``
    in between rather than forced either way.

    The Gram matrix is ``d_out x d_out``, so ``d_out > MAX_DIM^2`` is
    refused with a ``ValueError`` before any work.
    """
    if ch.d_out > MAX_DIM**2:
        raise ValueError(
            f"d_out = {ch.d_out} exceeds the supported size for Hadamard-form "
            f"detection (d_out <= {MAX_DIM**2})"
        )
    n_rows = ch.d_out
    frame = []
    coeffs = np.zeros((n_rows, ch.n_kraus), dtype=complex)
    worst = 0.0
    for j in range(n_rows):
        rows = ch.kraus[:, j, :]
        u, s, vh = np.linalg.svd(rows)
        if s[0] < 1e-14:
            frame.append(np.eye(ch.d_in, dtype=complex)[:, 0])
            continue
        ratio = float(s[1] / s[0]) if s.size > 1 else 0.0
        worst = max(worst, ratio)
        if ratio > 1e-4:
            return HadamardDetection(verdict="no", frame=None, gram=None)
        w_j = vh[0].conj()
        anchor = w_j[np.argmax(np.abs(w_j))]
        w_j = w_j * (abs(anchor) / anchor)
        frame.append(w_j)
        coeffs[j] = rows @ w_j
    if worst > 1e-8:
        return HadamardDetection(verdict="ambiguous", frame=None, gram=None)
    gram = coeffs @ dagger(coeffs)
    return HadamardDetection(verdict="yes", frame=tuple(frame), gram=gram)
