"""Conjugate (complementary) channels by three routes, plus the partial
isometry relating any two realizations.

The canonical construction swaps Kraus indices: if ``F_1 .. F_n`` (each
``d_out x d_in``) represent the channel, the conjugate has ``d_out`` Kraus
operators ``R_mu`` (each ``n x d_in``) with ``R_mu[j, k] = F_j[mu, k]``.
The conjugate maps the input to the environment, so its output dimension is
the Kraus count of the parent and vice versa.  Any two realizations of the
conjugate differ only by conjugation with a partial isometry of rank equal
to the parent's Kraus rank.

:func:`find_relating_isometry` finds that partial isometry ``W`` (shape
``n1 x n2``, the two output dimensions) with at most two candidates, the
second only when the first fails:

1. index-matched Kraus lists (equal counts) are tried as they stand, by
   least squares on ``A_mu = W B_mu``;
2. the intertwiner system ``ch1(E_ab) T = T ch2(E_ab)`` is solved on the
   side of the pair with fewer unknowns.  With ``m1, m2`` the Kraus counts,
   ``n1 n2 <= m1 m2`` solves it for ``W`` directly.  Otherwise it is solved
   on the Kraus-swapped pair: ``conjugate_kraus(ch1)`` and
   ``conjugate_kraus(ch2)`` are related by a partial isometry ``U``
   (``m1 x m2``), since two Stinespring dilations of one channel agree up to
   a partial isometry on the environment, and ``W`` is then the
   index-matched least-squares solution of ``A_mu = W sum_nu U_mu,nu B_nu``.
   The conjugates of a ``(d, D, n)`` channel have output dimension ``n`` and
   at most ``D`` Kraus operators, so this system never exceeds ``D^2``
   unknowns.

When the intertwiner's null space has more than one dimension (a channel
with symmetry), its vectors are ``W`` times elements of the output algebra's
commutant, and only an invertible one snaps to a relating ``W``; a fixed
generic combination of the null basis is taken.  Candidates are snapped to
a partial isometry at numerical rank and accepted only by their residual on
all matrix-unit inputs.  A pair with a channel of ``d_in d_out > MAX_DIM^2``
or whose smaller system has more than ``MAX_DIM^2`` unknowns is refused with
a ``ValueError`` before any work.
"""

from __future__ import annotations

import numpy as np

from . import channel as chn
from .channel import AncillaRep, ChoiMatrix, KrausChannel, KrausRelation
from .linalg import MAX_DIM, dagger


class NotConjugateError(ValueError):
    """Raised when no partial isometry relates two claimed conjugates."""


def conjugate_kraus(ch: KrausChannel) -> KrausChannel:
    """Conjugate channel from the Kraus index swap.

    The result has ``d_out(ch)`` operators and output dimension
    ``n_kraus(ch)``; it is trace-preserving whenever ``ch`` is.
    """
    swapped = ch.kraus.transpose(1, 0, 2)
    return KrausChannel(d_in=ch.d_in, d_out=ch.n_kraus, kraus=swapped)


def conjugate_ancilla(rep: AncillaRep) -> KrausChannel:
    """Conjugate channel ``rho -> Tr_out V rho V^+`` from an ancilla isometry.

    Slicing ``V`` by output index gives Kraus operators directly; when ``V``
    was built by :func:`qcc.channel.kraus_to_ancilla` this reproduces
    :func:`conjugate_kraus` of the generating list operator by operator.
    """
    blocks = rep.isometry.reshape(rep.d_out, rep.env_dim, rep.d_in)
    return KrausChannel(d_in=rep.d_in, d_out=rep.env_dim, kraus=blocks.copy())


def conjugate_choi(choi: ChoiMatrix) -> ChoiMatrix:
    """Conjugate channel's Choi matrix via purification.

    Purifies the Choi state on (input copy) (x) (output copy) with a third
    factor carrying the eigenvector index, then traces out the output copy.
    The eigenbasis follows the module-wide deterministic ordering, so the
    result is reproducible; it is unique up to a block unitary on degenerate
    eigenspaces, which is exactly the partial-isometry freedom.

    With ``kappa`` the Choi rank at the relative cutoff ``DEFAULT_TOL`` (see
    :func:`qcc.channel.choi_eigenpairs`), the result is ``(d_in kappa)^2``; a
    ``ValueError`` is raised when ``d_in kappa > MAX_DIM^2``, as soon as the
    eigensolve gives ``kappa`` and before any eigenvector is canonicalized.
    """
    d, dp = choi.d_in, choi.d_out

    def check_rank(kappa: int) -> None:
        if d * kappa > MAX_DIM**2:
            raise ValueError(
                f"the conjugate's Choi matrix has dimension d_in * kappa = {d * kappa}, "
                f"which exceeds the supported size ({MAX_DIM**2})"
            )

    lam, vecs = chn.choi_eigenpairs(choi, check_rank)
    kappa = lam.size
    # Purification amplitudes T[a, c, b] = sqrt(lam_c) z_c[(a, b)].
    z = vecs.T.reshape(kappa, d, dp)
    t = np.sqrt(lam)[:, None, None] * z
    t = t.transpose(1, 0, 2).reshape(d * kappa, dp)
    gamma_ac = t @ dagger(t)
    return ChoiMatrix(d_in=d, d_out=kappa, gamma=gamma_ac)


def conjugate_channel(ch: KrausChannel, method: str = "kraus") -> KrausChannel:
    """Conjugate of ``ch`` as a Kraus channel, by the requested route."""
    if method == "kraus":
        return conjugate_kraus(ch)
    if method == "ancilla":
        return conjugate_ancilla(chn.kraus_to_ancilla(ch))
    if method == "choi":
        gamma_ac = conjugate_choi(chn.kraus_to_choi(ch))
        return chn.choi_to_kraus(gamma_ac)
    raise ValueError(f"unknown conjugation method {method!r}")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices as the broadcast product it forms, with
    the same bits and without its overhead."""
    (r1, c1), (r2, c2) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(r1 * r2, c1 * c2)


def _matrix_unit_residual(c1: ChoiMatrix, c2: ChoiMatrix, w: np.ndarray) -> float:
    """max_ab || ch1(E_ab) - W ch2(E_ab) W^+ ||_F, read off the two channels'
    Choi matrices: ``d_in (Gamma_1 - (I (x) W) Gamma_2 (I (x) W)^+)`` holds
    ``ch1(E_ab) - W ch2(E_ab) W^+`` as its block ``(a, b)``."""
    d, n1 = c1.d_in, c1.d_out
    iw = _kron(np.eye(d), w)
    delta = d * (c1.gamma - iw @ c2.gamma @ dagger(iw))
    blocks = delta.reshape(d, n1, d, n1)
    return float(
        max(
            np.linalg.norm(blocks[a, :, b, :])
            for a in range(d)
            for b in range(d)
        )
    )


def _snap_to_partial_isometry(w: np.ndarray) -> tuple[np.ndarray, int]:
    """Round singular values to {0, 1} at numerical rank (above 1e-8 of the
    largest), so that an intertwiner with unequal singular values keeps its
    whole support."""
    u, s, vh = np.linalg.svd(w, full_matrices=False)
    if s.size == 0 or s[0] == 0:
        return np.zeros_like(w), 0
    rank = int(np.count_nonzero(s > 1e-8 * s[0]))
    return u[:, :rank] @ vh[:rank], rank


def _stacked_ls_candidate(ch1: KrausChannel, ch2: KrausChannel) -> np.ndarray | None:
    """Least-squares W for index-matched lists: min sum_mu ||A_mu - W B_mu||."""
    if ch1.n_kraus != ch2.n_kraus:
        return None
    a = ch1.kraus.transpose(1, 0, 2).reshape(ch1.d_out, -1)
    b = ch2.kraus.transpose(1, 0, 2).reshape(ch2.d_out, -1)
    wt, *_ = np.linalg.lstsq(b.T, a.T, rcond=None)
    return wt.T


def _intertwiner_normal_matrix(c1: ChoiMatrix, c2: ChoiMatrix) -> np.ndarray:
    """Normal matrix ``G = sum_ab R_ab^+ R_ab`` of the stacked system
    ``R_ab = A_ab (x) I - I (x) B_ab^T`` on ``vec(T)``, with ``A_ab = ch1(E_ab)``
    and ``B_ab = ch2(E_ab)`` read off the Choi matrices ``c1`` and ``c2``.

    It is built straight from the Choi blocks as ``P (x) I + I (x) Q - C - C^+``
    with ``P = sum A^+ A``, ``Q = sum conj(B) B^T`` and ``C = sum A^+ (x) B^T``.
    """
    d, n1, n2 = c1.d_in, c1.d_out, c2.d_out
    a = d * c1.gamma.reshape(d, n1, d, n1).transpose(0, 2, 1, 3)
    b = d * c2.gamma.reshape(d, n2, d, n2).transpose(0, 2, 1, 3)
    a_rows = a.reshape(d * d * n1, n1)  # the A_ab stacked on top of each other
    b_cols = b.transpose(2, 0, 1, 3).reshape(n2, d * d * n2)  # the B_ab side by side
    p = dagger(a_rows) @ a_rows
    q = (b_cols @ dagger(b_cols)).conj()
    c = a.conj().reshape(d * d, n1 * n1).T @ b.reshape(d * d, n2 * n2)
    c = c.reshape(n1, n1, n2, n2).transpose(1, 3, 0, 2).reshape(n1 * n2, n1 * n2)
    return _kron(p, np.eye(n2)) + _kron(np.eye(n1), q) - c - dagger(c)


def _intertwiner_candidate(c1: ChoiMatrix, c2: ChoiMatrix) -> np.ndarray:
    """Least-squares solution ``T`` (unit norm) of ``A_ab T = T B_ab`` over
    all matrix units (see :func:`_intertwiner_normal_matrix`).  ``T`` is the
    eigenvector of the normal matrix's lowest eigenvalue, or, when more than
    one eigenvalue is at most ``1e-10`` of the largest, a fixed generic
    combination of their eigenvectors.
    """
    n1, n2 = c1.d_out, c2.d_out
    lam, v = np.linalg.eigh(_intertwiner_normal_matrix(c1, c2))
    null = int(np.count_nonzero(lam <= 1e-10 * lam[-1]))
    if null <= 1:
        return v[:, 0].reshape(n1, n2)
    # The null basis LAPACK returns is arbitrary within the null space, and a
    # single vector of it is often singular on the outputs' support; unit
    # weights with golden-ratio phases give a combination that is not.
    mix = np.exp(2j * np.pi * 0.6180339887498949 * np.arange(null))
    return (v[:, :null] @ mix).reshape(n1, n2)


def _lifted_candidate(ch1: KrausChannel, ch2: KrausChannel) -> np.ndarray:
    """``W`` lifted from the intertwiner ``U`` of the Kraus-swapped pair.

    ``U`` relates ``conjugate_kraus(ch1)`` to ``conjugate_kraus(ch2)``;
    remixing ch2's Kraus list as ``B'_mu = sum_nu U_mu,nu B_nu`` matches it
    index by index to ch1's, and ``W`` is the least-squares solution of
    ``A_mu = W B'_mu``.
    """
    u, _ = _snap_to_partial_isometry(
        _intertwiner_candidate(
            chn.kraus_to_choi(conjugate_kraus(ch1)), chn.kraus_to_choi(conjugate_kraus(ch2))
        )
    )
    remixed = np.einsum("mn,nab->mab", u, ch2.kraus)
    return _stacked_ls_candidate(
        ch1, KrausChannel(d_in=ch2.d_in, d_out=ch2.d_out, kraus=remixed)
    )


def find_relating_isometry(
    ch1: KrausChannel, ch2: KrausChannel, tol: float = 1e-8
) -> KrausRelation:
    """Partial isometry ``W`` with ``ch1(rho) = W ch2(rho) W^+``.

    Both channels must be conjugates of a common parent (the caller's
    claim); the result is verified on all matrix-unit inputs and a
    :class:`NotConjugateError` is raised if no candidate reaches ``tol``.

    Candidates are tried in order, each only when the one before it fails:
    a stacked least-squares solve when the Kraus lists are index-matched
    (the canonical conjugates are), then the intertwiner system on matrix
    units, solved for ``W`` directly when ``d_out1 d_out2 <= n_kraus1
    n_kraus2`` and otherwise on the Kraus-swapped pair and lifted by least
    squares (see the module docstring).  A degenerate intertwiner null
    space gives a fixed generic combination of its basis.  Every candidate
    is projected onto the nearest partial isometry at numerical rank.

    A ``ValueError`` is raised, before anything is computed, when either
    channel has ``d_in d_out > MAX_DIM^2`` or the smaller intertwiner system
    has more than ``MAX_DIM^2`` unknowns.
    """
    if ch1.d_in != ch2.d_in:
        raise ValueError("channels have different input dimensions")
    direct = ch1.d_out * ch2.d_out
    swapped = ch1.n_kraus * ch2.n_kraus
    # The residual check forms each channel's (d_in d_out)^2 Choi matrix.
    choi = ch1.d_in * max(ch1.d_out, ch2.d_out)
    if max(choi, min(direct, swapped)) > MAX_DIM**2:
        raise ValueError(
            f"relating the channels takes {min(direct, swapped)} unknowns and Choi "
            f"matrices of dimension {choi}, which exceeds the supported size ({MAX_DIM**2})"
        )
    # Both channels' Choi matrices serve the direct intertwiner and every
    # residual check, so they are formed once.
    c1, c2 = chn.kraus_to_choi(ch1), chn.kraus_to_choi(ch2)

    def candidates():
        yield _stacked_ls_candidate(ch1, ch2)
        yield _intertwiner_candidate(c1, c2) if direct <= swapped else _lifted_candidate(ch1, ch2)

    best: float | None = None
    for raw in candidates():
        if raw is None:
            continue
        w, rank = _snap_to_partial_isometry(raw)
        if rank == 0:
            continue
        res = _matrix_unit_residual(c1, c2, w)
        if res < tol:
            return KrausRelation(w=w, rank=rank, residual=res)
        best = res if best is None else min(best, res)
    raise NotConjugateError(
        "no partial isometry relates the two channels"
        + (f" (best residual {best:.3e})" if best is not None else "")
    )
