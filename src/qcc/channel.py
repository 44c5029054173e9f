"""Channel representations (Kraus, Choi, ancilla) and conversions between them.

Conventions, fixed once and used everywhere:

* Kraus operators are stacked into a single ``(n, d_out, d_in)`` array.
* The Choi matrix is ``(1/d_in) * sum_jk E_jk (x) Phi(E_jk)``: a unit-trace
  PSD state on (input copy) (x) (output copy), input copy as the major index.
  Trace-preservation reads ``Tr_B Gamma = I / d_in`` on the input marginal.
* The ancilla isometry ``V = sum_k F_k (x) |e_k>`` maps ``C^{d_in}`` into
  (output) (x) (environment), output as the major row index, so
  ``Tr_env V rho V^+`` recovers the channel.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    MAX_DIM,
    as_complex,
    canonical_gram_eigh,
    canonical_hermitian_eigh,
    dagger,
    frobenius,
    partial_trace,
)

@dataclass(frozen=True)
class KrausChannel:
    """A channel as an ordered stack of Kraus operators.

    ``kraus`` has shape ``(n, d_out, d_in)``.  Construction checks shapes
    only; trace preservation is a separate diagnostic (:func:`validate_cpt`)
    so that slightly invalid operator lists can still be inspected.
    """

    d_in: int
    d_out: int
    kraus: np.ndarray

    def __post_init__(self):
        k = as_complex(self.kraus)
        if k.ndim != 3 or k.shape[0] == 0:
            raise ValueError("kraus must be a non-empty (n, d_out, d_in) stack")
        if k.shape[1:] != (self.d_out, self.d_in):
            raise ValueError(
                f"kraus shape {k.shape[1:]} does not match (d_out, d_in)="
                f"({self.d_out}, {self.d_in})"
            )
        k.setflags(write=False)
        object.__setattr__(self, "kraus", k)

    @classmethod
    def from_operators(cls, operators) -> "KrausChannel":
        stack = np.stack([as_complex(f) for f in operators])
        return cls(d_in=stack.shape[2], d_out=stack.shape[1], kraus=stack)

    @property
    def n_kraus(self) -> int:
        return self.kraus.shape[0]


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi-Jamiolkowski state of a channel, input copy (x) output copy.

    ``factor``, when given, is an ``n x r`` matrix ``t`` with ``gamma = t
    t^+`` (``n = d_in d_out``), from which :func:`choi_eigenpairs` takes
    the spectrum by an SVD instead of an eigensolve of ``gamma``.
    """

    d_in: int
    d_out: int
    gamma: np.ndarray
    factor: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        g = as_complex(self.gamma)
        n = self.d_in * self.d_out
        if g.shape != (n, n):
            raise ValueError(f"gamma must be {n}x{n}, got {g.shape}")
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)
        if self.factor is not None:
            t = as_complex(self.factor)
            if t.ndim != 2 or t.shape[0] != n:
                raise ValueError(f"factor must have {n} rows, got shape {t.shape}")
            t.setflags(write=False)
            object.__setattr__(self, "factor", t)

    def input_marginal(self) -> np.ndarray:
        return partial_trace(self.gamma, (self.d_in, self.d_out), keep="A")


@dataclass(frozen=True)
class AncillaRep:
    """Ancilla (Stinespring-style) representation: an isometry into
    (output) (x) (environment)."""

    d_in: int
    d_out: int
    env_dim: int
    isometry: np.ndarray

    def __post_init__(self):
        v = as_complex(self.isometry)
        if v.shape != (self.d_out * self.env_dim, self.d_in):
            raise ValueError(
                f"isometry must be {(self.d_out * self.env_dim, self.d_in)}, got {v.shape}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "isometry", v)


@dataclass(frozen=True)
class KrausRelation:
    """Partial isometry relating two operator lists, with diagnostics."""

    w: np.ndarray
    rank: int
    residual: float


@dataclass(frozen=True)
class CPTReport:
    tp_ok: bool
    max_residual: float


def apply(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Channel action ``sum_k F_k rho F_k^+``.

    The sum is taken over an ``(n, d_out, d_out)`` stack, so a channel whose
    stack exceeds ``MAX_DIM^4`` entries is refused with a ``ValueError``.
    """
    rho = np.asarray(rho)
    if rho.shape != (ch.d_in, ch.d_in):
        raise ValueError(f"state must be {ch.d_in}x{ch.d_in}, got {rho.shape}")
    if ch.n_kraus * ch.d_out**2 > MAX_DIM**4:
        raise ValueError(
            f"applying the channel takes n_kraus * d_out^2 = {ch.n_kraus * ch.d_out**2} "
            f"entries, which exceeds the supported size ({MAX_DIM**4})"
        )
    return (ch.kraus @ rho @ ch.kraus.conj().transpose(0, 2, 1)).sum(axis=0)


def adjoint_apply(ch: KrausChannel, a: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt adjoint ``sum_k F_k^+ A F_k`` (unital iff ch is TP)."""
    a = np.asarray(a)
    if a.shape != (ch.d_out, ch.d_out):
        raise ValueError(f"operator must be {ch.d_out}x{ch.d_out}, got {a.shape}")
    return (ch.kraus.conj().transpose(0, 2, 1) @ a @ ch.kraus).sum(axis=0)


def adjoint_superoperator(ch: KrausChannel) -> np.ndarray:
    """The adjoint as a ``(d_in^2, d_out^2)`` matrix ``S`` acting on
    row-major vectorized operators: ``vec(Phi^+(A)) = S vec(A)``, with
    ``S[(c, c'), (a, a')] = sum_k conj(F_k[a, c]) F_k[a', c']``."""
    n, d_out, d_in = ch.kraus.shape
    vecs = ch.kraus.reshape(n, d_out * d_in)
    sup = (dagger(vecs) @ vecs).reshape(d_out, d_in, d_out, d_in)  # [a, c, a', c']
    return sup.transpose(1, 3, 0, 2).reshape(d_in * d_in, d_out * d_out)


def validate_cpt(ch: KrausChannel, tol: float = DEFAULT_TOL) -> CPTReport:
    """Diagnostic CPT check.

    Complete positivity is automatic for any Kraus list, so only trace
    preservation is reported: ``tp_ok`` holds iff the spectral norm of
    ``sum F_k^+ F_k - I`` is below ``tol``.
    """
    stack = ch.kraus.reshape(-1, ch.d_in)
    s = dagger(stack) @ stack
    resid = float(np.abs(np.linalg.eigvalsh(s - np.eye(ch.d_in))).max())
    return CPTReport(tp_ok=resid < tol, max_residual=resid)


def require_cpt(ch: KrausChannel) -> None:
    """Raise ``ValueError`` unless :func:`validate_cpt` finds the TP residual
    below ``1e-8``."""
    rep = validate_cpt(ch, 1e-8)
    if not rep.tp_ok:
        raise ValueError(
            f"Kraus list is not trace-preserving (residual {rep.max_residual:.3e})"
        )


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel.from_operators([np.eye(d)])


def kraus_to_choi(ch: KrausChannel) -> ChoiMatrix:
    """Choi matrix of a channel; PSD with the input marginal ``I/d`` when TP.

    A channel with ``d_in d_out > MAX_DIM^2`` is refused with a
    ``ValueError`` before the matrix is formed.
    """
    if ch.d_in * ch.d_out > MAX_DIM**2:
        raise ValueError(
            f"the Choi matrix has dimension d_in * d_out = {ch.d_in * ch.d_out}, which "
            f"exceeds the supported size ({MAX_DIM**2})"
        )
    # Gamma_{(j,m),(k,n)} = (1/d) sum_K F_K[m,j] conj(F_K[n,k]); each Kraus
    # operator contributes the rank-one term vec(F^T) vec(F^T)^+ / d.
    vecs = ch.kraus.transpose(0, 2, 1).reshape(ch.n_kraus, -1)
    gamma = (vecs.T @ vecs.conj()) / ch.d_in
    return ChoiMatrix(d_in=ch.d_in, d_out=ch.d_out, gamma=gamma)


def choi_to_kraus(choi: ChoiMatrix) -> KrausChannel:
    """Minimal Kraus list from the Choi eigendecomposition.

    One operator per eigenpair of :func:`choi_eigenpairs`, so their number
    is the Choi rank at the relative cutoff ``DEFAULT_TOL``.  A Choi matrix
    that carries its ``factor`` (the conjugate's, from
    :func:`qcc.conjugate.conjugate_choi`) is decomposed by an SVD of the
    factor; one without it, by a dense eigensolve.
    """
    lam, vecs = choi_eigenpairs(choi)
    d, dp = choi.d_in, choi.d_out
    return KrausChannel.from_operators(
        [np.sqrt(d * w) * z.reshape(d, dp).T for w, z in zip(lam, vecs.T)]
    )


def choi_eigenpairs(
    choi: ChoiMatrix, check_rank: Callable[[int], None] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues above the relative cutoff ``DEFAULT_TOL``, non-increasing
    with the deterministic degenerate-basis convention of
    :func:`qcc.linalg.canonical_hermitian_eigh`, and their eigenvectors as
    columns.  Only the eigenspaces kept are canonicalized; the null space's
    basis is never built.

    Raises ``ValueError`` when an eigenvalue is negative beyond tolerance
    (not completely positive) or none is above the cutoff (zero).  These
    checks, and ``check_rank`` when given, run on the eigenvalues with the
    Choi rank ``kappa`` before any eigenvector is canonicalized, so a caller
    that refuses an oversized ``kappa`` pays for the eigensolve alone.

    When ``choi`` carries a ``factor``, the pairs come from its SVD through
    :func:`qcc.linalg.canonical_gram_eigh`, which agrees with the dense
    eigensolve to rounding.
    """

    def rank(w: np.ndarray) -> int:
        scale = max(float(np.abs(w).max()), 1e-300)
        if w.min() < -DEFAULT_TOL * scale:
            raise ValueError(f"Choi matrix is not PSD: eigenvalue {w.min():.3e}")
        # w is non-increasing, so the eigenvalues kept are its first kappa.
        kappa = int(np.count_nonzero(w > DEFAULT_TOL * scale))
        if not kappa:
            raise ValueError("Choi matrix is numerically zero")
        if check_rank is not None:
            check_rank(kappa)
        return kappa

    if choi.factor is None:
        w, v = canonical_hermitian_eigh(choi.gamma, rank)
    else:
        w, v = canonical_gram_eigh(choi.factor, rank)
    return w[: v.shape[1]], v


def kraus_rank(ch: KrausChannel) -> int:
    """Rank of the Choi matrix at the relative cutoff ``DEFAULT_TOL``."""
    w = np.linalg.eigvalsh(kraus_to_choi(ch).gamma)
    scale = max(float(np.abs(w).max()), 1e-300)
    return int((w > DEFAULT_TOL * scale).sum())


def is_generalized_extreme(ch: KrausChannel) -> bool:
    """Whether the minimal representation needs at most ``d_out`` operators.

    Channels with ``kraus_rank <= d_out`` extend the extreme points of the
    CPT set (true extreme points and the flat boundary pieces); conjugating
    reduces multiplicativity questions to exactly this class.
    """
    return kraus_rank(ch) <= ch.d_out


def kraus_to_ancilla(ch: KrausChannel) -> AncillaRep:
    """Stack the Kraus operators into the isometry ``V = sum_k F_k (x) |e_k>``."""
    n = ch.n_kraus
    v = ch.kraus.transpose(1, 0, 2).reshape(ch.d_out * n, ch.d_in)
    return AncillaRep(d_in=ch.d_in, d_out=ch.d_out, env_dim=n, isometry=v)


def ancilla_to_kraus(rep: AncillaRep) -> KrausChannel:
    """Invert :func:`kraus_to_ancilla`: read the Kraus blocks back off V."""
    blocks = rep.isometry.reshape(rep.d_out, rep.env_dim, rep.d_in)
    return KrausChannel(d_in=rep.d_in, d_out=rep.d_out, kraus=blocks.transpose(1, 0, 2))


def ancilla_apply(rep: AncillaRep, rho: np.ndarray) -> np.ndarray:
    """Channel action ``Tr_env V rho V^+`` straight from the isometry."""
    big = rep.isometry @ rho @ dagger(rep.isometry)
    return partial_trace(big, (rep.d_out, rep.env_dim), keep="A")


def choi_distance(ch1: KrausChannel, ch2: KrausChannel) -> float:
    """Frobenius distance between Choi matrices (the channel-equality metric)."""
    if (ch1.d_in, ch1.d_out) != (ch2.d_in, ch2.d_out):
        raise ValueError("channels act between different spaces")
    return frobenius(kraus_to_choi(ch1).gamma - kraus_to_choi(ch2).gamma)


def tensor(ch1: KrausChannel, ch2: KrausChannel) -> KrausChannel:
    """Tensor product channel: all pairwise Kraus products, first factor major."""
    ops = [np.kron(a, b) for a in ch1.kraus for b in ch2.kraus]
    return KrausChannel(
        d_in=ch1.d_in * ch2.d_in,
        d_out=ch1.d_out * ch2.d_out,
        kraus=np.stack(ops),
    )
