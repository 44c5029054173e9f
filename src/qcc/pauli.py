"""Generalized Pauli (Weyl) bases, Pauli-diagonal channels, the image of the
completely noisy channel's conjugate, and the structural bounds built on it.

Index convention: ``T_m = X^j Z^k`` with ``m = d*j + k`` (X power major).
``X`` is the cyclic shift ``X|e_k> = |e_{k+1}>`` and ``Z`` the phase operator
``Z|e_k> = w^k |e_k>`` with ``w = exp(2 pi i / d)``.  Product bases for
``d = d1*d2`` index tensor factors the same way, ``m = m1 * d2^2 + m2``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .channel import KrausChannel
from .linalg import (
    DEFAULT_TOL,
    MAX_DIM,
    dagger,
    frobenius,
    hermitian_eigh,
    partial_trace,
    pnorm,
    schatten_norm,
)

if TYPE_CHECKING:
    from .purity import OptimizerOptions


def _check_dim(d: int) -> None:
    if d > MAX_DIM:
        raise ValueError(f"dimension {d} exceeds the supported size (d <= {MAX_DIM})")


@dataclass(frozen=True)
class PauliBasis:
    """An orthogonal unitary operator basis with its group structure.

    ``ops`` stacks the ``d^2`` operators; ``prod_index``/``prod_phase``
    tabulate ``T_m T_n = phase * T_k`` and ``adj_index``/``adj_phase``
    tabulate ``T_m^+ = phase * T_k``, so all group arithmetic is integer
    index arithmetic plus exact phases (no matrix products needed).
    """

    d: int
    ops: np.ndarray
    prod_index: np.ndarray
    prod_phase: np.ndarray
    adj_index: np.ndarray
    adj_phase: np.ndarray
    #: Dimensions of the single Pauli bases this one is the product of.
    factor_dims: tuple[int, ...]

    def __post_init__(self):
        for name in ("ops", "prod_index", "prod_phase", "adj_index", "adj_phase"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def kind(self) -> str:
        """``"pauli"`` for a single basis, ``"pauli_product"`` for a product."""
        return "pauli" if len(self.factor_dims) == 1 else "pauli_product"

    @property
    def size(self) -> int:
        return self.d * self.d

    def index_of(self, j: int, k: int) -> int:
        """Linear index of ``X^j Z^k`` (single Pauli bases only)."""
        if self.kind != "pauli":
            raise ValueError("(j, k) indexing applies to single Pauli bases")
        return (j % self.d) * self.d + (k % self.d)

    def jk_of(self, m: int) -> tuple[int, int]:
        if self.kind != "pauli":
            raise ValueError("(j, k) indexing applies to single Pauli bases")
        return divmod(m, self.d)

    def triple(self, m: int, n: int) -> tuple[int, complex]:
        """Index ``k`` and phase with ``T_m^+ T_n = phase * T_k``."""
        am = int(self.adj_index[m])
        k = int(self.prod_index[am, n])
        return k, complex(self.adj_phase[m] * self.prod_phase[am, n])

    @functools.cached_property
    def _noise_unitary(self) -> np.ndarray:
        """The unitary ``U`` of :func:`find_U_T`, read-only: built, and
        checked on two canonical states, once per basis."""
        d = self.d
        u = self.ops.reshape(d * d, d * d) / np.sqrt(d)
        unit = frobenius(u @ dagger(u) - np.eye(d * d))
        if unit > 1e-10:
            raise ValueError(f"construction failed: U is not unitary ({unit:.3e})")
        plus = np.full((d, d), 1.0 / d, dtype=complex)
        for rho in (np.eye(d) / d, plus):
            model = u @ np.kron(np.eye(d), rho) @ dagger(u) / d
            resid = frobenius(noisy_conjugate_image(self, rho) - model)
            if resid > DEFAULT_TOL:
                raise ValueError(
                    f"noise-factorization residual {resid:.3e} exceeds {DEFAULT_TOL:.1e}"
                )
        u.setflags(write=False)
        return u

    def conjugation_phases(self) -> np.ndarray:
        """Matrix ``C`` with ``T_n T_m T_n^+ = C[n, m] T_m``.

        Exists because these bases are abelian modulo phases; raises if the
        group structure fails to close that way.
        """
        s = self.size
        nn, mm = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
        a = self.prod_index[nn, mm]
        p1 = self.prod_phase[nn, mm]
        an = self.adj_index[nn]
        back = self.prod_index[a, an]
        if not np.array_equal(back, mm):
            raise ValueError("basis is not abelian modulo phases")
        p2 = self.prod_phase[a, an]
        return p1 * self.adj_phase[nn] * p2


def build_basis(d: int) -> PauliBasis:
    """The generalized Pauli basis ``{X^j Z^k}`` for dimension ``d >= 2``."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    _check_dim(d)
    omega = np.exp(2j * np.pi / d)
    x = np.zeros((d, d), dtype=complex)
    for k in range(d):
        x[(k + 1) % d, k] = 1.0
    z = np.diag(omega ** np.arange(d))

    xp = [np.eye(d, dtype=complex)]
    zp = [np.eye(d, dtype=complex)]
    for _ in range(d - 1):
        xp.append(x @ xp[-1])
        zp.append(z @ zp[-1])
    ops = np.stack([xp[j] @ zp[k] for j in range(d) for k in range(d)])

    j = np.arange(d)
    jj, kk = np.meshgrid(j, j, indexing="ij")
    jflat, kflat = jj.ravel(), kk.ravel()
    # (X^j1 Z^k1)(X^j2 Z^k2) = w^(k1 j2) X^(j1+j2) Z^(k1+k2)
    j1 = jflat[:, None]
    k1 = kflat[:, None]
    j2 = jflat[None, :]
    k2 = kflat[None, :]
    prod_index = ((j1 + j2) % d) * d + (k1 + k2) % d
    prod_phase = omega ** ((k1 * j2) % d)
    # (X^j Z^k)^+ = w^(jk) X^(-j) Z^(-k)
    adj_index = ((-jflat) % d) * d + (-kflat) % d
    adj_phase = omega ** ((jflat * kflat) % d)
    return PauliBasis(
        d=d,
        ops=ops,
        prod_index=prod_index,
        prod_phase=prod_phase.astype(complex),
        adj_index=adj_index,
        adj_phase=adj_phase.astype(complex),
        factor_dims=(d,),
    )


def product_basis(b1: PauliBasis, b2: PauliBasis) -> PauliBasis:
    """Tensor-product basis ``{T_m (x) T_n}`` on dimension ``d1 * d2``."""
    _check_dim(b1.d * b2.d)
    s2 = b2.size
    ops = np.stack([np.kron(a, b) for a in b1.ops for b in b2.ops])
    ones1 = np.ones_like(b1.prod_index)
    ones2 = np.ones_like(b2.prod_index)
    prod_index = np.kron(b1.prod_index * s2, ones2) + np.kron(ones1, b2.prod_index)
    prod_phase = np.kron(b1.prod_phase, b2.prod_phase)
    adj_index = (b1.adj_index[:, None] * s2 + b2.adj_index[None, :]).ravel()
    adj_phase = (b1.adj_phase[:, None] * b2.adj_phase[None, :]).ravel()
    return PauliBasis(
        d=b1.d * b2.d,
        ops=ops,
        prod_index=prod_index,
        prod_phase=prod_phase,
        adj_index=adj_index,
        adj_phase=adj_phase,
        factor_dims=b1.factor_dims + b2.factor_dims,
    )


@dataclass(frozen=True)
class PauliDiagonalChannel:
    """Random-unitary channel diagonal in a Pauli basis: weights ``a_m`` on
    conjugations by ``T_m``.  Weyl covariant by construction."""

    basis: PauliBasis
    weights: np.ndarray
    channel: KrausChannel = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.basis.size,):
            raise ValueError(f"need {self.basis.size} weights, got {w.shape}")
        if w.min() < -1e-12:
            raise ValueError(f"negative weight {w.min():.3e}")
        if abs(w.sum() - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {w.sum():.12g}, not 1")
        w = np.clip(w, 0.0, None)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        live = w > 0.0
        kraus = np.sqrt(w[live])[:, None, None] * self.basis.ops[live]
        object.__setattr__(
            self,
            "channel",
            KrausChannel(d_in=self.basis.d, d_out=self.basis.d, kraus=kraus),
        )

    @property
    def d(self) -> int:
        return self.basis.d


def pauli_channel(basis: PauliBasis, weights) -> PauliDiagonalChannel:
    """Channel ``rho -> sum_m a_m T_m rho T_m^+`` from a probability vector."""
    return PauliDiagonalChannel(basis=basis, weights=np.asarray(weights, dtype=float))


def identity_weights(d: int) -> np.ndarray:
    w = np.zeros(d * d)
    w[0] = 1.0
    return w


def noisy_weights(d: int) -> np.ndarray:
    return np.full(d * d, 1.0 / (d * d))


def depolarizing_weights(d: int, b: float) -> np.ndarray:
    """Weights realizing ``rho -> b rho + (1-b) I/d``."""
    w = np.full(d * d, (1.0 - b) / (d * d))
    w[0] += b
    if w.min() < -1e-12:
        raise ValueError(f"depolarizing parameter b={b} is not completely positive")
    return np.clip(w, 0.0, None)


def lambda_spectrum(ch: PauliDiagonalChannel) -> np.ndarray:
    """Eigenvalues ``lam_m`` of the channel on its own basis:
    ``Phi(T_m) = lam_m T_m``.

    For the generalized Pauli basis these satisfy the conjugate symmetry
    ``lam_{jk} = conj(lam_{d-j,d-k})``.
    """
    c = ch.basis.conjugation_phases()
    return ch.weights @ c


def qubit_nu_p_closed_form(weights, p: float) -> float:
    """Exact maximal output p-norm of a unital qubit Pauli channel.

    With ``lam*`` the largest-magnitude non-identity eigenvalue of the
    channel, the optimal output spectrum is ``((1+|lam*|)/2, (1-|lam*|)/2)``.
    """
    ch = pauli_channel(build_basis(2), weights)
    lam = np.abs(lambda_spectrum(ch)[1:]).max()
    return float(pnorm(np.array([1 + lam, 1 - lam]) / 2, p))


def noisy_conjugate_image(basis: PauliBasis, rho: np.ndarray) -> np.ndarray:
    """``gamma`` with ``gamma_mn = Tr[T_m rho T_n^+] / d^2``.

    The first row carries the Bloch coefficients of ``rho`` (scaled by
    ``1/d^2``), so the image determines the state.
    """
    rho = np.asarray(rho, dtype=complex)
    d = basis.d
    if rho.shape != (d, d):
        raise ValueError(f"state must be {d}x{d}")
    trho = np.einsum("mab,bc->mac", basis.ops, rho, optimize=True)
    return np.einsum("mac,nac->mn", trho, basis.ops.conj(), optimize=True) / (d * d)


def nc_image_explicit(basis: PauliBasis, psi: np.ndarray) -> np.ndarray:
    """Closed-form noisy-conjugate image of a pure state, avoiding any trace
    computations: a sum of shifted reversed-state blocks tensored with
    phase-vector projectors, conjugated by the diagonal phase ``w^{-jk}``
    that converts the XZ operator ordering to ZX.
    """
    if basis.kind != "pauli":
        raise ValueError("explicit form applies to the generalized Pauli basis")
    d = basis.d
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (d,):
        raise ValueError(f"state must be a vector of length {d}, got shape {psi.shape}")
    psi = psi / np.linalg.norm(psi)
    omega = np.exp(2j * np.pi / d)
    total = np.zeros((d * d, d * d), dtype=complex)
    idx = np.arange(d)
    for ell in range(d):
        u = psi[(ell - idx) % d]
        zvec = omega ** ((ell * idx) % d)
        total += np.kron(np.outer(u, u.conj()), np.outer(zvec, zvec.conj()))
    jj, kk = np.divmod(np.arange(d * d), d)
    dphase = omega ** ((-jj * kk) % d)
    return (dphase[:, None] * total * dphase.conj()[None, :]) / (d * d)


@dataclass(frozen=True)
class NcImageChecks:
    """Residuals of the structural properties of a noisy-conjugate image of a
    pure state: (projector, diagonal, modulus, doubly_stochastic).  The last
    two apply to group bases only and are ``nan`` otherwise."""

    projector: float
    diagonal: float
    modulus: float
    doubly_stochastic: float


def nc_image_checks(basis: PauliBasis, gamma: np.ndarray) -> NcImageChecks:
    d = basis.d
    p = d * gamma
    proj = max(frobenius(p @ p - p), abs(float(np.trace(p).real) - d))
    diag = float(np.abs(np.diagonal(gamma) - 1.0 / (d * d)).max())
    mod = max(0.0, float(np.abs(gamma).max() - 1.0 / (d * d)))
    ds = d**3 * (gamma * gamma.conj()).real
    ds_resid = max(
        float(np.abs(ds.sum(axis=0) - 1.0).max()),
        float(np.abs(ds.sum(axis=1) - 1.0).max()),
    )
    return NcImageChecks(
        projector=proj, diagonal=diag, modulus=mod, doubly_stochastic=ds_resid
    )


def find_U_T(basis: PauliBasis) -> np.ndarray:
    """Unitary ``U`` with ``N^C(rho) = U (I (x) rho)/d U^+`` for every state.

    Constructed, not fitted: row ``m`` is the row-major vectorization of
    ``T_m`` scaled by ``1/sqrt(d)`` (the basis change from matrix units to
    the ``T`` basis).  Verification is mandatory: the factorization is
    checked on two canonical states when ``U`` is first built for a basis,
    which keeps it; a residual above ``DEFAULT_TOL`` raises.  ``U`` is
    read-only.  ``verify``'s pauli suite checks the factorization on random
    states and reports its residual.
    """
    return basis._noise_unitary


def recover_state(basis: PauliBasis, gamma: np.ndarray) -> np.ndarray:
    """Undo :func:`find_U_T` on a noisy-conjugate image: rotate by ``U^+``
    and trace out the noise factor, returning the source state exactly."""
    u = find_U_T(basis)
    inner = dagger(u) @ np.asarray(gamma, dtype=complex) @ u
    return partial_trace(inner, (basis.d, basis.d), keep="B")


def bloch_coefficients(basis: PauliBasis, rho: np.ndarray) -> np.ndarray:
    """Coefficients ``v_m = Tr[T_m^+ rho]`` of ``rho = (1/d) sum_m v_m T_m``."""
    rho = np.asarray(rho)
    if rho.shape != (basis.d, basis.d):
        raise ValueError(f"state must be {basis.d}x{basis.d}")
    return np.einsum("mab,ab->m", basis.ops.conj(), rho, optimize=True)


def _generated(basis: PauliBasis, gens) -> tuple[int, ...]:
    """Sorted indices of the subgroup generated by the basis elements
    ``gens``, phases dropped; the identity ``0`` comes first."""
    members = {0}
    frontier = [0]
    while frontier:
        new = {int(basis.prod_index[a, g]) for a in frontier for g in gens} - members
        members |= new
        frontier = list(new)
    return tuple(sorted(members))


def _cosets(basis: PauliBasis, sub) -> tuple[tuple[int, ...], ...]:
    """The cosets ``T_rep sub`` partitioning the index set, each sorted, in
    order of their least index."""
    assigned: set[int] = set()
    cosets = []
    for rep in range(basis.size):
        if rep in assigned:
            continue
        coset = tuple(sorted(int(basis.prod_index[rep, s]) for s in sub))
        cosets.append(coset)
        assigned.update(coset)
    return tuple(cosets)


@dataclass(frozen=True)
class SubgroupReport:
    generator_indices: tuple[int, ...]
    subgroup_indices: tuple[int, ...]
    order: int
    cosets: tuple[tuple[int, ...], ...]


def subgroup_of_support(
    basis: PauliBasis, rho: np.ndarray, tol: float = DEFAULT_TOL
) -> SubgroupReport:
    """Subgroup generated by the basis elements carrying non-zero Bloch
    coefficients of ``rho``, with its coset partition of the index set."""
    v = bloch_coefficients(basis, rho)
    gens = {int(m) for m in np.flatnonzero(np.abs(v) > tol)} | {0}
    sub = _generated(basis, gens)
    return SubgroupReport(
        generator_indices=tuple(sorted(gens)),
        subgroup_indices=sub,
        order=len(sub),
        cosets=_cosets(basis, sub),
    )


@dataclass(frozen=True)
class DecompositionReport:
    decomposable: bool
    blocks: tuple[tuple[int, ...], ...]
    permutation: tuple[int, ...]


def is_decomposable(m: np.ndarray, tol: float = DEFAULT_TOL) -> DecompositionReport:
    """Connected components of the entry-support graph of a square matrix.

    Edges join indices ``i != j`` with ``|M_ij| > tol * max|M|``; the matrix
    is decomposable iff the graph splits into more than one component.
    Blocks are sorted by least index and the canonical permutation is their
    concatenation.
    """
    m = np.asarray(m)
    n = m.shape[0]
    thresh = tol * float(np.abs(m).max())
    adj = (np.abs(m) > thresh) | (np.abs(m.T) > thresh)
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in np.flatnonzero(adj[i]):
                if not seen[j]:
                    seen[j] = True
                    stack.append(int(j))
        blocks.append(tuple(sorted(comp)))
    blocks.sort(key=lambda b: b[0])
    perm = tuple(i for b in blocks for i in b)
    return DecompositionReport(
        decomposable=len(blocks) > 1, blocks=tuple(blocks), permutation=perm
    )


def axis_states(basis: PauliBasis, m: int) -> list[np.ndarray]:
    """The ``d`` orthonormal eigenvectors of the cyclic generator ``T_m``.

    Realized through the projector formula ``P_n = (1/d) sum_i (w^n W)^i``
    after rephasing ``W`` so that ``W^d = I`` (for even ``d`` the raw
    generator can satisfy ``W^d = -I``).  Requires ``T_m = X^j Z^k`` with
    ``j`` or ``k`` coprime to ``d`` so every eigenspace is one-dimensional.
    """
    if basis.kind != "pauli":
        raise ValueError("axis states are defined for the generalized Pauli basis")
    d = basis.d
    j, k = basis.jk_of(m)
    if math.gcd(j, d) != 1 and math.gcd(k, d) != 1:
        raise ValueError(f"X^{j} Z^{k} does not generate a full cyclic group")
    w = basis.ops[m]
    wd = np.linalg.matrix_power(w, d)
    c = wd[0, 0]
    if frobenius(wd - c * np.eye(d)) > 1e-10:
        raise ValueError("generator does not power to a phase times identity")
    wt = w * np.exp(-1j * np.angle(c) / d)
    omega = np.exp(2j * np.pi / d)
    powers = [np.eye(d, dtype=complex)]
    for _ in range(d - 1):
        powers.append(wt @ powers[-1])
    states = []
    for n in range(d):
        p = sum(omega ** (n * i) * powers[i] for i in range(d)) / d
        p = (p + dagger(p)) / 2
        if frobenius(p @ p - p) > 1e-10 or abs(np.trace(p).real - 1.0) > 1e-10:
            raise ValueError("projector formula did not yield a rank-one projector")
        vals, vecs = hermitian_eigh(p)
        vec = vecs[:, 0]
        anchor = vec[np.argmax(np.abs(vec))]
        states.append(vec * (abs(anchor) / anchor))
    return states


def standard_axis_generators(d: int) -> list[int]:
    """Generators of the ``d + 1`` standard mutually disjoint cyclic groups
    (all of them axes when ``d`` is prime): ``Z`` then ``X Z^k``."""
    basis_index = lambda j, k: j * d + k
    return [basis_index(0, 1)] + [basis_index(1, k) for k in range(d)]


def axes_channel(basis: PauliBasis, s: float, t, u: float) -> PauliDiagonalChannel:
    """Convex mixture of the identity, per-axis pinchings, and full noise.

    ``t`` lists one weight per axis, axis ``L`` the cyclic group of the
    ``L``-th of :func:`standard_axis_generators`.  Basis elements not covered
    by any listed axis behave as axes with ``t = 0``.  The induced Pauli
    weights are ``a_0 = s + sum(t)/d + u/d^2`` and ``a_m = t_L/d + u/d^2`` on
    axis L; a negative weight means the mixture is not completely positive.
    """
    d = basis.d
    t = list(t)
    if len(t) > d + 1:
        raise ValueError(f"at most d + 1 = {d + 1} axis weights, got {len(t)}")
    if abs(s + sum(t) + u - 1.0) > 1e-10:
        raise ValueError("s + sum(t) + u must equal 1")
    groups = [_generated(basis, [g]) for g in standard_axis_generators(d)[: len(t)]]
    seen: set[int] = set()
    for grp in groups:
        body = set(grp[1:])
        if body & seen:
            raise ValueError("axis groups are not mutually disjoint")
        seen |= body
    w = np.full(d * d, u / (d * d))
    w[0] = s + sum(t) / d + u / (d * d)
    for t_l, grp in zip(t, groups):
        for m in grp[1:]:
            w[m] += t_l / d
    if w.min() < -1e-12:
        raise ValueError(f"mixture is not completely positive (weight {w.min():.3e})")
    return pauli_channel(basis, np.clip(w, 0.0, None))


def nu2_bound(ch: PauliDiagonalChannel) -> float:
    """Upper bound on the maximal output 2-norm of a Pauli-diagonal channel:
    ``sqrt((1 + (d-1) max_{m>0} |lam_m|^2) / d)``; attained at d = 3 by the
    axis state of the maximizing generator."""
    lam = lambda_spectrum(ch)
    peak = float(np.abs(lam[1:]).max() ** 2)
    d = ch.d
    return math.sqrt((1.0 + (d - 1) * peak) / d)


@dataclass(frozen=True)
class MajorizationBound:
    bound: float
    beta: np.ndarray
    partition: tuple[tuple[int, ...], ...]
    identity_block_is_subgroup: bool | None
    ambiguous: bool


def majorization_bound(ch: PauliDiagonalChannel, p: float) -> MajorizationBound:
    """Upper bound ``(sum_j beta_j^p)^(1/p)`` with ``beta_j`` the sums of the
    sorted weights taken ``d`` at a time.

    Also reports whether the block of the partition containing the identity
    forms a subgroup, the attainability precondition for the bound.  Weights
    straddling a block boundary within ``1e-12`` make the partition
    ill-defined; that is reported as ``ambiguous`` instead of tie-breaking.
    A ``p`` that is not at least 1, nan included, is refused.
    """
    if not p >= 1:
        raise ValueError(f"p must be at least 1, got {p}")
    d = ch.d
    w = ch.weights
    order = np.argsort(-w, kind="stable")
    b = w[order]
    beta = b.reshape(d, d).sum(axis=1)
    bound = float(pnorm(beta, p))
    partition = tuple(tuple(int(i) for i in order[g * d : (g + 1) * d]) for g in range(d))
    ambiguous = any(abs(b[g * d - 1] - b[g * d]) < 1e-12 for g in range(1, d))
    subgroup: bool | None = None
    if not ambiguous:
        block = next(blk for blk in partition if 0 in blk)
        subgroup = _generated(ch.basis, block) == tuple(sorted(block))
    return MajorizationBound(
        bound=bound,
        beta=beta,
        partition=partition,
        identity_block_is_subgroup=subgroup,
        ambiguous=ambiguous,
    )


@dataclass(frozen=True)
class PInftyCertificate:
    subgroup_ok: bool
    inequality_ok: bool
    certified: bool


def p_infty_multiplicativity_check(ch: PauliDiagonalChannel, r: int) -> PInftyCertificate:
    """Certificate for ``nu_inf(Phi^(x)r) = nu_inf(Phi)^r``.

    Checks (i) the top weight block forms a subgroup whose cosets are
    exactly the sorted-weight partition and (ii) the strict inequality
    ``b_{0,d-1}^r > b_00^{r-1} b_10`` on the sorted weight array; only both
    together certify the power law.
    """
    d = ch.d
    mb = majorization_bound(ch, math.inf)
    # identity_block_is_subgroup is None when the partition is ambiguous.
    subgroup_ok = bool(mb.identity_block_is_subgroup)
    if subgroup_ok:
        block = next(blk for blk in mb.partition if 0 in blk)
        blocks = {tuple(sorted(blk)) for blk in mb.partition}
        subgroup_ok = set(_cosets(ch.basis, block)) == blocks
    b = ch.weights[np.argsort(-ch.weights, kind="stable")]
    inequality_ok = bool(b[d - 1] ** r > b[0] ** (r - 1) * b[d])
    return PInftyCertificate(
        subgroup_ok=subgroup_ok,
        inequality_ok=inequality_ok,
        certified=subgroup_ok and inequality_ok,
    )


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % q for q in range(2, int(math.isqrt(n)) + 1))


@dataclass(frozen=True)
class ProductMEClassification:
    d2_decomposable: bool
    klass: str
    schmidt_values: np.ndarray
    blocks: tuple[tuple[int, ...], ...]


def classify_product_or_me(
    basis: PauliBasis, psi: np.ndarray, tol: float = DEFAULT_TOL
) -> ProductMEClassification:
    """For prime ``d`` and the product basis on ``d^2``: whether the
    noisy-conjugate image of ``psi`` splits into ``d^2``-sized blocks, and
    whether ``psi`` is a product state, maximally entangled, or neither
    (by its Schmidt coefficients)."""
    if basis.kind != "pauli_product" or len(basis.factor_dims) != 2:
        raise ValueError("classification needs a two-factor product basis")
    d1, d2 = basis.factor_dims
    if d1 != d2 or not _is_prime(d1):
        raise ValueError("classification requires two equal prime factors")
    d = d1
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (basis.d,):
        raise ValueError(f"state must be a vector of length {basis.d}, got shape {psi.shape}")
    norm = np.linalg.norm(psi)
    if not norm > 0:
        raise ValueError("state is the zero vector")
    psi = psi / norm
    gamma = noisy_conjugate_image(basis, np.outer(psi, psi.conj()))
    dec = is_decomposable(gamma, tol)
    d2dec = dec.decomposable and all(len(blk) == d * d for blk in dec.blocks)
    svals = np.linalg.svd(psi.reshape(d, d), compute_uv=False)
    if svals[1] < 1e-8 * svals[0]:
        klass = "product"
    elif np.abs(svals - 1.0 / np.sqrt(d)).max() < 1e-8:
        klass = "maximally_entangled"
    else:
        klass = "other"
    return ProductMEClassification(
        d2_decomposable=bool(d2dec),
        klass=klass,
        schmidt_values=svals,
        blocks=dec.blocks,
    )


def holevo_capacity_weyl(
    ch: PauliDiagonalChannel, opts: OptimizerOptions, base: float = 2.0
) -> float:
    """Holevo capacity ``log d - S_min`` of a Weyl-covariant channel.

    Only accepts channels built by this module, where covariance holds by
    construction; the formula is unproven for anything else.
    """
    # The optimizer is imported here, so that the rest of the module loads
    # without it.
    from .purity import s_min

    if not isinstance(ch, PauliDiagonalChannel):
        raise TypeError(
            "capacity formula requires a Pauli-diagonal (Weyl covariant) channel"
        )
    # s_min runs first, so that it refuses a bad base before math.log sees it.
    smin = s_min(ch.channel, opts, base=base).value
    return math.log(ch.d, base) - smin


def noisy_image_norm_identity_residual(
    ch: PauliDiagonalChannel, psi: np.ndarray, p: float
) -> float:
    """Residual of ``||sqrt(A) gamma sqrt(A)||_p = d ||gamma A gamma||_p``
    for ``gamma`` the noisy-conjugate image of a pure state."""
    d = ch.d
    psi = np.asarray(psi, dtype=complex)
    gamma = noisy_conjugate_image(ch.basis, np.outer(psi, psi.conj()))
    sqa = np.diag(np.sqrt(ch.weights))
    a = np.diag(ch.weights)
    lhs = schatten_norm(sqa @ gamma @ sqa, p)
    rhs = d * schatten_norm(gamma @ a @ gamma, p)
    return abs(lhs - rhs)
