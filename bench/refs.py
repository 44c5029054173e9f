"""Reference computations for the qcc benchmark, in plain numpy.

Nothing here imports ``qcc``.  Each function restates a closed form or a
definition from the paper (King, Matsumoto, Nathanson & Ruskai,
quant-ph/0509126) so that the benchmark checks the program's outputs
against a computation made apart from it, never against a stored copy of
an earlier output.

Conventions match the program's documented ones: Kraus stacks have shape
``(n, d_out, d_in)``, the Weyl operators are ``T_m = X^j Z^k`` with
``m = d*j + k``, and entropies are in bits.
"""

from __future__ import annotations

import math

import numpy as np


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


# ------------------------------------------------------------ random inputs

def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary from the QR decomposition of a complex Ginibre matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph[None, :]


def haar_state(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_kraus(d_in: int, d_out: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Random trace-preserving Kraus stack: a Haar isometry cut into blocks."""
    u = haar_unitary(n * d_out, rng)[:, :d_in]
    return u.reshape(n, d_out, d_in)


def reframe(kraus: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``V F_k U`` remixed by a unitary on the Kraus index.

    The result is another Kraus list for ``rho -> V Phi(U rho U^+) V^+``.
    Its output spectra, ``nu_p`` and ``S_min`` are those of ``Phi``, and so
    is the landscape the program's multistart optimizer climbs.  Drawing
    ``U``, ``V`` and the remix from the seed therefore gives every seed
    different inputs with the same amount of optimizer work.
    """
    n, d_out, d_in = kraus.shape
    u, v, w = haar_unitary(d_in, rng), haar_unitary(d_out, rng), haar_unitary(n, rng)
    return np.einsum("jk,ab,kbc,cd->jad", w, v, kraus, u)


def kraus_swap(kraus: np.ndarray) -> np.ndarray:
    """Conjugate channel by swapping the Kraus index with the output row."""
    return np.ascontiguousarray(kraus.transpose(1, 0, 2))


# ---------------------------------------------------------- channel algebra

def weyl_ops(d: int) -> np.ndarray:
    """``T_m = X^j Z^k`` for ``m = d*j + k``."""
    x = np.roll(np.eye(d), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    mp = np.linalg.matrix_power
    return np.stack([mp(x, j) @ mp(z, k) for j in range(d) for k in range(d)])


def pauli_kraus(weights) -> np.ndarray:
    """Kraus stack ``sqrt(a_m) T_m`` of a Pauli-diagonal channel."""
    w = np.asarray(weights, dtype=float)
    d = int(round(math.sqrt(w.size)))
    live = w > 0
    return np.sqrt(w[live])[:, None, None] * weyl_ops(d)[live]


def depolarizing_weights(d: int, b: float) -> np.ndarray:
    """Weights of ``rho -> b rho + (1 - b) I/d``."""
    w = np.full(d * d, (1.0 - b) / (d * d))
    w[0] += b
    return w


def axes_weights(d: int, s: float, t, u: float) -> np.ndarray:
    """Weights of ``s id + sum_L t_L (pinching on axis L) + u (full noise)``
    with the standard axes ``Z, X, XZ, ..., XZ^(d-1)``.

    The pinching on the axis generated by ``T`` is ``(1/d) sum_i T^i . T^-i``,
    so axis L puts ``t_L / d`` on each of its elements; the noise puts
    ``u / d^2`` everywhere.
    """
    w = np.full(d * d, u / (d * d))
    w[0] += s
    gens = [(0, 1)] + [(1, k) for k in range(d)]
    for t_l, (j, k) in zip(t, gens):
        for i in range(d):
            w[((i * j) % d) * d + (i * k) % d] += t_l / d
    return w


def apply(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.einsum("kab,bc,kdc->ad", kraus, rho, kraus.conj())


def pure_output(kraus: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``Phi(psi psi^+) = M^T conj(M)`` with ``M = K . psi`` of shape (n, d_out)."""
    m = kraus @ psi
    return m.T @ m.conj()


def product_output(k1: np.ndarray, k2: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Output of ``Phi_1 (x) Phi_2`` on a pure input without forming the
    product's Kraus stack: with ``Psi`` the ``d1 x d2`` reshape of ``psi``,
    the Kraus pair ``(i, j)`` sends it to ``F1_i Psi F2_j^T``."""
    d1, d2 = k1.shape[2], k2.shape[2]
    big = psi.reshape(d1, d2)
    m = np.einsum("iab,bc,jdc->ijad", k1, big, k2)
    m = m.reshape(k1.shape[0] * k2.shape[0], k1.shape[1] * k2.shape[1])
    return m.T @ m.conj()


def choi(kraus: np.ndarray) -> np.ndarray:
    """``(1/d_in) sum_jk E_jk (x) Phi(E_jk)``, input copy major."""
    n, d_out, d_in = kraus.shape
    vecs = kraus.transpose(0, 2, 1).reshape(n, d_in * d_out)
    return vecs.T @ vecs.conj() / d_in


def kraus_rank(kraus: np.ndarray, rel: float = 1e-5) -> int:
    """Rank of the stacked vectorized Kraus operators (singular value cutoff
    ``rel`` relative to the largest, i.e. ``rel^2`` on Choi eigenvalues)."""
    s = np.linalg.svd(kraus.reshape(kraus.shape[0], -1), compute_uv=False)
    return int((s > rel * s[0]).sum())


def theta2(kraus: np.ndarray) -> np.ndarray:
    """The p = 2 linearizer ``sum_jk F_j^+ F_k (x) F_k^+ F_j``."""
    pairs = np.einsum("iba,jbc->ijac", kraus.conj(), kraus)
    d = kraus.shape[2]
    return np.einsum("jkab,kjcd->acbd", pairs, pairs).reshape(d * d, d * d)


def tp_residual(kraus: np.ndarray) -> float:
    s = np.einsum("kba,kbc->ac", kraus.conj(), kraus)
    return float(np.abs(s - np.eye(kraus.shape[2])).max())


def projector_residual(w: np.ndarray) -> float:
    """Frobenius norm of ``P^2 - P`` for ``P = W^+ W``."""
    p = dagger(w) @ w
    return float(np.linalg.norm(p @ p - p))


# ------------------------------------------------------- spectral functions

def spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues, clipped at zero, non-increasing."""
    return np.clip(np.linalg.eigvalsh(rho), 0.0, None)[::-1]


def nonzero(vals: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    return vals[vals > tol * max(float(vals.max()), 1e-300)]


def pnorm(vals, p: float) -> float:
    """``(sum v^p)^(1/p)``, scaled by the largest entry so no power underflows."""
    v = np.clip(np.asarray(vals, dtype=float), 0.0, None)
    top = float(v.max())
    if math.isinf(p) or top == 0.0:
        return top
    return top * float(((v / top) ** p).sum()) ** (1.0 / p)


def entropy_bits(vals) -> float:
    v = np.asarray(vals, dtype=float)
    v = v[v > 0]
    return float(-(v * np.log2(v)).sum())


def depolarizing_spectrum(d: int, b: float) -> np.ndarray:
    """Output spectrum on any pure input: ``b + (1-b)/d`` once, ``(1-b)/d``
    ``d - 1`` times."""
    return np.array([b + (1 - b) / d] + [(1 - b) / d] * (d - 1))


def bloch_lambdas(kraus: np.ndarray) -> np.ndarray:
    """Singular values of a qubit channel's Bloch matrix
    ``T_ij = Tr(sigma_i Phi(sigma_j)) / 2``; for a Pauli-diagonal channel
    they are the moduli of its three Pauli eigenvalues."""
    sig = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    t = np.array([[np.trace(a @ apply(kraus, b)).real / 2 for b in sig] for a in sig])
    return np.linalg.svd(t, compute_uv=False)


def unital_qubit_spectrum(kraus: np.ndarray) -> np.ndarray:
    """Optimal output spectrum of a unital qubit channel, ``(1 +- lam)/2`` with
    ``lam`` the largest Bloch contraction (King-Ruskai); it is optimal for
    every ``p`` and for the entropy."""
    lam = float(bloch_lambdas(kraus).max())
    return np.array([(1 + lam) / 2, (1 - lam) / 2])


def axis_mixture_nu2_sq(s: float, t) -> float:
    """``nu_2^2 = (1 + 2 lam^2) / 3`` for the d = 3 axis mixture, with
    ``lam = max_L |s + t_L|`` the largest eigenvalue off the identity."""
    lam = max(abs(s + t_l) for t_l in t)
    return (1 + 2 * lam**2) / 3


# ------------------------------------------------------------ json formats

def encode_matrix(m: np.ndarray) -> list:
    return [encode_vector(row) for row in np.asarray(m)]


def encode_vector(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v)]


def decode_matrix(obj) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in obj])


def decode_vector(obj) -> np.ndarray:
    return np.array([complex(re, im) for re, im in obj])


def channel_obj(kraus: np.ndarray) -> dict:
    n, d_out, d_in = kraus.shape
    return {"d_in": d_in, "d_out": d_out, "kraus": [encode_matrix(f) for f in kraus]}


def channel_from_obj(obj) -> np.ndarray:
    return np.stack([decode_matrix(f) for f in obj["kraus"]])
