"""Seedable random objects: Haar unitaries, states, density matrices, channels.

Everything is driven by ``numpy.random.Generator`` (PCG64), so a fixed seed
gives the same stream on every platform.  Derived seeds are built by passing
``[base_seed, counter]`` entropy to ``default_rng``, which keeps parallel
restarts reproducible without sharing generator state.
"""

from __future__ import annotations

import numpy as np

from .linalg import dagger


def rng_from_seed(seed) -> np.random.Generator:
    """A fresh generator for ``seed`` (int or sequence of ints)."""
    return np.random.default_rng(seed)


def derived_rng(seed: int, counter: int) -> np.random.Generator:
    """Deterministic child generator number ``counter`` of ``seed``."""
    return np.random.default_rng([int(seed), int(counter)])


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random ``d x d`` unitary: the square case of :func:`haar_isometry`."""
    return haar_isometry(d, d, rng)


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random isometry (``rows >= cols``) via QR of a Ginibre matrix.

    The QR factor is rephased so the diagonal of R is real positive, which
    both fixes the Haar measure and makes the output independent of the
    backend's internal sign conventions.
    """
    if rows < cols:
        raise ValueError("isometry needs rows >= cols")
    q, r = np.linalg.qr(complex_gaussian(rng, (rows, cols)))
    diag = np.diagonal(r)
    ph = diag / np.abs(diag)
    return q * ph


def haar_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector in C^d."""
    v = complex_gaussian(rng, d)
    return v / np.linalg.norm(v)


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random mixed state from a normalized ``d x d`` Wishart matrix."""
    g = complex_gaussian(rng, (d, d))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def random_kraus_operators(
    d_in: int, d_out: int, n_kraus: int, rng: np.random.Generator
) -> np.ndarray:
    """Stack of ``n_kraus`` operators forming a random CPT channel.

    Slices a Haar-random isometry from ``C^{d_in}`` to ``C^{d_out * n_kraus}``
    into blocks of ``d_out`` rows, so the trace-preserving condition holds by
    construction.
    """
    if n_kraus * d_out < d_in:
        raise ValueError("need n_kraus * d_out >= d_in for a trace-preserving channel")
    v = haar_isometry(d_out * n_kraus, d_in, rng)
    return v.reshape(n_kraus, d_out, d_in)
