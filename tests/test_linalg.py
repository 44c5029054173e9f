import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcc.linalg import (
    majorizes,
    nonzero_spectrum,
    partial_trace,
    schatten_norm,
)
from qcc.random import haar_state, random_density, rng_from_seed


def partial_trace_oracle(m, da, db, keep):
    """Direct four-index summation, independent of the library path."""
    t = m.reshape(da, db, da, db)
    if keep == "A":
        out = np.zeros((da, da), dtype=complex)
        for a in range(da):
            for c in range(da):
                for b in range(db):
                    out[a, c] += t[a, b, c, b]
    else:
        out = np.zeros((db, db), dtype=complex)
        for b in range(db):
            for d in range(db):
                for a in range(da):
                    out[b, d] += t[a, b, a, d]
    return out


def test_partial_trace_product_state():
    rng = rng_from_seed(0)
    rho_a = random_density(2, rng)
    rho_b = random_density(3, rng)
    got = partial_trace(np.kron(rho_a, rho_b), (2, 3), "A")
    assert np.abs(got - rho_a).max() < 1e-14


def test_partial_trace_maximally_entangled():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    proj = np.outer(phi, phi.conj())
    assert np.abs(partial_trace(proj, (2, 2), "A") - np.eye(2) / 2).max() < 1e-15
    assert np.abs(partial_trace(proj, (2, 2), "B") - np.eye(2) / 2).max() < 1e-15


def test_partial_trace_matches_index_sum_oracle():
    rng = rng_from_seed(1)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    for keep in ("A", "B"):
        got = partial_trace(m, (2, 3), keep)
        want = partial_trace_oracle(m, 2, 3, keep)
        assert np.abs(got - want).max() < 1e-14


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), (2, 3), "A")


def test_schatten_norm_closed_forms():
    for d in (2, 3, 5):
        for p in (1, 1.5, 2, 4):
            assert abs(schatten_norm(np.eye(d), p) - d ** (1 / p)) < 1e-12
        assert abs(schatten_norm(np.eye(d), math.inf) - 1.0) < 1e-15
    proj = np.diag([1.0, 0.0, 0.0])
    for p in (1, 2, 3, math.inf):
        assert abs(schatten_norm(proj, p) - 1.0) < 1e-15
        assert schatten_norm(np.zeros((3, 3)), p) == 0.0
    # (0.75^2 + 0.25^2)^(1/2), evaluated directly
    expected = math.sqrt(0.75**2 + 0.25**2)
    assert abs(schatten_norm(np.diag([0.75, 0.25]), 2) - expected) < 1e-14
    assert abs(expected - 0.7905694150420949) < 1e-15


def test_schatten_norm_large_p_does_not_underflow():
    # (2/3)^2000 underflows to 0; the norm itself is 2/3 to machine precision.
    m = np.diag([2 / 3, 1 / 6, 1 / 6])
    for p in (1000, 2000, 10000):
        assert abs(schatten_norm(m, p) - 2 / 3) < 1e-15


def test_schatten_norm_rejects_small_p():
    with pytest.raises(ValueError):
        schatten_norm(np.eye(2), 0.5)


def test_schatten_norm_rejects_nan_p():
    # nan fails every comparison, so a guard on p < 1 let it through to a nan norm.
    with pytest.raises(ValueError, match="requires p >= 1"):
        schatten_norm(np.eye(2), math.nan)


def test_nonzero_spectrum_cutoff():
    sp = nonzero_spectrum(np.diag([1.0, 1e-14]))
    assert len(sp) == 1 and abs(sp.values[0] - 1.0) < 1e-15
    proj = np.diag([1.0, 1.0, 1.0, 0.0])
    assert np.abs(nonzero_spectrum(proj).values - 1.0).max() < 1e-15
    with pytest.raises(ValueError):
        nonzero_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_nonzero_spectrum_schmidt_oracle():
    # Both reduced density matrices of a bipartite pure state carry the
    # squared Schmidt coefficients, computable independently by SVD.
    rng = rng_from_seed(6)
    for da, db in ((2, 3), (3, 3), (2, 5)):
        psi = haar_state(da * db, rng)
        coeffs = np.linalg.svd(psi.reshape(da, db), compute_uv=False) ** 2
        proj = np.outer(psi, psi.conj())
        for keep in ("A", "B"):
            got = nonzero_spectrum(partial_trace(proj, (da, db), keep)).values
            want = np.sort(coeffs[coeffs > 1e-10])[::-1]
            assert got.size == want.size
            assert np.abs(got - want).max() < 1e-10


def test_majorizes_examples():
    assert majorizes([1.0, 0.0], [0.5, 0.5])
    assert majorizes([0.5, 0.3, 0.2], [0.4, 0.4, 0.2])
    assert not majorizes([0.4, 0.4, 0.2], [0.5, 0.3, 0.2])
    assert majorizes([0.7, 0.3], [0.7, 0.3])
    with pytest.raises(ValueError):
        majorizes([1.0, 0.0], [0.6, 0.6])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_majorizes_reflexive_and_dominates_uniform(seed, n):
    rng = rng_from_seed(seed)
    a = rng.random(n)
    a /= a.sum()
    assert majorizes(a, a)
    assert majorizes(a, np.full(n, 1.0 / n))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_majorizes_transitive_on_smoothed_vectors(seed):
    # a > smoothed(a) > doubly smoothed(a): averaging never un-majorizes.
    rng = rng_from_seed(seed)
    a = np.sort(rng.random(5))[::-1]
    a /= a.sum()
    b = 0.5 * a + 0.5 * np.full(5, 0.2)
    c = 0.5 * b + 0.5 * np.full(5, 0.2)
    assert majorizes(a, b) and majorizes(b, c) and majorizes(a, c)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_schatten_norm_non_increasing_in_p(seed, d):
    m = random_density(d, rng_from_seed(seed))
    values = [schatten_norm(m, p) for p in (1, 1.5, 2, 3, math.inf)]
    assert all(values[i] >= values[i + 1] - 1e-12 for i in range(len(values) - 1))


def test_eigensolver_backend_contract():
    # The shared eigensolver wrapper must deliver ||Mv - lam v|| <= 1e-12
    # on every dimension the library uses.
    from qcc.linalg import hermitian_eigh

    rng = rng_from_seed(99)
    for d in (2, 5, 16, 32):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = (g + g.conj().T) / 2
        w, v = hermitian_eigh(m)
        assert np.all(np.diff(w) <= 1e-15)
        resid = np.linalg.norm(m @ v - v * w, axis=0).max()
        assert resid < 1e-12 * max(1.0, np.abs(w).max())
