import numpy as np
import pytest

from qcc.linalg import dagger, frobenius
from qcc.random import (
    derived_rng,
    haar_isometry,
    haar_state,
    haar_unitary,
    random_density,
    random_kraus_operators,
    rng_from_seed,
)


def test_haar_unitary_is_unitary_and_seedable():
    for d in (2, 3, 5):
        u1 = haar_unitary(d, rng_from_seed(42))
        u2 = haar_unitary(d, rng_from_seed(42))
        assert np.array_equal(u1, u2)
        assert frobenius(dagger(u1) @ u1 - np.eye(d)) < 1e-12


def test_haar_isometry_columns_orthonormal():
    v = haar_isometry(6, 2, rng_from_seed(0))
    assert frobenius(dagger(v) @ v - np.eye(2)) < 1e-12


def test_derived_rng_streams_are_independent_and_reproducible():
    a1 = derived_rng(7, 0).standard_normal(4)
    a2 = derived_rng(7, 0).standard_normal(4)
    b = derived_rng(7, 1).standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_random_states_and_channels():
    rng = rng_from_seed(1)
    psi = haar_state(4, rng)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    rho = random_density(3, rng)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-14

    ops = random_kraus_operators(2, 3, 4, rng)
    tp = np.einsum("kba,kbc->ac", ops.conj(), ops)
    assert frobenius(tp - np.eye(2)) < 1e-12


def test_random_kraus_operators_refuses_too_few_outputs_for_the_input():
    # n * d_out = 2 * 1 < d_in = 3: no isometry C^3 -> C^2 exists.
    with pytest.raises(ValueError, match="n_kraus \\* d_out >= d_in"):
        random_kraus_operators(3, 1, 2, rng_from_seed(3))
