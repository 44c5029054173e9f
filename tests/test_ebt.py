import numpy as np
import pytest

from qcc import channel as chn
from qcc import ebt as eb
from qcc.conjugate import conjugate_kraus
from qcc.linalg import frobenius
from qcc.purity import OptimizerOptions, multiplicativity_gap, nu_p
from qcc.random import haar_state, haar_unitary, random_density, random_kraus_operators, rng_from_seed

OPTS = OptimizerOptions(restarts=6, tol=1e-13, seed=0)


def test_qc_pinching():
    basis = list(np.eye(2, dtype=complex))
    ch = eb.ebt_channel(basis, basis)
    rho = random_density(2, rng_from_seed(0))
    assert np.abs(chn.apply(ch.channel, rho) - np.diag(np.diagonal(rho))).max() < 1e-14
    for k, op in enumerate(ch.channel.kraus):
        want = np.zeros((2, 2))
        want[k, k] = 1.0
        assert np.abs(op - want).max() < 1e-15


def test_cq_channel_requires_orthonormal_inputs():
    rng = rng_from_seed(1)
    xs = [haar_state(3, rng) for _ in range(2)]
    with pytest.raises(ValueError):
        eb.cq_channel(xs, [np.array([1.0, 0.0]), np.array([1.0, 0.0])])
    ch = eb.cq_channel(xs, list(np.eye(2)))
    assert chn.validate_cpt(ch.channel).tp_ok


def test_random_ebt_completeness():
    rng = rng_from_seed(2)
    ch = eb.random_ebt(2, 3, 3, rng)
    comp = sum(np.vdot(x, x).real * np.outer(w, w.conj()) for x, w in zip(ch.x, ch.w))
    assert frobenius(comp - np.eye(2)) < 1e-12


def test_random_ebt_refuses_fewer_elements_than_the_input_dimension():
    # Two rank-one POVM elements cannot resolve the identity on C^3.
    with pytest.raises(ValueError, match="at least d_in rank-one elements"):
        eb.random_ebt(3, 2, 2, rng_from_seed(2))


def test_ebt_channel_rejects_incomplete_povm():
    with pytest.raises(ValueError):
        eb.ebt_channel([np.array([1.0, 0.0])], [np.array([1.0, 0.0])])


def test_ebt_channel_rejects_unequal_vector_counts():
    basis = list(np.eye(2))
    with pytest.raises(ValueError, match="equally many"):
        eb.ebt_channel(basis, basis[:1])


def test_hadamard_channel_rejects_a_gram_matrix_that_is_not_psd():
    with pytest.raises(ValueError, match="not PSD"):
        eb.HadamardChannel(x_gram=np.diag([1.0, -0.5]), frame=tuple(np.eye(2)))


def test_conjugate_ebt_matches_kraus_conjugate():
    rng = rng_from_seed(3)
    for _ in range(5):
        ch = eb.random_ebt(int(rng.integers(2, 4)), 2, 4, rng)
        had, ck = eb.conjugate_ebt(ch)
        rho = random_density(ch.channel.d_in, rng)
        assert np.abs(had.apply(rho) - chn.apply(ck, rho)).max() < 1e-12


def test_extreme_cq_conjugate_is_schur_multiplication():
    rng = rng_from_seed(4)
    ch = eb.random_cq(3, 2, rng)
    had, ck = eb.conjugate_ebt(ch)
    rho = random_density(3, rng)
    fr = np.stack(had.frame)
    rho_w = fr.conj() @ rho @ fr.T
    assert np.abs(had.x_gram * rho_w - chn.apply(ck, rho)).max() < 1e-12


def test_orthonormal_outputs_give_identity_gram():
    # x_k orthonormal: the conjugate is the pinching of the w-representative.
    rng = rng_from_seed(5)
    u = haar_unitary(3, rng)
    w_basis = haar_unitary(3, rng)
    ch = eb.ebt_channel(list(u.T), list(w_basis.T))
    had, ck = eb.conjugate_ebt(ch)
    assert frobenius(had.x_gram - np.eye(3)) < 1e-12
    rho = random_density(3, rng)
    fr = np.stack(had.frame)
    rho_w = fr.conj() @ rho @ fr.T
    assert np.abs(chn.apply(ck, rho) - np.diag(np.diagonal(rho_w))).max() < 1e-12


def test_pseudodiag_kraus():
    rng = rng_from_seed(6)
    ch = eb.random_ebt(2, 3, 4, rng)
    pd = eb.pseudodiag_kraus(ch)
    assert chn.choi_distance(pd, conjugate_kraus(ch.channel)) < 1e-10

    # Collinear outputs: rank-one Gram, single Kraus operator.
    from qcc.random import haar_isometry

    t = haar_isometry(3, 2, rng)
    deg = eb.ebt_channel(
        [np.linalg.norm(row) * np.array([1.0 + 0j, 0.0]) for row in t],
        [row / np.linalg.norm(row) for row in t],
    )
    assert eb.pseudodiag_kraus(deg).n_kraus == 1


def test_hadamard_form_channel_and_detection():
    rng = rng_from_seed(7)
    ch = eb.random_hadamard_channel(2, 3, rng)
    assert chn.validate_cpt(ch).tp_ok
    det = eb.is_hadamard_form(ch)
    assert det.verdict == "yes"
    assert det.gram is not None and det.frame is not None

    cq = eb.random_cq(2, 3, rng)
    det = eb.is_hadamard_form(conjugate_kraus(cq.channel))
    assert det.verdict == "yes"
    fr = np.stack(det.frame)
    assert frobenius(fr.conj() @ fr.T - np.eye(2)) < 1e-8  # orthonormal frame

    ebt = eb.random_ebt(2, 2, 3, rng)
    assert eb.is_hadamard_form(conjugate_kraus(ebt.channel)).verdict == "yes"

    generic = chn.KrausChannel(d_in=2, d_out=2, kraus=random_kraus_operators(2, 2, 3, rng))
    assert eb.is_hadamard_form(generic).verdict == "no"


def test_is_hadamard_form_verdict_follows_the_singular_value_ratio():
    # Row 0 of the Kraus operators of a Hadamard-form channel is s0 u w^+.
    # Adding eps s0 v^+ (v orthogonal to w) to row 0 of operator k makes the
    # second singular value ratio eps sqrt(1 - |u_k|^2); taking the k with
    # the least |u_k| of three keeps it within (0.8 eps, eps].
    had = eb.random_hadamard_channel(2, 3, rng_from_seed(7))
    assert had.n_kraus == 3
    u, s, vh = np.linalg.svd(had.kraus[:, 0, :])
    k = int(np.argmin(np.abs(u[:, 0])))
    for eps, verdict in ((1e-10, "yes"), (1e-6, "ambiguous"), (1e-2, "no")):
        kraus = had.kraus.copy()
        kraus[k, 0] += eps * s[0] * vh[1]
        sv = np.linalg.svd(kraus[:, 0, :], compute_uv=False)
        assert 0.8 * eps < sv[1] / sv[0] < 1.01 * eps
        det = eb.is_hadamard_form(chn.KrausChannel(d_in=2, d_out=3, kraus=kraus))
        assert det.verdict == verdict
        assert (det.frame is None) == (verdict != "yes")


def test_is_hadamard_form_refuses_outputs_beyond_the_size_cap():
    # The Gram matrix is d_out x d_out: d_out = MAX_DIM^2 = 1024 passes.
    ch = chn.KrausChannel.from_operators([np.eye(1024, 1)])
    assert eb.is_hadamard_form(ch).gram.shape == (1024, 1024)
    with pytest.raises(ValueError, match="d_out = 1025 exceeds the supported size"):
        eb.is_hadamard_form(chn.KrausChannel.from_operators([np.eye(1025, 1)]))


def test_double_conjugation_returns_ebt():
    rng = rng_from_seed(8)
    for _ in range(4):
        had = eb.random_hadamard_channel(2, 3, rng)
        cc = conjugate_kraus(had)
        for op in cc.kraus:
            s = np.linalg.svd(op, compute_uv=False)
            assert s.size == 1 or s[1] < 1e-10  # rank one: EBT form


def test_hadamard_multiplicativity_spot_check():
    rng = rng_from_seed(9)
    had = eb.random_hadamard_channel(2, 3, rng)
    other = chn.KrausChannel(d_in=2, d_out=2, kraus=random_kraus_operators(2, 2, 2, rng))
    for p in (2, 3):
        gap = multiplicativity_gap(had, other, p, OPTS)
        assert abs(gap.gap) < 1e-5


def test_cq_nu_p_matches_schur_form():
    rng = rng_from_seed(10)
    cq = eb.random_cq(2, 3, rng)
    _, ck = eb.conjugate_ebt(cq)
    for p in (2, 3):
        assert abs(nu_p(cq.channel, p, OPTS).value - nu_p(ck, p, OPTS).value) < 1e-8
