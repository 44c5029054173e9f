import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcc import channel as chn
from qcc import pauli as pm
from qcc.conjugate import conjugate_kraus
from qcc.linalg import dagger, frobenius, schatten_norm
from qcc.purity import OptimizerOptions, nu_p
from qcc.random import haar_state, random_density, rng_from_seed

OPTS = OptimizerOptions(restarts=6, tol=1e-13, seed=0)


def test_qubit_basis_matrices():
    b = pm.build_basis(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    assert np.array_equal(b.ops[0], np.eye(2))
    assert np.abs(b.ops[b.index_of(0, 1)] - z).max() < 1e-15
    assert np.abs(b.ops[b.index_of(1, 0)] - x).max() < 1e-15
    assert np.abs(b.ops[b.index_of(1, 1)] - (-1j) * sy).max() < 1e-15


def test_basis_orthogonality_d3_all_pairs():
    b = pm.build_basis(3)
    for m in range(9):
        for n in range(9):
            got = np.trace(dagger(b.ops[m]) @ b.ops[n])
            want = 3.0 if m == n else 0.0
            assert abs(got - want) < 1e-12


def test_commutation_phase():
    for d in (2, 3, 5):
        b = pm.build_basis(d)
        omega = np.exp(2j * np.pi / d)
        z, x = b.ops[b.index_of(0, 1)], b.ops[b.index_of(1, 0)]
        assert np.abs(z @ x - omega * x @ z).max() < 1e-14


def test_phase_table_consistency():
    rng = rng_from_seed(0)
    for d in (2, 3, 4):
        b = pm.build_basis(d)
        for _ in range(20):
            m, n = int(rng.integers(d * d)), int(rng.integers(d * d))
            k, phase = b.triple(m, n)
            assert frobenius(dagger(b.ops[m]) @ b.ops[n] - phase * b.ops[k]) < 1e-12


def test_product_basis():
    b2 = pm.build_basis(2)
    pb = pm.product_basis(b2, b2)
    assert pb.size == 16
    flat = pb.ops.reshape(16, -1)
    gram = flat.conj() @ flat.T
    assert np.abs(gram - 4 * np.eye(16)).max() < 1e-12

    # Not the same operator set as the d=4 basis, even allowing phases.
    b4 = pm.build_basis(4)
    overlaps = np.abs(np.einsum("mab,nab->mn", pb.ops.conj(), b4.ops)) / 4
    matched = (overlaps > 1 - 1e-9).any(axis=1)
    assert not matched.all()

    rng = rng_from_seed(1)
    b3 = pm.build_basis(3)
    pb9 = pm.product_basis(b3, b3)
    for _ in range(30):
        m, n = int(rng.integers(81)), int(rng.integers(81))
        k, phase = pb9.triple(m, n)
        assert frobenius(dagger(pb9.ops[m]) @ pb9.ops[n] - phase * pb9.ops[k]) < 1e-12


def test_basis_kind_follows_its_factors():
    b2 = pm.build_basis(2)
    assert (b2.kind, b2.factor_dims) == ("pauli", (2,))
    prod = pm.product_basis(b2, pm.build_basis(3))
    assert (prod.kind, prod.factor_dims) == ("pauli_product", (2, 3))
    fields = (b2.d, b2.ops, b2.prod_index, b2.prod_phase, b2.adj_index, b2.adj_phase)
    with pytest.raises(TypeError):  # factor_dims is required
        pm.PauliBasis(*fields)
    with pytest.raises(TypeError):  # kind is derived, not set
        dataclasses.replace(b2, kind="pauli_product")


def test_pauli_channel_constructions():
    rng = rng_from_seed(2)
    b3 = pm.build_basis(3)
    ident = pm.pauli_channel(b3, pm.identity_weights(3))
    rho = random_density(3, rng)
    assert np.abs(chn.apply(ident.channel, rho) - rho).max() < 1e-14

    noisy = pm.pauli_channel(b3, pm.noisy_weights(3))
    assert noisy.channel.n_kraus == 9
    assert np.abs(chn.apply(noisy.channel, rho) - np.eye(3) / 3).max() < 1e-14

    dep = pm.pauli_channel(b3, pm.depolarizing_weights(3, 0.4))
    direct = 0.4 * rho + 0.6 * np.trace(rho) * np.eye(3) / 3
    assert np.abs(chn.apply(dep.channel, rho) - direct).max() < 1e-13

    with pytest.raises(ValueError):
        pm.pauli_channel(b3, np.full(9, 0.2))
    with pytest.raises(ValueError):
        pm.depolarizing_weights(3, -0.5)


def test_lambda_spectrum():
    b3 = pm.build_basis(3)
    lam = pm.lambda_spectrum(pm.pauli_channel(b3, pm.identity_weights(3)))
    assert np.abs(lam - 1.0).max() < 1e-14

    lam = pm.lambda_spectrum(pm.pauli_channel(b3, pm.depolarizing_weights(3, 0.35)))
    assert abs(lam[0] - 1.0) < 1e-14
    assert np.abs(lam[1:] - 0.35).max() < 1e-14

    rng = rng_from_seed(3)
    for d in (2, 3, 4):
        b = pm.build_basis(d)
        ch = pm.pauli_channel(b, rng.dirichlet(np.ones(d * d)))
        lam = pm.lambda_spectrum(ch)
        grid = lam.reshape(d, d)
        rev = (-np.arange(d)) % d
        assert np.abs(grid - grid[np.ix_(rev, rev)].conj()).max() < 1e-12
        for m in range(d * d):
            t = b.ops[m]
            direct = np.trace(dagger(t) @ chn.apply(ch.channel, t)) / d
            assert abs(lam[m] - direct) < 1e-12


def test_qubit_optimizer_lands_on_dominant_axis_state():
    # With distinct channel eigenvalues the optimizing input is an axis
    # state of the largest-magnitude one.
    b2 = pm.build_basis(2)
    rng = rng_from_seed(18)
    for _ in range(5):
        w = rng.dirichlet(np.array([8.0, 4.0, 2.0, 1.0]))
        ch = pm.pauli_channel(b2, w)
        lam = pm.lambda_spectrum(ch)
        mags = np.abs(lam[1:])
        if np.sort(mags)[-1] - np.sort(mags)[-2] < 1e-3:
            continue  # near-degenerate: the maximizer is not unique
        m_star = 1 + int(np.argmax(mags))
        rep = nu_p(ch.channel, 2, OPTS)
        assert abs(rep.value - pm.qubit_nu_p_closed_form(w, 2)) < 1e-9
        overlaps = [abs(np.vdot(v, rep.optimizer_state)) for v in pm.axis_states(b2, m_star)]
        assert max(overlaps) > 1 - 1e-6


def test_qubit_lambda_weight_relation():
    # (1 + lam_k)/2 = a_0 + a_k for each non-identity generator.
    rng = rng_from_seed(4)
    w = rng.dirichlet(np.ones(4))
    lam = pm.lambda_spectrum(pm.pauli_channel(pm.build_basis(2), w))
    for k in (1, 2, 3):
        assert abs((1 + lam[k].real) / 2 - (w[0] + w[k])) < 1e-12


def test_noisy_conjugate_image_basics():
    b3 = pm.build_basis(3)
    gamma = pm.noisy_conjugate_image(b3, np.eye(3) / 3)
    assert np.abs(gamma - np.eye(9) / 9).max() < 1e-14

    rng = rng_from_seed(5)
    psi = haar_state(3, rng)
    rho = np.outer(psi, psi.conj())
    img = pm.noisy_conjugate_image(b3, rho)
    checks = pm.nc_image_checks(b3, img)
    assert checks.projector < 1e-10
    assert checks.diagonal < 1e-12
    assert checks.modulus < 1e-12
    assert checks.doubly_stochastic < 1e-10
    # First row carries the Bloch coefficients.
    v = pm.bloch_coefficients(b3, rho)
    assert np.abs(9 * img[0] - v).max() < 1e-12


def test_qubit_axis_image_matches_displayed_blocks():
    b2 = pm.build_basis(2)
    for m in (1, 2, 3):
        psi = pm.axis_states(b2, m)[0]
        gamma = pm.noisy_conjugate_image(b2, np.outer(psi, psi.conj()))
        rep = pm.is_decomposable(gamma)
        assert rep.decomposable and len(rep.blocks) == 2
        for block in rep.blocks:
            sub = gamma[np.ix_(block, block)]
            assert np.abs(np.abs(sub) - 0.25).max() < 1e-12
            eigs = np.linalg.eigvalsh(sub)
            assert eigs[-1] > 0.49 and abs(eigs[:-1]).max() < 1e-12


def test_nc_image_explicit_matches_direct():
    rng = rng_from_seed(6)
    for d in (2, 3, 5):
        b = pm.build_basis(d)
        e0 = np.zeros(d, dtype=complex)
        e0[0] = 1.0
        for psi in [e0] + [haar_state(d, rng) for _ in range(5)]:
            direct = pm.noisy_conjugate_image(b, np.outer(psi, psi.conj()))
            explicit = pm.nc_image_explicit(b, psi)
            assert np.abs(direct - explicit).max() < 1e-12


def test_nc_image_blocks_are_cyclic_in_zx_ordering():
    # Undoing the XZ -> ZX phase twist leaves every d x d block circulant.
    rng = rng_from_seed(7)
    d = 3
    b = pm.build_basis(d)
    psi = haar_state(d, rng)
    gamma = pm.noisy_conjugate_image(b, np.outer(psi, psi.conj()))
    jj, kk = np.divmod(np.arange(d * d), d)
    phases = np.exp(2j * np.pi / d) ** ((-jj * kk) % d)
    core = gamma / phases[:, None] / phases.conj()[None, :]
    blocks = core.reshape(d, d, d, d).transpose(0, 2, 1, 3)
    for j in range(d):
        for k in range(d):
            blk = blocks[j, k]
            for shift in range(1, d):
                rolled = np.roll(np.roll(blk, shift, axis=0), shift, axis=1)
                assert np.abs(blk - rolled).max() < 1e-12


def test_find_u_t_and_recovery():
    rng = rng_from_seed(8)
    for d in (2, 3, 4):
        b = pm.build_basis(d)
        u = pm.find_U_T(b)
        assert frobenius(u @ dagger(u) - np.eye(d * d)) < 1e-12
        rho = random_density(d, rng)
        gamma = pm.noisy_conjugate_image(b, rho)
        assert frobenius(gamma - u @ np.kron(np.eye(d), rho) @ dagger(u) / d) < 1e-12
        assert np.abs(pm.recover_state(b, gamma) - rho).max() < 1e-12


def test_recover_state_builds_and_checks_u_once_per_basis(monkeypatch):
    # U is checked on the two canonical states once per basis.
    calls = []
    image = pm.noisy_conjugate_image
    monkeypatch.setattr(pm, "noisy_conjugate_image", lambda b, r: calls.append(1) or image(b, r))
    rng = rng_from_seed(9)
    b = pm.build_basis(3)
    rhos = [random_density(3, rng) for _ in range(5)]
    gammas = [image(b, rho) for rho in rhos]
    for rho, gamma in zip(rhos, gammas):
        assert np.abs(pm.recover_state(b, gamma) - rho).max() < 1e-12
    assert len(calls) == 2
    u = pm.find_U_T(b)
    assert len(calls) == 2 and not u.flags.writeable
    assert np.array_equal(u, b.ops.reshape(9, 9) / np.sqrt(3))


def test_standard_basis_ordering_gives_identity_coefficients():
    # In the matrix-unit basis the noisy conjugate is exactly (I (x) rho)/d,
    # i.e. the basis-change construction reduces to the identity matrix.
    rng = rng_from_seed(9)
    d = 3
    rho = random_density(d, rng)
    units = np.stack([np.eye(d, dtype=complex)[j][:, None] * np.eye(d)[k][None, :]
                      for j in range(d) for k in range(d)])
    coeff = units.reshape(d * d, d * d)
    assert np.abs(coeff - np.eye(d * d)).max() == 0.0
    gamma = np.einsum("mab,bc,nac->mn", units, rho, units.conj(), optimize=True) / d
    assert np.abs(gamma - np.kron(np.eye(d), rho) / d).max() < 1e-14


def test_bloch_coefficients():
    rng = rng_from_seed(10)
    for d in (2, 3, 4):
        b = pm.build_basis(d)
        psi = haar_state(d, rng)
        rho = np.outer(psi, psi.conj())
        v = pm.bloch_coefficients(b, rho)
        assert abs(v[0] - 1.0) < 1e-12
        assert abs(float(np.abs(v[1:]) ** 2 @ np.ones(d * d - 1)) - (d - 1)) < 1e-10
        recon = np.einsum("m,mab->ab", v, b.ops) / d
        assert np.abs(recon - rho).max() < 1e-12
        assert np.abs(v).max() <= 1 + 1e-12

    b4 = pm.build_basis(4)
    v = pm.bloch_coefficients(b4, np.eye(4) / 4)
    assert abs(v[0] - 1.0) < 1e-14 and np.abs(v[1:]).max() < 1e-14

    z2 = b4.ops[b4.index_of(0, 2)]
    rho = (np.eye(4) + z2) / 4
    v = pm.bloch_coefficients(b4, rho)
    assert (np.abs(v) > 1e-10).sum() == 2


def test_bloch_coefficients_reject_a_state_of_the_wrong_shape():
    b2 = pm.build_basis(2)
    for rho in (np.eye(3) / 3, np.ones(2) / 2):
        with pytest.raises(ValueError, match="state must be 2x2"):
            pm.bloch_coefficients(b2, rho)
        with pytest.raises(ValueError, match="state must be 2x2"):
            pm.subgroup_of_support(b2, rho)


def test_subgroup_of_support():
    b3 = pm.build_basis(3)
    x_state = pm.axis_states(b3, b3.index_of(1, 0))[0]
    rep = pm.subgroup_of_support(b3, np.outer(x_state, x_state.conj()))
    assert rep.subgroup_indices == (0, b3.index_of(1, 0), b3.index_of(2, 0))
    assert rep.order == 3
    assert len(rep.cosets) == 3

    b4 = pm.build_basis(4)
    psi = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    rep = pm.subgroup_of_support(b4, np.outer(psi, psi.conj()))
    want = (0, b4.index_of(0, 2), b4.index_of(2, 0), b4.index_of(2, 2))
    assert rep.subgroup_indices == tuple(sorted(want))
    assert rep.order == 4

    rng = rng_from_seed(11)
    for d in (2, 3, 4, 5):
        b = pm.build_basis(d)
        psi = haar_state(d, rng)
        assert pm.subgroup_of_support(b, np.outer(psi, psi.conj())).order >= d


def test_is_decomposable():
    block = np.zeros((5, 5))
    block[:2, :2] = 1.0
    block[2:, 2:] = 1.0
    rep = pm.is_decomposable(block)
    assert rep.decomposable and rep.blocks == ((0, 1), (2, 3, 4))
    assert rep.permutation == (0, 1, 2, 3, 4)

    rng = rng_from_seed(12)
    b2 = pm.build_basis(2)
    generic = haar_state(2, rng)
    gamma = pm.noisy_conjugate_image(b2, np.outer(generic, generic.conj()))
    assert not pm.is_decomposable(gamma).decomposable


def test_axis_states():
    b3 = pm.build_basis(3)
    z_states = pm.axis_states(b3, b3.index_of(0, 1))
    for vec in z_states:
        assert (np.abs(vec) > 1e-10).sum() == 1  # standard basis vectors

    b2 = pm.build_basis(2)
    x_states = pm.axis_states(b2, 2)
    for vec in x_states:
        assert np.abs(np.abs(vec) - 1 / np.sqrt(2)).max() < 1e-12

    xz = pm.axis_states(b3, b3.index_of(1, 1))
    for vec in xz:
        p = np.outer(vec, vec.conj())
        w = b3.ops[b3.index_of(1, 1)]
        assert np.abs(w @ p - (vec[None, :].conj() @ w @ vec)[0] * p).max() < 1e-10

    with pytest.raises(ValueError):
        pm.axis_states(pm.build_basis(4), pm.build_basis(4).index_of(2, 0))


def test_axes_channel():
    b3 = pm.build_basis(3)
    ident = pm.axes_channel(b3, 1.0, [], 0.0)
    assert np.abs(ident.weights - pm.identity_weights(3)).max() < 1e-14

    noisy = pm.axes_channel(b3, 0.0, [], 1.0)
    assert np.abs(noisy.weights - pm.noisy_weights(3)).max() < 1e-14

    ch = pm.axes_channel(b3, 0.4, [0.3], 0.3)
    val = nu_p(ch.channel, 2, OPTS).value
    lam = max(abs(0.4 + 0.3), abs(0.4))
    want_sq = (1 + 2 * lam**2) / 3
    assert abs(val * val - want_sq) < 1e-8
    assert abs(want_sq - 0.66) < 1e-12

    with pytest.raises(ValueError):
        pm.axes_channel(b3, 0.5, [0.2], 0.2)  # weights do not sum to 1
    with pytest.raises(ValueError):
        pm.axes_channel(b3, 1.4, [-0.8], 0.4)  # CP violated


def test_nu2_bound():
    b3 = pm.build_basis(3)
    ident = pm.pauli_channel(b3, pm.identity_weights(3))
    assert abs(pm.nu2_bound(ident) - 1.0) < 1e-14

    rng = rng_from_seed(13)
    for i in range(10):
        ch = pm.pauli_channel(b3, rng.dirichlet(np.ones(9)))
        bound = pm.nu2_bound(ch)
        assert nu_p(ch.channel, 2, OptimizerOptions(restarts=4, tol=1e-12, seed=i)).value <= bound + 1e-9
        lam = pm.lambda_spectrum(ch)
        m_star = 1 + int(np.argmax(np.abs(lam[1:])))
        psi = pm.axis_states(b3, m_star)[0]
        attained = schatten_norm(chn.apply(ch.channel, np.outer(psi, psi.conj())), 2)
        assert abs(bound - attained) < 1e-9


def test_majorization_bound_qc_weights():
    # QC-type weights a_{jk} = a_j: beta_j = d a_j and the bound is attained.
    b3 = pm.build_basis(3)
    a = np.array([0.5, 0.3, 0.2])
    w = np.repeat(a, 3) / 3
    w = w / w.sum()
    ch = pm.pauli_channel(b3, w)
    mb = pm.majorization_bound(ch, 2)
    assert np.abs(mb.beta - np.array([0.5, 0.3, 0.2])).max() < 1e-12
    assert not mb.ambiguous
    assert mb.identity_block_is_subgroup
    for p in (2, 3, math.inf):
        bound = pm.majorization_bound(ch, p).bound
        val = nu_p(ch.channel, p, OPTS).value
        assert abs(val - bound) < 1e-9


def test_majorization_bound_depolarizing():
    b2 = pm.build_basis(2)
    ch = pm.pauli_channel(b2, pm.depolarizing_weights(2, 0.5))
    mb = pm.majorization_bound(ch, math.inf)
    assert abs(mb.beta[0] - 0.75) < 1e-12
    val = nu_p(ch.channel, math.inf, OPTS).value
    assert abs(mb.bound - val) < 1e-9  # attained for the single channel

    # Product channel in the product Pauli basis: the bound strictly exceeds.
    pb = pm.product_basis(b2, b2)
    w12 = np.kron(ch.weights, ch.weights)
    ch12 = pm.pauli_channel(pb, w12)
    mb12 = pm.majorization_bound(ch12, math.inf)
    assert abs(mb12.beta[0] - (0.625**2 + 3 * 0.625 * 0.125)) < 1e-12
    val12 = nu_p(ch12.channel, math.inf, OPTS).value
    assert mb12.bound - val12 > 1e-3


def test_norm_formulas_do_not_underflow_at_large_p():
    # Every beta_j (or output eigenvalue) is below 1, so beta_j^p underflows
    # to 0 without scaling; the bounds must still land on nu_inf.
    ch = pm.pauli_channel(pm.build_basis(3), pm.depolarizing_weights(3, 0.5))
    assert abs(pm.majorization_bound(ch, 2000).bound - 2 / 3) < 1e-12
    assert abs(pm.qubit_nu_p_closed_form([0.7, 0.1, 0.1, 0.1], 5000) - 0.8) < 1e-12


def test_majorization_bound_refuses_p_below_one_and_nan():
    # The bound was 1.8 at p = 0.5 and nan at p = nan on this channel.
    ch = pm.pauli_channel(pm.build_basis(2), np.array([0.7, 0.1, 0.1, 0.1]))
    for p in (0.5, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="p must be at least 1"):
            pm.majorization_bound(ch, p)
    assert abs(pm.majorization_bound(ch, 1).bound - 1.0) < 1e-15


def test_majorization_bound_ambiguity_flag():
    b2 = pm.build_basis(2)
    mb = pm.majorization_bound(pm.pauli_channel(b2, pm.depolarizing_weights(2, 0.5)), 2)
    assert mb.ambiguous and mb.identity_block_is_subgroup is None
    mb = pm.majorization_bound(pm.pauli_channel(b2, np.array([0.4, 0.3, 0.2, 0.1])), 2)
    assert not mb.ambiguous


def test_p_infty_certificates():
    b3 = pm.build_basis(3)
    a = np.array([0.55, 0.3, 0.15])
    w = np.repeat(a, 3) / 3
    w /= w.sum()
    ch = pm.pauli_channel(b3, w)
    cert = pm.p_infty_multiplicativity_check(ch, 2)
    assert cert.subgroup_ok and cert.inequality_ok and cert.certified
    v1 = nu_p(ch.channel, math.inf, OPTS).value
    v2 = nu_p(chn.tensor(ch.channel, ch.channel), math.inf, OPTS).value
    assert abs(v2 - v1 * v1) < 1e-6

    rng = rng_from_seed(14)
    generic = pm.pauli_channel(b3, rng.dirichlet(np.ones(9)))
    assert not pm.p_infty_multiplicativity_check(generic, 2).certified


def test_classify_product_or_me():
    b2 = pm.build_basis(2)
    pb = pm.product_basis(b2, b2)
    a = pm.axis_states(b2, 1)[0]
    b = pm.axis_states(b2, 2)[1]
    res = pm.classify_product_or_me(pb, np.kron(a, b))
    assert res.d2_decomposable and res.klass == "product"

    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    res = pm.classify_product_or_me(pb, bell)
    assert res.d2_decomposable and res.klass == "maximally_entangled"

    rng = rng_from_seed(15)
    res = pm.classify_product_or_me(pb, haar_state(4, rng))
    assert not res.d2_decomposable and res.klass == "other"

    with pytest.raises(ValueError):
        pm.classify_product_or_me(b2, haar_state(2, rng))


def test_decomposability_is_basis_dependent():
    # The Bell state (1,0,0,1)/sqrt(2) decomposes in the 2x2 product basis
    # but not in the d=4 generalized Pauli basis, so decomposability is a
    # property of the basis, not the state.  The product state (1,0,1,0)
    # decomposes in both (its image factors across the tensor product).
    b4 = pm.build_basis(4)
    b2 = pm.build_basis(2)
    pb = pm.product_basis(b2, b2)
    v1 = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    v2 = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    img = lambda basis, v: pm.noisy_conjugate_image(basis, np.outer(v, v.conj()))
    assert pm.is_decomposable(img(b4, v1)).decomposable
    assert pm.is_decomposable(img(pb, v1)).decomposable
    assert not pm.is_decomposable(img(b4, v2)).decomposable
    assert pm.is_decomposable(img(pb, v2)).decomposable


def test_holevo_capacity():
    b2 = pm.build_basis(2)
    noisy = pm.pauli_channel(b2, pm.noisy_weights(2))
    assert abs(pm.holevo_capacity_weyl(noisy, OPTS)) < 1e-8

    ident = pm.pauli_channel(b2, pm.identity_weights(2))
    assert abs(pm.holevo_capacity_weyl(ident, OPTS) - 1.0) < 1e-8

    dep = pm.pauli_channel(b2, pm.depolarizing_weights(2, 0.5))
    want = 1.0 + 0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)
    assert abs(pm.holevo_capacity_weyl(dep, OPTS) - want) < 1e-8
    assert abs(want - 0.18872187554086717) < 1e-12

    with pytest.raises(TypeError):
        pm.holevo_capacity_weyl(dep.channel, OPTS)


def test_pauli_conjugate_composition_law():
    rng = rng_from_seed(16)
    for d in (2, 3):
        b = pm.build_basis(d)
        w = rng.dirichlet(np.ones(d * d)) + 1e-3
        w /= w.sum()
        ch = pm.pauli_channel(b, w)
        rho = random_density(d, rng)
        gamma = pm.noisy_conjugate_image(b, rho)
        sqa = np.diag(np.sqrt(ch.weights))
        assert np.abs(chn.apply(conjugate_kraus(ch.channel), rho) - d * d * sqa @ gamma @ sqa).max() < 1e-12


def test_noisy_image_norm_identity():
    rng = rng_from_seed(17)
    for d in (2, 3):
        ch = pm.pauli_channel(pm.build_basis(d), rng.dirichlet(np.ones(d * d)))
        for p in (1.5, 2, 3):
            assert pm.noisy_image_norm_identity_residual(ch, haar_state(d, rng), p) < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3, 4, 5]))
def test_noisy_image_properties_hold_for_random_pure_states(seed, d):
    rng = rng_from_seed(seed)
    basis = pm.build_basis(d)
    psi = haar_state(d, rng)
    gamma = pm.noisy_conjugate_image(basis, np.outer(psi, psi.conj()))
    checks = pm.nc_image_checks(basis, gamma)
    assert checks.projector < 1e-10
    assert checks.diagonal < 1e-10
    assert checks.modulus < 1e-10
    assert checks.doubly_stochastic < 1e-10
