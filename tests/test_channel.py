import numpy as np
import pytest

from qcc import channel as chn
from qcc import linalg
from qcc.channel import KrausChannel
from qcc.conjugate import conjugate_kraus, find_relating_isometry
from qcc.linalg import DEFAULT_TOL, dagger, frobenius, partial_trace
from qcc.pauli import build_basis, depolarizing_weights, pauli_channel
from qcc.random import (
    haar_isometry,
    haar_unitary,
    random_density,
    random_kraus_operators,
    rng_from_seed,
)


def matrix_units(d):
    for a in range(d):
        for b in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[a, b] = 1.0
            yield unit


def random_channel(rng, d_in, d_out, n):
    return KrausChannel(d_in=d_in, d_out=d_out, kraus=random_kraus_operators(d_in, d_out, n, rng))


def test_apply_identity():
    rho = random_density(3, rng_from_seed(0))
    ch = chn.identity_channel(3)
    assert np.abs(chn.apply(ch, rho) - rho).max() < 1e-15


def test_apply_completely_noisy_both_kraus_sets():
    # Any orthogonal unitary basis scaled by 1/d gives the noisy channel, and
    # so do the matrix units scaled by 1/sqrt(d).
    rng = rng_from_seed(1)
    for d in (2, 3):
        rho = random_density(d, rng)
        pauli_ops = build_basis(d).ops / d
        ch1 = KrausChannel(d_in=d, d_out=d, kraus=pauli_ops)
        units = np.stack(list(matrix_units(d))) / np.sqrt(d)
        ch2 = KrausChannel(d_in=d, d_out=d, kraus=units)
        for ch in (ch1, ch2):
            assert np.abs(chn.apply(ch, rho) - np.eye(d) / d).max() < 1e-14


def test_apply_depolarizing_matches_direct_formula():
    rng = rng_from_seed(2)
    ch = pauli_channel(build_basis(2), depolarizing_weights(2, 0.5)).channel
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert np.abs(chn.apply(ch, rho) - np.diag([0.75, 0.25])).max() < 1e-14
    for _ in range(5):
        rho = random_density(2, rng)
        direct = 0.5 * rho + 0.5 * np.trace(rho) * np.eye(2) / 2
        assert np.abs(chn.apply(ch, rho) - direct).max() < 1e-14


def test_validate_cpt():
    assert chn.validate_cpt(chn.identity_channel(2)).tp_ok
    bad = KrausChannel.from_operators([np.eye(2) / 2])
    rep = chn.validate_cpt(bad)
    assert not rep.tp_ok and abs(rep.max_residual - 0.75) < 1e-12
    rng = rng_from_seed(3)
    ch = random_channel(rng, 3, 2, 4)
    assert chn.validate_cpt(ch).tp_ok


def test_kraus_to_choi_identity_and_noisy():
    choi = chn.kraus_to_choi(chn.identity_channel(2))
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    assert np.abs(choi.gamma - np.outer(phi, phi.conj())).max() < 1e-15

    d = 2
    noisy = pauli_channel(build_basis(d), np.full(d * d, 1 / (d * d))).channel
    got = chn.kraus_to_choi(noisy).gamma
    # Termwise: (1/d) sum_jk E_jk (x) I delta_jk / d
    want = np.zeros((4, 4), dtype=complex)
    for j in range(d):
        for k in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[j, k] = 1.0
            want += np.kron(unit, chn.apply(noisy, unit)) / d
    assert np.abs(got - want).max() < 1e-14
    assert np.abs(got - np.eye(4) / 4).max() < 1e-14


def test_choi_marginal_identity():
    rng = rng_from_seed(4)
    for _ in range(5):
        ch = random_channel(rng, 3, 2, 4)
        choi = chn.kraus_to_choi(ch)
        assert frobenius(choi.input_marginal() - np.eye(3) / 3) < 1e-12
        assert np.abs(partial_trace(choi.gamma, (3, 2), "B") - chn.apply(ch, np.eye(3) / 3)).max() < 1e-12


def test_choi_to_kraus_counts_and_round_trip():
    single = chn.choi_to_kraus(chn.kraus_to_choi(chn.identity_channel(3)))
    assert single.n_kraus == 1
    u = single.kraus[0]
    assert frobenius(u @ dagger(u) - np.eye(3)) < 1e-10

    noisy = pauli_channel(build_basis(2), np.full(4, 0.25)).channel
    assert chn.choi_to_kraus(chn.kraus_to_choi(noisy)).n_kraus == 4

    rng = rng_from_seed(5)
    for _ in range(5):
        ch = random_channel(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)), 4)
        back = chn.choi_to_kraus(chn.kraus_to_choi(ch))
        for unit in matrix_units(ch.d_in):
            assert np.abs(chn.apply(ch, unit) - chn.apply(back, unit)).max() < 1e-10


def test_choi_to_kraus_rejects_non_cp():
    gamma = np.diag([0.5, 0.5, 0.5, -0.5]) / 1.0
    bad = chn.ChoiMatrix(d_in=2, d_out=2, gamma=gamma)
    with pytest.raises(ValueError):
        chn.choi_to_kraus(bad)


def fully_canonical_eigenpairs(gamma):
    """The Choi eigenpairs with every eigenspace canonicalized, the null
    space included, and the kept columns selected afterwards."""
    w, v = np.linalg.eigh(gamma)
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    n = gamma.shape[0]
    scale = max(float(np.abs(w).max()), 1e-300)
    out = np.empty_like(v)
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(w[j] - w[i]) <= 1e-9 * scale:
            j += 1
        block = v[:, i:j]
        if j - i > 1:
            # Pivoted projection of the standard basis, in index order.
            proj = block @ dagger(block)
            basis = []
            for k in range(n):
                cand = proj[:, k].copy()
                for b in basis:
                    cand -= b * np.vdot(b, cand)
                norm = np.linalg.norm(cand)
                if norm > 1e-7:
                    basis.append(cand / norm)
                if len(basis) == j - i:
                    break
            block = np.column_stack(basis)
        block = block.copy()
        for k in range(block.shape[1]):
            col = block[:, k]
            idx = np.flatnonzero(np.abs(col) > 1e-8 * max(np.abs(col).max(), 1e-300))
            anchor = col[idx[0]] if idx.size else 1.0
            if abs(anchor) > 0:
                block[:, k] = col * (abs(anchor) / anchor)
        out[:, i:j] = block
        i = j
    keep = w > DEFAULT_TOL * scale
    return w[keep], out[:, keep]


def near_null_choi():
    """A 12 x 12 Choi matrix whose smallest kept eigenvalue, 5e-10 of the
    largest, lies within the 1e-9 degeneracy window of its 9-dimensional
    null space: that eigenspace starts above the cutoff and reaches below."""
    u = haar_unitary(12, rng_from_seed(31))
    lam = np.array([0.6, 0.4 - 5e-10, 5e-10] + [0.0] * 9)
    return chn.ChoiMatrix(d_in=3, d_out=4, gamma=(u * lam) @ dagger(u))


def eigenpair_cases():
    rng = rng_from_seed(30)
    dep3 = pauli_channel(build_basis(3), depolarizing_weights(3, 0.4)).channel
    return {
        "conjugate of (5, 5, 25)": chn.kraus_to_choi(conjugate_kraus(random_channel(rng, 5, 5, 25))),
        "conjugate of (4, 4, 16)": chn.kraus_to_choi(conjugate_kraus(random_channel(rng, 4, 4, 16))),
        "depolarizing d=3": chn.kraus_to_choi(dep3),
        "identity d=4": chn.kraus_to_choi(chn.identity_channel(4)),
        "kept eigenvalue next to the null space": near_null_choi(),
    }


@pytest.mark.parametrize("name", list(eigenpair_cases()))
def test_choi_eigenpairs_match_full_canonicalization_bit_for_bit(name):
    choi = eigenpair_cases()[name]
    lam, vecs = chn.choi_eigenpairs(choi)
    ref_lam, ref_vecs = fully_canonical_eigenpairs(choi.gamma)
    assert lam.shape == ref_lam.shape and vecs.shape == ref_vecs.shape
    assert lam.tobytes() == ref_lam.tobytes()
    assert vecs.tobytes() == ref_vecs.tobytes()
    if name == "kept eigenvalue next to the null space":
        assert vecs.shape == (12, 3)


def test_choi_eigenpairs_canonicalize_no_eigenspace_that_starts_below_the_cutoff(monkeypatch):
    seen = []
    inner = linalg._canonical_subspace_basis

    def spy(block):
        seen.append(block)
        return inner(block)

    monkeypatch.setattr(linalg, "_canonical_subspace_basis", spy)
    widths = {}
    for name, choi in eigenpair_cases().items():
        seen.clear()
        chn.choi_eigenpairs(choi)
        w = np.linalg.eigvalsh(choi.gamma)
        cutoff = DEFAULT_TOL * np.abs(w).max()
        # Each block's first column is the eigenvector the eigenspace starts at.
        assert all(np.vdot(b[:, 0], choi.gamma @ b[:, 0]).real > cutoff for b in seen), name
        widths[name] = [b.shape[1] for b in seen]
    # Only degenerate kept eigenspaces: dep3's 8-fold one, and the near-null
    # eigenvalue's, which takes the null space with it.
    assert widths == {
        "conjugate of (5, 5, 25)": [],
        "conjugate of (4, 4, 16)": [],
        "depolarizing d=3": [8],
        "identity d=4": [],
        "kept eigenvalue next to the null space": [10],
    }


def test_kraus_rank():
    rng = rng_from_seed(6)
    assert chn.kraus_rank(KrausChannel.from_operators([haar_unitary(3, rng)])) == 1
    noisy3 = pauli_channel(build_basis(3), np.full(9, 1 / 9)).channel
    assert chn.kraus_rank(noisy3) == 9
    ch = random_channel(rng, 2, 2, 3)
    padded = KrausChannel.from_operators(list(ch.kraus) + [np.zeros((2, 2))])
    assert chn.kraus_rank(padded) == chn.kraus_rank(ch)


def test_is_generalized_extreme():
    rng = rng_from_seed(20)
    unitary = KrausChannel.from_operators([haar_unitary(3, rng)])
    assert chn.is_generalized_extreme(unitary)
    two_kraus = random_channel(rng, 2, 2, 2)
    assert chn.is_generalized_extreme(two_kraus)  # quasi-extreme qubit map
    full = random_channel(rng, 2, 2, 4)
    assert not chn.is_generalized_extreme(full)
    # Conjugating reduces to the generalized-extreme class: the conjugate of
    # a full-rank channel needs only d_out operators.
    from qcc.conjugate import conjugate_kraus

    assert chn.is_generalized_extreme(conjugate_kraus(full))


def test_ancilla_representation():
    rng = rng_from_seed(7)
    u = haar_unitary(2, rng)
    rep = chn.kraus_to_ancilla(KrausChannel.from_operators([u]))
    assert rep.env_dim == 1
    assert np.abs(rep.isometry - u).max() < 1e-15

    ch = pauli_channel(build_basis(2), depolarizing_weights(2, 0.3)).channel
    rep = chn.kraus_to_ancilla(ch)
    assert rep.env_dim == 4
    v = rep.isometry
    assert frobenius(dagger(v) @ v - np.eye(2)) < 1e-12
    rho = random_density(2, rng)
    assert np.abs(chn.ancilla_apply(rep, rho) - chn.apply(ch, rho)).max() < 1e-12
    assert chn.choi_distance(chn.ancilla_to_kraus(rep), ch) < 1e-12


def _relate_kraus_sets(f: KrausChannel, g: KrausChannel):
    """The partial isometry ``W`` relating the Kraus-swapped conjugates of
    ``f`` and ``g``, and the largest entry of ``F_j - sum_k w_jk G_k``."""
    rel = find_relating_isometry(conjugate_kraus(f), conjugate_kraus(g))
    recon = np.einsum("jk,kab->jab", rel.w, g.kraus)
    return rel, float(np.abs(recon - f.kraus).max())


def test_relate_kraus_sets():
    rng = rng_from_seed(8)
    ch = random_channel(rng, 2, 3, 3)
    minimal = chn.choi_to_kraus(chn.kraus_to_choi(ch))
    self_rel, _ = _relate_kraus_sets(minimal, minimal)
    assert np.abs(self_rel.w - np.eye(minimal.n_kraus)).max() < 1e-10

    rel, residual = _relate_kraus_sets(ch, minimal)
    assert residual < 1e-10 and rel.residual < 1e-10
    wtw = dagger(rel.w) @ rel.w
    assert frobenius(wtw - np.eye(minimal.n_kraus)) < 1e-8

    # Mix the minimal list by an isometry and recover it.
    mix = haar_isometry(5, minimal.n_kraus, rng)
    mixed_ops = np.einsum("jk,kab->jab", mix, minimal.kraus)
    mixed = KrausChannel(d_in=2, d_out=3, kraus=mixed_ops)
    rel, residual = _relate_kraus_sets(mixed, minimal)
    assert residual < 1e-10 and rel.residual < 1e-10
    assert np.abs(rel.w - mix).max() < 1e-8

    padded = KrausChannel.from_operators(list(minimal.kraus) + [np.zeros((3, 2))])
    rel, residual = _relate_kraus_sets(padded, minimal)
    assert residual < 1e-10 and rel.residual < 1e-10
    assert np.abs(rel.w[-1]).max() < 1e-10


def test_relate_kraus_sets_rejects_different_channels():
    rng = rng_from_seed(9)
    a = random_channel(rng, 2, 2, 3)
    b = random_channel(rng, 2, 2, 3)
    with pytest.raises(ValueError):
        _relate_kraus_sets(a, chn.choi_to_kraus(chn.kraus_to_choi(b)))


def test_tensor_channel():
    rng = rng_from_seed(10)
    ident = chn.tensor(chn.identity_channel(2), chn.identity_channel(3))
    rho = random_density(6, rng)
    assert np.abs(chn.apply(ident, rho) - rho).max() < 1e-14

    c1 = random_channel(rng, 2, 2, 2)
    c2 = random_channel(rng, 2, 3, 2)
    r1, r2 = random_density(2, rng), random_density(2, rng)
    got = chn.apply(chn.tensor(c1, c2), np.kron(r1, r2))
    assert np.abs(got - np.kron(chn.apply(c1, r1), chn.apply(c2, r2))).max() < 1e-12


def test_choi_of_tensor_is_permuted_tensor_of_chois():
    # Index oracle: Gamma_12[(a1 a2, b1 b2), ...] = Gamma_1[(a1, b1)] (x)
    # Gamma_2[(a2, b2)] up to the interleaving permutation and a scale that
    # restores the 1/(d1 d2) normalization.
    rng = rng_from_seed(11)
    c1 = random_channel(rng, 2, 2, 2)
    c2 = random_channel(rng, 2, 2, 3)
    g12 = chn.kraus_to_choi(chn.tensor(c1, c2)).gamma
    g1 = chn.kraus_to_choi(c1).gamma
    g2 = chn.kraus_to_choi(c2).gamma
    big = np.kron(g1, g2) * 2 * 2 / 4  # undo the two 1/d factors, apply 1/(d1 d2)
    perm = np.zeros(16, dtype=int)
    for a1 in range(2):
        for b1 in range(2):
            for a2 in range(2):
                for b2 in range(2):
                    src = ((a1 * 2 + b1) * 2 + a2) * 2 + b2  # (A1 B1 A2 B2)
                    dst = ((a1 * 2 + a2) * 2 + b1) * 2 + b2  # (A1 A2 B1 B2)
                    perm[dst] = src
    assert np.abs(g12 - big[np.ix_(perm, perm)]).max() < 1e-13


def test_adjoint_apply():
    rng = rng_from_seed(12)
    u = haar_unitary(3, rng)
    uch = KrausChannel.from_operators([u])
    a = random_density(3, rng)
    assert np.abs(chn.adjoint_apply(uch, a) - dagger(u) @ a @ u).max() < 1e-13

    for _ in range(5):
        ch = random_channel(rng, 3, 2, 4)
        assert frobenius(chn.adjoint_apply(ch, np.eye(2)) - np.eye(3)) < 1e-12
        a = random_density(2, rng)
        b = random_density(3, rng)
        lhs = np.trace(dagger(chn.adjoint_apply(ch, a)) @ b)
        rhs = np.trace(dagger(a) @ chn.apply(ch, b))
        assert abs(lhs - rhs) < 1e-12


def test_kraus_channel_validation():
    with pytest.raises(ValueError):
        KrausChannel(d_in=2, d_out=2, kraus=np.zeros((0, 2, 2)))
    with pytest.raises(ValueError):
        KrausChannel(d_in=2, d_out=3, kraus=np.zeros((1, 2, 2)))
    with pytest.raises(ValueError):
        chn.apply(chn.identity_channel(2), np.eye(3))


def test_choi_and_apply_refuse_stacks_beyond_the_size_cap():
    # d_in d_out = MAX_DIM^2 = 1024 forms a 1024 x 1024 Choi matrix; more is
    # refused before anything is allocated.
    at = KrausChannel.from_operators([np.eye(512, 2)])
    assert chn.kraus_to_choi(at).gamma.shape == (1024, 1024)
    for past in (np.eye(513, 2), np.eye(1025, 1)):
        with pytest.raises(ValueError, match="exceeds the supported size"):
            chn.kraus_to_choi(KrausChannel.from_operators([past]))
    # apply sums an (n, d_out, d_out) stack: MAX_DIM^4 entries pass, more do not.
    for ops in ([np.eye(1024, 1)], [np.eye(512, 1)] * 4):
        at = KrausChannel.from_operators(ops)
        assert chn.apply(at, np.eye(1))[0, 0] == len(ops)
    for ops in ([np.eye(1025, 1)], [np.eye(513, 1)] * 4):
        with pytest.raises(ValueError, match="exceeds the supported size"):
            chn.apply(KrausChannel.from_operators(ops), np.eye(1))
