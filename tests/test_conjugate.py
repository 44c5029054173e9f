import numpy as np
import pytest

from qcc import channel as chn
from qcc import conjugate as conj
from qcc import linalg
from qcc.channel import KrausChannel
from qcc.linalg import dagger, frobenius, partial_trace
from qcc.pauli import build_basis, depolarizing_weights, pauli_channel
from qcc.purity import spectrum_pair_check
from qcc.random import haar_state, haar_unitary, random_density, random_kraus_operators, rng_from_seed

PAULIS = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def random_channel(rng, d_in, d_out, n):
    return KrausChannel(d_in=d_in, d_out=d_out, kraus=random_kraus_operators(d_in, d_out, n, rng))


def test_conjugate_of_identity_is_trace_map():
    ch = chn.identity_channel(3)
    cc = conj.conjugate_kraus(ch)
    assert cc.d_out == 1 and cc.n_kraus == 3
    rho = random_density(3, rng_from_seed(0))
    assert np.abs(chn.apply(cc, rho) - np.array([[1.0]])).max() < 1e-14


def test_conjugate_shape_law_and_cpt():
    rng = rng_from_seed(1)
    for _ in range(10):
        ch = random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 6)))
        cc = conj.conjugate_kraus(ch)
        assert cc.n_kraus == ch.d_out
        assert cc.d_out == ch.n_kraus
        assert chn.validate_cpt(cc).tp_ok


def test_qubit_pauli_conjugate_matches_displayed_form():
    # In the (I, sx, sy, sz) ordering the noisy-conjugate entries follow the
    # displayed 4x4 pattern in the Bloch components of the input.
    rng = rng_from_seed(2)
    w = np.concatenate([[1.0], rng.uniform(-0.3, 0.3, 3)])
    rho = sum(w[k] * PAULIS[k] for k in range(4)) / 2
    pattern = np.array(
        [
            [w[0], w[1], w[2], w[3]],
            [w[1], w[0], -1j * w[3], 1j * w[2]],
            [w[2], 1j * w[3], w[0], -1j * w[1]],
            [w[3], -1j * w[2], 1j * w[1], w[0]],
        ]
    )
    gamma = np.array(
        [[np.trace(PAULIS[m] @ rho @ PAULIS[n]) for n in range(4)] for m in range(4)]
    )
    assert np.abs(gamma - pattern).max() < 1e-13

    # The Pauli-channel conjugate is then sqrt(A) (4 N^C) sqrt(A) for any
    # weight vector, which the Kraus swap must reproduce.
    a = rng.dirichlet(np.ones(4))
    sqa = np.diag(np.sqrt(a))
    kraus = np.stack([np.sqrt(a[k]) * PAULIS[k] for k in range(4)])
    ch = KrausChannel(d_in=2, d_out=2, kraus=kraus)
    assert np.abs(chn.apply(conj.conjugate_kraus(ch), rho) - sqa @ pattern @ sqa).max() < 1e-13


def test_conjugate_of_cq_channel_is_schur_multiplier():
    rng = rng_from_seed(3)
    u = haar_unitary(3, rng)
    xs = [haar_state(2, rng) for _ in range(3)]
    kraus = np.stack([np.outer(x, u[:, k].conj()) for k, x in enumerate(xs)])
    ch = KrausChannel(d_in=3, d_out=2, kraus=kraus)
    gram = np.array([[np.vdot(xk, xj) for xk in xs] for xj in xs])
    rho = random_density(3, rng)
    rho_w = dagger(u) @ rho @ u  # matrix of rho in the w basis
    assert np.abs(chn.apply(conj.conjugate_kraus(ch), rho) - gram * rho_w).max() < 1e-13


def test_conjugate_choi_of_unitary_channel():
    rng = rng_from_seed(4)
    ch = KrausChannel.from_operators([haar_unitary(3, rng)])
    gamma_ac = conj.conjugate_choi(chn.kraus_to_choi(ch))
    assert gamma_ac.d_out == 1
    assert np.abs(gamma_ac.gamma - np.eye(3) / 3).max() < 1e-12


def test_conjugate_choi_matches_kraus_route_up_to_isometry():
    rng = rng_from_seed(5)
    for _ in range(5):
        ch = random_channel(rng, 2, 2, 3)
        via_choi = chn.choi_to_kraus(conj.conjugate_choi(chn.kraus_to_choi(ch)))
        via_kraus = conj.conjugate_kraus(ch)
        rel = conj.find_relating_isometry(via_choi, via_kraus)
        assert rel.residual < 1e-8
        wtw = dagger(rel.w) @ rel.w
        assert frobenius(wtw @ wtw - wtw) < 1e-8


def test_conjugate_choi_noisy_marginal_and_rank():
    noisy = pauli_channel(build_basis(2), np.full(4, 0.25)).channel
    gamma_ab = chn.kraus_to_choi(noisy)
    gamma_ac = conj.conjugate_choi(gamma_ab)
    kappa = chn.kraus_rank(noisy)
    eigs = np.linalg.eigvalsh(gamma_ac.gamma)
    rank = int((eigs > 1e-10 * eigs.max()).sum())
    assert rank <= 2 * kappa
    marg = partial_trace(gamma_ac.gamma, (2, gamma_ac.d_out), "A")
    assert abs(np.trace(marg) - 1.0) < 1e-12
    assert frobenius(gamma_ac.input_marginal() - np.eye(2) / 2) < 1e-12


def test_conjugate_choi_refuses_an_oversized_rank_before_building_a_basis(monkeypatch):
    # Depolarizing d = 11 has Choi rank 121, so d_in * kappa = 1331 > 1024,
    # and its kept spectrum holds a 120-fold degenerate eigenspace.
    dep = pauli_channel(build_basis(11), depolarizing_weights(11, 0.5)).channel
    choi = chn.kraus_to_choi(dep)
    calls = []
    inner = linalg._canonical_subspace_basis
    monkeypatch.setattr(
        linalg, "_canonical_subspace_basis", lambda block: calls.append(block.shape) or inner(block)
    )
    with pytest.raises(ValueError) as info:
        conj.conjugate_choi(choi)
    assert str(info.value) == (
        "the conjugate's Choi matrix has dimension d_in * kappa = 1331, "
        "which exceeds the supported size (1024)"
    )
    assert calls == []
    # The eigenspace is canonicalized when the route goes ahead.
    chn.choi_eigenpairs(choi)
    assert calls == [(121, 120)]


def test_conjugate_ancilla_exactly_matches_kraus_swap():
    rng = rng_from_seed(6)
    ch = random_channel(rng, 2, 3, 4)
    rep = chn.kraus_to_ancilla(ch)
    assert np.abs(conj.conjugate_ancilla(rep).kraus - conj.conjugate_kraus(ch).kraus).max() == 0.0


def test_conjugate_ancilla_env_one_is_trace_map():
    rng = rng_from_seed(7)
    u = haar_unitary(2, rng)
    rep = chn.kraus_to_ancilla(KrausChannel.from_operators([u]))
    cc = conj.conjugate_ancilla(rep)
    rho = random_density(2, rng)
    assert np.abs(chn.apply(cc, rho) - np.array([[1.0]])).max() < 1e-13


def test_spectrum_law_on_random_channels():
    rng = rng_from_seed(8)
    worst = 0.0
    for _ in range(50):
        d_in, d_out = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        lo = max(1, -(-d_in // d_out))
        ch = random_channel(rng, d_in, d_out, int(rng.integers(lo, 7)))
        for _ in range(3):
            _, _, dev = spectrum_pair_check(ch, haar_state(ch.d_in, rng))
            worst = max(worst, dev)
    assert worst < 1e-9


def test_find_relating_isometry_identity_case():
    rng = rng_from_seed(9)
    ch = random_channel(rng, 2, 3, 3)
    cc = conj.conjugate_kraus(ch)
    rel = conj.find_relating_isometry(cc, cc)
    assert rel.residual < 1e-10
    # Any solution acts as the identity on the conjugate outputs.
    rho = random_density(2, rng)
    out = chn.apply(cc, rho)
    assert np.abs(rel.w @ out @ dagger(rel.w) - out).max() < 1e-10


def test_find_relating_isometry_recovers_unitary_mixing():
    rng = rng_from_seed(10)
    ch = random_channel(rng, 2, 3, 3)
    u = haar_unitary(3, rng)
    mixed_ops = np.einsum("jk,kab->jab", u, ch.kraus)
    mixed = KrausChannel(d_in=2, d_out=3, kraus=mixed_ops)
    rel = conj.find_relating_isometry(conj.conjugate_kraus(mixed), conj.conjugate_kraus(ch))
    assert rel.residual < 1e-8
    assert rel.rank == chn.kraus_rank(ch)


def test_double_conjugation_returns_original_up_to_isometry():
    rng = rng_from_seed(11)
    for _ in range(5):
        ch = random_channel(rng, 2, 3, 3)
        double = conj.conjugate_kraus(conj.conjugate_kraus(ch))
        rel = conj.find_relating_isometry(double, ch)
        assert rel.residual < 1e-8


def test_find_relating_isometry_rejects_unrelated_channels():
    rng = rng_from_seed(12)
    a = conj.conjugate_kraus(random_channel(rng, 2, 3, 3))
    b = conj.conjugate_kraus(random_channel(rng, 2, 3, 3))
    with pytest.raises(conj.NotConjugateError):
        conj.find_relating_isometry(a, b)
    with pytest.raises(ValueError, match="different input dimensions"):
        conj.find_relating_isometry(a, random_channel(rng, 3, 2, 3))


def test_tensor_compatibility_of_conjugates():
    rng = rng_from_seed(13)
    c1 = random_channel(rng, 2, 2, 2)
    c2 = random_channel(rng, 2, 2, 3)
    left = conj.conjugate_kraus(chn.tensor(c1, c2))
    right = chn.tensor(conj.conjugate_kraus(c1), conj.conjugate_kraus(c2))
    rel = conj.find_relating_isometry(left, right)
    assert rel.residual < 1e-8


def test_conjugate_channel_method_dispatch():
    rng = rng_from_seed(14)
    ch = random_channel(rng, 2, 2, 3)
    for method in ("kraus", "choi", "ancilla"):
        cc = conj.conjugate_channel(ch, method)
        assert chn.validate_cpt(cc).tp_ok
    with pytest.raises(ValueError):
        conj.conjugate_channel(ch, "nope")


def mixed_and_rotated(ch, rng):
    """``ch`` with its Kraus list mixed by one Haar unitary and its output
    rotated by another: the same channel up to a unitary on the output."""
    u, v = haar_unitary(ch.n_kraus, rng), haar_unitary(ch.d_out, rng)
    ops = np.einsum("xa,jk,kab->jxb", v, u, ch.kraus)
    return KrausChannel(d_in=ch.d_in, d_out=ch.d_out, kraus=ops)


# (3, 3, 12): conjugate outputs 9 and 12 against 3 Kraus operators each, so
# the intertwiner runs on the Kraus-swapped pair.  (2, 6, 2): outputs 2
# against 4 and 6 Kraus operators, so it runs on the pair itself.
@pytest.mark.parametrize("shape, lifted", [((3, 3, 12), True), ((2, 6, 2), False)])
def test_find_relating_isometry_on_both_sides_of_the_rule(monkeypatch, shape, lifted):
    rng = rng_from_seed(15)
    ch = random_channel(rng, *shape)
    via_kraus = conj.conjugate_channel(ch, "kraus")
    via_choi = conj.conjugate_channel(ch, "choi")
    pairs = [(via_choi, via_kraus), (via_kraus, via_choi), (mixed_and_rotated(via_kraus, rng), via_kraus)]
    seen = []  # the output dimensions of each pair the intertwiner solves on
    inner = conj._intertwiner_candidate

    def spy(c1, c2):
        seen.append((c1.d_out, c2.d_out))
        return inner(c1, c2)

    monkeypatch.setattr(conj, "_intertwiner_candidate", spy)
    for c1, c2 in pairs:
        seen.clear()
        rel = conj.find_relating_isometry(c1, c2)
        assert rel.residual < 1e-8
        assert rel.rank == chn.kraus_rank(ch)
        wtw = dagger(rel.w) @ rel.w
        assert frobenius(wtw @ wtw - wtw) < 1e-8
        assert seen == [(c1.n_kraus, c2.n_kraus) if lifted else (c1.d_out, c2.d_out)]

    other = conj.conjugate_kraus(random_channel(rng, *shape))
    for c1, c2 in ((via_kraus, other), (other, via_choi)):
        seen.clear()
        with pytest.raises(conj.NotConjugateError):
            conj.find_relating_isometry(c1, c2)
        assert seen == [(c1.n_kraus, c2.n_kraus) if lifted else (c1.d_out, c2.d_out)]


def test_find_relating_isometry_eigensolves_only_the_smaller_system(monkeypatch):
    # The direct intertwiner for these conjugates has 25 * 25 = 625 unknowns;
    # the Kraus-swapped one has 5 * 5.
    ch = random_channel(rng_from_seed(16), 5, 5, 25)
    via_choi = conj.conjugate_channel(ch, "choi")
    via_kraus = conj.conjugate_channel(ch, "kraus")
    sizes = []
    inner = np.linalg.eigh

    def spy(m, *args, **kwargs):
        sizes.append(m.shape[-1])
        return inner(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    rel = conj.find_relating_isometry(via_choi, via_kraus)
    monkeypatch.undo()
    assert rel.residual < 1e-8 and rel.rank == 25
    assert sizes and max(sizes) <= 25


def test_find_relating_isometry_with_a_degenerate_intertwiner(monkeypatch):
    # The completely dephasing channel is its own conjugate, and every
    # diagonal matrix commutes with its outputs: the intertwiner's null space
    # has dimension 4, and a single null vector is often singular.  One of
    # the conjugate's Kraus operators is split into two halves of weight
    # 1/sqrt(2), so that 5 operators face 4 and the index-matched candidate
    # does not apply: the relation must come from the intertwiner.
    ch = KrausChannel.from_operators([np.diag(np.eye(4)[i]) for i in range(4)])
    c = conj.conjugate_kraus(ch)
    half = c.kraus[:1] / np.sqrt(2)
    split = KrausChannel(d_in=4, d_out=4, kraus=np.concatenate([half, half, c.kraus[1:]]))
    calls = []
    intertwiner = conj._intertwiner_candidate
    monkeypatch.setattr(
        conj, "_intertwiner_candidate", lambda a, b: calls.append(1) or intertwiner(a, b)
    )
    for s in range(20):
        c2 = mixed_and_rotated(split, rng_from_seed(s))
        rel = conj.find_relating_isometry(c2, c)
        assert rel.residual < 1e-8 and rel.rank == 4, s
        assert len(calls) == s + 1


def test_find_relating_isometry_refuses_oversized_systems():
    rng = rng_from_seed(17)
    # 40 x 40 = 1600 unknowns on both sides, above MAX_DIM^2 = 1024.
    a = random_channel(rng, 1, 40, 40)
    b = random_channel(rng, 1, 40, 40)
    with pytest.raises(ValueError, match="exceeds the supported size") as info:
        conj.find_relating_isometry(a, b)
    assert not isinstance(info.value, conj.NotConjugateError)
    # Conjugates of an (8, 20, 160) channel: small intertwiner systems (20 x 20
    # unknowns), but each Choi matrix of the residual check is 1280 x 1280.
    ch = random_channel(rng, 8, 20, 160)
    a, b = conj.conjugate_kraus(ch), conj.conjugate_channel(ch, "ancilla")
    with pytest.raises(ValueError, match="exceeds the supported size"):
        conj.find_relating_isometry(a, b)


def kron_matrix_unit_residual(ch1, ch2, w):
    """max_ab ||ch1(E_ab) - W ch2(E_ab) W^+||_F through np.kron(I, W)."""
    d = ch1.d_in
    g1 = chn.kraus_to_choi(ch1).gamma
    g2 = chn.kraus_to_choi(ch2).gamma
    iw = np.kron(np.eye(d), w)
    delta = d * (g1 - iw @ g2 @ dagger(iw))
    blocks = delta.reshape(d, ch1.d_out, d, ch1.d_out)
    return float(max(np.linalg.norm(blocks[a, :, b, :]) for a in range(d) for b in range(d)))


def test_matrix_unit_residual_equals_the_kron_formula_exactly():
    rng = rng_from_seed(18)
    for shape in ((3, 4, 5), (2, 2, 3), (4, 4, 16), (2, 6, 2)):
        ch = random_channel(rng, *shape)
        routes = {m: conj.conjugate_channel(ch, m) for m in ("kraus", "choi", "ancilla")}
        for a, b in (("kraus", "choi"), ("choi", "ancilla"), ("ancilla", "kraus")):
            c1, c2 = routes[a], routes[b]
            rel = conj.find_relating_isometry(c1, c2)
            generic = rng.normal(size=rel.w.shape) + 1j * rng.normal(size=rel.w.shape)
            for w in (rel.w, generic):
                got = conj._matrix_unit_residual(chn.kraus_to_choi(c1), chn.kraus_to_choi(c2), w)
                assert got == kron_matrix_unit_residual(c1, c2, w), (shape, a, b)
            assert rel.residual == kron_matrix_unit_residual(c1, c2, rel.w)


def kron_normal_matrix(c1, c2):
    """The intertwiner's normal matrix P (x) I + I (x) Q - C - C^+ through np.kron."""
    d, n1, n2 = c1.d_in, c1.d_out, c2.d_out
    a = d * c1.gamma.reshape(d, n1, d, n1).transpose(0, 2, 1, 3)
    b = d * c2.gamma.reshape(d, n2, d, n2).transpose(0, 2, 1, 3)
    a_rows = a.reshape(d * d * n1, n1)
    b_cols = b.transpose(2, 0, 1, 3).reshape(n2, d * d * n2)
    p = dagger(a_rows) @ a_rows
    q = (b_cols @ dagger(b_cols)).conj()
    c = a.conj().reshape(d * d, n1 * n1).T @ b.reshape(d * d, n2 * n2)
    c = c.reshape(n1, n1, n2, n2).transpose(1, 3, 0, 2).reshape(n1 * n2, n1 * n2)
    return np.kron(p, np.eye(n2)) + np.kron(np.eye(n1), q) - c - dagger(c)


def test_intertwiner_normal_matrix_equals_the_kron_formula_byte_for_byte():
    ch = random_channel(rng_from_seed(20), 3, 4, 5)
    routes = {m: chn.kraus_to_choi(conj.conjugate_channel(ch, m)) for m in ("kraus", "choi", "ancilla")}
    for a, b in (("kraus", "choi"), ("kraus", "ancilla"), ("choi", "ancilla")):
        got = conj._intertwiner_normal_matrix(routes[a], routes[b])
        assert got.tobytes() == kron_normal_matrix(routes[a], routes[b]).tobytes(), (a, b)


def test_find_relating_isometry_forms_each_choi_matrix_once(monkeypatch):
    # (2, 6, 2): the kraus/choi pair is related by the direct intertwiner.
    # (3, 4, 5): it is lifted from the Kraus-swapped pair, whose two Choi
    # matrices are formed too.
    calls = []
    inner = chn.kraus_to_choi
    monkeypatch.setattr(chn, "kraus_to_choi", lambda ch: calls.append(ch) or inner(ch))
    rng = rng_from_seed(19)
    for shape, expected in (((2, 6, 2), 2), ((3, 4, 5), 4)):
        ch = random_channel(rng, *shape)
        c1 = conj.conjugate_kraus(ch)
        c2 = chn.choi_to_kraus(conj.conjugate_choi(inner(ch)))
        calls.clear()
        rel = conj.find_relating_isometry(c1, c2)
        assert rel.residual < 1e-8
        assert len(calls) == expected, shape
        assert calls[:2] == [c1, c2]
