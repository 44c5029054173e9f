import itertools

import numpy as np
import pytest

from qcc import channel as chn
from qcc import gl
from qcc.channel import KrausChannel
from qcc.conjugate import conjugate_kraus
from qcc.linalg import dagger, frobenius
from qcc.random import haar_state, haar_unitary, random_density, random_kraus_operators, rng_from_seed


def random_channel(rng, d_in, d_out, n):
    return KrausChannel(d_in=d_in, d_out=d_out, kraus=random_kraus_operators(d_in, d_out, n, rng))


def theta_reference(ch, p):
    """The defining sum over all n^p Kraus index tuples, one Kronecker chain
    per tuple."""
    pairs = np.stack([[dagger(a) @ b for b in ch.kraus] for a in ch.kraus])
    dim = ch.d_in**p
    out = np.zeros((dim, dim), dtype=complex)
    for ks in itertools.product(range(ch.n_kraus), repeat=p):
        term = pairs[ks[0], ks[1 % p]]
        for i in range(1, p):
            term = np.kron(term, pairs[ks[i], ks[(i + 1) % p]])
        out += term
    return out


def cap_p(d):
    """The largest p the size cap allows on dimension d: max(d, 2)^p <= MAX_TOTAL_DIM."""
    p = 1
    while max(d, 2) ** (p + 1) <= gl.MAX_TOTAL_DIM:
        p += 1
    return p


def shift_reference(p, direction, d):
    """The shift permutation built one basis vector at a time from its digits."""
    n = d**p
    op = np.zeros((n, n))
    for src in range(n):
        digits = []
        rem = src
        for _ in range(p):
            digits.append(rem % d)
            rem //= d
        digits.reverse()  # digits[0] = k1 (major)
        rotated = digits[1:] + digits[:1] if direction == "left" else digits[-1:] + digits[:-1]
        tgt = 0
        for dig in rotated:
            tgt = tgt * d + dig
        op[tgt, src] = 1.0
    return op


@pytest.mark.parametrize("direction", ["left", "right"])
def test_shift_operator_matches_digit_loop(direction):
    for d in range(1, 5):
        for p in range(1, 5):
            assert np.array_equal(gl.shift_operator(p, direction, d), shift_reference(p, direction, d))


# (d_in, d_out, n): n < d, n > d, d_in != d_out both ways, a single operator.
THETA_SHAPES = [(3, 3, 2), (2, 2, 3), (2, 3, 2), (3, 2, 4), (4, 4, 3), (2, 2, 1)]


@pytest.mark.parametrize("shape", THETA_SHAPES, ids=["x".join(map(str, s)) for s in THETA_SHAPES])
def test_theta_matches_tuple_loop(shape):
    rng = rng_from_seed(sum(shape))
    ch = random_channel(rng, *shape)
    for c in (ch, conjugate_kraus(ch)):
        for p in (1, 2, 3, 4):
            if c.d_in**p > gl.MAX_TOTAL_DIM:
                continue
            ref = theta_reference(c, p)
            assert np.abs(gl.theta(c, p) - ref).max() < 1e-13, (c.kraus.shape, p)


def test_theta_linearizes_pure_states_at_p3_and_p4():
    # Tr Phi(psi psi^+)^p = <psi^(x p)| theta |psi^(x p)>.
    rng = rng_from_seed(7)
    for d_in, d_out, n in ((2, 3, 4), (3, 2, 3), (4, 4, 5)):
        ch = random_channel(rng, d_in, d_out, n)
        for p in (3, 4):
            th = gl.theta(ch, p)
            psi = haar_state(d_in, rng)
            big = psi
            for _ in range(p - 1):
                big = np.kron(big, psi)
            proj = np.outer(psi, psi.conj())
            assert abs(gl.power_trace(ch, proj, p) - big.conj() @ th @ big) < 1e-13


def test_gl_identities_at_the_size_cap():
    # d = 4, 16 Kraus operators, p = 4: d^p = 256, the largest supported case.
    ch = random_channel(rng_from_seed(8), 4, 4, 16)
    r1, r2 = gl.verify_gl_identity(ch, 4)
    assert r1 < 1e-10 and r2 < 1e-10


def test_shift_operator_small_cases():
    assert np.array_equal(gl.shift_operator(1, "left", 3), np.eye(3))
    swap = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            swap[b * 2 + a, a * 2 + b] = 1
    assert np.array_equal(gl.shift_operator(2, "left", 2), swap)
    l3 = gl.shift_operator(3, "left", 2)
    r3 = gl.shift_operator(3, "right", 2)
    assert np.abs(l3 @ r3 - np.eye(8)).max() == 0


def test_shift_operator_guards():
    with pytest.raises(ValueError):
        gl.shift_operator(9, "left", 2)
    with pytest.raises(ValueError):
        gl.shift_operator(2, "sideways", 2)
    with pytest.raises(ValueError):
        gl.shift_operator(3, "left", 7)  # 343 > supported total dimension


def test_gl_identities_beyond_p_4_within_the_size_cap():
    # (d_in, d_out, n, p) = (2, 2, 3, 8) and (3, 3, 3, 5), the largest p at
    # d = 2 and 3, and (1, 2, 2, 8), where d_in = 1 counts as 2.
    rng = rng_from_seed(13)
    for shape, p in (((2, 2, 3), 8), ((3, 3, 3), 5), ((1, 2, 2), 8)):
        ch = random_channel(rng, *shape)
        r1, r2 = gl.verify_gl_identity(ch, p)
        assert r1 < 1e-12 and r2 < 1e-12, (shape, p)
        om = gl.omega(ch, p)
        for _ in range(3):
            rho = random_density(ch.d_in, rng)
            assert abs(gl.power_trace(ch, rho, p) - gl.linearized_trace(om, rho, p)) < 1e-12
        for op in (gl.theta, gl.omega):
            with pytest.raises(ValueError, match="exceeds the supported size"):
                op(ch, p + 1)


def test_linearizers_reject_a_non_integer_p():
    ch = random_channel(rng_from_seed(4), 2, 2, 2)
    for p in (1.5, 2.0):
        for op in (gl.theta, gl.omega):
            with pytest.raises(ValueError, match="p must be a positive integer"):
                op(ch, p)


def test_theta_unitary_and_p1():
    rng = rng_from_seed(0)
    u = KrausChannel.from_operators([haar_unitary(2, rng)])
    assert np.abs(gl.theta(u, 3) - np.eye(8)).max() < 1e-13

    ch = random_channel(rng, 2, 3, 4)
    assert np.abs(gl.theta(ch, 1) - np.eye(2)).max() < 1e-13


def test_theta_linearizes_pure_states_only():
    rng = rng_from_seed(1)
    ch = random_channel(rng, 2, 2, 3)
    th = gl.theta(ch, 2)
    psi = haar_state(2, rng)
    proj = np.outer(psi, psi.conj())
    assert abs(gl.power_trace(ch, proj, 2) - gl.linearized_trace(th, proj, 2)) < 1e-13

    violation = 0.0
    for _ in range(20):
        rho = random_density(2, rng)
        violation = max(
            violation,
            abs(gl.power_trace(ch, rho, 2) - complex(gl.linearized_trace(th, rho, 2)).real),
        )
    assert violation > 1e-3


def test_omega_p1_and_unitary_swap():
    rng = rng_from_seed(2)
    ch = random_channel(rng, 2, 3, 4)
    assert np.abs(gl.omega(ch, 1) - np.eye(2)).max() < 1e-13

    u = haar_unitary(2, rng)
    uch = KrausChannel.from_operators([u])
    swap = gl.shift_operator(2, "left", 2)
    assert np.abs(gl.omega(uch, 2) - swap).max() < 1e-12


def test_omega_linearizes_mixed_states():
    rng = rng_from_seed(3)
    for _ in range(5):
        ch = random_channel(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)), 3)
        rho = random_density(ch.d_in, rng)
        for p in (2, 3):
            om = gl.omega(ch, p)
            val = gl.linearized_trace(om, rho, p)
            assert abs(gl.power_trace(ch, rho, p) - val) < 1e-12
            assert abs(complex(val).imag) < 1e-12


def test_gl_identities():
    rng = rng_from_seed(4)
    u = KrausChannel.from_operators([haar_unitary(2, rng)])
    r1, r2 = gl.verify_gl_identity(u, 2)
    assert r1 < 1e-13 and r2 < 1e-13

    for _ in range(5):
        ch = random_channel(rng, 2, 3, 4)
        for p in (2, 3):
            r1, r2 = gl.verify_gl_identity(ch, p)
            assert r1 < 1e-12 and r2 < 1e-12


def test_omega_from_conjugate_without_shift():
    # omega(ch) is theta of the conjugate, conjugate-transposed: the identity
    # behind computing one object from the other's Kraus list.
    rng = rng_from_seed(5)
    from qcc.conjugate import conjugate_kraus

    ch = random_channel(rng, 3, 2, 3)
    assert np.abs(gl.omega(ch, 2) - dagger(gl.theta(conjugate_kraus(ch), 2))).max() < 1e-12


def test_theta_rejects_oversized_requests():
    rng = rng_from_seed(6)
    ch = random_channel(rng, 5, 5, 2)
    with pytest.raises(ValueError):
        gl.theta(ch, 4)  # 5^4 = 625 exceeds the guard


def test_theta_times_left_shift_is_the_column_rotation_at_every_size():
    # Every (d, p) within the cap, max(d, 2)^p <= 256, on the theta of a
    # channel with generic complex Kraus operators (theta needs no TP).
    rng = rng_from_seed(9)
    for p in range(1, cap_p(1) + 1):
        d = 1
        while max(d, 2) ** p <= gl.MAX_TOTAL_DIM:
            ops = rng.normal(size=(2, 2, d)) + 1j * rng.normal(size=(2, 2, d))
            th = gl.theta(KrausChannel(d_in=d, d_out=2, kraus=ops), p)
            assert np.array_equal(
                gl._times_left_shift(th, p, d), th @ gl.shift_operator(p, "left", d)
            ), (d, p)
            d += 1


def test_verify_gl_identity_forms_no_shift_matrix(monkeypatch):
    ch = random_channel(rng_from_seed(10), 3, 2, 3)
    expected = gl.verify_gl_identity(ch, 3)
    sizes = []
    real = gl.shift_operator

    def spy(p, direction, d):
        sizes.append(d)
        return real(p, direction, d)

    monkeypatch.setattr(gl, "shift_operator", spy)
    assert gl.verify_gl_identity(ch, 3) == expected
    # omega's shift on the output factors is the only one built.
    assert sizes == [ch.d_out]


def omega_reference(ch, p):
    """omega as first written: the left-shift matrix, with the adjoint
    superoperator applied to one factor at a time through 6-axis transposes."""
    sup = chn.adjoint_superoperator(ch)
    m = gl.shift_operator(p, "left", ch.d_out).astype(complex)
    d_out, d_in = ch.d_out, ch.d_in
    for i in range(p):
        left = d_in**i  # factors below i are already converted
        right = m.shape[0] // (left * d_out)
        t = m.reshape(left, d_out, right, left, d_out, right).transpose(0, 2, 3, 5, 1, 4)
        out = t.reshape(-1, d_out * d_out) @ sup.T
        out = out.reshape(left, right, left, right, d_in, d_in).transpose(0, 4, 1, 2, 5, 3)
        m = out.reshape(left * d_in * right, left * d_in * right)
    return m


def theta_transfer_reference(ch, p):
    """theta's cyclic transfer-matrix contraction with a fresh temporary per
    closing product."""
    n, d = ch.n_kraus, ch.d_in
    stack = ch.kraus.transpose(1, 0, 2).reshape(ch.d_out, n * d)
    gram = (dagger(stack) @ stack).reshape(n, d, n, d)
    step = gram.transpose(0, 1, 3, 2).reshape(n, d * d * n)
    close = gram.transpose(2, 0, 1, 3).reshape(n, n, d * d)
    acc = np.zeros((d ** (2 * p - 2), d * d), dtype=complex)
    for k in range(n):
        t = np.eye(1, n, k)
        for _ in range(p - 1):
            t = (t @ step).reshape(-1, n)
        acc += t @ close[k]
    rows_then_cols = list(range(0, 2 * p, 2)) + list(range(1, 2 * p, 2))
    return acc.reshape((d,) * (2 * p)).transpose(rows_then_cols).reshape(d**p, d**p)


def structured_channels(d):
    """The identity, complete dephasing and the completely noisy channel."""
    units = np.eye(d * d).reshape(d * d, d, d)  # E_jk, row-major in (j, k)
    return [
        chn.identity_channel(d),
        KrausChannel(d_in=d, d_out=d, kraus=units[:: d + 1].astype(complex)),
        KrausChannel(d_in=d, d_out=d, kraus=units.astype(complex) / np.sqrt(d)),
    ]


def test_omega_and_theta_keep_their_bits_at_every_small_size():
    # Every (d_in, d_out, n) with 2 <= d_in <= 4, d_out <= 4 and n <= 5, plus
    # three structured channels, at every p inside the cap.  Bytes are
    # compared, not values, so a changed sign of zero would show.
    rng = rng_from_seed(11)
    cases = [c for d in (2, 3, 4) for c in structured_channels(d)]
    for d_in in (2, 3, 4):
        for d_out in (1, 2, 3, 4):
            for n in range(1, 6):
                if n * d_out >= d_in:
                    cases.append(random_channel(rng, d_in, d_out, n))
    for ch in cases:
        conj = conjugate_kraus(ch)
        for p in range(1, cap_p(max(ch.d_in, ch.d_out)) + 1):
            om = omega_reference(ch, p)
            th, th_conj = theta_transfer_reference(ch, p), theta_transfer_reference(conj, p)
            assert gl.omega(ch, p).tobytes() == om.tobytes(), (ch.kraus.shape, p)
            assert gl.theta(ch, p).tobytes() == th.tobytes(), (ch.kraus.shape, p)
            assert gl.theta(conj, p).tobytes() == th_conj.tobytes(), (ch.kraus.shape, p)
            assert gl.verify_gl_identity(ch, p) == (
                frobenius(om - dagger(th_conj)),
                frobenius(om - gl._times_left_shift(th, p, ch.d_in)),
            )


def test_omega_of_a_one_dimensional_input_agrees_to_rounding():
    # At d_in = 1 each factor's GEMM has one column, so BLAS takes a
    # matrix-vector kernel whose rounding depends on the operand's layout.
    rng = rng_from_seed(12)
    for d_out in (1, 2, 3, 4):
        for n in (1, 2, 5):
            ch = random_channel(rng, 1, d_out, n)
            for p in range(1, cap_p(d_out) + 1):
                assert np.abs(gl.omega(ch, p) - omega_reference(ch, p)).max() < 1e-15
