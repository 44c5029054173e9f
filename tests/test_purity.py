import math
import operator
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qcc import channel as chn
from qcc import purity
from qcc.channel import KrausChannel
from qcc.conjugate import conjugate_kraus
from qcc.linalg import pnorm
from qcc.pauli import (
    build_basis,
    depolarizing_weights,
    lambda_spectrum,
    noisy_weights,
    pauli_channel,
    qubit_nu_p_closed_form,
)
from qcc.purity import (
    OptimizerOptions,
    _Kernel,
    additivity_gap_entropy,
    multiplicativity_gap,
    nu_p,
    s_min,
    sampled_nu_p,
    spectrum_pair_check,
)
from qcc.random import (
    derived_rng,
    haar_state,
    haar_unitary,
    random_kraus_operators,
    rng_from_seed,
)

OPTS = OptimizerOptions(restarts=8, tol=1e-13, seed=0)
FAST = OptimizerOptions(restarts=4, tol=1e-12, seed=0)


def random_channel(rng, d_in, d_out, n):
    return KrausChannel(d_in=d_in, d_out=d_out, kraus=random_kraus_operators(d_in, d_out, n, rng))


def test_nu_p_identity_channel():
    ch = chn.identity_channel(3)
    for p in (1, 1.5, 2, 3, math.inf):
        rep = nu_p(ch, p, FAST)
        assert abs(rep.value - 1.0) < 1e-12
        assert rep.converged


def test_nu_p_rejects_p_below_one():
    for p in (0.9, math.nan):
        with pytest.raises(ValueError):
            nu_p(chn.identity_channel(2), p, FAST)


@pytest.mark.parametrize(
    "field, value",
    [("restarts", -3), ("tol", 0.0), ("tol", -1e-10), ("tol", math.nan), ("max_iter", 0)],
)
def test_optimizer_options_reject_out_of_range_fields(field, value):
    with pytest.raises(ValueError, match=field):
        OptimizerOptions(**{field: value})
    with pytest.raises(ValueError, match=field):
        replace(FAST, **{field: value})


def test_optimizer_needs_at_least_one_start():
    ch = chn.identity_channel(2)
    none = replace(FAST, restarts=0)
    for run in (lambda **kw: nu_p(ch, 2, none, **kw), lambda **kw: s_min(ch, none, **kw)):
        with pytest.raises(ValueError, match="at least one start"):
            run()
        rep = run(initial_states=[np.array([1.0, 1.0])])
        assert rep.restarts == 1 and rep.converged


def test_nu_p_at_huge_p_is_warning_free():
    # At p = 1e308 the stopping test's exponent overflows on every step that
    # still moves; such a step is not done, and it must not warn.
    ch = pauli_channel(build_basis(3), depolarizing_weights(3, 0.5)).channel
    rng = rng_from_seed(12)
    for c in (ch, random_channel(rng, 3, 3, 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = nu_p(c, 1e308, FAST)
            top = nu_p(c, math.inf, FAST)
        assert rep.converged
        assert abs(rep.value - top.value) < 1e-9


def test_nu_p_qubit_unital_closed_form():
    rng = rng_from_seed(1)
    for _ in range(4):
        w = rng.dirichlet(np.ones(4))
        ch = pauli_channel(build_basis(2), w).channel
        for p in (1.5, 2, 3, math.inf):
            want = qubit_nu_p_closed_form(w, p)
            assert abs(nu_p(ch, p, OPTS).value - want) < 1e-9


def test_nu_p_depolarizing_qutrit():
    # Output spectrum of the b=0.5 qutrit depolarizer is (2/3, 1/6, 1/6).
    ch = pauli_channel(build_basis(3), depolarizing_weights(3, 0.5)).channel
    want = math.sqrt((2 / 3) ** 2 + 2 * (1 / 6) ** 2)
    assert abs(want - math.sqrt(0.5)) < 1e-15
    assert abs(nu_p(ch, 2, OPTS).value - want) < 1e-9


def test_nu_p_large_p_does_not_underflow():
    # The b=0.5 qutrit depolarizer: nu_p -> lambda_max = 2/3 as p grows.
    ch = pauli_channel(build_basis(3), depolarizing_weights(3, 0.5)).channel
    for p in (1000, 2000):
        rep = nu_p(ch, p, FAST)
        assert abs(rep.value - 2 / 3) < 1e-9
        assert rep.converged


#: (d_in, d_out, n): fewer Kraus operators than output dimensions (the
#: conjugate's Gram matrix is the smaller), more, and d_in != d_out.
KERNEL_SHAPES = [(3, 4, 2), (2, 2, 5), (4, 3, 3), (3, 5, 1)]


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_kernel_matches_density_matrix_channel(shape):
    d_in, d_out, n = shape
    rng = rng_from_seed(20)
    ch = random_channel(rng, d_in, d_out, n)
    kern = _Kernel(ch)
    psi = haar_state(d_in, rng)
    sigma = chn.apply(ch, np.outer(psi, psi.conj()))
    m = kern.outputs(psi)
    assert np.abs(m.T @ m.conj() - sigma).max() < 1e-14

    # The smaller Gram matrix carries the whole nonzero output spectrum.
    w, u = kern.eigh(m)
    full = np.sort(np.linalg.eigvalsh(sigma))[-min(n, d_out):]
    assert np.abs(w - full).max() < 1e-14
    assert abs(w.sum() - 1.0) < 1e-13
    assert np.abs(kern.spectrum(psi) - w).max() == 0.0

    # Output eigenvectors from either Gram matrix rebuild sigma.
    assert np.abs(kern.output_operator(m, w, u, w) - sigma).max() < 1e-13

    x = rng.standard_normal((d_out, d_out)) + 1j * rng.standard_normal((d_out, d_out))
    x = x + x.conj().T
    assert np.abs(kern.adjoint(x) - chn.adjoint_apply(ch, x)).max() < 1e-13
    # A stack of operators.
    xs = np.stack([x, x @ x, np.eye(d_out)])
    want = np.stack([chn.adjoint_apply(ch, xi) for xi in xs])
    assert np.abs(kern.adjoint(xs) - want).max() < 1e-12

    # Gradient vectors, for h(0) = 0 and for the entropy's h(0) != 0.
    ws, vs = np.linalg.eigh(sigma)
    for h in (lambda t: t**2, lambda t: np.log(np.maximum(t, 1e-18)) + 1.0):
        want = chn.adjoint_apply(ch, (vs * h(np.clip(ws, 0, None))) @ vs.conj().T) @ psi
        got = kern.pull_back(m, u, h(w))
        assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())


#: Factor shapes for the product kernel: each factor has n < d_out in one
#: pair and n > d_out in another, d_in != d_out, or one Kraus operator, and
#: the products' Gram matrices fall on both sides (on_env True and False).
PRODUCT_SHAPES = [
    ((3, 4, 2), (2, 2, 5)),
    ((2, 2, 5), (4, 3, 3)),
    ((4, 3, 3), (3, 5, 1)),
    ((3, 5, 1), (2, 3, 2)),
    ((2, 3, 2), (3, 2, 4)),
]


def test_product_shapes_cover_both_gram_matrices():
    on_env = {n1 * n2 < o1 * o2 for (_, o1, n1), (_, o2, n2) in PRODUCT_SHAPES}
    assert on_env == {True, False}


@pytest.mark.parametrize("shapes", PRODUCT_SHAPES)
def test_product_kernel_matches_tensor_kernel(shapes):
    rng = rng_from_seed(23)
    c1, c2 = random_channel(rng, *shapes[0]), random_channel(rng, *shapes[1])
    kern = purity._ProductKernel(_Kernel(c1), _Kernel(c2))
    product = chn.tensor(c1, c2)
    ref = _Kernel(product)
    assert (kern.n, kern.d_out, kern.d_in, kern.on_env) == (ref.n, ref.d_out, ref.d_in, ref.on_env)

    psis = np.stack([haar_state(ref.d_in, rng) for _ in range(4)])
    assert np.abs(kern.outputs(psis) - ref.outputs(psis)).max() < 1e-12
    assert np.abs(kern.spectrum(psis) - ref.spectrum(psis)).max() < 1e-12

    d = ref.d_out
    xs = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
    xs = xs + purity._dag(xs)
    want = np.stack([chn.adjoint_apply(product, x) for x in xs])
    assert np.abs(kern.adjoint(xs[0]) - want[0]).max() < 1e-12
    assert np.abs(kern.adjoint(xs) - want).max() < 1e-12

    # Gradient vectors, for h(0) = 0 and for the entropy's h(0) != 0.
    psi = psis[0]
    m = kern.outputs(psi)
    w, u = kern.eigh(m)
    for h in (lambda t: t**2, lambda t: np.log(np.maximum(t, 1e-18)) + 1.0):
        assert np.abs(kern.pull_back(m, u, h(w)) - ref.pull_back(m, u, h(w))).max() < 1e-12


def test_kernels_build_the_superoperator_once_and_only_for_the_adjoint(monkeypatch):
    built = []
    real = chn.adjoint_superoperator
    monkeypatch.setattr(chn, "adjoint_superoperator", lambda ch: built.append(ch) or real(ch))
    rng = rng_from_seed(26)
    c1, c2 = random_channel(rng, 2, 3, 2), random_channel(rng, 3, 2, 4)
    k1, k2 = _Kernel(c1), _Kernel(c2)
    nu_p(c1, 1.5, FAST)
    s_min(c1, FAST)
    assert built == []
    product = purity._ProductKernel(k1, k2)
    x = np.eye(product.d_out)
    for _ in range(3):
        product.adjoint(x)
        k1.adjoint(np.eye(3))
    assert len(built) == 2 and built[0] is c1 and built[1] is c2


def test_optimizer_rejects_channels_beyond_the_size_cap():
    # One Kraus operator, an isometry from C^2 into C^600: d_in d_out = 1200.
    ch = KrausChannel.from_operators([np.eye(600, 2)])
    for run in (lambda: nu_p(ch, 2, FAST), lambda: s_min(ch, FAST)):
        with pytest.raises(ValueError, match="exceeds the optimizer's supported size"):
            run()
    # At the cap itself the kernel builds.
    assert _Kernel(KrausChannel.from_operators([np.eye(512, 2)])).d_out == 512


def test_gap_product_is_not_rerun_for_a_gain_within_tolerance():
    # A fake run whose re-seeded single runs gain one ulp: rounding, not a
    # better optimum, so the product must run once only.
    rng = rng_from_seed(27)
    c1, c2 = random_channel(rng, 2, 2, 2), random_channel(rng, 3, 2, 3)
    runs = []

    def run(kern, opts, initial_states=()):
        runs.append(kern)
        value = 0.5
        if initial_states and not isinstance(kern, purity._ProductKernel):
            value = float(np.nextafter(value, 1.0))
        state = np.zeros(kern.d_in, dtype=complex)
        state[0] = 1.0
        return purity.PurityReport(value, state, 2.0, 1, True, 1)

    s1, s2, _ = purity._gap_reports(run, c1, c2, FAST, operator.gt)
    assert s1.value > 0.5 and s2.value > 0.5
    assert sum(isinstance(k, purity._ProductKernel) for k in runs) == 1

    # A gain beyond the tolerance does rerun the product.
    runs.clear()
    gain = 10 * FAST.tol

    def run_gaining(kern, opts, initial_states=()):
        rep = run(kern, opts, initial_states)
        if initial_states and not isinstance(kern, purity._ProductKernel):
            rep = replace(rep, value=0.5 + gain)
        return rep

    purity._gap_reports(run_gaining, c1, c2, FAST, operator.gt)
    assert sum(isinstance(k, purity._ProductKernel) for k in runs) == 2


def test_gaps_never_build_the_product_stack(monkeypatch):
    def refuse(*args):
        raise AssertionError("channel.tensor called")

    monkeypatch.setattr(chn, "tensor", refuse)
    rng = rng_from_seed(24)
    c1, c2 = random_channel(rng, 2, 3, 2), random_channel(rng, 3, 2, 4)
    assert multiplicativity_gap(c1, c2, 2, FAST).gap > -1e-8
    assert additivity_gap_entropy(c1, c2, FAST).gap > -1e-8


def test_product_of_dimension_25():
    # A random d = 5, 25-Kraus channel against itself: 625 Kraus operators
    # of size 25 x 25 if the product were formed.
    ch = random_channel(derived_rng(25, 0), 5, 5, 25)
    gap = multiplicativity_gap(ch, ch, 2, OptimizerOptions(restarts=2, seed=0))
    assert gap.gap >= -1e-8
    psi = gap.report_12.optimizer_state
    m = np.einsum("iab,bc,jdc->ijad", ch.kraus, psi.reshape(5, 5), ch.kraus).reshape(625, 25)
    sigma = m.T @ m.conj()
    want = np.sqrt((np.clip(np.linalg.eigvalsh(sigma), 0, None) ** 2).sum())
    assert abs(gap.report_12.value - want) < 1e-9


def werner_holevo(d: int = 3) -> KrausChannel:
    """``Phi(rho) = (I - rho^T) / (d - 1)``, Kraus operators
    ``(|i><j| - |j><i|) / sqrt(d - 1)`` for i < j."""
    ops = []
    for i in range(d):
        for j in range(i + 1, d):
            k = np.zeros((d, d))
            k[i, j], k[j, i] = 1.0, -1.0
            ops.append(k / math.sqrt(d - 1))
    return KrausChannel.from_operators(ops)


def test_werner_holevo_gap_is_detected_and_matches_conjugates():
    # Positive control: the d = 3 Werner-Holevo channel is multiplicative
    # for p <= 4 and not for p > 4.79, where the maximally entangled input
    # beats every product state.  The paper's corollary makes the gap the
    # same for the channel, its conjugate and the mixed pair.
    wh = werner_holevo()
    cc = conjugate_kraus(wh)
    omega = np.eye(3).reshape(-1) / math.sqrt(3)
    sigma = chn.apply(chn.tensor(wh, wh), np.outer(omega, omega))
    entangled = np.clip(np.linalg.eigvalsh(sigma), 0, None)
    for p, floor in ((2, None), (4, None), (5, 3.9e-3), (8, 3.5e-2)):
        g = multiplicativity_gap(wh, wh, p)
        if floor is None:
            assert abs(g.gap) <= 1e-10
        else:
            assert g.gap >= floor
            assert g.witness_state is not None
            assert abs(g.lhs - pnorm(entangled, p)) <= 1e-10
        for c1, c2 in ((cc, cc), (wh, cc)):
            assert abs(multiplicativity_gap(c1, c2, p).gap - g.gap) <= 1e-10
    assert abs(additivity_gap_entropy(wh, wh).gap) <= 1e-10


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_batched_fixed_point_matches_one_restart_at_a_time(shape):
    d_in, d_out, n = shape
    rng = rng_from_seed(21)
    ch = random_channel(rng, d_in, d_out, n)
    opts = OptimizerOptions(restarts=6, tol=1e-12, seed=3)
    one = replace(opts, restarts=0)
    for p in (2, 3, math.inf):
        batched = nu_p(ch, p, opts).value
        single = max(
            nu_p(ch, p, one, initial_states=[haar_state(d_in, derived_rng(opts.seed, r))]).value
            for r in range(opts.restarts)
        )
        assert abs(batched - single) < 1e-12


def test_haar_starts_are_the_explicit_rows_and_read_only():
    for d, seed, count in ((2, 0, 1), (3, 7, 5), (6, 11, 32), (4, 1, 0)):
        stack = purity._haar_starts(d, seed, count)
        want = [haar_state(d, derived_rng(seed, r)) for r in range(count)]
        want = np.array([s / np.linalg.norm(s) for s in want]).reshape(count, d)
        assert stack.shape == (count, d)
        assert np.array_equal(stack, want)
        assert purity._haar_starts(d, seed, count) is stack
        with pytest.raises(ValueError):
            stack[...] = 0


def test_reports_are_the_same_from_a_cold_and_a_warm_start_cache():
    rng = rng_from_seed(22)
    ch = random_channel(rng, 3, 4, 2)
    c1, c2 = random_channel(rng, 2, 2, 3), random_channel(rng, 2, 3, 2)

    def gap():
        g = multiplicativity_gap(c1, c2, 2, FAST)
        return [g.report_1, g.report_2, g.report_12]

    for run in (lambda: [nu_p(ch, 2, OPTS)], lambda: [s_min(ch, FAST)], gap):
        purity._haar_starts.cache_clear()
        cold = run()
        hits = purity._haar_starts.cache_info().hits
        warm = run()
        assert purity._haar_starts.cache_info().hits > hits
        for a, b in zip(cold, warm, strict=True):
            assert (a.value, a.iterations, a.restarts) == (b.value, b.iterations, b.restarts)
            assert np.array_equal(a.optimizer_state, b.optimizer_state)


def test_gradient_engine_qubit_converges_in_few_iterations():
    # A unital qubit channel V K U: S_min is the entropy of ((1 + l)/2, (1 - l)/2),
    # l the largest Bloch contraction.  Stepping along the raw gradient took
    # 177 to 277 iterations here, and stopped 4.4e-13 short.
    w = np.array([0.25, 0.02, 0.65, 0.08])
    pc = pauli_channel(build_basis(2), w)
    lam = np.abs(lambda_spectrum(pc)[1:]).max()
    hi, lo = (1 + lam) / 2, (1 - lam) / 2
    want = -(hi * math.log2(hi) + lo * math.log2(lo))
    for seed in range(6):
        rng = rng_from_seed(seed)
        v, u = haar_unitary(2, rng), haar_unitary(2, rng)
        ch = KrausChannel(d_in=2, d_out=2, kraus=v @ pc.channel.kraus @ u)
        rep = s_min(ch, OptimizerOptions(restarts=1, tol=1e-13, seed=seed))
        assert rep.converged
        assert rep.iterations <= 50
        assert abs(rep.value - want) <= 1e-13


def test_gradient_engine_product_converges_in_few_iterations():
    # dep3 (x) dep3: with steps along the raw gradient, the product report
    # summed 53 to 56 iterations over its five starts at these seeds.
    dep = pauli_channel(build_basis(3), depolarizing_weights(3, 0.4)).channel
    for seed in range(6):
        rep = additivity_gap_entropy(dep, dep, OptimizerOptions(restarts=4, seed=seed))
        assert rep.report_12.iterations <= 40
        assert abs(rep.gap) < 1e-8


def test_gradient_engine_never_descends_from_its_start():
    rng = rng_from_seed(22)
    one = OptimizerOptions(restarts=0, tol=1e-12)
    for shape in ((2, 3, 3), (3, 3, 2), (3, 4, 5)):
        ch = random_channel(rng, *shape)
        kern = _Kernel(ch)
        for _ in range(3):
            psi = haar_state(ch.d_in, rng)
            w = kern.spectrum(psi)
            rep = nu_p(ch, 1.5, one, initial_states=[psi])
            assert rep.value >= pnorm(w, 1.5)
            rep = s_min(ch, one, base=math.e, initial_states=[psi])
            assert rep.value <= purity._entropy_nat(w)


def test_nu_p_value_matches_state():
    rng = rng_from_seed(2)
    ch = random_channel(rng, 2, 3, 3)
    rep = nu_p(ch, 2.5, OPTS)
    psi = rep.optimizer_state
    sigma = chn.apply(ch, np.outer(psi, psi.conj()))
    direct = float((np.clip(np.linalg.eigvalsh(sigma), 0, None) ** 2.5).sum() ** (1 / 2.5))
    assert abs(rep.value - direct) < 1e-10


def test_nu_p_non_increasing_in_p():
    rng = rng_from_seed(3)
    ch = random_channel(rng, 2, 3, 3)
    vals = [nu_p(ch, p, OPTS).value for p in (1, 1.5, 2, 3, math.inf)]
    for lo, hi in zip(vals[1:], vals):
        assert lo <= hi + 1e-9


def test_s_min_closed_cases():
    rng = rng_from_seed(4)
    unitary = KrausChannel.from_operators([haar_unitary(3, rng)])
    assert abs(s_min(unitary, FAST).value) < 1e-9

    noisy = pauli_channel(build_basis(3), noisy_weights(3)).channel
    assert abs(s_min(noisy, FAST).value - math.log2(3)) < 1e-9

    dep = pauli_channel(build_basis(2), depolarizing_weights(2, 0.5)).channel
    want = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert abs(s_min(dep, OPTS).value - want) < 1e-9
    assert abs(s_min(dep, OPTS, base=math.e).value - want * math.log(2)) < 1e-9


def test_nu_p_and_s_min_agree_with_conjugate():
    rng = rng_from_seed(5)
    for _ in range(3):
        ch = random_channel(rng, 2, 2, 3)
        cc = conjugate_kraus(ch)
        for p in (1.5, 2, math.inf):
            assert abs(nu_p(ch, p, OPTS).value - nu_p(cc, p, OPTS).value) < 1e-8
        assert abs(s_min(ch, OPTS).value - s_min(cc, OPTS).value) < 1e-8


def test_spectrum_pair_check_cases():
    rng = rng_from_seed(6)
    unitary = KrausChannel.from_operators([haar_unitary(2, rng)])
    sa, sb, dev = spectrum_pair_check(unitary, haar_state(2, rng))
    assert len(sa) == 1 and len(sb) == 1 and dev < 1e-12

    noisy = pauli_channel(build_basis(3), noisy_weights(3)).channel
    sa, sb, dev = spectrum_pair_check(noisy, haar_state(3, rng))
    assert np.abs(sa.values - 1 / 3).max() < 1e-12
    assert len(sb) == 3 and dev < 1e-12

    ch = random_channel(rng, 3, 4, 5)
    _, _, dev = spectrum_pair_check(ch, haar_state(3, rng))
    assert dev < 1e-9


def test_multiplicativity_gap_identity_pair():
    gap = multiplicativity_gap(chn.identity_channel(2), chn.identity_channel(2), 2, FAST)
    assert abs(gap.gap) < 1e-10
    assert gap.witness_state is None


def test_multiplicativity_gap_depolarizing_pair():
    ch = pauli_channel(build_basis(2), depolarizing_weights(2, 0.5)).channel
    gap = multiplicativity_gap(ch, ch, 2, OPTS)
    assert abs(gap.gap) < 1e-6
    assert gap.gap > -1e-8


def test_multiplicativity_gap_no_false_gap_from_missed_single_optimum():
    # With two restarts these seeds leave the single-channel nu_2 below the
    # optimum that the product run finds; without re-seeding the single runs
    # from the product state's Schmidt factors the gap read 0.045.
    ch = KrausChannel(d_in=4, d_out=4, kraus=random_kraus_operators(4, 4, 16, derived_rng(1, 0)))
    for seed in (1, 2):
        gap = multiplicativity_gap(ch, ch, 2, OptimizerOptions(restarts=2, seed=seed))
        assert abs(gap.gap) < 1e-8
        assert gap.witness_state is None


def test_additivity_gap_no_false_gap_from_missed_single_optimum():
    # With one restart S_min of these channels stays above the optimum that
    # the product run finds; without re-seeding the gaps read 0.035 and 0.049.
    for shape, tag, seed in (((2, 2, 4), 10, 1), ((3, 3, 3), 3, 0)):
        kraus = random_kraus_operators(*shape, derived_rng(2, tag))
        ch = KrausChannel(d_in=shape[0], d_out=shape[1], kraus=kraus)
        rep = additivity_gap_entropy(ch, ch, OptimizerOptions(restarts=1, seed=seed))
        assert abs(rep.gap) < 1e-8


def test_multiplicativity_gap_matches_conjugate_pair():
    rng = rng_from_seed(7)
    c1 = random_channel(rng, 2, 2, 2)
    c2 = random_channel(rng, 2, 2, 2)
    g = multiplicativity_gap(c1, c2, 2, OPTS)
    gc = multiplicativity_gap(conjugate_kraus(c1), conjugate_kraus(c2), 2, OPTS)
    assert abs(g.gap - gc.gap) < 1e-6


def test_additivity_gap_entropy():
    rng = rng_from_seed(8)
    u1 = KrausChannel.from_operators([haar_unitary(2, rng)])
    u2 = KrausChannel.from_operators([haar_unitary(2, rng)])
    rep = additivity_gap_entropy(u1, u2, FAST)
    assert abs(rep.gap) < 1e-8

    noisy = pauli_channel(build_basis(2), noisy_weights(2)).channel
    rep = additivity_gap_entropy(noisy, noisy, FAST)
    assert abs(rep.lhs - 2.0) < 1e-8 and abs(rep.gap) < 1e-8

    w1, w2 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
    p1 = pauli_channel(build_basis(2), w1).channel
    p2 = pauli_channel(build_basis(2), w2).channel
    rep = additivity_gap_entropy(p1, p2, OPTS)
    assert abs(rep.gap) < 1e-5
    assert rep.gap > -1e-8


def test_sampled_cross_check():
    rng = rng_from_seed(9)
    for d in (2, 3):
        ch = random_channel(rng, d, d, d)
        direct = nu_p(ch, 2, OPTS).value
        sampled = sampled_nu_p(ch, 2, 100_000, rng, opts=OPTS)
        assert abs(direct - sampled) < 1e-6


def test_optimizer_determinism():
    rng = rng_from_seed(10)
    ch = random_channel(rng, 2, 2, 3)
    r1 = nu_p(ch, 2, OPTS)
    r2 = nu_p(ch, 2, OPTS)
    assert r1.value == r2.value
    assert np.array_equal(r1.optimizer_state, r2.optimizer_state)
