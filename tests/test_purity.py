import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qcc import channel as chn
from qcc import purity
from qcc.channel import KrausChannel
from qcc.conjugate import conjugate_kraus
from qcc.linalg import dagger, pnorm
from qcc.pauli import (
    build_basis,
    depolarizing_weights,
    holevo_capacity_weyl,
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
    # p = None reads as the entropy on the private path only.
    ch = chn.identity_channel(2)
    rng = rng_from_seed(0)
    state = rng.bit_generator.state
    for p in (0.9, math.nan, None):
        for run in (
            lambda: nu_p(ch, p, FAST),
            lambda: multiplicativity_gap(ch, ch, p, FAST),
            lambda: sampled_nu_p(ch, p, 10, rng, FAST),
        ):
            with pytest.raises(ValueError):
                run()
    # Refused before any sample is drawn.
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "field, value",
    [
        ("restarts", -3),
        ("restarts", 2.5),
        ("restarts", True),
        ("tol", 0.0),
        ("tol", -1e-10),
        ("tol", math.nan),
        ("tol", math.inf),
        ("max_iter", 0),
        ("max_iter", 10.5),
        ("seed", -1),
        ("seed", 1.7),
    ],
)
def test_optimizer_options_reject_out_of_range_fields(field, value):
    with pytest.raises(ValueError, match=field):
        OptimizerOptions(**{field: value})
    with pytest.raises(ValueError, match=field):
        replace(FAST, **{field: value})


def test_optimizer_options_accept_numpy_integers():
    opts = OptimizerOptions(restarts=np.int64(2), seed=np.uint32(7), max_iter=np.int32(5))
    assert (opts.restarts, opts.seed, opts.max_iter) == (2, 7, 5)
    assert nu_p(chn.identity_channel(2), 2, opts).value == 1.0


def test_optimizer_options_cap_restarts_at_max_dim_squared():
    from qcc.linalg import MAX_DIM

    assert OptimizerOptions(restarts=MAX_DIM**2).restarts == 1024
    # Refused before the (restarts, d_in) start stack is allocated.
    for restarts in (MAX_DIM**2 + 1, 10**12):
        with pytest.raises(ValueError, match="restarts .* exceeds the supported size"):
            OptimizerOptions(restarts=restarts)
        with pytest.raises(ValueError, match="restarts .* exceeds the supported size"):
            replace(FAST, restarts=restarts)


def test_optimizer_needs_at_least_one_start():
    ch = chn.identity_channel(2)
    none = replace(FAST, restarts=0)
    for run, p in ((lambda: nu_p(ch, 2, none), 2), (lambda: s_min(ch, none), None)):
        with pytest.raises(ValueError, match="at least one start"):
            run()
        rep = purity._multistart(purity._side_kernel(ch), p, none, [np.array([1.0, 1.0])])
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
#: side rule flips these), more, and d_in != d_out.
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

    # The raw kernel carries the whole d_out output spectrum.
    w, u = kern.eigh(m)
    full = np.clip(np.linalg.eigvalsh(sigma), 0.0, None)
    assert len(w) == d_out and np.abs(w - full).max() < 1e-14
    assert abs(w.sum() - 1.0) < 1e-13
    assert np.abs(kern.spectrum(psi) - w).max() == 0.0

    # The output eigenvectors rebuild sigma.
    assert np.abs(purity._output_operator(u, w) - sigma).max() < 1e-13

    x = rng.standard_normal((d_out, d_out)) + 1j * rng.standard_normal((d_out, d_out))
    x = x + x.conj().T
    assert np.abs(kern.adjoint(x) - chn.adjoint_apply(ch, x)).max() < 1e-13
    # A stack of operators.
    xs = np.stack([x, x @ x, np.eye(d_out)])
    want = np.stack([chn.adjoint_apply(ch, xi) for xi in xs])
    assert np.abs(kern.adjoint(xs) - want).max() < 1e-12

    # Gradient vectors Phi^+(X) psi of one state, of a stack whose first row
    # is that state, and of an empty stack: for the arbitrary operators
    # above, one per row, and for X = h(sigma) from the output eigenpairs,
    # with h(0) = 0 and with the entropy's h(0) != 0.
    psis = np.stack([psi, haar_state(d_in, rng), haar_state(d_in, rng)])
    ms = kern.outputs(psis)
    want = chn.adjoint_apply(ch, x) @ psi
    assert np.abs(kern.pull_back(m, x) - want).max() < 1e-12 * max(1.0, np.abs(want).max())
    want = np.stack([chn.adjoint_apply(ch, xi) @ s for xi, s in zip(xs, psis, strict=True)])
    got = kern.pull_back(ms, xs)
    assert got.shape == psis.shape
    assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())
    assert kern.pull_back(ms[:0], xs[:0]).shape == (0, d_in)

    def reference(psi, h):
        ws, vs = np.linalg.eigh(chn.apply(ch, np.outer(psi, psi.conj())))
        return chn.adjoint_apply(ch, (vs * h(np.clip(ws, 0, None))) @ vs.conj().T) @ psi

    wss, us = kern.eigh(ms)
    for h in (lambda t: t**2, lambda t: np.log(np.maximum(t, 1e-18)) + 1.0):
        want = reference(psi, h)
        got = kern.pull_back(m, purity._output_operator(u, h(w)))
        assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())
        want = np.stack([reference(s, h) for s in psis])
        got = kern.pull_back(ms, purity._output_operator(us, h(wss)))
        assert got.shape == psis.shape
        assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())
        xh = purity._output_operator(us[:0], h(wss[:0]))
        assert kern.pull_back(ms[:0], xh).shape == (0, d_in)


#: Factor shapes for the product kernel: each factor has n < d_out in one
#: pair and n > d_out in another, d_in != d_out, or one Kraus operator, and
#: the products fall on both sides of the side rule.
PRODUCT_SHAPES = [
    ((3, 4, 2), (2, 2, 5)),
    ((2, 2, 5), (4, 3, 3)),
    ((4, 3, 3), (3, 5, 1)),
    ((3, 5, 1), (2, 3, 2)),
    ((2, 3, 2), (3, 2, 4)),
]


def test_product_shapes_cover_both_gram_matrices():
    # (product flips, first factor flips alone, second factor flips alone)
    sides = set()
    rng = rng_from_seed(23)
    for shapes in PRODUCT_SHAPES:
        c1, c2 = random_channel(rng, *shapes[0]), random_channel(rng, *shapes[1])
        sides.add((purity._flips(c1, c2), purity._flips(c1), purity._flips(c2)))
    assert {s[0] for s in sides} == {True, False}
    # A gap builds a factor's kernel anew where its side differs from the
    # product's, in both directions.
    assert {(s[0], s[i]) for s in sides for i in (1, 2) if s[0] != s[i]} == {
        (True, False),
        (False, True),
    }


@pytest.mark.parametrize("shapes", PRODUCT_SHAPES)
def test_product_kernel_matches_tensor_kernel(shapes):
    rng = rng_from_seed(23)
    c1, c2 = random_channel(rng, *shapes[0]), random_channel(rng, *shapes[1])
    kern = purity._ProductKernel(_Kernel(c1), _Kernel(c2))
    product = chn.tensor(c1, c2)
    ref = _Kernel(product)
    assert (kern.n, kern.d_out, kern.d_in) == (ref.n, ref.d_out, ref.d_in)

    psis = np.stack([haar_state(ref.d_in, rng) for _ in range(4)])
    assert np.abs(kern.outputs(psis) - ref.outputs(psis)).max() < 1e-12
    assert np.abs(kern.spectrum(psis) - ref.spectrum(psis)).max() < 1e-12

    d = ref.d_out
    xs = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
    xs = xs + dagger(xs)
    want = np.stack([chn.adjoint_apply(product, x) for x in xs])
    assert np.abs(kern.adjoint(xs[0]) - want[0]).max() < 1e-12
    assert np.abs(kern.adjoint(xs) - want).max() < 1e-12

    # Gradient vectors Phi^+(X) psi of one state, of a three-row stack and of
    # an empty stack: for the arbitrary operators above, one per row, against
    # the product's adjoint, and for X = h(sigma) from the output
    # eigenpairs, with h(0) = 0 and with the entropy's h(0) != 0, against the
    # tensor kernel row by row.
    psi = psis[0]
    m = kern.outputs(psi)
    assert np.abs(kern.pull_back(m, xs[0]) - want[0] @ psi).max() < 1e-12
    got = kern.pull_back(kern.outputs(psis[:3]), xs)
    assert got.shape == (3, ref.d_in)
    assert np.abs(got - np.einsum("rij,rj->ri", want, psis[:3])).max() < 1e-12
    assert kern.pull_back(kern.outputs(psis[:0]), xs[:0]).shape == (0, ref.d_in)

    w, u = kern.eigh(m)
    ms = kern.outputs(psis)
    ws, us = kern.eigh(ms)
    for h in (lambda t: t**2, lambda t: np.log(np.maximum(t, 1e-18)) + 1.0):
        x = purity._output_operator(u, h(w))
        assert np.abs(kern.pull_back(m, x) - ref.pull_back(m, x)).max() < 1e-12
        xh = purity._output_operator(us, h(ws))
        want = np.stack([ref.pull_back(*a) for a in zip(ms, xh, strict=True)])
        got = kern.pull_back(ms, xh)
        assert got.shape == psis.shape
        assert np.abs(got - want).max() < 1e-12
        assert kern.pull_back(ms[:0], xh[:0]).shape == (0, ref.d_in)


def test_kernels_build_the_superoperator_once_and_only_for_the_adjoint(monkeypatch):
    built = []
    real = chn.adjoint_superoperator
    monkeypatch.setattr(chn, "adjoint_superoperator", lambda ch: built.append(ch) or real(ch))
    rng = rng_from_seed(26)
    c1, c2 = random_channel(rng, 2, 3, 2), random_channel(rng, 3, 2, 4)
    k1, k2 = _Kernel(c1), _Kernel(c2)
    # A (9, 9) kernel is above the fixed point's cutoff: p = 1.5 and the
    # entropy run the gradient engine, which never builds it.
    big = random_channel(rng, 9, 9, 9)
    assert 9**3 > purity.FIXED_POINT_SIZE
    nu_p(big, 1.5, FAST)
    s_min(big, FAST)
    assert built == []
    product = purity._ProductKernel(k1, k2)
    x = np.eye(product.d_out)
    for _ in range(3):
        product.adjoint(x)
        k1.adjoint(np.eye(3))
    assert len(built) == 2 and built[0] is c1 and built[1] is c2


def test_optimizer_rejects_channels_beyond_the_size_cap():
    # n = d_out = d_in = 33: d_in * min(n, d_out) = 1089 on either side.
    ch = random_channel(rng_from_seed(29), 33, 33, 33)
    for run in (lambda: nu_p(ch, 2, FAST), lambda: s_min(ch, FAST)):
        with pytest.raises(ValueError, match="exceeds the optimizer's supported size"):
            run()
    # At the cap itself the kernel builds.
    assert _Kernel(KrausChannel.from_operators([np.eye(512, 2)])).d_out == 512
    # One Kraus operator, an isometry from C^2 into C^600: d_in d_out = 1200,
    # but the optimizer runs on its conjugate, d_in * n = 2.
    iso = KrausChannel.from_operators([np.eye(600, 2)])
    assert nu_p(iso, 2, FAST).value == 1.0
    assert s_min(iso, FAST).value == 0.0


def test_gap_factors_flip_only_where_their_flipped_kernels_fit():
    # d_in * n = 1056 flipped, d_in * d_out = 64 raw.  Its product with an
    # isometry C^2 -> C^17 has n1 n2 = 33 < 34 = d1_out d2_out, but flipping
    # would push this factor past the cap, so both factors run raw.
    big = random_channel(rng_from_seed(33), 32, 2, 33)
    iso = KrausChannel.from_operators([np.eye(17, 2)])
    assert not purity._flips(big, iso) and purity._flips(iso)
    g = multiplicativity_gap(big, iso, 2, OptimizerOptions(restarts=2))
    assert abs(g.gap) < 1e-9 and g.report_2.value == 1.0
    # Into C^513 the isometry is past the cap raw (1026) and the factor
    # above is past it flipped (1056): the refusal names the isometry's own
    # dimensions.
    iso = KrausChannel.from_operators([np.eye(513, 2)])
    with pytest.raises(ValueError, match=r"d_in \* d_out = 1026 exceeds"):
        multiplicativity_gap(big, iso, 2, OptimizerOptions(restarts=2))


def test_gap_refuses_a_factor_before_any_run(monkeypatch):
    # The pair of the test above whose isometry is past the cap on the
    # product's side: the refusal comes before either single run.
    ran = []
    real = purity._multistart
    monkeypatch.setattr(purity, "_multistart", lambda *a, **kw: ran.append(a) or real(*a, **kw))
    big = random_channel(rng_from_seed(33), 32, 2, 33)
    iso = KrausChannel.from_operators([np.eye(513, 2)])
    for run in (
        lambda: multiplicativity_gap(big, iso, 2, OptimizerOptions(restarts=2)),
        lambda: additivity_gap_entropy(big, iso, OptimizerOptions(restarts=2)),
    ):
        with pytest.raises(ValueError, match="exceeds the optimizer's supported size"):
            run()
        assert ran == []


def _kernels(rng):
    """A kernel of each of ``KERNEL_SHAPES`` and a product kernel of each of
    ``PRODUCT_SHAPES``."""
    for shape in KERNEL_SHAPES:
        yield _Kernel(random_channel(rng, *shape))
    for s1, s2 in PRODUCT_SHAPES:
        k1, k2 = _Kernel(random_channel(rng, *s1)), _Kernel(random_channel(rng, *s2))
        yield purity._ProductKernel(k1, k2)


def test_fixed_point_skips_the_output_eigendecomposition_at_p_2_and_3(monkeypatch):
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or real(a))
    rng = rng_from_seed(34)
    for kern in _kernels(rng):
        psi0 = np.stack([haar_state(kern.d_in, rng) for _ in range(3)])
        # (p, eigh calls per iteration, calls before the first)
        for p, per_iteration, first in ((2, 1, 0), (3, 1, 0), (2.5, 2, 1), (math.inf, 2, 1)):
            calls.clear()
            # The loop runs until its last restart stops: iters.max() times.
            iters = purity._fixed_point(kern, psi0, p, 1e-12, 2000)[1]
            assert len(calls) == per_iteration * iters.max() + first


def test_fixed_point_polynomial_route_matches_the_spectrum():
    rng = rng_from_seed(35)
    for kern in _kernels(rng):
        psis = np.stack([haar_state(kern.d_in, rng) for _ in range(4)])
        m = kern.outputs(psis)
        w, u = kern.eigh(m)
        for p in (2, 3):
            x, obj = purity._ascent_operator(kern, m, p)
            assert np.abs(obj - np.log(pnorm(w, p))).max() < 1e-14
            assert np.abs(x - purity._output_operator(u, w ** (p - 1))).max() < 1e-14


def test_fixed_point_jumps_where_the_ascent_converges_slowly(monkeypatch):
    # A qubit channel whose plain fixed point shrinks its step by about 0.93
    # per iteration near the optimum: every start needs 88 to 121 steps to
    # tol 1e-10.  The extrapolated jumps cut that to at most 31.
    kern = _Kernel(random_channel(rng_from_seed(1120), 2, 2, 2))
    starts = purity._haar_starts(2, 0, 4)
    for p in (2, math.inf):
        psi, iters, conv = purity._fixed_point(kern, starts, p, 1e-10, 2000)
        assert conv.all() and iters.max() <= 40
        with monkeypatch.context() as m:
            m.setattr(purity, "JUMP_EVERY", 2001)
            plain, plain_iters, _ = purity._fixed_point(kern, starts, p, 1e-10, 2000)
        assert plain_iters.max() >= 100
        # Both reach the same optimum, within the stopping rule's slack.
        vals, plain_vals = (pnorm(kern.spectrum(s), p) for s in (psi, plain))
        assert np.abs(vals - plain_vals).max() < 1e-8


def test_fixed_point_never_descends(monkeypatch):
    # Runs one restart at a time.  The iterate after each step is the state
    # whose operator the next step pulls back, so its objective is read off
    # the _ascent_operator row that made that operator, plain step or jump.
    made = []
    real = purity._ascent_operator
    monkeypatch.setattr(
        purity, "_ascent_operator", lambda *a: made.append(real(*a)) or made[-1]
    )
    rng = rng_from_seed(36)
    for kern in _kernels(rng):
        pulled = []
        kern.adjoint = lambda x, real=kern.adjoint: pulled.append(x) or real(x)
        # p = None is the entropy, whose log-objective is -S in nats.
        for p in (2, 3, 2.5, math.inf, 1.5, None):
            for _ in range(3):
                made.clear()
                pulled.clear()
                psi0 = haar_state(kern.d_in, rng)[None]
                psi = purity._fixed_point(kern, psi0, p, 1e-12, 2000)[0]
                objs = [made[0][1][0]]
                for (xs, vals), x in zip(made[1:-1], pulled[1:], strict=True):
                    # The least objective of the rows that made this operator.
                    objs.append(min(v for xi, v in zip(xs, vals) if np.array_equal(xi, x[0])))
                w = kern.spectrum(psi[0])
                objs.append(-purity._entropy_nat(w) if p is None else math.log(pnorm(w, p)))
                assert min(np.diff(objs)) >= -1e-14


def test_engine_rule_picks_each_engine_on_each_side_of_the_cutoff(monkeypatch):
    # p in [1, 2) and the entropy run the fixed point on kernels with
    # d_in^2 d_out up to FIXED_POINT_SIZE and the gradient engine above it;
    # p >= 2 runs the fixed point at every size.
    engines = []
    for name in ("_fixed_point", "_gradient"):
        real = getattr(purity, name)
        monkeypatch.setattr(
            purity, name, lambda *a, name=name, real=real: engines.append(name) or real(*a)
        )
    rng = rng_from_seed(38)
    small = [
        _Kernel(random_channel(rng, 8, 8, 8)),
        purity._ProductKernel(
            _Kernel(random_channel(rng, 2, 2, 3)), _Kernel(random_channel(rng, 4, 4, 5))
        ),
    ]
    large = [
        _Kernel(random_channel(rng, 9, 9, 9)),
        purity._ProductKernel(
            _Kernel(random_channel(rng, 3, 3, 4)), _Kernel(random_channel(rng, 3, 3, 3))
        ),
    ]
    opts = OptimizerOptions(restarts=2, max_iter=3)
    for kernels, below in ((small, True), (large, False)):
        for kern in kernels:
            assert (kern.d_in**2 * kern.d_out <= purity.FIXED_POINT_SIZE) == below
            for p, fixed in ((1.5, below), (None, below), (2, True), (math.inf, True)):
                engines.clear()
                purity._multistart(kern, p, opts)
                assert engines == (["_fixed_point"] if fixed else ["_gradient"])


def test_entropy_fixed_point_stops_at_a_pure_output():
    # A random (3, 3, 2) channel has S_min = 0: each of the 3 generalized
    # eigenvectors of the pencil K_1 - lambda K_2 has a pure output.  Near
    # it S shrinks geometrically, so a stop on its relative change would
    # never fire and every restart would run to max_iter.
    for seed in range(3):
        ch = random_channel(rng_from_seed(40 + seed), 3, 3, 2)
        rep = s_min(ch, FAST)
        assert rep.converged and rep.value <= 1e-9
        assert rep.iterations <= 60 * rep.restarts
        kern = purity._side_kernel(ch)
        _, iters, conv = purity._fixed_point(kern, purity._haar_starts(3, 0, 8), None, 1e-12, 2000)
        assert conv.all() and iters.max() <= 60


@pytest.mark.parametrize("base", [math.nan, math.inf, -math.inf, 1.0, 0.0, -2.0, 0.5])
def test_entropy_entries_reject_a_bad_base_before_any_run(monkeypatch, base):
    # Base 1 has no logarithm, and a base below 1 turns the minimum into a maximum.
    ran = []
    real = purity._multistart
    monkeypatch.setattr(purity, "_multistart", lambda *a, **kw: ran.append(a) or real(*a, **kw))
    dep = pauli_channel(build_basis(2), depolarizing_weights(2, 0.5))
    for run in (
        lambda: s_min(dep.channel, FAST, base=base),
        lambda: additivity_gap_entropy(dep.channel, dep.channel, FAST, base=base),
        lambda: holevo_capacity_weyl(dep, FAST, base=base),
    ):
        with pytest.raises(ValueError, match="base must be a finite number above 1"):
            run()
    assert ran == []


def test_optimizer_entries_run_on_the_smaller_side_only(monkeypatch):
    ran, built = [], []
    real_run, real_init = purity._multistart, _Kernel.__init__
    monkeypatch.setattr(
        purity, "_multistart", lambda k, *a, **kw: ran.append(k) or real_run(k, *a, **kw)
    )
    monkeypatch.setattr(_Kernel, "__init__", lambda k, ch: built.append(k) or real_init(k, ch))
    rng = rng_from_seed(30)
    # n < d_out, n > d_out, and one Kraus operator.  In the gaps, c1 takes
    # the raw side in its product with c2, and c2 the flipped one with c3.
    c1, c2, c3 = (random_channel(rng, *s) for s in ((2, 3, 2), (2, 2, 3), (3, 5, 1)))
    runs = [
        lambda: nu_p(c1, 2, FAST),
        lambda: nu_p(c3, 1.5, FAST),
        lambda: s_min(c1, FAST),
        lambda: sampled_nu_p(c3, 2, 100, rng, FAST),
    ]
    for a, b in ((c1, c2), (c2, c3), (c3, c3)):
        runs.append(lambda a=a, b=b: multiplicativity_gap(a, b, 2, FAST))
        runs.append(lambda a=a, b=b: additivity_gap_entropy(a, b, FAST))
    for run in runs:
        ran.clear()
        run()
        # Only the kernels that run obey the rule: a product's factor may not.
        assert ran and all(k.n >= k.d_out for k in ran)
    # A single kernel on the product's side is the product's factor: c1 and
    # c3 flip alone and together, so the gap builds two kernels, not four.
    ran.clear()
    built.clear()
    multiplicativity_gap(c1, c3, 2, FAST)
    product = next(k for k in ran if isinstance(k, purity._ProductKernel))
    assert (product.k1, product.k2) == (ran[0], ran[1])
    assert len(built) == 2


#: (d_in, d_out, n) with n < d_out, run on the flipped and the raw side.
FLIPPED_SHAPES = [(2, 3, 2), (3, 5, 1), (3, 4, 2), (4, 6, 3)]


def test_flipped_and_raw_sides_agree(monkeypatch):
    rng = rng_from_seed(31)
    opts = OptimizerOptions(restarts=8, tol=1e-13, seed=1)
    ref_opts = replace(opts, restarts=64)
    kernels = []
    for shape in FLIPPED_SHAPES:
        ch = random_channel(rng, *shape)
        kernels.append((_Kernel(ch), _Kernel(conjugate_kraus(ch))))
    # A product that flips: n1 n2 = 2 < d1_out d2_out = 6.
    c1, c2 = random_channel(rng, 2, 3, 1), random_channel(rng, 2, 2, 2)
    assert purity._flips(c1, c2)
    raw = purity._ProductKernel(_Kernel(c1), _Kernel(c2))
    flipped = purity._ProductKernel(_Kernel(conjugate_kraus(c1)), _Kernel(conjugate_kraus(c2)))
    kernels.append((raw, flipped))
    for raw, flipped in kernels:
        # The gradient engine takes the same steps on either side.  These
        # kernels are below the cutoff, which is set to 0 to run it on them.
        with monkeypatch.context() as m:
            m.setattr(purity, "FIXED_POINT_SIZE", 0)
            for p in (1.5, None):
                a = purity._multistart(raw, p, opts).value
                b = purity._multistart(flipped, p, opts).value
                assert abs(a - b) < 1e-10
        # The fixed point takes other paths: both reach the optimum.
        for p in (2, 3, math.inf, 1.5, None):
            ref = purity._multistart(flipped, p, ref_opts).value
            for kern in (raw, flipped):
                assert abs(purity._multistart(kern, p, opts).value - ref) < 1e-8


def test_values_stay_in_their_exact_range():
    # nu_p <= 1 and S_min >= 0 hold exactly; on the identity and a unitary
    # channel the optimum sits on the bound, where rounding used to cross it.
    unitary = KrausChannel.from_operators([haar_unitary(3, rng_from_seed(32))])
    for ch in (chn.identity_channel(2), chn.identity_channel(3), unitary):
        for opts in (FAST, OptimizerOptions(restarts=2)):
            for p in (1.5, 2, math.inf):
                assert nu_p(ch, p, opts).value == 1.0
                assert sampled_nu_p(ch, p, 100, rng_from_seed(33), opts) == 1.0
            for base in (2.0, math.e):
                value = s_min(ch, opts, base=base).value
                assert value == 0.0 and math.copysign(1.0, value) == 1.0
        g = multiplicativity_gap(ch, ch, 2, FAST)
        assert (g.lhs, g.rhs, g.gap) == (1.0, 1.0, 0.0)
        g = additivity_gap_entropy(ch, ch, FAST)
        assert (g.lhs, g.rhs, g.gap) == (0.0, 0.0, 0.0)
        assert math.copysign(1.0, g.gap) == 1.0


def test_gap_product_is_not_rerun_for_a_gain_within_tolerance(monkeypatch):
    # A fake optimizer whose re-seeded single runs gain one ulp: rounding, not
    # a better optimum, so the product must run once only.  The gap compares
    # the maximized objective, so the same holds for the entropy's -S.
    rng = rng_from_seed(27)
    c1, c2 = random_channel(rng, 2, 2, 2), random_channel(rng, 3, 2, 3)
    runs = []

    def fake(first, reseeded):
        def run(kern, p, opts, initial_states=()):
            runs.append(kern)
            value = first
            if initial_states and not isinstance(kern, purity._ProductKernel):
                value = reseeded
            state = np.zeros(kern.d_in, dtype=complex)
            state[0] = 1.0
            return purity.PurityReport(value, state, 1, True, 1)

        return run

    for p, first in ((2.0, 0.5), (None, -0.5)):
        runs.clear()
        monkeypatch.setattr(purity, "_multistart", fake(first, float(np.nextafter(first, 1.0))))
        s1, s2, _ = purity._gap_reports(c1, c2, p, FAST)
        assert s1.value > first and s2.value > first
        assert sum(isinstance(k, purity._ProductKernel) for k in runs) == 1

        # A gain beyond the tolerance does rerun the product.
        runs.clear()
        monkeypatch.setattr(purity, "_multistart", fake(first, first + 10 * FAST.tol))
        purity._gap_reports(c1, c2, p, FAST)
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
def test_batched_fixed_point_matches_one_restart_at_a_time(shape, monkeypatch):
    # The fixed point at p >= 2, and the gradient engine, on which the cutoff
    # 0 of CUTOFFS puts p = 1.5 and the entropy.
    d_in, d_out, n = shape
    rng = rng_from_seed(21)
    ch = random_channel(rng, d_in, d_out, n)
    kern = purity._side_kernel(ch)
    opts = OptimizerOptions(restarts=6, tol=1e-12, seed=3)
    one = replace(opts, restarts=0)
    for cutoff, ps in zip(CUTOFFS, ((2, 3, math.inf), (1.5, None)), strict=True):
        monkeypatch.setattr(purity, "FIXED_POINT_SIZE", cutoff)
        for p in ps:
            batched = purity._multistart(kern, p, opts).value
            single = max(
                purity._multistart(
                    kern, p, one, [haar_state(d_in, derived_rng(opts.seed, r))]
                ).value
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


#: The engine's cutoff as the optimizer sets it, and 0, which puts every run
#: at p < 2 and of the entropy on the gradient engine.
CUTOFFS = (purity.FIXED_POINT_SIZE, 0)


def test_gradient_engine_qubit_converges_in_few_iterations(monkeypatch):
    # A unital qubit channel V K U: S_min is the entropy of ((1 + l)/2, (1 - l)/2),
    # l the largest Bloch contraction.  Stepping along the raw gradient took
    # 177 to 277 iterations here, and stopped 4.4e-13 short.  A qubit kernel
    # runs the fixed point; the gradient engine takes the same test.
    w = np.array([0.25, 0.02, 0.65, 0.08])
    pc = pauli_channel(build_basis(2), w)
    lam = np.abs(lambda_spectrum(pc)[1:]).max()
    hi, lo = (1 + lam) / 2, (1 - lam) / 2
    want = -(hi * math.log2(hi) + lo * math.log2(lo))
    for cutoff in CUTOFFS:
        monkeypatch.setattr(purity, "FIXED_POINT_SIZE", cutoff)
        for seed in range(6):
            rng = rng_from_seed(seed)
            v, u = haar_unitary(2, rng), haar_unitary(2, rng)
            ch = KrausChannel(d_in=2, d_out=2, kraus=v @ pc.channel.kraus @ u)
            rep = s_min(ch, OptimizerOptions(restarts=1, tol=1e-13, seed=seed))
            assert rep.converged
            assert rep.iterations <= 50
            assert abs(rep.value - want) <= 1e-13


def test_gradient_engine_product_converges_in_few_iterations(monkeypatch):
    # dep3 (x) dep3: with steps along the raw gradient, the product report
    # summed 53 to 56 iterations over its five starts at these seeds.  Its
    # (9, 9) product kernel runs the gradient engine; with the cutoff at 0
    # its (3, 3) factors do too.
    dep = pauli_channel(build_basis(3), depolarizing_weights(3, 0.4)).channel
    for cutoff in CUTOFFS:
        monkeypatch.setattr(purity, "FIXED_POINT_SIZE", cutoff)
        for seed in range(6):
            rep = additivity_gap_entropy(dep, dep, OptimizerOptions(restarts=4, seed=seed))
            assert rep.report_12.iterations <= 40
            assert abs(rep.gap) < 1e-8


def test_gradient_engine_never_descends_from_its_start():
    # The public entries run these kernels on the fixed point; the gradient
    # engine is run directly.
    rng = rng_from_seed(22)
    one = OptimizerOptions(restarts=0, tol=1e-12)
    for shape in ((2, 3, 3), (3, 3, 2), (3, 4, 5)):
        ch = random_channel(rng, *shape)
        kern = _Kernel(ch)
        side = purity._side_kernel(ch)
        for _ in range(3):
            psi = haar_state(ch.d_in, rng)
            w = kern.spectrum(psi)
            rep = purity._multistart(side, 1.5, one, [psi])
            assert rep.value >= pnorm(w, 1.5)
            rep = purity._entropy_in_base(purity._multistart(side, None, one, [psi]), math.e)
            assert rep.value <= purity._entropy_nat(w)
            up = purity._gradient(side, psi[None], 1.5, 1e-12, 2000)[0][0]
            assert pnorm(side.spectrum(up), 1.5) >= pnorm(w, 1.5)
            down = purity._gradient(side, psi[None], None, 1e-12, 2000)[0][0]
            assert purity._entropy_nat(side.spectrum(down)) <= purity._entropy_nat(w)


def test_gradient_engine_forms_the_tangent_only_at_accepted_points():
    # A rejected trial needs only its objective.  A run cut at max_iter
    # accepted every one of its steps; a run that converged, every step but
    # perhaps its last.  The run is a one-row stack, and the counts are of
    # rows: a step whose row accepted nothing pulls back an empty stack.
    rng = rng_from_seed(37)
    evaluated, pulled = [], []
    cut = rejected = 0
    for kern in _kernels(rng):
        kern.outputs = lambda psi, real=kern.outputs: evaluated.append(len(psi)) or real(psi)
        kern.pull_back = lambda m, *a, real=kern.pull_back: pulled.append(len(m)) or real(m, *a)
        for p in (1.5, None):
            evaluated.clear()
            pulled.clear()
            psi0 = haar_state(kern.d_in, rng)[None]
            _, (it,), (converged,) = purity._gradient(kern, psi0, p, 1e-14, 6)
            accepted = (it,) if not converged else (it - 1, it)
            assert sum(pulled) - 1 in accepted
            cut += not converged
            rejected += sum(evaluated) - sum(pulled)
    assert cut > 0 and rejected > 0


def test_gradient_engine_stops_where_its_tangent_vanishes():
    # The engine stops at a stationary point of its own objective, where the
    # tangent of Phi^+(h(sigma)) psi, h = p sigma^(p-1) or log sigma + 1, is
    # near zero; here it is formed through the adjoint.  A tangent that
    # pulled back sigma in place of h(sigma) left it at up to 7.5e-3 (p =
    # 1.5) and 0.12 (entropy) on these runs, against at most 1.2e-5.
    rng = rng_from_seed(41)
    for kern in _kernels(rng):
        psi0 = np.stack([haar_state(kern.d_in, rng) for _ in range(3)])
        for p in (1.5, None):
            psi = purity._gradient(kern, psi0, p, 1e-12, 2000)[0]
            w, v = np.linalg.eigh(kern.gram(kern.outputs(psi)))
            w = np.clip(w, 0.0, None)
            h = p * w ** (p - 1) if p is not None else np.log(np.maximum(w, 1e-18)) + 1.0
            g = np.einsum("rij,rj->ri", kern.adjoint((v * h[:, None, :]) @ dagger(v)), psi)
            r = g - psi * np.einsum("ri,ri->r", psi.conj(), g)[:, None]
            assert np.linalg.norm(r, axis=-1).max() < 1e-3


def test_gradient_engine_runs_each_row_as_it_would_alone():
    # Every row of a stack keeps its own step length and stopping rule, so
    # it takes the steps it takes alone.  Batched products round
    # differently, which can move a stop near the tolerance by a step: a
    # tenth of the rows may stop elsewhere.  A step length shared by the
    # rows stopped 76 of these 90 rows elsewhere.
    rng = rng_from_seed(39)
    same = total = 0
    for kern in _kernels(rng):
        psi0 = np.stack([haar_state(kern.d_in, rng) for _ in range(5)])
        for p in (1.5, None):
            psi, iters, _ = purity._gradient(kern, psi0, p, 1e-12, 2000)
            for start, row, it in zip(psi0, psi, iters, strict=True):
                (alone,), (it_alone,), _ = purity._gradient(kern, start[None], p, 1e-12, 2000)
                w, w_alone = kern.spectrum(row), kern.spectrum(alone)
                if p is None:
                    assert abs(purity._entropy_nat(w) - purity._entropy_nat(w_alone)) < 1e-9
                else:
                    assert abs(pnorm(w, p) - pnorm(w_alone, p)) < 1e-9
                same += it == it_alone
                total += 1
    assert total == 90 and same >= 0.9 * total


def test_gradient_engine_skips_the_output_eigendecomposition_at_p_2_and_3(monkeypatch):
    # The gradient takes its objective and X from _ascent_operator, so at p
    # = 2 and 3 it makes no eigensolve at all; at any other p, one batched
    # eigensolve of the outputs per objective call, trials included.
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or real(a))
    rng = rng_from_seed(42)
    for kern in _kernels(rng):
        evaluated = []
        kern.outputs = lambda psi, real=kern.outputs: evaluated.append(len(psi)) or real(psi)
        psi0 = np.stack([haar_state(kern.d_in, rng) for _ in range(3)])
        for p, per_call in ((2, 0), (3, 0), (2.5, 1), (1.5, 1)):
            calls.clear()
            evaluated.clear()
            purity._gradient(kern, psi0, p, 1e-12, 2000)
            assert len(calls) == per_call * len(evaluated)
            assert all(shape[-2:] == (kern.d_out, kern.d_out) for shape in calls)


def test_gradient_engine_tangent_is_the_log_objectives_gradient(monkeypatch):
    # Along a tangent direction v, the log-objective, log ||sigma||_p or
    # -S, changes at the rate 2 Re <v, r>, with r the tangent the engine
    # forms at its start, read off a central difference.  For a p-norm, the
    # tangent of Phi^+(X) psi not divided by Tr sigma X is off by that
    # factor and fails this.
    starts = []
    monkeypatch.setattr(purity, "_lockstep", lambda psi, carry, step, max_iter: starts.append(carry))
    rng = rng_from_seed(44)
    h = 1e-6
    for kern in _kernels(rng):
        for p in (1.5, 2, 3, None):
            psi = np.stack([haar_state(kern.d_in, rng) for _ in range(3)])
            starts.clear()
            purity._gradient(kern, psi, p, 1e-12, 2000)
            r = starts[0][1]
            v = np.stack([haar_state(kern.d_in, rng) for _ in range(3)])
            v -= psi * np.einsum("ri,ri->r", psi.conj(), v)[:, None]

            def f(t):
                moved = psi + t * v
                w = kern.spectrum(moved / np.linalg.norm(moved, axis=-1, keepdims=True))
                return -purity._entropy_nat(w) if p is None else np.log(pnorm(w, p))

            rate = (f(h) - f(-h)) / (2 * h)
            assert np.abs(rate - 2 * purity._re_dot(v, r)).max() < 1e-6


def test_gradient_engine_reaches_the_fixed_points_values():
    # Both engines climb _ascent_operator's log-objective.  From 24 shared
    # starts they reach the same best value.  From 8, at two of the seeds
    # 42-49, a product kernel left the two on different local optima.
    rng = rng_from_seed(43)
    for kern in _kernels(rng):
        psi0 = np.stack([haar_state(kern.d_in, rng) for _ in range(24)])
        for p in (2, 3, 1.5, None):
            best = []
            for engine in (purity._fixed_point, purity._gradient):
                w = kern.spectrum(engine(kern, psi0, p, 1e-12, 2000)[0])
                best.append((-purity._entropy_nat(w) if p is None else pnorm(w, p)).max())
            assert abs(best[0] - best[1]) < 1e-8


def test_each_engine_stops_exactly_where_the_shared_test_says(monkeypatch):
    # Each step's iterate is recorded and its log-objective recomputed
    # apart from the engine: a one-row run stops at the first step whose
    # change passes |expm1(e (before - after))| <= tol, e = p for a number
    # p and 1 at p = inf and for the entropy, and at no other step.
    steps = []
    real = purity._lockstep

    def recording(psi, carry, step, max_iter):
        def recorded(it, carry):
            new, done, carry = step(it, carry)
            steps.append((new.copy(), bool(done[0])))
            return new, done, carry

        return real(psi, carry, recorded, max_iter)

    monkeypatch.setattr(purity, "_lockstep", recording)
    rng = rng_from_seed(43)
    tol = 1e-10
    for kern in _kernels(rng):
        for engine, ps in (
            (purity._fixed_point, (2, 1.5, math.inf, None)),
            (purity._gradient, (2, 1.5, None)),
        ):
            for p in ps:
                steps.clear()
                psi0 = haar_state(kern.d_in, rng)[None]
                _, (it,), (converged,) = engine(kern, psi0, p, tol, 2000)
                states = [psi0] + [state for state, _ in steps]
                vals = [purity._ascent_operator(kern, kern.outputs(s), p)[1][0] for s in states]
                e = 1.0 if p is None or math.isinf(p) else p
                want = [abs(math.expm1(e * (a - b))) <= tol for a, b in zip(vals, vals[1:])]
                assert converged and len(steps) == it
                assert [done for _, done in steps] == want


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
    # The side rule would run cc on ch's own stack, so cc runs on its raw
    # kernel, the side with the larger output.
    rng = rng_from_seed(5)
    for _ in range(3):
        ch = random_channel(rng, 2, 2, 3)
        raw = _Kernel(conjugate_kraus(ch))
        for p in (1.5, 2, math.inf):
            assert abs(nu_p(ch, p, OPTS).value - purity._multistart(raw, p, OPTS).value) < 1e-8
        s_raw = purity._entropy_in_base(purity._multistart(raw, None, OPTS), 2.0).value
        assert abs(s_min(ch, OPTS).value - s_raw) < 1e-8


def test_spectrum_pair_check_refuses_a_zero_or_non_finite_state():
    ch = random_channel(rng_from_seed(48), 2, 3, 2)
    for psi in ([0, 0], [np.nan, 1], [np.inf, 1]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="psi"):
                spectrum_pair_check(ch, psi)


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


def test_additivity_gap_entropy_in_nats_is_the_bits_result_times_ln2():
    rng = rng_from_seed(28)
    c1, c2 = random_channel(rng, 2, 2, 3), random_channel(rng, 2, 3, 2)
    bits = additivity_gap_entropy(c1, c2, FAST)
    nats = additivity_gap_entropy(c1, c2, FAST, base=math.e)
    ln2 = math.log(2)
    for field in ("lhs", "rhs", "gap"):
        assert abs(getattr(nats, field) - getattr(bits, field) * ln2) <= 1e-14
    for field in ("report_1", "report_2", "report_12"):
        b, n = getattr(bits, field), getattr(nats, field)
        assert abs(n.value - b.value * ln2) <= 1e-15 * max(1.0, abs(n.value))
        assert np.array_equal(n.optimizer_state, b.optimizer_state)
        assert (n.restarts, n.iterations, n.converged) == (b.restarts, b.iterations, b.converged)


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


def _sample_spy(monkeypatch):
    """Records each eigensolver call on a stack, and each ``_ascent_operator``
    call with its log-objective, made outside ``_multistart``: the blocks of
    samples that ``sampled_nu_p`` scores, not its polish."""
    solved, scored, polishing = [], [], []
    real_run = purity._multistart

    def run(*args, **kw):
        polishing.append(True)
        try:
            return real_run(*args, **kw)
        finally:
            polishing.pop()

    monkeypatch.setattr(purity, "_multistart", run)
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def spy(a, *args, real=real, name=name, **kw):
            if a.ndim == 3 and not polishing:
                solved.append(name)
            return real(a, *args, **kw)

        monkeypatch.setattr(np.linalg, name, spy)
    real_op = purity._ascent_operator

    def op(kern, m, p):
        x, obj = real_op(kern, m, p)
        if not polishing:
            scored.append((kern, m, obj))
        return x, obj

    monkeypatch.setattr(purity, "_ascent_operator", op)
    return solved, scored


def test_sampled_nu_p_makes_no_eigensolve_of_the_samples_at_p_2_and_3(monkeypatch):
    solved, scored = _sample_spy(monkeypatch)
    # 666 rows a block on the (3, 3, 3) kernel and 300 on the (2, 4, 5) one.
    monkeypatch.setattr(purity, "SAMPLE_BLOCK_ENTRIES", 6000)
    rng = rng_from_seed(40)
    for ch in (random_channel(rng, 3, 3, 3), random_channel(rng, 2, 4, 5)):
        for p in (2, 3):
            sampled_nu_p(ch, p, 1000, rng, FAST)
            assert solved == [] and len(scored) > 1
            assert sum(len(m) for _, m, _ in scored) == 1000
            scored.clear()


def test_sampled_nu_p_scores_samples_by_their_output_p_norm(monkeypatch):
    _, scored = _sample_spy(monkeypatch)
    rng = rng_from_seed(41)
    ch = random_channel(rng, 3, 4, 2)
    for p in (1.5, 2, 3, math.inf):
        scored.clear()
        value = sampled_nu_p(ch, p, 1000, rng, FAST)
        assert sum(len(m) for _, m, _ in scored) == 1000
        for kern, m, obj in scored:
            w = np.clip(np.linalg.eigvalsh(kern.gram(m)), 0.0, None)
            assert np.abs(np.exp(obj) - pnorm(w, p)).max() < 1e-12
            assert value >= np.exp(obj).max() - 1e-15


def _one_stack_sampled_nu_p(ch, p, n_samples, rng, opts):
    """``sampled_nu_p`` as it scored every sample in one stack: the
    reference that its blocks must reproduce bit for bit."""
    d = ch.d_in
    batch = rng.standard_normal((n_samples, d)) + 1j * rng.standard_normal((n_samples, d))
    batch /= np.linalg.norm(batch, axis=1, keepdims=True)
    kern = purity._side_kernel(ch)
    _, log_vals = purity._ascent_operator(kern, kern.outputs(batch), p)
    best = int(np.argmax(log_vals))
    rep = purity._multistart(kern, p, replace(opts, restarts=0), initial_states=[batch[best]])
    return min(max(math.exp(log_vals[best]), rep.value), 1.0)


@pytest.mark.parametrize("shape, flipped", [((3, 4, 2), True), ((3, 3, 4), False)])
def test_sampled_nu_p_blocks_keep_the_one_stack_draws_and_pick(monkeypatch, shape, flipped):
    ch = random_channel(rng_from_seed(42), *shape)
    assert purity._flips(ch) == flipped
    kern = purity._side_kernel(ch)
    # The sample each side polishes from.
    picked, real_run = [], purity._multistart
    monkeypatch.setattr(
        purity,
        "_multistart",
        lambda k, p, opts, initial_states: picked.append(initial_states[0])
        or real_run(k, p, opts, initial_states=initial_states),
    )
    for rows in (1, 5):
        monkeypatch.setattr(purity, "SAMPLE_BLOCK_ENTRIES", rows * kern.n * kern.d_out)
        for p in (1.5, 2, 3, math.inf):
            # One sample, exactly one block, one block and one, several blocks.
            for n_samples in (1, rows, rows + 1, 4 * rows + 3):
                picked.clear()
                got_rng, want_rng = rng_from_seed(43), rng_from_seed(43)
                got = sampled_nu_p(ch, p, n_samples, got_rng, FAST)
                want = _one_stack_sampled_nu_p(ch, p, n_samples, want_rng, FAST)
                assert got.hex() == want.hex()
                assert picked[0].tobytes() == picked[1].tobytes()
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sampled_nu_p_memory_does_not_grow_with_the_sample_count():
    # One stack of 100 000 samples peaked at 47 MiB here.
    ch = random_channel(rng_from_seed(44), 3, 3, 3)
    tracemalloc.start()
    try:
        sampled_nu_p(ch, 2, 100_000, rng_from_seed(45), FAST)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_sampled_nu_p_takes_only_an_integer_sample_count_of_at_least_one():
    ch = random_channel(rng_from_seed(46), 2, 2, 2)
    for n_samples in (0, -3, 2.5, True):
        rng = rng_from_seed(47)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="n_samples"):
            sampled_nu_p(ch, 2, n_samples, rng, FAST)
        assert rng.bit_generator.state == state
    counted = sampled_nu_p(ch, 2, np.int64(7), rng_from_seed(47), FAST)
    assert counted == sampled_nu_p(ch, 2, 7, rng_from_seed(47), FAST)
