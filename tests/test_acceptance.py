"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from qcc import channel as chn
from qcc import conjugate as conj
from qcc import ebt as eb
from qcc import gl
from qcc import pauli as pm
from qcc.channel import KrausChannel
from qcc.linalg import dagger, frobenius, schatten_norm
from qcc.purity import (
    OptimizerOptions,
    _entropy_in_base,
    _Kernel,
    _multistart,
    multiplicativity_gap,
    nu_p,
    s_min,
    spectrum_pair_check,
)
from qcc.random import (
    haar_state,
    random_density,
    random_kraus_operators,
    rng_from_seed,
)
from qcc.verify import run_suites


def report(idx, name, passed, detail):
    line = f"ACCEPTANCE {idx:2d} [{name}]: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def random_channel(rng, d_in, d_out, n):
    return KrausChannel(d_in=d_in, d_out=d_out, kraus=random_kraus_operators(d_in, d_out, n, rng))


def test_01_spectrum_law():
    rng = rng_from_seed(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        n = int(rng.integers(max(1, -(-d_in // d_out)), 7))
        ch = random_channel(rng, d_in, d_out, n)
        for _ in range(5):
            _, _, dev = spectrum_pair_check(ch, haar_state(d_in, rng))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    report(1, "output spectra of channel and conjugate",
           worst < 1e-9 and elapsed < 10.0,
           f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_02_purity_agreement_with_conjugate():
    rng = rng_from_seed(102)
    opts = OptimizerOptions(restarts=6, tol=1e-12, seed=102)
    start = time.perf_counter()
    worst_nu = 0.0
    worst_s = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        ch = random_channel(rng, 2, 2, n)
        # The conjugate runs on its raw kernel: for n > 2, nu_p and s_min
        # would run it on ch's own stack.
        cc = _Kernel(conj.conjugate_kraus(ch))
        for p in (1.5, 2, 3, math.inf):
            worst_nu = max(worst_nu, abs(nu_p(ch, p, opts).value - _multistart(cc, p, opts).value))
        s_cc = _entropy_in_base(_multistart(cc, None, opts), 2.0).value
        worst_s = max(worst_s, abs(s_min(ch, opts).value - s_cc))
    elapsed = time.perf_counter() - start
    report(2, "nu_p and S_min equal for conjugates",
           worst_nu < 1e-6 and worst_s < 1e-6 and elapsed < 60.0,
           f"nu dev {worst_nu:.2e}, S dev {worst_s:.2e}, {elapsed:.1f}s")


def test_03_three_routes_related_by_partial_isometry():
    rng = rng_from_seed(103)
    worst_res = 0.0
    worst_proj = 0.0
    for _ in range(50):
        d_in = int(rng.integers(2, 4))
        d_out = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        ch = random_channel(rng, d_in, d_out, n)
        routes = [conj.conjugate_channel(ch, m) for m in ("kraus", "choi", "ancilla")]
        for i in range(3):
            for j in range(i + 1, 3):
                rel = conj.find_relating_isometry(routes[i], routes[j], tol=1e-8)
                worst_res = max(worst_res, rel.residual)
                wtw = dagger(rel.w) @ rel.w
                worst_proj = max(worst_proj, frobenius(wtw @ wtw - wtw))
    report(3, "conjugate routes pairwise isometry-related",
           worst_res < 1e-8 and worst_proj < 1e-8,
           f"max residual {worst_res:.2e}, projector residual {worst_proj:.2e}")


def test_04_qubit_closed_form_grid():
    opts = OptimizerOptions(restarts=4, tol=1e-13, seed=104)
    basis = pm.build_basis(2)
    worst = 0.0
    for u in np.linspace(0.025, 0.975, 20):
        for v in np.linspace(0.025, 0.975, 20):
            w = np.array([(1 - u) * (1 - v), (1 - u) * v, u * (1 - v), u * v])
            ch = pm.pauli_channel(basis, w)
            for p in (2, 3, math.inf):
                got = nu_p(ch.channel, p, opts).value
                worst = max(worst, abs(got - pm.qubit_nu_p_closed_form(w, p)))
    report(4, "qubit closed form on a 20x20 weight grid",
           worst < 1e-8, f"max |optimizer - closed form| {worst:.2e}")


def test_05_depolarizing_products_and_bound():
    opts = OptimizerOptions(restarts=6, tol=1e-13, seed=105)
    worst_gap = 0.0
    for d in (2, 3):
        ch = pm.pauli_channel(pm.build_basis(d), pm.depolarizing_weights(d, 0.5))
        gap = multiplicativity_gap(ch.channel, ch.channel, 2, opts)
        worst_gap = max(worst_gap, abs(gap.gap))

    b2 = pm.build_basis(2)
    single = pm.pauli_channel(b2, pm.depolarizing_weights(2, 0.5))
    bound_single = pm.majorization_bound(single, math.inf).bound
    nu_single = nu_p(single.channel, math.inf, opts).value
    attain_err = bound_single - nu_single

    prod_basis = pm.product_basis(b2, b2)
    prod = pm.pauli_channel(prod_basis, np.kron(single.weights, single.weights))
    bound_prod = pm.majorization_bound(prod, math.inf).bound
    nu_prod = nu_p(prod.channel, math.inf, opts).value
    slack = bound_prod - nu_prod

    report(5, "depolarizing multiplicativity and majorization bound",
           worst_gap < 1e-6 and abs(attain_err) < 1e-9 and slack > 1e-3,
           f"|gap| {worst_gap:.2e}, single bound gap {attain_err:.2e}, product slack {slack:.4f}")


def test_06_noise_factorization_and_recovery():
    rng = rng_from_seed(106)
    worst = 0.0
    for d in (2, 3, 4):
        basis = pm.build_basis(d)
        u = pm.find_U_T(basis)
        for _ in range(50):
            rho = random_density(d, rng)
            gamma = pm.noisy_conjugate_image(basis, rho)
            model = u @ np.kron(np.eye(d), rho) @ dagger(u) / d
            worst = max(worst, frobenius(gamma - model))
            worst = max(worst, float(np.abs(pm.recover_state(basis, gamma) - rho).max()))
    report(6, "noisy conjugate factorization and state recovery",
           worst < 1e-10, f"max residual {worst:.2e}")


def test_07_noisy_image_structural_properties():
    rng = rng_from_seed(107)
    worst = 0.0
    for d in (2, 3, 4, 5):
        basis = pm.build_basis(d)
        for _ in range(100):
            psi = haar_state(d, rng)
            gamma = pm.noisy_conjugate_image(basis, np.outer(psi, psi.conj()))
            c = pm.nc_image_checks(basis, gamma)
            worst = max(worst, c.projector, c.diagonal, c.modulus, c.doubly_stochastic)
    report(7, "noisy-image properties (projector, diagonal, modulus, stochastic)",
           worst < 1e-10, f"max residual {worst:.2e}")


def test_08_explicit_noisy_image_formula():
    rng = rng_from_seed(108)
    worst = 0.0
    for d in (2, 3, 5):
        basis = pm.build_basis(d)
        for _ in range(50):
            psi = haar_state(d, rng)
            direct = pm.noisy_conjugate_image(basis, np.outer(psi, psi.conj()))
            worst = max(worst, float(np.abs(direct - pm.nc_image_explicit(basis, psi)).max()))
    report(8, "explicit formula equals direct noisy image",
           worst < 1e-12, f"max entrywise deviation {worst:.2e}")


def test_09_nu2_bound_and_attainment():
    rng = rng_from_seed(109)
    basis = pm.build_basis(3)
    worst_excess = -np.inf
    worst_attain = 0.0
    for i in range(100):
        ch = pm.pauli_channel(basis, rng.dirichlet(np.ones(9)))
        bound = pm.nu2_bound(ch)
        val = nu_p(ch.channel, 2, OptimizerOptions(restarts=4, tol=1e-12, seed=i)).value
        worst_excess = max(worst_excess, val - bound)
        lam = pm.lambda_spectrum(ch)
        m_star = 1 + int(np.argmax(np.abs(lam[1:])))
        psi = pm.axis_states(basis, m_star)[0]
        attained = schatten_norm(chn.apply(ch.channel, np.outer(psi, psi.conj())), 2)
        worst_attain = max(worst_attain, abs(bound - attained))
    report(9, "2-norm bound dominates and is attained at axis states (d=3)",
           worst_excess < 1e-9 and worst_attain < 1e-9,
           f"max excess {worst_excess:.2e}, attainment gap {worst_attain:.2e}")


def test_10_axes_channel_closed_form():
    rng = rng_from_seed(110)
    basis = pm.build_basis(3)
    opts = OptimizerOptions(restarts=6, tol=1e-13, seed=110)
    worst = 0.0
    for _ in range(20):
        parts = rng.dirichlet(np.ones(6))
        s, t, u = parts[0], parts[1:5], parts[5]
        ch = pm.axes_channel(basis, s, list(t), u)
        lam = max(abs(s + tl) for tl in t)
        want_sq = (1 + 2 * lam**2) / 3
        got = nu_p(ch.channel, 2, opts).value
        worst = max(worst, abs(got * got - want_sq))
    report(10, "axis-mixture 2-norm closed form (d=3)",
           worst < 1e-8, f"max |nu_2^2 - closed form| {worst:.2e}")


def test_11_linearization_identities():
    rng = rng_from_seed(111)
    worst_op = 0.0
    worst_mixed = 0.0
    for _ in range(20):
        d_in = int(rng.integers(2, 4))
        d_out = int(rng.integers(2, 4))
        ch = random_channel(rng, d_in, d_out, int(rng.integers(2, 5)))
        for p in (2, 3):
            r1, r2 = gl.verify_gl_identity(ch, p)
            worst_op = max(worst_op, r1, r2)
            om = gl.omega(ch, p)
            rho = random_density(d_in, rng)
            worst_mixed = max(
                worst_mixed,
                abs(gl.power_trace(ch, rho, p) - gl.linearized_trace(om, rho, p)),
            )
    violation = 0.0
    rng2 = rng_from_seed(1110)
    ch = random_channel(rng2, 2, 2, 3)
    th = gl.theta(ch, 2)
    for _ in range(50):
        rho = random_density(2, rng2)
        violation = max(
            violation,
            abs(gl.power_trace(ch, rho, 2) - complex(gl.linearized_trace(th, rho, 2)).real),
        )
    report(11, "linearizer identities and mixed-state behavior",
           worst_op < 1e-12 and worst_mixed < 1e-12 and violation > 1e-3,
           f"operator {worst_op:.2e}, mixed {worst_mixed:.2e}, theta violation {violation:.2e}")


def test_12_ebt_hadamard_conjugacy():
    rng = rng_from_seed(112)
    ok_cq = True
    for _ in range(10):
        cq = eb.random_cq(int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
        det = eb.is_hadamard_form(conj.conjugate_kraus(cq.channel))
        ok_cq &= det.verdict == "yes"
        if det.verdict == "yes":
            fr = np.stack(det.frame)
            ok_cq &= frobenius(fr.conj() @ fr.T - np.eye(fr.shape[1])) < 1e-8

    worst_rank1 = 0.0
    for _ in range(10):
        had = eb.random_hadamard_channel(int(rng.integers(2, 4)), 3, rng)
        for op in conj.conjugate_kraus(had).kraus:
            s = np.linalg.svd(op, compute_uv=False)
            if s.size > 1:
                worst_rank1 = max(worst_rank1, float(s[1]))

    opts = OptimizerOptions(restarts=6, tol=1e-12, seed=112)
    worst_gap = 0.0
    for _ in range(10):
        had = eb.random_hadamard_channel(int(rng.integers(2, 4)), 3, rng)
        other = random_channel(rng, 2, 2, int(rng.integers(2, 4)))
        for p in (2, 3):
            worst_gap = max(worst_gap, abs(multiplicativity_gap(had, other, p, opts).gap))
    report(12, "CQ/Hadamard conjugacy and multiplicativity spot checks",
           ok_cq and worst_rank1 < 1e-8 and worst_gap < 1e-5,
           f"rank-one residual {worst_rank1:.2e}, max |gap| {worst_gap:.2e}")


def test_13_full_verification_suite():
    start = time.perf_counter()
    first = run_suites("all", seed=13)
    elapsed = time.perf_counter() - start
    second = run_suites("all", seed=13)
    deterministic = [(c.name, c.passed, c.max_err) for c in first] == [
        (c.name, c.passed, c.max_err) for c in second
    ]
    failed = [c.name for c in first if not c.passed]
    report(13, "full verification suite",
           not failed and elapsed < 300.0 and deterministic,
           f"{len(first)} checks, {elapsed:.1f}s, deterministic={deterministic}, failed={failed}")
