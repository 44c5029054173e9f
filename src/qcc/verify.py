"""Verification suites: every structural invariant the library promises,
runnable as named checks with per-check pass/fail and worst-case errors.

Each suite function takes a seed and a trial count and returns a list of
:class:`CheckResult`.  Suites are deterministic for a fixed seed: every check
derives its own generator from ``(seed, check index)``.  Each suite imports
the modules it checks, so that running one suite loads no other's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as chn
from . import conjugate as conj
from .channel import KrausChannel
from .linalg import (
    dagger,
    frobenius,
    majorizes,
    nonzero_spectrum,
    partial_trace,
    schatten_norm,
)
from .random import (
    derived_rng,
    haar_state,
    random_density,
    random_kraus_operators,
)

SUITE_NAMES = ("conjugate", "pauli", "ebt", "gl")


@dataclass(frozen=True)
class CheckResult:
    """One check; its fields, in this order, are an entry of a report's ``checks``."""

    name: str
    passed: bool
    max_err: float
    detail: str = ""


def _result(name: str, err: float, tol: float, detail: str = "", ok: bool = True) -> CheckResult:
    """A check that passes when its sub-check ``ok`` holds and ``err < tol``."""
    return CheckResult(name=name, passed=bool(ok and err < tol), max_err=float(err), detail=detail)


def _random_channel(rng, d_max=4, n_max=6) -> KrausChannel:
    d_in = int(rng.integers(2, d_max + 1))
    d_out = int(rng.integers(2, d_max + 1))
    lo = max(1, -(-d_in // d_out))  # ceil(d_in / d_out)
    n = int(rng.integers(lo, n_max + 1))
    return KrausChannel(
        d_in=d_in, d_out=d_out, kraus=random_kraus_operators(d_in, d_out, n, rng)
    )


# ----------------------------------------------------------------- conjugate

def suite_conjugate(seed: int = 0, trials: int = 20) -> list[CheckResult]:
    from .purity import (
        OptimizerOptions,
        _entropy_in_base,
        _Kernel,
        _multistart,
        multiplicativity_gap,
        nu_p,
        s_min,
        sampled_nu_p,
        spectrum_pair_check,
    )

    out: list[CheckResult] = []

    rng = derived_rng(seed, 1)
    err = 0.0
    for _ in range(trials):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        m = random_density(da * db, rng)
        for keep in ("A", "B"):
            err = max(err, abs(np.trace(partial_trace(m, (da, db), keep)).real - 1.0))
    out.append(_result("partial_trace preserves trace", err, 1e-12))

    rng = derived_rng(seed, 2)
    err = 0.0
    for _ in range(trials):
        m = random_density(int(rng.integers(2, 6)), rng)
        norms = [schatten_norm(m, p) for p in (1, 1.5, 2, 3, math.inf)]
        err = max(err, max(max(norms[i + 1] - norms[i] for i in range(4)), 0.0))
    out.append(_result("schatten_norm non-increasing in p", err, 1e-12))

    rng = derived_rng(seed, 3)
    err = 0.0
    for _ in range(trials):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        psi = haar_state(da * db, rng)
        proj = np.outer(psi, psi.conj())
        sa = nonzero_spectrum(partial_trace(proj, (da, db), "A")).values
        sb = nonzero_spectrum(partial_trace(proj, (da, db), "B")).values
        n = max(sa.size, sb.size)
        err = max(err, float(np.abs(np.pad(sa, (0, n - sa.size)) - np.pad(sb, (0, n - sb.size))).max()))
    out.append(_result("reduced spectra of pure states agree", err, 1e-10))

    rng = derived_rng(seed, 4)
    ok = True
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        a = rng.random(n)
        a /= a.sum()
        b_vec = rng.random(n)
        b_vec /= b_vec.sum()
        flat = np.full(n, 1.0 / n)
        ok &= majorizes(a, a)
        if majorizes(a, b_vec) and majorizes(b_vec, flat):
            ok &= majorizes(a, flat)
    out.append(CheckResult("majorizes reflexive and transitive", bool(ok), 0.0))

    rng = derived_rng(seed, 5)
    err = 0.0
    for _ in range(trials):
        ch = _random_channel(rng)
        back = chn.choi_to_kraus(chn.kraus_to_choi(ch))
        err = max(err, chn.choi_distance(ch, back))
        for a in range(ch.d_in):
            for b in range(ch.d_in):
                unit = np.zeros((ch.d_in, ch.d_in), dtype=complex)
                unit[a, b] = 1.0
                err = max(err, frobenius(chn.apply(ch, unit) - chn.apply(back, unit)))
    out.append(_result("Kraus -> Choi -> Kraus round trip", err, 1e-10))

    rng = derived_rng(seed, 6)
    ok = True
    for _ in range(trials):
        ch = _random_channel(rng)
        ok &= chn.kraus_rank(ch) <= ch.d_in * ch.d_out
    out.append(CheckResult("kraus_rank <= d_in * d_out", bool(ok), 0.0))

    rng = derived_rng(seed, 7)
    err = 0.0
    for _ in range(trials):
        c1, c2 = _random_channel(rng, 3, 4), _random_channel(rng, 3, 4)
        r1, r2 = random_density(c1.d_in, rng), random_density(c2.d_in, rng)
        lhs = chn.apply(chn.tensor(c1, c2), np.kron(r1, r2))
        err = max(err, frobenius(lhs - np.kron(chn.apply(c1, r1), chn.apply(c2, r2))))
    out.append(_result("tensor factorizes on product states", err, 1e-12))

    rng = derived_rng(seed, 8)
    err = 0.0
    for _ in range(trials):
        ch = _random_channel(rng)
        err = max(err, frobenius(chn.adjoint_apply(ch, np.eye(ch.d_out)) - np.eye(ch.d_in)))
        a = random_density(ch.d_out, rng)
        b = random_density(ch.d_in, rng)
        lhs = np.trace(dagger(chn.adjoint_apply(ch, a)) @ b)
        rhs = np.trace(dagger(a) @ chn.apply(ch, b))
        err = max(err, abs(lhs - rhs))
    out.append(_result("adjoint is unital and satisfies the duality pairing", err, 1e-12))

    rng = derived_rng(seed, 9)
    err = 0.0
    for _ in range(200):
        ch = _random_channel(rng, 4, 6)
        for _ in range(5):
            _, _, dev = spectrum_pair_check(ch, haar_state(ch.d_in, rng))
            err = max(err, dev)
    out.append(_result("channel and conjugate share output spectra", err, 1e-9))

    rng = derived_rng(seed, 10)
    err = 0.0
    ok = True
    for _ in range(trials):
        ch = _random_channel(rng)
        cc = conj.conjugate_kraus(ch)
        err = max(err, chn.validate_cpt(cc).max_residual)
        ok &= cc.n_kraus == ch.d_out and cc.d_out == ch.n_kraus
    out.append(_result("conjugate is CPT with the swapped shape", err, 1e-10,
                       detail="" if ok else "shape law violated", ok=ok))

    # In the three relation checks, a pair the isometry finder refuses fails
    # the check, with the finder's message as its detail.
    rng = derived_rng(seed, 11)
    err, detail = 0.0, ""
    try:
        for _ in range(max(3, trials // 4)):
            ch = _random_channel(rng, 3, 5)
            routes = [
                conj.conjugate_channel(ch, "kraus"),
                conj.conjugate_channel(ch, "choi"),
                conj.conjugate_channel(ch, "ancilla"),
            ]
            for i in range(3):
                for j in range(i + 1, 3):
                    rel = conj.find_relating_isometry(routes[i], routes[j])
                    wtw = dagger(rel.w) @ rel.w
                    err = max(err, rel.residual, frobenius(wtw @ wtw - wtw))
    except conj.NotConjugateError as exc:
        detail = str(exc)
    out.append(_result("three conjugate routes agree up to partial isometry", err, 1e-8,
                       detail=detail, ok=not detail))

    rng = derived_rng(seed, 12)
    err, detail = 0.0, ""
    try:
        for _ in range(max(3, trials // 4)):
            ch = _random_channel(rng, 3, 4)
            double = conj.conjugate_kraus(conj.conjugate_kraus(ch))
            err = max(err, conj.find_relating_isometry(double, ch).residual)
    except conj.NotConjugateError as exc:
        detail = str(exc)
    out.append(_result("conjugate of conjugate returns the channel up to isometry", err, 1e-8,
                       detail=detail, ok=not detail))

    rng = derived_rng(seed, 13)
    err, detail = 0.0, ""
    try:
        for _ in range(max(2, trials // 8)):
            c1, c2 = _random_channel(rng, 2, 3), _random_channel(rng, 2, 3)
            left = chn.tensor(conj.conjugate_kraus(c1), conj.conjugate_kraus(c2))
            right = conj.conjugate_kraus(chn.tensor(c1, c2))
            err = max(err, conj.find_relating_isometry(right, left).residual)
    except conj.NotConjugateError as exc:
        detail = str(exc)
    out.append(_result("conjugation is tensor compatible up to isometry", err, 1e-8,
                       detail=detail, ok=not detail))

    opts = OptimizerOptions(restarts=8, tol=1e-12, seed=seed)
    rng = derived_rng(seed, 14)
    err = 0.0
    for _ in range(max(2, trials // 8)):
        ch = KrausChannel(d_in=2, d_out=2, kraus=random_kraus_operators(2, 2, 3, rng))
        # nu_p and s_min would run the conjugate on ch's own stack (their
        # side rule), so it runs on its raw kernel, the larger output.
        cc = _Kernel(conj.conjugate_kraus(ch))
        for p in (1.5, 2, 3, math.inf):
            err = max(err, abs(nu_p(ch, p, opts).value - _multistart(cc, p, opts).value))
        s_cc = _entropy_in_base(_multistart(cc, None, opts), 2.0).value
        err = max(err, abs(s_min(ch, opts).value - s_cc))
    out.append(_result("nu_p and S_min agree between channel and conjugate", err, 2e-6))

    rng = derived_rng(seed, 15)
    err = 0.0
    for _ in range(2):
        ch = KrausChannel(d_in=2, d_out=3, kraus=random_kraus_operators(2, 3, 3, rng))
        vals = [nu_p(ch, p, opts).value for p in (1, 1.5, 2, 3, math.inf)]
        err = max(err, max(max(vals[i + 1] - vals[i] for i in range(4)), 0.0))
    out.append(_result("nu_p non-increasing in p", err, 1e-9))

    rng = derived_rng(seed, 16)
    gap_floor = 0.0
    for _ in range(2):
        c1 = KrausChannel(d_in=2, d_out=2, kraus=random_kraus_operators(2, 2, 2, rng))
        c2 = KrausChannel(d_in=2, d_out=2, kraus=random_kraus_operators(2, 2, 2, rng))
        gap_floor = min(gap_floor, multiplicativity_gap(c1, c2, 2, opts).gap)
    out.append(_result("multiplicativity gap respects product feasibility", -gap_floor, 1e-8))

    rng = derived_rng(seed, 17)
    err = 0.0
    for _ in range(2):
        d = int(rng.integers(2, 4))
        ch = KrausChannel(d_in=d, d_out=d, kraus=random_kraus_operators(d, d, d, rng))
        direct = nu_p(ch, 2, opts).value
        sampled = sampled_nu_p(ch, 2, 100_000, rng, opts=opts)
        err = max(err, abs(direct - sampled))
    out.append(_result("nu_2 matches exhaustive sampling with polish", err, 1e-6))
    return out


# --------------------------------------------------------------------- pauli

def suite_pauli(seed: int = 0, trials: int = 25) -> list[CheckResult]:
    from . import pauli as pmod
    from .purity import OptimizerOptions, nu_p

    out: list[CheckResult] = []
    bases = {d: pmod.build_basis(d) for d in (2, 3, 4, 5)}

    err = 0.0
    for d, basis in bases.items():
        flat = basis.ops.reshape(d * d, -1)
        gram = flat.conj() @ flat.T
        err = max(err, float(np.abs(gram - d * np.eye(d * d)).max()))
        for m in range(d * d):
            err = max(err, frobenius(dagger(basis.ops[m]) @ basis.ops[m] - np.eye(d)))
    out.append(_result("basis orthogonality and unitarity", err, 1e-12))

    rng = derived_rng(seed, 21)
    err = 0.0
    for d, basis in bases.items():
        for _ in range(min(trials, 12)):
            m, n = int(rng.integers(d * d)), int(rng.integers(d * d))
            k, phase = basis.triple(m, n)
            err = max(err, frobenius(dagger(basis.ops[m]) @ basis.ops[n] - phase * basis.ops[k]))
    out.append(_result("phase table matches direct multiplication", err, 1e-12))

    rng = derived_rng(seed, 22)
    err_ab = 0.0
    err_cd = 0.0
    for d, basis in bases.items():
        for _ in range(trials):
            psi = haar_state(d, rng)
            gamma = pmod.noisy_conjugate_image(basis, np.outer(psi, psi.conj()))
            checks = pmod.nc_image_checks(basis, gamma)
            err_ab = max(err_ab, checks.projector, checks.diagonal)
            err_cd = max(err_cd, checks.modulus, checks.doubly_stochastic)
    out.append(_result("noisy conjugate image: projector and diagonal laws", err_ab, 1e-10))
    out.append(_result("noisy conjugate image: modulus and double stochasticity", err_cd, 1e-10))

    rng = derived_rng(seed, 23)
    err = 0.0
    for d in (2, 3, 4):
        basis = bases[d]
        w = rng.dirichlet(np.ones(d * d))
        ch = pmod.pauli_channel(basis, w)
        lam = pmod.lambda_spectrum(ch)
        grid = lam.reshape(d, d)
        err = max(err, float(np.abs(grid - np.conj(grid[(-np.arange(d)) % d][:, (-np.arange(d)) % d])).max()))
        for m in range(d * d):
            t = basis.ops[m]
            direct = np.trace(dagger(t) @ chn.apply(ch.channel, t)) / d
            err = max(err, abs(lam[m] - direct))
    out.append(_result("lambda spectrum: symmetry and direct verification", err, 1e-10))

    rng = derived_rng(seed, 24)
    err = 0.0
    for d in (2, 3):
        basis = bases[d]
        w = rng.dirichlet(np.ones(d * d)) + 1e-3
        w /= w.sum()
        ch = pmod.pauli_channel(basis, w)
        rho = random_density(d, rng)
        gamma = pmod.noisy_conjugate_image(basis, rho)
        sqa = np.diag(np.sqrt(ch.weights))
        model = d * d * sqa @ gamma @ sqa
        conj_out = chn.apply(conj.conjugate_kraus(ch.channel), rho)
        err = max(err, float(np.abs(model - conj_out).max()))
    out.append(_result("Pauli conjugate factors through the noisy image", err, 1e-12))

    rng = derived_rng(seed, 25)
    err = 0.0
    for d in (2, 3):
        ch = pmod.pauli_channel(bases[d], rng.dirichlet(np.ones(d * d)))
        for p in (2, 3):
            err = max(err, pmod.noisy_image_norm_identity_residual(ch, haar_state(d, rng), p))
    out.append(_result("sqrt(A) gamma sqrt(A) norm identity", err, 1e-10))

    rng = derived_rng(seed, 26)
    ok = True
    for d in (2, 3, 4):
        basis = bases[d]
        for _ in range(max(2, trials // 5)):
            w = rng.dirichlet(np.ones(d * d))
            ch = pmod.pauli_channel(basis, w)
            mb = pmod.majorization_bound(ch, 2)
            psi = haar_state(d, rng)
            gamma = pmod.noisy_conjugate_image(basis, np.outer(psi, psi.conj()))
            eigs = np.linalg.eigvalsh(d**3 * gamma @ np.diag(ch.weights) @ gamma).real
            ok &= majorizes(mb.beta, np.clip(eigs, 0, None), tol=1e-9)
    out.append(CheckResult("beta majorizes the noisy-image eigenvalues", bool(ok), 0.0))

    opts = OptimizerOptions(restarts=8, tol=1e-12, seed=seed)
    rng = derived_rng(seed, 27)
    err_bound = 0.0
    err_attain = 0.0
    basis3 = bases[3]
    for _ in range(max(3, trials // 5)):
        ch = pmod.pauli_channel(basis3, rng.dirichlet(np.ones(9)))
        bound = pmod.nu2_bound(ch)
        val = nu_p(ch.channel, 2, opts).value
        err_bound = max(err_bound, val - bound)
        lam = pmod.lambda_spectrum(ch)
        m_star = 1 + int(np.argmax(np.abs(lam[1:])))
        psi = pmod.axis_states(basis3, m_star)[0]
        attained = schatten_norm(chn.apply(ch.channel, np.outer(psi, psi.conj())), 2)
        err_attain = max(err_attain, abs(bound - attained))
    out.append(_result("nu_2 bound dominates the optimizer", err_bound, 1e-9))
    out.append(_result("nu_2 bound attained at the best axis state (d=3)", err_attain, 1e-9))

    rng = derived_rng(seed, 28)
    err = 0.0
    for u in np.linspace(0.05, 0.95, 5):
        for v in np.linspace(0.05, 0.95, 5):
            w = np.array([(1 - u) * (1 - v), (1 - u) * v, u * (1 - v), u * v])
            ch = pmod.pauli_channel(bases[2], w)
            for p in (2, 3, math.inf):
                err = max(
                    err,
                    abs(nu_p(ch.channel, p, opts).value - pmod.qubit_nu_p_closed_form(w, p)),
                )
    out.append(_result("qubit closed form matches the optimizer", err, 1e-8))

    rng = derived_rng(seed, 29)
    err = 0.0
    for d in (2, 3, 5):
        basis = bases.get(d) or pmod.build_basis(d)
        for _ in range(max(3, trials // 5)):
            psi = haar_state(d, rng)
            direct = pmod.noisy_conjugate_image(basis, np.outer(psi, psi.conj()))
            err = max(err, float(np.abs(direct - pmod.nc_image_explicit(basis, psi)).max()))
    out.append(_result("explicit noisy-image formula equals direct computation", err, 1e-12))

    rng = derived_rng(seed, 30)
    err = 0.0
    for d in (2, 3, 4):
        basis = bases[d]
        u = pmod.find_U_T(basis)
        for _ in range(3 + max(3, trials // 5)):
            rho = random_density(d, rng)
            gamma = pmod.noisy_conjugate_image(basis, rho)
            model = u @ np.kron(np.eye(d), rho) @ dagger(u) / d
            err = max(err, frobenius(gamma - model))
            err = max(err, frobenius(pmod.recover_state(basis, gamma) - rho))
    out.append(_result("noise factorization and state recovery", err, 1e-10))

    rng = derived_rng(seed, 31)
    ok = True
    err = 0.0
    for d in (2, 3, 4, 5):
        basis = bases[d]
        psi = haar_state(d, rng)
        v = pmod.bloch_coefficients(basis, np.outer(psi, psi.conj()))
        err = max(err, abs(float(np.abs(v[1:]) ** 2 @ np.ones(d * d - 1)) - (d - 1)))
        rec = np.einsum("m,mab->ab", v, basis.ops) / d
        err = max(err, frobenius(rec - np.outer(psi, psi.conj())))
        rep = pmod.subgroup_of_support(basis, np.outer(psi, psi.conj()))
        ok &= rep.order >= d
    out.append(_result("Bloch coefficients: pure-state row sum and reconstruction", err, 1e-10))
    out.append(CheckResult("pure-state support subgroups have order >= d", bool(ok), 0.0))

    rng = derived_rng(seed, 32)
    ok = True
    basis2 = bases[2]
    for m in (1, 2, 3):
        psi = pmod.axis_states(basis2, m)[0]
        gamma = pmod.noisy_conjugate_image(basis2, np.outer(psi, psi.conj()))
        rep = pmod.is_decomposable(gamma)
        ok &= rep.decomposable and all(len(b) == 2 for b in rep.blocks)
    generic = haar_state(2, derived_rng(seed, 33))
    gamma = pmod.noisy_conjugate_image(basis2, np.outer(generic, generic.conj()))
    ok &= not pmod.is_decomposable(gamma).decomposable
    out.append(CheckResult("qubit axis images decompose, generic ones do not", bool(ok), 0.0))

    rng = derived_rng(seed, 34)
    ok = True
    pb = pmod.product_basis(basis2, basis2)
    a0 = pmod.axis_states(basis2, 1)[0]
    a1 = pmod.axis_states(basis2, 2)[1]
    res = pmod.classify_product_or_me(pb, np.kron(a0, a1))
    ok &= res.d2_decomposable and res.klass == "product"
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    res = pmod.classify_product_or_me(pb, bell)
    ok &= res.d2_decomposable and res.klass == "maximally_entangled"
    res = pmod.classify_product_or_me(pb, haar_state(4, rng))
    ok &= not res.d2_decomposable
    out.append(CheckResult("product/maximally-entangled classification", bool(ok), 0.0))

    rng = derived_rng(seed, 35)
    ok = True
    aw = np.sort(rng.dirichlet(np.ones(3)))[::-1]
    qc = np.repeat(aw, 3)  # a_{jk} = a_j, constant along k
    qc /= qc.sum()
    ch = pmod.pauli_channel(bases[3], qc)
    cert = pmod.p_infty_multiplicativity_check(ch, 2)
    ok &= cert.certified
    if cert.certified:
        v1 = nu_p(ch.channel, math.inf, opts).value
        v2 = nu_p(chn.tensor(ch.channel, ch.channel), math.inf, opts).value
        ok &= abs(v2 - v1 * v1) < 1e-6
    generic = pmod.pauli_channel(bases[3], derived_rng(seed, 36).dirichlet(np.ones(9)))
    ok &= not pmod.p_infty_multiplicativity_check(generic, 2).certified
    out.append(CheckResult("p=infinity multiplicativity certificates", bool(ok), 0.0))
    return out


# ----------------------------------------------------------------------- ebt

def suite_ebt(seed: int = 0, trials: int = 8) -> list[CheckResult]:
    from . import ebt as ebtmod
    from .purity import OptimizerOptions, multiplicativity_gap

    out: list[CheckResult] = []

    rng = derived_rng(seed, 41)
    err = 0.0
    for _ in range(trials):
        ch = ebtmod.random_ebt(2, int(rng.integers(2, 4)), 3, rng)
        comp = sum(
            np.vdot(x, x).real * np.outer(w, w.conj()) for x, w in zip(ch.x, ch.w)
        )
        err = max(err, frobenius(comp - np.eye(2)))
    out.append(_result("random EBT channels satisfy completeness", err, 1e-10))

    rng = derived_rng(seed, 42)
    err = 0.0
    for _ in range(trials):
        ch = ebtmod.random_ebt(int(rng.integers(2, 4)), 2, 4, rng)
        had, ck = ebtmod.conjugate_ebt(ch)
        rho = random_density(ch.channel.d_in, rng)
        err = max(err, float(np.abs(had.apply(rho) - chn.apply(ck, rho)).max()))
    out.append(_result("Hadamard-product formula equals the Kraus conjugate", err, 1e-12))

    rng = derived_rng(seed, 43)
    err = 0.0
    for _ in range(trials):
        d = int(rng.integers(2, 4))
        cq = ebtmod.random_cq(d, int(rng.integers(2, 4)), rng)
        had, ck = ebtmod.conjugate_ebt(cq)
        rho = random_density(d, rng)
        fr = np.stack(had.frame)
        rho_w = fr.conj() @ rho @ fr.T
        err = max(err, float(np.abs(had.x_gram * rho_w - chn.apply(ck, rho)).max()))
    out.append(_result("extreme CQ conjugate is Gram * rho in the input basis", err, 1e-12))

    rng = derived_rng(seed, 44)
    err = 0.0
    ok = True
    for _ in range(trials):
        ch = ebtmod.random_ebt(2, 3, 3, rng)
        pd = ebtmod.pseudodiag_kraus(ch)
        err = max(err, chn.choi_distance(pd, conj.conjugate_kraus(ch.channel)))
    # Collinear x vectors give a rank-one Gram matrix: fewer Kraus operators.
    from .random import haar_isometry

    t = haar_isometry(3, 2, derived_rng(seed, 48))
    deg = ebtmod.ebt_channel(
        [np.linalg.norm(row) * np.array([1.0 + 0j, 0.0]) for row in t],
        [row / np.linalg.norm(row) for row in t],
    )
    ok &= ebtmod.pseudodiag_kraus(deg).n_kraus < deg.n
    out.append(_result("pseudodiagonal Kraus realizes the conjugate", err, 1e-10,
                       detail="" if ok else "rank-deficient Gram did not shrink", ok=ok))

    rng = derived_rng(seed, 45)
    ok = True
    for _ in range(trials):
        cq = ebtmod.random_cq(2, 3, rng)
        det = ebtmod.is_hadamard_form(conj.conjugate_kraus(cq.channel))
        ok &= det.verdict == "yes"
        if det.verdict == "yes":
            fr = np.stack(det.frame)
            ok &= frobenius(fr.conj() @ fr.T - np.eye(2)) < 1e-8
        ebt = ebtmod.random_ebt(2, 2, 3, rng)
        ok &= ebtmod.is_hadamard_form(conj.conjugate_kraus(ebt.channel)).verdict == "yes"
        generic = KrausChannel(d_in=2, d_out=2, kraus=random_kraus_operators(2, 2, 3, rng))
        ok &= ebtmod.is_hadamard_form(generic).verdict == "no"
    out.append(CheckResult("Hadamard-form detection", bool(ok), 0.0))

    rng = derived_rng(seed, 46)
    err = 0.0
    for _ in range(trials):
        had = ebtmod.random_hadamard_channel(2, 3, rng)
        cc = conj.conjugate_kraus(had)
        for op in cc.kraus:
            s = np.linalg.svd(op, compute_uv=False)
            err = max(err, float(s[1]) if s.size > 1 else 0.0)
    out.append(_result("conjugate of a Hadamard-form channel is EBT (rank-one Kraus)", err, 1e-8))

    opts = OptimizerOptions(restarts=6, tol=1e-12, seed=seed)
    rng = derived_rng(seed, 47)
    err = 0.0
    for _ in range(2):
        had = ebtmod.random_hadamard_channel(2, 3, rng)
        other = KrausChannel(d_in=2, d_out=2, kraus=random_kraus_operators(2, 2, 2, rng))
        for p in (2, 3):
            err = max(err, abs(multiplicativity_gap(had, other, p, opts).gap))
    out.append(_result("Hadamard-form channels are multiplicative in spot checks", err, 1e-5))
    return out


# ------------------------------------------------------------------------ gl

def suite_gl(seed: int = 0, trials: int = 10) -> list[CheckResult]:
    from . import gl as glmod

    out: list[CheckResult] = []

    err = 0.0
    ok = True
    for d in (2, 3):
        left = glmod.shift_operator(2, "left", d)
        ok &= np.array_equal(glmod.shift_operator(1, "left", d), np.eye(d))
        swap = np.zeros((d * d, d * d))
        for a in range(d):
            for b in range(d):
                swap[b * d + a, a * d + b] = 1
        err = max(err, float(np.abs(left - swap).max()))
        l3 = glmod.shift_operator(3, "left", d)
        r3 = glmod.shift_operator(3, "right", d)
        err = max(err, float(np.abs(l3 @ r3 - np.eye(d**3)).max()))
    out.append(_result("shift operators: swap at p=2 and left-right inverse", err, 1e-15,
                       detail="" if ok else "p=1 shift is not the identity", ok=ok))

    rng = derived_rng(seed, 51)
    err = 0.0
    for _ in range(trials):
        ch = _random_channel(rng, 3, 4)
        for p in (1, 2, 3):
            r1, r2 = glmod.verify_gl_identity(ch, p)
            err = max(err, r1, r2)
    out.append(_result("linearizer identities against the conjugate and the shift", err, 1e-12))

    rng = derived_rng(seed, 52)
    err = 0.0
    for _ in range(trials):
        ch = _random_channel(rng, 3, 4)
        rho = random_density(ch.d_in, rng)
        for p in (2, 3):
            om = glmod.omega(ch, p)
            lhs = glmod.power_trace(ch, rho, p)
            rhs = glmod.linearized_trace(om, rho, p)
            err = max(err, abs(lhs - rhs), abs(rhs.imag))
    out.append(_result("omega linearizes mixed-state power traces", err, 1e-12))

    rng = derived_rng(seed, 53)
    err_pure = 0.0
    best_violation = 0.0
    for _ in range(trials):
        ch = _random_channel(rng, 3, 4)
        th = glmod.theta(ch, 2)
        psi = haar_state(ch.d_in, rng)
        proj = np.outer(psi, psi.conj())
        err_pure = max(err_pure, abs(glmod.power_trace(ch, proj, 2) - glmod.linearized_trace(th, proj, 2)))
        rho = random_density(ch.d_in, rng)
        best_violation = max(
            best_violation,
            abs(glmod.power_trace(ch, rho, 2) - complex(glmod.linearized_trace(th, rho, 2)).real),
        )
    out.append(_result("theta linearizes pure states", err_pure, 1e-12))
    out.append(CheckResult(
        "theta fails on mixed states (violation exhibited)",
        bool(best_violation > 1e-3),
        float(best_violation),
        detail=f"largest mixed-state deviation {best_violation:.3e}",
    ))
    return out


def run_suites(name: str, seed: int = 0, trials: int | None = None) -> list[CheckResult]:
    """Run the suite ``name``, or every suite in ``SUITE_NAMES`` order for
    ``"all"``, and concatenate results; ``trials=None`` runs each suite at
    its own default trial count."""
    table = {"conjugate": suite_conjugate, "pauli": suite_pauli, "ebt": suite_ebt, "gl": suite_gl}
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if name != "all" and name not in table:
        raise ValueError(f"unknown suite {name!r}")
    kwargs = {} if trials is None else {"trials": trials}
    results: list[CheckResult] = []
    for suite in SUITE_NAMES if name == "all" else (name,):
        results.extend(table[suite](seed=seed, **kwargs))
    return results
