"""The four benchmark workloads.

Each workload turns a seed into inputs and a fixed list of operations.  An
operation is one call into a public qcc entry point, or one CLI command, and
carries the check that its output must pass.  Checks compare against
``refs`` (plain numpy, no qcc) or against a property the method must have.

Random channels come from a fixed pool (``POOL_SEED``) and are then moved by
seed-drawn unitaries (``refs.reframe``).  Every seed thus gets different
inputs, but the same optimizer landscapes: the optimizer's iteration count
varies by a coefficient of variation of 0.35-0.6 from one random channel to
the next, against 0.02-0.15 from one set of start states to the next, and a
benchmark whose work swings with the draw cannot resolve a 10% change.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import refs
from qcc import channel as chn
from qcc import conjugate as conj
from qcc import ebt
from qcc import gl
from qcc import purity
from qcc.channel import KrausChannel
from qcc.purity import OptimizerOptions

POOL_SEED = 509126
INF = math.inf


class CheckFailed(Exception):
    """An operation returned a result that its check rejects."""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    #: Set on an operation that fails every time because of a known fault in
    #: the program; its failure is counted in ``failed``, not as incorrect.
    known_fault: str | None = None


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def close(got: float, want: float, tol: float, what: str) -> None:
    expect(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


def pool(tag: int) -> np.random.Generator:
    return np.random.default_rng([POOL_SEED, tag])


def channel(kraus: np.ndarray) -> KrausChannel:
    n, d_out, d_in = kraus.shape
    return KrausChannel(d_in=d_in, d_out=d_out, kraus=kraus)


def pool_kraus(d_in: int, d_out: int, n: int, tag: int) -> np.ndarray:
    return refs.random_kraus(d_in, d_out, n, pool(tag))


# ------------------------------------------------------------ purity checks

def objective(rho: np.ndarray, p) -> float:
    """``||rho||_p``, or the entropy of ``rho`` in bits for ``p=None``."""
    vals = refs.spectrum(rho)
    return refs.entropy_bits(vals) if p is None else refs.pnorm(vals, p)


def check_report(rep, kraus: np.ndarray, p, *, k2: np.ndarray | None = None) -> None:
    """``value`` re-evaluated from ``optimizer_state`` by the benchmark's own
    pure-state kernel (the product form when ``k2`` is given), and ``nu_p <= 1``."""
    psi = np.asarray(rep.optimizer_state, dtype=complex)
    close(float(np.linalg.norm(psi)), 1.0, 1e-10, "optimizer_state norm")
    if k2 is None:
        rho = refs.pure_output(kraus, psi)
    else:
        rho = refs.product_output(kraus, k2, psi)
    want = objective(rho, p)
    close(rep.value, want, 1e-9, "value re-evaluated from optimizer_state")
    if p is not None:
        expect(rep.value <= 1 + 1e-12, f"nu_p = {rep.value!r} exceeds 1")


def purity_op(label, kraus, p, opts, want=None, tol=1e-8, known_fault=None) -> Op:
    """``nu_p`` (or ``s_min`` for ``p=None``) on one channel, checked against
    the closed form ``want`` when there is one."""
    ch = channel(kraus)
    if p is None:
        call = lambda: purity.s_min(ch, opts)
    else:
        call = lambda: purity.nu_p(ch, p, opts)

    def check(rep):
        if want is not None:
            close(rep.value, want, tol, f"{label} against its closed form")
        check_report(rep, kraus, p)

    return Op(label, call, check, known_fault)


def pair_ops(label, kraus, ps, opts) -> list[Op]:
    """The same functional on a channel and on its Kraus-swap conjugate: the
    paper's spectrum law makes them equal, checked within 1e-6 when the
    conjugate's result comes in."""
    conj_kraus = refs.kraus_swap(kraus)
    ops = []
    for p in ps:
        tag = "S_min" if p is None else f"nu_{p}"
        first = purity_op(f"{label} {tag}", kraus, p, opts)
        second = purity_op(f"{label} {tag} conjugate", conj_kraus, p, opts)
        seen: dict = {}

        def record(rep, check=first.check, seen=seen):
            seen.clear()
            check(rep)
            seen["value"] = rep.value

        def compare(rep, check=second.check, seen=seen, what=f"{label} {tag}"):
            check(rep)
            expect("value" in seen, f"{what}: the channel's own operation failed")
            close(rep.value, seen["value"], 1e-6, f"{what}, conjugate against channel")

        ops += [Op(first.label, first.call, record), Op(second.label, second.call, compare)]
    return ops


# ------------------------------------------------------------ single-purity

def single_purity(seed: int, tiny: bool) -> list[Op]:
    """``nu_p`` (p = 1.5, 2, 3, inf) and ``S_min`` on single channels, d = 2..5."""
    rng = np.random.default_rng([seed, 1])
    default = OptimizerOptions(seed=seed)
    exact = OptimizerOptions(restarts=4, tol=1e-13, seed=seed)
    quick = OptimizerOptions(restarts=4, seed=seed)
    gradient = OptimizerOptions(restarts=1, tol=1e-13, seed=seed)
    gradient_pairs = OptimizerOptions(restarts=2, seed=seed)
    ps = (1.5, 2, 3, INF)
    ops: list[Op] = []

    # Depolarizing channels, default options: closed-form output spectrum.
    for d in (2,) if tiny else (2, 3, 4, 5):
        b = float(rng.uniform(0.1, 0.9))
        k = refs.reframe(refs.pauli_kraus(refs.depolarizing_weights(d, b)), rng)
        spec = refs.depolarizing_spectrum(d, b)
        for p in ps:
            ops.append(purity_op(f"dep{d} nu_{p}", k, p, default, refs.pnorm(spec, p)))
        ops.append(purity_op(f"dep{d} S_min", k, None, default, refs.entropy_bits(spec)))

    # Unital qubit channels: the King-Ruskai closed form from the Bloch
    # contractions (the moduli of the three Pauli eigenvalues).  Both engines
    # run at tol 1e-13, as the acceptance suite does.  On the second channel
    # the gradient engine's S_min then runs to max_iter (2000) from nearly
    # every start: a fixed amount of work.  At the default tol it stopped
    # after 545 to 1878 iterations, as the seed's start state fell, and that
    # one operation made most of the workload's spread from seed to seed.
    base = pool(1)
    for i in range(1 if tiny else 3):
        k = refs.reframe(refs.pauli_kraus(base.dirichlet(np.ones(4))), rng)
        spec = refs.unital_qubit_spectrum(k)
        for p in ps:
            o = exact if p >= 2 else gradient
            ops.append(purity_op(f"qubit{i} nu_{p}", k, p, o, refs.pnorm(spec, p)))
        ops.append(purity_op(f"qubit{i} S_min", k, None, gradient, refs.entropy_bits(spec)))

    # d = 3 axis mixtures: nu_2^2 = (1 + 2 lam^2) / 3.
    base = pool(2)
    for i in range(0 if tiny else 2):
        parts = base.dirichlet(np.ones(6))
        s, t, u = parts[0], parts[1:5], parts[5]
        k = refs.reframe(refs.pauli_kraus(refs.axes_weights(3, s, t, u)), rng)
        ops.append(purity_op(f"axes{i} nu_2", k, 2, exact,
                             math.sqrt(refs.axis_mixture_nu2_sq(s, t))))

    # Random channels against their Kraus-swap conjugates.  The gradient
    # engine (p = 1.5, S_min) climbs the same function on both sides from the
    # same starts, so the two agree at whatever optimum they reach.  The
    # fixed-point engine takes other paths on the two sides, so both must
    # find the global optimum: those pairs run with the default 32 restarts,
    # on pool channels where one restart reaches it 42-60% of the time (a
    # miss below 1e-7 per call).  On the d = 4 channel only 22-30% of
    # restarts do, so its p >= 2 values are checked one-sided.
    shapes = ((2, 3),) if tiny else ((2, 3), (3, 4), (4, 5), (5, 6))
    rand = {s: refs.reframe(pool_kraus(s[0], s[0], s[1], tag), rng)
            for tag, s in enumerate(shapes, start=10)}
    for (d, n), k in rand.items():
        ops += pair_ops(f"rand{d}x{n}", k, (1.5, None), gradient_pairs)
    if not tiny:
        for (d, n), p in (((2, 3), INF), ((3, 4), 3), ((5, 6), 2)):
            ops += pair_ops(f"rand{d}x{n}", rand[d, n], (p,), default)
        ops += [purity_op(f"rand4x5 nu_{p}", rand[4, 5], p, quick) for p in (2, 3, INF)]

    # Known fault: s**p underflows to 0 at large p in linalg.schatten_norm and
    # purity._pnorm_objective, so nu_2000 of dep3 comes back as 0.0.  The
    # input does not depend on the seed, so it fails in every run.
    spec = refs.depolarizing_spectrum(3, 0.5)
    ops.append(purity_op(
        "dep3 nu_2000", refs.pauli_kraus(refs.depolarizing_weights(3, 0.5)), 2000,
        OptimizerOptions(), refs.pnorm(spec, 2000),
        known_fault="nu_p at p = 2000 underflows to 0.0",
    ))
    return ops


# -------------------------------------------------------------- product-gap

def gap_op(label, k1, k2, p, opts, zero_gap: bool, want_rhs=None) -> Op:
    """``multiplicativity_gap`` (``p`` given) or ``additivity_gap_entropy``."""
    c1, c2 = channel(k1), channel(k2)
    if p is None:
        call = lambda: purity.additivity_gap_entropy(c1, c2, opts)
    else:
        call = lambda: purity.multiplicativity_gap(c1, c2, p, opts)

    def check(g):
        check_report(g.report_1, k1, p)
        check_report(g.report_2, k2, p)
        check_report(g.report_12, k1, p, k2=k2)
        if p is None:
            close(g.rhs, g.report_1.value + g.report_2.value, 1e-12, "rhs")
        else:
            close(g.rhs, g.report_1.value * g.report_2.value, 1e-12, "rhs")
        close(g.gap, g.rhs - g.lhs if p is None else g.lhs - g.rhs, 1e-12, "gap")
        expect(g.gap >= -1e-8, f"{label}: gap {g.gap!r} below -1e-8")
        if zero_gap:
            close(g.gap, 0.0, 1e-6, f"{label} gap")
        if want_rhs is not None:
            close(g.rhs, want_rhs, 1e-8, f"{label} rhs against the closed form")

    return Op(label, call, check)


def product_gap(seed: int, tiny: bool) -> list[Op]:
    """Gaps on product channels up to total dimension 16."""
    rng = np.random.default_rng([seed, 2])
    opts = OptimizerOptions(restarts=4, seed=seed)
    ops: list[Op] = []

    for d in (2,) if tiny else (2, 3):
        b = float(rng.uniform(0.1, 0.9))
        w = refs.depolarizing_weights(d, b)
        k1 = refs.reframe(refs.pauli_kraus(w), rng)
        k2 = refs.reframe(refs.pauli_kraus(w), rng)
        spec = refs.depolarizing_spectrum(d, b)
        for p in (2,) if tiny else (2, 3, INF):
            ops.append(gap_op(f"dep{d}^2 mult p={p}", k1, k2, p, opts, True,
                              refs.pnorm(spec, p) ** 2))
        ops.append(gap_op(f"dep{d}^2 S_min", k1, k2, None, opts, True,
                          2 * refs.entropy_bits(spec)))

    pairs = (((2, 2, 3), (2, 2, 2)),) if tiny else (
        ((2, 2, 3), (2, 2, 2)), ((2, 3, 2), (3, 2, 4)), ((3, 3, 2), (3, 3, 3)),
        ((2, 2, 4), (4, 4, 3)),
    )
    for tag, (s1, s2) in enumerate(pairs, start=30):
        k1 = refs.reframe(pool_kraus(*s1, tag), rng)
        k2 = refs.reframe(pool_kraus(*s2, tag + 100), rng)
        label = f"rand{s1[0]}x{s2[0]}"
        for p in (2,) if tiny else (2, INF):
            ops.append(gap_op(f"{label} mult p={p}", k1, k2, p, opts, False))
        ops.append(gap_op(f"{label} S_min", k1, k2, None, opts, False))

    if not tiny:
        # The d = 4, 16-Kraus random channel against itself at p = 2.
        k = refs.reframe(pool_kraus(4, 4, 16, 40), rng)
        ops.append(gap_op("rand4x16^2 mult p=2", k, k, 2,
                          OptimizerOptions(restarts=2, seed=seed), False))
    return ops


# --------------------------------------------------------- conjugate-routes

ROUTES = ("kraus", "choi", "ancilla")


def matrix_unit_residual(k1: np.ndarray, k2: np.ndarray, w: np.ndarray) -> float:
    """``max_ab ||Phi_1(E_ab) - W Phi_2(E_ab) W^+||_F`` by the reference kernel."""
    d = k1.shape[2]
    worst = 0.0
    for a in range(d):
        for b in range(d):
            e = np.zeros((d, d))
            e[a, b] = 1.0
            diff = refs.apply(k1, e) - w @ refs.apply(k2, e) @ refs.dagger(w)
            worst = max(worst, float(np.linalg.norm(diff)))
    return worst


def route_ops(label, kraus, rng, state: dict, full: bool) -> list[Op]:
    """Conjugate by each route into ``state``; with ``full``, also the
    spectrum pair and the Kraus -> Choi -> Kraus round trip."""
    ch = channel(kraus)
    rank = refs.kraus_rank(kraus)
    conj_rank = refs.kraus_rank(refs.kraus_swap(kraus))
    psi = refs.haar_state(kraus.shape[2], rng)
    parent_spec = refs.nonzero(refs.spectrum(refs.pure_output(kraus, psi)))
    ops = []
    for m in ROUTES:
        def call(m=m):
            state[(label, m)] = out = conj.conjugate_channel(ch, m)
            return out

        def check(out, m=m):
            spec = refs.nonzero(refs.spectrum(refs.pure_output(np.asarray(out.kraus), psi)))
            expect(len(spec) == len(parent_spec), f"{label} {m}: output rank differs")
            expect(np.abs(spec - parent_spec).max() < 1e-9,
                   f"{label} {m}: conjugate output spectrum differs from the parent's")
            if m == "choi":
                # Minimal on both sides: the environment is the parent's
                # Kraus rank, the operator count the conjugate's own.
                expect(out.d_out == rank and out.n_kraus == conj_rank,
                       f"{label}: choi route is {out.n_kraus} operators into "
                       f"{out.d_out} dimensions, Kraus ranks are {conj_rank} and {rank}")
        ops.append(Op(f"{label} conjugate {m}", call, check))
    if full:
        def check_spectra(res):
            sa, sb, dev = res
            expect(dev < 1e-9, f"{label}: spectrum_pair_check deviation {dev:.3e}")
            expect(len(sa.values) == len(parent_spec)
                   and np.abs(sa.values - parent_spec).max() < 1e-9,
                   f"{label}: spectrum_pair_check disagrees with the reference")
        ops.append(Op(f"{label} spectrum pair",
                      lambda: purity.spectrum_pair_check(ch, psi), check_spectra))

        def to_choi():
            state[(label, "choi_matrix")] = c = chn.kraus_to_choi(ch)
            return c

        def check_choi(c):
            err = float(np.abs(np.asarray(c.gamma) - refs.choi(kraus)).max())
            expect(err < 1e-12, f"{label}: Choi matrix off by {err:.3e}")
        ops.append(Op(f"{label} kraus_to_choi", to_choi, check_choi))

        def check_back(back):
            kb = np.asarray(back.kraus)
            expect(back.n_kraus == rank, f"{label}: round trip gave {back.n_kraus} "
                   f"operators, Kraus rank is {rank}")
            err = float(np.abs(refs.choi(kb) - refs.choi(kraus)).max())
            expect(err < 1e-10, f"{label}: Kraus->Choi->Kraus changed the channel ({err:.3e})")
        ops.append(Op(f"{label} choi_to_kraus",
                      lambda: chn.choi_to_kraus(state[(label, "choi_matrix")]), check_back))
    return ops


def relate_ops(label, kraus, state: dict, pairs) -> list[Op]:
    """Relate pairs of routes that ``route_ops`` put in ``state``."""
    rank = refs.kraus_rank(kraus)
    ops = []
    for a, b in pairs:
        def call(a=a, b=b):
            return conj.find_relating_isometry(state[(label, a)], state[(label, b)], tol=1e-8)

        def check(rel, a=a, b=b):
            k1 = np.asarray(state[(label, a)].kraus)
            k2 = np.asarray(state[(label, b)].kraus)
            expect(rel.residual < 1e-8, f"{label} {a}/{b}: residual {rel.residual:.3e}")
            res = matrix_unit_residual(k1, k2, rel.w)
            expect(res < 1e-8, f"{label} {a}/{b}: recomputed residual {res:.3e}")
            proj = refs.projector_residual(rel.w)
            expect(proj < 1e-8, f"{label} {a}/{b}: W^+W is not a projector ({proj:.3e})")
            expect(rel.rank == rank, f"{label} {a}/{b}: rank {rel.rank}, Kraus rank {rank}")
        ops.append(Op(f"{label} relate {a}/{b}", call, check))
    return ops


def reject_op(label, k1, k2) -> Op:
    """Conjugates of two different channels: no partial isometry relates them."""
    c1, c2 = channel(refs.kraus_swap(k1)), channel(refs.kraus_swap(k2))

    def call():
        try:
            return conj.find_relating_isometry(c1, c2, tol=1e-8)
        except conj.NotConjugateError:
            return "rejected"

    def check(out):
        expect(out == "rejected", f"{label}: accepted a non-conjugate pair")
    return Op(label, call, check)


def gl_op(label, kraus, p) -> Op:
    ch = channel(kraus)

    def check(res):
        expect(max(res) < 1e-10, f"{label}: linearizer identity residuals {res}")
    return Op(label, lambda: gl.verify_gl_identity(ch, p), check)


def ebt_ops(label, d_in, d_out, n, rng) -> list[Op]:
    """``conjugate_ebt`` on a random EBT channel; its conjugate is of Hadamard
    form, while a generic channel is not."""
    t = refs.haar_unitary(n, rng)[:, :d_in]
    ws = [row.conj() / np.linalg.norm(row) for row in t]
    xs = [np.linalg.norm(row) * refs.haar_state(d_out, rng) for row in t]
    ech = ebt.ebt_channel(xs, ws)
    kraus = np.stack([np.outer(x, w.conj()) for x, w in zip(xs, ws)])
    gram = np.stack(xs) @ np.stack(xs).conj().T
    generic = channel(refs.reframe(pool_kraus(d_in, d_out, 3, 50), rng))
    state: dict = {}

    def conjugate():
        had, state["conj"] = res = ebt.conjugate_ebt(ech)
        return res

    def check_conj(res):
        had, ck = res
        expect(np.abs(np.asarray(had.x_gram) - gram).max() < 1e-12, f"{label}: Gram matrix")
        expect(np.abs(np.asarray(ck.kraus) - refs.kraus_swap(kraus)).max() < 1e-12,
               f"{label}: conjugate Kraus list")

    def check_yes(det):
        expect(det.verdict == "yes", f"{label}: conjugate of an EBT channel "
               f"not detected as Hadamard form ({det.verdict})")
        # The detected frame carries its own phases, so the Gram matrix is
        # fixed up to a diagonal unitary: compare moduli.
        expect(np.abs(np.abs(np.asarray(det.gram)) - np.abs(gram)).max() < 1e-10,
               f"{label}: detected Gram matrix")

    def check_no(det):
        expect(det.verdict == "no", f"{label}: generic channel detected as {det.verdict}")

    return [
        Op(f"{label} conjugate_ebt", conjugate, check_conj),
        Op(f"{label} hadamard form", lambda: ebt.is_hadamard_form(state["conj"]), check_yes),
        Op(f"{label} generic form", lambda: ebt.is_hadamard_form(generic), check_no),
    ]


#: Passes per round over the relations, rejections and linearizer checks
#: of the small channels.  They take 1-250 ms, the other calls 10 us to 1 ms.
#: When everything ran once per round, the median and the tail fell between
#: unlike calls and swung 0.3-0.4 over ten seeds.
PASSES = 4


def conjugate_routes(seed: int, tiny: bool) -> list[Op]:
    """The three conjugation routes and the isometry finder, no optimizer."""
    rng = np.random.default_rng([seed, 3])
    all_pairs = (("kraus", "choi"), ("kraus", "ancilla"), ("choi", "ancilla"))
    state: dict = {}
    once: list[Op] = []
    repeated: list[Op] = []
    # One shape, so that each kind of relation forms a cluster of 24 calls
    # per round for the median to land in.
    shape = (2, 2, 3) if tiny else (3, 4, 5)
    for tag in range(60, 61 if tiny else 66):
        k = refs.reframe(pool_kraus(*shape, tag), rng)
        label = "rand{}x{}x{} #{}".format(*shape, tag - 59)
        once += route_ops(label, k, rng, state, True)
        repeated += relate_ops(label, k, state, all_pairs)
    # Two rejected pairs of one shape: repeated, they make the one cluster
    # that the latency tail lands in.
    shape = (2, 2, 3) if tiny else (3, 3, 4)
    for tag in (70,) if tiny else (70, 71):
        k1 = refs.reframe(pool_kraus(*shape, tag), rng)
        k2 = refs.reframe(pool_kraus(*shape, tag + 100), rng)
        repeated.append(reject_op("reject {}x{}x{} #{}".format(*shape, tag - 69), k1, k2))
    gl_cases = ((2, 2, 2, 2),) if tiny else (
        (2, 2, 2, 2), (2, 2, 3, 3), (2, 3, 2, 4), (3, 3, 2, 2), (3, 2, 3, 3), (4, 4, 2, 4),
    )
    for tag, (d_in, d_out, n, p) in enumerate(gl_cases, start=80):
        k = refs.reframe(pool_kraus(d_in, d_out, n, tag), rng)
        repeated.append(gl_op(f"gl rand{d_in}x{d_out}x{n} p={p}", k, p))
    once += ebt_ops("ebt3x3x4" if not tiny else "ebt2x2x3",
                    *((3, 3, 4) if not tiny else (2, 2, 3)), rng)
    if tiny:
        return once + repeated
    ops = once + repeated * PASSES
    # The d = 4, 16-Kraus channel, routes related once (each relation costs
    # one SVD of a 4096 x 256 system).
    k = refs.reframe(pool_kraus(4, 4, 16, 90), rng)
    ops += route_ops("rand4x4x16", k, rng, state, False)
    ops += relate_ops("rand4x4x16", k, state, (("choi", "kraus"),))
    # Known fault: the eager intertwiner candidate in
    # conjugate.find_relating_isometry asks for the full SVD of a 15625 x 625
    # system, whose discarded U alone is 3.9 GB; under the run's 3 GB
    # address-space cap it raises MemoryError.  The channel does not depend
    # on the seed, so it fails in every run.
    k = pool_kraus(5, 5, 25, 91)
    ops += route_ops("rand5x5x25", k, np.random.default_rng(POOL_SEED), state, False)
    d5 = relate_ops("rand5x5x25", k, state, (("choi", "kraus"),))
    d5[0].known_fault = "find_relating_isometry on d=5, 25 Kraus: MemoryError"
    return ops + d5


# -------------------------------------------------------------- cli-session

@dataclass
class CliResult:
    code: int
    out: bytes
    err: bytes

    def json(self):
        return json.loads(self.out)


class Cli:
    """Runs ``python -m qcc.cli`` with ``src`` on the path, in ``workdir``.

    With ``trace_dir`` set, commands run through ``cli_shim.py`` instead,
    which traces the program in the child and writes its spans there.
    """

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.shim = str(Path(__file__).resolve().parent / "cli_shim.py")
        self.trace_dir: Path | None = None
        self.spans: list[Path] = []

    def __call__(self, *argv: str) -> CliResult:
        cmd = [sys.executable, "-m", "qcc.cli", *argv]
        if self.trace_dir is not None:
            path = self.trace_dir / f"cli-{len(self.spans)}.npz"
            self.spans.append(path)
            cmd = [sys.executable, self.shim, str(path), *argv]
        p = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                           timeout=150)
        return CliResult(p.returncode, p.stdout, p.stderr)


def cli_op(cli: Cli, label: str, argv, check) -> Op:
    """One CLI command, which must exit with code 0 and pass ``check``."""
    def full_check(res: CliResult):
        tail = res.err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        expect(res.code == 0, f"{label}: exit code {res.code} ({tail[0]})")
        check(res)
    return Op(label, lambda: cli(*argv), full_check)


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return path.name


def cli_session(seed: int, tiny: bool, cli: Cli) -> list[Op]:
    """A fixed sequence of CLI commands on files the benchmark writes into
    ``cli.workdir``."""
    rng = np.random.default_rng([seed, 4])
    wd = cli.workdir
    wd.mkdir(parents=True, exist_ok=True)
    s = str(seed)
    ops: list[Op] = []

    # Inputs.
    b3 = float(rng.uniform(0.1, 0.9))
    dep3 = refs.reframe(refs.pauli_kraus(refs.depolarizing_weights(3, b3)), rng)
    spec3 = refs.depolarizing_spectrum(3, b3)
    f_dep3 = write_json(wd / "dep3.json", refs.channel_obj(dep3))
    f_dep3p = write_json(wd / "dep3p.json", {
        "d": 3, "basis": "pauli", "weights": list(refs.depolarizing_weights(3, b3))})
    qw = pool(100).dirichlet(np.ones(4))
    f_qubitp = write_json(wd / "qubitp.json", {"d": 2, "basis": "pauli", "weights": list(qw)})
    qspec = refs.unital_qubit_spectrum(refs.pauli_kraus(qw))
    b2 = float(rng.uniform(0.1, 0.9))
    dep2 = refs.reframe(refs.pauli_kraus(refs.depolarizing_weights(2, b2)), rng)
    f_dep2 = write_json(wd / "dep2.json", refs.channel_obj(dep2))
    r3 = refs.reframe(pool_kraus(3, 3, 4, 101), rng)
    f_r3 = write_json(wd / "rand3.json", refs.channel_obj(r3))
    r2 = refs.reframe(pool_kraus(2, 2, 3, 102), rng)
    f_r2 = write_json(wd / "rand2.json", refs.channel_obj(r2))
    # Hadamard form: F_m = sum_j c_jm |e_j><w_j| with an orthonormal frame w
    # and unit columns c_.j, so that sum_m F_m^+ F_m = I.
    coeffs = refs.haar_unitary(4, rng)[:, :3]
    frame = refs.haar_unitary(3, rng)
    had = np.einsum("mj,jb->mjb", coeffs, frame.conj().T)
    f_had = write_json(wd / "hadamard.json", refs.channel_obj(had))
    t = refs.haar_unitary(4, rng)[:, :3]
    ebt_w = [row.conj() / np.linalg.norm(row) for row in t]
    ebt_x = [np.linalg.norm(row) * refs.haar_state(3, rng) for row in t]
    ebt_gram = np.stack(ebt_x) @ np.stack(ebt_x).conj().T
    f_ebt = write_json(wd / "ebt.json", {
        "x": [refs.encode_vector(x) for x in ebt_x], "w": [refs.encode_vector(w) for w in ebt_w]})
    rho = refs.haar_state(3, rng)
    rho = np.outer(rho, rho.conj()) * 0.7 + 0.1 * np.eye(3)
    f_rho = write_json(wd / "rho3.json", refs.encode_matrix(rho))

    def value_check(kraus, p, want=None, tol=1e-8):
        def check(res):
            r = res.json()["results"]
            psi = refs.decode_vector(r["optimizer_state"])
            got = objective(refs.pure_output(kraus, psi / np.linalg.norm(psi)), p)
            close(r["value"], got, 1e-9, "value re-evaluated from optimizer_state")
            if want is not None:
                close(r["value"], want, tol, "value against its closed form")
            if p is not None:
                expect(r["value"] <= 1 + 1e-12, "nu_p exceeds 1")
        return check

    def built(name, check):
        return lambda res: check(json.loads((wd / name).read_text()))

    def check_dep_build(obj):
        k = refs.channel_from_obj(obj)
        err = np.abs(refs.choi(k) - refs.choi(refs.pauli_kraus(refs.depolarizing_weights(3, b3)))).max()
        expect(err < 1e-12, f"built depolarizing channel off by {err:.3e}")

    def check_weights(want):
        def check(obj):
            expect(np.abs(np.array(obj["weights"]) - want).max() < 1e-15, "built weights")
        return check

    def check_tp(rank=None):
        def check(obj):
            k = refs.channel_from_obj(obj)
            expect(refs.tp_residual(k) < 1e-12, "built channel is not trace preserving")
            if rank is not None:
                expect(refs.kraus_rank(k) == rank, "built channel has the wrong Kraus rank")
        return check

    ax = pool(103).dirichlet(np.ones(6))
    t_arg = ",".join(repr(float(x)) for x in ax[1:5])
    ax_w = refs.axes_weights(3, ax[0], ax[1:5], ax[5])
    builds = [
        ("build depolarizing", ["build", "depolarizing", "-d", "3", "-b", repr(b3),
                                "--out", "b_dep3.json"], built("b_dep3.json", check_dep_build)),
        ("build depolarizing --pauli-json", ["build", "depolarizing", "-d", "3", "-b", repr(b3),
                                             "--pauli-json", "--out", "b_dep3p.json"],
         built("b_dep3p.json", check_weights(refs.depolarizing_weights(3, b3)))),
        ("build pauli", ["build", "pauli", "-d", "2", "--weights",
                         ",".join(repr(float(x)) for x in qw), "--pauli-json", "--out",
                         "b_qubitp.json"], built("b_qubitp.json", check_weights(qw))),
        ("build axes", ["build", "axes", "-d", "3", "-s", repr(float(ax[0])), "-t", t_arg,
                        "-u", repr(float(ax[5])), "--pauli-json", "--out", "b_axes.json"],
         built("b_axes.json", check_weights(ax_w))),
        ("build random", ["build", "random", "-d", "3", "--kraus", "4", "--seed", s,
                          "--out", "b_rand.json"], built("b_rand.json", check_tp(4))),
        ("build cq", ["build", "cq", "-d", "3", "--seed", s, "--out", "b_cq.json"],
         built("b_cq.json", check_tp())),
        ("build ebt", ["build", "ebt", "-d", "3", "--seed", s, "--out", "b_ebt.json"],
         built("b_ebt.json", check_tp())),
        ("build noisy", ["build", "noisy", "-d", "4", "--out", "b_noisy.json"],
         built("b_noisy.json", check_tp(16))),
        ("build identity", ["build", "identity", "-d", "2", "--out", "b_id.json"],
         built("b_id.json", lambda obj: expect(
             np.abs(refs.channel_from_obj(obj) - np.eye(2)).max() == 0, "identity"))),
    ]
    if tiny:
        builds = builds[:1]
    ops += [cli_op(cli, label, argv, check) for label, argv, check in builds]

    def check_conjugate(parent, method):
        def check(res):
            k = refs.channel_from_obj(res.json())
            psi = refs.haar_state(parent.shape[2], np.random.default_rng(0))
            a = refs.nonzero(refs.spectrum(refs.pure_output(parent, psi)))
            b = refs.nonzero(refs.spectrum(refs.pure_output(k, psi)))
            expect(len(a) == len(b) and np.abs(a - b).max() < 1e-9,
                   f"conjugate --method {method}: output spectrum differs from the parent's")
            if method == "kraus":
                expect(np.abs(k - refs.kraus_swap(parent)).max() < 1e-15, "kraus route")
        return check

    nu_r3 = ["nu", "--in", f_r3, "-p", "2", "--restarts", "8", "--seed", s]
    first: dict = {}

    def check_same(res):
        value_check(r3, 2)(res)
        if "out" in first:
            expect(res.out == first["out"], "two runs of one seeded command differ on stdout")
        first["out"] = res.out

    commands = [
        ("nu dep3 p=2", ["nu", "--in", f_dep3, "-p", "2", "--seed", s],
         value_check(dep3, 2, refs.pnorm(spec3, 2))),
        ("nu dep3 p=inf", ["nu", "--in", f_dep3, "-p", "inf", "--seed", s],
         value_check(dep3, INF, refs.pnorm(spec3, INF))),
        ("nu dep3 p=3", ["nu", "--in", f_dep3, "-p", "3", "--seed", s],
         value_check(dep3, 3, refs.pnorm(spec3, 3))),
        ("nu dep3 p=1.5", ["nu", "--in", f_dep3, "-p", "1.5", "--seed", s],
         value_check(dep3, 1.5, refs.pnorm(spec3, 1.5))),
        ("nu rand3 p=2 (1st)", nu_r3, check_same),
        ("nu rand3 p=2 (2nd)", nu_r3, check_same),
        ("nu rand2 p=1.5", ["nu", "--in", f_r2, "-p", "1.5", "--restarts", "4", "--seed", s],
         value_check(r2, 1.5)),
        ("smin dep3", ["smin", "--in", f_dep3, "--seed", s],
         value_check(dep3, None, refs.entropy_bits(spec3))),
        ("smin dep3 base e", ["smin", "--in", f_dep3, "--base", "e", "--seed", s],
         lambda res: close(res.json()["results"]["value"],
                           refs.entropy_bits(spec3) * math.log(2), 1e-8, "entropy in nats")),
        ("smin rand3", ["smin", "--in", f_r3, "--restarts", "4", "--seed", s],
         value_check(r3, None)),
        ("capacity dep3", ["capacity", "--in", f_dep3p, "--seed", s],
         lambda res: close(res.json()["results"]["capacity"],
                           math.log2(3) - refs.entropy_bits(spec3), 1e-8, "capacity")),
        ("capacity qubit", ["capacity", "--in", f_qubitp, "--restarts", "4", "--seed", s],
         lambda res: close(res.json()["results"]["capacity"],
                           1 - refs.entropy_bits(qspec), 1e-6, "capacity")),
        ("mult dep2 x dep2", ["mult", "--a", f_dep2, "--b", f_dep2, "-p", "2",
                              "--restarts", "4", "--seed", s],
         lambda res: close(res.json()["results"]["gap"], 0.0, 1e-6, "depolarizing gap")),
        ("mult dep2 x rand2", ["mult", "--a", f_dep2, "--b", f_r2, "-p", "2",
                               "--restarts", "2", "--seed", s],
         lambda res: expect(res.json()["results"]["gap"] >= -1e-8, "negative gap")),
        ("conjugate choi --check", ["conjugate", "--in", f_r3, "--method", "choi", "--check"],
         check_conjugate(r3, "choi")),
        ("conjugate ancilla --check", ["conjugate", "--in", f_r3, "--method", "ancilla",
                                       "--check"], check_conjugate(r3, "ancilla")),
        ("conjugate choi --check rand2", ["conjugate", "--in", f_r2, "--method", "choi",
                                          "--check"], check_conjugate(r2, "choi")),
        ("conjugate kraus", ["conjugate", "--in", f_r2, "--method", "kraus"],
         check_conjugate(r2, "kraus")),
        ("choi rand3", ["choi", "--in", f_r3],
         lambda res: expect(np.abs(refs.decode_matrix(res.json()["gamma"])
                                   - refs.choi(r3)).max() < 1e-12, "Choi matrix")),
        ("apply rand3", ["apply", "--in", f_r3, "--state", f_rho],
         lambda res: expect(np.abs(refs.decode_matrix(res.json()["matrix"])
                                   - refs.apply(r3, rho)).max() < 1e-12, "channel output")),
        ("pauli lambda dep3", ["pauli", "lambda", "--in", f_dep3p],
         lambda res: expect(np.abs(refs.decode_vector(res.json()["results"]["lambda"])
                                   - np.r_[1.0, [b3] * 8]).max() < 1e-12, "lambda spectrum")),
        ("pauli lambda qubit", ["pauli", "lambda", "--in", f_qubitp],
         lambda res: expect(np.abs(np.sort(np.abs(refs.decode_vector(
             res.json()["results"]["lambda"])[1:])) - np.sort(refs.bloch_lambdas(
                 refs.pauli_kraus(qw)))).max() < 1e-12, "lambda spectrum")),
        ("pauli bound dep3 p=inf", ["pauli", "bound", "--in", f_dep3p, "-p", "inf"],
         lambda res: expect(res.json()["results"]["majorization_bound"]
                            >= refs.pnorm(spec3, INF) - 1e-12, "bound below nu_inf")),
        ("pauli bound qubit p=2", ["pauli", "bound", "--in", f_qubitp, "-p", "2"],
         lambda res: expect(res.json()["results"]["majorization_bound"]
                            >= refs.pnorm(qspec, 2) - 1e-12, "bound below nu_2")),
        ("ebt detect hadamard", ["ebt", "detect", "--in", f_had],
         lambda res: expect(res.json()["results"]["verdict"] == "yes", "Hadamard form missed")),
        ("ebt detect generic", ["ebt", "detect", "--in", f_r3],
         lambda res: expect(res.json()["results"]["verdict"] == "no", "generic channel")),
        ("ebt conjugate", ["ebt", "conjugate", "--in", f_ebt],
         lambda res: expect(np.abs(refs.decode_matrix(res.json()["results"]["gram"])
                                   - ebt_gram).max() < 1e-12, "EBT conjugate Gram matrix")),
        ("gl theta rand2 p=2", ["gl", "theta", "--in", f_r2, "-p", "2"],
         lambda res: expect(np.abs(refs.decode_matrix(res.json()["matrix"])
                                   - refs.theta2(r2)).max() < 1e-12, "theta")),
        ("gl verify rand3 p=2", ["gl", "verify", "--in", f_r3, "-p", "2", "--seed", s],
         lambda res: expect(res.json()["results"]["passed"] is True, "gl identities")),
        ("gl verify rand2 p=4", ["gl", "verify", "--in", f_r2, "-p", "4", "--seed", s],
         lambda res: expect(res.json()["results"]["passed"] is True, "gl identities")),
    ]
    if tiny:
        commands = commands[:1] + commands[-1:]
    ops += [cli_op(cli, label, argv, check) for label, argv, check in commands]

    # The verify suites draw their own random channels from --seed, and their
    # run time swings 11-20 s with it; they run at the baseline --seed 1.
    suite = ["verify", "--suite", "gl", "--trials", "1"] if tiny else ["verify", "--suite", "all"]
    ops.append(cli_op(cli, "verify " + " ".join(suite[1:]), suite + ["--seed", "1"],
                      lambda res: expect(res.json()["results"]["checks_failed"] == 0,
                                         "verify reported failed checks")))
    return ops


def build(name: str, seed: int, tiny: bool, cli: Cli) -> list[Op]:
    if name == "single-purity":
        return single_purity(seed, tiny)
    if name == "product-gap":
        return product_gap(seed, tiny)
    if name == "conjugate-routes":
        return conjugate_routes(seed, tiny)
    if name == "cli-session":
        return cli_session(seed, tiny, cli)
    raise ValueError(f"unknown workload {name!r}")
