"""Optimal-output-purity functionals: maximal output p-norm and minimal
output entropy, plus multiplicativity/additivity gap measurement.

Both functionals are optimized over pure input states (the supremum over all
states is attained there).  The optimizers are multistart local ascents and
therefore report *certified one-sided bounds*: the returned value is always
achieved by ``optimizer_state``, never an unverified global claim.

On a pure input the optimizer never forms a density matrix.  With the Kraus
stack ``K`` of shape ``(n, d_out, d_in)`` and ``M = K psi`` of shape
``(n, d_out)``, the channel output is ``Phi(psi psi^+) = M^T conj(M)`` and the
conjugate channel's output is ``M M^+``.  The two Gram matrices share their
nonzero spectrum (the paper's spectrum law), so every objective is evaluated
on the smaller one.  The adjoint is ``vec(Phi^+(X)) = S vec(X)``, with the
``(d_in^2, d_out^2)`` superoperator ``S`` built on first use, so a channel
with ``d_in d_out > MAX_DIM^2`` is rejected; the gradient ``Phi^+(X) psi =
K_r^+ vec(M X^T)`` (``K_r`` the stack reshaped to ``(n d_out) x d_in``)
never forms ``Phi^+(X)``.

A gap's product run uses the same kernel built from the two factors, never
from the product's ``(n1 n2, d1_out d2_out, d1_in d2_in)`` Kraus stack.  With
``Psi`` the ``d1_in x d2_in`` reshape of ``psi`` and ``F_r``, ``G_r`` the
factors' stacks reshaped to ``(n d_out) x d_in``, the outputs are
``F_r Psi G_r^T`` regrouped to the product's ``(k1 k2, a1 a2)`` layout; the
adjoint is ``S_1 X S_2^T`` on the ``(a1 a1', a2 a2')`` regrouping of ``X``,
each ``S`` a factor's ``(d_in^2, d_out^2)`` adjoint superoperator; and the
gradient is ``F_r^+ Y conj(G_r)`` on the ``(n1 d1_out, n2 d2_out)``
regrouping of ``Y = M h(sigma)^T``.  The Gram matrices, their eigenpairs and
both engines are shared with the single-channel kernel.

For p >= 2 the engine is the fixed-point iteration

    psi  <-  principal eigenvector of  Phi^+( Phi(psi psi^+)^(p-1) ),

the natural power-iteration analogue, which ascends ``Tr Phi(rho)^p``.
``p = inf`` takes the limit of the power, the projector on the top output
eigenvector.  All restarts of the fixed point run together as one stack; a
restart leaves the stack once it meets its stopping rule.

A run's starts are its ``initial_states`` followed by ``restarts`` Haar
states, restart ``r`` drawn from ``derived_rng(seed, r)``.  Those depend only
on ``(d_in, seed, restarts)``, so each such stack is built once, kept
read-only in a small cache and shared by every run with the same three.

For p in [1, 2) and for the entropy, Riemannian gradient ascent on the unit
sphere runs one restart at a time: each step moves along the tangent
gradient ``r = g - psi <psi, g>`` and renormalizes.  The step length opens
at the Barzilai-Borwein length of the last step and is halved until
Armijo's condition holds, so every accepted step ascends.  The step is
taken along ``r``, not ``g``: the radial part of ``g`` is
``Tr sigma h(sigma)``, so after renormalization a step along ``g`` stops
growing with its length while Armijo's bound keeps growing, and on flat or
degenerate landscapes the ascent crawls for thousands of iterations.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from . import channel as chn
from .channel import KrausChannel
from .conjugate import conjugate_kraus
from .linalg import DEFAULT_TOL, MAX_DIM, Spectrum, nonzero_spectrum, pnorm
from .random import derived_rng, haar_state


@dataclass(frozen=True)
class OptimizerOptions:
    """Multistart optimizer configuration."""

    restarts: int = 32
    tol: float = 1e-10
    seed: int = 0
    max_iter: int = 2000

    def __post_init__(self):
        if not self.restarts >= 0:
            raise ValueError(f"restarts must be at least 0, got {self.restarts}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


DEFAULT_OPTS = OptimizerOptions()


@dataclass(frozen=True)
class PurityReport:
    """Result of a purity optimization.

    ``value`` is the objective evaluated at ``optimizer_state``; for the
    p-norm it is a lower bound on the true supremum, for the entropy an
    upper bound on the true infimum.
    """

    value: float
    optimizer_state: np.ndarray
    p: float
    restarts: int
    converged: bool
    iterations: int


@dataclass(frozen=True)
class MultiplicativityGap:
    lhs: float
    rhs: float
    gap: float
    witness_state: np.ndarray | None
    report_1: PurityReport
    report_2: PurityReport
    report_12: PurityReport


@dataclass(frozen=True)
class EntropyAdditivityGap:
    lhs: float
    rhs: float
    gap: float
    report_1: PurityReport
    report_2: PurityReport
    report_12: PurityReport


def _dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.swapaxes(a, -1, -2).conj()


class _Kernel:
    """Pure-state kernel of one channel.

    Every method takes a stack: a leading axis of restarts (or none) in front
    of the shapes named below.
    """

    def __init__(self, ch: KrausChannel):
        # The adjoint superoperator holds (d_in d_out)^2 entries: 16 MB at the cap.
        if ch.d_in * ch.d_out > MAX_DIM**2:
            raise ValueError(
                f"d_in * d_out = {ch.d_in * ch.d_out} exceeds the optimizer's supported "
                f"size (d_in * d_out <= {MAX_DIM**2})"
            )
        chn.require_cpt(ch, tol=1e-8)
        self.channel = ch
        self.n, self.d_out, self.d_in = ch.kraus.shape
        self.rows = ch.kraus.reshape(self.n * self.d_out, self.d_in)
        self.rows_h = self.rows.conj().T
        #: The conjugate's output ``M M^+`` is the smaller Gram matrix.
        self.on_env = self.n < self.d_out

    @functools.cached_property
    def sup(self) -> np.ndarray:
        """The adjoint's ``(d_in^2, d_out^2)`` superoperator, built on first use."""
        return chn.adjoint_superoperator(self.channel)

    def outputs(self, psi: np.ndarray) -> np.ndarray:
        """``M = K psi``, shape ``(n, d_out)`` per state."""
        return (psi @ self.rows.T).reshape(psi.shape[:-1] + (self.n, self.d_out))

    def gram(self, m: np.ndarray) -> np.ndarray:
        """The smaller of ``M M^+`` and ``M^T conj(M)``; its nonzero
        eigenvalues are the output's."""
        return m @ _dag(m) if self.on_env else np.swapaxes(m, -1, -2) @ m.conj()

    def eigh(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs of :meth:`gram`, eigenvalues ascending and clipped at
        zero."""
        w, u = np.linalg.eigh(self.gram(m))
        return np.maximum(w, 0.0), u

    def spectrum(self, psi: np.ndarray) -> np.ndarray:
        """The ``min(n, d_out)`` largest output eigenvalues, ascending."""
        return self.eigh(self.outputs(psi))[0]

    def output_operator(self, m, w, u, hw) -> np.ndarray:
        """``sum_i hw_i v_i v_i^+`` over the output eigenvectors ``v_i``;
        ``hw`` must vanish where ``w`` does."""
        if self.on_env:
            # Gram eigenpair (w_i, u_i) has output eigenvector M^T conj(u_i) / sqrt(w_i).
            u = np.swapaxes(m, -1, -2) @ u.conj()
            hw = hw / np.where(hw > 0, w, 1.0)
        return (u * hw[..., None, :]) @ _dag(u)

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """``vec(Phi^+(X)) = S vec(X)``, ``X`` of shape ``(d_out, d_out)``."""
        lead = x.shape[:-2]
        y = x.reshape(lead + (self.d_out * self.d_out,)) @ self.sup.T
        return y.reshape(lead + (self.d_in, self.d_in))

    def pull_back(self, m, u, h) -> np.ndarray:
        """``Phi^+(h(sigma)) psi = K_r^+ vec(M h(sigma)^T)`` for one state, with
        ``h`` given on the Gram eigenpairs ``u``."""
        return self.rows_h @ self.weighted_outputs(m, u, h).reshape(-1)

    def weighted_outputs(self, m, u, h) -> np.ndarray:
        """``M h(sigma)^T`` for one state, with ``h`` given on the Gram
        eigenpairs ``u``."""
        if self.on_env:
            return (u * h) @ (_dag(u) @ m)  # h(M M^+) M = M h(sigma)^T
        return ((m @ u.conj()) * h) @ u.T


class _ProductKernel(_Kernel):
    """Pure-state kernel of ``Phi_1 (x) Phi_2``, built from the two factors' kernels.

    Its outputs, spectra and output operators are those of the
    :class:`_Kernel` of the product's Kraus stack ``F_i (x) G_j``, pair
    ``(i, j)`` first-factor major, but that stack is never formed.
    :meth:`gram`, :meth:`eigh`, :meth:`spectrum` and
    :meth:`output_operator` are inherited unchanged.
    """

    def __init__(self, k1: _Kernel, k2: _Kernel):
        self.k1, self.k2 = k1, k2
        self.dims = (k1.n, k1.d_out, k1.d_in, k2.n, k2.d_out, k2.d_in)
        self.n, self.d_out, self.d_in = k1.n * k2.n, k1.d_out * k2.d_out, k1.d_in * k2.d_in
        self.on_env = self.n < self.d_out

    def outputs(self, psi: np.ndarray) -> np.ndarray:
        """``M[(i, j), (a, b)] = (F_i Psi G_j^T)[a, b]``."""
        n1, o1, i1, n2, o2, i2 = self.dims
        lead = psi.shape[:-1]
        big = self.k1.rows @ psi.reshape(lead + (i1, i2)) @ self.k2.rows.T
        m = np.swapaxes(big.reshape(lead + (n1, o1, n2, o2)), -3, -2)
        return m.reshape(lead + (self.n, self.d_out))

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """``(Phi_1^+ (x) Phi_2^+)(X) = S_1 X S_2^T`` on the ``(a1 a1', a2 a2')``
        regrouping of ``X``."""
        n1, o1, i1, n2, o2, i2 = self.dims
        lead = x.shape[:-2]
        x = np.swapaxes(x.reshape(lead + (o1, o2, o1, o2)), -3, -2)
        y = self.k1.sup @ x.reshape(lead + (o1 * o1, o2 * o2)) @ self.k2.sup.T
        y = np.swapaxes(y.reshape(lead + (i1, i1, i2, i2)), -3, -2)
        return y.reshape(lead + (self.d_in, self.d_in))

    def pull_back(self, m, u, h) -> np.ndarray:
        """``F_r^+ Y conj(G_r)``, with ``Y`` the ``(n1 d1_out, n2 d2_out)``
        regrouping of ``M h(sigma)^T``."""
        n1, o1, i1, n2, o2, i2 = self.dims
        y = self.weighted_outputs(m, u, h).reshape(n1, n2, o1, o2).swapaxes(1, 2)
        g = self.k1.rows_h @ y.reshape(n1 * o1, n2 * o2) @ self.k2.rows_h.T
        return g.reshape(-1)


def _support_power(w: np.ndarray, q: float) -> np.ndarray:
    """``w**q`` on eigenvalues above ``1e-15`` of the largest, zero below."""
    out = np.zeros_like(w)
    mask = w > 1e-15 * w.max(axis=-1, keepdims=True)
    out[mask] = w[mask] ** q
    return out


def _entropy_nat(w: np.ndarray) -> np.ndarray:
    """Von Neumann entropy in nats of a spectrum, ``0 log 0 = 0``."""
    return -(w * np.log(np.where(w > 0, w, 1.0))).sum(axis=-1)


def _fixed_point(kern: _Kernel, psi: np.ndarray, p: float, tol: float, max_iter: int):
    """Fixed-point ascent of ``Tr sigma^p`` (``lambda_max`` at p = inf) from
    every row of ``psi`` at once.

    A restart stops when the relative change of ``Tr sigma^p`` falls to
    ``tol``.  The power is taken relative to ``lambda_max``, which leaves
    the principal eigenvector unchanged and keeps it from underflowing.
    """
    # Tr sigma^p changes by the p-th power of the ratio of the norms.
    exponent = 1.0 if math.isinf(p) else p
    psi = psi.copy()
    iters = np.full(len(psi), max_iter)
    conv = np.zeros(len(psi), dtype=bool)
    live = np.arange(len(psi))
    m = kern.outputs(psi)
    w, u = kern.eigh(m)
    obj = np.log(pnorm(w, p))
    for it in range(1, max_iter + 1):
        hw = _support_power(w / w[..., -1:], p - 1)
        step = np.linalg.eigh(kern.adjoint(kern.output_operator(m, w, u, hw)))[1][..., -1]
        psi[live] = step
        m = kern.outputs(step)
        w, u = kern.eigh(m)
        new = np.log(pnorm(w, p))
        # A change too large for a double overflows to inf, which is not done.
        with np.errstate(over="ignore"):
            done = np.abs(np.expm1(exponent * (obj - new))) <= tol
        if done.any():
            iters[live[done]] = it
            conv[live[done]] = True
            keep = ~done
            live, m, w, u, new = live[keep], m[keep], w[keep], u[keep], new[keep]
            if not live.size:
                break
        obj = new
    return psi, iters, conv


def _gradient_restart(kern: _Kernel, psi: np.ndarray, p, tol: float, max_iter: int):
    """Riemannian gradient ascent on the unit sphere with a Barzilai-Borwein
    step length and backtracking.

    Maximizes ``Tr sigma^p`` when ``p`` is given, else ``-S(sigma)``.  With
    ``g`` the gradient, each step moves along the tangent gradient
    ``r = g - psi <psi, g>`` to ``normalize(psi + t r)``.  The trial length
    ``t`` is the Barzilai-Borwein length ``<s, s> / -Re<s, y>`` of the last
    step ``s`` and the change ``y`` of ``r`` (twice the last length when the
    curvature is not negative), and it is halved until Armijo's condition
    holds, so every accepted step ascends.
    """

    def phi_and_tangent(psi):
        m = kern.outputs(psi)
        w, u = kern.eigh(m)
        if p is not None:
            phi = float((w**p).sum())
            h = p * _support_power(w, p - 1)
        else:
            phi = -float(_entropy_nat(w))
            h = np.log(np.maximum(w, 1e-18)) + 1.0
        g = kern.pull_back(m, u, h)
        return phi, g - psi * np.vdot(psi, g)

    phi, r = phi_and_tangent(psi)
    step = 1.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        rnorm2 = float(np.vdot(r, r).real)
        if rnorm2 < 1e-30:
            converged = True
            break
        accepted = False
        for _ in range(60):
            cand = psi + step * r
            cand = cand / np.linalg.norm(cand)
            phi_new, r_new = phi_and_tangent(cand)
            if phi_new >= phi + 1e-4 * step * rnorm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        s, y = cand - psi, r_new - r
        curvature = -float(np.vdot(s, y).real)
        step = min(float(np.vdot(s, s).real) / curvature if curvature > 0 else 2.0 * step, 1e6)
        moved = abs(phi_new - phi)
        psi, r, phi = cand, r_new, phi_new
        if moved <= tol * max(abs(phi), 1e-12):
            converged = True
            break
    return psi, it, converged


def _gradient_ascent(kern: _Kernel, starts: np.ndarray, p, tol: float, max_iter: int):
    """:func:`_gradient_restart` from each row of ``starts`` in turn; each
    restart has its own line search."""
    runs = [_gradient_restart(kern, s, p, tol, max_iter) for s in starts]
    psi, iters, conv = zip(*runs)
    return np.array(psi), np.array(iters), np.array(conv)


@functools.lru_cache(maxsize=64)
def _haar_starts(d_in: int, seed: int, count: int) -> np.ndarray:
    """The read-only ``(count, d_in)`` stack of Haar starts ``r = 0 .. count - 1``
    of ``seed``; they depend on nothing else, so each stack is built once."""
    starts = np.empty((count, d_in), dtype=complex)
    for r in range(count):
        s = haar_state(d_in, derived_rng(seed, r))
        starts[r] = s / np.linalg.norm(s)
    starts.flags.writeable = False
    return starts


def _multistart(kern: _Kernel, p: float, opts: OptimizerOptions, initial_states, engine, score):
    """Run ``engine(kern, starts)`` from ``initial_states`` and
    ``opts.restarts`` Haar-random states; report the final state whose
    spectrum has the highest ``score``, the first one on ties."""
    seeded = [np.asarray(s, dtype=complex) for s in initial_states]
    seeded = np.array([s / np.linalg.norm(s) for s in seeded], dtype=complex).reshape(-1, kern.d_in)
    psi0 = np.concatenate([seeded, _haar_starts(kern.d_in, opts.seed, opts.restarts)])
    if not len(psi0):
        raise ValueError("the optimizer needs at least one start: restarts or initial_states")
    psi, iters, conv = engine(kern, psi0)
    vals = score(kern.spectrum(psi))
    best = int(np.argmax(vals))
    return PurityReport(
        value=float(vals[best]),
        optimizer_state=psi[best].copy(),
        p=p,
        restarts=len(psi0),
        converged=bool(conv[best]),
        iterations=int(iters.sum()),
    )


def nu_p(
    ch: KrausChannel,
    p: float,
    opts: OptimizerOptions = DEFAULT_OPTS,
    initial_states=(),
) -> PurityReport:
    """Maximal output p-norm ``sup_psi || Phi(psi psi^+) ||_p``.

    Returns a certified lower bound achieved by ``optimizer_state``;
    ``converged`` reports whether the winning restart's relative objective
    change fell below ``opts.tol``.  Extra deterministic starting vectors
    can be supplied via ``initial_states`` (used e.g. to seed a product
    channel with the product of single-channel optimizers).
    """
    return _nu_p(_Kernel(ch), p, opts, initial_states)


def _nu_p(kern: _Kernel, p: float, opts: OptimizerOptions, initial_states=()) -> PurityReport:
    """:func:`nu_p` on a kernel."""
    if not p >= 1:
        raise ValueError(f"nu_p requires p >= 1, got {p}")
    if p >= 2:
        engine = lambda kern, psi0: _fixed_point(kern, psi0, p, opts.tol, opts.max_iter)
    else:
        engine = lambda kern, psi0: _gradient_ascent(kern, psi0, p, opts.tol, opts.max_iter)
    return _multistart(kern, p, opts, initial_states, engine, lambda w: pnorm(w, p))


def s_min(
    ch: KrausChannel,
    opts: OptimizerOptions = DEFAULT_OPTS,
    base: float = 2.0,
    initial_states=(),
) -> PurityReport:
    """Minimal output entropy, reported in the given log base (default bits).

    A certified upper bound achieved by ``optimizer_state``.
    """
    return _s_min(_Kernel(ch), opts, base, initial_states)


def _s_min(kern: _Kernel, opts: OptimizerOptions, base: float, initial_states=()) -> PurityReport:
    """:func:`s_min` on a kernel."""
    engine = lambda kern, psi0: _gradient_ascent(kern, psi0, None, opts.tol, opts.max_iter)
    rep = _multistart(kern, 1.0, opts, initial_states, engine, lambda w: -_entropy_nat(w))
    return replace(rep, value=-rep.value / math.log(base))


def spectrum_pair_check(
    ch: KrausChannel, psi: np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[Spectrum, Spectrum, float]:
    """Non-zero output spectra of the channel and its conjugate on one pure
    input, plus their maximal entrywise deviation (zero-padded)."""
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    sa = nonzero_spectrum(chn.apply(ch, rho), tol)
    sb = nonzero_spectrum(chn.apply(conjugate_kraus(ch), rho), tol)
    n = max(len(sa), len(sb))
    pa = np.pad(sa.values, (0, n - len(sa)))
    pb = np.pad(sb.values, (0, n - len(sb)))
    dev = float(np.abs(pa - pb).max()) if n else 0.0
    return sa, sb, dev


def _gap_reports(run, ch1: KrausChannel, ch2: KrausChannel, opts: OptimizerOptions, better):
    """Single-channel and product reports for a gap; ``run(kern, opts,
    initial_states=...)`` optimizes on a kernel.

    The product run is optimized on :class:`_ProductKernel` and seeded with
    the tensor product of the single-channel optima.  The single runs are
    then seeded once more with the principal Schmidt factors of the product
    optimum, so that a single run that missed an optimum the product run
    found does not show up as a gap.  If that improves a single run by more
    than ``opts.tol`` relative to its first value, the product run is seeded
    once more with the new product state, so that it again starts from the
    best product state found.
    """
    once = replace(opts, restarts=0)

    def rerun(rep: PurityReport, kern: _Kernel, start: np.ndarray) -> PurityReport:
        # rep, or a run from start alone if it does better; both runs count.
        alt = run(kern, once, initial_states=[start])
        best = alt if better(alt.value, rep.value) else rep
        return replace(
            best, restarts=rep.restarts + alt.restarts, iterations=rep.iterations + alt.iterations
        )

    def gained(new: PurityReport, old: PurityReport) -> bool:
        # A gain within the optimizer's tolerance is rounding, not a new optimum.
        gain = abs(new.value - old.value)
        return better(new.value, old.value) and gain > opts.tol * abs(old.value)

    k1, k2 = _Kernel(ch1), _Kernel(ch2)
    r1 = run(k1, opts)
    r2 = run(k2, opts)
    product = _ProductKernel(k1, k2)
    r12 = run(product, opts, initial_states=[np.kron(r1.optimizer_state, r2.optimizer_state)])
    u, _, vh = np.linalg.svd(r12.optimizer_state.reshape(ch1.d_in, ch2.d_in))
    s1 = rerun(r1, k1, u[:, 0])
    s2 = rerun(r2, k2, vh[0])
    if gained(s1, r1) or gained(s2, r2):
        r12 = rerun(r12, product, np.kron(s1.optimizer_state, s2.optimizer_state))
    return s1, s2, r12


def multiplicativity_gap(
    ch1: KrausChannel,
    ch2: KrausChannel,
    p: float,
    opts: OptimizerOptions = DEFAULT_OPTS,
    witness_tol: float = 1e-6,
) -> MultiplicativityGap:
    """Measure ``nu_p(ch1 (x) ch2) - nu_p(ch1) nu_p(ch2)``.

    The product optimizer is seeded with the tensor product of the two
    single-channel optimizing states, so the reported gap is never negative
    beyond the final iteration's slack (product states are feasible).  The
    single-channel optimizers are seeded again from the product optimizer's
    state, so that a missed single-channel optimum does not read as a gap.
    A ``witness_state`` is returned only when the gap exceeds
    ``witness_tol`` (a candidate multiplicativity violation).
    """
    r1, r2, r12 = _gap_reports(
        lambda kern, o, **kw: _nu_p(kern, p, o, **kw), ch1, ch2, opts, operator.gt
    )
    lhs = r12.value
    rhs = r1.value * r2.value
    gap = lhs - rhs
    witness = r12.optimizer_state if gap > witness_tol else None
    return MultiplicativityGap(lhs, rhs, gap, witness, r1, r2, r12)


def additivity_gap_entropy(
    ch1: KrausChannel,
    ch2: KrausChannel,
    opts: OptimizerOptions = DEFAULT_OPTS,
    base: float = 2.0,
) -> EntropyAdditivityGap:
    """Measure ``(S_min(ch1) + S_min(ch2)) - S_min(ch1 (x) ch2)`` (>= 0 up to
    optimizer slack; product states are feasible for the joint infimum).
    The runs are seeded as in :func:`multiplicativity_gap`."""
    r1, r2, r12 = _gap_reports(
        lambda kern, o, **kw: _s_min(kern, o, base, **kw), ch1, ch2, opts, operator.lt
    )
    rhs = r1.value + r2.value
    lhs = r12.value
    return EntropyAdditivityGap(lhs=lhs, rhs=rhs, gap=rhs - lhs, report_1=r1, report_2=r2, report_12=r12)


def sampled_nu_p(
    ch: KrausChannel,
    p: float,
    n_samples: int,
    rng: np.random.Generator,
    opts: OptimizerOptions = DEFAULT_OPTS,
) -> float:
    """Independent cross-check of :func:`nu_p`: exhaustive random sampling of
    pure states followed by a local polish from the best sample."""
    d = ch.d_in
    batch = rng.standard_normal((n_samples, d)) + 1j * rng.standard_normal((n_samples, d))
    batch /= np.linalg.norm(batch, axis=1, keepdims=True)
    kern = _Kernel(ch)
    # Eigenvalues only: the samples need no eigenvectors.
    w = np.clip(np.linalg.eigvalsh(kern.gram(kern.outputs(batch))), 0.0, None)
    vals = pnorm(w, p)
    best = int(np.argmax(vals))
    rep = _nu_p(kern, p, replace(opts, restarts=0), initial_states=[batch[best]])
    return max(float(vals[best]), rep.value)
