"""Optimal-output-purity functionals: maximal output p-norm and minimal
output entropy, plus multiplicativity/additivity gap measurement.

Both functionals are optimized over pure input states (the supremum over all
states is attained there).  The optimizers are multistart local ascents and
therefore report *certified one-sided bounds*: the returned value is always
achieved by ``optimizer_state``, never an unverified global claim.

Every run goes through :func:`_multistart`, which chooses the objective
(``||sigma||_p`` for ``p >= 1``, ``-S`` in nats for ``p = None``), the
engine and the starts; the public entries and the gap routine all call it.

On a pure input the optimizer never forms a density matrix.  With the Kraus
stack ``K`` of shape ``(n, d_out, d_in)`` and ``M = K psi`` of shape
``(n, d_out)``, the channel output is ``Phi(psi psi^+) = M^T conj(M)`` and the
conjugate channel's output is ``M M^+``.  The two share their nonzero
spectrum (the paper's spectrum law), so a channel and its conjugate have the
same objectives on the same input space.  Every kernel is therefore built on
the side with the smaller output (:func:`_flips`): the Kraus-swap conjugate
when ``n < d_out``, the channel otherwise, and for a product both factors'
conjugates or neither, by ``n1 n2 < d1_out d2_out`` when each flipped
factor fits the cap.  The kernel has one layout, the output
``M^T conj(M)`` of the channel it is built on.  The adjoint is
``vec(Phi^+(X)) = S vec(X)``, with the ``(d_in^2, d_out^2)`` superoperator
``S`` built on first use, so a kernel with ``d_in d_out > MAX_DIM^2`` is
rejected: for a single channel, ``d_in min(n, d_out) > MAX_DIM^2``.  The
gradient ``Phi^+(X) psi = K_r^+ vec(M X^T)`` (``K_r`` the stack reshaped to
``(n d_out) x d_in``) never forms ``Phi^+(X)``.

A gap's product run uses the same kernel built from the two factors, never
from the product's ``(n1 n2, d1_out d2_out, d1_in d2_in)`` Kraus stack.  With
``Psi`` the ``d1_in x d2_in`` reshape of ``psi`` and ``F_r``, ``G_r`` the
factors' stacks reshaped to ``(n d_out) x d_in``, the outputs are
``F_r Psi G_r^T`` regrouped to the product's ``(k1 k2, a1 a2)`` layout; the
adjoint is ``S_1 X S_2^T`` on the ``(a1 a1', a2 a2')`` regrouping of ``X``,
each ``S`` a factor's ``(d_in^2, d_out^2)`` adjoint superoperator; and the
gradient is ``F_r^+ Y conj(G_r)`` on the ``(n1 d1_out, n2 d2_out)``
regrouping of ``Y = M X^T``.  The outputs' eigenpairs and both
engines are shared with the single-channel kernel.

The main engine is the fixed-point iteration

    psi  <-  principal eigenvector of  Phi^+(X),  X = grad f(sigma),
    sigma = Phi(psi psi^+),

with ``X = sigma^(p-1)`` up to a positive factor for ``f = Tr sigma^p``
and ``X = log sigma`` for ``f = -S(sigma)`` (its gradient ``log sigma + I``
less the identity, which only shifts ``Phi^+(X)`` by the identity, since
``Phi`` preserves the trace).  Both objectives are convex
in ``sigma`` for every ``p >= 1``, so each lies above its linearization
``f(sigma) + Tr X (sigma' - sigma)`` at the current output, and the new
input, which maximizes that linearization over pure inputs, never
descends: the convex-maximization argument of the generalized power method
(Journee, Nesterov, Richtarik and Sepulchre, JMLR 11, 2010).
At p = 2 and 3 a step makes one eigendecomposition, of the input operator;
any other p, and the entropy, also eigensolve the outputs
(:func:`_ascent_operator`).  Both engines run all restarts together as one
stack, in one loop (:func:`_lockstep`); a restart leaves the stack once
:func:`_stopped` says so.  Where the fixed point converges slowly, its
error shrinks by a nearly fixed rate ``rho`` per step, so it also tries
the Aitken jump to the limit of that geometric sequence (:func:`_jumps`),
and takes it only where it ascends strictly further than the plain step.

A run's starts are the ``initial_states`` that the gap reruns and
:func:`sampled_nu_p` seed it with, followed by ``restarts`` Haar states,
restart ``r`` drawn from ``derived_rng(seed, r)``.  Those depend only on
``(d_in, seed, restarts)``, so each such stack is built once, kept
read-only in a small cache and shared by every run with the same three.

A fixed-point step builds and eigensolves the whole ``d_in x d_in``
operator ``Phi^+(X)``.  Where that is costly, for p in [1, 2) and the
entropy on kernels with ``d_in^2 d_out > FIXED_POINT_SIZE``, Riemannian
gradient ascent on the unit sphere runs instead (:func:`_gradient`), on
the same stack, and needs only the vectors ``Phi^+(X) psi``.  Both engines
take ``X`` and the log-objective from :func:`_ascent_operator`, so the
gradient climbs the function that the fixed point's convexity argument
covers.  p >= 2 stays on the fixed point at every size, since it was
measured faster there: on the bench's ``rand4x16^2`` gap at p = 2, a
``(16, 16)`` product kernel, the gradient took 1.3-1.7x its time.  p = inf
has no gradient form.  A gradient step moves along the tangent gradient
``r = g - psi <psi, g>``, not ``g``: the radial part ``<psi, g>`` of ``g``
is lost in the renormalization, so a step along ``g`` stops growing with
its length while Armijo's bound keeps growing, and on flat or degenerate
landscapes the ascent crawls for thousands of iterations.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import channel as chn
from .channel import KrausChannel
from .conjugate import conjugate_kraus
from .linalg import MAX_DIM, Spectrum, dagger, nonzero_spectrum, pnorm
from .random import derived_rng, haar_state


def _require_count(name: str, value, low: int) -> None:
    """Refuse a ``value`` that is not an integer (numpy's too, but not a
    bool) of at least ``low``, naming it as ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


@dataclass(frozen=True)
class OptimizerOptions:
    """Multistart optimizer configuration.  ``restarts``, ``seed`` and
    ``max_iter`` are integers (numpy's too, but not bools), as the CLI reads
    them.  ``restarts`` is capped at ``MAX_DIM^2``, so that a Haar start stack
    is refused before it is built."""

    restarts: int = 32
    tol: float = 1e-10
    seed: int = 0
    max_iter: int = 2000

    def __post_init__(self):
        for name, low in (("restarts", 0), ("seed", 0), ("max_iter", 1)):
            _require_count(name, getattr(self, name), low)
        if self.restarts > MAX_DIM**2:
            raise ValueError(
                f"restarts {self.restarts} exceeds the supported size (restarts <= {MAX_DIM**2})"
            )
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


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
    restarts: int
    converged: bool
    iterations: int


@dataclass(frozen=True)
class GapReport:
    """A multiplicativity or additivity gap: ``lhs`` from the product run
    ``report_12``, ``rhs`` from the single runs ``report_1`` and
    ``report_2``.  Only :func:`multiplicativity_gap` sets a
    ``witness_state``."""

    lhs: float
    rhs: float
    gap: float
    report_1: PurityReport
    report_2: PurityReport
    report_12: PurityReport
    witness_state: np.ndarray | None = None


class _Kernel:
    """Pure-state kernel of one channel.

    Every method takes a stack: a leading axis of restarts (or none) in front
    of the shapes named below.  The kernel is correct for any channel, but
    the optimizer builds it on the side that :func:`_flips` chooses, where
    ``d_out <= n``.
    """

    def __init__(self, ch: KrausChannel):
        # The adjoint superoperator holds (d_in d_out)^2 entries: 16 MB at the cap.
        if ch.d_in * ch.d_out > MAX_DIM**2:
            raise ValueError(
                f"d_in * d_out = {ch.d_in * ch.d_out} exceeds the optimizer's supported "
                f"size (d_in * d_out <= {MAX_DIM**2})"
            )
        chn.require_cpt(ch)
        self.channel = ch
        self.n, self.d_out, self.d_in = ch.kraus.shape
        self.rows = ch.kraus.reshape(self.n * self.d_out, self.d_in)
        self.rows_h = self.rows.conj().T

    @functools.cached_property
    def sup(self) -> np.ndarray:
        """The adjoint's ``(d_in^2, d_out^2)`` superoperator, built on first use."""
        return chn.adjoint_superoperator(self.channel)

    def outputs(self, psi: np.ndarray) -> np.ndarray:
        """``M = K psi``, shape ``(n, d_out)`` per state."""
        return (psi @ self.rows.T).reshape(psi.shape[:-1] + (self.n, self.d_out))

    def gram(self, m: np.ndarray) -> np.ndarray:
        """The output ``sigma = M^T conj(M)``."""
        return np.swapaxes(m, -1, -2) @ m.conj()

    def eigh(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs of :meth:`gram`, eigenvalues ascending and clipped at
        zero."""
        w, u = np.linalg.eigh(self.gram(m))
        return np.maximum(w, 0.0), u

    def spectrum(self, psi: np.ndarray) -> np.ndarray:
        """The ``d_out`` output eigenvalues, ascending.  On the side that
        :func:`_flips` chooses, ``d_out = min(n, d_out)`` of the caller's
        channel, and they are its whole nonzero spectrum."""
        return self.eigh(self.outputs(psi))[0]

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """``vec(Phi^+(X)) = S vec(X)``, ``X`` of shape ``(d_out, d_out)``."""
        lead = x.shape[:-2]
        y = x.reshape(lead + (self.d_out * self.d_out,)) @ self.sup.T
        return y.reshape(lead + (self.d_in, self.d_in))

    def pull_back(self, m, x) -> np.ndarray:
        """``Phi^+(X) psi = K_r^+ vec(M X^T)`` for the outputs ``m`` of
        ``psi``, ``X`` of shape ``(d_out, d_out)``."""
        y = m @ np.swapaxes(x, -1, -2)
        return y.reshape(y.shape[:-2] + (self.n * self.d_out,)) @ self.rows_h.T


class _ProductKernel(_Kernel):
    """Pure-state kernel of ``Phi_1 (x) Phi_2``, built from the two factors' kernels.

    Its outputs, spectra, adjoints and pull-backs are those of the
    :class:`_Kernel` of the product's Kraus stack ``F_i (x) G_j``, pair
    ``(i, j)`` first-factor major, but that stack is never formed.
    :meth:`gram`, :meth:`eigh` and :meth:`spectrum` are inherited unchanged.
    """

    def __init__(self, k1: _Kernel, k2: _Kernel):
        self.k1, self.k2 = k1, k2
        self.dims = (k1.n, k1.d_out, k1.d_in, k2.n, k2.d_out, k2.d_in)
        self.n, self.d_out, self.d_in = k1.n * k2.n, k1.d_out * k2.d_out, k1.d_in * k2.d_in

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

    def pull_back(self, m, x) -> np.ndarray:
        """``F_r^+ Y conj(G_r)``, with ``Y`` the ``(n1 d1_out, n2 d2_out)``
        regrouping of ``M X^T``."""
        n1, o1, i1, n2, o2, i2 = self.dims
        lead = m.shape[:-2]
        y = np.swapaxes((m @ np.swapaxes(x, -1, -2)).reshape(lead + (n1, n2, o1, o2)), -3, -2)
        g = self.k1.rows_h @ y.reshape(lead + (n1 * o1, n2 * o2)) @ self.k2.rows_h.T
        return g.reshape(lead + (self.d_in,))


def _flips(*chs: KrausChannel) -> bool:
    """The side rule: a kernel runs on the conjugate, by the Kraus index
    swap, when the conjugate's output is the smaller one, ``n < d_out``.
    The factors of a product flip together, by ``n1 n2 < d1_out d2_out``:
    flipping one factor alone gives another channel.  They flip only if
    each factor's flipped kernel fits, ``d_in n <= MAX_DIM^2``, since a
    factor with ``n > d_out`` grows when flipped.  For one channel that
    changes nothing but the refusal of an input too large on both sides,
    which then names the caller's ``d_in * d_out``."""
    fits = all(c.d_in * c.n_kraus <= MAX_DIM**2 for c in chs)
    return fits and math.prod(c.n_kraus for c in chs) < math.prod(c.d_out for c in chs)


def _side_kernel(ch: KrausChannel, flip: bool | None = None) -> _Kernel:
    """The kernel of ``ch``, or of its conjugate if ``flip`` (by default,
    if :func:`_flips` says so for ``ch`` alone)."""
    if flip is None:
        flip = _flips(ch)
    return _Kernel(conjugate_kraus(ch) if flip else ch)


def _support_power(w: np.ndarray, q: float) -> np.ndarray:
    """``w**q`` on eigenvalues above ``1e-15`` of the largest, zero below."""
    out = np.zeros_like(w)
    mask = w > 1e-15 * w.max(axis=-1, keepdims=True)
    out[mask] = w[mask] ** q
    return out


def _output_operator(u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The output operator ``X = sum_i h_i u_i u_i^+`` over the output
    eigenvectors ``u_i``: the one form in which both engines hand a kernel
    ``h(sigma)``."""
    return (u * h[..., None, :]) @ dagger(u)


def _re_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Re <a, b>`` of each row pair of two complex ``(R, d)`` stacks."""
    return (a.view(float) * b.view(float)).sum(axis=-1)


def _entropy_nat(w: np.ndarray) -> np.ndarray:
    """Von Neumann entropy in nats of a spectrum, ``0 log 0 = 0``."""
    return -(w * np.log(np.where(w > 0, w, 1.0))).sum(axis=-1)


def _ascent_operator(kern: _Kernel, m: np.ndarray, p):
    """Both engines' output operator ``X`` and log-objective, for the
    outputs ``m`` of a state stack: ``X`` a positive multiple of
    ``sigma^(p-1)`` and ``log ||sigma||_p`` for a number ``p``, and for
    ``p = None`` ``X = log sigma`` and ``-S(sigma)`` in nats.  It is the
    only code that forms either: the fixed point pulls ``X`` back through
    the adjoint, the gradient engine through :meth:`_Kernel.pull_back`.

    At p = 2 and 3, ``X = sigma^(p-1)`` is built by ``p - 2`` matrix
    products and ``Tr sigma^p`` is the entrywise sum
    ``Re sum conj(sigma) X``, with no eigendecomposition.  Any other p takes
    the output eigenpairs, with the power relative to ``lambda_max``, which
    leaves the principal eigenvector of ``Phi^+(X)`` unchanged and keeps it
    from underflowing at large p.  The entropy's ``log sigma`` clamps the
    eigenvalues at ``1e-18``.
    """
    if p in (2, 3):
        sigma = kern.gram(m)
        x = sigma if p == 2 else sigma @ sigma
        return x, np.log(np.einsum("...ij,...ij->...", sigma.conj(), x).real) / p
    w, u = kern.eigh(m)
    if p is None:
        return _output_operator(u, np.log(np.maximum(w, 1e-18))), -_entropy_nat(w)
    hw = _support_power(w / w[..., -1:], p - 1)
    return _output_operator(u, hw), np.log(pnorm(w, p))


#: The fixed point tries an extrapolated jump every ``JUMP_EVERY``-th step,
#: for restarts whose last two steps shrank by a rate inside ``JUMP_RATES``.
JUMP_EVERY = 6
JUMP_RATES = (0.1, 0.995)


def _jumps(psi0: np.ndarray, psi1: np.ndarray, psi2: np.ndarray):
    """Aitken jumps from three successive iterate stacks: the rows whose
    rate ``rho = ||psi2 - psi1|| / ||psi1 - psi0||`` lies inside
    ``JUMP_RATES``, and their trials ``normalize(psi2 + rho / (1 - rho)
    (psi2 - psi1))``, the limit of a sequence that keeps shrinking by
    ``rho``.  ``psi1`` and ``psi0`` first take the global phase closest to
    their successor, since an eigenvector is found only up to a phase."""

    def aligned(a, b):
        c = np.einsum("...i,...i->...", a.conj(), b)
        return a * (c / np.abs(c))[..., None]

    # Orthogonal or repeated iterates give nan or inf rates, which never jump.
    with np.errstate(divide="ignore", invalid="ignore"):
        psi1 = aligned(psi1, psi2)
        diff = psi2 - psi1
        rho = np.linalg.norm(diff, axis=-1) / np.linalg.norm(psi1 - aligned(psi0, psi1), axis=-1)
    rows = np.flatnonzero((rho > JUMP_RATES[0]) & (rho < JUMP_RATES[1]))
    rho = rho[rows, None]
    trial = psi2[rows] + rho / (1.0 - rho) * diff[rows]
    return rows, trial / np.linalg.norm(trial, axis=-1, keepdims=True)


def _lockstep(psi: np.ndarray, carry: tuple, step, max_iter: int):
    """Run both engines' loop over the start stack ``psi``: step every live
    row together, at most ``max_iter`` times.  ``step(it, carry)`` takes the
    live rows' ``carry``, a tuple of arrays with one row per live restart,
    and returns their new states, which of them stopped, and the new carry.
    A stopped row keeps its last state, counts ``it`` iterations, reports
    converged and leaves the carry; a row still live after ``max_iter``
    steps does not converge."""
    psi = psi.copy()
    iters = np.full(len(psi), max_iter)
    conv = np.zeros(len(psi), dtype=bool)
    live = np.arange(len(psi))
    for it in range(1, max_iter + 1):
        new, done, carry = step(it, carry)
        psi[live] = new
        if done.any():
            iters[live[done]] = it
            conv[live[done]] = True
            live, carry = live[~done], tuple(c[~done] for c in carry)
            if not live.size:
                break
    return psi, iters, conv


def _stopped(before: np.ndarray, after: np.ndarray, p, tol: float) -> np.ndarray:
    """Both engines' stopping test on a step that moved each row's
    log-objective from ``before`` to ``after``: ``|expm1(e (before -
    after))| <= tol``.  ``e = p`` for a number p, so that this is the
    relative change of ``Tr sigma^p``; ``e = 1`` at p = inf and for the
    entropy, whose rows, where ``S`` shrinks geometrically towards a pure
    output, stop once the change itself is small."""
    exponent = 1.0 if p is None or math.isinf(p) else p
    # A change too large for a double overflows to inf, which is not done.
    with np.errstate(over="ignore"):
        return np.abs(np.expm1(exponent * (before - after))) <= tol


def _fixed_point(kern: _Kernel, psi: np.ndarray, p, tol: float, max_iter: int):
    """Fixed-point ascent of ``Tr sigma^p`` (``lambda_max`` at p = inf; for
    ``p = None``, ``-S(sigma)``) from every row of ``psi`` at once: each
    step takes the principal eigenvector of ``Phi^+(X)``, ``X`` from
    :func:`_ascent_operator`.  The objective is convex in ``sigma`` for
    every ``p >= 1`` and for ``-S``, so it lies above its linearization at
    the current output, and the step, which maximizes that linearization
    over pure inputs, never descends.

    Every ``JUMP_EVERY``-th step, a restart that converges linearly also
    tries the jump of :func:`_jumps` from its last three iterates.  The
    trials share the step's one :func:`_ascent_operator` call, and a restart
    takes its trial only where the trial's objective is strictly higher
    than the plain step's, so every step still ascends.  A restart stops
    by :func:`_stopped`.
    """

    def step(it, carry):
        # back2 and back1: the live restarts' iterates two steps and one step back.
        x, obj, back2, back1 = carry
        new = np.linalg.eigh(kern.adjoint(x))[1][..., -1]
        if it % JUMP_EVERY:
            x, val = _ascent_operator(kern, kern.outputs(new), p)
        else:
            rows, trial = _jumps(back2, back1, new)
            x, val = _ascent_operator(kern, kern.outputs(np.concatenate([new, trial])), p)
            n = len(new)
            up = val[n:] > val[rows]
            take = rows[up]
            new[take], x[take], val[take] = trial[up], x[n:][up], val[n:][up]
            x, val = x[:n], val[:n]
        return new, _stopped(obj, val, p, tol), (x, val, back1, new)

    return _lockstep(psi, (*_ascent_operator(kern, kern.outputs(psi), p), psi, psi), step, max_iter)


def _gradient(kern: _Kernel, psi: np.ndarray, p, tol: float, max_iter: int):
    """Riemannian gradient ascent on the unit sphere with a Barzilai-Borwein
    step length and backtracking, from every row of ``psi`` at once.

    Ascends the fixed point's log-objective, with ``X`` and the objective
    from :func:`_ascent_operator`.  Its gradient is ``g = Phi^+(X) psi``,
    over ``Tr sigma X = <psi, g>`` for a p-norm; the entropy's differs from
    ``g`` by ``psi``, which the tangent ``r = g - psi <psi, g>`` drops.
    Each step moves to ``normalize(psi + t r)``.  Each restart's trial
    length ``t`` is the Barzilai-Borwein length ``<s, s> / -Re<s, y>`` of
    its last step ``s`` and the change ``y`` of ``r`` (twice the last
    length when the curvature is not negative), and it is halved until
    Armijo's condition holds, so every accepted step ascends.  A halving
    re-evaluates only the restarts still backtracking, and a step forms
    the tangent once, at the accepted points only.
    """

    def objective(psi):
        # The log-objective, and the outputs and X that its tangent needs.
        m = kern.outputs(psi)
        x, val = _ascent_operator(kern, m, p)
        return val, (psi, m, x)

    def tangent(psi, m, x):
        g = kern.pull_back(m, x)
        c = np.einsum("ri,ri->r", psi.conj(), g)[:, None]
        return g - psi * c if p is None else g / c.real - psi

    def step(it, carry):
        psi, r, phi, t = carry
        rnorm2 = _re_dot(r, r)
        rows, accepted = np.flatnonzero(rnorm2 >= 1e-30), []
        for trial in range(60):
            cand = psi[rows] + t[rows, None] * r[rows]
            cand /= np.sqrt(_re_dot(cand, cand))[:, None]
            val, at = objective(cand)
            ok = val >= phi[rows] + 1e-4 * t[rows] * rnorm2[rows]
            # The accepted rows, their objectives and what their tangents need.
            accepted.append([rows, val, *at] if ok.all() else [a[ok] for a in (rows, val, *at)])
            keep = ~ok
            if trial:
                # A trial that stopped moving and lies below phi fails every
                # shorter step as well.
                keep &= ~((val < phi[rows]) & (cand == last).all(axis=-1))
            rows, last = rows[keep], cand[keep]
            if not rows.size:
                break
            t[rows] *= 0.5
        acc, val, *at = accepted[0] if len(accepted) == 1 else map(np.concatenate, zip(*accepted))
        new, r_new, phi_new = psi.copy(), r.copy(), phi.copy()
        new[acc], r_new[acc], phi_new[acc] = at[0], tangent(*at), val
        s, y = new - psi, r_new - r
        curvature = -_re_dot(s, y)
        t = np.minimum(np.divide(_re_dot(s, s), curvature, out=2.0 * t, where=curvature > 0), 1e6)
        # A restart that could not ascend keeps phi, so it stops where it is.
        return new, _stopped(phi, phi_new, p, tol), (new, r_new, phi_new, t)

    phi, at = objective(psi)
    return _lockstep(psi, (psi, tangent(*at), phi, np.ones(len(psi))), step, max_iter)


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


#: The fixed point runs p in [1, 2) and the entropy on kernels with
#: ``d_in^2 d_out`` up to this size, the gradient engine above it: a
#: fixed-point step builds and eigensolves the whole ``d_in x d_in``
#: operator ``Phi^+(X)`` for every restart, a gradient step one vector.
FIXED_POINT_SIZE = 512


def _multistart(kern: _Kernel, p, opts: OptimizerOptions, initial_states=()) -> PurityReport:
    """The optimizer's one entry: maximize ``||sigma||_p`` (``p >= 1``) or,
    for ``p = None``, ``-S(sigma)`` in nats, from ``initial_states`` and
    ``opts.restarts`` Haar states, all stepped as one stack.  The fixed
    point runs p >= 2 at every size, and p in [1, 2) and the entropy where
    ``d_in^2 d_out <= FIXED_POINT_SIZE``; gradient ascent runs them
    otherwise.  Reports the best final state, the first on ties; its value
    is cut off at the objective's exact maximum, ``1`` or ``0``."""
    if p is not None and not p >= 1:
        raise ValueError(f"p must be at least 1, got {p}")
    seeded = [np.asarray(s, dtype=complex) for s in initial_states]
    seeded = np.array([s / np.linalg.norm(s) for s in seeded], dtype=complex).reshape(-1, kern.d_in)
    psi0 = np.concatenate([seeded, _haar_starts(kern.d_in, opts.seed, opts.restarts)])
    if not len(psi0):
        raise ValueError("the optimizer needs at least one start: restarts >= 1 or a seeded state")
    fixed = (p is not None and p >= 2) or kern.d_in**2 * kern.d_out <= FIXED_POINT_SIZE
    engine = _fixed_point if fixed else _gradient
    psi, iters, conv = engine(kern, psi0, p, opts.tol, opts.max_iter)
    w = kern.spectrum(psi)
    vals = -_entropy_nat(w) if p is None else pnorm(w, p)
    best = int(np.argmax(vals))
    return PurityReport(
        # nu_p <= 1 and -S <= 0: rounding past the exact range is cut off.
        value=min(float(vals[best]), 1.0 if p is not None else 0.0),
        optimizer_state=psi[best].copy(),
        restarts=len(psi0),
        converged=bool(conv[best]),
        iterations=int(iters.sum()),
    )


def _require_base(base: float) -> None:
    """Refuse a log base other than a finite number above 1: base 1 has no
    logarithm, and a base below 1 turns the minimum into a maximum."""
    if not (math.isfinite(base) and base > 1):
        raise ValueError(f"base must be a finite number above 1, got {base}")


def _require_number_p(p, entry: str) -> None:
    """Refuse ``p = None`` in an entry that takes only a p-norm, since only
    the private path reads None, as the entropy; and a p below 1, nan
    included, before any work, as :func:`_multistart` would after it."""
    if p is None:
        raise ValueError(f"{entry} requires a number p >= 1, got None")
    if not p >= 1:
        raise ValueError(f"p must be at least 1, got {p}")


def _entropy_in_base(rep: PurityReport, base: float) -> PurityReport:
    """An entropy report of :func:`_multistart` (``-S`` in nats) as ``S`` in
    the given log base."""
    return replace(rep, value=-rep.value / math.log(base) + 0.0)  # + 0.0 turns -0.0 into 0.0


def nu_p(ch: KrausChannel, p: float, opts: OptimizerOptions = DEFAULT_OPTS) -> PurityReport:
    """Maximal output p-norm ``sup_psi || Phi(psi psi^+) ||_p``.

    Returns a certified lower bound achieved by ``optimizer_state``;
    ``converged`` reports whether the winning restart's relative objective
    change fell below ``opts.tol``.
    """
    _require_number_p(p, "nu_p")
    return _multistart(_side_kernel(ch), p, opts)


def s_min(ch: KrausChannel, opts: OptimizerOptions = DEFAULT_OPTS, base: float = 2.0) -> PurityReport:
    """Minimal output entropy, reported in the given log base (default bits).

    A certified upper bound achieved by ``optimizer_state``.  ``base``
    must be finite and above 1.
    """
    _require_base(base)
    return _entropy_in_base(_multistart(_side_kernel(ch), None, opts), base)


def spectrum_pair_check(ch: KrausChannel, psi: np.ndarray) -> tuple[Spectrum, Spectrum, float]:
    """Non-zero output spectra (:func:`qcc.linalg.nonzero_spectrum`, cutoff
    ``DEFAULT_TOL``) of the channel and its conjugate on one pure input, plus
    their maximal entrywise deviation (zero-padded).  ``psi`` must have a
    finite, nonzero norm."""
    psi = np.asarray(psi, dtype=complex)
    norm = np.linalg.norm(psi)
    if not (math.isfinite(norm) and norm > 0):
        raise ValueError(f"psi must have a finite, nonzero norm, got {norm}")
    psi = psi / norm
    rho = np.outer(psi, psi.conj())
    sa = nonzero_spectrum(chn.apply(ch, rho))
    sb = nonzero_spectrum(chn.apply(conjugate_kraus(ch), rho))
    pa, pb = np.zeros((2, max(len(sa), len(sb))))
    pa[: len(sa)], pb[: len(sb)] = sa.values, sb.values
    dev = float(np.abs(pa - pb).max()) if pa.size else 0.0
    return sa, sb, dev


def _gap_reports(ch1: KrausChannel, ch2: KrausChannel, p, opts: OptimizerOptions):
    """Single-channel and product reports of :func:`_multistart` for a gap,
    at ``p`` (``None`` for the entropy), each value the maximized objective.

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
        alt = _multistart(kern, p, once, initial_states=[start])
        best = alt if alt.value > rep.value else rep
        return replace(
            best, restarts=rep.restarts + alt.restarts, iterations=rep.iterations + alt.iterations
        )

    def gained(new: PurityReport, old: PurityReport) -> bool:
        # A gain within the optimizer's tolerance is rounding, not a new optimum.
        return new.value - old.value > opts.tol * abs(old.value)

    k1, k2 = _side_kernel(ch1), _side_kernel(ch2)
    # The factors take the product's side; a single kernel already there is
    # reused.  They are built before any run, so that a refused factor costs none.
    flip = _flips(ch1, ch2)
    f1 = k1 if _flips(ch1) == flip else _side_kernel(ch1, flip)
    f2 = k2 if _flips(ch2) == flip else _side_kernel(ch2, flip)
    product = _ProductKernel(f1, f2)
    r1 = _multistart(k1, p, opts)
    r2 = _multistart(k2, p, opts)
    start = np.kron(r1.optimizer_state, r2.optimizer_state)
    r12 = _multistart(product, p, opts, initial_states=[start])
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
) -> GapReport:
    """Measure ``nu_p(ch1 (x) ch2) - nu_p(ch1) nu_p(ch2)``.

    The product optimizer is seeded with the tensor product of the two
    single-channel optimizing states, so the reported gap is never negative
    beyond the final iteration's slack (product states are feasible).  The
    single-channel optimizers are seeded again from the product optimizer's
    state, so that a missed single-channel optimum does not read as a gap.
    A ``witness_state`` is returned only when the gap exceeds ``1e-6`` (a
    candidate multiplicativity violation).
    """
    _require_number_p(p, "multiplicativity_gap")
    r1, r2, r12 = _gap_reports(ch1, ch2, p, opts)
    lhs = r12.value
    rhs = r1.value * r2.value
    gap = lhs - rhs
    witness = r12.optimizer_state if gap > 1e-6 else None
    return GapReport(lhs, rhs, gap, r1, r2, r12, witness_state=witness)


def additivity_gap_entropy(
    ch1: KrausChannel,
    ch2: KrausChannel,
    opts: OptimizerOptions = DEFAULT_OPTS,
    base: float = 2.0,
) -> GapReport:
    """Measure ``(S_min(ch1) + S_min(ch2)) - S_min(ch1 (x) ch2)`` (>= 0 up to
    optimizer slack; product states are feasible for the joint infimum).
    The runs are seeded as in :func:`multiplicativity_gap`; ``base`` is
    checked as in :func:`s_min`."""
    _require_base(base)
    r1, r2, r12 = (_entropy_in_base(r, base) for r in _gap_reports(ch1, ch2, None, opts))
    rhs = r1.value + r2.value
    lhs = r12.value
    return GapReport(lhs, rhs, rhs - lhs, r1, r2, r12)


#: :func:`sampled_nu_p` scores its samples in blocks of at most this many
#: output entries, ``max(1, SAMPLE_BLOCK_ENTRIES // (n d_out))`` states of
#: the side kernel's ``(n, d_out)`` outputs each: 256 KiB of complex outputs.
SAMPLE_BLOCK_ENTRIES = 1 << 14


def sampled_nu_p(
    ch: KrausChannel,
    p: float,
    n_samples: int,
    rng: np.random.Generator,
    opts: OptimizerOptions = DEFAULT_OPTS,
) -> float:
    """Independent cross-check of :func:`nu_p`: exhaustive random sampling of
    pure states followed by a local polish from the best sample, cut off at
    1 as :func:`nu_p` is.  The samples are scored by the fixed point's own
    log-objective (:func:`_ascent_operator`), so at p = 2 and 3 they need
    no eigensolve.

    ``n_samples`` is an integer of at least 1.  Sample ``i`` is row ``i`` of
    ``A + 1j B``, normalized, where ``A`` and ``B`` are the first and the
    next ``(n_samples, d_in)`` standard normals that ``rng`` draws.  The
    samples are drawn, normalized and scored in blocks of ``max(1,
    SAMPLE_BLOCK_ENTRIES // (n d_out))`` rows, with ``(n, d_out)`` the side
    kernel's output shape, and only the best sample so far is kept, the
    first on ties.  ``A`` is replayed block by block from a copy of ``rng``
    while ``rng`` itself, first drawn past ``A``, gives ``B``.  The samples,
    the one picked and ``rng``'s final state are therefore those of one
    ``(n_samples, d_in)`` stack, while the memory held stays a few blocks
    of ``SAMPLE_BLOCK_ENTRIES`` entries for any ``n_samples``: a CPT kernel
    has ``n d_out >= d_in``, so a block's states fit in it too.
    """
    _require_number_p(p, "sampled_nu_p")
    _require_count("n_samples", n_samples, 1)
    kern = _side_kernel(ch)
    rows = max(1, SAMPLE_BLOCK_ENTRIES // (kern.n * kern.d_out))
    starts = range(0, n_samples, rows)

    def shape(start):
        return min(rows, n_samples - start), kern.d_in

    real = copy.deepcopy(rng)
    for start in starts:
        rng.standard_normal(shape(start))
    best_val, best_state = -math.inf, None
    for start in starts:
        batch = real.standard_normal(shape(start)) + 1j * rng.standard_normal(shape(start))
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        _, log_vals = _ascent_operator(kern, kern.outputs(batch), p)
        i = int(np.argmax(log_vals))
        if log_vals[i] > best_val:
            best_val, best_state = log_vals[i], batch[i].copy()
    rep = _multistart(kern, p, replace(opts, restarts=0), initial_states=[best_state])
    return min(max(math.exp(best_val), rep.value), 1.0)
