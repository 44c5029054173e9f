"""Command-line front end.

Exit codes: 0 success, 2 validation failure (bad parameters or malformed
input), 3 verification failure (a requested check did not pass), 4 I/O error.
Reports are deterministic for a fixed seed and configuration; wall-clock
timings go to stderr so stdout stays byte-identical across runs.

Each flag is defined once, in :func:`build_parser`, with its default and an
argparse type that checks its value: a bad value is a usage error, one
``error: argument <flag>: ...`` line and exit code 2, before any command
runs.  Handlers read the parsed flags directly, and each command takes
only the flags its handler reads: any other flag is a usage error.

Each command imports the modules it runs inside its handler, so that a
command pays start-up only for those: ``build depolarizing`` loads neither
the optimizer nor the verification suites, and ``--help`` loads neither
numpy nor any qcc module.

What a command pays besides its own work: at start, the interpreter,
``import numpy`` and the qcc modules it imports (about 45, 120 and up to
60 ms on a 2-core machine with Python 3.11); at exit, the interpreter's
shutdown.  Shutdown makes full garbage collections over the 20 000-odd
objects numpy and qcc leave tracked, 3-5 ms each, and the exiting
process needs nothing they would free: every output file is closed by
then.  The program's exit path, :func:`run`, therefore freezes the heap
first, and the time from the written report to the process's end drops
from about 20 to about 5 ms.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .channel import KrausChannel
    from .pauli import PauliBasis, PauliDiagonalChannel
    from .purity import OptimizerOptions

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFY = 3
EXIT_IO = 4

#: ``verify.SUITE_NAMES``, restated so that building the parser does not
#: import the suites; a test keeps the two equal.
SUITE_NAMES = ("conjugate", "pauli", "ebt", "gl")


def _opts(args) -> OptimizerOptions:
    from .purity import OptimizerOptions

    return OptimizerOptions(
        restarts=args.restarts, tol=args.tol, seed=args.seed, max_iter=args.max_iter
    )


def _report(command: str, args, results: dict, checks=None) -> dict:
    """Wraps ``results`` with the configuration that reproduces them: those
    of ``--seed``, ``--tol``, ``--restarts`` and ``--format`` that the
    command takes."""
    config = ("seed", "tol", "restarts", "format")
    rep = {
        "command": command,
        "config": {k: getattr(args, k) for k in config if hasattr(args, k)},
        "results": results,
    }
    if checks is not None:
        from dataclasses import asdict

        rep["checks"] = [asdict(c) for c in checks]
    return rep


# ------------------------------------------------------------------- file io

def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:  # json.load recurses once per nesting level
            raise ValueError("JSON input nests too deeply") from exc


def _load_channel(path: str) -> KrausChannel:
    from .serialize import channel_from_obj

    return channel_from_obj(_read_json(path))


def _load_pauli(path: str) -> PauliDiagonalChannel:
    from .serialize import pauli_from_obj

    return pauli_from_obj(_read_json(path))


def _load_array(path: str, ndim: int) -> np.ndarray:
    from .serialize import complex_array

    return complex_array(_read_json(path), ndim)


# ------------------------------------------------------------------ emitters

def _flatten(prefix: str, obj, rows: list[tuple[str, str]]):
    import numpy as np

    if isinstance(obj, np.ndarray):
        from .serialize import plain

        a = plain(obj)
        if a.dtype.kind == "f" and a.ndim and a.size:
            _float_rows(prefix, a, rows)
            return
        obj = a.tolist()
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        if all(isinstance(v, (int, float, bool, str)) or v is None for v in obj):
            rows.append((prefix, ";".join(_scalar_str(v) for v in obj)))
        else:
            for i, v in enumerate(obj):
                _flatten(f"{prefix}.{i}" if prefix else str(i), v, rows)
    else:
        rows.append((prefix, _scalar_str(obj)))


def _float_rows(prefix: str, a: np.ndarray, rows: list[tuple[str, str]]):
    """The rows :func:`_flatten` makes of the nested list of a float array,
    one per run along the last axis, keyed by the indices before it; the
    values come from one ``%`` call with ``format_float``'s ``%.17g`` per
    number."""
    import itertools

    from .serialize import finite_values

    heads = [[prefix]] if prefix else []
    indices = ([str(i) for i in range(n)] for n in a.shape[:-1])
    template = ";".join(["%.17g"] * a.shape[-1])
    values = "\n".join([template] * (a.size // a.shape[-1])) % finite_values(a)
    rows.extend(zip((".".join(k) for k in itertools.product(*heads, *indices)), values.split("\n")))


def _scalar_str(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        from .serialize import format_float

        return format_float(v)
    if v is None:
        return ""
    return str(v)


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        from .serialize import dumps

        return dumps(payload) + "\n"
    rows: list[tuple[str, str]] = []
    _flatten("", payload, rows)
    if fmt == "csv":
        lines = ["key,value"]
        for k, v in rows:
            if "," in v or '"' in v:
                v = json.dumps(v)
            lines.append(f"{k},{v}")
        return "\n".join(lines) + "\n"
    width = max((len(k) for k, _ in rows), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"


def _emit(payload: dict, args) -> None:
    text = _render(payload, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------------ handlers

def _p_echo(p: float):
    return "inf" if math.isinf(p) else p


# Argument types raise ``argparse.ArgumentTypeError``, whose message argparse
# prints as it is; for any other error it prints the function's name.

def _number(text: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise argparse.ArgumentTypeError(f"{text!r} is not {noun}") from None


def _parse_p(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    p = _number(text)
    if not p >= 1:
        raise argparse.ArgumentTypeError(f"p must be at least 1 (or 'inf'), got {text!r}")
    return p


def _finite_float(text: str) -> float:
    x = _number(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


def _positive_float(text: str) -> float:
    x = _finite_float(text)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return x


def _int_at_least(text: str, low: int) -> int:
    n = _number(text, int)
    if n < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
    return n


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _parse_floats(text: str) -> list[float]:
    try:
        return [_finite_float(t) for t in text.split(",") if t.strip() != ""]
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"bad float list {text!r}") from exc


def _check_build_size(args) -> None:
    """Reject a size beyond desk scale before anything is allocated."""
    from .linalg import MAX_DIM

    caps = (
        ("-d", "dim", MAX_DIM),
        ("--dout", "dout", MAX_DIM),
        ("--kraus", "kraus", MAX_DIM**2),
        ("-n", "n", MAX_DIM**2),
    )
    for flag, dest, cap in caps:
        value = getattr(args, dest, None)  # each kind takes some of the four
        if value is not None and value > cap:
            raise ValueError(f"{flag} {value} exceeds the supported size ({flag} <= {cap})")


def cmd_build_pauli(args) -> tuple[dict, int]:
    """The Pauli-diagonal kinds: identity, noisy, depolarizing, pauli and axes."""
    from . import pauli as pmod
    from . import serialize as ser

    _check_build_size(args)
    kind, d = args.kind, args.dim
    basis = pmod.build_basis(d)
    if kind == "axes":
        ch = pmod.axes_channel(basis, args.s, _parse_floats(args.t), args.u)
    elif kind == "pauli":
        ch = pmod.pauli_channel(basis, _parse_floats(args.weights))
    elif kind == "depolarizing":
        ch = pmod.pauli_channel(basis, pmod.depolarizing_weights(d, args.b))
    else:
        weights = pmod.identity_weights if kind == "identity" else pmod.noisy_weights
        ch = pmod.pauli_channel(basis, weights(d))
    return (ser.pauli_to_obj(ch) if args.pauli_json else ser.channel_to_obj(ch.channel)), EXIT_OK


def cmd_build_random(args) -> tuple[dict, int]:
    """The seeded random kinds: random, cq and ebt."""
    from . import serialize as ser
    from .random import derived_rng

    _check_build_size(args)
    d = args.dim
    d_out = args.dout or d
    rng = derived_rng(args.seed, 0)
    if args.kind == "random":
        from .channel import KrausChannel
        from .random import random_kraus_operators

        ops = random_kraus_operators(d, d_out, args.kraus or d * d_out, rng)
        return ser.channel_to_obj(KrausChannel(d_in=d, d_out=d_out, kraus=ops)), EXIT_OK
    from . import ebt as ebtmod

    if args.kind == "cq":
        ch = ebtmod.random_cq(d, d_out, rng)
    else:
        ch = ebtmod.random_ebt(d, d_out, args.n or d + 1, rng)
    return (ser.ebt_to_obj(ch) if args.ebt_json else ser.channel_to_obj(ch.channel)), EXIT_OK


def cmd_conjugate(args) -> tuple[dict, int]:
    from . import conjugate as conj
    from .serialize import channel_to_obj

    if args.check and args.method == "kraus":
        raise ValueError("--check needs --method choi or ancilla: it compares with the kraus route")
    ch = _load_channel(args.infile)
    out = conj.conjugate_channel(ch, args.method)
    code = EXIT_OK
    if args.check:
        reference = conj.conjugate_channel(ch, "kraus")
        code = _check_isometry(out, reference, f"{args.method} vs kraus")
    if args.check_against:
        other = _load_channel(args.check_against)
        code = max(code, _check_isometry(out, other, "output vs reference"))
    return channel_to_obj(out), code


def _check_isometry(a, b, label) -> int:
    from . import conjugate as conj

    try:
        rel = conj.find_relating_isometry(a, b, tol=1e-8)
    except conj.NotConjugateError as exc:
        print(f"[qcc] check {label}: FAIL ({exc})", file=sys.stderr)
        return EXIT_VERIFY
    print(
        f"[qcc] check {label}: residual {rel.residual:.3e}, rank {rel.rank}: PASS",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_apply(args) -> tuple[dict, int]:
    from .channel import apply

    ch = _load_channel(args.infile)
    rho = _load_array(args.state, 2)
    return {"matrix": apply(ch, rho)}, EXIT_OK


def cmd_choi(args) -> tuple[dict, int]:
    from .channel import kraus_to_choi
    from .serialize import choi_to_obj

    ch = _load_channel(args.infile)
    return choi_to_obj(kraus_to_choi(ch)), EXIT_OK


def cmd_nu(args) -> tuple[dict, int]:
    from .purity import nu_p

    ch = _load_channel(args.infile)
    rep = nu_p(ch, args.p, _opts(args))
    return _report("nu", args, {"p": _p_echo(args.p), **_run_fields(rep)}), EXIT_OK


def cmd_smin(args) -> tuple[dict, int]:
    from .purity import s_min

    ch = _load_channel(args.infile)
    base = math.e if args.base == "e" else 2.0
    rep = s_min(ch, _opts(args), base=base)
    return _report("smin", args, {"base": args.base, **_run_fields(rep)}), EXIT_OK


def _run_fields(rep) -> dict:
    """The report fields of one optimizer run, in their printed order."""
    return {
        "value": rep.value,
        "converged": rep.converged,
        "restarts": rep.restarts,
        "iterations": rep.iterations,
        "optimizer_state": rep.optimizer_state,
    }


def cmd_mult(args) -> tuple[dict, int]:
    from .purity import multiplicativity_gap

    a = _load_channel(args.a)
    b = _load_channel(args.b)
    gap = multiplicativity_gap(a, b, args.p, _opts(args))
    results = {
        "p": _p_echo(args.p),
        "lhs": gap.lhs,
        "rhs": gap.rhs,
        "gap": gap.gap,
        "witness_state": gap.witness_state,
    }
    return _report("mult", args, results), EXIT_OK


def cmd_capacity(args) -> tuple[dict, int]:
    from .pauli import holevo_capacity_weyl

    ch = _load_pauli(args.infile)
    base = math.e if args.base == "e" else 2.0
    value = holevo_capacity_weyl(ch, _opts(args), base=base)
    return _report("capacity", args, {"base": args.base, "capacity": value}), EXIT_OK


def _basis_for(args) -> PauliBasis:
    from . import pauli as pmod

    if args.product:
        b = pmod.build_basis(args.dim)
        return pmod.product_basis(b, b)
    return pmod.build_basis(args.dim)


def cmd_pauli(args) -> tuple[dict, int]:
    from . import pauli as pmod

    sub = args.sub
    if sub == "lambda":
        ch = _load_pauli(args.infile)
        lam = pmod.lambda_spectrum(ch)
        return _report("pauli lambda", args, {"d": ch.d, "lambda": lam}), EXIT_OK
    if sub == "ncimage":
        basis = _basis_for(args)
        rho = _load_array(args.state, 2)
        if args.explicit:
            psi = _principal_vector(rho)
            gamma = pmod.nc_image_explicit(basis, psi)
        else:
            gamma = pmod.noisy_conjugate_image(basis, rho)
        from dataclasses import asdict

        results = {"gamma": gamma, "checks": asdict(pmod.nc_image_checks(basis, gamma))}
        return _report("pauli ncimage", args, results), EXIT_OK
    if sub == "bound":
        ch = _load_pauli(args.infile)
        mb = pmod.majorization_bound(ch, args.p)
        results = {
            "p": _p_echo(args.p),
            "majorization_bound": mb.bound,
            "beta": mb.beta,
            "partition": mb.partition,
            "identity_block_is_subgroup": mb.identity_block_is_subgroup,
            "ambiguous": mb.ambiguous,
            "nu2_bound": pmod.nu2_bound(ch),
        }
        return _report("pauli bound", args, results), EXIT_OK
    if sub == "subgroup":
        basis = _basis_for(args)
        rho = _load_array(args.state, 2)
        rep = pmod.subgroup_of_support(basis, rho, tol=args.tol)
        results = {
            "generators": rep.generator_indices,
            "subgroup": rep.subgroup_indices,
            "order": rep.order,
            "cosets": rep.cosets,
        }
        return _report("pauli subgroup", args, results), EXIT_OK
    # classify
    b = pmod.build_basis(args.dim)
    basis = pmod.product_basis(b, b)
    psi = _load_array(args.state, 1)
    res = pmod.classify_product_or_me(basis, psi, tol=args.tol)
    results = {
        "d2_decomposable": res.d2_decomposable,
        "class": res.klass,
        "schmidt_values": res.schmidt_values,
    }
    return _report("pauli classify", args, results), EXIT_OK


def _principal_vector(rho: np.ndarray) -> np.ndarray:
    """The unit vector of a pure state: Hermitian, trace 1 and rank one,
    each within ``1e-8``."""
    import numpy as np

    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"state must be a square matrix, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > 1e-8:
        raise ValueError("the explicit formula needs a Hermitian state")
    trace = np.trace(rho)
    if abs(trace - 1.0) > 1e-8:
        raise ValueError(f"the explicit formula needs a state of trace 1, got {trace.real:.6g}")
    w, v = np.linalg.eigh(rho)
    if np.abs(w[:-1]).max(initial=0.0) > 1e-8:
        raise ValueError("the explicit formula needs a pure state (rank one)")
    return v[:, -1]


def cmd_ebt(args) -> tuple[dict, int]:
    from . import ebt as ebtmod
    from . import serialize as ser

    if args.sub == "conjugate":
        ch = ser.ebt_from_obj(_read_json(args.infile))
        had, kraus = ebtmod.conjugate_ebt(ch)
        results = {
            "gram": had.x_gram,
            "frame": had.frame,
            "channel": ser.channel_to_obj(kraus),
        }
        return _report("ebt conjugate", args, results), EXIT_OK
    # detect
    from dataclasses import asdict

    ch = _load_channel(args.infile)
    return _report("ebt detect", args, asdict(ebtmod.is_hadamard_form(ch))), EXIT_OK


def cmd_gl(args) -> tuple[dict, int]:
    from . import gl as glmod

    ch = _load_channel(args.infile)
    p = args.p
    if args.sub == "theta":
        return {"matrix": glmod.theta(ch, p)}, EXIT_OK
    if args.sub == "omega":
        return {"matrix": glmod.omega(ch, p)}, EXIT_OK
    # verify
    from .random import derived_rng, random_density

    om = glmod.omega(ch, p)
    res1, res2 = glmod._identity_residuals(ch, p, om)
    rng = derived_rng(args.seed, 0)
    mixed_err = 0.0
    for _ in range(args.trials):
        rho = random_density(ch.d_in, rng)
        mixed_err = max(
            mixed_err,
            abs(glmod.power_trace(ch, rho, p) - glmod.linearized_trace(om, rho, p)),
        )
    passed = res1 < 1e-12 and res2 < 1e-12 and mixed_err < 1e-12
    results = {
        "p": p,
        "residual_conjugate": res1,
        "residual_shift": res2,
        "mixed_state_residual": mixed_err,
        "passed": passed,
    }
    return _report("gl verify", args, results), EXIT_OK if passed else EXIT_VERIFY


def cmd_verify(args) -> tuple[dict, int]:
    from .verify import run_suites

    checks = run_suites(args.suite, seed=args.seed, trials=args.trials)
    failed = [c for c in checks if not c.passed]
    results = {
        "suite": args.suite,
        "checks_run": len(checks),
        "checks_failed": len(failed),
    }
    return (
        _report("verify", args, results, checks=checks),
        EXIT_OK if not failed else EXIT_VERIFY,
    )


# -------------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error: <message>`` line on stderr and
    exits with code 2; its subparsers inherit the class."""

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # Parent parsers, one per group of flags; each command takes only the
    # groups whose flags its handler reads.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "csv", "text"), default="json")
    output.add_argument("--out", default=None, help="write output to this path instead of stdout")

    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_nonnegative_int, default=0, help="base RNG seed")

    def tol(meaning: str) -> argparse.ArgumentParser:
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument("--tol", type=_positive_float, default=1e-10, help=meaning)
        return p

    opt = argparse.ArgumentParser(add_help=False, parents=[seed, tol("stopping tolerance")])
    opt.add_argument("--restarts", type=_positive_int, default=32)
    opt.add_argument("--max-iter", type=_positive_int, default=2000, dest="max_iter")
    cutoff = tol("support cutoff: smaller entries count as zero")

    parser = _Parser(
        prog="qcc",
        description="Quantum channels, conjugate channels, and optimal output purity.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    # The build kinds' flag groups; a kind inherits its handler from its group.
    dim = argparse.ArgumentParser(add_help=False, parents=[output])
    dim.add_argument("-d", "--dim", type=_positive_int, required=True)
    pauli_kind = argparse.ArgumentParser(add_help=False, parents=[dim])
    pauli_kind.add_argument("--pauli-json", action="store_true", help="emit the Pauli-diagonal format")
    pauli_kind.set_defaults(handler=cmd_build_pauli)
    random_kind = argparse.ArgumentParser(add_help=False, parents=[dim, seed])
    random_kind.add_argument("--dout", type=_positive_int, default=None)
    random_kind.set_defaults(handler=cmd_build_random)
    ebt_kind = argparse.ArgumentParser(add_help=False, parents=[random_kind])
    ebt_kind.add_argument("--ebt-json", action="store_true", help="emit the EBT vector format")

    p_build = subs.add_parser("build", help="construct a channel")
    kinds = p_build.add_subparsers(dest="kind", required=True)
    kinds.add_parser("identity", parents=[pauli_kind], help="the identity channel")
    kinds.add_parser("noisy", parents=[pauli_kind], help="the completely depolarizing channel")
    kinds.add_parser("depolarizing", parents=[pauli_kind], help="rho -> b rho + (1-b) I/d").add_argument(
        "-b", type=_finite_float, required=True, help="depolarizing parameter")
    kinds.add_parser("pauli", parents=[pauli_kind], help="explicit Pauli weights").add_argument(
        "--weights", required=True, help="comma-separated Pauli weights")
    axes = kinds.add_parser("axes", parents=[pauli_kind], help="identity/axis-pinching/noise mixture")
    axes.add_argument("-s", type=_finite_float, required=True, help="identity weight")
    axes.add_argument("-t", required=True, help="comma-separated per-axis weights")
    axes.add_argument("-u", type=_finite_float, required=True, help="noise weight")
    kinds.add_parser("random", parents=[random_kind], help="seeded Haar channel").add_argument(
        "--kraus", type=_positive_int, default=None, help="Kraus count")
    kinds.add_parser("cq", parents=[ebt_kind], help="seeded random CQ channel")
    kinds.add_parser("ebt", parents=[ebt_kind], help="seeded random EBT channel").add_argument(
        "-n", type=_positive_int, default=None, help="number of rank-one elements")

    p_conj = subs.add_parser("conjugate", parents=[output], help="conjugate a channel")
    p_conj.add_argument("--in", dest="infile", required=True)
    p_conj.add_argument("--method", choices=("kraus", "choi", "ancilla"), default="kraus")
    p_conj.add_argument("--check", action="store_true", help="verify against the kraus route")
    p_conj.add_argument("--check-against", default=None, help="verify against a channel file")
    p_conj.set_defaults(handler=cmd_conjugate)

    p_apply = subs.add_parser("apply", parents=[output], help="apply a channel to a state")
    p_apply.add_argument("--in", dest="infile", required=True)
    p_apply.add_argument("--state", required=True, help="matrix JSON file")
    p_apply.set_defaults(handler=cmd_apply)

    p_choi = subs.add_parser("choi", parents=[output], help="Choi matrix of a channel")
    p_choi.add_argument("--in", dest="infile", required=True)
    p_choi.set_defaults(handler=cmd_choi)

    p_nu = subs.add_parser("nu", parents=[opt, output], help="maximal output p-norm")
    p_nu.add_argument("--in", dest="infile", required=True)
    p_nu.add_argument("-p", type=_parse_p, required=True)
    p_nu.set_defaults(handler=cmd_nu)

    p_smin = subs.add_parser("smin", parents=[opt, output], help="minimal output entropy")
    p_smin.add_argument("--in", dest="infile", required=True)
    p_smin.add_argument("--base", choices=("2", "e"), default="2")
    p_smin.set_defaults(handler=cmd_smin)

    p_mult = subs.add_parser("mult", parents=[opt, output], help="multiplicativity gap")
    p_mult.add_argument("--a", required=True)
    p_mult.add_argument("--b", required=True)
    p_mult.add_argument("-p", type=_parse_p, required=True)
    p_mult.set_defaults(handler=cmd_mult)

    p_cap = subs.add_parser("capacity", parents=[opt, output], help="Holevo capacity (Weyl covariant)")
    p_cap.add_argument("--in", dest="infile", required=True, help="Pauli-diagonal JSON file")
    p_cap.add_argument("--base", choices=("2", "e"), default="2")
    p_cap.set_defaults(handler=cmd_capacity)

    p_pauli = subs.add_parser("pauli", help="Pauli-diagonal analyses")
    pauli_subs = p_pauli.add_subparsers(dest="sub", required=True)
    pl = pauli_subs.add_parser("lambda", parents=[output])
    pl.add_argument("--in", dest="infile", required=True)
    pl.set_defaults(handler=cmd_pauli)
    pn = pauli_subs.add_parser("ncimage", parents=[output])
    pn.add_argument("-d", "--dim", type=_positive_int, required=True)
    pn.add_argument("--state", required=True, help="matrix JSON file")
    pn.add_argument("--product", action="store_true", help="use the d x d product basis")
    pn.add_argument("--explicit", action="store_true", help="use the closed-form assembly")
    pn.set_defaults(handler=cmd_pauli)
    pb = pauli_subs.add_parser("bound", parents=[output])
    pb.add_argument("--in", dest="infile", required=True)
    pb.add_argument("-p", type=_parse_p, default=math.inf)
    pb.set_defaults(handler=cmd_pauli)
    ps = pauli_subs.add_parser("subgroup", parents=[cutoff, output])
    ps.add_argument("-d", "--dim", type=_positive_int, required=True)
    ps.add_argument("--state", required=True)
    ps.add_argument("--product", action="store_true")
    ps.set_defaults(handler=cmd_pauli)
    pc = pauli_subs.add_parser("classify", parents=[cutoff, output])
    pc.add_argument("-d", "--dim", type=_positive_int, required=True, help="prime factor dimension")
    pc.add_argument("--state", required=True, help="vector JSON file on d^2")
    pc.set_defaults(handler=cmd_pauli)

    p_ebt = subs.add_parser("ebt", help="entanglement-breaking channel tools")
    ebt_subs = p_ebt.add_subparsers(dest="sub", required=True)
    ec = ebt_subs.add_parser("conjugate", parents=[output])
    ec.add_argument("--in", dest="infile", required=True, help="EBT JSON file")
    ec.set_defaults(handler=cmd_ebt)
    ed = ebt_subs.add_parser("detect", parents=[output])
    ed.add_argument("--in", dest="infile", required=True, help="channel JSON file")
    ed.set_defaults(handler=cmd_ebt)

    p_gl = subs.add_parser("gl", help="linearization operators")
    gl_subs = p_gl.add_subparsers(dest="sub", required=True)
    for name in ("theta", "omega"):
        g = gl_subs.add_parser(name, parents=[output])
        g.add_argument("--in", dest="infile", required=True)
        g.add_argument("-p", type=_positive_int, required=True)
        g.set_defaults(handler=cmd_gl)
    gv = gl_subs.add_parser("verify", parents=[seed, output])
    gv.add_argument("--in", dest="infile", required=True)
    gv.add_argument("-p", type=_positive_int, default=2)
    gv.add_argument("--trials", type=_positive_int, default=5)
    gv.set_defaults(handler=cmd_gl)

    p_verify = subs.add_parser("verify", parents=[seed, output], help="run invariant suites")
    p_verify.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p_verify.add_argument("--trials", type=_positive_int, default=None)
    p_verify.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        payload, code = args.handler(args)
        if payload is not None:
            _emit(payload, args)
    except (ValueError, KeyError, TypeError) as exc:
        from .conjugate import NotConjugateError

        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY if isinstance(exc, NotConjugateError) else EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(
        f"[qcc] {args.command} finished in {time.perf_counter() - start:.3f}s",
        file=sys.stderr,
    )
    return code


def run() -> None:
    """The program's exit path, for ``python -m qcc.cli`` and the ``qcc``
    script: :func:`main`, then :func:`gc.freeze` and exit with its code.

    Freezing moves every tracked object into the permanent generation, so
    the full collections the interpreter makes at shutdown have nothing
    left to scan; atexit handlers, reference-count deallocation and the
    flush of stdout and stderr still run.  :func:`main` itself does not
    freeze, so a caller that runs it in-process keeps its collector.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
