#!/usr/bin/env python3
"""The qcc benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout.  One process, one client, closed loop: the
workload's operations run one after another, in whole rounds, until
``--seconds`` have passed (and at least enough rounds for 40 operations).
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and prints the per-layer metrics.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See bench/README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("single-purity", "product-gap", "conjugate-routes", "cli-session")
#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: A run makes enough whole rounds for at least this many operations.
MIN_OPS = 40
#: Address-space cap on the benchmark's own process (and its children).
ADDRESS_SPACE = 3 << 30
#: BLAS threads for the benchmark and the CLI commands it starts.  One, not
#: the two cores there are: at these sizes a second thread slows a 64 x 64
#: complex product a hundredfold and makes the first threaded call take ~1 s.
BLAS_THREADS = "1"

END_TO_END = {"setup_s": "s", "round_ref_s": "s", "peak_rss_mb": "MB"}

#: Calibration kernel: untimed warm-up iterations, timed iterations, and
#: its median time on the reference machine (2 cores, Python 3.11.7,
#: numpy 2.4.6, OpenBLAS 0.3.31).
CAL_WARM = 20
CAL_ITERS = 150
CAL_REF_S = 3.4e-3
#: A call's speed is judged from this many calibrations on each side of it.
CAL_WINDOW = 4
#: A call at least this long counts unscaled (see ``Clock``).
LONG_CALL_S = 5.0


def calibrate(a) -> float:
    """Seconds one run of the calibration kernel on matrix ``a`` takes now.

    The kernel is the same kind of work as the program's: products and
    eigensolves of small complex matrices in an interpreted loop.  It uses
    numpy only, never qcc, so no change to the program moves it.  The
    untimed iterations first bring its code and data back into the caches
    that the call before it used.
    """
    import numpy as np

    for _ in range(CAL_WARM):
        np.linalg.eigvalsh(a @ a.conj().T)
    t0 = perf_counter()
    for _ in range(CAL_ITERS):
        np.linalg.eigvalsh(a @ a.conj().T)
    return perf_counter() - t0


class Clock:
    """Times calls, and gives their times in reference seconds.

    The shared machine's speed swings by up to a factor of two, for
    stretches of 0.3 s to a minute.  The calibration kernel runs after every
    timed call.  A call's reference time is its time scaled by ``CAL_REF_S``
    over the mean of the ``CAL_WINDOW`` calibrations on each side of it,
    less the highest and the lowest: a call that ran while the machine was
    slow is counted at the speed it would have had on the reference
    machine, and one stray calibration does not rescale it.  A call of
    ``LONG_CALL_S`` or more counts unscaled: it spans many stretches, and
    the calibrations around it do not tell its speed.
    """

    def __init__(self):
        import numpy as np  # only once main() has set the BLAS threads

        g = np.random.default_rng(0).standard_normal((2, 8, 8))
        self._a = g[0] + 1j * g[1]
        #: Seconds of each timed call; call ``i`` ran between calibrations
        #: ``i`` and ``i + 1``.
        self.calls: list[float] = []
        self.cals = [calibrate(self._a)]

    def time(self, fn):
        """Call ``fn``; return ``(result, exception)``."""
        t0 = perf_counter()
        result = exc = None
        try:
            result = fn()
        except Exception as e:  # noqa: BLE001 - handed back to the caller
            exc = e
        self.calls.append(perf_counter() - t0)
        self.cals.append(calibrate(self._a))
        return result, exc

    def ref_s(self, i: int) -> float:
        """Reference seconds of call ``i``."""
        dt = self.calls[i]
        if dt >= LONG_CALL_S:
            return dt
        window = sorted(self.cals[max(0, i + 1 - CAL_WINDOW):i + 1 + CAL_WINDOW])
        return dt * CAL_REF_S / fmean(window[1:-1])

    def ref_sum(self, calls: range) -> float:
        return sum(self.ref_s(i) for i in calls)


def per_layer_units() -> dict[str, str]:
    from tracer import COUNTERS, TRACED

    units = {}
    for mod, fn in TRACED:
        units[f"{mod}.{fn}.calls"] = "count"
        units[f"{mod}.{fn}.s"] = "s"
    units["purity.nu_p.self_s"] = "s"
    units.update(dict.fromkeys(COUNTERS, "count"))
    units["channel.apply.flops"] = "flop"
    units["purity.s_per_restart"] = "s"
    units["cli.import_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def tail_quantile(n_min: int) -> float:
    """Highest percentile with at least ten of ``n_min`` samples beyond it.

    ``n_min`` is the operation count of the minimum number of rounds, which
    depends on the workload only, so every run reports the same percentile.
    """
    return 1 - 10 / n_min


def fresh_import_s(env: dict) -> float:
    """Seconds a fresh interpreter takes to import ``qcc.cli``."""
    code = "import time; t = time.perf_counter(); import qcc.cli; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout)


class Runner:
    """Runs operations on a clock, checks them, and keeps the outcome counts."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._reported: set[str] = set()

    def _note(self, op, msg: str) -> None:
        if op.label not in self._reported:
            self._reported.add(op.label)
            print(f"[bench] {op.label}: {msg}", file=sys.stderr)

    def run(self, op) -> None:
        result, exc = self.clock.time(op.call)
        self.attempted += 1
        if exc is not None:  # the run goes on; the operation counts as failed
            self.failed += 1
            if op.known_fault:
                self._note(op, f"failed as known ({op.known_fault}): {type(exc).__name__}")
            else:
                self._note(op, "raised\n" + "".join(traceback.format_exception(exc)))
            # Drop the traceback, and the arrays its frames hold, before the
            # next operation.
            exc.__traceback__ = None
            return
        try:
            op.check(result)
        except Exception as exc:
            if op.known_fault:
                self.failed += 1
                self._note(op, f"failed as known ({op.known_fault}): {exc}")
            else:
                self.correct = False
                self._note(op, f"INCORRECT: {exc!r}")
        else:
            if op.known_fault:
                self._note(op, f"known fault no longer shows: {op.known_fault}")


def run_round(plan, runner: Runner) -> range:
    """One pass over the plan; returns the clock's indices of its calls."""
    start = len(runner.clock.calls)
    for op in plan:
        runner.run(op)
    return range(start, len(runner.clock.calls))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs of every operation kind (for the benchmark's test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qcc" / "__init__.py").is_file():
        print(f"error: no qcc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from tracer import Tracer

    workdir = ROOT / ".bench_run" / args.workload
    (workdir / "trace").mkdir(parents=True, exist_ok=True)
    cli = workloads.Cli(ROOT, workdir)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    # Set-up: fresh-interpreter import, input generation, warm-up.
    # The warm-up runs the smallest plan at a fixed seed, so that its cost
    # does not vary with --seed; its inputs are made before the real ones.
    # Each step is timed by the clock.  Failures of warm-up operations are
    # left to the timed rounds to count and report.
    clock = Clock()

    def step(fn):
        result, exc = clock.time(fn)
        if exc is not None:
            raise exc
        return result

    setups: list[range] = []
    imports: list[float] = []
    for _ in range(SETUP_REPEATS):
        start = len(clock.calls)
        imports.append(step(lambda: fresh_import_s(env)))
        for op in step(lambda: workloads.build(args.workload, 0, True, cli)):
            _, exc = clock.time(op.call)
            if exc is not None:
                exc.__traceback__ = None
        plan = step(lambda: workloads.build(args.workload, args.seed, args.tiny, cli))
        setups.append(range(start, len(clock.calls)))

    min_rounds = math.ceil(MIN_OPS / len(plan))
    runner = Runner(clock)
    rounds: list[range] = []
    traced_rounds: list[range] = []
    tracer = Tracer() if args.trace else None
    start = perf_counter()
    while (len(rounds) < min_rounds or (args.trace and not traced_rounds)
           or perf_counter() - start < args.seconds):
        if tracer is not None and len(rounds) > len(traced_rounds):
            tracer.install()
            cli.trace_dir = workdir / "trace"
            try:
                traced_rounds.append(run_round(plan, runner))
            finally:
                tracer.uninstall()
                cli.trace_dir = None
        else:
            rounds.append(run_round(plan, runner))
    walls = [clock.ref_sum(r) for r in rounds]

    if tracer is None:
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
        values = {
            "setup_s": median(clock.ref_sum(r) for r in setups),
            "round_ref_s": median(walls),
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        }
        units = END_TO_END
        # Operation latency quantiles go to stderr only: on a shared machine
        # they swing more between runs than a metric's bound allows.
        lat = sorted(clock.ref_s(i) for r in rounds for i in r)
        q = tail_quantile(min_rounds * len(plan))
        raw = [sum(clock.calls[i] for i in r) for r in rounds]
        print(f"[bench] {args.workload}: {len(walls)} rounds of {len(plan)} operations; "
              f"operation latency p50 {1e3 * median(lat):.3f} ms, "
              f"p{100 * q:.1f} {1e3 * _quantile(lat, q):.3f} ms (reference); "
              "rounds, reference s: " + " ".join(f"{w:.3f}" for w in walls)
              + "; unscaled s: " + " ".join(f"{w:.3f}" for w in raw), file=sys.stderr)
    else:
        values = layer_metrics(tracer, cli, workdir, len(traced_rounds))
        values["cli.import_s"] = median(imports)
        values["trace.overhead_s"] = (median(clock.ref_sum(r) for r in traced_rounds)
                                      - median(walls))
        units = per_layer_units()

    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def _quantile(sorted_vals: list[float], q: float) -> float:
    """Linear-interpolated quantile of sorted values."""
    pos = q * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (pos - lo) * (sorted_vals[hi] - sorted_vals[lo])


def layer_metrics(tracer, cli, workdir: Path, rounds: int) -> dict:
    """Per-layer metrics per traced round, from this process's spans and
    those the CLI children wrote."""
    from tracer import load, summarize

    tracer.save(str(workdir / "spans.npz"))
    totals = summarize(tracer.arrays(), tracer.names)
    counters = dict(tracer.counters)
    for path in cli.spans:
        if not path.exists():  # the command failed before writing; counted there
            continue
        spans, meta = load(str(path))
        for k, v in summarize(spans, meta["names"]).items():
            totals[k] += v
        for k, v in meta["counters"].items():
            counters[k] += v
    out = {k: v / rounds for k, v in totals.items()}
    out.update({k: v / rounds for k, v in counters.items()})
    restarts = counters["purity.restarts"]
    busy = totals["purity.nu_p.s"] + totals["purity.s_min.s"]
    out["purity.s_per_restart"] = busy / restarts if restarts else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main())
