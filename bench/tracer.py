"""Outside-in tracing of qcc's public functions.

The tracer replaces each traced function with a wrapper in every ``qcc``
module namespace that holds it, including the ones that imported it by name
(``purity`` holds ``hermitian_eigh`` and ``schatten_norm``, ``pauli`` holds
``s_min``, ``cli`` and ``verify`` hold the ``purity`` entry points).  Each
call leaves a span: name, start, end and the span that was open when it
began.  Spans stay in memory and are written out once, at the end of a run;
per-layer times, self times and counts are derived from them afterwards.

Nothing is installed unless a tracer is created and ``install`` is called,
so untraced runs execute the program unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

import numpy as np

#: Modules whose namespaces are searched for references to traced functions.
QCC_MODULES = (
    "qcc", "qcc.linalg", "qcc.channel", "qcc.conjugate", "qcc.purity",
    "qcc.pauli", "qcc.ebt", "qcc.gl", "qcc.verify", "qcc.serialize",
    "qcc.random", "qcc.cli",
)

#: (module, function) pairs traced, one entry per layer of the program.
TRACED = (
    ("linalg", "hermitian_eigh"), ("linalg", "canonical_hermitian_eigh"),
    ("linalg", "schatten_norm"),
    ("channel", "apply"), ("channel", "adjoint_apply"), ("channel", "require_cpt"),
    ("channel", "tensor"), ("channel", "kraus_to_choi"), ("channel", "choi_to_kraus"),
    ("purity", "nu_p"), ("purity", "s_min"), ("purity", "multiplicativity_gap"),
    ("purity", "additivity_gap_entropy"), ("purity", "spectrum_pair_check"),
    ("conjugate", "conjugate_channel"), ("conjugate", "find_relating_isometry"),
    ("pauli", "build_basis"), ("pauli", "holevo_capacity_weyl"),
    ("pauli", "noisy_conjugate_image"),
    ("ebt", "conjugate_ebt"), ("ebt", "is_hadamard_form"),
    ("gl", "theta"), ("gl", "omega"),
    ("verify", "run_suites"),
    ("serialize", "channel_from_obj"), ("serialize", "dumps"),
    ("cli", "main"),
)

#: Counters kept beside the spans; see ``_count``.
COUNTERS = (
    "channel.apply.flops", "purity.iterations", "purity.restarts",
    "conjugate.find_relating_isometry.rejected",
)


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in TRACED]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self._open = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def _wrap(self, idx: int, fn):
        name = self.names[idx]
        count = self._count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(idx)
            self.parent.append(self._open[-1])
            self.end.append(0.0)
            self._open.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                count(name, args, kwargs, None, exc)
                raise
            finally:
                self.end[i] = perf_counter()
                self._open.pop()
            count(name, args, kwargs, result, None)
            return result

        return traced

    def _count(self, name, args, kwargs, result, exc) -> None:
        c = self.counters
        if name == "channel.apply":
            # Two contractions: F rho (n d_out d_in^2) then (F rho) F^+
            # (n d_out^2 d_in), 8 real flops per complex multiply-add.
            ch = args[0] if args else kwargs["ch"]
            n, d_out, d_in = ch.kraus.shape
            c["channel.apply.flops"] += 8.0 * n * d_out * d_in * (d_in + d_out)
        elif name in ("purity.nu_p", "purity.s_min") and result is not None:
            c["purity.iterations"] += result.iterations
            c["purity.restarts"] += result.restarts
        elif name == "conjugate.find_relating_isometry" and exc is not None:
            if type(exc).__name__ == "NotConjugateError":
                c["conjugate.find_relating_isometry.rejected"] += 1

    def install(self) -> None:
        """Wrap every traced function wherever a ``qcc`` module holds it."""
        mods = [importlib.import_module(m) for m in QCC_MODULES]
        for idx, (modname, fname) in enumerate(TRACED):
            original = getattr(sys.modules[f"qcc.{modname}"], fname)
            wrapper = self._wrap(idx, original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------- output

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def save(self, path: str, **extra) -> None:
        """Write the spans and counters to ``path`` (numpy ``.npz``)."""
        meta = {"names": self.names, "counters": self.counters, **extra}
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **self.arrays())


def load(path: str) -> tuple[dict, dict]:
    """Spans and metadata written by :meth:`Tracer.save`."""
    with np.load(path) as z:
        spans = {k: z[k] for k in ("name", "start", "end", "parent")}
        meta = json.loads(str(z["meta"]))
    return spans, meta


def summarize(spans: dict, names: list[str]) -> dict[str, float]:
    """Per-function call counts, inclusive seconds, and self seconds.

    Inclusive time counts only the outermost of nested calls to the same
    function; self time is a span's duration minus that of its direct
    children (spans nest, since the program runs on one thread).
    """
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    nested = np.zeros(len(dur), dtype=bool)
    anc = parent.copy()
    while (live := anc >= 0).any():
        nested[live] |= name[anc[live]] == name[live]
        anc[live] = parent[anc[live]]
    outermost = ~nested
    out: dict[str, float] = {}
    for idx, fn in enumerate(names):
        mine = name == idx
        out[f"{fn}.calls"] = float(mine.sum())
        out[f"{fn}.s"] = float(dur[mine & outermost].sum())
        out[f"{fn}.self_s"] = float((dur[mine] - child[mine]).sum())
    return out
