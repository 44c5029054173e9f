"""Quantum channels, conjugate channels, and optimal output purity.

Each object is defined, and named, in one submodule: ``qcc.channel``,
``qcc.conjugate``, ``qcc.purity`` and so on.  The submodules load on first
use (PEP 562), so ``import qcc`` loads none of them, ``qcc.pauli`` imports
``qcc.pauli`` when it is first read, and a command line run loads only the
modules it needs.
"""

__version__ = "0.1.0"

_SUBMODULES = frozenset(
    ("channel", "cli", "conjugate", "ebt", "gl", "linalg", "pauli", "purity", "random",
     "serialize", "verify")
)


def __getattr__(name):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import binds the submodule in this namespace.  The builtin, unlike
    # importlib.import_module, is seen by ``python -X importtime``.
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | _SUBMODULES)
