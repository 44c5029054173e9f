"""Quantum channels, conjugate channels, and optimal output purity.

The names below are re-exported from their submodules on first use
(PEP 562), so ``import qcc`` loads no submodule and a command line run
loads only the modules it needs.  ``from qcc import X``, ``qcc.X`` and
``from qcc import *`` behave as if every name were imported eagerly.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "channel": (
        "AncillaRep",
        "ChoiMatrix",
        "KrausChannel",
        "KrausRelation",
        "adjoint_apply",
        "apply",
        "choi_to_kraus",
        "identity_channel",
        "is_generalized_extreme",
        "kraus_rank",
        "kraus_to_ancilla",
        "kraus_to_choi",
        "relate_kraus_sets",
        "tensor",
        "validate_cpt",
    ),
    "conjugate": (
        "NotConjugateError",
        "conjugate_ancilla",
        "conjugate_channel",
        "conjugate_choi",
        "conjugate_kraus",
        "find_relating_isometry",
    ),
    "ebt": (
        "EBTChannel",
        "HadamardChannel",
        "conjugate_ebt",
        "cq_channel",
        "ebt_channel",
        "is_hadamard_form",
        "pseudodiag_kraus",
    ),
    "gl": ("omega", "shift_operator", "theta", "verify_gl_identity"),
    "linalg": (
        "Spectrum",
        "hadamard_product",
        "kron",
        "majorizes",
        "nonzero_spectrum",
        "partial_trace",
        "schatten_norm",
        "von_neumann_entropy",
    ),
    "pauli": (
        "PauliBasis",
        "PauliDiagonalChannel",
        "axes_channel",
        "axis_states",
        "bloch_coefficients",
        "build_basis",
        "classify_product_or_me",
        "depolarizing_weights",
        "find_U_T",
        "holevo_capacity_weyl",
        "is_decomposable",
        "lambda_spectrum",
        "majorization_bound",
        "nc_image_checks",
        "nc_image_explicit",
        "noisy_conjugate_image",
        "noisy_weights",
        "nu2_bound",
        "p_infty_multiplicativity_check",
        "pauli_channel",
        "product_basis",
        "qubit_nu_p_closed_form",
        "recover_state",
        "subgroup_of_support",
    ),
    "purity": (
        "OptimizerOptions",
        "PurityReport",
        "additivity_gap_entropy",
        "multiplicativity_gap",
        "nu_p",
        "s_min",
        "spectrum_pair_check",
    ),
}

#: Re-exported name -> the submodule that defines it.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

#: Every submodule, so that ``import qcc; qcc.pauli`` also works.
_SUBMODULES = frozenset(
    ("channel", "cli", "conjugate", "ebt", "gl", "linalg", "pauli", "purity", "random",
     "serialize", "verify")
)

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import binds the submodule in this namespace.  The builtin, unlike
    # importlib.import_module, is seen by ``python -X importtime``.
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted(set(globals()) | _SOURCE.keys() | _SUBMODULES)
