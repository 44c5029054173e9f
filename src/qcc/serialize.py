"""JSON interchange formats and deterministic float formatting.

Channel files are objects ``{"d_in": .., "d_out": .., "kraus": [..]}`` where
each Kraus operator is a row-major array of rows and each scalar a two-element
``[re, im]`` array of doubles.  Field names and their order are normative.
Floats are printed with 17 significant digits so every value round-trips.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

from .channel import ChoiMatrix, KrausChannel

# The Pauli and EBT codecs import their modules when called, so that reading
# or writing a plain channel loads neither.
if TYPE_CHECKING:
    from .ebt import EBTChannel
    from .pauli import PauliBasis, PauliDiagonalChannel


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return format(x, ".17g")


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON text with 17-significant-digit floats.

    Dict insertion order is preserved, so callers control field order.
    """
    pieces: list[str] = []
    _emit(obj, pieces, indent, 0)
    return "".join(pieces)


def _emit(obj, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1)) if indent else ""
    close_pad = " " * (indent * level) if indent else ""
    sep = ",\n" if indent else ", "
    nl = "\n" if indent else ""
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{" + nl)
        for i, (k, v) in enumerate(obj.items()):
            out.append(f"{pad}{json.dumps(str(k))}: ")
            _emit(v, out, indent, level + 1)
            out.append(sep if i < len(obj) - 1 else nl)
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[" + nl)
        for i, v in enumerate(items):
            out.append(pad)
            _emit(v, out, indent, level + 1)
            out.append(sep if i < len(items) - 1 else nl)
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def encode_complex(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def encode_vector(v: np.ndarray) -> list[list[float]]:
    return [encode_complex(z) for z in np.asarray(v).ravel()]


def encode_matrix(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m)
    return [[encode_complex(z) for z in row] for row in m]


def _finite_number(t) -> bool:
    """A JSON number that converts to a finite double."""
    try:
        return isinstance(t, (int, float)) and math.isfinite(float(t))
    except OverflowError:
        return False


def decode_complex(obj) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(_finite_number(t) for t in obj)
    ):
        raise ValueError(f"complex scalar must be a finite [re, im] pair, got {obj!r}")
    return complex(obj[0], obj[1])


def _nested(obj) -> bool:
    """Whether ``obj`` is a list whose first entry is itself a list."""
    return isinstance(obj, list) and bool(obj) and isinstance(obj[0], list)


def decode_vector(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError("vector must be a non-empty array of [re, im] pairs")
    if all(_nested(e) for e in obj):
        raise ValueError(
            f"expected a vector of [re, im] pairs, got a matrix with {len(obj)} rows"
        )
    return np.array([decode_complex(e) for e in obj])


def decode_matrix(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError("matrix must be a non-empty array of rows")
    if not any(_nested(r) for r in obj):
        raise ValueError(
            f"expected a matrix of rows of [re, im] pairs, got a vector of length {len(obj)}"
        )
    rows = [decode_vector(r) for r in obj]
    width = rows[0].size
    if any(r.size != width for r in rows):
        raise ValueError("matrix rows have inconsistent lengths")
    return np.stack(rows)


def channel_to_obj(ch: KrausChannel) -> dict:
    return {
        "d_in": ch.d_in,
        "d_out": ch.d_out,
        "kraus": [encode_matrix(f) for f in ch.kraus],
    }


def channel_from_obj(obj) -> KrausChannel:
    if not isinstance(obj, dict):
        raise ValueError("channel JSON must be an object")
    for key in ("d_in", "d_out", "kraus"):
        if key not in obj:
            raise ValueError(f"channel JSON is missing field {key!r}")
    d_in, d_out = obj["d_in"], obj["d_out"]
    # bool is an int subclass, but a JSON true is not a dimension.
    if any(type(d) is not int or d < 1 for d in (d_in, d_out)):
        raise ValueError("d_in and d_out must be positive integers")
    if not isinstance(obj["kraus"], list) or not obj["kraus"]:
        raise ValueError("kraus must be a non-empty array of matrices")
    ops = [decode_matrix(f) for f in obj["kraus"]]
    if any(f.shape != (d_out, d_in) for f in ops):
        raise ValueError("every Kraus operator must be d_out x d_in")
    return KrausChannel(d_in=d_in, d_out=d_out, kraus=np.stack(ops))


def choi_to_obj(choi: ChoiMatrix) -> dict:
    return {
        "d_in": choi.d_in,
        "d_out": choi.d_out,
        "gamma": encode_matrix(choi.gamma),
    }


def basis_tag(basis: PauliBasis) -> str:
    if basis.kind == "pauli":
        return "pauli"
    dims = ",".join(str(d) for d in basis.factor_dims)
    return f"pauli_product:[{dims}]"


def pauli_to_obj(ch: PauliDiagonalChannel) -> dict:
    return {
        "d": ch.d,
        "basis": basis_tag(ch.basis),
        "weights": [float(w) for w in ch.weights],
    }


def pauli_from_obj(obj) -> PauliDiagonalChannel:
    if not isinstance(obj, dict) or any(k not in obj for k in ("d", "basis", "weights")):
        raise ValueError("Pauli-diagonal JSON needs d, basis, and weights")
    from .pauli import build_basis, pauli_channel, product_basis

    d, tag = obj["d"], obj["basis"]
    if not isinstance(d, int) or d < 2:
        raise ValueError("d must be an integer >= 2")
    if tag == "pauli":
        basis = build_basis(d)
    elif isinstance(tag, str) and tag.startswith("pauli_product:"):
        try:
            dims = json.loads(tag.split(":", 1)[1])
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad basis tag {tag!r}") from exc
        # bool is an int subclass, but a JSON true is not a dimension.
        if not isinstance(dims, list) or any(type(x) is not int for x in dims):
            raise ValueError(f"bad basis tag {tag!r}: factor dimensions must be integers")
        if len(dims) < 2:
            raise ValueError("product basis needs at least two factors")
        basis = build_basis(dims[0])
        for dim in dims[1:]:
            basis = product_basis(basis, build_basis(dim))
        if basis.d != d:
            raise ValueError(f"product of {dims} has dimension {basis.d}, not {d}")
    else:
        raise ValueError(f"unknown basis tag {tag!r}")
    weights = obj["weights"]
    if (
        not isinstance(weights, list)
        or len(weights) != d * d
        or not all(_finite_number(w) for w in weights)
    ):
        raise ValueError(f"weights must be a flat array of {d * d} finite doubles")
    return pauli_channel(basis, np.array(weights, dtype=float))


def ebt_to_obj(ch: EBTChannel) -> dict:
    return {
        "x": [encode_vector(v) for v in ch.x],
        "w": [encode_vector(v) for v in ch.w],
    }


def ebt_from_obj(obj) -> EBTChannel:
    if not isinstance(obj, dict) or "x" not in obj or "w" not in obj:
        raise ValueError("EBT JSON needs x and w vector lists")
    from .ebt import ebt_channel

    xs = [decode_vector(v) for v in obj["x"]]
    ws = [decode_vector(v) for v in obj["w"]]
    return ebt_channel(xs, ws)
