"""JSON interchange formats and deterministic float formatting.

Channel files are objects ``{"d_in": .., "d_out": .., "kraus": [..]}`` where
each Kraus operator is a row-major array of rows and each scalar a two-element
``[re, im]`` array of doubles.  Field names and their order are normative.
Floats are printed with 17 significant digits so every value round-trips,
the sign of a zero aside: ``-0.0`` and ``0.0`` both print as ``0``.
:func:`dumps` writes one layout, two spaces of indent per level, and writes
a numpy array as the nested list :func:`plain` makes of it: a real array as
its numbers, a complex one with ``[re, im]`` entries.
:func:`complex_array` reads such a complex array back.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

from .channel import ChoiMatrix, KrausChannel
from .linalg import MAX_DIM

# The Pauli and EBT codecs import their modules when called, so that reading
# or writing a plain channel loads neither.
if TYPE_CHECKING:
    from .ebt import EBTChannel
    from .pauli import PauliBasis, PauliDiagonalChannel


def format_float(x: float) -> str:
    x = float(x) + 0.0  # -0.0 + 0.0 is 0.0, so zero prints as 0 whatever its sign
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return format(x, ".17g")


def plain(a) -> np.ndarray:
    """The array JSON writes: a complex array gains a trailing ``[re, im]`` axis."""
    a = np.asarray(a)
    return np.stack([a.real, a.imag], axis=-1) if np.iscomplexobj(a) else a


def dumps(obj) -> str:
    """Deterministic JSON text with 17-significant-digit floats, one item
    per line and two spaces of indent per level.

    Dict insertion order is preserved, so callers control field order.
    """
    return _text(obj, 0)


def _wrap(items: list[str], brackets: str, level: int) -> str:
    """``items`` between ``brackets``, one per line, at nesting ``level``."""
    if not items:
        return brackets
    pad = "\n" + "  " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * level + brackets[1]


def _text(obj, level: int) -> str:
    if isinstance(obj, np.ndarray):
        return _array_text(obj, level)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: {_text(v, level + 1)}" for k, v in obj.items()]
        return _wrap(items, "{}", level)
    if isinstance(obj, (list, tuple)):
        return _wrap([_text(v, level + 1) for v in obj], "[]", level)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _array_text(a: np.ndarray, level: int) -> str:
    """``plain(a).tolist()``'s text; for floats, one ``%`` call on a template
    that holds the layout and a ``%.17g`` (``format_float``'s format) per number."""
    a = plain(a)
    if a.dtype.kind != "f" or not a.size:
        return _text(a.tolist(), level)
    template = "%.17g"
    for axis in range(a.ndim - 1, -1, -1):
        template = _wrap([template] * a.shape[axis], "[]", level + axis)
    return template % finite_values(a)


def finite_values(a: np.ndarray) -> tuple:
    """The numbers of a float array in row-major order, with ``-0.0`` made
    ``0.0`` as :func:`format_float` makes it, refused as it refuses them if
    any is not finite."""
    flat = a.ravel()
    bad = flat[~np.isfinite(flat)]
    if bad.size:
        raise ValueError(f"cannot serialize non-finite value {float(bad[0])}")
    return tuple((flat + 0.0).tolist())


_BAD_PAIR = "complex scalar must be a finite [re, im] pair"


def _finite_reals(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is a finite JSON number, ``true`` and
    ``false`` read as 1 and 0.  A string, a null or an integer beyond 64 bits
    in the lists ``a`` was made from gives it another dtype kind."""
    return a.dtype.kind in "biuf" and bool(np.isfinite(a).all())


def complex_array(obj, ndim: int) -> np.ndarray:
    """The complex array with ``ndim`` axes that :func:`plain` writes as ``obj``.

    ``obj`` must nest lists of equal lengths down to ``[re, im]`` pairs of
    finite numbers.  It becomes one array in one ``np.array`` call, so no
    entry costs a Python call, and the pairs are reinterpreted in place as
    complex numbers, which keeps every bit, the sign of ``-0.0`` included.
    A refusal names what the shape shows: an axis too many or too few, rows
    of unequal lengths, matrices with unequal numbers of rows (only a
    channel file's Kraus stack has an axis above its matrices), or an entry
    that is not a finite pair.
    """
    try:
        a = np.array(obj)
    except ValueError:  # lists of unequal lengths: the object array stops above them
        uneven = np.array(obj, dtype=object).ndim
        if uneven >= ndim:
            raise ValueError(_BAD_PAIR) from None
        if uneven == ndim - 1:
            raise ValueError("matrix rows have inconsistent lengths") from None
        raise ValueError("every Kraus operator must be d_out x d_in") from None
    if not a.ndim or not a.size:
        raise ValueError(
            "vector must be a non-empty array of [re, im] pairs"
            if ndim == 1 else "matrix must be a non-empty array of rows"
        )
    if a.ndim > ndim + 1:
        raise ValueError(
            f"expected a vector of [re, im] pairs, got a matrix with {a.shape[ndim - 1]} rows"
        )
    if a.ndim == ndim > 1:
        raise ValueError(
            f"expected a matrix of rows of [re, im] pairs, got a vector of length {a.shape[-2]}"
        )
    if a.ndim != ndim + 1 or a.shape[-1] != 2 or not _finite_reals(a):
        raise ValueError(_BAD_PAIR)
    return np.ascontiguousarray(a, float).view(np.complex128)[..., 0]


def channel_to_obj(ch: KrausChannel) -> dict:
    return {"d_in": ch.d_in, "d_out": ch.d_out, "kraus": ch.kraus}


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
    kraus = complex_array(obj["kraus"], 3)
    if kraus.shape[1:] != (d_out, d_in):
        raise ValueError("every Kraus operator must be d_out x d_in")
    return KrausChannel(d_in=d_in, d_out=d_out, kraus=kraus)


def choi_to_obj(choi: ChoiMatrix) -> dict:
    return {"d_in": choi.d_in, "d_out": choi.d_out, "gamma": choi.gamma}


def basis_tag(basis: PauliBasis) -> str:
    if basis.kind == "pauli":
        return "pauli"
    dims = ",".join(str(d) for d in basis.factor_dims)
    return f"pauli_product:[{dims}]"


def pauli_to_obj(ch: PauliDiagonalChannel) -> dict:
    return {"d": ch.d, "basis": basis_tag(ch.basis), "weights": ch.weights}


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
    try:
        weights = np.array(obj["weights"])
    except ValueError:  # lists of unequal lengths
        weights = None
    if weights is None or weights.shape != (d * d,) or not _finite_reals(weights):
        raise ValueError(f"weights must be a flat array of {d * d} finite doubles")
    return pauli_channel(basis, weights.astype(float))


def ebt_to_obj(ch: EBTChannel) -> dict:
    return {"x": ch.x, "w": ch.w}


def ebt_from_obj(obj) -> EBTChannel:
    if not isinstance(obj, dict) or "x" not in obj or "w" not in obj:
        raise ValueError("EBT JSON needs x and w vector lists")
    from .ebt import ebt_channel

    xs = [complex_array(v, 1) for v in obj["x"]]
    ws = [complex_array(v, 1) for v in obj["w"]]
    # The caps of ``build ebt``, checked before completeness forms an outer product.
    d_in, d_out = (max((v.size for v in vs), default=0) for vs in (ws, xs))
    n = max(len(xs), len(ws))
    for name, size, cap in (("d_in", d_in, MAX_DIM), ("d_out", d_out, MAX_DIM), ("n", n, MAX_DIM**2)):
        if size > cap:
            raise ValueError(f"EBT {name} {size} exceeds the supported size ({name} <= {cap})")
    return ebt_channel(xs, ws)
