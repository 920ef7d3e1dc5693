"""Wire formats: matrix JSON, tolerance config, deterministic report dumps.

Matrix format, shared by every command and report:
``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with ``data`` row-major.
Every reader checks the JSON type of each field it parses, raising
ValueError: integers are ints and numbers are ints or floats, never bools.
Numbers must be finite doubles: Python's ``json`` reads ``NaN``,
``Infinity`` and ``1e400`` as floats, and the readers reject them. Readers
also reject keys that are not theirs, so a misspelt field is an error rather
than a silent default.
"""

from __future__ import annotations

import json
import reprlib

import numpy as np

from .linalg import Tolerance, _is_finite

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "tolerance_from_json",
    "tolerance_to_json",
    "dump_json",
]


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def _is_kind(value, kind: type) -> bool:
    """JSON type test: a bool is neither an integer nor a number; an integer is a number."""
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


def _json_value(value, kind: type, what: str, nullable: bool = False):
    """``value`` if it is a JSON ``kind`` (int, float, str, list or dict), or
    null when ``nullable``; a number of kind float must be finite and comes
    back as a float, so an integer exponent reads as the float it means.
    Otherwise ValueError naming ``what``."""
    if not (_is_kind(value, kind) or (nullable and value is None)):
        null = " or null" if nullable else ""
        raise ValueError(f"{what} must be {_KIND_NAMES[kind]}{null}, got {reprlib.repr(value)}")
    if kind is float and value is not None and not _is_finite(value):
        raise ValueError(f"{what} must be a finite number, got {reprlib.repr(value)}")
    return float(value) if kind is float and value is not None else value


def _json_object(value, what: str, keys) -> dict:
    """``value`` unchanged if it is a JSON object whose keys are all in
    ``keys``; otherwise ValueError naming ``what`` and the unknown keys."""
    _json_value(value, dict, what)
    unknown = set(value) - set(keys)
    if unknown:
        raise ValueError(f"unknown {what} keys {sorted(unknown)}; expected some of {sorted(keys)}")
    return value


def _json_list(value, kind: type, what: str) -> list:
    """``value`` unchanged if it is a JSON list of ``kind`` items; otherwise ValueError."""
    if not (isinstance(value, list) and all(_is_kind(v, kind) for v in value)):
        items = f"a list, each item {_KIND_NAMES[kind]}"
        raise ValueError(f"{what} must be {items}, got {reprlib.repr(value)}")
    return value


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={a.ndim}")
    data = [[z.real, z.imag] for z in a.reshape(-1).tolist()]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    _json_object(obj, "matrix", ("rows", "cols", "data"))
    rows, cols = _json_value(obj["rows"], int, "rows"), _json_value(obj["cols"], int, "cols")
    if rows < 0 or cols < 0:
        raise ValueError(f"rows and cols must be nonnegative, got {rows} and {cols}")
    data = _json_value(obj["data"], list, "data")
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} != rows*cols = {rows * cols}")
    flat = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(data):
        if not (isinstance(pair, list) and len(pair) == 2 and all(_is_kind(x, float) for x in pair)):
            raise ValueError(f"entry {i} is not an [re, im] pair of numbers: {reprlib.repr(pair)}")
        if not (_is_finite(pair[0]) and _is_finite(pair[1])):
            raise ValueError(f"non-finite entry at index {i}")
        flat[i] = complex(float(pair[0]), float(pair[1]))
    return flat.reshape(rows, cols)


def tolerance_to_json(tol: Tolerance) -> dict:
    return {"abs": tol.abs, "rel": tol.rel, "rank_cutoff": tol.rank_cutoff}


def tolerance_from_json(obj: dict, default: Tolerance) -> Tolerance:
    """``default`` with the fields that ``obj`` gives replaced."""
    fields = tolerance_to_json(default)
    _json_object(obj, "tolerances", fields)
    for key, value in fields.items():
        fields[key] = _json_value(obj.get(key, value), float, f"tolerance {key}")
    return Tolerance(**fields)


def dump_json(obj, path: str) -> None:
    """Write canonical JSON: sorted keys, fixed layout, trailing newline.

    Identical inputs produce byte-identical files, which the campaign
    determinism contract relies on.
    """
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
