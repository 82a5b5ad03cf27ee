"""Canonical JSON interchange for incidence structures and configurations.

One file format with a "kind" discriminator: "combinatorial" files carry an
IncidenceStructure, "geometric" files a GeometricConfiguration. The writer
emits a canonical form (fixed field order, sorted flags, reals printed with
17 significant digits) so identical values always produce identical bytes
and doubles survive the round trip exactly.

The reader validates every document against its published schema in
`schemas/` with one structural pass that follows JSON Schema's rules
(`bool` is no number, an integral float is an integer) and names the JSON
path of the first violation. It also rejects non-finite reals, which the
schemas allow. Validated integers come back as `int`, points, conics and
flags as one array each: the conic forms are checked in one stacked pass
and handed to the configuration as a stack, and a flag list of plain
non-negative ints is checked in one array pass. Nothing is classified on
the way in: a configuration derives its conics' kinds on first use.
"""
from __future__ import annotations

import itertools
import json
import math
import numbers
from importlib import resources
from pathlib import Path

import numpy as np

from .configuration import GeometricConfiguration
from .geometry import (GeometryError, conics_from_normalized_coeffs,
                       forms_coeffs)
from .incidence import (IncidenceStructure, _int64_rows,
                        new_incidence_structure)


class InterfaceError(ValueError):
    """Raised on malformed files, schema violations, or bad documents."""


def _load_schema(name: str) -> dict:
    ref = resources.files(__package__) / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


# The reader takes each kind's required and allowed keys from here.
_SCHEMAS = {kind: _load_schema(kind) for kind in ("combinatorial",
                                                  "geometric")}


# ---------------------------------------------------------------------------
# Canonical JSON emission
# ---------------------------------------------------------------------------

# The one %-format of a row's cells, by the one type all cells share.
_ROW_SPECS = {frozenset({int}): "%d", frozenset({float}): "%.17g"}


def _dump_value(v) -> str:
    """Canonical JSON text of `v`. A nonempty list of equal-width, nonempty
    rows (lists) of only floats or only ints (points, conics, flags) is
    printed by one %-format, after one finiteness check for floats; other
    lists and tuples recurse."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if v != v or v in (float("inf"), float("-inf")):
            raise InterfaceError("non-finite real in document")
        return format(v, ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        items = (f"{json.dumps(str(k))}: {_dump_value(val)}"
                 for k, val in v.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(v, (list, tuple)) or isinstance(v, np.ndarray):
        rows = type(v) is list and set(map(type, v)) == {list}
        widths = set(map(len, v)) if rows else {0}
        if len(widths) == 1 and 0 not in widths:
            flat = tuple(itertools.chain.from_iterable(v))
            spec = _ROW_SPECS.get(frozenset(map(type, flat)))
            if spec == "%.17g" and not np.isfinite(flat).all():
                raise InterfaceError("non-finite real in document")
            if spec:
                row = "[" + ", ".join([spec] * widths.pop()) + "]"
                return ("[" + ", ".join([row] * len(v)) + "]") % flat
        return "[" + ", ".join(_dump_value(x) for x in v) + "]"
    if v is None:
        return "null"
    raise InterfaceError(f"unserializable value of type {type(v).__name__}")


def dumps_canonical(doc: dict) -> str:
    """The canonical text of a document: `_dump_value`, newline-ended."""
    return _dump_value(doc) + "\n"


def _plain(v):
    """Recursively convert provenance data to JSON-friendly values."""
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return [_plain(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def to_document(obj, name: str | None = None) -> dict:
    if isinstance(obj, IncidenceStructure):
        doc = {"kind": "combinatorial",
               "points": obj.num_points,
               "blocks": obj.num_blocks,
               "flags": obj.flag_array.tolist()}
        if name is not None:
            doc["name"] = name
        return doc
    if isinstance(obj, GeometricConfiguration):
        return {"kind": "geometric",
                "points": obj.points.tolist(),
                "conics": forms_coeffs(obj.forms).tolist(),
                "flags": obj.to_incidence_structure().flag_array.tolist(),
                "tol": float(obj.tol),
                "provenance": _plain(obj.provenance)}
    raise InterfaceError(f"cannot serialize a {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Structural validation against the published schemas
# ---------------------------------------------------------------------------

def _violation(path: str, msg: str) -> InterfaceError:
    return InterfaceError(f"schema violation at {path}: {msg}")


def _is_number(v) -> bool:
    return type(v) is float or type(v) is int or (
        isinstance(v, numbers.Real) and not isinstance(v, bool))


def _index(v):
    """`v` as an int if it is a JSON Schema integer >= 0, else None. A bool
    is no integer; an integral float such as 1.0 is one."""
    if isinstance(v, bool):
        return None
    if isinstance(v, int) or (isinstance(v, float) and v.is_integer()):
        return int(v) if v >= 0 else None
    return None


def _is_finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:       # an int beyond the range of a double
        return False


def _bad_row(row, path: str, width: int, ok, what: str) -> InterfaceError:
    if not isinstance(row, list):
        return _violation(path, f"{row!r} is not an array")
    if len(row) != width:
        return _violation(path, f"has {len(row)} items, expected {width}")
    j = next(j for j, v in enumerate(row) if not ok(v))
    return _violation(f"{path}[{j}]", f"{row[j]!r} is not {what}")


def _array(doc: dict, key: str) -> list:
    rows = doc[key]
    if not isinstance(rows, list):
        raise _violation(f"$.{key}", f"{rows!r} is not an array")
    return rows


def _reals(doc: dict, key: str, width: int) -> np.ndarray:
    """The rows of `doc[key]`, each `width` numbers, as one finite array."""
    rows = _array(doc, key)
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}
            and set(map(type, itertools.chain.from_iterable(rows)))
            <= {float, int}):
        for i, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == width
                    and all(map(_is_number, row))):
                raise _bad_row(row, f"$.{key}[{i}]", width, _is_number,
                               "a number")
    try:
        arr = np.asarray(rows, dtype=float).reshape(-1, width)
        finite = bool(np.isfinite(arr).all())
    except OverflowError:
        finite = False
    if not finite:
        i, j = next((i, j) for i, row in enumerate(rows)
                    for j, v in enumerate(row) if not _is_finite(v))
        raise InterfaceError(f"non-finite real at $.{key}[{i}][{j}]")
    return arr


def _flags(doc: dict):
    """The flags of `doc`: an (F, 2) int64 array when every row is a list
    of two ints >= 0 within int64, else a list of int pairs from a check of
    each row, which names the first violation."""
    rows = _array(doc, "flags")
    if set(map(type, rows)) <= {list}:
        F = _int64_rows(rows)
        if F is not None and not (F < 0).any():
            return F
    flags = []
    for i, row in enumerate(rows):
        if isinstance(row, list) and len(row) == 2:
            p, b = row
            if type(p) is not int or type(b) is not int or p < 0 or b < 0:
                p, b = _index(p), _index(b)
            if p is not None and b is not None:
                flags.append((p, b))
                continue
        raise _bad_row(row, f"$.flags[{i}]", 2,
                       lambda v: _index(v) is not None,
                       "an integer >= 0")
    return flags


def _count(doc: dict, key: str) -> int:
    n = _index(doc[key])
    if n is None:
        raise _violation(f"$.{key}", f"{doc[key]!r} is not an integer >= 0")
    return n


def _check_keys(doc: dict, schema: dict) -> None:
    for key in schema["required"]:
        if key not in doc:
            raise _violation("$", f"{key!r} is a required property")
    for key in doc:
        if key not in schema["properties"]:
            raise _violation("$", f"additional property {key!r} is not "
                                  f"allowed")


def from_document(doc: dict):
    """The configuration a document describes; the document is only read.

    Raises `InterfaceError` at the first schema violation or non-finite
    real."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InterfaceError('document has no "kind" discriminator')
    kind = doc["kind"]
    schema = _SCHEMAS.get(kind) if isinstance(kind, str) else None
    if schema is None:
        raise InterfaceError(f"unknown document kind {kind!r}")
    _check_keys(doc, schema)
    if kind == "combinatorial":
        points, blocks = _count(doc, "points"), _count(doc, "blocks")
        flags = _flags(doc)
        if not isinstance(doc.get("name", ""), str):
            raise _violation("$.name", f"{doc['name']!r} is not a string")
        return new_incidence_structure(points, blocks, flags)
    points = _reals(doc, "points", 2)
    coeffs = _reals(doc, "conics", 6)
    flags = _flags(doc)
    tol = doc["tol"]
    if not _is_number(tol):
        raise _violation("$.tol", f"{tol!r} is not a number")
    if not _is_finite(tol):
        raise InterfaceError("non-finite real at $.tol")
    if not tol > 0:
        raise _violation("$.tol", f"{tol!r} is not > 0")
    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise _violation("$.provenance", f"{provenance!r} is not an object")
    try:
        forms = conics_from_normalized_coeffs(coeffs)
    except GeometryError as exc:
        raise InterfaceError(str(exc)) from exc
    return GeometricConfiguration._of(points, forms, flags,
                                      tol=float(tol), provenance=provenance)


def write_configuration(obj, path, name: str | None = None) -> None:
    """Write the canonical document; the reader validates it against the
    schema, the value types guarantee it on this side."""
    Path(path).write_text(dumps_canonical(to_document(obj, name=name)))


def read_configuration(path):
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InterfaceError(f"malformed JSON in {path}: {exc}") from exc
    return from_document(doc)
