"""Canonical JSON interchange for incidence structures and configurations.

One file format with a "kind" discriminator: "combinatorial" files carry an
IncidenceStructure, "geometric" files a GeometricConfiguration. The writer
emits a canonical form (fixed field order, sorted flags, reals printed with
17 significant digits) so identical values always produce identical bytes
and doubles survive the round trip exactly.
"""
from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from .configuration import GeometricConfiguration
from .geometry import GeometryError, conic_from_normalized_coeffs
from .incidence import IncidenceStructure, new_incidence_structure


class InterfaceError(ValueError):
    """Raised on malformed files, schema violations, or bad documents."""


def _load_schema(name: str) -> dict:
    ref = resources.files(__package__) / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


_SCHEMAS = {kind: _load_schema(kind) for kind in ("combinatorial",
                                                  "geometric")}


# ---------------------------------------------------------------------------
# Canonical JSON emission
# ---------------------------------------------------------------------------

def _dump_value(v) -> str:
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
        return "[" + ", ".join(_dump_value(x) for x in v) + "]"
    if v is None:
        return "null"
    raise InterfaceError(f"unserializable value of type {type(v).__name__}")


def dumps_canonical(doc: dict) -> str:
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
               "flags": [list(f) for f in sorted(obj.flags)]}
        if name is not None:
            doc["name"] = name
        return doc
    if isinstance(obj, GeometricConfiguration):
        return {"kind": "geometric",
                "points": [[float(x), float(y)] for x, y in obj.points],
                "conics": [[float(c) for c in conic.coeffs()]
                           for conic in obj.conics],
                "flags": [list(f) for f in sorted(obj.flags)],
                "tol": float(obj.tol),
                "provenance": _plain(obj.provenance)}
    raise InterfaceError(f"cannot serialize a {type(obj).__name__}")


def from_document(doc: dict):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InterfaceError('document has no "kind" discriminator')
    kind = doc["kind"]
    schema = _SCHEMAS.get(kind)
    if schema is None:
        raise InterfaceError(f"unknown document kind {kind!r}")
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        raise InterfaceError(
            f"schema violation at {exc.json_path}: {exc.message}") from exc
    if kind == "combinatorial":
        return new_incidence_structure(
            doc["points"], doc["blocks"],
            [tuple(f) for f in doc["flags"]])
    try:
        conics = tuple(conic_from_normalized_coeffs(c)
                       for c in doc["conics"])
    except GeometryError as exc:
        raise InterfaceError(str(exc)) from exc
    points = np.array(doc["points"], float).reshape(-1, 2)
    return GeometricConfiguration(
        points, conics, frozenset(tuple(f) for f in doc["flags"]),
        tol=doc["tol"], provenance=doc.get("provenance", {}))


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
