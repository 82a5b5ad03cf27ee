"""Realized planar configurations and 4-polytope scaffolding.

A configuration is stored as arrays: its points, its conic forms and the
sorted flag array of its incidence structure. The kinds of its conics, its
`Conic`s and its flag frozenset are derived from them on first use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (TOL_INCIDENCE, Conic, GeometryError, _classify_forms,
                       _conic_of)
from .incidence import IncidenceStructure, _flag_rows


@dataclass(frozen=True, eq=False, init=False)
class GeometricConfiguration:
    """Planar points and conics with their incidence flags.

    Stored: `points` (N, 2), `forms` (B, 3, 3), the read-only stack of the
    unit-norm conic forms, the incidence structure of the flags
    (`to_incidence_structure()`), `tol` and `provenance`. `kinds`, `conics`
    (views of `forms`) and `flags` ((point, conic) pairs) are derived on
    first use. The constructor stacks the forms of `Conic`s; readers and
    builders hand stacks to `_of`. Flags are any collection of pairs or an
    (F, 2) integer array.
    Every flagged pair is supposed to satisfy the incidence predicate at
    `tol` (the audit in `analysis` checks this, builders ensure it).
    """

    points: np.ndarray
    forms: np.ndarray
    tol: float
    provenance: dict

    def __init__(self, points, conics, flags, tol: float = TOL_INCIDENCE,
                 provenance: dict | None = None):
        conics = tuple(conics)
        if not all(isinstance(c, Conic) for c in conics):
            raise TypeError("conics must be Conic instances")
        self._set(points, np.array([conic.form for conic in conics]), flags,
                  tol, provenance)

    @classmethod
    def _of(cls, points, forms, flags, tol: float = TOL_INCIDENCE,
            provenance: dict | None = None) -> GeometricConfiguration:
        """The configuration of normalized forms (B, 3, 3), without a
        `Conic` per form."""
        G = object.__new__(cls)
        G._set(points, forms, flags, tol, provenance)
        return G

    def _set(self, points, forms, flags, tol, provenance):
        """Check `tol` and (in one array pass) the flags' range; store."""
        if not (math.isfinite(tol) and tol > 0):
            raise GeometryError(f"tol must be positive and finite, "
                                f"got {tol!r}")
        pts = np.asarray(points, float).reshape(-1, 2).copy()
        pts.setflags(write=False)
        forms = np.asarray(forms, float).reshape(-1, 3, 3)
        forms.setflags(write=False)
        F, bad = _flag_rows(flags, len(pts), len(forms))
        if bad is not None:
            raise GeometryError(f"flag {bad} out of range")
        vars(self).update(
            points=pts, forms=forms, tol=tol,
            provenance={} if provenance is None else provenance,
            _incidence=IncidenceStructure._of(len(pts), len(forms), F))

    @cached_property
    def kinds(self) -> tuple[str, ...]:
        return tuple(_classify_forms(self.forms))

    @cached_property
    def conics(self) -> tuple[Conic, ...]:
        return tuple(map(_conic_of, self.forms, self.kinds))

    @property
    def flags(self) -> frozenset:
        return self._incidence.flags

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def num_conics(self) -> int:
        return len(self.forms)

    def points_of_conic(self, b: int) -> frozenset:
        return self._incidence.points_of_block(b)

    def conics_of_point(self, p: int) -> frozenset:
        return self._incidence.blocks_of_point(p)

    def to_incidence_structure(self) -> IncidenceStructure:
        """The flags as one shared, indexed incidence structure."""
        return self._incidence


@dataclass(frozen=True, eq=False)
class Polytope4:
    """Vertex/edge/2-face data of a 4-polytope (only what the builders use)."""

    vertices: np.ndarray
    edges: tuple
    faces2: tuple = ()
    facets: tuple = ()

    def __post_init__(self):
        V = np.asarray(self.vertices, float).reshape(-1, 4).copy()
        V.setflags(write=False)
        object.__setattr__(self, "vertices", V)
        object.__setattr__(self, "edges",
                           tuple(tuple(e) for e in self.edges))
        object.__setattr__(self, "faces2",
                           tuple(tuple(f) for f in self.faces2))
        object.__setattr__(self, "facets",
                           tuple(tuple(f) for f in self.facets))
        for what, items in (("edge", self.edges), ("face", self.faces2)):
            flat = np.array([i for t in items for i in t], float)
            out = ~((flat >= 0) & (flat < len(V)))
            if out.any():
                ends = np.cumsum([len(t) for t in items])
                k = int(np.searchsorted(ends, out.argmax(), side="right"))
                raise IndexError(f"{what} {items[k]} out of range")

    def edge_midpoints(self) -> np.ndarray:
        i, j = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T
        return (self.vertices[i] + self.vertices[j]) / 2
