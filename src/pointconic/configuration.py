"""Realized planar configurations and 4-polytope scaffolding."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import TOL_INCIDENCE, Conic, GeometryError
from .incidence import (IncidenceStructure, _flag_rows, _sort_flags,
                        _with_flag_array)


@dataclass(frozen=True, eq=False)
class GeometricConfiguration:
    """Planar points and conics with their incidence flags.

    `flags` holds (point-index, conic-index) pairs; every flagged pair is
    supposed to satisfy the incidence predicate at `tol` (the audit in
    `analysis` checks this, builders are responsible for it). It may be
    given as any collection of pairs or as an (F, 2) integer array; the
    flags are range-checked in one array pass and shared, with their
    sorted array, by `to_incidence_structure()`.
    """

    points: np.ndarray
    conics: tuple
    flags: frozenset
    tol: float = TOL_INCIDENCE
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise GeometryError(f"tol must be positive and finite, "
                                f"got {self.tol!r}")
        pts = np.asarray(self.points, float).reshape(-1, 2).copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "conics", tuple(self.conics))
        for c in self.conics:
            if not isinstance(c, Conic):
                raise TypeError("conics must be Conic instances")
        F, bad = _flag_rows(self.flags, len(pts), len(self.conics))
        if bad is not None:
            raise GeometryError(f"flag {bad} out of range")
        incidence = _with_flag_array(len(pts), len(self.conics),
                                     _sort_flags(F))
        object.__setattr__(self, "flags", incidence.flags)
        object.__setattr__(self, "_incidence", incidence)

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def num_conics(self) -> int:
        return len(self.conics)

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
        n = len(V)
        for e in self.edges:
            if not all(0 <= i < n for i in e):
                raise IndexError(f"edge {e} out of range")
        for f in self.faces2:
            if not all(0 <= i < n for i in f):
                raise IndexError(f"face {f} out of range")

    def edge_midpoints(self) -> np.ndarray:
        V = self.vertices
        return np.array([(V[i] + V[j]) / 2 for (i, j) in self.edges])
