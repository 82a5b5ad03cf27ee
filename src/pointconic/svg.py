"""Deterministic SVG rendering of geometric configurations.

Ellipses are emitted as native <ellipse> elements with parameters derived
analytically from the quadratic form; other conics fall back to sampled
polyline paths clipped to the viewport. All coordinates are printed with a
fixed decimal format, so equal inputs give byte-identical files.

A scene is rendered in stacked passes, not conic by conic. One parameter
pass (`geometry.ellipse_parameters_stack`) serves both the bounding box and
the <ellipse> elements. The branches of the other conics are sampled, cut
into runs and mapped to pixels as arrays, in chunks of `_CHUNK` conics.
Every array expression is the per-conic expression in the same order, so
the bytes are those of a conic-by-conic renderer (kept in the tests as the
oracle).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .configuration import GeometricConfiguration
from .geometry import ellipse_parameters_stack, forms_coeffs

DEFAULT_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                   "#17becf", "#8c564b", "#e377c2")

SAMPLES = 256
_SCAN = np.arange(SAMPLES + 1)
_CHUNK = 16     # conics per sampling pass: 66 kB per (C, 2, 257) array


@dataclass(frozen=True)
class SceneStyle:
    stroke_width: float = 1.5
    point_radius: float = 3.0
    palette: tuple = DEFAULT_PALETTE
    canvas: tuple = (800, 800)
    margin: float = 0.06
    point_color: str = "#111111"
    background: str = "#ffffff"

    def __post_init__(self):
        sizes = (self.stroke_width, self.point_radius, *self.canvas)
        if not all(0 < v < math.inf for v in sizes):
            raise ValueError("stroke width, point radius and canvas "
                             "dimensions must be finite and positive")
        if not 0 <= self.margin < 0.5:
            raise ValueError(f"margin must lie in [0, 0.5), got "
                             f"{self.margin!r}")
        if not self.palette:
            raise ValueError("palette must be nonempty")


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _world_bbox(points: np.ndarray, ellipses):
    """Bounding box of the points and of the ellipses, whose parameters
    `ellipses` are one `ellipse_parameters_stack` result."""
    boxes = []
    if len(points):
        xs, ys = points[:, 0], points[:, 1]
        boxes.append((xs.min(), ys.min(), xs.max(), ys.max()))
    centers, semi_a, semi_b, angles = ellipses
    for (cx, cy), a, b, ang in zip(centers.tolist(), semi_a.tolist(),
                                   semi_b.tolist(), angles):
        dx = math.hypot(a * math.cos(ang), b * math.sin(ang))
        dy = math.hypot(a * math.sin(ang), b * math.cos(ang))
        boxes.append((cx - dx, cy - dy, cx + dx, cy + dy))
    if not boxes:
        return (0.0, 0.0, 1.0, 1.0)
    x0 = min(b[0] for b in boxes)
    y0 = min(b[1] for b in boxes)
    x1 = max(b[2] for b in boxes)
    y1 = max(b[3] for b in boxes)
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5
    return (x0, y0, x1, y1)


class _Mapper:
    """World-to-pixel map: uniform scale, y flipped, centered with margin.
    Maps scalars or arrays, elementwise with the same arithmetic."""

    def __init__(self, bbox, canvas, margin):
        x0, y0, x1, y1 = bbox
        W, H = canvas
        usable_w = W * (1 - 2 * margin)
        usable_h = H * (1 - 2 * margin)
        self.scale = min(usable_w / (x1 - x0), usable_h / (y1 - y0))
        self.cx, self.cy = (x0 + x1) / 2, (y0 + y1) / 2
        self.px, self.py = W / 2, H / 2
        self.bbox = bbox

    def __call__(self, x, y):
        return (self.px + (x - self.cx) * self.scale,
                self.py - (y - self.cy) * self.scale)


def _scan(forms: np.ndarray, bbox):
    """Scan each non-ellipse form of a stack (C, 3, 3) along SAMPLES + 1
    vertical lines across the padded bbox, solving its quadratic in y (or
    the transpose when the y^2 coefficient vanishes).

    Returns the transposed flags (C,), the scan positions (C, SAMPLES + 1),
    the lines with real roots (C, SAMPLES + 1), and the smaller and the
    larger root with a mask of those inside the padded bbox (C, 2,
    SAMPLES + 1) each."""
    x0, y0, x1, y1 = bbox
    pad_x = 0.25 * (x1 - x0)
    pad_y = 0.25 * (y1 - y0)
    a, b, c, d, e, f = forms_coeffs(forms).T
    swap = np.abs(c) < 1e-12 * np.maximum(np.maximum(np.abs(a), np.abs(b)),
                                          1.0)
    a, c = np.where(swap, c, a), np.where(swap, a, c)
    d, e = np.where(swap, e, d), np.where(swap, d, e)
    lo = np.where(swap, y0 - pad_y, x0 - pad_x)[:, None]
    hi = np.where(swap, y1 + pad_y, x1 + pad_x)[:, None]
    y_lo = np.where(swap, x0 - pad_x, y0 - pad_y)[:, None, None]
    y_hi = np.where(swap, x1 + pad_x, y1 + pad_y)[:, None, None]
    a, b, c, d, e, f = (v[:, None] for v in (a, b, c, d, e, f))
    x = lo + (hi - lo) * _SCAN / SAMPLES
    qb, qc = b * x + e, a * x * x + d * x + f
    disc = qb * qb - 4 * c * qc
    # A conic whose quadratic loses its leading coefficient (b xy + d x +
    # e y + f, as xy = 1) has the one root -qc / qb, in the smaller slot.
    linear = np.abs(c) < 1e-300
    real = np.where(linear, qb != 0, ~(disc < 0))
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.sqrt(disc)
        u, v = (-qb - r) / (2 * c), (-qb + r) / (2 * c)
        root = -qc / qb
    y = np.stack([np.where(linear, root, np.minimum(u, v)),
                  np.where(linear, np.nan, np.maximum(u, v))], axis=1)
    inside = real[:, None] & (y_lo <= y) & (y <= y_hi)
    return swap, x, real, y, inside


def _branch_paths(forms: np.ndarray, to_px: _Mapper) -> list[list[str]]:
    """Path data ("M x y L ...") of each conic's sampled branches, for a
    stack of non-ellipse forms (C, 3, 3), clipped to the padded bbox.

    The smaller and the larger root of each scan line make two branches. A
    run of in-range roots closed by an out-of-range root is kept at any
    length; one closed by a line without real roots, or by the end of the
    scan, needs two points. Paths come in order of (closing sample, root
    slot).
    """
    swap, x, real, y, inside = _scan(forms, to_px.bbox)
    # Runs of `inside` along the scan: a run covers samples [start, end).
    edges = np.diff(np.pad(inside, ((0, 0), (0, 0), (1, 1))).astype(np.int8))
    conic, slot, start = np.nonzero(edges == 1)
    end = np.nonzero(edges == -1)[2]
    closed_out = (end <= SAMPLES) & real[conic, np.minimum(end, SAMPLES)]
    keep = closed_out | (end - start >= 2)
    conic, slot, start, end = (v[keep] for v in (conic, slot, start, end))
    order = np.lexsort((slot, end, conic))
    conic, slot, start, end = (v[order] for v in (conic, slot, start, end))
    # Pixels of every kept sample, runs end to end.
    length = end - start
    offsets = np.cumsum(length) - length
    k = np.repeat(start - offsets, length) + np.arange(length.sum())
    run_conic = np.repeat(conic, length)
    xk = x[run_conic, k]
    yk = y[run_conic, np.repeat(slot, length), k]
    flip = swap[run_conic]
    px, py = to_px(np.where(flip, yk, xk), np.where(flip, xk, yk))
    xy = np.stack([px, py], axis=1).ravel()
    paths = [[] for _ in range(len(forms))]
    for c, o, n in zip(conic.tolist(), offsets.tolist(), length.tolist()):
        paths[c].append(_path_data(xy[2 * o:2 * (o + n)].tolist()))
    return paths


def _path_data(xy: list) -> str:
    """"M x y L x y ..." of interleaved pixel coordinates, by one %-format:
    "%.3f" prints the digits of "{:.3f}", -0.000 included."""
    return ("M %.3f %.3f" + " L %.3f %.3f" * (len(xy) // 2 - 1)) % tuple(xy)


def render_svg(G: GeometricConfiguration, style: SceneStyle | None = None,
               path=None) -> str:
    """Render the configuration; returns the SVG text, writing it if asked."""
    style = style or SceneStyle()
    W, H = style.canvas
    is_ellipse = np.array([kind == "ellipse" for kind in G.kinds], bool)
    ellipses = ellipse_parameters_stack(G.forms[is_ellipse])
    to_px = _Mapper(_world_bbox(G.points, ellipses), style.canvas,
                    style.margin)
    attrs = [f'fill="none" stroke="{color}" '
             f'stroke-width="{_fmt(style.stroke_width)}"'
             for color in style.palette]
    centers, semi_a, semi_b, angles = ellipses
    cx, cy = to_px(centers[:, 0], centers[:, 1])
    # Both are consumed in conic order, one item per ellipse or per other
    # conic.
    shapes = (
        f'  <ellipse cx="{x:.3f}" cy="{y:.3f}" rx="{a * to_px.scale:.3f}" '
        f'ry="{b * to_px.scale:.3f}" '
        f'transform="rotate({-math.degrees(t):.3f} {x:.3f} {y:.3f})" '
        for x, y, a, b, t in zip(cx.tolist(), cy.tolist(), semi_a.tolist(),
                                 semi_b.tolist(), angles))
    sampled = np.flatnonzero(~is_ellipse)
    branches = (paths for s in range(0, len(sampled), _CHUNK)
                for paths in _branch_paths(G.forms[sampled[s:s + _CHUNK]],
                                           to_px))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'  <rect width="{W}" height="{H}" fill="{style.background}"/>',
    ]
    for i, ellipse in enumerate(is_ellipse.tolist()):
        attr = attrs[i % len(attrs)]
        if ellipse:
            lines.append(f"{next(shapes)}{attr}/>")
        else:
            lines.extend(f'  <path d="{d}" {attr}/>' for d in next(branches))
    px, py = to_px(G.points[:, 0], G.points[:, 1])
    dot = f'r="{_fmt(style.point_radius)}" fill="{style.point_color}"/>'
    lines.extend(f'  <circle cx="{x:.3f}" cy="{y:.3f}" {dot}'
                 for x, y in zip(px.tolist(), py.tolist()))
    lines.append("</svg>")
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text
