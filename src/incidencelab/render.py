"""SVG rendering of planar configurations.

Draws a 2D line configuration (or a dual point configuration) in a
figure style: colored lines clipped to a frame, incidence points as
filled dots, and points at infinity as arrowheads on the frame boundary
along their direction.  ``render_svg`` gathers each model's covectors,
points and colors and draws them through one path, from integer rows:
witnesses are met ``SLAB`` groups at a time, which bounds the meet
kernel's arrays.  A finite row (x, y, w) is drawn at (x / w, y / w),
divided as Python ints (an object view of the rows), so each float is
correctly rounded at any size; nothing feeds back into predicates.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import hypot
from typing import Iterable, Iterator

import numpy as np

from .configs import ColoredLineConfig, DualPointConfig
from .structure import IncidenceStructure, extract_alignments, extract_structure_lines

PALETTE = [
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3",
    "#ff7f00", "#a65628", "#f781bf", "#999999",
]

_SIZE = 640.0
_MARGIN = 0.15
SLAB = 1 << 14  # groups whose witnesses are met, or dots written, at once


def _xy(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x / w, y / w) of the finite rows (x, y, w) of an integer array and (x, y) of
    the others, as two (F, 2) and (I, 2) float arrays in row order; the division of
    Python ints (``astype(object)``) rounds correctly, whatever the rows' size."""
    rows = rows.reshape(-1, 3).astype(object)
    finite = rows[:, 2] != 0
    return (rows[finite, :2] / rows[finite, 2:]).astype(float), rows[~finite, :2].astype(float)


def _witness_slabs(s: IncidenceStructure) -> Iterator[np.ndarray]:
    """Every group's witness in slabs of ``SLAB`` groups (one empty slab if there is none)."""
    groups = np.arange(len(s.firsts))
    for at in range(0, max(len(groups), 1), SLAB):
        yield s.witnesses(groups[at : at + SLAB])


def _colors(sizes) -> list[str]:
    """The color of each line (or point), class by class."""
    return [PALETTE[c % len(PALETTE)] for c, size in enumerate(sizes) for _ in range(size)]


def _frame(xy: np.ndarray) -> tuple[float, float, float, float]:
    if not len(xy):
        return -1.0, -1.0, 1.0, 1.0
    (x0, y0), (x1, y1) = xy.min(axis=0).tolist(), xy.max(axis=0).tolist()
    pad = max(x1 - x0, y1 - y0, 1.0) * _MARGIN + 0.2
    return x0 - pad, y0 - pad, x1 + pad, y1 + pad


def _clip_line(cov, frame) -> tuple[tuple[float, float], tuple[float, float]] | None:
    a, b, c = (float(v) for v in cov)
    x0, y0, x1, y1 = frame
    eps = 1e-9
    hits = []
    if abs(b) > eps:
        for x in (x0, x1):
            y = -(a * x + c) / b
            if y0 - eps <= y <= y1 + eps:
                hits.append((x, y))
    if abs(a) > eps:
        for y in (y0, y1):
            x = -(b * y + c) / a
            if x0 - eps <= x <= x1 + eps:
                hits.append((x, y))
    uniq: list[tuple[float, float]] = []
    for h in hits:
        if all(abs(h[0] - u[0]) + abs(h[1] - u[1]) > 1e-7 for u in uniq):
            uniq.append(h)
    if len(uniq) < 2:
        return None
    uniq.sort()
    return uniq[0], uniq[-1]


class _Canvas:
    def __init__(self, frame):
        self.x0, self.y0, self.x1, self.y1 = frame
        self.scale = _SIZE / max(self.x1 - self.x0, self.y1 - self.y0)
        self.parts: list[str] = []

    def to_screen(self, x: float, y: float) -> tuple[float, float]:
        return (x - self.x0) * self.scale, (self.y1 - y) * self.scale

    def line(self, covector, color: str) -> None:
        """The line of a covector (a, b, c), where it crosses the frame."""
        seg = _clip_line(covector, (self.x0, self.y0, self.x1, self.y1))
        if seg is None:
            return
        (x1, y1), (x2, y2) = (self.to_screen(*p) for p in seg)
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )

    def dots(self, xy: np.ndarray, fills: Iterable[str], r: float) -> None:
        """Filled circles at (F, 2) points, through one row template, ``SLAB`` at a time."""
        xy = np.stack(((xy[:, 0] - self.x0) * self.scale, (self.y1 - xy[:, 1]) * self.scale), 1)
        row, fills = f'<circle cx="%.2f" cy="%.2f" r="{r}" fill="%s"/>', iter(fills)
        for at in range(0, len(xy), SLAB):
            block = xy[at : at + SLAB].tolist()
            values = chain.from_iterable((x, y, fill) for (x, y), fill in zip(block, fills))
            self.parts.append("\n".join([row] * len(block)) % tuple(values))

    def arrowhead(self, direction: tuple[float, float]) -> None:
        # place at the frame border along `direction` from the frame center
        cx, cy = (self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2
        dx, dy = direction
        norm = hypot(dx, dy)
        if norm == 0:
            return
        dx, dy = dx / norm, dy / norm
        half_w, half_h = (self.x1 - self.x0) / 2, (self.y1 - self.y0) / 2
        tx = half_w / abs(dx) if dx else float("inf")
        ty = half_h / abs(dy) if dy else float("inf")
        t = min(tx, ty) * 0.98
        bx, by = self.to_screen(cx + dx * t, cy + dy * t)
        sx, sy = dx, -dy  # screen-space direction (y flips)
        px, py = -sy, sx
        size = 9.0
        pts = [
            (bx + sx * size, by + sy * size),
            (bx - sx * size + px * size * 0.7, by - sy * size + py * size * 0.7),
            (bx - sx * size - px * size * 0.7, by - sy * size - py * size * 0.7),
        ]
        joined = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        self.parts.append(f'<polygon points="{joined}" fill="#333333"/>')

    def render(self) -> str:
        w, h = (self.x1 - self.x0) * self.scale, (self.y1 - self.y0) * self.scale
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
            f'viewBox="0 0 {w:.2f} {h:.2f}">'
        )
        bg = f'<rect width="{w:.2f}" height="{h:.2f}" fill="#ffffff"/>'
        return "\n".join([head, bg, *self.parts, "</svg>"])


def render_svg(cfg) -> str:
    """A planar line file's lines with its incidence points as black dots, or a dual
    point file's points as colored dots with its alignments as gray lines."""
    if isinstance(cfg, ColoredLineConfig):
        if cfg.d != 2:
            raise ValueError("rendering needs a planar configuration; project to d=2 first")
        s = extract_structure_lines(cfg)
        covectors, strokes, points = s.rows.tolist(), _colors(cfg.sizes), _witness_slabs(s)
        fills, r, framed = repeat("#000000"), 4.0, _xy(cfg.ends)[0]
        del s  # the slabs hold the record until they are met; drawing needs none of it
    elif isinstance(cfg, DualPointConfig):
        covectors = chain.from_iterable(c.tolist() for c in _witness_slabs(extract_alignments(cfg)))
        strokes, points, r, framed = repeat("#dddddd"), [cfg.coords], 5.0, np.empty((0, 2))
        fills = [c for c, w in zip(_colors(cfg.sizes), cfg.coords[:, 2].tolist()) if w]
    else:
        raise TypeError("SVG rendering needs a planar line or dual point configuration")
    finite, infinite = map(np.concatenate, zip(*map(_xy, points)))
    canvas = _Canvas(_frame(np.vstack((finite, framed))))
    for covector, color in zip(covectors, strokes):
        canvas.line(covector, color)
    canvas.dots(finite, fills, r)
    for direction in infinite.tolist():
        canvas.arrowhead(direction)
    return canvas.render()
