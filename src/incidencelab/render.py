"""SVG rendering of planar configurations.

Draws a 2D line configuration (or a dual point configuration) in a
figure style: colored lines clipped to a frame, incidence points as
filled dots, and incidence points at infinity indicated by arrowheads on
the frame boundary pointing along their direction.  Everything is drawn
from integer rows: the lines' covectors, each group's witness (the rule of
``IncidenceStructure.witness``, a slab of groups at once) and the points,
converted to floats only here; nothing feeds back into predicates.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .configs import ColoredLineConfig, DualPointConfig
from .exactgeom import cross_rows
from .structure import IncidenceStructure, extract_alignments, extract_structure_lines

PALETTE = [
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3",
    "#ff7f00", "#a65628", "#f781bf", "#999999",
]

_SIZE = 640.0
_MARGIN = 0.15
SLAB = 1 << 14  # groups whose witnesses are crossed at once


def _xy(slabs: Iterable[np.ndarray]) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """(x / w, y / w) of the finite rows (x, y, w) of some arrays and (x, y) of the
    others, as floats in row order (int true division rounds correctly)."""
    finite, infinite = [], []
    for rows in slabs:
        for x, y, w in rows.tolist():
            finite.append((x / w, y / w)) if w else infinite.append((float(x), float(y)))
    return finite, infinite


def _witnesses(s: IncidenceStructure, rows: np.ndarray) -> Iterator[np.ndarray]:
    """Each group's witness, as ``s.witness`` gives it: the canonical cross
    product of the rows of its first two lines (covectors or points), in
    slabs of ``SLAB`` groups, which bound the Python ints of large rows."""
    first = np.array(s.bounds[:-1], np.int64)
    for at in range(0, len(first), SLAB):
        lo = first[at : at + SLAB]
        yield cross_rows(rows[s.line[lo]], rows[s.line[lo + 1]])


def _colors(sizes) -> list[str]:
    """The color of each line (or point), class by class."""
    return [PALETTE[c % len(PALETTE)] for c, size in enumerate(sizes) for _ in range(size)]


def _frame(points: list[tuple[float, float]]) -> tuple[float, float, float, float]:
    if not points:
        return -1.0, -1.0, 1.0, 1.0
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    side = max(x1 - x0, y1 - y0, 1.0)
    pad = side * _MARGIN + 0.2
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

    def size(self) -> tuple[float, float]:
        return (self.x1 - self.x0) * self.scale, (self.y1 - self.y0) * self.scale

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

    def dot(self, p, fill: str = "#000000", r: float = 4.0) -> None:
        x, y = self.to_screen(*p)
        self.parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="{fill}"/>')

    def arrowhead(self, direction: tuple[float, float]) -> None:
        # place at the frame border along `direction` from the frame center
        import math

        cx, cy = (self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2
        dx, dy = direction
        norm = math.hypot(dx, dy)
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
        w, h = self.size()
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
            f'viewBox="0 0 {w:.2f} {h:.2f}">'
        )
        bg = f'<rect width="{w:.2f}" height="{h:.2f}" fill="#ffffff"/>'
        return "\n".join([head, bg, *self.parts, "</svg>"])


def render_line_config(cfg: ColoredLineConfig) -> str:
    if cfg.d != 2:
        raise ValueError("rendering needs a planar configuration; project to d=2 first")
    cov = cross_rows(cfg.ends[:, 0], cfg.ends[:, 1])
    finite_pts, infinite_dirs = _xy(_witnesses(extract_structure_lines(cfg), cov))
    canvas = _Canvas(_frame(finite_pts + _xy([cfg.ends.reshape(-1, 3)])[0]))
    for covector, color in zip(cov.tolist(), _colors(cfg.sizes)):
        canvas.line(covector, color)
    for pt in finite_pts:
        canvas.dot(pt)
    for direction in infinite_dirs:
        canvas.arrowhead(direction)
    return canvas.render()


def render_dual_config(cfg: DualPointConfig) -> str:
    finite, infinite = _xy([cfg.coords])
    colors = [c for c, w in zip(_colors(cfg.sizes), cfg.coords[:, 2].tolist()) if w]
    canvas = _Canvas(_frame(finite))
    for covectors in _witnesses(extract_alignments(cfg), cfg.coords):
        for covector in covectors.tolist():
            canvas.line(covector, "#dddddd")
    for xy, color in zip(finite, colors):
        canvas.dot(xy, fill=color, r=5.0)
    for direction in infinite:
        canvas.arrowhead(direction)
    return canvas.render()


def render_svg(cfg) -> str:
    if isinstance(cfg, ColoredLineConfig):
        return render_line_config(cfg)
    if isinstance(cfg, DualPointConfig):
        return render_dual_config(cfg)
    raise TypeError("SVG rendering needs a planar line or dual point configuration")
