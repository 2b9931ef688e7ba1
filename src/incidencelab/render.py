"""SVG rendering of planar configurations.

Draws a 2D line configuration (or a dual point configuration) in a
figure style: colored lines clipped to a frame, incidence points as
filled dots, and incidence points at infinity indicated by arrowheads on
the frame boundary pointing along their direction.  Rendering converts
exact rationals to floats; nothing here feeds back into predicates.
"""

from __future__ import annotations

from .configs import ColoredLineConfig, DualPointConfig
from .exactgeom import covector_2d
from .structure import extract_alignments, extract_structure_lines

PALETTE = [
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3",
    "#ff7f00", "#a65628", "#f781bf", "#999999",
]

_SIZE = 640.0
_MARGIN = 0.15


def _color(i: int) -> str:
    return PALETTE[(i - 1) % len(PALETTE)]


def _finite_xy(p) -> tuple[float, float]:
    x, y, w = p.coords
    return x / w, y / w  # int true division rounds correctly


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

    def line(self, p, q, color: str) -> None:
        (x1, y1), (x2, y2) = self.to_screen(*p), self.to_screen(*q)
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
    s = extract_structure_lines(cfg)
    finite_pts = []
    infinite_dirs = []
    for w in map(s.witness, range(s.num_groups)):
        if w.is_infinite:
            infinite_dirs.append((float(w.coords[0]), float(w.coords[1])))
        else:
            finite_pts.append(_finite_xy(w))
    anchor_pts = list(finite_pts)
    for _, _, line in cfg.lines():
        for p in (line.p, line.q):
            if not p.is_infinite:
                anchor_pts.append(_finite_xy(p))
    canvas = _Canvas(_frame(anchor_pts))
    frame = (canvas.x0, canvas.y0, canvas.x1, canvas.y1)
    for color, _, line in cfg.lines():
        seg = _clip_line(covector_2d(line.p.coords, line.q.coords), frame)
        if seg is not None:
            canvas.line(seg[0], seg[1], _color(color))
    for pt in finite_pts:
        canvas.dot(pt)
    for direction in infinite_dirs:
        canvas.arrowhead(direction)
    return canvas.render()


def render_dual_config(cfg: DualPointConfig) -> str:
    s = extract_alignments(cfg)
    finite = [
        (_finite_xy(p), color)
        for color, _, p in cfg.points()
        if not p.is_infinite
    ]
    canvas = _Canvas(_frame([xy for xy, _ in finite]))
    frame = (canvas.x0, canvas.y0, canvas.x1, canvas.y1)
    for covector in map(s.witness, range(s.num_groups)):
        seg = _clip_line(covector, frame)
        if seg is not None:
            canvas.line(seg[0], seg[1], "#dddddd")
    for xy, color in finite:
        canvas.dot(xy, fill=_color(color), r=5.0)
    for color, _, p in cfg.points():
        if p.is_infinite:
            canvas.arrowhead((float(p.coords[0]), float(p.coords[1])))
    return canvas.render()


def render_svg(cfg) -> str:
    if isinstance(cfg, ColoredLineConfig):
        return render_line_config(cfg)
    if isinstance(cfg, DualPointConfig):
        return render_dual_config(cfg)
    raise TypeError("SVG rendering needs a planar line or dual point configuration")
