"""Colored configurations of rational lines and of dual planar points.

``ColoredLineConfig`` is the continuous counterpart of the grid model:
classes of pairwise-distinct projective lines in R^d, with an optional
concurrency center recorded per class.  ``DualPointConfig`` holds the
planar point sets produced by duality.  Both serialize to JSON with
rationals as "num/den" strings and a "model" discriminator so pipeline
commands can dispatch on file content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import gridmodel
from .exactgeom import Line, ProjPoint, meet


@dataclass(frozen=True)
class ColoredLineConfig:
    """Colored, pairwise-distinct lines in projective R^d.

    Class and line order is caller-defined and preserved verbatim:
    transforms map lines in order, so ``(color, index)`` references stay
    stable along a pipeline.  Generators emit deterministic orders.
    """

    d: int
    classes: tuple[tuple[Line, ...], ...]
    centers: tuple[ProjPoint | None, ...]

    def __init__(
        self,
        d: int,
        classes: Sequence[Sequence[Line]],
        centers: Sequence[ProjPoint | None] | None = None,
    ):
        if d < 2:
            raise ValueError("line configurations need ambient dimension d >= 2")
        canon = tuple(tuple(cls) for cls in classes)
        seen: set[tuple] = set()
        for cls in canon:
            for line in cls:
                if line.ambient_dim != d:
                    raise ValueError("line ambient dimension does not match d")
                if line.key in seen:
                    raise ValueError("duplicate line in configuration")
                seen.add(line.key)
        if centers is None:
            centers = (None,) * len(canon)
        if len(centers) != len(canon):
            raise ValueError("one center entry per class required")
        if any(c is not None and c.ambient_dim != d for c in centers):
            raise ValueError("center ambient dimension does not match d")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "classes", canon)
        object.__setattr__(self, "centers", tuple(centers))

    @property
    def num_colors(self) -> int:
        return len(self.classes)

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(cls) for cls in self.classes)

    def total_lines(self) -> int:
        return sum(self.class_sizes())

    def lines(self) -> Iterator[tuple[int, int, Line]]:
        for color, cls in enumerate(self.classes, start=1):
            for idx, line in enumerate(cls):
                yield color, idx, line


@dataclass(frozen=True)
class DualPointConfig:
    """Colored, pairwise-distinct points in the projective plane.

    Point order is preserved verbatim so duality round trips keep
    ``(color, index)`` references stable.
    """

    classes: tuple[tuple[ProjPoint, ...], ...]

    def __init__(self, classes: Sequence[Sequence[ProjPoint]]):
        canon = tuple(tuple(cls) for cls in classes)
        seen: set[tuple[int, ...]] = set()
        for cls in canon:
            for p in cls:
                if p.ambient_dim != 2:
                    raise ValueError("dual points live in the projective plane")
                if p.coords in seen:
                    raise ValueError("duplicate point in dual configuration")
                seen.add(p.coords)
        object.__setattr__(self, "classes", canon)

    @property
    def num_colors(self) -> int:
        return len(self.classes)

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(cls) for cls in self.classes)

    def points(self) -> Iterator[tuple[int, int, ProjPoint]]:
        for color, cls in enumerate(self.classes, start=1):
            for idx, p in enumerate(cls):
                yield color, idx, p


def concurrency_center(lines: Sequence[Line]) -> ProjPoint | None:
    """Common point of a class of >= 2 lines, or None if not concurrent."""
    center = meet(lines[0], lines[1]) if len(lines) >= 2 else None
    if center is not None and all(ln.contains(center) for ln in lines[2:]):
        return center
    return None


def with_computed_centers(cfg: ColoredLineConfig) -> ColoredLineConfig:
    centers = [concurrency_center(cls) for cls in cfg.classes]
    return ColoredLineConfig(cfg.d, cfg.classes, centers)


def _grid_lines(k: int, n: int, ids: np.ndarray) -> list[Line]:
    """The lines of a grid id array as exact rational lines in R^(k+1)."""
    axes, digits = (ids // n**k).tolist(), (gridmodel._digits(ids % n**k, n, k) + 1).tolist()
    units = np.eye(k + 1, dtype=np.int64).tolist()
    return [Line.affine_with_direction([*d[:a], 1, *d[a:]], units[a]) for a, d in zip(axes, digits)]


def embed_grid_config(cfg: gridmodel.ColoredGridConfig) -> ColoredLineConfig:
    """The grid configuration as rational lines in R^(k+1), parallel per axis:
    a class of two or more lines on one axis (ids sort by axis first) is
    concurrent at their direction."""
    span = cfg.n**cfg.k
    classes = [_grid_lines(cfg.k, cfg.n, c) for c in cfg.ids]
    centers = [
        lines[0].q if len(c) >= 2 and c[0] // span == c[-1] // span else None
        for lines, c in zip(classes, cfg.ids)
    ]
    return ColoredLineConfig(cfg.k + 1, classes, centers)


def lines_to_json(cfg: ColoredLineConfig) -> dict:
    classes = []
    for color, cls in enumerate(cfg.classes, start=1):
        entry: dict = {
            "color": color,
            "lines": [{"p": ln.p.to_strings(), "q": ln.q.to_strings()} for ln in cls],
        }
        center = cfg.centers[color - 1]
        if center is not None:
            entry["center"] = center.to_strings()
        classes.append(entry)
    return {"model": "lines", "d": cfg.d, "classes": classes}


def _class_entries(data: dict, member: str) -> list:
    """The classes of a line or point file, a JSON list; entry i must have
    color i + 1 and a JSON list as its ``member``."""
    if not isinstance(data["classes"], list):
        raise ValueError(f"classes must be a list, not {type(data['classes']).__name__}")
    for pos, entry in enumerate(data["classes"]):
        if type(entry["color"]) is not int or entry["color"] != pos + 1:
            raise ValueError(f"classes[{pos}] has color {entry['color']!r}, not the int {pos + 1}")
        if not isinstance(entry[member], list):
            kind = type(entry[member]).__name__
            raise ValueError(f"classes[{pos}] has {member} of type {kind}, not a list")
    return data["classes"]


def lines_from_json(data: dict) -> ColoredLineConfig:
    """The configuration of a lines file; ``d`` must be a JSON int and the
    colors 1, 2, ... in class order, else ValueError."""
    if data.get("model") != "lines":
        raise ValueError("not a line configuration")
    if type(data["d"]) is not int:
        raise ValueError(f"a line configuration needs an integer d, not {data['d']!r}")
    classes = []
    centers = []
    for entry in _class_entries(data, "lines"):
        classes.append(
            [
                Line(ProjPoint.from_strings(ln["p"]), ProjPoint.from_strings(ln["q"]))
                for ln in entry["lines"]
            ]
        )
        center = entry.get("center")
        centers.append(ProjPoint.from_strings(center) if center else None)
    return ColoredLineConfig(data["d"], classes, centers)


def dual_to_json(cfg: DualPointConfig) -> dict:
    return {
        "model": "points",
        "classes": [
            {"color": color, "points": [p.to_strings() for p in cls]}
            for color, cls in enumerate(cfg.classes, start=1)
        ],
    }


def dual_from_json(data: dict) -> DualPointConfig:
    """The configuration of a points file; the colors must be 1, 2, ... in
    class order, else ValueError."""
    if data.get("model") != "points":
        raise ValueError("not a dual point configuration")
    entries = _class_entries(data, "points")
    return DualPointConfig([[ProjPoint.from_strings(p) for p in e["points"]] for e in entries])


def config_to_json(cfg) -> dict:
    if isinstance(cfg, gridmodel.ColoredGridConfig):
        return gridmodel.grid_to_json(cfg)
    if isinstance(cfg, ColoredLineConfig):
        return lines_to_json(cfg)
    if isinstance(cfg, DualPointConfig):
        return dual_to_json(cfg)
    raise TypeError(f"unknown configuration type: {type(cfg)!r}")


def config_from_json(data: dict):
    if not isinstance(data, dict):
        raise ValueError(f"a configuration is a JSON object, not {type(data).__name__}")
    model = data.get("model", "grid")
    if model == "grid":
        return gridmodel.grid_from_json(data)
    if model == "lines":
        return lines_from_json(data)
    if model == "points":
        return dual_from_json(data)
    raise ValueError(f"unknown configuration model: {model!r}")
