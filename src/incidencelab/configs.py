"""Colored configurations of rational lines and of dual planar points.

``ColoredLineConfig`` is the continuous counterpart of the grid model:
classes of pairwise-distinct projective lines in R^d as one (L, 2, d + 1)
array of canonical endpoint rows with keys and pivots from ``line_keys``
(one lexsort of the keys finds duplicates), and an optional center per
class, carried and written back (extraction finds concurrent classes
itself).  ``DualPointConfig`` holds the planar points produced by duality
as one (P, 3) array.  Arrays are int64 under ``exactgeom``'s bounds,
Python ints above them.  ``Line`` and ``ProjPoint`` objects are built
from stored rows only when asked.  Both serialize to JSON with rationals
as "num/den" strings and a "model" discriminator so pipeline commands
can dispatch on file content.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import gridmodel
from .exactgeom import (
    Line,
    ProjPoint,
    _canonical_ints,
    canonical_rows,
    has_duplicate_rows,
    int_array,
    line_keys,
    parse_rational,
)


def _ascii_ints(text: str) -> bool:
    """Whether ``text`` is ``-?[0-9]+(,-?[0-9]+)*``, by C-speed ``str`` passes: only
    digits, commas and "-", no empty or bare "-" token, and each "-" leading its token."""
    allowed = str.maketrans("", "", "0123456789,-")
    return text.isascii() and not text.translate(allowed) and text[-1:].isdigit() and (
        text[:1] != "," and ",," not in text and "-," not in text
        and text.count("-") == text.startswith("-") + text.count(",-"))


def _split(items: Sequence, sizes: Sequence[int]) -> tuple[tuple, ...]:
    """A flat sequence cut into consecutive classes of the given sizes."""
    bounds = np.cumsum([0, *sizes]).tolist()
    return tuple(tuple(items[a:b]) for a, b in zip(bounds, bounds[1:]))


@dataclass(frozen=True, eq=False)
class ColoredLineConfig:
    """Colored, pairwise-distinct lines in projective R^d.

    Class and line order is caller-defined and preserved verbatim:
    transforms map lines in order, so ``(color, index)`` references stay
    stable along a pipeline.  Generators emit deterministic orders.  Built
    from classes of ``Line`` objects, or from endpoint rows (``from_ends``).
    Equal configurations have equal lines (keys), classes and carried centers.
    """

    d: int
    ends: np.ndarray  # (L, 2, d + 1): each line's two canonical spanning points
    sizes: tuple[int, ...]
    centers: tuple[ProjPoint | None, ...]
    keys: np.ndarray  # (L, 2, d + 1): canonical key rows, as ``Line.key``
    pivots: np.ndarray  # (L, 2): pivot columns of the key rows, as ``Line.pivots``

    def __init__(self, d: int, classes: Sequence[Sequence[Line]], centers=None):
        classes = [list(cls) for cls in classes]
        lines = [line for cls in classes for line in cls]
        if any(line.ambient_dim != d for line in lines):
            raise ValueError("line ambient dimension does not match d")
        ends = int_array([(line.p.coords, line.q.coords) for line in lines])
        self._fill(d, ends.reshape(len(lines), 2, d + 1), tuple(map(len, classes)), centers)

    @classmethod
    def from_ends(cls, d: int, ends: np.ndarray, sizes: Sequence[int], centers=None):
        """The configuration of canonical (L, 2, d + 1) endpoint rows, cut
        into classes of ``sizes``; keys and pivots come from ``line_keys``."""
        cfg = object.__new__(cls)
        cfg._fill(d, ends, tuple(sizes), centers)
        return cfg

    def _fill(self, d, ends, sizes, centers) -> None:
        if d < 2:
            raise ValueError("line configurations need ambient dimension d >= 2")
        if ends.shape[1:] != (2, d + 1):
            raise ValueError("line ambient dimension does not match d")
        keys, pivots = line_keys(ends)
        if has_duplicate_rows(keys):
            raise ValueError("duplicate line in configuration")
        centers = (None,) * len(sizes) if centers is None else tuple(centers)
        if len(centers) != len(sizes):
            raise ValueError("one center entry per class required")
        if any(c is not None and c.ambient_dim != d for c in centers):
            raise ValueError("center ambient dimension does not match d")
        for name, value in zip(self.__dataclass_fields__, (d, ends, sizes, centers, keys, pivots)):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ColoredLineConfig)
            and (self.d, self.sizes, self.centers) == (other.d, other.sizes, other.centers)
            and np.array_equal(self.keys, other.keys)
        )

    @property
    def num_colors(self) -> int:
        return len(self.sizes)

    def class_sizes(self) -> tuple[int, ...]:
        return self.sizes

    def total_lines(self) -> int:
        return len(self.ends)

    @cached_property
    def classes(self) -> tuple[tuple[Line, ...], ...]:
        """The lines as ``Line`` objects, class by class, from the stored rows
        with no row reduction (built on first use)."""
        point = ProjPoint.canonical
        rows = zip(self.ends.tolist(), self.keys.tolist(), self.pivots.tolist())
        lines = [Line(point(tuple(p)), point(tuple(q)), tuple(map(tuple, k)), c) for (p, q), k, c in rows]
        return _split(lines, self.sizes)


@dataclass(frozen=True, eq=False)
class DualPointConfig:
    """Colored, pairwise-distinct points in the projective plane, as one
    (P, 3) array of canonical rows cut into classes of ``sizes``.

    Point order is preserved verbatim so duality round trips keep
    ``(color, index)`` references stable.  Built from classes of
    ``ProjPoint`` objects, or from canonical rows (``from_coords``).
    """

    coords: np.ndarray
    sizes: tuple[int, ...]

    def __init__(self, classes: Sequence[Sequence[ProjPoint]]):
        classes = [list(cls) for cls in classes]
        points = [p for cls in classes for p in cls]
        if any(p.ambient_dim != 2 for p in points):
            raise ValueError("dual points live in the projective plane")
        self._fill(int_array([p.coords for p in points]).reshape(-1, 3), tuple(map(len, classes)))

    @classmethod
    def from_coords(cls, coords: np.ndarray, sizes: Sequence[int]) -> "DualPointConfig":
        cfg = object.__new__(cls)
        cfg._fill(coords, tuple(sizes))
        return cfg

    def _fill(self, coords, sizes) -> None:
        if has_duplicate_rows(coords):
            raise ValueError("duplicate point in dual configuration")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "sizes", sizes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DualPointConfig)
            and self.sizes == other.sizes
            and np.array_equal(self.coords, other.coords)
        )

    @property
    def num_colors(self) -> int:
        return len(self.sizes)

    def class_sizes(self) -> tuple[int, ...]:
        return self.sizes

    @cached_property
    def classes(self) -> tuple[tuple[ProjPoint, ...], ...]:
        """The points as ``ProjPoint`` objects, class by class (built on first use)."""
        return _split([ProjPoint.canonical(tuple(p)) for p in self.coords.tolist()], self.sizes)


def embed_grid_config(cfg: gridmodel.ColoredGridConfig) -> ColoredLineConfig:
    """The grid configuration as rational lines in R^(k+1), parallel per axis:
    a class of two or more lines on one axis (ids sort by axis first) is
    concurrent at their direction."""
    span, unit = cfg.n**cfg.k, np.eye(cfg.k + 2, dtype=np.int64).tolist()
    ends = gridmodel._grid_ends(cfg.k, cfg.n, np.concatenate((np.empty(0, np.int64), *cfg.ids)))
    centers = [
        ProjPoint.canonical(tuple(unit[c[0] // span]))
        if len(c) >= 2 and c[0] // span == c[-1] // span else None
        for c in cfg.ids
    ]
    return ColoredLineConfig.from_ends(cfg.k + 1, ends, [len(c) for c in cfg.ids], centers)


class DecimalRows(NamedTuple):
    """Integer rows a file holds as lists of decimal strings: (m, D) points,
    or (m, 2, D) lines as ``{"p": ..., "q": ...}`` objects; ``cli`` writes
    them through one row template."""

    rows: np.ndarray


def _cut(rows: np.ndarray, sizes: Sequence[int]) -> list[DecimalRows]:
    return [DecimalRows(rows[a - b : a]) for a, b in zip(np.cumsum(sizes).tolist(), sizes)]


def lines_to_json(cfg: ColoredLineConfig) -> dict:
    classes = []
    for color, (cls, center) in enumerate(zip(_cut(cfg.ends, cfg.sizes), cfg.centers)):
        entry: dict = {"color": color + 1, "lines": cls}
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


def _point_rows(points: list, width: int, where: str) -> np.ndarray:
    """The canonical (N, width) rows of a file's points, each a JSON list of
    ``width`` coordinate strings (else ValueError, naming ``where``): ASCII
    integers all at once, by ``np.fromstring`` if no token passes 18 chars
    (it clamps past int64), else by ``int``; else ``parse_rational`` each."""
    for i, point in enumerate(points):
        if type(point) is not list or len(point) != width:
            raise ValueError(f"{where}[{i}] is {point!r}, not a list of {width} coordinate strings")
    flat = [x for point in points for x in point]
    text = ",".join(flat) if all(type(x) is str for x in flat) else ""
    if _ascii_ints(text) and text.count(",") == len(flat) - 1:
        if max(map(len, flat)) > 18:
            return canonical_rows(int_array(list(map(int, flat))).reshape(len(points), width))
        return canonical_rows(np.fromstring(text, np.int64, sep=",").reshape(len(points), width))
    rows = []
    for i, point in enumerate(points):
        try:
            rows.append(_canonical_ints([parse_rational(t) for t in point]))
        except ValueError as exc:
            raise ValueError(f"{where}[{i}]: {exc}") from None
    return int_array(rows).reshape(len(points), width)


def lines_from_json(data: dict) -> ColoredLineConfig:
    """The configuration of a lines file; ``d`` must be a JSON int, the
    colors 1, 2, ... in class order, and every ``p``, ``q`` and ``center``
    a list of d + 1 coordinate strings, else ValueError."""
    if data.get("model") != "lines":
        raise ValueError("not a line configuration")
    d = data["d"]
    if type(d) is not int:
        raise ValueError(f"a line configuration needs an integer d, not {d!r}")
    ends, sizes, centers = [np.empty((0, 2, d + 1), np.int64)], [], []
    for pos, entry in enumerate(_class_entries(data, "lines")):
        points = [point for line in entry["lines"] for point in (line["p"], line["q"])]
        ends.append(_point_rows(points, d + 1, f"classes[{pos}] endpoints").reshape(-1, 2, d + 1))
        sizes.append(len(entry["lines"]))
        given = [entry["center"]] if "center" in entry else []
        center = _point_rows(given, d + 1, f"classes[{pos}] center").tolist()
        centers.append(ProjPoint.canonical(tuple(center[0])) if center else None)
    return ColoredLineConfig.from_ends(d, np.concatenate(ends), sizes, centers)


def dual_to_json(cfg: DualPointConfig) -> dict:
    return {
        "model": "points",
        "classes": [
            {"color": color, "points": cls}
            for color, cls in enumerate(_cut(cfg.coords, cfg.sizes), start=1)
        ],
    }


def dual_from_json(data: dict) -> DualPointConfig:
    """The configuration of a points file; the colors must be 1, 2, ... in
    class order and every point a list of 3 coordinate strings, else ValueError."""
    if data.get("model") != "points":
        raise ValueError("not a dual point configuration")
    entries = _class_entries(data, "points")
    rows = [_point_rows(e["points"], 3, f"classes[{pos}] points") for pos, e in enumerate(entries)]
    coords = np.concatenate([np.empty((0, 3), np.int64), *rows])
    return DualPointConfig.from_coords(coords, [len(e["points"]) for e in entries])


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
