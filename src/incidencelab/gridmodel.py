"""Combinatorial model of axis-aligned lines in the grid [n]^(k+1), and the
incidence core shared by every configuration model.

A grid line is identified by its axis and its fixed coordinates, so all
incidence questions reduce to tuple bookkeeping — no continuous geometry
is involved.  Incidence detection hashes lines by their coordinate
projections per axis pair rather than enumerating grid points; the full
point-enumeration oracle lives in the test suite as an independent
reference.

The incidence core (``group_*``) decides k-consistency, minimality and
the max colorful order for grid, line and dual configurations alike, from
their incidence groups: grid points here, extracted monomials in
``structure``.

Colors are 1-based class indices.  Lines are referenced as
``(color, index)`` pairs, where ``index`` is the position in the class
tuple after the constructor's canonical sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

from .exactgeom import Line, ProjPoint

LineRef = tuple[int, int]


@dataclass(frozen=True, order=True)
class GridLine:
    """An axis-parallel grid line: axis index (1-based) plus fixed coordinates.

    ``base`` has length k+1 with the (ignored) axis slot stored as 0 and
    every other entry in [1, n].
    """

    axis: int
    base: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.axis <= len(self.base):
            raise ValueError(f"axis {self.axis} out of range for base {self.base}")
        if self.base[self.axis - 1] != 0:
            raise ValueError("the axis slot of a grid line base must be stored as 0")
        if any(v < 1 for i, v in enumerate(self.base) if i != self.axis - 1):
            raise ValueError("non-axis base entries must be >= 1")

    def point_at(self, value: int) -> tuple[int, ...]:
        """The grid point on this line with the axis coordinate set to ``value``."""
        coords = list(self.base)
        coords[self.axis - 1] = value
        return tuple(coords)

    def points(self, n: int) -> Iterator[tuple[int, ...]]:
        for v in range(1, n + 1):
            yield self.point_at(v)


@dataclass(frozen=True)
class ColoredGridConfig:
    """Colored axis-aligned lines in [n]^(k+1); classes are canonically sorted."""

    k: int
    n: int
    classes: tuple[tuple[GridLine, ...], ...]

    def __init__(self, k: int, n: int, classes: Sequence[Sequence[GridLine]]):
        if k < 2:
            raise ValueError("grid model needs k >= 2")
        if n < 1:
            raise ValueError("grid side n must be >= 1")
        canon = tuple(tuple(sorted(set(cls))) for cls in classes)
        seen: set[GridLine] = set()
        for cls_idx, cls in enumerate(canon):
            if len(cls) != len(classes[cls_idx]):
                raise ValueError("duplicate line within a color class")
            for line in cls:
                if len(line.base) != k + 1:
                    raise ValueError("grid line dimension does not match k+1")
                if any(v > n for v in line.base):
                    raise ValueError("grid line base entry exceeds n")
                if line in seen:
                    raise ValueError(f"duplicate line across color classes: {line}")
                seen.add(line)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "classes", canon)

    @classmethod
    def from_masks(cls, k: int, n: int, masks: Sequence[np.ndarray]) -> "ColoredGridConfig":
        """Class c holds the axis-c lines selected by ``masks[c-1]``, a bool
        array over base indices: big-endian over the ascending non-axis
        slots, digit v for coordinate v+1.  Index order is the canonical
        order, so nothing is sorted or checked, and the classes are decoded
        on first read (``class_sizes`` needs no decoding)."""
        cfg = object.__new__(cls)
        object.__setattr__(cfg, "k", k)
        object.__setattr__(cfg, "n", n)
        object.__setattr__(cfg, "_indices", tuple(np.flatnonzero(m) for m in masks))
        return cfg

    def __getattr__(self, name: str):
        # Reached only for unset attributes: the classes of a configuration
        # built by ``from_masks``, before their first read.
        if name != "classes" or "_indices" not in self.__dict__:
            raise AttributeError(name)
        classes = tuple(
            _decode_axis_class(self.k, self.n, axis, idx)
            for axis, idx in enumerate(self._indices, start=1)
        )
        object.__setattr__(self, "classes", classes)
        return classes

    @property
    def num_colors(self) -> int:
        return len(self.classes)

    def class_sizes(self) -> tuple[int, ...]:
        if "_indices" in self.__dict__:
            return tuple(len(idx) for idx in self._indices)
        return tuple(len(cls) for cls in self.classes)

    def total_lines(self) -> int:
        return sum(self.class_sizes())

    def lines(self) -> Iterator[tuple[int, int, GridLine]]:
        """Yield (color, index, line) over the whole configuration."""
        for color, cls in enumerate(self.classes, start=1):
            for idx, line in enumerate(cls):
                yield color, idx, line

    def without_line(self, ref: LineRef) -> "ColoredGridConfig":
        color, idx = ref
        cls = list(self.classes[color - 1])
        del cls[idx]
        new_classes = list(self.classes)
        new_classes[color - 1] = tuple(cls)
        return ColoredGridConfig(self.k, self.n, new_classes)

    @cached_property
    def incidence_map(self) -> dict[tuple[int, ...], set[LineRef]]:
        """Every grid point on two or more lines, with the refs of the lines
        through it; built once and shared, so callers must not modify it."""
        by_axis: dict[int, list[tuple[LineRef, GridLine]]] = {}
        for color, idx, line in self.lines():
            by_axis.setdefault(line.axis, []).append(((color, idx), line))
        points: dict[tuple[int, ...], set[LineRef]] = {}
        axes = sorted(by_axis)
        for a, b in combinations(axes, 2):
            ia, ib = a - 1, b - 1
            buckets: dict[tuple[int, ...], list[tuple[LineRef, GridLine]]] = {}
            for ref, line in by_axis[a]:
                key = tuple(v for t, v in enumerate(line.base) if t not in (ia, ib))
                buckets.setdefault(key, []).append((ref, line))
            for ref_b, line_b in by_axis[b]:
                key = tuple(v for t, v in enumerate(line_b.base) if t not in (ia, ib))
                for ref_a, line_a in buckets.get(key, ()):
                    pt = list(line_a.base)
                    pt[ia] = line_b.base[ia]
                    pt[ib] = line_a.base[ib]
                    tpt = tuple(pt)
                    points.setdefault(tpt, set()).update((ref_a, ref_b))
        return points


def _decode_axis_class(k: int, n: int, axis: int, indices: np.ndarray) -> tuple[GridLine, ...]:
    """The axis lines with the given base indices, in index order."""
    digits = indices[:, None] // n ** np.arange(k - 1, -1, -1) % n + 1
    bases = np.insert(digits, axis - 1, 0, axis=1)
    return tuple(GridLine(axis, tuple(base)) for base in bases.tolist())


def grid_meet(a: GridLine, b: GridLine) -> tuple[int, ...] | None:
    """Common grid point of two distinct grid lines, or None.

    Lines on the same axis are distinct parallels and never meet in the
    grid; lines on different axes meet iff their bases agree on every
    slot outside the two axes.
    """
    if len(a.base) != len(b.base):
        raise ValueError("grid lines live in different grids")
    if a == b:
        raise ValueError("meet of identical grid lines is undefined")
    if a.axis == b.axis:
        return None
    ia, ib = a.axis - 1, b.axis - 1
    for t in range(len(a.base)):
        if t not in (ia, ib) and a.base[t] != b.base[t]:
            return None
    coords = list(a.base)
    coords[ia] = b.base[ia]
    coords[ib] = a.base[ib]
    return tuple(coords)


def embed_grid_line(line: GridLine) -> Line:
    """The grid line as an exact rational line in R^(k+1)."""
    direction = [0] * len(line.base)
    direction[line.axis - 1] = 1
    return Line(ProjPoint.affine(line.point_at(1)), ProjPoint.direction(direction))


@dataclass(frozen=True)
class ConsistencyVerdict:
    """Outcome of a k-consistency check with the full failing-pair witness list."""

    ok: bool
    failures: tuple[tuple[LineRef, frozenset[int]], ...]

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# The incidence core.  Colors are bits of an int mask, so "a group carries
# every color of T" is one mask test.


def _subsets(m: int, k: int) -> list[tuple[int, frozenset[int], int]]:
    """(color, S, mask of T) for every k-subset S = {color} | T of the m
    colors with T nonempty, in failure order: color, then T in
    ``combinations`` order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > m:
        raise ValueError("k exceeds the number of colors")
    return [
        (color, frozenset((color, *T)), sum(1 << c for c in T))
        for color in range(1, m + 1)
        for T in combinations([c for c in range(1, m + 1) if c != color], k - 1)
        if T
    ]


def _groups_by_line(
    groups: Iterable[Collection[LineRef]],
) -> dict[LineRef, list[tuple[int, Collection[LineRef]]]]:
    """(color mask, group) of every group through each line."""
    by_line: dict[LineRef, list[tuple[int, Collection[LineRef]]]] = {}
    for refs in groups:
        mask = 0
        for color, _ in refs:
            mask |= 1 << color
        for ref in refs:
            by_line.setdefault(ref, []).append((mask, refs))
    return by_line


def group_consistency(
    class_sizes: Sequence[int], groups: Iterable[Collection[LineRef]], k: int
) -> ConsistencyVerdict:
    """k-consistency over incidence groups: line (c, i) fails S = {c} | T
    when no group through it carries every color of T.  Failures are
    listed by color, then T in ``combinations`` order, then index."""
    subsets = _subsets(len(class_sizes), k)
    by_line = _groups_by_line(groups)
    failures = tuple(
        ((color, idx), S)
        for color, S, need in subsets
        for idx in range(class_sizes[color - 1])
        if all(need & ~mask for mask, _ in by_line.get((color, idx), ()))
    )
    return ConsistencyVerdict(not failures, failures)


def group_removable(
    class_sizes: Sequence[int], groups: Iterable[Collection[LineRef]], k: int
) -> tuple[LineRef, ...]:
    """Lines whose removal keeps a k-consistent configuration k-consistent.

    Removing r changes only the groups through r, and such a group stops
    carrying T iff r is its only line of a color in T (a group left with
    one line carries no T, as T never holds that line's color).  So r is
    essential iff, for some line l and some T of l, that holds for r in
    every group through l carrying T ("carriers" below): one pass decides
    every line.  Raises ValueError if some (l, T) has no carrier at all.
    """
    subsets = _subsets(len(class_sizes), k)
    by_line = _groups_by_line(groups)
    essential: set[LineRef] = set()
    for color, _, need in subsets:
        for idx in range(class_sizes[color - 1]):
            carriers = []
            for mask, refs in by_line.get((color, idx), ()):
                if not need & ~mask:
                    colors = [c for c, _ in refs]
                    sole = [r for r in refs if colors.count(r[0]) == 1]
                    carriers.append({r for r in sole if need >> r[0] & 1})
            if not carriers:
                raise ValueError("minimality audit requires a k-consistent configuration")
            essential |= set.intersection(*carriers)
    return tuple(
        (color, idx)
        for color, size in enumerate(class_sizes, start=1)
        for idx in range(size)
        if (color, idx) not in essential
    )


def group_max_colorful(
    groups: Iterable[tuple[object, Collection[LineRef]]],
) -> tuple[int, object | None]:
    """Largest color count over (witness, group) pairs, with the witness of
    the first group reaching it in the caller's order."""
    best, witness = 0, None
    for at, refs in groups:
        order = len({c for c, _ in refs})
        if order > best:
            best, witness = order, at
    return best, witness


# Grid entry points.  Their groups are the grid points of ``incidence_map``
# only: the grid has no points at infinity (see ``grid_meet``), so the
# shared-axis directions that ``extract_structure_grid`` adds never count.


def is_k_consistent(cfg: ColoredGridConfig, k: int) -> ConsistencyVerdict:
    """Check that every line of every color in every k-subset S has an S-incidence."""
    return group_consistency(cfg.class_sizes(), cfg.incidence_map.values(), k)


def breaks_consistency_without(cfg: ColoredGridConfig, k: int, ref: LineRef) -> bool:
    """True iff removing the referenced line makes the configuration inconsistent."""
    return not is_k_consistent(cfg.without_line(ref), k).ok


def max_colorful_order(cfg: ColoredGridConfig) -> tuple[int, tuple[int, ...] | None]:
    """Largest number of distinct colors at any grid point, with the
    lexicographically first point reaching it."""
    return group_max_colorful(sorted(cfg.incidence_map.items()))


def grid_to_json(cfg: ColoredGridConfig) -> dict:
    classes = []
    for color, cls in enumerate(cfg.classes, start=1):
        by_axis: dict[int, list[list[int]]] = {}
        for line in cls:
            stripped = [v for t, v in enumerate(line.base) if t != line.axis - 1]
            by_axis.setdefault(line.axis, []).append(stripped)
        if not by_axis:
            # an empty class still occupies its color slot
            classes.append({"color": color, "axis": 1, "bases": []})
        for axis in sorted(by_axis):
            classes.append({"color": color, "axis": axis, "bases": by_axis[axis]})
    return {"model": "grid", "k": cfg.k, "n": cfg.n, "classes": classes}


def grid_from_json(data: dict) -> ColoredGridConfig:
    if data.get("model", "grid") != "grid":
        raise ValueError("not a grid configuration")
    k, n = data["k"], data["n"]
    classes: dict[int, list[GridLine]] = {}
    for pos, entry in enumerate(data["classes"]):
        color, axis = entry["color"], entry["axis"]
        if color < 1:
            raise ValueError(f"classes[{pos}] has color {color}; colors start at 1")
        classes.setdefault(color, [])
        for stripped in entry["bases"]:
            base = list(stripped)
            base.insert(axis - 1, 0)
            classes[color].append(GridLine(axis, tuple(base)))
    ordered = [classes.get(c, []) for c in range(1, max(classes, default=0) + 1)]
    return ColoredGridConfig(k, n, ordered)
