"""Independent brute-force references used to check the production paths.

The library holds a grid line only as an int64 id.  ``GridLine`` (axis
plus base) is the oracles' own decoded model of one: ``encode`` and
``decode`` translate between the two, ``decode`` digit by digit through
``gridline_from_index``; ``grid_config`` builds a configuration from
classes of ``GridLine``s and ``decoded`` gives its classes back as them.
``grid_to_json`` writes a grid file's dict from those lines, with list
bases: the reference for the library's array bases; ``grid_from_json``
reads one through ``np.array`` of the nested lists, the reference for the
library's bulk-checked reader.
``embed_grid_line`` is one line embedded by the library's
``embed_grid_config``.

These deliberately avoid the axis-pair matching and the incidence core of
the library: they enumerate grid points (or raw containment) and nothing
else, so agreement is meaningful evidence rather than a tautology.  The
point enumeration is the reference for the grid's ``incidences``, and
the point scan and the per-line minimality rescan for the incidence
core's grid verdicts.  ``loop_consistency``, ``loop_removable`` and
``loop_max_colorful`` are the incidence core written as Python loops over
each line's groups, with one unbounded int color bitmask per group: the
reference for the array core on arbitrary groups of refs, as line and
dual structures have them.  ``grid_meet`` meets two grid lines slot by
slot; the exact rational ``meet`` of embedded lines is checked against it.  ``rref_meet``
is the reference for the bulk residual kernel ``meet_rows`` (and ``meet``,
its one-pair call): it solves the 4-column system of the two lines'
spanning points by generic row reduction.  ``residual`` is a line's
residual of one row and ``loop_meet`` the residual rule as a Python loop
over one pair, which the oracles below meet with, sharing no code with
the kernel.  ``loop_concurrence_buckets`` calls ``loop_meet`` on one line
pair at a time, skipping pairs already bucketed together: the reference
for the mod-p pair kernel of ``concurrence_buckets``, order of the points
included.  ``cross`` is one canonical cross product of two integer
triples, ``line_covector_2d`` a planar line's covector by it.
``key_arrays`` stacks the ``int_rref`` keys and pivots of ``Line`` objects
into the arrays a configuration stores: the reference for
``exactgeom.line_keys`` and the input of the array kernels.
``line_contains`` tests a point against a line's key by its
``residual``, the containment test of the oracles below.
``loop_flatness_audit`` meets each group's witness and row-reduces its
lines' keys with that point (``rank_of_directions``): the reference for
the batched residue ranks of ``exactgeom.key_ranks`` behind
``analysis.flatness_audit``.
``loop_planar_buckets`` takes one exact cross product per pair of planar
triples: the reference for the residue kernel of ``planar_buckets``.
``loop_alignments`` joins two dual points at a time by an integer
nullspace: the reference for the cross products of ``planar_buckets``
behind ``extract_alignments``, witness order included.
``set_audit_projection`` is the projection audit on monomial sets of
frozensets: the reference for the array audit of ``project_generic``.
``entries`` builds the entry arrays of groups of line positions from
sorted lists, the reference for the structure's ordering rule;
``structure_of`` builds a structure from groups of refs (a
``PositionRecord``, whose witness of a group is its first two line
positions), and
``random_structure`` random ones for the core comparisons.
``concurrency_center`` meets a class's first two lines and checks the
rest, and ``with_computed_centers`` records those centers: the reference
for the class centers the 4x3 generators read off their structure.
``two_plane_lines`` derives the Desargues witness lines from six planes,
each the ``int_nullspace`` (a primitive integer basis by ``int_rref``) of
a plane pair: the reference for the stated rows ``DESARGUES_ENDS``.
``_search_coloring`` is the backtracking color search that found the
stated colorings of the 4x3 generators: ``search_desargues_colors`` and
``search_reye_colors`` rerun it on their witness lines, each candidate
certified by the generators' ``_validate_4x3``.
``loop_bipartite_edges`` meets every cross pair of two families: the
reference for the structure's intersection graph in ``bipartite_edges``.
``dense_deletion`` (the whole n^(k+1) coverage cube) and
``sparse_deletion`` (a dict of covered points, line by line) are the
references for the bit-packed deletion, ``dense_trial_stats`` (whole n^(k+1) count and coverage cubes)
for the trial statistics, and ``gridline_from_index`` (one line, digit
by digit) for the vectorized decoding of base indices.  ``six_fold_map``
composes the six projections of a dual cycle one by one, the reference
for the closed-form ``closure_shift`` that ``gen_dual_cycles`` rests on.
``fraction_canonical_ints`` scales a vector through ``Fraction``s, the
reference for ``exactgeom._canonical_ints``; ``translated_dual`` moves
every line's spanning points off the pole before taking covectors, the
reference for the covector shift of ``dualize``; ``fraction_xy`` is the
reference for the renderer's float coordinates.
``dump_json`` is ``json``'s own indented writer (its pure-Python encoder),
the reference for the CLI's JSON writer.  ``ASCII_INTS`` is the regular
expression of comma-joined ASCII integers, the reference for the ``str``
checks of ``configs._ascii_ints``.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations, product
from math import gcd, isqrt, lcm
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

from incidencelab.exactgeom import (
    Line,
    ProjPoint,
    Rational,
    _reduce_row,
    int_array,
    int_rank,
    int_rref,
    key_ranks,
)
from incidencelab.configs import (
    ColoredLineConfig,
    DualPointConfig,
    embed_grid_config,
)
from incidencelab.constructions import _validate_4x3
from incidencelab.gridmodel import ColoredGridConfig, _line_count
from incidencelab.structure import IncidenceStructure, extract_structure_lines


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


def encode(k: int, n: int, lines: Iterable[GridLine]) -> np.ndarray:
    """The line ids of grid lines of [n]^(k+1), in the given order."""
    ids = []
    for line in lines:
        if len(line.base) != k + 1 or max(line.base) > n:
            raise ValueError(f"{line} is not a line of the grid [{n}]^{k + 1}")
        idx = line.axis - 1
        for v in line.base[: line.axis - 1] + line.base[line.axis :]:
            idx = idx * n + v - 1
        ids.append(idx)
    return np.array(ids, dtype=np.int64)


def decode(k: int, n: int, ids: np.ndarray) -> tuple[GridLine, ...]:
    """The grid lines of an id array, in its order."""
    return tuple(gridline_from_index(k, n, i // n**k + 1, i % n**k) for i in ids.tolist())


def grid_config(k: int, n: int, classes: Iterable[Iterable[GridLine]]) -> ColoredGridConfig:
    return ColoredGridConfig(k, n, [encode(k, n, cls) for cls in classes])


def decoded(cfg: ColoredGridConfig) -> tuple[tuple[GridLine, ...], ...]:
    """The classes of a grid configuration as ``GridLine``s, in id order."""
    return tuple(decode(cfg.k, cfg.n, ids) for ids in cfg.ids)


def grid_to_json(cfg: ColoredGridConfig) -> dict:
    """The grid file of ``cfg`` with bases as lists of plain ints, built line
    by line from ``decoded``: one class entry per (color, axis) present, in
    axis order, and an empty class as one axis-1 entry with no bases."""
    classes = []
    for color, lines in enumerate(decoded(cfg), start=1):
        by_axis: dict[int, list] = {}
        for line in lines:
            base = [v for slot, v in enumerate(line.base, start=1) if slot != line.axis]
            by_axis.setdefault(line.axis, []).append(base)
        for axis, bases in sorted(by_axis.items()) or [(1, [])]:
            classes.append({"color": color, "axis": axis, "bases": bases})
    return {"model": "grid", "k": cfg.k, "n": cfg.n, "classes": classes}


def grid_from_json(data: dict) -> ColoredGridConfig:
    """The configuration of a grid file, each class entry read by one
    ``np.array`` of its nested bases lists and one type set over a list of
    its color, axis and entries: the reference for the bulk checks and the
    ``np.fromiter`` read of ``gridmodel.grid_from_json``, error messages included."""
    if data.get("model", "grid") != "grid":
        raise ValueError("not a grid configuration")
    k, n, entries = data["k"], data["n"], data["classes"]
    if type(k) is not int or type(n) is not int or not isinstance(entries, list):
        raise ValueError("a grid configuration needs integer k and n and a list of classes")
    span = _line_count(k, n) // (k + 1)
    classes: list[list[np.ndarray]] = [[] for _ in entries]
    for pos, entry in enumerate(entries):
        color, axis, bases = entry["color"], entry["axis"], entry["bases"]
        try:
            rows = np.array(bases, dtype=np.int64).reshape(len(bases), k)
            exact = set(map(type, [color, axis, *chain.from_iterable(bases)])) <= {int}
        except (TypeError, ValueError, OverflowError):
            exact = False
        ok = exact and 1 <= color <= len(entries) and 1 <= axis <= k + 1
        if not (ok and (not rows.size or 1 <= rows.min() and rows.max() <= n)):
            raise ValueError(
                f"classes[{pos}] has color {color!r}, axis {axis!r}: colors are ints in "
                f"1..{len(entries)}, axes ints in 1..{k + 1}, bases lists of {k} ints in 1..{n}"
            )
        classes[color - 1].append((axis - 1) * span + (rows - 1) @ n ** np.arange(k - 1, -1, -1))
    while classes and not classes[-1]:
        classes.pop()  # the highest color present is the last class
    return ColoredGridConfig(k, n, [np.concatenate((np.empty(0, np.int64), *c)) for c in classes])


def embed_grid_line(line: GridLine) -> Line:
    """The exact rational line in R^(k+1) that ``embed_grid_config`` makes of ``line``."""
    k, n = len(line.base) - 1, max(line.base)
    return embed_grid_config(ColoredGridConfig(k, n, [encode(k, n, [line])])).classes[0][0]


def point_on_line(point: tuple[int, ...], line: GridLine) -> bool:
    """Raw containment: coordinates match the base outside the axis slot."""
    return all(
        point[t] == line.base[t]
        for t in range(len(point))
        if t != line.axis - 1
    )


def tiny_incidences(cfg: ColoredGridConfig) -> dict[tuple[int, ...], set]:
    """O(points * lines) enumeration; only for very small grids."""
    out: dict[tuple[int, ...], set] = {}
    classes = decoded(cfg)
    for point in product(range(1, cfg.n + 1), repeat=cfg.k + 1):
        refs = {
            (color, idx)
            for color, cls in enumerate(classes, start=1)
            for idx, line in enumerate(cls)
            if point_on_line(point, line)
        }
        if len(refs) >= 2:
            out[point] = refs
    return out


def point_enumeration_incidences(cfg: ColoredGridConfig) -> dict[tuple[int, ...], set]:
    """Full n^(k+1) grid sweep, testing class membership per axis at each point."""
    index_of = [
        {line: idx for idx, line in enumerate(cls)} for cls in decoded(cfg)
    ]
    out: dict[tuple[int, ...], set] = {}
    for point in product(range(1, cfg.n + 1), repeat=cfg.k + 1):
        refs = set()
        for color in range(1, cfg.num_colors + 1):
            for axis in range(1, cfg.k + 2):
                base = list(point)
                base[axis - 1] = 0
                candidate = GridLine(axis, tuple(base))
                idx = index_of[color - 1].get(candidate)
                if idx is not None:
                    refs.add((color, idx))
        if len(refs) >= 2:
            out[point] = refs
    return out


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


def colorful_point_exists(cfg: ColoredGridConfig) -> bool:
    """True iff some grid point carries lines of every color (full sweep)."""
    m = cfg.num_colors
    for point, refs in point_enumeration_incidences(cfg).items():
        if len({c for c, _ in refs}) == m:
            return True
    return False


def _class_axis_bases(cfg: ColoredGridConfig, removed=None) -> list[dict]:
    out = []
    for color, cls in enumerate(decoded(cfg), start=1):
        per_axis: dict[int, set[tuple[int, ...]]] = {}
        for idx, line in enumerate(cls):
            if removed != (color, idx):
                per_axis.setdefault(line.axis, set()).add(line.base)
        out.append(per_axis)
    return out


def _point_on_colors(point: tuple[int, ...], colors, bases) -> bool:
    for color in colors:
        for axis, base_set in bases[color - 1].items():
            zeroed = list(point)
            zeroed[axis - 1] = 0
            if tuple(zeroed) in base_set:
                break
        else:
            return False
    return True


def point_scan_failures(cfg: ColoredGridConfig, k: int, removed=None) -> tuple:
    """k-consistency failures by scanning every point of every line, in the
    order color, T (``combinations`` order), index; ``removed`` skips a line."""
    if not 1 <= k <= cfg.num_colors:
        raise ValueError("k out of range")
    bases = _class_axis_bases(cfg, removed)
    colors = range(1, cfg.num_colors + 1)
    failures = []
    for color, cls in enumerate(decoded(cfg), start=1):
        for T in combinations([c for c in colors if c != color], k - 1):
            for idx, line in enumerate(cls):
                if removed == (color, idx):
                    continue
                if not any(_point_on_colors(pt, T, bases) for pt in line.points(cfg.n)):
                    failures.append(((color, idx), frozenset((color, *T))))
    return tuple(failures)


def rescan_removable(cfg: ColoredGridConfig, k: int) -> tuple:
    """Lines whose removal leaves no failure, one full point scan per line."""
    return tuple(
        (color, idx)
        for color, size in enumerate(cfg.class_sizes(), start=1)
        for idx in range(size)
        if not point_scan_failures(cfg, k, removed=(color, idx))
    )


def point_enumeration_max_colorful(cfg: ColoredGridConfig):
    """Largest color count at a grid point and the first point (in
    lexicographic order) reaching it, from the full grid sweep."""
    best, witness = 0, None
    for point, refs in sorted(point_enumeration_incidences(cfg).items()):
        order = len({c for c, _ in refs})
        if order > best:
            best, witness = order, point
    return best, witness


def _mask_subsets(m: int, k: int) -> list[tuple[int, frozenset[int], int]]:
    """(color, S, mask of T) for every k-subset S = {color} | T of the m
    colors with T nonempty, in failure order."""
    if not 1 <= k <= m:
        raise ValueError("k out of range")
    return [
        (color, frozenset((color, *T)), sum(1 << c for c in T))
        for color in range(1, m + 1)
        for T in combinations([c for c in range(1, m + 1) if c != color], k - 1)
        if T
    ]


def _groups_by_line(groups: Iterable[Collection]) -> dict:
    """(color mask, group) of every group through each line."""
    by_line: dict = {}
    for refs in groups:
        mask = 0
        for color, _ in refs:
            mask |= 1 << color
        for ref in refs:
            by_line.setdefault(ref, []).append((mask, refs))
    return by_line


def loop_consistency(class_sizes: Sequence[int], groups: Iterable[Collection], k: int) -> tuple:
    """k-consistency failures over groups of refs, in the order color, T
    (``combinations`` order), index."""
    subsets = _mask_subsets(len(class_sizes), k)
    by_line = _groups_by_line(groups)
    return tuple(
        ((color, idx), S)
        for color, S, need in subsets
        for idx in range(class_sizes[color - 1])
        if all(need & ~mask for mask, _ in by_line.get((color, idx), ()))
    )


def loop_removable(class_sizes: Sequence[int], groups: Iterable[Collection], k: int) -> tuple:
    """Lines whose removal keeps k-consistency, by the one-carrier rule;
    ValueError if some (line, T) has no carrier."""
    subsets = _mask_subsets(len(class_sizes), k)
    by_line = _groups_by_line(groups)
    essential = set()
    for color, _, need in subsets:
        for idx in range(class_sizes[color - 1]):
            carriers = [refs for mask, refs in by_line.get((color, idx), ()) if not need & ~mask]
            if not carriers:
                raise ValueError("minimality audit requires a k-consistent configuration")
            if len(carriers) == 1:
                colors = [c for c, _ in carriers[0]]
                essential.update(
                    r for r in carriers[0] if need >> r[0] & 1 and colors.count(r[0]) == 1
                )
    return tuple(
        (color, idx)
        for color, size in enumerate(class_sizes, start=1)
        for idx in range(size)
        if (color, idx) not in essential
    )


def loop_max_colorful(groups: Iterable[tuple[object, Collection]]) -> tuple:
    """Largest color count over (witness, group) pairs, with the witness of
    the first group reaching it."""
    best, witness = 0, None
    for at, refs in groups:
        order = len({c for c, _ in refs})
        if order > best:
            best, witness = order, at
    return best, witness


def collinear(p, q, r) -> bool:
    """Exact 3x3 determinant test on homogeneous planar points."""
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = p.coords, q.coords, r.coords
    det = (
        a1 * (b2 * c3 - b3 * c2)
        - a2 * (b1 * c3 - b3 * c1)
        + a3 * (b1 * c2 - b2 * c1)
    )
    return det == 0


def rank3x3(rows) -> int:
    """Rank of a 3x3 rational matrix by explicit minors."""
    rows = [[Fraction(v) for v in row] for row in rows]
    det = (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )
    if det != 0:
        return 3
    for i in range(3):
        for j in range(3):
            minor = [
                [rows[r][c] for c in range(3) if c != j]
                for r in range(3)
                if r != i
            ]
            if minor[0][0] * minor[1][1] - minor[0][1] * minor[1][0] != 0:
                return 2
    return 1 if any(any(v != 0 for v in row) for row in rows) else 0


def int_nullspace(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of the right nullspace, one vector per free column."""
    rref = int_rref(rows)
    pivots = [next(c for c, x in enumerate(row) if x) for row in rref]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        scale = lcm(*(row[p] for row, p in zip(rref, pivots))) if rref else 1
        vec[f] = scale
        for row, p in zip(rref, pivots):
            vec[p] = -row[f] * (scale // row[p])
        basis.append(_reduce_row(vec))
    return basis


def rref_meet(a: Line, b: Line) -> ProjPoint | None:
    """Common point of two distinct lines from the nullspace of the
    (d+1) x 4 matrix of their spanning points, or None if they are skew."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("lines live in different ambient dimensions")
    if a.key == b.key:
        raise ValueError("meet of identical lines is undefined")
    # A nullvector (l1, l2, m1, m2) expresses
    # l1*a.p + l2*a.q = -(m1*b.p + m2*b.q) = common point.
    rows = [
        (a.p.coords[i], a.q.coords[i], b.p.coords[i], b.q.coords[i])
        for i in range(a.ambient_dim + 1)
    ]
    null = int_nullspace(rows, 4)
    if not null:
        return None
    l1, l2 = null[0][0], null[0][1]
    return ProjPoint([l1 * x + l2 * y for x, y in zip(a.p.coords, a.q.coords)])


def residual(line: Line, v: Sequence[int]) -> list[int]:
    """p1*p2*v - v[c1]*p2*r1 - v[c2]*p1*r2 for the line's key rows r1, r2
    with pivots p1, p2 at columns c1 < c2: each key row is zero at the
    other's pivot, so this vanishes at both pivots, and it is zero iff v
    lies on the line.  Fraction-free and linear in v."""
    (r1, r2), (c1, c2) = line.key, line.pivots
    p1, p2 = r1[c1], r2[c2]
    s, a, b = p1 * p2, v[c1] * p2, v[c2] * p1
    return [s * x - a * y - b * z for x, y, z in zip(v, r1, r2)]


def loop_meet(a: Line, b: Line) -> ProjPoint | None:
    """The common point of two distinct lines, or None if they are skew,
    one pair by Python loops: the residuals u, w of b's key rows s1, s2
    against a are dependent iff the lines meet; then w[j]*u - u[j]*w = 0
    for a column j with u[j] != 0, and w[j]*s1 - u[j]*s2 is on both."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("lines live in different ambient dimensions")
    if a.key == b.key:
        raise ValueError("meet of identical lines is undefined")
    s1, s2 = b.key
    u, w = residual(a, s1), residual(a, s2)
    for j, uj in enumerate(u):
        if uj:
            break
    else:
        return ProjPoint.canonical(s1)  # s1, a canonical key row, lies on a
    wj = w[j]
    for x, y in zip(u, w):
        if wj * x != uj * y:
            return None
    return ProjPoint.canonical(_reduce_row([wj * x - uj * y for x, y in zip(s1, s2)]))


def cross(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """The canonical cross product of two independent integer triples: the
    covector of the line through two points, or the point where two lines
    with those covectors meet; else ValueError."""
    (p1, p2, p3), (q1, q2, q3) = p, q
    return _reduce_row((p2 * q3 - p3 * q2, p3 * q1 - p1 * q3, p1 * q2 - p2 * q1))


def line_covector_2d(line: Line) -> tuple[int, ...]:
    """The canonical covector (a, b, c) of a planar line, a*x + b*y + c*w = 0:
    the cross product of its spanning points."""
    if line.ambient_dim != 2:
        raise ValueError("covectors are defined for planar lines only")
    return cross(line.p.coords, line.q.coords)


def line_from_covector_2d(cov: Sequence[int]) -> Line:
    """A planar line materialized from its covector: the two spanning points
    ``int_nullspace`` gives for it (the rule ``undualize`` writes in closed form)."""
    if len(cov) != 3 or not any(cov):
        raise ValueError("covector must be a nonzero triple")
    basis = int_nullspace([tuple(cov)], 3)
    return Line(ProjPoint(basis[0]), ProjPoint(basis[1]))


def loop_apply_matrix(matrix: Sequence[Sequence[int]], point: ProjPoint) -> ProjPoint:
    """Image of a point under integer matrix rows, one Python dot product per
    row (``image_rows`` is one matrix product)."""
    if len(matrix[0]) != len(point.coords):
        raise ValueError("matrix shape does not match point coordinates")
    image = [sum(a * x for a, x in zip(row, point.coords)) for row in matrix]
    return ProjPoint.canonical(_reduce_row(image))


def primes_below(n: int, count: int) -> tuple[int, ...]:
    """The ``count`` largest primes below n, by trial division."""
    odd = (m for m in range(n - 1 - n % 2, 1, -2) if all(m % q for q in range(3, isqrt(m) + 1, 2)))
    return tuple(next(odd) for _ in range(count))


def key_arrays(lines: Sequence[Line], d: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """The (L, 2, d + 1) keys and (L, 2) pivots of lines in R^d, each line
    row-reduced on its own by ``Line`` (``int_rref``)."""
    keys = int_array([line.key for line in lines]).reshape(len(lines), 2, -1 if lines else d + 1)
    return keys, np.array([line.pivots for line in lines], np.int64).reshape(len(lines), 2)


def loop_concurrence_buckets(lines: Sequence[Line]) -> dict[ProjPoint, set[int]]:
    """Every point where two or more of the lines meet, with the positions
    of the lines through it, in first-meeting pair order."""
    on_points: list[set[ProjPoint]] = [set() for _ in lines]
    buckets: dict[ProjPoint, set[int]] = {}
    for i, j in combinations(range(len(lines)), 2):
        if on_points[i] & on_points[j]:
            continue  # already bucketed at a shared point
        pt = loop_meet(lines[i], lines[j])
        if pt is None:
            continue
        buckets.setdefault(pt, set()).update((i, j))
        on_points[i].add(pt)
        on_points[j].add(pt)
    return buckets


def line_contains(line: Line, point: ProjPoint) -> bool:
    """Whether ``point`` lies on ``line``: its residual against the line's key vanishes."""
    if point.ambient_dim != line.ambient_dim:
        raise ValueError("point and line live in different ambient dimensions")
    return not any(residual(line, point.coords))


def rank_of_directions(lines: Sequence[Line], at: ProjPoint) -> int:
    """Projective dimension of the smallest flat containing concurrent lines.

    Every line must pass through ``at``; k concurrent lines spanning k
    independent directions have rank k, three concurrent coplanar lines
    have rank 2.
    """
    if not lines:
        raise ValueError("need at least one line")
    for ln in lines:
        if not line_contains(ln, at):
            raise ValueError(f"line {ln!r} does not pass through {at!r}")
    return int_rank([at.coords, *(row for ln in lines for row in ln.key)]) - 1


def loop_flatness_audit(cfg: ColoredLineConfig, s: IncidenceStructure, t: int) -> list[tuple]:
    """(point, refs, rank, flat) of each group of >= t lines, group by
    group: its witness met from two lines, and ``rank_of_directions`` of
    its lines through that point."""
    records = []
    for g, refs in enumerate(s.members):
        if len(refs) >= t:
            point = s.witness(g)
            rank = rank_of_directions([cfg.classes[c - 1][i] for c, i in refs], point)
            records.append((point, tuple(refs), rank, rank <= min(cfg.d, len(refs)) - 1))
    return records


def loop_planar_buckets(triples: Sequence[Sequence[int]]) -> list[list[int]]:
    """The sorted positions of the planar triples incident to each canonical
    cross product of two of them, in first-pair order: points give the
    covectors of their alignments, line covectors the points where the
    lines meet.  One projective element twice raises ValueError."""
    buckets: dict[tuple[int, ...], set[int]] = {}
    for (i, a), (j, b) in combinations(enumerate(triples), 2):
        buckets.setdefault(cross(a, b), set()).update((i, j))
    return [sorted(m) for m in buckets.values()]


def loop_alignments(classes: Sequence[Sequence[ProjPoint]]) -> dict[tuple[int, ...], set]:
    """Maximal collinear subsets of colored planar points, as refs keyed by
    the covector of their line, in first-pair order: the nullspace of each
    pair of points in turn."""
    points = [(c, i, p) for c, cls in enumerate(classes, start=1) for i, p in enumerate(cls)]
    line_map: dict[tuple[int, ...], set] = {}
    for (ca, ia, pa), (cb, ib, pb) in combinations(points, 2):
        null = int_nullspace([pa.coords, pb.coords], 3)
        if len(null) != 1:
            raise ValueError("a line needs two distinct points")
        line_map.setdefault(null[0], set()).update([(ca, ia), (cb, ib)])
    return line_map


def entries(groups: Iterable[Iterable[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The int64 entry arrays ``(group, line)`` of groups of line positions:
    each group as a sorted list, the groups in ``sorted`` order of those lists."""
    groups = sorted(map(sorted, groups))
    line = np.array([m for g in groups for m in g], np.int64)
    return np.repeat(np.arange(len(groups), dtype=np.int64), list(map(len, groups))), line


class PositionRecord(IncidenceStructure):
    """A record whose witness of a group is the tuple of its first two line
    positions (one for a group of one line), so a witness names its group."""

    def witness(self, g: int) -> tuple[int, ...]:
        lo, hi = np.searchsorted(self.group, [g, g + 1]).tolist()
        return tuple(self.line[lo : min(hi, lo + 2)].tolist())


def structure_of(
    monomials: Iterable[Collection[tuple[int, int]]], class_sizes: Sequence[int]
) -> IncidenceStructure:
    """The structure (a ``PositionRecord``) with the given groups of
    ``(color, index)`` refs."""
    first = [0, *accumulate(class_sizes)]
    groups = [[first[c - 1] + i for c, i in m] for m in monomials]
    return PositionRecord(tuple(class_sizes), *entries(groups))


def concurrency_center(lines: Sequence[Line]) -> ProjPoint | None:
    """Common point of a class of >= 2 lines, or None if not concurrent."""
    center = loop_meet(lines[0], lines[1]) if len(lines) >= 2 else None
    if center is not None and all(line_contains(ln, center) for ln in lines[2:]):
        return center
    return None


def with_computed_centers(cfg: ColoredLineConfig) -> ColoredLineConfig:
    """``cfg`` with the ``concurrency_center`` of each class recorded."""
    centers = [concurrency_center(cls) for cls in cfg.classes]
    return ColoredLineConfig.from_ends(cfg.d, cfg.ends, cfg.sizes, centers)


def _search_coloring(
    lines: Sequence[Line],
    buckets: Sequence[frozenset[int]],
    fixed: dict[int, int],
    free_order: Sequence[int],
    exempt_bucket: frozenset[int] | None,
    validate,
) -> ColoredLineConfig | None:
    """Backtracking color assignment: class sizes 3, no repeated color in any
    bucket (except an exempted concurrent-class bucket), canonical first-use
    order for the free colors; the first configuration ``validate`` returns wins."""
    colors = dict(fixed)
    counts = {c: 0 for c in (1, 2, 3, 4)}
    for c in fixed.values():
        counts[c] += 1

    def bucket_ok(idx: int) -> bool:
        for bucket in buckets:
            if bucket == exempt_bucket or idx not in bucket:
                continue
            seen = [colors[i] for i in bucket if i != idx and i in colors]
            if colors[idx] in seen:
                return False
        return True

    def rec(pos: int, max_used: int):
        if pos == len(free_order):
            classes: list[list[Line]] = [[], [], [], []]
            for i, line in enumerate(lines):
                classes[colors[i] - 1].append(line)
            try:
                cfg = ColoredLineConfig(3, classes)
            except ValueError:
                return None
            return validate(cfg)
        idx = free_order[pos]
        for c in range(1, min(max_used + 1, 4) + 1):
            if counts[c] >= 3:
                continue
            colors[idx] = c
            counts[c] += 1
            if bucket_ok(idx):
                found = rec(pos + 1, max(max_used, c))
                if found is not None:
                    return found
            counts[c] -= 1
            del colors[idx]
        return None

    return rec(0, max(fixed.values(), default=1))


def _validated(expect_concurrent: int, name: str):
    """``_validate_4x3`` as the search's ``validate``: None where it raises."""

    def validate(cfg: ColoredLineConfig) -> ColoredLineConfig | None:
        try:
            return _validate_4x3(cfg, expect_concurrent, name)
        except RuntimeError:
            return None

    return validate


def _colors_of(cfg: ColoredLineConfig, lines: Sequence[Line]) -> tuple[int, ...]:
    """The color of each of ``lines`` in ``cfg``, 0 for a line it leaves out."""
    color = {line.key: c for c, cls in enumerate(cfg.classes, start=1) for line in cls}
    return tuple(color.get(line.key, 0) for line in lines)


# Six planes as covectors: x = 0, y = 0, z = 0, x + y + z = w, x + 2y + 4z = 3w
# and x - 2z = -w, the sixth 2 * plane4 - plane5, so planes 4, 5 and 6 share a line.
DESARGUES_PLANES = (
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, -1), (1, 2, 4, -3), (1, 0, -2, 1)
)


def two_plane_lines() -> list[Line]:
    """The lines lying in exactly two of ``DESARGUES_PLANES``, plane pair by
    plane pair: each spanned by the ``int_nullspace`` of its two planes, and
    lying in every plane in their span."""
    lines: list[Line] = []
    for a, b in combinations(DESARGUES_PLANES, 2):
        line = Line(*map(ProjPoint, int_nullspace([a, b], 4)))
        containing = sum(int_rank([a, b, cov]) == 2 for cov in DESARGUES_PLANES)
        if containing == 2 and line not in lines:
            lines.append(line)
    return lines


def search_desargues_colors(lines: Sequence[Line]) -> tuple[int, ...] | None:
    """The first coloring of the 12 two-plane ``lines`` that passes
    ``_validate_4x3`` with one concurrent class, trying as that class each
    group of three lines whose directions span R^3."""
    one = ColoredLineConfig(3, [lines])
    s = extract_structure_lines(one)
    buckets = [frozenset(i for _, i in refs) for refs in s.members]
    start = s.firsts[np.diff(s.firsts, append=len(s.line)) == 3]
    triples = s.line[start[:, None] + np.arange(3)]  # the lines of each group of three
    spans = key_ranks(one.keys, triples, 4) == 4  # three directions span R^3
    candidates = [frozenset(t) for t in triples[spans].tolist()]
    for cand in candidates:
        fixed = {i: 1 for i in cand}
        free = [i for i in range(12) if i not in cand]
        cfg = _search_coloring(lines, buckets, fixed, free, cand, _validated(1, "Desargues"))
        if cfg is not None:
            return _colors_of(cfg, lines)
    return None


def search_reye_colors(lines: Sequence[Line]) -> tuple[int, ...] | None:
    """The first coloring of twelve of the 16 cube ``lines`` (0 for the four
    left out) that passes ``_validate_4x3`` with no concurrent class, over
    the four-line drops in ``combinations`` order that leave three lines
    on each of the 12 incidence points."""
    s = extract_structure_lines(ColoredLineConfig(3, [lines]))
    buckets = [frozenset(i for _, i in refs) for refs in s.members]
    if len(buckets) != 12 or any(len(b) != 4 for b in buckets):
        raise RuntimeError("cube lines do not form the expected 12x4 structure")
    memberships = [frozenset(i for i, b in enumerate(buckets) if idx in b) for idx in range(16)]
    if any(len(m) != 3 for m in memberships):
        raise RuntimeError("every cube line should lie on exactly 3 incidence points")

    for drop in combinations(range(16), 4):
        if len(frozenset().union(*(memberships[i] for i in drop))) != 12:
            continue  # four lines of three points each cover all 12 only if disjoint
        kept = [i for i in range(16) if i not in drop]
        kept_lines = [lines[i] for i in kept]
        remap = {old: new for new, old in enumerate(kept)}
        kept_buckets = [
            frozenset(remap[i] for i in bucket if i in remap) for bucket in buckets
        ]
        if any(len(b) != 3 for b in kept_buckets):
            continue
        cfg = _search_coloring(
            kept_lines, kept_buckets, {0: 1}, list(range(1, 12)), None, _validated(0, "Reye")
        )
        if cfg is not None:
            return _colors_of(cfg, lines)
    return None


def loop_bipartite_edges(A: Sequence[Line], B: Sequence[Line]):
    """(edge count, K_{3,3} witness or None) of the intersection graph of two
    line families, one exact ``loop_meet`` per cross pair: the first three A lines
    in ``combinations`` order with three common neighbors, and the three
    smallest of those."""
    masks = []
    for a in A:
        if any(a.key == b.key for b in B):
            raise ValueError("families share a line")
        masks.append(sum(1 << j for j, b in enumerate(B) if loop_meet(a, b) is not None))
    for i, j, l in combinations([i for i, m in enumerate(masks) if m.bit_count() >= 3], 3):
        common = masks[i] & masks[j] & masks[l]
        if common.bit_count() >= 3:
            bs = [b for b in range(len(B)) if common >> b & 1][:3]
            return sum(m.bit_count() for m in masks), ((i, j, l), tuple(bs))
    return sum(m.bit_count() for m in masks), None


def random_structure(seed: int, m: int, rainbow: bool) -> IncidenceStructure:
    """Random groups of 1..6 lines over m classes of 0..4 lines, colors
    repeating within a group and groups sharing any number of lines;
    ``rainbow`` gives the classes one size and adds, per index j, the group
    of every color's line j, which makes the structure k-consistent for
    every k."""
    rng = random.Random(seed)
    size = rng.randint(1, 3)
    sizes = [size if rainbow else rng.randint(0, 4) for _ in range(m)]
    refs = [(c, i) for c, s in enumerate(sizes, start=1) for i in range(s)]
    groups = {
        frozenset(rng.sample(refs, min(len(refs), rng.randint(1, 6))))
        for _ in range(rng.randint(0, 3 * m)) if refs
    }
    if rainbow:
        groups |= {frozenset((c, j) for c in range(1, m + 1)) for j in range(size)}
    return structure_of(groups, sizes)


def set_audit_projection(
    before: IncidenceStructure, after: IncidenceStructure, d: int
) -> tuple[bool, frozenset]:
    """The projection audit on the structures' monomials as sets: equal in
    d >= 3; in the plane, every source monomial survives and every new one
    is a pair of lines that shares no source monomial.  Returns (passes,
    the new monomials)."""
    if d >= 3:
        return before.monomials == after.monomials, frozenset()
    if not before.monomials <= after.monomials:
        return False, frozenset()
    extras = after.monomials - before.monomials
    source_pairs = {
        frozenset(pair) for old in before.monomials for pair in combinations(old, 2)
    }
    if any(len(m) != 2 or m in source_pairs for m in extras):
        return False, frozenset()
    return True, frozenset(extras)


def gridline_from_index(k: int, n: int, axis: int, index: int) -> GridLine:
    """The axis line with the given base index: big-endian over the
    non-axis slots in ascending order, digit v for coordinate v+1."""
    base = [0] * (k + 1)
    rem = index
    slots = [s for s in range(1, k + 2) if s != axis]
    for t, slot in enumerate(slots):
        power = n ** (k - 1 - t)
        base[slot - 1] = rem // power + 1
        rem %= power
    return GridLine(axis, tuple(base))


def dense_deletion(k: int, n: int, masks: list[np.ndarray]):
    """(final masks, covered points) from the whole n^(k+1) coverage cube."""
    shaped = [m.reshape((n,) * k) for m in masks]
    full = None
    for axis in range(1, k + 2):
        cov = np.expand_dims(shaped[axis - 1], axis=axis - 1)
        full = cov if full is None else full & cov
    covered = int(full.sum())
    final = [
        shaped[axis - 1] & ~full.any(axis=axis - 1) for axis in range(1, k + 2)
    ]
    return [m.reshape(-1) for m in final], covered


def sparse_deletion(k: int, n: int, masks: list[np.ndarray]):
    """(final masks, covered points) from the axis bitmask of every point
    of every selected line."""
    coverage: dict[tuple[int, ...], int] = {}
    per_axis_points: list[list[tuple[int, list[tuple[int, ...]]]]] = []
    for axis in range(1, k + 2):
        entries = []
        for index in np.nonzero(masks[axis - 1])[0]:
            line = gridline_from_index(k, n, axis, int(index))
            pts = [line.point_at(v) for v in range(1, n + 1)]
            for pt in pts:
                coverage[pt] = coverage.get(pt, 0) | (1 << (axis - 1))
            entries.append((int(index), pts))
        per_axis_points.append(entries)
    all_axes = (1 << (k + 1)) - 1
    covered = sum(1 for v in coverage.values() if v == all_axes)
    final = []
    for axis in range(1, k + 2):
        keep = masks[axis - 1].copy()
        for index, pts in per_axis_points[axis - 1]:
            if any(coverage[pt] == all_axes for pt in pts):
                keep[index] = False
        final.append(keep)
    return final, covered


def dense_trial_stats(k: int, n: int, final: list[np.ndarray]) -> tuple[int, int]:
    """(bad lines, max colorful order) from the whole n^(k+1) cubes: an
    axis count per grid point, and per line and (k-1)-subset T of the
    other axes an ANY over the line of the AND of T's coverage."""
    shaped = [m.reshape((n,) * k) for m in final]
    expanded = [
        np.expand_dims(shaped[axis - 1], axis=axis - 1) for axis in range(1, k + 2)
    ]
    counts = np.zeros((n,) * (k + 1), dtype=np.uint8)
    for cov in expanded:
        counts = counts + cov
    top = int(counts.max()) if counts.size else 0
    bad_total = 0
    for axis in range(1, k + 2):
        others = [a for a in range(1, k + 2) if a != axis]
        bad = np.zeros_like(shaped[axis - 1])
        for T in combinations(others, k - 1):
            cov = None
            for j in T:
                cov = expanded[j - 1] if cov is None else cov & expanded[j - 1]
            bad |= shaped[axis - 1] & ~cov.any(axis=axis - 1)
        bad_total += int(bad.sum())
    return bad_total, top if top >= 2 else 0


def _proj_v(slope: Fraction, beta: Fraction, pt: tuple[Fraction, Fraction]):
    return (pt[0], slope * pt[0] + beta)


def _proj_h(slope: Fraction, beta: Fraction, pt: tuple[Fraction, Fraction]):
    return ((pt[1] - beta) / slope, pt[1])


def six_fold_map(
    alphas: Sequence[Rational],
    betas: Sequence[Rational],
    point: tuple[Rational, Rational],
) -> tuple[Fraction, Fraction]:
    """One pass of the alternating projection cycle starting on the middle line.

    Lines are y = alpha_i x + beta_i for i = 2, 3, 4; the cycle applies
    h->4, v->2, h->3, v->4, h->2, v->3 in that order.
    """
    a2, a3, a4 = (Fraction(a) for a in alphas)
    b2, b3, b4 = (Fraction(b) for b in betas)
    pt = (Fraction(point[0]), Fraction(point[1]))
    pt = _proj_h(a4, b4, pt)
    pt = _proj_v(a2, b2, pt)
    pt = _proj_h(a3, b3, pt)
    pt = _proj_v(a4, b4, pt)
    pt = _proj_h(a2, b2, pt)
    pt = _proj_v(a3, b3, pt)
    return pt


def closure_shift(alphas: Sequence[Rational], betas: Sequence[Rational]) -> Fraction:
    """x-shift of one six-fold cycle pass when beta_2 = beta_3 = 0."""
    a2, a3, _ = (Fraction(a) for a in alphas)
    b4 = Fraction(betas[2])
    return (a3 - a2) / (a3 * a2) * b4


def fraction_canonical_ints(values: Sequence) -> tuple[int, ...]:
    """A rational vector as ``Fraction``s scaled by their common
    denominator, divided by its gcd and sign-fixed so that its first
    nonzero entry is positive; ValueError for a zero vector.  Integers
    enter through ``int``: ``Fraction`` keeps a numpy integer as it is,
    and it wraps when scaled."""
    fracs = [v if isinstance(v, Fraction) else Fraction(int(v)) for v in values]
    scale = lcm(*(f.denominator for f in fracs))
    row = [int(f * scale) for f in fracs]
    g = gcd(*row)
    if not g:
        raise ValueError("zero vector")
    if next(x for x in row if x) < 0:
        g = -g
    return tuple(x // g for x in row)


def translated_dual(cfg: ColoredLineConfig) -> tuple[int, DualPointConfig]:
    """(j, dual) of a planar configuration: the least j >= 0 for which no
    line passes through (-j, -j^2), and the pole-polar dual of the lines
    after translating their spanning points by (j, j^2)."""
    lines = [line for cls in cfg.classes for line in cls]
    j = 0
    while any(line_contains(line, ProjPoint([-j, -j * j, 1])) for line in lines):
        j += 1
    shift = [[1, 0, j], [0, 1, j * j], [0, 0, 1]]
    classes = []
    for cls in cfg.classes:
        points = []
        for line in cls:
            moved = Line(loop_apply_matrix(shift, line.p), loop_apply_matrix(shift, line.q))
            a, b, c = line_covector_2d(moved)
            points.append(ProjPoint([a, b, -c]))
        classes.append(points)
    return j, DualPointConfig(classes)


def fraction_xy(p: ProjPoint) -> tuple[float, float]:
    """The affine coordinates of a finite planar point as floats of ``Fraction``s."""
    x, y, w = p.coords
    return float(Fraction(x, w)), float(Fraction(y, w))


def dump_json(data) -> str:
    """The bytes every JSON file and printed report of the CLI must have."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


ASCII_INTS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")
