"""Combinatorial model of axis-aligned lines in the grid [n]^(k+1), and the
incidence record and core shared by every configuration model.

A configuration stores each class as one sorted array of int64 line ids,
the only representation of a grid line, so all incidence questions reduce
to integer bookkeeping.  The axis-a line with coordinates c_1..c_k on its
other slots has the id (a-1)*n^k + the big-endian base-n number with
digits c_t - 1, so ids sort by axis, then by coordinates.  A point's id
is that number over all k+1 coordinates, so id order is lexicographic
order.  Ids and their intermediates stay below max(n, k+1)*n^k, which
``_line_count`` keeps below 2^63.

Every verdict reads one record, an ``IncidenceStructure``: int64 entry
arrays ``(group, line)`` of the incidence groups of a configuration, the
grid points of ``ColoredGridConfig.points`` here, the extracted
concurrences or alignments in ``structure``.  The incidence core
(``group_*``) decides k-consistency, minimality and the max colorful
order from a record, for grid, line and dual configurations alike.
Colors are 1-based class indices; verdicts name a line ``(color,
index)``, by its position in id order.  Carriers of a color set come from
the record's color x group table (``carriers``), and a verdict counts its
failures from index arrays, building the list only on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, repeat
from operator import index
from typing import Sequence

import numpy as np

from .exactgeom import common_rows, line_keys

LineRef = tuple[int, int]
Monomial = frozenset[LineRef]
ONE_KEY_MAX = 2**63 - 1  # the largest one-key entry of ``ColoredGridConfig.incidences``


def _line_count(k: int, n: int) -> int:
    """(k+1)*n^k, once line and point ids are known to fit int64."""
    if k < 2 or n < 1:
        raise ValueError("the grid model needs k >= 2 and n >= 1")
    if (n > 1 and k >= 63) or max(n, k + 1) * n**k >= 2**63:
        raise ValueError(f"grid too large (k={k}, n={n}): n^(k+1), (k+1)*n^k must be < 2^63")
    return (k + 1) * n**k


def _starts(x: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values."""
    return np.concatenate((x[:1] == x[:1], x[1:] != x[:-1]))


def _digits(ids: np.ndarray, n: int, width: int) -> np.ndarray:
    """The ``width`` big-endian base-n digits of each id, one row per id."""
    return ids[:, None] // n ** np.arange(width - 1, -1, -1) % n


def _grid_ends(k: int, n: int, ids: np.ndarray) -> np.ndarray:
    """The (L, 2, k + 2) endpoint rows of grid lines in R^(k+1), straight from
    the id digits: the affine point of the base digits + 1 with a 1 in the
    axis slot, and the axis direction (both already canonical)."""
    axes, digits = ids // n**k, _digits(ids % n**k, n, k) + 1
    slot, at = np.arange(k + 1), np.arange(len(ids))
    ends = np.zeros((len(ids), 2, k + 2), np.int64)
    ends[:, 0, : k + 1] = digits[at[:, None], np.minimum(slot - (slot > axes[:, None]), k - 1)]
    ends[at, 0, axes] = ends[at, 1, axes] = 1
    ends[:, 0, k + 1] = 1
    return ends


class _GridKeys:
    """The key rows of a grid configuration's lines in R^(k+1), built for the
    positions asked for (a verdict that asks for none holds no row)."""

    def __init__(self, cfg: ColoredGridConfig):
        self.cfg = cfg

    def __getitem__(self, at: np.ndarray) -> np.ndarray:
        ids = np.concatenate((np.empty(0, np.int64), *self.cfg.ids))[at]
        return line_keys(_grid_ends(self.cfg.k, self.cfg.n, ids))[0]


@dataclass(frozen=True, eq=False)
class ColoredGridConfig:
    """Colored axis-aligned lines in [n]^(k+1): class c is ``ids[c-1]``, a
    sorted int64 array of line ids.  A class passed in is a 1-d integer
    array (or sequence) of line ids, kept, not copied, if sorted int64: do
    not modify it.  A repeated line is named by its axis and base, as in a
    grid file."""

    k: int
    n: int
    ids: tuple[np.ndarray, ...]

    def __init__(self, k: int, n: int, classes: Sequence):
        k, n = index(k), index(n)  # Python ints, so the bound check is exact
        count = _line_count(k, n)
        ids, merge = [], False  # merge: a class came unsorted, so it may repeat a line
        for c in classes:
            c = np.asarray(c)
            if c.ndim != 1 or c.size and c.dtype.kind not in "iu":
                raise ValueError("a grid class is a 1-d array of integer line ids")
            c = c.astype(np.int64, copy=False)
            if not np.all(c[1:] > c[:-1]):
                c, merge = np.sort(c), True
            ids.append(c)
        spans = sorted((int(c[0]), int(c[-1])) for c in ids if c.size)
        if spans and (spans[0][0] < 0 or max(last for _, last in spans) >= count):
            raise ValueError("line id out of range for the grid")
        # increasing classes on disjoint id ranges share no line: merge only if needed
        if merge or any(first <= last for (_, last), (first, _) in zip(spans, spans[1:])):
            every = np.sort(np.concatenate(ids))
            dup = every[1:][every[1:] == every[:-1]]
            if dup.size:
                axis, base = dup[0] // n**k + 1, (_digits(dup[:1] % n**k, n, k)[0] + 1).tolist()
                raise ValueError(f"duplicate line in the configuration: axis {axis}, base {base}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ids", tuple(ids))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredGridConfig) or len(self.ids) != len(other.ids):
            return False
        same = (self.k, self.n) == (other.k, other.n)
        return same and all(map(np.array_equal, self.ids, other.ids))

    @property
    def num_colors(self) -> int:
        return len(self.ids)

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(cls) for cls in self.ids)

    @cached_property
    def points(self) -> "IncidenceStructure":
        """The verdict record: the grid-point groups of ``incidences``, in point
        order, witnessed by the lines' keys in R^(k+1) (``_GridKeys``)."""
        return IncidenceStructure(self.class_sizes(), *self.incidences[1:], _GridKeys(self))

    def coordinates(self, points: np.ndarray) -> list[tuple[int, ...]]:
        """The coordinates of an array of point ids."""
        return list(map(tuple, (_digits(points, self.n, self.k + 1) + 1).tolist()))

    @cached_property
    def incidences(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(points, group, line): the ids of the grid points on two or more
        lines in lexicographic order, and the core's entries of the lines
        through them; built once and shared, so do not modify them.

        Lines on axes a < b meet iff their point ids with slots a and b
        zeroed match: each axis pair is matched on keys sorted on both
        sides.  A match's two entries are written as keys point id * L +
        line position, L the line count, into one array sorted in place, so
        runs are points and a line through a point of r lines (matched r-1
        times there) is kept once.  The key is exact while (p + 1) * L <=
        ``ONE_KEY_MAX`` = 2^63 - 1, p the largest point id on any line,
        checked in Python ints; above that, the entries are (point id, line)
        rows, sorted by two keys (``np.lexsort``)."""
        k, n = self.k, self.n
        ids = np.concatenate((np.empty(0, np.int64), *self.ids))
        axis, base = ids // n**k, ids % n**k
        weight = n ** (k - axis)  # of the line's own slot in a point id
        zeroed = base // weight * (weight * n) + base % weight
        size = len(ids)
        one_key = (int((zeroed + (n - 1) * weight).max(initial=0)) + 1) * size <= ONE_KEY_MAX
        pairs = []  # per axis pair: both sides' lines and point-id parts in key order, the matches
        for a, b in combinations(range(k + 1), 2):
            wa, wb = n ** (k - a), n ** (k - b)
            on_a, on_b = np.flatnonzero(axis == a), np.flatnonzero(axis == b)
            za, zb = zeroed[on_a], zeroed[on_b]
            key_a, key_b = za - za // wb % n * wb, zb - zb // wa % n * wa
            sa, sb = np.argsort(key_a), np.argsort(key_b)
            key_a, key_b, slot_a = key_a[sa], key_b[sb], (zb - key_b)[sb]
            lo = np.searchsorted(key_b, key_a, "left")
            count = np.searchsorted(key_b, key_a, "right") - lo
            pairs.append((on_a[sa], za[sa], on_b[sb], slot_a, lo, count))
        # per pair its A-lines' entries, then its B-lines': one row of keys, or point ids and lines
        entry = np.zeros((2 - one_key, 2 * sum(int(p[-1].sum()) for p in pairs)), np.int64)
        at = 0
        for on_a, za, on_b, slot_a, lo, count in pairs:
            ma = np.repeat(np.arange(len(on_a)), count)  # each match: A-line, B-line
            mb = np.arange(len(ma)) + np.repeat(lo - np.cumsum(count) + count, count)
            a_part, b_part = slice(at, at + len(ma)), slice(at + len(ma), at + 2 * len(ma))
            np.multiply(za[ma] + slot_a[mb], size if one_key else 1, out=entry[0, a_part])
            entry[0, b_part] = entry[0, a_part]
            entry[-1, a_part] += on_a[ma]
            entry[-1, b_part] += on_b[mb]
            at += 2 * len(ma)
        del pairs, ma, mb
        if one_key:  # a line through a point of r lines was matched r-1 times there
            entry = entry.reshape(-1)
            entry.sort()
            entry = entry[_starts(entry)]
            pid, line = np.divmod(entry, size, out=(np.empty_like(entry), entry))
        else:  # rows of point ids and lines: sorted by two keys, repeats dropped
            order = np.lexsort(entry[::-1])
            for row in entry:  # one row at a time: a single row-sized temporary
                row[:] = row[order]
            pid, line = entry = entry[:, _starts(entry[0]) | _starts(entry[1])]
        new = _starts(pid)
        points = pid[new]
        del pid, entry  # before the group ids
        return points, np.cumsum(new) - 1, line


@dataclass(frozen=True, eq=False)
class ConsistencyVerdict:
    """Outcome of a k-consistency check, counted from index arrays: ``runs``
    holds (color, S, the failing lines' int64 indices) for each (color, S),
    in failure order.  ``ok``, ``total`` and ``first(limit)`` read the arrays;
    the full ``failures`` tuple of ((color, index), S) is built on request."""

    runs: tuple[tuple[int, frozenset[int], np.ndarray], ...]

    @property
    def ok(self) -> bool:
        return not self.total

    @cached_property
    def total(self) -> int:
        return sum(len(idx) for _, _, idx in self.runs)

    def first(self, limit: int) -> list[tuple[LineRef, frozenset[int]]]:
        out: list[tuple[LineRef, frozenset[int]]] = []
        for c, S, idx in self.runs:
            out += zip(zip(repeat(c), idx[: max(0, limit - len(out))].tolist()), repeat(S))
        return out

    @cached_property
    def failures(self) -> tuple[tuple[LineRef, frozenset[int]], ...]:
        return tuple(self.first(self.total))

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# The incidence record and core.  Entries (group, line), sorted by group then
# line, put each line (its position in class order) into a group at most once;
# the distinct (group, color) pairs decide which groups carry a color set.


@dataclass(frozen=True, eq=False)
class IncidenceStructure:
    """Maximal concurrences as entry arrays, the record every verdict reads;
    ``rows[positions]``: the lines' rows witnesses come from (line keys,
    planar covectors or dual points).  Extracted structures order their
    groups by one rule (``structure._ordered``); a grid's record
    (``ColoredGridConfig.points``) keeps point order.  Equality ignores
    ``rows``: witnesses differ across incidence-preserving transforms."""

    class_sizes: tuple[int, ...]
    group: np.ndarray
    line: np.ndarray
    rows: object = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IncidenceStructure) or self.class_sizes != other.class_sizes:
            return False
        return np.array_equal(self.group, other.group) and np.array_equal(self.line, other.line)

    @property
    def num_colors(self) -> int:
        return len(self.class_sizes)

    @cached_property
    def firsts(self) -> np.ndarray:
        """The first entry of each group."""
        return np.flatnonzero(_starts(self.group))

    @cached_property
    def carriers(self) -> np.ndarray:
        """carriers[c-1, g]: group g holds a line of color c, one byte per
        (color, group); sized by the last group id."""
        group, line = self.group, self.line
        has = np.zeros((self.num_colors, group[-1] + 1 if group.size else 0), bool)
        has[np.searchsorted(np.cumsum((0, *self.class_sizes)), line, "right") - 1, group] = True
        return has

    @cached_property
    def own(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``own[c-1]``: (positions in class c, groups) of color c's entries, groups ascending."""
        line, first = self.line, np.cumsum((0, *self.class_sizes), dtype=np.int64)
        mine = (np.flatnonzero((lo <= line) & (line < hi)) for lo, hi in zip(first, first[1:]))
        return [(line[i] - lo, self.group[i]) for lo, i in zip(first, mine)]

    @cached_property
    def members(self) -> list[list[LineRef]]:
        """Each group's lines as sorted ``(color, index)`` refs, in group order."""
        refs = [(c, i) for c, size in enumerate(self.class_sizes, start=1) for i in range(size)]
        line, firsts = [refs[i] for i in self.line.tolist()], self.firsts.tolist()
        return [line[a:b] for a, b in zip(firsts, [*firsts[1:], len(line)])]

    @cached_property
    def monomials(self) -> frozenset[Monomial]:
        """The groups as frozensets of refs."""
        return frozenset(map(frozenset, self.members))

    def colorful_triples(self) -> frozenset[Monomial]:
        """Monomials of exactly three lines in three distinct colors."""
        return frozenset(
            m for m in self.monomials if len(m) == 3 and len({c for c, _ in m}) == 3
        )

    def witnesses(self, groups: np.ndarray) -> np.ndarray:
        """Canonical rows of the groups' points (dual: covectors), ``common_rows`` of two lines' rows."""
        first = self.firsts[groups]
        return common_rows(self.rows[self.line[first]], self.rows[self.line[first + 1]])[0]

    def witness(self, g: int) -> tuple[int, ...]:
        """Group g's point (or covector) as a canonical row: ``witnesses`` of the one group."""
        return tuple(self.witnesses(np.array([g]))[0].tolist())

    def max_colorful(self) -> tuple[int, tuple[int, ...] | None]:
        """Largest color count over all groups, with the witness of the
        first group reaching it."""
        order, at = group_max_colorful(self)
        return order, None if at is None else self.witness(at)

    def inner_pairs(self) -> np.ndarray:
        """i * L + j for every two of the L lines, i < j, that share a group."""
        n = self.group.size
        later = np.searchsorted(self.group, self.group, "right") - np.arange(n) - 1
        left = np.repeat(np.arange(n), later)  # each entry once per entry after it in its group
        right = left + 1 + np.arange(left.size) - np.repeat(np.cumsum(later) - later, later)
        return self.line[left] * sum(self.class_sizes) + self.line[right]


def _carriers(s: IncidenceStructure, k: int):
    """Per (k-1)-set T of colors in ``combinations`` order and c not in T, (c, T, at), ``at``
    marking c's entries (``s.own``) at the groups carrying T: the AND of T's rows of
    ``s.carriers``.  A k outside 1..m raises ValueError."""
    m = s.num_colors
    if not 1 <= k <= m:
        raise ValueError("k must be >= 1" if k < 1 else "k exceeds the number of colors")
    has, own = s.carriers, s.own  # both built before any per-T array

    def carrying():
        for T in combinations(range(1, m + 1), k - 1) if k > 1 else ():
            carries = has[T[0] - 1].copy()  # ANDed in place: one row-sized array per T
            for t in T[1:]:
                carries &= has[t - 1]
            for c in sorted(set(range(1, m + 1)).difference(T)):
                yield c, T, carries[own[c - 1][1]]

    return carrying()


def group_consistency(s: IncidenceStructure, k: int) -> ConsistencyVerdict:
    """k-consistency over incidence groups: line (c, i) fails S = {c} | T
    when no group through it carries every color of T.  Failures are
    listed by color, then T in ``combinations`` order, then index."""
    runs: list[list] = [[] for _ in s.class_sizes]
    for c, T, at in _carriers(s, k):
        good = np.zeros(s.class_sizes[c - 1], bool)
        good[s.own[c - 1][0][at]] = True
        runs[c - 1].append((c, frozenset((c, *T)), np.flatnonzero(~good)))
    return ConsistencyVerdict(tuple(chain.from_iterable(runs)))


def group_removable(s: IncidenceStructure, k: int) -> tuple[LineRef, ...]:
    """Lines whose removal keeps a k-consistent configuration k-consistent.

    Removing r changes only the groups through r, and such a group stops
    carrying T iff r is its only line of a color in T (a group left with
    one line carries no T, as T never holds that line's color).  So r is
    essential iff, for some line l and some T of l, that holds for r in
    every group through l carrying T ("carriers" below).  Two groups
    through l share only l, whose color is not in T, so that needs l to
    have exactly one carrier: one pass decides every line.  Raises
    ValueError if some (l, T) has no carrier at all.
    """
    carrying, own, sizes = _carriers(s, k), s.own, s.class_sizes
    # an entry alone of its color in its group is both first and last of its run
    solo = [x & np.roll(x, -1) for x in (_starts(at) for _, at in own)]
    essential = [np.zeros(size, bool) for size in sizes]
    for c, T, at in carrying:
        lines, groups = own[c - 1][0][at], own[c - 1][1][at]
        carriers = np.bincount(lines, minlength=sizes[c - 1])
        if (carriers == 0).any():
            raise ValueError("minimality audit requires a k-consistent configuration")
        single = groups[carriers[lines] == 1]  # the only carrier of some line
        for t in T:  # such a group carries t: is its first line of color t alone?
            pos, at_t = own[t - 1]
            first = np.searchsorted(at_t, single)
            essential[t - 1][pos[first[solo[t - 1][first]]]] = True
    keep = [np.flatnonzero(~e).tolist() for e in essential]
    return tuple((c, i) for c, idx in enumerate(keep, start=1) for i in idx)


def group_max_colorful(s: IncidenceStructure) -> tuple[int, int | None]:
    """Largest color count over the groups, with the first group reaching
    it: the column sums of the carrier table."""
    orders = s.carriers.sum(axis=0, dtype=np.min_scalar_type(s.num_colors))  # a byte to 255
    best = int(orders.argmax()) if orders.size else None
    return (0, None) if best is None else (int(orders[best]), best)


# Grid entry points.  Their record is ``points``, the grid points of
# ``incidences`` only: the grid has no points at infinity (two lines on one
# axis never meet in it), so the shared-axis directions that
# ``extract_structure_grid`` adds never count.


def is_k_consistent(cfg: ColoredGridConfig, k: int) -> ConsistencyVerdict:
    """Check that every line of every color in every k-subset S has an S-incidence."""
    return group_consistency(cfg.points, k)


def breaks_consistency_without(cfg: ColoredGridConfig, k: int, ref: LineRef) -> bool:
    """True iff removing the referenced line makes the configuration inconsistent."""
    ids = list(cfg.ids)
    ids[ref[0] - 1] = np.delete(ids[ref[0] - 1], ref[1])
    return not is_k_consistent(ColoredGridConfig(cfg.k, cfg.n, ids), k).ok


def max_colorful_order(cfg: ColoredGridConfig) -> tuple[int, tuple[int, ...] | None]:
    """Largest number of distinct colors at any grid point, with the
    lexicographically first point reaching it."""
    order, at = group_max_colorful(cfg.points)
    return order, None if at is None else cfg.coordinates(cfg.incidences[0][at : at + 1])[0]


def grid_to_json(cfg: ColoredGridConfig) -> dict:
    """The grid file's dict: one class entry per (color, axis) present, an
    empty class as axis 1.  ``bases`` is an (m, k) int64 array of 1-based
    coordinates, written as rows by ``cli._dump_json`` (``json`` needs lists)."""
    k, n = cfg.k, cfg.n
    classes = []
    for color, ids in enumerate(cfg.ids, start=1):
        bases = _digits(ids % n**k, n, k) + 1
        cuts = np.searchsorted(ids, np.arange(k + 2) * n**k).tolist()
        for axis, (lo, hi) in enumerate(zip(cuts, cuts[1:]), start=1):
            if lo < hi or not ids.size and axis == 1:  # an empty class keeps its color
                classes.append({"color": color, "axis": axis, "bases": bases[lo:hi]})
    return {"model": "grid", "k": k, "n": n, "classes": classes}


def grid_from_json(data: dict) -> ColoredGridConfig:
    """The configuration of a grid file.  ``k``, ``n``, colors, axes and
    base entries must be JSON ints (no bools, floats or strings), each color
    in 1..len(classes), each axis in 1..k+1 and each base k entries in
    1..n; else ValueError, naming ``classes[i]`` for a bad entry."""
    if data.get("model", "grid") != "grid":
        raise ValueError("not a grid configuration")
    k, n, entries = data["k"], data["n"], data["classes"]
    if type(k) is not int or type(n) is not int or not isinstance(entries, list):
        raise ValueError("a grid configuration needs integer k and n and a list of classes")
    span = _line_count(k, n) // (k + 1)
    classes: list[list[np.ndarray]] = [[] for _ in entries]
    for pos, entry in enumerate(entries):
        color, axis, bases = entry["color"], entry["axis"], entry["bases"]
        # bulk checks (lists of k entries, all ints; [None] fails them), then one read
        exact = type(bases) is list and set(map(type, bases)) <= {list}
        flat = list(chain.from_iterable(bases)) if exact and set(map(len, bases)) <= {k} else [None]
        exact = type(color) is type(axis) is int and set(map(type, flat)) <= {int}
        try:
            rows = exact and np.fromiter(flat, np.int64, len(flat)).reshape(-1, k)
        except OverflowError:  # an int past int64
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
