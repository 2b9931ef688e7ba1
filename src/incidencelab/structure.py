"""Incidence structures: the maximal concurrences of a configuration.

A structure holds the incidence core's int64 entry arrays ``(group,
line)``: one group per concurrency point, listing the positions (in class
order) of the lines through it, sorted by group, then line, with groups
ascending by their two smallest lines (``_ordered``), so equal structures
have equal arrays.  All maximal concurrences are kept, including
single-color ones (the center of a concurrent class, or the shared
direction of a parallel class), so transform preservation audits can
compare structures exactly.
A group's witness, its point, is met exactly from its first two lines
only when asked.  ``monomials``, the groups as frozensets of ``(color,
index)`` refs, is a view derived when asked; the classification tables of
4x3 configurations read its colorful triples (``colorful_triples``).

For dual point configurations the same record type holds the maximal
*alignments* (collinear subsets), witnessed by their covectors: the dual
notion of concurrences, so the consistency checks apply unchanged.

Both come from numpy kernels over the pairs on residues mod a prime: in
the plane (``planar_buckets``) pairs group by their cross product (the
line through two points, or the point where two lines meet); in d >= 3
(``concurrence_buckets``, on a configuration's key and pivot arrays) skew
pairs are certified in bulk and the others grouped by their meeting
point.  One exact step (``_confirmed``) turns the residue groups of both
into entry arrays, and the ordering rule orders every structure's groups,
grid structures too, whose shared axis directions, one group each, grid
verifiers never count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Callable, Iterator, Sequence

import numpy as np

from .configs import ColoredLineConfig, DualPointConfig, _grid_lines, _lines
from .exactgeom import (
    PRIME,
    ProjPoint,
    canonical_rows,
    covector_2d,
    cross_rows,
    has_duplicate_rows,
    int_array,
    meet,
    residues,
)
from .gridmodel import (
    ColoredGridConfig,
    ConsistencyVerdict,
    LineRef,
    group_consistency,
    group_max_colorful,
)
from .rng import mix64

Monomial = frozenset[LineRef]


def _bounds(group: np.ndarray) -> list[int]:
    """The first entry of each group of sorted entries, then the entry count."""
    return [*np.flatnonzero(np.diff(group, prepend=-1)).tolist(), len(group)]


@dataclass(frozen=True, eq=False)
class IncidenceStructure:
    """Maximal concurrences as entry arrays; ``meet_of(i, j)`` is the point
    (or covector) shared by the lines at positions i and j.  Equality
    ignores it: witnesses differ across incidence-preserving transforms."""

    class_sizes: tuple[int, ...]
    group: np.ndarray
    line: np.ndarray
    meet_of: Callable[[int, int], object] | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IncidenceStructure) or self.class_sizes != other.class_sizes:
            return False
        return np.array_equal(self.group, other.group) and np.array_equal(self.line, other.line)

    @property
    def num_colors(self) -> int:
        return len(self.class_sizes)

    @cached_property
    def bounds(self) -> list[int]:
        """The first entry of each group, then the entry count."""
        return _bounds(self.group)

    @property
    def num_groups(self) -> int:
        return len(self.bounds) - 1

    @cached_property
    def members(self) -> list[list[LineRef]]:
        """Each group's lines as sorted ``(color, index)`` refs, in group order."""
        refs = [(c, i) for c, size in enumerate(self.class_sizes, start=1) for i in range(size)]
        line = [refs[i] for i in self.line.tolist()]
        return [line[a:b] for a, b in zip(self.bounds, self.bounds[1:])]

    @cached_property
    def monomials(self) -> frozenset[Monomial]:
        """The groups as frozensets of refs."""
        return frozenset(map(frozenset, self.members))

    def colorful_triples(self) -> frozenset[Monomial]:
        """Monomials of exactly three lines in three distinct colors."""
        return frozenset(
            m for m in self.monomials if len(m) == 3 and len({c for c, _ in m}) == 3
        )

    def witness(self, g: int):
        """Group g's point (or covector), computed from its first two lines."""
        lo, hi = self.bounds[g : g + 2]
        return self.meet_of(*self.line[lo : min(hi, lo + 2)].tolist())

    def max_colorful(self) -> tuple[int, object | None]:
        """Largest color count over all groups, with the witness of the
        first group reaching it."""
        order, at = group_max_colorful(self.class_sizes, self.group, self.line)
        return order, None if at is None else self.witness(at)

    def inner_pairs(self) -> np.ndarray:
        """i * L + j for every two of the L lines, i < j, that share a group."""
        n = self.group.size
        later = np.searchsorted(self.group, self.group, "right") - np.arange(n) - 1
        left = np.repeat(np.arange(n), later)  # each entry once per entry after it in its group
        right = left + 1 + np.arange(left.size) - np.repeat(np.cumsum(later) - later, later)
        return self.line[left] * sum(self.class_sizes) + self.line[right]


def _ordered(group: np.ndarray, line: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry arrays of groups of two or more lines (runs of ``group``, lines
    ascending) in every structure's order, ascending by first * L + second, L
    above every line: two points share at most one line, so no two share it."""
    start = np.flatnonzero(np.diff(group, prepend=-1))
    order = np.argsort(line[start] * (int(line.max(initial=0)) + 1) + line[start + 1])
    size = np.diff(start, append=len(line))[order]
    at = np.repeat(start[order] - np.cumsum(size) + size, size) + np.arange(len(line))
    return np.repeat(np.arange(len(size), dtype=np.int64), size), line[at]


def extract_structure_grid(cfg: ColoredGridConfig) -> IncidenceStructure:
    """Grid-point concurrences plus one group per shared axis direction;
    witnesses meet the two lines embedded in R^(k+1)."""
    _, group, line = cfg.incidences
    ids = np.concatenate((np.empty(0, np.int64), *cfg.ids))
    axes = ids // cfg.n**cfg.k
    shared = np.flatnonzero(np.bincount(axes)[axes] >= 2)  # lines sharing their axis
    shared = shared[np.argsort(axes[shared], kind="stable")]
    group = np.concatenate((group, axes[shared] + group.size))  # runs after the point groups
    group, line = _ordered(group, np.concatenate((line, shared)))
    meet_of = lambda i, j: meet(*_grid_lines(cfg.k, cfg.n, ids[[i, j]]))  # noqa: E731
    return IncidenceStructure(cfg.class_sizes(), group, line, meet_of)


# Side of the square tiles of pairs the kernels work on (at most n); bounds their temporaries.
TILE = 1 << 8


def _inverse(x: np.ndarray, p: int) -> np.ndarray:
    """Inverses of nonzero residues mod p: a product tree with one ``pow``."""
    levels = [np.concatenate((x, np.ones((1 << (len(x) - 1).bit_length()) - len(x), np.int64)))]
    while len(levels[-1]) > 1:
        levels.append(levels[-1][0::2] * levels[-1][1::2] % p)
    inv = np.array([pow(int(levels[-1][0]), p - 2, p)], np.int64)
    for v in reversed(levels[:-1]):
        inv = np.stack((inv * v[1::2] % p, inv * v[0::2] % p), axis=1).ravel()
    return inv[: len(x)]


def _scaled(rows: np.ndarray, p: int) -> np.ndarray:
    """Residue rows scaled in place to a leading 1; zero rows stay zero."""
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    rows *= _inverse(np.maximum(lead, 1), p)[:, None]
    return np.remainder(rows, p, out=rows)


def _tile_pairs(n: int, keep=None) -> Iterator[np.ndarray]:
    """Per tile of side min(TILE, n), the codes i * n + j of its pairs i < j
    where ``keep(rows, cols)`` holds if given (a bool block; None skips it)."""
    side = min(TILE, n)
    for i0 in range(0, n, side):
        for j0 in range(i0, n, side):
            rows, cols = slice(i0, min(i0 + side, n)), slice(j0, min(j0 + side, n))
            mask = keep(rows, cols) if keep else np.ones((rows.stop - i0, cols.stop - j0), bool)
            if mask is None:
                continue
            if i0 == j0:  # a tile on the diagonal
                mask &= np.arange(j0, cols.stop) > np.arange(i0, rows.stop)[:, None]
            i, j = np.divmod(np.flatnonzero(mask), cols.stop - j0)
            yield (i + i0) * n + j + j0


def _batches(code: np.ndarray, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pairs (i, j) of codes i * n + j, in batches of 16 * TILE scaled at once."""
    return (np.divmod(code[at : at + 16 * TILE], n) for at in range(0, len(code), 16 * TILE))


def _candidates(keys: np.ndarray, pivots: np.ndarray, p: int, label: np.ndarray):
    """The codes i * L + j of the pairs (i, j > i) of the L lines not
    certified skew, less those of equal ``label``s, sorted by their points,
    and the starts of the runs of equal points, then the pair count."""
    n = len(keys)
    r1, r2 = residues(keys[:, 0], p), residues(keys[:, 1], p)
    dim, (c1, c2), at = r1.shape[1], pivots.T, np.arange(n)
    # X = [I | E] and g are fixed and pseudo-random; see concurrence_buckets
    e = residues([[mix64(r * dim + c) for c in range(dim - 4)] for r in range(4)], p)
    g = residues([[mix64(4 * dim + c) for c in range(dim)]], p)[0]
    x1, x2 = ((r[:, :4] + (r[:, 4:, None] * e.T % p).sum(axis=1)) % p for r in (r1, r2))
    pairs = list(combinations(range(4), 2))
    plucker = np.stack([(x1[:, s] * x2[:, t] - x1[:, t] * x2[:, s]) % p for s, t in pairs], 1)
    dual = plucker[:, ::-1] * np.array([1, p - 1, 1, 1, p - 1, 1]) % p
    g1, g2 = ((r * g % p).sum(axis=1) % p for r in (r1, r2))
    p1, p2 = r1[at, c1], r2[at, c2]
    s, t1, t2 = p1 * p2 % p, p2 * g1 % p, p1 * g2 % p

    def unskewed(rows: slice, cols: slice) -> np.ndarray | None:
        """The pairs whose side product, an entry of plucker @ dual.T, is 0 mod p."""
        ends = label[[rows.start, rows.stop - 1, cols.start, cols.stop - 1]]
        if ends[0] >= 0 and (ends == ends[0]).all():
            return None  # a tile inside one class whose center is on all its lines
        side = plucker[rows] @ dual[cols].T
        keep = np.remainder(side, p, out=side) == 0
        if rows.start == cols.start or ends[1] == ends[2]:  # classes are runs of positions
            keep &= label[rows, None] != label[cols]  # and a negative label is unique
        return keep

    code = np.concatenate([np.empty(0, np.int64), *_tile_pairs(n, unskewed)])
    points = [np.empty((0, dim), np.int64)]
    for i, j in _batches(code, n):
        # g(Line.residual) of b's key rows against a = lines[i]
        u = (s[i] * g1[j] - r1[j, c1[i]] * t1[i] - r1[j, c2[i]] * t2[i]) % p
        w = (s[i] * g2[j] - r2[j, c1[i]] * t1[i] - r2[j, c2[i]] * t2[i]) % p
        points.append(_scaled((r1[j] * w[:, None] - r2[j] * u[:, None]) % p, p))
    point = np.concatenate(points)
    point = point[order := np.lexsort(point.T)]
    return code[order], _bounds(np.diff(point, axis=0, prepend=-1).any(axis=1).cumsum())  # run ids


def _confirmed(code: np.ndarray, starts: list[int], n: int, meet_of, on, found: dict):
    """Entry arrays (``_ordered``) of the points where the pairs of codes
    x * n + y meet, given sorted by residue point, the groups of equal ones
    starting at ``starts`` (then the pair count), and of ``found``, points
    known exactly mapped to sets of their lines.  Per group the first pair
    meets exactly (``meet_of(x, y)``, None if the lines do not meet) and
    ``on(m, point)`` checks every other line; if either fails, each pair
    meets on its own.  Every pair through a point either is in a group
    confirmed at it or meets there itself, so ``found``, keyed by the exact
    point, merges all of its lines; it is emptied once they are listed."""
    first, second = (code // n).tolist(), (code % n).tolist()
    for a, b in zip(starts, starts[1:]):
        x, y, members = first[a], second[a], {*first[a:b], *second[a:b]}
        if (at := meet_of(x, y)) is not None and all(on(m, at) for m in members - {x, y}):
            found.setdefault(at, set()).update(members)
            continue
        for x, y in zip(first[a:b], second[a:b]):
            if (at := meet_of(x, y)) is not None:
                found.setdefault(at, set()).update((x, y))
    del first, second  # freed before the entry arrays are built, the step's peak
    sizes = list(map(len, found.values()))
    line = np.fromiter(chain.from_iterable(map(sorted, found.values())), np.int64, sum(sizes))
    found.clear()  # and so are the points
    return _ordered(np.repeat(np.arange(len(sizes)), sizes), line)


def planar_buckets(triples) -> tuple[np.ndarray, np.ndarray]:
    """Entry arrays ``(group, line)``: the planar triples on each canonical
    cross product of two of them (points: the covectors of alignments; line
    covectors: the points where lines meet).  One element twice: ValueError.

    Pairs group by the cross product of their primitive residues mod
    ``PRIME``.  Distinct elements always meet, so a one-pair group of a
    nonzero residue is exact: a third element on its point has a nonzero
    residue independent of a's or b's, giving some pair the key of (a, b).
    The other groups go to ``_confirmed``, with ``covector_2d`` and an
    integer dot product."""
    n, p = len(triples), PRIME
    if n < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    rows = canonical_rows(int_array(triples).reshape(n, 3))
    if has_duplicate_rows(rows):
        raise ValueError("one projective element twice")
    r, pack, triples = residues(rows, p), np.array([p * p, p, 1]), rows.tolist()
    pair = np.concatenate(list(_tile_pairs(n)))
    # scaled to (1, x, y), (0, 1, y) or (0, 0, 1), or zero: a unique key below 2p^2 < 2^61
    batches = _batches(pair, n)
    key = np.concatenate([_scaled(np.cross(r[i], r[j]) % p, p) @ pack for i, j in batches])
    key, pair = key[order := np.argsort(key)], pair[order]
    bounds = np.array(_bounds(key))
    one = (np.diff(bounds) == 1) & (key[bounds[:-1]] != 0)
    many = np.repeat(~one, np.diff(bounds))
    cross = lambda x, y: covector_2d(triples[x], triples[y])  # noqa: E731
    on = lambda m, at: not sum(x * y for x, y in zip(triples[m], at))  # noqa: E731
    group, line = _confirmed(pair[many], _bounds(key[many]), n, cross, on, {})
    code = pair[bounds[:-1][one]]  # one-pair groups, i * n + j
    group = np.concatenate((np.repeat(np.arange(len(code)), 2), group + len(code)))
    return _ordered(group, np.concatenate((np.stack(np.divmod(code, n), 1).ravel(), line)))


def concurrence_buckets(
    keys: np.ndarray, pivots: np.ndarray, classes: Sequence[tuple[int, ProjPoint | None]] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Entry arrays ``(group, line)`` of the lines in d >= 3, given by their
    (L, 2, d + 1) keys and (L, 2) pivots (``exactgeom.line_keys``), through
    each point where two or more of them meet.  ``classes`` gives the
    leading lines' classes in order as (size, center or None).

    A class whose center is on all of its two or more lines is one group
    there, and its pairs are not tested: two distinct lines share at most
    one point.  Residues mod ``PRIME`` propose the other points.  Lines a,
    b meet iff their stacked keys M have rank 3; then M X^T (X = [I | E], E
    fixed pseudo-random) has determinant 0, the side product of the
    Pluecker coordinates of the key pencils mapped by X, so a nonzero
    residue of it (an entry of a tile's int64 product of Pluecker rows and
    dual columns) proves the pair skew.  Other pairs get the point
    g(w)*s1 - g(u)*s2 (b's key rows s1, s2, their residuals u, w against
    a, a fixed pseudo-random functional g): lines meeting at l*s1 + m*s2
    have l*u + m*w = 0, so it is a multiple of the meet.  The candidates of
    all tiles, sorted by their points scaled to a leading 1, go to
    ``_confirmed``, with ``meet`` and ``Line.contains`` on ``Line`` objects
    spanned by the key rows.  Overflow: residues are below p < 2^30,
    products of two below 2^60, and no int64 sum has more than six of them
    (< 6 * 2^60 < 2^63).  Identical lines raise ValueError, as ``meet`` does.
    """
    n = len(keys)
    if has_duplicate_rows(keys):
        raise ValueError("meet of identical lines is undefined")
    if n < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    lines = _lines(keys, keys, pivots)  # each spanned by its key rows
    found: dict[ProjPoint, set[int]] = {}
    label, start = -1 - np.arange(n), 0  # equal labels: a pair on a known center
    for c, (size, center) in enumerate(classes):
        at = range(start, start := start + size)
        if size >= 2 and center is not None and all(lines[m].contains(center) for m in at):
            found.setdefault(center, set()).update(at)
            label[at] = c
    meet_of = lambda x, y: meet(lines[x], lines[y])  # noqa: E731
    on = lambda m, at: lines[m].contains(at)  # noqa: E731
    return _confirmed(*_candidates(keys, pivots, PRIME, label), n, meet_of, on, found)


def extract_structure_lines(cfg: ColoredLineConfig) -> IncidenceStructure:
    """All maximal concurrences of a line configuration (``concurrence_buckets``
    on its key arrays, given its class centers), witnessed by the points where
    their lines meet; in the plane (``planar_buckets``), by the canonical cross
    product of the lines' covectors, the cross products of their endpoint rows."""
    if cfg.d != 2:
        entries = concurrence_buckets(cfg.keys, cfg.pivots, list(zip(cfg.sizes, cfg.centers)))
        return IncidenceStructure(cfg.sizes, *entries, lambda i, j: meet(cfg.line(i), cfg.line(j)))
    cov = cross_rows(cfg.ends[:, 0], cfg.ends[:, 1])
    rows, point = cov.tolist(), ProjPoint.canonical
    return IncidenceStructure(
        cfg.sizes, *planar_buckets(cov), lambda i, j: point(covector_2d(rows[i], rows[j]))
    )


def extract_alignments(cfg: DualPointConfig) -> IncidenceStructure:
    """Maximal collinear subsets of a dual point configuration, witnessed by
    the covectors of their lines (``planar_buckets``)."""
    rows = cfg.coords.tolist()
    return IncidenceStructure(
        cfg.sizes, *planar_buckets(cfg.coords), lambda i, j: covector_2d(rows[i], rows[j])
    )


def extract_structure(cfg) -> IncidenceStructure:
    """Dispatch on configuration type (grid, lines, or dual points)."""
    if isinstance(cfg, ColoredGridConfig):
        return extract_structure_grid(cfg)
    if isinstance(cfg, ColoredLineConfig):
        return extract_structure_lines(cfg)
    if isinstance(cfg, DualPointConfig):
        return extract_alignments(cfg)
    raise TypeError(f"cannot extract structure from {type(cfg)!r}")


def structure_consistency(s: IncidenceStructure, k: int) -> ConsistencyVerdict:
    """k-consistency evaluated on an extracted structure.

    A line (or dual point) of color c is good for a k-subset S with
    c in S iff some monomial containing it covers the other colors of S.
    Failures are listed by color, then S, then index.
    """
    return group_consistency(s.class_sizes, s.group, s.line, k)
