"""Incidence structures: the maximal concurrences of a configuration.

An incidence structure records, per concurrency point, the set of
``(color, index)`` line references meeting there ("monomials").  All
maximal concurrences are kept, including single-color ones (the center
of a concurrent class, or the shared direction of a parallel class), so
transform preservation audits can compare structures exactly.  The
classification tables of 4x3 configurations speak about the colorful
triples only; use :meth:`IncidenceStructure.colorful_triples` for those.

For dual point configurations the same record type holds the maximal
*alignments* (collinear subsets), which are exactly the dual notion of
concurrences, so the consistency checks below apply unchanged.

Verdicts run the incidence core of ``gridmodel`` on the monomials, once
converted to its entry arrays.  Grid structures add one monomial per
shared axis direction, which the grid verifiers never count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Sequence

import numpy as np

from .configs import ColoredLineConfig, DualPointConfig
from .exactgeom import Line, ProjPoint, covector_2d, meet
from .gridmodel import (
    ColoredGridConfig,
    ConsistencyVerdict,
    LineRef,
    group_consistency,
    group_max_colorful,
)

Monomial = frozenset[LineRef]


@dataclass(frozen=True)
class IncidenceStructure:
    """Maximal concurrences with color annotations; witnesses per monomial.

    Equality compares monomials and class sizes only — witnesses are
    geometric and differ across incidence-preserving transforms.
    """

    monomials: frozenset[Monomial]
    class_sizes: tuple[int, ...]
    witnesses: dict = field(compare=False, hash=False, default_factory=dict)

    @property
    def num_colors(self) -> int:
        return len(self.class_sizes)

    def colorful_triples(self) -> frozenset[Monomial]:
        """Monomials of exactly three lines in three distinct colors."""
        return frozenset(
            m for m in self.monomials if len(m) == 3 and len({c for c, _ in m}) == 3
        )

    @cached_property
    def incidences(self) -> tuple[list[list[LineRef]], np.ndarray, np.ndarray]:
        """(monomials, group, line): the monomials as sorted ref lists, in
        sorted order, and their entries for the incidence core; built once."""
        monomials = sorted(sorted(m) for m in self.monomials)
        first = np.cumsum((0, *self.class_sizes)).tolist()
        entries = [(g, first[c - 1] + i) for g, refs in enumerate(monomials) for c, i in refs]
        return (monomials, *np.array(entries, np.int64).reshape(-1, 2).T)

    def max_colorful(self) -> tuple[int, object | None]:
        """Largest color count over all monomials, with the witness of the
        first monomial (by sorted refs) reaching it."""
        monomials, group, line = self.incidences
        order, at = group_max_colorful(self.class_sizes, group, line)
        return order, None if at is None else self.witnesses.get(frozenset(monomials[at]))


def _structure_from_map(
    point_map: dict, class_sizes: tuple[int, ...]
) -> IncidenceStructure:
    witnesses = {frozenset(refs): at for at, refs in point_map.items() if len(refs) >= 2}
    return IncidenceStructure(frozenset(witnesses), class_sizes, witnesses)


def extract_structure_grid(cfg: ColoredGridConfig) -> IncidenceStructure:
    """Grid-point concurrences plus one monomial per shared axis direction."""
    points, group, line = cfg.incidences
    refs = [(c, i) for c, size in enumerate(cfg.class_sizes(), start=1) for i in range(size)]
    at = [ProjPoint.affine(pt) for pt in cfg.coordinates(points)]
    point_map: dict[ProjPoint, set[LineRef]] = {}
    for g, i in zip(group.tolist(), line.tolist()):
        point_map.setdefault(at[g], set()).add(refs[i])
    axes = np.concatenate((np.empty(0, np.int64), *cfg.ids)) // cfg.n**cfg.k
    for axis in np.unique(axes).tolist():
        direction = ProjPoint.direction([int(t == axis) for t in range(cfg.k + 1)])
        point_map[direction] = {refs[i] for i in np.flatnonzero(axes == axis).tolist()}
    return _structure_from_map(point_map, cfg.class_sizes())


def concurrence_buckets(lines: Sequence[Line]) -> dict[ProjPoint, set[int]]:
    """Every point where two or more of the lines meet, with the positions
    of the lines through it, in first-meeting pair order."""
    on_points: list[set[ProjPoint]] = [set() for _ in lines]
    buckets: dict[ProjPoint, set[int]] = {}
    for i, j in combinations(range(len(lines)), 2):
        if on_points[i] & on_points[j]:
            continue  # already bucketed at a shared point
        pt = meet(lines[i], lines[j])
        if pt is None:
            continue
        buckets.setdefault(pt, set()).update((i, j))
        on_points[i].add(pt)
        on_points[j].add(pt)
    return buckets


def extract_structure_lines(cfg: ColoredLineConfig) -> IncidenceStructure:
    """All maximal concurrences of a line configuration via exact pairwise meets."""
    entries = list(cfg.lines())
    refs = [(color, idx) for color, idx, _ in entries]
    buckets = concurrence_buckets([line for _, _, line in entries])
    point_map = {pt: {refs[i] for i in members} for pt, members in buckets.items()}
    return _structure_from_map(point_map, cfg.class_sizes())


def extract_alignments(cfg: DualPointConfig) -> IncidenceStructure:
    """Maximal collinear subsets of a dual point configuration."""
    entries = list(cfg.points())
    line_map: dict[tuple[int, ...], set[LineRef]] = {}
    for (ca, ia, pa), (cb, ib, pb) in combinations(entries, 2):
        cov = covector_2d(pa, pb)
        line_map.setdefault(cov, set()).update([(ca, ia), (cb, ib)])
    return _structure_from_map(line_map, cfg.class_sizes())


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
    return group_consistency(s.class_sizes, *s.incidences[1:], k)
