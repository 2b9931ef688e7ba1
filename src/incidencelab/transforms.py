"""Incidence-preserving maps between configurations.

* ``lift_to_concurrent`` turns the parallel classes of a grid
  configuration into concurrent classes by a projective transform that
  sends a hyperplane avoiding the grid to infinity.
* ``project_generic`` applies a seeded random rational linear projection
  and certifies genericity a posteriori by comparing extracted incidence
  structures (random rational draws cannot be generic in the measure
  sense, so the contract is checked, not assumed).
* ``dualize`` / ``undualize`` implement the planar pole-polar duality
  with respect to the conic x^2 + y^2 = w^2.

All maps send class lists in order, so ``(color, index)`` labels are
stable along pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Sequence

import numpy as np

from .configs import ColoredLineConfig, DualPointConfig, embed_grid_config
from .exactgeom import ProjPoint, canonical_rows, cross_rows, image_rows, int_array, key_ranks
from .gridmodel import ColoredGridConfig
from .rng import RETRY_OFFSET, splitmix64, substream
from .structure import (
    IncidenceStructure,
    extract_structure_grid,
    extract_structure_lines,
)

_DRAW_HALF_RANGE = 1 << 16
PROJECTION_ATTEMPTS = 32  # fresh draws before ``project_generic`` gives up


def apply_projective(
    cfg: ColoredLineConfig, matrix: Sequence[Sequence[int]]
) -> ColoredLineConfig:
    """Map every line (and center) of a configuration through an integer
    matrix: one product of its endpoint rows (``image_rows``), with the
    keys of the images computed in bulk."""
    given = [c.coords for c in cfg.centers if c is not None]
    mapped = iter(image_rows(matrix, int_array(given).reshape(len(given), cfg.d + 1)).tolist())
    centers = [None if c is None else ProjPoint.canonical(tuple(next(mapped))) for c in cfg.centers]
    ends = image_rows(matrix, cfg.ends)
    return ColoredLineConfig.from_ends(len(matrix) - 1, ends, cfg.sizes, centers)


def lift_to_concurrent(
    cfg: ColoredGridConfig, audit: bool = True
) -> tuple[ColoredLineConfig, IncidenceStructure]:
    """Projective lift of a grid configuration making each axis class concurrent.

    The hyperplane {x_1 + ... + x_(k+1) = c} with c beyond the grid's
    coordinate-sum range is sent to infinity; the class of axis a becomes
    concurrent through the image of its direction, the affine unit point
    on axis a.  Returns the lift and the grid's incidence structure, which
    it preserves.  ``audit`` checks that on the lifted lines (the pair kernel
    of ``concurrence_buckets``, quadratic in the number of lines), for lift-only
    transforms: ``project_generic`` audits each image against the structure.
    """
    if any(c.size and c[0] // cfg.n**cfg.k != c[-1] // cfg.n**cfg.k for c in cfg.ids):
        raise ValueError("lift requires axis-parallel classes")  # ids sort by axis first
    dim = cfg.k + 1
    c = dim * cfg.n + 1
    matrix = [[int(i == j) for j in range(dim)] + [0] for i in range(dim)]
    matrix.append([1] * dim + [-c])
    embedded = embed_grid_config(cfg)
    lifted = apply_projective(embedded, matrix)
    s = extract_structure_grid(cfg)
    if audit and extract_structure_lines(lifted) != s:
        raise RuntimeError("lift failed its incidence preservation audit")
    return lifted, s


@dataclass(frozen=True)
class ProjectionResult:
    """A generic projection together with its genericity audit record."""

    config: ColoredLineConfig
    seed: int
    attempts: int
    new_crossings: int  # two-line groups of a planar image that no source group has


def _audit_projection(
    before: IncidenceStructure, after: IncidenceStructure, d: int
) -> tuple[bool, int]:
    """(passes, new crossings) of the structure ``after`` of an image."""
    if d >= 3:
        return before == after, 0
    # In the plane new 2-line crossings among previously disjoint lines
    # are unavoidable; every source incidence must survive with exactly
    # its line set and gain nothing.  So the image less its two-line
    # groups that share no source group is the source.
    total = sum(before.class_sizes)
    starts = after.firsts
    two = starts[np.diff(starts, append=after.group.size) == 2]  # first entries of pairs
    pairs = after.line[two] * total + after.line[two + 1]
    new = after.group[two[~np.isin(pairs, before.inner_pairs())]]
    kept = ~np.isin(after.group, new)
    same = np.array_equal(after.line[kept], before.line) and np.array_equal(
        np.diff(after.group[kept]) > 0, np.diff(before.group) > 0
    )
    return same, len(new) if same else 0


def project_generic(
    cfg: ColoredLineConfig,
    before: IncidenceStructure,
    d: int,
    seed: int,
) -> ProjectionResult:
    """Seeded random rational linear projection R^D -> R^d, certified generic.

    Retries with fresh draws until ``before``, the structure of ``cfg``,
    survives the audit (exact equality for d >= 3; the documented relaxed
    contract for d = 2) and no two lines collapse; raises RuntimeError after
    ``PROJECTION_ATTEMPTS`` draws.
    """
    D = cfg.d
    if not 2 <= d <= D:
        raise ValueError("projection target must satisfy 2 <= d <= D")
    for attempt in range(PROJECTION_ATTEMPTS):
        stream = substream(seed, RETRY_OFFSET + attempt)
        draws = iter(
            splitmix64(stream, i) % (2 * _DRAW_HALF_RANGE + 1) - _DRAW_HALF_RANGE
            for i in range(d * D)
        )
        matrix = [[next(draws) for _ in range(D)] + [0] for _ in range(d)]
        matrix.append([0] * D + [1])
        try:
            image = apply_projective(cfg, matrix)
        except ValueError:
            continue  # a line collapsed to a point, or two lines to one
        after = extract_structure_lines(image)
        ok, crossings = _audit_projection(before, after, d)
        if ok:
            return ProjectionResult(image, seed, attempt + 1, crossings)
    raise RuntimeError(f"no generic projection found in {PROJECTION_ATTEMPTS} attempts")


def dualize(cfg: ColoredLineConfig) -> DualPointConfig:
    """Pole-polar dual of a planar line configuration.

    Concurrences of size t map to collinear t-tuples and vice versa.  The
    configuration is first translated by (j, j^2), for the least j >= 0
    that moves no line onto the pole, keeping every dual point finite: the
    covector (a, b, c) becomes (a, b, c - a*j - b*j^2), whose last entry,
    zero iff the line passes the pole, vanishes for at most two j.  The
    covectors are the canonical cross products of the endpoint rows.
    """
    if cfg.d != 2:
        raise ValueError("dualize needs a planar configuration; project to d=2 first")
    covectors = cross_rows(cfg.ends[:, 0], cfg.ends[:, 1]).tolist()
    j = next(j for j in count() if all(c - a * j - b * j * j for a, b, c in covectors))
    points = int_array([[a, b, a * j + b * j * j - c] for a, b, c in covectors])
    return DualPointConfig.from_coords(canonical_rows(points.reshape(-1, 3)), cfg.sizes)


def undualize(dual: DualPointConfig) -> ColoredLineConfig:
    """Inverse duality: the point (x, y, z) back to the line of canonical
    covector r = (x, y, -z), spanned by r[c] * e_f - r[f] * e_c, canonical, for
    its first nonzero column c and its other columns f in order.  An infinite
    point maps to a line through the pole, which is legitimate and needed for
    direction colors."""
    r = canonical_rows(dual.coords * np.array([1, 1, -1]))
    c, at = (r != 0).argmax(axis=1), np.arange(len(r))[:, None]
    f = np.array([[1, 2], [0, 2], [0, 1]])[c]
    ends = np.zeros((len(r), 2, 3), r.dtype)
    ends[at, [0, 1], f] = r[at, c[:, None]]
    ends[at, [0, 1], c[:, None]] = -r[at, f]
    return ColoredLineConfig.from_ends(2, canonical_rows(ends), dual.sizes)


def extract_planarity(cfg: ColoredLineConfig) -> tuple[bool, int]:
    """(all lines lie in a common 2-flat?, projective dimension of their span)."""
    total = cfg.total_lines()
    if not total:
        return True, 0
    dim = int(key_ranks(cfg.keys, np.arange(total)[None], min(cfg.d + 1, 2 * total))[0]) - 1
    return dim <= 2, dim
