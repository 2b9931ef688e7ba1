"""Structure matching, audits, bounds, and experiment harnesses.

Covers: isomorphism matching of 4x3 incidence structures against the two
reference tables, the determinant expansion that reproduces table I, the
flatness audit and the exact lower-bound formula for non-flat
configurations, minimality audits, the seeded Monte Carlo harness for
the probabilistic construction, and the two-slit intersection-graph
experiment.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb
from statistics import quantiles

import numpy as np

from .configs import ColoredLineConfig
from .constructions import ProbParams, probabilistic_batch_stats
from .exactgeom import key_ranks
from .gridmodel import IncidenceStructure, LineRef, Monomial, group_removable
from .rng import TRIAL_OFFSET, substream
from .structure import extract_structure_lines

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def monomial_name(m: Monomial) -> str:
    """Paper-style notation: color -> letter, 1-based line index (e.g. a1b2c3)."""
    parts = sorted(m)
    return "".join(f"{_LETTERS[c - 1]}{i + 1}" for c, i in parts)


def parse_monomial(text: str) -> Monomial:
    refs = []
    for t in range(0, len(text), 2):
        refs.append((_LETTERS.index(text[t]) + 1, int(text[t + 1]) - 1))
    return frozenset(refs)


def _table(*names: str) -> frozenset[Monomial]:
    return frozenset(parse_monomial(n) for n in names)


TABLE_I = _table(
    "a1b2c3", "a1b3d2", "a1c2d3", "b1c3d2",
    "a2b3c1", "a2b1d3", "a2c3d1", "b2c1d3",
    "a3b1c2", "a3b2d1", "a3c1d2", "b3c2d1",
)

TABLE_II = _table(
    "a1b2c3", "a1b3d2", "a1c2d3", "b1c1d1",
    "a2b3c1", "a2b1d3", "a2c3d1", "b2c2d2",
    "a3b1c2", "a3b2d1", "a3c1d2", "b3c3d3",
)

TABLES = {"I": TABLE_I, "II": TABLE_II}


@dataclass(frozen=True)
class StructureIsomorphism:
    """A relabeling (color permutation + per-class line permutations) onto a table."""

    target: str
    color_map: tuple[int, ...]  # color_map[c-1] = image color of c
    index_maps: tuple[tuple[int, ...], ...]  # per source color, image of each index

    def apply(self, monomials: frozenset[Monomial]) -> frozenset[Monomial]:
        return frozenset(
            frozenset(
                (self.color_map[c - 1], self.index_maps[c - 1][i]) for c, i in m
            )
            for m in monomials
        )


def match_structure(s: IncidenceStructure, target: str) -> StructureIsomorphism | None:
    """Search all 4! * (3!)^4 relabelings mapping the colorful triples onto a table.

    The classification tables record the three-colored triple concurrences
    of a 4x3 configuration; single-color monomials (a concurrent class
    center) are not part of the tables and are ignored here.
    """
    if target not in TABLES:
        raise ValueError("target must be 'I' or 'II'")
    if s.num_colors != 4 or any(size != 3 for size in s.class_sizes):
        raise ValueError("structure matching needs 4 colors with 3 lines each")
    triples = s.colorful_triples()
    if len(triples) != 12:
        raise ValueError(f"expected 12 colorful triples, found {len(triples)}")
    table = TABLES[target]
    idx_perms = list(permutations(range(3)))
    for color_map in permutations((1, 2, 3, 4)):
        for maps in product(idx_perms, repeat=4):
            iso = StructureIsomorphism(target, color_map, maps)
            if iso.apply(triples) == table:
                return iso
    return None


def determinant_monomials() -> frozenset[Monomial]:
    """Positive-sign cubic terms of the 4x4 determinant whose last row is ones.

    Rows 1..3 carry the line indices of each color (columns = colors);
    every positive term selects one index per color for three colors, and
    the expansion reproduces table I exactly (asserted).
    """
    terms = []
    for perm in permutations(range(4)):
        # parity via inversion count
        inv = sum(1 for x, y in combinations(range(4), 2) if perm[x] > perm[y])
        if inv % 2:
            continue  # negative sign
        # the all-ones row 3 contributes the constant 1
        terms.append(frozenset((col + 1, row) for row, col in enumerate(perm[:3])))
    result = frozenset(terms)
    if result != TABLE_I:
        raise AssertionError("determinant expansion does not reproduce table I")
    return result


@dataclass(frozen=True)
class FlatnessRecord:
    """One audited incidence: its group (``witness`` gives its point), lines, rank, verdict."""

    group: int
    lines: tuple[LineRef, ...]
    rank: int
    flat: bool


def flatness_audit(
    cfg: ColoredLineConfig, s: IncidenceStructure, t: int
) -> list[FlatnessRecord]:
    """Audit every incidence of >= t lines, given the structure ``s`` of
    ``cfg``: it is flat iff all lines at the point lie in a flat of
    dimension at most min(d, t_actual) - 1, where t_actual is the full line
    count at the point.  The point lies on every line, so no witness is met: the
    rank is that of the lines' stacked keys less one (``key_ranks`` per group size)."""
    if t < 2:
        raise ValueError("flatness audit needs t >= 2")
    firsts = s.firsts
    sizes = np.diff(firsts, append=len(s.line))
    rank = np.zeros(len(sizes), np.int64)
    for size in np.unique(sizes[sizes >= t]).tolist():
        at = np.flatnonzero(sizes == size)
        members = s.line[firsts[at, None] + np.arange(size)]
        rank[at] = key_ranks(cfg.keys, members, min(cfg.d, size) + 1) - 1
    rank, sizes = rank.tolist(), sizes.tolist()
    return [
        FlatnessRecord(g, tuple(s.members[g]), rank[g], rank[g] <= min(cfg.d, size) - 1)
        for g, size in enumerate(sizes)
        if size >= t
    ]


@dataclass(frozen=True)
class JointBoundReport:
    """The exact non-flat lower bound C(C(m-1,k-1)+k-1, k) / C(m-1,k-1)."""

    m: int
    k: int
    total_lines: int
    bound: Fraction
    satisfied: bool


def joint_bound_value(m: int, k: int) -> Fraction:
    if not 1 <= k <= m:
        raise ValueError(f"the joint bound needs K in 1..{m} (the number of colors), not {k}")
    denom = comb(m - 1, k - 1)
    return Fraction(comb(denom + k - 1, k), denom)


def joint_bound(cfg, k: int) -> JointBoundReport:
    m = cfg.num_colors
    total = sum(cfg.class_sizes())  # every configuration model has class sizes
    bound = joint_bound_value(m, k)
    return JointBoundReport(m, k, total, bound, Fraction(total) >= bound)


@dataclass(frozen=True)
class MinimalityVerdict:
    minimal: bool
    removable: tuple[LineRef, ...]


def minimality_audit(s: IncidenceStructure, k: int) -> MinimalityVerdict:
    """True iff removing any single line breaks k-consistency, decided in
    one pass over the record's groups (``gridmodel.group_removable``): a
    grid's ``points``, or an extracted structure."""
    removable = group_removable(s, k)
    return MinimalityVerdict(not removable, removable)


# ---------------------------------------------------------------------------
# Monte Carlo harness

CSV_FIELDS_PREFIX = ["k", "n", "seed", "trial", "consistent", "bad_lines"]


@dataclass(frozen=True)
class MonteCarloSummary:
    k: int
    n: int
    trials: int
    consistency_rate: float
    colorful_within_k_rate: float
    size_quartiles: tuple[float, float, float]
    window_rate: float  # all class sizes within a common [N, 3N]
    mean_bad_lines: float


@dataclass(frozen=True)
class MonteCarloReport:
    rows: tuple[dict, ...]
    summaries: tuple[MonteCarloSummary, ...]
    fieldnames: tuple[str, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(self.fieldnames), lineterminator="\n")
        writer.writeheader()
        writer.writerows(self.rows)
        return buf.getvalue()


def monte_carlo(params_grid: list[ProbParams], trials: int) -> MonteCarloReport:
    """Run seeded trials of the probabilistic construction per parameter set.

    Trial t of a parameter set derives its seed from substream
    TRIAL_OFFSET + t of the set's master seed, so the whole report is a
    pure function of the parameter grid.  All sets must share one k (the
    CSV carries one size column per color).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    ks = {p.k for p in params_grid}
    if len(ks) != 1:
        raise ValueError("monte_carlo needs a uniform k across the parameter grid")
    k = ks.pop()
    size_fields = [f"size_{i}" for i in range(1, k + 2)]
    fieldnames = tuple(CSV_FIELDS_PREFIX + size_fields + ["max_colorful"])
    rows, summaries = [], []
    for params in params_grid:
        seeds = (substream(params.seed, TRIAL_OFFSET + t) for t in range(trials))
        runs = [ProbParams(params.k, params.n, seed, params.p_sel) for seed in seeds]
        per_rows = [
            {"k": params.k, "n": params.n, "seed": params.seed, "trial": trial,
             "consistent": int(stats["consistent"]), "bad_lines": stats["bad_lines"],
             "max_colorful": stats["max_colorful"], **dict(zip(size_fields, stats["sizes"]))}
            for trial, stats in enumerate(probabilistic_batch_stats(runs, counts=False))
        ]
        rows.extend(per_rows)
        sizes = [row[f] for row in per_rows for f in size_fields]
        q = quantiles(sizes, n=4)  # k + 1 >= 4 sizes per trial (ProbParams needs k >= 3)
        spans = [(min(s), max(s)) for s in ([row[f] for f in size_fields] for row in per_rows)]
        window = sum(1 <= lo and hi <= 3 * lo for lo, hi in spans)
        summaries.append(
            MonteCarloSummary(
                params.k,
                params.n,
                trials,
                sum(r["consistent"] for r in per_rows) / trials,
                sum(1 for r in per_rows if r["max_colorful"] <= params.k) / trials,
                tuple(q),
                window / trials,
                sum(r["bad_lines"] for r in per_rows) / trials,
            )
        )
    return MonteCarloReport(tuple(rows), tuple(summaries), fieldnames)


# ---------------------------------------------------------------------------
# Two-slit intersection graphs


@dataclass(frozen=True)
class BipartiteReport:
    edges: int
    k33: tuple[tuple[int, int, int], tuple[int, int, int]] | None


def bipartite_edges(cfg: ColoredLineConfig) -> BipartiteReport:
    """Exact intersection-graph edge count plus an exhaustive K_{3,3} search,
    between the two classes A and B of ``cfg`` (another number of classes:
    ValueError).

    An edge is a pair (a, b) of lines that meet: they share a group of the
    structure of the configuration.  The search scans all triples on the A
    side and intersects neighbor bitmasks, so a reported witness is exact
    and absence is a proof for the given families.
    """
    if cfg.num_colors != 2:
        raise ValueError(f"an intersection graph needs two classes, not {cfg.num_colors}")
    a, b = cfg.sizes
    masks = [0] * a
    first, second = np.divmod(extract_structure_lines(cfg).inner_pairs(), a + b)
    for i, j in zip(first.tolist(), second.tolist()):
        if i < a <= j:
            masks[i] |= 1 << (j - a)
    edges = sum(m.bit_count() for m in masks)
    rich = [i for i, m in enumerate(masks) if m.bit_count() >= 3]
    for i, j, l in combinations(rich, 3):
        common = masks[i] & masks[j] & masks[l]
        if common.bit_count() >= 3:  # the three lowest B-lines they share
            bs = tuple(x for x in range(b) if common >> x & 1)[:3]
            return BipartiteReport(edges, ((i, j, l), bs))
    return BipartiteReport(edges, None)
