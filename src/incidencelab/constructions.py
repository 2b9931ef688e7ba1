"""Generators for colored line configurations.

* ``gen_algebraic`` — k+1 concurrent-after-lift classes of axis lines in
  [n]^(k+1), n = p^(k-1), selected by linear equations over (Z/pZ)^(k-1)
  with one fixed vector family (``AlgebraicParams``: every admissible
  family gives the same configuration up to relabeling), computed as
  int64 id arrays in O(class size) memory; k-consistent, no
  (k+1)-incidence, minimal, |class| = p^(k^2-k-1).
* ``gen_probabilistic`` — two-stage random selection: keep each grid line
  independently with an exact rational probability, then delete every
  line through a point covered by all k+1 axes (which unconditionally
  kills all (k+1)-incidences): ``_coverage`` ANDs bit-packed words (of 1,
  2, 4 or 8 bytes, by n) in slabs of one buffer and ORs out each axis by
  a fold chosen from the slab's shape, and ``_deletion`` returns each
  axis's survivors.  Stage 2 runs on a group of trials at once, their
  (T, k+1, n^k) stage-1 masks holding at most 2^20 lines in all (T = 64
  at k = 3, n = 16; 1 from n = 64), and its survivors come out offset by
  their trial's place in the group.  Monte Carlo trials run in batches of
  2^20 lines per axis, each a run of groups, that hold only their
  survivors; one exact ``_trial_stats`` call per batch gathers add-filled
  flat bit tables of them.  Selection and deletion stream in blocks and
  slabs, in O(n^k) memory for any n.  ``gen_algebraic`` and ``ProbParams``
  refuse a construction past ``MAX_CONSTRUCTION_BYTES`` before building it.
* ``gen_tricolor`` — the planar-style 3-color closed polygon family:
  2-consistent, no colorful incidence.
* ``gen_desargues`` / ``gen_reye`` — the two non-planar 4x3
  configurations: fixed rational witness lines colored by the stated
  ``DESARGUES_COLORS`` / ``REYE_COLORS``, each result certified by the
  verifiers before it is returned.
* ``gen_dual_cycles`` — dual point sets made of six-step projection
  cycles across three concurrent lines plus two direction points.
* ``gen_two_slit`` — sampled lines secant to two fixed skew lines.

All generators are deterministic given identical parameters and seed.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import prod
from operator import and_, or_
from typing import Sequence

import numpy as np

from .configs import ColoredLineConfig, DualPointConfig
from .exactgeom import (
    Line,
    ProjPoint,
    Rational,
    is_prime,
    meet,
)
from .gridmodel import ColoredGridConfig, _line_count
from .rng import (
    BLOCK,
    SLIT_OFFSET,
    default_selection_probability,
    selection_threshold,
    splitmix64,
    splitmix64_block,
    substream,
)
from .structure import extract_alignments, extract_structure_lines, structure_consistency
from .transforms import extract_planarity

SLAB_BYTES = 1 << 19  # bytes per slab of the stage-2 coverage cube
SELECTION_CHUNK = BLOCK  # draws per axis in one block of the stage-1 selection
TRIAL_BATCH_LINES = 1 << 20  # lines per axis in one batch of Monte Carlo trial statistics
# The most bytes a construction may hold in its line arrays, checked from k
# and p or n before any is built: 8 per int64 line id of ``gen_algebraic``,
# 1 per grid line of the stage-1 masks of a probabilistic trial.
MAX_CONSTRUCTION_BYTES = 1 << 30
_M1, _M2, _M4, _H = (np.uint64(0x0101010101010101 * b) for b in (0x55, 0x33, 0x0F, 0x01))


def _check_size(what: str, lines: int, width: int) -> None:
    """ValueError if ``lines`` of ``width`` bytes pass ``MAX_CONSTRUCTION_BYTES``."""
    if lines * width > MAX_CONSTRUCTION_BYTES:
        raise ValueError(f"construction too large ({what}: {lines} lines, {lines * width} bytes > 2^30)")


# ---------------------------------------------------------------------------
# Finite-field helpers


@dataclass(frozen=True)
class AlgebraicParams:
    """Parameters of the finite-field selection: a prime p and the vectors
    v = e_1, ..., e_(k-1), -(e_1 + ... + e_(k-1)) of (Z/pZ)^(k-1), which sum
    to zero with every k-1 of them independent.  Any such family is A*v for
    an invertible A, and x -> A^T x on every slot maps its selection onto
    this one's, so no other family adds a configuration up to relabeling."""

    k: int
    p: int

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError("algebraic construction needs k >= 3")
        if self.p >= 2**8:  # n^(k+1) >= p^8 >= 2^64: too large a grid, before trial division
            _line_count(self.k, self.n)
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def v(self) -> tuple[tuple[int, ...], ...]:
        units = [tuple(int(t == i) for t in range(self.k - 1)) for i in range(self.k - 1)]
        return (*units, (self.p - 1,) * (self.k - 1))

    @property
    def n(self) -> int:
        return self.p ** (self.k - 1)

    @property
    def class_size(self) -> int:
        return self.p ** (self.k * self.k - self.k - 1)


def gen_algebraic(params: AlgebraicParams) -> ColoredGridConfig:
    """The finite-field grid selection; class i solves its own linear equation.

    Grid coordinates x in [1, p^(k-1)] correspond to vectors of
    (Z/pZ)^(k-1) via the little-endian base-p digits of x-1, so a line of
    axis i is a vector of D = k(k-1) digits, k-1 per other slot.  The
    solutions of class i's equation are counted by an int64 counter whose
    little-endian base-p digits are the D-1 free digits, one column at a
    time; the pivot digit is solved from them, and each line id is the
    weighted sum of the digit columns.  Temporaries stay O(class size).
    """
    k, p, n = params.k, params.p, params.n
    _line_count(k, n)  # too large a grid or construction fails here, before any array
    _check_size(f"k={k}, p={p}", (k + 1) * params.class_size, 8)
    v, size = params.v, params.class_size
    # the weight of digit t of the s-th slot (in slot order) in a line id
    weights = [p**t * n ** (k - 1 - s) for s in range(k) for t in range(k - 1)]
    classes = []
    for i in range(1, k + 2):
        if i <= k:  # over the slots j != i: v_(i-1) before slot i, v_i after it
            vecs, rhs = [v[i - 2]] * (i - 1) + [v[i - 1]] * (k + 1 - i), 0
        else:
            vecs, rhs = [v[k - 1]] * k, 1
        coeffs = [c for vec in vecs for c in vec]
        pivot = next(q for q, c in enumerate(coeffs) if c % p)
        counter, acc = np.arange(size, dtype=np.int64), np.zeros(size, np.int64)
        ids = np.full(size, (i - 1) * n**k, np.int64)
        for q in range(len(coeffs)):
            if q != pivot:
                digit = counter % p
                counter //= p
                acc += coeffs[q] * digit
                ids += weights[q] * digit
        ids += weights[pivot] * ((rhs - acc) * pow(coeffs[pivot], -1, p) % p)
        ids.sort()
        classes.append(ids)
    return ColoredGridConfig(k, n, classes)


# ---------------------------------------------------------------------------
# Probabilistic construction


@dataclass(frozen=True)
class ProbParams:
    """Two-stage random selection parameters.

    ``p_sel`` defaults to the largest multiple of 2**-64 not exceeding
    min(1, 2*n^(-2/(2k-1))), stored as an exact Fraction; selection
    compares each 64-bit draw against it exactly.
    """

    k: int
    n: int
    seed: int
    p_sel: Fraction | None = None

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError("probabilistic construction needs k >= 3")
        if self.n < 2:
            raise ValueError("probabilistic construction needs n >= 2")
        lines = _line_count(self.k, self.n)  # too large a grid fails here, before any array
        _check_size(f"k={self.k}, n={self.n}", lines, 1)
        p_sel = Fraction(
            default_selection_probability(self.k, self.n) if self.p_sel is None else self.p_sel
        )
        if not 0 < p_sel <= 1:
            raise ValueError("selection probability must lie in (0, 1]")
        object.__setattr__(self, "p_sel", p_sel)


@dataclass(frozen=True)
class DeletionReport:
    """Stage counts of the probabilistic construction."""

    k: int
    n: int
    seed: int
    p_sel: Fraction
    selected_sizes: tuple[int, ...]
    final_sizes: tuple[int, ...]
    covered_points: int

    @property
    def deleted_sizes(self) -> tuple[int, ...]:
        return tuple(s - f for s, f in zip(self.selected_sizes, self.final_sizes))


def _selection_masks(k: int, n: int, runs: Sequence[ProbParams]) -> np.ndarray:
    """The (T, k+1, n^k) stage-1 masks of T runs of one k and n."""
    masks = np.empty((len(runs), k + 1, n**k), dtype=bool)
    draws = np.empty((k + 1, min(SELECTION_CHUNK, n**k)), dtype=np.uint64)
    for mask, params in zip(masks, runs):
        # u < threshold as u <= threshold - 1, which fits in uint64 for p_sel in (0, 1]
        limit = np.uint64(selection_threshold(params.p_sel) - 1)
        seeds = [substream(params.seed, axis) for axis in range(1, k + 2)]
        for lo in range(0, n**k, SELECTION_CHUNK):
            block = draws[:, : n**k - lo]
            splitmix64_block(seeds, lo, block.shape[1], out=block)
            np.less_equal(block, limit, out=mask[:, lo : lo + SELECTION_CHUNK])
    return masks


def _popcount(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Set bits of each unsigned word, into ``out`` if given: ``np.bitwise_count``,
    or SWAR in two arrays on numpy < 2."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words, out=out)
    scratch = words >> 1
    count = np.subtract(words, np.bitwise_and(scratch, _M1, out=scratch), out=out)  # 2-bit counts
    np.bitwise_and(np.right_shift(count, 2, out=scratch), _M2, out=scratch)
    count &= _M2
    count += scratch  # 4-bit counts
    count += np.right_shift(count, 4, out=scratch)
    count &= _M4  # byte counts, summed into the top byte:
    return np.right_shift(np.multiply(count, _H, out=count), 8 * count.itemsize - 8, out=count)


def _word_bytes(n: int) -> int:
    """Bytes of one coverage word: the fewest of 1, 2, 4 holding n bits, else 8."""
    return min(8, 1 << max(0, (n - 1).bit_length() - 3))


def _words(k: int, n: int, masks: np.ndarray) -> list[np.ndarray]:
    """Coverage words of a group's (T, k+1, n^k) stage-1 masks.  A mask of
    axis a <= k has x_(k+1) as its last slot; packed along it, it is (T, W,
    n, ..., n) words, one bit per line (in the cube, per grid point) and
    zero past n: one word of 1, 2 or 4 bytes for n <= 32, else W =
    ceil(n/64) of 8 (``_word_bytes``).  Axis k+1 has no x_(k+1) slot: its
    bool mask, shaped (T, n, ..., n), multiplies whole words.  The cube
    ANDs packed axes, so no bit past n is ever set."""
    trials, lines, size = len(masks), n ** (k - 1), _word_bytes(n)
    width = -(-n // (8 * size))
    if n % 8:  # each line's bits start a byte
        octets = np.packbits(masks[:, :k].reshape(-1, n), axis=1, bitorder="little")
    else:  # they do already: one flat pack, several times faster
        octets = np.packbits(masks, bitorder="little").reshape(trials, k + 1, -1)[:, :k].reshape(-1, n // 8)
    if octets.shape[1] < size * width:  # zero bytes up to whole words
        octets = np.concatenate([octets, np.zeros((len(octets), size * width - octets.shape[1]), np.uint8)], 1)
    words = octets.view(f"u{size}").reshape(trials, k, lines, width)
    words = np.ascontiguousarray(words.transpose(0, 1, 3, 2))  # a view at W = 1
    shaped = [words[:, a].reshape(trials, width, *[n] * (k - 1)) for a in range(k)]
    return shaped + [masks[:, k].reshape((trials,) + (n,) * k)]


def _fold(cube: np.ndarray, dim: int) -> np.ndarray:
    """OR of ``cube`` (trials, words, x...) along ``dim`` >= 1, by its shape:
    one ``np.bitwise_or.reduce`` along an x dim of length > 1 whose rows
    (the elements after it) are 1 or at least 32 long, else its slices
    ORed in turn into one new array of 1/length of the cube (a view at
    length 1).  On the uint64 slabs of n = 16..256 the reduce took 0.2-0.8
    of the time of halvings, but lost on rows of 8-16 words, by far on a
    dim of length 1, and on the word dim at W = 2, 3 (won by 0.3 at W = 4);
    slices in turn took 1.0-1.6 of the time of halvings, which hold half
    the cube."""
    lead, size, run = (slice(None),) * dim, cube.shape[dim], prod(cube.shape[dim + 1 :])
    if dim > 1 and size > 1 and not 1 < run < 32:
        return np.bitwise_or.reduce(cube, axis=dim)
    if size == 1:
        return cube[lead + (0,)]
    out = cube[lead + (0,)] | cube[lead + (1,)]
    for i in range(2, size):
        out |= cube[lead + (i,)]
    return out


def _coverage(words: list[np.ndarray], width: int, counts: bool = True):
    """The coverage kernel of a group of T trials: (per axis, its lines
    through no point covered by all k+1 axes, the packed ones as their
    ``words``, ANDed in place; per trial, the number of such points, an
    int64 array, None unless ``counts``).  Axes are 0-based, k for axis
    k+1, whose lines are bool.

    Trial by trial, the cube, the AND of the packed words times axis k+1's
    mask, spans (trials, words of x_(k+1), x_1, ..., x_k): axis a's lines
    through a covered point are its OR along dim (a + 1) % (k + 1) + 1.
    It runs in slabs of ``width`` whole x1-slices of every trial (axis 1
    has no x1 slot, the others add their rows at those x1, which no later
    slab reads), each exact and holding T * W * width * n^(k-1) words in
    one buffer that every slab reuses: about ``SLAB_BYTES`` at
    ``_slab_width``.  A slab starts from axis k's words times axis k+1's
    0/1 mask and ANDs axis 1's words last: the one operand broadcast over
    x1, it then runs over whole x2..xk planes.
    """
    k, size = len(words) - 1, words[-1].shape[1]
    hit, kept = np.zeros_like(words[0]), np.empty(words[k].shape, dtype=bool)
    buffer = np.empty((*words[0].shape[:2], min(width, size), *words[0].shape[2:]), words[0].dtype)
    covered = np.zeros(len(buffer), np.int64) if counts else None
    every = (slice(None),) * 2  # all trials, all words
    for lo in range(0, size, width):
        rows, cube = slice(lo, lo + width), buffer[:, :, : size - lo]
        np.multiply(words[k - 1][:, :, rows, ..., None], words[k][:, None, rows].view(np.uint8), out=cube)
        for j in range(1, k - 1):  # x_(j+1) missing
            cube &= words[j][every + (rows,) + (slice(None),) * (j - 1) + (None,)]
        cube &= words[0][:, :, None]
        hit |= _fold(cube, 2)
        for a in range(1, k):
            words[a][:, :, rows] &= ~_fold(cube, a + 2)
        np.not_equal(_fold(cube, 1), 0, out=kept[:, rows])  # hit; selected > hit on bools: not hit
        np.greater(words[k][:, rows], kept[:, rows], out=kept[:, rows])
        if counts:  # after the folds: narrow words are counted in place, 8-byte ones into uint8
            count = _popcount(cube, out=cube if cube.itemsize < 8 else None)
            covered += count.sum(axis=tuple(range(1, cube.ndim)), dtype=np.int64)
    words[0] &= ~hit
    return words[:k] + [kept], covered


def _slab_width(k: int, n: int, trials: int = 1) -> int:
    """x1-slices per slab of the coverage cube of ``trials`` trials: about SLAB_BYTES."""
    size = _word_bytes(n)
    return max(1, SLAB_BYTES // (trials * n ** (k - 1) * size * -(-n // (8 * size))))


def _set_bits(octets: np.ndarray) -> np.ndarray:
    """Ascending positions of the set bits of a flat uint8 array, bit i of
    byte j at 8j + i: ``np.flatnonzero(np.unpackbits(octets, bitorder="little"))``
    with only the nonzero bytes unpacked."""
    at = np.flatnonzero(octets != 0)
    bits = np.flatnonzero(np.unpackbits(octets[at], bitorder="little").view(bool))
    return at[bits >> 3] * 8 + (bits & 7)


def _deletion(
    k: int, n: int, masks, width: int, counts: bool = True
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Stage 2 on the stage-1 masks of a group of T trials, (T, k+1, n^k),
    or of one trial, (k+1, n^k), the group of one: (per axis, the ascending
    base indices of its surviving lines, trial t's offset by t * n^k; per
    trial, the number of grid points covered by all k+1 axes, an int64
    array, None unless ``counts``).  Survivors are read from the nonzero
    bytes of each axis's kept lines, packed 8 to a byte, in one scan of
    the group."""
    masks = np.asarray(masks).reshape(-1, k + 1, n**k)
    kept, covered = _coverage(_words(k, n, masks), width, counts)
    survivors, row = [], 8 * kept[0].itemsize * kept[0].shape[1]  # bits per line without x_(k+1)
    for words in kept[:k]:  # as (T, lines without x_(k+1), W), bit x for x_(k+1) = x + 1
        words = np.ascontiguousarray(words.reshape(*words.shape[:2], -1).transpose(0, 2, 1))
        at = _set_bits(words.view(np.uint8).reshape(-1))
        survivors.append(at - at // row * (row - n))  # no bit past n is set
    return survivors + [_set_bits(np.packbits(kept[k], bitorder="little"))], covered


def gen_probabilistic(
    params: ProbParams, emit: Sequence[str] = ("before", "after")
) -> tuple[ColoredGridConfig | None, ColoredGridConfig | None, DeletionReport]:
    """Run both stages; returns (before deletion, after deletion, report),
    with None for a stage not in ``emit``, whose configuration is not built.

    Stage 1 draws every grid line independently (one SplitMix64 substream
    per axis, one draw per line in base-index order).  Stage 2 deletes,
    simultaneously on the stage-1 sets, every line through a point
    covered by all k+1 axes; the survivor therefore has no
    (k+1)-incidence regardless of the randomness.  Base indices give the
    line ids directly.
    """
    k, n = params.k, params.n
    selected = _selection_masks(k, n, [params])[0]
    sizes = tuple(int(np.count_nonzero(m)) for m in selected)
    before = (ColoredGridConfig(k, n, [np.flatnonzero(m) + a * n**k for a, m in enumerate(selected)])
              if "before" in emit else None)
    final, covered = _deletion(k, n, selected, _slab_width(k, n))
    del selected
    after = (ColoredGridConfig(k, n, [ids + a * n**k for a, ids in enumerate(final)])
             if "after" in emit else None)
    return before, after, DeletionReport(*astuple(params), sizes, tuple(map(len, final)), int(covered[0]))


def _split(k: int, n: int, index: np.ndarray, axis: int, slot: int):
    """(base indices of lines of ``axis`` without the digit of ``slot``, that digit)."""
    low = n ** (k - 1 - slot + (slot > axis))
    high, top = index // low, index // (low * n)  # floor division by a constant is the fast path
    return top * low + index - high * low, high - top * n


def _hits(k: int, n: int, survivors: list[np.ndarray], rows: int) -> list[list[np.ndarray]]:
    """``hits[a][c]``, a != c: W = ceil(n/64) words per survivor of axis a,
    bit x set iff a survivor of c meets it at x_a = x.  Each side's
    ``_split`` at the other's slot, computed once per pair, places its
    survivors as bits in a flat table of ``rows`` * W words and gathers the
    other's, an (N, W) view of a flat gather.  One ``np.add.at`` fills a
    table: dropping a slot's digit from a base index is a bijection onto
    (rest, digit), so no two survivors set the same bit, and adding is
    ORing."""
    hits, words = [[None] * (k + 1) for _ in range(k + 1)], -(-n // 64)
    for a, c in combinations(range(k + 1), 2):
        split = {(s, t): _split(k, n, survivors[s], s, t) for s, t in ((a, c), (c, a))}
        for s, t in ((a, c), (c, a)):
            at, x = split[t, s]
            table = np.zeros(rows * words, dtype=np.uint64)
            np.add.at(table, at * words + (x >> 6), np.uint64(1) << (x & 63).astype(np.uint64))
            place = split[s, t][0][:, None] * words + np.arange(words)  # each survivor's W words
            hits[s][t] = table[place.reshape(-1)].reshape(-1, words)
    return hits


def _nonzero(words: np.ndarray) -> np.ndarray:
    """Which rows of (N, W) words have a set bit."""
    return (words[:, 0] if words.shape[1] == 1 else np.bitwise_or.reduce(words, axis=1)) != 0


def _trial_stats(k: int, n: int, survivors: list[np.ndarray], trials: int):
    """(bad lines, max colorful order) per trial, two int64 arrays, from the
    stage-2 survivors alone, by bit operations.  Trial t's survivors are
    base indices offset by t * n^k, which ``_split`` keeps as t * n^(k-1)
    table rows.  For axes a != b, a survivor of axis a is in ``good[a,b]``
    iff the AND of its hits over the axes other than a and b is nonzero;
    a line is bad iff some ``good[a,b]`` misses it.  A trial's order is
    k+1 iff a survivor of axis 1 has a nonzero AND of all its hits (never
    after deletion), else k iff some ``good[a,b]`` is nonempty, else the
    largest m < k for which some m-set S of axes covers a point (0 if m <
    2): a survivor of S's first axis has a nonzero AND of its hits over
    the rest of S."""
    bad, orders = np.zeros(trials, np.int64), np.zeros(trials, np.int64)
    hits = _hits(k, n, survivors, trials * n ** (k - 1))
    trial = [ids // n**k for ids in survivors]
    for a in range(k + 1):
        mine = [h for h in hits[a] if h is not None]
        good = [_nonzero(reduce(and_, mine[:b] + mine[b + 1 :])) for b in range(k)]  # b: left out
        bad += np.bincount(trial[a][~reduce(and_, good)], minlength=trials)
        orders[trial[a][reduce(or_, good)]] = k
    orders[trial[0][_nonzero(reduce(and_, hits[0][1:]))]] = k + 1
    for m, S in ((m, S) for m in range(k - 1, 1, -1) for S in combinations(range(k + 1), m)):
        if orders.all():
            break
        rest = orders[trial[S[0]]] == 0  # the survivors of trials without an order yet
        covers = _nonzero(reduce(and_, [hits[S[0]][c][rest] for c in S[1:]]))
        orders[trial[S[0]][rest][covers]] = m
    return bad, orders


def probabilistic_batch_stats(runs: Sequence[ProbParams], counts: bool = True) -> list[dict]:
    """``probabilistic_trial_stats`` of each run, all of one k and n, in
    batches of max(1, TRIAL_BATCH_LINES // n^k) runs, each selected and
    deleted in groups of max(1, TRIAL_BATCH_LINES // ((k+1) n^k)) runs: a
    group's stage-1 masks, (T, k+1, n^k), take one ``_deletion`` pass, a
    batch keeps only its survivors, offset by their trial's place in it,
    and one ``_trial_stats`` call serves the whole batch.  Without
    ``counts`` the dicts leave out ``selected_sizes`` and
    ``covered_points``, and no trial computes them."""
    k, n = runs[0].k, runs[0].n
    if any((p.k, p.n) != (k, n) for p in runs):
        raise ValueError("trial statistics in batches need one k and one n")
    size, group = max(1, TRIAL_BATCH_LINES // n**k), max(1, TRIAL_BATCH_LINES // ((k + 1) * n**k))
    width, out = _slab_width(k, n, group), []
    for lo in range(0, len(runs), size):
        batch, parts, counted = runs[lo : lo + size], [], []  # per group and axis survivors; per trial counts
        for start in range(0, len(batch), group):
            masks = _selection_masks(k, n, batch[start : start + group])
            survivors, covered = _deletion(k, n, masks, width, counts)
            parts.append([ids + start * n**k for ids in survivors])
            if counts:
                counted += zip(np.count_nonzero(masks, axis=2).tolist(), covered.tolist())
            del masks  # a batch holds survivors only
        survivors = [np.concatenate(s) for s in zip(*parts)]
        ends = np.array([np.searchsorted(ids, np.arange(len(batch) + 1) * n**k) for ids in survivors])
        bad, orders = _trial_stats(k, n, survivors, len(batch))
        for t, (sizes, b, m) in enumerate(zip(np.diff(ends).T.tolist(), bad.tolist(), orders.tolist())):
            out.append({"k": k, "n": n, "seed": batch[t].seed, "sizes": tuple(sizes)})
            if counts:
                out[-1].update(selected_sizes=tuple(counted[t][0]), covered_points=counted[t][1])
            out[-1].update(consistent=b == 0, bad_lines=b, max_colorful=m)
    return out


def probabilistic_trial_stats(params: ProbParams) -> dict:
    """Array-level statistics of one probabilistic run (no object materialization).

    Returns final class sizes, the k-consistency verdict with the number
    of distinct bad lines, and the maximal colorful order after deletion,
    in O(n^k) memory for any n: the batch of one.
    """
    return probabilistic_batch_stats([params])[0]


# ---------------------------------------------------------------------------
# Tricolor polygon


def gen_tricolor(n: int, steps: Sequence[Rational]) -> ColoredLineConfig:
    """Three parallel classes supporting a closed polygon cycling the axes.

    ``steps`` holds the 3n signed step lengths; consecutive edges use
    directions x, y, z cyclically and the polygon must close.  The output
    is verified to be 2-consistent with no colorful incidence.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if len(steps) != 3 * n:
        raise ValueError(f"need exactly {3 * n} steps")
    lengths = [Fraction(s) for s in steps]
    if any(s == 0 for s in lengths):
        raise ValueError("steps must be nonzero")
    vertex = [Fraction(0)] * 3
    vertices = [tuple(vertex)]
    for j, s in enumerate(lengths):
        vertex[j % 3] += s
        vertices.append(tuple(vertex))
    if vertices[-1] != vertices[0]:
        raise ValueError("steps do not close the polygon")
    classes: list[list[Line]] = [[], [], []]
    seen: set[tuple] = set()
    for j in range(3 * n):
        line = Line.affine_with_direction(vertices[j], [int(t == j % 3) for t in range(3)])
        if line.key in seen:
            raise ValueError("degenerate parameters: coincident lines")
        seen.add(line.key)
        classes[j % 3].append(line)
    cfg = ColoredLineConfig(3, classes)
    s = extract_structure_lines(cfg)
    order, _ = s.max_colorful()
    if not structure_consistency(s, 2).ok or order != 2:
        raise ValueError("degenerate parameters: polygon fails its own checks")
    return cfg


# ---------------------------------------------------------------------------
# The two non-planar 4x3 configurations


# The 12 lines lying in exactly two of six planes, x = 0, y = 0, z = 0,
# x + y + z = w, x + 2y + 4z = 3w and x - 2z = -w (the last three share a
# line), plane pair by plane pair, as endpoint rows.
DESARGUES_ENDS = (
    ((0, 0, 1, 0), (0, 0, 0, 1)),
    ((0, 1, 0, 0), (0, 0, 0, 1)),
    ((0, 1, -1, 0), (0, 1, 0, 1)),
    ((0, 2, -1, 0), (0, 3, 0, 2)),
    ((0, 1, 0, 0), (0, 0, 1, 2)),
    ((1, 0, 0, 0), (0, 0, 0, 1)),
    ((1, 0, -1, 0), (1, 0, 0, 1)),
    ((4, 0, -1, 0), (3, 0, 0, 1)),
    ((2, 0, 1, 0), (1, 0, 0, -1)),
    ((1, -1, 0, 0), (1, 0, 0, 1)),
    ((2, -1, 0, 0), (3, 0, 0, 1)),
    ((0, 1, 0, 0), (1, 0, 0, -1)),
)
# The colors of ``DESARGUES_ENDS`` in order; class 1 is the concurrent one.
DESARGUES_COLORS = (1, 1, 2, 3, 4, 1, 3, 4, 2, 4, 2, 3)
# The colors of ``_cube_lines()`` in order; 0 leaves a line out.
REYE_COLORS = (0, 1, 2, 3, 1, 0, 3, 4, 3, 4, 2, 0, 2, 1, 0, 4)


def _colored(lines: Sequence[Line], colors: Sequence[int]) -> ColoredLineConfig:
    """The lines of each color 1..4 as its class, in their order (0: left out)."""
    classes = [[line for line, c in zip(lines, colors) if c == k] for k in (1, 2, 3, 4)]
    return ColoredLineConfig(3, classes)


def _validate_4x3(cfg: ColoredLineConfig, expect_concurrent: int, name: str) -> ColoredLineConfig:
    """``cfg`` with its class centers, certified to be a 4x3 configuration,
    3-consistent, non-planar, with no colorful incidence and
    ``expect_concurrent`` concurrent classes; RuntimeError names the checks
    that fail.  A class is concurrent when one group holds all its lines,
    and its center is that group's witness."""
    s = extract_structure_lines(cfg)
    centers = [None] * 4
    for g, refs in enumerate(s.members):
        colors = [c for c, _ in refs]
        for c in {c for c in colors if colors.count(c) == 3}:
            centers[c - 1] = s.witness(g)
    concurrent = sum(c is not None for c in centers)
    checks = {
        "class sizes 3, 3, 3, 3": cfg.class_sizes() == (3, 3, 3, 3),
        "3-consistency": structure_consistency(s, 3).ok,
        "max colorful 3": s.max_colorful()[0] == 3,
        "non-planarity": not extract_planarity(cfg)[0],
        f"{expect_concurrent} concurrent classes": concurrent == expect_concurrent,
    }
    failed = [check for check, ok in checks.items() if not ok]
    if failed:
        raise RuntimeError(f"the stated {name} coloring fails {', '.join(failed)}")
    return ColoredLineConfig.from_ends(cfg.d, cfg.ends, cfg.sizes, centers)


def gen_desargues() -> ColoredLineConfig:
    """The 12 two-plane lines ``DESARGUES_ENDS`` colored by ``DESARGUES_COLORS``
    (the coloring, unique up to relabeling, making them 3-consistent without
    a colorful incidence), certified by ``_validate_4x3``; exactly one class
    is concurrent non-coplanar."""
    lines = [Line(ProjPoint(p), ProjPoint(q)) for p, q in DESARGUES_ENDS]
    return _validate_4x3(_colored(lines, DESARGUES_COLORS), 1, "Desargues")


def _cube_lines() -> list[Line]:
    """The 12 edges of the unit cube, axis by axis, then its 4 long diagonals."""
    lines = []
    for axis, b0, b1 in product(range(3), (0, 1), (0, 1)):
        point = [b0, b1]
        point.insert(axis, 0)  # the edge's other coordinates are b0, b1 in order
        lines.append(Line.affine_with_direction(point, [int(t == axis) for t in range(3)]))
    for a in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)):  # each to the opposite corner
        lines.append(Line.through_affine(a, tuple(1 - x for x in a)))
    return lines


def gen_reye() -> ColoredLineConfig:
    """Twelve of the sixteen cube lines (edges + long diagonals), kept and
    colored by ``REYE_COLORS``: a 12-point/12-line structure with three
    lines per point, certified by ``_validate_4x3`` to be 3-consistent with
    no colorful incidence and no concurrent class; triples of parallel
    edges meet at infinity, so some incidence points are infinite."""
    return _validate_4x3(_colored(_cube_lines(), REYE_COLORS), 0, "Reye")


# ---------------------------------------------------------------------------
# Dual six-cycles


@dataclass(frozen=True)
class DualCyclesReport:
    """Which color-triple consistency conditions the dual cycles satisfy."""

    triples_with_direction_color: bool
    triple_other_colors: bool
    failures: tuple


def gen_dual_cycles(
    r: int,
    slopes: Sequence[Rational] = (Fraction(1), Fraction(2), Fraction(5)),
    starts: Sequence[Rational] | None = None,
) -> tuple[DualPointConfig, DualCyclesReport]:
    """Dual point classes: two direction points plus three collinear classes
    of size 2r built from r six-step projection cycles.

    The three support lines pass through the origin (the closure shift of
    the cycle map must vanish for cycles to exist at all).  Consistency
    for the color triples containing the direction color holds by
    construction and is asserted; the remaining {2,3,4} triple is checked
    and reported.  For r = 2 that triple is unsatisfiable with rational
    parameters: eliminating over every minimal transversal cover shows
    all solutions have irrational slopes, so a failing report there is
    inherent to exact rational coordinates, not a parameter choice.
    """
    if r < 2:
        raise ValueError("r >= 2 required: with r = 1 a colorful alignment is forced")
    if len(slopes) != 3 or len({*map(Fraction, slopes)} - {0}) != 3:
        raise ValueError("slopes must be three distinct nonzero rationals")
    a2, a3, a4 = map(Fraction, slopes)
    if starts is None:
        starts = [Fraction(3) ** i for i in range(r)]
    xs = [Fraction(s) for s in starts]
    if len(xs) != r or len(set(xs)) != r or 0 in xs:
        raise ValueError("need r distinct nonzero start coordinates")

    p1 = [ProjPoint([0, 1, 0]), ProjPoint([1, 0, 0])]  # vertical, horizontal
    p2, p3, p4 = [], [], []
    for x0 in xs:
        a = (x0, a3 * x0)
        b = (a3 * x0 / a4, a3 * x0)
        c = (a3 * x0 / a4, a2 * a3 * x0 / a4)
        d = (a2 * x0 / a4, a2 * a3 * x0 / a4)
        e = (a2 * x0 / a4, a2 * x0)
        f = (x0, a2 * x0)
        p3.extend([ProjPoint.affine(a), ProjPoint.affine(d)])
        p4.extend([ProjPoint.affine(b), ProjPoint.affine(e)])
        p2.extend([ProjPoint.affine(c), ProjPoint.affine(f)])
    try:
        cfg = DualPointConfig([p1, p2, p3, p4])
    except ValueError as exc:
        raise ValueError(f"starts cause coincident points: {exc}") from exc

    s = extract_alignments(cfg)
    order, _ = s.max_colorful()
    if order >= 4:
        raise ValueError("parameters produce a colorful alignment")
    failures = structure_consistency(s, 3).failures
    broken = [(ref, S) for ref, S in failures if 1 in S]
    if broken:
        raise ValueError(f"cycle construction broke a direction-color triple: {broken}")
    # what is left are failures of the {2,3,4} triple
    return cfg, DualCyclesReport(True, not failures, failures)


# ---------------------------------------------------------------------------
# Two-slit families


def default_generic_slits() -> tuple[Line, Line, Line, Line]:
    """Four pairwise-generic slits: two skew lines per family."""
    s1 = Line.affine_with_direction((0, 0, 0), (1, 0, 0))
    s1p = Line.affine_with_direction((0, 1, 0), (0, 0, 1))
    s2 = Line.affine_with_direction((1, 0, 1), (0, 1, 0))
    s2p = Line.affine_with_direction((2, 3, 5), (1, 1, 2))
    return s1, s1p, s2, s2p


def quadric_ruling(family: int, param: tuple[int, int]) -> Line:
    """A ruling line of the quadric x*y = z*w (homogeneous coordinates).

    Family 1 fixes (s:t), family 2 fixes (u:v); opposite families meet.
    """
    s, t = param
    if family == 1:
        return Line(ProjPoint([s, 0, 0, t]), ProjPoint([0, t, s, 0]))
    if family == 2:
        return Line(ProjPoint([s, 0, t, 0]), ProjPoint([0, t, 0, s]))
    raise ValueError("family must be 1 or 2")


def quadric_ruling_slits() -> tuple[Line, Line, Line, Line]:
    """Slits in special position: both families are rulings of x*y = z*w."""
    return tuple(quadric_ruling(f, st) for f, st in ((1, (1, 1)), (1, (2, 1)), (2, (1, 1)), (2, (1, 2))))


def _point_on(line: Line, t: int) -> ProjPoint:
    return ProjPoint([a + t * b for a, b in zip(line.p.coords, line.q.coords)])


def gen_two_slit(
    which: int,
    slits: tuple[Line, Line, Line, Line],
    count: int,
    seed: int,
) -> list[Line]:
    """Sample ``count`` distinct lines secant to the chosen family's two slits.

    Each line joins a point p + t*q of each slit, where p and q are the
    slit's spanning points and the integer t is drawn from the seeded
    substream for the chosen family.
    """
    if which not in (1, 2) or count < 0:
        raise ValueError("which must be 1 or 2" if count >= 0 else "count must be >= 0")
    sa, sb = (slits[0], slits[1]) if which == 1 else (slits[2], slits[3])
    if meet(sa, sb) is not None:
        raise ValueError("the chosen family's slits must be skew")
    stream = substream(seed, SLIT_OFFSET + which)
    out: list[Line] = []
    seen: set[tuple] = set()
    i = 0  # two draws per attempt
    while len(out) < count:
        if i // 2 > 20 * count + 100:
            raise RuntimeError("could not sample enough distinct secant lines")
        t = splitmix64(stream, i) % 20011 - 10005
        u = splitmix64(stream, i + 1) % 20011 - 10005
        i += 2
        line = Line(_point_on(sa, t), _point_on(sb, u))
        if line.key in seen:
            continue
        seen.add(line.key)
        out.append(line)
    return out
