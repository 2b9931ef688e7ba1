"""Incidence structures: the maximal concurrences of a configuration.

Extraction builds the record every verdict reads, ``gridmodel``'s
``IncidenceStructure`` (importable from here too), which caches its
carrier table and per-color entries.  It holds int64 entry arrays
``(group, line)``: one group per concurrency point, listing the positions
(in class order) of the lines through it, sorted by group, then line, with
groups ascending by their two smallest lines (``_ordered``), so equal
structures have equal arrays.  All maximal concurrences are kept,
including single-color ones (the center of a concurrent class, or the
shared direction of a parallel class), so transform preservation audits
can compare structures exactly.
The record holds the rows its witnesses come from (line keys, planar
covectors or dual points; a grid's keys are built for the lines asked
for): a group's witness is ``common_rows`` of its first two lines' rows,
computed only when asked.  ``monomials``, the groups as frozensets of
``(color, index)`` refs, is a view derived when asked; the classification
tables of 4x3 configurations read its colorful triples.

For dual point configurations the same record type holds the maximal
*alignments* (collinear subsets), witnessed by their covectors: the dual
notion of concurrences, so the consistency checks apply unchanged.

Both come from numpy kernels over the pairs on residues mod a prime: in
the plane (``planar_buckets``) pairs group by their cross product (the
line through two points, or the point where two lines meet); in d >= 3
(``concurrence_buckets``, on a configuration's key and pivot arrays) skew
pairs are certified in bulk and the others grouped by their meeting
point.  One exact step (``_confirmed``) turns the residue groups of both
into entry arrays, deciding them on residues mod a few ``exactgeom.PRIMES``
(each kernel states its bound) and meeting pairs exactly, in bulk
(``common_rows``), only where that fails.  The ordering rule orders every
extracted structure's groups, the grid's too, whose shared axis
directions, one group each, grid verdicts never count: they read the
grid's own record of its points (``ColoredGridConfig.points``), which
keeps point order.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterator, Sequence

import numpy as np

from .configs import ColoredLineConfig, DualPointConfig
from .exactgeom import (
    PRIME,
    canonical_rows,
    common_rows,
    cross_rows,
    has_duplicate_rows,
    int_array,
    magnitude,
    meet,  # noqa: F401 - the exact meet stays importable from here
    meet_rows,
    primes_above,
    residues,
)
from .gridmodel import (
    ColoredGridConfig,
    ConsistencyVerdict,
    IncidenceStructure,
    Monomial,  # noqa: F401 - the record's types stay importable from here
    group_consistency,
)
from .rng import mix64


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
    axes = np.concatenate((np.empty(0, np.int64), *cfg.ids)) // cfg.n**cfg.k
    shared = np.flatnonzero(np.bincount(axes)[axes] >= 2)  # lines sharing their axis
    shared = shared[np.argsort(axes[shared], kind="stable")]
    group = np.concatenate((group, axes[shared] + group.size))  # runs after the point groups
    group, line = _ordered(group, np.concatenate((line, shared)))
    return IncidenceStructure(cfg.class_sizes(), group, line, cfg.points.rows)


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
    """Residue rows scaled in place to a leading 1; zero rows stay zero (the
    residues of an exact primitive point, a class's or a met pair's, never are)."""
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


def _candidates(r: np.ndarray, pivots: np.ndarray, p: int, label: np.ndarray):
    """The codes i * L + j of the pairs (i, j > i) of the L lines (key
    residues r mod p) not certified skew, less those of equal ``label``s, and
    their points mod p scaled to a leading 1."""
    n, dim = r.shape[0], r.shape[2]
    r1, r2, (c1, c2), at = r[:, 0], r[:, 1], pivots.T, np.arange(n)
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
        # g(residual, as in ``meet_rows``) of b's key rows against a = lines[i]
        u = (s[i] * g1[j] - r1[j, c1[i]] * t1[i] - r1[j, c2[i]] * t2[i]) % p
        w = (s[i] * g2[j] - r2[j, c1[i]] * t1[i] - r2[j, c2[i]] * t2[i]) % p
        points.append(_scaled((r1[j] * w[:, None] - r2[j] * u[:, None]) % p, p))
    return code, np.concatenate(points)


def _residual(s, ab, pivots, free, m, v, q) -> np.ndarray:
    """Coordinates of the residual (as in ``meet_rows``) of residue rows v
    (Q, E, D) against the lines at positions m, mod each of the Q moduli q,
    at the lines' free (non-pivot) columns ``free[m]``, where alone it may
    be nonzero.  s = p1 * p2 (Q, L) and ab = (p2 * r1, p1 * r2) at the
    free columns (Q, L, 2, D - 2) are residues, so a coordinate is three
    products of two residues: an int64 sum in (-2^61, 2^60)."""
    get = lambda a, i: np.take_along_axis(a, i[None], axis=2)  # noqa: E731
    (c1, c2), abm = pivots[m].T, np.take(ab, m, axis=1)
    x = s[:, m, None] * get(v, free[m]) - get(v, c1[:, None]) * abm[:, :, 0]
    return (x - get(v, c2[:, None]) * abm[:, :, 1]) % q[:, None, None]


def _met(code: np.ndarray, n: int, elements) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per slab of 16 * TILE pairs x * n + y of ``elements``: the met pairs' positions and points."""
    for at, (x, y) in zip(range(0, len(code), 16 * TILE), _batches(code, n)):
        rows, met = common_rows(elements[x], elements[y])
        yield np.flatnonzero(met) + at, rows[met]


def _confirmed(code, point, n: int, extra: dict, elements, key, rows, on, decide, pairs_meet=False):
    """Entry arrays (``_ordered``) of the points where the pairs of codes
    x * n + y (x < y) of ``elements`` (line keys or planar rows) meet,
    given their keys ``point``: rows mod ``PRIME`` that are 0 or a function
    of the pair's exact point.  ``extra`` maps a pair to more lines through
    its point.  Pairs keyed 0 are met exactly (``_met``; a skew one is
    dropped) and keyed by their points (``key``).

    Pairs group by key.  With ``decide``, a group is exact when its first
    pair's point, an integer polynomial whose residues mod the moduli
    (their product above twice each value decided) are ``rows(x, y)`` (Q,
    G, w), is not 0 mod the first modulus and every line of the group lies
    on it (``on(m, v)``; y does by construction): then every pair through
    that point has the group's key.  With ``pairs_meet`` (distinct lines
    always meet) a group of two lines is exact as it is.  The pairs of any
    other group (a residue collision) are met exactly, in slabs, and
    merged by exact point; those points have the group's key, so no other
    group holds them."""
    zero, keep = np.flatnonzero(~point.any(axis=1)), np.ones(len(code), bool)
    keep[zero] = False  # skew unless met; never in ``extra``
    for at, hits in _met(code[zero], n, elements):
        point[zero[at]], keep[zero[at]] = key(hits), True
    code, point = code[keep], point[keep]
    order = np.lexsort(point.T) if point.shape[1] > 1 else np.argsort(point[:, 0])
    new = np.diff(point[order], axis=0, prepend=-1).any(axis=1)
    gid, first = np.empty(len(code), np.int64), order[new]  # each group's first pair
    gid[order] = new.cumsum() - 1
    del order, new, point  # the peak is the entry arrays'
    more = [gid[i] * n + lines for i, lines in extra.items()]
    entry = np.concatenate([gid * n + code // n, gid * n + code % n, *more])
    entry.sort()
    group, line = np.divmod(entry[np.diff(entry, prepend=-1) != 0], n)
    del entry
    x, y = np.divmod(code[first], n)
    ok = pairs_meet & (np.bincount(group, minlength=len(first)) == 2)
    check = np.flatnonzero(~ok[group] & (line != y[group]) & decide)
    ok[group[check]] = True
    for at in range(0, len(check), 4 * TILE):
        g = group[e := check[at : at + 4 * TILE]]
        lead = np.diff(g, prepend=-1) != 0  # the batch's first entry of each group
        v = rows(x[g[lead]], y[g[lead]])
        ok[g[lead][~v[0].any(axis=1)]] = False
        ok[g[~on(line[e], v[:, lead.cumsum() - 1])]] = False
    found: dict[tuple, set[int]] = {}  # the pairs of groups that failed, by exact point
    fail = np.flatnonzero(~ok[gid])
    for at, hits in _met(code[fail], n, elements):
        for i, exact in zip(fail[at].tolist(), map(tuple, hits.tolist())):
            found.setdefault(exact, set()).update(divmod(int(code[i]), n), extra.get(i, []))
    sizes, keep = list(map(len, found.values())), ok[group]
    more = np.fromiter(chain.from_iterable(map(sorted, found.values())), np.int64, sum(sizes))
    group = np.concatenate((group[keep], np.repeat(np.arange(len(sizes)) + len(ok), sizes)))
    return _ordered(group, np.concatenate((line[keep], more)))


def planar_buckets(triples) -> tuple[np.ndarray, np.ndarray]:
    """Entry arrays ``(group, line)``: the planar triples on each canonical
    cross product of two of them (points: the covectors of alignments; line
    covectors: the points where lines meet).  One element twice: ValueError.

    Pairs are keyed by the cross product of their primitive residues mod
    ``PRIME``; a group of one pair is exact (a third element c on its point
    gives (a, c) or (b, c) its key, or both are 0 and met exactly), and
    ``_confirmed`` checks the others: m is on a x b iff det(m, a, b) = 0,
    and with coordinates below 2^B, |det| < 6 * 2^(3B), decided mod primes
    with a product above 2^(3B + 4), four up to B = 38.  Pairs keyed 0, and
    all where a table that cannot grow falls short, are crossed exactly
    (``cross_rows``)."""
    n, p = len(triples), PRIME
    if n < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    rows = canonical_rows(int_array(triples).reshape(n, 3))
    if has_duplicate_rows(rows):
        raise ValueError("one projective element twice")
    primes = primes_above(3 * magnitude(rows).bit_length() + 4)
    q, decide = np.array(primes or (p,)), primes is not None
    t, pack = residues(rows[None], q[:, None, None]), [p * p, p, 1]
    pair, r = np.concatenate(list(_tile_pairs(n))), residues(rows, p)
    # scaled to (1, x, y), (0, 1, y) or (0, 0, 1), or zero: a unique key below 2p^2 < 2^61
    key = np.hstack([_scaled(np.cross(r[i], r[j]) % p, p) @ pack for i, j in _batches(pair, n)])
    cross = lambda x, y: np.cross(t[:, x], t[:, y]) % q[:, None, None]  # noqa: E731
    on = lambda m, v: ((t[:, m] * v).sum(axis=2) % q[:, None] == 0).all(axis=0)  # noqa: E731
    known = lambda pts: (_scaled(residues(pts, p).reshape(-1, 3), p) @ pack)[:, None]  # noqa: E731
    return _confirmed(pair, key[:, None], n, {}, rows, known, cross, on, decide, pairs_meet=True)


def concurrence_buckets(
    keys: np.ndarray, pivots: np.ndarray, sizes: Sequence[int] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Entry arrays ``(group, line)`` of the lines in d >= 3, given by their
    (L, 2, d + 1) keys and (L, 2) pivots (``exactgeom.line_keys``), through
    each point where two or more of them meet.  ``sizes`` gives the sizes of
    the leading lines' classes in order.

    Lines a, b meet iff their stacked keys M have rank 3; then M X^T (X = [I
    | E], E fixed pseudo-random) has determinant 0, the side product of the
    Pluecker coordinates of the key pencils mapped by X, so a nonzero
    residue of it mod ``PRIME`` (an entry of a tile's int64 product of
    Pluecker rows and dual columns) proves the pair skew.  Other pairs are
    keyed by g(w)*s1 - g(u)*s2 mod p (b's key rows s1, s2, their residuals
    u, w against a, a fixed pseudo-random functional g): lines meeting at
    l*s1 + m*s2 have l*u + m*w = 0, so it is 0 or their point mod p.
    Residues are below 2^30, products of two below 2^60, and no int64 sum
    has more than six of them (< 6 * 2^60 < 2^63).

    A group's point is w[j]*s1 - u[j]*s2 of its first pair (j the first
    column where u is not 0 mod the first modulus; s1 if none).  With B the
    bit length of the largest key entry, |u[j]|, |w[j]| < 3 * 2^(3B), so it,
    like an exact meet (``meet_rows``), is below 6 * 2^(4B) and a line's
    residual of it below 3 * 2^(2B) * 6 * 2^(4B) < 2^(6B + 5); ``_confirmed``
    decides it mod the fewest ``PRIMES`` whose product is above 2^(6B + 6),
    eight up to B = 38, more above.  A class of two or more lines whose
    first two meet (``meet_rows``) at a point on all of them, so decided,
    is one group there, keyed by that point, and its pairs are not tested:
    two distinct lines share at most one point.  Pairs keyed 0 and those of
    a group that fails are met exactly (``meet_rows``); so is every pair,
    with no class tested, where a table that cannot grow falls short.
    Identical lines raise ValueError."""
    n = len(keys)
    if has_duplicate_rows(keys):
        raise ValueError("meet of identical lines is undefined")
    if n < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    primes = primes_above(6 * magnitude(keys).bit_length() + 6)
    q, decide = np.array(primes or (PRIME,)), primes is not None
    r = np.empty((len(q), *keys.shape), np.int32)  # key residues, below 2^30
    for i, p in enumerate(q.tolist()):
        r[i] = residues(keys, p)
    # per line the columns where its residuals may not be 0 (not pivots), and their factors there
    dim, at = np.arange(keys.shape[2]), np.arange(n)
    free = np.sort(np.where((dim == pivots[:, :1]) | (dim == pivots[:, 1:]), -1, dim))[:, 2:]
    p1, p2 = (r[:, at, t, pivots[:, t]].astype(np.int64) for t in (0, 1))
    s, ab = p1 * p2 % q[:, None], np.take_along_axis(r, free[None, :, None], axis=3)
    ab = ab * np.stack((p2, p1), 2)[..., None] % q[:, None, None, None]
    on = lambda m, v: ~_residual(s, ab, pivots, free, m, v, q).any(axis=(0, 2))  # noqa: E731
    label, extra, firsts, start = -1 - at, {}, [], np.cumsum([0, *sizes])  # one label per center
    pencil = np.flatnonzero(np.diff(start) >= 2 if decide else [])  # classes of two or more
    center, met = meet_rows(keys[start[pencil]], keys[start[pencil] + 1])  # of the first two
    owner = np.repeat(np.arange(len(pencil)), np.diff(start)[pencil])
    lines = np.concatenate([at[:0], *(at[start[c] : start[c + 1]] for c in pencil)])
    off = ~on(lines, residues(center, q[:, None, None])[:, owner])  # all classes at once
    concurrent = met & (np.bincount(owner[off], minlength=len(pencil)) == 0)
    for c in pencil[concurrent].tolist():
        label[start[c] : start[c + 1]], extra[len(firsts)] = c, at[start[c] + 2 : start[c + 1]]
        firsts.append(start[c] * n + start[c] + 1)  # keyed by its center; the rest in ``extra``

    def rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        s1, s2 = np.take(r, y, axis=1).transpose(2, 0, 1, 3)  # the points w[j]*s1 - u[j]*s2
        u, w = (_residual(s, ab, pivots, free, x, t, q) for t in (s1, s2))
        j = (u[0] != 0).argmax(axis=1)[None, :, None]  # mod q[0]
        uj, wj = np.take_along_axis(u, j, axis=2), np.take_along_axis(w, j, axis=2)
        return np.where(u[0].any(axis=1)[:, None], (wj * s1 - uj * s2) % q[:, None, None], s1)

    code, point = _candidates(residues(keys, PRIME), pivots, PRIME, label)
    key = lambda points: _scaled(residues(points, PRIME).reshape(-1, len(dim)), PRIME)  # noqa: E731
    code = np.concatenate((np.array(firsts, int), code))
    point = np.vstack((key(center[concurrent]), point))
    return _confirmed(code, point, n, extra, keys, key, rows, on, decide)


def extract_structure_lines(cfg: ColoredLineConfig) -> IncidenceStructure:
    """All maximal concurrences of a line configuration (``concurrence_buckets``
    on its key arrays and class sizes), witnessed by the points where their
    keys meet; in the plane (``planar_buckets``), by the canonical cross
    products of the lines' covectors, the cross products of their endpoint rows."""
    if cfg.d != 2:
        entries = concurrence_buckets(cfg.keys, cfg.pivots, cfg.sizes)
        return IncidenceStructure(cfg.sizes, *entries, cfg.keys)
    cov = cross_rows(cfg.ends[:, 0], cfg.ends[:, 1])
    return IncidenceStructure(cfg.sizes, *planar_buckets(cov), cov)


def extract_alignments(cfg: DualPointConfig) -> IncidenceStructure:
    """Maximal collinear subsets of a dual point configuration, witnessed by
    the covectors of their lines, the cross products of their points
    (``planar_buckets``)."""
    return IncidenceStructure(cfg.sizes, *planar_buckets(cfg.coords), cfg.coords)


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
    return group_consistency(s, k)
