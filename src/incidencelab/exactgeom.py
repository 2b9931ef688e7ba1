"""Exact rational projective linear algebra.

Points and lines in projective d-space with arbitrary-precision rational
coordinates, and spans by exact rank (``int_rank``).  A point's homogeneous
coordinates canonicalize to a primitive integer vector (denominators
cleared, gcd divided out, first nonzero entry positive), so equality is
tuple equality and every predicate reduces to exact integer arithmetic.
No floating point is used anywhere.

Configurations hold points and lines as integer arrays: int64 under a
stated bound, Python-int object arrays above it.  Rows are canonicalized
in bulk, line keys come from 2x2 minors of the endpoints (``line_keys``,
int64 below 2^30) and a projective map is one product (``image_rows``,
int64 below 2^63).  Pairs meet in bulk, line keys by a residual test
(``meet_rows``), planar rows by ``cross_rows``.

The objects ``ProjPoint`` and ``Line``, with ``incident``, ``meet`` (one
pair of ``meet_rows``) and ``apply_matrix`` (one row of ``image_rows``),
have no caller in the library: they stay because the benchmark's tracer
binds them by name.

Conventions
-----------
* Homogeneous coordinates are ``(x_1, ..., x_d, w)``; a point is at
  infinity iff ``w == 0``.  The affine point ``x`` embeds as ``(x, 1)``.
* Coordinates parse from ``"num/den"`` strings (a decimal exponent at
  most ``MAX_EXPONENT`` in magnitude) and are ints from then on:
  canonical coordinates serialize as integer strings (``"5"``).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

import numpy as np

Rational = int | Fraction

# The largest primes below 2^30, PRIME first (twelve, more on demand): residue products < 2^60.
PRIMES = tuple(2**30 - d for d in (35, 41, 83, 101, 105, 107, 135, 153, 161, 173, 203, 257))
PRIME = PRIMES[0]
# The largest exponent magnitude of a coordinate text ("1e4300"): a power of
# ten about as long as Python's 4,300-digit cap on int strings, which bounds
# every run of digits.  ``Fraction`` computes 10^exp exactly, so it is
# measured first.
MAX_EXPONENT = 4300
_ASCII_INT = re.compile(r"-?[0-9]+")
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")  # as ``Fraction`` reads it


def parse_rational(text: str) -> Rational:
    """Parse a "num/den" string (tolerating unicode minus signs), else
    ValueError; an ASCII integer string parses to its int.  A decimal
    exponent past ``MAX_EXPONENT`` in magnitude, or an integer past
    Python's cap on int string digits, is a ValueError."""
    if not isinstance(text, str):
        raise ValueError(f"rational must be a 'num/den' string, not {text!r}")
    text = text.strip().replace("−", "-")
    if _ASCII_INT.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # past Python's cap on the digits of an int string
            digits, cap = len(text.lstrip("-")), sys.get_int_max_str_digits()
            raise ValueError(f"{text[:40]!r} has {digits} digits, past {cap}") from None
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
        raise ValueError(f"exponent of {text[:40]!r} past {MAX_EXPONENT} in magnitude")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _canonical_ints(values: Sequence[Rational]) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector, sign-fixed
    (``int`` turns numpy integers into Python ints, which cannot wrap)."""
    scale = lcm(*[v.denominator for v in values])
    return _reduce_row([int(v.numerator) * (scale // v.denominator) for v in values])


def _reduce_row(row: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer row by its gcd and fix the leading sign; a zero
    row has no canonical form (ValueError)."""
    g = gcd(*row)
    if not g:
        raise ValueError("zero vector has no canonical homogeneous form")
    g = -g if next(x for x in row if x) < 0 else g
    return tuple([x // g for x in row])


def int_array(values) -> np.ndarray:
    """Integers (nested lists or an array) as int64 if all fit, negated too, else as Python ints."""
    try:
        a = np.array(values, np.int64)
    except OverflowError:
        return np.array(values, object)
    return a if not a.size or a.min() > -(2**63) else np.array(values, object)


def magnitude(a: np.ndarray) -> int:
    """The largest absolute entry of an integer array, as a Python int (0 if empty)."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def canonical_rows(rows: np.ndarray) -> np.ndarray:
    """Integer rows (the last axis) divided by their gcd and sign-fixed, all
    at once, as ``_reduce_row`` does each; a zero row: ValueError."""
    g = np.gcd.reduce(rows, axis=-1)
    if not np.all(g):
        raise ValueError("zero vector has no canonical homogeneous form")
    first = np.take_along_axis(rows, (rows != 0).argmax(axis=-1)[..., None], -1)[..., 0]
    return rows // np.where(first < 0, -g, g)[..., None]


def line_keys(ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The keys (L, 2, D) and pivots (L, 2) that ``Line`` gets from
    ``int_rref``, of the lines through (L, 2, D) endpoint rows P, Q.  With
    m(i, j) = P_i Q_j - P_j Q_i, pivot c1 is the first column where P or Q
    is nonzero, c2 the first with m(c1, c2) != 0, and the key rows are
    (m(j, c2))_j and (m(c1, j))_j made primitive and sign-fixed.  int64 when
    every coordinate is below 2^30 (so |m| < 2^61), else Python ints.  Two
    endpoints on one point: ValueError."""
    ends = ends.astype(object) if magnitude(ends) >= 2**30 else ends
    p, q, at = ends[:, 0], ends[:, 1], np.arange(len(ends))
    c1 = ((p != 0) | (q != 0)).argmax(axis=1)
    second = p[at, c1, None] * q - q[at, c1, None] * p
    if not (second != 0).any(axis=1).all():
        raise ValueError("a line needs two distinct projective points")
    c2 = (second != 0).argmax(axis=1)
    first = p * q[at, c2, None] - q * p[at, c2, None]
    return canonical_rows(np.stack((first, second), axis=1)), np.stack((c1, c2), axis=1)


def image_rows(matrix: Sequence[Sequence[int]], rows: np.ndarray) -> np.ndarray:
    """Canonical images of point rows (the last axis) under an integer matrix:
    one product, int64 when (D+1) * max|A| * max|x| < 2^63, else Python ints."""
    a = int_array(matrix)
    if a.ndim != 2 or a.shape[1] != rows.shape[-1]:
        raise ValueError("matrix shape does not match point coordinates")
    if a.shape[1] * magnitude(a) * magnitude(rows) >= 2**63:
        a, rows = a.astype(object), rows.astype(object)
    return canonical_rows(rows @ a.T)


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical cross products of (N, 3) integer rows: the covectors of the
    lines through two points, or the points where two lines meet; int64
    when every entry is below 2^30, else Python ints."""
    if max(magnitude(a), magnitude(b)) >= 2**30:
        a, b = a.astype(object), b.astype(object)
    return canonical_rows(np.cross(a, b).reshape(len(a), 3))


def meet_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical points where the lines of (N, 2, D) key rows a and b
    meet, and a mask of the pairs that do (the others' rows are 0).  Each
    of a's rows r1, r2 (pivots p1, p2 at their first nonzero columns c1,
    c2) is zero at the other's pivot, so p1*p2*v - v[c1]*p2*r1 -
    v[c2]*p1*r2, the residual of v, is 0 iff v is on a.  The residuals u, w
    of b's rows s1, s2 are dependent iff the lines meet, at w[j]*s1 -
    u[j]*s2 (j the first column with u[j] != 0; at s1 if u = 0).  Entries
    below 2^B give |u|, |w| < 3 * 2^(3B) and |w[j]*u - u[j]*w| < 18 *
    2^(6B): int64 when all are below 2^9, else Python ints.  Keys of other
    shapes, or of identical lines (u = w = 0): ValueError."""
    if a.shape != b.shape or a.shape[1:2] != (2,):
        raise ValueError("lines live in different ambient dimensions")
    if max(magnitude(a), magnitude(b)) >= 2**9:
        a, b = a.astype(object), b.astype(object)
    at, (c1, c2) = np.arange(len(a)), (a != 0).argmax(axis=2).T
    r1, r2, s1, s2 = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
    p1, p2 = r1[at, c1, None], r2[at, c2, None]
    u, w = (p1 * p2 * v - v[at, c1, None] * p2 * r1 - v[at, c2, None] * p1 * r2 for v in (s1, s2))
    nonzero = u != 0
    has, j = nonzero.any(axis=1), nonzero.argmax(axis=1)
    if not (has | (w != 0).any(axis=1)).all():
        raise ValueError("meet of identical lines is undefined")
    uj, wj = u[at, j, None], w[at, j, None]
    met = ~has | ~(wj * u - uj * w).any(axis=1)
    rows = np.zeros_like(s1)
    rows[met] = canonical_rows(np.where(has[:, None], wj * s1 - uj * s2, s1)[met])
    return rows, met


def common_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical row on both elements of each pair and a mask of the pairs
    that have one: ``meet_rows`` of (N, 2, D) line keys, else ``cross_rows``."""
    if a.ndim == 3:
        return meet_rows(a, b)
    return cross_rows(a, b), np.ones(len(a), bool)


def has_duplicate_rows(rows: np.ndarray) -> bool:
    """True iff two entries of an integer array along its first axis are
    equal: one lexsort for int64, a set of tuples for Python ints."""
    rows = rows.reshape(len(rows), int(np.prod(rows.shape[1:])))
    if rows.dtype == object:
        return len(set(map(tuple, rows.tolist()))) < len(rows)
    rows = rows[np.lexsort(rows.T)]
    return bool((rows[1:] == rows[:-1]).all(axis=1).any())


def int_rref(rows: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """Canonical reduced row-echelon form of an integer matrix.

    Fraction-free Gauss-Jordan elimination; each returned row is
    primitive with positive leading entry, so the output is a canonical
    basis of the row space (unique per subspace).
    """
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                a, b = prow[col], mat[i][col]
                g = gcd(a, b)
                fa, fb = a // g, b // g
                new = [fa * x - fb * y for x, y in zip(mat[i], prow)]
                mat[i] = list(_reduce_row(new)) if any(new) else new
        rank += 1
        if rank == len(mat):
            break
    return [_reduce_row(r) for r in mat[:rank] if any(r)]


def int_rank(rows: Iterable[Sequence[int]]) -> int:
    return len(int_rref(rows))


def residues(rows, p: int) -> np.ndarray:
    """An integer array (or nested lists) reduced mod p, as int64 residues in [0, p)."""
    rows = rows if isinstance(rows, np.ndarray) else int_array(rows)
    return (rows % p).astype(np.int64)


def is_prime(n: int) -> bool:
    """Trial division, exact for every n."""
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


def _primes_below(top: int, span: int) -> list[int]:
    """The primes in [top - span, top), descending, by one numpy sieve of
    that window by every f up to sqrt(top) (for top - span > sqrt(top))."""
    window = np.ones(span, dtype=bool)
    for f in range(2, isqrt(top) + 1):
        window[-(top - span) % f :: f] = False
    return (top - span + np.flatnonzero(window)[::-1]).tolist()


def primes_above(bits: int) -> tuple[int, ...] | None:
    """The fewest leading ``PRIMES``, so ``PRIME`` first, whose product
    exceeds 2^bits: an integer below 2^(bits - 1) that is 0 modulo each is
    0.  The table grows on demand by the next primes below its last entry
    while that is above 2^29 (so all stay in (2^29, 2^30)), taken from
    sieved windows sized for the bits still missing, under one running
    product; None if it cannot."""
    global PRIMES
    total = 1
    for r, p in enumerate(PRIMES, 1):
        total *= p
        if total >> bits:
            return PRIMES[:r]
    grown, top = list(PRIMES), PRIMES[-1]
    while not total >> bits and grown[-1] > 2**29:
        span = 24 * ((bits - total.bit_length()) // 29 + 1) + 1024  # primes near 2^30: 1 in 21
        for p in _primes_below(top, span):
            total *= p
            grown.append(p)
            if total >> bits or p <= 2**29:
                break
        top -= span
    PRIMES = tuple(grown)
    return PRIMES if total >> bits else None


def key_ranks(keys: np.ndarray, groups: np.ndarray, cap: int) -> np.ndarray:
    """The rank of each group's stacked key rows, for (L, 2, D) line keys, a
    (G, t) array of line positions and a bound ``cap`` on every rank (t
    concurrent lines span at most min(d, t) + 1 dimensions).  Fraction-free
    elimination mod ``PRIME`` of all stacks at once: per column, every row
    becomes (pivot * row - row[c] * pivot row) mod p, pivots never inverted,
    products below 2^60.
    A rank mod p is at most the rational one, so one reaching ``cap`` is
    exact; the others get ``int_rank``."""
    p, (used, at) = PRIME, np.unique(groups, return_inverse=True)
    r = residues(keys[used], p)
    m = r[at.reshape(groups.shape)].reshape(len(groups), -1, r.shape[2])
    g, free, rank = np.arange(len(m)), np.ones(m.shape[:2], bool), np.zeros(len(m), np.int64)
    for c in range(m.shape[2]):
        nonzero = free & (m[:, :, c] != 0)
        has, piv = nonzero.any(axis=1), nonzero.argmax(axis=1)
        row = m[g, piv]
        lead = np.where(has, row[:, c], 1)  # no pivot: column c is zero, m stays
        m = (m * lead[:, None, None] - m[:, :, c, None] * row[:, None, :]) % p
        free[g, piv] &= ~has
        rank += has
    for x in np.flatnonzero(rank < cap).tolist():
        rank[x] = int_rank(keys[groups[x]].reshape(-1, keys.shape[2]).tolist())
    return rank


@dataclass(frozen=True)
class ProjPoint:
    """A projective point as a canonical primitive integer coordinate tuple."""

    coords: tuple[int, ...]

    def __init__(self, coords: Sequence[Rational]):
        object.__setattr__(self, "coords", _canonical_ints(coords))

    @classmethod
    def canonical(cls, coords: tuple[int, ...]) -> "ProjPoint":
        """The point of an already primitive, sign-fixed tuple, taken as it is."""
        point = object.__new__(cls)
        object.__setattr__(point, "coords", coords)
        return point

    @property
    def ambient_dim(self) -> int:
        return len(self.coords) - 1

    def __repr__(self) -> str:
        return "(" + ":".join(str(c) for c in self.coords) + ")"


def incident(p: ProjPoint, points: Sequence[ProjPoint]) -> bool:
    """True iff p lies in the span of ``points`` (exact rank test)."""
    if any(q.ambient_dim != p.ambient_dim for q in points):
        raise ValueError("the point and its spanning points live in different ambient dimensions")
    rows = [q.coords for q in points]
    return int_rank([*rows, p.coords]) == int_rank(rows)


@dataclass(frozen=True)
class Line:
    """A projective line stored as two distinct spanning points.

    The canonical key (reduced row-echelon basis of the two coordinate
    rows, with pivot columns ``pivots``) identifies the line independently
    of the chosen point pair, so lines hash and compare by the geometric
    object they represent.
    """

    p: ProjPoint
    q: ProjPoint
    key: tuple[tuple[int, ...], ...]
    pivots: tuple[int, int]

    def __init__(self, p: ProjPoint, q: ProjPoint):
        if p.ambient_dim != q.ambient_dim:
            raise ValueError("line endpoints in different ambient dimensions")
        key = int_rref([p.coords, q.coords])
        if len(key) != 2:
            raise ValueError("a line needs two distinct projective points")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "key", tuple(key))
        object.__setattr__(self, "pivots", tuple(next(c for c, x in enumerate(r) if x) for r in key))

    @property
    def ambient_dim(self) -> int:
        return len(self.key[0]) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Line) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"Line({self.p!r}, {self.q!r})"


def meet(a: Line, b: Line) -> ProjPoint | None:
    """The common point of two distinct lines, or None if they are skew:
    ``meet_rows`` of their keys (ValueError as there)."""
    rows, met = meet_rows(int_array([a.key]), int_array([b.key]))
    return ProjPoint.canonical(tuple(rows[0].tolist())) if met[0] else None


def apply_matrix(matrix: Sequence[Sequence[int]], point: ProjPoint) -> ProjPoint:
    """Image of a point under a projective transformation given by integer
    matrix rows: ``image_rows`` of its one row."""
    return ProjPoint.canonical(tuple(image_rows(matrix, int_array([point.coords]))[0].tolist()))
