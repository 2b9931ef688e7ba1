import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from incidencelab import exactgeom
from incidencelab.configs import ColoredLineConfig
from incidencelab.exactgeom import (
    MAX_EXPONENT,
    PRIME,
    Line,
    ProjPoint,
    _canonical_ints,
    apply_matrix,
    canonical_rows,
    common_rows,
    incident,
    int_rank,
    int_rref,
    cross_rows,
    has_duplicate_rows,
    image_rows,
    int_array,
    is_prime,
    key_ranks,
    line_keys,
    magnitude,
    meet,
    meet_rows,
    parse_rational,
)
from oracles import (
    cross,
    int_nullspace,
    fraction_canonical_ints,
    key_arrays,
    line_contains,
    line_covector_2d,
    line_config,
    line_from_covector_2d,
    loop_apply_matrix,
    loop_meet,
    point_strings,
    primes_below,
    rank3x3,
    rank_of_directions,
    rref_meet,
)

nonzero_ints = st.integers(-50, 50).filter(lambda v: v != 0)
small_fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def pt(*coords):
    return ProjPoint(list(coords))


small = st.integers(-6, 6)
# small coordinates plus magnitudes beyond 2^64
coord = st.one_of(small, st.integers(2**64, 2**66), st.integers(-(2**66), -(2**64)))


@st.composite
def points(draw, d, at_infinity=False, entries=coord):
    c = draw(st.lists(entries, min_size=d + 1, max_size=d + 1))
    if at_infinity:
        c[-1] = 0
    assume(any(c))
    return ProjPoint(c)


@st.composite
def lines(draw, d, at_infinity=False, entries=coord):
    p, q = draw(points(d, at_infinity, entries)), draw(points(d, at_infinity, entries))
    assume(p != q)
    return Line(p, q)


def point_at_infinity(line: Line) -> ProjPoint | None:
    """The line's point at infinity, or None if the line lies at infinity."""
    pw, qw = line.p.coords[-1], line.q.coords[-1]
    if pw == 0 and qw == 0:
        return None
    if pw == 0:
        return line.p
    if qw == 0:
        return line.q
    return ProjPoint([qw * x - pw * y for x, y in zip(line.p.coords, line.q.coords)])


@st.composite
def on_line(draw, line):
    """A point of the line: an integer combination of its spanning points."""
    s, t = draw(small), draw(small)
    assume(s or t)
    return ProjPoint([s * x + t * y for x, y in zip(line.p.coords, line.q.coords)])


@st.composite
def line_pairs(draw):
    """(kind, a, b) in d = 2..5: b built to meet a, parallel to a (through
    a's point at infinity), both at infinity, the same line, or random."""
    d = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["meeting", "parallel", "infinity", "identical", "random"]))
    a = draw(lines(d, at_infinity=kind == "infinity"))
    if kind == "meeting":
        x, y = draw(on_line(a)), draw(points(d))
        assume(x != y)
        b = Line(x, y)
    elif kind == "parallel":
        assume(point_at_infinity(a) is not None)
        y = draw(points(d))
        assume(y != point_at_infinity(a))
        b = Line(y, point_at_infinity(a))
    elif kind == "identical":
        x, y = draw(on_line(a)), draw(on_line(a))
        assume(x != y)
        b = Line(x, y)
    else:
        b = draw(lines(d, at_infinity=kind == "infinity"))
    return kind, a, b


class TestRationalIO:
    def test_format(self):
        assert point_strings(ProjPoint([parse_rational(t) for t in ["3/7", "-5", "1"]])) == ["3", "-35", "7"]

    def test_parse_unicode_minus(self):
        assert parse_rational("−3/7") == Fraction(-3, 7)

    def test_parse_names_an_int_past_the_digit_cap(self):
        assert parse_rational("-" + "7" * 4300) == -int("7" * 4300)
        with pytest.raises(ValueError, match=r"^'-7{39}' has 4301 digits, past 4300$"):
            parse_rational("-" + "7" * 4301)

    @pytest.mark.parametrize("bad", [1, None, ["1"], "1/0", "-2/0", "x"])
    def test_parse_rejects_non_rationals(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(st.lists(small_fracs, min_size=2, max_size=5).filter(any))
    def test_round_trip(self, coords):
        p = ProjPoint(coords)
        assert ProjPoint([parse_rational(t) for t in point_strings(p)]) == p
        assert [parse_rational(t) for t in point_strings(p)] == list(p.coords)


def fraction_or_none(text: str) -> Fraction | None:
    """``Fraction`` of a stripped string with unicode minus signs replaced,
    or None where it refuses the string."""
    try:
        return Fraction(text.strip().replace("−", "-"))
    except (ValueError, ZeroDivisionError):
        return None


def exponent_past_bound(text: str) -> bool:
    """Whether ``text``, stripped and with unicode minus signs replaced,
    ends in an integer after its last e or E that is past ``MAX_EXPONENT``
    in magnitude: ``Fraction`` would compute that power of ten exactly."""
    _, e, tail = text.strip().replace("−", "-").lower().rpartition("e")
    try:
        return bool(e) and abs(int(tail)) > MAX_EXPONENT
    except ValueError:
        return False


rational_texts = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.from_regex(r"\A\s?[-−+]?[0-9]{1,22}(/[-−+]?[0-9]{1,22})?\s?\Z"),
    st.text(alphabet="0123456789-−+/._ eE\t\n٣", max_size=10),
)
# decimal texts with an exponent on both sides of the bound
exponent_texts = st.builds(
    "{}{}{}{}".format,
    st.from_regex(r"\A[-−+]?([0-9]{1,30}(\.[0-9]{0,30})?|\.[0-9]{1,30})\Z"),
    st.sampled_from("eE"),
    st.sampled_from(["", "+", "-"]),
    st.integers(0, 10**7).map(str) | st.sampled_from(["4299", "4300", "4301", "04300", "4_300", "0004301"]),
)


def check_parse(text: str) -> None:
    """``parse_rational`` against ``Fraction``: a ValueError past the
    exponent bound, checked first, else where ``Fraction`` refuses, else
    its value, an int for an ASCII integer string only."""
    if exponent_past_bound(text):  # Fraction(text) would compute 10^exp
        with pytest.raises(ValueError):
            parse_rational(text)
        return
    expected = fraction_or_none(text)
    if expected is None:
        with pytest.raises(ValueError):
            parse_rational(text)
        return
    got = parse_rational(text)
    assert got == expected
    ascii_int = re.fullmatch(r"-?[0-9]+", text.strip().replace("−", "-"))
    assert type(got) is (int if ascii_int else Fraction)


class TestIntegerParse:
    """The int fast path of ``parse_rational`` accepts, refuses and values
    exactly what ``Fraction`` does; only ASCII integers become ints."""

    @settings(max_examples=600)
    @given(rational_texts)
    def test_matches_fraction(self, text):
        check_parse(text)

    @settings(max_examples=300)
    @given(exponent_texts)
    def test_exponents_within_the_bound_match_fraction(self, text):
        # past the bound a ValueError, at once; within it Fraction's value
        check_parse(text)

    @pytest.mark.parametrize(
        "text,past",
        [("1e4300", False), ("-2.5E-4300", False), ("1e+04300", False), ("1e4301", True),
         ("1E-4301", True), ("0E500001", True), ("1e5000000", True), (" .5e-99999 ", True)],
    )
    def test_exponent_bound(self, text, past):
        if past:
            with pytest.raises(ValueError, match=f"past {MAX_EXPONENT} in magnitude"):
                parse_rational(text)
        else:
            assert parse_rational(text) == Fraction(text.strip())

    @pytest.mark.parametrize("text", ["7", " -12 ", "−3", "-0", "007", str(2**80)])
    def test_integers_are_ints(self, text):
        got = parse_rational(text)
        assert type(got) is int and got == Fraction(text.strip().replace("−", "-"))

    @pytest.mark.parametrize("text", ["+7", "٣", "1_0", "7.0", "1e3", "3/1"])
    def test_other_forms_stay_fractions(self, text):
        assert type(parse_rational(text)) is Fraction


class TestProjPoint:
    def test_canonical_form(self):
        assert pt(Fraction(1, 2), Fraction(1, 3), 1).coords == (3, 2, 6)
        assert pt(-2, 0, -4).coords == (1, 0, 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            pt(0, 0, 0)

    @given(st.lists(small_fracs, min_size=3, max_size=5), st.fractions(max_denominator=7).filter(lambda v: v != 0))
    def test_scaling_invariance(self, coords, scale):
        if all(c == 0 for c in coords):
            coords[0] = Fraction(1)
        assert ProjPoint(coords) == ProjPoint([scale * c for c in coords])

    def test_infinity_flag(self):
        assert pt(1, 2, 0).coords[-1] == 0
        assert pt(1, 2, 3).coords[-1] != 0
        assert pt(2, 4, 2).coords == (1, 2, 1)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                coord,
                st.integers(),
                st.booleans(),
                st.integers(-(2**63), 2**63 - 1).map(np.int64),
                st.fractions(),
                st.fractions(max_denominator=2**70),
                coord.map(Fraction),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_canonical_ints_matches_fraction_oracle(self, values):
        if not any(values):
            for canonicalize in (_canonical_ints, fraction_canonical_ints):
                with pytest.raises(ValueError):
                    canonicalize(values)
            return
        got = _canonical_ints(values)
        assert got == fraction_canonical_ints(values)
        assert all(type(c) is int for c in got)


class TestIncident:
    def test_midpoint_on_segment_line(self):
        assert incident(pt(0, 0, 1), [pt(1, 0, 1), pt(-1, 0, 1)])

    def test_off_line(self):
        assert not incident(pt(1, 1, 1), [pt(1, 0, 1), pt(-1, 0, 1)])

    def test_infinite_point_on_vertical_line(self):
        # rank of the 3x3 rational matrix is the independent oracle
        rows = [(0, 0, 1), (0, 1, 1), (0, 1, 0)]
        assert rank3x3(rows) == 2
        assert incident(pt(0, 1, 0), [pt(0, 0, 1), pt(0, 1, 1)])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            incident(pt(1, 0, 0, 1), [pt(0, 0, 1), pt(0, 1, 1)])


class TestMeet:
    def x_axis(self):
        return Line(pt(0, 0, 0, 1), pt(1, 0, 0, 0))

    def test_axes_meet_at_origin(self):
        y_axis = Line(pt(0, 0, 0, 1), pt(0, 1, 0, 0))
        assert meet(self.x_axis(), y_axis) == pt(0, 0, 0, 1)

    def test_skew(self):
        other = Line(pt(0, 1, 0, 1), pt(0, 1, 1, 1))
        assert meet(self.x_axis(), other) is None

    def test_parallels_meet_at_infinity(self):
        a = Line(pt(0, 0, 1), pt(1, 0, 1))
        b = Line(pt(0, 1, 1), pt(1, 1, 1))
        got = meet(a, b)
        assert got == pt(1, 0, 0)
        # independent check: the homogeneous rank of all four points is 3
        assert int_rank([p.coords for p in (a.p, a.q, b.p, b.q)]) == 3

    def test_identical_error(self):
        a = Line(pt(0, 0, 1), pt(1, 0, 1))
        b = Line(pt(2, 0, 1), pt(-5, 0, 1))
        with pytest.raises(ValueError):
            meet(a, b)

    @given(
        st.lists(st.tuples(*[st.integers(-6, 6)] * 4), min_size=4, max_size=4, unique=True)
    )
    def test_symmetric(self, quads):
        pts = []
        for q in quads:
            if any(q):
                pts.append(ProjPoint(q))
        if len(pts) < 4 or len({p.coords for p in pts}) < 4:
            return
        try:
            a, b = Line(pts[0], pts[1]), Line(pts[2], pts[3])
        except ValueError:
            return
        if a.key == b.key:
            return
        assert meet(a, b) == meet(b, a)


class TestResidualKernel:
    """The residual-test kernel against row-reduction references."""

    @settings(max_examples=400, deadline=None)
    @given(line_pairs())
    def test_meet_matches_rref_meet(self, pair):
        kind, a, b = pair
        if a.key == b.key:
            with pytest.raises(ValueError):
                meet(a, b)
            with pytest.raises(ValueError):
                rref_meet(a, b)
            return
        assert kind != "identical"
        got = meet(a, b)
        assert got == rref_meet(a, b)
        if kind in ("meeting", "parallel"):
            assert got is not None and line_contains(a, got) and line_contains(b, got)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda d: st.tuples(lines(d), points(d))), st.booleans(), st.data())
    def test_contains_matches_rank(self, line_and_point, take_on_line, data):
        line, x = line_and_point
        if take_on_line:
            x = data.draw(on_line(line))
        rank = int_rank([line.p.coords, line.q.coords, x.coords])
        assert line_contains(line, x) == (rank == 2)

    @given(st.lists(coord, min_size=2, max_size=6).filter(any), st.integers(1, 10**6))
    def test_int_point_matches_fraction_point(self, ints, den):
        via_int = ProjPoint(ints).coords
        assert via_int == ProjPoint([Fraction(v) for v in ints]).coords
        assert via_int == ProjPoint([Fraction(v, den) for v in ints]).coords

    @given(lines(2))
    def test_cross_product_covector(self, line):
        cov = cross(line.p.coords, line.q.coords)
        p, q = (int_array([x.coords]) for x in (line.p, line.q))
        assert cov == tuple(cross_rows(p, q)[0].tolist())
        assert [cov] == int_nullspace([line.p.coords, line.q.coords], 3)


# factors of a diagonal map (every other coordinate scaled; it keeps every
# incidence) that put key entries around the 2^9 bound of ``meet_rows``,
# around 2^30 and 2^62, and past 2^64
key_scales = st.sampled_from([1, 2**9 - 3, 2**9 + 1, 2**10 - 3, 2**30 + 3, 2**62 - 57, 2**64 + 13])


def scaled_line(line: Line, factor: int) -> Line:
    return Line(*(ProjPoint([x * factor if t % 2 else x for t, x in enumerate(p.coords)]) for p in (line.p, line.q)))


@st.composite
def key_pairs(draw, d):
    """(kind, a, b) in R^d through small points, scaled by one of
    ``key_scales``: ``line_pairs``' kinds, and b spanned by a's first key row
    and the unit point at a's second pivot, so b's first key row lies on a
    (u = 0 in ``meet_rows``)."""
    kind = draw(st.sampled_from(["meeting", "parallel", "first row", "identical", "random"]))
    a = draw(lines(d, entries=small))
    if kind == "meeting":
        x, y = draw(on_line(a)), draw(points(d, entries=small))
        assume(x != y)
        b = Line(x, y)
    elif kind == "parallel":
        assume(point_at_infinity(a) is not None)
        y = draw(points(d, entries=small))
        assume(y != point_at_infinity(a))
        b = Line(y, point_at_infinity(a))
    elif kind == "first row":
        unit = [0] * (d + 1)
        unit[a.pivots[1]] = 1
        b = Line(ProjPoint(a.key[0]), ProjPoint(unit))
    elif kind == "identical":
        x, y = draw(on_line(a)), draw(on_line(a))
        assume(x != y)
        b = Line(x, y)
    else:
        b = draw(lines(d, entries=small))
    factor = draw(key_scales)
    return kind, scaled_line(a, factor), scaled_line(b, factor)


def keys_of(lines) -> np.ndarray:
    return key_arrays(lines)[0]


class TestMeetRows:
    """The bulk residual kernel (and ``meet``, its one-pair call) against
    row reduction (``rref_meet``) in d = 2..5, on int64 below its 2^9 bound
    and on Python ints above it: meeting, skew and parallel pairs, b's first
    key row on a, identical lines and mixed dimensions."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(2, 5).flatmap(key_pairs))
    def test_matches_rref_meet(self, case):
        kind, a, b = case
        if a.key == b.key:
            for kernel in (meet, rref_meet, loop_meet):
                with pytest.raises(ValueError):
                    kernel(a, b)
            with pytest.raises(ValueError):
                meet_rows(keys_of([a]), keys_of([b]))
            return
        assert kind != "identical"
        expected = rref_meet(a, b)
        rows, met = meet_rows(keys_of([a]), keys_of([b]))
        assert met.tolist() == [expected is not None]
        assert rows.tolist() == [list(expected.coords) if expected else [0] * len(a.key[0])]
        assert meet(a, b) == expected == loop_meet(a, b)
        big = max(magnitude(keys_of([line])) for line in (a, b)) >= 2**9
        assert (rows.dtype == object) == big
        if kind in ("meeting", "parallel", "first row"):
            assert expected is not None

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda d: st.lists(key_pairs(d), min_size=1, max_size=6)))
    def test_pairs_at_once(self, cases):
        cases = [(a, b) for _, a, b in cases if a.key != b.key]
        assume(cases)
        rows, met = meet_rows(keys_of([a for a, _ in cases]), keys_of([b for _, b in cases]))
        expected = [rref_meet(a, b) for a, b in cases]
        assert met.tolist() == [e is not None for e in expected]
        assert [tuple(r) for r, m in zip(rows.tolist(), met) if m] == [e.coords for e in expected if e]
        assert not rows[~met].any()
        twice = cases[0][0]  # one identical pair among them
        with pytest.raises(ValueError):
            meet_rows(keys_of([a for a, _ in cases] + [twice]), keys_of([b for _, b in cases] + [twice]))

    def test_mixed_dimensions_raise(self):
        a = Line(pt(0, 0, 1), pt(1, 0, 1))
        b = Line(pt(0, 0, 0, 1), pt(0, 1, 0, 1))
        with pytest.raises(ValueError):
            meet(a, b)
        with pytest.raises(ValueError):
            meet_rows(keys_of([a]), keys_of([b]))

    @given(st.lists(st.tuples(*[st.integers(-6, 6)] * 3).filter(any), min_size=2, max_size=2, unique=True))
    def test_common_rows_picks_the_kernel_by_shape(self, triples):
        p, q = (int_array([t]) for t in triples)
        assume(int_rank(triples) == 2 and all(int_rank([t, (1, 2, 3)]) == 2 for t in triples))
        rows, met = common_rows(p, q)
        assert rows.tolist() == [list(cross(*triples))] and met.tolist() == [True]
        a, b = Line(ProjPoint(triples[0]), pt(1, 2, 3)), Line(ProjPoint(triples[1]), pt(1, 2, 3))
        assume(a.key != b.key)
        rows, met = common_rows(keys_of([a]), keys_of([b]))
        assert rows.tolist() == [[1, 2, 3]] and met.tolist() == [True]


class TestSpan:
    def test_collinear_points(self):
        assert int_rank([pt(0, 0, 1).coords, pt(1, 1, 1).coords, pt(2, 2, 1).coords]) - 1 == 1

    def test_general_position_r3(self):
        pts = [pt(0, 0, 0, 1), pt(1, 0, 0, 1), pt(0, 1, 0, 1), pt(0, 0, 1, 1)]
        assert int_rank([p.coords for p in pts]) - 1 == 3

    @given(st.lists(st.tuples(*[st.integers(-9, 9)] * 3), min_size=1, max_size=6))
    def test_span_containment(self, triples):
        pts = [ProjPoint(t) for t in triples if any(t)]
        if not pts:
            return
        assert all(incident(p, pts) for p in pts)


class TestRankOfDirections:
    def test_axis_directions(self):
        at = pt(1, 1, 1, 1)
        lines = [
            Line(at, ProjPoint([1, 0, 0, 0])),
            Line(at, ProjPoint([0, 1, 0, 0])),
            Line(at, ProjPoint([0, 0, 1, 0])),
        ]
        assert rank_of_directions(lines, at) == 3

    def test_coplanar_concurrent(self):
        at = pt(0, 0, 0, 1)
        lines = [
            Line(at, pt(1, 0, 0, 1)),
            Line(at, pt(0, 1, 0, 1)),
            Line(at, pt(1, 1, 0, 1)),
        ]
        assert rank_of_directions(lines, at) == 2

    def test_line_missing_point(self):
        at = pt(0, 0, 0, 1)
        lines = [Line(pt(0, 1, 0, 1), pt(1, 1, 0, 1))]
        with pytest.raises(ValueError):
            rank_of_directions(lines, at)

    def test_bounds(self):
        at = pt(0, 0, 0, 1)
        lines = [
            Line(at, pt(1, 0, 0, 1)),
            Line(at, pt(0, 1, 0, 1)),
            Line(at, pt(0, 0, 1, 1)),
            Line(at, pt(1, 1, 1, 1)),
        ]
        r = rank_of_directions(lines, at)
        assert 1 <= r <= min(3, len(lines))


@st.composite
def line_groups(draw):
    """(lines, groups, concurrent): 1..3 groups of t = 1..40 lines in d = 2..5,
    as a (G, t) position array.  A concurrent group's lines pass through one
    point, with directions from the whole space or, flat, from a plane; other
    lines are arbitrary.  A diagonal map scales alternate coordinates by a
    factor up to 2^66 or by a multiple of ``PRIME`` (their residues vanish),
    and every other line's second point may be its predecessor's shifted by
    ``PRIME`` (their residues agree)."""
    d, t, count = draw(st.integers(2, 5)), draw(st.integers(1, 40)), draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1, 2**64 + 13, 3 * 2**64 + 1, PRIME, 5 * PRIME]))
    shift, concurrent = draw(st.sampled_from([0, PRIME])), draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))

    def small():
        return [rng.randint(-3, 3) for _ in range(d + 1)]

    def scaled(coords):
        return ProjPoint([v * scale if x % 2 else v for x, v in enumerate(coords)])

    lines = []
    for _ in range(count):
        center, group, last = small(), [], None
        basis = [small() for _ in range(2 if rng.random() < 0.5 else d + 1)]
        while len(group) < t:
            p = center if concurrent else small()
            if last and shift and len(group) % 2:
                q = [last[0] + shift, *last[1:]]
            else:
                coef = [rng.randint(-2, 2) for _ in basis]
                q = [sum(c * v[x] for c, v in zip(coef, basis)) for x in range(d + 1)]
            try:
                group.append(Line(scaled(p), scaled(q)))
                last = q
            except ValueError:  # a zero point, or q on p: draw again
                center, last = (center if any(center) else small()), None
                basis = [small() for _ in basis]
        lines += group
    return lines, np.arange(count * t).reshape(count, t), concurrent


class TestKeyRanks:
    """The batched residue ranks of ``key_ranks`` against ``int_rank`` of each
    group's key rows, with the exact fallback forced by vanishing or agreeing
    residues and by tiny primes."""

    @pytest.mark.parametrize("prime", [PRIME, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(case=line_groups())
    def test_matches_int_rank(self, prime, case):
        lines, groups, concurrent = case
        d, t = lines[0].ambient_dim, groups.shape[1]
        cap = min(d, t) + 1 if concurrent else min(d + 1, 2 * t)
        expected = [int_rank([row for x in g for row in lines[x].key]) for g in groups.tolist()]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactgeom, "PRIME", prime)
            got = key_ranks(key_arrays(lines)[0], groups, cap)
        assert got.tolist() == expected

    def test_vanishing_residues_fall_back(self, monkeypatch):
        # three concurrent lines in R^3 with independent directions, whose
        # z entries are all multiples of PRIME
        at, directions = ProjPoint([0, 0, 0, 1]), [(1, 0, 1), (0, 1, 1), (1, 1, 3)]
        lines = [Line(at, ProjPoint([x, y, PRIME * z, 0])) for x, y, z in directions]
        calls = []
        monkeypatch.setattr(exactgeom, "int_rank", lambda rows: calls.append(1) or int_rank(rows))
        assert key_ranks(key_arrays(lines)[0], np.array([[0, 1, 2]]), 4).tolist() == [4]
        assert calls == [1]  # the residue rank is 3: column z vanishes mod PRIME


class TestIntLinalg:
    @given(st.lists(st.tuples(*[st.integers(-8, 8)] * 4), min_size=1, max_size=5))
    def test_rref_idempotent_and_rank(self, rows):
        r1 = int_rref(rows)
        assert int_rref(r1) == r1
        assert len(r1) == int_rank(rows)

    @given(st.lists(st.tuples(*[st.integers(-8, 8)] * 4), min_size=1, max_size=3))
    def test_nullspace_orthogonal(self, rows):
        for vec in int_nullspace(rows, 4):
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0


class TestIsPrime:
    """The one primality test: ``AlgebraicParams`` checks p by it; the
    residue prime table grows by a sieve that must agree with it."""

    def test_matches_a_sieve_below_2_to_the_16(self):
        sieve = np.ones(2**16, bool)
        sieve[:2] = False
        for f in range(2, 2**8):
            sieve[f * f :: f] = False
        assert [is_prime(n) for n in range(2**16)] == sieve.tolist()

    def test_matches_trial_division_below_the_table(self):
        # the twenty primes below the fixed table's last entry, as ``primes_above`` finds them
        below = primes_below(2**30 - 257, 20)
        assert [n for n in range(2**30 - 258, below[-1] - 1, -1) if is_prime(n)] == list(below)


class TestCovector:
    @given(st.tuples(*[st.integers(-9, 9)] * 3).filter(any))
    def test_round_trip(self, cov):
        line = line_from_covector_2d(cov)
        got = line_covector_2d(line)
        from math import gcd

        g = gcd(*cov)
        reduced = tuple(v // g for v in cov)
        first = next(v for v in reduced if v)
        if first < 0:
            reduced = tuple(-v for v in reduced)
        assert got == reduced


class TestCanonicalPoint:
    @given(st.lists(st.integers(-(2**70), 2**70), min_size=6, max_size=6))
    def test_cross_product_is_taken_as_it_is(self, entries):
        try:
            cov = tuple(cross_rows(int_array([entries[:3]]), int_array([entries[3:]]))[0].tolist())
        except ValueError:  # dependent triples
            assume(False)
        assert ProjPoint.canonical(cov) == ProjPoint(cov)
        assert ProjPoint.canonical(cov).coords == ProjPoint(cov).coords == cov


class TestLine:
    def test_equality_by_span(self):
        a = Line(pt(0, 0, 1), pt(1, 1, 1))
        b = Line(pt(2, 2, 1), pt(3, 3, 1))
        assert a == b and hash(a) == hash(b)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Line(pt(1, 2, 1), pt(2, 4, 2))

    def test_at_infinity(self):
        a = Line(pt(0, 0, 1), pt(2, 1, 1))
        assert point_at_infinity(a) == pt(2, 1, 0)


# coordinates on both sides of the 2^30 bound of ``line_keys`` and beyond int64
wide = st.one_of(
    st.integers(-6, 6),
    st.integers(2**30 - 4, 2**30 + 4),
    st.integers(-(2**30) - 4, -(2**30) + 4),
    st.integers(-(2**70), 2**70),
)


def ends_of(pairs, d: int) -> np.ndarray:
    """The (L, 2, d + 1) endpoint rows of point pairs, as a configuration stores them."""
    return int_array([(p.coords, q.coords) for p, q in pairs]).reshape(len(pairs), 2, d + 1)


@st.composite
def endpoint_pairs(draw):
    """(d, pairs): up to 8 pairs of points in R^d, d = 2..5, coordinates on
    both sides of 2^30; one pair in ten is one point twice, up to scale."""
    d = draw(st.integers(2, 5))
    point = st.lists(wide, min_size=d + 1, max_size=d + 1).filter(any)
    pairs = []
    for _ in range(draw(st.integers(0, 8))):
        p = draw(point)
        if draw(st.integers(0, 9)):
            q = draw(point)
        else:
            q = [draw(st.sampled_from([1, -3])) * x for x in p]
        pairs.append((ProjPoint(p), ProjPoint(q)))
    return d, pairs


class TestLineKeys:
    """Bulk canonical rows, keys and pivots against the row-by-row oracles:
    ``int_rref`` and ``Line.pivots`` per line, on int64 and on Python ints."""

    @settings(max_examples=300, deadline=None)
    @given(endpoint_pairs())
    def test_matches_int_rref(self, case):
        d, pairs = case
        ends = ends_of(pairs, d)
        try:
            lines = [Line(p, q) for p, q in pairs]
        except ValueError:  # one point twice
            with pytest.raises(ValueError):
                line_keys(ends)
            return
        keys, pivots = line_keys(ends)
        assert keys.tolist() == [[list(row) for row in line.key] for line in lines]
        assert pivots.tolist() == [list(line.pivots) for line in lines]
        assert (keys.dtype == object) == (magnitude(ends) >= 2**30)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(wide, min_size=3, max_size=3), max_size=6))
    def test_canonical_rows(self, rows):
        array = int_array(rows).reshape(len(rows), 3)
        if not all(map(any, rows)):
            with pytest.raises(ValueError):
                canonical_rows(array)
            return
        assert canonical_rows(array).tolist() == [list(fraction_canonical_ints(r)) for r in rows]


@st.composite
def projective_maps(draw):
    """(matrix, points): a (d+1) x (D+1) integer matrix and up to 6 points of
    R^D, D = 2..5, with entries on both sides of the 2^63 product bound."""
    D, big = draw(st.integers(2, 5)), st.one_of(
        st.integers(-3, 3),
        st.integers(2**29, 2**33),
        st.integers(-(2**33), -(2**29)),
        st.integers(-(2**66), 2**66),
    )
    row = st.lists(big, min_size=D + 1, max_size=D + 1)
    matrix = draw(st.lists(row, min_size=2, max_size=D + 1))
    return matrix, [ProjPoint(p) for p in draw(st.lists(row.filter(any), max_size=6))]


class TestImageRows:
    """One matrix product and bulk canonicalization against Python dot
    products point by point (``loop_apply_matrix``), with the int64 path
    exactly where the bound allows it; ``apply_matrix`` is its one-row call."""

    @settings(max_examples=300, deadline=None)
    @given(projective_maps())
    def test_matches_apply_matrix(self, case):
        matrix, points = case
        rows = int_array([p.coords for p in points]).reshape(len(points), len(matrix[0]))
        try:
            expected = [list(loop_apply_matrix(matrix, p).coords) for p in points]
        except ValueError:  # a point on the kernel
            with pytest.raises(ValueError):
                image_rows(matrix, rows)
            return
        got = image_rows(matrix, rows)
        assert got.tolist() == expected
        assert [list(apply_matrix(matrix, p).coords) for p in points] == expected
        a = int_array(matrix)  # Python ints beyond int64
        assert (got.dtype == object) == (a.dtype == object or a.shape[1] * magnitude(a) * magnitude(rows) >= 2**63)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            image_rows([[1, 0], [0, 1]], int_array([[1, 2, 3]]))
        with pytest.raises(ValueError):
            apply_matrix([[1, 0], [0, 1]], pt(1, 2, 3))


class TestDuplicateLines:
    """Duplicate detection (one lexsort of int64 keys, a set of Python-int
    keys) against the set of ``Line`` keys."""

    @settings(max_examples=300, deadline=None)
    @given(endpoint_pairs())
    def test_matches_the_key_set(self, case):
        d, pairs = case
        pairs = [(p, q) for p, q in pairs if int_rank([p.coords, q.coords]) == 2]
        pairs += pairs[: len(pairs) // 3]  # repeat some lines, as they are
        pairs += [(q, p) for p, q in pairs[:1]]  # and one with its points swapped
        ends = ends_of(pairs, d)
        keys = line_keys(ends)[0]
        lines = [Line(p, q) for p, q in pairs]
        duplicate = len({line.key for line in lines}) < len(lines)
        assert has_duplicate_rows(keys) == duplicate
        if duplicate:
            with pytest.raises(ValueError, match="duplicate line"):
                ColoredLineConfig.from_ends(d, ends, [len(pairs)])
        else:
            assert ColoredLineConfig.from_ends(d, ends, [len(pairs)]) == line_config(d, [lines])

    @given(st.lists(st.lists(st.sampled_from([0, 1, -1, 2**40, -(2**70)]), min_size=2, max_size=2)))
    def test_rows(self, rows):
        array = int_array(rows).reshape(len(rows), 2)
        assert has_duplicate_rows(array) == (len(set(map(tuple, rows))) < len(rows))
