import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from incidencelab.analysis import parse_monomial
from incidencelab.exactgeom import Line, ProjPoint, meet
from incidencelab.structure import (
    extract_alignments,
    extract_structure_grid,
    extract_structure_lines,
    structure_consistency,
)
from incidencelab.transforms import (
    _audit_projection,
    dualize,
    extract_planarity,
    lift_to_concurrent,
    project_generic,
    undualize,
)
from oracles import (
    GridLine,
    affine,
    concurrency_center,
    dual_config,
    grid_config,
    line_classes,
    line_config,
    line_from_covector_2d,
    point_classes,
    set_audit_projection,
    structure_of,
    translated_dual,
)
from test_gridmodel import random_config


def line2(a, b):
    return Line(affine(a), affine(b))


planar_coord = st.integers(-5, 5) | st.integers(2**64, 2**66) | st.integers(-(2**66), -(2**64))
# points with x = -j, y = -j^2: a line through one blocks the shift by (j, j^2)
on_parabola = st.integers(0, 3).map(lambda j: (-j, -j * j, 1))


@st.composite
def planar_configs(draw):
    lines: dict[tuple, Line] = {}
    point = st.tuples(planar_coord, planar_coord, planar_coord)
    for p, q in draw(st.lists(st.tuples(on_parabola | point, point), min_size=1, max_size=8)):
        if any(p) and any(q) and ProjPoint(p) != ProjPoint(q):
            line = Line(ProjPoint(p), ProjPoint(q))
            lines.setdefault(line.key, line)
    assume(lines)
    lines = list(lines.values())
    cut = draw(st.integers(1, len(lines)))
    return line_config(2, [lines[:cut], lines[cut:]])


class TestLift:
    def test_centers_are_axis_unit_points(self, algebraic_3_2):
        lifted, _ = lift_to_concurrent(algebraic_3_2)
        d = algebraic_3_2.k + 1
        for axis, center in enumerate(lifted.centers, start=1):
            expected = [0] * d
            expected[axis - 1] = 1
            assert center == affine(expected).coords

    def test_classes_concurrent(self, algebraic_3_2):
        lifted, _ = lift_to_concurrent(algebraic_3_2)
        for cls, center in zip(line_classes(lifted), lifted.centers):
            assert concurrency_center(cls).coords == center

    def test_structure_preserved(self, algebraic_3_2):
        lifted, s = lift_to_concurrent(algebraic_3_2)
        assert extract_structure_grid(algebraic_3_2) == extract_structure_lines(lifted) == s

    @pytest.mark.parametrize("seed", range(3))
    def test_random_configs(self, seed):
        rng = random.Random(seed)
        cfg = random_config(rng, 2, 3, 3)
        lifted, _ = lift_to_concurrent(cfg)  # audit on
        assert lifted.d == 3

    def test_mixed_axes_rejected(self):
        # class 2 holds an axis-1 and an axis-3 line; class 1 is empty
        cfg = grid_config(2, 2, [[], [GridLine(1, (0, 1, 1)), GridLine(3, (2, 2, 0))]])
        with pytest.raises(ValueError, match="axis-parallel"):
            lift_to_concurrent(cfg)
        one_axis = grid_config(2, 2, [[], [GridLine(1, (0, 1, 1)), GridLine(1, (0, 2, 2))]])
        assert lift_to_concurrent(one_axis)[0].centers[1] == affine([1, 0, 0]).coords


class TestProjectGeneric:
    def test_same_dimension_identity_like(self, algebraic_3_2):
        lifted, s = lift_to_concurrent(algebraic_3_2, audit=False)
        res = project_generic(lifted, s, lifted.d, seed=3)
        assert extract_structure_lines(res.config) == extract_structure_lines(lifted)

    def test_bit_reproducible(self, algebraic_3_2):
        lifted, s = lift_to_concurrent(algebraic_3_2, audit=False)
        r1 = project_generic(lifted, s, 3, seed=17)
        r2 = project_generic(lifted, s, 3, seed=17)
        assert r1.config == r2.config
        assert r1.attempts == r2.attempts

    def test_plane_projection_creates_recorded_crossings(self):
        # two skew lines in R^3 are forced to cross in the plane
        skew = line_config(
            3,
            [
                [Line(affine((0, 0, 0)), affine((1, 0, 0)))],
                [Line(affine((0, 1, 0)), affine((0, 1, 1)))],
            ],
        )
        res = project_generic(skew, extract_structure_lines(skew), 2, seed=1)
        assert res.new_crossings == 1
        a, b = line_classes(res.config)[0][0], line_classes(res.config)[1][0]
        assert meet(a, b) is not None

    def test_target_range_validated(self, tricolor):
        with pytest.raises(ValueError):
            project_generic(tricolor, extract_structure_lines(tricolor), 1, seed=0)
        with pytest.raises(ValueError):
            project_generic(tricolor, extract_structure_lines(tricolor), 4, seed=0)


# coordinates near 2^30 and beyond 2^64, zero leading entries and points at infinity
wide = st.integers(-9, 9) | st.sampled_from([0, 2**30 - 1, -(2**30), 2**30 + 1, 2**63 - 1]) | (
    st.integers(2**64, 2**70) | st.integers(-(2**70), -(2**64))
)


@st.composite
def dual_points(draw):
    """One to three classes of distinct planar points with wide coordinates."""
    triples = st.tuples(wide, wide, wide | st.just(0)).filter(any)
    points = draw(st.lists(triples.map(ProjPoint), min_size=1, max_size=8, unique=True))
    cuts = sorted(draw(st.lists(st.integers(0, len(points)), max_size=2)))
    return [points[a:b] for a, b in zip([0, *cuts], [*cuts, len(points)])]


class TestDuality:
    def planar_config(self):
        return line_config(
            2,
            [
                [line2((0, 0), (1, 1)), line2((0, 2), (1, 3))],
                [line2((0, 0), (1, -1))],
                [line2((1, 0), (1, 1))],
            ],
        )

    def test_involution_preserves_structure(self):
        cfg = self.planar_config()
        back = undualize(dualize(cfg))
        assert extract_structure_lines(cfg) == extract_structure_lines(back)

    def test_concurrence_maps_to_alignment(self):
        cfg = self.planar_config()
        s = extract_structure_lines(cfg)
        dual = dualize(cfg)
        a = extract_alignments(dual)
        assert s.monomials == a.monomials

    def test_consistency_corresponds(self, desargues):
        flat = project_generic(desargues, extract_structure_lines(desargues), 2, seed=23).config
        dual = dualize(flat)
        primal = structure_consistency(extract_structure_lines(flat), 3)
        dualv = structure_consistency(extract_alignments(dual), 3)
        assert primal.ok == dualv.ok

    def test_line_through_pole_handled(self):
        # a line through the origin would dualize to an infinite point;
        # the forward map pre-translates so all dual points are finite
        cfg = line_config(
            2, [[line2((0, 0), (1, 1))], [line2((0, 0), (1, 2))]]
        )
        dual = dualize(cfg)
        for cls in point_classes(dual):
            assert not any(p.coords[-1] == 0 for p in cls)

    @pytest.mark.parametrize(
        "lines, j",
        [
            ([line2((1, 0), (1, 1))], 0),
            ([line2((0, 0), (1, 3))], 1),
            ([line2((0, 0), (1, 3)), line2((-1, -1), (2, 0))], 2),
            # y = 3x also passes (-3, -9)
            ([line2((0, 0), (1, 3)), line2((-1, -1), (2, 0)), line2((-2, -4), (0, 1))], 4),
        ],
    )
    def test_covector_shift_skips_lines_through_the_parabola(self, lines, j):
        cfg = line_config(2, [lines])
        assert translated_dual(cfg) == (j, dualize(cfg))

    @settings(max_examples=200, deadline=None)
    @given(planar_configs())
    def test_covector_shift_matches_translated_lines(self, cfg):
        assert dualize(cfg) == translated_dual(cfg)[1]

    @settings(max_examples=300, deadline=None)
    @given(dual_points())
    def test_undualize_is_the_nullspace_rule(self, classes):
        # against the rule it writes in closed form: the two spanning points
        # ``int_nullspace`` gives for the covector (x, y, -z) of each point
        lines = [[line_from_covector_2d((x, y, -z)) for x, y, z in (p.coords for p in c)] for c in classes]
        got = undualize(dual_config(classes))
        assert got == line_config(2, lines)
        ends = [[list(line.p.coords), list(line.q.coords)] for cls in lines for line in cls]
        assert got.ends.tolist() == ends

    def test_inverse_accepts_directions(self):
        dual = undualize(
            dual_config([[ProjPoint([0, 1, 0])], [affine((1, 1))]])
        )
        assert dual.class_sizes() == (1, 1)

    def test_2222_line_config_maps_to_2222_points(self):
        # the small-configuration argument works in the dual: a 2,2,2,2
        # line configuration corresponds to a 2,2,2,2 point configuration
        cfg = line_config(
            2,
            [
                [line2((0, 0), (1, 1)), line2((0, 1), (1, 2))],
                [line2((0, 0), (1, -1)), line2((0, 3), (1, 5))],
                [line2((1, 0), (1, 1)), line2((2, 0), (2, 1))],
                [line2((0, 4), (1, 4)), line2((0, 6), (1, 7))],
            ],
        )
        dual = dualize(cfg)
        assert dual.class_sizes() == (2, 2, 2, 2)


class TestPlanarity:
    def test_parallel_lines_in_plane(self):
        cfg = line_config(
            3,
            [
                [
                    Line(affine((0, 0, 0)), affine((1, 0, 0))),
                    Line(affine((0, 1, 0)), affine((1, 1, 0))),
                ]
            ],
        )
        planar, dim = extract_planarity(cfg)
        assert planar and dim == 2

    def test_tricolor_nonplanar(self, tricolor):
        planar, dim = extract_planarity(tricolor)
        assert not planar and dim == 3

    def test_reye_nonplanar(self, reye):
        assert not extract_planarity(reye)[0]


FAULTS = ("missing", "gained a line", "source pair", "three-line extra")


@st.composite
def audit_cases(draw):
    """(source, image, d): up to six source groups of 2..5 lines over 1..4
    classes of 0..5 lines; the image adds up to four pairs of lines that
    share no source group (valid new crossings), then any of the faults:
    a source group missing, a source group that gained a line, a two-line
    extra that lies inside a source group, and a three-line extra."""
    classes = st.lists(st.integers(0, 5), min_size=1, max_size=4)
    sizes = draw(classes.filter(lambda sizes: sum(sizes) >= 3))
    refs = [(c, i) for c, size in enumerate(sizes, start=1) for i in range(size)]
    group = lambda n: st.lists(st.sampled_from(refs), min_size=n, max_size=n, unique=True)
    sized = st.integers(2, min(5, len(refs))).flatmap(group).map(frozenset)
    source = draw(st.lists(sized, max_size=6, unique=True))
    inside = {frozenset(p) for g in source for p in combinations(g, 2)}
    crossings = [frozenset(p) for p in combinations(refs, 2) if frozenset(p) not in inside]
    image = set(source)
    if crossings:
        image |= set(draw(st.lists(st.sampled_from(crossings), max_size=4)))
    faults = draw(st.sets(st.sampled_from(FAULTS)))
    by_refs = sorted(source, key=sorted)
    if by_refs and "missing" in faults:
        image.discard(draw(st.sampled_from(by_refs)))
    if by_refs and "gained a line" in faults:
        g = draw(st.sampled_from(by_refs))
        if len(g) < len(refs):
            image.discard(g)
            image.add(g | {draw(st.sampled_from([r for r in refs if r not in g]))})
    big = [g for g in by_refs if len(g) >= 3]
    if big and "source pair" in faults:
        pairs = combinations(sorted(draw(st.sampled_from(big))), 2)
        image.add(frozenset(draw(st.sampled_from(list(pairs)))))
    if "three-line extra" in faults:
        image.add(frozenset(draw(group(3))))
    return structure_of(source, sizes), structure_of(image, sizes), draw(st.integers(2, 4))


class TestProjectionAudit:
    """The array audit of a projection against the audit on monomial sets."""

    @settings(max_examples=300, deadline=None)
    @given(audit_cases())
    def test_matches_set_audit(self, case):
        before, after, d = case
        ok, extras = set_audit_projection(before, after, d)
        assert _audit_projection(before, after, d) == (ok, len(extras))

    @pytest.mark.parametrize(
        "image, d, expected",
        [
            (["a1b1c1", "c1d1", "a2d1", "b1d1"], 2, (True, 2)),  # valid new crossings
            (["a1b1c1", "c1d1", "a2d1", "b1d1"], 3, (False, 0)),
            (["a1b1c1", "c1d1"], 3, (True, 0)),
            (["a1b1c1", "a2d1"], 2, (False, 0)),  # a source group missing
            (["a1b1c1a2", "c1d1"], 2, (False, 0)),  # a source group gained a line
            (["a1b1", "c1", "c1d1"], 2, (False, 0)),  # a source group split
            (["a1b1c1", "c1d1", "a1b1"], 2, (False, 0)),  # an extra that is a source pair
            (["a1b1c1", "c1d1", "a2b1d1"], 2, (False, 0)),  # a three-line extra
        ],
    )
    def test_cases(self, image, d, expected):
        sizes = (2, 1, 1, 1)
        before = structure_of(map(parse_monomial, ["a1b1c1", "c1d1"]), sizes)
        after = structure_of(map(parse_monomial, image), sizes)
        assert _audit_projection(before, after, d) == expected
        ok, extras = set_audit_projection(before, after, d)
        assert (ok, len(extras)) == expected
