import hashlib
import random
import tracemalloc
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from incidencelab import exactgeom, structure
from incidencelab.configs import embed_grid_config
from incidencelab.constructions import ProbParams, gen_probabilistic
from incidencelab.exactgeom import Line, ProjPoint, common_rows, meet
from incidencelab.configs import ColoredLineConfig
from incidencelab.gridmodel import (
    group_max_colorful,
    group_removable,
    is_k_consistent,
    max_colorful_order,
)
from incidencelab.transforms import dualize, lift_to_concurrent, project_generic
from incidencelab.structure import (
    concurrence_buckets,
    extract_alignments,
    extract_structure_grid,
    extract_structure_lines,
    structure_consistency,
)
from oracles import (
    affine,
    cross,
    decoded,
    dual_config,
    entries,
    key_arrays,
    line_classes,
    line_config,
    line_covector_2d,
    loop_alignments,
    loop_concurrence_buckets,
    loop_consistency,
    loop_max_colorful,
    loop_meet,
    loop_planar_buckets,
    loop_removable,
    point_enumeration_incidences,
    primes_below,
    random_structure,
    residual,
    through_affine,
)
from test_gridmodel import mixed_config, orders, random_config


def line2(a, b):
    return Line(affine(a), affine(b))


class TestExtraction:
    def test_two_crossing_lines(self):
        cfg = line_config(2, [[line2((0, 0), (1, 1))], [line2((0, 1), (1, 0))]])
        s = extract_structure_lines(cfg)
        assert len(s.monomials) == 1
        (m,) = s.monomials
        assert m == frozenset({(1, 0), (2, 0)})

    def test_monomials_are_maximal(self):
        cfg = line_config(
            2,
            [
                [line2((0, 0), (1, 1)), line2((0, 0), (1, 2))],
                [line2((0, 0), (1, 3)), line2((5, 0), (5, 1))],
            ],
        )
        s = extract_structure_lines(cfg)
        for a in s.monomials:
            for b in s.monomials:
                assert a == b or not a < b

    @pytest.mark.parametrize("seed", range(5))
    def test_grid_equals_embedded(self, seed):
        # cross-model oracle: combinatorial extraction == rational extraction
        rng = random.Random(seed)
        cfg = random_config(rng, 2, 4, 4)
        assert extract_structure_grid(cfg) == extract_structure_lines(
            embed_grid_config(cfg)
        )

    @pytest.mark.parametrize("grid", ["algebraic_3_2", "algebraic_3_3", "probabilistic_8"])
    def test_grid_structure_is_the_embedded_structure(self, grid, request):
        # grid inputs of the line-only commands use the grid's own structure
        if grid == "probabilistic_8":
            cfg = gen_probabilistic(ProbParams(3, 8, 5))[0]
        else:
            cfg = request.getfixturevalue(grid)
        s, embedded = extract_structure_grid(cfg), extract_structure_lines(embed_grid_config(cfg))
        assert s == embedded
        witnesses = [s.witness(g) for g in range(len(s.firsts))]
        assert witnesses == [embedded.witness(g) for g in range(len(embedded.firsts))]

    def test_single_line_axes_share_no_direction(self):
        cfg = random_config(random.Random(7), 2, 4, 1)  # one line per axis
        s = extract_structure_grid(cfg)
        assert s == extract_structure_lines(embed_grid_config(cfg))
        assert not any(s.witness(g)[-1] == 0 for g in range(len(s.firsts)))

    def test_grid_direction_monomials(self):
        rng = random.Random(3)
        cfg = random_config(rng, 2, 4, 3)
        s = extract_structure_grid(cfg)
        directions = [m for g, m in enumerate(s.members) if s.witness(g)[-1] == 0]
        assert len(directions) == 3  # one parallel class per axis
        for m in directions:
            assert len({c for c, _ in m}) == 1


@st.composite
def line_groups(draw):
    """0..12 groups of 2..6 of up to 30 lines that pairwise share at most
    one line, as a configuration's points do, under shuffled labels."""
    n = draw(st.integers(2, 30))
    groups: list[list[int]] = []
    for _ in range(draw(st.integers(0, 12))):
        g = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=6, unique=True))
        if all(len(set(g) & set(h)) <= 1 for h in groups):
            groups.append(g)
    label = draw(st.permutations(range(n)))
    return [[label[m] for m in g] for g in groups]


class TestOrderingRule:
    """The one order of every structure's groups (``structure._ordered``)
    against the oracle builder, ``sorted`` lists of sorted lists."""

    @settings(max_examples=200, deadline=None)
    @given(groups=line_groups(), data=st.data())
    def test_groups_sharing_at_most_one_line(self, groups, data):
        groups = data.draw(st.permutations(groups))
        runs = data.draw(st.permutations(range(3 * len(groups))))[: len(groups)]  # any run labels
        group = np.repeat(np.array(runs, np.int64), list(map(len, groups)))
        line = np.array([m for g in groups for m in sorted(g)], np.int64)
        assert_same_entries(structure._ordered(group, line), entries(groups))

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(2, 4), n=st.integers(2, 4), seed=st.integers(0, 10**6))
    def test_grid_with_mixed_axis_classes(self, k, n, seed):
        # an axis group's lines are not contiguous in class order
        rng = random.Random(seed)
        cfg = mixed_config(rng, k, n, rng.randint(1, 4), rng.randint(1, 3))
        first = np.cumsum([0, *cfg.class_sizes()]).tolist()  # the position of each class's line 0
        points = point_enumeration_incidences(cfg).values()
        groups = [[first[c - 1] + i for c, i in refs] for refs in points]
        axes = [line.axis for cls in decoded(cfg) for line in cls]  # in class order
        for axis in range(1, k + 2):
            on = [m for m, a in enumerate(axes) if a == axis]
            groups += [on] if len(on) >= 2 else []
        s = extract_structure_grid(cfg)
        assert_same_entries((s.group, s.line), entries(groups))


class TestStructureConsistency:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_grid_verifier(self, seed):
        rng = random.Random(100 + seed)
        cfg = random_config(rng, 2, 3, 3)
        s = extract_structure_grid(cfg)
        for k in (1, 2, 3):
            grid_verdict = is_k_consistent(cfg, k)
            struct_verdict = structure_consistency(s, k)
            assert struct_verdict.ok == grid_verdict.ok
            # one core, one order: color, then S, then index
            assert struct_verdict.failures == grid_verdict.failures

    @pytest.mark.parametrize("seed", range(5))
    def test_max_colorful_matches_grid(self, seed):
        rng = random.Random(200 + seed)
        cfg = random_config(rng, 2, 3, 3)
        s = extract_structure_grid(cfg)
        # directions carry one color each, so they never change the order
        # unless there are no finite incidences at all
        grid_order, _ = max_colorful_order(cfg)
        struct_order, _ = s.max_colorful()
        assert struct_order == max(grid_order, 1 if s.monomials else 0)


@st.composite
def dual_point_classes(draw):
    """1..4 classes (some empty) of small planar points and collinear runs
    a + t*b, points at infinity among them; one draw in ten keeps a
    repeated point.  A diagonal map scaling y by a large factor keeps the
    alignments and puts coordinates above 2^64."""
    scale = draw(st.sampled_from([1, 2**64 + 13, 3**45]))
    triple = st.lists(st.integers(-3, 3), min_size=3, max_size=3)
    coords = draw(st.lists(triple.filter(any), max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(triple), draw(triple)
        runs = ([x + t * y for x, y in zip(a, b)] for t in range(draw(st.integers(2, 5))))
        coords += [c for c in runs if any(c)]
    points = [ProjPoint((x, y * scale, w)) for x, y, w in coords]
    if draw(st.integers(0, 9)):
        points = list(dict.fromkeys(points))
    colors = draw(st.lists(st.integers(1, 4), min_size=len(points), max_size=len(points)))
    palette = range(1, max(colors, default=1) + 1)
    return [[p for p, c in zip(points, colors) if c == color] for color in palette]


class TestAlignments:
    def test_collinear_triple(self):
        pts = [
            [affine((0, 0))],
            [affine((1, 1))],
            [affine((2, 2)), affine((5, 0))],
        ]
        s = extract_alignments(dual_config(pts))
        big = [m for m in s.monomials if len(m) == 3]
        assert big == [frozenset({(1, 0), (2, 0), (3, 0)})]

    def test_infinite_direction_alignment(self):
        # two points sharing an x-coordinate align with the vertical direction
        pts = [
            [ProjPoint([0, 1, 0])],
            [affine((3, 1))],
            [affine((3, 5))],
        ]
        s = extract_alignments(dual_config(pts))
        assert frozenset({(1, 0), (2, 0), (3, 0)}) in s.monomials

    @settings(max_examples=200, deadline=None)
    @given(dual_point_classes())
    def test_matches_loop(self, classes):
        coords = [p.coords for cls in classes for p in cls]
        if len(set(coords)) < len(coords):
            with pytest.raises(ValueError):
                dual_config(classes)
            with pytest.raises(ValueError):
                structure.planar_buckets(coords)
            with pytest.raises(ValueError):
                loop_alignments(classes)
            return
        s, expected = extract_alignments(dual_config(classes)), loop_alignments(classes)
        assert s.class_sizes == tuple(map(len, classes))
        # groups and covectors, in order
        covectors = s.witnesses(np.arange(len(s.firsts))).tolist()
        got = [(refs, tuple(cov)) for refs, cov in zip(s.members, covectors)]
        assert got == [(sorted(refs), cov) for cov, refs in expected.items()]

    def test_dual_json_round_trip(self):
        import json

        from incidencelab.cli import _dump_json
        from incidencelab.configs import dual_from_json, dual_to_json
        from incidencelab.constructions import gen_dual_cycles

        cfg, _ = gen_dual_cycles(2)
        assert dual_from_json(json.loads(_dump_json(dual_to_json(cfg)))) == cfg


structures = st.builds(
    random_structure,
    st.integers(0, 10**9),
    st.one_of(st.integers(1, 6), st.integers(64, 70)),
    st.booleans(),
)


class TestCoreAgainstLoopOracle:
    """The array core on a structure's entry arrays against the loop core
    on its monomials: empty classes, groups repeating a color, k up to m,
    and 64 colors or more, beyond an int64 color mask."""

    @settings(max_examples=60, deadline=None)
    @given(structures)
    def test_consistency(self, s):
        for k in orders(s.num_colors):
            expected = loop_consistency(s.class_sizes, s.monomials, k)
            assert structure_consistency(s, k).failures == expected

    @settings(max_examples=60, deadline=None)
    @given(structures)
    def test_removable(self, s):
        for k in orders(s.num_colors):
            try:
                expected = loop_removable(s.class_sizes, s.monomials, k)
            except ValueError:
                with pytest.raises(ValueError):
                    group_removable(s, k)
                continue
            assert group_removable(s, k) == expected

    @settings(max_examples=60, deadline=None)
    @given(structures)
    def test_max_colorful(self, s):
        by_refs = sorted(s.monomials, key=sorted)
        expected = loop_max_colorful((sorted(m), m) for m in by_refs)
        order, at = group_max_colorful(s)
        assert (order, None if at is None else s.members[at]) == expected
        assert s.max_colorful() == (order, None if at is None else s.witness(at))


@st.composite
def line_lists(draw, dims=st.integers(2, 5)):
    """2..14 lines in projective d-space, d = 2..5, each through two of a
    pool of 3..7 small points: lines sharing a pool point form concurrent
    classes, pool points with w = 0 give parallel lines and points at
    infinity, and collinear pool points give identical lines.  A diagonal
    map scaling every other coordinate by a large factor keeps the
    incidences and puts coordinates above 2^64."""
    d = draw(dims)
    scale = draw(st.sampled_from([1, 2**64 + 13, 3**45]))
    point = st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1).filter(any)
    pool = [
        ProjPoint([x * scale if t % 2 else x for t, x in enumerate(coords)])
        for coords in draw(
            st.lists(point, min_size=3, max_size=7, unique_by=lambda c: ProjPoint(c).coords)
        )
    ]
    index = st.integers(0, len(pool) - 1)
    pair = st.tuples(index, index).map(sorted).map(tuple).filter(lambda t: t[0] < t[1])
    pairs = draw(st.lists(pair, min_size=2, max_size=14, unique=True))
    return [Line(pool[a], pool[b]) for a, b in pairs]


def buckets(lines, sizes=()):
    """The kernel's entry arrays: ``planar_buckets`` of the lines' covectors
    in the plane, else ``concurrence_buckets`` of their key arrays and class sizes."""
    if lines and lines[0].ambient_dim == 2:
        return structure.planar_buckets([line_covector_2d(line) for line in lines])
    return concurrence_buckets(*key_arrays(lines), sizes)


def assert_same_entries(got, expected):
    """Equal int64 ``(group, line)`` entry arrays."""
    assert [part.dtype for part in got] == [np.dtype(np.int64)] * 2
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def assert_kernel_matches_loop(lines, classes=None):
    """Equal groups and points, in order, on distinct lines; identical lines
    raise, and the loop raises only for identical lines.  ``classes`` are
    (size, center) pairs, one class of every line by default: the kernel
    gets the sizes, the configuration the centers too."""
    try:
        expected = list(loop_concurrence_buckets(lines).items())
    except ValueError:
        expected = None
    classes = classes or [(len(lines), None)]
    sizes = [size for size, _ in classes]
    if len({line.key for line in lines}) < len(lines) or expected is None:
        with pytest.raises(ValueError):
            buckets(lines, sizes)
        assert len({line.key for line in lines}) < len(lines)
        return
    assert_same_entries(buckets(lines, sizes), entries(m for _, m in expected))
    if not lines:
        return
    parts = np.split(np.array(lines, object), np.cumsum(sizes)[:-1])
    d, parts = lines[0].ambient_dim, [part.tolist() for part in parts]
    s = extract_structure_lines(line_config(d, parts, [center for _, center in classes]))
    assert s == extract_structure_lines(line_config(d, parts))  # centers given, wrong or none
    assert [s.witness(g) for g in range(len(s.firsts))] == [at.coords for at, _ in expected]


def counted_points(monkeypatch) -> list[int]:
    """A list that gets, per ``_candidates`` call, the number of pairs whose
    meeting points the pair kernel computes."""
    rows, candidates = [], structure._candidates

    def counting(*args):
        code, points = candidates(*args)
        rows.append(len(points))
        return code, points

    monkeypatch.setattr(structure, "_candidates", counting)
    return rows


@st.composite
def centered_classes(draw):
    """(lines, classes): 1..4 classes of up to 6 distinct lines in d = 3..5,
    each through two points of a pool of 3..7 small points, most through the
    class's own pool point, its center.  The center is given, wrong (another
    pool point) or missing, and a class may hold one line off its center.
    Coordinates are scaled above 2^64 as in ``line_lists``."""
    d = draw(st.integers(3, 5))
    scale = draw(st.sampled_from([1, 2**64 + 13]))
    point = st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1).filter(any)
    pool = [
        ProjPoint([x * scale if t % 2 else x for t, x in enumerate(coords)])
        for coords in draw(
            st.lists(point, min_size=3, max_size=7, unique_by=lambda c: ProjPoint(c).coords)
        )
    ]
    index = st.integers(0, len(pool) - 1)
    lines, classes, seen = [], [], set()
    for _ in range(draw(st.integers(1, 4))):
        c = draw(index)
        ends = [(c, other) for other in draw(st.lists(index, max_size=6, unique=True))]
        if draw(st.booleans()):  # one line off its center, unless it happens to pass it
            ends.append((draw(index), draw(index)))
        cls = []
        for a, b in ends:
            if a != b and (line := Line(pool[a], pool[b])).key not in seen:
                seen.add(line.key)
                cls.append(line)
        kind = draw(st.sampled_from(["center", "center", "wrong", "missing"]))
        center = {"center": pool[c], "wrong": pool[draw(index)], "missing": None}[kind]
        lines += cls
        classes.append((len(cls), center))
    return lines, classes


class TestConcurrenceKernel:
    """The mod-p pair kernel against the pairwise exact meet loop: the same
    points, members and order on distinct lines, and ValueError on
    identical lines, the only inputs for which the loop raises."""

    @settings(max_examples=300, deadline=None)
    @given(line_lists())
    def test_matches_loop(self, lines):
        assert_kernel_matches_loop(lines)

    @pytest.mark.parametrize("prime, chunk", [(2, 1), (3, 7), (5, 7), (5, 1)])
    @settings(max_examples=100, deadline=None)
    @given(lines=line_lists())
    def test_tiny_prime_and_chunks(self, prime, chunk, lines):
        # residues collide, points vanish mod p and tiles end mid-list
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(structure, "PRIME", prime)
            mp.setattr(structure, "TILE", chunk)
            assert_kernel_matches_loop(lines)

    @pytest.mark.parametrize(
        "prime, tile", [(structure.PRIME, structure.TILE), *product((2, 3, 5, 7), (1, 7))]
    )
    @settings(max_examples=60, deadline=None)
    @given(case=centered_classes())
    def test_centers_match_loop(self, prime, tile, case):
        # a class whose first two lines meet at a point on all its lines is
        # one group whose pairs are never tested, whatever center the
        # configuration states (given, wrong or missing: the same entries);
        # lines off that point keep the pair path
        lines, classes = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(structure, "PRIME", prime)
            mp.setattr(structure, "TILE", tile)
            assert_kernel_matches_loop(lines, classes)

    def test_centered_classes_send_no_pair_to_points(self, monkeypatch, algebraic_3_3):
        # 972 lifted lines in four classes of 243 on their centers
        lifted = lift_to_concurrent(algebraic_3_3, audit=False)[0]
        keys, pivots, rows = lifted.keys, lifted.pivots, counted_points(monkeypatch)
        with_classes = concurrence_buckets(keys, pivots, lifted.sizes)
        skipped = sum(rows)
        rows.clear()
        without = concurrence_buckets(keys, pivots)
        assert_same_entries(without, with_classes)
        assert sum(rows) - skipped == 4 * (243 * 242 // 2)  # every same-class pair

    def test_extraction_finds_centers_itself(self, monkeypatch, algebraic_3_3):
        # the lifted alg(3,3) file with and without its ``center`` entries:
        # the same entries, the same 4,374 pairs to points, in bounded memory
        lifted = lift_to_concurrent(algebraic_3_3, audit=False)[0]
        bare = ColoredLineConfig.from_ends(lifted.d, lifted.ends, lifted.sizes)
        assert all(lifted.centers) and not any(bare.centers)
        rows = counted_points(monkeypatch)
        stated = extract_structure_lines(lifted)
        assert sum(rows) == 4374
        rows.clear()
        tracemalloc.start()
        try:
            found = extract_structure_lines(bare)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(rows) == 4374
        assert_same_entries((found.group, found.line), (stated.group, stated.line))
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("chunk", [1, 7])  # tiles of side 1 and 7 over the 128 lines
    def test_partial_chunks_on_a_lift(self, chunk, monkeypatch, algebraic_3_2):
        lifted = lift_to_concurrent(algebraic_3_2, audit=False)[0]
        lines = [line for cls in line_classes(lifted) for line in cls]
        monkeypatch.setattr(structure, "TILE", chunk)
        assert_kernel_matches_loop(lines)

    def test_no_lines_and_one_line(self):
        line = through_affine((0, 0, 0), (1, 1, 1))
        assert_same_entries(concurrence_buckets(*key_arrays([])), entries([]))
        assert loop_concurrence_buckets([]) == {}
        assert_same_entries(concurrence_buckets(*key_arrays([line])), entries([]))
        assert loop_concurrence_buckets([line]) == {}

    def test_identical_lines(self):
        a, b = line2((0, 0), (1, 1)), line2((0, 1), (1, 0))
        copy = line2((2, 2), (3, 3))
        for lines in ([a, copy], [a, b, copy], [b, a, copy], [a, b, copy, copy]):
            assert_kernel_matches_loop(lines)
        with pytest.raises(ValueError):
            loop_concurrence_buckets([a, copy])
        # b meets a before the copy of a is reached, so the loop skips that
        # pair; the kernel refuses identical lines whatever their order
        assert len(loop_concurrence_buckets([b, a, copy])) == 1
        with pytest.raises(ValueError):
            buckets([b, a, copy])
        lift = [Line(ProjPoint([*ln.p.coords, 0]), ProjPoint([*ln.q.coords, 1])) for ln in (b, a)]
        with pytest.raises(ValueError):  # the same in R^3, through the pair kernel
            concurrence_buckets(*key_arrays([*lift, lift[1]]))

    def test_mixed_dimensions_raise(self):
        # lines become one key array where a configuration is built, in one dimension
        mixed = [[line2((0, 0), (1, 1))], [through_affine((0, 0, 0), (1, 1, 1))]]
        for d in (2, 3):
            with pytest.raises(ValueError):
                line_config(d, mixed)

    def test_planar_lines_skip_the_kernel(self, monkeypatch, algebraic_3_2):
        lifted, s = lift_to_concurrent(algebraic_3_2, audit=False)

        def refuse(*args):
            raise AssertionError("planar lines reached the pair kernel")

        monkeypatch.setattr(structure, "_candidates", refuse)
        with pytest.raises(AssertionError):
            extract_structure_lines(lifted)  # d = 4 goes through the kernel
        planar = project_generic(lifted, s, 2, 11).config
        assert extract_structure_lines(planar).monomials > s.monomials

    @settings(max_examples=200, deadline=None)
    @given(lines=line_lists(st.just(2)))
    def test_planar_witnesses_are_canonical_cross_products(self, lines):
        # taken as the canonical cross product, with no second canonicalization
        lines = list({line.key: line for line in lines}.values())
        s = extract_structure_lines(line_config(2, [lines]))
        cov = [line_covector_2d(line) for line in lines]
        for g in range(len(s.firsts)):
            a, b = s.line[s.firsts[g] : s.firsts[g] + 2].tolist()
            assert s.witness(g) == ProjPoint(cross(cov[a], cov[b])).coords

    def test_planar_witnesses_are_meets(self, algebraic_3_2):
        # in the plane a group's witness is the cross product of two covectors
        lifted, s = lift_to_concurrent(algebraic_3_2, audit=False)
        planar = project_generic(lifted, s, 2, 11).config
        lines = [line for cls in line_classes(planar) for line in cls]
        s = extract_structure_lines(planar)
        witnesses = [s.witness(g) for g in range(len(s.firsts))]
        pairs = [s.line[a : a + 2].tolist() for a in s.firsts.tolist()]
        assert witnesses == [meet(lines[i], lines[j]).coords for i, j in pairs]
        assert len(witnesses) > 1000

    def test_memory_is_bounded_on_alg_3_3(self, algebraic_3_3):
        # 972 lifted lines, 471,906 pairs
        lifted = lift_to_concurrent(algebraic_3_3, audit=False)[0]
        tracemalloc.start()
        try:
            group, _ = concurrence_buckets(lifted.keys, lifted.pivots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert group[-1] + 1 == 2434
        assert peak < 32 * 2**20


@st.composite
def planar_triples(draw):
    """The coordinates of dual points (``dual_point_classes``) or the
    covectors of planar lines (``line_lists``): collinear runs and pencils,
    points at infinity and parallel lines, coordinates above 2^64, and
    sometimes one projective element twice.  Some triples are multiplied
    by small primes, so all their residues vanish for a tiny prime."""
    if draw(st.booleans()):
        triples = [p.coords for cls in draw(dual_point_classes()) for p in cls]
    else:
        triples = [line_covector_2d(line) for line in draw(line_lists(st.just(2)))]
    factor = st.sampled_from([1, 1, -1, 2, 3, 5, 7, 210])
    factors = draw(st.lists(factor, min_size=len(triples), max_size=len(triples)))
    return [tuple(f * x for x in t) for f, t in zip(factors, triples)]


@pytest.fixture(scope="module")
def planar_3_3(algebraic_3_3):
    """alg(3,3) lifted and projected to the plane, seed 11: 972 lines, 471,906 pairs."""
    lifted, s = lift_to_concurrent(algebraic_3_3, audit=False)
    return project_generic(lifted, s, 2, 11).config


class TestPlanarKernel:
    """The residue kernel of ``planar_buckets`` against one exact cross
    product per pair: equal entry arrays, and ValueError on both sides for
    one projective element twice.  Tiny primes make residues collide and
    cross products vanish, so groups fail their check and pairs fall back
    to exact cross products that join confirmed groups; triples multiplied
    by the prime check that residues are taken of primitive triples; tiny
    tiles end mid-row."""

    @pytest.mark.parametrize(
        "prime, chunk", [(structure.PRIME, structure.TILE), *product((2, 3, 5, 7), (1, 7))]
    )
    @settings(max_examples=100, deadline=None)
    @given(triples=planar_triples())
    def test_matches_loop(self, prime, chunk, triples):
        try:
            expected = entries(loop_planar_buckets(triples))
        except ValueError:
            expected = None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(structure, "PRIME", prime)
            mp.setattr(structure, "TILE", chunk)
            if expected is None:
                with pytest.raises(ValueError):
                    structure.planar_buckets(triples)
                return
            got = structure.planar_buckets(triples)
        assert_same_entries(got, expected)

    def test_few_exact_cross_products_on_alg_3_3(self, planar_3_3, monkeypatch):
        calls = []  # the pairs crossed exactly
        monkeypatch.setattr(structure, "common_rows", lambda a, b: calls.append(len(a)) or common_rows(a, b))
        assert len(extract_structure_lines(planar_3_3).firsts) == 352354
        assert sum(calls) < 10000  # one per pair would be 471,906

    def test_memory_is_bounded_on_alg_3_3(self, planar_3_3):
        tracemalloc.start()
        try:
            s = extract_structure_lines(planar_3_3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s.firsts) == 352354
        assert peak < 96 * 2**20  # one exact cross product per pair peaked at ~174 MiB


# The 25 primes below 100, largest first: their product is about 2^120, so
# small inputs stay within the table while every residue collides often.
TINY = tuple(p for p in range(97, 1, -1) if all(p % q for q in range(2, p)))


def led(prime: int, table=TINY) -> tuple[int, ...]:
    """``table`` with ``prime`` first, as ``PRIME`` leads ``PRIMES``."""
    return (prime, *(q for q in table if q != prime))


# The twelve fixed primes with the last below 2^29 instead: a table that
# cannot grow, so keys past its reach (B > 58 in d >= 3) fall back to meets.
FIXED = (*exactgeom.PRIMES[:11], 2**29 - 3)


def patch_primes(mp: pytest.MonkeyPatch, table: tuple[int, ...]) -> None:
    """The prime table, and ``PRIME``, its first prime, where ``structure`` reads it."""
    mp.setattr(exactgeom, "PRIMES", table)
    mp.setattr(structure, "PRIME", table[0])


def scaled_up(point: ProjPoint, factor: int) -> ProjPoint:
    """A diagonal projective map of the point: it keeps every incidence."""
    return ProjPoint([x * factor if t % 2 else x for t, x in enumerate(point.coords)])


class TestResidueDecisions:
    """The exact step behind both kernels (``structure._confirmed``): each
    group is decided by residues mod a table of primes, or, above the
    table, where a key is 0 or a group fails its check, by exact meets.
    Against the loop oracles, in d = 2..5: with tiny primes, so residue
    points collide and vanish; above the table, so the fallback runs; on
    classes whose centers are right, wrong or missing; and the stated
    bounds against exact values at their edge."""

    @pytest.mark.parametrize(
        "table", [led(2), led(5), led(7, TINY[-6:]), led(structure.PRIME)]
    )
    @settings(max_examples=60, deadline=None)
    @given(lines=line_lists())
    def test_tiny_prime_tables(self, table, lines):
        with pytest.MonkeyPatch.context() as mp:
            patch_primes(mp, table)
            assert_kernel_matches_loop(lines)

    @pytest.mark.parametrize("table", [led(3), led(structure.PRIME, TINY[:2])])
    @settings(max_examples=60, deadline=None)
    @given(case=centered_classes())
    def test_tiny_prime_tables_on_centers(self, table, case):
        lines, classes = case
        with pytest.MonkeyPatch.context() as mp:
            patch_primes(mp, table)
            assert_kernel_matches_loop(lines, classes)

    @pytest.mark.parametrize("prime", [2, 3, 7])
    @settings(max_examples=60, deadline=None)
    @given(triples=planar_triples())
    def test_tiny_prime_tables_in_the_plane(self, prime, triples):
        try:
            expected = entries(loop_planar_buckets(triples))
        except ValueError:
            return  # one element twice, covered by TestPlanarKernel
        with pytest.MonkeyPatch.context() as mp:
            patch_primes(mp, led(prime))
            assert_same_entries(structure.planar_buckets(triples), expected)

    @settings(max_examples=60, deadline=None)
    @given(case=centered_classes(), factor=st.sampled_from([2**66 - 5, -(2**64) - 1]))
    def test_above_the_table_every_pair_is_met(self, case, factor):
        # coordinates near 2^66 (object arrays): keys need more primes than a fixed table holds
        lines, classes = case
        lines = [Line(scaled_up(line.p, factor), scaled_up(line.q, factor)) for line in lines]
        classes = [(size, center and scaled_up(center, factor)) for size, center in classes]
        keys, pivots = key_arrays(lines)
        assume(keys.dtype == object)  # some coordinate was scaled
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            patch_primes(mp, FIXED)  # the table would grow to hold them
            assert exactgeom.primes_above(6 * exactgeom.magnitude(keys).bit_length() + 6) is None
            mp.setattr(structure, "common_rows", lambda a, b: calls.append(len(a)) or common_rows(a, b))
            assert_kernel_matches_loop(lines, classes)
        if loop_concurrence_buckets(lines):
            assert sum(calls)  # two lines meet, and only an exact meet can say so

    @pytest.mark.parametrize("table", [led(2), led(7, TINY[-6:])])
    def test_batched_fallback_on_the_alg_3_2_lift(self, table, algebraic_3_2):
        # grouping mod 2, so residue points collide and vanish, or a table whose
        # product (about 2^16) stays below the 2^30 the keys need and cannot grow,
        # so every pair is met: pairs are met in slabs of 16 * TILE (TILE = 4 here,
        # so many slabs), and the entries and witnesses are the ones pinned
        lifted = lift_to_concurrent(algebraic_3_2, audit=False)[0]
        lines = [line for cls in line_classes(lifted) for line in cls]
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            patch_primes(mp, table)
            mp.setattr(structure, "TILE", 4)
            mp.setattr(structure, "common_rows", lambda a, b: calls.append(len(a)) or common_rows(a, b))
            s = extract_structure_lines(lifted)
        assert len(calls) > 2 and max(calls) == 16 * 4
        entries_digest = hashlib.sha256(np.concatenate((s.group, s.line)).tobytes()).hexdigest()
        assert entries_digest == "c3ecf4c1f99a925a8f6754892cc155f62696d54aa3f831a1f5250bb9dbd91170"
        witnesses = [tuple(w) for w in s.witnesses(np.arange(len(s.firsts))).tolist()]
        assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == (
            "dfd6224ad884d9d34a2d5385e97cb557dc0e5ea8554811d55d947f59236c2d9f"
        )
        pairs = [s.line[a : a + 2].tolist() for a in s.firsts.tolist()]
        assert witnesses == [loop_meet(lines[a], lines[b]).coords for a, b in pairs]

    @settings(max_examples=200, deadline=None)
    @given(bits=st.integers(1, 58), data=st.data())
    def test_bounds_dominate_exact_values(self, bits, data):
        # rows with entries below 2^B, most at the edge: key rows zero at the
        # other row's pivot, centers and planar triples
        top = 2**bits - 1
        edge = st.sampled_from([top, -top, top - 1, 0]) | st.integers(-top, top)
        dim = data.draw(st.integers(4, 6))
        column = st.integers(0, dim - 1)
        c1, c2 = sorted(data.draw(st.lists(column, min_size=2, max_size=2, unique=True)))

        def line() -> SimpleNamespace:  # key rows as given, with no row reduction
            rows = [data.draw(st.lists(edge, min_size=dim, max_size=dim)) for _ in range(2)]
            rows[0][c1], rows[0][c2], rows[1][c1], rows[1][c2] = top, 0, 0, -top
            return SimpleNamespace(key=rows, pivots=(c1, c2))

        a, b, m = line(), line(), line()
        u, w = residual(a, b.key[0]), residual(a, b.key[1])
        points = [[w[j] * x - u[j] * y for x, y in zip(*b.key)] for j in range(dim)]
        center = data.draw(st.lists(edge, min_size=dim, max_size=dim))
        values = [x for v in [*points, b.key[0], center] for x in residual(m, v)]
        assert max(map(abs, values)) < 2 ** (6 * bits + 5)
        primes = exactgeom.primes_above(6 * bits + 6)
        assert primes is not None and np.prod(primes, dtype=object) > 2 * 2 ** (6 * bits + 5)
        triple = st.lists(edge, min_size=3, max_size=3)
        x, (y1, y2, y3), (z1, z2, z3) = (data.draw(triple) for _ in range(3))
        cross = (y2 * z3 - y3 * z2, y3 * z1 - y1 * z3, y1 * z2 - y2 * z1)
        assert abs(sum(p * q for p, q in zip(x, cross))) < 2 ** (3 * bits + 3)
        assert np.prod(exactgeom.primes_above(3 * bits + 4), dtype=object) > 2 * 2 ** (3 * bits + 3)

    def test_no_python_exact_arithmetic_in_extraction(self, algebraic_3_3):
        # alg(3,3) lifted (d = 4), projected to R^3 and to the plane, and dualized
        lifted, s = lift_to_concurrent(algebraic_3_3, audit=False)
        configs = [lifted, *(project_generic(lifted, s, d, 11).config for d in (3, 2))]
        configs.append(dualize(configs[-1]))

        with pytest.MonkeyPatch.context() as mp:
            refusing_exact_arithmetic(mp)
            got = [structure.extract_structure(cfg) for cfg in configs]
        assert [len(t.firsts) for t in got] == [len(s.firsts), len(s.firsts), 352354, 352354]
        assert got[0] == s
        for t, cfg in zip(got[1:3], configs[1:3]):  # witnesses are met after extraction
            lines = [line for cls in line_classes(cfg) for line in cls]
            a, b = t.line[:2].tolist()
            assert t.witness(0) == loop_meet(lines[a], lines[b]).coords


def refusing_exact_arithmetic(mp: pytest.MonkeyPatch) -> None:
    """Make every exact pair step of extraction raise: ``meet``, and the
    kernels behind ``common_rows``, ``meet_rows`` and ``cross_rows``."""

    def refuse(*args):
        raise AssertionError("exact pair arithmetic during extraction")

    for module in (exactgeom, structure):
        mp.setattr(module, "meet", refuse)
    mp.setattr(exactgeom, "meet_rows", refuse)
    mp.setattr(exactgeom, "cross_rows", refuse)


class TestPrimeTable:
    """``primes_above`` grows the table on demand by the next primes below
    its last entry, while that is above 2^29, so wide keys are decided on
    residues too; a table that ends below 2^29 never grows."""

    def test_extension_is_the_next_primes(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactgeom, "PRIMES", exactgeom.PRIMES[:12])  # as at import
            fixed = exactgeom.PRIMES
            got = exactgeom.primes_above(30 * 20)
            assert exactgeom.PRIMES == got and got[:12] == fixed
            assert got[12:] == primes_below(2**30 - 257, len(got) - 12)
            assert np.prod(got, dtype=object) >> 600 and not np.prod(got[:-1], dtype=object) >> 600
            assert exactgeom.primes_above(6 * 38 + 6) == fixed[:8]  # the fewest, as before

    def test_growths_are_the_next_primes_by_trial_division(self):
        # from the fixed twelve in one step or in several, up and down: the
        # table is the next primes below them, grown only as far as a call
        # needs, and each call returns the fewest leading primes of it
        table = exactgeom.PRIMES[:12] + primes_below(2**30 - 257, 300)
        for steps in [(8900,), (359, 360, 1000, 999, 1001, 4000, 30, 8900)]:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(exactgeom, "PRIMES", table[:12])
                for bits in steps:
                    known = len(exactgeom.PRIMES)
                    got = exactgeom.primes_above(bits)
                    assert got == table[: len(got)]
                    assert np.prod(got, dtype=object) >> bits and not np.prod(got[:-1], dtype=object) >> bits
                    assert exactgeom.PRIMES == table[: max(known, len(got))]
                assert exactgeom.PRIMES == got and len(got) > 250  # the last call needs the most

    @pytest.mark.parametrize("table", [led(7), led(structure.PRIME, TINY[:2]), FIXED])
    def test_tables_below_2_to_the_29_do_not_grow(self, table):
        with pytest.MonkeyPatch.context() as mp:
            patch_primes(mp, table)
            assert exactgeom.primes_above(10**4) is None
            assert exactgeom.PRIMES == table

    def test_transform_of_a_transform_is_decided_on_residues(self, algebraic_3_3):
        # alg(3,3) lifted, projected to R^4 (seed 11), then to R^3 (seed 12), as
        # ``transform --lift --project 4`` then ``transform --project 3`` write it:
        # keys of about 68 bits, past the twelve fixed primes
        lifted, s = lift_to_concurrent(algebraic_3_3, audit=False)
        image = project_generic(project_generic(lifted, s, 4, 11).config, s, 3, 12).config
        bits = exactgeom.magnitude(image.keys).bit_length()
        assert bits > 58 and len(exactgeom.primes_above(6 * bits + 6)) > 12
        with pytest.MonkeyPatch.context() as mp:
            refusing_exact_arithmetic(mp)
            assert extract_structure_lines(image) == s
