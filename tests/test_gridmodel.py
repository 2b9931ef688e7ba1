import json
import random
import tracemalloc
from itertools import combinations, product
from math import isqrt
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from incidencelab import gridmodel
from incidencelab.analysis import minimality_audit
from incidencelab.cli import _dump_json
from incidencelab.constructions import ProbParams, gen_probabilistic
from incidencelab.exactgeom import ProjPoint, meet
from incidencelab.gridmodel import (
    ColoredGridConfig,
    IncidenceStructure,
    breaks_consistency_without,
    grid_from_json,
    grid_to_json,
    group_consistency,
    group_removable,
    is_k_consistent,
    max_colorful_order,
)
from incidencelab.structure import extract_structure_grid, structure_consistency
from oracles import (
    GridLine,
    affine,
    decoded,
    dump_json,
    embed_grid_line,
    grid_config,
    grid_from_json as oracle_grid_from_json,
    grid_to_json as oracle_grid_to_json,
    grid_meet,
    loop_consistency,
    loop_removable,
    point_enumeration_incidences,
    point_enumeration_max_colorful,
    point_scan_failures,
    rescan_removable,
    tiny_incidences,
)


def gl(axis, *base):
    return GridLine(axis, tuple(base))


class TestGridLine:
    def test_validation(self):
        with pytest.raises(ValueError):
            gl(1, 1, 2)  # axis slot must be 0
        with pytest.raises(ValueError):
            gl(3, 1, 2)  # axis out of range
        with pytest.raises(ValueError):
            gl(1, 0, 0)  # non-axis entry below 1

    def test_points(self):
        line = gl(2, 3, 0, 1)
        assert list(line.points(2)) == [(3, 1, 1), (3, 2, 1)]


class TestGridMeet:
    def test_crossing(self):
        a = gl(1, 0, 2, 3, 3, 1)
        b = gl(2, 1, 0, 3, 3, 1)
        assert grid_meet(a, b) == (1, 2, 3, 3, 1)

    def test_disagreement(self):
        a = gl(1, 0, 2, 3, 3, 1)
        b = gl(2, 1, 0, 3, 3, 2)
        assert grid_meet(a, b) is None

    def test_same_axis(self):
        a = gl(3, 1, 1, 0, 1)
        b = gl(3, 1, 2, 0, 1)
        assert grid_meet(a, b) is None

    def test_identical_error(self):
        a = gl(1, 0, 1, 1)
        with pytest.raises(ValueError):
            grid_meet(a, gl(1, 0, 1, 1))


def file_data(cfg: ColoredGridConfig) -> dict:
    """A configuration's grid file, written by the CLI's writer and parsed back."""
    return json.loads(_dump_json(grid_to_json(cfg)))


def random_config(rng: random.Random, k: int, n: int, per_class: int) -> ColoredGridConfig:
    classes = []
    seen = set()
    for color in range(1, k + 2):
        cls = []
        while len(cls) < per_class:
            axis = color  # paper setup: class color = axis
            base = [rng.randint(1, n) for _ in range(k + 1)]
            base[axis - 1] = 0
            line = GridLine(axis, tuple(base))
            if line not in seen:
                seen.add(line)
                cls.append(line)
        classes.append(cls)
    return grid_config(k, n, classes)


def mixed_config(
    rng: random.Random, k: int, n: int, m: int, per_class: int
) -> ColoredGridConfig:
    """m colors whose lines take any axis: axes mix within a class and are
    shared across colors."""
    classes = []
    seen = set()
    for _ in range(m):
        cls = []
        while len(cls) < per_class:
            axis = rng.randint(1, k + 1)
            base = [rng.randint(1, n) for _ in range(k + 1)]
            base[axis - 1] = 0
            line = GridLine(axis, tuple(base))
            if line not in seen:
                seen.add(line)
                cls.append(line)
        classes.append(cls)
    return grid_config(k, n, classes)


def grid_point_incidences(cfg: ColoredGridConfig) -> dict[tuple[int, ...], set]:
    """The finite (grid-point) monomials of the extracted grid structure."""
    s = extract_structure_grid(cfg)
    witnesses = map(s.witness, range(len(s.firsts)))
    return {
        tuple(v // w[-1] for v in w[:-1]): set(m)
        for m, w in zip(s.members, witnesses)
        if w[-1] != 0
    }


def incidence_dict(cfg: ColoredGridConfig) -> dict[tuple[int, ...], set]:
    """The grid's incidences decoded to {point: refs of the lines through it}."""
    points, group, line = cfg.incidences
    refs = [(c, i) for c, size in enumerate(cfg.class_sizes(), start=1) for i in range(size)]
    coords = cfg.coordinates(points)
    out = {pt: set() for pt in coords}
    for g, i in zip(group.tolist(), line.tolist()):
        out[coords[g]].add(refs[i])
    return out


class TestConfigValidation:
    def test_duplicate_across_classes(self):
        line = gl(1, 0, 1, 1)
        with pytest.raises(ValueError, match=r"axis 1, base \[1, 1\]"):
            grid_config(2, 2, [[line], [line], []])

    def test_duplicate_within_class(self):
        with pytest.raises(ValueError, match=r"axis 2, base \[2, 1\]"):
            grid_config(2, 2, [[gl(2, 2, 0, 1), gl(2, 2, 0, 1)], [], []])

    def test_entry_exceeds_n(self):
        with pytest.raises(ValueError):
            grid_config(2, 2, [[gl(1, 0, 3, 1)], [], []])
        with pytest.raises(ValueError, match=r"classes\[0\]"):
            entry = {"color": 1, "axis": 1, "bases": [[3, 1]]}
            grid_from_json({"k": 2, "n": 2, "classes": [entry]})

    @pytest.mark.parametrize("cls", [[0.0], np.array([0.5]), [[0, 1]], [gl(1, 0, 1, 1)]])
    def test_class_must_be_integer_ids(self, cls):
        with pytest.raises(ValueError, match="integer line ids"):
            ColoredGridConfig(2, 2, [cls])

    @pytest.mark.parametrize("line_id", [-1, 12])
    def test_line_id_out_of_range(self, line_id):
        # k=2, n=2: ids 0..11
        with pytest.raises(ValueError):
            ColoredGridConfig(2, 2, [np.array([0, 5]), np.array([line_id])])

    def test_json_round_trip(self):
        rng = random.Random(5)
        cfg = random_config(rng, 2, 4, 3)
        assert grid_from_json(file_data(cfg)) == cfg

    def test_json_preserves_empty_classes(self):
        cfg = grid_config(2, 2, [[gl(1, 0, 1, 1)], [], []])
        loaded = grid_from_json(file_data(cfg))
        assert loaded == cfg
        assert loaded.num_colors == 3

    def test_json_discriminator_optional(self):
        # bare schema files (no "model" key) are grid configurations
        rng = random.Random(6)
        cfg = random_config(rng, 2, 3, 2)
        data = file_data(cfg)
        del data["model"]
        assert grid_from_json(data) == cfg


class TestIdBound:
    """Line and point ids are int64: grids with n^(k+1) or (k+1)*n^k at or
    above 2^63 are refused, and the largest accepted grids meet exactly at
    their last point."""

    @pytest.mark.parametrize("k,n", [(2, 2**21), (3, isqrt(isqrt(2**63)) + 1), (62, 2), (61, 2)])
    def test_too_large_raises(self, k, n):
        with pytest.raises(ValueError, match="2\\^63"):
            ColoredGridConfig(k, n, [[]])
        with pytest.raises(ValueError, match="2\\^63"):
            grid_from_json({"k": k, "n": n, "classes": []})

    @pytest.mark.parametrize("k,n", [(2, 2**21 - 1), (3, isqrt(isqrt(2**63 - 1)))])
    def test_last_point_of_the_largest_grid(self, k, n):
        first = GridLine(1, (0,) + (n,) * k)
        last = GridLine(k + 1, (n,) * k + (0,))
        cfg = grid_config(k, n, [[first], [last]])
        corner = (n,) * (k + 1)
        assert incidence_dict(cfg) == {corner: {(1, 0), (2, 0)}}
        assert max_colorful_order(cfg) == (2, corner)
        assert grid_from_json(file_data(cfg)) == cfg
        assert decoded(cfg) == ((first,), (last,))


def pairwise_incidences(cfg: ColoredGridConfig) -> dict[tuple[int, ...], set]:
    """{point: refs of the lines through it} from ``grid_meet`` of every two
    lines: the reference for grids too large for the point sweep."""
    refs = [((c, i), line) for c, cls in enumerate(decoded(cfg), 1) for i, line in enumerate(cls)]
    out: dict[tuple[int, ...], set] = {}
    for (ra, a), (rb, b) in combinations(refs, 2):
        if (point := grid_meet(a, b)) is not None:
            out.setdefault(point, set()).update((ra, rb))
    return out


def last_point_id(k: int, n: int, line: GridLine) -> int:
    """The largest point id on a line: its axis slot at n, in Python ints."""
    coords = [n if t == line.axis - 1 else x for t, x in enumerate(line.base)]
    return sum((x - 1) * n ** (k - t) for t, x in enumerate(coords))


def incidences_both_ways(cfg: ColoredGridConfig) -> bool:
    """Check the one-key incidences against the two-key fallback's arrays,
    forced by an unreachable key bound; True iff the one-key path ran."""
    with patch.object(np, "lexsort", wraps=np.lexsort) as spy:  # the fallback's sort
        arrays = ColoredGridConfig.incidences.func(cfg)
    with patch.object(gridmodel, "ONE_KEY_MAX", -1):
        fallback = ColoredGridConfig.incidences.func(cfg)
    for fast, slow in zip(arrays, fallback):
        assert fast.dtype == slow.dtype == np.int64
        assert np.array_equal(fast, slow)
    return not spy.called


@st.composite
def swept_grids(draw) -> ColoredGridConfig:
    """k = 2..4 grids small enough for the point sweep, up to 14 distinct
    lines on any axes in 1-4 classes, empty and single-line ones included."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, {2: 5, 3: 3, 4: 2}[k]))
    ids = draw(st.lists(st.integers(0, (k + 1) * n**k - 1), unique=True, max_size=14))
    m = draw(st.integers(1, 4))
    colors = draw(st.lists(st.integers(0, m - 1), min_size=len(ids), max_size=len(ids)))
    classes = [[i for i, c in zip(ids, colors) if c == color] for color in range(m)]
    return ColoredGridConfig(k, n, classes)


@st.composite
def corner_grids(draw) -> ColoredGridConfig:
    """Up to 8 distinct lines of the largest k = 2 grid, n = 2^21 - 1, whose
    other coordinates lie in a window of three values: at the bottom corner,
    a quarter or half way up, or at the top corner.  An axis-1 line reaches
    x1 = n, so some grids leave axis 1 out: the one-key bound (p + 1) * L
    <= 2^63 - 1 falls on either side of them."""
    n = 2**21 - 1
    low = draw(st.sampled_from([1, n // 4, n // 2 - 1, n // 2, n - 2]))
    coords = st.lists(st.integers(low, low + 2), min_size=3, max_size=3)
    axes = st.sampled_from(draw(st.sampled_from([(1, 2, 3), (2, 3)])))
    lines = draw(st.lists(st.tuples(axes, coords), max_size=8))
    lines = list(dict.fromkeys(
        GridLine(axis, tuple(0 if t == axis - 1 else x for t, x in enumerate(xs)))
        for axis, xs in lines
    ))
    colors = draw(st.lists(st.integers(0, 2), min_size=len(lines), max_size=len(lines)))
    classes = [[line for line, c in zip(lines, colors) if c == color] for color in range(3)]
    return grid_config(2, n, classes)


class TestOneKeyIncidences:
    """``incidences`` sorts one int64 key per entry, point id * L + line
    position, while (p + 1) * L <= 2^63 - 1 for the largest point id p on a
    line, and falls back to (point id, line) rows above that: both paths
    give the same arrays, and the point sweep's (or every pair's) points."""

    @settings(max_examples=200, deadline=None)
    @given(swept_grids())
    @example(ColoredGridConfig(2, 2, [[], list(range(12)), []]))  # every line: 3 at each point
    @example(ColoredGridConfig(4, 2, [[0], [], [16 * 4 + 5]]))  # single-line classes
    def test_matches_point_enumeration(self, cfg):
        assert incidence_dict(cfg) == point_enumeration_incidences(cfg)
        assert incidences_both_ways(cfg)

    @settings(max_examples=120, deadline=None)
    @given(corner_grids())
    def test_both_sides_of_the_key_bound(self, cfg):
        lines = [line for cls in decoded(cfg) for line in cls]
        top = max((last_point_id(2, cfg.n, line) for line in lines), default=0)
        assert incidences_both_ways(cfg) == ((top + 1) * len(lines) <= 2**63 - 1)
        assert incidence_dict(cfg) == pairwise_incidences(cfg)

    @pytest.mark.parametrize("fits", [True, False])
    def test_edge_of_the_key_bound(self, fits):
        # three lines through a point of the largest k = 3 grid, with lines
        # far below it that raise L alone: (p + 1) * 4 fits, (p + 1) * 5 not
        n, x, y = isqrt(isqrt(2**63 - 1)), 12_000, 7
        star = [gl(2, x, 0, y, y), gl(3, x, y, 0, y), gl(4, x, y, y, 0)]
        low = [gl(4, 1, 1, 1, 0), gl(3, 2, 2, 0, 2)][: 1 if fits else 2]
        cfg = grid_config(3, n, [star[:2], star[2:] + low])
        top = last_point_id(3, n, star[0])
        assert top == max(last_point_id(3, n, line) for line in star + low)
        assert (top + 1) * 4 <= 2**63 - 1 < (top + 1) * 5
        assert incidences_both_ways(cfg) == fits
        assert incidence_dict(cfg) == pairwise_incidences(cfg)
        assert list(incidence_dict(cfg)) == [(x, y, y, y)]


@st.composite
def grid_files(draw) -> ColoredGridConfig:
    """Up to 24 distinct lines of one grid, k = 2..4 and n up to 300, colored
    into 1-4 classes: classes may be empty and mix axes."""
    k, n = draw(st.integers(2, 4)), draw(st.integers(1, 300))
    ids = draw(st.lists(st.integers(0, (k + 1) * n**k - 1), unique=True, max_size=24))
    m = draw(st.integers(1, 4))
    colors = draw(st.lists(st.integers(0, m - 1), min_size=len(ids), max_size=len(ids)))
    classes = [[i for i, c in zip(ids, colors) if c == color] for color in range(m)]
    return ColoredGridConfig(k, n, classes)


# values a grid file may hold where an int in range belongs: JSON's other
# scalars and ints out of every range, or out of int64
BAD_VALUES = [True, False, 1.0, 2.5, "1", "", None, 0, -1, 2**63, 2**64, -(2**63) - 1]


@st.composite
def mutated_grid_files(draw) -> dict:
    """A parsed grid file of ``grid_files``, with up to three mutations: a
    bad value as a base entry, color or axis (one of ``BAD_VALUES``, or
    n + 1), a short or long row, a row that is no list, bases that are not
    a list, an empty class entry, or a class entry that is not an object."""
    data = file_data(draw(grid_files()))
    entries = data["classes"]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["base", "row"] * 2 + ["color", "axis", "bases", "empty", "entry"]))
        if kind == "empty" or not entries:
            color = draw(st.integers(1, len(entries) + 1))
            entries.insert(draw(st.integers(0, len(entries))), {"color": color, "axis": 1, "bases": []})
            continue
        pos = draw(st.integers(0, len(entries) - 1))
        if kind == "entry":
            entries[pos] = draw(st.sampled_from([[], [1, 1], "classes", 3]))
            continue
        entry, bad = entries[pos], draw(st.sampled_from([*BAD_VALUES, data["n"] + 1]))
        if not isinstance(entry, dict):
            continue
        if kind in ("color", "axis"):
            entry[kind] = bad
            continue
        if kind == "bases":
            entry["bases"] = draw(st.sampled_from([None, 3, "", "[[1, 1]]", {}, {"1": [1, 1]}]))
            continue
        bases = entry["bases"]
        if type(bases) is not list or not bases:
            continue
        i = draw(st.integers(0, len(bases) - 1))
        if type(bases[i]) is not list:
            continue
        if kind == "row":
            row = bases[i]
            bad_rows = [row[:-1], row + [1], [], [row], "1" * len(row), "", {}, {"1": 1}, 1, None]
            bases[i] = draw(st.sampled_from(bad_rows))
        elif bases[i]:
            bases[i][draw(st.integers(0, len(bases[i]) - 1))] = bad
    return data


def read_outcome(reader, data):
    """A reader's configuration of ``data``, or its exception's type and message."""
    try:
        return reader(data)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, not handled
        return type(exc), str(exc)


class TestGridFile:
    """Grid files hold int64 bases arrays; their bytes are those of the
    line-by-line oracle's plain lists."""

    @settings(max_examples=400, deadline=None)
    @given(mutated_grid_files())
    def test_reader_matches_nested_array_oracle(self, data):
        # the same configuration, or the same exception and message at the same entry
        assert read_outcome(grid_from_json, data) == read_outcome(oracle_grid_from_json, data)

    @settings(max_examples=200, deadline=None)
    @given(grid_files())
    @example(ColoredGridConfig(4, 300, [[], [5 * 300**4 - 1, 0, 2 * 300**4 + 12345], []]))
    def test_bytes_match_line_by_line_oracle(self, cfg):
        assert _dump_json(grid_to_json(cfg)) == dump_json(oracle_grid_to_json(cfg))
        assert grid_from_json(file_data(cfg)) == cfg

    def test_bases_are_int64_arrays(self):
        cfg = ColoredGridConfig(3, 300, [[0, 2 * 300**3 + 299], []])
        bases = [entry["bases"] for entry in grid_to_json(cfg)["classes"]]
        assert [b.dtype for b in bases] == [np.int64] * 3
        assert [b.shape for b in bases] == [(1, 3), (1, 3), (0, 3)]
        assert [b.tolist() for b in bases] == [[[1, 1, 1]], [[1, 1, 300]], []]


class TestAllIncidences:
    """The grid-point monomials of the extracted structure are exactly the
    grid points on two or more lines."""

    def test_empty(self):
        cfg = ColoredGridConfig(2, 3, [[], [], []])
        assert grid_point_incidences(cfg) == {}

    def test_two_crossing_lines(self):
        cfg = grid_config(2, 2, [[gl(1, 0, 1, 1)], [gl(2, 1, 0, 1)], []])
        assert grid_point_incidences(cfg) == {(1, 1, 1): {(1, 0), (2, 0)}}

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_tiny_oracle(self, seed):
        rng = random.Random(seed)
        cfg = random_config(rng, 2, 3, 4)
        assert grid_point_incidences(cfg) == tiny_incidences(cfg)

    def test_one_line_per_color_when_axis_aligned(self):
        rng = random.Random(11)
        cfg = random_config(rng, 3, 3, 6)
        for refs in grid_point_incidences(cfg).values():
            colors = [c for c, _ in refs]
            assert len(colors) == len(set(colors))


class TestHasSIncidence:
    """Single (line, S) incidences, read off the k-consistency failures."""

    def test_singleton_always_true(self):
        cfg = grid_config(2, 2, [[gl(1, 0, 1, 1)], [], []])
        assert is_k_consistent(cfg, 1).ok

    def test_color_not_in_S(self):
        # a failure names an S holding the line's own color
        cfg = grid_config(2, 2, [[gl(1, 0, 1, 1)], [gl(2, 1, 0, 1)], []])
        failures = is_k_consistent(cfg, 2).failures
        assert failures
        assert all(ref[0] in S for ref, S in failures)

    def test_pair(self):
        cfg = grid_config(2, 2, [[gl(1, 0, 1, 1)], [gl(2, 1, 0, 1)], []])
        failures = is_k_consistent(cfg, 2).failures
        assert ((1, 0), frozenset({1, 2})) not in failures
        assert ((1, 0), frozenset({1, 3})) in failures


class TestKConsistency:
    def test_vacuous_empty(self):
        cfg = ColoredGridConfig(2, 2, [[], [], []])
        assert is_k_consistent(cfg, 2).ok

    def test_k_range_errors(self):
        cfg = ColoredGridConfig(2, 2, [[], [], []])
        with pytest.raises(ValueError):
            is_k_consistent(cfg, 0)
        with pytest.raises(ValueError):
            is_k_consistent(cfg, 4)

    def test_witnesses_reported(self):
        cfg = grid_config(2, 2, [[gl(1, 0, 1, 1)], [gl(2, 1, 0, 1)], [gl(3, 2, 2, 0)]])
        verdict = is_k_consistent(cfg, 2)
        assert not verdict.ok
        assert ((1, 0), frozenset({1, 3})) in verdict.failures

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_monotone_under_addition(self, seed):
        # Adding a line never turns a passing (line, S) pair into a failure
        # for the lines that were already present.
        rng = random.Random(seed)
        cfg = random_config(rng, 2, 3, 2)

        def failures_by_line(config):
            classes = decoded(config)
            return {
                (classes[c - 1][i], S)
                for (c, i), S in is_k_consistent(config, 2).failures
            }

        old_failures = failures_by_line(cfg)
        color = rng.randint(1, 3)
        for _ in range(40):
            base = [rng.randint(1, 3) for _ in range(3)]
            base[color - 1] = 0
            new = GridLine(color, tuple(base))
            if all(new not in cls for cls in decoded(cfg)):
                break
        else:
            return
        classes = [list(cls) for cls in decoded(cfg)]
        classes[color - 1].append(new)
        bigger = grid_config(2, 3, classes)
        for line, S in failures_by_line(bigger):
            if line != new:
                assert (line, S) in old_failures


class TestMaxColorful:
    def test_single_crossing(self):
        cfg = grid_config(2, 2, [[gl(1, 0, 1, 1)], [gl(2, 1, 0, 1)], []])
        order, witness = max_colorful_order(cfg)
        assert order == 2
        assert witness == (1, 1, 1)

    def test_empty(self):
        cfg = ColoredGridConfig(2, 2, [[], [], []])
        assert max_colorful_order(cfg) == (0, None)

    @pytest.mark.parametrize("case", ["alg32", "alg42", "prob16", *range(12)])
    def test_point_record_witnesses_grid_points(self, case, algebraic_3_2, algebraic_4_2):
        # the record of points witnesses each group by its grid point (*coords, 1), on
        # the paper's grids, ``gen probabilistic --k 3 --n 16 --seed 1`` and mixed-axis grids
        if case == "prob16":
            cfg = gen_probabilistic(ProbParams(3, 16, 1), ("after",))[1]
        elif isinstance(case, int):
            rng = random.Random(case)  # 5 to 24 grid points each
            k, m = rng.randint(2, 3), rng.randint(2, 3)
            cfg = mixed_config(rng, k, 3, m, rng.randint(4, 8))
        else:
            cfg = {"alg32": algebraic_3_2, "alg42": algebraic_4_2}[case]
        s = cfg.points
        witnesses = [tuple(w) for w in s.witnesses(np.arange(len(s.firsts))).tolist()]
        assert witnesses == [(*c, 1) for c in cfg.coordinates(cfg.incidences[0])]
        order, point = max_colorful_order(cfg)
        assert s.max_colorful() == (order, point and ProjPoint((*point, 1)).coords)
        assert case != "prob16" or point == (3, 15, 13, 3)


def dense_mixed_config(
    rng: random.Random, k: int, n: int, m: int, keep: float
) -> ColoredGridConfig:
    """Each line of the grid kept with probability ``keep`` under a random
    color: dense enough that k-consistent mixed configurations are common."""
    classes = [[] for _ in range(m)]
    for axis in range(1, k + 2):
        for rest in product(range(1, n + 1), repeat=k):
            if rng.random() < keep:
                base = list(rest)
                base.insert(axis - 1, 0)
                classes[rng.randrange(m)].append(GridLine(axis, tuple(base)))
    return grid_config(k, n, classes)


grid_cases = st.builds(
    lambda seed, k, n, m, per, dense: (
        dense_mixed_config(random.Random(seed), k, n, m, 0.6 + per / 20)
        if dense
        else mixed_config(random.Random(seed), k, n, m, min(per, (k + 1) * n**k // m))
    ),
    st.integers(0, 10**9),
    st.integers(2, 3),
    st.integers(1, 3),
    st.integers(1, 5),
    st.integers(0, 8),
    st.booleans(),
)


# 70 colors on 2 axes of [6]^3: an int64 color mask would overflow here
MANY_COLORS = dense_mixed_config(random.Random(70), 2, 6, 70, 0.9)


def orders(m: int):
    """Every k for a few colors; at m >= 64, where C(m-1, k-1) color
    subsets per line rule that out, k = 1, 2 and m."""
    return range(1, m + 1) if m < 64 else (1, 2, m)


class TestCoreAgainstOracles:
    """The incidence core against the point scan, the full grid sweep and
    the per-line rescan, on configs that mix axes within a class and share
    axes across colors."""

    @settings(max_examples=120, deadline=None)
    @given(grid_cases)
    @example(MANY_COLORS)
    def test_failures_match_point_scan(self, cfg):
        for k in orders(cfg.num_colors):
            assert is_k_consistent(cfg, k).failures == point_scan_failures(cfg, k)

    @settings(max_examples=120, deadline=None)
    @given(grid_cases)
    def test_max_colorful_matches_sweep(self, cfg):
        assert max_colorful_order(cfg) == point_enumeration_max_colorful(cfg)

    @settings(max_examples=80, deadline=None)
    @given(grid_cases)
    @example(MANY_COLORS)
    def test_minimality_matches_rescan(self, cfg):
        for k in orders(cfg.num_colors):
            if not is_k_consistent(cfg, k).ok:
                with pytest.raises(ValueError):
                    minimality_audit(cfg.points, k)
                continue
            removable = rescan_removable(cfg, k)
            assert minimality_audit(cfg.points, k).removable == removable
            assert removable == tuple(
                (c, i)
                for c, size in enumerate(cfg.class_sizes(), start=1)
                for i in range(size)
                if not breaks_consistency_without(cfg, k, (c, i))
            )

    @settings(max_examples=120, deadline=None)
    @given(grid_cases)
    def test_incidences_match_sweep(self, cfg):
        assert incidence_dict(cfg) == point_enumeration_incidences(cfg)
        points, group, line = cfg.incidences
        assert np.all(points[1:] > points[:-1])  # lexicographic point order
        assert np.all((group[1:] > group[:-1]) | (line[1:] > line[:-1]) & (group[1:] == group[:-1]))
        assert np.array_equal(np.unique(group), np.arange(len(points)))

    @settings(max_examples=120, deadline=None)
    @given(grid_cases)
    def test_json_round_trip(self, cfg):
        assert grid_from_json(file_data(cfg)) == cfg

    def test_minimality_on_consistent_mixed_configs(self):
        # the hypothesis cases above are mostly inconsistent for k >= 2;
        # here every compared case is 2-consistent with mixed axes
        rng = random.Random(77)
        compared = nontrivial = 0
        while compared < 12:
            cfg = dense_mixed_config(rng, 2, 3, 3, 1.0)
            if not is_k_consistent(cfg, 2).ok:
                continue
            removable = minimality_audit(cfg.points, 2).removable
            assert removable == rescan_removable(cfg, 2)
            compared += 1
            nontrivial += 0 < len(removable) < sum(cfg.class_sizes())
        assert nontrivial

    def test_grid_ignores_shared_directions(self):
        # two colors on one axis meet only at infinity: the grid has no such
        # point, while the extracted structure records the shared direction
        cfg = grid_config(2, 2, [[gl(1, 0, 1, 1)], [gl(1, 0, 2, 2)]])
        assert not is_k_consistent(cfg, 2).ok
        assert max_colorful_order(cfg) == (0, None)
        assert structure_consistency(extract_structure_grid(cfg), 2).ok


@st.composite
def entry_arrays(draw):
    """Up to 6 classes of 0..4 lines and the core's (group, line) entry
    arrays of up to 12 groups of 1..6 of their lines, one-line groups and
    groups repeating a color included; returns (sizes, groups, group, line)."""
    sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    refs = [(c, i) for c, size in enumerate(sizes, start=1) for i in range(size)]
    member = st.sets(st.sampled_from(refs), min_size=1, max_size=6) if refs else st.nothing()
    groups = draw(st.lists(member, max_size=12 if refs else 0))
    first = np.cumsum([0, *sizes])
    entries = [(g, first[c - 1] + i) for g, refs_g in enumerate(groups) for c, i in sorted(refs_g)]
    group, line = np.array(entries, np.int64).reshape(-1, 2).T
    return sizes, groups, group, line


class TestCarrierKernel:
    """The carrier-table core on random entry arrays against the loop
    oracles, for every k in 1..m: the same failures, counted and sliced
    from the index arrays, and the same removable lines or ValueError."""

    @settings(max_examples=300, deadline=None)
    @given(entry_arrays())
    def test_consistency_matches_loop(self, case):
        sizes, groups, group, line = case
        for k in range(1, len(sizes) + 1):
            expected = loop_consistency(sizes, groups, k)
            verdict = group_consistency(IncidenceStructure(tuple(sizes), group, line), k)
            assert verdict.failures == expected
            assert verdict.ok == (not expected) and verdict.total == len(expected)
            for limit in (0, 1, 50, verdict.total + 1):
                assert verdict.first(limit) == list(expected[:limit])

    @settings(max_examples=300, deadline=None)
    @given(entry_arrays())
    def test_removable_matches_loop(self, case):
        sizes, groups, group, line = case
        s = IncidenceStructure(tuple(sizes), group, line)
        for k in range(1, len(sizes) + 1):
            try:
                expected = loop_removable(sizes, groups, k)
            except ValueError:
                with pytest.raises(ValueError):
                    group_removable(s, k)
                continue
            assert group_removable(s, k) == expected

    def test_grid_verdict_runs_in_bounded_memory(self):
        # k = 3, n = 128: 111,903 lines on 272,049 points, and 330,019
        # failures counted from index arrays, not built as tuples
        cfg = gen_probabilistic(ProbParams(3, 128, 1))[1]
        tracemalloc.start()
        try:
            verdict = is_k_consistent(cfg, 3)
            order, _ = max_colorful_order(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20
        assert verdict.total == 330019 and order == 3


class TestCrossModelOracle:
    """grid_meet agrees with the exact rational meet on embedded lines."""

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 4), (3, 8), (4, 3)])
    def test_thousand_random_pairs(self, k, n):
        rng = random.Random(0xC0FFEE + k * 100 + n)
        checked = 0
        while checked < 1000:
            def draw():
                axis = rng.randint(1, k + 1)
                base = [rng.randint(1, n) for _ in range(k + 1)]
                base[axis - 1] = 0
                return GridLine(axis, tuple(base))

            a, b = draw(), draw()
            if a == b:
                continue
            checked += 1
            got = grid_meet(a, b)
            exact = meet(embed_grid_line(a), embed_grid_line(b))
            if a.axis == b.axis:
                # distinct parallels: no grid point, projectively a direction
                assert got is None
                assert exact is not None and exact.coords[-1] == 0
            elif got is None:
                assert exact is None
            else:
                assert exact == affine(got)
