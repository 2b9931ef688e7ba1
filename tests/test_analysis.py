import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from incidencelab.analysis import (
    TABLE_I,
    TABLE_II,
    bipartite_edges,
    determinant_monomials,
    joint_bound,
    joint_bound_value,
    match_structure,
    minimality_audit,
    monomial_name,
    monte_carlo,
    parse_monomial,
    flatness_audit,
)
from incidencelab.configs import ColoredLineConfig
from incidencelab.constructions import (
    ProbParams,
    default_generic_slits,
    gen_two_slit,
    quadric_ruling,
    quadric_ruling_slits,
)
from incidencelab.exactgeom import Line, ProjPoint
from incidencelab.gridmodel import ColoredGridConfig
from incidencelab.structure import extract_structure_lines
from incidencelab.transforms import lift_to_concurrent, project_generic
from oracles import (
    GridLine,
    grid_config,
    loop_bipartite_edges,
    loop_flatness_audit,
    structure_of,
)
from test_structure import line_lists


class TestMonomialNotation:
    def test_round_trip(self):
        assert monomial_name(parse_monomial("a1b2c3")) == "a1b2c3"
        assert parse_monomial("b1c3d2") == frozenset({(2, 0), (3, 2), (4, 1)})


class TestTables:
    def test_shapes(self):
        assert len(TABLE_I) == len(TABLE_II) == 12
        assert all(len(m) == 3 for m in TABLE_I | TABLE_II)

    def test_tables_not_isomorphic(self):
        s = structure_of(TABLE_I, (3, 3, 3, 3))
        assert match_structure(s, "I") is not None
        assert match_structure(s, "II") is None
        s2 = structure_of(TABLE_II, (3, 3, 3, 3))
        assert match_structure(s2, "II") is not None
        assert match_structure(s2, "I") is None

    def test_isomorphism_is_verified_map(self, reye):
        s = extract_structure_lines(reye)
        iso = match_structure(s, "I")
        assert iso is not None
        assert iso.apply(s.colorful_triples()) == TABLE_I

    def test_desargues_matches_II_only(self, desargues):
        s = extract_structure_lines(desargues)
        assert match_structure(s, "II") is not None
        assert match_structure(s, "I") is None

    def test_wrong_shape_rejected(self):
        s = structure_of(frozenset(), (3, 3, 3))
        with pytest.raises(ValueError):
            match_structure(s, "I")


class TestDeterminant:
    def test_twelve_positive_terms(self):
        monos = determinant_monomials()
        assert len(monos) == 12
        assert parse_monomial("a1b2c3") in monos
        assert monos == TABLE_I


class TestJointBound:
    def test_m4_k3(self):
        assert joint_bound_value(4, 3) == Fraction(10, 3)

    def test_m6_k5(self):
        assert joint_bound_value(6, 5) == Fraction(126, 5)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_colorful_case_closed_form(self, k):
        # with m = k+1 colors the bound simplifies to C(2k-1, k) / k,
        # i.e. C(2k, k) / (2k): exponential growth in k
        assert joint_bound_value(k + 1, k) == Fraction(comb(2 * k - 1, k), k)
        assert joint_bound_value(k + 1, k) == Fraction(comb(2 * k, k), 2 * k)

    def test_algebraic_satisfies(self, algebraic_3_2):
        rep = joint_bound(algebraic_3_2, 3)
        assert rep.total_lines == 128
        assert rep.bound == Fraction(10, 3)
        assert rep.satisfied


class TestMinimality:
    def test_algebraic_minimal(self, algebraic_3_2):
        verdict = minimality_audit(algebraic_3_2.points, 3)
        assert verdict.minimal
        assert verdict.removable == ()

    def test_redundant_line_detected(self):
        # two colors, one line of color 1 crossed by two color-2 lines:
        # either color-2 line alone already provides every needed incidence
        cfg = grid_config(
            2,
            2,
            [
                [GridLine(1, (0, 1, 1))],
                [GridLine(2, (1, 0, 1)), GridLine(2, (2, 0, 1))],
            ],
        )
        verdict = minimality_audit(cfg.points, 2)
        assert not verdict.minimal
        assert len(verdict.removable) >= 1

    def test_algebraic_4_2_minimal(self, algebraic_4_2):
        # 10,240 lines: out of reach for one re-verification per line
        verdict = minimality_audit(algebraic_4_2.points, 4)
        assert verdict.minimal
        assert verdict.removable == ()

    def test_empty_vacuously_minimal(self):
        cfg = ColoredGridConfig(2, 2, [[], [], []])
        assert minimality_audit(cfg.points, 2).minimal

    def test_requires_consistency(self, algebraic_3_2):
        ids = [algebraic_3_2.ids[0][1:], *algebraic_3_2.ids[1:]]  # line (1, 0) removed
        smaller = ColoredGridConfig(algebraic_3_2.k, algebraic_3_2.n, ids)
        with pytest.raises(ValueError):
            minimality_audit(smaller.points, 3)


class TestFlatness:
    def test_coplanar_triple_is_flat(self):
        at = ProjPoint.affine((0, 0, 0))
        lines = [
            Line(at, ProjPoint.affine((1, 0, 0))),
            Line(at, ProjPoint.affine((0, 1, 0))),
            Line(at, ProjPoint.affine((1, 1, 0))),
        ]
        cfg = ColoredLineConfig(3, [[lines[0]], [lines[1]], [lines[2]]])
        records = flatness_audit(cfg, extract_structure_lines(cfg), 3)
        assert len(records) == 1
        assert records[0].rank == 2 and records[0].flat

    def test_independent_directions_not_flat(self):
        at = ProjPoint.affine((0, 0, 0))
        lines = [
            Line(at, ProjPoint.affine((1, 0, 0))),
            Line(at, ProjPoint.affine((0, 1, 0))),
            Line(at, ProjPoint.affine((0, 0, 1))),
        ]
        cfg = ColoredLineConfig(3, [[lines[0]], [lines[1]], [lines[2]]])
        records = flatness_audit(cfg, extract_structure_lines(cfg), 3)
        assert records[0].rank == 3 and not records[0].flat


def assert_audit_matches_loop(cfg, t):
    """The records of ``flatness_audit`` are the oracle's, the oracle's
    point being the witness of the record's group."""
    s = extract_structure_lines(cfg)
    records = flatness_audit(cfg, s, t)
    expected = loop_flatness_audit(cfg, s, t)
    assert [(r.lines, r.rank, r.flat) for r in records] == [e[1:] for e in expected]
    assert [s.witness(r.group) for r in records] == [e[0] for e in expected]
    return records


@st.composite
def pencils(draw):
    """Distinct lines in d = 3..5 through 1..3 centers, 2..6 per center, each
    pencil inside a plane through its center (flat from three lines on) or
    in general directions; coordinates are scaled above 2^64 as in
    ``line_lists``, whose pool lines are added too."""
    d = draw(st.integers(3, 5))
    scale = draw(st.sampled_from([1, 2**64 + 13]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    lines = {line.key: line for line in draw(line_lists(st.just(d)))}
    for _ in range(draw(st.integers(1, 3))):
        center = [rng.randint(-3, 3) for _ in range(d + 1)]
        basis = [[rng.randint(-3, 3) for _ in range(d + 1)] for _ in range(rng.choice([2, d]))]
        for _ in range(rng.randint(2, 6)):
            coef = [rng.randint(-2, 2) for _ in basis]
            q = [sum(c * v[x] for c, v in zip(coef, basis)) for x in range(d + 1)]
            try:
                line = Line(*(ProjPoint([v * scale if x % 2 else v for x, v in enumerate(c)])
                              for c in (center, q)))
            except ValueError:  # a zero point, or q on the center
                continue
            lines.setdefault(line.key, line)
    return list(lines.values())


class TestFlatnessAgainstLoop:
    """Batched key ranks against one witness and ``rank_of_directions`` per
    group: pencils of coplanar (flat) and independent lines in d = 3..5,
    with coordinates above 2^64."""

    @pytest.mark.parametrize("t", [2, 3, 4])
    @settings(max_examples=150, deadline=None)
    @given(lines=pencils(), colors=st.integers(1, 3))
    def test_matches_loop(self, t, lines, colors):
        cfg = ColoredLineConfig(lines[0].ambient_dim, [lines[c::colors] for c in range(colors)])
        assert_audit_matches_loop(cfg, t)

    @pytest.mark.parametrize("fixture", ["algebraic_3_2", "algebraic_3_3"])
    def test_projected_algebraic(self, fixture, request):
        lifted, s = lift_to_concurrent(request.getfixturevalue(fixture), audit=False)
        records = assert_audit_matches_loop(project_generic(lifted, s, 3, 11).config, 3)
        assert records and not any(r.flat for r in records)

    def test_projected_algebraic_4_2(self, algebraic_4_2):
        # 10,240 lines in R^3; the audit counts of verify --flatness 3
        lifted, s = lift_to_concurrent(algebraic_4_2, audit=False)
        projected = project_generic(lifted, s, 3, 11).config
        records = flatness_audit(projected, extract_structure_lines(projected), 3)
        assert (len(records), sum(r.flat for r in records)) == (10245, 0)


class TestMonteCarlo:
    def test_golden_csv_bit_exact(self, golden_dir):
        report = monte_carlo([ProbParams(3, 32, 7)], 100)
        golden = (golden_dir / "monte_carlo_k3_n32_seed7_t100.csv").read_text()
        assert report.to_csv() == golden

    def test_summary_fields(self):
        report = monte_carlo([ProbParams(3, 8, 3)], 5)
        (s,) = report.summaries
        assert s.trials == 5
        assert 0 <= s.consistency_rate <= 1
        assert s.colorful_within_k_rate == 1.0
        assert len(s.size_quartiles) == 3

    def test_batches_run_in_bounded_memory(self):
        # a batch holds its trials' survivors, not their masks, so the peak
        # is that of one trial's selection and deletion at n = 64
        grid = [ProbParams(3, n, 7) for n in (16, 32, 64)]
        tracemalloc.start()
        try:
            monte_carlo(grid, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    def test_mixed_k_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo([ProbParams(3, 8, 1), ProbParams(4, 4, 1)], 2)

    def test_aggregates_invariant_under_row_order(self):
        import random

        report = monte_carlo([ProbParams(3, 8, 11)], 8)
        (summary,) = report.summaries
        rows = list(report.rows)
        random.Random(0).shuffle(rows)
        rate = sum(r["consistent"] for r in rows) / len(rows)
        mean_bad = sum(r["bad_lines"] for r in rows) / len(rows)
        assert rate == summary.consistency_rate
        assert mean_bad == summary.mean_bad_lines


class TestBipartite:
    def test_empty(self):
        assert bipartite_edges([], []).edges == 0

    def test_crossing_pair(self):
        a = Line(ProjPoint.affine((0, 0, 0)), ProjPoint.affine((1, 0, 0)))
        b = Line(ProjPoint.affine((0, 0, 0)), ProjPoint.affine((0, 1, 0)))
        rep = bipartite_edges([a], [b])
        assert rep.edges == 1 and rep.k33 is None

    def test_quadric_k33_found(self):
        slits = quadric_ruling_slits()
        A = gen_two_slit(1, slits, 5, seed=2) + [
            quadric_ruling(2, (1, t)) for t in (3, 4, 5)
        ]
        B = gen_two_slit(2, slits, 5, seed=2) + [
            quadric_ruling(1, (t, 1)) for t in (3, 4, 5)
        ]
        rep = bipartite_edges(A, B)
        assert rep.k33 is not None
        (ta, tb) = rep.k33
        from incidencelab.exactgeom import meet

        for i in ta:
            for j in tb:
                assert meet(A[i], B[j]) is not None

    def test_generic_no_k33(self):
        slits = default_generic_slits()
        A = gen_two_slit(1, slits, 20, seed=8)
        B = gen_two_slit(2, slits, 20, seed=8)
        assert bipartite_edges(A, B).k33 is None

    @settings(max_examples=60, deadline=None)
    @example(quadric=False, counts=(0, 0), rulings=0, seeds=(0, 0))
    @example(quadric=True, counts=(0, 0), rulings=0, seeds=(0, 0))
    @given(
        quadric=st.booleans(),
        counts=st.tuples(st.integers(0, 12), st.integers(0, 12)),
        rulings=st.integers(0, 4),
        seeds=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    )
    def test_matches_loop(self, quadric, counts, rulings, seeds):
        # the same edges and K_{3,3} witness as one meet per cross pair;
        # added rulings of opposite families meet, so K_{3,3} occurs
        slits = quadric_ruling_slits() if quadric else default_generic_slits()
        families = []
        for which, count, seed in zip((1, 2), counts, seeds):
            extra = [quadric_ruling(3 - which, (1, t)) for t in range(3, 3 + rulings)]
            lines = gen_two_slit(which, slits, count, seed) + extra
            families.append(list({line.key: line for line in lines}.values()))
        A, B = families
        if {line.key for line in A} & {line.key for line in B}:
            with pytest.raises(ValueError):
                loop_bipartite_edges(A, B)
            with pytest.raises(ValueError):
                bipartite_edges(A, B)
            return
        rep = bipartite_edges(A, B)
        assert (rep.edges, rep.k33) == loop_bipartite_edges(A, B)
        if rulings >= 3:
            assert rep.k33 is not None
