import random

import pytest
from hypothesis import given, settings, strategies as st

from incidencelab.configs import DualPointConfig, embed_grid_config
from incidencelab.exactgeom import Line, ProjPoint
from incidencelab.configs import ColoredLineConfig
from incidencelab.gridmodel import group_removable, is_k_consistent, max_colorful_order
from incidencelab.structure import (
    IncidenceStructure,
    extract_alignments,
    extract_structure_grid,
    extract_structure_lines,
    structure_consistency,
)
from oracles import loop_consistency, loop_max_colorful, loop_removable
from test_gridmodel import orders, random_config


def line2(a, b):
    return Line(ProjPoint.affine(a), ProjPoint.affine(b))


class TestExtraction:
    def test_two_crossing_lines(self):
        cfg = ColoredLineConfig(2, [[line2((0, 0), (1, 1))], [line2((0, 1), (1, 0))]])
        s = extract_structure_lines(cfg)
        assert len(s.monomials) == 1
        (m,) = s.monomials
        assert m == frozenset({(1, 0), (2, 0)})

    def test_monomials_are_maximal(self):
        cfg = ColoredLineConfig(
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

    def test_grid_direction_monomials(self):
        rng = random.Random(3)
        cfg = random_config(rng, 2, 4, 3)
        s = extract_structure_grid(cfg)
        directions = [m for m, w in s.witnesses.items() if w.is_infinite]
        assert len(directions) == 3  # one parallel class per axis
        for m in directions:
            assert len({c for c, _ in m}) == 1


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


class TestAlignments:
    def test_collinear_triple(self):
        pts = [
            [ProjPoint.affine((0, 0))],
            [ProjPoint.affine((1, 1))],
            [ProjPoint.affine((2, 2)), ProjPoint.affine((5, 0))],
        ]
        s = extract_alignments(DualPointConfig(pts))
        big = [m for m in s.monomials if len(m) == 3]
        assert big == [frozenset({(1, 0), (2, 0), (3, 0)})]

    def test_infinite_direction_alignment(self):
        # two points sharing an x-coordinate align with the vertical direction
        pts = [
            [ProjPoint([0, 1, 0])],
            [ProjPoint.affine((3, 1))],
            [ProjPoint.affine((3, 5))],
        ]
        s = extract_alignments(DualPointConfig(pts))
        assert frozenset({(1, 0), (2, 0), (3, 0)}) in s.monomials

    def test_dual_json_round_trip(self):
        from incidencelab.configs import dual_from_json, dual_to_json
        from incidencelab.constructions import gen_dual_cycles

        cfg, _ = gen_dual_cycles(2)
        assert dual_from_json(dual_to_json(cfg)) == cfg


def random_structure(seed: int, m: int, rainbow: bool) -> IncidenceStructure:
    """Random groups of 1..6 lines over m classes of 0..4 lines, colors
    repeating within a group; ``rainbow`` gives the classes one size and
    adds, per index j, the group of every color's line j, which makes the
    structure k-consistent for every k."""
    rng = random.Random(seed)
    size = rng.randint(1, 3)
    sizes = [size if rainbow else rng.randint(0, 4) for _ in range(m)]
    refs = [(c, i) for c, s in enumerate(sizes, start=1) for i in range(s)]
    groups = {
        frozenset(rng.sample(refs, min(len(refs), rng.randint(1, 6))))
        for _ in range(rng.randint(0, 3 * m)) if refs
    }
    if rainbow:
        groups |= {frozenset((c, j) for c in range(1, m + 1)) for j in range(size)}
    return IncidenceStructure(frozenset(groups), tuple(sizes), {g: sorted(g) for g in groups})


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
        _, group, line = s.incidences
        for k in orders(s.num_colors):
            try:
                expected = loop_removable(s.class_sizes, s.monomials, k)
            except ValueError:
                with pytest.raises(ValueError):
                    group_removable(s.class_sizes, group, line, k)
                continue
            assert group_removable(s.class_sizes, group, line, k) == expected

    @settings(max_examples=60, deadline=None)
    @given(structures)
    def test_max_colorful(self, s):
        by_refs = sorted(s.monomials, key=sorted)
        assert s.max_colorful() == loop_max_colorful((s.witnesses[m], m) for m in by_refs)
