import random

import pytest

from incidencelab.configs import DualPointConfig, embed_grid_config
from incidencelab.exactgeom import Line, ProjPoint
from incidencelab.configs import ColoredLineConfig
from incidencelab.gridmodel import is_k_consistent, max_colorful_order
from incidencelab.structure import (
    extract_alignments,
    extract_structure_grid,
    extract_structure_lines,
    structure_consistency,
)
from test_gridmodel import random_config


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
