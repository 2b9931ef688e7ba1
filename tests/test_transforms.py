import random

import pytest

from incidencelab.configs import ColoredLineConfig, concurrency_center
from incidencelab.exactgeom import Line, ProjPoint, meet
from incidencelab.gridmodel import ColoredGridConfig, GridLine
from incidencelab.structure import (
    extract_alignments,
    extract_structure_grid,
    extract_structure_lines,
    structure_consistency,
)
from incidencelab.transforms import (
    dualize,
    extract_planarity,
    lift_to_concurrent,
    project_generic,
    undualize,
)
from test_gridmodel import random_config


def line2(a, b):
    return Line(ProjPoint.affine(a), ProjPoint.affine(b))


class TestLift:
    def test_centers_are_axis_unit_points(self, algebraic_3_2):
        lifted, _ = lift_to_concurrent(algebraic_3_2)
        d = algebraic_3_2.k + 1
        for axis, center in enumerate(lifted.centers, start=1):
            expected = [0] * d
            expected[axis - 1] = 1
            assert center == ProjPoint.affine(expected)

    def test_classes_concurrent(self, algebraic_3_2):
        lifted, _ = lift_to_concurrent(algebraic_3_2)
        for cls, center in zip(lifted.classes, lifted.centers):
            assert concurrency_center(cls) == center

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
        cfg = ColoredGridConfig(2, 2, [[], [GridLine(1, (0, 1, 1)), GridLine(3, (2, 2, 0))]])
        with pytest.raises(ValueError, match="axis-parallel"):
            lift_to_concurrent(cfg)
        one_axis = ColoredGridConfig(2, 2, [[], [GridLine(1, (0, 1, 1)), GridLine(1, (0, 2, 2))]])
        assert lift_to_concurrent(one_axis)[0].centers[1] == ProjPoint.affine([1, 0, 0])


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
        skew = ColoredLineConfig(
            3,
            [
                [Line(ProjPoint.affine((0, 0, 0)), ProjPoint.affine((1, 0, 0)))],
                [Line(ProjPoint.affine((0, 1, 0)), ProjPoint.affine((0, 1, 1)))],
            ],
        )
        res = project_generic(skew, extract_structure_lines(skew), 2, seed=1)
        assert len(res.new_crossings) == 1
        a, b = res.config.classes[0][0], res.config.classes[1][0]
        assert meet(a, b) is not None

    def test_target_range_validated(self, tricolor):
        with pytest.raises(ValueError):
            project_generic(tricolor, extract_structure_lines(tricolor), 1, seed=0)
        with pytest.raises(ValueError):
            project_generic(tricolor, extract_structure_lines(tricolor), 4, seed=0)


class TestDuality:
    def planar_config(self):
        return ColoredLineConfig(
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
        cfg = ColoredLineConfig(
            2, [[line2((0, 0), (1, 1))], [line2((0, 0), (1, 2))]]
        )
        dual = dualize(cfg)
        for _, _, p in dual.points():
            assert not p.is_infinite

    def test_inverse_accepts_directions(self):
        from incidencelab.configs import DualPointConfig

        dual = undualize(
            DualPointConfig([[ProjPoint([0, 1, 0])], [ProjPoint.affine((1, 1))]])
        )
        assert dual.class_sizes() == (1, 1)

    def test_2222_line_config_maps_to_2222_points(self):
        # the small-configuration argument works in the dual: a 2,2,2,2
        # line configuration corresponds to a 2,2,2,2 point configuration
        cfg = ColoredLineConfig(
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
        cfg = ColoredLineConfig(
            3,
            [
                [
                    Line(ProjPoint.affine((0, 0, 0)), ProjPoint.affine((1, 0, 0))),
                    Line(ProjPoint.affine((0, 1, 0)), ProjPoint.affine((1, 1, 0))),
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
