"""The package's public surface: the names the benchmark's tracer binds,
and the one constructor of each configuration type."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from incidencelab import exactgeom, structure
from incidencelab.configs import ColoredLineConfig, DualPointConfig

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_tracer_targets_resolve():
    # the tracer rebinds each (module, name) of TARGETS with getattr, and
    # wraps structure's re-export of the exact meet as exactgeom's own
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{name}"
        for module, names in tracer.TARGETS.items()
        for name in names
        if not hasattr(importlib.import_module(f"incidencelab.{module}"), name)
    ]
    assert missing == []
    assert structure.meet is exactgeom.meet


def test_configurations_are_built_from_rows_only():
    ends = np.array([[[0, 0, 1], [1, 0, 1]], [[0, 1, 1], [1, 1, 1]]])
    lines = ColoredLineConfig.from_ends(2, ends, [1, 1], [None, (1, 0, 0)])
    points = DualPointConfig.from_coords(ends.reshape(4, 3), [4])
    assert lines.centers == (None, (1, 0, 0))
    for cls, args in ((ColoredLineConfig, (2, [[]])), (DualPointConfig, ([[]],))):
        with pytest.raises(TypeError):
            cls(*args)
    assert not hasattr(lines, "classes") and not hasattr(points, "classes")
