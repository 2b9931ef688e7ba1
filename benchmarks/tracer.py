"""Span and counter recorder for traced benchmark passes.

The recorder wraps public functions of the library from the outside: it
rebinds each target in every ``incidencelab`` module that holds it (so
``structure.meet`` is wrapped as well as ``exactgeom.meet``), and wraps
``__init__`` for the two classes whose construction is a layer cost.  The
library itself is not modified; ``uninstall`` restores every binding.

Each span records name, start, end, parent span and pass id.  Spans stay
in memory, in flat arrays, until the run ends and writes them out; self
time is a span's duration minus the part covered by its child spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from math import comb

import numpy as np

# Layer (module) -> wrapped public names.  A name that is a class has its
# ``__init__`` wrapped, so construction time and count are recorded.
TARGETS = {
    "exactgeom": ("meet", "int_rref", "incident", "apply_matrix", "ProjPoint"),
    "structure": (
        "extract_structure_lines",
        "extract_structure_grid",
        "extract_alignments",
        "structure_consistency",
    ),
    "transforms": (
        "lift_to_concurrent",
        "project_generic",
        "apply_projective",
        "dualize",
        "extract_planarity",
    ),
    "gridmodel": (
        "is_k_consistent",
        "max_colorful_order",
        "breaks_consistency_without",
        "ColoredGridConfig",
        "grid_to_json",
        "grid_from_json",
    ),
    "constructions": ("gen_algebraic", "gen_probabilistic", "probabilistic_trial_stats"),
    "rng": ("splitmix64_block",),
    "analysis": ("minimality_audit", "flatness_audit", "monte_carlo"),
    "configs": ("config_from_json", "config_to_json", "embed_grid_config"),
    "cli": ("main",),
}

# Counters recorded at the wrapped boundaries, besides call counts.
COUNTERS = (
    "exactgeom.meet.hits",
    "structure.monomials",
    "structure.meet_pairs",
    "transforms.project_generic.attempts",
    "gridmodel.lines",
    "constructions.selected_lines",
    "constructions.covered_points",
    "constructions.kernel_bytes_computed",
    "rng.draws",
)


def kernel_bytes_computed(k: int, n: int, stats: bool) -> int:
    """Bytes of the arrays the dense selection/deletion kernel allocates for
    one run at (k, n), counted expression by expression from its source.

    Selection: per axis, twelve uint64 temporaries of n^k entries in the
    SplitMix64 block plus one bool mask.  Deletion: k ANDs over the
    n^(k+1) coverage cube, and per axis an ANY, a NOT and an AND of n^k.
    Statistics (``stats``): a zeroed uint8 cube and one add per axis; per
    axis a bad mask and, per (k-1)-subset of the other axes, k-2 cube ANDs
    followed by an ANY, a NOT and an AND of n^k.  It is a model of
    allocated bytes, not a measurement.
    """
    lines, cells, axes = n**k, n ** (k + 1), k + 1
    total = axes * (12 * 8 * lines + lines)
    total += k * cells + axes * 3 * lines
    if stats:
        total += cells + axes * cells
        total += axes * (lines + k * ((k - 2) * cells + 3 * lines))
    return total


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_meet(args, kwargs, result, counts: Counter) -> None:
    counts["exactgeom.meet.hits"] += result is not None


def _count_structure(args, kwargs, result, counts: Counter) -> None:
    counts["structure.monomials"] += len(result.monomials)


def _count_line_structure(args, kwargs, result, counts: Counter) -> None:
    _count_structure(args, kwargs, result, counts)
    counts["structure.meet_pairs"] += comb(_arg(args, kwargs, 0, "cfg").total_lines(), 2)


def _count_projection(args, kwargs, result, counts: Counter) -> None:
    counts["transforms.project_generic.attempts"] += result.attempts


def _count_grid_config(args, kwargs, result, counts: Counter) -> None:
    # wrapped __init__: args[0] is the instance
    counts["gridmodel.lines"] += sum(len(cls) for cls in _arg(args, kwargs, 3, "classes"))


def _count_gen_probabilistic(args, kwargs, result, counts: Counter) -> None:
    rep = result[2]
    counts["constructions.selected_lines"] += sum(rep.selected_sizes)
    counts["constructions.covered_points"] += rep.covered_points
    counts["constructions.kernel_bytes_computed"] += kernel_bytes_computed(rep.k, rep.n, False)


def _count_trial_stats(args, kwargs, result, counts: Counter) -> None:
    counts["constructions.selected_lines"] += sum(result["selected_sizes"])
    counts["constructions.covered_points"] += result["covered_points"]
    counts["constructions.kernel_bytes_computed"] += kernel_bytes_computed(
        result["k"], result["n"], True
    )


def _count_draws(args, kwargs, result, counts: Counter) -> None:
    counts["rng.draws"] += _arg(args, kwargs, 2, "count")


# Counter hooks, run after a wrapped call returns.
_COUNT_HOOKS = {
    "exactgeom.meet": _count_meet,
    "structure.extract_structure_lines": _count_line_structure,
    "structure.extract_structure_grid": _count_structure,
    "structure.extract_alignments": _count_structure,
    "transforms.project_generic": _count_projection,
    "gridmodel.ColoredGridConfig": _count_grid_config,
    "constructions.gen_probabilistic": _count_gen_probabilistic,
    "constructions.probabilistic_trial_stats": _count_trial_stats,
    "rng.splitmix64_block": _count_draws,
}


class Recorder:
    """In-memory spans and per-pass counters for wrapped library calls.

    Use: ``install()``, then ``begin_pass(i)`` before each traced pass, then
    ``uninstall()``; ``spans()`` and ``pass_table()`` read the result.
    """

    def __init__(self) -> None:
        self.names = [f"{layer}.{attr}" for layer, attrs in TARGETS.items() for attr in attrs]
        self.name_id = array("H")
        self.parent = array("q")
        self.pass_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._pass = 0
        self._restore: list[tuple[object, str, object]] = []

    def begin_pass(self, pass_id: int) -> None:
        self._pass = pass_id
        self.counts[pass_id] = Counter()

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        name_ids, parents, pass_ids = self.name_id, self.parent, self.pass_id
        starts, ends, stack = self.start, self.end, self._stack
        perf = time.perf_counter
        recorder = self
        count = _COUNT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            pass_ids.append(recorder._pass)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                stack.pop()
            if count is not None:
                count(args, kwargs, result, recorder.counts[recorder._pass])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded ``incidencelab`` module."""
        if self._restore:
            raise RuntimeError("recorder already installed")
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "incidencelab" or key.startswith("incidencelab."))
        ]
        for layer, attrs in TARGETS.items():
            home = sys.modules[f"incidencelab.{layer}"]
            for attr in attrs:
                original = getattr(home, attr)
                name = f"{layer}.{attr}"
                if isinstance(original, type):
                    init = original.__init__
                    self._restore.append((original, "__init__", init))
                    original.__init__ = self._wrap(name, init)
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays (one entry per span, names by id)."""
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.spans())

    def pass_table(self) -> dict[int, dict[str, float]]:
        """Per traced pass: ``<name>.calls``, ``<name>.self_s`` and counters."""
        spans = self.spans()
        table = span_table(spans)
        for pass_id, counts in self.counts.items():
            row = table.setdefault(pass_id, {})
            for key in COUNTERS:
                row[key] = counts[key]
        return table


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the time covered by its child spans."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur - covered


def span_table(spans: dict[str, np.ndarray]) -> dict[int, dict[str, float]]:
    """Calls and self time per wrapped name and pass, plus the number of
    meets called directly by line-structure extraction."""
    names = [str(n) for n in spans["names"]]
    name_id, parent, pass_id = spans["name_id"], spans["parent"], spans["pass_id"]
    self_s = self_times(spans)
    meet_id = names.index("exactgeom.meet")
    extract_id = names.index("structure.extract_structure_lines")
    parent_name = np.where(parent >= 0, name_id[np.maximum(parent, 0)], -1)
    in_extract = (name_id == meet_id) & (parent_name == extract_id)
    table: dict[int, dict[str, float]] = {}
    for p in np.unique(pass_id):
        sel = pass_id == p
        calls = np.bincount(name_id[sel], minlength=len(names))
        times = np.bincount(name_id[sel], weights=self_s[sel], minlength=len(names))
        row: dict[str, float] = {}
        for i, name in enumerate(names):
            row[f"{name}.calls"] = int(calls[i])
            row[f"{name}.self_s"] = float(times[i])
        row["structure.extract_meets"] = int(np.count_nonzero(in_extract & sel))
        table[int(p)] = row
    return table
