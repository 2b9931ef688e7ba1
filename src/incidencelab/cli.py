"""Command-line front end: generate, verify, transform, analyze, export.

Every artifact file is written with deterministic bytes (JSON as
``json.dumps(obj, indent=2, sort_keys=True)`` writes it, plus a newline)
and accompanied by a ``<file>.manifest.json`` carrying the command line,
seeds, library version, SHA-256 hashes of the input and output bytes, and
wall timings, so identical manifests imply identical artifact bytes.

Exit codes: 0 = all requested checks pass, 1 = a check failed (witnesses
in the JSON verdict), 2 = usage or I/O error, or a failed operation (a
lift audit or projection retries), which writes no artifact.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from collections.abc import Iterator
from dataclasses import asdict
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__, analysis, configs, constructions, gridmodel, render
from .configs import ColoredLineConfig, DualPointConfig, embed_grid_config
from .constructions import AlgebraicParams, ProbParams
from .exactgeom import parse_rational
from .gridmodel import ColoredGridConfig
from .structure import extract_structure, extract_structure_lines, structure_consistency
from .transforms import dualize, extract_planarity, lift_to_concurrent, project_generic, undualize


_scalar = json.JSONEncoder().encode  # a str, int, float, bool or None, at C speed


def _key(key) -> str:
    """A dict key as ``json`` writes it: str, or a converted int, float, bool or None."""
    if isinstance(key, (str, int, float)) or key is None:
        return _scalar(key if isinstance(key, str) else _scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _encode(obj, indent: str) -> Iterator[str]:
    """The pieces of ``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)``
    writes it at ``indent``."""
    if isinstance(obj, configs.DecimalRows):  # a tuple
        return (yield from _encode_rows(obj.rows, indent, '"%d"'))
    if not isinstance(obj, (dict, list, tuple)):
        try:
            piece = _scalar(obj)
        except TypeError:  # json writes no ndarray: grid bases are 2-d integer ones
            if not (isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind in "iu"):
                raise
            return (yield from _encode_rows(obj, indent))
        return (yield piece)
    brackets = "{}" if isinstance(obj, dict) else "[]"
    if not obj:
        return (yield brackets)
    inner, keyed = indent + "  ", isinstance(obj, dict)
    for i, (key, value) in enumerate(sorted(obj.items()) if keyed else enumerate(obj)):
        yield (",\n" if i else brackets[0] + "\n") + inner + (_key(key) + ": " if keyed else "")
        yield from _encode(value, inner)
    yield "\n" + indent + brackets[1]


def _template(parts: list[str], indent: str, brackets: str = "[]") -> str:
    """A JSON list (or object) of ``parts`` at ``indent``, as ``json`` writes one."""
    inner = "\n" + indent + "  "
    return brackets[0] + inner + ("," + inner).join(parts) + "\n" + indent + brackets[1]


_BLOCK_ROWS = 1 << 14  # rows per piece, so no array's whole text is held at once


def _encode_rows(rows: np.ndarray, indent: str, slot="%d") -> Iterator[str]:
    """Integer rows as their ``tolist()`` (entries by ``slot``: '"%d"' writes
    decimal strings; (m, 2, D) rows as ``{"p": ..., "q": ...}`` objects), in
    pieces of ``_BLOCK_ROWS`` rows.  Entries spanning a range narrower than
    their count (grid bases: 1..n) are joined from per-column token tables,
    each value formatted once with the fixed text up to the next slot; wider
    ranges fill a printf-style row template."""
    inner, width = indent + "  ", rows.shape[-1]
    row = _template([slot] * width, inner + "  " * (rows.ndim - 2)) if width else "[]"
    if rows.ndim == 3:
        row = _template(['"p": ' + row, '"q": ' + row], inner, "{}")
    if not len(rows):
        return (yield "[]")
    sep, flat = ",\n" + inner, rows.reshape(len(rows), -1)
    lo, hi = (int(flat.min()), int(flat.max())) if flat.size else (0, 0)
    if hi - lo < flat.size:
        parts, values = row.split("%d"), list(map(str, range(lo, hi + 1)))
        starts, ends = [parts[0]] + [""] * (len(parts) - 2), [*parts[1:-1], parts[-1] + sep]
        table = np.array([s + v + e for s, e in zip(starts, ends) for v in values], dtype=object)
        index = (flat - lo).astype(np.intp) + np.arange(flat.shape[1]) * len(values)
    yield "[\n" + inner
    for a in range(0, len(rows), _BLOCK_ROWS):
        cut = len(sep) * (a + _BLOCK_ROWS >= len(rows))  # no separator after the last row
        if hi - lo < flat.size:
            pieces = table[index[a : a + _BLOCK_ROWS]].ravel().tolist()
            pieces[-1] = pieces[-1][: len(pieces[-1]) - cut]
            yield "".join(pieces)
        else:
            block = flat[a : a + _BLOCK_ROWS]
            text = (row + sep) * len(block)
            yield text[: len(text) - cut] % tuple(block.ravel().tolist())
    yield "\n" + indent + "]"


def _dump_json(data) -> str:
    """The bytes of ``json.dumps(data, indent=2, sort_keys=True)`` and a
    newline, arrays written as their ``tolist()``: containers are walked
    here, scalars go to ``json``'s C encoder (``json`` uses it only without
    ``indent``)."""
    return "".join(chain(_encode(data, ""), "\n"))


class _Run:
    """Collects inputs/outputs/seeds and writes one manifest per artifact."""

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.t0 = time.time()
        self.inputs: dict[str, str] = {}
        self.seeds: dict[str, int] = {}

    def read_config(self, path: str, digest: bool = False):
        p = Path(path)
        try:
            raw = p.read_bytes()
            data = json.loads(raw.decode())
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit2(f"cannot read configuration {path}: {exc}")
        if digest:  # for the manifest of a command that writes an artifact
            self.inputs[str(p)] = hashlib.sha256(raw).hexdigest()
        try:
            return configs.config_from_json(data)
        except (KeyError, ValueError, TypeError) as exc:
            raise SystemExit2(f"malformed configuration {path}: {exc}")

    def write_artifact(self, path: str, data) -> None:
        """Write and hash ``data``: a str, or a JSON document piece by piece."""
        p, digest = Path(path), hashlib.sha256()
        with p.open("wb", buffering=1 << 20) as f:  # small pieces: few system calls
            for piece in [data] if isinstance(data, str) else chain(_encode(data, ""), "\n"):
                raw = piece.encode()
                f.write(raw)
                digest.update(raw)
        manifest = {
            "command": self.argv,
            "version": __version__,
            "seeds": self.seeds,
            "inputs": self.inputs,
            "outputs": {str(p): digest.hexdigest()},
            "timings": {"wall_s": round(time.time() - self.t0, 3)},
        }
        Path(str(p) + ".manifest.json").write_text(_dump_json(manifest))


class SystemExit2(Exception):
    """Usage or I/O error: exit code 2."""


def _parse_steps(text: str) -> list[Fraction]:
    return [parse_rational(t) for t in text.replace(",", " ").split()]


def cmd_gen(args, run: _Run) -> int:
    sub = args.construction
    report = None
    if sub == "algebraic":
        params = AlgebraicParams(args.k, args.p)
        cfg = constructions.gen_algebraic(params)
    elif sub == "probabilistic":
        p_sel = parse_rational(args.p_sel) if args.p_sel else None
        params = ProbParams(args.k, args.n, args.seed, p_sel)
        run.seeds["selection"] = args.seed
        before, after, rep = constructions.gen_probabilistic(params, emit=(args.emit,))
        cfg = before if args.emit == "before" else after
        report = {
            "p_sel": str(rep.p_sel),
            "selected_sizes": rep.selected_sizes,
            "final_sizes": rep.final_sizes,
            "deleted_sizes": rep.deleted_sizes,
            "covered_points": rep.covered_points,
        }
    elif sub == "tricolor":
        steps = _parse_steps(args.steps)
        if len(steps) % 3 != 0:
            raise SystemExit2("tricolor needs a multiple of 3 steps")
        cfg = constructions.gen_tricolor(len(steps) // 3, steps)
    elif sub == "reye":
        cfg = constructions.gen_reye()
    elif sub == "desargues":
        cfg = constructions.gen_desargues()
    elif sub == "dual-cycles":
        slopes = _parse_steps(args.slopes)
        starts = _parse_steps(args.starts) if args.starts else None
        cfg, rep = constructions.gen_dual_cycles(args.r, slopes, starts)
        report = {
            "direction_triples_consistent": rep.triples_with_direction_color,
            "other_triple_consistent": rep.triple_other_colors,
            "other_triple_failures": [
                [list(ref), sorted(S)] for ref, S in rep.failures
            ],
        }
    elif sub == "two-slit":
        slits = (
            constructions.quadric_ruling_slits()
            if args.quadric
            else constructions.default_generic_slits()
        )
        run.seeds["sampling"] = args.seed
        ends = constructions.gen_two_slit(args.which, slits, args.count, args.seed)
        cfg = ColoredLineConfig.from_ends(3, ends, [len(ends)])
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit2(f"unknown construction {sub}")
    run.write_artifact(args.output, configs.config_to_json(cfg))
    if report is not None:
        print(_dump_json(report), end="")
    return 0


def _line_view(cfg, flag: str) -> ColoredLineConfig:
    """The line configuration a line-only check runs on (grids are embedded)."""
    line_cfg = embed_grid_config(cfg) if isinstance(cfg, ColoredGridConfig) else cfg
    if not isinstance(line_cfg, ColoredLineConfig):
        raise SystemExit2(f"--{flag} applies to line configurations")
    return line_cfg


def _flatness(cfg, s, t: int) -> dict:
    """The flatness audit's counts, on ``s`` or the structure of ``cfg`` (a grid: its own)."""
    records = analysis.flatness_audit(_line_view(cfg, "flatness"), s or extract_structure(cfg), t)
    return {"t": t, "audited": len(records), "flat_incidences": sum(r.flat for r in records)}


def _verify_checks(cfg, args) -> tuple[dict, bool]:
    checks: dict = {}
    grid = isinstance(cfg, ColoredGridConfig)
    s = None
    if not grid and (args.k_consistency is not None or args.max_colorful is not None):
        s = extract_structure(cfg)
    if args.k_consistency is not None:
        k = args.k_consistency
        verdict = gridmodel.is_k_consistent(cfg, k) if grid else structure_consistency(s, k)
        checks["k_consistency"] = {
            "k": k,
            "pass": verdict.ok,
            "failures": [[list(ref), sorted(S)] for ref, S in verdict.first(50)],
            "failures_total": verdict.total,
        }
    if args.max_colorful is not None:
        if grid:
            order, witness = gridmodel.max_colorful_order(cfg)
            witness_repr = list(witness) if witness else None
        else:
            order, witness = s.max_colorful()
            sep = ", " if isinstance(cfg, DualPointConfig) else ":"  # a covector, or a point
            witness_repr = None if witness is None else "(" + sep.join(map(str, witness)) + ")"
        passed = order <= args.max_colorful
        checks["max_colorful"] = {
            "bound": args.max_colorful,
            "value": order,
            "witness": witness_repr,
            "pass": passed,
        }
    if args.minimality:
        if args.k_consistency is None:
            raise SystemExit2("--minimality needs --k-consistency K")
        # minimality is defined for K-consistent configurations only
        checks["minimality"] = {"pass": False, "evaluated": False}
        if checks["k_consistency"]["pass"]:
            verdict = analysis.minimality_audit(cfg.points if grid else s, args.k_consistency)
            checks["minimality"] = {
                "pass": verdict.minimal,
                "evaluated": True,
                "removable": [list(r) for r in verdict.removable[:50]],
                "removable_total": len(verdict.removable),
            }
    if args.flatness is not None:
        flatness = _flatness(cfg, s, args.flatness)
        checks["flatness"] = {**flatness, "pass": not flatness["flat_incidences"]}
    if args.planarity is not None:
        planar, dim = extract_planarity(_line_view(cfg, "planarity"))
        checks["planarity"] = {
            "expected": args.planarity,
            "planar": planar,
            "span_dim": dim,
            "pass": planar == (args.planarity == "planar"),
        }
    # an unevaluated minimality check fails only where k-consistency already has
    return checks, all(check["pass"] for check in checks.values())


def cmd_verify(args, run: _Run) -> int:
    cfg = run.read_config(args.config)
    checks, ok = _verify_checks(cfg, args)
    verdict = {"config": args.config, "pass": ok, "checks": checks}
    print(_dump_json(verdict), end="")
    return 0 if ok else 1


def cmd_transform(args, run: _Run) -> int:
    cfg = run.read_config(args.config, digest=True)
    s = None
    if args.lift:
        if not isinstance(cfg, ColoredGridConfig):
            raise SystemExit2("--lift applies to grid configurations")
        cfg, s = lift_to_concurrent(cfg, audit=not args.no_audit and args.project is None)
    if args.project is not None:
        if isinstance(cfg, ColoredGridConfig):
            s, cfg = extract_structure(cfg), embed_grid_config(cfg)
        if not isinstance(cfg, ColoredLineConfig):
            raise SystemExit2("--project applies to line and grid configurations")
        run.seeds["projection"] = args.seed
        result = project_generic(cfg, s or extract_structure_lines(cfg), args.project, args.seed)
        cfg = result.config
        if result.new_crossings:
            print(f"note: {result.new_crossings} new planar crossings recorded", file=sys.stderr)
    if args.dualize:
        if not isinstance(cfg, ColoredLineConfig) or cfg.d != 2:
            raise SystemExit2("--dualize needs a planar line configuration")
        cfg = dualize(cfg)
    if args.undualize:
        if not isinstance(cfg, DualPointConfig):
            raise SystemExit2("--undualize needs a dual point configuration")
        cfg = undualize(cfg)
    run.write_artifact(args.output, configs.config_to_json(cfg))
    return 0


def cmd_analyze(args, run: _Run) -> int:
    out: dict = {}
    ok = True
    if args.monte_carlo:
        checks = ("structure", "match_structure", "joint_bound", "flatness", "determinant_check")
        given = {f"--{c.replace('_', '-')}": getattr(args, c) for c in checks}
        extra = [flag for flag, value in given.items() if value is not None and value is not False]
        if args.config or extra:
            raise SystemExit2(f"--monte-carlo takes no {extra[0] if extra else 'configuration file'}")
        ns = [int(t) for t in args.n.replace(",", " ").split()]
        if not ns:
            raise SystemExit2("--monte-carlo needs at least one --n size")
        run.seeds["master"] = args.seed
        grid = [ProbParams(args.k, n, args.seed) for n in ns]
        report = analysis.monte_carlo(grid, args.trials)
        if args.output:
            run.write_artifact(args.output, report.to_csv())
        out["monte_carlo"] = [asdict(s) for s in report.summaries]
        print(_dump_json(out), end="")
        return 0
    cfg = run.read_config(args.config)
    if args.structure and cfg.num_colors > 26:
        raise SystemExit2(f"--structure names at most 26 colors, a to z, not {cfg.num_colors}")
    s = extract_structure(cfg) if args.structure or args.match_structure else None
    if args.structure:
        out["structure"] = {
            "monomials": sorted(analysis.monomial_name(m) for m in s.monomials),
            "colorful_triples": sorted(
                analysis.monomial_name(m) for m in s.colorful_triples()
            ),
            "class_sizes": list(s.class_sizes),
        }
    if args.match_structure:
        iso = analysis.match_structure(s, args.match_structure)
        out["match_structure"] = {
            "target": args.match_structure,
            "found": iso is not None,
            "color_map": list(iso.color_map) if iso else None,
            "index_maps": [list(m) for m in iso.index_maps] if iso else None,
        }
        ok &= iso is not None
    if args.joint_bound is not None:
        rep = analysis.joint_bound(cfg, args.joint_bound)
        note = None
        if isinstance(cfg, ColoredLineConfig) and cfg.d != args.joint_bound:
            note = f"bound stated in R^k with k={args.joint_bound}; config has d={cfg.d}"
        out["joint_bound"] = {
            "m": rep.m,
            "k": rep.k,
            "total_lines": rep.total_lines,
            "bound": str(rep.bound),
            "satisfied": rep.satisfied,
            "note": note,
        }
        ok &= rep.satisfied
    if args.flatness is not None:
        out["flatness"] = _flatness(cfg, s, args.flatness)
    if args.determinant_check:
        monos = analysis.determinant_monomials()
        out["determinant_monomials"] = sorted(analysis.monomial_name(m) for m in monos)
    print(_dump_json(out), end="")
    return 0 if ok else 1


def cmd_export(args, run: _Run) -> int:
    cfg = run.read_config(args.config, digest=True)
    if isinstance(cfg, ColoredGridConfig) or isinstance(cfg, ColoredLineConfig) and cfg.d > 2:
        run.seeds["projection"] = args.seed
        cfg = project_generic(_line_view(cfg, "svg"), extract_structure(cfg), 2, args.seed).config
    run.write_artifact(args.svg, render.render_svg(cfg))
    return 0


@functools.cache  # built on the first call, then shared by every call of ``main``
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ilab",
        description="construct, transform, and verify colored line configurations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a configuration")
    gen_sub = gen.add_subparsers(dest="construction", required=True)

    g = gen_sub.add_parser("algebraic")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--p", type=int, required=True)
    g.add_argument("-o", "--output", default="algebraic.json")

    g = gen_sub.add_parser("probabilistic")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--p-sel", help="selection probability as num/den")
    g.add_argument("--emit", choices=["before", "after"], default="after")
    g.add_argument("-o", "--output", default="probabilistic.json")

    g = gen_sub.add_parser("tricolor")
    g.add_argument("--steps", required=True, help="3n signed step lengths")
    g.add_argument("-o", "--output", default="tricolor.json")

    g = gen_sub.add_parser("reye")
    g.add_argument("-o", "--output", default="reye.json")

    g = gen_sub.add_parser("desargues")
    g.add_argument("-o", "--output", default="desargues.json")

    g = gen_sub.add_parser("dual-cycles")
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--slopes", default="1 2 5")
    g.add_argument("--starts")
    g.add_argument("-o", "--output", default="dual_cycles.json")

    g = gen_sub.add_parser("two-slit")
    g.add_argument("--which", type=int, choices=[1, 2], default=1)
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--quadric", action="store_true", help="use quadric-ruling slits")
    g.add_argument("-o", "--output", default="two_slit.json")

    v = sub.add_parser("verify", help="run verifier checks against a configuration")
    v.add_argument("config")
    v.add_argument("--k-consistency", type=int)
    v.add_argument("--max-colorful", type=int)
    v.add_argument("--flatness", type=int)
    v.add_argument("--minimality", action="store_true")
    v.add_argument("--planarity", choices=["planar", "nonplanar"])

    t = sub.add_parser("transform", help="lift / project / dualize pipelines")
    t.add_argument("config")
    t.add_argument("--lift", action="store_true")
    t.add_argument("--project", type=int)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--dualize", action="store_true")
    t.add_argument("--undualize", action="store_true")
    t.add_argument("--no-audit", action="store_true", help="skip a lift-only transform's audit")
    t.add_argument("-o", "--output", default="transformed.json")

    a = sub.add_parser("analyze", help="structure reports and experiments")
    a.add_argument("config", nargs="?")
    a.add_argument("--structure", action="store_true")
    a.add_argument("--match-structure", choices=["I", "II"])
    a.add_argument("--joint-bound", type=int)
    a.add_argument("--flatness", type=int)
    a.add_argument("--determinant-check", action="store_true")
    a.add_argument("--monte-carlo", action="store_true")
    a.add_argument("--k", type=int, default=3)
    a.add_argument("--n", default="32")
    a.add_argument("--seed", type=int, default=7)
    a.add_argument("--trials", type=int, default=100)
    a.add_argument("-o", "--output")

    e = sub.add_parser("export", help="render a configuration to SVG")
    e.add_argument("config")
    e.add_argument("--svg", required=True)
    e.add_argument("--seed", type=int, default=0)

    return parser


_COMMANDS = {
    "gen": cmd_gen,
    "verify": cmd_verify,
    "transform": cmd_transform,
    "analyze": cmd_analyze,
    "export": cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze" and not args.monte_carlo and not args.config:
        parser.error("analyze needs a configuration file (or --monte-carlo)")
    run = _Run(["ilab", *argv])
    try:
        return _COMMANDS[args.command](args, run)
    except (SystemExit2, ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
