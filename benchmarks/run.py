"""incidencelab benchmark: three ``ilab`` pipelines, end to end or traced.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload lines-pipeline --seed 1 --seconds 30 --trace 0

Each run starts one fresh workload process (``worker.py``: one client, one
thread, closed loop) that imports the library once and calls
``incidencelab.cli.main`` for each command of a pass, pass after pass, for
``--seconds`` seconds.  Before it, an oracle process computes the reference
values and golden anchors the checks need, and set-up is timed in pairs of
import-only processes.  Every command's exit code and output are checked;
the last line of standard output is one JSON object with the results.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``tracer.py``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import COUNTERS, TARGETS  # noqa: E402
from workloads import (  # noqa: E402
    MC_NS,
    MC_TRIALS,
    WORKLOADS,
    WRITE_COMMANDS,
    check_anchors,
    check_passes,
)

SETUP_PAIRS = 7  # (reference, library) import-only process pairs per run
DEADLINE_S = 170  # a run ends within this many seconds or fails
SUBCOMMANDS = ("gen", "transform", "verify", "analyze")

# A normalized second is a second on a host where one speed-probe sample
# (worker.SpeedProbe) takes PROBE_REFERENCE_S, and a fresh interpreter that
# imports numpy alone uses REFERENCE_IMPORT_CPU_S of CPU time: about their
# medians on the 2-core host the baseline was measured on.
PROBE_REFERENCE_S = 0.0028
REFERENCE_IMPORT_CPU_S = 0.26

END_TO_END_UNITS = {"setup_s": "s", "pass_norm_s": "s", "write_norm_s": "s", "peak_rss_mb": "MB"}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer, attrs in TARGETS.items():
        for attr in attrs:
            units[f"{layer}.{attr}.calls"] = "count"
            units[f"{layer}.{attr}.self_s"] = "s"
    for key in COUNTERS:
        units[key] = "bytes" if key.endswith("bytes_computed") else "count"
    units["structure.meet_skip_ratio"] = "ratio"
    units["cli.bytes_written"] = "bytes"
    for sub in SUBCOMMANDS:
        units[f"cmd.{sub}_s"] = "s"
    units["cmd.trials_per_s"] = "1/s"
    units["cmd.failed_ratio"] = "ratio"
    units["trace.untraced_pass_s"] = "s"
    units["trace.traced_pass_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _child_env() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if k != "ILAB_THREADS"}


def _worker(root: Path, extra: list[str], deadline: float) -> str:
    """Run ``worker.py`` with ``extra`` to completion; return its stdout."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root), *extra]
    proc = subprocess.Popen(cmd, cwd=root, env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(extra[:2])} exited with {proc.returncode}")
    return out


def _import_cpu(root: Path, what: str, deadline: float) -> float:
    """CPU seconds a fresh interpreter uses until ``what`` is imported."""
    line = _worker(root, ["--setup-only", what], deadline).split()
    if len(line) != 2 or line[0] != "ready":
        raise RuntimeError(f"import-only process ({what}) did not report")
    return float(line[1])


def setup_samples(root: Path, deadline: float) -> list[tuple[float, float]]:
    """(reference, library) import CPU seconds of ``SETUP_PAIRS`` process pairs.

    CPU time leaves out the time a process waits for a core; the reference
    process just before each library process divides out how fast the core
    itself runs at that moment."""
    return [
        (_import_cpu(root, "reference", deadline), _import_cpu(root, "library", deadline))
        for _ in range(SETUP_PAIRS)
    ]


def pass_seconds(p: dict, subs: tuple[str, ...] | None = None) -> float:
    """Wall time of a pass's commands, optionally only those of some subcommands."""
    return sum(c["seconds"] for c in p["commands"] if subs is None or c["sub"] in subs)


def normalized_seconds(p: dict, subs: tuple[str, ...] | None = None) -> float:
    """Like ``pass_seconds``, with each command's time (less the probe's own
    time) scaled by ``PROBE_REFERENCE_S`` / the mean probe time around it."""
    return sum(
        (c["seconds"] - c["probe_s"]) * PROBE_REFERENCE_S / c["probe_mean_s"]
        for c in p["commands"]
        if subs is None or c["sub"] in subs
    )


def _median_or_zero(values: list[float]) -> float:
    return median(values) if values else 0.0


def command_split(passes: list[dict]) -> dict[str, float]:
    """Per-pass medians of time per subcommand, trials per second, failures."""
    out = {}
    for sub in SUBCOMMANDS:
        used = [p for p in passes if any(c["sub"] == sub for c in p["commands"])]
        out[f"cmd.{sub}_s"] = _median_or_zero([pass_seconds(p, (sub,)) for p in used])
    trials = MC_TRIALS * len(MC_NS)
    out["cmd.trials_per_s"] = _median_or_zero(
        [trials / c["seconds"] for p in passes for c in p["commands"] if c["name"] == "monte_carlo"]
    )
    return out


def end_to_end(result: dict) -> dict[str, float]:
    passes = result["passes"]
    return {
        "setup_s": median(lib / ref * REFERENCE_IMPORT_CPU_S for ref, lib in result["setups"]),
        "pass_norm_s": median(normalized_seconds(p) for p in passes),
        "write_norm_s": median(normalized_seconds(p, WRITE_COMMANDS) for p in passes),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def raw_summary(result: dict, passes: list[dict]) -> dict[str, float]:
    """Medians of the raw measurements beside the normalized metrics."""
    probes = [c["probe_mean_s"] for p in passes for c in p["commands"]]
    return {
        "setup_cpu_s": median(lib for _, lib in result["setups"]),
        "reference_import_cpu_s": median(ref for ref, _ in result["setups"]),
        "pass_s": median(pass_seconds(p) for p in passes),
        "write_s": median(pass_seconds(p, WRITE_COMMANDS) for p in passes),
        **command_split(passes),
        "probe_ms": 1000 * median(probes),
    }


def per_layer(result: dict, failed_ratio: float) -> dict[str, float]:
    """Per-layer metrics: times are medians over traced passes; counts come
    from the first traced pass, which always runs the run's first pass seed."""
    passes = result["passes"]
    traced_ids = [i for i, p in enumerate(passes) if p["traced"]]
    rows = [result["layers"][str(i)] for i in traced_ids]
    first = rows[0]
    metrics: dict[str, float] = {}
    for key, unit in layer_metric_units().items():
        if key in first:
            values = [row[key] for row in rows]
            metrics[key] = median(values) if unit == "s" else first[key]
    pairs = first["structure.meet_pairs"]
    metrics["structure.meet_skip_ratio"] = (
        1 - first["structure.extract_meets"] / pairs if pairs else 0.0
    )
    metrics["cli.bytes_written"] = sum(
        c.get("artifact_bytes", 0) for c in passes[traced_ids[0]]["commands"]
    )
    plain = [p for p in passes if not p["traced"]]
    metrics.update(command_split(plain))
    metrics["cmd.failed_ratio"] = failed_ratio
    untraced = median(pass_seconds(p) for p in plain)
    traced = median(pass_seconds(passes[i]) for i in traced_ids)
    metrics["trace.untraced_pass_s"] = untraced
    metrics["trace.traced_pass_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run the oracle, set-up and workload processes; merge their results."""
    deadline = time.monotonic() + DEADLINE_S
    work = root / ".bench_work"
    rundir = work / f"{workload}-seed{seed}-pid{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed), "--workdir", str(rundir.relative_to(root))]
    extra = [
        *base, "--seconds", str(seconds), "--trace", str(int(trace)),
        "--result", str(rundir / "result.json"),
    ]
    if trace:
        (work / "traces").mkdir(exist_ok=True)
        extra += ["--spans", str(work / "traces" / f"{workload}-seed{seed}-spans.npz")]
    try:
        _worker(root, ["--oracle", *base, "--result", str(rundir / "oracle.json")], deadline)
        setups = [] if trace else setup_samples(root, deadline)
        _worker(root, extra, deadline)
        result = json.loads((rundir / "result.json").read_text())
        result.update(json.loads((rundir / "oracle.json").read_text()))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    result["setups"] = setups
    if trace:
        layers = work / "traces" / f"{workload}-seed{seed}-layers.json"
        layers.write_text(json.dumps(result["layers"], indent=1, sort_keys=True))
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "incidencelab" / "__init__.py").is_file():
        print("error: run from the root of an incidencelab checkout (no src/incidencelab)",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed, problems = check_passes(args.workload, result["passes"], result["oracles"])
    a_attempted, a_failed, a_problems = check_anchors(result["anchors"], root)
    attempted, failed, problems = attempted + a_attempted, failed + a_failed, a_problems + problems
    for problem in problems:
        print(f"FAILED {problem}")
    failed_ratio = failed / attempted if attempted else 1.0
    plain = [p for p in result["passes"] if not p["traced"]]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(result['passes'])} passes "
        f"({len(plain)} untraced), {len(result['setups'])} set-up pairs, "
        f"{attempted} commands, {failed} failed (failed_ratio {failed_ratio:.4f})"
    )
    if args.trace:
        metrics = per_layer(result, failed_ratio)
        units = layer_metric_units()
    else:
        metrics = end_to_end(result)
        units = dict(END_TO_END_UNITS)
        for key, value in raw_summary(result, plain).items():
            print(f"  (raw) {key:46s} {value:16.6f}")
    for key, value in metrics.items():
        print(f"  {key:52s} {value:16.6f} {units[key]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
