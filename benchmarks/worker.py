"""The benchmark's child processes: import incidencelab once, then work.

Started by ``run.py`` as fresh interpreters, in one of three modes:

- ``--setup-only library|reference``: import ``incidencelab.cli`` (or, as
  the reference, numpy alone), print ``ready`` with the process's CPU time
  so far, and exit.  ``run.py`` times set-up with these.
- ``--oracle``: compute the values the checks need, outside the workload
  process: the reference evaluator on the run's pass seeds and, for the
  workloads that run the dense kernel, the golden anchors.
- otherwise the workload process: run passes of one workload through
  ``incidencelab.cli.main`` for the given number of seconds, and write
  every command's exit code, output, time and artifact hash to a JSON
  result file.  With ``--trace 1`` untraced and traced passes alternate,
  each pair on the same pass seed, so one run yields both the per-layer
  table and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

from workloads import GOLDEN_PROB_SEED, K, PROB_N, WORKLOADS, golden_mc_command, pass_seeds

MIN_PASSES = 4
MIN_TRACED_PASSES = 2  # one untraced and one traced pass


def import_library(root: Path):
    """Import ``incidencelab.cli`` from the checkout's ``src``, nowhere else."""
    src = (root / "src").resolve()
    if not (src / "incidencelab" / "__init__.py").is_file():
        raise SystemExit(f"no incidencelab sources under {src}")
    sys.path.insert(0, str(src))
    from incidencelab import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"incidencelab imported from {cli.__file__}, not {src}")
    return cli


def reference_values(pass_seed: int) -> dict:
    """The grid verdict and stage counts from the array-level evaluator.

    It shares the selection/deletion masks (``constructions._stage_masks``)
    with ``gen probabilistic``, so it is itself checked against a golden in
    every run of a workload that uses it (``oracle_values``)."""
    from incidencelab.constructions import ProbParams, probabilistic_trial_stats

    stats = probabilistic_trial_stats(ProbParams(K, PROB_N, pass_seed))
    return {
        "consistent": bool(stats["consistent"]),
        "max_colorful": int(stats["max_colorful"]),
        "sizes": list(stats["sizes"]),
        "selected_sizes": list(stats["selected_sizes"]),
        "covered_points": int(stats["covered_points"]),
    }


def oracle_values(cli, wl, run_seed: int, workdir: str) -> dict:
    """Reference values for the run's checks, computed in their own process
    so that they add nothing to the workload process's time or memory."""
    result: dict = {"oracles": {}, "anchors": {}}
    if wl.needs_oracle:
        result["oracles"] = {str(s): reference_values(s) for s in pass_seeds(run_seed)}
    if wl.uses_kernel:
        result["anchors"] = {
            "golden_mc": run_command(cli, golden_mc_command(workdir)),
            "golden_prob": reference_values(GOLDEN_PROB_SEED),
        }
    return result


def probe_loop() -> None:
    """A fixed 20 000-iteration pure-Python loop."""
    acc = 0
    for i in range(20_000):
        acc += i * i % 7


class SpeedProbe:
    """Samples the host's current speed while commands run.

    Every ``PERIOD`` seconds a SIGALRM handler times a fixed small piece of
    work in this process: a pure-Python integer loop and a numpy sum over
    an 8 MB array, so that both interpreter-bound and memory-bound work are
    represented.  On a shared host the speed of one core drifts by tens of
    percent within seconds; dividing a command's time by the mean probe
    time around it gives a figure that follows the program, not the host.
    The probe's own time is subtracted from the command it interrupted.
    """

    PERIOD = 0.2
    WINDOW = 8  # samples used at least, reaching back before short commands
    BLOCK_BYTES = 8 << 20  # resident for the whole run; taken off peak RSS

    def __init__(self) -> None:
        import numpy as np

        self.samples: list[float] = []
        self._block = np.ones(self.BLOCK_BYTES // 8, dtype=np.uint64)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_loop()
        int(self._block.sum())
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        self._sample(None, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, first: int) -> list[float]:
        """Samples taken since index ``first``, reaching back to at least
        ``WINDOW`` samples when there are fewer."""
        return self.samples[min(first, max(0, len(self.samples) - self.WINDOW)):]


def run_command(cli, cmd, probe: SpeedProbe | None = None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    first = len(probe.samples) if probe else 0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(cmd.argv))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed command, not a crashed run
        rc = "exception"
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    rec = {
        "name": cmd.name,
        "sub": cmd.sub,
        "rc": rc,
        "seconds": seconds,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
    }
    if probe is not None:
        inside = probe.samples[first:]
        window = probe.window(first)
        rec["probe_s"] = sum(inside)
        rec["probe_mean_s"] = sum(window) / len(window)
    if cmd.artifact is not None:
        path = Path(cmd.artifact)
        data = path.read_bytes() if path.is_file() else None
        rec["artifact_sha256"] = hashlib.sha256(data).hexdigest() if data is not None else None
        rec["artifact_bytes"] = len(data) if data is not None else 0
        if path.suffix == ".csv" and data is not None:
            rec["artifact_text"] = data.decode()
    return rec


def run_passes(cli, wl, args) -> dict:
    seeds = pass_seeds(args.seed)
    recorder = None
    if args.trace:
        from tracer import Recorder

        recorder = Recorder()
    min_passes = MIN_TRACED_PASSES if args.trace else MIN_PASSES

    passes = []
    probe = SpeedProbe() if not args.trace else None
    with probe or contextlib.nullcontext():
        t_begin = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - t_begin < args.seconds:
            i = len(passes)
            traced = bool(args.trace) and i % 2 == 1
            seed = seeds[(i // 2) % 2] if args.trace else seeds[i % 2]
            if traced:
                recorder.install()
                recorder.begin_pass(i)
            try:
                records = [run_command(cli, c, probe) for c in wl.commands(seed, args.workdir)]
            finally:
                if traced:
                    recorder.uninstall()
            passes.append({"pass_seed": seed, "traced": traced, "commands": records})

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "passes": passes,
        "peak_rss_kb": peak_kb - (SpeedProbe.BLOCK_BYTES // 1024 if probe else 0),
    }
    if recorder is not None:
        result["layers"] = {str(k): v for k, v in recorder.pass_table().items()}
        if args.spans:
            recorder.save(args.spans)
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--result")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", choices=["library", "reference"])
    ap.add_argument("--oracle", action="store_true")
    args = ap.parse_args(argv)

    if args.setup_only == "reference":
        import numpy  # noqa: F401  the library's one dependency, alone
    else:
        cli = import_library(Path(args.root))
    if args.setup_only:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        print("ready", usage.ru_utime + usage.ru_stime, flush=True)
        return 0

    wl = WORKLOADS[args.workload]
    if args.oracle:
        result = oracle_values(cli, wl, args.seed, args.workdir)
    else:
        result = run_passes(cli, wl, args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
