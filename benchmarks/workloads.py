"""The three benchmark workloads: command chains, expected results, checks.

A *pass* is one seed's command chain, run in order through
``incidencelab.cli.main``.  This module only builds argv lists and judges
recorded results, so it imports nothing from the library; ``worker.py``
runs the commands, the reference evaluator and the golden anchors.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

MC_TRIALS = 20
MC_NS = (16, 32, 64)
PROB_N = 64
K = 3

# Subcommands that write an artifact file; their time forms ``write_s``.
WRITE_COMMANDS = ("gen", "transform", "analyze")

# Goldens of the dense selection/deletion kernel, relative to the checkout.
GOLDEN_MC_CSV = "tests/golden/monte_carlo_k3_n32_seed7_t100.csv"
GOLDEN_PROB_JSON = "tests/golden/prob_k3_n64_seed42.json"
GOLDEN_PROB_SEED = 42


@dataclass(frozen=True)
class Command:
    """One ``ilab`` invocation of a pass and the artifact it writes, if any."""

    name: str
    argv: tuple[str, ...]
    artifact: str | None = None

    @property
    def sub(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    needs_oracle: bool  # outputs are checked against the reference evaluator
    uses_kernel: bool  # runs the dense kernel, so each run checks the goldens

    def commands(self, pass_seed: int, workdir: str) -> list[Command]:
        return _CHAINS[self.name](pass_seed, workdir)


def pass_seeds(run_seed: int) -> tuple[int, int]:
    """The two pass seeds of a run; passes cycle through them so that each
    seed runs more than once and its artifact bytes can be compared."""
    return 1000 * run_seed + 1, 1000 * run_seed + 2


def _lines_chain(s: int, d: str) -> list[Command]:
    alg, proj, dual = f"{d}/alg.json", f"{d}/proj.json", f"{d}/dual.json"
    return [
        Command("gen_alg", ("gen", "algebraic", "--k", "3", "--p", "2", "-o", alg), alg),
        Command(
            "lift_project3",
            ("transform", alg, "--lift", "--project", "3", "--seed", str(s), "-o", proj),
            proj,
        ),
        Command(
            "verify_proj",
            ("verify", proj, "--k-consistency", "3", "--max-colorful", "3",
             "--flatness", "3", "--planarity", "nonplanar"),
        ),
        Command(
            "lift_project2_dualize",
            ("transform", alg, "--lift", "--project", "2", "--dualize", "--seed", str(s),
             "-o", dual),
            dual,
        ),
        Command("verify_dual", ("verify", dual, "--k-consistency", "3", "--max-colorful", "3")),
    ]


def _grid_chain(s: int, d: str) -> list[Command]:
    prob, alg = f"{d}/prob.json", f"{d}/alg3.json"
    return [
        Command(
            "gen_prob",
            ("gen", "probabilistic", "--k", str(K), "--n", str(PROB_N), "--seed", str(s),
             "-o", prob),
            prob,
        ),
        Command("verify_prob", ("verify", prob, "--k-consistency", "3", "--max-colorful", "3")),
        Command("gen_alg", ("gen", "algebraic", "--k", "3", "--p", "3", "-o", alg), alg),
        Command(
            "verify_minimality",
            ("verify", alg, "--k-consistency", "3", "--max-colorful", "3", "--minimality"),
        ),
    ]


def _mc_chain(s: int, d: str) -> list[Command]:
    out = f"{d}/mc.csv"
    ns = ",".join(str(n) for n in MC_NS)
    return [
        Command(
            "monte_carlo",
            ("analyze", "--monte-carlo", "--k", str(K), "--n", ns, "--seed", str(s),
             "--trials", str(MC_TRIALS), "-o", out),
            out,
        )
    ]


_CHAINS = {
    "lines-pipeline": _lines_chain,
    "grid-pipeline": _grid_chain,
    "monte-carlo": _mc_chain,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("lines-pipeline", needs_oracle=False, uses_kernel=False),
        Workload("grid-pipeline", needs_oracle=True, uses_kernel=True),
        Workload("monte-carlo", needs_oracle=False, uses_kernel=True),
    )
}


def golden_mc_command(workdir: str) -> Command:
    """The ``analyze --monte-carlo`` command whose CSV is ``GOLDEN_MC_CSV``."""
    out = f"{workdir}/golden_mc.csv"
    return Command(
        "golden_mc",
        ("analyze", "--monte-carlo", "--k", "3", "--n", "32", "--seed", "7",
         "--trials", "100", "-o", out),
        out,
    )


# ---------------------------------------------------------------------------
# Checks.  Each returns a list of problems; an empty list means the command
# is correct.  ``rec`` is the worker's record of one command: ``rc``,
# ``stdout``, ``artifact_sha256`` and, for CSV artifacts, ``artifact_text``.


def _stdout_json(rec: dict) -> tuple[dict | None, list[str]]:
    try:
        verdict = json.loads(rec["stdout"])
    except json.JSONDecodeError:
        verdict = None
    if not isinstance(verdict, dict):
        return None, ["stdout is not a JSON object"]
    return verdict, []


def _all_checks_pass(rec: dict, expected: tuple[str, ...]) -> list[str]:
    verdict, errors = _stdout_json(rec)
    if verdict is None:
        return errors
    checks = verdict.get("checks", {})
    for name in expected:
        if checks.get(name, {}).get("pass") is not True:
            errors.append(f"check {name} did not pass")
    if verdict.get("pass") is not True:
        errors.append("verdict pass is not true")
    return errors


def _check_prob_report(rec: dict, oracle: dict) -> list[str]:
    report, errors = _stdout_json(rec)
    if report is None:
        return errors
    if report.get("selected_sizes") != oracle["selected_sizes"]:
        errors.append("selected_sizes differ from the reference evaluator")
    if report.get("final_sizes") != oracle["sizes"]:
        errors.append("final_sizes differ from the reference evaluator")
    if report.get("covered_points") != oracle["covered_points"]:
        errors.append("covered_points differ from the reference evaluator")
    return errors


def _check_prob_verdict(rec: dict, oracle: dict) -> list[str]:
    verdict, errors = _stdout_json(rec)
    if verdict is None:
        return errors
    checks = verdict.get("checks", {})
    consistent = checks.get("k_consistency", {}).get("pass")
    value = checks.get("max_colorful", {}).get("value")
    if consistent is not oracle["consistent"]:
        errors.append(f"k_consistency.pass {consistent} != reference {oracle['consistent']}")
    if value != oracle["max_colorful"]:
        errors.append(f"max_colorful.value {value} != reference {oracle['max_colorful']}")
    if not isinstance(value, int) or value > K:
        errors.append(f"max_colorful.value {value} exceeds {K}")
    return errors


def _check_mc_csv(rec: dict) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(rec.get("artifact_text") or "")))
    errors = []
    if len(rows) != MC_TRIALS * len(MC_NS):
        errors.append(f"CSV has {len(rows)} rows, expected {MC_TRIALS * len(MC_NS)}")
    try:
        bad = [r for r in rows if int(r["max_colorful"]) > int(r["k"])]
    except (KeyError, TypeError, ValueError):
        return [*errors, "CSV rows lack integer k and max_colorful"]
    if bad:
        errors.append(f"{len(bad)} CSV rows have max_colorful > k")
    return errors


def expected_rc(cmd: Command, oracle: dict | None) -> int:
    if cmd.name == "verify_prob":
        ok = oracle["consistent"] and oracle["max_colorful"] <= K
        return 0 if ok else 1
    return 0


def check_command(cmd: Command, rec: dict, oracle: dict | None) -> list[str]:
    """Problems with one recorded command: exit code first, then its output."""
    want = expected_rc(cmd, oracle)
    if rec["rc"] != want:
        return [f"exit code {rec['rc']}, expected {want}"]
    if cmd.name == "verify_proj":
        return _all_checks_pass(rec, ("k_consistency", "max_colorful", "flatness", "planarity"))
    if cmd.name == "verify_dual":
        return _all_checks_pass(rec, ("k_consistency", "max_colorful"))
    if cmd.name == "gen_prob":
        return _check_prob_report(rec, oracle)
    if cmd.name == "verify_prob":
        return _check_prob_verdict(rec, oracle)
    if cmd.name == "verify_minimality":
        return _all_checks_pass(rec, ("k_consistency", "max_colorful", "minimality"))
    if cmd.name == "monte_carlo":
        return _check_mc_csv(rec)
    return []


def check_anchors(anchors: dict, root: Path) -> tuple[int, int, list[str]]:
    """(checks attempted, checks failed, problem messages) for a run's golden
    anchors: the ``golden_mc`` command record must have exit code 0 and the
    bytes of ``GOLDEN_MC_CSV``, and the reference evaluator's values at
    ``GOLDEN_PROB_SEED`` (``golden_prob``) must equal ``GOLDEN_PROB_JSON``.
    An empty ``anchors`` (a workload without the kernel) checks nothing."""
    if not anchors:
        return 0, 0, []
    problems = []
    mc = anchors["golden_mc"]
    golden_csv = hashlib.sha256((root / GOLDEN_MC_CSV).read_bytes()).hexdigest()
    if mc["rc"] != 0:
        problems.append(f"golden_mc: exit code {mc['rc']}, expected 0")
    elif mc.get("artifact_sha256") != golden_csv:
        problems.append(f"golden_mc: CSV bytes differ from {GOLDEN_MC_CSV}")
    prob = anchors["golden_prob"]
    golden = json.loads((root / GOLDEN_PROB_JSON).read_text())
    if (prob["selected_sizes"], prob["sizes"], prob["covered_points"]) != (
        golden["selected_sizes"], golden["final_sizes"], golden["covered_points"]
    ):
        problems.append(f"golden_prob: reference evaluator differs from {GOLDEN_PROB_JSON}")
    return 2, len(problems), problems


def check_passes(workload: str, passes: list[dict], oracles: dict) -> tuple[int, int, list[str]]:
    """(commands attempted, commands failed, problem messages) over a run.

    Besides each command's own checks, an artifact must have the same bytes
    as the first pass with the same pass seed.
    """
    wl = WORKLOADS[workload]
    attempted = failed = 0
    problems: list[str] = []
    first_hashes: dict[tuple[int, int], str] = {}
    for p_idx, p in enumerate(passes):
        seed = p["pass_seed"]
        cmds = wl.commands(seed, "w")
        oracle = oracles.get(str(seed)) if wl.needs_oracle else None
        if len(p["commands"]) != len(cmds):
            problems.append(f"pass {p_idx}: {len(p['commands'])} commands recorded")
        for c_idx, (cmd, rec) in enumerate(zip(cmds, p["commands"])):
            attempted += 1
            errors = check_command(cmd, rec, oracle)
            if cmd.artifact is not None:
                digest = rec.get("artifact_sha256")
                first = first_hashes.setdefault((seed, c_idx), digest)
                if digest is None or digest != first:
                    errors.append("artifact bytes differ from an earlier pass with this seed")
            if errors:
                failed += 1
                problems.extend(f"pass {p_idx} {cmd.name}: {e}" for e in errors)
    return attempted, failed, problems
