"""Self-tests of the benchmark: golden anchors, output checks, tracing.

Run from the root of the checkout:

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import pytest

import run
import worker
from tracer import COUNTERS, Recorder, self_times, span_table
from workloads import WORKLOADS, Command, check_anchors, check_passes, pass_seeds

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
cli = worker.import_library(ROOT)


def run_pass(workload: str, seed: int, workdir: Path) -> dict:
    cmds = WORKLOADS[workload].commands(seed, str(workdir))
    return {"pass_seed": seed, "traced": False,
            "commands": [worker.run_command(cli, c) for c in cmds]}


@pytest.fixture(scope="module")
def lines_passes(tmp_path_factory):
    """Two real lines-pipeline passes on the same pass seed."""
    workdir = tmp_path_factory.mktemp("lines")
    seed = pass_seeds(3)[0]
    return [run_pass("lines-pipeline", seed, workdir) for _ in range(2)]


# -- golden anchors ------------------------------------------------------------


def test_monte_carlo_command_matches_golden_csv(tmp_path):
    out = tmp_path / "mc.csv"
    rec = worker.run_command(cli, Command("monte_carlo", (
        "analyze", "--monte-carlo", "--k", "3", "--n", "32", "--seed", "7",
        "--trials", "100", "-o", str(out)), str(out)))
    assert rec["rc"] == 0
    assert out.read_bytes() == (GOLDEN / "monte_carlo_k3_n32_seed7_t100.csv").read_bytes()


def test_probabilistic_report_matches_golden(tmp_path):
    out = tmp_path / "prob.json"
    rec = worker.run_command(cli, Command("gen_prob", (
        "gen", "probabilistic", "--k", "3", "--n", "64", "--seed", "42", "-o", str(out)),
        str(out)))
    assert rec["rc"] == 0
    report = json.loads(rec["stdout"])
    golden = json.loads((GOLDEN / "prob_k3_n64_seed42.json").read_text())
    assert (golden["k"], golden["n"], golden["seed"]) == (3, 64, 42)
    shared = set(report) & set(golden)
    assert shared == {"p_sel", "selected_sizes", "final_sizes", "covered_points"}
    assert {k: report[k] for k in shared} == {k: golden[k] for k in shared}


def test_each_kernel_run_checks_the_goldens(tmp_path):
    anchors = worker.oracle_values(cli, WORKLOADS["monte-carlo"], 1, str(tmp_path))["anchors"]
    assert check_anchors(anchors, ROOT) == (2, 0, [])
    tampered = copy.deepcopy(anchors)
    tampered["golden_mc"]["artifact_sha256"] = "0" * 64
    tampered["golden_prob"]["covered_points"] += 1
    attempted, failed, problems = check_anchors(tampered, ROOT)
    assert (attempted, failed) == (2, 2)
    assert "golden_mc" in problems[0] and "golden_prob" in problems[1]
    assert worker.oracle_values(cli, WORKLOADS["lines-pipeline"], 1, str(tmp_path)) == {
        "oracles": {}, "anchors": {}}


# -- output checks ---------------------------------------------------------------


def test_real_passes_pass_their_checks(lines_passes):
    assert check_passes("lines-pipeline", lines_passes, {}) == (10, 0, [])


def test_tampered_verdict_counts_as_failed(lines_passes):
    passes = copy.deepcopy(lines_passes)
    rec = passes[1]["commands"][2]  # verify of the projected configuration
    verdict = json.loads(rec["stdout"])
    verdict["checks"]["flatness"]["pass"] = False
    rec["stdout"] = json.dumps(verdict)
    attempted, failed, problems = check_passes("lines-pipeline", passes, {})
    assert (attempted, failed) == (10, 1)
    assert "verify_proj" in problems[0]


def test_tampered_artifact_counts_as_failed(lines_passes):
    passes = copy.deepcopy(lines_passes)
    passes[1]["commands"][1]["artifact_sha256"] = "0" * 64
    attempted, failed, problems = check_passes("lines-pipeline", passes, {})
    assert (attempted, failed) == (10, 1)
    assert "artifact bytes differ" in problems[0]


def test_wrong_exit_code_counts_as_failed(lines_passes):
    passes = copy.deepcopy(lines_passes)
    passes[0]["commands"][0]["rc"] = 2
    assert check_passes("lines-pipeline", passes, {})[:2] == (10, 1)


def _grid_verdict(consistent: bool, value: int) -> dict:
    verdict = {"pass": consistent and value <= 3, "checks": {
        "k_consistency": {"pass": consistent}, "max_colorful": {"value": value}}}
    return {"name": "verify_prob", "sub": "verify", "rc": 0 if verdict["pass"] else 1,
            "stdout": json.dumps(verdict)}


def test_grid_verdict_is_checked_against_reference():
    seed = pass_seeds(1)[0]
    oracle = worker.reference_values(seed)
    report = {k: oracle[k] for k in ("selected_sizes", "covered_points")}
    report["final_sizes"] = oracle["sizes"]
    gen = {"name": "gen_prob", "sub": "gen", "rc": 0, "stdout": json.dumps(report),
           "artifact_sha256": "a" * 64}
    good = _grid_verdict(oracle["consistent"], oracle["max_colorful"])
    minimal = {"name": "verify_minimality", "sub": "verify", "rc": 0, "stdout": json.dumps(
        {"pass": True, "checks": {k: {"pass": True}
                                  for k in ("k_consistency", "max_colorful", "minimality")}})}
    alg = {"name": "gen_alg", "sub": "gen", "rc": 0, "stdout": "", "artifact_sha256": "b" * 64}
    oracles = {str(seed): oracle}

    def grid_pass(verdict):
        return [{"pass_seed": seed, "traced": False, "commands": [gen, verdict, alg, minimal]}]

    assert check_passes("grid-pipeline", grid_pass(good), oracles)[:2] == (4, 0)
    wrong = _grid_verdict(not oracle["consistent"], oracle["max_colorful"])
    assert check_passes("grid-pipeline", grid_pass(wrong), oracles)[:2] == (4, 1)
    colorful = _grid_verdict(oracle["consistent"], 4)
    assert check_passes("grid-pipeline", grid_pass(colorful), oracles)[:2] == (4, 1)


def test_monte_carlo_csv_row_over_k_counts_as_failed(tmp_path):
    seed = pass_seeds(2)[0]
    passes = [run_pass("monte-carlo", seed, tmp_path)]
    assert check_passes("monte-carlo", passes, {})[:2] == (1, 0)
    rec = passes[0]["commands"][0]
    lines = rec["artifact_text"].splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",4"
    rec["artifact_text"] = "\n".join(lines) + "\n"
    assert check_passes("monte-carlo", passes, {})[:2] == (1, 1)


# -- tracing ---------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    spans = {
        "names": np.array(["a", "b"]),
        "name_id": np.array([0, 1, 1], dtype=np.uint16),
        "parent": np.array([-1, 0, 0]),
        "pass_id": np.array([0, 0, 0], dtype=np.uint16),
        "start": np.array([0.0, 1.0, 4.0]),
        "end": np.array([10.0, 3.0, 5.0]),
    }
    assert self_times(spans).tolist() == [7.0, 2.0, 1.0]


def test_recorder_wraps_every_binding_and_restores_them():
    from incidencelab import exactgeom, structure
    from incidencelab.exactgeom import ProjPoint

    meet, init = exactgeom.meet, ProjPoint.__init__
    rec = Recorder()
    rec.install()
    try:
        assert structure.meet is exactgeom.meet
        assert structure.meet.__wrapped__ is meet
        assert ProjPoint.__init__ is not init
    finally:
        rec.uninstall()
    assert structure.meet is meet and exactgeom.meet is meet
    assert ProjPoint.__init__ is init


def _traced_counts(workload: str, seed: int, workdir: Path) -> dict:
    rec = Recorder()
    rec.install()
    rec.begin_pass(0)
    try:
        run_pass(workload, seed, workdir)
    finally:
        rec.uninstall()
    row = rec.pass_table()[0]
    return {k: v for k, v in row.items() if not k.endswith("self_s")}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    seed = pass_seeds(5)[0]
    first = _traced_counts(workload, seed, tmp_path)
    assert first == _traced_counts(workload, seed, tmp_path)
    assert set(COUNTERS) <= set(first)
    assert first["cli.main.calls"] == len(WORKLOADS[workload].commands(seed, "w"))


def test_span_table_counts_meets_inside_line_extraction(lines_passes, tmp_path):
    rec = Recorder()
    rec.install()
    rec.begin_pass(0)
    try:
        run_pass("lines-pipeline", lines_passes[0]["pass_seed"], tmp_path)
    finally:
        rec.uninstall()
    row = span_table(rec.spans())[0]
    assert 0 < row["structure.extract_meets"] <= row["exactgeom.meet.calls"]


# -- BENCHMARK.json ----------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_metric_units()
