import contextlib
import hashlib
import io
import json
import operator
from fractions import Fraction
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from collections import defaultdict
from functools import cached_property, reduce
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incidencelab import cli, configs, constructions, exactgeom, gridmodel, render, transforms
from incidencelab.cli import main
from incidencelab.gridmodel import ColoredGridConfig
from incidencelab.structure import IncidenceStructure
from oracles import (
    ASCII_INTS,
    dump_json,
    entries,
    fraction_canonical_ints,
    fraction_xy,
    line_classes,
    line_config,
)

GOLDEN = Path(__file__).parent / "golden"


def run(args):
    return main(args)


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestGen:
    def test_algebraic(self, workdir, capsys):
        assert run(["gen", "algebraic", "--k", "3", "--p", "2", "-o", "alg.json"]) == 0
        data = json.loads((workdir / "alg.json").read_text())
        assert data["model"] == "grid"
        assert sum(len(c["bases"]) for c in data["classes"]) == 128
        manifest = json.loads((workdir / "alg.json.manifest.json").read_text())
        assert manifest["version"]
        assert "alg.json" in manifest["outputs"]

    def test_algebraic_builds_no_grid_lines(self, workdir, capsys, monkeypatch):
        # grid lines are int64 ids: no line object is built on the way to a verdict
        assert not hasattr(gridmodel, "GridLine")
        monkeypatch.setattr(exactgeom.Line, "__init__", lambda *a: pytest.fail("built a Line"))
        assert run(["gen", "algebraic", "--k", "3", "--p", "2", "-o", "alg.json"]) == 0
        args = ["--k-consistency", "3", "--max-colorful", "3", "--minimality"]
        assert run(["verify", "alg.json", *args]) == 0

    @pytest.mark.parametrize(
        "k,p,digest",
        [
            (3, 2, "e2364cf8d2fba238824270899a44551c5ab04f4949893c13f350e26ca870bbba"),
            (3, 3, "613a98ad1bf3d8e1d67972df97ba2db1426b5468e711b13434074e9b6131b36f"),
            (3, 5, "049f9e129c00dae64b347826e793e4d6d7943a01542ee8e1a40f3527dd25437e"),
            (4, 2, "072500da4b90318422a50214eb072c32aee080f95d4e4a4e85efde3b33a9fa9b"),
        ],
    )
    def test_algebraic_bytes(self, workdir, k, p, digest):
        assert run(["gen", "algebraic", "--k", str(k), "--p", str(p), "-o", "alg.json"]) == 0
        assert hashlib.sha256((workdir / "alg.json").read_bytes()).hexdigest() == digest

    def test_nonprime_exits_2(self, workdir):
        assert run(["gen", "algebraic", "--k", "3", "--p", "4", "-o", "x.json"]) == 2

    def test_out_of_memory_exits_2(self, workdir, capsys):
        # n = 7^4 = 2401 and n^6 = 7^24 is past 2^63: the grid bound, checked before any array
        assert run(["gen", "algebraic", "--k", "5", "--p", "7", "-o", "x.json"]) == 2
        assert capsys.readouterr().err == (
            "error: grid too large (k=5, n=2401): n^(k+1), (k+1)*n^k must be < 2^63\n"
        )
        assert not (workdir / "x.json").exists()

    @pytest.mark.parametrize("p", [1000003, 1000000000000000003])
    def test_large_prime_p_exits_2(self, workdir, capsys, p):
        # the grid bound is checked before the primality test, whose trial
        # division would run to sqrt(p), and before any array
        assert run(["gen", "algebraic", "--k", "3", "--p", str(p), "-o", "x.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: grid too large (k=3, n={p * p}): n^(k+1), (k+1)*n^k must be < 2^63\n"
        )
        assert not (workdir / "x.json").exists()

    @pytest.mark.parametrize("k,n", [(3, 3_000_000), (62, 2)])
    def test_probabilistic_grid_too_large_exits_2(self, workdir, capsys, k, n):
        # the grid model's own bound, checked before any array is allocated
        argv = ["gen", "probabilistic", "--k", str(k), "--n", str(n), "--seed", "1"]
        assert run([*argv, "-o", "x.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: grid too large (k={k}, n={n}): n^(k+1), (k+1)*n^k must be < 2^63\n"
        )
        assert not (workdir / "x.json").exists()

    def test_zero_denominator_p_sel_exits_2(self, workdir, capsys):
        argv = ["gen", "probabilistic", "--k", "3", "--n", "4", "--seed", "1"]
        assert run([*argv, "--p-sel", "1/0"]) == 2
        assert "error: zero denominator" in capsys.readouterr().err

    def test_probabilistic_report(self, workdir, capsys):
        rc = run(
            ["gen", "probabilistic", "--k", "3", "--n", "8", "--seed", "5", "-o", "p.json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert "final_sizes" in report and len(report["final_sizes"]) == 4

    def test_probabilistic_emit_before(self, workdir, capsys):
        argv = ["gen", "probabilistic", "--k", "3", "--n", "8", "--seed", "5", "--emit", "before"]
        assert run([*argv, "-o", "a.json"]) == 0
        report = json.loads(capsys.readouterr().out)
        cfg = configs.config_from_json(json.loads((workdir / "a.json").read_text()))
        assert list(cfg.class_sizes()) == report["selected_sizes"]
        assert report["selected_sizes"] != report["final_sizes"]
        assert run([*argv, "-o", "b.json"]) == 0
        assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()

    @pytest.mark.parametrize("emit,sizes", [("after", "final_sizes"), ("before", "selected_sizes")])
    def test_probabilistic_builds_no_grid_lines(
        self, workdir, capsys, monkeypatch, emit, sizes
    ):
        built = []
        original = exactgeom.Line.__init__
        monkeypatch.setattr(
            exactgeom.Line, "__init__", lambda line, *a: built.append(a) or original(line, *a)
        )
        argv = ["gen", "probabilistic", "--k", "3", "--n", "16", "--seed", "3", "--emit", emit]
        assert run([*argv, "-o", "p.json"]) == 0
        expected = json.loads(capsys.readouterr().out)[sizes]
        assert run(["verify", "p.json", "--k-consistency", "3", "--max-colorful", "3"]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["checks"]["k_consistency"]["k"] == 3
        assert built == []
        # the written file holds the emitted stage; reading it builds no
        # Line either, and embedding it shows that the count is live
        cfg = configs.config_from_json(json.loads((workdir / "p.json").read_text()))
        assert list(cfg.class_sizes()) == expected and built == []
        assert len(line_classes(configs.embed_grid_config(cfg))) == 4 and len(built) == sum(expected)

    @pytest.mark.parametrize(
        "emit,digest",
        [
            ("after", "4135b97557a9f01e8540bc274562186e582275db14a439f32f7bce5c3ee0c84e"),
            # 396,910 lines of bases rows, 24 MB
            ("before", "5ede9ea2e6a5d6697d3292452488a92c50ff93ec4ad5aa1519d9324c842d1e3a"),
        ],
    )
    def test_probabilistic_bytes(self, workdir, capsys, emit, digest):
        argv = ["gen", "probabilistic", "--k", "3", "--n", "64", "--seed", "42", "--emit", emit]
        assert run([*argv, "-o", "p.json"]) == 0
        assert hashlib.sha256((workdir / "p.json").read_bytes()).hexdigest() == digest

    def test_probabilistic_runs_in_bounded_memory(self, workdir, capsys):
        # only the emitted stage is built, and its bases go to bytes as one
        # int64 array per class entry, with no Python list per line
        argv = ["gen", "probabilistic", "--k", "3", "--n", "128", "--seed", "1", "-o", "p.json"]
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 * 2**20

    def test_reye_and_desargues(self, workdir):
        assert run(["gen", "reye", "-o", "reye.json"]) == 0
        assert run(["gen", "desargues", "-o", "des.json"]) == 0
        reye = json.loads((workdir / "reye.json").read_text())
        assert reye["model"] == "lines"
        assert sum(len(c["lines"]) for c in reye["classes"]) == 12

    def test_failed_certificate_exits_2_and_writes_nothing(self, workdir, capsys, monkeypatch):
        colors = list(constructions.DESARGUES_COLORS)
        colors[1], colors[2] = colors[2], colors[1]  # two lines swap classes
        monkeypatch.setattr(constructions, "DESARGUES_COLORS", tuple(colors))
        assert run(["gen", "desargues", "-o", "des.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(workdir.iterdir()) == []

    def test_dual_cycles(self, workdir, capsys):
        assert run(["gen", "dual-cycles", "--r", "2", "-o", "dc.json"]) == 0
        data = json.loads((workdir / "dc.json").read_text())
        assert data["model"] == "points"
        report = json.loads(capsys.readouterr().out)
        assert report["direction_triples_consistent"] is True

    @pytest.mark.parametrize("slopes", ["1 2", "1 2 5 7"])
    def test_dual_cycles_wrong_slope_count_exits_2(self, workdir, capsys, slopes):
        argv = ["gen", "dual-cycles", "--r", "2", "--slopes", slopes, "-o", "dc.json"]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: slopes must be three distinct nonzero rationals\n"
        assert not (workdir / "dc.json").exists()

    def test_two_slit(self, workdir):
        assert run(
            ["gen", "two-slit", "--which", "1", "--count", "7", "--seed", "3", "-o", "ts.json"]
        ) == 0
        data = json.loads((workdir / "ts.json").read_text())
        assert len(data["classes"][0]["lines"]) == 7

    def test_two_slit_count(self, workdir, capsys):
        # a negative count is a usage error that writes no file; zero lines is a valid request
        argv = ["gen", "two-slit", "--seed", "1", "-o", "ts.json", "--count"]
        assert run([*argv, "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (workdir / "ts.json").exists()
        assert not (workdir / "ts.json.manifest.json").exists()
        assert run([*argv, "0"]) == 0
        assert json.loads((workdir / "ts.json").read_text())["classes"][0]["lines"] == []


class TestVerify:
    def gen_alg(self):
        run(["gen", "algebraic", "--k", "3", "--p", "2", "-o", "alg.json"])

    def test_pass(self, workdir, capsys):
        self.gen_alg()
        rc = run(
            [
                "verify", "alg.json",
                "--k-consistency", "3", "--max-colorful", "3", "--minimality",
            ]
        )
        assert rc == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["pass"] is True
        assert verdict["checks"]["minimality"]["pass"] is True
        assert verdict["checks"]["minimality"]["removable_total"] == 0
        assert verdict["checks"]["k_consistency"]["failures_total"] == 0

    def test_fail_with_witness(self, workdir, capsys):
        self.gen_alg()
        data = json.loads((workdir / "alg.json").read_text())
        entry = data["classes"][0]
        entry["bases"] = entry["bases"][1:]  # drop one line
        (workdir / "broken.json").write_text(json.dumps(data))
        rc = run(["verify", "broken.json", "--k-consistency", "3"])
        assert rc == 1
        verdict = json.loads(capsys.readouterr().out)
        check = verdict["checks"]["k_consistency"]
        assert check["failures"]
        assert check["failures_total"] >= len(check["failures"])

    def test_failures_total_counts_past_the_list(self, workdir, capsys):
        assert run(
            ["gen", "probabilistic", "--k", "3", "--n", "16", "--seed", "1", "-o", "p.json"]
        ) == 0
        capsys.readouterr()
        assert run(["verify", "p.json", "--k-consistency", "2"]) == 1
        check = json.loads(capsys.readouterr().out)["checks"]["k_consistency"]
        assert len(check["failures"]) == 50
        assert check["failures_total"] > 50

    def test_probabilistic_verdict_bytes(self, workdir, capsys):
        # n = 64, seed 42: the first 50 of 33,294 failures, read off the
        # verdict's index arrays, are the full list's first 50, byte for byte
        argv = ["gen", "probabilistic", "--k", "3", "--n", "64", "--seed", "42"]
        assert run([*argv, "-o", "prob42.json"]) == 0
        capsys.readouterr()
        assert run(["verify", "prob42.json", "--k-consistency", "3", "--max-colorful", "3"]) == 1
        out = capsys.readouterr().out
        digest = "55d0a6cf43fd5c7a37c161c7f7a18c82d680abe9e97825fb7451dbb7e713a468"
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        check = json.loads(out)["checks"]["k_consistency"]
        cfg = configs.config_from_json(json.loads((workdir / "prob42.json").read_text()))
        failures = gridmodel.is_k_consistent(cfg, 3).failures
        assert check["failures"] == [[list(ref), sorted(S)] for ref, S in failures[:50]]
        assert check["failures_total"] == len(failures) == 33294

    def test_malformed_exits_2(self, workdir):
        (workdir / "junk.json").write_text("{not json")
        assert run(["verify", "junk.json", "--k-consistency", "2"]) == 2

    @pytest.mark.parametrize("text", ["[]", "3", "null"])
    def test_non_object_json_exits_2(self, workdir, capsys, text):
        (workdir / "x.json").write_text(text)
        assert run(["verify", "x.json", "--k-consistency", "2"]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_color_below_one_exits_2(self, workdir, capsys):
        data = {
            "model": "grid", "k": 2, "n": 2,
            "classes": [
                {"color": 0, "axis": 1, "bases": [[1, 1]]},
                {"color": 1, "axis": 2, "bases": [[1, 1]]},
                {"color": 2, "axis": 3, "bases": [[1, 1]]},
            ],
        }
        (workdir / "c0.json").write_text(json.dumps(data))
        assert run(["verify", "c0.json", "--k-consistency", "2"]) == 2
        assert "classes[0] has color 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry",
        [
            {"color": 1, "axis": 1, "bases": [[1.5, 1]]},
            {"color": 1, "axis": 1, "bases": [[True, 1]]},
            {"color": 1, "axis": 1, "bases": [["1", 1]]},
            {"color": 1, "axis": 9, "bases": [[1, 1]]},
        ],
        ids=["float", "bool", "string", "axis"],
    )
    def test_inexact_grid_input_exits_2(self, workdir, capsys, entry):
        # with the float or bool base, the two lines would meet at (2, x, 1)
        data = {
            "model": "grid", "k": 2, "n": 2,
            "classes": [entry, {"color": 2, "axis": 2, "bases": [[2, 1]]}],
        }
        (workdir / "g.json").write_text(json.dumps(data))
        assert run(["verify", "g.json", "--max-colorful", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed configuration g.json") and "classes[0]" in err

    def test_color_beyond_the_entries_exits_2(self, workdir, capsys):
        entry = {"color": 1000, "axis": 1, "bases": []}
        data = {"model": "grid", "k": 2, "n": 2, "classes": [entry]}
        (workdir / "c.json").write_text(json.dumps(data))
        assert run(["verify", "c.json", "--max-colorful", "2"]) == 2
        assert "classes[0] has color 1000" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["transform", "export"])
    def test_float_d_exits_2(self, workdir, capsys, command):
        run(["gen", "desargues", "-o", "des.json"])
        data = json.loads((workdir / "des.json").read_text())
        data["d"] = 3.0
        (workdir / "bad.json").write_text(json.dumps(data))
        capsys.readouterr()
        if command == "transform":
            argv = ["transform", "bad.json", "--project", "2", "-o", "out.json"]
        else:
            argv = ["export", "bad.json", "--svg", "out.svg"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed configuration bad.json") and "3.0" in err
        assert not list(workdir.glob("out.*"))

    @pytest.mark.parametrize("model", ["lines", "points"])
    @pytest.mark.parametrize("colors", [[99, 2, 3, 4], [2, 1, 3, 4]], ids=["99", "swapped"])
    def test_colors_out_of_class_order_exit_2(self, workdir, capsys, model, colors):
        gen = ["desargues"] if model == "lines" else ["dual-cycles", "--r", "2"]
        run(["gen", *gen, "-o", "cfg.json"])
        data = json.loads((workdir / "cfg.json").read_text())
        assert data["model"] == model and len(data["classes"]) == 4
        for entry, color in zip(data["classes"], colors):
            entry["color"] = color
        (workdir / "bad.json").write_text(json.dumps(data))
        capsys.readouterr()
        assert run(["verify", "bad.json", "--k-consistency", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed configuration bad.json")
        assert f"classes[0] has color {colors[0]}" in err

    @pytest.mark.parametrize("command", ["verify", "transform"])
    def test_center_of_another_dimension_exits_2(self, workdir, capsys, command):
        # a planar center in R^3 used to verify, then fail every projection draw
        run(["gen", "desargues", "-o", "des.json"])
        data = json.loads((workdir / "des.json").read_text())
        data["classes"][0]["center"] = ["0", "0", "1"]
        (workdir / "bad.json").write_text(json.dumps(data))
        capsys.readouterr()
        if command == "verify":
            argv = ["verify", "bad.json", "--k-consistency", "3"]
        else:
            argv = ["transform", "bad.json", "--project", "2", "-o", "out.json"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed configuration bad.json") and "center" in err
        assert not list(workdir.glob("out.*"))

    @pytest.mark.parametrize("model", ["lines", "points"])
    def test_classes_not_a_list_exit_2(self, workdir, capsys, model):
        # an empty object used to read as an empty configuration
        (workdir / "bad.json").write_text(json.dumps({"model": model, "d": 2, "classes": {}}))
        assert run(["transform", "bad.json", "-o", "out.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed configuration bad.json") and "list" in err
        assert not list(workdir.glob("out.*"))

    @pytest.mark.parametrize("model", ["lines", "points"])
    def test_class_member_not_a_list_exits_2(self, workdir, capsys, model):
        # an object member used to read as an empty class, and verify passed
        data = {"model": model, "d": 2, "classes": [{"color": 1, model: {}}]}
        (workdir / "bad.json").write_text(json.dumps(data))
        assert run(["verify", "bad.json", "--k-consistency", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed configuration bad.json")
        assert f"classes[0] has {model} of type dict, not a list" in err

    @pytest.mark.parametrize(
        "classes",
        [
            [{"color": 1, "axis": 2, "bases": [[3, 1], [1, 2], [3, 1]]}],
            [
                {"color": 1, "axis": 2, "bases": [[3, 1]]},
                {"color": 2, "axis": 2, "bases": [[1, 2], [3, 1]]},
            ],
        ],
        ids=["within", "across"],
    )
    def test_repeated_line_exits_2(self, workdir, capsys, classes):
        # named as the file names it: axis, then the k base entries
        data = {"model": "grid", "k": 2, "n": 3, "classes": classes}
        (workdir / "g.json").write_text(json.dumps(data))
        assert run(["verify", "g.json", "--max-colorful", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed configuration g.json")
        assert "duplicate line in the configuration: axis 2, base [3, 1]" in err

    @pytest.mark.parametrize(
        "value,reason", [(1, "not 1"), ("1/0", "zero denominator in '1/0'")]
    )
    def test_bad_rational_exits_2(self, workdir, capsys, value, reason):
        run(["gen", "desargues", "-o", "des.json"])
        data = json.loads((workdir / "des.json").read_text())
        data["classes"][0]["center"][0] = value
        (workdir / "bad.json").write_text(json.dumps(data))
        capsys.readouterr()
        assert run(["verify", "bad.json", "--k-consistency", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed configuration bad.json") and reason in err

    @pytest.mark.parametrize(
        "gen,edit",
        [
            ("desargues", lambda data: data["classes"][0]["lines"][0].update(p="1231")),
            ("dual-cycles --r 2", lambda data: data["classes"][0].update(points=["123", "124"])),
            ("desargues", lambda data: data["classes"][0].update(center="1001")),
            ("desargues", lambda data: data["classes"][0].update(center=[])),
        ],
        ids=["p-string", "points-strings", "center-string", "center-empty"],
    )
    def test_coordinates_not_a_list_exit_2(self, workdir, capsys, gen, edit):
        # a string used to be read digit by digit, and an empty center as no center
        run(["gen", *gen.split(), "-o", "cfg.json"])
        data = json.loads((workdir / "cfg.json").read_text())
        edit(data)
        (workdir / "bad.json").write_text(json.dumps(data))
        capsys.readouterr()
        assert run(["verify", "bad.json", "--k-consistency", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed configuration bad.json") and "not a list of" in err

    def test_minimality_on_inconsistent_grid_exits_1(self, workdir, capsys):
        # color 1 mixes axes 1 and 2; its axis-2 line meets no color-2 line
        data = {
            "model": "grid", "k": 2, "n": 2,
            "classes": [
                {"color": 1, "axis": 1, "bases": [[1, 1]]},
                {"color": 1, "axis": 2, "bases": [[2, 2]]},
                {"color": 2, "axis": 3, "bases": [[1, 1]]},
            ],
        }
        (workdir / "mixed.json").write_text(json.dumps(data))
        rc = run(["verify", "mixed.json", "--k-consistency", "2", "--minimality"])
        assert rc == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["pass"] is False
        assert verdict["checks"]["k_consistency"]["failures"] == [[[1, 1], [1, 2]]]
        assert verdict["checks"]["minimality"] == {"pass": False, "evaluated": False}

    def test_threads_option_removed(self, workdir):
        with pytest.raises(SystemExit):
            run(["--threads", "2", "gen", "reye", "-o", "reye.json"])

    # a usage error, then the four commands of a grid-pipeline pass
    SEQUENCE = (
        ["gen", "probabilistic", "--k", "3"],
        ["gen", "probabilistic", "--k", "3", "--n", "16", "--seed", "1", "-o", "prob.json"],
        ["verify", "prob.json", "--k-consistency", "3", "--max-colorful", "3"],
        ["gen", "algebraic", "--k", "3", "--p", "2", "-o", "alg.json"],
        ["verify", "alg.json", "--k-consistency", "3", "--max-colorful", "3", "--minimality"],
    )

    def outcomes(self, workdir, capsys, fresh: bool):
        results = []
        for argv in self.SEQUENCE:
            if fresh:
                cli.build_parser.cache_clear()
            try:
                rc = run(argv)
            except SystemExit as exc:
                rc = exc.code
            results.append((rc, *capsys.readouterr()))
        return results, [(workdir / name).read_bytes() for name in ("prob.json", "alg.json")]

    def test_shared_parser_matches_fresh_parsers(self, workdir, capsys):
        shared = self.outcomes(workdir, capsys, fresh=False)
        assert cli.build_parser() is cli.build_parser()
        assert [rc for rc, _, _ in shared[0]] == [2, 0, 1, 0, 0]
        assert shared == self.outcomes(workdir, capsys, fresh=True)

    def test_parser_not_built_at_import(self):
        code = "import incidencelab.cli as c; print(c.build_parser.cache_info().currsize)"
        src = Path(cli.__file__).parents[1]  # python -c imports from its working directory
        done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr

    def count_builds(self, workdir, monkeypatch, name: str, owner=ColoredGridConfig, *transform):
        """How often a full ``verify`` of the alg(3,2) grid file, or of the
        file ``transform`` makes of it, builds a cached property of ``owner``."""
        self.gen_alg()
        path = "t.json" if transform else "alg.json"
        if transform:
            assert run(["transform", "alg.json", *transform, "-o", path]) == 0
        builds = []
        original = getattr(owner, name).func
        counting = cached_property(lambda obj: builds.append(obj) or original(obj))
        counting.__set_name__(owner, name)
        monkeypatch.setattr(owner, name, counting)
        args = ["--k-consistency", "3", "--max-colorful", "3", "--minimality"]
        assert run(["verify", path, *args]) == 0
        return len(builds)

    def test_grid_incidences_built_once(self, workdir, capsys, monkeypatch):
        assert self.count_builds(workdir, monkeypatch, "incidences") == 1

    def test_grid_carrier_table_built_once(self, workdir, capsys, monkeypatch):
        # max colorful reads the column sums of the table consistency built
        assert self.count_builds(workdir, monkeypatch, "carriers", IncidenceStructure) == 1

    def test_grid_color_entries_built_once(self, workdir, capsys, monkeypatch):
        # consistency and the minimality audit share each color's entry arrays
        assert self.count_builds(workdir, monkeypatch, "own", IncidenceStructure) == 1

    def test_lines_carrier_table_built_once(self, workdir, capsys, monkeypatch):
        # a line file's three verdicts read one extracted structure and its one table
        lift = ["--lift", "--project", "3", "--seed", "11"]
        assert self.count_builds(workdir, monkeypatch, "carriers", IncidenceStructure, *lift) == 1

    def test_structure_extracted_at_most_once(self, workdir, capsys, monkeypatch):
        calls = []
        for name in ("extract_structure", "extract_structure_lines"):
            original = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda cfg, f=original, n=name: calls.append(n) or f(cfg)
            )
        self.gen_alg()
        args = ["--k-consistency", "3", "--max-colorful", "3", "--minimality"]
        assert run(["verify", "alg.json", *args]) == 0
        assert calls == []  # grid verdicts count grid points, no structure
        run(["gen", "reye", "-o", "reye.json"])
        assert run(["verify", "reye.json", *args[:4], "--flatness", "3"]) == 0
        assert calls == ["extract_structure"]  # reused by the flatness audit
        assert run(["analyze", "reye.json", "--joint-bound", "3"]) == 0
        assert calls == ["extract_structure"]

    def test_tricolor_pipeline(self, workdir):
        assert run(
            ["gen", "tricolor", "--steps", "1,1,1,-1,-1,-1", "-o", "tri.json"]
        ) == 0
        assert run(
            ["verify", "tri.json", "--k-consistency", "2", "--max-colorful", "2"]
        ) == 0

    def test_dual_points_verify(self, workdir, capsys):
        run(["gen", "dual-cycles", "--r", "2", "-o", "dc.json"])
        capsys.readouterr()
        # the dual-cycle witness has no colorful alignment but its {2,3,4}
        # triple fails with rational parameters, so full 3-consistency fails
        rc = run(["verify", "dc.json", "--k-consistency", "3", "--max-colorful", "3"])
        verdict = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert verdict["checks"]["max_colorful"]["pass"] is True
        failed = verdict["checks"]["k_consistency"]["failures"]
        assert failed and all(sorted(S) == [2, 3, 4] for _, S in failed)


class TestCrossModelVerdicts:
    """One configuration as a grid file and after ``transform --lift
    --project 3``, ``--project 2`` and ``--project 2 --dualize`` (seed 11),
    each verified with ``--k-consistency K --max-colorful 4 --minimality``:
    consistency, the max colorful value and minimality run on one record
    per model, the grid's points or the extracted structure."""

    MODELS = {
        "grid": None,
        "R3": ["--lift", "--project", "3"],
        "plane": ["--lift", "--project", "2"],
        "dual": ["--lift", "--project", "2", "--dualize"],
    }
    INPUTS = {
        "alg32": ["algebraic", "--k", "3", "--p", "2"],
        "alg33": ["algebraic", "--k", "3", "--p", "3"],
        "prob16": ["probabilistic", "--k", "3", "--n", "16", "--seed", "1"],
    }

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory) -> dict:
        root, files = tmp_path_factory.mktemp("models"), {}
        for name, argv in self.INPUTS.items():
            grid = str(root / f"{name}.json")
            assert run(["gen", *argv, "-o", grid]) == 0
            for model, transform in self.MODELS.items():
                path = str(root / f"{name}_{model}.json") if transform else grid
                if transform:
                    assert run(["transform", grid, *transform, "--seed", "11", "-o", path]) == 0
                files[name, model] = path
        return files

    def outcomes(self, files, capsys, name: str, k: int) -> dict:
        """Per model: exit code, consistency pass and failures_total, the max
        colorful value, and minimality pass, evaluated and removable_total."""
        capsys.readouterr()
        out = {}
        for model in self.MODELS:
            argv = ["--k-consistency", str(k), "--max-colorful", "4", "--minimality"]
            rc = run(["verify", files[name, model], *argv])
            checks = json.loads(capsys.readouterr().out)["checks"]
            kc, mc, mn = checks["k_consistency"], checks["max_colorful"], checks["minimality"]
            out[model] = (
                rc, kc["pass"], kc["failures_total"], mc["value"],
                mn["pass"], mn["evaluated"], mn.get("removable_total"),
            )
        return out

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("alg32", (0, True, 0, 3, True, True, 0)),
            ("alg33", (0, True, 0, 3, True, True, 0)),
            # not 3-consistent: minimality is not evaluated, and exit 1 as on the grid
            ("prob16", (1, False, 132, 2, False, False, None)),
        ],
    )
    def test_k3_agrees_on_every_model(self, files, capsys, name, expected):
        assert self.outcomes(files, capsys, name, 3) == dict.fromkeys(self.MODELS, expected)

    @pytest.mark.parametrize(
        "name, expected",
        [
            # 2-consistent, and every one of the 128 (972) lines can go
            ("alg32", dict.fromkeys(MODELS, (1, True, 0, 3, False, True, 128))),
            ("alg33", dict.fromkeys(MODELS, (1, True, 0, 3, False, True, 972))),
            # Projected to the plane, any two lines meet, and any two dual
            # points are aligned: every line of the 44 crosses a line of each
            # other color, so the 126 failures of the grid and of R^3 become 0,
            # and as no class has a single line, each line can go.
            (
                "prob16",
                {
                    "grid": (1, False, 126, 2, False, False, None),
                    "R3": (1, False, 126, 2, False, False, None),
                    "plane": (1, True, 0, 2, False, True, 44),
                    "dual": (1, True, 0, 2, False, True, 44),
                },
            ),
        ],
    )
    def test_k2_on_every_model(self, files, capsys, name, expected):
        assert self.outcomes(files, capsys, name, 2) == expected


class TestTransformAnalyze:
    def test_lift_project_verify(self, workdir):
        run(["gen", "algebraic", "--k", "3", "--p", "2", "-o", "alg.json"])
        rc = run(
            [
                "transform", "alg.json", "--lift", "--project", "3",
                "--seed", "11", "-o", "proj.json",
            ]
        )
        assert rc == 0
        assert run(
            [
                "verify", "proj.json", "--k-consistency", "3",
                "--max-colorful", "3", "--flatness", "3", "--planarity", "nonplanar",
            ]
        ) == 0

    def test_analyze_match(self, workdir, capsys):
        run(["gen", "reye", "-o", "reye.json"])
        rc = run(["analyze", "reye.json", "--match-structure", "I", "--structure"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["match_structure"]["found"] is True
        assert len(out["structure"]["colorful_triples"]) == 12

    @pytest.mark.parametrize("model", ["lines", "grid"])
    @pytest.mark.parametrize("colors", [26, 27])
    def test_analyze_structure_names_at_most_26_colors(self, workdir, capsys, model, colors):
        # one letter a..z per color: past z, one error line, not a traceback
        if model == "lines":  # lines through the origin, one per class
            origin = ["0", "0", "0", "1"]
            ends = [{"p": origin, "q": ["1", str(c), str(c * c), "1"]} for c in range(colors)]
            classes = [{"color": c, "lines": [line]} for c, line in enumerate(ends, start=1)]
            data = {"model": "lines", "d": 3, "classes": classes}
        else:  # lines of [3]^3, one per class
            bases = [(a, [x, y]) for a in (1, 2, 3) for x in (1, 2, 3) for y in (1, 2, 3)]
            classes = [{"color": c, "axis": a, "bases": [b]} for c, (a, b) in enumerate(bases, 1)]
            data = {"model": "grid", "k": 2, "n": 3, "classes": classes[:colors]}
        (workdir / "c.json").write_text(json.dumps(data))
        rc = run(["analyze", "c.json", "--structure"])
        out, err = capsys.readouterr()
        if colors == 26:
            assert (rc, err) == (0, "")
            assert any("z1" in name for name in json.loads(out)["structure"]["monomials"])
        else:
            assert (rc, out) == (2, "")
            assert err == "error: --structure names at most 26 colors, a to z, not 27\n"

    def test_analyze_monte_carlo_csv(self, workdir, capsys):
        rc = run(
            [
                "analyze", "--monte-carlo", "--k", "3", "--n", "8",
                "--seed", "3", "--trials", "4", "-o", "mc.csv",
            ]
        )
        assert rc == 0
        lines = (workdir / "mc.csv").read_text().splitlines()
        assert lines[0] == "k,n,seed,trial,consistent,bad_lines,size_1,size_2,size_3,size_4,max_colorful"
        assert len(lines) == 5

    @pytest.mark.parametrize("sizes", ["", ",", " , "])
    def test_analyze_monte_carlo_without_sizes_exits_2(self, workdir, capsys, sizes):
        assert run(["analyze", "--monte-carlo", "--n", sizes, "-o", "mc.csv"]) == 2
        err = capsys.readouterr().err
        assert err == "error: --monte-carlo needs at least one --n size\n"
        assert not (workdir / "mc.csv").exists()

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["/nonexistent.json"], "configuration file"),
            (["alg.json"], "configuration file"),
            (["--structure"], "--structure"),
            (["--joint-bound", "0"], "--joint-bound"),
            (["--flatness", "3", "--determinant-check"], "--flatness"),
        ],
    )
    def test_analyze_monte_carlo_with_a_file_or_check_exits_2(self, workdir, capsys, extra, named):
        # a Monte Carlo run reads no configuration, so neither a file nor a
        # check on one is silently ignored
        run(["gen", "algebraic", "--k", "3", "--p", "2", "-o", "alg.json"])
        capsys.readouterr()
        argv = ["analyze", *extra, "--monte-carlo", "--n", "8", "--trials", "1", "-o", "mc.csv"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --monte-carlo takes no {named}\n"
        assert captured.out == ""
        assert not (workdir / "mc.csv").exists()

    @pytest.mark.parametrize(
        "sizes, seed, trials, digest",
        [
            # 21 trials: one batch at n = 16, 18 + 3 at n = 24 and 8 + 8 + 5 at n = 32
            ("16,24,32", "3", "21", "f605b4846cfed027d2aaf76ad61b50d2471a420722f14e3f6e309a22b819a21b"),
            # the monte-carlo benchmark's own pass
            ("16,32,64", "1001", "20", "ebd5189cbd576a8c8a366cf8edc139baed0581049c57d3218f469508c20ff38f"),
        ],
    )
    def test_analyze_monte_carlo_batch_bytes(self, workdir, capsys, sizes, seed, trials, digest):
        argv = ["analyze", "--monte-carlo", "--k", "3", "--n", sizes, "--seed", seed]
        assert run([*argv, "--trials", trials, "-o", "mc.csv"]) == 0
        assert hashlib.sha256((workdir / "mc.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "k, sizes, trials, digest",
        [
            # x_(k+1) fills 63 or 64 bits of one uint64 word, then two words
            ("3", "63,64,65,100", "5", "e6b377ca23133205dc0022234733414804c25eb7640f7b163629d2baf03ba5a8"),
            ("4", "5,9,12", "10", "3bc2cc198a40b4d021f41ce25e1ca8bd581c1d89edcf5ba6f4d6621f7aff08e8"),
        ],
    )
    def test_analyze_monte_carlo_bytes(self, workdir, capsys, k, sizes, trials, digest):
        argv = ["analyze", "--monte-carlo", "--k", k, "--n", sizes, "--seed", "11"]
        assert run([*argv, "--trials", trials, "-o", "mc.csv"]) == 0
        assert hashlib.sha256((workdir / "mc.csv").read_bytes()).hexdigest() == digest

    def test_analyze_monte_carlo_large_grid(self, workdir, capsys):
        # n^(k+1) = 2^28 grid points per trial
        argv = ["analyze", "--monte-carlo", "--k", "3", "--n", "128", "--trials", "1"]
        assert run([*argv, "-o", "mc.csv"]) == 0
        assert len((workdir / "mc.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("k,n", [(3, 3_000_000), (62, 2)])
    def test_analyze_monte_carlo_grid_too_large_exits_2(self, workdir, capsys, k, n):
        argv = ["analyze", "--monte-carlo", "--k", str(k), "--n", str(n), "--trials", "1"]
        assert run([*argv, "-o", "mc.csv"]) == 2
        assert capsys.readouterr().err == (
            f"error: grid too large (k={k}, n={n}): n^(k+1), (k+1)*n^k must be < 2^63\n"
        )
        assert not (workdir / "mc.csv").exists()

    def count_extractions(self, monkeypatch, argv):
        """The line configurations a ``transform`` extracts, and its projection results."""
        extracted, results = [], []
        original = transforms.extract_structure_lines

        def counting(cfg):
            extracted.append(cfg)
            return original(cfg)

        for module in (cli, transforms):
            monkeypatch.setattr(module, "extract_structure_lines", counting)
        project = cli.project_generic
        monkeypatch.setattr(
            cli, "project_generic", lambda *a: results.append(project(*a)) or results[-1]
        )
        run(["gen", "algebraic", "--k", "3", "--p", "2", "-o", "alg.json"])
        assert run(["transform", "alg.json", *argv, "-o", "out.json"]) == 0
        return extracted, results

    def test_lift_project_extracts_only_the_images(self, workdir, monkeypatch):
        # the projection audits each image against the grid's own structure,
        # which certifies the written file, so the lift itself is never extracted
        argv = ["--lift", "--project", "3", "--seed", "11"]
        extracted, results = self.count_extractions(monkeypatch, argv)
        assert len(extracted) == results[0].attempts
        assert all(cfg.d == 3 for cfg in extracted)

    def test_lift_only_extracts_the_lift_once(self, workdir, monkeypatch):
        # a lift written as the artifact is certified by its own audit
        extracted, results = self.count_extractions(monkeypatch, ["--lift"])
        assert results == [] and [cfg.d for cfg in extracted] == [4]

    @pytest.mark.parametrize("argv", [["--project", "3"], ["--project", "2", "--dualize"]])
    def test_broken_lift_under_projection_exits_2(self, workdir, capsys, monkeypatch, argv):
        # a lift with one line turned about its class center leaves every grid
        # point of that line, among them groups of three or more lines (alg(3,2)
        # is 3-consistent); no projection of it passes the audit, in R^3 or R^2
        lift = cli.lift_to_concurrent

        def broken(cfg, audit=True):
            lifted, s = lift(cfg, audit)
            classes = [list(cls) for cls in line_classes(lifted)]
            point, center = classes[0][0].p, classes[0][0].q
            assert center.coords == lifted.centers[0]
            moved = exactgeom.ProjPoint((point.coords[0] + 1, *point.coords[1:]))
            classes[0][0] = exactgeom.Line(center, moved)
            lifted = line_config(lifted.d, classes, lifted.centers)
            assert transforms.extract_structure_lines(lifted) != s
            return lifted, s

        monkeypatch.setattr(cli, "lift_to_concurrent", broken)
        run(["gen", "algebraic", "--k", "3", "--p", "2", "-o", "alg.json"])
        assert run(["verify", "alg.json", "--k-consistency", "3"]) == 0
        capsys.readouterr()
        assert run(["transform", "alg.json", "--lift", *argv, "--seed", "11", "-o", "out.json"]) == 2
        err = capsys.readouterr().err
        assert err == "error: no generic projection found in 32 attempts\n"
        assert not (workdir / "out.json").exists()
        assert not (workdir / "out.json.manifest.json").exists()

    def test_grid_projection_extracts_only_the_images(self, workdir, monkeypatch):
        # the grid's own structure is the audit reference, so each projection
        # attempt extracts its image and the embedded source is never extracted
        extracted, results = self.count_extractions(monkeypatch, ["--project", "3", "--seed", "11"])
        assert len(extracted) == results[0].attempts
        assert all(cfg.d == 3 for cfg in extracted)

    def test_alg_3_3_lift_project_bytes(self, workdir, capsys):
        # the artifact of the exact pairwise meet loop, byte for byte
        run(["gen", "algebraic", "--k", "3", "--p", "3", "-o", "alg.json"])
        argv = ["transform", "alg.json", "--lift", "--project", "3", "--seed", "11"]
        assert run([*argv, "-o", "proj.json"]) == 0
        digest = hashlib.sha256((workdir / "proj.json").read_bytes()).hexdigest()
        assert digest == "172a2352649062302521b7d34c1c9f6b377cb1f6357ae19658b7d1033fbd63f9"
        args = ["--k-consistency", "3", "--max-colorful", "3"]
        assert run(["verify", "proj.json", *args]) == 0

    @pytest.mark.parametrize(
        "dualize, digest, witness",
        [
            (
                [],
                "fe09dcb3e19c20e632e13be19e02d91ef28b6b9408c68bfbfc919fe15932214d",
                "(29951:31677:-33)",
            ),
            (
                ["--dualize"],
                "bf2e6b07da85f2bde72ffa53548a8a9aee2ae94e00dae800c4672e947f7847c9",
                "(29951, 31677, 33)",
            ),
        ],
        ids=["lines", "dual"],
    )
    def test_alg_3_3_lift_project_2_bytes(self, workdir, capsys, dualize, digest, witness):
        # 352,354 planar groups, 349,920 of them new crossings, as lines or dual points
        run(["gen", "algebraic", "--k", "3", "--p", "3", "-o", "alg.json"])
        capsys.readouterr()
        argv = ["transform", "alg.json", "--lift", "--project", "2", *dualize, "--seed", "11"]
        assert run([*argv, "-o", "out.json"]) == 0
        assert "note: 349920 new planar crossings recorded" in capsys.readouterr().err.splitlines()
        assert hashlib.sha256((workdir / "out.json").read_bytes()).hexdigest() == digest
        assert run(["verify", "out.json", "--k-consistency", "3", "--max-colorful", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["checks"]["max_colorful"]["witness"] == witness

    def test_alg_3_2_lift_project_2_dualize_bytes(self, workdir, capsys):
        # planar lines and dual points through the one planar routine
        run(["gen", "algebraic", "--k", "3", "--p", "2", "-o", "alg.json"])
        argv = ["transform", "alg.json", "--lift", "--project", "2", "--dualize", "--seed", "11"]
        assert run([*argv, "-o", "dual.json"]) == 0
        digest = hashlib.sha256((workdir / "dual.json").read_bytes()).hexdigest()
        assert digest == "55928455ce02bbfa0e0e8426e4fe175b2b7d1d38f918275de5c1d2eab3f37aa8"
        args = ["--k-consistency", "3", "--max-colorful", "3"]
        assert run(["verify", "dual.json", *args]) == 0

    def test_dualize_round_trip(self, workdir):
        run(["gen", "desargues", "-o", "des.json"])
        assert run(
            ["transform", "des.json", "--project", "2", "--seed", "2", "-o", "flat.json"]
        ) == 0
        assert run(["transform", "flat.json", "--dualize", "-o", "dual.json"]) == 0
        assert run(["transform", "dual.json", "--undualize", "-o", "back.json"]) == 0
        data = json.loads((workdir / "back.json").read_text())
        assert data["model"] == "lines"

    @pytest.mark.parametrize(
        "failure, message",
        [("projection_attempts", "no generic projection"), ("lift_audit", "audit")],
    )
    def test_failed_operation_exits_2(self, workdir, capsys, monkeypatch, failure, message):
        # a transform that cannot keep its guarantee writes no file
        run(["gen", "algebraic", "--k", "3", "--p", "2", "-o", "alg.json"])
        capsys.readouterr()
        argv = ["transform", "alg.json", "--lift", "-o", "out.json"]
        if failure == "projection_attempts":
            monkeypatch.setattr(transforms, "PROJECTION_ATTEMPTS", 0)
            argv += ["--project", "3", "--seed", "11"]
        else:  # the lifted lines disagree with the grid structure
            monkeypatch.setattr(
                transforms,
                "extract_structure_lines",
                lambda cfg: IncidenceStructure(cfg.class_sizes(), *entries([])),
            )
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (workdir / "out.json").exists()
        assert not (workdir / "out.json.manifest.json").exists()

    @pytest.mark.parametrize("model", ["grid", "lines", "points"])
    def test_joint_bound_needs_k_in_1_to_m(self, workdir, capsys, model):
        run(["gen", "algebraic", "--k", "3", "--p", "2", "-o", "grid.json"])
        if model == "lines":
            run(["transform", "grid.json", "--lift", "-o", "lines.json"])
        elif model == "points":
            argv = ["--lift", "--project", "2", "--dualize", "--seed", "11"]
            run(["transform", "grid.json", *argv, "-o", "points.json"])
        capsys.readouterr()
        for bound, code in [(0, 2), (4, 0), (5, 2)]:  # m = 4 colors
            assert run(["analyze", f"{model}.json", "--joint-bound", str(bound)]) == code
            out, err = capsys.readouterr()
            if code == 2:
                reason = f"the joint bound needs K in 1..4 (the number of colors), not {bound}"
                assert err == f"error: {reason}\n"
            else:
                report = json.loads(out)["joint_bound"]
                assert (report["m"], report["k"], report["total_lines"]) == (4, 4, 128)

    def test_lift_no_audit_writes_the_audited_bytes(self, workdir, monkeypatch):
        run(["gen", "algebraic", "--k", "3", "--p", "2", "-o", "alg.json"])
        assert run(["transform", "alg.json", "--lift", "-o", "audited.json"]) == 0
        monkeypatch.setattr(
            transforms, "extract_structure_lines", lambda cfg: pytest.fail("audited the lift")
        )
        assert run(["transform", "alg.json", "--lift", "--no-audit", "-o", "fast.json"]) == 0
        assert (workdir / "fast.json").read_bytes() == (workdir / "audited.json").read_bytes()

    def test_project_dual_points_exits_2(self, workdir, capsys):
        run(["gen", "dual-cycles", "--r", "2", "-o", "dc.json"])
        capsys.readouterr()
        argv = ["transform", "dc.json", "--project", "2", "-o", "proj.json"]
        assert run(argv) == 2
        assert "error: --project applies to line and grid" in capsys.readouterr().err
        assert not (workdir / "proj.json").exists()


EXPORT = ["export", "in.json", "--svg", "out.svg"]
EDGE_LINES = (
    '{"model": "lines", "d": 2, "classes": [{"color": 1, "lines": '
    '[{"p": ["0","0","1"], "q": ["1","0","1"]}%s]}]}'
)


class TestExport:
    def test_svg_valid(self, workdir):
        run(["gen", "desargues", "-o", "des.json"])
        assert run(["export", "des.json", "--svg", "des.svg", "--seed", "3"]) == 0
        root = ET.parse(workdir / "des.svg").getroot()
        assert root.tag.endswith("svg")
        lines = [e for e in root.iter() if e.tag.endswith("line")]
        assert len(lines) == 12

    def test_reye_arrowheads(self, workdir):
        run(["gen", "reye", "-o", "reye.json"])
        assert run(["export", "reye.json", "--svg", "reye.svg", "--seed", "4"]) == 0
        root = ET.parse(workdir / "reye.svg").getroot()
        polys = [e for e in root.iter() if e.tag.endswith("polygon")]
        assert polys  # infinite incidence points drawn as arrowheads

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-50, 50) | st.integers(2**64, 2**120) | st.integers(-(2**120), -(2**64)),
        st.integers(-50, 50) | st.integers(2**64, 2**120) | st.integers(-(2**120), -(2**64)),
        st.integers(1, 50) | st.integers(2**54, 2**70) | st.integers(-(2**70), -1),
    )
    def test_finite_xy_matches_fractions(self, x, y, w):
        # equal as floats; a zero over a negative w is -0.0 here, which the
        # canvas only ever subtracts from nonzero frame bounds
        p = exactgeom.ProjPoint([x, y, w])
        xy = render._xy(exactgeom.int_array([p.coords]))
        assert tuple([*map(tuple, a.tolist())] for a in xy) == ([fraction_xy(p)], [])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_xy_rows_match_fractions(self, data):
        # whole arrays, finite and infinite rows mixed: int64 entries past 2^53 (which
        # float64 would round before dividing), or Python ints past 2^64
        wide = data.draw(st.booleans())
        big = st.integers(2**53 + 1, 2**63 - 1) | st.integers(-(2**63) + 1, -(2**53) - 1)
        coord = st.integers(-50, 50) | big
        if wide:
            coord |= st.integers(2**64, 2**120) | st.integers(-(2**120), -(2**64))
        rows = data.draw(st.lists(st.tuples(coord, coord, st.just(0) | coord), max_size=40))
        finite, infinite = render._xy(np.array(rows, object if wide else np.int64))
        assert finite.dtype == infinite.dtype == np.float64
        assert finite.tolist() == [list(fraction_xy(exactgeom.ProjPoint(r))) for r in rows if r[2]]
        assert infinite.tolist() == [[float(x), float(y)] for x, y, w in rows if not w]

    @pytest.mark.parametrize(
        "text, argvs, digest",
        [
            # one planar line: no incidence point, so its one witness slab is empty
            (
                EDGE_LINES % "",
                [EXPORT],
                "f177a4f8fad04a3abde70b3964ae45cfd58bfb84f615865d7eb42d6f4a9a217f",
            ),
            # and a parallel line: they meet at infinity, drawn as one arrowhead
            (
                EDGE_LINES % ', {"p": ["0","1","1"], "q": ["1","1","1"]}',
                [EXPORT],
                "72545b2eaea8d0909c4e5acce80623522c9bb92431b1b8c9b4d93553dbfef7ee",
            ),
            # a point file of one point at infinity: no dot, no alignment
            (
                '{"model": "points", "classes": [{"color": 1, "points": [["1","2","0"]]}]}',
                [EXPORT],
                "05a95dfdeb6601997c3e99414f58315cf12360f9d9fa1c05d247d53531d919cd",
            ),
            # a grid file: projected to the plane first
            (
                None,
                [["gen", "algebraic", "--k", "3", "--p", "2", "-o", "in.json"], [*EXPORT, "--seed", "1"]],
                "881709c94ffb6793f8a250fe16920d3cc4e661e67560a12e22f0f8f40c52dcf8",
            ),
        ],
        ids=["one-line", "parallel-lines", "point-at-infinity", "grid"],
    )
    def test_edge_bytes(self, workdir, capsys, text, argvs, digest):
        if text is not None:
            (workdir / "in.json").write_text(text + "\n")
        for argv in argvs:
            assert run(argv) == 0
        assert hashlib.sha256((workdir / "out.svg").read_bytes()).hexdigest() == digest


ALG32_DUAL = [
    ["gen", "algebraic", "--k", "3", "--p", "2", "-o", "alg.json"],
    ["transform", "alg.json", "--lift", "--project", "2", "--dualize", "--seed", "11", "-o", "dual32.json"],
]


class TestIntegerCoordinateBytes:
    """Artifacts and SVGs of the two-slit sampler, dualizing, undualizing
    and rendering, byte for byte."""

    @pytest.mark.parametrize(
        "argvs, output, digest",
        [
            (
                [["gen", "two-slit", "--which", "1", "--count", "50", "--seed", "7", "-o", "ts.json"]],
                "ts.json",
                "ba97f4c15b067a4fccc0762a9a5731fa81be43339939ccff4a9d04fc3357d91f",
            ),
            (
                [["gen", "two-slit", "--which", "2", "--count", "50", "--seed", "7", "--quadric", "-o", "ts.json"]],
                "ts.json",
                "c0df236e2f551274ad2cf8053a94343f34aeb46efc179ce7df190731bd172ace",
            ),
            (
                [
                    ["gen", "tricolor", "--steps", "1,1,1,-1,-1,-1", "-o", "tri.json"],
                    ["transform", "tri.json", "--project", "2", "--dualize", "--seed", "1", "-o", "dual.json"],
                ],
                "dual.json",
                "e48472b9ce0721b62c6142e6be095e8479db308d053efb65b492273b022581ec",
            ),
            (
                [*ALG32_DUAL, ["transform", "dual32.json", "--undualize", "-o", "back.json"]],
                "back.json",
                "86934cb3a946b446eba56db6c443a72925b65051e97eacd0923623d241ab0cf1",
            ),
            (
                [["gen", "desargues", "-o", "des.json"], ["export", "des.json", "--svg", "des.svg", "--seed", "3"]],
                "des.svg",
                "47d09ad8ef5c037ab25257239d63d8000125a6cf882582d5ba2dd38974b28af5",
            ),
            (
                [*ALG32_DUAL, ["export", "dual32.json", "--svg", "dual32.svg"]],
                "dual32.svg",
                "3c2b10405ee3748e992e24d1695b0403645f588183e81a9f20427f8d7464e2a1",
            ),
        ],
    )
    def test_bytes(self, workdir, capsys, argvs, output, digest):
        for argv in argvs:
            assert run(argv) == 0
        assert hashlib.sha256((workdir / output).read_bytes()).hexdigest() == digest


class TestManifest:
    def test_hash_matches(self, workdir):
        import hashlib

        run(["gen", "algebraic", "--k", "3", "--p", "2", "-o", "alg.json"])
        manifest = json.loads((workdir / "alg.json.manifest.json").read_text())
        digest = hashlib.sha256((workdir / "alg.json").read_bytes()).hexdigest()
        assert manifest["outputs"]["alg.json"] == digest

    def test_digests_are_file_digests(self, workdir, capsys):
        run(["gen", "algebraic", "--k", "3", "--p", "2", "-o", "alg.json"])
        assert run(["transform", "alg.json", "--lift", "-o", "lift.json"]) == 0
        manifest = json.loads((workdir / "lift.json.manifest.json").read_text())

        def digest(name):
            return hashlib.sha256((workdir / name).read_bytes()).hexdigest()

        assert manifest["inputs"] == {"alg.json": digest("alg.json")}
        assert manifest["outputs"] == {"lift.json": digest("lift.json")}
        manifest_bytes = (workdir / "lift.json.manifest.json").read_bytes()
        assert manifest_bytes.decode() == dump_json(manifest)

    def test_only_artifact_commands_hash_inputs(self, workdir, capsys, monkeypatch):
        run(["gen", "algebraic", "--k", "3", "--p", "2", "-o", "alg.json"])
        hashed = []  # the byte count of each digest taken, updated piece by piece

        class CountingSha256:
            def __init__(self, data=b""):
                self.digest, self.size = hashlib.sha256(), 0
                hashed.append(self)
                self.update(data)

            def update(self, data):
                self.size += len(data)
                self.digest.update(data)

            def hexdigest(self):
                return self.digest.hexdigest()

        monkeypatch.setattr(cli, "hashlib", SimpleNamespace(sha256=CountingSha256))
        assert run(["verify", "alg.json", "--k-consistency", "3", "--max-colorful", "3"]) == 0
        assert run(["analyze", "alg.json", "--joint-bound", "3"]) in (0, 1)
        assert hashed == []  # neither writes a manifest
        assert run(["transform", "alg.json", "--lift", "-o", "lift.json"]) == 0
        sizes = [(workdir / name).stat().st_size for name in ("alg.json", "lift.json")]
        assert [h.size for h in hashed] == sizes  # the input, then the artifact

    def test_identical_reruns_identical_bytes(self, workdir):
        run(["gen", "probabilistic", "--k", "3", "--n", "4", "--seed", "9", "-o", "a.json"])
        first = (workdir / "a.json").read_bytes()
        run(["gen", "probabilistic", "--k", "3", "--n", "4", "--seed", "9", "-o", "b.json"])
        assert first == (workdir / "b.json").read_bytes()


# json's own scalars: ints beyond 2^64, floats with nan, inf and -0.0, and
# strings with escapes and non-ASCII characters
big = st.integers(2**64, 2**80) | st.integers(-(2**80), -(2**64))
json_ints = st.integers() | big
json_floats = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
json_text = st.text() | st.sampled_from(["", "\u00e9t\u00e9", "\u2603\U0001f600", '"\\\n\t\x00'])
scalars = st.none() | st.booleans() | json_ints | json_floats | json_text


def rows_of(elements, width: int):
    row = st.lists(elements, min_size=width, max_size=width)
    return st.lists(row | row.map(tuple), max_size=7)


# lists of equal-length rows of ints (grid bases as plain lists), and rows
# of bools, floats, strings or ragged ones
int_rows = st.integers(0, 4).flatmap(lambda width: rows_of(json_ints, width))
mixed_rows = st.integers(0, 3).flatmap(lambda width: rows_of(scalars, width))
ragged_rows = st.lists(st.lists(json_ints, max_size=4), max_size=5)
documents = st.recursive(
    scalars | int_rows | mixed_rows | ragged_rows,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(json_text, inner, max_size=5)
    | st.dictionaries(json_ints, inner, max_size=5)
    | st.dictionaries(json_floats, inner, max_size=3)
    | st.dictionaries(st.booleans(), inner, max_size=2)
    | st.dictionaries(st.none(), inner, max_size=1),
    max_leaves=40,
)


# 2-d int64 arrays (grid bases), written as their ``tolist()``
int64s = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), -1, 0, 2**63 - 1])
int64_arrays = st.integers(1, 4).flatmap(
    lambda width: st.lists(st.lists(int64s, min_size=width, max_size=width), max_size=7).map(
        lambda rows: np.array(rows, dtype=np.int64).reshape(len(rows), width)
    )
)


@st.composite
def narrow_arrays(draw):
    """2-d integer arrays on both sides of the writer's range rule: entries
    spanning hi - lo = size - 1 (written from token tables) or size (by the
    row template), int64 (negative ones included) or uint64 (at or above
    2^63 included)."""
    m, width = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    size = m * width
    span = size - draw(st.sampled_from([1, 0])) if size > 1 else 0
    if draw(st.booleans()):
        dtype, lo = np.int64, st.integers(-(2**63), 2**63 - 1 - span) | st.integers(-9, 0)
    else:
        dtype, lo = np.uint64, st.integers(2**63 - 3, 2**64 - 1 - span) | st.integers(0, 9)
    offsets = draw(st.lists(st.integers(0, span), min_size=size, max_size=size))
    ends = draw(st.permutations(range(size)))[:2]
    offsets[ends[0]], offsets[ends[-1]] = 0, span  # the range is exactly ``span``
    base = draw(lo)
    return np.array([base + x for x in offsets], dtype=dtype).reshape(m, width)


array_documents = st.recursive(
    int64_arrays | narrow_arrays() | scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=12,
)


@st.composite
def decimal_rows(draw):
    """Rows as line and point files hold them (``configs.DecimalRows``):
    (m, D) point rows or (m, 2, D) line rows, int64 or Python ints above it."""
    shape = (draw(st.integers(0, 5)), *draw(st.sampled_from([(), (2,)])), draw(st.integers(0, 4)))
    size = int(np.prod(shape))
    entries = int64s | st.integers(-(2**70), 2**70)
    if draw(st.booleans()):  # a range narrower than the count: token tables
        lo = draw(entries)
        entries = st.integers(lo, lo + max(size - 1, 0))
    values = draw(st.lists(entries, min_size=size, max_size=size))
    return configs.DecimalRows(exactgeom.int_array(values).reshape(shape))


decimal_documents = st.recursive(
    decimal_rows() | scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=12,
)


def listed(data):
    """``data`` with each array replaced by its ``tolist()``, and each
    ``DecimalRows`` by its rows as decimal strings, as line and point files hold them."""
    if isinstance(data, configs.DecimalRows):
        rows = data.rows.astype(str).tolist()
        return [{"p": p, "q": q} for p, q in rows] if data.rows.ndim == 3 else rows
    if isinstance(data, np.ndarray):
        return data.tolist()
    if isinstance(data, dict):
        return {key: listed(value) for key, value in data.items()}
    return [listed(value) for value in data] if isinstance(data, (list, tuple)) else data


class TestJsonWriter:
    """The CLI's writer against ``json.dumps(data, indent=2, sort_keys=True)``."""

    @settings(max_examples=500, deadline=None)
    @given(documents)
    def test_matches_json(self, data):
        assert cli._dump_json(data) == dump_json(data)

    @settings(max_examples=300, deadline=None)
    @given(array_documents)
    def test_int_arrays_match_json_of_their_lists(self, data):
        assert cli._dump_json(data) == dump_json(listed(data))

    @settings(max_examples=300, deadline=None)
    @given(decimal_documents)
    def test_decimal_rows_match_json_of_their_strings(self, data):
        # the rows of line and point files, written through one row template
        assert cli._dump_json(data) == dump_json(listed(data))

    @pytest.mark.parametrize(
        "rows",
        [
            np.zeros((0, 3), np.int64),
            np.zeros((2, 0), np.int64),
            np.array([[2**64 - 1, 0]], np.uint64),
            np.arange(6, dtype=np.int32).reshape(3, 2)[::-1],
        ],
        ids=["no-rows", "empty-rows", "uint64", "int32-view"],
    )
    def test_other_int_arrays_match_json_of_their_lists(self, rows):
        data = {"bases": rows, "rows": [rows, rows]}
        assert cli._dump_json(data) == dump_json(listed(data))

    @pytest.mark.parametrize(
        "data",
        [
            {1: 0, "a": 0},  # unorderable keys
            {(1, 2): 0},  # a key json cannot convert
            {"a": object()},
            [[1, 2], [3, object()]],
            {"rows": [[1, 2**64], [3, 4.5]], "ids": (1, True)},
            # arrays other than 2-d integer ones, as json refuses every array
            {"ids": np.arange(3)},
            {"bases": np.zeros((2, 2))},
            {"bases": np.zeros((2, 2), bool)},
            [np.zeros((1, 1, 1), np.int64)],
            {"id": np.int64(5)},
        ],
    )
    def test_errors_match_json(self, data):
        try:
            expected = dump_json(data)
        except TypeError:
            with pytest.raises(TypeError):
                cli._dump_json(data)
        else:
            assert cli._dump_json(data) == expected

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
    def test_golden_bytes(self, path):
        text = path.read_bytes().decode()
        assert cli._dump_json(json.loads(text)) == text == dump_json(json.loads(text))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), narrow_arrays() | int64_arrays | decimal_rows())
    def test_row_blocks_match_json_of_their_lists(self, block, rows):
        # rows cut into pieces of ``block`` rows: full blocks, a shorter last one, or one
        data = {"rows": rows, "after": [rows]}
        with patch.object(cli, "_BLOCK_ROWS", block):
            assert cli._dump_json(data) == dump_json(listed(data))

    def test_grid_artifact_streams_in_bounded_memory(self, workdir):
        # a k = 3, n = 128 grid file (7 MB) is written and hashed piece by piece:
        # its dict's bases arrays and one block of text at a time, never the whole text
        _, cfg, _ = constructions.gen_probabilistic(constructions.ProbParams(3, 128, 1), ("after",))
        run = cli._Run(["ilab"])
        tracemalloc.start()
        try:
            run.write_artifact("p.json", configs.config_to_json(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        data = (workdir / "p.json").read_bytes()
        assert data.decode() == cli._dump_json(configs.config_to_json(cfg))
        manifest = json.loads((workdir / "p.json.manifest.json").read_text())
        assert manifest["outputs"] == {"p.json": hashlib.sha256(data).hexdigest()}
        assert len(data) > 6 * 10**6 and peak <= 1.2 * len(data)


@st.composite
def coordinate_texts(draw, ascii_only: bool):
    """A coordinate as a file may give it: an integer, or "num/den", with a
    unicode minus sign half the time, unless ``ascii_only``."""
    num, den = draw(st.integers(-(2**70), 2**70)), draw(st.sampled_from([1, 1, 2, 3, 7, 2**40 + 1]))
    if ascii_only or den == 1 and draw(st.booleans()):
        return str(num)
    text = f"{num}/{den}"
    return text.replace("-", "\N{MINUS SIGN}") if draw(st.booleans()) else text


@st.composite
def point_files(draw, model: str):
    """A lines file (d = 2..4, up to 3 classes of up to 4 lines, some with a
    center) or a points file (up to 3 classes of up to 5 points): all-ASCII
    integers half the time, so both reader paths run."""
    width = 3 if model == "points" else draw(st.integers(3, 5))
    point = st.lists(coordinate_texts(draw(st.booleans())), min_size=width, max_size=width)
    classes = []
    for color in range(1, draw(st.integers(1, 3)) + 1):
        if model == "points":
            classes.append({"color": color, "points": draw(st.lists(point, max_size=5))})
            continue
        lines = [{"p": draw(point), "q": draw(point)} for _ in range(draw(st.integers(0, 4)))]
        classes.append({"color": color, "lines": lines})
        if draw(st.booleans()):
            classes[-1]["center"] = draw(point)
    return {"model": model, "classes": classes, **({"d": width - 1} if model == "lines" else {})}


def oracle_file(data) -> str | None:
    """The bytes a read and a write must give, point by point through
    ``Fraction``s, and lines checked by ``int_rref``; None where the file
    holds a zero point, a line on one point or a point or line twice."""

    def canonical(texts):
        return [str(x) for x in fraction_canonical_ints([Fraction(t.replace("\N{MINUS SIGN}", "-")) for t in texts])]

    out, seen = json.loads(json.dumps(data)), set()
    try:
        for entry in out["classes"]:
            for item in entry.get("lines", entry.get("points")):
                if data["model"] == "points":
                    item[:] = canonical(item)
                    key = tuple(item)
                else:
                    item.update(p=canonical(item["p"]), q=canonical(item["q"]))
                    key = tuple(map(tuple, exactgeom.int_rref([list(map(int, item[e])) for e in "pq"])))
                    if len(key) != 2:
                        return None
                if key in seen:
                    return None
                seen.add(key)
            if "center" in entry:
                entry["center"] = canonical(entry["center"])
    except ValueError:  # a zero point
        return None
    return dump_json(out)


class TestFileRoundTrip:
    """Reading a lines or points file and writing it again: the canonical
    integers of the ``Fraction`` oracle, byte for byte, on both reader paths
    (ASCII integers in bulk, ``parse_rational`` per point otherwise); a
    second round trip changes nothing."""

    @pytest.mark.parametrize("model", ["lines", "points"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bytes(self, model, data):
        file = data.draw(point_files(model))
        expected = oracle_file(file)
        if expected is None:
            with pytest.raises(ValueError):
                configs.config_from_json(file)
            return
        text = cli._dump_json(configs.config_to_json(configs.config_from_json(file)))
        assert text == expected
        assert cli._dump_json(configs.config_to_json(configs.config_from_json(json.loads(text)))) == text


integer_tokens = st.builds(
    lambda sign, zeros, digits: sign + "0" * zeros + digits,
    st.sampled_from(["", "-"]),
    st.integers(0, 3),
    st.from_regex(r"[0-9]{1,18}", fullmatch=True)
    | st.from_regex(r"[0-9]{19,22}", fullmatch=True)
    | st.sampled_from(["999999999999999999", str(2**63 - 1), str(2**63), str(2**64)]),
)


# texts for the integer gate: any of its characters, non-ASCII digits and
# signs, integer tokens, and tokens that misplace a minus sign or are empty
gate_tokens = st.sampled_from(["", "-", "7", "-0", "12", "--3", "4-", "-5-6", "+1", " 2"])
gate_texts = (
    st.text(alphabet="0123456789,-", max_size=12)
    | st.text(alphabet="09,- +a\u0663\uff11\u2212", max_size=8)
    | st.lists(integer_tokens, min_size=1, max_size=4).map(",".join)
    | st.lists(gate_tokens, min_size=1, max_size=4).map(",".join)
)


class TestIntegerPointRows:
    """All-ASCII integer points are read as ``int`` reads them: by
    ``np.fromstring`` when no token is longer than 18 characters (it
    clamps 2^63 to 2^63 - 1), else one ``int`` per token; signs, leading
    zeros and -2^63, which int64 cannot negate, included."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_int(self, data):
        width = data.draw(st.integers(2, 4), label="width")
        point = st.lists(integer_tokens, min_size=width, max_size=width)
        points = data.draw(st.lists(point, min_size=1, max_size=6), label="points")
        rows = [[int(t) for t in p] for p in points]
        if not all(any(row) for row in rows):
            with pytest.raises(ValueError):
                configs._point_rows(points, width, "points")
            return
        got = configs._point_rows(points, width, "points")
        assert got.shape == (len(points), width)
        assert got.tolist() == [list(fraction_canonical_ints(row)) for row in rows]

    @settings(max_examples=1000, deadline=None)
    @given(gate_texts)
    def test_gate_matches_regex(self, text):
        # the str checks accept exactly the comma-joined ASCII integers
        assert configs._ascii_ints(text) == bool(ASCII_INTS.fullmatch(text))

    @pytest.mark.parametrize("token", [str(2**63), str(-(2**63)), "-" + str(2**63 + 1), "0" * 18 + "7"])
    def test_long_tokens_stay_exact(self, token):
        got = configs._point_rows([[token, "0", "1"]], 3, "points")
        assert got.tolist() == [list(fraction_canonical_ints([int(token), 0, 1]))]


class TestSizeBounds:
    """Inputs whose cost a small file or a few parameters would set past
    any machine exit 2 at once with one ``error:`` line, and write nothing;
    the sizes the paper's constructions need stay within the bounds."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["gen", "algebraic", "--k", "4", "--p", "5", "-o", "x.out"],
             "k=4, p=5: 244140625 lines, 1953125000 bytes > 2^30"),
            (["gen", "probabilistic", "--k", "3", "--n", "1024", "--seed", "1", "-o", "x.out"],
             "k=3, n=1024: 4294967296 lines, 4294967296 bytes > 2^30"),
            (["analyze", "--monte-carlo", "--k", "3", "--n", "16,1024", "--trials", "1", "-o", "x.out"],
             "k=3, n=1024: 4294967296 lines, 4294967296 bytes > 2^30"),
        ],
        ids=["alg45", "prob1024", "mc1024"],
    )
    def test_construction_too_large_exits_2(self, workdir, capsys, argv, message):
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: construction too large ({message})\n"
        assert not (workdir / "x.out").exists()

    def test_paper_sizes_stay_within_the_cap(self):
        # alg(5,2), alg(4,3) and the paper-size probabilistic grid
        for k, p in [(5, 2), (4, 3)]:
            params = constructions.AlgebraicParams(k, p)
            assert 8 * (k + 1) * params.class_size <= constructions.MAX_CONSTRUCTION_BYTES
        assert constructions.gen_algebraic(constructions.AlgebraicParams(4, 3)).class_sizes() == (3**11,) * 5
        constructions.ProbParams(3, 512, 5)
        with pytest.raises(ValueError, match="construction too large"):
            constructions.ProbParams(3, 646, 5)

    @pytest.mark.parametrize("model", ["points", "lines"])
    def test_huge_exponent_exits_2(self, workdir, capsys, model):
        # "1e5000000" is 10^5000000 to Fraction; "1e4300" still reads
        def write(text):
            if model == "points":
                data = {"model": "points", "classes": [{"color": 1, "points": [["1", "2", "1"], ["3", text, "1"]]}]}
            else:
                line = {"p": ["1", "2", "1", "1"], "q": ["3", text, "1", "1"]}
                data = {"model": "lines", "d": 3, "classes": [{"color": 1, "lines": [line]}]}
            (workdir / "e.json").write_text(json.dumps(data))

        write("1e5000000")
        assert run(["analyze", "e.json", "--structure"]) == 2
        where = "points[1]" if model == "points" else "endpoints[1]"
        assert capsys.readouterr().err == (
            f"error: malformed configuration e.json: classes[0] {where}: "
            "exponent of '1e5000000' past 4300 in magnitude\n"
        )
        write("1e4300")
        assert run(["analyze", "e.json", "--structure"]) == 0

    @pytest.mark.parametrize("model", ["points", "lines"])
    def test_int_past_digit_cap_exits_2(self, workdir, capsys, model):
        # Python reads no int string past 4,300 digits; the error names the entry
        big = "7" * 5001
        if model == "points":
            data = {"model": "points", "classes": [{"color": 1, "points": [["1", "2", "1"], ["3", big, "1"]]}]}
        else:
            line = {"p": ["1", "2", "1", "1"], "q": ["3", big, "1", "1"]}
            data = {"model": "lines", "d": 3, "classes": [{"color": 1, "lines": [line]}]}
        (workdir / "e.json").write_text(json.dumps(data))
        assert run(["export", "e.json", "--svg", "e.svg"]) == 2
        where = "points[1]" if model == "points" else "endpoints[1]"
        assert capsys.readouterr().err == (
            f"error: malformed configuration e.json: classes[0] {where}: "
            f"'{big[:40]}' has 5001 digits, past 4300\n"
        )
        assert list(workdir.iterdir()) == [workdir / "e.json"]

    def test_4000_digit_coordinate_reads(self, workdir, capsys):
        # its residues need about 1,330 table primes, grown in one step
        big = "7" * 4000
        points = [["1", "2", "1"], ["3", big, "1"], ["5", "6", "1"], ["2", "5", "3"]]
        (workdir / "big.json").write_text(json.dumps({"model": "points", "classes": [{"color": 1, "points": points}]}))
        assert run(["analyze", "big.json", "--structure"]) == 0
        assert capsys.readouterr().err == ""


class TestExactFallback:
    def test_verify_past_the_int64_bounds(self, workdir, capsys):
        # the lines-pipeline artifact shape, mapped by a matrix with entries near
        # 2^40: its coordinates pass 2^30, so keys, meets and ranks use Python ints
        assert run(["gen", "algebraic", "--k", "3", "--p", "2", "-o", "alg.json"]) == 0
        argv = ["transform", "alg.json", "--lift", "--project", "3", "--seed", "11"]
        assert run([*argv, "-o", "proj.json"]) == 0
        cfg = configs.config_from_json(json.loads((workdir / "proj.json").read_text()))
        matrix = [[2**40 + (5 * i + 3 * j * j + i * j) % 17 for j in range(4)] for i in range(4)]
        assert exactgeom.int_rank(matrix) == 4
        big = transforms.apply_projective(cfg, matrix)
        assert exactgeom.magnitude(big.ends) >= 2**30 and big.keys.dtype == object
        (workdir / "big.json").write_text(cli._dump_json(configs.config_to_json(big)))
        checks = ["--k-consistency", "3", "--max-colorful", "3", "--flatness", "3"]
        verdicts = []
        for name in ("proj.json", "big.json"):
            capsys.readouterr()
            assert run(["verify", name, *checks, "--planarity", "nonplanar"]) == 0
            verdicts.append(json.loads(capsys.readouterr().out)["checks"])
        before, after = verdicts
        assert before["flatness"]["audited"] > 0 and before["max_colorful"]["value"] == 3
        at = exactgeom.ProjPoint([int(x) for x in before["max_colorful"].pop("witness")[1:-1].split(":")])
        assert after["max_colorful"].pop("witness") == repr(exactgeom.apply_matrix(matrix, at))
        assert after == before


# one small file from every generator, and the commands that read a file
GENERATED = {
    "algebraic": ["--k", "3", "--p", "2"],
    "probabilistic": ["--k", "3", "--n", "4", "--seed", "1"],
    "tricolor": ["--steps", "1,1,1,-1,-1,-1"],
    "desargues": [],
    "reye": [],
    "dual-cycles": ["--r", "2"],
    "two-slit": ["--count", "4", "--seed", "7"],
}
READERS = [
    ["verify", "--k-consistency", "3", "--max-colorful", "3", "--minimality"],
    ["verify", "--flatness", "3", "--planarity", "nonplanar"],
    ["analyze", "--structure", "--joint-bound", "3", "--flatness", "3"],
    ["analyze", "--match-structure", "II"],
    ["transform", "--lift", "-o", "{out}/out.json"],
    ["transform", "--project", "2", "--dualize", "--seed", "1", "-o", "{out}/out.json"],
    ["transform", "--undualize", "-o", "{out}/out.json"],
    ["export", "--seed", "1", "--svg", "{out}/out.svg"],
]
PAST_INT64 = [2**63, 2**63 + 1, 2**64, 10**30, -(2**63) - 1, -(10**30)]
PAST_INT64 += list(map(str, PAST_INT64))  # as ints, and as coordinate strings
RATIONALS = ["3/2", "-7/3", "0/5", "4/2", "1/0"]
SWAPPED = [None, True, 0, 7, -1, 1.5, "x", "2", [[1]], {}, {"p": []}]


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """Each generator's file as a JSON document, with its nodes by depth:
    the (parent path, key) pairs of every dict entry and list item."""
    out, files = tmp_path_factory.mktemp("generated"), {}
    for name, args in GENERATED.items():
        assert main(["gen", name, *args, "-o", str(out / f"{name}.json")]) == 0
        doc = json.loads((out / f"{name}.json").read_text())
        by_depth, stack = defaultdict(list), [((), doc)]
        while stack:
            path, node = stack.pop()
            for key in node if isinstance(node, dict) else range(len(node)):
                by_depth[len(path)].append((path, key))
                if isinstance(node[key], (dict, list)):
                    stack.append(((*path, key), node[key]))
        files[name] = doc, [by_depth[depth] for depth in sorted(by_depth)]
    return out, files


@st.composite
def mutations(draw, by_depth):
    """One edit at a node of a depth drawn first: the node dropped, its key
    renamed, or its value replaced by another type, an int past int64 (or
    its decimal string), a num/den string or an empty list."""
    depth = draw(st.integers(0, len(by_depth) - 1), label="depth")
    path, key = draw(st.sampled_from(by_depth[depth]), label="node")
    op = draw(st.sampled_from(["drop", "rename", "swap", "int64", "rational", "empty"]))
    value = {
        "swap": st.sampled_from(SWAPPED),
        "int64": st.sampled_from(PAST_INT64),
        "rational": st.sampled_from(RATIONALS),
        "empty": st.just([]),
    }.get(op, st.none())
    return path, key, op, draw(value, label="value")


def mutated(doc, edits):
    """A copy of ``doc`` with ``edits`` applied in order; an edit whose node
    an earlier one removed or replaced is skipped. Each value goes in as a
    copy of its own, so a later edit never reaches into a shared ``SWAPPED``
    list or dict (and never writes one into itself, a cycle no file holds)."""
    doc = json.loads(json.dumps(doc))
    for path, key, op, value in edits:
        try:
            node = reduce(operator.getitem, path, doc)
            node[key]
        except (KeyError, IndexError, TypeError):
            continue
        if not isinstance(node, (dict, list)):
            continue
        if op == "drop":
            del node[key]
        elif op != "rename":
            node[key] = json.loads(json.dumps(value))
        elif isinstance(node, dict):
            node[key + "_"] = node.pop(key)
    return doc


class TestMalformedFiles:
    """Every generator's file, mutated, through every reading command: an
    exit code of 0, 1 or 2, never an exception out of ``main``, and an
    ``error:`` line with every 2."""

    @settings(max_examples=600, deadline=None)
    @given(data=st.data())
    def test_exit_codes(self, generated, data):
        out, files = generated
        name = data.draw(st.sampled_from(sorted(files)), label="generator")
        doc, by_depth = files[name]
        edits = data.draw(st.lists(mutations(by_depth), min_size=1, max_size=3), label="edits")
        path = out / "mutated.json"
        path.write_text(json.dumps(mutated(doc, edits)))
        command, *flags = data.draw(st.sampled_from(READERS), label="command")
        argv = [command, str(path), *(flag.format(out=out) for flag in flags)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2)
        if rc == 2:
            assert any(line.startswith("error: ") for line in err.getvalue().splitlines())
