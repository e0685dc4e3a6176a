"""Command-line harness: formats, exit codes, determinism, file handling."""
import argparse
import contextlib
import csv
import functools
import gc
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lapbounds as lb
from lapbounds import cli, spectra
from lapbounds.bounds import (BOUND_IDS, EQUALITY, HOLDS, NOT_APPLICABLE,
                              VIOLATED, BoundResult)
from lapbounds.cli import CSV_COLUMNS, MAX_N, _exit_code, main


VERDICTS = (HOLDS, EQUALITY, VIOLATED, NOT_APPLICABLE)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariantsCommand:
    def test_json_document(self, capsys):
        code, out, _ = run(["invariants", "--family", "S:4"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["graph_id"] == "S:4"
        assert doc["n"] == 4 and doc["m"] == 3
        assert doc["degrees"] == [3, 1, 1, 1]
        assert doc["spectrum"] == [4.0, 1.0, 1.0, 0.0]
        assert doc["h"] == 3 and doc["component_count"] == 1
        assert doc["spanning_trees"] == "1"
        assert abs(doc["kirchhoff"] - 9.0) < 1e-6
        assert abs(doc["s_alpha"]["-1.0"] - 2.25) < 1e-8
        assert abs(doc["moments"]["2"] - 18.0) < 1e-5

    def test_disconnected_nulls(self, capsys):
        code, out, _ = run(["invariants", "--family", "CLIQUES:1,1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["kirchhoff"] is None
        assert doc["s_alpha"]["-1.0"] is None
        assert doc["s_alpha"]["2.0"] == 0.0
        assert doc["spanning_trees"] == "0"

    def test_csv_key_value(self, capsys):
        code, out, _ = run(["invariants", "--family", "K:3",
                            "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]
        data = {r[0]: r[1] for r in rows[1:]}
        assert data["n"] == "3" and data["spanning_trees"] == "3"

    def test_graph_file_input(self, tmp_path, capsys):
        path = tmp_path / "square.el"
        path.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
        code, out, _ = run(["invariants", "--graph", str(path)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["graph_id"] == "square.el"
        assert doc["spanning_trees"] == "4"

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run(["invariants"], capsys)
        assert code == 1
        code, _, _ = run(["invariants", "--family", "K:3",
                          "--graph", "x.el"], capsys)
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(["invariants", "--graph", "/nonexistent.el"],
                           capsys)
        assert code == 1 and "error" in err

    def test_each_exponent_summed_once(self, capsys, monkeypatch):
        """Moments of order k reuse the s_alpha sums at alpha = k."""
        exponents = []
        original = spectra.s_alpha

        def counting(spec, alpha):
            exponents.append(alpha)
            return original(spec, alpha)

        for name, module in list(sys.modules.items()):
            if name == "lapbounds" or name.startswith("lapbounds."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        code, _, _ = run(["invariants", "--family", "S:10", "--alphas=2,3",
                          "--ks", "2,3"], capsys)
        assert code == 0
        # the -1 is kirchhoff's own sum
        assert Counter(exponents) == {2.0: 1, 3.0: 1, -1.0: 1}


class TestCheckCommand:
    def test_exit_zero_on_star(self, capsys):
        code, out, _ = run(["check", "--family", "S:5"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert all(r["agreement"] for r in rows)
        assert all(r["verdict"] != "VIOLATED" for r in rows)

    def test_exit_two_on_k4(self, capsys):
        code, out, _ = run(["check", "--family", "K:4"], capsys)
        assert code == 2
        rows = json.loads(out)
        violated = {r["bound_id"] for r in rows if r["verdict"] == "VIOLATED"}
        assert violated == {"P2_LOWER", "KF_NEW"}

    def test_strict_applicability_restores_exit_zero(self, capsys):
        code, out, _ = run(["check", "--family", "K:4",
                            "--strict-applicability"], capsys)
        assert code == 0
        rows = json.loads(out)
        masked = [r for r in rows
                  if r["bound_id"] in ("P2_LOWER", "KF_NEW")]
        assert masked and all(r["verdict"] == "NOT_APPLICABLE"
                              for r in masked)

    def test_csv_schema(self, capsys):
        # C_5 is neither a tree nor bipartite, so the schema's empty
        # NOT_APPLICABLE cells appear while the exit code stays clean
        code, out, _ = run(["check", "--family", "C:5", "--format", "csv"],
                           capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(CSV_COLUMNS)
        body = rows[1:]
        assert all(len(r) == len(CSV_COLUMNS) for r in body)
        na = [r for r in body if r[9] == "NOT_APPLICABLE"]
        assert na and all(r[6] == "" and r[7] == "" and r[8] == ""
                          for r in na)
        assert all(r[11] == "true" for r in body)

    def test_bounds_filter(self, capsys):
        code, out, _ = run(["check", "--family", "K:5",
                            "--bounds", "KF_ZT,RP_MOMENT", "--ks", "1,2"],
                           capsys)
        assert code == 0
        rows = json.loads(out)
        assert {r["bound_id"] for r in rows} == {"KF_ZT", "RP_MOMENT"}
        assert len(rows) == 3

    def test_grid_flags(self, capsys):
        code, out, _ = run(["check", "--family", "P:4", "--alphas=-1,2",
                            "--ks", "1"], capsys)
        assert code == 2  # the tree upper bound fails at alpha = -1
        rows = json.loads(out)
        params = [r["param"] for r in rows if r["bound_id"] == "R1_TREE_HIGH"]
        assert params == [-1.0, 2.0]

    @pytest.mark.parametrize("argv", [
        ["check", "--family", "K:4", "--bounds", "NOPE"],
        ["check", "--family", "K:4", "--alphas", "0"],
        ["check", "--family", "K:4", "--alphas", "1"],
        ["check", "--family", "K:4", "--alphas", "nan"],
        ["check", "--family", "K:4", "--alphas", ""],
        ["check", "--family", "K:4", "--ks", "0"],
        ["check", "--family", "K:4", "--ks", "2.5"],
        ["check", "--family", "NOPE:4"],
        ["check", "--family", "S:3..6"],
        ["check", "--family", "GNP:40:0.001:1"],
    ])
    def test_bad_input_exits_one(self, argv, capsys):
        code, _, err = run(argv, capsys)
        assert code == 1

    @pytest.mark.parametrize("flag, source, error", [
        ("--family", "GNP:5:abc:1", "error: expected a probability, got "
                                    "'abc' in 'GNP:5:abc:1' (at position 6)"),
        ("--graph", "0 0\n", "error: bad sizes n=0 m=0 (at position 1)"),
        ("--graph", "2 1\n0 1 2\n",
         "error: edge line must be 'u v' (at position 2)"),
    ])
    def test_parse_error_prints_one_error_line(self, flag, source, error,
                                               tmp_path, capsys):
        if flag == "--graph":
            (tmp_path / "g.el").write_text(source)
            source = str(tmp_path / "g.el")
        assert run(["check", flag, source], capsys) == (1, "", error + "\n")

    def test_usage_error_exits_one(self, capsys):
        assert run([], capsys)[0] == 1
        assert run(["frobnicate"], capsys)[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"], capsys)[0] == 0


class TestVertexCap:
    @pytest.mark.parametrize("argv", [
        ["invariants", "--family", "K:800"],
        ["check", "--family", "K:100000"],
        ["sweep", "--family", "K:60..65"],
        # stops at K:65 without building the rest of the range
        ["sweep", "--family", "K:3..100000000"],
    ])
    def test_family_above_cap_exits_one(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert f"above the cap of {MAX_N}" in err

    def test_graph_file_above_cap_exits_one(self, tmp_path, capsys):
        path = tmp_path / "path65.el"
        n = MAX_N + 1
        path.write_text(f"{n} {n - 1}\n"
                        + "".join(f"{v} {v + 1}\n" for v in range(n - 1)))
        code, out, err = run(["check", "--graph", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert f"above the cap of {MAX_N}" in err

    def test_cap_itself_is_accepted(self, capsys):
        code, _, _ = run(["invariants", "--family", f"P:{MAX_N}"], capsys)
        assert code == 0

    @pytest.mark.parametrize("command", ["check", "invariants"])
    @pytest.mark.parametrize("text", ["1000000000 0\n",
                                      "1000000000 1\n0 999999999\n"])
    def test_huge_header_is_rejected_before_vertex_storage(
            self, command, text, tmp_path, capsys):
        path = tmp_path / "f.el"
        path.write_text(text)
        tracemalloc.start()
        try:
            code, out, err = run([command, "--graph", str(path)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"lapbounds: error: {path} has 1000000000 vertices, "
            f"above the cap of {MAX_N}"]
        assert peak < 10 * 2**20


class TestNumericOverflow:
    """Exponents whose powers leave the float range end in an error line."""

    @pytest.mark.parametrize("argv", [
        ["check", "--family", "P:5", "--alphas=1000"],
        ["check", "--family", "P:5", "--alphas=-1000"],
        ["check", "--family", "P:5", "--ks=800"],
        ["invariants", "--family", "K:40", "--alphas=300"],
    ])
    def test_exits_one_without_traceback(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err


REJECTED_GRIDS = (["--alphas=0"], ["--alphas=nan"], ["--alphas=x"],
                  ["--ks", "0"], ["--ks", "2.5"], ["--bounds", "NOPE"],
                  ["--bounds", ","])
GRID_COMMANDS = {"check": ["check", "--family", "K:4"],
                 "sweep": ["sweep", "--family", "S:3..5"],
                 "fuzz": ["fuzz", "--count", "3"],
                 "invariants": ["invariants", "--family", "K:4"]}


class TestRejectedGrids:
    """A rejected grid ends every command that takes the flag before it
    prints or writes anything."""

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in GRID_COMMANDS for flag in REJECTED_GRIDS
        if command != "invariants" or flag[0] != "--bounds"])
    def test_exits_one_with_an_error_line(self, command, flag, tmp_path,
                                          capsys):
        out_dir = tmp_path / "out"
        argv = GRID_COMMANDS[command] + flag
        if command == "fuzz":
            argv += ["--out-dir", str(out_dir)]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert not out_dir.exists()

    def test_invariants_checks_the_grid_before_the_graph(self, capsys):
        # this family's graph cannot be built: no draw is connected
        code, out, err = run(["invariants", "--family", "GNP:40:0.001:1",
                              "--alphas=0"], capsys)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: alpha grid must avoid the trivial exponents 0 and 1"]


class TestDuplicateGridEntries:
    """A repeated alpha or k gives one row, as a repeated bound id does."""

    def test_check_prints_each_row_once(self, capsys):
        rows = {}
        for grid in ("2", "2,2"):
            code, out, _ = run(["check", "--family", "K:4", f"--alphas={grid}",
                                f"--ks={grid}", "--bounds",
                                "P1_LOWER,RP_MOMENT"], capsys)
            assert code == 0
            rows[grid] = json.loads(out)
        assert rows["2,2"] == rows["2"]
        assert [(r["bound_id"], r["param"]) for r in rows["2"]] == [
            ("P1_LOWER", 2.0), ("RP_MOMENT", 2)]

    def test_fuzz_counts_each_row_once(self, tmp_path, capsys):
        tallies = {}
        for grid in ("-1,2", "2,-1,2,-1"):
            code, out, _ = run(["fuzz", "--seed", "7", "--count", "12",
                                f"--alphas={grid}", "--ks=3,3",
                                "--out-dir", str(tmp_path / grid)], capsys)
            assert code in (0, 2, 3)
            tallies[grid] = json.loads(out)["tallies"]
        assert tallies["2,-1,2,-1"] == tallies["-1,2"]


class TestFuzzCommand:
    def test_deterministic_reports(self, tmp_path, capsys):
        argv = ["fuzz", "--seed", "5", "--count", "20",
                "--out-dir", str(tmp_path / "a")]
        code1, out1, _ = run(argv, capsys)
        argv[-1] = str(tmp_path / "b")
        code2, out2, _ = run(argv, capsys)
        assert code1 == code2 and out1 == out2

    def test_report_structure_and_files(self, tmp_path, capsys):
        out_dir = tmp_path / "cex"
        code, out, _ = run(["fuzz", "--seed", "3", "--count", "25",
                            "--model", "tree", "--out-dir", str(out_dir)],
                           capsys)
        report = json.loads(out)
        assert report["config"]["model"] == "tree"
        assert report["config"]["seed"] == 3
        assert len(report["corpus"]["sizes"]) == 25
        assert set(report["tallies"]) == set(lb.BOUND_IDS)
        grone = report["majorization"]["GRONE"]
        assert grone["holds"] == 25 and grone["fails"] == 0
        assert report["agreement_failures"] == []
        # trees in 4..12 include non-stars, so the negative-alpha branch of
        # the tree upper bound must produce violations
        assert code == 2
        assert report["violations"]
        for v in report["violations"]:
            assert v["bound_id"] == "R1_TREE_HIGH" and v["param"] < 0
            assert "/" not in v["file"]
            g = lb.parse_edge_list((out_dir / v["file"]).read_text())
            r = lb.evaluate_bound(v["bound_id"], g, v["param"])
            assert r.verdict == "VIOLATED"
            assert abs(r.lhs - v["lhs"]) <= 1e-12 * max(1.0, abs(v["lhs"]))
            assert g.n == v["n"] and g.m == v["m"]

    def test_clique_union_model_clean(self, tmp_path, capsys):
        code, out, _ = run(["fuzz", "--seed", "11", "--count", "15",
                            "--model", "clique-union",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        report = json.loads(out)
        rp = report["tallies"]["RP_MOMENT"]
        assert rp["violated"] == 0 and rp["equality"] == 15 * 4

    def test_csv_row_dump(self, tmp_path, capsys):
        code, out, _ = run(["fuzz", "--seed", "2", "--count", "5",
                            "--format", "csv", "--out-dir", str(tmp_path)],
                           capsys)
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(CSV_COLUMNS)
        assert {r[0] for r in rows[1:]} == {f"gnp-{i}" for i in range(5)}

    def test_bounds_filter_narrows_tallies(self, tmp_path, capsys):
        code, out, _ = run(["fuzz", "--seed", "2", "--count", "5",
                            "--bounds", "KF_ZT",
                            "--out-dir", str(tmp_path)], capsys)
        report = json.loads(out)
        assert list(report["tallies"]) == ["KF_ZT"]

    def test_each_counterexample_file_written_once(self, tmp_path, capsys,
                                                   monkeypatch):
        written = []
        original = Path.write_text

        def counting(self, *args, **kwargs):
            written.append(self.name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", counting)
        code, out, _ = run(["fuzz", "--model", "tree", "--seed", "7",
                            "--count", "30", "--out-dir", str(tmp_path)],
                           capsys)
        assert code == 2
        # several parameters of one bound violated on one graph share a file
        files = [v["file"] for v in json.loads(out)["violations"]]
        assert len(set(files)) < len(files)
        assert sorted(written) == sorted(f.name for f in tmp_path.iterdir())

    def test_generation_failures_are_listed(self, tmp_path, capsys):
        # at p = 0.001 no G(12, p) draw is connected within the retries
        code, out, _ = run(["fuzz", "--seed", "7", "--count", "3",
                            "--model", "gnp", "--p", "0.001", "--n-min", "12",
                            "--n-max", "12", "--out-dir", str(tmp_path)],
                           capsys)
        assert code == 0
        report = json.loads(out)
        assert report["corpus"] == {
            "sizes": [12, 12, 12],
            "generation_failures": [{"index": i, "n": 12} for i in range(3)]}
        assert all(count == 0 for tally in report["tallies"].values()
                   for count in tally.values())
        assert all(count == 0 for tally in report["majorization"].values()
                   for count in tally.values())
        assert report["violations"] == report["agreement_failures"] == []
        assert list(tmp_path.iterdir()) == []

    def test_validation(self, tmp_path, capsys):
        base = ["fuzz", "--out-dir", str(tmp_path)]
        assert run(base + ["--count", "0"], capsys)[0] == 1
        assert run(base + ["--n-min", "1"], capsys)[0] == 1
        assert run(base + ["--n-min", "9", "--n-max", "5"], capsys)[0] == 1
        assert run(base + ["--p", "0"], capsys)[0] == 1
        assert run(base + ["--p", "1.5"], capsys)[0] == 1


class TestSweepCommand:
    def test_star_range_all_clean(self, capsys):
        code, out, _ = run(["sweep", "--family", "S:3..10"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert {r["graph_id"] for r in rows} == \
            {f"S:{n}" for n in range(3, 11)}
        assert all(r["agreement"] for r in rows)

    def test_complete_range_reports_violations(self, capsys):
        code, out, _ = run(["sweep", "--family", "K:3..6",
                            "--bounds", "KF_NEW,KF_ZT"], capsys)
        assert code == 2
        rows = json.loads(out)
        bad = [r for r in rows if r["verdict"] == "VIOLATED"]
        assert {r["graph_id"] for r in bad} == {"K:4", "K:5", "K:6"}
        assert all(r["bound_id"] == "KF_NEW" for r in bad)

    def test_seeded_family_sweep(self, capsys):
        code, out, _ = run(["sweep", "--family", "TREE:4..8:9",
                            "--bounds", "LEE_TREE", "--format", "csv"],
                           capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 6  # header plus one row per size


class TestOneSolvePerGraph:
    """Every evaluated graph goes through the eigensolver exactly once, and
    its Laplacian is built once, for that solve."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """The n of every Laplacian solved, a stack counting each member."""
        sizes = []
        original = spectra.jacobi_eigenvalues

        def counting(matrix):
            sizes.extend([matrix.n] * matrix.count)
            return original(matrix)

        monkeypatch.setattr(spectra, "jacobi_eigenvalues", counting)
        return sizes

    @pytest.fixture
    def stacks(self, monkeypatch):
        """(stack size, n) of every jacobi_eigenvalues call."""
        calls = []
        original = spectra.jacobi_eigenvalues

        def counting(matrix):
            calls.append((matrix.count, matrix.n))
            return original(matrix)

        monkeypatch.setattr(spectra, "jacobi_eigenvalues", counting)
        return calls

    @pytest.fixture
    def laplacians(self, monkeypatch):
        """The n of every graph whose Laplacian is packed for a solve."""
        sizes = []
        original = spectra._Laplacians.__init__

        def counting(self, graphs):
            sizes.extend(g.n for g in graphs)
            original(self, graphs)

        monkeypatch.setattr(spectra._Laplacians, "__init__", counting)
        return sizes

    @pytest.mark.parametrize("model", ["gnp", "tree", "clique-union"])
    def test_fuzz(self, model, stacks, laplacians, tmp_path, capsys,
                  monkeypatch):
        """Each chunk's graphs are solved as one stack per distinct n."""
        chunk = 7
        monkeypatch.setattr(cli, "FUZZ_CHUNK", chunk)
        code, out, _ = run(["fuzz", "--seed", "7", "--count", "30",
                            "--model", model, "--out-dir", str(tmp_path)],
                           capsys)
        assert code in (0, 2, 3)
        corpus = json.loads(out)["corpus"]
        failed = {f["index"] for f in corpus["generation_failures"]}
        evaluated = [(i, n) for i, n in enumerate(corpus["sizes"])
                     if i not in failed]
        solved = [n for size, n in stacks for _ in range(size)]
        assert sorted(solved) == sorted(n for _, n in evaluated)
        assert sorted(laplacians) == sorted(n for _, n in evaluated)
        per_chunk = Counter((i // chunk, n) for i, n in evaluated)
        assert sorted(stacks) == sorted((size, n)
                                        for (_, n), size in per_chunk.items())

    def test_sweep(self, solves, laplacians, capsys):
        code, out, _ = run(["sweep", "--family", "K:3..8"], capsys)
        assert code in (0, 2, 3)
        assert solves == laplacians == [3, 4, 5, 6, 7, 8]

    def test_check(self, solves, laplacians, capsys):
        code, _, _ = run(["check", "--family", "GNP:12:0.5:1"], capsys)
        assert code in (0, 2, 3)
        assert solves == laplacians == [12]


class TestComponentsOncePerGraph:
    """classify, the spectrum and the G(n, p) connectivity test share one
    connected_components computation per graph object."""

    @pytest.mark.parametrize("model", ["gnp", "tree", "clique-union"])
    def test_fuzz(self, model, tmp_path, capsys, monkeypatch):
        traversed = []
        original = lb.graphs.connected_components

        def counting(g):
            traversed.append(g)
            return original(g)

        for name, module in list(sys.modules.items()):
            if name == "lapbounds" or name.startswith("lapbounds."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        built = []
        original_init = lb.Graph.__init__

        def building(g, *args, **kwargs):
            original_init(g, *args, **kwargs)
            built.append(g)

        # every Graph, whether build_graph checked its edges or a generator
        # constructed it directly
        monkeypatch.setattr(lb.Graph, "__init__", building)
        code, out, _ = run(["fuzz", "--seed", "7", "--count", "30",
                            "--model", model, "--out-dir", str(tmp_path)],
                           capsys)
        assert code in (0, 2, 3)
        assert len({id(g) for g in traversed}) == len(traversed)
        # one per generated graph, every G(n, p) draw included; the
        # complement's components come from complement_components, and no
        # complement graph is built
        assert len(traversed) == len(built)


class TestEdgesDerivedOnlyToPrint:
    """Graph.edges is derived from the masks only where edges are printed:
    never by a sweep or a check, and once for each fuzz graph with a
    VIOLATED verdict or a failed GRONE check."""

    @pytest.fixture
    def derived(self, monkeypatch):
        graphs = []
        original = lb.Graph.edges.func

        def deriving(g):
            graphs.append(g)
            return original(g)

        prop = functools.cached_property(deriving)
        prop.__set_name__(lb.Graph, "edges")
        monkeypatch.setattr(lb.Graph, "edges", prop)
        return graphs

    @pytest.mark.parametrize("argv", [["sweep", "--family", "K:3..64"],
                                      ["check", "--family", "GNP:64:0.5:1"]])
    def test_never_without_a_printed_graph(self, argv, derived, capsys):
        code, _, _ = run(argv, capsys)
        assert code in (0, 2, 3)
        assert derived == []

    def test_once_per_printed_fuzz_graph(self, derived, tmp_path, capsys):
        code, _, _ = run(["fuzz", "--seed", "7", "--count", "100",
                          "--model", "tree", "--out-dir", str(tmp_path)],
                         capsys)
        assert code == 2
        # a counterexample file, <bound or check>_<index>.el, is written for
        # each VIOLATED bound and each failed GRONE check
        printed = {f.stem.rsplit("_", 1)[1] for f in tmp_path.iterdir()}
        assert printed
        assert len({id(g) for g in derived}) == len(derived) == len(printed)


class TestFactsOncePerGraph:
    """GraphContext sorts the degrees and classify traverses the
    complement once per evaluated graph."""

    @pytest.mark.parametrize("model", ["gnp", "tree", "clique-union"])
    def test_fuzz(self, model, tmp_path, capsys, monkeypatch):
        calls = {lb.graphs.degree_sequence: [],
                 lb.graphs.complement_components: []}

        def counting(original):
            def wrapper(g):
                calls[original].append(g)
                return original(g)
            return wrapper

        for name, module in list(sys.modules.items()):
            if name == "lapbounds" or name.startswith("lapbounds."):
                for attr, value in list(vars(module).items()):
                    for original in calls:
                        if value is original:
                            monkeypatch.setattr(module, attr,
                                                counting(original))
        evaluated = []
        original_catalog = cli.evaluate_catalog

        def evaluating(g, *args, **kwargs):
            evaluated.append(g)
            return original_catalog(g, *args, **kwargs)

        monkeypatch.setattr(cli, "evaluate_catalog", evaluating)
        code, _, _ = run(["fuzz", "--seed", "7", "--count", "30",
                          "--model", model, "--out-dir", str(tmp_path)],
                         capsys)
        assert code in (0, 2, 3)
        assert len(evaluated) == 30
        for seen in calls.values():
            assert Counter(map(id, seen)) == Counter(map(id, evaluated))


class TestSequencesOncePerGraph:
    """Each comparison sequence is derived at most once per fuzz graph by
    each of its owners: the catalog's GraphContext, and the check_grone or
    check_grone_merris that the fuzz report runs, which derives its own."""

    @pytest.mark.parametrize("model", ["gnp", "tree", "clique-union"])
    def test_fuzz(self, model, tmp_path, capsys, monkeypatch):
        evaluated = []  # also keeps every graph alive, so no id is reused
        original_catalog = cli.evaluate_catalog

        def evaluating(g, *args, **kwargs):
            evaluated.append(g)
            return original_catalog(g, *args, **kwargs)

        owner = ["catalog"]  # the catalog, or the check that is running
        # (sequence, id of the graph being evaluated, owner)
        calls = Counter()

        def counting(name, original):
            def wrapper(d):
                calls[name, id(evaluated[-1]), owner[-1]] += 1
                return original(d)
            return wrapper

        def checking(check):
            def wrapper(*args):
                owner.append(check.__name__)
                try:
                    return check(*args)
                finally:
                    owner.pop()
            return wrapper

        for name in ("grone_sequence", "merged_grone_sequence",
                     "conjugate_sequence"):
            original = getattr(lb, name)
            for module_name, module in list(sys.modules.items()):
                if (module_name == "lapbounds"
                        or module_name.startswith("lapbounds.")):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr,
                                                counting(name, original))
        for name in ("check_grone", "check_grone_merris"):
            monkeypatch.setattr(cli, name, checking(getattr(cli, name)))
        monkeypatch.setattr(cli, "evaluate_catalog", evaluating)
        code, _, _ = run(["fuzz", "--seed", "7", "--count", "100",
                          "--model", model, "--out-dir", str(tmp_path)],
                         capsys)
        assert code in (0, 2, 3)
        assert len(evaluated) == 100
        assert set(calls.values()) == {1}
        # GRONE_MERRIS runs on every graph, GRONE on every connected one
        connected = [g for g in evaluated if len(g.components) == 1]
        for check, name, graphs in (
                ("check_grone_merris", "conjugate_sequence", evaluated),
                ("check_grone", "grone_sequence", connected)):
            assert {key[:2] for key in calls if key[2] == check} == {
                (name, id(g)) for g in graphs}


class TestNoBareissInCatalog:
    """The catalog takes the tree count from the spectrum; only invariants,
    which prints the exact integer, runs Bareiss elimination."""

    @pytest.fixture
    def bareiss(self, monkeypatch):
        sizes = []
        original = spectra.spanning_trees_exact

        def counting(g):
            sizes.append(g.n)
            return original(g)

        # wrap it wherever a lapbounds module holds it
        for name, module in list(sys.modules.items()):
            if name == "lapbounds" or name.startswith("lapbounds."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        return sizes

    def test_check(self, bareiss, capsys):
        assert run(["check", "--family", "K:8"], capsys)[0] in (0, 2, 3)
        assert bareiss == []

    def test_sweep(self, bareiss, capsys):
        assert run(["sweep", "--family", "K:3..8"], capsys)[0] in (0, 2, 3)
        assert bareiss == []

    @pytest.mark.parametrize("model", ["gnp", "tree"])
    def test_fuzz(self, model, bareiss, tmp_path, capsys):
        code, _, _ = run(["fuzz", "--count", "10", "--model", model,
                          "--out-dir", str(tmp_path)], capsys)
        assert code in (0, 2, 3)
        assert bareiss == []

    def test_invariants_prints_the_exact_count(self, bareiss, capsys):
        code, out, _ = run(["invariants", "--family", "K:8"], capsys)
        assert code == 0
        assert json.loads(out)["spanning_trees"] == str(8 ** 6)
        assert bareiss == [8]


def test_large_fuzz_violation_replays_through_check(tmp_path, capsys):
    """A violation found at n >= 32 reproduces through check --graph."""
    code, out, _ = run(["fuzz", "--seed", "7", "--count", "2",
                        "--model", "tree", "--n-min", "32", "--n-max", "40",
                        "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    violations = json.loads(out)["violations"]
    assert violations and all(v["n"] >= 32 for v in violations)
    for v in violations:
        code, out, _ = run(["check", "--graph", str(tmp_path / v["file"]),
                            "--bounds", v["bound_id"]], capsys)
        assert code == 2
        row, = [r for r in json.loads(out) if r["param"] == v["param"]]
        assert row["verdict"] == "VIOLATED"
        for key in ("lhs", "rhs"):
            assert abs(row[key] - v[key]) <= 1e-12 * max(1.0, abs(v[key]))


class TestFuzzChunks:
    """Fuzz solves each chunk's graphs of one n as a stack; no report bit
    depends on which graphs share a stack."""

    @pytest.mark.parametrize("model", ["gnp", "tree", "clique-union"])
    def test_report_independent_of_chunk_size(self, model, tmp_path, capsys,
                                              monkeypatch):
        outputs = set()
        for chunk in (1, 7, cli.FUZZ_CHUNK):
            monkeypatch.setattr(cli, "FUZZ_CHUNK", chunk)
            out_dir = tmp_path / str(chunk)
            texts = []
            for fmt in ("json", "csv"):
                code, out, _ = run(["fuzz", "--seed", "7", "--count", "40",
                                    "--model", model, "--format", fmt,
                                    "--out-dir", str(out_dir)], capsys)
                texts.append(out)
            files = tuple(sorted((f.name, f.read_bytes())
                                 for f in out_dir.iterdir()))
            outputs.add((code, *texts, files))
        assert len(outputs) == 1

    def test_mixed_chunk_with_failures_keeps_index_order(self, tmp_path,
                                                         capsys, monkeypatch):
        """Chunks that mix n and hold generation failures give their
        records in index order, in JSON and in CSV."""
        monkeypatch.setattr(cli, "FUZZ_CHUNK", 7)
        argv = ["fuzz", "--seed", "7", "--count", "20", "--model", "gnp",
                "--p", "0.07", "--n-min", "4", "--n-max", "16",
                "--out-dir", str(tmp_path)]
        declared = [n for _, _, n, _ in cli._fuzz_instances(cli._parse(argv))]
        assert len(set(declared[:7])) > 1
        _, out, _ = run(argv, capsys)
        report = json.loads(out)
        assert report["corpus"]["sizes"] == declared
        failed = [f["index"] for f in report["corpus"]["generation_failures"]]
        assert failed == [0, 4, 8]
        violated = [v["index"] for v in report["violations"]]
        assert violated and violated == sorted(violated)
        assert not set(violated) & set(failed)
        _, out, _ = run(argv + ["--format", "csv"], capsys)
        rows = [line.split(",", 1)[0] for line in out.splitlines()[1:]]
        indices = list(dict.fromkeys(int(gid[4:]) for gid in rows))
        assert indices == [i for i in range(20) if i not in failed]

    def test_stacked_violation_replays_exactly(self, tmp_path, capsys):
        """A violation solved in a stack gives the same lhs and rhs, to the
        bit, when its graph is checked alone."""
        code, out, _ = run(["fuzz", "--seed", "7", "--count", "30",
                            "--model", "tree", "--out-dir", str(tmp_path)],
                           capsys)
        assert code == 2
        report = json.loads(out)
        sizes = report["corpus"]["sizes"]
        stacked = [v for v in report["violations"]
                   if v["n"] <= 12 and sizes.count(v["n"]) > 1]
        assert stacked
        for v in stacked:
            code, out, _ = run(["check", "--graph", str(tmp_path / v["file"]),
                                "--bounds", v["bound_id"]], capsys)
            row, = [r for r in json.loads(out) if r["param"] == v["param"]]
            assert (row["lhs"], row["rhs"]) == (v["lhs"], v["rhs"])


class TestLiveGraphsBounded:
    """At every spectra_of call no more graphs are alive than it solves: a
    chunk's graphs are built, solved and dropped before the next chunk's are
    built."""

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--seed", "7", "--count", "100"],
        ["sweep", "--family", "K:3..20"],
    ])
    def test_live_graphs_within_stack(self, argv, tmp_path, capsys,
                                      monkeypatch):
        built = []
        original_init = lb.Graph.__init__

        def building(g, *args, **kwargs):
            original_init(g, *args, **kwargs)
            built.append(weakref.ref(g))

        # every Graph, whether build_graph checked its edges or a generator
        # constructed it directly
        monkeypatch.setattr(lb.Graph, "__init__", building)
        monkeypatch.setattr(cli, "FUZZ_CHUNK", 7)  # several chunks a run
        calls = []
        original = cli.spectra_of

        def solving(graphs):
            calls.append((sum(ref() is not None for ref in built),
                          len(graphs)))
            return original(graphs)

        monkeypatch.setattr(cli, "spectra_of", solving)
        if argv[0] == "fuzz":
            argv = argv + ["--out-dir", str(tmp_path)]
        code, _, _ = run(argv, capsys)
        assert code in (0, 2, 3)
        assert calls
        assert [(live, stack) for live, stack in calls if live > stack] == []


class TestReportsPinned:
    """The float-free part of each report is pinned across refactors.

    The digests were recorded with the per-command loops that preceded the
    shared pipeline. lhs, rhs and margin stay out: their last digits may
    move when the arithmetic is reordered; verdicts, tallies, counterexample
    names and contents may not.
    """

    ROW_KEYS = ("graph_id", "bound_id", "param", "verdict",
                "predicted_equality", "agreement")

    def _projection(self, argv, tmp_path, capsys):
        fuzz = argv[0] == "fuzz"
        out_dir = tmp_path / "cex"
        extra = ["--out-dir", str(out_dir)] if fuzz else []
        code, out, _ = run(argv + extra + ["--format", "csv"], capsys)
        rows = [[row[key] for key in self.ROW_KEYS]
                for row in csv.DictReader(io.StringIO(out))]
        doc = {"code": code, "rows": rows}
        if fuzz:
            json_code, out, _ = run(argv + extra, capsys)
            report = json.loads(out)
            doc.update(
                json_code=json_code,
                tallies=report["tallies"],
                majorization=report["majorization"],
                sizes=report["corpus"]["sizes"],
                generation_failures=report["corpus"]["generation_failures"],
                violations=[[v["index"], v["bound_id"], v["param"], v["file"]]
                            for v in report["violations"]],
                files=sorted([f.name, f.read_text()]
                             for f in out_dir.iterdir()))
        text = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("argv, digest", [
        (["check", "--family", "K:4"],
         "16db90faeff12963f15c27a5101df8ce4366add16e3fd26ceba1e93dc04b8671"),
        (["sweep", "--family", "TREE:4..12:9"],
         "be285f8b70300c9bfd740967f6d7ddabaf3fab867c05b32d243f4e8adff42ae4"),
        (["fuzz", "--seed", "7", "--count", "60", "--model", "gnp"],
         "3a0dcf113b304b04a286dc1ddac9c1a561c0c42438b35898e89859fdb647c236"),
        (["fuzz", "--seed", "7", "--count", "60", "--model", "tree"],
         "3810bbf070dc0e1b2bb007dd1eeefd1cc008c403323573c6f0aaf4927371837c"),
        (["fuzz", "--seed", "7", "--count", "60", "--model", "clique-union"],
         "c74befc4213c601c247833968952398eb43dd5272944bb2d6b8ed5e0ad7f4aba"),
    ])
    def test_projection_digest(self, argv, digest, tmp_path, capsys):
        assert self._projection(argv, tmp_path, capsys) == digest


def _in_order(fields):
    """Dicts with the keys of fields in their order (fixed_dictionaries
    does not keep it), each value drawn from its strategy."""
    return st.fixed_dictionaries(fields).map(
        lambda d: {key: d[key] for key in fields})


class TestRowsToJson:
    """Reports are encoded from the records by templates and json's C
    encoder, and still read exactly as json.dumps(indent=2) and csv.writer
    read with each row or violation entry a dict."""

    AWKWARD = st.sampled_from([
        '"', "\\", "\n", "},\n    {", '"},\n    {"', "{", "}", "{}", "[\n  ",
        "caf\u00e9 \u2211 \U0001f600", "%", "%s", "%%", "%(x)s", ", ",
        "], [", '", "', '"], ["', '"violations": []', 'caf\u00e9 "x", {y}.el'])
    STRINGS = st.text() | AWKWARD
    NUMBERS = st.one_of(
        st.none(), st.floats(),
        st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))
    RESULTS = st.builds(
        BoundResult, bound_id=STRINGS,
        param=st.one_of(st.none(), st.integers(), st.floats()),
        applicable=st.booleans(), lhs=NUMBERS, rhs=NUMBERS, margin=NUMBERS,
        verdict=STRINGS, predicted_equality=st.booleans(),
        agreement=st.booleans())
    RECORDS = st.builds(
        cli._Record, index=st.integers(min_value=0),
        graph_id=STRINGS, n=st.integers(min_value=1),
        m=st.integers(min_value=0), results=st.lists(RESULTS, max_size=5))

    @staticmethod
    def _report(fmt, records):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._report(argparse.Namespace(format=fmt), records)
        return out.getvalue()

    @given(st.lists(RECORDS, max_size=4))
    @example([])
    @example([cli._Record(0, "", 1, 0, [])])
    @settings(max_examples=200)
    def test_matches_indent_2(self, records):
        rows = [{"graph_id": rec.graph_id, "n": rec.n, "m": rec.m,
                 **r._asdict()} for rec in records for r in rec.results]
        assert self._report("json", records) == json.dumps(
            rows, indent=2) + "\n"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([("true" if cell else "false")
                          if isinstance(cell, bool) else cell
                          for cell in row.values()] for row in rows)
        assert self._report("csv", records) == buf.getvalue()

    GRAPHS = st.integers(1, 7).flatmap(lambda n: st.builds(
        lb.build_graph, st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .filter(lambda e: e[0] != e[1]), max_size=12)))
    ENTRIES = st.lists(st.tuples(
        STRINGS, RESULTS.map(lambda r: r.param),
        NUMBERS, NUMBERS, NUMBERS), min_size=1, max_size=4)
    COUNTS = st.integers(min_value=0)
    FLOATS = st.floats() | st.sampled_from([-0.0, math.nan, math.inf,
                                            -math.inf])
    DOCUMENTS = _in_order({
        "config": _in_order({
            "seed": st.integers(), "count": COUNTS, "model": STRINGS,
            "p": FLOATS, "n_min": COUNTS, "n_max": COUNTS,
            "alphas": st.lists(FLOATS, max_size=4),
            "ks": st.lists(st.integers(min_value=1), max_size=4),
            "strict_applicability": st.booleans(),
            "bounds": st.lists(STRINGS, max_size=4)}),
        "corpus": _in_order({
            "sizes": st.lists(COUNTS, max_size=4),
            "generation_failures": st.lists(
                _in_order({"index": COUNTS, "n": COUNTS}), max_size=2)}),
        "tallies": st.dictionaries(STRINGS, _in_order(dict.fromkeys(
            ("holds", "equality", "violated", "not_applicable"), COUNTS)),
            max_size=4),
        "majorization": st.dictionaries(STRINGS, _in_order(dict.fromkeys(
            ("holds", "fails", "skipped"), COUNTS)), max_size=2),
        "violations": st.just([]),
        "agreement_failures": st.lists(_in_order({
            "index": COUNTS, "graph_id": STRINGS, "bound_id": STRINGS,
            "param": RESULTS.map(lambda r: r.param),
            "verdict": st.sampled_from(VERDICTS),
            "predicted_equality": st.booleans()}), max_size=3),
    })

    @given(DOCUMENTS, st.lists(st.tuples(st.integers(min_value=0), STRINGS,
                                         GRAPHS, ENTRIES), max_size=4))
    @settings(max_examples=100)
    def test_fuzz_document_matches_indent_2(self, doc, graphs):
        """A fuzz report of the CLI's shape, every key of it, with drawn
        strings (model, bound lists, graph ids), numbers and counts, and
        drawn violation entries, their bound ids and file names any string,
        which _record turns into JSON text."""
        texts, entries = [], []
        for index, graph_id, g, drawn in graphs:
            cells = [(bid, param, lhs, rhs, margin, f"{bid}_{index}.el")
                     for bid, param, lhs, rhs, margin in drawn]
            texts.append(cli._json_violations(index, graph_id, g, cells))
            edges = [list(e) for e in g.edges]
            entries.extend({
                "index": index, "graph_id": graph_id, "bound_id": bid,
                "param": param, "lhs": lhs, "rhs": rhs, "margin": margin,
                "n": g.n, "m": g.m, "edges": edges, "file": fname,
            } for bid, param, lhs, rhs, margin, fname in cells)
        assert cli._json_fuzz({**doc, "violations": texts}) == json.dumps(
            {**doc, "violations": entries}, indent=2)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "K:3..12"],
        ["sweep", "--family", "S:3..8"],
        ["sweep", "--family", "GNP:5..9:0.5:3"],
        ["check", "--family", "K:4"],
        ["fuzz", "--seed", "7", "--count", "100", "--model", "gnp"],
        ["fuzz", "--seed", "7", "--count", "100", "--model", "tree"],
        ["fuzz", "--seed", "7", "--count", "100", "--model", "clique-union"],
        ["fuzz", "--seed", "7", "--count", "3", "--p", "0.001",
         "--n-min", "12", "--n-max", "12"],
    ])
    def test_cli_reports(self, argv, tmp_path, capsys):
        if argv[0] == "fuzz":
            argv = argv + ["--out-dir", str(tmp_path)]
        code, out, _ = run(argv, capsys)
        assert code in (0, 2, 3)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestRowReportsSkipThePythonEncoder:
    """json.dumps(indent=2) runs json.encoder's pure-Python _make_iterencode;
    row reports and the fuzz report, written from templates, must not. Only
    the invariants document, one small document a process, still does."""

    @pytest.fixture
    def iterencodes(self, monkeypatch):
        """The object each pure-Python encoding is given."""
        encoded = []
        original = json.encoder._make_iterencode

        def counting(*args, **kwargs):
            iterencode = original(*args, **kwargs)

            def recording(o, level):
                encoded.append(o)
                return iterencode(o, level)
            return recording

        monkeypatch.setattr(json.encoder, "_make_iterencode", counting)
        return encoded

    @pytest.mark.parametrize("argv", [
        ["check", "--family", "K:4"],
        ["sweep", "--family", "K:3..12"],
        ["sweep", "--family", "GNP:5..9:0.5:3"],
    ])
    def test_row_reports(self, argv, iterencodes, capsys):
        assert run(argv, capsys)[0] in (0, 2, 3)
        assert iterencodes == []

    @pytest.mark.parametrize("fmt, calls", [("json", 0), ("csv", 0)])
    def test_fuzz(self, fmt, calls, iterencodes, tmp_path, capsys):
        """Neither fuzz report, with its violation entries (4 at the
        default seed), goes through the pure-Python encoder."""
        code, out, _ = run(["fuzz", "--count", "10", "--format", fmt,
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert len(iterencodes) == calls
        if fmt == "json":
            assert len(json.loads(out)["violations"]) == 4

    def test_invariants_document(self, iterencodes, capsys):
        assert run(["invariants", "--family", "K:5"], capsys)[0] == 0
        assert len(iterencodes) == 1

    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "K:3..64"],
        ["check", "--family", "GNP:64:0.5:1"],
    ])
    def test_no_row_dicts(self, argv, monkeypatch, capsys):
        """No row becomes a dict on its way into the report."""
        calls = []
        original = BoundResult._asdict

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(BoundResult, "_asdict", counting)
        code, out, _ = run(argv, capsys)
        assert code in (0, 2, 3)
        assert json.loads(out)
        assert calls == []


class TestExitCodeLogic:
    def _result(self, verdict, agreement):
        return BoundResult(bound_id="KF_ZT", param=None, applicable=True,
                           lhs=1.0, rhs=1.0, margin=0.0, verdict=verdict,
                           predicted_equality=False, agreement=agreement)

    def test_violated_beats_agreement(self):
        results = [self._result("VIOLATED", False),
                   self._result("HOLDS", True)]
        assert _exit_code(results) == 2

    def test_agreement_failure_alone_is_three(self):
        results = [self._result("EQUALITY", False),
                   self._result("HOLDS", True)]
        assert _exit_code(results) == 3

    def test_clean_is_zero(self):
        assert _exit_code([self._result("HOLDS", True)]) == 0


class TestConsoleEntry:
    def test_module_invocation(self):
        # the child imports the package from the same source directory as
        # this process, installed or not
        src = str(Path(lb.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src + (os.pathsep + path if path else "")}
        proc = subprocess.run(
            [sys.executable, "-m", "lapbounds.cli", "check",
             "--family", "S:4"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)


# Imports the package from argv[1], runs main on every argv of the JSON list
# argv[2] with the reports discarded, and prints the watched modules that were
# not loaded before the import but are loaded after it, and after each call.
_NUMPY_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import lapbounds.cli as cli
def loaded():
    return [name for name in ("numpy", "subprocess", "dataclasses", "inspect",
                              "csv", "argparse", "gettext")
            if name in sys.modules.keys() - before]
print("import", loaded())
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(argv[0], code, loaded())
"""


def _probe(argvs: list) -> list[str]:
    src = str(Path(lb.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, src, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


class TestNumpyOffThePath:
    """No subcommand imports numpy, and loading the cached library imports
    no build module. Importing the CLI loads neither dataclasses, inspect,
    argparse nor gettext, and only a CSV report loads csv."""

    def test_import_loads_none_of_them(self):
        assert _probe([]) == ["import []"]

    def test_every_subcommand_runs_without_numpy(self, tmp_path):
        spectra._library()  # builds the cached library the probe loads
        out = str(tmp_path / "out")
        argvs = [["invariants", "--family", "GNP:12:0.5:1"]]
        for fmt in ("json", "csv"):  # every JSON call before the first CSV one
            argvs += [["check", "--family", "S:9", "--format", fmt],
                      ["sweep", "--family", "K:3..10", "--format", fmt]]
            argvs += [["fuzz", "--model", model, "--seed", "7", "--count",
                       "12", "--format", fmt, "--out-dir", out]
                      for model in ("gnp", "tree", "clique-union")]
        lines = _probe(argvs)
        assert lines[0] == "import []"
        assert [line.split(" ", 2)[2] for line in lines[1:]] == [
            "['csv']" if "csv" in argv else "[]" for argv in argvs]
        assert [line.split(" ", 1)[0] for line in lines[1:]] == \
            [argv[0] for argv in argvs]


def _mostly(valid, invalid):
    """valid, or invalid about one time in eight."""
    return st.integers(min_value=0, max_value=7).flatmap(
        lambda i: invalid if i == 3 else valid)


_SMALL_N = _mostly(st.integers(min_value=1, max_value=9),
                   st.sampled_from([0, MAX_N, MAX_N + 1, 100]))
_N_SLOT = _SMALL_N.map(str) | st.tuples(_SMALL_N, _SMALL_N).map(
    lambda ab: f"{min(ab)}..{max(ab)}" if ab[0] % 5 else f"{ab[0]}..{ab[1]}")
_SEED = st.integers(min_value=0, max_value=2 ** 64).map(str)
_FAMILY = _mostly(st.one_of(
    st.tuples(st.sampled_from(["K", "S", "P", "C", "Kme"]), _N_SLOT),
    st.tuples(st.just("Kab"), _SMALL_N.map(str), _SMALL_N.map(str)),
    st.tuples(st.just("TREE"), _N_SLOT, _SEED),
    st.tuples(st.just("GNP"), _N_SLOT,
              _mostly(st.sampled_from(["0.5", "1.0", "0.3"]),
                      st.sampled_from(["0.001", "0", "1.5", "x"])),
              _SEED),
    st.tuples(st.just("CLIQUES"), st.lists(
        st.integers(min_value=0, max_value=6).map(str), min_size=1,
        max_size=3).map(",".join)),
).map(":".join), st.text(alphabet="KSPCGNTREab:.,0123456789x- ",
                         max_size=12))
_ALPHAS = st.lists(_mostly(
    st.sampled_from(["0.5", "-0.5", "2", "1e-9", "-1e-9", "0.999999",
                     "1.000001", "10", "-10", "200", "-200", "1e300",
                     "-1e300"]),
    st.sampled_from(["0", "1", "nan", "inf", "x"])),
    min_size=1, max_size=3).map(",".join)
_KS = st.lists(_mostly(st.sampled_from(["1", "2", "7", "100", "100000"]),
                       st.sampled_from(["0", "-1", "x"])),
               min_size=1, max_size=3).map(",".join)
_BOUNDS = st.lists(_mostly(st.sampled_from(BOUND_IDS),
                           st.just("NO_SUCH_BOUND")),
                   min_size=1, max_size=3).map(",".join)
# values that argparse reads apart: "--" alone, which it drops, and values
# with a leading "-", which it takes as a flag unless they follow "="
_DASHED = st.sampled_from(["--", "-", "-1", "-0.5", "-2,-1", "-x", "--ks"])


@st.composite
def _option(draw, flag, values, dashed=True):
    """flag and a value drawn from values, as "flag value" or "flag=value";
    with dashed, the value is sometimes one of _DASHED instead."""
    value = draw(_mostly(values, _DASHED) if dashed else values)
    return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]


@st.composite
def _graph_file(draw):
    """An edge-list file: a header and edge lines, one of which is
    sometimes replaced by a malformed line."""
    n = draw(_SMALL_N)
    pairs = [f"{u} {v}" for u in range(min(n, 9)) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)
                 if pairs else st.just([]))
    lines = [f"{n} {len(edges)}", *edges]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        lines[draw(st.integers(min_value=0, max_value=len(lines) - 1))] = \
            draw(st.sampled_from(["0 0", "9 0", "x y", "0", "-1 2", "2 1 0",
                                  "", "# note", "1000000000 0"]))
    return "\n".join(lines) + "\n"


@st.composite
def _cli_argv(draw):
    """An argv from the CLI's grammar, valid or not, and the text of the
    --graph file it names, if any."""
    command = draw(_mostly(st.sampled_from(["check", "invariants", "sweep",
                                            "fuzz"]), st.just("nonsense")))
    argv, graph = [command], None
    if command in ("check", "invariants"):
        if draw(st.booleans()):
            argv += draw(_option("--family", _FAMILY))
        else:
            graph = draw(_graph_file())
            argv += draw(_option("--graph", st.just("GRAPH"), dashed=False))
    elif command == "sweep":
        argv += draw(_option("--family", _FAMILY))
    elif command == "fuzz":
        low, high = sorted(draw(st.tuples(_SMALL_N, _SMALL_N)))
        for flag, values in [
                ("--count", _mostly(st.integers(1, 3), st.integers(-1, 0))),
                ("--seed", _SEED),
                ("--model", _mostly(st.sampled_from(
                    ["gnp", "tree", "clique-union"]), st.just("x"))),
                ("--p", _mostly(st.sampled_from(["0.5", "1", "0.2"]),
                                st.sampled_from(["0.001", "0", "2"]))),
                ("--n-min", st.just(max(low, 2))),
                ("--n-max", st.just(high))]:
            argv += draw(_option(flag, values.map(str)))
        # no dashed value here: "--out-dir=-x" would write to the cwd
        argv += draw(_option("--out-dir", st.just("OUT"), dashed=False))
    if draw(st.booleans()):
        argv += draw(_option("--alphas", _ALPHAS))
    if draw(st.booleans()):
        argv += draw(_option("--ks", _KS))
    if command != "invariants":
        if draw(st.booleans()):
            argv += draw(_option("--bounds", _BOUNDS))
        if draw(st.booleans()):
            argv.append("--strict-applicability")
    if draw(st.booleans()):
        argv += draw(_option("--format", _mostly(
            st.sampled_from(["json", "csv"]), st.just("xml"))))
    if draw(_mostly(st.just(False), st.just(True))):  # a lone "--"
        argv.insert(draw(st.integers(1, len(argv))), "--")
    return argv, graph


def _in_dir(template, root):
    """template with GRAPH and OUT, alone or after "--flag=", replaced by
    the paths of graph.txt and out in root."""
    paths = {"GRAPH": str(root / "graph.txt"), "OUT": str(root / "out")}
    return [flag + eq + paths.get(value, value)
            for flag, eq, value in (a.rpartition("=") for a in template)]


class TestCliContract:
    """Nothing the CLI accepts ends in a traceback: every argv from its
    grammar exits 0, 1, 2 or 3, an exit 1 says why on one error line or
    with a usage message, and a second run gives the same bytes."""

    @staticmethod
    def _run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def _tree(root):
        return sorted((str(p.relative_to(root)), p.read_bytes())
                      for p in root.rglob("*") if p.is_file())

    @given(_cli_argv())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_exit_codes_errors_and_repeatability(self, drawn):
        template, graph = drawn
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "graph.txt").write_text(graph or "")
            argv = _in_dir(template, root)
            runs = []
            for _ in range(2):
                runs.append((self._run(argv), self._tree(root / "out")))
                shutil.rmtree(root / "out", ignore_errors=True)
        (code, out, err), _ = runs[0]
        assert code in (0, 1, 2, 3), (argv, err)
        if code == 1:
            lines = err.splitlines()
            assert (len(lines) == 1 and lines[0].startswith("error: ")
                    or err.startswith("usage: ")
                    and ": error: " in lines[-1]), (argv, err)
        assert runs[1] == runs[0], argv

    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "K:3", "--alphas=--"],
        ["check", "--family", "K:4", "--bounds=--"],
        ["sweep", "--family=--"],
        ["fuzz", "--count", "1", "--p=--"],
        ["fuzz", "--count", "1", "--model=--"],
    ], ids=" ".join)
    def test_an_option_given_as_eq_dashdash_has_no_value(self, argv,
                                                         capsys, tmp_path,
                                                         monkeypatch):
        # argparse drops the "--", which would leave the option holding []
        monkeypatch.chdir(tmp_path)  # where fuzz would write counterexamples
        code, out, err = run(argv, capsys)
        flag = next(a for a in argv if a.endswith("=--"))[:-3]
        assert (code, out) == (1, "")
        assert err.startswith("usage: ")
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"lapbounds {argv[0]}: error: argument {flag}: expected one "
            "argument"]


def _full_parse(argv):
    return cli.build_parser().parse_args(argv)


class TestOneSubcommandParser:
    """A call whose argv[0] names a subcommand is read from its option
    table, or else by the full parser, and gives the bytes the full parser
    gives: the same exit code, stdout, stderr and --out-dir tree for every
    argv."""

    EDGE_ARGVS = [
        [], ["-h"], ["--he"], ["bogus"],
        ["--", "fuzz", "--count", "1", "--out-dir", "OUT"],
        ["--x", "fuzz", "-h"], ["-h", "fuzz"],
        ["fuzz", "--bogus"], ["fuzz", "extra"], ["fuzz", "--", "extra"],
        ["fuzz", "--cou", "1", "--out-dir", "OUT"],
        ["sweep", "--fam", "K:3"], ["sweep", "--family", "K:3", "a", "--b"],
        ["sweep"], ["check"], ["check", "--family"],
        ["check", "--family", "K:4", "--graph", "GRAPH"],
        ["invariants", "-h"], ["check", "--help"], ["fuzz", "-h"],
        ["sweep", "--he"],
        ["invariants", "--family", f"K:{MAX_N + 1}"],
        ["sweep", "--family", f"K:3..{MAX_N + 1}"],
        ["check", "--graph", "GRAPH"],
        ["fuzz", "--count", "0", "--out-dir", "OUT"],
        ["fuzz", "--count", "x"], ["fuzz", "--model", "x"],
        ["fuzz", "--n-min", "1", "--out-dir", "OUT"],
        ["fuzz", "--p", "2", "--out-dir", "OUT"],
        ["check", "--family", "K:4", "--format", "xml"],
        ["fuzz", "--seed", "7", "--count", "20", "--out-dir", "OUT"],
        # where the option reader hands argv over to argparse, or not
        ["sweep", "--family", "K:3", "--alphas", "-2,-1"],
        ["sweep", "--family", "K:3", "--alphas=-2,-1"],
        ["fuzz", "--count", "2", "--p", "-0.5", "--out-dir", "OUT"],
        ["check", "--family", "K:4", "--alphas", "-2, -1"],
        ["sweep", "--family", "-K:4"],
        ["check", "--family", "K:4", "--strict-applicability=1"],
        ["sweep", "--family", "K:3", "--bounds="],
        ["check", "--family", ""],
        ["fuzz", "--count=2", "--out-dir=OUT"],
        ["fuzz", "--seed", "1", "--seed", "2", "--count", "2",
         "--out-dir", "OUT"],
        ["sweep", "--family=K:4", "--family", "K:5"],
        ["fuzz", "--count", " 3", "--out-dir", "OUT"],
        ["fuzz", "--count", "3_0", "--n-max", "5", "--out-dir", "OUT"],
        ["fuzz", "--count", "2", "--p", "nan", "--out-dir", "OUT"],
        ["fuzz", "--count", "2", "--p", "1e-3", "--n-max", "5",
         "--out-dir", "OUT"],
        ["sweep", "--alphas", "2"],
        ["sweep", "--family", "K:3", "--alphas=--"],
        ["check", "--family", "K:4", "--bounds=--"],
        ["sweep", "--family=--"],
        ["fuzz", "--count", "1", "--p=--", "--out-dir", "OUT"],
        ["fuzz", "--count", "1", "--model=--", "--out-dir", "OUT"],
        ["fuzz", "--count", "1", "--out-dir=--"],
        ["sweep", "--family", "K:3", "--alphas", "--"],
        ["sweep", "--family", "K:3", "--alphas", "--", "2"],
        ["fuzz", "--count", "2", "--p=-0.5", "--out-dir", "OUT"],
    ]

    @staticmethod
    def _both_paths(template, graph):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "graph.txt").write_text(graph or "")
            argv = _in_dir(template, root)
            runs = []
            for call in (main, functools.partial(cli._run, _full_parse)):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = call(argv)
                runs.append((code, out.getvalue(), err.getvalue(),
                             TestCliContract._tree(root / "out")))
                shutil.rmtree(root / "out", ignore_errors=True)
        return runs

    @given(_cli_argv())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_drawn_argv_as_the_full_parser_reads_it(self, drawn):
        shortcut, full = self._both_paths(*drawn)
        assert shortcut == full, drawn

    @pytest.mark.parametrize("argv", EDGE_ARGVS, ids=" ".join)
    def test_edge_argv_as_the_full_parser_reads_it(self, argv):
        shortcut, full = self._both_paths(argv, f"{MAX_N + 1} 0\n")
        assert shortcut == full

    @pytest.fixture
    def progs(self, monkeypatch):
        """The prog of each parser the CLI constructs, in order: each
        parser of the class that cli defines, not those of other code."""
        progs = []
        original = argparse.ArgumentParser.__init__

        def init(parser, *args, **kwargs):
            if type(parser).__module__ == cli.__name__:
                progs.append(kwargs.get("prog"))
            original(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
        return progs

    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "K:3"],
        ["check", "--family", "K:4"],
        ["fuzz", "--seed", "7", "--count", "3", "--out-dir", "OUT"],
        pytest.param(["sweep", "--family", "K:3", "--alphas=-2,-1"],
                     id="sweep --alphas=-2,-1"),
    ], ids=lambda argv: argv[0])
    def test_a_valid_call_builds_one_parser(self, argv, progs, tmp_path,
                                            capsys):
        """Not even one: the option reader takes a valid call."""
        argv = [str(tmp_path) if a == "OUT" else a for a in argv]
        assert run(argv, capsys)[0] in (0, 2, 3)
        assert progs == []

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--cou", "1", "--out-dir", "OUT"],
        ["sweep", "--fam", "K:3"],
        ["fuzz", "-h"],
    ], ids=" ".join)
    def test_a_refused_call_builds_the_full_parser(self, argv, progs,
                                                   tmp_path, capsys):
        """What the option reader refuses goes to the full parser, which
        builds every subcommand's parser, and to no parser of its own."""
        argv = [str(tmp_path) if a == "OUT" else a for a in argv]
        assert run(argv, capsys)[0] == 0
        assert progs == ["lapbounds", "lapbounds invariants",
                         "lapbounds check", "lapbounds fuzz",
                         "lapbounds sweep"]

    def test_a_usage_error_builds_the_top_level_parser(self, progs, tmp_path,
                                                       capsys):
        code, out, err = run(["fuzz", "--count", "0", "--out-dir",
                              str(tmp_path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage: lapbounds [-h] {invariants,check,"
                              "fuzz,sweep} ...\n")
        assert err.endswith("lapbounds: error: --count must be >= 1\n")
        assert progs[:1] == ["lapbounds"]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "K:3"],
        ["check", "--family", "K:4"],
        ["fuzz", "--seed", "7", "--count", "3", "--out-dir", "OUT"],
    ], ids=lambda argv: argv[0])
    def test_cyclic_garbage_of_a_call_is_bounded(self, argv, tmp_path,
                                                 capsys):
        # argparse's parsers and formatters, and the closures of json's
        # pure-Python encoder, are reference cycles that only the collector
        # frees: 46, 51 and 109 objects on Python 3.11 when each call built
        # its subcommand's parser and the fuzz report went through
        # json.dumps(indent=2); a valid call now runs neither
        argv = [str(tmp_path) if a == "OUT" else a for a in argv]
        main(argv)  # first-call imports and caches are not per-call garbage
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            main(argv)
            gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        capsys.readouterr()
        assert garbage == 0

    # the exit code and the sha256 of the help text (stdout) or the usage
    # error (stderr) of each argv, as Python 3.11's argparse prints them
    # 80 columns wide
    SURFACE = {
        "-h": (0, "1fad9d31f8a2312175d4937dbc5bd084"
                  "028c504bbe58bd8132510311ed67d412"),
        "invariants -h": (0, "e3f9523b2465c3c8300cf6c0bbba6a46"
                             "85b51348f515e683634c54f6bd01ee15"),
        "check -h": (0, "2fe672b686e2f259ee9f526844b9a583"
                        "524004e8df4340109c4484deb1d88d2b"),
        "fuzz -h": (0, "3e43952fc4c5cf52244a506908eb7922"
                       "765f6af13cfeb6a217692b97b0f8b479"),
        "sweep -h": (0, "dfae50787c6d343cdadb7c41e5b41e82"
                        "2682d97690bef10073007700e313808c"),
        "fuzz --count x": (1, "23218b9d0c49a06b69626e5a7b4c7418"
                              "35b7e6bfc3c198f1c6fba8ca47905944"),
        "fuzz --model x": (1, "47a49e8fe180d60ab8a46205fcb1affe"
                              "7937a3b4bfc80fc2e91fd994f1565e9d"),
        "sweep": (1, "ab4508a17fab7912032e0001de29f847"
                     "bc13c72a191542b679618bf7b51bd2f2"),
    }

    @pytest.mark.parametrize("command", SURFACE)
    def test_help_and_usage_errors_are_pinned(self, command, monkeypatch,
                                              capsys):
        """Both paths read one option table, so comparing them cannot catch
        a changed option or help string; the help texts and usage errors
        are pinned instead."""
        code, digest = self.SURFACE[command]
        monkeypatch.setenv("COLUMNS", "80")
        got, out, err = run(command.split(), capsys)
        assert got == code
        text = out if code == 0 else err
        assert hashlib.sha256(text.encode()).hexdigest() == digest
