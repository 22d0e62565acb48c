"""Tests for the graph file format and the command-line harness."""

import json
import os
from pathlib import Path

import pytest

from powergraph.cli import main
from powergraph.errors import ParseError
from powergraph.graph import Graph
from powergraph.graphio import (
    format_graph,
    read_graph,
    read_sidecar,
    write_graph,
)

from test_graph import complete, cycle, path


def run_cli(capsys, *argv):
    """Invoke the CLI in-process; returns (exit_code, stdout_text)."""
    code = main(list(argv))
    return code, capsys.readouterr().out


def write_text(tmp_path, name, text):
    target = tmp_path / name
    target.write_text(text)
    return str(target)


class TestGraphFormat:
    def test_round_trip_unweighted(self, tmp_path):
        g = cycle(7)
        fname = str(tmp_path / "c7.graph")
        write_graph(g, fname)
        back = read_graph(fname)
        assert back.n == g.n
        assert sorted(back.edges()) == sorted(g.edges())
        assert back.weights is None

    def test_round_trip_weighted_rationals(self, tmp_path):
        from fractions import Fraction

        weights = {0: Fraction(3), 1: Fraction(1, 2), 2: Fraction(7, 3)}
        g = Graph(3, [(0, 1), (1, 2)], weights=weights)
        fname = str(tmp_path / "w.graph")
        write_graph(g, fname)
        back = read_graph(fname)
        assert back.weights == weights
        # a second round trip is byte-identical
        assert format_graph(back) == format_graph(g)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        fname = write_text(
            tmp_path, "g.graph", "c hello\n\np 2 1\nc mid\ne 0 1\n"
        )
        g = read_graph(fname)
        assert (g.n, g.m) == (2, 1)

    @pytest.mark.parametrize("text,lineno", [
        ("e 0 1\np 2 1\n", 1),              # edge before header
        ("p 2 1\np 2 1\ne 0 1\n", 2),       # duplicate header
        ("p 2 1\ne 0 2\n", 2),              # out of range
        ("p 2 1\ne 1 1\n", 2),              # self loop
        ("p 2 2\ne 0 1\ne 1 0\n", 3),       # duplicate edge
        ("p 2 1\nw 0 3\ne 0 1\n", 2),       # weight in unweighted graph
        ("p 2 1 weighted\nw 0 x\n", 2),     # malformed weight
        ("p two 1\n", 1),                   # non-integer header
    ])
    def test_parse_errors_carry_line_numbers(self, tmp_path, text, lineno):
        fname = write_text(tmp_path, "bad.graph", text)
        with pytest.raises(ParseError) as err:
            read_graph(fname)
        assert err.value.line == lineno

    def test_edge_count_mismatch(self, tmp_path):
        fname = write_text(tmp_path, "bad.graph", "p 3 2\ne 0 1\n")
        with pytest.raises(ParseError, match="declares 2"):
            read_graph(fname)

    def test_missing_weight(self, tmp_path):
        fname = write_text(
            tmp_path, "bad.graph", "p 2 1 weighted\nw 0 1\ne 0 1\n"
        )
        with pytest.raises(ParseError, match="missing weight"):
            read_graph(fname)


class TestGenRandom:
    def test_gnp_connected_and_deterministic(self, capsys):
        code, out1 = run_cli(capsys, "gen", "random", "--model", "gnp",
                             "--n", "9", "--p", "1/3", "--seed", "5")
        assert code == 0
        _, out2 = run_cli(capsys, "gen", "random", "--model", "gnp",
                          "--n", "9", "--p", "1/3", "--seed", "5")
        assert out1 == out2

    def test_gnp_output_file_is_connected(self, tmp_path, capsys):
        fname = str(tmp_path / "g.graph")
        code, out = run_cli(capsys, "gen", "random", "--model", "gnp",
                            "--n", "12", "--p", "0.3", "--seed", "1",
                            "--output", fname)
        assert code == 0 and out == ""
        g = read_graph(fname)
        assert g.n == 12 and g.is_connected()

    def test_tree_has_n_minus_1_edges(self, tmp_path, capsys):
        fname = str(tmp_path / "t.graph")
        run_cli(capsys, "gen", "random", "--model", "tree", "--n", "10",
                "--seed", "3", "--output", fname)
        g = read_graph(fname)
        assert g.m == g.n - 1 and g.is_connected()

    def test_weights_flag(self, tmp_path, capsys):
        fname = str(tmp_path / "w.graph")
        run_cli(capsys, "gen", "random", "--model", "tree", "--n", "6",
                "--seed", "0", "--weights", "9", "--output", fname)
        g = read_graph(fname)
        assert g.weights is not None
        assert all(1 <= w <= 9 for w in g.weights.values())

    def test_bad_n_is_error_record(self, capsys):
        code, out = run_cli(capsys, "gen", "random", "--model", "tree",
                            "--n", "0")
        assert code == 1
        record = json.loads(out)
        assert record["error"] == "InputError"


class TestRun:
    @pytest.fixture()
    def c5_file(self, tmp_path):
        fname = str(tmp_path / "c5.graph")
        write_graph(cycle(5), fname)
        return fname

    def test_mvc_eps_on_cycle(self, c5_file, capsys):
        code, out = run_cli(capsys, "run", "--algo", "g2mvc-eps",
                            "--input", c5_file, "--eps", "1/2", "--with-opt")
        assert code == 0
        report = json.loads(out)
        # C5 squared is K5, so the optimum 2-hop cover has 4 vertices
        assert report["value"] == 4
        assert report["opt"] == 4
        assert report["ratio"] == 1.0
        assert report["feasible"] is True
        assert report["model"] == "congest"
        assert report["rounds"] > 0

    def test_reports_match_schema(self, c5_file, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        import importlib.resources as resources

        schema = json.loads(
            resources.files("powergraph").joinpath("report_schema.json")
            .read_text()
        )
        invocations = [
            ("run", "--algo", "g2mvc-eps", "--input", c5_file,
             "--eps", "1/3", "--with-opt", "--timing"),
            ("run", "--algo", "g2mds-logd", "--input", c5_file),
            ("run", "--algo", "g2mvc-cc", "--input", c5_file, "--eps", "1"),
            ("run", "--algo", "g2mvc-trivial", "--input", c5_file),
            ("run", "--algo", "exact-mds2", "--input", c5_file, "--with-opt"),
        ]
        for argv in invocations:
            code, out = run_cli(capsys, *argv)
            assert code == 0, out
            jsonschema.validate(json.loads(out), schema)

    def test_byte_identical_repeat(self, c5_file, capsys):
        argv = ("run", "--algo", "g2mds-logd", "--input", c5_file,
                "--seed", "7", "--with-opt")
        _, out1 = run_cli(capsys, *argv)
        _, out2 = run_cli(capsys, *argv)
        assert out1 == out2

    def test_eps_required(self, c5_file, capsys):
        code, out = run_cli(capsys, "run", "--algo", "g2mvc-eps",
                            "--input", c5_file)
        assert code == 1
        assert json.loads(out)["error"] == "InputError"

    def test_bad_eps(self, c5_file, capsys):
        code, out = run_cli(capsys, "run", "--algo", "g2mvc-eps",
                            "--input", c5_file, "--eps", "0")
        assert code == 1
        assert json.loads(out)["error"] == "InputError"

    def test_model_mismatch(self, c5_file, capsys):
        code, out = run_cli(capsys, "run", "--algo", "g2mvc-cc",
                            "--input", c5_file, "--eps", "1/2",
                            "--model", "congest")
        assert code == 1
        assert json.loads(out)["error"] == "InputError"

    def test_missing_input_file(self, capsys):
        code, out = run_cli(capsys, "run", "--algo", "g2mvc-53",
                            "--input", "/nonexistent/g.graph")
        assert code == 1
        record = json.loads(out)
        assert record["error"] == "FileNotFoundError"

    def test_parse_error_becomes_record(self, tmp_path, capsys):
        fname = write_text(tmp_path, "bad.graph", "p 2 1\ne 0 9\n")
        code, out = run_cli(capsys, "run", "--algo", "g2mvc-53",
                            "--input", fname)
        assert code == 1
        assert json.loads(out)["error"] == "ParseError"

    @pytest.mark.parametrize("cap", ["abc", "0"])
    def test_bad_round_cap_env_is_one_record(self, c5_file, capsys,
                                             monkeypatch, cap):
        monkeypatch.setenv("POWERGRAPH_ROUND_CAP", cap)
        code = main(["run", "--algo", "g2mvc-eps", "--input", c5_file,
                     "--eps", "1/2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "InputError"
        assert "POWERGRAPH_ROUND_CAP" in record["message"]

    def test_timing_only_when_requested(self, c5_file, capsys):
        _, plain = run_cli(capsys, "run", "--algo", "exact-mvc2",
                           "--input", c5_file)
        _, timed = run_cli(capsys, "run", "--algo", "exact-mvc2",
                           "--input", c5_file, "--timing")
        assert "wall_ms" not in json.loads(plain)
        assert "wall_ms" in json.loads(timed)


class TestVerify:
    def test_infeasible_pair_on_cycle_square(self, tmp_path, capsys):
        gfile = str(tmp_path / "c5.graph")
        write_graph(cycle(5), gfile)
        sfile = write_text(tmp_path, "sol.txt", "0 2\n")
        code, out = run_cli(capsys, "verify", "--input", gfile,
                            "--solution", sfile, "--kind", "vc2")
        assert code == 0
        report = json.loads(out)
        assert report["feasible"] is False
        assert report["size"] == 2

    def test_feasible_single_dominator(self, tmp_path, capsys):
        gfile = str(tmp_path / "p3.graph")
        write_graph(path(3), gfile)
        sfile = write_text(tmp_path, "sol.txt", "1\n")
        code, out = run_cli(capsys, "verify", "--input", gfile,
                            "--solution", sfile, "--kind", "ds2")
        report = json.loads(out)
        assert code == 0 and report["feasible"] is True

    def test_weighted_value(self, tmp_path, capsys):
        from fractions import Fraction

        g = Graph(3, [(0, 1), (1, 2)],
                  weights={0: Fraction(2), 1: Fraction(5), 2: Fraction(1)})
        gfile = str(tmp_path / "w.graph")
        write_graph(g, gfile)
        sfile = write_text(tmp_path, "sol.txt", "1\n")
        _, out = run_cli(capsys, "verify", "--input", gfile,
                         "--solution", sfile, "--kind", "vc2")
        assert json.loads(out)["value"] == 5

    def test_garbage_solution_file(self, tmp_path, capsys):
        gfile = str(tmp_path / "k3.graph")
        write_graph(complete(3), gfile)
        sfile = write_text(tmp_path, "sol.txt", "zero one\n")
        code, out = run_cli(capsys, "verify", "--input", gfile,
                            "--solution", sfile, "--kind", "vc2")
        assert code == 1
        assert json.loads(out)["error"] == "InputError"


class TestGenLb:
    def test_mvc_base_writes_graph_and_sidecar(self, tmp_path, capsys):
        fname = str(tmp_path / "lb.graph")
        code, out = run_cli(capsys, "gen", "lb", "--family", "mvc-base",
                            "--k", "2", "--x", "3", "--y", "5",
                            "--output", fname)
        assert code == 0 and out == ""
        g = read_graph(fname)
        assert g.n == 16
        sidecar = read_sidecar(fname + ".json")
        assert sidecar["family"] == "MVC-BASE"
        assert sidecar["x"] == "1100"
        assert set(sidecar["partition"]) == {"a", "b"}
        names = sidecar["names"]
        assert len(names) == g.n

    def test_approx_family_via_cli(self, tmp_path, capsys):
        fname = str(tmp_path / "lb.graph")
        code, _ = run_cli(capsys, "gen", "lb", "--family", "mwds-sq-approx",
                          "-T", "2", "--x", "1", "--y", "2",
                          "--output", fname)
        assert code == 0
        g = read_graph(fname)
        assert g.weights is not None
        sidecar = read_sidecar(fname + ".json")
        assert sidecar["thresholds"]["problem"] == "ds"

    def test_deterministic_outputs(self, tmp_path, capsys):
        f1 = str(tmp_path / "a.graph")
        f2 = str(tmp_path / "b.graph")
        argv = ("gen", "lb", "--family", "mds-sq-approx", "-T", "2",
                "--x", "9", "--y", "6", "--seed", "4")
        run_cli(capsys, *argv, "--output", f1)
        run_cli(capsys, *argv, "--output", f2)
        assert Path(f1).read_text() == Path(f2).read_text()
        assert Path(f1 + ".json").read_text() == Path(f2 + ".json").read_text()

    def test_requires_output(self, capsys):
        code, out = run_cli(capsys, "gen", "lb", "--family", "mvc-base",
                            "--k", "2", "--x", "0", "--y", "0")
        assert code == 1
        assert json.loads(out)["error"] == "InputError"

    def test_hex_out_of_range(self, tmp_path, capsys):
        code, out = run_cli(capsys, "gen", "lb", "--family", "mvc-base",
                            "--k", "2", "--x", "10", "--y", "0",
                            "--output", str(tmp_path / "x.graph"))
        assert code == 1
        assert json.loads(out)["error"] == "InputError"

    def test_k_required_for_base_families(self, tmp_path, capsys):
        code, out = run_cli(capsys, "gen", "lb", "--family", "mds-base",
                            "--x", "0", "--y", "0",
                            "--output", str(tmp_path / "x.graph"))
        assert code == 1
        assert json.loads(out)["error"] == "InputError"


class TestSweep:
    def test_acceptance_suite_shape_and_determinism(self, capsys):
        code, out1 = run_cli(capsys, "sweep", "--suite", "acceptance")
        assert code == 0
        _, out2 = run_cli(capsys, "sweep", "--suite", "acceptance")
        assert out1 == out2
        lines = out1.strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "algo" and "ratio" in header
        # 3 seeds x 9 algorithms
        assert len(lines) == 1 + 27
        for line in lines[1:]:
            assert ",False," not in line  # every run feasible

    def test_acceptance_suite_matches_golden(self, capsys):
        # rounds, messages and bits are the simulated cost: refactors keep them
        golden = os.path.join(os.path.dirname(__file__), "data",
                              "acceptance_sweep.csv")
        with open(golden, encoding="utf-8", newline="") as fh:
            expected = fh.read()
        code, out = run_cli(capsys, "sweep", "--suite", "acceptance")
        assert code == 0
        assert out == expected

    def test_unknown_suite(self, capsys):
        code, out = run_cli(capsys, "sweep", "--suite", "nope")
        assert code == 1
        assert json.loads(out)["error"] == "InputError"
