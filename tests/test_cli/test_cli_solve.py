"""Tests for the unified `solve` and `engines` CLI subcommands."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.graph.builders import paper_example_graph
from repro.graph.io import write_edge_list


@pytest.fixture
def paper_files(tmp_path):
    graph = paper_example_graph()
    edge_path = tmp_path / "g.edges"
    attr_path = tmp_path / "g.attrs"
    write_edge_list(graph, edge_path, attr_path)
    return str(edge_path), str(attr_path)


class TestSolveCommand:
    def test_solve_relative_exact(self, paper_files, capsys):
        edges, attrs = paper_files
        exit_code = main([
            "solve", "--edges", edges, "--attributes", attrs,
            "-k", "3", "--delta", "1",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "size=7" in out
        assert "relative/exact" in out
        assert "attribute balance" in out

    @pytest.mark.parametrize("model", ["weak", "strong", "multi_weak"])
    def test_solve_delta_free_models(self, paper_files, capsys, model):
        edges, attrs = paper_files
        exit_code = main([
            "solve", "--edges", edges, "--attributes", attrs,
            "--model", model, "-k", "2",
        ])
        assert exit_code == 0
        assert f"{model}/exact" in capsys.readouterr().out

    def test_solve_heuristic_engine(self, paper_files, capsys):
        edges, attrs = paper_files
        exit_code = main([
            "solve", "--edges", edges, "--attributes", attrs,
            "--engine", "heuristic", "-k", "3", "--delta", "1",
        ])
        assert exit_code == 0
        assert "HeurRFC" in capsys.readouterr().out

    def test_solve_multi_weak_heuristic_now_supported(self, paper_files, capsys):
        # The FairnessModel layer promoted the round-robin greedy to a
        # registered heuristic engine for multi_weak.
        edges, attrs = paper_files
        exit_code = main([
            "solve", "--edges", edges, "--attributes", attrs,
            "--model", "multi_weak", "--engine", "heuristic", "-k", "2",
        ])
        assert exit_code == 0
        assert "GreedyMW" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["solve", "explain"])
    def test_kernel_storage_flag_is_gone(self, command, paper_files, capsys):
        """The kernel has one storage, so there is no flag to choose it."""
        edges, attrs = paper_files
        with pytest.raises(SystemExit) as excinfo:
            main([
                command, "--edges", edges, "--attributes", attrs,
                "-k", "3", "--delta", "1", "--kernel-backend", "int",
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --kernel-backend int" in err
        assert "Traceback" not in err

    def test_solve_unknown_engine_fails_fast(self, paper_files, capsys):
        edges, attrs = paper_files
        with pytest.raises(SystemExit) as excinfo:
            main([
                "solve", "--edges", edges, "--attributes", attrs,
                "--model", "multi_weak", "--engine", "quantum", "-k", "2",
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'quantum'" in err
        assert "Traceback" not in err

    def test_solve_delta_on_delta_free_model_rejected(self, paper_files, capsys):
        edges, attrs = paper_files
        exit_code = main([
            "solve", "--edges", edges, "--attributes", attrs,
            "--model", "weak", "-k", "2", "--delta", "1",
        ])
        assert exit_code == 2
        assert "does not take a delta" in capsys.readouterr().err

    def test_solve_relative_requires_delta(self, paper_files, capsys):
        edges, attrs = paper_files
        exit_code = main([
            "solve", "--edges", edges, "--attributes", attrs, "-k", "2",
        ])
        assert exit_code == 2
        assert "requires a delta" in capsys.readouterr().err

    def test_solve_sweep_delta(self, paper_files, capsys):
        edges, attrs = paper_files
        exit_code = main([
            "solve", "--edges", edges, "--attributes", attrs,
            "-k", "3", "--sweep", "delta", "--sweep-values", "0", "1", "2",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "sweep over delta" in out
        # The paper example: sizes 6 (delta=0) and 7 (delta>=1).
        assert "6" in out and "7" in out

    def test_solve_exact_flags_rejected_on_other_engines(self, paper_files, capsys):
        edges, attrs = paper_files
        exit_code = main([
            "solve", "--edges", edges, "--attributes", attrs,
            "--engine", "heuristic", "-k", "3", "--delta", "1", "--no-heuristic",
        ])
        assert exit_code == 2
        assert "does not understand option" in capsys.readouterr().err

    def test_solve_sweep_rejects_report(self, paper_files, tmp_path):
        edges, attrs = paper_files
        with pytest.raises(SystemExit, match="not supported with --sweep"):
            main([
                "solve", "--edges", edges, "--attributes", attrs,
                "-k", "3", "--sweep", "delta", "--sweep-values", "0", "1",
                "--report", str(tmp_path / "out.txt"),
            ])

    def test_solve_sweep_requires_values(self, paper_files):
        edges, attrs = paper_files
        with pytest.raises(SystemExit):
            main([
                "solve", "--edges", edges, "--attributes", attrs,
                "-k", "3", "--delta", "1", "--sweep", "k",
            ])

    def test_solve_writes_report(self, paper_files, tmp_path, capsys):
        edges, attrs = paper_files
        report_path = tmp_path / "clique.txt"
        main([
            "solve", "--edges", edges, "--attributes", attrs,
            "-k", "3", "--delta", "1", "--report", str(report_path),
        ])
        assert report_path.exists()
        assert "size 7" in report_path.read_text()

    def test_solve_infeasible(self, paper_files, capsys):
        edges, attrs = paper_files
        main([
            "solve", "--edges", edges, "--attributes", attrs,
            "-k", "7", "--delta", "0",
        ])
        assert "no relative fair clique" in capsys.readouterr().out


class TestEnginesCommand:
    def test_engines_listing(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for engine in ("exact", "heuristic", "brute_force"):
            assert engine in out
        assert "multi_weak" in out
