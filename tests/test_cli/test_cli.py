"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.graph.builders import paper_example_graph
from repro.graph.io import write_edge_list


class TestSearchCommand:
    def test_search_on_edge_list(self, tmp_path, capsys):
        graph = paper_example_graph()
        edge_path = tmp_path / "g.edges"
        attr_path = tmp_path / "g.attrs"
        write_edge_list(graph, edge_path, attr_path)
        exit_code = main([
            "search", "--edges", str(edge_path), "--attributes", str(attr_path),
            "-k", "3", "--delta", "1",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "size=7" in captured
        assert "attribute balance" in captured

    def test_search_writes_report(self, tmp_path, capsys):
        graph = paper_example_graph()
        edge_path = tmp_path / "g.edges"
        attr_path = tmp_path / "g.attrs"
        report_path = tmp_path / "clique.txt"
        write_edge_list(graph, edge_path, attr_path)
        main([
            "search", "--edges", str(edge_path), "--attributes", str(attr_path),
            "-k", "3", "--delta", "1", "--report", str(report_path),
        ])
        assert report_path.exists()
        assert "size 7" in report_path.read_text()

    def test_search_infeasible_parameters(self, tmp_path, capsys):
        graph = paper_example_graph()
        edge_path = tmp_path / "g.edges"
        attr_path = tmp_path / "g.attrs"
        write_edge_list(graph, edge_path, attr_path)
        main([
            "search", "--edges", str(edge_path), "--attributes", str(attr_path),
            "-k", "7", "--delta", "0",
        ])
        assert "no relative fair clique" in capsys.readouterr().out

    def test_search_requires_attributes_with_edges(self, tmp_path):
        edge_path = tmp_path / "g.edges"
        edge_path.write_text("1 2\n")
        with pytest.raises(SystemExit):
            main(["search", "--edges", str(edge_path), "-k", "2", "--delta", "1"])

    def test_search_on_dataset_without_bounds(self, capsys):
        exit_code = main([
            "search", "--dataset", "Aminer", "--scale", "0.2",
            "-k", "4", "--delta", "2", "--bound", "none", "--no-heuristic",
        ])
        assert exit_code == 0
        assert "MaxRFC" in capsys.readouterr().out


class TestOtherCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("Themarker", "Google", "DBLP", "Flixster", "Pokec", "Aminer"):
            assert name in out

    def test_reduce_on_dataset(self, capsys):
        assert main(["reduce", "--dataset", "DBLP", "--scale", "0.2", "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "EnColorfulSup" in out

    def test_reproduce_fig5_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        assert main(["reproduce", "fig5", "--scale", "0.2", "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        assert "dataset" in csv_path.read_text().splitlines()[0]
        assert "Fig. 4 / Fig. 5" in capsys.readouterr().out

    def test_reproduce_fig9_prints_its_report(self, capsys):
        # Fig. 9 rows vary the sample fraction, not k: no runtime chart.
        assert main(["reproduce", "fig9", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "fraction" in out
        assert "runtime (log-scale bars)" not in out

    def test_reproduce_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "fig99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
