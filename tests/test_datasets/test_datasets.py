"""Tests for the dataset registry and the case-study graphs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets.case_studies import (
    CASE_STUDIES,
    build_case_study_graph,
    case_study_names,
    get_case_study,
)
from repro.datasets.registry import (
    DATASETS,
    GENERATED_ATTRIBUTE_DATASETS,
    REAL_ATTRIBUTE_DATASETS,
    dataset_names,
    dataset_table,
    get_dataset,
    load_dataset,
)
from repro.exceptions import DatasetError
from repro.graph.validation import graph_supports_fair_clique
from repro.search.maxrfc import find_maximum_fair_clique
from repro.search.verification import is_relative_fair_clique


class TestRegistry:
    def test_six_datasets_registered(self):
        assert len(dataset_names()) == 6
        assert set(GENERATED_ATTRIBUTE_DATASETS) | set(REAL_ATTRIBUTE_DATASETS) == set(DATASETS)

    def test_lookup_case_insensitive(self):
        assert get_dataset("aminer").name == "Aminer"
        with pytest.raises(DatasetError):
            get_dataset("NotADataset")

    def test_invalid_scale_rejected(self):
        with pytest.raises(DatasetError):
            load_dataset("Themarker", scale=0)

    @pytest.mark.parametrize("name", dataset_names())
    def test_every_dataset_loads_and_is_binary_attributed(self, name):
        graph = load_dataset(name, scale=0.25)
        assert graph.num_vertices > 0
        assert graph.num_edges > 0
        assert len(graph.attribute_values()) == 2

    @pytest.mark.parametrize("name", dataset_names())
    def test_default_parameters_are_feasible(self, name):
        spec = get_dataset(name)
        graph = spec.load(scale=0.25)
        assert spec.default_k in spec.k_values
        assert graph_supports_fair_clique(graph, spec.default_k, spec.default_delta)

    def test_generation_is_deterministic(self):
        first = load_dataset("DBLP", scale=0.25)
        second = load_dataset("DBLP", scale=0.25)
        assert first.num_vertices == second.num_vertices
        assert first.num_edges == second.num_edges

    def test_scale_monotone(self):
        small = load_dataset("Google", scale=0.2)
        large = load_dataset("Google", scale=0.5)
        assert large.num_vertices > small.num_vertices

    def test_dataset_table_rows(self):
        rows = dataset_table(scale=0.2, names=["Themarker", "Aminer"])
        assert [row["dataset"] for row in rows] == ["Themarker", "Aminer"]
        assert all(row["n"] > 0 and row["m"] > 0 for row in rows)

    def test_aminer_uses_gender_like_attributes(self):
        graph = load_dataset("Aminer", scale=0.25)
        assert set(graph.attribute_values()) == {"female", "male"}

    @pytest.mark.parametrize("name", dataset_names())
    def test_fair_clique_exists_at_default_parameters(self, name):
        spec = get_dataset(name)
        graph = spec.load(scale=0.4)
        result = find_maximum_fair_clique(graph, spec.default_k, spec.default_delta,
                                          time_limit=60.0)
        assert result.size >= 2 * spec.default_k
        assert is_relative_fair_clique(graph, result.clique,
                                       spec.default_k, spec.default_delta)


class TestCaseStudies:
    def test_four_case_studies(self):
        assert set(case_study_names()) == {"Aminer", "DBAI", "NBA", "IMDB"}
        assert len(CASE_STUDIES) == 4

    def test_lookup(self):
        assert get_case_study("nba").attribute_a == "US"
        with pytest.raises(KeyError):
            get_case_study("Unknown")

    @pytest.mark.parametrize("name", case_study_names())
    def test_graphs_have_labels_and_binary_attributes(self, name):
        spec = get_case_study(name)
        graph = build_case_study_graph(name)
        assert set(graph.attribute_values()) == {spec.attribute_a, spec.attribute_b}
        for vertex in list(graph.vertices())[:5]:
            assert graph.label(vertex)

    @pytest.mark.parametrize("name", case_study_names())
    def test_flagship_team_is_recovered(self, name):
        spec = get_case_study(name)
        graph = build_case_study_graph(name)
        result = find_maximum_fair_clique(graph, spec.k, spec.delta, time_limit=60.0)
        assert result.size == spec.expected_team_size
        assert is_relative_fair_clique(graph, result.clique, spec.k, spec.delta)

    def test_graphs_do_not_depend_on_the_hash_seed(self):
        # str hashes are salted per process; the graphs must not follow them.
        script = (
            "import json\n"
            "from repro.datasets.case_studies import build_case_study_graph, case_study_names\n"
            "out = {}\n"
            "for name in case_study_names():\n"
            "    g = build_case_study_graph(name)\n"
            "    out[name] = [\n"
            "        sorted((v, g.attribute(v), g.label(v)) for v in g.vertices()),\n"
            "        sorted(sorted(e) for e in g.edges()),\n"
            "    ]\n"
            "print(json.dumps(out))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        builds = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            )
            builds.append(json.loads(done.stdout))
        assert builds[0] == builds[1]
        assert set(builds[0]) == set(case_study_names())

    @pytest.mark.parametrize("name", case_study_names())
    def test_raw_maximum_clique_is_not_fair(self, name):
        """The case-study graphs plant a larger unbalanced clique on purpose."""
        from repro.baselines.bron_kerbosch import maximum_clique

        spec = get_case_study(name)
        graph = build_case_study_graph(name)
        raw = maximum_clique(graph)
        assert len(raw) > spec.expected_team_size
        assert not is_relative_fair_clique(graph, raw, spec.k, spec.delta)
