"""Labelled case-study graphs (Section VI-C).

The paper closes with four case studies — Aminer (gender), DBAI (DB vs. AI
researchers), NBA (U.S. vs. overseas players), and IMDB (senior vs. junior
film artists) — showing that the maximum relative fair clique found with
``k = 5``, ``delta = 3`` is a large, well-connected, attribute-balanced team.

The original graphs are built from proprietary or large public dumps; the
stand-ins here are small labelled graphs with a planted "flagship team"
(a fair clique of realistic size and balance), a few overlapping smaller
collaborations, and background noise.  They exercise exactly the same code
path: the search must dig the balanced team out of a graph whose raw maximum
clique is *not* fair.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from repro.graph.attributed_graph import AttributedGraph


@dataclass(frozen=True)
class CaseStudySpec:
    """Metadata for one case study."""

    name: str
    attribute_a: str
    attribute_b: str
    description: str
    expected_team_size: int
    k: int = 5
    delta: int = 3


CASE_STUDIES: dict[str, CaseStudySpec] = {
    "Aminer": CaseStudySpec(
        name="Aminer",
        attribute_a="male",
        attribute_b="female",
        description="HCI research collaboration with balanced gender representation",
        expected_team_size=29,
    ),
    "DBAI": CaseStudySpec(
        name="DBAI",
        attribute_a="DB",
        attribute_b="AI",
        description="Researchers spanning databases and artificial intelligence",
        expected_team_size=20,
    ),
    "NBA": CaseStudySpec(
        name="NBA",
        attribute_a="US",
        attribute_b="Overseas",
        description="NBA players mixing U.S. and international stars",
        expected_team_size=12,
    ),
    "IMDB": CaseStudySpec(
        name="IMDB",
        attribute_a="Senior",
        attribute_b="Junior",
        description="Film production team mixing senior and junior artists",
        expected_team_size=10,
        # The paper reports a 6 senior + 4 junior team for k = 5, which the
        # relative-fair-clique definition itself would reject (4 < k); the
        # stand-in keeps the 6+4 team and lowers k to 4 so the reported team
        # is actually feasible under Definition 1.
        k=4,
    ),
}


def _team_labels(prefix: str, count: int) -> list[str]:
    return [f"{prefix} {index + 1}" for index in range(count)]


def build_case_study_graph(name: str, seed: int = 0) -> AttributedGraph:
    """Build the labelled stand-in graph for one case study.

    The graph contains:

    * the *flagship team*: a clique whose attribute split matches the paper's
      reported maximum fair clique for that case study (e.g. 13 + 16 for
      Aminer, 7 + 5 for NBA);
    * one larger but *unbalanced* clique, so the plain maximum clique is not a
      valid fair clique and the fairness machinery actually matters;
    * several small collaborations overlapping the flagship team;
    * random background vertices and edges.
    """
    spec = get_case_study(name)
    # crc32, not hash(): str hashes are salted per process (PYTHONHASHSEED).
    rng = random.Random(seed + zlib.crc32(spec.name.encode()) % 1000)
    graph = AttributedGraph()
    next_id = 0

    def add_member(attribute: str, label: str) -> int:
        nonlocal next_id
        graph.add_vertex(next_id, attribute, label=label)
        next_id += 1
        return next_id - 1

    splits = {
        "Aminer": (13, 16),
        "DBAI": (9, 11),
        "NBA": (7, 5),
        "IMDB": (6, 4),
    }
    count_a, count_b = splits[spec.name]

    flagship: list[int] = []
    for label in _team_labels(f"{spec.attribute_a} member", count_a):
        flagship.append(add_member(spec.attribute_a, label))
    for label in _team_labels(f"{spec.attribute_b} member", count_b):
        flagship.append(add_member(spec.attribute_b, label))
    for i, u in enumerate(flagship):
        for v in flagship[i + 1:]:
            graph.add_edge(u, v)

    # A larger but one-sided clique: tempting for a plain max-clique solver,
    # useless for the fair model (too few members of the other attribute).
    unbalanced: list[int] = []
    for label in _team_labels(f"{spec.attribute_a} insider", count_a + count_b + 2):
        unbalanced.append(add_member(spec.attribute_a, label))
    for label in _team_labels(f"{spec.attribute_b} guest", max(1, spec.k - 2)):
        unbalanced.append(add_member(spec.attribute_b, label))
    for i, u in enumerate(unbalanced):
        for v in unbalanced[i + 1:]:
            graph.add_edge(u, v)

    # Small overlapping collaborations around the flagship team.
    for _ in range(6):
        core = rng.sample(flagship, 3)
        extras = []
        for index in range(rng.randint(2, 4)):
            attribute = spec.attribute_a if index % 2 == 0 else spec.attribute_b
            extras.append(add_member(attribute, f"{spec.name} collaborator {next_id}"))
        members = core + extras
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if not graph.has_edge(u, v):
                    graph.add_edge(u, v)

    # Sparse background noise.
    background: list[int] = []
    for index in range(40):
        attribute = spec.attribute_a if rng.random() < 0.5 else spec.attribute_b
        background.append(add_member(attribute, f"{spec.name} background {index}"))
    population = background + flagship + unbalanced
    for vertex in background:
        for target in rng.sample(population, 4):
            if vertex != target and not graph.has_edge(vertex, target):
                graph.add_edge(vertex, target)
    return graph


def get_case_study(name: str) -> CaseStudySpec:
    """Look up a case-study spec by (case-insensitive) name."""
    for key, spec in CASE_STUDIES.items():
        if key.lower() == name.lower():
            return spec
    raise KeyError(f"unknown case study {name!r}; available: {sorted(CASE_STUDIES)}")


def case_study_names() -> tuple[str, ...]:
    """Names of the four case studies in paper order."""
    return tuple(CASE_STUDIES)
