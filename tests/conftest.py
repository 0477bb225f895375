"""Shared fixtures: one small resolved dataset reused across test modules.

Session scope keeps the suite fast — the resolver runs once, and the
dozens of tests over its output (entities, pedigree graph, indices,
queries) share it read-only.
"""

from __future__ import annotations

import pytest

from repro.core import SnapsConfig, SnapsResolver
from repro.data.synthetic import make_tiny_dataset
from repro.pedigree import build_pedigree_graph
from repro.query import QueryEngine


@pytest.fixture(scope="session")
def tiny_dataset():
    """A deterministic ~400-record dataset with complete ground truth."""
    return make_tiny_dataset(seed=3)


@pytest.fixture(scope="session")
def resolved_tiny(tiny_dataset):
    """The tiny dataset resolved by the default SNAPS pipeline."""
    return SnapsResolver(SnapsConfig()).resolve(tiny_dataset)


@pytest.fixture(scope="session")
def tiny_pedigree_graph(tiny_dataset, resolved_tiny):
    """Pedigree graph built from the resolved tiny dataset."""
    return build_pedigree_graph(tiny_dataset, resolved_tiny.entities)


@pytest.fixture(scope="session")
def tiny_query_engine(tiny_pedigree_graph):
    """Query engine over the tiny pedigree graph."""
    return QueryEngine(tiny_pedigree_graph)


@pytest.fixture()
def pool_cpus(monkeypatch):
    """Make the box look like 4 CPUs, so multi-worker runs use a real
    fork pool even on a one-core machine (pool-only behaviour: worker
    crashes, hangs, cross-process telemetry)."""
    monkeypatch.setenv("SNAPS_CPUS", "4")
