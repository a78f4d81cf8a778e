"""Importable test helpers (graph corpora and comparison utilities).

Kept outside ``conftest.py`` on purpose: test modules import these by
name (``from helpers import …``), and importing from a ``conftest``
module is fragile — when several rootdir trees each carry a
``conftest.py`` (tests/, benchmarks/), whichever is imported first
wins the module name and shadows the other's helpers.
"""

from __future__ import annotations

import contextlib
import importlib
import random
from unittest import mock

from repro.graph.generators import gnp_random_graph, random_chordal_graph
from repro.graph.graph import Graph


def small_random_graphs(count: int, max_nodes: int = 8, seed: int = 99) -> list[Graph]:
    """A deterministic corpus of small random graphs for oracle tests."""
    rng = random.Random(seed)
    graphs = []
    for index in range(count):
        n = rng.randint(3, max_nodes)
        p = rng.choice([0.2, 0.35, 0.5, 0.7])
        graphs.append(gnp_random_graph(n, p, seed=seed * 1000 + index))
    return graphs


def small_chordal_graphs(count: int, max_nodes: int = 12, seed: int = 7) -> list[Graph]:
    """A deterministic corpus of small chordal graphs."""
    rng = random.Random(seed)
    graphs = []
    for index in range(count):
        n = rng.randint(2, max_nodes)
        density = rng.choice([0.2, 0.4, 0.7, 1.0])
        graphs.append(random_chordal_graph(n, density, seed=seed * 131 + index))
    return graphs


def edge_set(graph: Graph) -> set[frozenset]:
    """Edges as a set of frozensets (order-free comparison helper)."""
    return set(graph.edge_set())


#: Modules that pick a fused native step through ``fused_kernels()``.
FUSED_USERS = (
    "repro.core.extend",
    "repro.chordal.minimal_separators",
    "repro.sgr.separator_graph",
    "repro.engine.coordinator",
)


@contextlib.contextmanager
def int_mask_path():
    """Run Extend, separator generation and answer materialisation on
    their int-mask oracles, as ``REPRO_NATIVE_DISABLE=1`` does."""
    with contextlib.ExitStack() as stack:
        for name in FUSED_USERS:
            stack.enter_context(
                mock.patch.object(
                    importlib.import_module(name), "fused_kernels", lambda: None
                )
            )
        yield
