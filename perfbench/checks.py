"""Answer checks that do not trust the program under test.

Every delivered answer is checked here, between answers, with the
harness clock paused: it must be new (no duplicate fill set), its fill
must consist of non-edges of the input, and input plus fill must be
chordal.  Chordality is decided by a maximum-cardinality search and a
perfect-elimination check written here from the textbook
(Tarjan & Yannakakis 1984), not by the program's own recogniser.

Minimality is the expensive part, so it is checked through the
program's ``Triangulation.is_minimal`` on a fixed sample per graph.
Exhaustive cases compare the answer set against a recorded digest.
"""

from __future__ import annotations

import hashlib
import json


def adjacency(nodes, edges) -> dict:
    """Plain ``{node: set(neighbours)}`` for ``nodes`` and ``edges``."""
    adj = {node: set() for node in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_chordal(adj: dict) -> bool:
    """Maximum cardinality search, then the perfect-elimination test."""
    weight = {node: 0 for node in adj}
    buckets: list[set] = [set(adj)]
    order = []
    numbered: dict = {}
    top = 0
    for position in range(len(adj)):
        while top and not buckets[top]:
            top -= 1
        node = buckets[top].pop()
        numbered[node] = position
        order.append(node)
        for other in adj[node]:
            if other in numbered:
                continue
            w = weight[other]
            buckets[w].discard(other)
            weight[other] = w + 1
            if w + 1 == len(buckets):
                buckets.append(set())
            buckets[w + 1].add(other)
            top = max(top, w + 1)
    # ``order`` reversed is a PEO iff the graph is chordal: for each
    # node, its earlier-numbered neighbours minus the latest of them
    # must be adjacent to that latest one.
    for node in order:
        earlier = [u for u in adj[node] if numbered[u] < numbered[node]]
        if len(earlier) < 2:
            continue
        parent = max(earlier, key=numbered.__getitem__)
        if not all(u == parent or u in adj[parent] for u in earlier):
            return False
    return True


def answer_key(fill_edges) -> bytes:
    """A compact identity for one answer (its canonical fill set)."""
    text = json.dumps(sorted(sorted(map(str, edge)) for edge in fill_edges))
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


def set_digest(keys) -> str:
    """Order-independent digest of an answer set (sorted answer keys)."""
    digest = hashlib.sha256()
    for key in sorted(keys):
        digest.update(key)
    return digest.hexdigest()


class AnswerChecker:
    """Checks the answers of one graph as they arrive."""

    def __init__(self, nodes, edges) -> None:
        self._adj = adjacency(nodes, edges)
        self.keys: set[bytes] = set()
        self.failures: list[str] = []

    def check(self, fill_edges) -> bool:
        """Record and validate one answer; returns False on any failure."""
        key = answer_key(fill_edges)
        problem = None
        if key in self.keys:
            problem = "duplicate answer"
        self.keys.add(key)
        if problem is None:
            problem = self._fill_problem(fill_edges)
        if problem is not None:
            self.failures.append(problem)
            return False
        return True

    def _fill_problem(self, fill_edges) -> str | None:
        base = self._adj
        filled = {node: set(neigh) for node, neigh in base.items()}
        for u, v in fill_edges:
            if u == v or u not in base or v not in base:
                return f"fill edge {u!r}-{v!r} is not a pair of input nodes"
            if v in base[u]:
                return f"fill edge {u!r}-{v!r} is already an input edge"
            if v in filled[u]:
                return f"fill edge {u!r}-{v!r} is listed twice"
            filled[u].add(v)
            filled[v].add(u)
        if not is_chordal(filled):
            return "input plus fill is not chordal"
        return None
