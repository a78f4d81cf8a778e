"""Graph substrate: data structure, connectivity, generators and I/O.

The substrate is two-tier: the label-based :class:`Graph` façade over
the integer-indexed bitset :class:`IndexedGraph` core (see
:mod:`repro.graph.core`), with a :class:`NodeInterner` translating user
labels to dense vertex indices at the API boundary.
"""

from repro.graph.components import (
    component_of,
    components_without,
    connected_components,
    full_components,
    is_connected,
    is_separator,
    separates,
)
from repro.graph.core import IndexedGraph, NodeInterner, bit_list, iter_bits
from repro.graph.graph import Edge, Graph, Node, edge_key


def resolve_graph_backend(graph: Graph, backend: str | None = "auto"):
    """Return ``graph`` on the selected core backend.

    ``backend`` is ``"indexed"``, ``"numpy"``, ``"native"`` (compiled C
    kernels, degrading to numpy when the extension cannot be built),
    ``"auto"`` (the packed tier at or above
    :data:`repro.graph.bitset_np.NUMPY_THRESHOLD` nodes, preferring
    native when available) or ``None`` (keep the graph exactly as
    passed).  When numpy is not installed, ``"auto"`` and ``"indexed"``
    degrade to the int-mask core; asking for ``"numpy"`` or ``"native"``
    explicitly raises ImportError.
    """
    if backend is None:
        return graph
    try:
        from repro.graph.bitset_np import convert_graph
    except ImportError:
        if backend in ("numpy", "native"):
            raise
        return graph
    return convert_graph(graph, backend)


def fused_kernels():
    """The native tier's module when its compiled kernels load, else None.

    The fused layer steps (``extend_mcs_m``, ``component_neighbourhoods``)
    run on every graph core once the extension is available; without it
    (no compiler, no numpy, ``REPRO_NATIVE_DISABLE=1``) their callers run
    the int-mask Python oracles instead.
    """
    try:
        from repro.graph._native import native
    except ImportError:
        return None
    return native if native.available() else None


__all__ = [
    "Graph",
    "Node",
    "Edge",
    "edge_key",
    "IndexedGraph",
    "NodeInterner",
    "iter_bits",
    "bit_list",
    "resolve_graph_backend",
    "fused_kernels",
    "connected_components",
    "components_without",
    "component_of",
    "full_components",
    "is_connected",
    "is_separator",
    "separates",
]
