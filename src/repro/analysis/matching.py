"""Optimal resource allocation in polynomial time (the paper's ref. [35]).

Section V notes that a centralized scheduler needs ``C(x, y) y!`` trials to
find the best processor-resource mapping by enumeration, and defers
"polynomial-time optimal scheduling algorithms" to a follow-up paper
(Juang & Wah).  For single-resource requests the problem has a clean
network-flow formulation, implemented here:

* every link of the multistage network is an arc of capacity 1 (circuit
  switching: one circuit per link);
* every 2x2 box is a node — two circuits through a box must use distinct
  input and output links, and any such pair is realizable as the straight
  or exchange setting, so arc-disjointness is exactly the hardware
  constraint;
* a super-source feeds the requesting processors, candidate output ports
  drain to a super-sink; **integral max-flow = the maximum number of
  simultaneously routable requests**, and the flow decomposition is the
  switch setting.

This supersedes the exhaustive :func:`max_conflict_free` (factorial) for
anything beyond toy sizes; the test suite checks the two agree exactly on
random small instances.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.networks.topology import MultistageTopology

if TYPE_CHECKING:
    from networkx import DiGraph


def _link_node(column: int, index: int, side: str) -> Tuple[str, int, int]:
    """Graph node for one end of a link (links are split to cap them at 1)."""
    return (side, column, index)


def build_flow_network(topology: MultistageTopology, sources: Sequence[int],
                       ports: Sequence[int]) -> DiGraph:
    """The unit-capacity layered graph of the network's links.

    Each link ``(column, index)`` becomes an internal arc ``in -> out`` of
    capacity 1; box wiring connects link-out nodes of column ``t`` to
    link-in nodes of column ``t + 1``.
    """
    import networkx as nx

    graph = nx.DiGraph()
    size = topology.size
    for column in range(topology.stages + 1):
        for index in range(size):
            graph.add_edge(_link_node(column, index, "in"),
                           _link_node(column, index, "out"), capacity=1)
    for stage in range(topology.stages):
        for index in range(size):
            box, in_port = topology.input_map(stage, index)
            for out_port in (0, 1):
                out_index = topology.output_link(stage, box, out_port)
                graph.add_edge(_link_node(stage, index, "out"),
                               _link_node(stage + 1, out_index, "in"),
                               capacity=1)
    for source in sources:
        graph.add_edge("SOURCE", _link_node(0, source, "in"), capacity=1)
    for port in ports:
        graph.add_edge(_link_node(topology.stages, port, "out"), "SINK",
                       capacity=1)
    return graph


def optimal_allocation(topology: MultistageTopology, sources: Sequence[int],
                       ports: Sequence[int]) -> Tuple[int, Dict[int, int]]:
    """Maximum simultaneously routable requests, with one witness mapping.

    Polynomial (max-flow on a graph of O(N log N) arcs), versus the
    factorial enumeration of :func:`max_conflict_free`.  Returns
    ``(count, {source: port})``.
    """
    sources = list(dict.fromkeys(sources))
    ports = list(dict.fromkeys(ports))
    for source in sources:
        if not 0 <= source < topology.size:
            raise ConfigurationError(f"source {source} out of range")
    for port in ports:
        if not 0 <= port < topology.size:
            raise ConfigurationError(f"port {port} out of range")
    if not sources or not ports:
        return 0, {}
    import networkx as nx

    graph = build_flow_network(topology, sources, ports)
    value, flow = nx.maximum_flow(graph, "SOURCE", "SINK")
    assignment: Dict[int, int] = {}
    for source in sources:
        entry = _link_node(0, source, "in")
        if flow["SOURCE"].get(entry, 0) < 1:
            continue
        assignment[source] = _trace_flow(topology, flow, source)
    return int(value), assignment


def _trace_flow(topology: MultistageTopology, flow, source: int) -> int:
    """Follow one unit of flow from ``source`` to its output port."""
    column, index = 0, source
    while column < topology.stages:
        out_node = _link_node(column, index, "out")
        for target, units in flow[out_node].items():
            if units >= 1:
                _side, next_column, next_index = target
                column, index = next_column, next_index
                break
        else:
            raise ConfigurationError("flow decomposition broke (bug)")
    return index


def allocation_shortfall(topology: MultistageTopology, sources: Sequence[int],
                         ports: Sequence[int]) -> int:
    """How many feasible requests the *network* (not the pool) loses.

    ``min(x, y) - maxflow``: zero means a non-blocking outcome exists for
    this instance; positive values are unavoidable topological blocking
    that no scheduler, centralized or distributed, can beat.
    """
    sources = list(dict.fromkeys(sources))
    ports = list(dict.fromkeys(ports))
    feasible = min(len(sources), len(ports))
    best, _assignment = optimal_allocation(topology, sources, ports)
    return feasible - best
