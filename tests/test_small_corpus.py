"""An exhaustive small-scope corpus: every rooted port graph up to a bound.

The parity fuzz and the property suites sample graphs; this module checks
all of them within a bound.  :func:`rooted_port_graphs` yields each rooted
port graph once — strongly connected, every node with a connected in-port
and out-port — in canonical form: nodes numbered in BFS order from the
root, following out-ports in port order.  Ports are labelled, so a rooted
port isomorphism is forced by that walk, and two graphs are isomorphic
exactly when their canonical forms are equal.

Tier-1 maps every graph with N <= 2 at delta = 2, and every 25th with
N = 3, on the ``flat`` backend with the cleanup sweep and the finite-state
audit on, and requires the ``object`` backend's transcript;
``REPRO_PARITY_FUZZ=1`` maps every graph with N <= 3.  The N = 3 sample is
there because two nodes are too few for a snake to be relayed away from
the root: a changed relay delay in a code handler passes every N <= 2
graph.  The enumerator is cross-checked against a brute force over all
port labelings up to N = 3.
"""

from __future__ import annotations

import os
from itertools import islice
from typing import Iterator

import pytest

from repro.protocol.runner import determine_topology
from repro.topology.portgraph import PortGraph
from tests.test_backend_parity import assert_same_run

FUZZ = os.environ.get("REPRO_PARITY_FUZZ") == "1"
DELTA = 2
#: (N, stride): which graphs of each size are mapped on both backends
MAPPED = [(1, 1), (2, 1), (3, 1 if FUZZ else 25)]

#: canonical (src, out_port, dst, in_port) wire tuples
Wires = tuple[tuple[int, int, int, int], ...]


def _qualifies(wires: Wires, n: int) -> bool:
    """Every node has a connected in- and out-port and reaches the root.

    Callers only pass graphs whose nodes the root reaches, so this
    completes the strong-connectivity check.
    """
    nodes = set(range(n))
    if {w[0] for w in wires} != nodes or {w[2] for w in wires} != nodes:
        return False
    reached = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for src, _, dst, _ in wires:
            if dst == node and src not in reached:
                reached.add(src)
                frontier.append(src)
    return len(reached) == n


def rooted_port_graphs(n: int, delta: int = DELTA) -> Iterator[Wires]:
    """Yield every rooted port graph on ``n`` nodes once, canonically.

    Builds the graph in BFS order: node ``i``'s out-ports are decided in
    port order, each left unconnected, wired to a free in-port of an
    already numbered node, or wired to the next new node, which takes the
    next number.  So every graph comes out numbered as its own BFS walk
    from the root numbers it, and none comes out twice.
    """
    wires: list[tuple[int, int, int, int]] = []
    used: set[tuple[int, int]] = set()

    def extend(node: int, port: int, numbered: int) -> Iterator[Wires]:
        if node == numbered:  # the walk ran out of numbered nodes
            if numbered == n and _qualifies(tuple(wires), n):
                yield tuple(wires)
            return
        after = (node, port + 1) if port < delta else (node + 1, 1)
        yield from extend(*after, numbered)  # the port stays unconnected
        for dst in range(min(numbered + 1, n)):
            for in_port in range(1, delta + 1):
                if (dst, in_port) in used:
                    continue
                used.add((dst, in_port))
                wires.append((node, port, dst, in_port))
                yield from extend(*after, max(numbered, dst + 1))
                wires.pop()
                used.discard((dst, in_port))

    yield from extend(0, 1, 1)


def _canonical(wires: Wires, n: int, delta: int = DELTA) -> Wires | None:
    """``wires`` renumbered by the BFS walk from node 0 (``None``: not all
    nodes are reached)."""
    out = {(src, port): (dst, in_port) for src, port, dst, in_port in wires}
    number = {0: 0}
    order = [0]
    for node in order:
        for port in range(1, delta + 1):
            hit = out.get((node, port))
            if hit is not None and hit[0] not in number:
                number[hit[0]] = len(order)
                order.append(hit[0])
    if len(order) < n:
        return None
    return tuple(sorted((number[s], p, number[d], q) for s, p, d, q in wires))


def _brute_force(n: int, delta: int = DELTA) -> set[Wires]:
    """Canonical forms of every qualifying labeling: each out-port wired to
    any free in-port of any node, or left unconnected."""
    slots = [(node, port) for node in range(n) for port in range(1, delta + 1)]
    found: set[Wires] = set()

    def assign(index: int, wires: list, used: set) -> None:
        if index == len(slots):
            form = _canonical(tuple(wires), n, delta)
            if form is not None and _qualifies(form, n):
                found.add(form)
            return
        assign(index + 1, wires, used)
        for target in slots:
            if target not in used:
                used.add(target)
                wires.append((*slots[index], *target))
                assign(index + 1, wires, used)
                wires.pop()
                used.discard(target)

    assign(0, [], set())
    return found


def _graph(wires: Wires, n: int) -> PortGraph:
    graph = PortGraph(n, DELTA)
    for wire in wires:
        graph.add_wire(*wire)
    return graph.freeze()


@pytest.mark.parametrize("n,count", [(1, 6), (2, 84), (3, 1944)])
def test_corpus_counts_are_pinned(n, count):
    graphs = list(rooted_port_graphs(n))
    assert len(graphs) == count
    assert len(set(graphs)) == count  # each graph once
    assert all(_canonical(g, n) == tuple(sorted(g)) for g in graphs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerator_matches_brute_force(n):
    assert set(rooted_port_graphs(n)) == _brute_force(n)


@pytest.mark.parametrize("n,stride", MAPPED)
def test_small_graphs_map_identically_on_both_backends(n, stride):
    for wires in islice(rooted_port_graphs(n), 0, None, stride):
        graph = _graph(wires, n)
        runs = [
            determine_topology(
                graph, backend=backend, verify_cleanup=True, audit_finite_state=True
            )
            for backend in ("object", "flat")
        ]
        assert runs[1].matches(graph), wires
        assert_same_run(*runs)
