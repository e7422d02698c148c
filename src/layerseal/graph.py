"""Program graph: static causality skeleton of a balanced program.

Nodes are the communication events plus two dummy nodes per process, fst_i
and lst_i, marking where the process enters and leaves the program. Edges
chain each process's events between its dummies and pair the k'th send on a
channel with the k'th receive on it. The pairing exists for every k exactly
when the program is balanced; otherwise construction fails.

The match edges are not a claim about which message a receive actually
consumes. Channels are not FIFO. They are still sound causality edges: in
any run, the k'th receive on a channel can complete only after k messages
were sent on it, hence after the k'th send.

A cycle in the graph means the program can deadlock; acyclicity is what
:func:`deadlock_free` reports.

Construction: the graph is a space-time diagram (Lamport 1978), so the
analyses need neither the explicit graph nor its transitive closure. Every node gets a
position on its process: 0 for fst_i, x for the x'th event, len + 1 for
lst_i. :func:`vector_clocks` runs each process forward until it blocks on a
receive whose matching send has not run yet, which is one pass of Kahn's
algorithm over the events, and gives every node a vector clock (Fidge 1988;
Mattern 1989): entry k is the last position on process k that precedes or
equals the node, -1 when none does. A node a on process i at position x
precedes a different node b exactly when ``clock_b[i] >= x``, so every
reachability query costs O(1). The explicit :class:`ProgramGraph` and
:func:`transitive_closure` remain for display and as a test reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, TypeVar

from .errors import CyclicGraph, Unbalanced
from .model import Channel, EventRef, Program, StmtKind, iter_events

__all__ = [
    "EventNode",
    "FstDummy",
    "GraphNode",
    "LstDummy",
    "ProgramGraph",
    "build_program_graph",
    "deadlock_free",
    "node_sort_key",
    "transitive_closure",
    "vector_clocks",
]


@dataclass(frozen=True)
class FstDummy:
    """Entry marker of one process; precedes all its events."""

    proc: int

    @property
    def name(self) -> str:
        return f"fst_{self.proc}"


@dataclass(frozen=True)
class LstDummy:
    """Exit marker of one process; follows all its events."""

    proc: int

    @property
    def name(self) -> str:
        return f"lst_{self.proc}"


@dataclass(frozen=True)
class EventNode:
    ref: EventRef

    @property
    def name(self) -> str:
        tag = "s" if self.ref.kind is StmtKind.SEND else "r"
        return f"{tag}:{self.ref.proc}:{self.ref.index}"


GraphNode = FstDummy | LstDummy | EventNode
Edge = tuple[GraphNode, GraphNode]

def node_sort_key(node: GraphNode) -> tuple[int, int, int]:
    # Orders nodes as fst_i, events of i by position, lst_i, per process.
    if isinstance(node, FstDummy):
        return (node.proc, 0, 0)
    if isinstance(node, EventNode):
        return (node.ref.proc, 1, node.ref.index)
    return (node.proc, 2, 0)


@dataclass(frozen=True)
class ProgramGraph:
    n: int
    nodes: frozenset[GraphNode]
    edges: frozenset[Edge]

    def sorted_nodes(self) -> list[GraphNode]:
        return sorted(self.nodes, key=node_sort_key)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges, key=lambda e: (node_sort_key(e[0]), node_sort_key(e[1])))


def build_program_graph(p: Program) -> ProgramGraph:
    """Build the graph for a balanced program.

    Raises :class:`Unbalanced` naming the first channel, in canonical order,
    whose send and receive counts differ.
    """
    events = list(iter_events(p))
    nodes: set[GraphNode] = set()
    edges: set[Edge] = set()
    for i in range(1, p.n + 1):
        nodes.add(FstDummy(i))
        nodes.add(LstDummy(i))

    prev: dict[int, GraphNode] = {i: FstDummy(i) for i in range(1, p.n + 1)}
    sends: dict[Channel, list[EventNode]] = {}
    recvs: dict[Channel, list[EventNode]] = {}
    for ref in events:
        node = EventNode(ref)
        nodes.add(node)
        edges.add((prev[ref.proc], node))
        prev[ref.proc] = node
        bucket = sends if ref.kind is StmtKind.SEND else recvs
        bucket.setdefault(ref.channel, []).append(node)
    for i in range(1, p.n + 1):
        edges.add((prev[i], LstDummy(i)))

    for ch in sorted(set(sends) | set(recvs)):
        out = sends.get(ch, [])
        inn = recvs.get(ch, [])
        if len(out) != len(inn):
            raise Unbalanced(ch)
        edges.update(zip(out, inn))

    return ProgramGraph(p.n, frozenset(nodes), frozenset(edges))


N = TypeVar("N", bound=Hashable)


def _successors(nodes: Iterable[N], edges: Iterable[tuple[N, N]]) -> dict[N, list[N]]:
    succ: dict[N, list[N]] = {v: [] for v in nodes}
    for a, b in edges:
        succ[a].append(b)
    return succ


def _topological_order(nodes: Iterable[N], edges: Iterable[tuple[N, N]]) -> list[N] | None:
    """Kahn's algorithm; None when the graph has a cycle."""
    nodes = list(nodes)
    succ = _successors(nodes, edges)
    indeg = {v: 0 for v in nodes}
    for a, b in edges:
        indeg[b] += 1
    frontier = [v for v in nodes if indeg[v] == 0]
    order: list[N] = []
    while frontier:
        v = frontier.pop()
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                frontier.append(w)
    if len(order) != len(nodes):
        return None
    return order


def close_edges(nodes: Iterable[N], edges: Iterable[tuple[N, N]]) -> frozenset[tuple[N, N]]:
    """Smallest transitive superset of ``edges``, as reachability pairs.

    Raises :class:`CyclicGraph` when the input has a cycle; on acyclic input
    the result is also irreflexive.
    """
    nodes = list(nodes)
    edges = set(edges)
    order = _topological_order(nodes, edges)
    if order is None:
        raise CyclicGraph("graph has a cycle")
    index = {v: k for k, v in enumerate(nodes)}
    succ = _successors(nodes, edges)
    reach = {v: 0 for v in nodes}
    for v in reversed(order):
        mask = 0
        for w in succ[v]:
            mask |= reach[w] | (1 << index[w])
        reach[v] = mask
    closed: set[tuple[N, N]] = set()
    for v in nodes:
        mask = reach[v]
        while mask:
            low = mask & -mask
            closed.add((v, nodes[low.bit_length() - 1]))
            mask ^= low
    return frozenset(closed)


def transitive_closure(g: ProgramGraph) -> frozenset[Edge]:
    """Irreflexive transitive closure of the graph's edges."""
    return close_edges(g.nodes, g.edges)


def vector_clocks(p: Program) -> list[list[list[int]]]:
    """Vector clock of every node of the program graph.

    ``clocks[i - 1][x]`` is the clock of the node at position x on process
    i: fst_i at 0, the x'th event at x, lst_i at ``len + 1``. Entry k - 1 of
    a clock is the last position on process k that precedes or equals the
    node, or -1. Raises :class:`Unbalanced`, naming the first channel in
    canonical order whose send and receive counts differ, or
    :class:`CyclicGraph`.
    """
    n = p.n
    counts: dict[tuple[int, int], int] = {}
    for i, seq in enumerate(p.seqs, start=1):
        for stmt in seq:
            # Sends count up and receives down on their channel (src, dst).
            if stmt.kind is StmtKind.SEND:
                key = (i, stmt.peer)
                counts[key] = counts.get(key, 0) + 1
            else:
                key = (stmt.peer, i)
                counts[key] = counts.get(key, 0) - 1
    unbalanced = [key for key, count in counts.items() if count]
    if unbalanced:
        raise Unbalanced(Channel(*min(unbalanced)))

    rows: list[list[list[int]]] = []
    for i in range(n):
        fst = [-1] * n
        fst[i] = 0
        rows.append([fst])
    sent: dict[tuple[int, int], list[list[int]]] = {}
    taken: dict[tuple[int, int], int] = {}
    ready = list(range(1, n + 1))
    while ready:
        i = ready.pop()
        row, seq = rows[i - 1], p.seqs[i - 1]
        clock = row[-1]
        for x in range(len(row), len(seq) + 1):
            stmt = seq[x - 1]
            if stmt.kind is StmtKind.SEND:
                clock = clock.copy()
                clock[i - 1] = x
                sent.setdefault((i, stmt.peer), []).append(clock)
                ready.append(stmt.peer)
            else:
                key = (stmt.peer, i)
                k = taken.get(key, 0)
                out = sent.get(key, ())
                if len(out) <= k:
                    break  # blocked until the matching send has run
                taken[key] = k + 1
                clock = list(map(max, clock, out[k]))
                clock[i - 1] = x
            row.append(clock)
    for i, (row, seq) in enumerate(zip(rows, p.seqs), start=1):
        if len(row) <= len(seq):
            raise CyclicGraph("graph has a cycle")
        lst = row[-1].copy()
        lst[i - 1] = len(seq) + 1
        row.append(lst)
    return rows


def deadlock_free(p: Program) -> bool:
    """True when the program graph is acyclic.

    A cyclic graph means some prefix of the program can block forever with
    every participant waiting on a receive. Acyclicity is decided on the
    k'th-send-to-k'th-receive pairing; a run may still match messages
    differently, but some run completing every statement always exists when
    the graph is acyclic. Raises :class:`Unbalanced` like
    :func:`build_program_graph`.
    """
    try:
        vector_clocks(p)
    except CyclicGraph:
        return False
    return True
