"""The closure-based signature algorithm, kept as a test reference.

Before vector clocks, a signature was read off the transitive closure of
the explicit program graph, and composition glued two signatures as a
tagged graph and closed it again. All three are restated here, the graph
with its own send/receive pairing and its own node types, so that the
clock-based :func:`compute_signature` and :func:`signature_compose` can be
required to equal them exactly without sharing code with them. A reference
signature is a triple ``(n, nodes, edges)``; :func:`by_name` and
:func:`listed` put it and a library signature in the same terms, node
names. :func:`edge_sets` keeps the comparison ``signature_equal`` made
before signatures were compared by their ranked clocks. :func:`pairing`
states the k'th-send-to-k'th-receive rule as a table, read off the
explicit graph's match edges, for the tests of the library's
:func:`program_graph`, which numbers its match edges itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, TypeVar

from layerseal import (
    Channel,
    CyclicGraph,
    Program,
    Signature,
    StmtKind,
    Unbalanced,
)

N = TypeVar("N", bound=Hashable)


@dataclass(frozen=True)
class FstDummy:
    proc: int

    @property
    def name(self) -> str:
        return f"fst_{self.proc}"


@dataclass(frozen=True)
class LstDummy:
    proc: int

    @property
    def name(self) -> str:
        return f"lst_{self.proc}"


@dataclass(frozen=True)
class FirstSend:
    channel: Channel

    @property
    def name(self) -> str:
        return f"snd:{self.channel.src}>{self.channel.dst}"


@dataclass(frozen=True)
class LastRecv:
    channel: Channel

    @property
    def name(self) -> str:
        return f"rcv:{self.channel.dst}<{self.channel.src}"


@dataclass(frozen=True, eq=False)
class Event:
    """The statement at 0-based ``index`` of process ``proc``. Each graph
    builds every event once, so events compare and hash by identity."""

    proc: int
    index: int
    kind: StmtKind
    channel: Channel

    @property
    def name(self) -> str:
        tag = "s" if self.kind is StmtKind.SEND else "r"
        return f"{tag}:{self.proc}:{self.index}"


def explicit_graph(p: Program) -> tuple[list, set]:
    """Nodes and edges of the program graph, built node by node.

    Each process is a chain fst_i, its events, lst_i; the k'th send on each
    channel has an edge to the k'th receive on it. Raises
    :class:`Unbalanced` naming the first channel, in canonical order, whose
    counts differ.
    """
    nodes: list = []
    edges: set = set()
    by_channel: dict[tuple[Channel, StmtKind], list[Event]] = {}
    for proc, seq in enumerate(p.seqs, start=1):
        prev = FstDummy(proc)
        nodes.append(prev)
        for index, stmt in enumerate(seq):
            if stmt.kind is StmtKind.SEND:
                ch = Channel(proc, stmt.peer)
            else:
                ch = Channel(stmt.peer, proc)
            node = Event(proc, index, stmt.kind, ch)
            by_channel.setdefault((ch, stmt.kind), []).append(node)
            nodes.append(node)
            edges.add((prev, node))
            prev = node
        nodes.append(LstDummy(proc))
        edges.add((prev, LstDummy(proc)))
    for ch in sorted({ch for ch, _ in by_channel}):
        out = by_channel.get((ch, StmtKind.SEND), [])
        inn = by_channel.get((ch, StmtKind.RECV), [])
        if len(out) != len(inn):
            raise Unbalanced(ch)
        edges.update(zip(out, inn))
    return nodes, edges


def pairing(p: Program) -> dict[tuple[int, int], tuple[int, int]]:
    """The send each receive is paired with in the program graph, read off
    the match edges of :func:`explicit_graph`: those between two processes.

    Maps the (process, position) of the k'th receive on every channel to the
    (process, position) of the k'th send on it; positions count a process's
    events from 1. Raises :class:`Unbalanced` like :func:`explicit_graph`.
    """
    _, edges = explicit_graph(p)
    return {
        (b.proc, b.index + 1): (a.proc, a.index + 1)
        for a, b in edges
        if isinstance(a, Event) and isinstance(b, Event) and a.proc != b.proc
    }


def _topological_order(nodes: list[N], edges: set[tuple[N, N]]) -> list[N] | None:
    """Kahn's algorithm; None when the graph has a cycle."""
    succ: dict[N, list[N]] = {v: [] for v in nodes}
    indeg = {v: 0 for v in nodes}
    for a, b in edges:
        succ[a].append(b)
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
    succ: dict[N, list[N]] = {v: [] for v in nodes}
    for a, b in edges:
        succ[a].append(b)
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


def closure(p: Program) -> frozenset:
    """Irreflexive transitive closure of the program graph."""
    return close_edges(*explicit_graph(p))


RefSignature = tuple[int, frozenset, frozenset]


def closure_signature(p: Program) -> RefSignature:
    graph_nodes, graph_edges = explicit_graph(p)
    closed = close_edges(graph_nodes, graph_edges)
    first_send: dict[Channel, Event] = {}
    last_recv: dict[Channel, Event] = {}
    for node in graph_nodes:
        if not isinstance(node, Event):
            continue
        if node.kind is StmtKind.SEND:
            first_send.setdefault(node.channel, node)
        else:
            last_recv[node.channel] = node

    keep: dict = {}
    for ch, node in first_send.items():
        if (FstDummy(ch.dst), node) not in closed:
            keep[node] = FirstSend(ch)
    for ch, node in last_recv.items():
        if (node, LstDummy(ch.src)) not in closed:
            keep[node] = LastRecv(ch)

    def rename(node):
        if isinstance(node, (FstDummy, LstDummy)):
            return node
        return keep.get(node)

    nodes = {FstDummy(i) for i in range(1, p.n + 1)} | {LstDummy(i) for i in range(1, p.n + 1)}
    nodes |= set(keep.values())
    edges = set()
    for a, b in closed:
        ra, rb = rename(a), rename(b)
        if ra is not None and rb is not None:
            edges.add((ra, rb))
    return p.n, frozenset(nodes), frozenset(edges)


def closure_compose(sp: RefSignature, sq: RefSignature) -> RefSignature:
    n, p_nodes, p_edges = sp
    _, q_nodes, q_edges = sq
    nodes = {("p", v) for v in p_nodes} | {("q", v) for v in q_nodes}
    edges = {(("p", a), ("p", b)) for a, b in p_edges}
    edges |= {(("q", a), ("q", b)) for a, b in q_edges}
    edges |= {(("p", LstDummy(i)), ("q", FstDummy(i))) for i in range(1, n + 1)}
    closed = close_edges(nodes, edges)

    survivors = set(nodes)
    survivors -= {("p", LstDummy(i)) for i in range(1, n + 1)}
    survivors -= {("q", FstDummy(i)) for i in range(1, n + 1)}
    survivors -= {("q", v) for v in q_nodes if isinstance(v, FirstSend) and ("p", v) in survivors}
    survivors -= {("p", v) for v in p_nodes if isinstance(v, LastRecv) and ("q", v) in survivors}
    survivors -= {
        ("q", v)
        for v in q_nodes
        if isinstance(v, FirstSend) and (("p", FstDummy(v.channel.dst)), ("q", v)) in closed
    }
    survivors -= {
        ("p", v)
        for v in p_nodes
        if isinstance(v, LastRecv) and (("p", v), ("q", LstDummy(v.channel.src))) in closed
    }
    out_nodes = frozenset(v for _, v in survivors)
    out_edges = frozenset((a[1], b[1]) for a, b in closed if a in survivors and b in survivors)
    return n, out_nodes, out_edges


def by_name(ref: RefSignature) -> RefSignature:
    """A reference signature with every node replaced by its name."""
    n, nodes, edges = ref
    return n, frozenset(v.name for v in nodes), frozenset((a.name, b.name) for a, b in edges)


def listed(sig: Signature) -> RefSignature:
    """A library signature's node and edge listing, by name."""
    return by_name((sig.n, sig.nodes, sig.edges))


def edge_sets(sig: Signature) -> RefSignature:
    """A signature as its materialised node set and edge set; two
    signatures were equal when these were."""
    return sig.n, frozenset(sig.nodes), frozenset(sig.edges)
