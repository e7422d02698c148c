"""The closure-based signature algorithm, kept as a test reference.

Before vector clocks, a signature was read off the transitive closure of
the program graph, and composition glued two signatures as a tagged graph
and closed it again. Both are restated here, on the public graph API, so
that the clock-based :func:`compute_signature` and
:func:`signature_compose` can be required to equal them exactly. A
reference signature is a triple ``(n, nodes, edges)``.
"""

from __future__ import annotations

from layerseal import (
    Channel,
    EventNode,
    FirstSend,
    FstDummy,
    LastRecv,
    LstDummy,
    Program,
    StmtKind,
    build_program_graph,
    iter_events,
    transitive_closure,
)
from layerseal.graph import close_edges

RefSignature = tuple[int, frozenset, frozenset]


def closure_signature(p: Program) -> RefSignature:
    closed = transitive_closure(build_program_graph(p))
    first_send: dict[Channel, EventNode] = {}
    last_recv: dict[Channel, EventNode] = {}
    for ref in iter_events(p):
        if ref.kind is StmtKind.SEND:
            first_send.setdefault(ref.channel, EventNode(ref))
        else:
            last_recv[ref.channel] = EventNode(ref)

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
