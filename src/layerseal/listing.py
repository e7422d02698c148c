"""Listings for display: the program graph, a signature's nodes and edges,
and their DOT text. No analysis reads them, and of the CLI's commands only
``graph`` and ``sig`` load this module.

A signature's edges are every causally ordered pair of distinct kept nodes:
a node a on process i precedes b exactly when ``b[i] >= a[i]``. ``sig
--dot`` draws an edge a -> b thin unless a covers b, with no kept node
between them. The covers of b are read off b's clock: on each process k
the candidate is the latest kept node at or before ``b[k]``, b itself
excluded. Every node that precedes b precedes a candidate, so b's covers
are the candidates that precede no other candidate.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque

from .model import Record, StmtKind, channel_balance, require_balanced, setfield

TYPE_CHECKING = False  # as ``typing`` would say at run time, without loading it
if TYPE_CHECKING:
    from .graph import Clock
    from .model import Program
    from .signature import Signature

    # A kept node of a signature: its name or SigNode, process and clock.
    _Point = tuple[object, int, Clock]

__all__ = [
    "SigNode",
    "dot",
    "dot_signature",
    "program_graph",
    "signature_edges",
    "signature_graph",
    "signature_nodes",
]

_SEND = StmtKind.SEND


class SigNode(Record):
    """A kept node of a signature, known by its name: ``fst_k``, ``lst_k``,
    ``snd:i>j`` or ``rcv:j<i``."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        setfield(self, "name", name)


def program_graph(p: Program) -> tuple[list[str], list[tuple[str, str]]]:
    """Node names and edges of the graph of a balanced program.

    Nodes are listed per process: fst_i, then its events by position
    (``s:i:x`` or ``r:i:x``, x counting from 0), then lst_i. Edges are
    listed by source node, then by target node, in that order. Raises
    :class:`Unbalanced` like :func:`~layerseal.model.require_balanced`.
    """
    require_balanced(channel_balance(p))
    # Each channel queues its send positions, counting a process's events
    # from 1; the k'th receive on it takes the k'th send off the front.
    queues: dict[tuple[int, int], deque[tuple[int, int]]] = {}
    for i, seq in enumerate(p.seqs, start=1):
        for x, stmt in enumerate(seq, start=1):
            if stmt.kind is _SEND:
                queues.setdefault((i, stmt.peer), deque()).append((i, x))
    match = {}
    for j, seq in enumerate(p.seqs, start=1):
        for y, stmt in enumerate(seq, start=1):
            if stmt.kind is not _SEND:
                match[queues[(stmt.peer, j)].popleft()] = (j, y)
    rows = [
        [f"fst_{i}"]
        + [f"{'s' if stmt.kind is _SEND else 'r'}:{i}:{x}" for x, stmt in enumerate(seq)]
        + [f"lst_{i}"]
        for i, seq in enumerate(p.seqs, start=1)
    ]
    edges: list[tuple[str, str]] = []
    for i, row in enumerate(rows, start=1):
        for x, name in enumerate(row[:-1]):
            targets = [(i, x + 1)]
            if (i, x) in match:
                targets = sorted([*targets, match[(i, x)]])
            edges += [(name, rows[j - 1][y]) for j, y in targets]
    return [name for row in rows for name in row], edges


def _points(sig: Signature) -> list[_Point]:
    """Every kept node's name, process and clock, in print order: fst and
    then lst by process, first sends and then last receives by channel.
    fst_k's clock is -1 but for its own 0."""
    n = sig.n
    points: list[_Point] = [
        (f"fst_{k}", k, (-1,) * (k - 1) + (0,) + (-1,) * (n - k)) for k in range(1, n + 1)
    ]
    points += [(f"lst_{k}", k, clock) for k, clock in enumerate(sig.exits, start=1)]
    points += [(f"snd:{i}>{j}", i, clock) for (i, j), clock in sorted(sig.sends.items())]
    points += [(f"rcv:{j}<{i}", j, clock) for (i, j), clock in sorted(sig.recvs.items())]
    return points


def _ordered(points: list[_Point]) -> list[tuple]:
    """Every pair of distinct points, the first causally before the second,
    by the first and then the second in the order given."""
    keyed = [(a, a[1] - 1, a[2][a[1] - 1]) for a in points]
    return [(a[0], b[0]) for a, i, x in keyed for b in points if b is not a and b[2][i] >= x]


def signature_graph(sig: Signature) -> tuple[list[str], list[tuple[str, str]]]:
    """The names of ``sig.nodes`` and ``sig.edges``, in order, with no ``SigNode`` built."""
    points = _points(sig)
    return [name for name, _, _ in points], _ordered(points)


def signature_nodes(sig: Signature) -> tuple[SigNode, ...]:
    """The kept nodes of ``sig`` in print order."""
    return tuple(SigNode(name) for name, _, _ in _points(sig))


def signature_edges(sig: Signature) -> tuple[tuple[SigNode, SigNode], ...]:
    """Every causally ordered pair of distinct nodes of ``sig.nodes``, by
    source and then target in print order."""
    return tuple(_ordered([(v, k, clock) for v, (_, k, clock) in zip(sig.nodes, _points(sig))]))


def _covers(n: int, points: list[_Point]) -> dict[object, set]:
    """The nodes that cover each node, as the module docstring reads them
    off the clocks, with a sorted index of the kept positions per process."""
    chains: list[list[tuple[int, object, Clock]]] = [[] for _ in range(n)]
    for name, k, clock in points:
        chains[k - 1].append((clock[k - 1], name, clock))
    for chain in chains:
        chain.sort()
    positions = [[x for x, _, _ in chain] for chain in chains]
    covers = {}
    for name, k, clock in points:
        found = []  # (process, position, name, clock) of each candidate
        for m, y in enumerate(clock):
            # On b's own process, the node at y is b itself.
            r = bisect_right(positions[m], y) - (m == k - 1)
            if r > 0:
                found.append((m, *chains[m][r - 1]))
        covers[name] = {
            a for m, x, a, _ in found if not any(c[m] >= x for other, _, _, c in found if other != m)
        }
    return covers


def dot(
    graph: str, nodes: list[str], edges: list[tuple[str, str]], covers: dict[str, set[str]] | None = None
) -> str:
    """DOT text: dummies as boxes, events as circles, each name quoted once;
    given ``covers``, an edge a -> b is drawn thin unless a covers b."""
    quoted = {name: '"' + name.replace('"', '\\"') + '"' for name in nodes}
    lines = [f"digraph {graph} {{", "  rankdir=LR;"]
    for name in nodes:
        lines.append(f"  {quoted[name]} [shape={'box' if name.startswith(('fst_', 'lst_')) else 'circle'}];")
    thin = ' [penwidth="0.5"]'
    lines += [f"  {quoted[a]} -> {quoted[b]}{'' if covers is None or a in covers[b] else thin};" for a, b in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_signature(sig: Signature) -> str:
    """The DOT text of ``sig``: its nodes and edges as ``sig.nodes`` and
    ``sig.edges`` list them, an edge a -> b drawn thin unless a covers b."""
    return dot("signature", *signature_graph(sig), _covers(sig.n, _points(sig)))
