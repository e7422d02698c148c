"""Interference signatures.

The signature of a balanced, deadlock-free program is a quadratically sized
summary that preserves exactly what later layers need to know in order to
compose safely with it: per channel, whether a receive remains exposed to
messages sent by the future, and how the earliest send and latest receive on
each channel relate causally to every process's entry and exit.

Construction: take the vector clocks of the program graph
(:func:`~layerseal.graph.vector_clocks`), keep the dummy nodes, the first
send per channel, and the last receive per channel, then

* drop a first send on i->j when fst_j causally precedes it (a message the
  receiver helped cause can never race ahead of the receiver's past), and
* drop a last receive on i->j when it causally precedes lst_i (the sender's
  remaining future is already ordered after it, so no later send can be
  consumed by it).

A channel i->j is left open exactly when its last-receive node survives.
Each kept node carries its process, its position there and its clock, which
is all any later question needs: the edges between kept nodes, the causal
order restricted to them, are read off the clocks on demand.

Signatures compose: :func:`signature_compose` computes the signature of a
layered program from the two signatures alone, without revisiting the
programs. The clocks of the first layer carry over unchanged. A node of the
second layer moves up by the first layer's event count on its process, and
for every fst_k that precedes it in its own layer it inherits the clock of
the first layer's lst_k, which the gluing of lst_k to fst_k puts before it.

Node names are stable: fst_i / lst_i for the dummies, snd:i>j for a
surviving first send, rcv:j<i for a surviving last receive.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le

from .errors import InvariantViolation, ProcessCountMismatch
from .graph import vector_clocks
from .model import Channel, Program, StmtKind

__all__ = [
    "FirstSend",
    "FstDummy",
    "LastRecv",
    "LstDummy",
    "SigNode",
    "Signature",
    "compute_signature",
    "sig_node_sort_key",
    "signature_compose",
    "signature_equal",
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
class FirstSend:
    """Earliest send on a channel that the receiver's past cannot see."""

    channel: Channel

    @property
    def name(self) -> str:
        return f"snd:{self.channel.src}>{self.channel.dst}"


@dataclass(frozen=True)
class LastRecv:
    """Latest receive on a channel, still exposed to future sends."""

    channel: Channel

    @property
    def name(self) -> str:
        return f"rcv:{self.channel.dst}<{self.channel.src}"


SigNode = FstDummy | LstDummy | FirstSend | LastRecv
SigEdge = tuple[SigNode, SigNode]
# A kept node's position on its process and its vector clock.
Point = tuple[int, tuple[int, ...]]


def sig_node_sort_key(node: SigNode) -> tuple[int, int, int, int]:
    if isinstance(node, FstDummy):
        return (0, node.proc, 0, 0)
    if isinstance(node, LstDummy):
        return (1, node.proc, 0, 0)
    if isinstance(node, FirstSend):
        return (2, node.channel.src, node.channel.dst, 0)
    return (3, node.channel.src, node.channel.dst, 0)


def _entry_clock(n: int, proc: int) -> tuple[int, ...]:
    return tuple(0 if k == proc else -1 for k in range(1, n + 1))


class Signature:
    """The kept nodes of a program, each as a :data:`Point`.

    ``exits[k - 1]`` is lst_k. ``sends[(i, j)]`` is the kept first send on
    i->j, on process i, and ``recvs[(i, j)]`` the kept last receive on it,
    on process j. fst_k is implicit: position 0, clock -1 but for its own 0.

    ``nodes`` and ``edges`` are derived on first use and then kept;
    ``edges`` holds every causally ordered pair of distinct nodes.
    """

    def __init__(
        self,
        n: int,
        exits: tuple[Point, ...],
        sends: dict[tuple[int, int], Point],
        recvs: dict[tuple[int, int], Point],
    ) -> None:
        self.n = n
        self.exits = exits
        self.sends = sends
        self.recvs = recvs
        self._points: dict[SigNode, tuple[int, int, tuple[int, ...]]] | None = None
        self._nodes: frozenset[SigNode] | None = None
        self._edges: frozenset[SigEdge] | None = None

    def _nodes_at(self) -> dict[SigNode, tuple[int, int, tuple[int, ...]]]:
        """Every node with its process, position and clock."""
        if self._points is None:
            points: dict[SigNode, tuple[int, int, tuple[int, ...]]] = {}
            for k, (pos, clock) in enumerate(self.exits, start=1):
                points[FstDummy(k)] = (k, 0, _entry_clock(self.n, k))
                points[LstDummy(k)] = (k, pos, clock)
            for (i, j), (pos, clock) in self.sends.items():
                points[FirstSend(Channel(i, j))] = (i, pos, clock)
            for (i, j), (pos, clock) in self.recvs.items():
                points[LastRecv(Channel(i, j))] = (j, pos, clock)
            self._points = points
        return self._points

    @property
    def nodes(self) -> frozenset[SigNode]:
        if self._nodes is None:
            self._nodes = frozenset(self._nodes_at())
        return self._nodes

    @property
    def edges(self) -> frozenset[SigEdge]:
        if self._edges is None:
            points = [(v, proc - 1, pos, clock) for v, (proc, pos, clock) in self._nodes_at().items()]
            self._edges = frozenset(
                (a, b)
                for a, i, x, _ in points
                for b, _, _, clock in points
                if a is not b and clock[i] >= x
            )
        return self._edges

    def leaves_open(self, channel: Channel) -> bool:
        return (channel.src, channel.dst) in self.recvs

    def open_channels(self) -> list[Channel]:
        return [Channel(i, j) for i, j in sorted(self.recvs)]

    def sorted_nodes(self) -> list[SigNode]:
        return sorted(self._nodes_at(), key=sig_node_sort_key)

    def sorted_edges(self) -> list[SigEdge]:
        return sorted(
            self.edges, key=lambda e: (sig_node_sort_key(e[0]), sig_node_sort_key(e[1]))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return signature_equal(self, other)

    def __hash__(self) -> int:
        return hash((self.n, self.nodes))


def _check(sig: Signature) -> Signature:
    """Raise :class:`InvariantViolation` unless the clocks are consistent.

    Costs O(n) per node. A violation is an implementation bug; the check
    runs on every signature returned.
    """
    n = sig.n
    if len(sig.exits) != n or len(sig.sends) + len(sig.recvs) > 2 * n * (n - 1):
        raise InvariantViolation(f"signature is not O(n^2) for n = {n}")
    middles: list[list[Point]] = [[] for _ in range(n)]
    for (i, j), (pos, clock) in sig.sends.items():
        if clock[j - 1] >= 0:
            raise InvariantViolation(f"fst_{j} precedes snd:{i}>{j}")
        recv = sig.recvs.get((i, j))
        if recv is not None and not all(map(le, clock, recv[1])):
            raise InvariantViolation(f"snd:{i}>{j} does not precede rcv:{j}<{i}")
        middles[i - 1].append((pos, clock))
    for (i, j), (pos, clock) in sig.recvs.items():
        if sig.exits[i - 1][1][j - 1] >= pos:
            raise InvariantViolation(f"rcv:{j}<{i} precedes lst_{i}")
        middles[j - 1].append((pos, clock))
    for k, (middle, exit_point) in enumerate(zip(middles, sig.exits), start=1):
        chain = [(0, _entry_clock(n, k)), *sorted(middle), exit_point]
        for (x, a), (y, b) in zip(chain, chain[1:]):
            if x >= y or len(b) != n or b[k - 1] != y or not all(map(le, a, b)):
                raise InvariantViolation(f"clocks of process {k} are not monotone at position {y}")
    return sig


def compute_signature(p: Program) -> Signature:
    """Signature of a balanced, deadlock-free program.

    Raises :class:`Unbalanced` or :class:`CyclicGraph` when the
    preconditions fail.
    """
    clocks = vector_clocks(p)
    first_send: dict[tuple[int, int], int] = {}
    last_recv: dict[tuple[int, int], int] = {}
    for i, seq in enumerate(p.seqs, start=1):
        for x, stmt in enumerate(seq, start=1):
            if stmt.kind is StmtKind.SEND:
                first_send.setdefault((i, stmt.peer), x)
            else:
                last_recv[(stmt.peer, i)] = x
    exits = tuple((len(row) - 1, tuple(row[-1])) for row in clocks)
    sends = {
        (i, j): (x, tuple(clocks[i - 1][x]))
        for (i, j), x in first_send.items()
        if clocks[i - 1][x][j - 1] < 0
    }
    recvs = {
        (i, j): (x, tuple(clocks[j - 1][x]))
        for (i, j), x in last_recv.items()
        if exits[i - 1][1][j - 1] < x
    }
    return _check(Signature(p.n, exits, sends, recvs))


def signature_compose(sp: Signature, sq: Signature) -> Signature:
    """Signature of the layered program, from the layer signatures alone.

    Glues each lst_i of the first signature to fst_i of the second, then
    removes inner dummies, shadowed sends and receives, and sends or
    receives whose channel the gluing closed.
    """
    if sp.n != sq.n:
        raise ProcessCountMismatch(sp.n, sq.n)
    n = sp.n
    shift = [pos - 1 for pos, _ in sp.exits]
    # What a node of q inherits from p depends only on which fst_k precede
    # it, so it is computed once per such set.
    inherited: dict[tuple[bool, ...], list[int]] = {}

    def glue(point: Point, proc: int) -> Point:
        # fst_k precedes the node in q exactly where its clock is not -1,
        # and lst_k of p then precedes it too. Where q itself reaches
        # process k, its own entry, moved up by p's events on k, dominates:
        # no node of p lies after p's last event on k.
        pos, clock = point
        reached = tuple(c >= 0 for c in clock)
        base = inherited.get(reached)
        if base is None:
            base = [-1] * n
            for k in range(n):
                if reached[k]:
                    base = list(map(max, base, sp.exits[k][1]))
            inherited[reached] = base
        glued = tuple(c + s if c >= 0 else b for c, s, b in zip(clock, shift, base))
        return (pos + shift[proc - 1], glued)

    exits = tuple(glue(point, k) for k, point in enumerate(sq.exits, start=1))
    sends = dict(sp.sends)
    for (i, j), point in sq.sends.items():
        # A first send of the later layer is shadowed by one on the same
        # channel in the earlier layer, and dropped when the gluing puts
        # fst_j before it.
        if (i, j) not in sends:
            glued = glue(point, i)
            if glued[1][j - 1] < 0:
                sends[(i, j)] = glued
    # A last receive of the earlier layer is shadowed by one in the later
    # layer, and dropped when the gluing puts it before lst of its sender.
    recvs = {
        (i, j): point
        for (i, j), point in sp.recvs.items()
        if (i, j) not in sq.recvs and exits[i - 1][1][j - 1] < point[0]
    }
    for (i, j), point in sq.recvs.items():
        recvs[(i, j)] = glue(point, j)
    return _check(Signature(n, exits, sends, recvs))


def signature_equal(a: Signature, b: Signature) -> bool:
    """Exact equality under canonical node identity."""
    return a.n == b.n and a.nodes == b.nodes and a.edges == b.edges
