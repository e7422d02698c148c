"""Program graph: static causality skeleton of a balanced program.

Nodes are the communication events plus two dummy nodes per process, fst_i
and lst_i, marking where the process enters and leaves the program. Edges
chain each process's events between its dummies and pair the k'th send on a
channel with the k'th receive on it. Such a send exists for every k exactly
when the program is balanced; otherwise construction fails.

The match edges are not a claim about which message a receive actually
consumes. Channels are not FIFO. They are still sound causality edges: in
any run, the k'th receive on a channel can complete only after k messages
were sent on it, hence after the k'th send.

A cycle in the graph means the program can deadlock; acyclicity is what
:func:`deadlock_free` reports.

Construction: the graph is a space-time diagram (Lamport 1978), so the
analyses need neither the explicit graph nor its transitive closure. Every
node gets a position on its process: 0 for fst_i, x for the x'th event,
len + 1 for lst_i. One pass of Kahn's algorithm over the events runs each
process forward until it blocks on a receive whose send has not run yet, or
to its end, where lst_i gets its position, and pairs sends with receives as
it goes: a channel queues its sends in the order its one sender runs them,
and its k'th receive takes the k'th send off the front. The pass ends by
deciding balance: it counts each channel's sends and receives
(:func:`~layerseal.model.channel_balance`) only when a process is left
blocked, to tell an unbalanced channel from a cycle. :func:`deadlock_free`
is the pass alone. :func:`causality_sweep` is the pass with a vector clock
(Fidge 1988; Mattern 1989) on every node it reaches: entry k is the last
position on process k that precedes or equals the node, -1 when none does,
so a node's own entry is its position. A node a on process i precedes
another node b exactly when ``b[i] >= a[i]``, in O(1). It keeps only the
clocks a signature reads. :func:`program_graph` checks balance first
(:func:`~layerseal.model.require_balanced`), then pairs sends with receives
the same way, without clocks, to list the nodes and edges, for display only.
"""

from __future__ import annotations

from collections import deque

from .errors import CyclicGraph
from .model import Program, StmtKind, channel_balance, require_balanced

__all__ = ["Clock", "causality_sweep", "deadlock_free", "program_graph"]

# A channel as (sender, receiver).
Chan = tuple[int, int]
# A node's vector clock; its own entry is its position on its process.
Clock = tuple[int, ...]

_SEND = StmtKind.SEND


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
    queues: dict[Chan, deque[tuple[int, int]]] = {}
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


def causality_sweep(p: Program) -> tuple[tuple[Clock, ...], dict[Chan, Clock], dict[Chan, Clock]]:
    """The clocks a signature reads, from one Kahn pass over the events.

    Returns lst_k of every process k, the first send on every channel that
    has a send, and the last receive on it, each as its :data:`Clock`.
    Positions count fst_i as 0, the x'th event as x and lst_i as ``len + 1``,
    set as the pass finishes i; entry k - 1 of a clock is the last position on
    process k that precedes or equals the node, or -1. Raises :class:`Unbalanced`
    like :func:`~layerseal.model.require_balanced`, or :class:`CyclicGraph`.
    """
    finished, clocks, sends, recvs = _sweep(p, True)
    if not finished:
        raise CyclicGraph()
    return tuple(map(tuple, clocks)), sends, recvs


def deadlock_free(p: Program) -> bool:
    """True when the program graph is acyclic.

    A cyclic graph means some prefix of the program can block forever with
    every participant waiting on a receive. Acyclicity is decided on the
    graph's match of each channel's k'th send to its k'th receive; a run
    may still match messages differently, but some run completing every
    statement always exists when the graph is acyclic. Decided by the Kahn
    pass of :func:`causality_sweep` without its clocks, in O(E + n) time
    and memory. Raises :class:`Unbalanced` like
    :func:`~layerseal.model.require_balanced`.
    """
    return _sweep(p, False)[0]


def _sweep(p: Program, clocked: bool) -> tuple[bool, list, dict[Chan, Clock], dict[Chan, Clock]]:
    """One Kahn pass over the events of p: whether every process ran to its
    end, the clock where each stopped (lst_i's, once i ran to its end), and
    the first send and the last receive on every channel that has a send.

    Each process runs forward until it blocks on a receive. A send appends
    its clock to its channel's queue, in program order, so the k'th receive
    on the channel takes the k'th send from the front of the queue, or
    blocks until it exists, and joins its clock with the send's. Without
    ``clocked``, every process shares the clock ``()``, nothing is joined
    and no send or receive is recorded. Raises :class:`Unbalanced` like
    :func:`~layerseal.model.require_balanced`. When every process finished,
    every receive took a send, so a channel is unbalanced exactly when its
    queue still holds a message.
    """
    n, seqs = p.n, p.seqs
    clocks: list = [[-1] * n for _ in range(n)] if clocked else [()] * n
    done = [0] * n
    pending: dict[Chan, deque[Clock]] = {}
    sends: dict[Chan, Clock] = {}
    recvs: dict[Chan, Clock] = {}
    ready = list(range(1, n + 1))
    while ready:
        i = ready.pop()
        seq, x, clock = seqs[i - 1], done[i - 1], clocks[i - 1]
        while x < len(seq):
            stmt = seq[x]
            if stmt.kind is _SEND:
                x += 1
                ch = (i, stmt.peer)
                sent = clock
                if clocked:
                    clock[i - 1] = x
                    sent = tuple(clock)
                queue = pending.get(ch)
                if queue is None:
                    pending[ch] = queue = deque()
                    if clocked:
                        sends[ch] = sent
                queue.append(sent)
                ready.append(stmt.peer)
            else:
                ch = (stmt.peer, i)
                queue = pending.get(ch)
                if not queue:
                    break  # blocked until the next send on ch has run
                sent = queue.popleft()
                x += 1
                if clocked:
                    clock = list(map(max, clock, sent))
                    clock[i - 1] = x
                    recvs[ch] = tuple(clock)
        else:
            if clocked:  # lst_i, as process i ran to its end
                clock[i - 1] = x + 1
        done[i - 1], clocks[i - 1] = x, clock
    finished = done == list(map(len, seqs))
    if not finished or any(pending.values()):
        require_balanced(pending if finished else channel_balance(p))
    return finished, clocks, sends, recvs
