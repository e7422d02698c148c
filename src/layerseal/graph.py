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
analyses need neither the explicit graph nor its transitive closure. Every
node gets a position on its process: 0 for fst_i, x for the x'th event,
len + 1 for lst_i. :func:`causality_sweep` runs each process forward until
it blocks on a receive whose send has not run yet, which is one pass of
Kahn's algorithm over the events, and pairs sends with receives as it goes:
a channel queues its sends in the order its one sender runs them, and its
k'th receive takes the k'th send off the front. Every node it reaches gets
a vector clock (Fidge 1988; Mattern 1989): entry k is the last position on
process k that precedes or equals the node, -1 when none does. A node a on
process i at position x precedes a different node b exactly when
``clock_b[i] >= x``, so every reachability query costs O(1). The sweep
keeps only the clocks a signature reads. :func:`deadlock_free` runs the
same pass with a count per channel in place of the queue, and no clocks.
Both decide balance at the end of the pass, and build the pairing
(:func:`~layerseal.model.pairing`) only when a process is left blocked, to
tell an unbalanced channel from a cycle. :func:`program_graph` reads the
pairing to list the nodes and edges, for display only.
"""

from __future__ import annotations

from collections import deque

from .errors import CyclicGraph, Unbalanced
from .model import Channel, Program, StmtKind, pairing

__all__ = ["Point", "causality_sweep", "deadlock_free", "program_graph"]

# A channel as (sender, receiver).
Chan = tuple[int, int]
# A node's position on its process and its vector clock.
Point = tuple[int, tuple[int, ...]]

_SEND = StmtKind.SEND


def program_graph(p: Program) -> tuple[list[str], list[tuple[str, str]]]:
    """Node names and edges of the graph of a balanced program.

    Nodes are listed per process: fst_i, then its events by position
    (``s:i:x`` or ``r:i:x``, x counting from 0), then lst_i. Edges are
    listed by source node, then by target node, in that order. Raises
    :class:`Unbalanced` like :func:`~layerseal.model.pairing`.
    """
    match = {send: receive for receive, send in pairing(p).items()}
    rows = [
        [f"fst_{i}"]
        + [f"{'s' if stmt.kind is StmtKind.SEND else 'r'}:{i}:{x}" for x, stmt in enumerate(seq)]
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


def causality_sweep(p: Program) -> tuple[tuple[Point, ...], dict[Chan, Point], dict[Chan, Point]]:
    """The clocks a signature reads, from one Kahn pass over the events.

    Returns lst_k of every process k, the first send on every channel that
    has a send, and the last receive on it, each as a :data:`Point`.
    Positions count fst_i as 0, the x'th event of process i as x and lst_i
    as ``len + 1``; entry k - 1 of a clock is the last position on process k
    that precedes or equals the node, or -1.

    Each process runs forward until it blocks on a receive. A send appends
    its clock to its channel's queue; the process sends on that channel in
    program order, so the queue holds the channel's sends in order. The
    k'th receive on the channel takes the k'th send from the front of the
    queue, or blocks until it exists, and joins its clock with the send's.
    Raises :class:`Unbalanced` like :func:`~layerseal.model.pairing`, or
    :class:`CyclicGraph`.
    """
    n, seqs = p.n, p.seqs
    clocks = [[-1] * n for _ in range(n)]
    done = [0] * n
    pending: dict[Chan, deque[tuple[int, ...]]] = {}
    sends: dict[Chan, Point] = {}
    recvs: dict[Chan, Point] = {}
    ready = list(range(1, n + 1))
    while ready:
        i = ready.pop()
        seq, x, clock = seqs[i - 1], done[i - 1], clocks[i - 1]
        while x < len(seq):
            stmt = seq[x]
            if stmt.kind is _SEND:
                x += 1
                clock[i - 1] = x
                ch = (i, stmt.peer)
                sent = tuple(clock)
                queue = pending.get(ch)
                if queue is None:
                    pending[ch] = queue = deque()
                    sends[ch] = (x, sent)
                queue.append(sent)
                ready.append(stmt.peer)
            else:
                ch = (stmt.peer, i)
                queue = pending.get(ch)
                if not queue:
                    break  # blocked until the next send on ch has run
                clock = list(map(max, clock, queue.popleft()))
                x += 1
                clock[i - 1] = x
                recvs[ch] = (x, tuple(clock))
        done[i - 1], clocks[i - 1] = x, clock
    if not _finished(p, done, pending):
        raise CyclicGraph("graph has a cycle")
    for i, (seq, clock) in enumerate(zip(seqs, clocks)):
        clock[i] = len(seq) + 1
    return tuple((clock[i], tuple(clock)) for i, clock in enumerate(clocks)), sends, recvs


def deadlock_free(p: Program) -> bool:
    """True when the program graph is acyclic.

    A cyclic graph means some prefix of the program can block forever with
    every participant waiting on a receive. Acyclicity is decided on the
    k'th-send-to-k'th-receive pairing; a run may still match messages
    differently, but some run completing every statement always exists when
    the graph is acyclic. Decided by the Kahn pass of
    :func:`causality_sweep` without the clocks: a count of the events each
    process has run, a count per channel of the messages sent and not yet
    received, and a stack of processes to resume, onto which a send pushes
    its peer. O(E + n) time and memory. Raises :class:`Unbalanced` like
    :func:`~layerseal.model.pairing`.
    """
    seqs = p.seqs
    done = [0] * p.n
    pending: dict[Chan, int] = {}
    ready = list(range(1, p.n + 1))
    while ready:
        i = ready.pop()
        seq, x = seqs[i - 1], done[i - 1]
        while x < len(seq):
            stmt = seq[x]
            if stmt.kind is _SEND:
                ch = (i, stmt.peer)
                pending[ch] = pending.get(ch, 0) + 1
                ready.append(stmt.peer)
            else:
                ch = (stmt.peer, i)
                if not pending.get(ch):
                    break  # blocked until the next send on ch has run
                pending[ch] -= 1
            x += 1
        done[i - 1] = x
    return _finished(p, done, pending)


def _finished(
    p: Program, done: list[int], pending: dict[Chan, int] | dict[Chan, deque[tuple[int, ...]]]
) -> bool:
    """True when a Kahn pass that ran ``done`` events per process ran them
    all, False when a cycle blocked it.

    Raises :class:`Unbalanced` naming the first unbalanced channel in
    canonical order, like :func:`~layerseal.model.pairing`. When a process
    is blocked, ``pairing`` decides whether that is the cause. When every
    process finished, every receive took a send, so the unbalanced channels
    are those left with messages sent and never received: a nonzero count,
    or a non-empty queue, in ``pending``.
    """
    if done != list(map(len, p.seqs)):
        pairing(p)
        return False
    extra = [ch for ch, queue in pending.items() if queue]
    if extra:
        raise Unbalanced(Channel(*min(extra)))
    return True
