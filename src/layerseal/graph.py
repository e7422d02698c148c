"""Program graph: static causality skeleton of a balanced program.

Nodes are the communication events plus two dummy nodes per process, fst_i
and lst_i, marking where the process enters and leaves the program. Edges
chain each process's events between its dummies and pair the k'th send on a
channel with the k'th receive on it (:func:`~layerseal.model.pairing`). The
pairing exists for every k exactly when the program is balanced; otherwise
construction fails.

The match edges are not a claim about which message a receive actually
consumes. Channels are not FIFO. They are still sound causality edges: in
any run, the k'th receive on a channel can complete only after k messages
were sent on it, hence after the k'th send.

A cycle in the graph means the program can deadlock; acyclicity is what
:func:`deadlock_free` reports.

Construction: the graph is a space-time diagram (Lamport 1978), so the
analyses need neither the explicit graph nor its transitive closure. Every
node gets a position on its process: 0 for fst_i, x for the x'th event,
len + 1 for lst_i. :func:`vector_clocks` runs each process forward until it
blocks on a receive whose paired send has not run yet, which is one pass of
Kahn's algorithm over the events, and gives every node a vector clock
(Fidge 1988; Mattern 1989): entry k is the last position on process k that
precedes or equals the node, -1 when none does. A node a on process i at
position x precedes a different node b exactly when ``clock_b[i] >= x``, so
every reachability query costs O(1). :func:`program_graph` lists the nodes
and edges, read off the pairing, for display only.
"""

from __future__ import annotations

from .errors import CyclicGraph
from .model import Program, StmtKind, pairing

__all__ = ["deadlock_free", "program_graph", "vector_clocks"]


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


def vector_clocks(p: Program) -> list[list[list[int]]]:
    """Vector clock of every node of the program graph.

    ``clocks[i - 1][x]`` is the clock of the node at position x on process
    i: fst_i at 0, the x'th event at x, lst_i at ``len + 1``. Entry k - 1 of
    a clock is the last position on process k that precedes or equals the
    node, or -1. Raises :class:`Unbalanced` like
    :func:`~layerseal.model.pairing`, or :class:`CyclicGraph`.
    """
    n = p.n
    match = pairing(p)
    rows: list[list[list[int]]] = []
    for i in range(n):
        fst = [-1] * n
        fst[i] = 0
        rows.append([fst])
    ready = list(range(1, n + 1))
    while ready:
        i = ready.pop()
        row, seq = rows[i - 1], p.seqs[i - 1]
        clock = row[-1]
        for x in range(len(row), len(seq) + 1):
            stmt = seq[x - 1]
            if stmt.kind is StmtKind.SEND:
                clock = clock.copy()
                ready.append(stmt.peer)
            else:
                j, y = match[(i, x)]
                sent = rows[j - 1]
                if len(sent) <= y:
                    break  # blocked until the paired send has run
                clock = list(map(max, clock, sent[y]))
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
    the graph is acyclic. Decided by the Kahn pass of :func:`vector_clocks`
    without the clocks: a count of the events each process has run, and a
    stack of processes to resume, onto which a send pushes its peer.
    O(E + n) time and memory. Raises :class:`Unbalanced` like
    :func:`~layerseal.model.pairing`.
    """
    match = pairing(p)
    done = [0] * p.n
    ready = list(range(1, p.n + 1))
    while ready:
        i = ready.pop()
        seq = p.seqs[i - 1]
        x = done[i - 1]
        while x < len(seq):
            stmt = seq[x]
            if stmt.kind is StmtKind.SEND:
                ready.append(stmt.peer)
            else:
                j, y = match[(i, x + 1)]
                if done[j - 1] < y:
                    break  # blocked until the paired send has run
            x += 1
        done[i - 1] = x
    return all(x == len(seq) for x, seq in zip(done, p.seqs))
