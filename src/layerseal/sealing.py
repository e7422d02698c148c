"""Deciding and constructing seals.

A program q seals a program p when, in the layered program p then q, no
receive belonging to p can ever consume a message sent after p finished.
Sealing is what makes a layer boundary safe: once sealed, anything layered
after q composes with p as if a global barrier stood between them.

Deciding is_seal(p, q) needs only the two signatures. For every channel i->j
that p leaves open, some process k must have p's last receive on the channel
causally before lst_k in p, and q must causally order fst_k before the point
that guards the channel in q: q's own first send on i->j when q sends on it,
otherwise lst_i, which bounds every send a later layer could add.

Construction works on the closed-channel graph: the directed graph over
processes with an edge (i, j) exactly when p closes channel i->j. A seal
exists if and only if the undirected version is connected. The synthesized
plan is a sequence of single-message transmissions in three phases:

a. direct closes: for spanning-tree edges pointing away from the centre
   whose reverse channel is still open, one transmission along the tree
   edge, which closes the reverse channel;
b. a converge-cast from the leaves to the centre (post-order);
c. a broadcast from the centre back out (pre-order).

Every transmission travels a channel that is closed by the time it is used,
and the two cast phases thread a causal path from every process to every
other, closing all channels p left open. The plan never exceeds 3(n-1)
transmissions.

All tie-breaking is deterministic: breadth-first spanning tree rooted at the
smallest process id with neighbours visited in ascending order, centre of
minimum eccentricity with the smallest id winning ties, children visited in
ascending order in both casts.
"""

from __future__ import annotations

import re
from collections import deque
from enum import Enum
from typing import Iterable

from .errors import BadProcessId, InvariantViolation, ProcessCountMismatch, Unsealable
from .model import Program, Record, program, recv, send, setfield
from .parser import natural
from .signature import Signature, compute_signature

__all__ = [
    "ClosedChannelGraph",
    "Phase",
    "SealPlan",
    "closed_channels",
    "construct_seal",
    "expand_plan",
    "format_plan",
    "is_seal",
    "is_sealable",
    "parse_plan",
    "plan_seal",
    "seal_signature",
]


class Phase(Enum):
    DIRECT_CLOSE = "direct-close"
    CONVERGE_CAST = "converge-cast"
    BROADCAST = "broadcast"


class ClosedChannelGraph(Record):
    """Directed graph over process ids; an edge (i, j) means i->j is closed."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]) -> None:
        setfield(self, "n", n)
        setfield(self, "edges", edges)

    def undirected_adjacency(self) -> dict[int, list[int]]:
        return _undirected(self.n, self.edges)

    def undirected_connected(self) -> bool:
        return self.n <= 1 or len(_bfs(self.undirected_adjacency(), 1)) == self.n


class SealPlan(Record):
    """Ordered single-message transmissions realizing a seal."""

    __slots__ = ("transmissions", "phase_tags")

    def __init__(
        self, transmissions: tuple[tuple[int, int], ...], phase_tags: tuple[Phase, ...]
    ) -> None:
        if len(transmissions) != len(phase_tags):
            raise ValueError("one phase tag per transmission")
        setfield(self, "transmissions", transmissions)
        setfield(self, "phase_tags", phase_tags)


def closed_channels(p: Program) -> ClosedChannelGraph:
    """Which channels p closes: every channel its signature leaves open
    is open, every other one is closed."""
    return _closed(compute_signature(p))


def _closed(sig: Signature) -> ClosedChannelGraph:
    edges = frozenset(
        (i, j)
        for i in range(1, sig.n + 1)
        for j in range(1, sig.n + 1)
        if i != j and (i, j) not in sig.recvs
    )
    return ClosedChannelGraph(sig.n, edges)


def is_sealable(p: Program) -> bool:
    """True when some seal for p exists."""
    return closed_channels(p).undirected_connected()


def is_seal(p: Program, q: Program) -> bool:
    """Decide whether q seals p, on signatures alone.

    Both programs must be balanced and deadlock-free over the same process
    count. Layering balanced deadlock-free programs is itself deadlock-free:
    the layered graph adds no edge from the later layer back into the
    earlier one.
    """
    sp = compute_signature(p)
    sq = compute_signature(q)
    if sp.n != sq.n:
        raise ProcessCountMismatch(sp.n, sq.n)
    return _seals(sp, sq)


def _seals(sp: Signature, sq: Signature) -> bool:
    # Channel i->j is guarded when, for some k, p's last receive on it
    # precedes lst_k in p and fst_k precedes the target in q: entry j of
    # lst_k's clock reaches the receive, entry k of the target's clock is
    # not -1.
    for (i, j), (pos, _) in sp.recvs.items():
        _, target = sq.sends.get((i, j)) or sq.exits[i - 1]
        if not any(clock[j - 1] >= pos and c >= 0 for (_, clock), c in zip(sp.exits, target)):
            return False
    return True


def expand_plan(plan: SealPlan, n: int) -> Program:
    """Expand a plan into the program that performs its transmissions.

    Raises :class:`BadProcessId` when a transmission endpoint lies outside
    1..n or sends to itself.
    """
    seqs: dict[int, list] = {}
    for src, dst in plan.transmissions:
        if not (1 <= src <= n and 1 <= dst <= n):
            raise BadProcessId(f"transmission {src}->{dst} outside 1..{n}")
        if src == dst:
            raise BadProcessId(f"transmission {src}->{dst} addresses itself")
        seqs.setdefault(src, []).append(send(dst))
        seqs.setdefault(dst, []).append(recv(src))
    return program("seal", n, seqs)


def _bfs(adj: dict[int, list[int]], root: int) -> dict[int, tuple[int, int]]:
    """Parent and depth of every vertex reached from root, in breadth-first
    order with neighbours ascending; the root is its own parent."""
    tree = {root: (root, 0)}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        depth = tree[v][1] + 1
        for w in adj[v]:
            if w not in tree:
                tree[w] = (v, depth)
                queue.append(w)
    return tree


def _undirected(n: int, pairs: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    """Ascending neighbours of each of 1..n, every pair taken both ways."""
    adj: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
    for i, j in pairs:
        adj[i].add(j)
        adj[j].add(i)
    return {i: sorted(peers) for i, peers in adj.items()}


def _centre(tree: dict[int, list[int]]) -> int:
    """Vertex of minimum eccentricity in a tree, the smallest id on ties.

    In a tree, the farthest vertex from any vertex is an end of a longest
    path, and every vertex's eccentricity is its larger distance to the two
    ends of one longest path, so three searches give them all.
    """
    first = _bfs(tree, 1)
    from_a = _bfs(tree, max(first, key=lambda v: first[v][1]))
    from_b = _bfs(tree, max(from_a, key=lambda v: from_a[v][1]))
    return min(tree, key=lambda v: (max(from_a[v][1], from_b[v][1]), v))


def _orders(tree: dict[int, list[int]], root: int) -> tuple[list[int], list[int], dict[int, int]]:
    """Pre-order and post-order of the tree below root, root excluded,
    children ascending, and the parent of every vertex; an explicit stack,
    so depth is unbounded."""
    parent = {root: root}
    preorder: list[int] = []
    postorder: list[int] = []
    stack = [(root, iter(tree[root]))]
    while stack:
        v, rest = stack[-1]
        child = next(rest, None)
        if child is None:
            stack.pop()
            if v != root:
                postorder.append(v)
        elif child != parent[v]:
            parent[child] = v
            preorder.append(child)
            stack.append((child, iter(tree[child])))
    return preorder, postorder, parent


def plan_seal(closed: ClosedChannelGraph) -> SealPlan:
    """The three-phase plan over a closed-channel graph, as described in
    the module docstring. Raises :class:`Unsealable` when the graph is
    disconnected."""
    n = closed.n
    if n <= 1:
        return SealPlan((), ())
    spanning = _bfs(closed.undirected_adjacency(), 1)
    if len(spanning) != n:
        raise Unsealable("closed-channel graph is disconnected")
    tree = _undirected(n, ((child, par) for child, (par, _) in spanning.items() if child != par))

    # Re-root the tree at the centre; orient every undirected tree edge by a
    # direction that the closed-channel graph actually provides, preferring
    # parent to child.
    centre = _centre(tree)
    preorder, postorder, parent = _orders(tree, centre)

    transmissions: list[tuple[int, int]] = []
    tags: list[Phase] = []
    for w in preorder:
        par = parent[w]
        away = (par, w) in closed.edges
        toward = (w, par) in closed.edges
        # Tree edges exist in the closed graph in at least one direction.
        # When only parent->child is closed and child->parent is open, one
        # early transmission down the edge closes the upward channel so the
        # converge-cast can use it.
        if away and not toward:
            transmissions.append((par, w))
            tags.append(Phase.DIRECT_CLOSE)
    for w in postorder:
        transmissions.append((w, parent[w]))
        tags.append(Phase.CONVERGE_CAST)
    for w in preorder:
        transmissions.append((parent[w], w))
        tags.append(Phase.BROADCAST)
    return SealPlan(tuple(transmissions), tuple(tags))


def construct_seal(p: Program) -> SealPlan:
    """Synthesize a seal plan for p, or raise :class:`Unsealable`.

    The expansion of the returned plan always satisfies
    ``is_seal(p, expand_plan(plan, p.n))`` and stays under 3n transmissions.
    """
    return seal_signature(compute_signature(p))


def seal_signature(sig: Signature) -> SealPlan:
    """:func:`construct_seal` for the program whose signature is ``sig``.

    Raises :class:`InvariantViolation` if the plan does not seal it, which
    would be a construction bug, not an unsealable input; the recovery would
    be extra direct closes along tree paths, but no input class is known to
    need it.
    """
    plan = plan_seal(_closed(sig))
    if not _seals(sig, compute_signature(expand_plan(plan, sig.n))):
        raise InvariantViolation("constructed plan does not seal its input")
    return plan


# ASCII only, like the program grammar: ``\d`` and ``\s`` would take other
# scripts' digits and blanks.
_PLAN_LINE = re.compile(r"[ \t]*([0-9]+)[ \t]*->[ \t]*([0-9]+)[ \t]*(?:\[([a-z-]+)\])?[ \t]*")


def format_plan(plan: SealPlan) -> str:
    """One transmission per line: ``src -> dst [phase]``."""
    lines = [
        f"{src} -> {dst} [{tag.value}]"
        for (src, dst), tag in zip(plan.transmissions, plan.phase_tags)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_plan(text: str) -> SealPlan:
    """Inverse of :func:`format_plan`; blank lines and ``#`` comments allowed.

    Raises :class:`ValueError` naming the line for a line that does not
    parse, an unknown phase, or a process id above ``MAX_PROCESSES``."""
    transmissions: list[tuple[int, int]] = []
    tags: list[Phase] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip(" \t"):
            continue
        m = _PLAN_LINE.fullmatch(line)
        if m is None:
            raise ValueError(f"plan line {lineno}: cannot parse {raw!r}")
        src, dst, tag = m.groups()
        try:
            transmission = (natural(src, "process id"), natural(dst, "process id"))
        except ValueError as exc:
            raise ValueError(f"plan line {lineno}: {exc}") from None
        try:
            phase = Phase(tag) if tag else Phase.DIRECT_CLOSE
        except ValueError:
            raise ValueError(f"plan line {lineno}: unknown phase {tag!r}") from None
        transmissions.append(transmission)
        tags.append(phase)
    return SealPlan(tuple(transmissions), tuple(tags))
