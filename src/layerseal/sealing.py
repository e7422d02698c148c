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
processes with an edge (i, j) exactly when p closes channel i->j, that is,
every channel outside the open set of p's signature. One spanning search
from process 1 over its edges taken both ways decides sealability (a seal
exists if and only if it reaches every process) and roots the plan, a
sequence of single-message transmissions in three phases:

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
from enum import Enum
from typing import TYPE_CHECKING, Iterable

from .errors import BadProcessId, InvariantViolation, ProcessCountMismatch, Unsealable
from .model import Program, Record, program, recv, send, setfield
from .parser import MAX_PROCESSES, natural

if TYPE_CHECKING:
    from .signature import Signature

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
        if n < 0:
            raise ValueError("process count must be non-negative")
        setfield(self, "n", n)
        setfield(self, "edges", edges)

    def undirected_connected(self) -> bool:
        return len(_spanning(self)) == self.n


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
    return _closed(_compute_signature(p))


def _compute_signature(p: Program) -> Signature:
    """compute_signature, imported on the first call and kept: expanding a
    plan loads no causality analysis, and a fresh import of the package
    later in the process does not mix its modules into this copy's."""
    global _compute_signature
    from .signature import compute_signature as _compute_signature
    return _compute_signature(p)


def _closed(sig: Signature) -> ClosedChannelGraph:
    return ClosedChannelGraph(sig.n, frozenset(sig.closed_pairs()))


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
    if p.n != q.n:
        raise ProcessCountMismatch(p.n, q.n)
    return _seals(_compute_signature(p), _compute_signature(q))


def _seals(sp: Signature, sq: Signature) -> bool:
    # Channel i->j is guarded when, for some k, p's last receive on it
    # precedes lst_k in p and fst_k precedes the target in q: entry j of
    # lst_k's clock reaches the receive, entry k of the target's clock is
    # not -1.
    for (i, j), recv in sp.recvs.items():
        pos = recv[j - 1]
        target = sq.sends.get((i, j)) or sq.exits[i - 1]
        if not any(clock[j - 1] >= pos and c >= 0 for clock, c in zip(sp.exits, target)):
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


def _bfs(adj: dict[int, list[int]], root: int) -> dict[int, int]:
    """Parent of every vertex reached from root, in breadth-first order with
    neighbours ascending; the root is its own parent."""
    parent, order = {root: root}, [root]
    for v in order:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    return parent


def _undirected(n: int, pairs: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    """Ascending neighbours of each of 1..n, every pair taken both ways;
    raises :class:`BadProcessId` for a pair that is not a channel of 1..n."""
    adj: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
    for i, j in pairs:
        if i == j or i not in adj or j not in adj:
            raise BadProcessId(f"closed channel {i}->{j} is not a channel of 1..{n}")
        adj[i].add(j)
        adj[j].add(i)
    return {i: sorted(peers) for i, peers in adj.items()}


def _spanning(closed: ClosedChannelGraph) -> dict[int, int]:
    """Breadth-first search from 1 over the closed channels taken both ways:
    it spans exactly when p is sealable, and the plan casts over its tree."""
    adj = _undirected(closed.n, closed.edges)
    return _bfs(adj, 1) if adj else {}


def _centre(tree: dict[int, list[int]], first: dict[int, int]) -> int:
    """Vertex of minimum eccentricity in a tree, the smallest id on ties,
    given ``first``, a breadth-first search of the tree from any vertex.

    The last vertex a search reaches ends a longest path, the last one a
    search from it reaches ends that path, and its middle one or two
    vertices are those of minimum eccentricity (Jordan 1869).
    """
    a = next(reversed(first))
    parent = _bfs(tree, a)
    path = [next(reversed(parent))]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return min(path[(len(path) - 1) // 2 : len(path) // 2 + 1])


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
    disconnected and :class:`BadProcessId` for a pair that is no channel."""
    n = closed.n
    spanning = _spanning(closed)
    if len(spanning) != n:
        raise Unsealable("closed-channel graph is disconnected")
    if n <= 1:
        return SealPlan((), ())
    tree = _undirected(n, ((child, par) for child, par in spanning.items() if child != par))

    # The search from 1 over the closed graph is also the one over its tree:
    # same parents and order. Re-root the tree at the centre. A tree
    # edge is closed at least one way; where the upward channel is open, one
    # early transmission down the edge closes it for the converge-cast.
    preorder, postorder, parent = _orders(tree, _centre(tree, spanning))
    steps = [((parent[w], w), Phase.DIRECT_CLOSE) for w in preorder
             if (w, parent[w]) not in closed.edges]
    steps += [((w, parent[w]), Phase.CONVERGE_CAST) for w in postorder]
    steps += [((parent[w], w), Phase.BROADCAST) for w in preorder]
    return SealPlan(*zip(*steps))


def construct_seal(p: Program) -> SealPlan:
    """Synthesize a seal plan for p, or raise :class:`Unsealable`.

    The expansion of the returned plan always satisfies
    ``is_seal(p, expand_plan(plan, p.n))`` and stays under 3n transmissions.
    """
    return seal_signature(_compute_signature(p))


def seal_signature(sig: Signature) -> SealPlan:
    """:func:`construct_seal` for the program whose signature is ``sig``.

    Raises :class:`InvariantViolation` if the plan does not seal it, which
    would be a construction bug, not an unsealable input; the recovery would
    be extra direct closes along tree paths, but no input class is known to
    need it.
    """
    plan = plan_seal(_closed(sig))
    if not _seals(sig, _compute_signature(expand_plan(plan, sig.n))):
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


def _process_id(digits: str) -> int:
    value = natural(digits, "process id")
    if value > MAX_PROCESSES:
        raise ValueError(f"process id {value} exceeds {MAX_PROCESSES}")
    return value


def parse_plan(text: str) -> SealPlan:
    """Inverse of :func:`format_plan`; blank lines and ``#`` comments allowed.

    A line ends at a line feed alone, which may follow a carriage return:
    ``str.splitlines`` would also end one at a form feed or a Unicode line
    separator. Raises :class:`ValueError` naming the line for a line that
    does not parse, an unknown phase, or a process id above
    ``MAX_PROCESSES``."""
    steps: list[tuple[tuple[int, int], Phase]] = []
    for lineno, raw in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip(" \t"):
            continue
        m = _PLAN_LINE.fullmatch(line)
        if m is None:
            raise ValueError(f"plan line {lineno}: cannot parse {raw!r}")
        src, dst, tag = m.groups()
        try:
            transmission = (_process_id(src), _process_id(dst))
        except ValueError as exc:
            raise ValueError(f"plan line {lineno}: {exc}") from None
        try:
            phase = Phase(tag) if tag else Phase.DIRECT_CLOSE
        except ValueError:
            raise ValueError(f"plan line {lineno}: unknown phase {tag!r}") from None
        steps.append((transmission, phase))
    return SealPlan(*zip(*steps)) if steps else SealPlan((), ())
