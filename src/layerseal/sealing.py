"""Constructing seals.

A seal of p is a program q that seals p, as :mod:`~layerseal.signature`
defines and decides it. Sealing is what makes a layer boundary safe: once
sealed, anything layered after q composes with p as if a global barrier
stood between them. A seal is built as a plan (:mod:`~layerseal.plan`).

Construction works on the closed-channel graph: the directed graph over
processes with an edge (i, j) exactly when p closes channel i->j, that is,
every channel outside the open set of p's signature. One spanning search
from process 1 over its edges taken both ways roots the plan. Reaching
every process is enough for a seal but not needed for one: a few programs
whose search stops short have one all the same. The plan is a sequence of
single-message transmissions in three phases:

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

from .errors import BadProcessId, InvariantViolation, Unsealable
from .model import Program, Record, setfield
# The benchmark reads ``is_seal``, ``expand_plan`` and ``format_plan`` as ``sealing.*``.
from .plan import Phase, SealPlan, expand_plan, format_plan
from .signature import compute_signature, is_seal, signature_seals

TYPE_CHECKING = False  # as ``typing`` would say at run time, without loading it
if TYPE_CHECKING:
    from collections.abc import Iterable
    from .signature import Signature

__all__ = [
    "ClosedChannelGraph",
    "closed_channels",
    "construct_seal",
    "is_sealable",
    "plan_seal",
    "seal_signature",
]


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


def closed_channels(p: Program) -> ClosedChannelGraph:
    """Which channels p closes: every channel its signature leaves open
    is open, every other one is closed."""
    return _closed(compute_signature(p))


def _closed(sig: Signature) -> ClosedChannelGraph:
    return ClosedChannelGraph(sig.n, frozenset(sig.closed_pairs()))


def is_sealable(p: Program) -> bool:
    """True when p's closed-channel graph is connected, which is enough for a
    seal but not needed for one: a few programs it refuses have a seal."""
    return closed_channels(p).undirected_connected()


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
    """Breadth-first search from 1 over the closed channels taken both ways, for
    the plan to cast over its tree: spanning is enough for a seal, not needed."""
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
    return seal_signature(compute_signature(p))


def seal_signature(sig: Signature) -> SealPlan:
    """:func:`construct_seal` for the program whose signature is ``sig``.

    Raises :class:`InvariantViolation` if the plan does not seal it, which
    would be a construction bug, not an unsealable input; the recovery would
    be extra direct closes along tree paths, but no input class is known to
    need it.
    """
    plan = plan_seal(_closed(sig))
    if not signature_seals(sig, compute_signature(expand_plan(plan, sig.n))):
        raise InvariantViolation("constructed plan does not seal its input")
    return plan
