"""Independent reference answers for the benchmark's correctness checks.

This is a second implementation of the analyses the benchmark times, written
from their documented definitions and sharing no code with the library. The
program graph is a Lamport space-time diagram: one chain per process, from
an entry point fst_i through its events to an exit point lst_i, plus an edge
from the k'th send on each channel to the k'th receive on it. Vector clocks
over that diagram answer every reachability query in O(1).

On small programs the brute-force oracle checks these answers semantically;
on large ones they stand in for it.
"""

from __future__ import annotations

from collections import deque

Pos = tuple[int, int]  # (process, index); index -1 is fst, len(seq) is lst


def _channel(proc: int, kind: str, peer: int) -> tuple[int, int]:
    return (proc, peer) if kind == "send" else (peer, proc)


class Diagram:
    """Vector clocks of one program; ``clocks`` is None when the program is
    unbalanced or its graph has a cycle, so that it can deadlock."""

    def __init__(self, p) -> None:
        self.n = p.n
        self.seqs = p.seqs
        self.clocks = self._clocks()

    def _clocks(self) -> list[list[list[int]]] | None:
        n, seqs = self.n, self.seqs
        ordinal: list[list[int]] = []
        count: dict[tuple[str, tuple[int, int]], int] = {}
        for proc, seq in enumerate(seqs, start=1):
            row = []
            for kind, peer in seq:
                key = (kind, _channel(proc, kind, peer))
                row.append(count.get(key, 0))
                count[key] = row[-1] + 1
            ordinal.append(row)
        if any(count.get(("send", ch), 0) != count.get(("recv", ch), 0) for _, ch in count):
            return None

        vc: list[list[list[int]]] = [[] for _ in range(n)]
        sent: dict[tuple[int, int], list[list[int]]] = {}
        ready = deque(range(1, n + 1))
        while ready:
            proc = ready.popleft()
            seq, row = seqs[proc - 1], vc[proc - 1]
            while len(row) < len(seq):
                idx = len(row)
                kind, peer = seq[idx]
                clock = list(row[-1]) if row else [0] * n
                if kind == "recv":
                    senders = sent.get((peer, proc), [])
                    if len(senders) <= ordinal[proc - 1][idx]:
                        break  # the matching send has not happened yet
                    clock = [max(a, b) for a, b in zip(clock, senders[ordinal[proc - 1][idx]])]
                clock[proc - 1] = idx + 1
                row.append(clock)
                if kind == "send":
                    sent.setdefault((proc, peer), []).append(clock)
                    ready.append(peer)
        if any(len(vc[i]) != len(seqs[i]) for i in range(n)):
            return None
        return vc

    def fst(self, proc: int) -> Pos:
        return (proc, -1)

    def lst(self, proc: int) -> Pos:
        return (proc, len(self.seqs[proc - 1]))

    def precedes(self, x: Pos, y: Pos) -> bool:
        """Is there a non-empty path from x to y?"""
        (p, a), (q, b) = x, y
        if p == q:
            return a < b
        if a >= len(self.seqs[p - 1]):
            return False  # lst_p has no successors
        last = min(b, len(self.seqs[q - 1]) - 1)
        return last >= 0 and self.clocks[q - 1][last][p - 1] > max(a, 0)

    def _first_sends_last_recvs(self) -> tuple[dict, dict]:
        first_send: dict[tuple[int, int], Pos] = {}
        last_recv: dict[tuple[int, int], Pos] = {}
        for proc, seq in enumerate(self.seqs, start=1):
            for idx, (kind, peer) in enumerate(seq):
                if kind == "send":
                    first_send.setdefault((proc, peer), (proc, idx))
                else:
                    last_recv[(peer, proc)] = (proc, idx)
        return first_send, last_recv

    def signature_nodes(self) -> dict[str, Pos]:
        """Signature nodes by name, with their positions: the entry and exit
        points, each first send the receiver's entry does not precede, and
        each last receive that does not precede the sender's exit."""
        nodes: dict[str, Pos] = {}
        for k in range(1, self.n + 1):
            nodes[f"fst_{k}"] = self.fst(k)
            nodes[f"lst_{k}"] = self.lst(k)
        first_send, last_recv = self._first_sends_last_recvs()
        for (i, j), pos in first_send.items():
            if not self.precedes(self.fst(j), pos):
                nodes[f"snd:{i}>{j}"] = pos
        for (i, j), pos in last_recv.items():
            if not self.precedes(pos, self.lst(i)):
                nodes[f"rcv:{j}<{i}"] = pos
        return nodes

    def signature(self) -> tuple[dict[str, Pos], set[tuple[str, str]]]:
        """Signature nodes and the reachability edges among them."""
        nodes = self.signature_nodes()
        edges = {
            (a, b)
            for a, x in nodes.items()
            for b, y in nodes.items()
            if a != b and self.precedes(x, y)
        }
        return nodes, edges

    def open_channels(self) -> list[tuple[int, int]]:
        """Channels i->j whose last receive does not precede lst_i."""
        _, last_recv = self._first_sends_last_recvs()
        return sorted(
            ch for ch, pos in last_recv.items() if not self.precedes(pos, self.lst(ch[0]))
        )


def closed_edges(n: int, open_channels) -> set[tuple[int, int]]:
    opened = set(open_channels)
    return {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and (i, j) not in opened
    }


def _adjacency(n: int, edges) -> dict[int, list[int]]:
    adj: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return {i: sorted(peers) for i, peers in adj.items()}


def _bfs_parents(adj: dict[int, list[int]], root: int) -> dict[int, int]:
    parent: dict[int, int] = {}
    seen = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                parent[w] = v
                queue.append(w)
    return parent


def sealable(n: int, closed: set[tuple[int, int]]) -> bool:
    """A seal exists exactly when the closed-channel graph is connected."""
    return n <= 1 or len(_bfs_parents(_adjacency(n, closed), 1)) == n - 1


def seals(p, q) -> bool:
    """Does q seal p? Every channel p leaves open must be guarded: its last
    receive precedes some lst_k in p, and fst_k precedes, in q, q's surviving
    first send on the channel or else lst_i."""
    dp, dq = Diagram(p), Diagram(q)
    p_nodes, q_nodes = dp.signature_nodes(), dq.signature_nodes()
    for name, pos in p_nodes.items():
        if not name.startswith("rcv:"):
            continue
        j, i = map(int, name[4:].split("<"))
        target = q_nodes.get(f"snd:{i}>{j}", dq.lst(i))
        if not any(
            dp.precedes(pos, dp.lst(k)) and dq.precedes(dq.fst(k), target)
            for k in range(1, p.n + 1)
        ):
            return False
    return True


def plan_text(n: int, closed: set[tuple[int, int]]) -> str | None:
    """The documented seal construction, as plan text; None if unsealable.

    Breadth-first spanning tree of the closed-channel graph from process 1,
    neighbours ascending; re-rooted at the centre of least eccentricity, the
    smallest id winning ties; then direct closes, a converge-cast in
    post-order and a broadcast in pre-order, children ascending.
    """
    if not sealable(n, closed):
        return None
    if n <= 1:
        return ""
    tree = _adjacency(n, _bfs_parents(_adjacency(n, closed), 1).items())

    def eccentricity(v: int) -> int:
        depth = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in tree[u]:
                if w not in depth:
                    depth[w] = depth[u] + 1
                    queue.append(w)
        return max(depth.values())

    centre = min(range(1, n + 1), key=lambda v: (eccentricity(v), v))
    parent = _bfs_parents(tree, centre)
    children: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for child in sorted(parent):
        children[parent[child]].append(child)
    preorder: list[int] = []
    postorder: list[int] = []
    stack = [(centre, False)]
    while stack:
        v, done = stack.pop()
        if done:
            postorder.append(v)
            continue
        preorder.append(v)
        stack.append((v, True))
        stack.extend((c, False) for c in reversed(children[v]))
    preorder.remove(centre)
    postorder.remove(centre)

    lines = [
        f"{parent[w]} -> {w} [direct-close]"
        for w in preorder
        if (parent[w], w) in closed and (w, parent[w]) not in closed
    ]
    lines += [f"{w} -> {parent[w]} [converge-cast]" for w in postorder]
    lines += [f"{parent[w]} -> {w} [broadcast]" for w in preorder]
    return "".join(line + "\n" for line in lines)


def expand(n: int, text: str):
    """The program performing a plan's transmissions, as program data."""
    seqs: list[list[tuple[str, int]]] = [[] for _ in range(n)]
    for line in text.splitlines():
        src, dst = map(int, line.split(" [")[0].split(" -> "))
        seqs[src - 1].append(("send", dst))
        seqs[dst - 1].append(("recv", src))
    return seqs
