"""Interference signatures.

The signature of a balanced, deadlock-free program is a quadratically sized
summary that preserves exactly what later layers need to know in order to
compose safely with it: per channel, whether a receive remains exposed to
messages sent by the future, and how the earliest send and latest receive on
each channel relate causally to every process's entry and exit.

Construction: one sweep over the program graph
(:func:`~layerseal.graph.causality_sweep`) gives the vector clocks of the
lst dummies, the first send per channel and the last receive per channel,
and nothing else; the fst dummies' clocks are fixed. The keep rule keeps
those nodes, except that it

* drops a first send on i->j when fst_j causally precedes it (a message the
  receiver helped cause can never race ahead of the receiver's past), and
* drops a last receive on i->j when it causally precedes lst_i (the sender's
  remaining future is already ordered after it, so no later send can be
  consumed by it).

A channel i->j is left open exactly when its last-receive node survives.
Each kept node is its clock, which is all any later question needs; its
own entry is its position. The identity of a signature is its ranked
clocks: every entry k of a kept node's clock replaced by its rank among the
kept positions on process k. Two signatures have the same edges, the causal
order restricted to their kept nodes, exactly when their kept channels and
ranked clocks agree, so equality and hashing never list an edge. The
nodes and edges, each node a ``SigNode`` known by its name (fst_i / lst_i
for the dummies, snd:i>j for a surviving first send, rcv:j<i for a
surviving last receive), are listed by :mod:`~layerseal.listing` on first
use, for display only.

Signatures compose: :func:`signature_compose` computes the signature of a
layered program from the two signatures alone, without revisiting the
programs. It glues, then applies the same keep rule. The clocks of the
first layer carry over unchanged. A second-layer clock moves up by the
first layer's event count on each process it reaches, and for every fst_k
that precedes the node in its own layer it inherits the clock of the first
layer's lst_k, which the gluing puts before it. The first layer's first
send on a channel comes before the second layer's, and the second layer's
last receive after the first layer's.

Sealing is decided from two signatures as well. A program q seals a
program p when, in the layered program p then q, no receive belonging to p
can ever consume a message sent after p finished. :func:`is_seal` decides
it with :func:`signature_seals`: for every channel i->j that p leaves open,
some process k must have p's last receive on the channel causally before
lst_k in p, and q must causally order fst_k before the point that guards
the channel in q: q's own first send on i->j when q sends on it, otherwise
lst_i, which bounds every send a later layer could add.

:func:`compute_signature` keeps each checked signature in the memo of
:func:`~layerseal.model.found`; a shared signature's maps are read-only.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import filterfalse, permutations
from operator import le
from types import MappingProxyType

from .errors import InvariantViolation, ProcessCountMismatch
from .graph import Clock, causality_sweep
from .model import Channel, Program, found

TYPE_CHECKING = False  # as ``typing`` would say at run time, without loading it
if TYPE_CHECKING:
    from .listing import SigNode

__all__ = [
    "Signature",
    "compute_signature",
    "is_seal",
    "signature_compose",
    "signature_equal",
    "signature_seals",
]


# Kept first sends or last receives, by channel (i, j).
ByChannel = dict[tuple[int, int], Clock]


class Signature:
    """The kept nodes of a program, each as its :data:`Clock`.

    ``exits[k - 1]`` is lst_k. ``sends[(i, j)]`` is the kept first send on
    i->j, on process i, and ``recvs[(i, j)]`` the kept last receive on it,
    on process j. A node's own entry is its position there. fst_k is
    implicit: clock -1 but for its own 0.

    ``nodes`` and ``edges`` are listed on first use and kept, for display
    only; equality and hashing use the ranked clocks alone.
    """

    def __init__(self, n: int, exits: tuple[Clock, ...], sends: ByChannel, recvs: ByChannel) -> None:
        self.n = n
        self.exits = exits
        self.sends = MappingProxyType(sends)
        self.recvs = MappingProxyType(recvs)

    def __reduce__(self):
        return Signature, (self.n, self.exits, dict(self.sends), dict(self.recvs))

    @cached_property
    def _key(self) -> tuple:
        """The identity of the signature: its kept channels and every kept
        node's clock with entry k replaced by its rank among the kept
        positions on process k, which counts the kept nodes of k at or
        before the node. fst_k's clock is the same in every signature over
        n processes, so it is left out."""
        kept = [[0, clock[k]] for k, clock in enumerate(self.exits)]
        for (i, _), clock in self.sends.items():
            kept[i - 1].append(clock[i - 1])
        for (_, j), clock in self.recvs.items():
            kept[j - 1].append(clock[j - 1])
        for positions in kept:
            positions.sort()

        def rank(clock: Clock) -> Clock:
            return tuple(map(bisect_right, kept, clock))

        exits = tuple(map(rank, self.exits))
        sends = tuple(sorted((ch, rank(clock)) for ch, clock in self.sends.items()))
        recvs = tuple(sorted((ch, rank(clock)) for ch, clock in self.recvs.items()))
        return self.n, exits, sends, recvs

    @cached_property
    def nodes(self) -> tuple[SigNode, ...]:
        """Every kept node in print order (:mod:`~layerseal.listing`)."""
        from .listing import signature_nodes
        return signature_nodes(self)

    @cached_property
    def edges(self) -> tuple[tuple[SigNode, SigNode], ...]:
        """Every causally ordered pair of distinct nodes, by source and then
        target in print order (:mod:`~layerseal.listing`)."""
        from .listing import signature_edges
        return signature_edges(self)

    def open_channels(self) -> list[Channel]:
        return [Channel(i, j) for i, j in sorted(self.recvs)]

    def closed_pairs(self) -> list[tuple[int, int]]:
        """Every channel (i, j) left closed, in order."""
        return list(filterfalse(self.recvs.__contains__, permutations(range(1, self.n + 1), 2)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return signature_equal(self, other)

    def __hash__(self) -> int:
        return hash(self._key)


def _check(sig: Signature) -> Signature:
    """Raise :class:`InvariantViolation` unless the clocks are consistent.

    Costs O(n) per node. A violation is an implementation bug; the check
    runs on every signature returned.
    """
    n, exits, recvs = sig.n, sig.exits, sig.recvs
    if len(exits) != n or len(sig.sends) + len(recvs) > 2 * n * (n - 1):
        raise InvariantViolation(f"signature is not O(n^2) for n = {n}")
    if not {n}.issuperset(map(len, (*exits, *sig.sends.values(), *recvs.values()))):
        raise InvariantViolation(f"a clock does not have {n} entries")
    chains: dict[int, list[Clock]] = {}  # by process, where it keeps a node
    for (i, j), clock in sig.sends.items():
        if clock[j - 1] >= 0:
            raise InvariantViolation(f"fst_{j} precedes snd:{i}>{j}")
        recv = recvs.get((i, j))
        if recv is not None and not all(map(le, clock, recv)):
            raise InvariantViolation(f"snd:{i}>{j} does not precede rcv:{j}<{i}")
        chains.setdefault(i, []).append(clock)
    for (i, j), clock in recvs.items():
        if exits[i - 1][j - 1] >= clock[j - 1]:
            raise InvariantViolation(f"rcv:{j}<{i} precedes lst_{i}")
        chains.setdefault(j, []).append(clock)
    # fst_k heads each chain: position 0, every other entry -1. Tuple order
    # sorts a chain by position, as a chain is ordered entry by entry.
    floor = (-1,) * n
    for k, exit_clock in enumerate(exits, start=1):
        chain = chains.get(k, [])
        if not chain and exit_clock[k - 1] > 0 and min(exit_clock) >= -1:
            continue  # lst_k alone follows fst_k
        chain.sort()
        chain.append(exit_clock)
        x, a = 0, floor
        for b in chain:
            y = b[k - 1]
            if x >= y or not all(map(le, a, b)):
                raise InvariantViolation(f"clocks of process {k} are not monotone at position {y}")
            x, a = y, b
    return sig


def _kept(n: int, exits: tuple[Clock, ...], sends: ByChannel, recvs: ByChannel) -> Signature:
    """The signature of the nodes that survive the keep rule, checked. The
    rule filters the dicts it is handed in place; both callers pass fresh ones.

    Composing re-checks the nodes it takes over, and they always survive.
    The first layer's first sends keep their clocks. A glued last receive
    on i->j of the second layer stays after the glued lst_i: if lst_i
    reached fst_j in its own layer, entries j of both moved up alike;
    otherwise the glued exit's entry j is at most the first layer's event
    count on j, and the glued receive's entry j is above it.
    """
    for ch in [(i, j) for (i, j), c in sends.items() if c[j - 1] >= 0]:
        del sends[ch]
    for ch in [(i, j) for (i, j), c in recvs.items() if exits[i - 1][j - 1] >= c[j - 1]]:
        del recvs[ch]
    return _check(Signature(n, exits, sends, recvs))


def compute_signature(p: Program) -> Signature:
    """Signature of a balanced, deadlock-free program.

    Raises :class:`Unbalanced` or :class:`CyclicGraph` when the
    preconditions fail.
    """
    facts = found(p)
    sig = facts.get("signature")
    if sig is None:
        sig = facts["signature"] = _kept(p.n, *causality_sweep(p))
    return sig


def signature_compose(sp: Signature, sq: Signature) -> Signature:
    """Signature of the layered program, from the layer signatures alone:
    glue each lst_i of the first signature to fst_i of the second, then
    apply the keep rule."""
    if sp.n != sq.n:
        raise ProcessCountMismatch(sp.n, sq.n)
    n = sp.n
    shift = [clock[k] - 1 for k, clock in enumerate(sp.exits)]
    # What a node of q inherits from p depends only on which fst_k precede
    # it, so it is computed once per such set.
    inherited: dict[tuple[bool, ...], list[int]] = {}

    def glue(clock: Clock) -> Clock:
        # fst_k precedes the node in q exactly where its clock is not -1,
        # and lst_k of p then precedes it too. Where q itself reaches
        # process k, its entry k, moved up by p's events on k, dominates:
        # no node of p lies after p's last event on k.
        reached = tuple(c >= 0 for c in clock)
        base = inherited.get(reached)
        if base is None:
            base = [-1] * n
            for k in range(n):
                if reached[k]:
                    base = list(map(max, base, sp.exits[k]))
            inherited[reached] = base
        return tuple(c + s if c >= 0 else b for c, s, b in zip(clock, shift, base))

    sends = sp.sends | {ch: glue(clock) for ch, clock in sq.sends.items() if ch not in sp.sends}
    recvs = sp.recvs | {ch: glue(clock) for ch, clock in sq.recvs.items()}
    return _kept(n, tuple(map(glue, sq.exits)), sends, recvs)


def signature_equal(a: Signature, b: Signature) -> bool:
    """True when the two signatures have the same nodes and the same edges.

    The ranked clocks fix the edges: a node on process k precedes another
    exactly when the other's ranked entry k reaches the node's own rank; and
    the edges fix the ranked clocks, as counts of predecessors per process.
    O(|sig| n log n) the first time a signature is compared or hashed, and
    O(|sig| n) after that."""
    return a._key == b._key


def signature_seals(sp: Signature, sq: Signature) -> bool:
    """True when a program with signature ``sq`` seals one with signature
    ``sp``, by the rule in the module docstring; O(n) per open channel.

    Raises :class:`ProcessCountMismatch` when the process counts differ."""
    if sp.n != sq.n:
        raise ProcessCountMismatch(sp.n, sq.n)
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


def is_seal(p: Program, q: Program) -> bool:
    """Decide whether q seals p, on signatures alone.

    Both programs must be balanced and deadlock-free over the same process
    count. Layering balanced deadlock-free programs is itself deadlock-free:
    the layered graph adds no edge from the later layer back into the
    earlier one.
    """
    if p.n != q.n:
        raise ProcessCountMismatch(p.n, q.n)
    return signature_seals(compute_signature(p), compute_signature(q))
