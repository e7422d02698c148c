"""Seal plans: the transmissions of a seal, the program they expand to, and
their text, one transmission per line (``src -> dst [phase]``).

:mod:`~layerseal.sealing` builds a plan from a program's signature; this
module needs neither, so expanding a plan loads no causality analysis.
"""

from __future__ import annotations

import re
from enum import Enum

from .errors import BadProcessId
from .model import Program, Record, program, recv, send, setfield
from .parser import MAX_PROCESSES, natural

__all__ = ["Phase", "SealPlan", "expand_plan", "format_plan", "parse_plan"]


class Phase(Enum):
    DIRECT_CLOSE = "direct-close"
    CONVERGE_CAST = "converge-cast"
    BROADCAST = "broadcast"


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


# ASCII only, as in programs: ``\d`` and ``\s`` would take other scripts' digits
# and blanks. Only ``parse_plan`` uses it, so ``re`` compiles it on first use.
_PLAN_LINE = r"[ \t]*([0-9]+)[ \t]*->[ \t]*([0-9]+)[ \t]*(?:\[([a-z-]+)\])?[ \t]*"


def format_plan(plan: SealPlan) -> str:
    """One transmission per line: ``src -> dst [phase]``."""
    lines = [
        f"{src} -> {dst} [{tag.value}]"
        for (src, dst), tag in zip(plan.transmissions, plan.phase_tags)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


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
        m = re.fullmatch(_PLAN_LINE, line)
        if m is None:
            raise ValueError(f"plan line {lineno}: cannot parse {raw!r}")
        src, dst, tag = m.groups()
        try:
            transmission = tuple(natural(end, "process id", MAX_PROCESSES) for end in (src, dst))
        except ValueError as exc:
            raise ValueError(f"plan line {lineno}: {exc}") from None
        try:
            phase = Phase(tag) if tag else Phase.DIRECT_CLOSE
        except ValueError:
            raise ValueError(f"plan line {lineno}: unknown phase {tag!r}") from None
        steps.append((transmission, phase))
    return SealPlan(*zip(*steps)) if steps else SealPlan((), ())
