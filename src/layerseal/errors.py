"""Exceptions shared across the analysis modules."""

from __future__ import annotations

__all__ = [
    "AnalysisError",
    "BadProcessId",
    "BudgetExceeded",
    "CyclicGraph",
    "InvariantViolation",
    "ProcessCountMismatch",
    "Unbalanced",
    "Unsealable",
]


class AnalysisError(Exception):
    """Base class for errors raised by the static analyses and the oracle."""


class Unbalanced(AnalysisError):
    """A channel's send count differs from its receive count.

    Carries the first offending channel in canonical (src, dst) order.
    """

    def __init__(self, channel) -> None:
        super().__init__(f"unbalanced channel {channel}")
        self.channel = channel

    def __reduce__(self):
        return type(self), (self.channel,)


class CyclicGraph(AnalysisError):
    """The program graph contains a cycle, so the program can deadlock."""

    def __init__(self, message: str = "graph has a cycle") -> None:
        super().__init__(message)


class ProcessCountMismatch(AnalysisError):
    """Two programs that must share a process count do not."""

    def __init__(self, left: int, right: int) -> None:
        super().__init__(f"process counts differ: {left} vs {right}")
        self.left = left
        self.right = right

    def __reduce__(self):
        return type(self), (self.left, self.right)


class Unsealable(AnalysisError):
    """The closed-channel graph is disconnected: connected is enough for a seal, not needed."""


class BadProcessId(AnalysisError):
    """A process id is outside the declared range 1..n."""


class BudgetExceeded(AnalysisError):
    """The oracle's enumeration would exceed its configured budget."""


class InvariantViolation(AnalysisError):
    """An internal consistency check failed: an implementation bug, never a
    property of the input."""
