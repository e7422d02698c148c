"""Exceptions shared across the analysis modules."""

from __future__ import annotations

__all__ = [
    "AnalysisError",
    "BadProcessId",
    "BudgetExceeded",
    "CyclicGraph",
    "InvariantViolation",
    "ProcessCountMismatch",
    "ShapeError",
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


class CyclicGraph(AnalysisError):
    """The program graph contains a cycle, so the program can deadlock."""


class ProcessCountMismatch(AnalysisError):
    """Two programs that must share a process count do not."""

    def __init__(self, left: int, right: int) -> None:
        super().__init__(f"process counts differ: {left} vs {right}")
        self.left = left
        self.right = right


class Unsealable(AnalysisError):
    """No seal exists: the closed-channel graph is disconnected."""


class BadProcessId(AnalysisError):
    """A process id is outside the declared range 1..n."""


class BudgetExceeded(AnalysisError):
    """The oracle's enumeration would exceed its configured budget."""


class ShapeError(AnalysisError):
    """Some channel has more receive events than send events, so no total
    matching over the world can exist."""

    def __init__(self, channel) -> None:
        super().__init__(f"more receives than sends on channel {channel}")
        self.channel = channel


class InvariantViolation(AnalysisError):
    """An internal consistency check failed: an implementation bug, never a
    property of the input."""
