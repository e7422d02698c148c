"""Static sealing analysis for layered message-passing programs.

The package models straight-line programs whose processes exchange messages
over reliable, unordered point-to-point channels. It decides deadlock
freedom, computes compositional signatures, classifies channels as open or
closed, decides whether one layer seals another, and synthesizes small
sealing layers. A brute-force semantic oracle backs every static answer on
programs small enough to enumerate.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

from .errors import (
    AnalysisError,
    BadProcessId,
    BudgetExceeded,
    CyclicGraph,
    InvariantViolation,
    ProcessCountMismatch,
    ShapeError,
    Unbalanced,
    Unsealable,
)
from .graph import deadlock_free, program_graph
from .model import (
    Channel,
    Program,
    Statement,
    StmtKind,
    channels_of,
    empty_program,
    is_balanced,
    layer,
    message_transmit,
    pairing,
    program,
    recv,
    send,
)
from .parser import (
    ParseError,
    ParseErrorKind,
    SourceSpan,
    format_program,
    parse,
)
from .sealing import (
    ClosedChannelGraph,
    Phase,
    SealPlan,
    closed_channels,
    construct_seal,
    expand_plan,
    format_plan,
    is_seal,
    is_sealable,
    parse_plan,
    plan_seal,
    seal_signature,
)
from .signature import (
    SigNode,
    Signature,
    compute_signature,
    signature_compose,
    signature_equal,
)

__all__ = [
    "AnalysisError",
    "BadProcessId",
    "BudgetExceeded",
    "Channel",
    "ClosedChannelGraph",
    "CyclicGraph",
    "DEFAULT_BUDGET",
    "EventWorld",
    "InvariantViolation",
    "Matching",
    "OracleBudget",
    "ParseError",
    "ParseErrorKind",
    "Phase",
    "Program",
    "ProcessCountMismatch",
    "SealPlan",
    "ShapeError",
    "SigNode",
    "Signature",
    "SourceSpan",
    "Statement",
    "StmtKind",
    "Unbalanced",
    "Unsealable",
    "channels_of",
    "closed_channels",
    "compute_signature",
    "construct_seal",
    "deadlock_free",
    "empty_program",
    "enumerate_matchings",
    "expand_plan",
    "format_plan",
    "format_program",
    "has_rel_run",
    "is_balanced",
    "is_seal",
    "is_sealable",
    "layer",
    "message_transmit",
    "oracle_channel_open",
    "oracle_seals",
    "oracle_tcc",
    "pairing",
    "parse",
    "parse_plan",
    "plan_seal",
    "program",
    "program_graph",
    "recv",
    "seal_signature",
    "send",
    "signature_compose",
    "signature_equal",
    "__version__",
]

# The oracle and its names load on first use (PEP 562), so that importing
# the package, or the CLI for any command but ``verify``, does not pay for
# it. ``from . import oracle`` here would call this function again.
_ORACLE_NAMES = frozenset(
    "DEFAULT_BUDGET EventWorld Matching OracleBudget enumerate_matchings has_rel_run"
    " oracle_channel_open oracle_seals oracle_tcc".split()
)


def __getattr__(name: str):
    if name != "oracle" and name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    oracle = importlib.import_module(".oracle", __name__)
    return oracle if name == "oracle" else getattr(oracle, name)
