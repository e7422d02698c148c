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

# Each submodule and the public names it defines. Every module, and every
# name, loads on first use (PEP 562), so that importing the package, or the
# CLI for one command, compiles only the modules that command runs.
_EXPORTS = {
    "errors": "AnalysisError BadProcessId BudgetExceeded CyclicGraph InvariantViolation"
    " ProcessCountMismatch Unbalanced Unsealable",
    "graph": "deadlock_free program_graph",
    "model": "Channel Program Statement StmtKind channels_of empty_program is_balanced layer"
    " message_transmit program recv send",
    "oracle": "DEFAULT_BUDGET OracleBudget oracle_channel_open oracle_seals oracle_tcc",
    "parser": "ParseError ParseErrorKind format_program parse",
    "sealing": "ClosedChannelGraph Phase SealPlan closed_channels construct_seal expand_plan"
    " format_plan is_seal is_sealable parse_plan plan_seal seal_signature",
    "signature": "SigNode Signature compute_signature signature_compose signature_equal",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        # Importing a submodule also binds it here, so this runs once for it.
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__getattr__(_HOME[name]), name)
