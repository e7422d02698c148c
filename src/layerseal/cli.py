"""Command line entry: ``main`` answers ``--version`` itself and hands any
other argv to ``commands.run``, so printing the version loads nothing more.

Exit codes:

* 0: success, and the analysis answered positively where applicable;
* 1: the analysis answered negatively (not balanced, not deadlock-free, not
  sealable, not a seal, oracle disagreement);
* 2: input error (unreadable file, parse error, unbalanced or deadlocking
  program where the analysis requires otherwise, bad process ids);
* 3: oracle budget exceeded.
"""

import gc
import sys

from . import __version__

__all__ = ["CliResult", "main", "run"]

# What ``--version`` prints, without its newline.
VERSION = f"layerseal {__version__}"


def __getattr__(name: str):
    # ``run`` and ``CliResult`` load the commands on first use. Any other
    # name loads nothing: ``from layerseal.cli import main`` asks for
    # ``__path__``.
    if name not in ("CliResult", "run"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import commands
    return getattr(commands, name)


def main() -> None:
    """Run ``sys.argv``, write its output and end the process with its exit code."""
    if sys.argv[1:] == ["--version"]:
        code, stdout = 0, f"{VERSION}\n"
    else:
        from .commands import run
        result = run(sys.argv[1:])
        code, stdout = result.exit_code, result.stdout
    try:
        print(stdout, end="", flush=True)
    except BrokenPipeError:  # the reader left: stdout to devnull, so the flush at exit cannot fail
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    gc.freeze()  # all alive now stays alive until exit: the shutdown collections need not scan it
    sys.exit(code)
