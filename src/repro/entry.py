"""Process entry points that end quietly when their reader goes away.

``python -m repro.experiments --quick | head -1`` closes the pipe after
one line.  The report's next write then raises :class:`BrokenPipeError`,
and so would the interpreter's own flush of ``sys.stdout`` at exit.
Every ``python -m repro.*`` main runs through :func:`run_main` instead.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, NoReturn, Optional


def run_main(main: Callable[[], Optional[int]]) -> NoReturn:
    """``sys.exit(main())``, ending with status 1 and no traceback when
    standard output's reader has closed the pipe.

    This is the handling the Python documentation recommends (the
    :mod:`signal` module's note on SIGPIPE): flush inside the ``try`` so
    a failure on the last buffered bytes is caught too, then point
    standard output at ``os.devnull`` so the flush at exit cannot raise
    again.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
