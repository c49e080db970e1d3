"""Graceful-shutdown plumbing for long-running harness commands.

:class:`GracefulShutdown` is a context manager that converts the first
SIGINT/SIGTERM into a *request* — a flag the fuzz campaign loop polls
between cases — instead of an immediate ``KeyboardInterrupt``
mid-simulation.  The campaign then stops before its next case (its
journal already holds every finished one), and the CLI prints the exact
resume command.  A second SIGINT means "no really, now": the original
handler (normally ``KeyboardInterrupt``) is re-raised so an operator is
never trapped behind a long case.

Signal handlers can only be installed from the main thread; elsewhere
(test runners, embedded use) the context degrades to a pure flag that
:meth:`GracefulShutdown.request` can still set programmatically.
"""

from __future__ import annotations

import signal
from types import FrameType
from typing import Any, Dict, Optional


class GracefulShutdown:
    """Two-stage SIGINT/SIGTERM handler (see module docstring)."""

    def __init__(self) -> None:
        self._requested = False
        self._previous: Dict[int, Any] = {}
        self._installed = False

    # -- flag interface (what the work loops see) ----------------------------

    @property
    def requested(self) -> bool:
        return self._requested

    def __call__(self) -> bool:
        """Usable directly as a ``should_stop`` predicate."""
        return self._requested

    def request(self) -> None:
        """Programmatic shutdown request (tests, deadline logic)."""
        self._requested = True

    # -- signal plumbing -----------------------------------------------------

    def _handle(self, signum: int, frame: Optional[FrameType]) -> None:
        if self._requested:
            # Second signal: restore and re-deliver so the default
            # behaviour (KeyboardInterrupt / termination) wins.
            self._restore()
            signal.raise_signal(signum)
            return
        self.request()

    def _restore(self) -> None:
        if not self._installed:
            return
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous.clear()
        self._installed = False

    def __enter__(self) -> "GracefulShutdown":
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                self._previous[signum] = signal.signal(signum, self._handle)
            self._installed = True
        except ValueError:
            # Not the main thread: run as a plain programmatic flag.
            self._previous.clear()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._restore()
