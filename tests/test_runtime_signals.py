"""Unit tests for the two-stage shutdown handler (repro.runtime.signals).

Signals are raised in-process with ``signal.raise_signal``.  A second
SIGTERM is never sent: it would reach the default action and end the
test run.
"""

from __future__ import annotations

import signal
import threading

import pytest

from repro.runtime import GracefulShutdown


def _sentinel(signum, frame):  # pragma: no cover — replaced before use
    raise AssertionError("the sentinel handler must not run")


@pytest.fixture
def handlers():
    """Install known SIGINT/SIGTERM handlers, restore the real ones."""
    saved = {s: signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)}
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _sentinel)
    yield
    for signum, handler in saved.items():
        signal.signal(signum, handler)


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                         ids=["SIGINT", "SIGTERM"])
def test_first_signal_sets_the_flag(handlers, signum):
    with GracefulShutdown() as stop:
        assert not stop.requested and not stop()
        signal.raise_signal(signum)
        assert stop.requested and stop()


def test_second_sigint_raises_keyboard_interrupt(handlers):
    with pytest.raises(KeyboardInterrupt):
        with GracefulShutdown() as stop:
            signal.raise_signal(signal.SIGINT)
            assert stop.requested
            signal.raise_signal(signal.SIGINT)
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler


def test_previous_handlers_are_back_after_exit(handlers):
    with GracefulShutdown():
        assert signal.getsignal(signal.SIGINT) is not \
            signal.default_int_handler
        assert signal.getsignal(signal.SIGTERM) is not _sentinel
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
    assert signal.getsignal(signal.SIGTERM) is _sentinel


def test_off_the_main_thread_it_is_a_plain_flag(handlers):
    seen = {}

    def body():
        with GracefulShutdown() as stop:
            seen["before"] = stop.requested
            stop.request()
            seen["after"] = stop.requested and stop()

    thread = threading.Thread(target=body)
    thread.start()
    thread.join(10)
    assert seen == {"before": False, "after": True}
    # No handler was installed, so none needed restoring.
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
    assert signal.getsignal(signal.SIGTERM) is _sentinel
