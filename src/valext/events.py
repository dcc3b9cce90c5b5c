"""One context-local sink for the SPLIT/LIFT/CASE lines of the constructive
steps: emit(line) appends to the innermost open recording() and does
nothing outside one."""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

_sink: ContextVar[list[str] | None] = ContextVar("valext_events", default=None)


def emit(line: str) -> None:
    lines = _sink.get()
    if lines is not None:
        lines.append(line)


@contextmanager
def recording():
    """Yield a fresh list that collects the lines emitted inside the block."""
    token = _sink.set(lines := [])
    try:
        yield lines
    finally:
        _sink.reset(token)
