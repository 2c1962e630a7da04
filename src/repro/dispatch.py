"""Dispatch settings shared by the fleet, the study config and the CLI.

The executor names and the chunk-size rule live here, once, in a module
that imports nothing: ``python -m repro`` builds its argument parser
from them without loading the library.
"""

from __future__ import annotations

__all__ = ["EXECUTORS", "check_chunk_size"]

#: Fleet executors; ``auto`` is a process pool on a multi-core host and
#: serial execution otherwise.
EXECUTORS = ("auto", "serial", "thread", "process")


def check_chunk_size(chunk_size: "int | str") -> "int | str":
    """``chunk_size`` itself if it is ``"auto"`` or a positive int, else ``ValueError``."""
    if chunk_size == "auto":
        return chunk_size
    if isinstance(chunk_size, bool) or not isinstance(chunk_size, int):
        raise ValueError(f'chunk_size must be "auto" or a positive int, got {chunk_size!r}')
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return chunk_size
