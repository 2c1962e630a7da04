"""Dispatch settings shared by the fleet, the study config and the CLI.

The executor names live here, once, in a module that imports nothing:
``python -m repro`` builds its argument parser from them without
loading the library.
"""

from __future__ import annotations

__all__ = ["EXECUTORS"]

#: Fleet executors; ``auto`` is a process pool on a multi-core host and
#: serial execution otherwise.
EXECUTORS = ("auto", "serial", "thread", "process")
